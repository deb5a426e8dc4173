//! VO service agreements and their verification.
//!
//! "VO service agreements are created to describe the requirements for
//! resource sharing and operational policies across VO resources as
//! quantifiable properties" (§1). "Verification is accomplished by
//! gathering data from each VO resource, comparing that data to the
//! service agreement, and measuring compliance" (§1).
//!
//! * [`spec`] — the machine-readable agreement (§4.1: "a
//!   machine-readable version of the service agreement was formatted
//!   in XML"): required packages with version constraints per
//!   Grid/Development/Cluster category, required environment
//!   variables, SoftEnv keys and services,
//! * [`version_req`] — version constraints (`>=2.4.0`, `2.4.x`,
//!   exact) over dotted, suffixed version strings,
//! * [`verify`] — comparing a resource's cached reports to the
//!   agreement, producing per-test pass/fail results with error
//!   detail,
//! * [`metrics`] — compliance metrics: per-category summary
//!   percentages (the Figure 4 status page numbers) and the §3.3
//!   cross-site Grid-availability metric.

pub mod metrics;
pub mod spec;
pub mod verify;
pub mod version_req;

pub use metrics::{grid_availability, CategorySummary, ComplianceSummary, ProbeObservation};
pub use spec::{Agreement, Category, EnvVarRequirement, PackageRequirement};
pub use verify::{
    reports_by_reporter, verify_resource, Requirement, ReportsByReporter, ResourceVerification,
    TestResult,
};
pub use version_req::{Version, VersionReq};
