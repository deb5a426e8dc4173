//! The Inca *reporter specification* (§3.1.2 of the SC 2004 paper).
//!
//! A **reporter** interacts directly with a resource to perform a test,
//! benchmark or query, and emits its result as an XML *report*. The
//! specification splits every report into three sections so that a
//! completely generic framework can handle arbitrary data:
//!
//! * a uniform [`header`] — metadata about the run (reporter name and
//!   version, host, GMT timestamp, working directory, input arguments),
//! * an open-schema [`body`] — the actual data, restricted only by the
//!   unique-branch-identifier rule that makes [`inca_xml::IncaPath`]
//!   addressing possible,
//! * a uniform [`footer`] — an exit status, with an error message
//!   required on failure.
//!
//! Reports are routed by a [`branch::BranchId`] — a comma-delimited
//! list of `name=value` pairs similar to an LDAP distinguished name —
//! which tells the depot where in its cache the report lives.
//!
//! [`builder::ReportBuilder`] is the analog of the paper's Perl/Python
//! reporter APIs: it keeps reporters small by handling all the
//! spec-compliance boilerplate.

pub mod body;
pub mod branch;
pub mod builder;
pub mod footer;
pub mod header;
pub mod report;
pub mod time;

pub use body::Body;
pub use branch::BranchId;
pub use builder::ReportBuilder;
pub use footer::{ExitStatus, Footer};
pub use header::Header;
#[cfg(debug_assertions)]
pub use report::parse_calls;
pub use report::{Report, ReportError};
pub use time::Timestamp;
