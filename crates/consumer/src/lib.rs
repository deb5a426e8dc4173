//! Inca data consumers.
//!
//! "A data consumer queries the Inca server for data. Often, data
//! consumers display the comparison of data stored at the Inca server
//! to a machine-readable description of the service agreements and
//! apply predefined metrics to express the degree of resource
//! compliance" (§3.3). The 2004 deployment's consumers were CGI
//! scripts; here they are library functions producing structured data
//! plus text renderings:
//!
//! * [`summary`] — the Figure 4 status page: per-resource pass/fail
//!   counts and percentages for the Grid/Development/Cluster
//!   categories, with the expanded error view,
//! * [`availability`] — the Figure 5 consumer: archives summary
//!   percentages over time and retrieves weekly availability series,
//! * [`bandwidth`] — the Figure 6 consumer: hourly bandwidth series
//!   from the archived pathload reports,
//! * [`view`] — the Figure 4 comparison kept current pass by pass:
//!   per-resource reports and summaries, re-verified only where the
//!   depot says something was written since the last pass,
//! * [`render`] — text renderers: aligned tables, red/green status
//!   cells, and the horizontal histograms used by Figures 7 and 8.

pub mod availability;
pub mod cross_site;
pub mod bandwidth;
pub mod render;
pub mod stack_page;
pub mod summary;
pub mod view;

pub use availability::AvailabilityTracker;
pub use bandwidth::{bandwidth_archive_rule, bandwidth_series};
pub use render::{render_histogram, render_status_page, render_table};
pub use stack_page::{build_stack_page, render_stack_page, PackageStatus, StackPage};
pub use summary::{build_status_page, StatusPage, StatusRow};
pub use view::{ComplianceView, PassStats};
pub use cross_site::{grid_service_availability, probe_observations};
