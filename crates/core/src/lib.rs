//! The inca-rs harness: full deployments, end-to-end simulation, live
//! TCP runs, and the experiment drivers for every table and figure in
//! the paper's evaluation.
//!
//! * [`deployment`] — builds complete deployments: the simulated VO,
//!   the service agreement, and one specification file per resource
//!   (reporter assignment reproducing Table 2, random-offset cron
//!   schedules, cross-site targets),
//! * [`sim_run`] — the event-driven simulation: every distributed
//!   controller fires on its schedule against the simulated VO,
//!   reports flow through the in-process centralized controller into
//!   the depot, and periodic verification passes record availability,
//! * [`live`] — the same components wired over real localhost TCP,
//! * [`experiments`] — one module per paper table/figure producing the
//!   data the bench binaries print (see DESIGN.md's experiment index),
//!   and the paper's own depot they time (`experiments::paper_depot`),
//! * [`impact`] — the §5.1 client-impact model behind Figure 7: `top`
//!   samples of a distributed controller and its forks, fed by the
//!   daemon's real process table,
//! * [`stats`] — Table 4's response-time statistics per report-size
//!   bucket and Figure 8's size histogram, kept by the paper depot.

pub mod deployment;
pub mod experiments;
mod hist;
pub mod impact;
pub mod live;
pub mod sim_run;
pub mod stats;

pub use deployment::{teragrid_deployment, Deployment, ResourceAssignment};
pub use impact::{ImpactModel, ImpactSample};
pub use sim_run::{SimOptions, SimOutcome, SimRun};
