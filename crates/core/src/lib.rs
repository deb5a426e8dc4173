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
//!   data the bench binaries print (see DESIGN.md's experiment index).

pub mod deployment;
pub mod experiments;
pub mod live;
pub mod sim_run;

pub use deployment::{teragrid_deployment, Deployment, ResourceAssignment};
pub use sim_run::{SimOptions, SimOutcome, SimRun};
