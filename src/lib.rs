//! # inca-rs
//!
//! A from-scratch Rust reproduction of **"The Inca Test Harness and
//! Reporting Framework"** (Smallen et al., SC 2004): a generic system
//! for automated testing, data collection, verification and monitoring
//! of *VO service agreements*, as deployed on the 2004 TeraGrid.
//!
//! This facade crate re-exports the whole workspace under stable
//! module names. Start with [`harness::teragrid_deployment`] and
//! [`harness::SimRun`] for an end-to-end simulated deployment, or see
//! the `examples/` directory:
//!
//! ```
//! use inca::prelude::*;
//!
//! // A tiny end-to-end run: one hour of the TeraGrid-like deployment.
//! let start = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
//! let deployment = teragrid_deployment(42, start, start + 3_600);
//! let outcome = SimRun::new(deployment, SimOptions::default()).run();
//! assert!(outcome.final_page.verified_count() > 0);
//! ```
//!
//! ## Architecture (paper §3, Figure 1)
//!
//! | Paper component | Crate |
//! |---|---|
//! | Reporter specification (header/body/footer, branch ids) | [`report`] |
//! | Reporters (version, unit, env, probes, benchmarks) | [`reporters`] |
//! | Distributed controller (cron, fork, kill, forward) | [`controller`] |
//! | Centralized controller + depot + query interface | [`server`] |
//! | Service agreements + compliance metrics | [`agreement`] |
//! | Data consumers (status pages, availability, bandwidth) | [`consumer`] |
//! | Substrates: XML, cron, RRD, wire, simulated VO | [`xml`], [`cron`], [`rrd`], [`wire`], [`sim`] |
//! | Deployments, simulation, experiments | [`harness`] |
//! | Observability: tracing spans + Prometheus metrics | [`obs`] |
//! | Self-monitoring: SLO rules, alerts, health page | [`health`] |
//! | The paper's 2004 depot cache (exhibits and test oracle) | [`paper`] |

pub use inca_agreement as agreement;
pub use inca_consumer as consumer;
pub use inca_controller as controller;
pub use inca_core as harness;
pub use inca_cron as cron;
pub use inca_health as health;
pub use inca_obs as obs;
pub use inca_paper as paper;
pub use inca_report as report;
pub use inca_reporters as reporters;
pub use inca_rrd as rrd;
pub use inca_server as server;
pub use inca_sim as sim;
pub use inca_wire as wire;
pub use inca_xml as xml;

/// Commonly-used items for quick starts.
pub mod prelude {
    pub use inca_agreement::{verify_resource, Agreement, Category, ComplianceSummary};
    pub use inca_consumer::{build_status_page, render_status_page, AvailabilityTracker};
    pub use inca_controller::{DistributedController, Spec, SpecEntry};
    pub use inca_core::{teragrid_deployment, Deployment, SimOptions, SimRun};
    pub use inca_health::{default_rules, HealthMonitor, SloRule};
    pub use inca_obs::Obs;
    pub use inca_report::{Body, BranchId, Report, ReportBuilder, Timestamp};
    pub use inca_reporters::{Reporter, ReporterContext};
    pub use inca_rrd::{ArchivePolicy, ConsolidationFn};
    pub use inca_server::{CentralizedController, Depot, QueryInterface, RopeCache};
    pub use inca_sim::{ServiceKind, Vo, VoResource};
    pub use inca_wire::envelope::{Envelope, EnvelopeMode};
    pub use inca_xml::{Element, IncaPath};
}
