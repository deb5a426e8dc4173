//! The Inca distributed controller — the client daemon on every VO
//! resource.
//!
//! §3.1.3: "The distributed controllers are responsible for managing
//! the execution of reporters on a resource and forwarding data to the
//! Inca server… The specification file describes execution details for
//! each reporter including frequency, expected run time, and input
//! arguments… The daemon also monitors all forked processes and
//! terminates them if they exceed expected run time."
//!
//! * [`spec`] — the specification file (parse/serialize, per-reporter
//!   cron frequency, expected runtime, branch identifier, args),
//! * [`exec`] — the process table and the execution-duration model
//!   (which reporters take how long, deterministic per seed),
//! * [`scheduler`] — the dependency gate on reporter runs (the paper's
//!   §6 future work, implemented here as an ablation),
//! * [`forwarder`] — the [`Transport`] abstraction plus the TCP
//!   implementation used in live deployments, and the [`DepotRelay`]
//!   that turns a federated depot into an exactly-once forwarding
//!   client toward its parent,
//! * [`daemon`] — the controller itself: fires due entries, executes
//!   reporters against the simulated VO, kills over-budget runs and
//!   submits the §3.1.3 special error reports, forwards results,
//! * [`spool`] — the bounded durable delivery queue behind exactly-once
//!   report ingest: per-daemon `(daemon_id, seq)` stamping, capped
//!   exponential backoff with deterministic jitter, dump/restore
//!   across daemon restarts.
//!
//! [`Transport`]: forwarder::Transport

pub mod daemon;
pub mod exec;
pub mod forwarder;
pub mod scheduler;
pub mod spec;
pub mod spool;

pub use daemon::{DistributedController, RunStats};
pub use exec::{DurationModel, ExecRecord, ProcessTable};
pub use forwarder::{
    CollectingTransport, DepotRelay, RelayOutcome, TcpTransport, Transport, DEFAULT_IO_TIMEOUT,
};
pub use scheduler::Scheduler;
pub use spec::{Spec, SpecEntry};
pub use spool::{BackoffPolicy, Spool, SpoolConfig, SpoolEntry};
