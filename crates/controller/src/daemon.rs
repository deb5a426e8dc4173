//! The distributed controller daemon.
//!
//! Drives the full §3.1.3 behaviour: wake on cron fire, fork a process
//! per due reporter, kill processes that exceed their expected run
//! time (submitting the special error report), forward completed
//! reports with their branch identifiers, and keep the process table
//! that the §5.1 impact model samples.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

use inca_obs::metrics::{Counter, Gauge};
use inca_obs::{Obs, Severity, TraceContext};
use inca_report::{Header, Report, Timestamp};
use inca_reporters::catalog::CatalogEntry;
use inca_reporters::{Reporter, ReporterContext};
use inca_sim::Vo;
use inca_wire::message::{ClientMessage, ServerResponse};

use crate::exec::{DurationModel, ExecRecord, ProcessTable};
use crate::forwarder::Transport;
use crate::scheduler::Scheduler;
use crate::spec::Spec;
use crate::spool::{Spool, SpoolConfig, SpoolEntry};

/// Counters the daemon keeps over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Reporter processes forked.
    pub executed: u64,
    /// Runs that completed with a successful report.
    pub succeeded: u64,
    /// Runs that completed with a failed report.
    pub failed: u64,
    /// Runs killed for exceeding expected runtime.
    pub killed: u64,
    /// Runs skipped because a dependency's last run failed.
    pub skipped_dependency: u64,
    /// Submissions the server rejected *permanently*. Transient
    /// transport failures are no longer counted here: the spool
    /// retries them (see `inca_daemon_retries_total`) until the server
    /// answers one way or the other.
    pub forward_errors: u64,
    /// Fires swallowed because the daemon's own host was down (only
    /// when offline-when-down modelling is enabled).
    pub offline_skips: u64,
}

/// The per-resource client daemon.
pub struct DistributedController {
    spec: Spec,
    scheduler: Scheduler,
    registry: BTreeMap<String, Box<dyn Reporter>>,
    transport: Box<dyn Transport>,
    duration_model: DurationModel,
    processes: ProcessTable,
    stats: RunStats,
    /// Pending fires as `(time, entry)` — the daemon's wake-up queue.
    /// Lazily primed; kept in sync by `run_next_batch`.
    pending: BinaryHeap<Reverse<(u64, usize)>>,
    primed_after: Option<Timestamp>,
    obs: Obs,
    /// Killed runs (`inca_daemon_kills_total`) — the §3.1.3 timeout
    /// path.
    kills: Arc<Counter>,
    /// Entries dropped from the wake-up queue because no next cron
    /// fire could be computed (`inca_daemon_missed_schedules_total`).
    missed: Arc<Counter>,
    /// Dependency-gated skips (`inca_daemon_skipped_dependency_total`).
    skipped: Arc<Counter>,
    /// Rejected or failed forwards (`inca_daemon_forward_errors_total`).
    forward_errs: Arc<Counter>,
    /// Fires swallowed while the host was down
    /// (`inca_daemon_offline_skips_total`).
    offline: Arc<Counter>,
    /// When set, a fire on a down host (per the VO's failure model) is
    /// swallowed instead of executed — the daemon process lives on the
    /// resource it monitors, so an outage silences it. Off by default:
    /// the paper's availability experiments measure the *reporters*
    /// detecting the outage, which requires the daemon to keep running.
    offline_when_down: bool,
    /// The durable delivery queue: every fire's report is enqueued
    /// (stamped `(daemon_id, seq)`) before any delivery attempt.
    spool: Spool,
    /// When set, `forward` only enqueues; an external driver (the
    /// simulation's drain loop) pulls due entries and resolves them.
    /// When clear, the daemon drains its own spool through its
    /// transport after every fire.
    deferred_delivery: bool,
    /// Aggregate spool depth across daemons sharing the registry
    /// (`inca_daemon_spool_depth`), maintained by per-daemon deltas.
    spool_depth: Arc<Gauge>,
    /// Delivery retry attempts (`inca_daemon_retries_total`).
    retries: Arc<Counter>,
    /// Spooled reports dropped at capacity
    /// (`inca_daemon_spool_dropped_total`).
    spool_drops: Arc<Counter>,
    /// Last depth/drop readings pushed to the shared metrics, for the
    /// delta sync after each spool mutation.
    last_depth: usize,
    last_dropped: u64,
}

impl DistributedController {
    /// Creates a daemon for `spec`, forwarding through `transport` and
    /// observing into [`Obs::global`].
    pub fn new(spec: Spec, transport: Box<dyn Transport>, seed: u64) -> DistributedController {
        DistributedController::with_obs(spec, transport, seed, Obs::global())
    }

    /// Like [`DistributedController::new`], with spans and metrics
    /// going to `obs`. Counters aggregate across every daemon sharing
    /// the handle (one registry per simulated VO, typically).
    pub fn with_obs(
        spec: Spec,
        transport: Box<dyn Transport>,
        seed: u64,
        obs: Obs,
    ) -> DistributedController {
        let metrics = obs.metrics();
        let kills = metrics.counter(
            "inca_daemon_kills_total",
            "Reporter runs killed for exceeding their expected run time.",
        );
        let missed = metrics.counter(
            "inca_daemon_missed_schedules_total",
            "Spec entries dropped from the wake-up queue (no next cron fire).",
        );
        let skipped = metrics.counter(
            "inca_daemon_skipped_dependency_total",
            "Runs skipped because a dependency's last run failed.",
        );
        let forward_errs = metrics.counter(
            "inca_daemon_forward_errors_total",
            "Report submissions rejected by the server or lost in transit.",
        );
        let offline = metrics.counter(
            "inca_daemon_offline_skips_total",
            "Reporter fires swallowed because the daemon's host was down.",
        );
        let spool_depth = metrics.gauge(
            "inca_daemon_spool_depth",
            "Reports queued in daemon spools awaiting server acknowledgement.",
        );
        let retries = metrics.counter(
            "inca_daemon_retries_total",
            "Report delivery retry attempts (second and later sends of one report).",
        );
        let spool_drops = metrics.counter(
            "inca_daemon_spool_dropped_total",
            "Spooled reports dropped oldest-first at spool capacity.",
        );
        let spool = Spool::new(spec.resource.clone(), SpoolConfig::default());
        DistributedController {
            spec,
            scheduler: Scheduler::default(),
            registry: BTreeMap::new(),
            transport,
            duration_model: DurationModel::new(seed),
            processes: ProcessTable::new(),
            stats: RunStats::default(),
            pending: BinaryHeap::new(),
            primed_after: None,
            obs,
            kills,
            missed,
            skipped,
            forward_errs,
            offline,
            offline_when_down: false,
            spool,
            deferred_delivery: false,
            spool_depth,
            retries,
            spool_drops,
            last_depth: 0,
            last_dropped: 0,
        }
    }

    /// Makes the daemon go silent while its host is down (per the VO's
    /// failure model): due fires are swallowed and counted instead of
    /// executed, so no report — not even an error report — reaches the
    /// server until the host recovers. This is the realistic outage
    /// shape the health subsystem's staleness rules detect.
    pub fn set_offline_when_down(&mut self, offline: bool) {
        self.offline_when_down = offline;
    }

    /// Registers a runnable reporter under its own name.
    pub fn register(&mut self, reporter: Box<dyn Reporter>) {
        self.registry.insert(reporter.name().to_string(), reporter);
    }

    /// Instantiates and registers every catalog entry referenced by the
    /// spec, using each spec entry's `target` for cross-site kinds.
    pub fn register_from_catalog(&mut self, catalog: &[CatalogEntry]) {
        let by_name: BTreeMap<&str, &CatalogEntry> =
            catalog.iter().map(|e| (e.name.as_str(), e)).collect();
        for entry in &self.spec.entries {
            if self.registry.contains_key(&entry.reporter) {
                continue;
            }
            // A spec may deploy several instances of one reporter with
            // different targets (Table 2 counts instances); instance
            // names carry a `#n` suffix stripped for catalog lookup.
            let program = entry.reporter.split('#').next().unwrap_or(&entry.reporter);
            if let Some(cat) = by_name.get(program) {
                let target = entry.target.as_deref().unwrap_or("");
                self.registry.insert(entry.reporter.clone(), cat.instantiate(target));
            }
        }
    }

    /// The spec this daemon executes.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// Lifetime counters.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// The forked-process history (input to the impact model).
    pub fn processes(&self) -> &ProcessTable {
        &self.processes
    }

    /// Builds the wake-up queue with each entry's first fire strictly
    /// after `t`. Idempotent for the same `t`.
    pub fn prime(&mut self, t: Timestamp) {
        if self.primed_after == Some(t) {
            return;
        }
        self.pending.clear();
        for (idx, entry) in self.spec.entries.iter().enumerate() {
            match entry.cron.next_after(t) {
                Ok(fire) => self.pending.push(Reverse((fire.as_secs(), idx))),
                Err(_) => self.missed.inc(),
            }
        }
        self.primed_after = Some(t);
    }

    /// The earliest pending fire in the wake-up queue.
    pub fn peek_next(&self) -> Option<Timestamp> {
        self.pending.peek().map(|Reverse((secs, _))| Timestamp::from_secs(*secs))
    }

    /// Executes every queue entry scheduled at the earliest pending
    /// time, reschedules them, and returns that time. `None` when the
    /// queue is empty (unprimed daemon or no live cron entries).
    pub fn run_next_batch(&mut self, vo: &Vo) -> Option<Timestamp> {
        let Reverse((secs, _)) = *self.pending.peek()?;
        let t = Timestamp::from_secs(secs);
        while let Some(&Reverse((s, idx))) = self.pending.peek() {
            if s != secs {
                break;
            }
            self.pending.pop();
            if self.scheduler.dependency_satisfied(&self.spec, idx) {
                self.execute_entry(idx, t, vo);
            } else {
                self.stats.skipped_dependency += 1;
                self.skipped.inc();
            }
            match self.spec.entries[idx].cron.next_after(t) {
                Ok(next) => self.pending.push(Reverse((next.as_secs(), idx))),
                Err(_) => self.missed.inc(),
            }
        }
        Some(t)
    }

    fn execute_entry(&mut self, idx: usize, t: Timestamp, vo: &Vo) {
        let entry = self.spec.entries[idx].clone();
        if self.offline_when_down
            && vo.resource(&self.spec.resource).is_some_and(|r| !r.is_up(t))
        {
            self.stats.offline_skips += 1;
            self.offline.inc();
            self.obs
                .event("daemon.offline_skip")
                .severity(Severity::Warn)
                .field("reporter", &entry.reporter)
                .field("resource", &self.spec.resource)
                .field("fired_at", t.as_secs())
                .finish();
            return;
        }
        self.stats.executed += 1;
        let duration = self.duration_model.duration_secs(&entry.reporter, t);
        let expected = entry.expected_runtime_secs.max(1);
        // The report's lifecycle trace starts here: the root context is
        // minted per fire and carried on the wire so the server and
        // depot spans (and histogram exemplars) join the same trace.
        let ctx = TraceContext::root();
        let span = self
            .obs
            .span("daemon.run")
            .trace_ctx(ctx)
            .field("reporter", &entry.reporter)
            .field("resource", &self.spec.resource)
            .field("fired_at", t.as_secs())
            .field("sim_duration_s", duration);
        let wire_ctx = span.child_ctx().unwrap_or(ctx);

        if duration > expected {
            // Killed: the daemon terminates the fork at t + expected
            // and submits the special error report (§3.1.3).
            let end = t + expected;
            self.processes.record(ExecRecord { start: t, end, killed: true });
            self.stats.killed += 1;
            self.kills.inc();
            span.severity(Severity::Warn).field("outcome", "killed").finish();
            let header = Header::new(&entry.reporter, "1.0", &self.spec.resource, end);
            let report = Report::execution_error(
                header,
                format!(
                    "{}: exceeded expected run time of {expected}s; process killed",
                    entry.reporter
                ),
            );
            self.scheduler.record_outcome(&entry.reporter, false);
            self.forward(
                ClientMessage::error_report(
                    self.spec.resource.clone(),
                    entry.branch.clone(),
                    &report,
                )
                .with_trace(wire_ctx),
                t,
            );
            return;
        }

        let end = t + duration;
        self.processes.record(ExecRecord { start: t, end, killed: false });
        let mut report = match (self.registry.get(&entry.reporter), vo.resource(&self.spec.resource)) {
            (Some(reporter), Some(resource)) => {
                let ctx = ReporterContext::new(vo, resource, t);
                reporter.run(&ctx)
            }
            (None, _) => {
                let header = Header::new(&entry.reporter, "1.0", &self.spec.resource, end);
                Report::execution_error(
                    header,
                    format!("{}: reporter not installed on resource", entry.reporter),
                )
            }
            (_, None) => {
                let header = Header::new(&entry.reporter, "1.0", &self.spec.resource, end);
                Report::execution_error(
                    header,
                    format!("{}: resource unknown to VO", self.spec.resource),
                )
            }
        };
        // The spec's input arguments are "supplied at run time" and
        // recorded in the header (§3.1.2).
        if !entry.args.is_empty() {
            report.header.args.extend(entry.args.iter().cloned());
        }
        let success = report.is_success();
        if success {
            self.stats.succeeded += 1;
        } else {
            self.stats.failed += 1;
        }
        span.field("outcome", if success { "succeeded" } else { "failed" }).finish();
        self.scheduler.record_outcome(&entry.reporter, success);
        self.forward(
            ClientMessage::report(self.spec.resource.clone(), entry.branch.clone(), &report)
                .with_trace(wire_ctx),
            t,
        );
    }

    /// Queues `message` in the spool (stamping its `(daemon_id, seq)`
    /// identity) and — unless delivery is deferred to an external
    /// driver — immediately drains every due entry through the
    /// transport.
    fn forward(&mut self, message: ClientMessage, t: Timestamp) {
        self.spool.enqueue(message);
        self.sync_spool_metrics();
        if !self.deferred_delivery {
            self.deliver_pending(t);
        }
    }

    /// Drains the spool head-of-line at simulated/wall time `t`: sends
    /// each due entry in seq order, acking on success, dropping (and
    /// counting a forward error) on permanent rejection, and backing
    /// off — which stops the drain, preserving per-branch order — on a
    /// transport failure.
    pub fn deliver_pending(&mut self, t: Timestamp) {
        let now = t.as_secs();
        loop {
            let head = match self.spool.head_if_due(now) {
                Some(entry) => entry,
                None => break,
            };
            if head.attempts > 0 {
                self.retries.inc();
            }
            match self.transport.send(&head.message) {
                Ok(ServerResponse::Ack) => {
                    self.spool.ack(head.seq);
                }
                Ok(ServerResponse::Rejected(_)) => {
                    self.spool.reject(head.seq);
                    self.note_forward_error();
                }
                Err(_) => {
                    self.spool.nack(head.seq, now);
                    break;
                }
            }
        }
        self.sync_spool_metrics();
    }

    /// Pushes the spool's depth/drop deltas into the shared metrics
    /// (the gauge aggregates every daemon on the registry, so each
    /// daemon applies only its own change).
    fn sync_spool_metrics(&mut self) {
        let depth = self.spool.depth();
        if depth > self.last_depth {
            self.spool_depth.add((depth - self.last_depth) as f64);
        } else if depth < self.last_depth {
            self.spool_depth.sub((self.last_depth - depth) as f64);
        }
        self.last_depth = depth;
        let dropped = self.spool.dropped();
        if dropped > self.last_dropped {
            self.spool_drops.add(dropped - self.last_dropped);
        }
        self.last_dropped = dropped;
    }

    /// Records one rejected or lost forward after the fact. Batched
    /// submission paths (the simulation drains buffered reports into
    /// one server call per tick) learn the server's verdict only once
    /// the batch returns, so the transport acks optimistically and the
    /// driver reconciles rejections through this.
    pub fn note_forward_error(&mut self) {
        self.stats.forward_errors += 1;
        self.forward_errs.inc();
    }

    /// Hands delivery to an external driver: `forward` only enqueues,
    /// and the driver pulls due entries with
    /// [`DistributedController::due_deliveries`] and resolves each via
    /// the `delivery_*` methods. The simulation uses this so all
    /// delivery (and fault-injection) decisions happen in its
    /// sequential drain phase, keeping multi-threaded runs
    /// deterministic.
    pub fn set_deferred_delivery(&mut self, deferred: bool) {
        self.deferred_delivery = deferred;
    }

    /// Read access to the delivery spool.
    pub fn spool(&self) -> &Spool {
        &self.spool
    }

    /// The longest deliverable prefix of the spool at `now` (the whole
    /// queue when `ignore_backoff`), in seq order. Counts a retry for
    /// every returned entry already attempted once. The caller must
    /// resolve each entry through [`DistributedController::delivery_acked`],
    /// [`delivery_rejected`](DistributedController::delivery_rejected),
    /// [`delivery_lost`](DistributedController::delivery_lost) or
    /// [`delivery_delayed`](DistributedController::delivery_delayed).
    pub fn due_deliveries(&mut self, now: Timestamp, ignore_backoff: bool) -> Vec<SpoolEntry> {
        let due = self.spool.due_prefix(now.as_secs(), ignore_backoff);
        for entry in &due {
            if entry.attempts > 0 {
                self.retries.inc();
            }
        }
        due
    }

    /// The server acked `seq`: it left the spool for good.
    pub fn delivery_acked(&mut self, seq: u64) {
        self.spool.ack(seq);
        self.sync_spool_metrics();
    }

    /// The server permanently rejected `seq`: dropped from the spool
    /// and counted as a forward error (retrying would only be rejected
    /// again).
    pub fn delivery_rejected(&mut self, seq: u64) {
        self.spool.reject(seq);
        self.note_forward_error();
        self.sync_spool_metrics();
    }

    /// The send (or its reply) was lost at time `now`: `seq` stays
    /// spooled with one more failed attempt and a backoff deadline.
    pub fn delivery_lost(&mut self, seq: u64, now: Timestamp) {
        self.spool.nack(seq, now.as_secs());
        self.sync_spool_metrics();
    }

    /// The send is delayed in flight: `seq` stays spooled, without a
    /// failed attempt, until `until`.
    pub fn delivery_delayed(&mut self, seq: u64, until: Timestamp) {
        self.spool.defer(seq, until.as_secs());
        self.sync_spool_metrics();
    }

    /// Earliest second any spooled delivery is next due (`None` when
    /// the spool is empty) — the event the driver's wake-up queue
    /// must include.
    pub fn next_delivery_due(&self) -> Option<Timestamp> {
        self.spool.next_due_secs().map(Timestamp::from_secs)
    }

    /// Simulates a daemon restart mid-spool: the spool is dumped to
    /// bytes and restored exactly as a freshly started daemon would,
    /// proving the WAL round-trip preserves the sequence counter and
    /// queued reports (backoff deadlines reset — a restarted daemon
    /// retries immediately).
    pub fn restart_spool(&mut self, t: Timestamp) {
        let bytes = self.spool.dump();
        self.spool = Spool::restore(&bytes, self.spool.config())
            .expect("a dumped spool always restores");
        self.obs
            .event("daemon.restart")
            .severity(Severity::Warn)
            .field("resource", &self.spec.resource)
            .field("at", t.as_secs())
            .field("spool_depth", self.spool.depth() as u64)
            .finish();
    }

    /// Drives the daemon over `[from, to)` of simulated time.
    pub fn run_until(&mut self, vo: &Vo, from: Timestamp, to: Timestamp) {
        self.prime(from);
        while let Some(next) = self.peek_next() {
            if next >= to {
                break;
            }
            self.run_next_batch(vo);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forwarder::CollectingTransport;
    use crate::spec::SpecEntry;
    use inca_report::BranchId;
    use inca_reporters::catalog::teragrid_catalog;
    use inca_sim::{NetworkModel, ResourceSpec, VoResource};
    use std::sync::Arc;

    struct SharedTransport(Arc<CollectingTransport>);
    impl Transport for SharedTransport {
        fn send(&self, m: &ClientMessage) -> Result<ServerResponse, String> {
            self.0.send(m)
        }
    }

    fn test_vo() -> Vo {
        let mut vo = Vo::new("tg", vec![], NetworkModel::new(0));
        vo.add_resource(VoResource::healthy(ResourceSpec::new(
            "host.sdsc.edu",
            "sdsc",
            2,
            "x",
            1000,
            2.0,
        )));
        vo
    }

    fn branch_for(reporter: &str) -> BranchId {
        format!("reporter={reporter},resource=host,site=sdsc,vo=tg").parse().unwrap()
    }

    fn spec_with(entries: Vec<SpecEntry>) -> Spec {
        let mut spec = Spec::new("host.sdsc.edu");
        for e in entries {
            spec.push(e);
        }
        spec
    }

    #[test]
    fn fires_and_forwards_reports() {
        let transport = Arc::new(CollectingTransport::new());
        let spec = spec_with(vec![SpecEntry::new(
            "version.globus",
            "20 * * * *".parse().unwrap(),
            600,
            branch_for("version.globus"),
        )]);
        let mut daemon =
            DistributedController::new(spec, Box::new(SharedTransport(transport.clone())), 7);
        daemon.register_from_catalog(&teragrid_catalog());
        let vo = test_vo();
        let start = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
        daemon.run_until(&vo, start, start + 3 * 3_600);
        assert_eq!(daemon.stats().executed, 3, "hourly entry fires three times");
        let sent = transport.take_sent();
        assert_eq!(sent.len(), 3);
        for m in &sent {
            assert_eq!(m.resource, "host.sdsc.edu");
            assert!(!m.is_error_report);
            let report = Report::parse(&m.report_xml).unwrap();
            assert!(report.is_success());
            assert_eq!(report.header.reporter, "version.globus");
        }
    }

    #[test]
    fn every_forward_carries_a_fresh_trace_context() {
        let transport = Arc::new(CollectingTransport::new());
        let spec = spec_with(vec![SpecEntry::new(
            "version.globus",
            "20 * * * *".parse().unwrap(),
            600,
            branch_for("version.globus"),
        )]);
        let mut daemon =
            DistributedController::new(spec, Box::new(SharedTransport(transport.clone())), 7);
        daemon.register_from_catalog(&teragrid_catalog());
        let vo = test_vo();
        let start = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
        daemon.run_until(&vo, start, start + 3 * 3_600);
        let sent = transport.take_sent();
        assert_eq!(sent.len(), 3);
        let mut trace_ids = std::collections::HashSet::new();
        for m in &sent {
            let ctx = m.trace.expect("every forwarded report carries a trace context");
            assert_ne!(ctx.trace_id, 0);
            assert!(trace_ids.insert(ctx.trace_id), "each fire mints its own trace");
        }
    }

    #[test]
    fn offline_when_down_swallows_fires_silently() {
        use inca_sim::{FailureModel, OutageSchedule};
        let transport = Arc::new(CollectingTransport::new());
        let spec = spec_with(vec![SpecEntry::new(
            "version.globus",
            "20 * * * *".parse().unwrap(),
            600,
            branch_for("version.globus"),
        )]);
        let mut daemon =
            DistributedController::new(spec, Box::new(SharedTransport(transport.clone())), 7);
        daemon.register_from_catalog(&teragrid_catalog());
        daemon.set_offline_when_down(true);

        let start = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
        let mut vo = Vo::new("tg", vec![], NetworkModel::new(0));
        let mut res = VoResource::healthy(ResourceSpec::new("host.sdsc.edu", "sdsc", 2, "x", 1000, 2.0));
        res.failure = FailureModel {
            resource_outages: OutageSchedule::from_intervals(vec![(start, start + 2 * 3_600)]),
            ..FailureModel::none()
        };
        vo.add_resource(res);

        // Fires at 00:20 and 01:20 hit the outage; 02:20 runs normally.
        daemon.run_until(&vo, start, start + 3 * 3_600);
        let stats = daemon.stats();
        assert_eq!(stats.offline_skips, 2, "{stats:?}");
        assert_eq!(stats.executed, 1, "{stats:?}");
        assert_eq!(
            transport.take_sent().len(),
            1,
            "a down host sends nothing, not even error reports"
        );
    }

    #[test]
    fn kills_over_budget_runs_and_sends_error_report() {
        let transport = Arc::new(CollectingTransport::new());
        // expected runtime 1 s: almost every run exceeds it.
        let spec = spec_with(vec![SpecEntry::new(
            "benchmark.grasp.flops",
            "0 * * * *".parse().unwrap(),
            1,
            branch_for("benchmark.grasp.flops"),
        )]);
        let mut daemon =
            DistributedController::new(spec, Box::new(SharedTransport(transport.clone())), 7);
        daemon.register_from_catalog(&teragrid_catalog());
        let vo = test_vo();
        let start = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
        daemon.run_until(&vo, start, start + 2 * 3_600);
        assert!(daemon.stats().killed >= 1);
        assert_eq!(daemon.processes().kill_count(), daemon.stats().killed as usize);
        let sent = transport.take_sent();
        assert!(sent.iter().any(|m| m.is_error_report));
        let err = sent.iter().find(|m| m.is_error_report).unwrap();
        let report = Report::parse(&err.report_xml).unwrap();
        assert!(report
            .footer
            .error_message
            .as_deref()
            .unwrap()
            .contains("exceeded expected run time"));
    }

    #[test]
    fn unregistered_reporter_yields_error_report() {
        let transport = Arc::new(CollectingTransport::new());
        let spec = spec_with(vec![SpecEntry::new(
            "version.mystery",
            "5 * * * *".parse().unwrap(),
            600,
            branch_for("version.mystery"),
        )]);
        let mut daemon =
            DistributedController::new(spec, Box::new(SharedTransport(transport.clone())), 7);
        let vo = test_vo();
        let start = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
        daemon.run_until(&vo, start, start + 3_600);
        assert_eq!(daemon.stats().failed, 1);
        let sent = transport.take_sent();
        let report = Report::parse(&sent[0].report_xml).unwrap();
        assert!(!report.is_success());
        assert!(report.footer.error_message.unwrap().contains("not installed"));
    }

    #[test]
    fn dependency_skip_counted() {
        let transport = Arc::new(CollectingTransport::new());
        let mut gated = SpecEntry::new(
            "unit.globus.smoke",
            "10 * * * *".parse().unwrap(),
            600,
            branch_for("unit.globus.smoke"),
        );
        gated.depends_on = Some("version.missingpkg".into());
        let spec = spec_with(vec![
            SpecEntry::new(
                "version.missingpkg",
                "5 * * * *".parse().unwrap(),
                600,
                branch_for("version.missingpkg"),
            ),
            gated,
        ]);
        let mut daemon =
            DistributedController::new(spec, Box::new(SharedTransport(transport.clone())), 7);
        daemon.register_from_catalog(&teragrid_catalog());
        // version.missingpkg is not in the catalog → fails each run →
        // the gated unit test is skipped from the second period on.
        let vo = test_vo();
        let start = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
        daemon.run_until(&vo, start, start + 2 * 3_600);
        assert!(daemon.stats().skipped_dependency >= 1, "{:?}", daemon.stats());
    }

    #[test]
    fn spec_args_recorded_in_headers() {
        let transport = Arc::new(CollectingTransport::new());
        let mut entry = SpecEntry::new(
            "version.globus",
            "20 * * * *".parse().unwrap(),
            600,
            branch_for("version.globus"),
        );
        entry.args.push(("siteConfig".into(), "/etc/inca/site.conf".into()));
        let spec = spec_with(vec![entry]);
        let mut daemon =
            DistributedController::new(spec, Box::new(SharedTransport(transport.clone())), 7);
        daemon.register_from_catalog(&teragrid_catalog());
        let vo = test_vo();
        let start = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
        daemon.run_until(&vo, start, start + 3_600);
        let sent = transport.take_sent();
        let report = Report::parse(&sent[0].report_xml).unwrap();
        assert_eq!(report.header.get_arg("siteConfig"), Some("/etc/inca/site.conf"));
        // The reporter's own args are still there too.
        assert_eq!(report.header.get_arg("package"), Some("globus"));
    }

    #[test]
    fn process_table_matches_executions() {
        let transport = Arc::new(CollectingTransport::new());
        let spec = spec_with(vec![
            SpecEntry::new("version.globus", "15 * * * *".parse().unwrap(), 600, branch_for("version.globus")),
            SpecEntry::new("unit.srb.smoke", "45 * * * *".parse().unwrap(), 600, branch_for("unit.srb.smoke")),
        ]);
        let mut daemon =
            DistributedController::new(spec, Box::new(SharedTransport(transport)), 7);
        daemon.register_from_catalog(&teragrid_catalog());
        let vo = test_vo();
        let start = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
        daemon.run_until(&vo, start, start + 4 * 3_600);
        assert_eq!(daemon.processes().records().len(), 8);
        assert_eq!(daemon.stats().executed, 8);
    }

    #[test]
    fn lost_sends_stay_spooled_and_retry_on_next_fire() {
        use parking_lot::Mutex;
        struct Flaky {
            failures_left: Mutex<u32>,
            sent: Mutex<Vec<(Option<(String, u64)>, bool)>>,
        }
        impl Transport for Arc<Flaky> {
            fn send(&self, m: &ClientMessage) -> Result<ServerResponse, String> {
                let mut left = self.failures_left.lock();
                if *left > 0 {
                    *left -= 1;
                    self.sent.lock().push((m.origin.clone(), false));
                    return Err("connection refused".into());
                }
                self.sent.lock().push((m.origin.clone(), true));
                Ok(ServerResponse::Ack)
            }
        }
        let flaky = Arc::new(Flaky { failures_left: Mutex::new(1), sent: Mutex::new(vec![]) });
        let spec = spec_with(vec![SpecEntry::new(
            "version.globus",
            "20 * * * *".parse().unwrap(),
            600,
            branch_for("version.globus"),
        )]);
        let obs = inca_obs::Obs::new();
        let mut daemon = DistributedController::with_obs(
            spec,
            Box::new(flaky.clone()),
            7,
            obs.clone(),
        );
        daemon.register_from_catalog(&teragrid_catalog());
        let vo = test_vo();
        let start = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
        daemon.run_until(&vo, start, start + 2 * 3_600);

        // Fire 1's send failed → spooled; fire 2 (an hour later, past
        // the backoff deadline) drains seq 1 then seq 2, in order.
        let sent = flaky.sent.lock().clone();
        let resource = "host.sdsc.edu".to_string();
        assert_eq!(
            sent,
            vec![
                (Some((resource.clone(), 1)), false),
                (Some((resource.clone(), 1)), true),
                (Some((resource, 2)), true),
            ]
        );
        assert!(daemon.spool().is_empty());
        // A transient transport failure is not a forward error...
        assert_eq!(daemon.stats().forward_errors, 0);
        // ...it is a retry.
        assert_eq!(
            obs.metrics().counter_value("inca_daemon_retries_total", &[]),
            Some(1)
        );
        assert_eq!(obs.metrics().gauge_value("inca_daemon_spool_depth", &[]), Some(0.0));
    }

    #[test]
    fn rejected_sends_drop_and_count_forward_errors() {
        let transport = Arc::new(CollectingTransport {
            respond_with: Some(ServerResponse::Rejected("allowlist".into())),
            ..CollectingTransport::new()
        });
        let spec = spec_with(vec![SpecEntry::new(
            "version.globus",
            "20 * * * *".parse().unwrap(),
            600,
            branch_for("version.globus"),
        )]);
        let mut daemon =
            DistributedController::new(spec, Box::new(SharedTransport(transport.clone())), 7);
        daemon.register_from_catalog(&teragrid_catalog());
        let vo = test_vo();
        let start = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
        daemon.run_until(&vo, start, start + 3_600);
        // A permanent rejection is not retried: the spool drains and
        // the rejection is counted.
        assert!(daemon.spool().is_empty());
        assert_eq!(daemon.stats().forward_errors, 1);
    }

    #[test]
    fn restart_mid_spool_preserves_queued_reports_and_seq() {
        struct Dead;
        impl Transport for Dead {
            fn send(&self, _: &ClientMessage) -> Result<ServerResponse, String> {
                Err("down".into())
            }
        }
        let spec = spec_with(vec![SpecEntry::new(
            "version.globus",
            "20 * * * *".parse().unwrap(),
            600,
            branch_for("version.globus"),
        )]);
        let mut daemon = DistributedController::new(spec, Box::new(Dead), 7);
        daemon.register_from_catalog(&teragrid_catalog());
        let vo = test_vo();
        let start = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
        daemon.run_until(&vo, start, start + 2 * 3_600);
        assert_eq!(daemon.spool().depth(), 2, "both fires stay queued");
        daemon.restart_spool(start + 2 * 3_600);
        assert_eq!(daemon.spool().depth(), 2, "restart loses nothing");
        let due = daemon.due_deliveries(start + 2 * 3_600, false);
        assert_eq!(due.len(), 2, "restart clears backoff deadlines");
        assert_eq!(due[0].seq, 1);
        assert_eq!(due[1].seq, 2);
        daemon.delivery_acked(1);
        daemon.delivery_acked(2);
        assert!(daemon.spool().is_empty());
    }

    #[test]
    fn run_stats_sum_consistently() {
        let transport = Arc::new(CollectingTransport::new());
        let spec = spec_with(vec![SpecEntry::new(
            "version.globus",
            "*/10 * * * *".parse().unwrap(),
            600,
            branch_for("version.globus"),
        )]);
        let mut daemon =
            DistributedController::new(spec, Box::new(SharedTransport(transport)), 7);
        daemon.register_from_catalog(&teragrid_catalog());
        let vo = test_vo();
        let start = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
        daemon.run_until(&vo, start, start + 3_600);
        let s = daemon.stats();
        assert_eq!(s.succeeded + s.failed + s.killed, s.executed);
        assert_eq!(s.forward_errors, 0);
    }
}
