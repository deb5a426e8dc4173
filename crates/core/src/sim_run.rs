//! The event-driven end-to-end simulation.
//!
//! [`SimRun`] wires a [`Deployment`] together exactly as Figure 1 draws
//! the architecture: one distributed controller per resource executing
//! reporters against the simulated VO, per-daemon spools standing in
//! for the client→server TCP hop and draining into one deterministic
//! batched submission per tick (handed to the controller's
//! [`CentralizedController::submit_batch_decoded`] as the messages the
//! daemons built — in process there is no wire, so nothing is encoded
//! or decoded), the centralized controller checking the
//! allowlist, deduplicating retransmissions by `(daemon, seq)`, and
//! enveloping reports, and the depot caching and archiving them. A
//! verification consumer runs on a fixed cadence (the paper's status
//! pages were recomputed every ten minutes) and records availability
//! percentages into the depot archive — the data behind Figures 4
//! and 5. It keeps a [`ComplianceView`], so a pass reads and verifies
//! again only what was written since the last one.
//!
//! With [`SimOptions::forward_faults`] set, the drain loop rolls the
//! fault dice per delivery attempt: dropped sends and partitions back
//! entries off in the spool, dropped replies ingest server-side but
//! retry client-side (the seq dedup absorbs the duplicate), delays
//! hold entries in flight, and scheduled restarts dump/restore a
//! daemon's spool mid-run. All delivery decisions happen in the
//! sequential drain phase, so a seed fixes the outcome — and, because
//! every spool is flushed fault-free at the horizon, the final cache is
//! the fault-free run's.

use std::sync::Arc;

use inca_agreement::ComplianceSummary;
use inca_consumer::{
    build_status_page, AvailabilityTracker, ComplianceView, PassStats, StatusPage,
};
use inca_controller::{DistributedController, Transport};
use inca_health::{render_health_page, HealthMonitor, SloRule};
use inca_obs::{Obs, TraceStore, TraceStoreConfig};
use inca_report::Timestamp;
use inca_server::{
    CacheBackend, CentralizedController, ControllerConfig, DecodedSubmission, Depot,
    MetricsScraper, QueryInterface,
};
use inca_sim::{ForwardFault, ForwardFaultConfig};
use inca_wire::envelope::EnvelopeMode;
use inca_wire::message::{ClientMessage, ServerResponse};
use inca_wire::HostAllowlist;

use crate::deployment::Deployment;

/// Transport handed to [`SimRun`]'s daemons, which run in deferred
/// delivery: every fire's report lands in the daemon's spool and the
/// run loop drains the spools into batched server submissions. The
/// transport itself must never be called — erroring loudly here turns
/// a mis-wired daemon into a visible forward failure instead of a
/// silently lost report.
struct DeferredTransport;

impl Transport for DeferredTransport {
    fn send(&self, _: &ClientMessage) -> Result<ServerResponse, String> {
        Err("deferred delivery: the simulation drain loop owns all sends".into())
    }
}

/// Simulation options.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Envelope packing mode (Binary = the zero-copy frame, the
    /// default; Body = 2004 behaviour).
    pub envelope_mode: EnvelopeMode,
    /// Selects nothing: the depot has one cache, the rope. Kept only
    /// because the gated pipeline benchmark sets it; see
    /// [`CacheBackend`].
    pub cache_backend: CacheBackend,
    /// Verification cadence in seconds (paper: every ten minutes), or
    /// `None` to skip periodic verification.
    pub verify_every_secs: Option<u64>,
    /// Resources to verify each pass (`(site, hostname)`); empty means
    /// all deployment resources.
    pub verify_resources: Vec<(String, String)>,
    /// Archive per-category availability on each verification pass.
    pub track_availability: bool,
    /// Observability handle wired through every component (depot,
    /// centralized controller, daemons). `None` uses
    /// [`Obs::global`], which is what the experiment binaries want;
    /// tests pass a fresh handle to get an isolated metrics registry
    /// and private trace sinks.
    pub obs: Option<Obs>,
    /// SLO rules for the self-monitoring [`HealthMonitor`], or `None`
    /// to disable health evaluation. The monitor shares the run's
    /// `Obs` handle, so its alerts land in the same trace sinks and
    /// its `inca_health_*` metrics in the same registry as the
    /// pipeline it watches.
    pub health_rules: Option<Vec<SloRule>>,
    /// Health evaluation cadence in simulated seconds (paper cadence
    /// for recomputed status pages: every ten minutes).
    pub health_every_secs: u64,
    /// When true, a daemon whose host resource is down swallows its
    /// reporter fires — modelling the real deployment, where the
    /// distributed controller dies with its host and the depot simply
    /// stops hearing from it. Default false: the paper's availability
    /// experiments (§5.1) need daemons alive to report failures.
    pub offline_when_down: bool,
    /// Selects nothing: daemons fire on the calling thread, one after
    /// another, at any value. Kept only because the gated pipeline
    /// benchmark sets it.
    pub sim_threads: usize,
    /// Forward-path fault injection (message/reply drops, delays,
    /// partitions, daemon restarts), or `None` for a fault-free wire.
    /// Fault decisions are deterministic per seed and applied in the
    /// sequential drain phase; the end-of-horizon flush delivers
    /// every still-spooled report fault-free, so the final cache
    /// matches the fault-free run byte for byte.
    pub forward_faults: Option<ForwardFaultConfig>,
    /// Directory for a durable [`TraceStore`] installed as a sink on
    /// the run's tracer, so every span the run emits (daemon fires,
    /// inserts, health alerts) is persisted, queryable forensic
    /// evidence — chaos runs leave their trace lineage on disk even
    /// after this process exits. `None` (default) installs nothing.
    /// Note that with the global `Obs` handle the sink stays installed
    /// after the run; pass a fresh [`SimOptions::obs`] for isolation.
    pub trace_store: Option<std::path::PathBuf>,
    /// Self-scrape cadence in simulated seconds: every interval a
    /// [`MetricsScraper`] samples the run's metrics registry into
    /// `self:`-prefixed archive series in the depot (spool depth,
    /// insert latency quantiles, alert gauges…), queryable through
    /// `TemporalQuery` like any availability series. `None` (default)
    /// disables self-scraping.
    pub scrape_every_secs: Option<u64>,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            envelope_mode: EnvelopeMode::Binary,
            cache_backend: CacheBackend::default(),
            verify_every_secs: Some(600),
            verify_resources: Vec::new(),
            track_availability: true,
            obs: None,
            health_rules: None,
            health_every_secs: 600,
            offline_when_down: false,
            sim_threads: 1,
            forward_faults: None,
            trace_store: None,
            scrape_every_secs: None,
        }
    }
}

/// Results of a completed simulation.
pub struct SimOutcome {
    /// The final status page (built at the end of the horizon).
    pub final_page: StatusPage,
    /// The daemons with their process tables and counters.
    pub daemons: Vec<DistributedController>,
    /// The server (depot inside) for further querying.
    pub server: Arc<CentralizedController>,
    /// Number of verification passes performed.
    pub verification_passes: u64,
    /// The health monitor after the run (alert history and firing
    /// set), when [`SimOptions::health_rules`] was set.
    pub health: Option<HealthMonitor>,
    /// The rendered self-monitoring page at the end of the horizon,
    /// when health monitoring was enabled.
    pub health_page: Option<String>,
    /// The durable trace store the run wrote, when
    /// [`SimOptions::trace_store`] was set. Dropping the last handle
    /// (the run's tracer holds one until its sinks are cleared) seals
    /// the final segment; the directory can be reopened with
    /// [`TraceStore::open`] at any time, by any process.
    pub trace_store: Option<Arc<TraceStore>>,
}

/// A wired, runnable simulation.
pub struct SimRun {
    deployment: Deployment,
    options: SimOptions,
    server: Arc<CentralizedController>,
    daemons: Vec<DistributedController>,
    /// One hostname per daemon, same order as `daemons` — the
    /// submission peer identity and the fault schedule's daemon key.
    hostnames: Vec<String>,
    tracker: AvailabilityTracker,
    /// The verification consumer's reports and summaries, made by the
    /// first read of [`SimRun::run`] (never here: wiring stays as cheap
    /// as it was).
    view: Option<ComplianceView>,
    monitor: Option<HealthMonitor>,
    /// Durable trace sink, when [`SimOptions::trace_store`] is set.
    trace_store: Option<Arc<TraceStore>>,
    /// Self-scrape pipeline, when [`SimOptions::scrape_every_secs`]
    /// is set.
    scraper: Option<MetricsScraper>,
}

impl SimRun {
    /// Wires a deployment with the given options.
    pub fn new(deployment: Deployment, options: SimOptions) -> SimRun {
        let allowlist = HostAllowlist::from_entries(
            deployment.assignments.iter().map(|a| a.hostname.clone()),
        );
        let config =
            ControllerConfig { allowlist, envelope_mode: options.envelope_mode };
        let obs = options.obs.clone().unwrap_or_else(Obs::global);
        let server = Arc::new(CentralizedController::new(
            config,
            Depot::with_obs(obs.clone()),
        ));
        // Upload the bandwidth archival policy (§3.2.2's one-time
        // configuration).
        server.with_depot_mut(|d| {
            d.add_archive_rule(inca_consumer::bandwidth_archive_rule(&deployment.agreement.vo))
        });
        let mut daemons = Vec::with_capacity(deployment.assignments.len());
        let mut hostnames = Vec::with_capacity(deployment.assignments.len());
        for assignment in &deployment.assignments {
            hostnames.push(assignment.hostname.clone());
            let mut daemon = DistributedController::with_obs(
                assignment.spec.clone(),
                Box::new(DeferredTransport),
                deployment.seed ^ assignment.hostname.len() as u64,
                obs.clone(),
            );
            daemon.set_deferred_delivery(true);
            daemon.set_offline_when_down(options.offline_when_down);
            daemon.register_from_catalog(&deployment.catalog);
            daemons.push(daemon);
        }
        let monitor = options
            .health_rules
            .clone()
            .map(|rules| HealthMonitor::with_obs(rules, obs.clone()));
        let trace_store = options.trace_store.as_ref().map(|dir| {
            let store = Arc::new(
                TraceStore::open(dir, TraceStoreConfig::default())
                    .expect("trace store directory is creatable"),
            );
            obs.tracer().add_sink(store.clone());
            store
        });
        let scraper =
            options.scrape_every_secs.map(|period| MetricsScraper::new(&obs, period));
        SimRun {
            deployment,
            options,
            server,
            daemons,
            hostnames,
            tracker: AvailabilityTracker::figure5(),
            view: None,
            monitor,
            trace_store,
            scraper,
        }
    }

    /// Read access to the server (e.g. to add archive rules before
    /// running).
    pub fn server(&self) -> &Arc<CentralizedController> {
        &self.server
    }

    fn verify_targets(&self) -> Vec<(String, String)> {
        if self.options.verify_resources.is_empty() {
            self.deployment.resource_labels()
        } else {
            self.options.verify_resources.clone()
        }
    }

    /// Brings the verification consumer's view up to date: it reads
    /// only the reports written since its last read, and verifies again
    /// only the resources those touched. The first call makes the view
    /// and reads everything.
    fn refresh_view(&mut self) -> PassStats {
        let targets = self.verify_targets();
        let view = self
            .view
            .get_or_insert_with(|| ComplianceView::new(&self.deployment.agreement, &targets));
        self.server.with_depot(|depot| view.refresh(&QueryInterface::new(depot)))
    }

    fn verification_pass(&mut self, t: Timestamp) -> Vec<(String, ComplianceSummary)> {
        let span = self.server.obs().span("consumer.verify_pass");
        let stats = self.refresh_view();
        span.field("changed", stats.changed)
            .field("parsed", stats.parsed)
            .field("resources_reverified", stats.resources_reverified)
            .finish();
        let view = self.view.as_ref().expect("refresh_view made the view");
        if self.options.track_availability {
            self.server.with_depot_mut(|depot| {
                for (label, summary) in view.summaries() {
                    self.tracker.record(depot, label, summary, t);
                }
            });
        }
        view.summaries().map(|(label, summary)| (label.to_string(), summary.clone())).collect()
    }

    /// Fires every daemon due at `t`, in daemon order. Each daemon is
    /// sequential internally (own seeded RNG, own scheduler, own
    /// buffer), and its reports wait in its spool for the drain.
    fn fire_due_daemons(&mut self, t: Timestamp) {
        let vo = &self.deployment.vo;
        for daemon in self.daemons.iter_mut().filter(|d| d.peek_next() == Some(t)) {
            daemon.run_next_batch(vo);
        }
    }

    /// Drains every daemon's spool into one batched server submission,
    /// rolling the fault dice per entry when a schedule is configured.
    ///
    /// The order is deterministic: spools are visited in daemon index
    /// order (each spool's content is fixed by that daemon's seed),
    /// entries leave each spool in seq order, then the combined batch is *stably* sorted by branch —
    /// so within one branch, submissions keep seq order and the
    /// cache's last-writer-wins semantics see reports in the order the
    /// daemon produced them.
    ///
    /// Delivery is head-of-line per daemon: the first entry that drops
    /// (or delays, or hits a partition) blocks the daemon's remaining
    /// entries until its own retry succeeds, exactly as a real daemon
    /// waiting on a per-attempt timeout would — and exactly what keeps
    /// a retried old report from overtaking a newer one on the same
    /// branch.
    fn drain_tick(&mut self, t: Timestamp) {
        // (daemon index, seq, message, reply_dropped)
        let mut batch: Vec<(usize, u64, ClientMessage, bool)> = Vec::new();
        let faults = self.options.forward_faults.clone().filter(|f| !f.is_none());
        for index in 0..self.daemons.len() {
            let hostname = self.hostnames[index].clone();
            let daemon = &mut self.daemons[index];
            for entry in daemon.due_deliveries(t, false) {
                let fault = faults
                    .as_ref()
                    .map(|f| f.decide(&hostname, entry.seq, entry.attempts, t))
                    .unwrap_or(ForwardFault::Deliver);
                match fault {
                    ForwardFault::Deliver => {
                        batch.push((index, entry.seq, entry.message, false));
                    }
                    ForwardFault::DropReply => {
                        // The send reaches the server; the ack doesn't
                        // come back. Block the rest of this daemon's
                        // queue behind the (apparently failed) entry.
                        batch.push((index, entry.seq, entry.message, true));
                        break;
                    }
                    ForwardFault::DropMessage => {
                        daemon.delivery_lost(entry.seq, t);
                        break;
                    }
                    ForwardFault::Delay(until) => {
                        daemon.delivery_delayed(entry.seq, until);
                        break;
                    }
                }
            }
        }
        self.submit_and_resolve(batch, t);
    }

    /// Submits a drained batch and reconciles each entry's outcome
    /// onto its daemon's spool: acked entries leave, rejected entries
    /// leave with a forward error, reply-dropped entries stay queued
    /// for a deduplicated retry.
    fn submit_and_resolve(
        &mut self,
        mut batch: Vec<(usize, u64, ClientMessage, bool)>,
        t: Timestamp,
    ) {
        if batch.is_empty() {
            return;
        }
        batch.sort_by_cached_key(|(_, _, m, _)| m.branch.to_string());
        // Every message here was built from a `Report` in this process,
        // so it goes to admission as it is: no wire, nothing to decode.
        let (resolve, submissions): (Vec<_>, Vec<_>) = batch
            .into_iter()
            .map(|(index, seq, message, reply_dropped)| {
                let submission = DecodedSubmission {
                    peer_host: self.hostnames[index].clone(),
                    payload_len: message.report_xml.len(),
                    message: Ok(message),
                };
                ((index, seq, reply_dropped), submission)
            })
            .unzip();
        let results = self.server.submit_batch_decoded(submissions, t);
        for ((index, seq, reply_dropped), (response, _)) in resolve.into_iter().zip(results) {
            let daemon = &mut self.daemons[index];
            if reply_dropped {
                // Whatever the server answered, the daemon never heard
                // it: back off and retry. If the server ingested, the
                // seq dedup absorbs the retry; if it rejected, the
                // retry is re-rejected and resolved then.
                daemon.delivery_lost(seq, t);
            } else if matches!(response, ServerResponse::Rejected(_)) {
                daemon.delivery_rejected(seq);
            } else {
                daemon.delivery_acked(seq);
            }
        }
    }

    /// Delivers everything still spooled, fault-free, at time `t` —
    /// the end-of-horizon flush that guarantees zero lost reports and
    /// a final cache byte-identical to a fault-free run. Loops until
    /// every spool is empty (one pass resolves every entry, but a
    /// depot rejection re-resolved on the second pass keeps this a
    /// loop rather than an assumption).
    fn flush_spools(&mut self, t: Timestamp) {
        loop {
            let mut batch: Vec<(usize, u64, ClientMessage, bool)> = Vec::new();
            for index in 0..self.daemons.len() {
                for entry in self.daemons[index].due_deliveries(t, true) {
                    batch.push((index, entry.seq, entry.message, false));
                }
            }
            if batch.is_empty() {
                return;
            }
            self.submit_and_resolve(batch, t);
        }
    }

    /// Runs the simulation over the deployment horizon and returns the
    /// outcome.
    pub fn run(mut self) -> SimOutcome {
        let start = self.deployment.start;
        let end = self.deployment.end;
        for daemon in &mut self.daemons {
            daemon.prime(start);
        }
        let verify_every = self.options.verify_every_secs;
        // The consumer's first read, before any report arrives: from
        // here on the depot keeps the parse its archive step makes of
        // each report, and no report is parsed twice.
        if verify_every.is_some() {
            self.refresh_view();
        }
        let mut next_verify = verify_every.map(|v| start + v);
        let health_every = self.options.health_every_secs.max(1);
        let mut next_health = self.monitor.is_some().then(|| start + health_every);
        let scrape_every = self.options.scrape_every_secs.unwrap_or(600).max(1);
        let mut next_scrape = self.scraper.is_some().then(|| start + scrape_every);
        let faults = self.options.forward_faults.clone();
        let mut passes = 0u64;
        let mut prev_t = start;
        loop {
            // The earliest pending event across all daemons.
            let next_fire =
                self.daemons.iter().filter_map(DistributedController::peek_next).min();
            // Spooled retries/delays wake the loop even between fires.
            let next_delivery =
                self.daemons.iter().filter_map(DistributedController::next_delivery_due).min();
            let next_restart = faults
                .as_ref()
                .and_then(|f| f.next_restart_after(prev_t.as_secs()))
                .map(Timestamp::from_secs);
            let next_event =
                [next_fire, next_verify, next_health, next_scrape, next_delivery, next_restart]
                    .into_iter()
                    .flatten()
                    .min();
            let Some(t) = next_event else { break };
            if t >= end {
                break;
            }
            if Some(t) == next_verify {
                self.verification_pass(t);
                passes += 1;
                next_verify = Some(t + verify_every.expect("next_verify implies cadence"));
            }
            if Some(t) == next_health {
                let server = Arc::clone(&self.server);
                if let Some(monitor) = self.monitor.as_mut() {
                    server.with_depot(|depot| {
                        monitor.evaluate(depot, t);
                    });
                }
                next_health = Some(t + health_every);
            }
            // Self-scrape after health evaluation at the same tick, so
            // freshly updated alert gauges land in this sample.
            if Some(t) == next_scrape {
                let server = Arc::clone(&self.server);
                if let Some(scraper) = self.scraper.as_mut() {
                    server.with_depot_mut(|depot| {
                        scraper.scrape(depot.archive_mut(), t);
                    });
                }
                next_scrape = Some(t + scrape_every);
            }
            // Scheduled daemon restarts in `(prev_t, t]` happen before
            // this tick's fires and drain: the restored spool's
            // entries are immediately due again.
            if let Some(f) = &faults {
                for name in f.restarts_in(prev_t.as_secs(), t.as_secs()) {
                    if let Some(index) =
                        self.hostnames.iter().position(|h| h == name)
                    {
                        self.daemons[index].restart_spool(t);
                    }
                }
            }
            self.fire_due_daemons(t);
            self.drain_tick(t);
            prev_t = t;
        }
        // Horizon flush: deliver everything still spooled with faults
        // off. No report enqueued during the run is ever lost, and the
        // final depot matches a fault-free run of the same deployment.
        self.flush_spools(end);
        let final_page = self.server.with_depot(|depot| {
            let query = QueryInterface::new(depot);
            build_status_page(
                &query,
                &self.deployment.agreement,
                &self.verify_targets(),
                end,
            )
        });
        // One closing health pass at the horizon, so alerts whose
        // condition cleared near the end resolve, then the summary
        // page — Inca monitoring Inca.
        let health_page = {
            let server = Arc::clone(&self.server);
            self.monitor.as_mut().map(|monitor| {
                server.with_depot(|depot| {
                    monitor.evaluate(depot, end);
                    render_health_page(depot, monitor, end)
                })
            })
        };
        // One closing scrape at the horizon (after the closing health
        // pass), so the self-series cover the full run including final
        // alert state and the flushed spools' depth.
        {
            let server = Arc::clone(&self.server);
            if let Some(scraper) = self.scraper.as_mut() {
                server.with_depot_mut(|depot| {
                    scraper.scrape(depot.archive_mut(), end);
                });
            }
        }
        SimOutcome {
            final_page,
            daemons: self.daemons,
            server: self.server,
            verification_passes: passes,
            health: self.monitor,
            health_page,
            trace_store: self.trace_store,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::teragrid_deployment;

    #[test]
    fn verification_pass_records_the_series_a_per_resource_pass_would() {
        // The pass records every resource under one write guard; the
        // `availability:*` series, their creation order and their
        // points must equal recording the same summaries one resource
        // (one guard) at a time.
        let (start, end) = short_horizon(2);
        let mut run = SimRun::new(
            teragrid_deployment(42, start, end),
            SimOptions { verify_every_secs: Some(600), ..Default::default() },
        );
        for daemon in &mut run.daemons {
            daemon.prime(start);
        }
        let first = run.daemons.iter().filter_map(|d| d.peek_next()).min().unwrap();
        run.fire_due_daemons(first);
        run.drain_tick(first);

        let reference = CentralizedController::new(
            ControllerConfig::default(),
            Depot::with_obs(Obs::new()),
        );
        for pass in 1..=3u64 {
            let t = first + pass * 600;
            let summaries = run.verification_pass(t);
            assert_eq!(summaries.len(), 10, "every resource verified");
            assert!(summaries.iter().any(|(_, s)| s.total().pass > 0), "the tick delivered data");
            for (label, summary) in &summaries {
                reference.with_depot_mut(|depot| run.tracker.record(depot, label, summary, t));
            }
        }
        let availability = |c: &CentralizedController| {
            c.with_depot(|d| {
                let names: Vec<String> = d
                    .archive()
                    .series_names()
                    .into_iter()
                    .filter(|name| name.starts_with("availability:"))
                    .collect();
                let series: Vec<_> = names
                    .iter()
                    .map(|name| {
                        d.archive()
                            .fetch_series(name, inca_rrd::ConsolidationFn::Average, start, end)
                            .expect("listed series fetches")
                    })
                    .collect();
                (names, series)
            })
        };
        let (names, series) = availability(&run.server);
        let (want_names, want_series) = availability(&reference);
        assert_eq!(names.len(), 40, "four series per resource");
        assert_eq!(names, want_names);
        for ((name, got), want) in names.iter().zip(&series).zip(&want_series) {
            assert!(got.same_series(want), "{name}: {got:?} != {want:?}");
        }
    }

    fn short_horizon(hours: u64) -> (Timestamp, Timestamp) {
        let start = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
        (start, start + hours * 3_600)
    }

    #[test]
    fn two_hour_full_deployment_flows_end_to_end() {
        let (start, end) = short_horizon(2);
        let deployment = teragrid_deployment(42, start, end);
        let outcome = SimRun::new(
            deployment,
            SimOptions { verify_every_secs: Some(600), ..Default::default() },
        )
        .run();
        // Every hourly instance fires twice: ~2120 submissions.
        let total_reports = outcome.server.with_depot(|d| d.report_count());
        assert!(
            (1_900..2_300).contains(&total_reports),
            "expected ~2120 reports, got {total_reports}"
        );
        // The cache holds at most one report per branch.
        let cached = outcome.server.with_depot(|d| d.cache().report_count());
        assert!(cached <= 1_060, "cache holds {cached}");
        assert!(cached > 900, "most branches populated: {cached}");
        // Verification ran every 10 minutes.
        assert!(outcome.verification_passes >= 10);
        // Status page has all ten resources.
        assert_eq!(outcome.final_page.rows.len(), 10);
        // The paper verifies "over 900 pieces of data".
        assert!(outcome.final_page.verified_count() > 400);
        // Cache size lands in the paper's ~1.5 MB ballpark.
        let bytes = outcome.server.with_depot(|d| d.cache().size_bytes());
        assert!(
            (300_000..4_000_000).contains(&bytes),
            "cache size {bytes} out of expected range"
        );
    }

    #[test]
    fn daemons_accumulate_process_history() {
        let (start, end) = short_horizon(2);
        let deployment = teragrid_deployment(7, start, end);
        let outcome = SimRun::new(
            deployment,
            SimOptions { verify_every_secs: None, ..Default::default() },
        )
        .run();
        for daemon in &outcome.daemons {
            let stats = daemon.stats();
            assert!(stats.executed > 0, "every daemon fired");
            assert_eq!(
                stats.executed as usize,
                daemon.processes().records().len(),
                "process table complete"
            );
            assert_eq!(stats.forward_errors, 0, "in-process delivery never fails");
        }
    }

    #[test]
    fn availability_series_recorded() {
        let (start, end) = short_horizon(3);
        let mut deployment = teragrid_deployment(11, start, end);
        // Track one resource only to keep the test fast.
        let label = ("caltech".to_string(), "tg-login1.caltech.teragrid.org".to_string());
        deployment.agreement = inca_agreement::Agreement::teragrid();
        let outcome = SimRun::new(
            deployment,
            SimOptions {
                verify_every_secs: Some(600),
                verify_resources: vec![label.clone()],
                ..Default::default()
            },
        )
        .run();
        let series_name = inca_consumer::AvailabilityTracker::series_name(
            &format!("{}-{}", label.0, label.1),
            inca_agreement::Category::Grid,
        );
        let points = outcome.server.with_depot(|d| {
            QueryInterface::new(d)
                .archived_series(
                    &series_name,
                    inca_rrd::ConsolidationFn::Average,
                    start,
                    end + 600,
                )
                .map(|s| s.known().count())
                .unwrap_or(0)
        });
        assert!(points >= 8, "expected availability points, got {points}");
    }
}
