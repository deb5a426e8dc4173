//! The federated depot tier: many depots, one query plane.
//!
//! The paper runs a single depot on `inca.sdsc.edu`; this module
//! scales that out. A [`PartitionMap`] (rendezvous hashing over
//! site/VO keys) assigns every branch to one of N depot partitions,
//! each a full [`CentralizedController`] — allowlist, seq dedup,
//! archive rules and all — so a partition is simply *the* server for
//! the sites it owns. Three planes tie the partitions back into one
//! logical depot:
//!
//! * **Ingest**: [`Federation::submit_batch`] decodes each submission
//!   once and routes it to the owning partition; the exactly-once
//!   contract is unchanged because each daemon's `(daemon_id, seq)`
//!   stream lands wholly on one partition's `DedupIndex`.
//! * **Query**: [`Federation::global_document`] fans out to every
//!   partition and merges in canonical sibling order
//!   ([`QueryInterface::merged_document`]) — byte-identical to what a
//!   single depot holding every report would serve — memoized on the
//!   per-partition cache generations so repeated global queries cost
//!   O(1) until something changes. Site-scoped queries route to the
//!   one owning partition and stay O(result).
//! * **Aggregation**: [`Federation::site_rollups`] condenses each
//!   site's current reports into one per-site availability report;
//!   forwarded up through a `DepotRelay` (the controller crate's
//!   exactly-once spool over a `Transport`), a parent depot archives
//!   them under [`rollup_rule`] and answers VO-scope compliance
//!   windows from `TemporalQuery::federated_aggregate` without ever
//!   materializing a leaf document.

mod partition;

pub use partition::{routing_key, PartitionMap};

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use inca_obs::metrics::{Counter, Gauge, Histogram, DEFAULT_LATENCY_BOUNDS};
use inca_obs::Obs;
use inca_report::{BranchId, ReportBuilder, Timestamp};
use inca_rrd::ArchivePolicy;
use inca_wire::message::{ClientMessage, ServerResponse};

use crate::controller::{CentralizedController, ControllerConfig, DecodedSubmission};
use crate::depot::archive::ArchiveRule;
use inca_report::cache::CacheError;
use crate::depot::depot::{Depot, DepotTiming};
use crate::query::QueryInterface;

/// Branch component marking a federated per-site rollup report
/// (`scope=fed.rollup.availability`), placed adjacent to `vo=` so an
/// archive rule's suffix query can select rollups — and only rollups
/// — VO-wide.
pub const ROLLUP_SCOPE: &str = "fed.rollup.availability";

/// Name of the parent-side archive rule ingesting rollups; rule-fed
/// series list as `fed-availability:{branch}`.
pub const ROLLUP_RULE_NAME: &str = "fed-availability";

/// Shape of the federated depot tier.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Depot partition names (the partition map's universe).
    pub partitions: Vec<String>,
    /// Upper bound on any single partition's cache bytes; checked by
    /// [`Federation::over_bound_partitions`] (`None` = unbounded).
    pub cache_byte_bound: Option<usize>,
    /// The VO the rollup branches carry (`vo=` component).
    pub vo: String,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            partitions: (0..8).map(|i| format!("depot{i}")).collect(),
            cache_byte_bound: None,
            vo: "tg".into(),
        }
    }
}

/// A tier of depot partitions behind one submit/query plane.
pub struct Federation {
    map: PartitionMap,
    /// Partition name → its controller. Each partition carries its own
    /// [`Obs`] so identically-named depot metrics do not clobber each
    /// other across partitions; federation-level metrics live in the
    /// handle passed to [`Federation::new`].
    depots: BTreeMap<String, Arc<CentralizedController>>,
    config: FederationConfig,
    /// Memoized global document, keyed by the per-partition cache
    /// generations it was merged from.
    memo: Mutex<Option<(Vec<u64>, String)>>,
    largest_cache: Arc<Gauge>,
    global_queries: Arc<Counter>,
    merge_hist: Arc<Histogram>,
    leaf_materializations: Arc<Counter>,
    rollup_reports: Arc<Counter>,
}

impl Federation {
    /// Builds the tier: one depot + controller per configured
    /// partition. Partition allowlists default to allow-all (the
    /// federation fronts them behind its own routing); tighten via
    /// [`Federation::controller`] + `with_depot_mut` as needed.
    pub fn new(config: FederationConfig, obs: Obs) -> Federation {
        let map = PartitionMap::new(config.partitions.iter().cloned());
        let depots = map
            .partitions()
            .iter()
            .map(|name| {
                let depot = Depot::with_obs(Obs::new());
                let controller = CentralizedController::new(ControllerConfig::default(), depot);
                (name.clone(), Arc::new(controller))
            })
            .collect();
        let metrics = obs.metrics();
        // Set once at construction; the registry keeps it alive.
        metrics
            .gauge("inca_fed_partitions", "Depot partitions in the federation's partition map.")
            .set(map.len() as f64);
        let largest_cache = metrics.gauge(
            "inca_fed_largest_cache_bytes",
            "Cache bytes of the largest depot partition.",
        );
        let global_queries = metrics.counter(
            "inca_fed_global_queries_total",
            "Global (all-partition) document queries answered.",
        );
        let merge_hist = metrics.histogram(
            "inca_fed_merge_seconds",
            "Time merging per-partition report sets into the global document.",
            &DEFAULT_LATENCY_BOUNDS,
        );
        let leaf_materializations = metrics.counter(
            "inca_fed_leaf_materializations_total",
            "Leaf reports materialized out of partition caches to answer \
             federation-level queries (stays flat when rollups answer instead).",
        );
        let rollup_reports = metrics.counter(
            "inca_fed_rollup_reports_total",
            "Per-site rollup reports produced for forwarding to a parent depot.",
        );
        Federation {
            map,
            depots,
            config,
            memo: Mutex::new(None),
            largest_cache,
            global_queries,
            merge_hist,
            leaf_materializations,
            rollup_reports,
        }
    }

    /// The routing map.
    pub fn partition_map(&self) -> &PartitionMap {
        &self.map
    }

    /// The federation's configuration.
    pub fn config(&self) -> &FederationConfig {
        &self.config
    }

    /// The controller of one partition, for serving it behind a
    /// network frontend or uploading archive rules.
    pub fn controller(&self, partition: &str) -> Option<&Arc<CentralizedController>> {
        self.depots.get(partition)
    }

    /// The partition owning `branch`.
    pub fn route(&self, branch: &BranchId) -> &str {
        self.map.route(branch)
    }

    /// Routes a burst of `(peer_host, payload)` submissions, one depot
    /// batch per owning partition, returning responses in input order.
    ///
    /// Each payload is decoded once, here: its branch picks the
    /// partition, and the decoded message goes on to the owning
    /// controller's admission (allowlist, dedup, envelope). An
    /// undecodable payload is rejected here — there is no partition it
    /// could belong to.
    pub fn submit_batch(
        &self,
        submissions: &[(String, Vec<u8>)],
        now: Timestamp,
    ) -> Vec<(ServerResponse, Option<DepotTiming>)> {
        let mut results: Vec<Option<(ServerResponse, Option<DepotTiming>)>> =
            (0..submissions.len()).map(|_| None).collect();
        // Group per partition preserving input order within each
        // group; BTreeMap keeps the partition visit order stable.
        let mut groups: BTreeMap<&str, (Vec<usize>, Vec<DecodedSubmission>)> = BTreeMap::new();
        for (index, (peer_host, payload)) in submissions.iter().enumerate() {
            let submission = DecodedSubmission::new(peer_host.as_str(), payload);
            match self.route_decoded(&submission) {
                Ok(partition) => {
                    let (indices, batch) = groups.entry(partition).or_default();
                    indices.push(index);
                    batch.push(submission);
                }
                Err(unroutable) => results[index] = Some((unroutable, None)),
            }
        }
        for (partition, (indices, batch)) in groups {
            let outcomes = self.depots[partition].submit_batch_decoded(batch, now);
            for (index, outcome) in indices.into_iter().zip(outcomes) {
                results[index] = Some(outcome);
            }
        }
        self.sync_gauges();
        results.into_iter().map(|r| r.expect("every submission resolved")).collect()
    }

    /// The partition owning a decoded submission's branch, or the
    /// rejection for one that did not decode.
    fn route_decoded(&self, submission: &DecodedSubmission) -> Result<&str, ServerResponse> {
        match &submission.message {
            Ok(message) => Ok(self.map.route(&message.branch)),
            Err(e) => Err(ServerResponse::Rejected(format!("unroutable: {e}"))),
        }
    }

    /// The global cache document: every partition's reports, merged in
    /// canonical sibling order — byte-identical to a single depot
    /// holding the same reports.
    ///
    /// Memoized on the vector of per-partition cache generations:
    /// while no partition ingests, repeated global queries return the
    /// cached merge without materializing anything. A miss counts
    /// every materialized leaf report in
    /// `inca_fed_leaf_materializations_total`.
    pub fn global_document(&self) -> Result<String, CacheError> {
        self.global_queries.inc();
        let mut generations = Vec::with_capacity(self.depots.len());
        let mut sets: Vec<Vec<(BranchId, String)>> = Vec::with_capacity(self.depots.len());
        {
            let mut memo = self.memo.lock().expect("federation memo");
            // First pass: generations only, to test the memo without
            // touching any report.
            for controller in self.depots.values() {
                generations.push(controller.with_depot(|d| d.cache().generation()));
            }
            if let Some((memo_generations, document)) = memo.as_ref() {
                if *memo_generations == generations {
                    return Ok(document.clone());
                }
            }
            // Stale: re-read generation and reports together per
            // partition so the memo key matches what was merged.
            generations.clear();
            for controller in self.depots.values() {
                let (generation, reports) = controller.with_depot(
                    |d| -> Result<_, CacheError> {
                        Ok((d.cache().generation(), d.query_reports(None)?.0))
                    },
                )?;
                generations.push(generation);
                self.leaf_materializations.add(reports.len() as u64);
                sets.push(reports);
            }
            let started = Instant::now();
            let document = QueryInterface::merged_document(&sets)?;
            self.merge_hist.observe_duration(started.elapsed());
            *memo = Some((generations, document.clone()));
            Ok(document)
        }
    }

    /// Cached reports matching a suffix query, across the federation,
    /// sorted by branch for a deterministic merge order.
    ///
    /// A query naming a `site` routes to the one owning partition
    /// (O(result)); anything broader fans out to every partition and
    /// counts the materialized leaves.
    pub fn reports(
        &self,
        query: Option<&BranchId>,
    ) -> Result<Vec<(BranchId, String)>, CacheError> {
        let mut out: Vec<(BranchId, String)> = Vec::new();
        match query.and_then(|q| q.get("site")) {
            Some(site) => {
                let partition = self.map.partition_for(site);
                out = self.depots[partition].with_depot(|d| d.query_reports(query))?.0;
            }
            None => {
                for controller in self.depots.values() {
                    let set = controller.with_depot(|d| d.query_reports(query))?.0;
                    self.leaf_materializations.add(set.len() as u64);
                    out.extend(set);
                }
            }
        }
        out.sort_by_key(|(a, _)| a.to_string());
        Ok(out)
    }

    /// Condenses each site's cached reports into one availability
    /// rollup report per site (percentage of the site's reports whose
    /// exit status is success), addressed on
    /// `site={site},scope=fed.rollup.availability,vo={vo}` and ready
    /// to forward to a parent depot through a `DepotRelay`. Reports
    /// already marked with the rollup scope are excluded, so a parent
    /// that is itself federated never rolls up rollups.
    pub fn site_rollups(&self, now: Timestamp) -> Vec<ClientMessage> {
        // site → (successes, total), across every partition.
        let mut per_site: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for controller in self.depots.values() {
            let reports = match controller.with_depot(|d| d.query_reports(None)) {
                Ok((reports, _)) => reports,
                Err(_) => continue,
            };
            for (branch, xml) in reports {
                if branch.get("scope") == Some(ROLLUP_SCOPE) {
                    continue;
                }
                let site = match branch.get("site") {
                    Some(site) => site.to_string(),
                    None => continue,
                };
                let success = inca_report::Report::parse(&xml)
                    .map(|r| r.is_success())
                    .unwrap_or(false);
                let entry = per_site.entry(site).or_insert((0, 0));
                entry.1 += 1;
                if success {
                    entry.0 += 1;
                }
            }
        }
        let mut rollups = Vec::with_capacity(per_site.len());
        for (site, (successes, total)) in per_site {
            let availability = 100.0 * successes as f64 / total.max(1) as f64;
            let report = ReportBuilder::new(ROLLUP_SCOPE, "1")
                .gmt(now)
                .body_value("availability", format!("{availability:.4}"))
                .success()
                .expect("rollup report is statically well-formed");
            let branch = rollup_branch(&site, &self.config.vo);
            let partition = self.map.partition_for(&site).to_string();
            rollups.push(ClientMessage::report(partition, branch, &report));
        }
        self.rollup_reports.add(rollups.len() as u64);
        rollups
    }

    /// Total cached reports across all partitions.
    pub fn report_count(&self) -> usize {
        self.depots
            .values()
            .map(|c| c.with_depot(|d| d.cache().report_count()))
            .sum()
    }

    /// Cache bytes of the largest partition.
    pub fn largest_cache_bytes(&self) -> usize {
        self.depots
            .values()
            .map(|c| c.with_depot(|d| d.cache().size_bytes()))
            .max()
            .unwrap_or(0)
    }

    /// Partitions whose cache exceeds the configured byte bound, with
    /// their sizes. Empty when unbounded or everyone fits.
    pub fn over_bound_partitions(&self) -> Vec<(String, usize)> {
        let bound = match self.config.cache_byte_bound {
            Some(bound) => bound,
            None => return Vec::new(),
        };
        self.depots
            .iter()
            .filter_map(|(name, controller)| {
                let bytes = controller.with_depot(|d| d.cache().size_bytes());
                (bytes > bound).then(|| (name.clone(), bytes))
            })
            .collect()
    }

    /// Duplicate submissions absorbed across all partitions.
    pub fn duplicate_count(&self) -> u64 {
        self.depots.values().map(|c| c.duplicate_count()).sum()
    }

    fn sync_gauges(&self) {
        self.largest_cache.set(self.largest_cache_bytes() as f64);
    }
}

/// The branch a site's rollup report is addressed on:
/// `site={site},scope=fed.rollup.availability,vo={vo}`. The scope
/// marker sits adjacent to `vo=` so [`rollup_rule`]'s *suffix* query
/// matches every site's rollup and nothing else.
pub fn rollup_branch(site: &str, vo: &str) -> BranchId {
    BranchId::new([("site", site), ("scope", ROLLUP_SCOPE), ("vo", vo)])
        .expect("site/vo are valid branch values")
}

/// The parent-side archive rule ingesting forwarded rollups: one
/// rule-fed series per site branch, listed as
/// `fed-availability:{branch}`, which
/// `TemporalQuery::federated_aggregate("fed-availability:", …)`
/// combines into the VO-scope compliance answer. `period_secs` is the
/// rollup forwarding period.
pub fn rollup_rule(vo: &str, period_secs: u64) -> ArchiveRule {
    ArchiveRule {
        name: ROLLUP_RULE_NAME.into(),
        query: format!("scope={ROLLUP_SCOPE},vo={vo}")
            .parse()
            .expect("vo is a valid branch value"),
        path: "availability".parse().expect("static path"),
        policy: ArchivePolicy::every("fed-week", 7 * 86_400),
        period_secs,
    }
}

/// The series-name prefix selecting every site's rollup series on the
/// parent, for `federated_aggregate`.
pub fn rollup_series_prefix() -> String {
    format!("{ROLLUP_RULE_NAME}:")
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_report::Report;

    fn leaf_message(site: &str, host: &str, up: bool) -> ClientMessage {
        let builder = ReportBuilder::new("probe.avail", "1")
            .host(host)
            .gmt(Timestamp::from_secs(1000))
            .body_value("status", if up { "up" } else { "down" });
        let report =
            if up { builder.success() } else { builder.failure("probe failed") }.unwrap();
        let branch: BranchId =
            format!("reporter=probe.avail,resource={host},site={site},vo=tg")
                .parse()
                .unwrap();
        ClientMessage::report(host, branch, &report)
    }

    fn federation(partitions: usize) -> Federation {
        Federation::new(
            FederationConfig {
                partitions: (0..partitions).map(|i| format!("depot{i}")).collect(),
                ..FederationConfig::default()
            },
            Obs::new(),
        )
    }

    fn submit_all(fed: &Federation, messages: &[ClientMessage]) {
        let batch: Vec<(String, Vec<u8>)> =
            messages.iter().map(|m| (m.resource.clone(), m.encode())).collect();
        for (response, _) in fed.submit_batch(&batch, Timestamp::from_secs(1000)) {
            assert_eq!(response, ServerResponse::Ack);
        }
    }

    fn messages(sites: usize, hosts_per_site: usize) -> Vec<ClientMessage> {
        (0..sites)
            .flat_map(|s| {
                (0..hosts_per_site).map(move |h| {
                    leaf_message(
                        &format!("site{s:03}"),
                        &format!("host{h}.site{s:03}.example.org"),
                        (s + h) % 4 != 0,
                    )
                })
            })
            .collect()
    }

    #[test]
    fn submissions_route_by_site_and_spread() {
        let fed = federation(8);
        submit_all(&fed, &messages(40, 2));
        assert_eq!(fed.report_count(), 80);
        let occupied = fed
            .partition_map()
            .partitions()
            .iter()
            .filter(|p| {
                fed.controller(p).unwrap().with_depot(|d| d.cache().report_count()) > 0
            })
            .count();
        assert!(occupied >= 6, "40 sites should land on most of 8 partitions, got {occupied}");
    }

    #[test]
    fn same_site_always_lands_on_one_partition() {
        let fed = federation(8);
        submit_all(&fed, &messages(10, 3));
        for s in 0..10 {
            let site = format!("site{s:03}");
            let owner = fed.partition_map().partition_for(&site);
            let query: BranchId = format!("site={site},vo=tg").parse().unwrap();
            let held = fed.controller(owner).unwrap().with_depot(|d| {
                d.query_reports(Some(&query)).unwrap().0.len()
            });
            assert_eq!(held, 3, "all of {site}'s reports live on {owner}");
        }
    }

    #[test]
    fn global_document_is_byte_identical_to_single_depot_oracle() {
        let msgs = messages(24, 2);
        let fed = federation(8);
        submit_all(&fed, &msgs);

        let oracle = CentralizedController::new(
            ControllerConfig::default(),
            Depot::with_obs(Obs::new()),
        );
        for m in &msgs {
            let (response, _) =
                oracle.submit(&m.resource, &m.encode(), Timestamp::from_secs(1000));
            assert_eq!(response, ServerResponse::Ack);
        }
        let oracle_doc = oracle.with_depot(|d| d.cache().document().to_string());
        assert_eq!(fed.global_document().unwrap(), oracle_doc);
    }

    #[test]
    fn global_document_memoizes_until_ingest() {
        let fed = federation(4);
        submit_all(&fed, &messages(12, 1));
        let first = fed.global_document().unwrap();
        let materialized_after_first = fed.leaf_count();
        let second = fed.global_document().unwrap();
        assert_eq!(first, second);
        assert_eq!(
            fed.leaf_count(),
            materialized_after_first,
            "memo hit must not re-materialize leaves"
        );
        // New ingest invalidates the memo.
        submit_all(&fed, &[leaf_message("site999", "h.site999.example.org", true)]);
        let third = fed.global_document().unwrap();
        assert_ne!(third, second);
        assert!(fed.leaf_count() > materialized_after_first);
    }

    impl Federation {
        fn leaf_count(&self) -> u64 {
            self.leaf_materializations.get()
        }
    }

    #[test]
    fn site_scoped_reports_do_not_materialize_other_partitions() {
        let fed = federation(8);
        submit_all(&fed, &messages(20, 2));
        let before = fed.leaf_count();
        let query: BranchId = "site=site003,vo=tg".parse().unwrap();
        let got = fed.reports(Some(&query)).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(fed.leaf_count(), before, "site query is O(result), no fan-out");
    }

    #[test]
    fn site_rollups_summarize_each_site_once() {
        let fed = federation(8);
        // site000: host0 down, host1..3 up → 75%. site001: all up.
        submit_all(
            &fed,
            &[
                leaf_message("site000", "h0.site000", false),
                leaf_message("site000", "h1.site000", true),
                leaf_message("site000", "h2.site000", true),
                leaf_message("site000", "h3.site000", true),
                leaf_message("site001", "h0.site001", true),
            ],
        );
        let rollups = fed.site_rollups(Timestamp::from_secs(2000));
        assert_eq!(rollups.len(), 2);
        assert_eq!(rollups[0].branch, rollup_branch("site000", "tg"));
        let report = Report::parse(&rollups[0].report_xml).unwrap();
        let path: inca_xml::IncaPath = "availability".parse().unwrap();
        assert_eq!(report.body.lookup_text(&path).unwrap(), "75.0000");
        let report = Report::parse(&rollups[1].report_xml).unwrap();
        assert_eq!(report.body.lookup_text(&path).unwrap(), "100.0000");
        // Rollups of rollups are excluded: feeding them back into the
        // federation and rolling up again reproduces the same sites.
        submit_all(&fed, &rollups);
        let again = fed.site_rollups(Timestamp::from_secs(3000));
        assert_eq!(again.len(), 2, "rollup reports themselves are not rolled up");
    }

    #[test]
    fn rollup_rule_matches_rollup_branches_only() {
        let rule = rollup_rule("tg", 3600);
        assert!(rollup_branch("sdsc", "tg").matches_suffix(&rule.query));
        let leaf: BranchId =
            "reporter=probe.avail,resource=h,site=sdsc,vo=tg".parse().unwrap();
        assert!(!leaf.matches_suffix(&rule.query));
        assert_eq!(rollup_series_prefix(), "fed-availability:");
    }

    #[test]
    fn over_bound_partitions_reports_oversized_caches() {
        let mut config = FederationConfig {
            partitions: vec!["a".into(), "b".into()],
            ..FederationConfig::default()
        };
        config.cache_byte_bound = Some(1);
        let fed = Federation::new(config, Obs::new());
        submit_all(&fed, &messages(4, 1));
        let over = fed.over_bound_partitions();
        assert!(!over.is_empty(), "a 1-byte bound flags every occupied partition");
        for (_, bytes) in over {
            assert!(bytes > 1);
        }
        assert!(fed.largest_cache_bytes() > 1);
    }

    /// Routing on the decoded message changes where a submission is
    /// admitted, never how: the mixed batch through the federation —
    /// one at a time and as a burst — is answered and counted exactly
    /// as a single controller admits it, except that a frame with no
    /// branch to route on is turned away at the door.
    #[test]
    fn federation_admits_the_mixed_batch_like_a_single_controller() {
        use crate::controller::tests::{mixed_submissions, observed};
        let submissions = mixed_submissions();
        let now = Timestamp::from_secs(2_000);
        let oracle = CentralizedController::new(
            ControllerConfig::default(),
            Depot::with_obs(Obs::new()),
        );
        let want = observed(&oracle, oracle.submit_batch(&submissions, now));

        let single = federation(4);
        let one_by_one: Vec<_> = submissions
            .iter()
            .flat_map(|submission| single.submit_batch(std::slice::from_ref(submission), now))
            .collect();
        let batched = federation(4);
        let burst = batched.submit_batch(&submissions, now);
        for (fed, got) in [(&single, one_by_one), (&batched, burst)] {
            let mut unroutable = 0;
            for (((response, timing), (want_response, want_timing)), (_, payload)) in
                got.iter().zip(&want.responses).zip(&submissions)
            {
                assert_eq!(timing.is_some(), *want_timing);
                match ClientMessage::decode(payload) {
                    Ok(_) => assert_eq!(response, want_response),
                    Err(e) => {
                        unroutable += 1;
                        assert_eq!(
                            *response,
                            ServerResponse::Rejected(format!("unroutable: {e}"))
                        );
                    }
                }
            }
            // Partition counters add up to the single controller's;
            // unroutable frames never reach a partition's decode count.
            let total = |name: &str, labels: &[(&str, &str)]| -> u64 {
                fed.depots
                    .values()
                    .map(|c| c.obs().metrics().counter_value(name, labels).unwrap_or(0))
                    .sum()
            };
            let got_counters = [
                total("inca_controller_accepted_total", &[]),
                total("inca_controller_rejected_total", &[("reason", "allowlist")]),
                total("inca_controller_rejected_total", &[("reason", "decode")]) + unroutable,
                total("inca_controller_rejected_total", &[("reason", "depot")]),
                total("inca_depot_duplicates_total", &[]),
            ];
            assert_eq!(got_counters.map(Some), want.counters);
            assert_eq!(fed.duplicate_count(), want.duplicates);
            let errors: u64 = fed.depots.values().map(|c| c.error_report_count()).sum();
            assert_eq!(errors, want.error_reports);
            assert_eq!(fed.global_document().unwrap(), want.document);
        }
    }

    #[test]
    fn undecodable_submission_is_rejected_not_routed() {
        let fed = federation(2);
        let results = fed.submit_batch(
            &[("h".into(), b"not a message".to_vec()), ("h".into(), b"junk".to_vec())],
            Timestamp::from_secs(0),
        );
        for (response, timing) in results {
            assert!(matches!(response, ServerResponse::Rejected(_)));
            assert!(timing.is_none());
        }
    }
}
