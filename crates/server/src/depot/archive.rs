//! The depot's archival side: archival policies applied to report data
//! and to consumer-recorded series.
//!
//! "Archiving of numerical data is done by RRDTool. In order to
//! indicate that a piece of data is to be archived, an archival policy
//! for that data must be uploaded to the depot… one can assign several
//! pieces of data the same policy at the same time or can assign
//! policies on a reporter-by-reporter basis" (§3.2.2).
//!
//! An [`ArchiveRule`] is that uploaded policy: a branch-identifier
//! suffix selecting which reports it covers, an Inca path extracting
//! the numeric value from their bodies, and the [`ArchivePolicy`]
//! itself. Summary series recorded directly by data consumers (the
//! archived status percentages behind Figure 5) use
//! [`ArchiveStore::record`].

use std::collections::BTreeMap;
use std::sync::Arc;

use inca_obs::metrics::Counter;
use inca_obs::Obs;
use inca_report::{BranchId, Report, Timestamp};
use inca_rrd::{ArchivePolicy, ConsolidationFn, FetchResult, Rrd};
use inca_xml::IncaPath;

/// A policy uploaded to the depot: which data, where the number lives,
/// how to archive it.
#[derive(Debug, Clone)]
pub struct ArchiveRule {
    /// Rule name (for listing).
    pub name: String,
    /// Branch-identifier suffix selecting the covered reports.
    pub query: BranchId,
    /// Path to the numeric value inside matching report bodies.
    pub path: IncaPath,
    /// The archival policy.
    pub policy: ArchivePolicy,
    /// Expected seconds between measurements (the reporter's period).
    pub period_secs: u64,
}

/// The depot's collection of archives.
#[derive(Debug)]
pub struct ArchiveStore {
    rules: Vec<ArchiveRule>,
    /// (rule index, full branch string) → per-series RRD.
    rule_series: BTreeMap<(usize, String), Rrd>,
    /// Consumer-recorded summary series.
    manual_series: BTreeMap<String, Rrd>,
    /// Successful series writes (`inca_depot_archive_writes_total`).
    writes: Arc<Counter>,
}

impl ArchiveStore {
    /// An empty store observing into [`Obs::global`].
    pub fn new() -> ArchiveStore {
        ArchiveStore::with_obs(&Obs::global())
    }

    /// An empty store whose write counter registers in `obs` (for
    /// isolated metrics in tests and embedded setups).
    pub fn with_obs(obs: &Obs) -> ArchiveStore {
        ArchiveStore {
            rules: Vec::new(),
            rule_series: BTreeMap::new(),
            manual_series: BTreeMap::new(),
            writes: obs.metrics().counter(
                "inca_depot_archive_writes_total",
                "Successful archive series writes (RRD updates).",
            ),
        }
    }

    /// Uploads a rule ("this configuration has to be done only once").
    pub fn add_rule(&mut self, rule: ArchiveRule) {
        self.rules.push(rule);
    }

    /// The uploaded rules.
    pub fn rules(&self) -> &[ArchiveRule] {
        &self.rules
    }

    /// Offers a just-cached report to every matching rule. Returns how
    /// many rules ingested a value. Reports whose body lacks the
    /// rule's path (e.g. failures) are skipped silently — a gap in the
    /// archive, exactly what RRDTool's unknown handling is for.
    pub fn ingest(&mut self, branch: &BranchId, report: &Report, now: Timestamp) -> usize {
        let mut ingested = 0;
        for (idx, rule) in self.rules.iter().enumerate() {
            if !branch.matches_suffix(&rule.query) {
                continue;
            }
            let value: Option<f64> = rule
                .path
                .resolve(report.body.root())
                .map(|el| el.text())
                .and_then(|text| text.parse().ok());
            let Some(value) = value else { continue };
            let key = (idx, branch.to_string());
            let rrd = self.rule_series.entry(key).or_insert_with(|| {
                rule.policy
                    .build(now - rule.period_secs, rule.period_secs)
                    .expect("policy compiles to a valid RRD")
            });
            if rrd.update_single(now, value).is_ok() {
                ingested += 1;
            }
        }
        self.writes.add(ingested as u64);
        ingested
    }

    /// Records a point on a named summary series (consumer-side
    /// archiving, e.g. the per-category pass percentages of Figure 5).
    /// The series is created on first use with the given policy.
    pub fn record(
        &mut self,
        series: &str,
        policy: &ArchivePolicy,
        period_secs: u64,
        t: Timestamp,
        value: f64,
    ) {
        let rrd = self.manual_series.entry(series.to_string()).or_insert_with(|| {
            policy.build(t - period_secs, period_secs).expect("policy compiles to a valid RRD")
        });
        if rrd.update_single(t, value).is_ok() {
            self.writes.inc();
        }
    }

    /// Like [`ArchiveStore::record`], but a series created by this call
    /// gets a tiered multi-resolution layout
    /// ([`ArchivePolicy::build_tiered`] with the given
    /// `(consolidation factor, history seconds)` tiers) instead of the
    /// policy's single base archive — the layout the self-scrape
    /// pipeline uses so month/quarter windows over Inca's own telemetry
    /// downsample instead of replaying base resolution.
    pub fn record_tiered(
        &mut self,
        series: &str,
        policy: &ArchivePolicy,
        period_secs: u64,
        tiers: &[(u32, u64)],
        t: Timestamp,
        value: f64,
    ) {
        let rrd = self.manual_series.entry(series.to_string()).or_insert_with(|| {
            policy
                .build_tiered(t - period_secs, period_secs, tiers)
                .expect("tiered policy compiles to a valid RRD")
        });
        if rrd.update_single(t, value).is_ok() {
            self.writes.inc();
        }
    }

    /// Fetches a rule-fed series for one branch.
    pub fn fetch_rule_series(
        &self,
        rule_name: &str,
        branch: &BranchId,
        cf: ConsolidationFn,
        start: Timestamp,
        end: Timestamp,
    ) -> Option<FetchResult> {
        let idx = self.rules.iter().position(|r| r.name == rule_name)?;
        let rrd = self.rule_series.get(&(idx, branch.to_string()))?;
        rrd.fetch(cf, start, end).ok()
    }

    /// Fetches a consumer-recorded series from the archive whose
    /// resolution best matches `target_step` (see
    /// [`Rrd::fetch_resolution`] for the selection rules). With the
    /// single-archive policies [`ArchivePolicy::build`] produces this
    /// degrades to [`ArchiveStore::fetch_series`]; tiered policies
    /// ([`ArchivePolicy::build_tiered`]) give it real choices.
    pub fn fetch_series_resolution(
        &self,
        series: &str,
        cf: ConsolidationFn,
        start: Timestamp,
        end: Timestamp,
        target_step: u64,
    ) -> Option<FetchResult> {
        self.manual_series.get(series)?.fetch_resolution(cf, start, end, target_step).ok()
    }

    /// Fetches a consumer-recorded series.
    pub fn fetch_series(
        &self,
        series: &str,
        cf: ConsolidationFn,
        start: Timestamp,
        end: Timestamp,
    ) -> Option<FetchResult> {
        self.manual_series.get(series)?.fetch(cf, start, end).ok()
    }

    /// Names of all series currently held (rule-fed and manual).
    pub fn series_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .rule_series
            .keys()
            .map(|(idx, branch)| format!("{}:{branch}", self.rules[*idx].name))
            .collect();
        names.extend(self.manual_series.keys().cloned());
        names
    }

    /// Total bounded storage across all archives.
    pub fn storage_bytes(&self) -> usize {
        self.rule_series.values().chain(self.manual_series.values()).map(Rrd::storage_bytes).sum()
    }

    /// Serializes rules and every series to a single text document
    /// (sections separated by `%%`-prefixed headers; RRD payloads are
    /// the bit-exact [`Rrd::dump`] form).
    pub fn dump(&self) -> String {
        let mut out = String::from("archive-store v1\n");
        for rule in &self.rules {
            out.push_str(&format!(
                "%%rule name={} query={} path={} policy={} granularity={} history={} extremes={} period={}\n",
                rule.name,
                rule.query,
                rule.path,
                rule.policy.name,
                rule.policy.granularity,
                rule.policy.history_secs,
                rule.policy.keep_extremes,
                rule.period_secs
            ));
        }
        for ((rule_idx, branch), rrd) in &self.rule_series {
            out.push_str(&format!("%%rule-series rule={rule_idx} branch={branch}\n"));
            out.push_str(&rrd.dump());
        }
        for (name, rrd) in &self.manual_series {
            out.push_str(&format!("%%manual-series name={name}\n"));
            out.push_str(&rrd.dump());
        }
        out
    }

    /// Restores a store from [`ArchiveStore::dump`] output.
    pub fn restore(text: &str) -> Result<ArchiveStore, String> {
        let mut lines = text.lines().peekable();
        match lines.next() {
            Some("archive-store v1") => {}
            other => return Err(format!("unknown archive dump header {other:?}")),
        }
        let mut store = ArchiveStore::new();
        while let Some(header) = lines.next() {
            if let Some(rest) = header.strip_prefix("%%rule ") {
                let kv = kv_map(rest);
                let get = |k: &str| {
                    kv.get(k).cloned().ok_or_else(|| format!("rule missing {k}"))
                };
                store.add_rule(ArchiveRule {
                    name: get("name")?,
                    query: get("query")?.parse().map_err(|e| format!("bad query: {e}"))?,
                    path: get("path")?.parse().map_err(|e| format!("bad path: {e}"))?,
                    policy: ArchivePolicy {
                        name: get("policy")?,
                        granularity: get("granularity")?
                            .parse()
                            .map_err(|e| format!("bad granularity: {e}"))?,
                        history_secs: get("history")?
                            .parse()
                            .map_err(|e| format!("bad history: {e}"))?,
                        keep_extremes: get("extremes")? == "true",
                    },
                    period_secs: get("period")?.parse().map_err(|e| format!("bad period: {e}"))?,
                });
            } else if let Some(rest) = header.strip_prefix("%%rule-series ") {
                let (idx_part, branch_part) = rest
                    .split_once(" branch=")
                    .ok_or("rule-series header missing branch")?;
                let rule_idx: usize = idx_part
                    .strip_prefix("rule=")
                    .and_then(|v| v.parse().ok())
                    .ok_or("bad rule index")?;
                let rrd = read_rrd_block(&mut lines)?;
                store.rule_series.insert((rule_idx, branch_part.to_string()), rrd);
            } else if let Some(rest) = header.strip_prefix("%%manual-series ") {
                let name = rest.strip_prefix("name=").ok_or("manual-series missing name")?;
                let rrd = read_rrd_block(&mut lines)?;
                store.manual_series.insert(name.to_string(), rrd);
            } else {
                return Err(format!("unexpected line in archive dump: {header:?}"));
            }
        }
        Ok(store)
    }
}

impl Default for ArchiveStore {
    fn default() -> ArchiveStore {
        ArchiveStore::new()
    }
}

fn kv_map(s: &str) -> std::collections::BTreeMap<String, String> {
    // Rule fields never contain spaces except the path (which contains
    // ", "); normalize by splitting on " <key>=" boundaries.
    let keys = ["name", "query", "path", "policy", "granularity", "history", "extremes", "period"];
    let mut out = std::collections::BTreeMap::new();
    let mut rest = s;
    while let Some(eq) = rest.find('=') {
        let key = rest[..eq].trim().to_string();
        rest = &rest[eq + 1..];
        // Value runs until the next " <known-key>=".
        let mut end = rest.len();
        for k in keys {
            let marker = format!(" {k}=");
            if let Some(pos) = rest.find(&marker) {
                end = end.min(pos);
            }
        }
        out.insert(key, rest[..end].to_string());
        rest = rest[end..].trim_start();
        if rest.is_empty() {
            break;
        }
    }
    out
}

/// Consumes one `Rrd::dump` block (terminated by the next `%%` header
/// or end of input).
fn read_rrd_block<'a, I: Iterator<Item = &'a str>>(
    lines: &mut std::iter::Peekable<I>,
) -> Result<Rrd, String> {
    let mut block = String::new();
    while let Some(line) = lines.peek() {
        if line.starts_with("%%") {
            break;
        }
        block.push_str(line);
        block.push('\n');
        lines.next();
    }
    Rrd::restore(&block).map_err(|e| format!("bad RRD block: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_report::ReportBuilder;

    fn bandwidth_report(mbps: f64, t: Timestamp) -> Report {
        ReportBuilder::new("network.bandwidth.pathload", "1.0")
            .gmt(t)
            .metric("bandwidth", &[("lowerBound", &format!("{mbps:.2}"), Some("Mbps"))])
            .success()
            .unwrap()
    }

    fn bandwidth_rule() -> ArchiveRule {
        ArchiveRule {
            name: "bandwidth".into(),
            query: "tool=pathload,vo=tg".parse().unwrap(),
            path: "value, statistic=lowerBound, metric=bandwidth".parse().unwrap(),
            policy: ArchivePolicy::every("hourly-week", 7 * 86_400),
            period_secs: 3_600,
        }
    }

    fn branch() -> BranchId {
        "dest=caltech,tool=pathload,vo=tg".parse().unwrap()
    }

    #[test]
    fn ingest_matching_reports() {
        let mut store = ArchiveStore::new();
        store.add_rule(bandwidth_rule());
        let t0 = Timestamp::from_secs(100_000);
        for i in 1..=5u64 {
            let t = t0 + i * 3_600;
            let n = store.ingest(&branch(), &bandwidth_report(980.0 + i as f64, t), t);
            assert_eq!(n, 1);
        }
        let f = store
            .fetch_rule_series("bandwidth", &branch(), ConsolidationFn::Average, t0, t0 + 6 * 3_600)
            .unwrap();
        assert!(f.known_points().count() >= 4);
    }

    #[test]
    fn non_matching_branch_ignored() {
        let mut store = ArchiveStore::new();
        store.add_rule(bandwidth_rule());
        let other: BranchId = "dest=caltech,tool=spruce,vo=tg".parse().unwrap();
        let t = Timestamp::from_secs(100_000);
        assert_eq!(store.ingest(&other, &bandwidth_report(990.0, t), t), 0);
    }

    #[test]
    fn failed_reports_leave_gaps_not_errors() {
        let mut store = ArchiveStore::new();
        store.add_rule(bandwidth_rule());
        let t = Timestamp::from_secs(100_000);
        let failed = ReportBuilder::new("network.bandwidth.pathload", "1.0")
            .gmt(t)
            .failure("pathload: destination unreachable")
            .unwrap();
        assert_eq!(store.ingest(&branch(), &failed, t), 0);
    }

    #[test]
    fn one_rule_many_branches() {
        let mut store = ArchiveStore::new();
        store.add_rule(bandwidth_rule());
        let t = Timestamp::from_secs(100_000);
        let b1: BranchId = "dest=caltech,tool=pathload,vo=tg".parse().unwrap();
        let b2: BranchId = "dest=ncsa,tool=pathload,vo=tg".parse().unwrap();
        store.ingest(&b1, &bandwidth_report(990.0, t + 3_600), t + 3_600);
        store.ingest(&b2, &bandwidth_report(500.0, t + 3_600), t + 3_600);
        assert_eq!(store.series_names().len(), 2);
    }

    #[test]
    fn manual_series_record_and_fetch() {
        let mut store = ArchiveStore::new();
        let policy = ArchivePolicy::every("summary", 86_400);
        let t0 = Timestamp::from_secs(600_000);
        for i in 1..=10u64 {
            store.record("grid-availability:sdsc", &policy, 600, t0 + i * 600, 100.0 - i as f64);
        }
        let f = store
            .fetch_series("grid-availability:sdsc", ConsolidationFn::Average, t0, t0 + 7_000)
            .unwrap();
        assert!(f.known_points().count() >= 8);
        assert!(store.fetch_series("nonexistent", ConsolidationFn::Average, t0, t0 + 1).is_none());
    }

    #[test]
    fn dump_restore_roundtrip() {
        let mut store = ArchiveStore::new();
        store.add_rule(bandwidth_rule());
        let t0 = Timestamp::from_secs(100_000);
        for i in 1..=5u64 {
            let t = t0 + i * 3_600;
            store.ingest(&branch(), &bandwidth_report(980.0 + i as f64, t), t);
        }
        store.record(
            "availability:Grid:sdsc-tg1",
            &ArchivePolicy::every("summary", 86_400),
            600,
            t0 + 600,
            98.5,
        );
        let dump = store.dump();
        let restored = ArchiveStore::restore(&dump).unwrap();
        assert_eq!(restored.dump(), dump, "dump must be a fixed point");
        assert_eq!(restored.rules().len(), 1);
        assert_eq!(restored.rules()[0].name, "bandwidth");
        let a = restored
            .fetch_rule_series("bandwidth", &branch(), ConsolidationFn::Average, t0, t0 + 6 * 3_600)
            .unwrap();
        let b = store
            .fetch_rule_series("bandwidth", &branch(), ConsolidationFn::Average, t0, t0 + 6 * 3_600)
            .unwrap();
        assert!(a.same_series(&b), "{a:?} != {b:?}");
        assert!(restored
            .fetch_series("availability:Grid:sdsc-tg1", ConsolidationFn::Average, t0, t0 + 3_600)
            .is_some());
    }

    #[test]
    fn restore_rejects_garbage() {
        assert!(ArchiveStore::restore("").is_err());
        assert!(ArchiveStore::restore("archive-store v9\n").is_err());
        assert!(ArchiveStore::restore("archive-store v1\nbogus line\n").is_err());
    }

    #[test]
    fn storage_is_bounded_by_policy() {
        let mut store = ArchiveStore::new();
        let policy = ArchivePolicy::every("day", 86_400);
        let t0 = Timestamp::from_secs(600_000);
        store.record("s", &policy, 600, t0 + 600, 1.0);
        let after_one = store.storage_bytes();
        for i in 2..=1_000u64 {
            store.record("s", &policy, 600, t0 + i * 600, 1.0);
        }
        assert_eq!(store.storage_bytes(), after_one, "ring storage must not grow");
    }
}
