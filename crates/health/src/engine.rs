//! The SLO evaluation engine.
//!
//! [`HealthMonitor`] holds a rule set and a map of currently-firing
//! alerts. Each [`evaluate`](HealthMonitor::evaluate) pass reads two
//! sources — the depot cache (for report freshness) and the metrics
//! registry of the monitor's own [`Obs`] handle (for controller and
//! depot vitals) — computes the violation set, and diffs it against
//! the firing set. Every edge becomes an [`AlertTransition`]: a
//! `health.alert` event through the trace sinks (Warn when firing,
//! Info when resolved) plus an entry in the returned list and the kept
//! history.
//!
//! The monitor must share its `Obs` handle with the components it
//! watches; the `with_obs` constructors throughout the workspace exist
//! for exactly this kind of wiring. Alerting is edge-triggered on
//! purpose — a staleness alert fires once when a resource goes quiet
//! and resolves once when its next report lands, no matter how many
//! evaluation passes run in between.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use inca_obs::metrics::{Counter, Gauge};
use inca_obs::{Obs, Severity};
use inca_report::Timestamp;
use inca_server::{Depot, QueryInterface};

use crate::rules::{SloKind, SloRule};

/// Below this many total submissions the error-rate rule stays quiet:
/// one rejected handshake out of two submissions is noise, not an SLO
/// breach.
const ERROR_RATE_MIN_SAMPLES: u64 = 20;

/// Which edge a transition represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// The rule's condition is newly violated.
    Firing,
    /// A previously-firing alert's condition no longer holds.
    Resolved,
}

impl fmt::Display for AlertState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        })
    }
}

/// One firing or resolving edge observed by an evaluation pass.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTransition {
    /// Name of the rule that fired or resolved.
    pub rule: String,
    /// What the alert is about — a resource name for staleness rules,
    /// `controller` or `depot` for pipeline vitals.
    pub subject: String,
    /// Which edge this is.
    pub state: AlertState,
    /// Evaluation time at which the edge was observed.
    pub at: Timestamp,
    /// Human-readable measurement vs. threshold.
    pub detail: String,
}

/// A currently-firing alert.
#[derive(Debug, Clone, PartialEq)]
pub struct FiringAlert {
    /// When the alert first fired.
    pub since: Timestamp,
    /// Measurement vs. threshold at fire time.
    pub detail: String,
}

/// Evaluates SLO rules against a depot and a metrics registry,
/// tracking firing alerts across passes.
#[derive(Debug)]
pub struct HealthMonitor {
    rules: Vec<SloRule>,
    firing: BTreeMap<(String, String), FiringAlert>,
    history: Vec<AlertTransition>,
    obs: Obs,
    evaluations: Arc<Counter>,
    firing_gauge: Arc<Gauge>,
    fired_total: Arc<Counter>,
    resolved_total: Arc<Counter>,
}

impl HealthMonitor {
    /// Creates a monitor observing into [`Obs::global`].
    pub fn new(rules: Vec<SloRule>) -> HealthMonitor {
        HealthMonitor::with_obs(rules, Obs::global())
    }

    /// Creates a monitor with an explicit observability handle. Pass
    /// the same handle the monitored controller and depot were built
    /// with: metric-backed rules (error rate, queue depth, insert
    /// latency) read `obs.metrics()`, and alert events emit through
    /// `obs`'s trace sinks.
    pub fn with_obs(rules: Vec<SloRule>, obs: Obs) -> HealthMonitor {
        let m = obs.metrics();
        let evaluations =
            m.counter("inca_health_evaluations_total", "Health evaluation passes run.");
        let firing_gauge =
            m.gauge("inca_health_alerts_firing", "SLO alerts currently firing.");
        let fired_total = m.counter_with(
            "inca_health_transitions_total",
            &[("state", "firing")],
            "Alert edges observed, by direction.",
        );
        let resolved_total = m.counter_with(
            "inca_health_transitions_total",
            &[("state", "resolved")],
            "Alert edges observed, by direction.",
        );
        HealthMonitor {
            rules,
            firing: BTreeMap::new(),
            history: Vec::new(),
            obs,
            evaluations,
            firing_gauge,
            fired_total,
            resolved_total,
        }
    }

    /// The rule set being evaluated.
    pub fn rules(&self) -> &[SloRule] {
        &self.rules
    }

    /// Currently-firing alerts, keyed by `(rule, subject)`.
    pub fn firing(&self) -> &BTreeMap<(String, String), FiringAlert> {
        &self.firing
    }

    /// Whether any alert for the named rule is currently firing.
    pub fn is_firing(&self, rule: &str) -> bool {
        self.firing.keys().any(|(r, _)| r == rule)
    }

    /// Every transition observed so far, oldest first.
    pub fn history(&self) -> &[AlertTransition] {
        &self.history
    }

    /// Runs one evaluation pass at deployment time `now` and returns
    /// the transitions it produced (empty when nothing changed edge).
    pub fn evaluate(&mut self, depot: &Depot, now: Timestamp) -> Vec<AlertTransition> {
        let span = self.obs.span("health.evaluate").field("rules", self.rules.len() as u64);
        let mut violations: BTreeMap<(String, String), String> = BTreeMap::new();
        for rule in &self.rules {
            match &rule.kind {
                SloKind::ReportStaleness { scope, max_age_secs } => {
                    for (resource, newest) in newest_by_resource(depot, scope) {
                        let age = if newest > now { 0 } else { now - newest };
                        if age > *max_age_secs {
                            violations.insert(
                                (rule.name.clone(), resource),
                                format!("newest report {age}s old (max {max_age_secs}s)"),
                            );
                        }
                    }
                }
                SloKind::ErrorRate { max_ratio } => {
                    let m = self.obs.metrics();
                    let accepted =
                        m.counter_value("inca_controller_accepted_total", &[]).unwrap_or(0);
                    let rejected =
                        m.counter_family_total("inca_controller_rejected_total").unwrap_or(0);
                    let total = accepted + rejected;
                    let ratio = if total == 0 { 0.0 } else { rejected as f64 / total as f64 };
                    if total >= ERROR_RATE_MIN_SAMPLES && ratio > *max_ratio {
                        violations.insert(
                            (rule.name.clone(), "controller".into()),
                            format!(
                                "{rejected}/{total} submissions rejected \
                                 ({ratio:.3} > {max_ratio})"
                            ),
                        );
                    }
                }
                SloKind::QueueDepth { max_depth } => {
                    let depth = self
                        .obs
                        .metrics()
                        .gauge_value("inca_controller_queue_depth", &[])
                        .unwrap_or(0.0);
                    if depth > *max_depth {
                        violations.insert(
                            (rule.name.clone(), "controller".into()),
                            format!("queue depth {depth} (max {max_depth})"),
                        );
                    }
                }
                SloKind::SpoolDepth { max_depth } => {
                    let depth = self
                        .obs
                        .metrics()
                        .gauge_value("inca_daemon_spool_depth", &[])
                        .unwrap_or(0.0);
                    if depth > *max_depth {
                        violations.insert(
                            (rule.name.clone(), "daemons".into()),
                            format!("spool depth {depth} (max {max_depth})"),
                        );
                    }
                }
                SloKind::InsertLatency { quantile, max_seconds } => {
                    let observed = self
                        .obs
                        .metrics()
                        .histogram_of("inca_depot_insert_seconds", &[])
                        .and_then(|h| h.quantile(*quantile));
                    if let Some(secs) = observed {
                        if secs > *max_seconds {
                            violations.insert(
                                (rule.name.clone(), "depot".into()),
                                format!(
                                    "p{:.0} insert latency {secs:.3}s (max {max_seconds}s)",
                                    quantile * 100.0
                                ),
                            );
                        }
                    }
                }
                SloKind::RingDropped { max_dropped } => {
                    let dropped = self
                        .obs
                        .metrics()
                        .counter_value("inca_obs_ring_dropped_total", &[])
                        .unwrap_or(0);
                    if dropped > *max_dropped {
                        violations.insert(
                            (rule.name.clone(), "obs".into()),
                            format!("{dropped} trace events dropped (max {max_dropped})"),
                        );
                    }
                }
            }
        }

        let mut transitions = Vec::new();
        for (key, detail) in &violations {
            if !self.firing.contains_key(key) {
                self.firing.insert(
                    key.clone(),
                    FiringAlert { since: now, detail: detail.clone() },
                );
                transitions.push(self.transition(key, AlertState::Firing, now, detail.clone()));
            }
        }
        let cleared: Vec<(String, String)> =
            self.firing.keys().filter(|k| !violations.contains_key(*k)).cloned().collect();
        for key in cleared {
            let alert = self.firing.remove(&key).expect("cleared key is firing");
            let detail = format!("recovered (firing since {})", alert.since);
            transitions.push(self.transition(&key, AlertState::Resolved, now, detail));
        }

        self.evaluations.inc();
        self.firing_gauge.set(self.firing.len() as f64);
        span.field("firing", self.firing.len() as u64)
            .field("transitions", transitions.len() as u64)
            .finish();
        self.history.extend(transitions.iter().cloned());
        transitions
    }

    /// Records one edge: bumps the direction counter and emits the
    /// `health.alert` event (Warn on fire, Info on resolve).
    fn transition(
        &self,
        key: &(String, String),
        state: AlertState,
        at: Timestamp,
        detail: String,
    ) -> AlertTransition {
        let (severity, counter) = match state {
            AlertState::Firing => (Severity::Warn, &self.fired_total),
            AlertState::Resolved => (Severity::Info, &self.resolved_total),
        };
        counter.inc();
        self.obs
            .event("health.alert")
            .severity(severity)
            .field("rule", &key.0)
            .field("subject", &key.1)
            .field("state", state.to_string())
            .field("detail", &detail)
            .field("at", at.as_secs())
            .finish();
        AlertTransition { rule: key.0.clone(), subject: key.1.clone(), state, at, detail }
    }
}

/// The newest cached report timestamp per resource under `scope`.
/// Reports whose branch has no `resource` pair group under their full
/// branch identifier, so nothing silently drops out of monitoring.
fn newest_by_resource(
    depot: &Depot,
    scope: &inca_report::BranchId,
) -> BTreeMap<String, Timestamp> {
    let mut newest: BTreeMap<String, Timestamp> = BTreeMap::new();
    let reports = match QueryInterface::new(depot).reports(Some(scope)) {
        Ok(reports) => reports,
        // A corrupt cache is the archive/cache layer's problem to
        // surface; freshness evaluation just sees no data this pass.
        Err(_) => return newest,
    };
    for (branch, report) in reports {
        let subject =
            branch.get("resource").map(str::to_string).unwrap_or_else(|| branch.to_string());
        let entry = newest.entry(subject).or_insert(report.header.gmt);
        if report.header.gmt > *entry {
            *entry = report.header.gmt;
        }
    }
    newest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::parse_rules;
    use inca_obs::sinks::RingSink;
    use inca_report::ReportBuilder;
    use inca_wire::envelope::{Envelope, EnvelopeMode};

    fn insert_report(depot: &mut Depot, branch: &str, gmt: Timestamp) {
        let report = ReportBuilder::new("r", "1.0")
            .gmt(gmt)
            .body_value("packageVersion", "1.0")
            .success()
            .unwrap();
        let env = Envelope::new(branch.parse().unwrap(), report.to_xml());
        depot.receive(&env.encode(EnvelopeMode::Body), gmt).unwrap();
    }

    #[test]
    fn staleness_fires_per_resource_and_resolves_on_fresh_data() {
        let obs = Obs::new();
        let ring = std::sync::Arc::new(RingSink::new(64));
        obs.tracer().add_sink(ring.clone());
        let mut depot = Depot::with_obs(obs.clone());
        let t0 = Timestamp::from_secs(1_000_000);
        insert_report(&mut depot, "reporter=ping,resource=tg1,vo=tg", t0);
        insert_report(&mut depot, "reporter=ping,resource=tg2,vo=tg", t0);

        let rules = parse_rules("stale staleness vo=tg 3600").unwrap();
        let mut monitor = HealthMonitor::with_obs(rules, obs.clone());

        assert!(monitor.evaluate(&depot, t0 + 600).is_empty());
        assert!(!monitor.is_firing("stale"));

        // tg2 keeps reporting; tg1 goes quiet past the threshold.
        insert_report(&mut depot, "reporter=ping,resource=tg2,vo=tg", t0 + 4_000);
        let fired = monitor.evaluate(&depot, t0 + 4_000);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].subject, "tg1");
        assert_eq!(fired[0].state, AlertState::Firing);
        assert!(monitor.is_firing("stale"));

        // Steady state: still firing, but no new edge.
        assert!(monitor.evaluate(&depot, t0 + 4_100).is_empty());

        insert_report(&mut depot, "reporter=ping,resource=tg1,vo=tg", t0 + 4_200);
        let resolved = monitor.evaluate(&depot, t0 + 4_300);
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].state, AlertState::Resolved);
        assert!(!monitor.is_firing("stale"));

        let alerts: Vec<_> =
            ring.drain().into_iter().filter(|e| e.name == "health.alert").collect();
        assert_eq!(alerts.len(), 2);
        assert_eq!(alerts[0].severity, Severity::Warn);
        assert_eq!(alerts[1].severity, Severity::Info);
        assert_eq!(monitor.history().len(), 2);

        let m = obs.metrics();
        assert_eq!(m.counter_value("inca_health_evaluations_total", &[]), Some(4));
        assert_eq!(m.gauge_value("inca_health_alerts_firing", &[]), Some(0.0));
        assert_eq!(
            m.counter_value("inca_health_transitions_total", &[("state", "firing")]),
            Some(1)
        );
    }

    #[test]
    fn metric_backed_rules_read_the_shared_registry() {
        let obs = Obs::new();
        let depot = Depot::with_obs(obs.clone());
        let rules = parse_rules(
            "errs error_rate 0.10\nqueue queue_depth 4\n\
             spool spool_depth 8\nslow insert_latency 0.5 0.010",
        )
        .unwrap();
        let mut monitor = HealthMonitor::with_obs(rules, obs.clone());
        let now = Timestamp::from_secs(1_000);

        // Nothing registered yet: all quiet.
        assert!(monitor.evaluate(&depot, now).is_empty());

        let m = obs.metrics();
        let accepted = m.counter("inca_controller_accepted_total", "t");
        let rejected = m.counter_with("inca_controller_rejected_total", &[("reason", "decode")], "t");
        accepted.add(15);
        rejected.add(5); // 5/20 = 0.25 > 0.10, at the sample floor
        m.gauge("inca_controller_queue_depth", "t").set(9.0);
        m.gauge("inca_daemon_spool_depth", "t").set(20.0);
        let hist = m.histogram(
            "inca_depot_insert_seconds",
            "t",
            &inca_obs::metrics::DEFAULT_LATENCY_BOUNDS,
        );
        for _ in 0..10 {
            hist.observe(0.2);
        }

        let fired = monitor.evaluate(&depot, now + 60);
        let subjects: Vec<&str> = fired.iter().map(|t| t.subject.as_str()).collect();
        assert_eq!(fired.len(), 4);
        assert!(subjects.contains(&"controller"));
        assert!(subjects.contains(&"depot"));
        assert!(subjects.contains(&"daemons"));
        assert!(monitor.is_firing("errs"));
        assert!(monitor.is_firing("queue"));
        assert!(monitor.is_firing("spool"));
        assert!(monitor.is_firing("slow"));

        // Queue and spool drain; the cumulative error ratio and
        // latency quantile stay put, so only the gauge-backed alerts
        // resolve.
        m.gauge("inca_controller_queue_depth", "t").set(0.0);
        m.gauge("inca_daemon_spool_depth", "t").set(3.0);
        let resolved = monitor.evaluate(&depot, now + 120);
        assert_eq!(resolved.len(), 2);
        assert!(resolved.iter().all(|t| t.state == AlertState::Resolved));
        let resolved_rules: Vec<&str> = resolved.iter().map(|t| t.rule.as_str()).collect();
        assert!(resolved_rules.contains(&"queue"));
        assert!(resolved_rules.contains(&"spool"));
    }

    #[test]
    fn ring_dropped_fires_when_the_trace_buffer_overflows() {
        let obs = Obs::new();
        let depot = Depot::with_obs(obs.clone());
        let mut monitor =
            HealthMonitor::with_obs(parse_rules("drops ring_dropped 0").unwrap(), obs.clone());
        let now = Timestamp::from_secs(1_000);

        // An observed ring with headroom: quiet.
        let ring = std::sync::Arc::new(RingSink::observed(2, obs.metrics()));
        obs.tracer().add_sink(ring.clone());
        obs.event("a").finish();
        assert!(monitor.evaluate(&depot, now).is_empty());

        // Overflow the ring; the exported drop counter trips the rule.
        obs.event("b").finish();
        obs.event("c").finish();
        let fired = monitor.evaluate(&depot, now + 60);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].subject, "obs");
        assert_eq!(fired[0].state, AlertState::Firing);
        assert!(fired[0].detail.contains("dropped"));
    }

    #[test]
    fn error_rate_stays_quiet_below_the_sample_floor() {
        let obs = Obs::new();
        let depot = Depot::with_obs(obs.clone());
        let mut monitor =
            HealthMonitor::with_obs(parse_rules("errs error_rate 0.05").unwrap(), obs.clone());
        let m = obs.metrics();
        m.counter("inca_controller_accepted_total", "t").inc();
        m.counter_with("inca_controller_rejected_total", &[("reason", "decode")], "t").add(3);
        assert!(monitor.evaluate(&depot, Timestamp::from_secs(0)).is_empty());
    }
}
