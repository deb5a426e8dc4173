//! End-to-end lineage + self-monitoring acceptance test.
//!
//! Runs a fault-injected simulated Monday on one TeraGrid resource
//! and asserts the two tentpole properties:
//!
//! 1. **Lineage**: a single trace id links the daemon's forward, the
//!    centralized controller's accept, the depot insert, and the
//!    archive write for the same report, with parent span ids
//!    chaining hop to hop.
//! 2. **Self-monitoring**: the report-staleness SLO fires while the
//!    Monday maintenance window keeps the daemon silent and resolves
//!    once reports resume, with the alert events visible through the
//!    trace sinks and the health page rendered at the end.

use std::collections::HashMap;
use std::sync::Arc;

use inca::health::{parse_rules, AlertState};
use inca::obs::sinks::RingSink;
use inca::obs::trace::Event;
use inca::prelude::*;
use inca::sim::{FailureModel, MaintenanceWindow};

#[path = "support/exposition_lint.rs"]
mod exposition_lint;
use exposition_lint::lint_exposition;

const HOST: &str = "rachel.psc.edu";

#[test]
fn fault_injected_run_links_lineage_and_trips_staleness_alert() {
    // 2004-07-12 is a Monday: `teragrid_monday` takes every resource
    // down 08:00–14:00 GMT. Run 05:00–17:00 so the horizon brackets
    // the window with healthy hours on both sides.
    let start = Timestamp::from_gmt(2004, 7, 12, 5, 0, 0);
    let end = Timestamp::from_gmt(2004, 7, 12, 17, 0, 0);
    let window_start = Timestamp::from_gmt(2004, 7, 12, 8, 0, 0);
    let window_end = Timestamp::from_gmt(2004, 7, 12, 14, 0, 0);

    let mut deployment = teragrid_deployment(42, start, end);
    deployment.retain_resources(&[HOST]);
    // Maintenance is the only injected fault, so the alert windows
    // are exact rather than seed-dependent.
    for r in deployment.vo.resources_mut() {
        r.failure = FailureModel {
            maintenance: vec![MaintenanceWindow::teragrid_monday()],
            ..FailureModel::none()
        };
    }

    let obs = Obs::new();
    let ring = Arc::new(RingSink::new(16_384));
    obs.tracer().add_sink(ring.clone());

    let outcome = SimRun::new(
        deployment,
        SimOptions {
            verify_every_secs: None,
            obs: Some(obs.clone()),
            health_rules: Some(parse_rules("stale staleness vo=teragrid 5400").unwrap()),
            health_every_secs: 600,
            offline_when_down: true,
            ..Default::default()
        },
    )
    .run();

    // The daemon lived on the downed host: six hours of hourly fires
    // were swallowed, and everything it did send was accepted.
    let stats = outcome.daemons[0].stats();
    assert!(stats.offline_skips > 300, "expected ~426 swallowed fires, got {}", stats.offline_skips);
    assert!(stats.executed > 300, "expected ~426 executed fires, got {}", stats.executed);

    let events = ring.drain();

    // --- 1. Lineage -------------------------------------------------
    let mut by_trace: HashMap<u64, Vec<&Event>> = HashMap::new();
    for event in &events {
        if let Some(ctx) = event.trace {
            by_trace.entry(ctx.trace_id).or_default().push(event);
        }
    }
    let mut chains = 0usize;
    let mut archived_chains = 0usize;
    for group in by_trace.values() {
        let find = |name: &str| group.iter().find(|e| e.name == name);
        let (Some(run), Some(accept), Some(insert)) =
            (find("daemon.run"), find("controller.accept"), find("depot.insert"))
        else {
            continue;
        };
        // Each hop re-parents on the previous hop's span.
        assert_eq!(accept.trace.unwrap().parent_span_id, run.span_id);
        assert_eq!(insert.trace.unwrap().parent_span_id, accept.span_id);
        chains += 1;
        if let Some(archive) = find("depot.archive.write") {
            assert_eq!(archive.trace.unwrap().parent_span_id, insert.span_id);
            archived_chains += 1;
        }
    }
    assert!(chains > 300, "expected a chain per executed report, got {chains}");
    assert!(
        archived_chains > 0,
        "at least the bandwidth reports should extend the chain into the archive"
    );

    // --- 2. Self-monitoring ----------------------------------------
    let monitor = outcome.health.as_ref().expect("health monitoring was enabled");
    let fired = monitor
        .history()
        .iter()
        .find(|t| t.rule == "stale" && t.state == AlertState::Firing)
        .expect("staleness alert fired");
    assert_eq!(fired.subject, HOST);
    assert!(
        fired.at > window_start && fired.at < window_end,
        "alert fired at {} — outside the maintenance window",
        fired.at
    );
    let resolved = monitor
        .history()
        .iter()
        .find(|t| t.rule == "stale" && t.state == AlertState::Resolved)
        .expect("staleness alert resolved");
    assert!(
        resolved.at >= window_end,
        "alert resolved at {} — before the window ended",
        resolved.at
    );
    assert!(!monitor.is_firing("stale"), "nothing should still be firing at the horizon");

    // Alert edges were emitted through the same trace sinks as the
    // pipeline spans.
    let alert_events: Vec<&Event> =
        events.iter().filter(|e| e.name == "health.alert").collect();
    assert!(alert_events.iter().any(|e| {
        e.severity == inca::obs::Severity::Warn && e.field("state") == Some("firing")
    }));
    assert!(alert_events.iter().any(|e| {
        e.severity == inca::obs::Severity::Info && e.field("state") == Some("resolved")
    }));

    // The rendered health page shows the recovered resource.
    let page = outcome.health_page.as_deref().expect("health page rendered");
    assert!(page.contains("rules: 1"), "page headline missing:\n{page}");
    assert!(page.contains(HOST), "resource row missing:\n{page}");
    assert!(page.contains("Firing alerts\n(none)"), "alerts should have cleared:\n{page}");

    // --- Exposition conformance over the live registry -------------
    // The registry now carries counters, gauges, labelled families,
    // and exemplar-bearing histograms from the whole run (pipeline +
    // health); the promtool-style lint must find nothing to flag.
    let text = outcome
        .server
        .with_depot(|d| QueryInterface::new(d).metrics_text());
    assert!(text.contains("inca_health_alerts_firing"), "health metrics registered");
    assert!(
        text.contains("inca_daemon_offline_skips_total"),
        "offline-skip counter registered"
    );
    assert!(
        text.contains("# {trace_id=\""),
        "insert histogram should carry trace-id exemplars"
    );
    let issues = lint_exposition(&text);
    assert!(issues.is_empty(), "exposition lint found issues: {issues:#?}");
}
