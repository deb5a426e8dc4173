//! Determinism of the simulation engine.
//!
//! Every daemon draws from its own seeded RNG, every tick's reports
//! drain through one deterministic, branch-ordered batched submission,
//! and fault decisions are rolled per seed in that drain — so two runs
//! of one seeded deployment must produce the exact same outcome, over
//! a perfect wire and under forward-path chaos alike: status page
//! bytes, cache document bytes, verification passes, health alerts and
//! per-daemon counters all have to match.

use inca::prelude::*;
use inca::sim::ForwardFaultConfig;

/// Everything observable about a finished run, in comparable form.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    status_page: String,
    cache_document: String,
    cached_reports: usize,
    received_reports: u64,
    duplicates: u64,
    verification_passes: u64,
    health_page: Option<String>,
    daemon_stats: Vec<(u64, u64, u64, u64, u64)>,
}

fn run(faults: Option<ForwardFaultConfig>) -> Fingerprint {
    let start = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
    let end = start + 2 * 3_600;
    let deployment = teragrid_deployment(42, start, end);
    let outcome = SimRun::new(
        deployment,
        SimOptions {
            // Fresh registry and sinks per run: metrics isolation, and
            // no cross-run trace-id reuse muddying the comparison.
            obs: Some(Obs::new()),
            health_rules: Some(default_rules("teragrid")),
            forward_faults: faults,
            ..Default::default()
        },
    )
    .run();
    Fingerprint {
        status_page: render_status_page(&outcome.final_page),
        cache_document: outcome
            .server
            .with_depot(|d| d.cache().document().to_string()),
        cached_reports: outcome.server.with_depot(|d| d.cache().report_count()),
        received_reports: outcome.server.with_depot(|d| d.report_count()),
        duplicates: outcome.server.duplicate_count(),
        verification_passes: outcome.verification_passes,
        health_page: outcome.health_page,
        daemon_stats: outcome
            .daemons
            .iter()
            .map(|d| {
                let s = d.stats();
                (s.executed, s.succeeded, s.failed, s.killed, s.forward_errors)
            })
            .collect(),
    }
}

#[test]
fn same_seed_runs_are_identical_with_and_without_faults() {
    let start = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0).as_secs();
    let chaos = ForwardFaultConfig {
        restarts: vec![("rachel.psc.edu".to_string(), start + 2_400)],
        ..ForwardFaultConfig::chaos(7)
    };
    for (what, faults) in [("fault-free", None), ("chaotic", Some(chaos))] {
        let first = run(faults.clone());
        // Sanity: the fingerprint captures a real run, not an empty one.
        assert!(first.received_reports > 1_000, "{what}");
        assert!(first.verification_passes >= 10, "{what}");
        assert!(first.health_page.is_some(), "{what}");
        assert_eq!(first.duplicates > 0, faults.is_some(), "{what}: lost acks bite only under chaos");
        let second = run(faults);
        assert_eq!(first.status_page, second.status_page, "{what} status page bytes diverged");
        assert_eq!(first.cache_document, second.cache_document, "{what} cache document diverged");
        assert_eq!(first.health_page, second.health_page, "{what} health page diverged");
        assert_eq!(first, second, "{what} simulation outcome diverged");
    }
}
