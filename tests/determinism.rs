//! Determinism of the parallel simulation engine.
//!
//! The tick loop fires due daemons across worker threads, but every
//! tick's reports drain through one deterministic, branch-ordered
//! batched submission — so a seeded deployment must produce the exact
//! same outcome no matter how many threads ran it. This is the
//! contract that makes `sim_threads` a pure wall-clock knob: status
//! page bytes, cache document bytes, verification passes, health
//! alerts and per-daemon counters all have to match.

use inca::prelude::*;

/// Everything observable about a finished run, in comparable form.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    status_page: String,
    cache_document: String,
    cached_reports: usize,
    received_reports: u64,
    verification_passes: u64,
    health_page: Option<String>,
    daemon_stats: Vec<(u64, u64, u64, u64, u64)>,
}

fn run_with_threads(threads: usize) -> Fingerprint {
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
            sim_threads: threads,
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
fn outcome_is_identical_at_1_2_and_8_threads() {
    let sequential = run_with_threads(1);
    // Sanity: the fingerprint captures a real run, not an empty one.
    assert!(sequential.received_reports > 1_000);
    assert!(sequential.verification_passes >= 10);
    assert!(sequential.health_page.is_some());

    for threads in [2usize, 8] {
        let parallel = run_with_threads(threads);
        assert_eq!(
            sequential.status_page, parallel.status_page,
            "status page bytes diverged at {threads} threads"
        );
        assert_eq!(
            sequential.cache_document, parallel.cache_document,
            "depot cache document diverged at {threads} threads"
        );
        assert_eq!(
            sequential.health_page, parallel.health_page,
            "health page diverged at {threads} threads"
        );
        assert_eq!(
            sequential, parallel,
            "simulation outcome diverged at {threads} threads"
        );
    }
}
