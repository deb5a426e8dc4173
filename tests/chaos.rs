//! Chaos engineering for the report-delivery path.
//!
//! The exactly-once contract, stated as a test: a simulated deployment
//! run under aggressive forward-path fault injection — message drops,
//! lost acks, in-flight delays, a scheduled partition, daemon restarts
//! mid-spool — must end with a depot cache *byte-identical* to the
//! same deployment run over a perfect wire, having ingested every
//! report exactly once. And because every fault decision happens in
//! the sequential drain phase, the chaotic outcome must itself be
//! deterministic across worker-thread counts.

use inca::prelude::*;
use inca::sim::ForwardFaultConfig;

const SDSC: &str = "tg-login1.caltech.teragrid.org";
const PSC: &str = "rachel.psc.edu";

fn horizon() -> (Timestamp, Timestamp) {
    let start = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
    (start, start + 2 * 3_600)
}

/// Every fault kind at once, aimed at the two retained daemons.
fn chaos_schedule(start: Timestamp) -> ForwardFaultConfig {
    let s = start.as_secs();
    ForwardFaultConfig {
        // 25 minutes of partition for one daemon; two restarts.
        partitions: vec![(SDSC.to_string(), s + 1_800, s + 3_300)],
        restarts: vec![(PSC.to_string(), s + 2_400), (SDSC.to_string(), s + 5_400)],
        ..ForwardFaultConfig::chaos(7)
    }
}

struct ChaosOutcome {
    cache_document: String,
    cached_reports: usize,
    ingested_reports: u64,
    duplicates: u64,
    retries: u64,
    forward_errors: u64,
}

fn run(faults: Option<ForwardFaultConfig>, threads: usize) -> ChaosOutcome {
    let (start, end) = horizon();
    let mut deployment = teragrid_deployment(42, start, end);
    deployment.retain_resources(&[SDSC, PSC]);
    let obs = Obs::new();
    let outcome = SimRun::new(
        deployment,
        SimOptions {
            obs: Some(obs.clone()),
            verify_every_secs: None,
            sim_threads: threads,
            forward_faults: faults,
            ..Default::default()
        },
    )
    .run();
    ChaosOutcome {
        cache_document: outcome.server.with_depot(|d| d.cache().document().to_string()),
        cached_reports: outcome.server.with_depot(|d| d.cache().report_count()),
        ingested_reports: outcome.server.with_depot(|d| d.report_count()),
        duplicates: outcome.server.duplicate_count(),
        retries: obs
            .metrics()
            .counter_value("inca_daemon_retries_total", &[])
            .unwrap_or(0),
        forward_errors: outcome.daemons.iter().map(|d| d.stats().forward_errors).sum(),
    }
}

#[test]
fn chaotic_run_converges_to_the_fault_free_cache() {
    let (start, _) = horizon();
    let baseline = run(None, 1);
    assert!(baseline.ingested_reports > 200, "baseline must be a real run");
    assert_eq!(baseline.duplicates, 0);
    assert_eq!(baseline.retries, 0);

    let chaotic = run(Some(chaos_schedule(start)), 1);

    // The chaos actually bit: retries happened, lost acks produced
    // retransmissions the server had to absorb.
    assert!(chaotic.retries > 0, "fault schedule must force retries");
    assert!(chaotic.duplicates > 0, "lost acks must produce absorbed duplicates");
    assert_eq!(chaotic.forward_errors, 0, "transient faults are not forward errors");

    // Exactly-once: every report ingested once — no loss (spool +
    // horizon flush), no double-insert (seq dedup).
    assert_eq!(chaotic.ingested_reports, baseline.ingested_reports);
    assert_eq!(chaotic.cached_reports, baseline.cached_reports);
    assert_eq!(
        chaotic.cache_document, baseline.cache_document,
        "final cache must be byte-identical to the fault-free run"
    );
}

#[test]
fn chaotic_outcome_is_deterministic_across_thread_counts() {
    let (start, _) = horizon();
    let sequential = run(Some(chaos_schedule(start)), 1);
    assert!(sequential.duplicates > 0);
    for threads in [2usize, 8] {
        let parallel = run(Some(chaos_schedule(start)), threads);
        assert_eq!(
            sequential.cache_document, parallel.cache_document,
            "chaotic cache diverged at {threads} threads"
        );
        assert_eq!(sequential.ingested_reports, parallel.ingested_reports);
        assert_eq!(sequential.duplicates, parallel.duplicates);
        assert_eq!(sequential.retries, parallel.retries);
    }
}

#[test]
fn partition_backlog_raises_the_spool_depth_alert() {
    // The self-monitoring loop must see a partition as a growing
    // delivery spool: the default `daemon-spool-depth` rule fires
    // while the backlog accumulates and resolves once it drains.
    let (start, end) = horizon();
    let mut deployment = teragrid_deployment(42, start, end);
    deployment.retain_resources(&[SDSC, PSC]);
    let s = start.as_secs();
    let faults = ForwardFaultConfig {
        partitions: vec![(SDSC.to_string(), s + 600, s + 4_200)],
        ..ForwardFaultConfig::none()
    };
    let outcome = SimRun::new(
        deployment,
        SimOptions {
            obs: Some(Obs::new()),
            verify_every_secs: None,
            health_rules: Some(
                inca::health::parse_rules("spool spool_depth 8").unwrap(),
            ),
            health_every_secs: 300,
            forward_faults: Some(faults),
            ..Default::default()
        },
    )
    .run();
    let health = outcome.health.expect("health monitoring enabled");
    assert!(
        health
            .history()
            .iter()
            .any(|t| t.rule == "spool" && t.subject == "daemons"),
        "spool-depth alert never fired; history: {:?}",
        health.history()
    );
}
