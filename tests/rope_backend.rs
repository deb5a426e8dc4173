//! End-to-end byte-identity for the O(report) write path.
//!
//! The binary envelope is a fast path beside the paper's XML envelope —
//! an encoding, not different semantics. A full simulated deployment
//! run on the binary envelope, even under aggressive forward-fault
//! injection, must end with a depot cache byte-identical to the
//! fault-free run on the 2004 envelope. (The rope against the paper's
//! streaming splice is held at the depot, by
//! `receive_batch_matches_an_xml_cache_replay_of_what_it_accepted`, and
//! at the cache, by `crates/server/tests/proptest_rope.rs`.)

use inca::prelude::*;
use inca::sim::ForwardFaultConfig;

const SDSC: &str = "tg-login1.caltech.teragrid.org";
const PSC: &str = "rachel.psc.edu";

fn horizon() -> (Timestamp, Timestamp) {
    let start = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
    (start, start + 2 * 3_600)
}

fn chaos_schedule(start: Timestamp) -> ForwardFaultConfig {
    let s = start.as_secs();
    ForwardFaultConfig {
        partitions: vec![(SDSC.to_string(), s + 1_800, s + 3_300)],
        restarts: vec![(PSC.to_string(), s + 2_400), (SDSC.to_string(), s + 5_400)],
        ..ForwardFaultConfig::chaos(7)
    }
}

struct Outcome {
    cache_document: String,
    cached_reports: usize,
    ingested_reports: u64,
    duplicates: u64,
    retries: u64,
}

fn run(mode: EnvelopeMode, faults: Option<ForwardFaultConfig>) -> Outcome {
    let (start, end) = horizon();
    let mut deployment = teragrid_deployment(42, start, end);
    deployment.retain_resources(&[SDSC, PSC]);
    let obs = Obs::new();
    let outcome = SimRun::new(
        deployment,
        SimOptions {
            obs: Some(obs.clone()),
            verify_every_secs: None,
            forward_faults: faults,
            envelope_mode: mode,
            ..Default::default()
        },
    )
    .run();
    Outcome {
        cache_document: outcome.server.with_depot(|d| d.cache().document().to_string()),
        cached_reports: outcome.server.with_depot(|d| d.cache().report_count()),
        ingested_reports: outcome.server.with_depot(|d| d.report_count()),
        duplicates: outcome.server.duplicate_count(),
        retries: obs
            .metrics()
            .counter_value("inca_daemon_retries_total", &[])
            .unwrap_or(0),
    }
}

#[test]
fn binary_run_is_byte_identical_to_body_run() {
    let baseline = run(EnvelopeMode::Body, None);
    assert!(baseline.ingested_reports > 200, "baseline must be a real run");
    let fast = run(EnvelopeMode::Binary, None);
    assert_eq!(fast.ingested_reports, baseline.ingested_reports);
    assert_eq!(fast.cached_reports, baseline.cached_reports);
    assert_eq!(
        fast.cache_document, baseline.cache_document,
        "binary-envelope cache must be byte-identical to the XML-envelope one"
    );
}

#[test]
fn chaotic_binary_run_converges_to_the_fault_free_body_run() {
    let (start, _) = horizon();
    let baseline = run(EnvelopeMode::Body, None);
    let chaotic = run(EnvelopeMode::Binary, Some(chaos_schedule(start)));
    // The chaos actually bit on the fast path too.
    assert!(chaotic.retries > 0, "fault schedule must force retries");
    assert!(chaotic.duplicates > 0, "lost acks must produce absorbed duplicates");
    // Exactly-once and byte-identity both survive the encoding swap.
    assert_eq!(chaotic.ingested_reports, baseline.ingested_reports);
    assert_eq!(
        chaotic.cache_document, baseline.cache_document,
        "chaotic binary-envelope cache must converge to the fault-free XML-envelope cache"
    );
}
