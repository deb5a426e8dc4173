//! Property test for exactly-once delivery: under *arbitrary* fault
//! schedules — random drop/duplicate/delay probabilities, a random
//! partition window, random mid-spool restarts — a simulated
//! deployment must end with a depot byte-identical to the fault-free
//! run. The chaos integration test pins one aggressive schedule; this
//! one lets proptest hunt for a schedule that breaks the contract.

use std::sync::OnceLock;

use proptest::prelude::*;

use inca::prelude::*;
use inca::sim::ForwardFaultConfig;

const DAEMON: &str = "rachel.psc.edu";

fn horizon() -> (Timestamp, Timestamp) {
    let start = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
    (start, start + 3_600)
}

/// Final observable depot state of one simulated hour.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    cache_document: String,
    ingested_reports: u64,
    forward_errors: u64,
}

fn run(faults: Option<ForwardFaultConfig>) -> Outcome {
    let (start, end) = horizon();
    let mut deployment = teragrid_deployment(42, start, end);
    deployment.retain_resources(&[DAEMON]);
    let outcome = SimRun::new(
        deployment,
        SimOptions {
            obs: Some(Obs::new()),
            verify_every_secs: None,
            forward_faults: faults,
            ..Default::default()
        },
    )
    .run();
    Outcome {
        cache_document: outcome.server.with_depot(|d| d.cache().document().to_string()),
        ingested_reports: outcome.server.with_depot(|d| d.report_count()),
        forward_errors: outcome.daemons.iter().map(|d| d.stats().forward_errors).sum(),
    }
}

/// The fault-free reference run, computed once for every case.
fn baseline() -> &'static Outcome {
    static BASELINE: OnceLock<Outcome> = OnceLock::new();
    BASELINE.get_or_init(|| run(None))
}

/// An arbitrary (but deterministic, seed-replayable) fault schedule
/// aimed at the single retained daemon.
fn schedule_strategy() -> impl Strategy<Value = ForwardFaultConfig> {
    (
        (any::<u64>(), 0.0..0.35f64, 0.0..0.25f64, 0.0..0.15f64),
        (
            30u64..240,
            proptest::option::of((0u64..2_400, 300u64..1_500)),
            proptest::collection::vec(0u64..3_500, 0..3),
        ),
    )
        .prop_map(|((seed, drop, reply, delay), (delay_secs, partition, restarts))| {
            let s = horizon().0.as_secs();
            ForwardFaultConfig {
                seed,
                drop_prob: drop,
                reply_drop_prob: reply,
                delay_prob: delay,
                delay_secs,
                partitions: partition
                    .map(|(from, len)| vec![(DAEMON.to_string(), s + from, s + from + len)])
                    .into_iter()
                    .flatten()
                    .collect(),
                restarts: restarts
                    .into_iter()
                    .map(|at| (DAEMON.to_string(), s + at))
                    .collect(),
            }
        })
}

proptest! {
    // Each case is a full simulated hour; a handful of schedules per
    // run keeps the suite fast while the seed store accumulates any
    // counterexample forever.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn any_fault_schedule_converges_to_the_fault_free_depot(
        faults in schedule_strategy()
    ) {
        let reference = baseline();
        prop_assert!(reference.ingested_reports > 50, "baseline must be a real run");

        let faulted = run(Some(faults));
        prop_assert_eq!(
            faulted.ingested_reports,
            reference.ingested_reports,
            "exactly-once: no loss, no double-ingest"
        );
        prop_assert_eq!(faulted.forward_errors, 0u64, "transient faults must never surface as forward errors");
        prop_assert_eq!(
            &faulted.cache_document,
            &reference.cache_document,
            "final cache must be byte-identical to the fault-free run"
        );
    }
}
