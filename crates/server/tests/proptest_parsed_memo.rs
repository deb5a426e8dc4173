//! Property tests for the parsed-report memo behind every set read:
//! across arbitrary interleavings of single receives, batches (with
//! rejected envelopes and same-branch repeats), ingest-forced arena
//! compactions and set reads at assorted suffixes, on both cache
//! backends, `QueryInterface::reports(q)` must equal a fresh
//! `Report::parse` of every raw string `Depot::query_reports(q)` lists,
//! in the same order — whatever the memo had parsed before.

use proptest::prelude::*;

use inca_obs::Obs;
use inca_report::{BranchId, Report, ReportBuilder, Timestamp};
use inca_server::depot::rope::COMPACT_MIN_ARENA_BYTES;
use inca_server::{CacheBackend, Depot, QueryInterface};
use inca_wire::envelope::{Envelope, EnvelopeMode};

/// Suffixes the reads rotate through; `None` reads the whole cache.
const QUERIES: [Option<&str>; 6] = [
    None,
    Some("vo=tg"),
    Some("site=sdsc,vo=tg"),
    Some("resource=m2,site=ncsa,vo=tg"),
    Some("reporter=a,resource=m1,site=sdsc,vo=tg"),
    Some("vo=other"),
];

/// One envelope of an ingest history.
#[derive(Debug, Clone)]
enum Item {
    /// A report for one branch of a small pool, so repeats are common.
    Report { reporter: &'static str, resource: &'static str, site: &'static str, payload: String },
    /// Bytes no envelope decoder accepts.
    Garbage,
}

/// One envelope in nine is garbage.
fn item_strategy() -> impl Strategy<Value = Item> {
    (
        0..9usize,
        proptest::sample::select(vec!["a", "b", "c"]),
        proptest::sample::select(vec!["m1", "m2"]),
        proptest::sample::select(vec!["sdsc", "ncsa"]),
        proptest::string::string_regex("[a-z0-9]{1,8}").unwrap(),
    )
        .prop_map(|(kind, reporter, resource, site, payload)| match kind {
            0 => Item::Garbage,
            _ => Item::Report { reporter, resource, site, payload },
        })
}

#[derive(Debug, Clone)]
enum Step {
    Receive(Item),
    Batch(Vec<Item>),
    /// Replace one big report with a small one: on the rope that trips
    /// the garbage-ratio threshold and compacts the arena mid-ingest.
    Compact,
}

/// A step (one in nine forces a compaction, the rest split evenly
/// between single receives and batches) and the index of the suffix
/// read after it.
fn step_strategy() -> impl Strategy<Value = (Step, usize)> {
    (
        0..9usize,
        item_strategy(),
        proptest::collection::vec(item_strategy(), 1..8),
        0..QUERIES.len(),
    )
        .prop_map(|(kind, item, items, read)| {
            let step = match kind {
                0 => Step::Compact,
                1..=4 => Step::Receive(item),
                _ => Step::Batch(items),
            };
            (step, read)
        })
}

fn report_envelope(branch: &str, reporter: &str, payload: &str, mode: EnvelopeMode) -> Vec<u8> {
    let report = ReportBuilder::new(reporter, "1.0")
        .gmt(Timestamp::from_secs(1_000))
        .body_value("v", payload)
        .success()
        .unwrap();
    Envelope::new(branch.parse::<BranchId>().unwrap(), report.to_xml()).encode(mode)
}

fn envelope(item: &Item, mode: EnvelopeMode) -> Vec<u8> {
    match item {
        Item::Report { reporter, resource, site, payload } => report_envelope(
            &format!("reporter={reporter},resource={resource},site={site},vo=tg"),
            reporter,
            payload,
            mode,
        ),
        Item::Garbage => b"garbage".to_vec(),
    }
}

fn apply(depot: &mut Depot, step: &Step, mode: EnvelopeMode) {
    let now = Timestamp::from_secs(1_000);
    match step {
        Step::Receive(item) => {
            let accepted = depot.receive(&envelope(item, mode), now).is_ok();
            assert_eq!(accepted, matches!(item, Item::Report { .. }));
        }
        Step::Batch(items) => {
            let envelopes: Vec<Vec<u8>> = items.iter().map(|i| envelope(i, mode)).collect();
            for (item, result) in items.iter().zip(depot.receive_batch(&envelopes, now)) {
                assert_eq!(result.is_ok(), matches!(item, Item::Report { .. }));
            }
        }
        Step::Compact => {
            let branch = "reporter=big,resource=m1,site=sdsc,vo=tg";
            let big = "x".repeat(2 * COMPACT_MIN_ARENA_BYTES);
            depot.receive(&report_envelope(branch, "big", &big, mode), now).unwrap();
            depot.receive(&report_envelope(branch, "big", "small", mode), now).unwrap();
        }
    }
}

/// `reports(query)` against a fresh parse of the raw strings.
fn check_read(depot: &Depot, query: Option<&str>) -> Result<(), TestCaseError> {
    let query: Option<BranchId> = query.map(|q| q.parse().unwrap());
    let parsed = QueryInterface::new(depot).reports(query.as_ref()).unwrap();
    let (raw, _) = depot.query_reports(query.as_ref()).unwrap();
    prop_assert_eq!(parsed.len(), raw.len());
    for ((branch, report), (raw_branch, xml)) in parsed.iter().zip(&raw) {
        prop_assert_eq!(branch, raw_branch);
        prop_assert_eq!(&**report, &Report::parse(xml).unwrap(), "stale parse at {}", branch);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn set_reads_equal_a_fresh_parse_of_the_raw_reports(
        steps in proptest::collection::vec(step_strategy(), 1..14)
    ) {
        for (backend, mode) in [
            (CacheBackend::Splice, EnvelopeMode::Body),
            (CacheBackend::Rope, EnvelopeMode::Binary),
        ] {
            let obs = Obs::new();
            let mut depot = Depot::with_obs_backend(obs.clone(), backend);
            let mut forced = 0;
            for (step, read) in &steps {
                apply(&mut depot, step, mode);
                forced += u64::from(matches!(step, Step::Compact));
                check_read(&depot, QUERIES[*read])?;
            }
            // A closing whole-cache read sees every branch, whichever
            // suffixes the history happened to warm.
            check_read(&depot, None)?;
            if backend == CacheBackend::Rope {
                let compactions =
                    obs.metrics().counter_value("inca_depot_compactions_total", &[]).unwrap_or(0);
                prop_assert!(compactions >= forced, "every Compact step must compact the arena");
            }
        }
    }
}
