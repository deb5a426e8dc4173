//! Property tests for the piece-table write path: across arbitrary
//! interleavings of single updates and batch inserts, the rope cache
//! must reproduce the splice [`XmlCache`] oracle byte-for-byte — the
//! rendered document, every read, and the generation counter. A
//! compaction keeps the generation, and the document after one is
//! rendered from the moved spans, so the check after a `Compact` step
//! reads the spans the compaction wrote.

use proptest::prelude::*;

use inca_report::{BranchId, ReportBuilder, Timestamp};
use inca_paper::XmlCache;
use inca_server::RopeCache;

fn value_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9]{1,8}").unwrap()
}

/// An update: which branch (from a bounded pool) and which payload.
#[derive(Debug, Clone)]
struct Update {
    reporter: String,
    resource: String,
    site: String,
    payload: String,
}

fn update_strategy() -> impl Strategy<Value = Update> {
    (
        proptest::sample::select(vec!["a", "b", "c", "d", "e"]),
        proptest::sample::select(vec!["m1", "m2", "m3"]),
        proptest::sample::select(vec!["sdsc", "ncsa"]),
        value_strategy(),
    )
        .prop_map(|(reporter, resource, site, payload)| Update {
            reporter: reporter.to_string(),
            resource: resource.to_string(),
            site: site.to_string(),
            payload,
        })
}

/// One step of an arbitrary ingest history: a single update, an
/// amortized batch, or a forced compaction of the rope's arena (the
/// arenas here never reach the `maybe_compact` floor).
#[derive(Debug, Clone)]
enum Step {
    Update(Update),
    Batch(Vec<Update>),
    Compact,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        update_strategy().prop_map(Step::Update),
        proptest::collection::vec(update_strategy(), 1..8).prop_map(Step::Batch),
        Just(Step::Compact),
    ]
}

fn branch_of(u: &Update) -> BranchId {
    format!(
        "reporter={},resource={},site={},vo=tg",
        u.reporter, u.resource, u.site
    )
    .parse()
    .unwrap()
}

fn report_xml(u: &Update) -> String {
    ReportBuilder::new(&u.reporter, "1.0")
        .host(&u.resource)
        .gmt(Timestamp::from_secs(0))
        .body_value("v", &u.payload)
        .success()
        .unwrap()
        .to_xml()
}

fn apply(rope: &mut RopeCache, oracle: &mut XmlCache, step: &Step) {
    match step {
        Step::Update(u) => {
            rope.update(&branch_of(u), &report_xml(u)).unwrap();
            oracle.update(&branch_of(u), &report_xml(u)).unwrap();
        }
        Step::Batch(us) => {
            let branches: Vec<BranchId> = us.iter().map(branch_of).collect();
            let reports: Vec<String> = us.iter().map(report_xml).collect();
            let items: Vec<(&BranchId, &str)> = branches
                .iter()
                .zip(reports.iter().map(String::as_str))
                .collect();
            rope.insert_batch(&items).unwrap();
            oracle.insert_batch(&items).unwrap();
        }
        // Moves bytes, not reports: the oracle has nothing to mirror.
        Step::Compact => {
            rope.compact();
            assert_eq!(rope.garbage_bytes(), 0, "compaction left garbage behind");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rope_document_is_byte_identical_to_splice_oracle(
        steps in proptest::collection::vec(step_strategy(), 1..12)
    ) {
        let mut rope = RopeCache::new();
        let mut oracle = XmlCache::new();
        for step in &steps {
            apply(&mut rope, &mut oracle, step);
            let doc = rope.document();
            prop_assert_eq!(
                doc.as_str(),
                oracle.document(),
                "rope document diverged from the splice oracle"
            );
            prop_assert_eq!(rope.generation(), oracle.generation());
            prop_assert_eq!(rope.size_bytes(), oracle.size_bytes());
            prop_assert_eq!(rope.report_count(), oracle.report_count());
        }
    }

    #[test]
    fn rope_reads_match_splice_oracle(
        steps in proptest::collection::vec(step_strategy(), 1..10)
    ) {
        let queries = [
            "vo=tg",
            "site=sdsc,vo=tg",
            "site=ncsa,vo=tg",
            "resource=m2,site=ncsa,vo=tg",
            "reporter=a,resource=m1,site=sdsc,vo=tg",
            "vo=other",
        ];
        let mut rope = RopeCache::new();
        let mut oracle = XmlCache::new();
        for step in &steps {
            apply(&mut rope, &mut oracle, step);
            prop_assert_eq!(
                rope.reports(None).unwrap(),
                oracle.reports(None).unwrap(),
                "unfiltered reports diverged"
            );
            for q in queries {
                let query: BranchId = q.parse().unwrap();
                prop_assert_eq!(
                    rope.reports(Some(&query)).unwrap(),
                    oracle.reports(Some(&query)).unwrap(),
                    "reports({}) diverged", q
                );
                prop_assert_eq!(
                    rope.subtree(&query).unwrap(),
                    oracle.subtree(&query).unwrap(),
                    "subtree({}) diverged", q
                );
                prop_assert_eq!(
                    rope.report_exact(&query),
                    oracle.report_exact(&query),
                    "report_exact({}) diverged", q
                );
            }
        }
    }

    #[test]
    fn rope_restores_from_any_oracle_document(
        updates in proptest::collection::vec(update_strategy(), 1..25)
    ) {
        let mut oracle = XmlCache::new();
        for u in &updates {
            oracle.update(&branch_of(u), &report_xml(u)).unwrap();
        }
        let restored = RopeCache::from_document(oracle.document().to_string()).unwrap();
        let doc = restored.document();
        prop_assert_eq!(doc.as_str(), oracle.document());
        prop_assert_eq!(restored.report_count(), oracle.report_count());
        prop_assert_eq!(restored.generation(), 0);
    }
}
