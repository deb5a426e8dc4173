//! Property tests for the depot cache: under arbitrary update
//! sequences, the cache must hold exactly one report per distinct
//! branch, return every report byte-exactly, and keep suffix queries
//! consistent with direct filtering.

use std::collections::BTreeMap;

use proptest::prelude::*;

use inca_report::{BranchId, ReportBuilder, Timestamp};
use inca_server::XmlCache;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_is_a_map_from_branch_to_latest_report(
        updates in proptest::collection::vec(update_strategy(), 1..40)
    ) {
        let mut cache = XmlCache::new();
        let mut expected: BTreeMap<String, String> = BTreeMap::new();
        for u in &updates {
            let branch = branch_of(u);
            let xml = report_xml(u);
            cache.update(&branch, &xml).unwrap();
            expected.insert(branch.to_string(), xml);
        }
        // One report per distinct branch.
        prop_assert_eq!(cache.report_count(), expected.len());
        // Every report retrievable byte-exactly.
        let all = cache.reports(None).unwrap();
        prop_assert_eq!(all.len(), expected.len());
        for (branch, xml) in &all {
            prop_assert_eq!(
                expected.get(&branch.to_string()).map(String::as_str),
                Some(xml.as_str()),
                "branch {} content mismatch", branch
            );
        }
        // The document itself stays well-formed.
        inca_xml::Element::parse(cache.document()).unwrap();
    }

    #[test]
    fn suffix_queries_match_filtering(
        updates in proptest::collection::vec(update_strategy(), 1..30)
    ) {
        let mut cache = XmlCache::new();
        for u in &updates {
            cache.update(&branch_of(u), &report_xml(u)).unwrap();
        }
        let all = cache.reports(None).unwrap();
        for query_text in ["site=sdsc,vo=tg", "site=ncsa,vo=tg", "resource=m1,site=sdsc,vo=tg", "vo=tg"] {
            let query: BranchId = query_text.parse().unwrap();
            let via_query = cache.reports(Some(&query)).unwrap();
            let via_filter: Vec<&(BranchId, String)> =
                all.iter().filter(|(b, _)| b.matches_suffix(&query)).collect();
            prop_assert_eq!(
                via_query.len(),
                via_filter.len(),
                "query {} inconsistent", query_text
            );
            // Subtree query agrees on report count.
            let subtree = cache.subtree(&query).unwrap();
            let subtree_count = subtree
                .map(|s| s.matches("<incaReport").count())
                .unwrap_or(0);
            prop_assert_eq!(subtree_count, via_filter.len());
        }
    }

    #[test]
    fn updates_replace_in_place_keeping_size_steady(
        payloads in proptest::collection::vec(value_strategy(), 2..10)
    ) {
        let mut cache = XmlCache::new();
        let branch: BranchId = "reporter=r,resource=m,vo=tg".parse().unwrap();
        let mk = |p: &str| {
            ReportBuilder::new("r", "1.0")
                .gmt(Timestamp::from_secs(0))
                .body_value("v", format!("{p:>8}")) // fixed-width payload
                .success()
                .unwrap()
                .to_xml()
        };
        cache.update(&branch, &mk(&payloads[0])).unwrap();
        let size = cache.size_bytes();
        for p in &payloads[1..] {
            cache.update(&branch, &mk(p)).unwrap();
            prop_assert_eq!(cache.size_bytes(), size, "size must stay steady");
            prop_assert_eq!(cache.report_count(), 1);
        }
    }
}
