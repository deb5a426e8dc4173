//! The consumer boundary: what a verification pass or a status page
//! costs the depot. A set read parses the reports replaced since the
//! last set read — not the cache — and hands every reader the same
//! parsed report until its branch is written again.
//!
//! The count comes from `inca::report::parse_calls`, a process-wide
//! debug-build counter, so this file holds one test: nothing else in
//! the binary may parse a report while it counts.

#![cfg(debug_assertions)]

use std::sync::Arc;

use inca::consumer::build_status_page;
use inca::prelude::*;
use inca::report::parse_calls;

const REPORTS: usize = 40;

fn branch(i: usize) -> BranchId {
    format!("reporter=version.pkg{i},resource=r{},site=sdsc,vo=tg", i % 4).parse().unwrap()
}

fn envelope(i: usize, version: &str) -> Vec<u8> {
    let report = ReportBuilder::new(format!("version.pkg{i}"), "1.0")
        .gmt(Timestamp::from_secs(1_000))
        .body_value("packageVersion", version)
        .success()
        .unwrap();
    Envelope::new(branch(i), report.to_xml()).encode(EnvelopeMode::Binary)
}

#[test]
fn a_set_read_parses_exactly_the_reports_replaced_since_the_last_one() {
    let now = Timestamp::from_secs(1_000);
    let mut depot = Depot::with_obs(Obs::new());
    let envelopes: Vec<Vec<u8>> = (0..REPORTS).map(|i| envelope(i, "1.0")).collect();
    for result in depot.receive_batch(&envelopes, now) {
        result.unwrap();
    }

    // Cold: every report is parsed once. Warm: none is.
    let before = parse_calls();
    let cold = QueryInterface::new(&depot).reports(None).unwrap();
    assert_eq!(parse_calls() - before, REPORTS as u64, "cold read");
    assert_eq!(cold.len(), REPORTS);
    let before = parse_calls();
    let warm = QueryInterface::new(&depot).reports(None).unwrap();
    assert_eq!(parse_calls() - before, 0, "warm read");
    assert!(cold.iter().zip(&warm).all(|(a, b)| a.0 == b.0 && Arc::ptr_eq(&a.1, &b.1)));

    // Replace k of them: two singly, the rest in one batch that
    // writes one branch twice.
    let replaced = [3, 11, 12, 20, 27, 35, 39];
    for &i in &replaced[..2] {
        depot.receive(&envelope(i, "2.0"), now).unwrap();
    }
    let mut batch = vec![envelope(replaced[2], "1.5")];
    batch.extend(replaced[2..].iter().map(|&i| envelope(i, "2.0")));
    for result in depot.receive_batch(&batch, now) {
        result.unwrap();
    }

    let before = parse_calls();
    let after = QueryInterface::new(&depot).reports(None).unwrap();
    assert_eq!(parse_calls() - before, replaced.len() as u64, "k replaced");
    let version: IncaPath = "packageVersion".parse().unwrap();
    for (i, (branch_id, report)) in after.iter().enumerate() {
        let (old_branch, old) = &warm[i];
        assert_eq!(branch_id, old_branch, "order is document order");
        let index = (0..REPORTS).find(|&n| branch(n) == *branch_id).unwrap();
        if replaced.contains(&index) {
            assert!(!Arc::ptr_eq(report, old), "{branch_id} was replaced");
            assert_eq!(report.body.lookup_text(&version).unwrap(), "2.0");
        } else {
            assert!(Arc::ptr_eq(report, old), "{branch_id} was not");
        }
    }

    // Every other set read shares the same parse: a suffix read,
    // the temporal entry points and a whole status page.
    let before = parse_calls();
    let q = QueryInterface::new(&depot);
    let r1 = q.reports(Some(&"resource=r1,site=sdsc,vo=tg".parse().unwrap())).unwrap();
    let r1_again = q.temporal().resource_reports("tg", "sdsc", "r1").unwrap();
    assert_eq!(r1.len(), REPORTS / 4);
    assert!(r1.iter().zip(&r1_again).all(|(a, b)| Arc::ptr_eq(&a.1, &b.1)));
    assert_eq!(q.temporal().vo_reports("tg").unwrap().len(), REPORTS);
    let labels: Vec<(String, String)> =
        (0..4).map(|r| ("sdsc".to_string(), format!("r{r}"))).collect();
    build_status_page(&q, &Agreement::new("tg", "2.0"), &labels, now);
    assert_eq!(parse_calls() - before, 0, "warm consumers parse nothing");
}
