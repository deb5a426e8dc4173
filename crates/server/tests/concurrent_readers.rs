//! Readers share the depot lock: the controller's depot sits behind a
//! reader-writer lock, so consumers, health probes and the metrics
//! endpoint read concurrently with each other while ingest writes
//! serialize. These tests hold that contract under real threads.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use inca_report::{BranchId, Report, ReportBuilder, Timestamp};
use inca_server::{CentralizedController, ControllerConfig, Depot, QueryInterface};
use inca_wire::message::{ClientMessage, ServerResponse};

fn controller() -> Arc<CentralizedController> {
    Arc::new(CentralizedController::new(
        ControllerConfig::default(),
        Depot::with_obs(inca_obs::Obs::new()),
    ))
}

fn message(reporter: &str, resource: &str, value: &str) -> Vec<u8> {
    message_at(reporter, resource, value, Timestamp::from_secs(1_000))
}

fn message_at(reporter: &str, resource: &str, value: &str, gmt: Timestamp) -> Vec<u8> {
    let report = ReportBuilder::new(reporter, "1.0")
        .host(resource)
        .gmt(gmt)
        .body_value("packageVersion", value)
        .success()
        .unwrap();
    let branch: BranchId = format!("reporter={reporter},resource={resource},site=sdsc,vo=tg")
        .parse()
        .unwrap();
    ClientMessage::report(resource, branch, &report).encode()
}

/// Two readers hold the depot simultaneously: each parks on a shared
/// barrier *while inside* `with_depot`. Under the old exclusive lock
/// this deadlocks; under the reader-writer lock both enter and the
/// barrier releases.
#[test]
fn two_readers_hold_the_depot_at_once() {
    let c = controller();
    let (resp, _) = c.submit("h", &message("version.globus", "tg1", "2.4.3"), Timestamp::from_secs(1_000));
    assert_eq!(resp, ServerResponse::Ack);
    let rendezvous = Arc::new(Barrier::new(2));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let c = Arc::clone(&c);
            let rendezvous = Arc::clone(&rendezvous);
            thread::spawn(move || {
                c.with_depot(|depot| {
                    // Both threads must be inside the read closure at
                    // the same time for either to get past this point.
                    rendezvous.wait();
                    depot.cache().report_count()
                })
            })
        })
        .collect();
    for r in readers {
        assert_eq!(r.join().expect("reader thread panicked"), 1);
    }
}

/// N readers query continuously while one writer streams inserts and
/// replacements through `submit`/`submit_batch`. Every read must see a
/// self-consistent snapshot: the document parses, counts agree across
/// query styles, an exact-match lookup returns parseable XML, and the
/// shared parsed reports a set read hands out are the parse of the raw
/// XML under the same guard — never a replaced report's.
#[test]
fn readers_see_consistent_snapshots_during_ingest() {
    let c = controller();
    // Seed one branch so readers always have something to find.
    let (resp, _) = c.submit("h", &message("version.globus", "tg1", "0.0.0"), Timestamp::from_secs(999));
    assert_eq!(resp, ServerResponse::Ack);
    let done = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(4));

    let readers: Vec<_> = (0..3)
        .map(|_| {
            let c = Arc::clone(&c);
            let done = Arc::clone(&done);
            let start = Arc::clone(&start);
            thread::spawn(move || {
                let pinned: BranchId =
                    "reporter=version.globus,resource=tg1,site=sdsc,vo=tg".parse().unwrap();
                start.wait();
                // Read first, look at `done` after: the writer may
                // finish before this thread is first scheduled.
                loop {
                    c.with_depot(|depot| {
                        let q = QueryInterface::new(depot);
                        let all = q.reports(None).expect("cache stays well-formed");
                        let count = depot.cache().report_count();
                        assert_eq!(all.len(), count, "reports() disagrees with the report count");
                        let (raw, _) = depot.query_reports(None).expect("cache stays well-formed");
                        assert_eq!(raw.len(), count);
                        for ((branch, report), (raw_branch, xml)) in all.iter().zip(&raw) {
                            assert_eq!(branch, raw_branch);
                            let fresh = Report::parse(xml).expect("cached reports parse");
                            assert_eq!(
                                report.header.gmt, fresh.header.gmt,
                                "{branch}: parsed report is not this snapshot's"
                            );
                        }
                        let seeded = q
                            .report(&pinned)
                            .expect("exact lookup stays well-formed")
                            .expect("seeded branch never disappears");
                        let p: inca_xml::IncaPath = "packageVersion".parse().unwrap();
                        assert!(seeded.body.lookup_text(&p).is_ok());
                        let site = q
                            .current(&"site=sdsc,vo=tg".parse().unwrap())
                            .expect("subtree stays well-formed")
                            .expect("seeded site never disappears");
                        assert!(site.matches("<incaReport").count() >= 1);
                    });
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                }
            })
        })
        .collect();

    let writer = {
        let c = Arc::clone(&c);
        let start = Arc::clone(&start);
        thread::spawn(move || {
            start.wait();
            for i in 0..60u64 {
                // Alternate fresh branches with replacements of the
                // pinned branch, singly and in batches.
                let t = Timestamp::from_secs(1_000 + i);
                if i % 3 == 0 {
                    let batch: Vec<(String, Vec<u8>)> = (0..4)
                        .map(|j| {
                            let resource = format!("batch{}x{j}", i);
                            ("h".to_string(), message("version.mpich", &resource, "1.2.5"))
                        })
                        .collect();
                    for (resp, _) in c.submit_batch(&batch, t) {
                        assert_eq!(resp, ServerResponse::Ack);
                    }
                } else {
                    // Each replacement carries its own timestamp, so a
                    // stale parse is distinguishable from a fresh one.
                    let value = format!("2.4.{i}");
                    let (resp, _) =
                        c.submit("h", &message_at("version.globus", "tg1", &value, t), t);
                    assert_eq!(resp, ServerResponse::Ack);
                }
            }
        })
    };

    writer.join().expect("writer thread panicked");
    done.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().expect("reader thread panicked");
    }
    // 20 batches x 4 fresh branches + the seeded one; replacements
    // never add branches.
    assert_eq!(c.with_depot(|d| d.cache().report_count()), 81);
}

/// Temporal queries return consistent snapshots while a writer
/// ingests: a window entirely in the past must answer *identically*
/// on every read (the writer only appends later points), incidents
/// keep their exact bounds, and report-backed queries always parse.
#[test]
fn temporal_queries_see_consistent_windows_during_ingest() {
    let c = controller();
    let policy = inca_rrd::ArchivePolicy::every("availability", 86_400);
    let t0 = Timestamp::from_secs(600_000);
    // Seed a day-old availability window with a dip, plus one report.
    c.with_depot_mut(|depot| {
        for i in 1..=24u64 {
            let pct = if (10..=13).contains(&i) { 50.0 } else { 100.0 };
            depot.archive_mut().record("availability:Grid:sdsc-tg1", &policy, 600, t0 + i * 600, pct);
        }
    });
    let (resp, _) = c.submit("h", &message("version.globus", "tg1", "2.4.3"), t0 + 24 * 600);
    assert_eq!(resp, ServerResponse::Ack);

    // End just past the last seeded point: the writer's appended
    // points all fall outside this window.
    let window_end = t0 + 24 * 600 + 1;
    let done = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(4));

    let readers: Vec<_> = (0..3)
        .map(|_| {
            let c = Arc::clone(&c);
            let done = Arc::clone(&done);
            let start = Arc::clone(&start);
            thread::spawn(move || {
                start.wait();
                // Read first, look at `done` after: the writer may
                // finish before this thread is first scheduled.
                loop {
                    c.with_depot(|depot| {
                        let temporal = QueryInterface::new(depot).temporal();
                        // The closed window is immutable: the answer
                        // never changes while the writer appends.
                        let agg = temporal
                            .window_aggregate("availability:Grid:sdsc-tg1", t0, window_end)
                            .expect("seeded series never disappears");
                        assert_eq!(agg.min, 50.0);
                        assert_eq!(agg.max, 100.0);
                        assert_eq!(agg.known, 24);
                        let incidents = temporal.incidents(
                            "availability:Grid:sdsc-tg1",
                            99.0,
                            t0,
                            window_end,
                        );
                        assert_eq!(incidents.len(), 1, "the dip is exactly one incident");
                        assert_eq!(incidents[0].start, t0 + 9 * 600);
                        assert_eq!(incidents[0].end, t0 + 13 * 600);
                        // Report-backed temporal queries parse under
                        // concurrent cache writes.
                        let reports = temporal
                            .resource_reports("tg", "sdsc", "tg1")
                            .expect("cache stays well-formed");
                        assert!(!reports.is_empty(), "seeded report never disappears");
                        // The live series may grow but never shrinks.
                        let live = temporal
                            .availability_series("sdsc-tg1", "Grid", t0, t0 + 200 * 600)
                            .expect("series exists");
                        assert!(live.known().count() >= 24);
                    });
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                }
            })
        })
        .collect();

    let writer = {
        let c = Arc::clone(&c);
        let start = Arc::clone(&start);
        thread::spawn(move || {
            start.wait();
            for i in 0..60u64 {
                let t = t0 + (25 + i) * 600;
                // Append fresh availability points past the window and
                // churn the cache with report replacements.
                c.with_depot_mut(|depot| {
                    depot.archive_mut().record(
                        "availability:Grid:sdsc-tg1",
                        &inca_rrd::ArchivePolicy::every("availability", 86_400),
                        600,
                        t,
                        100.0,
                    );
                });
                let (resp, _) =
                    c.submit("h", &message("version.globus", "tg1", &format!("2.4.{i}")), t);
                assert_eq!(resp, ServerResponse::Ack);
            }
        })
    };

    writer.join().expect("writer thread panicked");
    done.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().expect("reader thread panicked");
    }
}
