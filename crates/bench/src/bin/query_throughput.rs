//! The tracked bench baseline for reads under live ingest
//! (`BENCH_query.json` at the repo root).
//!
//! Two measurements:
//!
//! 1. **Contention**: N reader threads querying through the
//!    controller's shared depot lock while one writer streams ingest,
//!    for a fixed wall-clock window per N. The tracked numbers are
//!    total reads and reads/second — the curve shows readers are not
//!    serialized behind ingest (on a single-core host it tracks
//!    overhead, not parallel speedup).
//! 2. **Temporal contention**: the same reader-vs-writer shape, but
//!    the readers run temporal queries (windowed aggregates, incident
//!    scans, availability series — see `docs/QUERYING.md`) over a
//!    seeded archive while the writer appends archive points and
//!    report replacements. This is the read-QPS envelope of the
//!    time-travel query layer under live ingest.
//!
//! Flags: `--smoke` shrinks both measurements to a seconds-long sanity
//! pass (CI gate); `--out PATH` overrides the default output path
//! `BENCH_query.json` in the current directory.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use inca_obs::Obs;
use inca_report::{BranchId, ReportBuilder, Timestamp};
use inca_server::{CentralizedController, ControllerConfig, Depot, QueryInterface};
use inca_wire::message::{ClientMessage, ServerResponse};

struct Config {
    smoke: bool,
    out: String,
    cache_reports: usize,
    reader_counts: Vec<usize>,
    contention_window: Duration,
    /// Archived availability series seeded for the temporal bench.
    temporal_series: usize,
    /// Ten-minute points seeded per temporal series.
    temporal_points: u64,
}

fn parse_args() -> Config {
    let mut smoke = false;
    let mut out = "BENCH_query.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                out = args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: query_throughput [--smoke] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    if smoke {
        Config {
            smoke,
            out,
            cache_reports: 200,
            reader_counts: vec![1, 2],
            contention_window: Duration::from_millis(100),
            temporal_series: 4,
            temporal_points: 48,
        }
    } else {
        Config {
            smoke,
            out,
            cache_reports: 1_000,
            reader_counts: vec![1, 2, 4],
            contention_window: Duration::from_millis(400),
            temporal_series: 10,
            temporal_points: 144,
        }
    }
}

struct ContentionPoint {
    readers: usize,
    reads: u64,
    reads_per_sec: f64,
    writes: u64,
}

fn message(id: usize, value: &str) -> Vec<u8> {
    let resource = format!("m{}", id % 40);
    let report = ReportBuilder::new(&format!("version.pkg{id}"), "1.0")
        .host(&resource)
        .gmt(Timestamp::from_secs(1_089_158_400))
        .body_value("packageVersion", value)
        .success()
        .expect("builder succeeds");
    let branch: BranchId = format!(
        "reporter=version.pkg{id},resource={resource},site=site{},vo=tg",
        id % 10
    )
    .parse()
    .expect("branch is well-formed");
    ClientMessage::report(&resource, branch, &report).encode()
}

fn bench_contention(cfg: &Config) -> Vec<ContentionPoint> {
    cfg.reader_counts
        .iter()
        .map(|&readers| {
            let mut depot = Depot::with_obs(Obs::new());
            for id in 0..cfg.cache_reports {
                let env = inca_wire::envelope::Envelope::new(
                    format!(
                        "reporter=version.pkg{id},resource=m{},site=site{},vo=tg",
                        id % 40,
                        id % 10
                    )
                    .parse()
                    .expect("branch"),
                    ReportBuilder::new(&format!("version.pkg{id}"), "1.0")
                        .gmt(Timestamp::from_secs(1_089_158_400))
                        .body_value("packageVersion", "2.4.0")
                        .success()
                        .expect("builder succeeds")
                        .to_xml(),
                );
                depot
                    .receive(
                        &env.encode(inca_wire::envelope::EnvelopeMode::Body),
                        Timestamp::from_secs(1_089_158_400),
                    )
                    .expect("seed receive");
            }
            let controller =
                Arc::new(CentralizedController::new(ControllerConfig::default(), depot));
            let done = Arc::new(AtomicBool::new(false));
            let start = Arc::new(Barrier::new(readers + 2));

            let reader_handles: Vec<_> = (0..readers)
                .map(|r| {
                    let c = Arc::clone(&controller);
                    let done = Arc::clone(&done);
                    let start = Arc::clone(&start);
                    std::thread::spawn(move || {
                        let site: BranchId =
                            format!("site=site{},vo=tg", r % 10).parse().expect("site query");
                        start.wait();
                        let mut reads = 0u64;
                        while !done.load(Ordering::Relaxed) {
                            c.with_depot(|d| {
                                let q = QueryInterface::new(d);
                                let subtree = q.current(&site).expect("well-formed");
                                assert!(subtree.is_some());
                            });
                            reads += 1;
                        }
                        reads
                    })
                })
                .collect();

            let writer = {
                let c = Arc::clone(&controller);
                let done = Arc::clone(&done);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    let mut writes = 0u64;
                    let mut i = 0usize;
                    while !done.load(Ordering::Relaxed) {
                        let value = format!("3.0.{writes}");
                        let payload = message(i % 1_000, &value);
                        let (resp, _) = c.submit(
                            "bench.host",
                            &payload,
                            Timestamp::from_secs(1_089_158_401 + writes),
                        );
                        assert_eq!(resp, ServerResponse::Ack);
                        writes += 1;
                        i += 7;
                    }
                    writes
                })
            };

            start.wait();
            let window = cfg.contention_window;
            std::thread::sleep(window);
            done.store(true, Ordering::Relaxed);
            let reads: u64 = reader_handles
                .into_iter()
                .map(|h| h.join().expect("reader thread"))
                .sum();
            let writes = writer.join().expect("writer thread");
            ContentionPoint {
                readers,
                reads,
                reads_per_sec: reads as f64 / window.as_secs_f64(),
                writes,
            }
        })
        .collect()
}

/// Temporal read-QPS under a live writer: readers rotate through
/// windowed aggregates, incident scans and series fetches while the
/// writer appends archive points and replaces cached reports.
fn bench_temporal(cfg: &Config) -> Vec<ContentionPoint> {
    let policy = inca_rrd::ArchivePolicy::every("availability", 14 * 86_400);
    let t0 = Timestamp::from_secs(1_089_158_400);
    let series_name = |s: usize| format!("availability:Grid:site{}-m{s}", s % 10);
    cfg.reader_counts
        .iter()
        .map(|&readers| {
            let mut depot = Depot::with_obs(Obs::new());
            for s in 0..cfg.temporal_series {
                for i in 1..=cfg.temporal_points {
                    // Periodic dips give the incident scan real runs
                    // to find.
                    let pct = if i % 48 < 3 { 50.0 } else { 100.0 };
                    depot.archive_mut().record(&series_name(s), &policy, 600, t0 + i * 600, pct);
                }
            }
            let controller =
                Arc::new(CentralizedController::new(ControllerConfig::default(), depot));
            // Seed the cache so resource_reports has answers.
            for id in 0..40 {
                let (resp, _) = controller.submit(
                    "bench.host",
                    &message(id, "2.4.0"),
                    Timestamp::from_secs(1_089_158_400),
                );
                assert_eq!(resp, ServerResponse::Ack);
            }
            let done = Arc::new(AtomicBool::new(false));
            let start = Arc::new(Barrier::new(readers + 2));
            let window_end = t0 + cfg.temporal_points * 600 + 1;

            let reader_handles: Vec<_> = (0..readers)
                .map(|r| {
                    let c = Arc::clone(&controller);
                    let done = Arc::clone(&done);
                    let start = Arc::clone(&start);
                    let series = cfg.temporal_series;
                    std::thread::spawn(move || {
                        start.wait();
                        let mut reads = 0u64;
                        let mut s = r;
                        while !done.load(Ordering::Relaxed) {
                            let name = format!("availability:Grid:site{}-m{}", s % series % 10, s % series);
                            c.with_depot(|d| {
                                let temporal = QueryInterface::new(d).temporal();
                                match reads % 3 {
                                    0 => {
                                        let agg = temporal
                                            .window_aggregate(&name, t0, window_end)
                                            .expect("seeded series present");
                                        assert!(agg.known > 0);
                                    }
                                    1 => {
                                        let incidents =
                                            temporal.incidents(&name, 90.0, t0, window_end);
                                        assert!(!incidents.is_empty());
                                    }
                                    _ => {
                                        let series = temporal
                                            .series_at(
                                                &name,
                                                inca_rrd::ConsolidationFn::Average,
                                                t0,
                                                window_end,
                                                600,
                                            )
                                            .expect("seeded series present");
                                        assert!(series.known().count() > 0);
                                    }
                                }
                            });
                            reads += 1;
                            s += 1;
                        }
                        reads
                    })
                })
                .collect();

            let writer = {
                let c = Arc::clone(&controller);
                let done = Arc::clone(&done);
                let start = Arc::clone(&start);
                let points = cfg.temporal_points;
                std::thread::spawn(move || {
                    start.wait();
                    // The writer appends to its own series (its ring
                    // wraps, storage stays bounded) so the readers'
                    // seeded windows never get evicted — the point is
                    // write-lock contention, not data churn.
                    let policy = inca_rrd::ArchivePolicy::every("availability", 14 * 86_400);
                    let mut writes = 0u64;
                    while !done.load(Ordering::Relaxed) {
                        let t = t0 + (points + 1 + writes) * 600;
                        c.with_depot_mut(|d| {
                            d.archive_mut().record(
                                "availability:Grid:writer-live",
                                &policy,
                                600,
                                t,
                                100.0,
                            );
                        });
                        writes += 1;
                    }
                    writes
                })
            };

            start.wait();
            let window = cfg.contention_window;
            std::thread::sleep(window);
            done.store(true, Ordering::Relaxed);
            let reads: u64 = reader_handles
                .into_iter()
                .map(|h| h.join().expect("reader thread"))
                .sum();
            let writes = writer.join().expect("writer thread");
            ContentionPoint {
                readers,
                reads,
                reads_per_sec: reads as f64 / window.as_secs_f64(),
                writes,
            }
        })
        .collect()
}

fn main() {
    let cfg = parse_args();
    eprintln!(
        "query_throughput: a {}-report cache, contention at {:?} readers",
        cfg.cache_reports, cfg.reader_counts
    );

    let contention = bench_contention(&cfg);
    for p in &contention {
        eprintln!(
            "  contention: {} reader(s) -> {} reads ({:.0}/s) alongside {} writes",
            p.readers, p.reads, p.reads_per_sec, p.writes
        );
    }

    let temporal = bench_temporal(&cfg);
    for p in &temporal {
        eprintln!(
            "  temporal: {} reader(s) -> {} reads ({:.0}/s) alongside {} archive writes",
            p.readers, p.reads, p.reads_per_sec, p.writes
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"query_throughput\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if cfg.smoke { "smoke" } else { "full" }
    ));
    json.push_str("  \"contention\": {\n");
    json.push_str(&format!("    \"cache_reports\": {},\n", cfg.cache_reports));
    json.push_str(&format!(
        "    \"window_seconds\": {:.3},\n",
        cfg.contention_window.as_secs_f64()
    ));
    json.push_str("    \"runs\": [\n");
    for (i, p) in contention.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"readers\": {}, \"reads\": {}, \"reads_per_sec\": {:.0}, \"writes\": {}}}{}\n",
            p.readers,
            p.reads,
            p.reads_per_sec,
            p.writes,
            if i + 1 < contention.len() { "," } else { "" }
        ));
    }
    json.push_str("    ]\n");
    json.push_str("  },\n");
    json.push_str("  \"temporal\": {\n");
    json.push_str(&format!(
        "    \"window_seconds\": {:.3},\n",
        cfg.contention_window.as_secs_f64()
    ));
    json.push_str(&format!("    \"series\": {},\n", cfg.temporal_series));
    json.push_str(&format!("    \"points_per_series\": {},\n", cfg.temporal_points));
    json.push_str("    \"runs\": [\n");
    for (i, p) in temporal.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"readers\": {}, \"reads\": {}, \"reads_per_sec\": {:.0}, \"writes\": {}}}{}\n",
            p.readers,
            p.reads,
            p.reads_per_sec,
            p.writes,
            if i + 1 < temporal.len() { "," } else { "" }
        ));
    }
    json.push_str("    ]\n");
    json.push_str("  }\n");
    json.push_str("}\n");

    std::fs::write(&cfg.out, &json).expect("write bench output");
    eprintln!("wrote {}", cfg.out);
}
