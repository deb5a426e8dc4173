//! The rope's million-report ingest curve (`BENCH_depot.json` at the
//! repo root): the rope path driven to a million cached reports,
//! recording the cumulative time and per-decade ingest rate at each
//! decade — the curve the splice path cannot reach: the `XmlCache`
//! oracle runs the same decades under a wall-clock budget and records
//! where it was abandoned.
//!
//! Flags: `--smoke` shrinks the curve to a seconds-long sanity pass;
//! `--out PATH` overrides the default output path `BENCH_depot.json`
//! in the current directory.

use std::time::{Duration, Instant};

use inca_report::{BranchId, ReportBuilder, Timestamp};
use inca_server::{RopeCache, XmlCache};

struct Config {
    smoke: bool,
    out: String,
    million_target: usize,
    million_decades: Vec<usize>,
    splice_budget: Duration,
}

fn parse_args() -> Config {
    let mut smoke = false;
    let mut out = "BENCH_depot.json".to_string();
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
                eprintln!("usage: depot_throughput [--smoke] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    if smoke {
        Config {
            smoke,
            out,
            million_target: 10_000,
            million_decades: vec![10, 100, 1_000, 10_000],
            splice_budget: Duration::from_secs(2),
        }
    } else {
        Config {
            smoke,
            out,
            million_target: 1_000_000,
            million_decades: vec![10, 100, 1_000, 10_000, 100_000, 1_000_000],
            splice_budget: Duration::from_secs(15),
        }
    }
}

/// `n` distinct branches with realistic report payloads, offset so
/// separately-built sets never collide.
fn report_set(n: usize, offset: usize) -> Vec<(BranchId, String)> {
    (0..n)
        .map(|i| {
            let id = offset + i;
            let (site, resource) = (format!("site{}", id % 10), format!("m{}", id % 40));
            let branch: BranchId = format!(
                "reporter=version.pkg{id},resource={resource},site={site},vo=tg"
            )
            .parse()
            .expect("generated branch is well-formed");
            let xml = ReportBuilder::new(&format!("version.pkg{id}"), "1.0")
                .host(&resource)
                .gmt(Timestamp::from_secs(1_089_158_400 + id as u64))
                .body_value("packageVersion", format!("2.4.{}", id % 20))
                .success()
                .expect("builder succeeds")
                .to_xml();
            (branch, xml)
        })
        .collect()
}

struct DecadePoint {
    reports: usize,
    cumulative_seconds: f64,
    rate_per_sec: f64,
}

struct MillionResult {
    target: usize,
    rope_decades: Vec<DecadePoint>,
    materialize_seconds: f64,
    document_bytes: usize,
    arena_bytes: usize,
    splice_decades: Vec<DecadePoint>,
    splice_abandoned_at: Option<usize>,
}

/// Reports are generated untimed in bounded chunks so the curve
/// measures ingest, not report construction, and peak memory stays at
/// one chunk of XML strings beyond the caches themselves.
const GENERATE_CHUNK: usize = 100_000;

/// Ingests `report_set` decade by decade through `insert`, timing only
/// the inserts. With a `budget`, gives up inside the decade where the
/// timed total passes it and returns that decade beside the finished
/// ones.
fn ingest_decades(
    decades: &[usize],
    budget: Option<Duration>,
    mut insert: impl FnMut(&BranchId, &str),
) -> (Vec<DecadePoint>, Option<usize>) {
    let mut points = Vec::new();
    let mut ingested = 0usize;
    let mut timed = Duration::ZERO;
    let mut last = (0usize, 0.0f64);
    for &decade in decades {
        while ingested < decade {
            let chunk = GENERATE_CHUNK.min(decade - ingested);
            let reports = report_set(chunk, ingested);
            let started = Instant::now();
            for (branch, xml) in &reports {
                insert(branch, xml);
                if budget.is_some_and(|b| timed + started.elapsed() > b) {
                    return (points, Some(decade));
                }
            }
            timed += started.elapsed();
            ingested += chunk;
        }
        let cumulative = timed.as_secs_f64();
        let (prev_n, prev_s) = last;
        points.push(DecadePoint {
            reports: decade,
            cumulative_seconds: cumulative,
            rate_per_sec: (decade - prev_n) as f64 / (cumulative - prev_s).max(1e-9),
        });
        last = (decade, cumulative);
    }
    (points, None)
}

fn bench_million(cfg: &Config) -> MillionResult {
    // Rope path: every decade is reachable.
    let mut rope = RopeCache::new();
    let (rope_decades, _) = ingest_decades(&cfg.million_decades, None, |branch, xml| {
        rope.update(branch, xml).expect("rope ingest");
    });
    assert_eq!(rope.report_count(), cfg.million_target, "every report cached once");
    let started = Instant::now();
    let document = rope.document();
    let materialize_seconds = started.elapsed().as_secs_f64();
    let document_bytes = document.len();
    drop(document);

    // Splice oracle: same decades under a wall-clock budget.
    let mut splice = XmlCache::new();
    let (splice_decades, splice_abandoned_at) =
        ingest_decades(&cfg.million_decades, Some(cfg.splice_budget), |branch, xml| {
            splice.update(branch, xml).expect("splice ingest");
        });

    MillionResult {
        target: cfg.million_target,
        rope_decades,
        materialize_seconds,
        document_bytes,
        arena_bytes: rope.arena_bytes(),
        splice_decades,
        splice_abandoned_at,
    }
}

fn decade_json(points: &[DecadePoint]) -> String {
    let mut out = String::new();
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "        {{\"reports\": {}, \"cumulative_seconds\": {:.6}, \"rate_per_sec\": {:.0}}}{}\n",
            p.reports,
            p.cumulative_seconds,
            p.rate_per_sec,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out
}

fn main() {
    let cfg = parse_args();
    eprintln!("depot_throughput: million curve to {}", cfg.million_target);

    let million = bench_million(&cfg);
    for p in &million.rope_decades {
        eprintln!(
            "  million (rope): {:>9} reports in {:.3}s ({:.0}/s)",
            p.reports, p.cumulative_seconds, p.rate_per_sec
        );
    }
    eprintln!(
        "  million (rope): materialize {:.3}s, document {} bytes, arena {} bytes",
        million.materialize_seconds, million.document_bytes, million.arena_bytes
    );
    match million.splice_abandoned_at {
        Some(at) => eprintln!(
            "  million (splice): abandoned inside the {at}-report decade after {:?} budget",
            cfg.splice_budget
        ),
        None => eprintln!("  million (splice): completed every decade within budget"),
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"depot_throughput\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if cfg.smoke { "smoke" } else { "full" }
    ));
    json.push_str("  \"million_ingest\": {\n");
    json.push_str(&format!("    \"target_reports\": {},\n", million.target));
    json.push_str("    \"rope\": {\n");
    json.push_str("      \"decades\": [\n");
    json.push_str(&decade_json(&million.rope_decades));
    json.push_str("      ],\n");
    json.push_str(&format!(
        "      \"materialize_seconds\": {:.6},\n",
        million.materialize_seconds
    ));
    json.push_str(&format!(
        "      \"document_bytes\": {},\n",
        million.document_bytes
    ));
    json.push_str(&format!("      \"arena_bytes\": {}\n", million.arena_bytes));
    json.push_str("    },\n");
    json.push_str("    \"splice\": {\n");
    json.push_str(&format!(
        "      \"budget_seconds\": {:.1},\n",
        cfg.splice_budget.as_secs_f64()
    ));
    json.push_str("      \"decades\": [\n");
    json.push_str(&decade_json(&million.splice_decades));
    json.push_str("      ],\n");
    json.push_str(&format!(
        "      \"abandoned_at\": {}\n",
        million
            .splice_abandoned_at
            .map_or("null".to_string(), |n| n.to_string())
    ));
    json.push_str("    }\n");
    json.push_str("  }\n");
    json.push_str("}\n");

    std::fs::write(&cfg.out, &json).expect("write bench output");
    eprintln!("wrote {}", cfg.out);
}
