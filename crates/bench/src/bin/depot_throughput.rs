//! The tracked bench baseline for the depot's write path and the
//! parallel simulation tick (`BENCH_depot.json` at the repo root).
//!
//! Three measurements:
//!
//! 1. **Rope vs splice**: K probe inserts into a pre-grown M-report
//!    cache on both write paths — `RopeCache::update` (O(report)
//!    arena append) against the `XmlCache` splice oracle (one O(cache)
//!    stream and rebuild per insert, the paper's Figure 9 cost) — with
//!    byte-identity of the materialized documents asserted afterwards.
//!    The full run and `--rope-gate` enforce a 10x floor on the
//!    speedup.
//! 2. **Million ingest**: the rope path driven to a million cached
//!    reports, recording the cumulative time and per-decade ingest
//!    rate at each decade — the curve the splice path cannot reach:
//!    the oracle runs the same decades under a wall-clock budget and
//!    records where it was abandoned.
//! 3. **Simulation**: wall-clock for a seeded TeraGrid-scale
//!    deployment at 1, 2 and 8 tick threads; the determinism test
//!    guarantees all three produce identical outcomes, so this is a
//!    pure scaling curve. The full run enforces that multi-threaded
//!    ticks are never slower than sequential.
//!
//! Flags: `--smoke` shrinks every measurement to a seconds-long sanity
//! pass (CI gate); `--rope-gate` runs only the rope-vs-splice probe
//! comparison at full scale and exits nonzero below the 10x floor;
//! `--out PATH` overrides the default output path `BENCH_depot.json`
//! in the current directory.

use std::time::{Duration, Instant};

use inca_core::{teragrid_deployment, SimOptions, SimRun};
use inca_obs::Obs;
use inca_report::{BranchId, ReportBuilder, Timestamp};
use inca_server::{RopeCache, XmlCache};

/// Floor on the rope-vs-splice probe speedup (full mode and
/// `--rope-gate`).
const ROPE_SPEEDUP_FLOOR: f64 = 10.0;

/// Noise allowance for the sim scaling gate: the anti-scaling bug this
/// guards against cost ~30% (8 threads 0.388s vs 1 thread 0.304s);
/// best-of-reps wall clocks on ~0.25s runs still jitter a few percent.
const SIM_SCALING_TOLERANCE: f64 = 1.10;

struct Config {
    smoke: bool,
    rope_gate_only: bool,
    out: String,
    sim_reps: usize,
    probe_cache_reports: usize,
    probe_reports: usize,
    million_target: usize,
    million_decades: Vec<usize>,
    splice_budget: Duration,
    sim_horizon_secs: u64,
    sim_threads: Vec<usize>,
}

fn parse_args() -> Config {
    let mut smoke = false;
    let mut rope_gate_only = false;
    let mut out = "BENCH_depot.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--rope-gate" => rope_gate_only = true,
            "--out" => {
                out = args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: depot_throughput [--smoke] [--rope-gate] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    if smoke && !rope_gate_only {
        Config {
            smoke,
            rope_gate_only,
            out,
            sim_reps: 1,
            probe_cache_reports: 2_000,
            probe_reports: 50,
            million_target: 10_000,
            million_decades: vec![10, 100, 1_000, 10_000],
            splice_budget: Duration::from_secs(2),
            sim_horizon_secs: 1_200,
            sim_threads: vec![1, 2],
        }
    } else {
        Config {
            smoke,
            rope_gate_only,
            out,
            sim_reps: 9,
            probe_cache_reports: 100_000,
            probe_reports: 200,
            million_target: 1_000_000,
            million_decades: vec![10, 100, 1_000, 10_000, 100_000, 1_000_000],
            splice_budget: Duration::from_secs(15),
            sim_horizon_secs: 7_200,
            sim_threads: vec![1, 2, 8],
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

struct RopeProbeResult {
    cache_reports: usize,
    probes: usize,
    rope: Duration,
    splice: Duration,
    speedup: f64,
}

/// K probe inserts into an M-report cache on both write paths, with
/// byte-identity asserted on the materialized documents.
fn bench_rope_probes(cfg: &Config) -> RopeProbeResult {
    let seed = report_set(cfg.probe_cache_reports, 0);
    let probes = report_set(cfg.probe_reports, cfg.probe_cache_reports);

    let mut rope = RopeCache::new();
    let items: Vec<(&BranchId, &str)> = seed.iter().map(|(b, x)| (b, x.as_str())).collect();
    rope.insert_batch(&items).expect("rope seed");
    let doc = rope.document().to_string();
    let mut splice = XmlCache::from_document(doc).expect("rope document is valid");

    let started = Instant::now();
    for (branch, xml) in &probes {
        rope.update(branch, xml).expect("rope probe");
    }
    let rope_time = started.elapsed();

    let started = Instant::now();
    for (branch, xml) in &probes {
        splice.update(branch, xml).expect("splice probe");
    }
    let splice_time = started.elapsed();

    assert_eq!(
        rope.document().as_str(),
        splice.document(),
        "rope and splice documents must stay byte-identical after probes"
    );
    RopeProbeResult {
        cache_reports: cfg.probe_cache_reports,
        probes: cfg.probe_reports,
        rope: rope_time,
        splice: splice_time,
        speedup: splice_time.as_secs_f64() / rope_time.as_secs_f64().max(1e-9),
    }
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

fn bench_million(cfg: &Config) -> MillionResult {
    // Rope path: every decade is reachable.
    let mut rope = RopeCache::new();
    let mut rope_decades = Vec::new();
    let mut ingested = 0usize;
    let mut timed = Duration::ZERO;
    let mut last = (0usize, 0.0f64);
    for &decade in &cfg.million_decades {
        while ingested < decade {
            let chunk = GENERATE_CHUNK.min(decade - ingested);
            let reports = report_set(chunk, ingested);
            let started = Instant::now();
            for (branch, xml) in &reports {
                rope.update(branch, xml).expect("rope ingest");
            }
            timed += started.elapsed();
            ingested += chunk;
        }
        let cumulative = timed.as_secs_f64();
        let (prev_n, prev_s) = last;
        rope_decades.push(DecadePoint {
            reports: decade,
            cumulative_seconds: cumulative,
            rate_per_sec: (decade - prev_n) as f64 / (cumulative - prev_s).max(1e-9),
        });
        last = (decade, cumulative);
    }
    assert_eq!(rope.report_count(), cfg.million_target, "every report cached once");
    let started = Instant::now();
    let document = rope.document();
    let materialize_seconds = started.elapsed().as_secs_f64();
    let document_bytes = document.len();
    drop(document);

    // Splice oracle: same decades under a wall-clock budget.
    let mut splice = XmlCache::new();
    let mut splice_decades = Vec::new();
    let mut splice_abandoned_at = None;
    let mut ingested = 0usize;
    let mut timed = Duration::ZERO;
    let mut last = (0usize, 0.0f64);
    'decades: for &decade in &cfg.million_decades {
        while ingested < decade {
            let chunk = GENERATE_CHUNK.min(decade - ingested);
            let reports = report_set(chunk, ingested);
            let started = Instant::now();
            for (branch, xml) in &reports {
                splice.update(branch, xml).expect("splice ingest");
                if started.elapsed() + timed > cfg.splice_budget {
                    splice_abandoned_at = Some(decade);
                    break 'decades;
                }
            }
            timed += started.elapsed();
            ingested += chunk;
        }
        let cumulative = timed.as_secs_f64();
        let (prev_n, prev_s) = last;
        splice_decades.push(DecadePoint {
            reports: decade,
            cumulative_seconds: cumulative,
            rate_per_sec: (decade - prev_n) as f64 / (cumulative - prev_s).max(1e-9),
        });
        last = (decade, cumulative);
    }

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

fn bench_simulation(cfg: &Config) -> Vec<(usize, Duration)> {
    let start = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
    let end = start + cfg.sim_horizon_secs;
    // Best-of-reps, interleaved round-robin: a single 0.2-second run
    // is dominated by scheduler noise and clock-frequency drift, and
    // measuring each thread count in its own contiguous block would
    // bias the never-slower-than-sequential gate toward whichever ran
    // while the machine was fast.
    let mut best = vec![Duration::MAX; cfg.sim_threads.len()];
    for _ in 0..cfg.sim_reps.max(1) {
        for (slot, &threads) in cfg.sim_threads.iter().enumerate() {
            let deployment = teragrid_deployment(42, start, end);
            let options = SimOptions {
                obs: Some(Obs::new()),
                sim_threads: threads,
                ..Default::default()
            };
            let started = Instant::now();
            let outcome = SimRun::new(deployment, options).run();
            best[slot] = best[slot].min(started.elapsed());
            assert!(
                outcome.server.with_depot(|d| d.stats().report_count()) > 0,
                "simulation produced no reports"
            );
        }
    }
    cfg.sim_threads.iter().copied().zip(best).collect()
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

    if cfg.rope_gate_only {
        eprintln!(
            "depot_throughput --rope-gate: {} probes into a {}-report cache",
            cfg.probe_reports, cfg.probe_cache_reports
        );
        let probe = bench_rope_probes(&cfg);
        eprintln!(
            "  rope {:.6}s, splice {:.3}s, speedup {:.0}x (floor {}x)",
            probe.rope.as_secs_f64(),
            probe.splice.as_secs_f64(),
            probe.speedup,
            ROPE_SPEEDUP_FLOOR
        );
        if probe.speedup < ROPE_SPEEDUP_FLOOR {
            eprintln!(
                "FAIL: rope speedup {:.2}x below the {}x floor",
                probe.speedup, ROPE_SPEEDUP_FLOOR
            );
            std::process::exit(1);
        }
        return;
    }

    eprintln!(
        "depot_throughput: {} probes into {}, million curve to {}, sim {}s horizon at {:?} threads",
        cfg.probe_reports,
        cfg.probe_cache_reports,
        cfg.million_target,
        cfg.sim_horizon_secs,
        cfg.sim_threads
    );

    let probe = bench_rope_probes(&cfg);
    eprintln!(
        "  rope probes: rope {:.6}s, splice {:.3}s, speedup {:.0}x",
        probe.rope.as_secs_f64(),
        probe.splice.as_secs_f64(),
        probe.speedup
    );

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

    let sim = bench_simulation(&cfg);
    for (threads, wall) in &sim {
        eprintln!("  sim: {threads} thread(s) -> {:.3}s", wall.as_secs_f64());
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"depot_throughput\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if cfg.smoke { "smoke" } else { "full" }
    ));
    json.push_str("  \"rope_vs_splice\": {\n");
    json.push_str(&format!("    \"cache_reports\": {},\n", probe.cache_reports));
    json.push_str(&format!("    \"probe_reports\": {},\n", probe.probes));
    json.push_str(&format!(
        "    \"rope_seconds\": {:.6},\n",
        probe.rope.as_secs_f64()
    ));
    json.push_str(&format!(
        "    \"splice_seconds\": {:.6},\n",
        probe.splice.as_secs_f64()
    ));
    json.push_str(&format!("    \"speedup\": {:.2}\n", probe.speedup));
    json.push_str("  },\n");
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
    json.push_str("  },\n");
    json.push_str("  \"simulation\": {\n");
    json.push_str(&format!(
        "    \"horizon_secs\": {},\n",
        cfg.sim_horizon_secs
    ));
    json.push_str("    \"runs\": [\n");
    for (i, (threads, wall)) in sim.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"threads\": {}, \"wall_seconds\": {:.3}}}{}\n",
            threads,
            wall.as_secs_f64(),
            if i + 1 < sim.len() { "," } else { "" }
        ));
    }
    json.push_str("    ]\n");
    json.push_str("  }\n");
    json.push_str("}\n");

    std::fs::write(&cfg.out, &json).expect("write bench output");
    eprintln!("wrote {}", cfg.out);

    if !cfg.smoke {
        if probe.speedup < ROPE_SPEEDUP_FLOOR {
            eprintln!(
                "FAIL: rope speedup {:.2}x below the {}x floor",
                probe.speedup, ROPE_SPEEDUP_FLOOR
            );
            std::process::exit(1);
        }
        let one_thread = sim
            .iter()
            .find(|(t, _)| *t == 1)
            .map(|(_, w)| *w)
            .expect("1-thread run present");
        for (threads, wall) in &sim {
            if *threads > 1
                && wall.as_secs_f64() > one_thread.as_secs_f64() * SIM_SCALING_TOLERANCE
            {
                eprintln!(
                    "FAIL: {} threads ({:.3}s) slower than 1 thread ({:.3}s) beyond the {:.0}% noise allowance",
                    threads,
                    wall.as_secs_f64(),
                    one_thread.as_secs_f64(),
                    (SIM_SCALING_TOLERANCE - 1.0) * 100.0
                );
                std::process::exit(1);
            }
        }
    }
}
