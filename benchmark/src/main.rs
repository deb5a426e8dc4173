//! `pipeline_bench`: the gated end-to-end benchmark of the Inca
//! pipeline (see `benchmark/README.md` and `BENCHMARK.json`).
//!
//! ```text
//! pipeline_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                [--commit <sha>] [--out <dir>]
//! ```
//!
//! One invocation runs one workload in its own process (so peak RSS is
//! per workload), checks what the program produced, writes a detailed
//! JSON (and, traced, the span file) under `benchmark/out/`, and prints
//! the result object as the last line of standard output. Everything
//! is measured from outside the program: timed calls into public
//! functions and reads of its public counters.

mod cpu;
mod inputs;
mod loadgen;
mod probes;
mod sim;
mod spans;
mod stats;
mod tcp;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use loadgen::{WindowResult, CONNECTIONS};
use stats::Sorted;
use tcp::{TcpRun, TcpWorkload};

/// The four workloads, by the names `BENCHMARK.json` lists.
const WORKLOADS: [&str; 4] = ["small_closed", "large_closed", "paced_mix", "sim_week"];

/// End-to-end metrics, printed by an untraced run: `(name, unit)`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ingest_reports_per_s", "1/s"),
    ("ack_p50_us", "us"),
    ("fire_to_queryable_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by a traced run: `(name, unit)`.
const PER_LAYER: [(&str, &str); 46] = [
    // Too unsteady on the reference box to gate (README), so reported
    // here: the tails over the pooled plain slices, the consumer reads
    // as medians over them (zero where no reads run beside the loop).
    ("ack_p99_us", "us"),
    ("ack_p999_us", "us"),
    ("fire_to_queryable_p99_us", "us"),
    ("query_point_p50_us", "us"),
    ("query_subtree_p50_us", "us"),
    ("query_subtree_p99_us", "us"),
    ("query_window_p50_us", "us"),
    ("loadgen.self_us_per_report", "us"),
    ("loadgen.cpu_share", "share"),
    ("loadgen.late_p99_us", "us"),
    ("wire.message_decode_us", "us"),
    ("wire.message_encode_us", "us"),
    ("wire.framebuffer_us", "us"),
    ("wire.envelope_encode_us", "us"),
    ("wire.envelope_decode_us", "us"),
    ("wire.reply_codec_us", "us"),
    ("xml.skim_us", "us"),
    ("xml.report_parse_us", "us"),
    ("spool.cycle_us", "us"),
    ("daemon.fire_us", "us"),
    ("dedup.observe_us", "us"),
    ("controller.submit_batch_us", "us"),
    ("controller.submit_single_us", "us"),
    ("depot.unpack_us", "us"),
    ("depot.insert_us", "us"),
    ("depot.cache_bytes", "bytes"),
    ("archive.ingest_us", "us"),
    ("archive.write_ratio", "ratio"),
    ("rrd.update_us", "us"),
    ("reactor.frames_per_wakeup", "count"),
    ("reactor.backpressure_pauses", "count"),
    ("reactor.cpu_us_per_report", "us"),
    ("reactor.busy_share", "share"),
    ("reactor.residual_us_per_report", "us"),
    ("query.point_us", "us"),
    ("query.subtree_us", "us"),
    ("query.current_all_us", "us"),
    ("temporal.window_us", "us"),
    ("agreement.verify_us", "us"),
    ("consumer.status_page_us", "us"),
    ("obs.span_us", "us"),
    ("sim.reports", "count"),
    ("sim.verify_passes", "count"),
    ("sim.wall_s", "s"),
    ("trace.overhead_share", "share"),
    ("failed_share", "share"),
];

/// How often a workload's set-up is repeated; `setup_s` is the median.
const SET_UPS: usize = 5;
/// `--seconds` at which `sim_week` simulates its full seven days.
const FULL_WEEK_SECONDS: u64 = 20;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
    commit: String,
    out: PathBuf,
    /// Cores this process may use, read before any thread is pinned.
    nproc: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: pipeline_bench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--commit <sha>] [--out <dir>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 11,
        seconds: FULL_WEEK_SECONDS,
        traced: false,
        commit: "unknown".into(),
        out: PathBuf::from("benchmark/out"),
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let Some(value) = argv.next() else { usage() };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => args.traced = matches!(value.as_str(), "1"),
            "--commit" => args.commit = value,
            "--out" => args.out = PathBuf::from(value),
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) || args.seconds == 0 {
        usage();
    }
    args
}

/// Picks one latency kind out of a slice's latencies.
type Kind = fn(&Latencies) -> &Sorted;

/// Latencies of one window, sorted once.
struct Latencies {
    ack: Sorted,
    fresh: Sorted,
    point: Sorted,
    subtree: Sorted,
    window: Sorted,
    late: Sorted,
}

/// One window's numbers, detached from its samples.
struct Measured {
    /// `measure`, `plain` or `traced`.
    name: &'static str,
    wall: Duration,
    sent: u64,
    sent_archived: u64,
    acked: u64,
    send_recv_busy: Duration,
    counters: loadgen::Counters,
    reactor_cpu: f64,
    lat: Latencies,
}

impl Measured {
    fn from(w: WindowResult) -> Measured {
        Measured {
            name: w.name,
            wall: w.wall,
            sent: w.sent,
            sent_archived: w.sent_archived,
            acked: w.acked,
            send_recv_busy: w.send_busy + w.recv_busy,
            counters: w.counters,
            reactor_cpu: w.reactor_cpu,
            lat: Latencies {
                ack: w.ack.sorted(),
                fresh: w.fresh.sorted(),
                point: w.reads.point.sorted(),
                subtree: w.reads.subtree.sorted(),
                window: w.reads.window.sorted(),
                late: w.late.sorted(),
            },
        }
    }

    fn acked_per_second(&self) -> f64 {
        self.acked as f64 / self.wall.as_secs_f64()
    }
}

/// Everything one invocation found out.
struct Report {
    setup_s: f64,
    setups: Vec<f64>,
    /// The measured slices (untraced) or the plain and traced ones.
    windows: Vec<Measured>,
    /// `ingest_reports_per_s`: acked/s of the window, or the simulated
    /// week's reports per wall second.
    ingest_per_s: f64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    cache_bytes: usize,
    /// `(reports, verify passes, wall seconds)` of the simulated week.
    week: Option<(u64, u64, f64)>,
    probes: Vec<(&'static str, f64)>,
    spans: spans::SpanLog,
    pinned: Option<cpu::Placement>,
}

/// The measured windows of a finished TCP phase, detached.
fn measured_windows(run: &mut TcpRun) -> Vec<Measured> {
    std::mem::take(&mut run.outcome.windows)
        .into_iter()
        .filter(|w| w.name != "warm-up" && w.name != "drain")
        .map(Measured::from)
        .collect()
}

/// The slices that ran without span recording (all of an untraced run).
fn plain_slices(windows: &[Measured]) -> Vec<&Measured> {
    windows.iter().filter(|m| m.name != "traced").collect()
}

/// The span-recording slices of a traced run.
fn traced_slices(windows: &[Measured]) -> Vec<&Measured> {
    windows.iter().filter(|m| m.name == "traced").collect()
}

/// Median over slices of each slice's own value; `None` if any slice
/// has none.
fn median_over(slices: &[&Measured], value: impl Fn(&Measured) -> Option<f64>) -> Option<f64> {
    let mut values = slices
        .iter()
        .map(|m| value(m))
        .collect::<Option<Vec<f64>>>()?;
    (!values.is_empty()).then(|| stats::median(&mut values))
}

/// Frames the reactor gathered per readiness pass in the traced slices.
fn live_batch(windows: &[Measured]) -> usize {
    let (frames, wakeups) = traced_slices(windows).iter().fold((0, 0), |(f, w), m| {
        (f + m.counters.frames, w + m.counters.wakeups)
    });
    (frames as f64 / wakeups.max(1) as f64).round() as usize
}

/// The first inputs of a TCP workload, stamped as the generator stamps
/// them, for the layer probes.
fn probe_payloads(run: &mut TcpRun) -> Vec<Vec<u8>> {
    let inputs = &mut run.inputs;
    let mut host_seq = vec![0u64; inputs.hosts.len()];
    probes::cap_inputs((0..).map(|i| {
        let b = &mut inputs.branches[inputs.order[i % inputs.order.len()] as usize];
        host_seq[b.host] += 1;
        b.stamp(host_seq[b.host], inputs::gmt_base() + i as u64);
        b.payload().to_vec()
    }))
}

fn run_tcp(workload: TcpWorkload, args: &Args) -> Report {
    let (rig, setups) = tcp::set_up_repeatedly(args.seed, workload.shape, SET_UPS);
    let plan = tcp::plan(
        workload.pace,
        tcp::WARM_UP,
        Duration::from_secs(args.seconds),
        args.traced,
    );
    let mut run = rig.run(&plan);
    let windows = measured_windows(&mut run);
    let probes = if args.traced {
        let fired = probes::fire_daemons(args.seed);
        let payloads = probe_payloads(&mut run);
        probes::run(&payloads, &run.inputs.rules, &fired, live_batch(&windows))
    } else {
        Vec::new()
    };
    let (attempted, failed) = (run.attempted, run.failed);
    Report {
        setup_s: stats::median(&mut setups.clone()),
        setups,
        ingest_per_s: median_over(&plain_slices(&windows), |m| Some(m.acked_per_second()))
            .expect("a measured slice"),
        windows,
        attempted,
        failed,
        problems: std::mem::take(&mut run.problems),
        cache_bytes: run.cache_bytes,
        week: None,
        probes,
        spans: std::mem::take(&mut run.outcome.spans),
        pinned: run.outcome.pinned,
    }
}

fn run_sim_week(args: &Args) -> Report {
    // The full week at the configured run length; fewer days (never
    // less than one) when asked for a shorter run, and the live tail
    // takes half the run length on top.
    let days = (args.seconds * 7 / FULL_WEEK_SECONDS).clamp(1, 7);
    let tail = Duration::from_secs(args.seconds)
        .div_f64(2.0)
        .max(Duration::from_secs(1));
    let mut setups = Vec::with_capacity(SET_UPS);
    let mut wired = None;
    for _ in 0..SET_UPS {
        let t0 = Instant::now();
        wired = Some(sim::wire(args.seed, days));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (deployment, sim_run) = wired.expect("at least one set-up");
    let mut week = sim::run_week(sim_run);
    let mut problems = std::mem::take(&mut week.problems);
    check_digest(args, days, week.digest, &mut problems);

    // Serving the week-old depot is set-up for the tail; it happens
    // once, so it is added to the median of the repeated part.
    let t0 = Instant::now();
    let rig = sim::serve_week(&deployment, &week.outcome, args.seed);
    let serve_s = t0.elapsed().as_secs_f64();
    let plan = tcp::plan(sim::TAIL_PACE, sim::TAIL_WARM_UP, tail, args.traced);
    let mut run = rig.run(&plan);
    // Each violated check of the week counts as one failure, like the
    // tail's own (which `run.failed` already includes).
    let (attempted, failed) = (
        week.reports + run.attempted,
        run.failed + problems.len() as u64,
    );
    problems.append(&mut run.problems);
    let windows = measured_windows(&mut run);
    let probes = if args.traced {
        let fired = probes::fire_daemons(args.seed);
        let payloads = probes::cap_inputs(fired.payloads.iter().cloned());
        let rules = week
            .outcome
            .server
            .with_depot(|d| d.archive().rules().to_vec());
        probes::run(&payloads, &rules, &fired, live_batch(&windows))
    } else {
        Vec::new()
    };
    let wall = week.wall.as_secs_f64();
    Report {
        setup_s: stats::median(&mut setups.clone()) + serve_s,
        setups,
        ingest_per_s: week.reports as f64 / wall,
        windows,
        attempted,
        failed,
        problems,
        cache_bytes: run.cache_bytes,
        week: Some((week.reports, week.outcome.verification_passes, wall)),
        probes,
        spans: std::mem::take(&mut run.outcome.spans),
        pinned: run.outcome.pinned,
    }
}

/// The simulated week must leave the same document and status page on
/// every run of one seed. An earlier run's digest is kept beside the
/// outputs; a later run of the same seed and horizon must match it.
fn check_digest(args: &Args, days: u64, digest: u64, problems: &mut Vec<String>) {
    let path = args
        .out
        .join(format!("sim_week.seed{}.days{days}.digest", args.seed));
    let text = format!("{digest:016x}");
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier.trim() == text => {}
        Ok(earlier) => problems.push(format!(
            "digest {text} differs from {} recorded by an earlier run of this seed in {} \
             (delete the file if the program changed in between)",
            earlier.trim(),
            path.display()
        )),
        Err(_) => {
            if let Err(e) = std::fs::write(&path, &text) {
                eprintln!("pipeline_bench: cannot record {}: {e}", path.display());
            }
        }
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// Who measured what, where: stamped on every output file.
fn provenance(args: &Args, pinned: Option<cpu::Placement>) -> String {
    let pinned = pinned.map_or(
        "not pinned (the kernel refused or one core)".to_string(),
        |p| {
            format!(
                "reactor cpu{}, generator cpu{}, consumer cpu{}",
                p.reactor, p.generator, p.consumer
            )
        },
    );
    format!(
        "{{\"commit\": \"{}\", \"nproc\": {}, \"cpu_model\": \"{}\", \"pinned\": \"{pinned}\", \
         \"profile\": \"serve_reactor(default ReactorConfig) / CacheBackend::Rope / EnvelopeMode::Binary / allow-all allowlist / fresh Obs, no trace sink\", \
         \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"traced\": {}, \
         \"warm_up_s\": {}, \"set_ups\": {SET_UPS}, \"connections\": {CONNECTIONS}, \
         \"threads\": \"1 reactor (server) + 1 generator (busy-polling) + beside an open loop 1 consumer (sleeping, ~5% of a core) + 1 SCHED_IDLE spinner keeping the reactor core awake\", \
         \"link\": \"loopback TCP, one process\"}}",
        json_escape(&args.commit),
        args.nproc,
        json_escape(&cpu_model()),
        args.workload,
        args.seed,
        args.seconds,
        args.traced,
        if args.workload == "sim_week" { sim::TAIL_WARM_UP } else { tcp::WARM_UP }.as_secs_f64(),
    )
}

/// A percentile that has samples, or a recorded problem and zero.
fn reading(name: &str, value: Option<f64>, problems: &mut Vec<String>) -> f64 {
    match value {
        Some(v) if v.is_finite() => v,
        _ => {
            problems.push(format!("{name} has no samples"));
            0.0
        }
    }
}

fn end_to_end(report: &mut Report) -> Vec<(&'static str, f64)> {
    let slices = plain_slices(&report.windows);
    let mut missing = Vec::new();
    let mut p50 = |name, of: Kind| {
        reading(
            name,
            median_over(&slices, |m| of(&m.lat).percentile_us(0.50)),
            &mut missing,
        )
    };
    let values = vec![
        ("setup_s", report.setup_s),
        ("ingest_reports_per_s", report.ingest_per_s),
        ("ack_p50_us", p50("ack_p50_us", |l| &l.ack)),
        (
            "fire_to_queryable_p50_us",
            p50("fire_to_queryable_p50_us", |l| &l.fresh),
        ),
        ("peak_rss_mb", cpu::peak_rss_mb()),
    ];
    report.failed += missing.len() as u64;
    report.problems.append(&mut missing);
    values
}

fn per_layer(report: &Report) -> Vec<(&'static str, f64)> {
    let (plain, traced) = (
        plain_slices(&report.windows),
        traced_slices(&report.windows),
    );
    let rate =
        |slices: &[&Measured]| median_over(slices, |m| Some(m.acked_per_second())).unwrap_or(0.0);
    let (plain_rate, traced_rate) = (rate(&plain), rate(&traced));
    // Per-layer costs are totals over the traced slices.
    let sum = |value: fn(&Measured) -> f64| traced.iter().map(|m| value(m)).sum::<f64>();
    let acked = sum(|m| m.acked as f64).max(1.0);
    let wall = sum(|m| m.wall.as_secs_f64());
    let reactor_cpu = sum(|m| m.reactor_cpu);
    let busy = sum(|m| m.send_recv_busy.as_secs_f64());
    let probe = |name: &str| {
        report
            .probes
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let (reports, passes, week_wall) = report
        .week
        .map_or((0.0, 0.0, 0.0), |(r, p, w)| (r as f64, p as f64, w));
    let pooled = |of: Kind, p| {
        Sorted::pooled(plain.iter().map(|m| of(&m.lat)))
            .percentile_us(p)
            .unwrap_or(0.0)
    };
    let sliced = |of: Kind, p| median_over(&plain, |m| of(&m.lat).percentile_us(p)).unwrap_or(0.0);
    let mut values: Vec<(&'static str, f64)> = vec![
        ("ack_p99_us", pooled(|l| &l.ack, 0.99)),
        ("ack_p999_us", pooled(|l| &l.ack, 0.999)),
        ("fire_to_queryable_p99_us", pooled(|l| &l.fresh, 0.99)),
        ("query_point_p50_us", sliced(|l| &l.point, 0.50)),
        ("query_subtree_p50_us", sliced(|l| &l.subtree, 0.50)),
        ("query_subtree_p99_us", pooled(|l| &l.subtree, 0.99)),
        ("query_window_p50_us", sliced(|l| &l.window, 0.50)),
        ("loadgen.self_us_per_report", busy * 1e6 / acked),
        ("loadgen.cpu_share", busy / wall),
        (
            "loadgen.late_p99_us",
            median_over(&traced, |m| m.lat.late.percentile_us(0.99)).unwrap_or(0.0),
        ),
        ("depot.cache_bytes", report.cache_bytes as f64),
        (
            "archive.write_ratio",
            sum(|m| m.counters.archive_writes as f64) / sum(|m| m.sent_archived as f64).max(1.0),
        ),
        (
            "reactor.frames_per_wakeup",
            sum(|m| m.counters.frames as f64) / sum(|m| m.counters.wakeups as f64).max(1.0),
        ),
        (
            "reactor.backpressure_pauses",
            sum(|m| m.counters.backpressure as f64),
        ),
        ("reactor.cpu_us_per_report", reactor_cpu * 1e6 / acked),
        ("reactor.busy_share", reactor_cpu / wall),
        // What the TCP path costs beyond admission and the depot:
        // sockets, framing, reply flush, poller. A per-report cost only
        // where the loop is closed (the server is never idle).
        (
            "reactor.residual_us_per_report",
            1e6 / plain_rate - probe("controller.submit_batch_us"),
        ),
        ("sim.reports", reports),
        ("sim.verify_passes", passes),
        ("sim.wall_s", week_wall),
        ("trace.overhead_share", 1.0 - traced_rate / plain_rate),
        (
            "failed_share",
            report.failed as f64 / report.attempted.max(1) as f64,
        ),
    ];
    values.extend(report.probes.iter().copied());
    values
}

/// `"name": {"value": v, "unit": "u"}` for every declared metric, in
/// declaration order.
fn metrics_json(declared: &[(&str, &str)], values: &[(&'static str, f64)]) -> String {
    let mut out = String::from("{");
    for (i, (name, unit)) in declared.iter().enumerate() {
        let value = values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| if v.is_finite() { *v } else { 0.0 })
            .unwrap_or_else(|| panic!("metric {name} was declared but not measured"));
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

fn sample_counts(windows: &[Measured]) -> String {
    let mut out = String::from("[");
    for (i, w) in windows.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let l = &w.lat;
        let _ = write!(
            out,
            "{sep}{{\"window\": \"{}\", \"wall_s\": {}, \"sent\": {}, \"acked\": {}, \
             \"samples\": {{\"ack\": {}, \"fire_to_queryable\": {}, \"query_point\": {}, \
             \"query_subtree\": {}, \"query_window\": {}, \"late\": {}}}, \
             \"beyond_p99\": {{\"ack\": {}, \"fire_to_queryable\": {}, \"query_subtree\": {}}}}}",
            w.name,
            w.wall.as_secs_f64(),
            w.sent,
            w.acked,
            l.ack.len(),
            l.fresh.len(),
            l.point.len(),
            l.subtree.len(),
            l.window.len(),
            l.late.len(),
            l.ack.beyond(0.99),
            l.fresh.beyond(0.99),
            l.subtree.beyond(0.99),
        );
    }
    out.push(']');
    out
}

/// Percentiles of every latency kind over the pooled plain slices,
/// for the detail file.
fn percentile_table(windows: &[Measured]) -> String {
    let slices = plain_slices(windows);
    let kinds: [(&str, Kind); 6] = [
        ("ack", |l| &l.ack),
        ("fire_to_queryable", |l| &l.fresh),
        ("query_point", |l| &l.point),
        ("query_subtree", |l| &l.subtree),
        ("query_window", |l| &l.window),
        ("late", |l| &l.late),
    ];
    let mut out = String::from("{");
    for (i, (kind, of)) in kinds.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{kind}_us\": {{");
        for (j, p) in [0.50, 0.90, 0.95, 0.99, 0.999].iter().enumerate() {
            let value = Sorted::pooled(slices.iter().map(|m| of(&m.lat)))
                .percentile_us(*p)
                .unwrap_or(0.0);
            let sep = if j == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"p{}\": {value}", p * 100.0);
        }
        out.push('}');
    }
    out.push('}');
    out
}

fn write_file(path: &Path, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("pipeline_bench: cannot write {}: {e}", path.display());
    }
}

fn main() {
    let args = parse_args();
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("pipeline_bench: cannot create {}: {e}", args.out.display());
    }
    let mut report = match args.workload.as_str() {
        "small_closed" => run_tcp(tcp::SMALL_CLOSED, &args),
        "large_closed" => run_tcp(tcp::LARGE_CLOSED, &args),
        "paced_mix" => run_tcp(tcp::PACED_MIX, &args),
        _ => run_sim_week(&args),
    };
    let metrics = if args.traced {
        metrics_json(&PER_LAYER, &per_layer(&report))
    } else {
        let values = end_to_end(&mut report);
        metrics_json(&END_TO_END, &values)
    };
    for m in &report.windows {
        eprintln!(
            "pipeline_bench: {} slice {:.2} s: {:.0} acked/s, ack p50 {:.0} us p99 {:.0} us",
            m.name,
            m.wall.as_secs_f64(),
            m.acked_per_second(),
            m.lat.ack.percentile_us(0.50).unwrap_or(0.0),
            m.lat.ack.percentile_us(0.99).unwrap_or(0.0),
        );
    }
    let correct = report.failed == 0 && report.problems.is_empty();
    for problem in &report.problems {
        eprintln!("pipeline_bench: FAILED CHECK: {problem}");
    }
    let provenance = provenance(&args, report.pinned);
    let problems: Vec<String> = report
        .problems
        .iter()
        .map(|p| format!("\"{}\"", json_escape(p)))
        .collect();
    let setups: Vec<String> = report.setups.iter().map(f64::to_string).collect();
    let mode = if args.traced { "traced" } else { "untraced" };
    write_file(
        &args.out.join(format!("{}.{mode}.json", args.workload)),
        &format!(
            "{{\"provenance\": {provenance},\n \"correct\": {correct}, \"attempted\": {}, \"failed\": {},\n \
             \"problems\": [{}],\n \"set_up_s\": [{}],\n \"windows\": {},\n \"percentiles\": {},\n \"metrics\": {metrics}}}\n",
            report.attempted,
            report.failed,
            problems.join(", "),
            setups.join(", "),
            sample_counts(&report.windows),
            percentile_table(&report.windows),
        ),
    );
    if args.traced {
        write_file(
            &args.out.join(format!("{}.spans.json", args.workload)),
            &report.spans.to_json(&provenance),
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        report.attempted, report.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the binary must name the same workloads and
    /// metrics with the same units.
    #[test]
    fn benchmark_json_declares_what_the_binary_prints() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json at the repo root");
        for name in WORKLOADS {
            assert!(
                text.contains(&format!("{{\"name\": \"{name}\", \"why\":")),
                "workload {name}"
            );
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                text.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\",")),
                "metric {name} [{unit}]"
            );
        }
        let declared = text.matches("{\"name\": ").count();
        assert_eq!(
            declared,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn metrics_json_prints_every_declared_metric_in_order() {
        let json = metrics_json(&[("b", "us"), ("a", "1/s")], &[("a", 1.5), ("b", 2.0)]);
        assert_eq!(
            json,
            r#"{"b": {"value": 2, "unit": "us"}, "a": {"value": 1.5, "unit": "1/s"}}"#
        );
    }
}
