//! The tracked service-envelope baseline for the reactor frontend
//! (`BENCH_net.json` at the repo root).
//!
//! DiPerF-style client-scale curve: N concurrent daemon connections
//! (100 → 10k in full mode) all submitting reports to one reactor
//! server, measuring sustained acked reports/second and the p99 of the
//! server's accept-to-insert latency histogram at each N. Every daemon
//! holds its own TCP connection for the whole measurement — the point
//! is connection *concurrency*, the regime where the old
//! thread-per-connection frontend would need N kernel threads.
//!
//! Client side: a few child *processes* (re-exec of this binary with a
//! hidden `--client` mode) each own a slice of the connections and
//! pipeline one in-flight report per connection — write a frame to
//! every socket in the slice, then collect every ack. Processes rather
//! than threads because `RLIMIT_NOFILE` is per process: the server
//! keeps all N connection fds, each client child only its slice, so
//! 10k connections fit under a 20k fd ceiling that a single process
//! (holding both ends) would blow through. A stdin "go" barrier aligns
//! the measurement windows after every child has connected.
//!
//! Flags: `--smoke` shrinks the run to a seconds-long sanity pass (CI
//! gate); `--out PATH` overrides the default output path
//! `BENCH_net.json`. Full mode gates on every point sustaining a
//! conservative reports/second floor and on actually reaching the
//! advertised connection counts.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use inca_report::{BranchId, ReportBuilder, Timestamp};
use inca_server::{CentralizedController, ControllerConfig, Depot};
use inca_wire::envelope::EnvelopeMode;
use inca_wire::frame::read_frame;
use inca_wire::message::{ClientMessage, ServerResponse};

/// Client child processes per point. The host may be single-core; a
/// few pipelining processes saturate the reactor without a thread (or
/// process) per daemon.
const CLIENT_PROCS: usize = 4;

struct Config {
    smoke: bool,
    out: String,
    /// Concurrent daemon connection counts, ascending.
    daemons: Vec<usize>,
    /// Measured window per point.
    duration: Duration,
}

fn parse_args() -> Config {
    let mut smoke = false;
    let mut out = "BENCH_net.json".to_string();
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
                eprintln!("usage: net_scale [--smoke] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    if smoke {
        Config { smoke, out, daemons: vec![100, 1_000], duration: Duration::from_secs(2) }
    } else {
        Config {
            smoke,
            out,
            daemons: vec![100, 300, 1_000, 3_000, 10_000],
            duration: Duration::from_secs(5),
        }
    }
}

/// Best-effort `RLIMIT_NOFILE` raise. Containers commonly drop
/// `CAP_SYS_RESOURCE`, so the hard limit may be a wall; returns the
/// effective soft limit either way.
mod rlimit {
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }

    #[cfg(target_os = "linux")]
    const RLIMIT_NOFILE: i32 = 7;
    #[cfg(not(target_os = "linux"))]
    const RLIMIT_NOFILE: i32 = 8;

    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }

    pub fn raise_nofile(want: u64) -> u64 {
        // SAFETY: `getrlimit` and `setrlimit` only read or write the one
        // `Rlimit` they are handed, and every pointer passed is to a
        // live, initialized `Rlimit` on this stack frame, laid out as
        // the C `struct rlimit` (`#[repr(C)]`, two `u64`s: `rlim_t` on
        // 64-bit targets).
        // Each return code is checked before its `Rlimit` is trusted: a
        // failed `getrlimit` returns a default without reading `cur`,
        // and a failed `setrlimit` changes nothing.
        unsafe {
            let mut cur = Rlimit { cur: 0, max: 0 };
            if getrlimit(RLIMIT_NOFILE, &mut cur) != 0 {
                return 1_024;
            }
            if cur.cur >= want {
                return cur.cur;
            }
            let raised = Rlimit { cur: want.max(cur.max), max: want.max(cur.max) };
            if setrlimit(RLIMIT_NOFILE, &raised) == 0 {
                return raised.cur;
            }
            // Could not raise the hard limit: take everything the
            // current one allows.
            let clamped = Rlimit { cur: cur.max, max: cur.max };
            if setrlimit(RLIMIT_NOFILE, &clamped) == 0 {
                return clamped.cur;
            }
            cur.cur
        }
    }
}

/// One pre-encoded frame per daemon: the same branch is replaced every
/// round, like a periodic reporter re-submitting. Unstamped (legacy)
/// messages keep the wire bytes constant so the client's cost is pure
/// socket I/O.
fn frame_for(daemon: usize) -> Vec<u8> {
    let resource = format!("d{daemon}.teragrid.org");
    let report = ReportBuilder::new("probe.net", "1.0")
        .host(&resource)
        .gmt(Timestamp::from_secs(1_089_158_400))
        .body_value("status", "up")
        .success()
        .unwrap();
    let branch: BranchId =
        format!("reporter=probe.net,resource={resource},vo=tg").parse().unwrap();
    let payload = ClientMessage::report(&resource, branch, &report).encode();
    let mut frame = Vec::with_capacity(payload.len() + 4);
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// One pipelined round over a slice of connections: write a frame to
/// every socket, then collect every ack. Returns the acked count.
fn pipelined_round(sockets: &mut [TcpStream], frames: &[Vec<u8>]) -> u64 {
    for (stream, frame) in sockets.iter_mut().zip(frames) {
        stream.write_all(frame).expect("bench socket write");
    }
    let mut acked = 0u64;
    for stream in sockets.iter_mut() {
        let reply = read_frame(stream).expect("bench socket read");
        match ServerResponse::decode(&reply).expect("decode reply") {
            ServerResponse::Ack => acked += 1,
            other => panic!("bench submission rejected: {other:?}"),
        }
    }
    acked
}

/// Child mode: connect `count` daemon sockets, report readiness, wait
/// for the parent's "go" barrier on stdin, warm up, then measure a
/// sustained window and print `acked=N seconds=F` on stdout.
fn run_client(addr: &str, count: usize, start: usize, duration: Duration) -> ! {
    rlimit::raise_nofile(count as u64 + 1_024);
    let mut sockets: Vec<TcpStream> = Vec::with_capacity(count);
    for _ in 0..count {
        // Brief retries ride out listen-backlog overflow while every
        // child races to connect at once.
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
        sockets.push(stream);
    }
    let frames: Vec<Vec<u8>> = (start..start + count).map(frame_for).collect();

    println!("ready");
    std::io::stdout().flush().expect("flush ready");
    let mut line = String::new();
    std::io::stdin().read_line(&mut line).expect("read go");
    assert_eq!(line.trim(), "go", "unexpected barrier line from parent");

    // Warm-up: every connection completes at least one round before
    // the measured window opens.
    let warm_until = Instant::now() + Duration::from_millis(300);
    while Instant::now() < warm_until {
        pipelined_round(&mut sockets, &frames);
    }
    let started = Instant::now();
    let mut acked = 0u64;
    while started.elapsed() < duration {
        acked += pipelined_round(&mut sockets, &frames);
    }
    println!("acked={} seconds={}", acked, started.elapsed().as_secs_f64());
    std::process::exit(0);
}

struct Point {
    daemons: usize,
    seconds: f64,
    acked_reports: u64,
    reports_per_sec: f64,
    p99_accept_to_insert_us: f64,
    wakeups_total: u64,
    connections: usize,
}

fn bench_point(cfg: &Config, daemons: usize) -> Point {
    // Fresh pipeline per point: isolated metrics, empty depot, its own
    // reactor on the zero-copy binary envelope path into the rope arena.
    let obs = inca_obs::Obs::new();
    let controller = Arc::new(CentralizedController::new(
        ControllerConfig { envelope_mode: EnvelopeMode::Binary, ..ControllerConfig::default() },
        Depot::with_obs(obs.clone()),
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = controller.serve_reactor(listener).expect("serve reactor");
    let addr = handle.addr().to_string();

    let exe = std::env::current_exe().expect("current exe");
    let procs = CLIENT_PROCS.min(daemons).max(1);
    let mut children = Vec::with_capacity(procs);
    let mut start = 0usize;
    for p in 0..procs {
        let count = daemons / procs + usize::from(p < daemons % procs);
        let mut child = Command::new(&exe)
            .args([
                "--client",
                &addr,
                &count.to_string(),
                &start.to_string(),
                &cfg.duration.as_millis().to_string(),
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn client child");
        start += count;
        let stdout = BufReader::new(child.stdout.take().expect("child stdout"));
        children.push((child, stdout));
    }

    // Barrier: every child has all its connections up before any
    // measurement window opens.
    for (_, stdout) in children.iter_mut() {
        let mut line = String::new();
        stdout.read_line(&mut line).expect("child readiness");
        assert_eq!(line.trim(), "ready", "client child failed before the barrier");
    }
    for (child, _) in children.iter_mut() {
        child.stdin.as_mut().expect("child stdin").write_all(b"go\n").expect("send go");
    }

    // A client's connect() succeeds as soon as the kernel queues the
    // socket in the listen backlog; the reactor drains the backlog on
    // its next readiness pass. Poll the gauge under load for the peak
    // concurrently-registered count.
    let mut connections = 0usize;
    let poll_until = Instant::now() + Duration::from_secs(2).min(cfg.duration);
    while connections < daemons && Instant::now() < poll_until {
        connections = connections.max(handle.connection_count());
        std::thread::sleep(Duration::from_millis(20));
    }

    let mut acked_reports = 0u64;
    let mut seconds = 0f64;
    let mut reports_per_sec = 0f64;
    for (mut child, mut stdout) in children {
        let mut line = String::new();
        stdout.read_line(&mut line).expect("child result");
        let mut child_acked = None;
        let mut child_seconds = None;
        for field in line.split_whitespace() {
            if let Some(v) = field.strip_prefix("acked=") {
                child_acked = v.parse::<u64>().ok();
            } else if let Some(v) = field.strip_prefix("seconds=") {
                child_seconds = v.parse::<f64>().ok();
            }
        }
        let (a, s) = match (child_acked, child_seconds) {
            (Some(a), Some(s)) if s > 0.0 => (a, s),
            _ => panic!("malformed client result line: {line:?}"),
        };
        acked_reports += a;
        seconds = seconds.max(s);
        // Child windows all open at the barrier; aggregate throughput
        // is the sum of each child's own sustained rate.
        reports_per_sec += a as f64 / s;
        assert!(child.wait().expect("child exit").success(), "client child failed");
    }

    let p99_accept_to_insert_us = obs
        .metrics()
        .histogram_of("inca_net_accept_to_insert_seconds", &[])
        .and_then(|h| h.quantile(0.99))
        .map(|s| s * 1e6)
        .unwrap_or(f64::NAN);
    let wakeups_total =
        obs.metrics().counter_value("inca_net_readiness_wakeups_total", &[]).unwrap_or(0);
    handle.stop();

    Point {
        daemons,
        seconds,
        acked_reports,
        reports_per_sec,
        p99_accept_to_insert_us,
        wakeups_total,
        connections,
    }
}

fn main() {
    // Hidden child mode: net_scale --client ADDR COUNT START DURATION_MS
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--client") {
        if raw.len() != 5 {
            eprintln!("--client wants ADDR COUNT START DURATION_MS");
            std::process::exit(2);
        }
        let count: usize = raw[2].parse().expect("client COUNT");
        let start: usize = raw[3].parse().expect("client START");
        let ms: u64 = raw[4].parse().expect("client DURATION_MS");
        run_client(&raw[1], count, start, Duration::from_millis(ms));
    }

    let cfg = parse_args();
    let top = *cfg.daemons.last().expect("at least one point") as u64;
    let limit = rlimit::raise_nofile(top + 1_024);
    // The server process holds one fd per daemon; client slices live in
    // their own processes with their own limits.
    let max_daemons = (limit.saturating_sub(512)) as usize;
    let daemons: Vec<usize> = cfg.daemons.iter().map(|&d| d.min(max_daemons)).collect();
    if daemons != cfg.daemons {
        eprintln!(
            "net_scale: fd limit {limit} clamps the curve to {daemons:?} (wanted {:?})",
            cfg.daemons
        );
    }
    eprintln!(
        "net_scale: daemon counts {daemons:?}, {}s window per point, {CLIENT_PROCS} client processes",
        cfg.duration.as_secs(),
    );

    let points: Vec<Point> = daemons.iter().map(|&d| bench_point(&cfg, d)).collect();
    for p in &points {
        eprintln!(
            "  {} daemons: {:.0} reports/s sustained ({} acked in {:.2}s); \
             p99 accept-to-insert {:.0}us; {} wakeups; {} connections",
            p.daemons,
            p.reports_per_sec,
            p.acked_reports,
            p.seconds,
            p.p99_accept_to_insert_us,
            p.wakeups_total,
            p.connections
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"net_scale\",\n");
    json.push_str("  \"frontend\": \"reactor\",\n");
    json.push_str(&format!("  \"mode\": \"{}\",\n", if cfg.smoke { "smoke" } else { "full" }));
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"daemons\": {}, \"connections\": {}, \"reports_per_sec\": {:.0}, \
             \"p99_accept_to_insert_us\": {:.1}, \"acked_reports\": {}, \
             \"wakeups_total\": {}, \"seconds\": {:.3}}}{}\n",
            p.daemons,
            p.connections,
            p.reports_per_sec,
            p.p99_accept_to_insert_us,
            p.acked_reports,
            p.wakeups_total,
            p.seconds,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n");
    json.push_str("}\n");

    std::fs::write(&cfg.out, &json).expect("write bench output");
    eprintln!("wrote {}", cfg.out);

    // Floors (conservative: CI containers may pin this to one core).
    // Smoke gates in verify.sh on the JSON; full mode self-gates here.
    if !cfg.smoke {
        let mut failed = false;
        for (want, p) in cfg.daemons.iter().zip(&points) {
            if p.connections < p.daemons {
                eprintln!(
                    "FAIL: only {} of {} connections were concurrently live",
                    p.connections, p.daemons
                );
                failed = true;
            }
            if p.daemons < *want {
                eprintln!("FAIL: fd limit clamped {want} daemons to {}", p.daemons);
                failed = true;
            }
            if p.reports_per_sec < 2_000.0 {
                eprintln!(
                    "FAIL: {:.0} reports/s at {} daemons below the 2k floor",
                    p.reports_per_sec, p.daemons
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
