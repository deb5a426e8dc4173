//! The load generator: one thread, two loopback connections, and a
//! mostly-sleeping consumer beside it.
//!
//! Sized for a two-core box: the server's reactor thread takes one
//! core and this generator the other, so there are never more *busy*
//! threads than cores and no child processes. Sockets are non-blocking
//! and busy-polled — a generator that sleeps between polls adds its
//! own wake-up jitter to every latency it reports.
//!
//! Two pacing disciplines share one loop. A **closed** loop keeps a
//! fixed window of reports in flight per connection and times each
//! from its first `write` to its ack. An **open** loop sends on a
//! fixed schedule whatever the server does, and times each report from
//! the instant it was *due*, so a stall is charged to every report it
//! delays. After one ack in `verify_every` the generator point-queries
//! the depot for the report just acked (fire-to-queryable).
//!
//! Beside an open loop, rotating point / subtree / window reads run on
//! a **consumer thread** that sleeps between reads (about 5% of a
//! core). They wait on the depot lock whenever the reactor holds its
//! write side — that wait is what they are there to measure — and on
//! the generator's thread every such wait would make the generator
//! late for its own schedule. A closed loop has no reads beside it.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use inca_report::{BranchId, Timestamp};
use inca_server::{CentralizedController, QueryInterface};
use inca_wire::message::ServerResponse;

use crate::cpu::{Placement, ReactorThread};
use crate::inputs::{gmt_base, Stamped};
use crate::spans::SpanLog;
use crate::stats::Samples;

/// Connections the generator holds: one per core, never more.
pub const CONNECTIONS: usize = 2;
/// How long un-acked reports may still arrive after the last window.
pub const DRAIN_GRACE: Duration = Duration::from_secs(5);
/// Hours of archived history a window read aggregates.
const WINDOW_READ_SECS: u64 = 86_400;

/// A fixed-rate schedule whose `i`-th event is computed from `i`, so
/// rounding never accumulates into drift.
#[derive(Debug, Clone)]
pub struct Schedule {
    start: Instant,
    per_second: f64,
    next: u64,
}

impl Schedule {
    pub fn new(start: Instant, per_second: f64) -> Schedule {
        assert!(per_second > 0.0, "a schedule needs a positive rate");
        Schedule {
            start,
            per_second,
            next: 0,
        }
    }

    /// When event `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_nanos((i as f64 * 1e9 / self.per_second) as u64)
    }

    /// The next event if it is due by `now`, with its due time.
    pub fn pop_due(&mut self, now: Instant) -> Option<(u64, Instant)> {
        let due = self.due(self.next);
        if due > now {
            return None;
        }
        self.next += 1;
        Some((self.next - 1, due))
    }
}

/// How sends are paced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// At most `window` un-acked reports per connection.
    Closed { window: usize },
    /// `per_second` reports a second across both connections.
    Open { per_second: f64 },
}

/// One consecutive stretch of the run with its own statistics.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub name: &'static str,
    pub len: Duration,
    /// Whether the generator records stopwatch spans in this window.
    pub spans: bool,
}

/// What the generator is asked to do.
#[derive(Debug, Clone)]
pub struct Plan {
    pub pace: Pace,
    /// Consumer reads a second, rotating point → subtree → window.
    pub reads_per_second: f64,
    /// One ack in this many is point-queried for the report acked.
    pub verify_every: u64,
    pub windows: Vec<Window>,
}

/// What the consumer side reads.
pub struct ReadTargets<'a> {
    /// Point reads rotate over these.
    pub branches: &'a [BranchId],
    pub site_queries: &'a [BranchId],
    /// Archived series for window reads.
    pub series: &'a [String],
    /// End of the archived history (window reads cover the day before).
    pub series_end: Timestamp,
}

/// The program's public counters the stage table is built from.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub frames: u64,
    pub wakeups: u64,
    pub backpressure: u64,
    pub archive_writes: u64,
    pub accepted: u64,
}

impl Counters {
    pub fn read(controller: &CentralizedController) -> Counters {
        let m = controller.obs().metrics();
        let c = |name| m.counter_value(name, &[]).unwrap_or(0);
        Counters {
            frames: c("inca_net_frames_total"),
            wakeups: c("inca_net_readiness_wakeups_total"),
            backpressure: c("inca_net_backpressure_pauses_total"),
            archive_writes: c("inca_depot_archive_writes_total"),
            accepted: c("inca_controller_accepted_total"),
        }
    }

    pub fn since(&self, open: &Counters) -> Counters {
        Counters {
            frames: self.frames - open.frames,
            wakeups: self.wakeups - open.wakeups,
            backpressure: self.backpressure - open.backpressure,
            archive_writes: self.archive_writes - open.archive_writes,
            accepted: self.accepted - open.accepted,
        }
    }
}

/// Everything measured in one window.
#[derive(Debug)]
pub struct WindowResult {
    pub name: &'static str,
    pub wall: Duration,
    pub sent: u64,
    pub sent_archived: u64,
    pub acked: u64,
    pub rejected: u64,
    pub misverified: u64,
    pub ack: Samples,
    /// Due/write time → verified point-query return.
    pub fresh: Samples,
    /// Consumer reads beside an open loop.
    pub reads: Reads,
    /// Open loop only: send start − due time.
    pub late: Samples,
    /// Generator self time: patching and writing frames.
    pub send_busy: Duration,
    /// Generator self time: reading and matching acks.
    pub recv_busy: Duration,
    pub inflight_open: usize,
    pub inflight_close: usize,
    pub counters: Counters,
    /// CPU seconds of the server's reactor thread.
    pub reactor_cpu: f64,
}

impl WindowResult {
    fn new(w: &Window, expect: usize) -> WindowResult {
        WindowResult {
            name: w.name,
            wall: Duration::ZERO,
            sent: 0,
            sent_archived: 0,
            acked: 0,
            rejected: 0,
            misverified: 0,
            ack: Samples::with_capacity(expect),
            fresh: Samples::with_capacity(expect / 8),
            reads: Reads::default(),
            late: Samples::with_capacity(expect),
            send_busy: Duration::ZERO,
            recv_busy: Duration::ZERO,
            inflight_open: 0,
            inflight_close: 0,
            counters: Counters::default(),
            reactor_cpu: 0.0,
        }
    }

    /// Share of the window the generator spent on its own send/receive
    /// work. Idle polling and read-backs (which mostly wait on the
    /// depot lock) are not the generator's cost of generating load.
    pub fn loadgen_share(&self) -> f64 {
        (self.send_busy + self.recv_busy).as_secs_f64() / self.wall.as_secs_f64()
    }
}

/// A closed loop whose generator is busy more than this share of a
/// core is measuring the generator, not the server.
pub const GENERATOR_BOUND_SHARE: f64 = 0.5;

/// Whether a window's numbers must be thrown away as generator-bound.
pub fn generator_bound(pace: Pace, loadgen_share: f64) -> bool {
    matches!(pace, Pace::Closed { .. }) && loadgen_share > GENERATOR_BOUND_SHARE
}

/// The whole run.
#[derive(Debug)]
pub struct Outcome {
    pub windows: Vec<WindowResult>,
    /// Sent in any window but never acked within the drain grace.
    pub unacked: u64,
    /// Last gmt sent per branch (`None` = never sent by the generator).
    pub last_gmt: Vec<Option<Timestamp>>,
    pub spans: SpanLog,
    /// Where the threads were pinned, if the kernel allowed it.
    pub pinned: Option<Placement>,
}

struct Flight {
    branch: u32,
    t0: Instant,
    gmt: Timestamp,
}

/// A frame partly written: what it will be in flight, and how far.
struct Partial {
    flight: Flight,
    offset: usize,
}

struct Conn {
    stream: TcpStream,
    /// Closed loop: this connection's branches, cycled.
    order: Vec<u32>,
    next: usize,
    /// Open loop: due but not yet written.
    queue: VecDeque<(u32, Instant)>,
    cur: Option<Partial>,
    inflight: VecDeque<Flight>,
    rbuf: Vec<u8>,
}

impl Conn {
    fn outstanding(&self) -> usize {
        self.queue.len() + usize::from(self.cur.is_some()) + self.inflight.len()
    }
}

/// Connects the generator's sockets to a running server.
pub fn connect(addr: SocketAddr) -> io::Result<Vec<TcpStream>> {
    (0..CONNECTIONS)
        .map(|_| {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            Ok(stream)
        })
        .collect()
}

/// Mutable generator-side state of the inputs.
pub struct SendState<'a> {
    pub branches: &'a mut [Stamped],
    /// Send order, cycled.
    pub order: &'a [u32],
    /// Last seq each daemon has used; carried in and out so that a
    /// pre-fill before and a later phase keep stamping fresh seqs.
    pub host_seq: &'a mut [u64],
    /// Sends per branch so far (the next send's gmt offset).
    pub sent_before: &'a mut [u64],
}

/// The window the generator is in, published for the consumer thread.
/// `STOP` ends the consumer.
const STOP: usize = usize::MAX;

/// Stops the consumer when the generator is done — or has panicked, so
/// a failed run ends instead of waiting for its consumer forever.
struct StopOnDrop<'a>(&'a AtomicUsize);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(STOP, Ordering::SeqCst);
    }
}

/// Drives `plan` against `controller`'s server over `streams`.
pub fn drive(
    plan: &Plan,
    controller: &CentralizedController,
    streams: Vec<TcpStream>,
    send: SendState<'_>,
    reads: &ReadTargets<'_>,
) -> Outcome {
    let reactor = ReactorThread::find();
    let placement = Placement::for_this_process();
    let pinned = placement.is_some_and(|p| p.pin_generator_and_reactor(reactor.tid()));
    let current = AtomicUsize::new(0);
    let start = Instant::now();
    let (mut outcome, consumed) = std::thread::scope(|scope| {
        let consumer = scope.spawn(|| {
            let pinned = placement.is_some_and(|p| p.pin_consumer());
            (consume(plan, controller, reads, &current, start), pinned)
        });
        if let Some(p) = placement.filter(|_| pinned) {
            let stopped = || current.load(Ordering::Relaxed) == STOP;
            scope.spawn(move || crate::cpu::keep_awake(p.reactor, stopped));
        }
        let outcome = {
            let _stop = StopOnDrop(&current);
            generate(plan, controller, streams, send, &reactor, &current, start)
        };
        (
            outcome,
            consumer.join().expect("the consumer thread panicked"),
        )
    });
    let ((per_window, consumer_spans), consumer_pinned) = consumed;
    outcome.pinned = (pinned && consumer_pinned).then_some(placement).flatten();
    for (result, reads) in outcome.windows.iter_mut().zip(per_window) {
        result.reads = reads;
    }
    outcome.spans.absorb(consumer_spans);
    outcome
}

/// Latencies of consumer reads, by kind.
#[derive(Debug, Default)]
pub struct Reads {
    pub point: Samples,
    pub subtree: Samples,
    pub window: Samples,
}

impl Reads {
    fn push(&mut self, kind: usize, took: Duration) {
        match kind {
            0 => self.point.push(took),
            1 => self.subtree.push(took),
            _ => self.window.push(took),
        }
    }
}

/// The `k`-th consumer read: kind `k % 3` (point, subtree, window),
/// each kind rotating over its own targets. Returns the kind and its
/// span name.
fn one_read(
    controller: &CentralizedController,
    reads: &ReadTargets<'_>,
    k: u64,
) -> (usize, &'static str) {
    let (kind, turn) = ((k % 3) as usize, (k / 3) as usize);
    let name = match kind {
        0 => {
            let branch = &reads.branches[turn % reads.branches.len()];
            let found = controller.with_depot(|d| QueryInterface::new(d).report(branch));
            assert!(matches!(found, Ok(Some(_))), "point read found no report");
            "query.point"
        }
        1 => {
            let q = &reads.site_queries[turn % reads.site_queries.len()];
            let found = controller.with_depot(|d| QueryInterface::new(d).current(q));
            assert!(matches!(found, Ok(Some(_))), "subtree read found nothing");
            "query.subtree"
        }
        _ => {
            let series = &reads.series[turn % reads.series.len()];
            let agg = controller.with_depot(|d| {
                QueryInterface::new(d).temporal().window_aggregate(
                    series,
                    reads.series_end - WINDOW_READ_SECS,
                    reads.series_end,
                )
            });
            assert!(
                agg.is_some_and(|a| a.known > 0),
                "window read found no points"
            );
            "query.window"
        }
    };
    (kind, name)
}

/// The consumer thread: one read per schedule slot, rotating point →
/// subtree → window, asleep in between.
fn consume(
    plan: &Plan,
    controller: &CentralizedController,
    reads: &ReadTargets<'_>,
    current: &AtomicUsize,
    start: Instant,
) -> (Vec<Reads>, SpanLog) {
    let mut per_window: Vec<Reads> = (0..=plan.windows.len()).map(|_| Reads::default()).collect();
    let mut spans = SpanLog::new();
    let mut root: Option<(usize, u32)> = None;
    if plan.reads_per_second <= 0.0 {
        return (per_window, spans);
    }
    let mut schedule = Schedule::new(start, plan.reads_per_second);
    loop {
        let w = current.load(Ordering::SeqCst);
        if w >= plan.windows.len() {
            // Draining or stopped: no more reads.
            if w == STOP {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        let now = Instant::now();
        let Some((k, _)) = schedule.pop_due(now) else {
            std::thread::sleep(schedule.due(schedule.next).saturating_duration_since(now));
            continue;
        };
        let t_q = Instant::now();
        let (kind, name) = one_read(controller, reads, k);
        let t_done = Instant::now();
        per_window[w].push(kind, t_done - t_q);
        if plan.windows[w].spans {
            let parent = match root {
                Some((rw, id)) if rw == w => id,
                _ => {
                    let id = spans.open_root("consumer", w as u8, start, t_q);
                    root = Some((w, id));
                    id
                }
            };
            spans.child(name, parent, w as u8, start, t_q, t_done, 1);
            spans.extend(parent, start, t_done);
        }
    }
    (per_window, spans)
}

/// The generator loop, on the calling thread.
fn generate(
    plan: &Plan,
    controller: &CentralizedController,
    streams: Vec<TcpStream>,
    send: SendState<'_>,
    reactor: &ReactorThread,
    current: &AtomicUsize,
    start: Instant,
) -> Outcome {
    assert_eq!(streams.len(), CONNECTIONS);
    let SendState {
        branches,
        order,
        host_seq,
        sent_before,
    } = send;
    let ack_bytes = ServerResponse::Ack.encode();
    let mut conns: Vec<Conn> = streams
        .into_iter()
        .enumerate()
        .map(|(c, stream)| Conn {
            stream,
            order: order
                .iter()
                .copied()
                .filter(|&b| branches[b as usize].host % CONNECTIONS == c)
                .collect(),
            next: 0,
            queue: VecDeque::new(),
            cur: None,
            inflight: VecDeque::new(),
            rbuf: Vec::with_capacity(64 * 1024),
        })
        .collect();
    let total: Duration = plan.windows.iter().map(|w| w.len).sum();
    let expect_per_window = |w: &Window| match plan.pace {
        Pace::Open { per_second } => (per_second * w.len.as_secs_f64() * 1.1) as usize,
        Pace::Closed { .. } => 100_000 * w.len.as_secs().max(1) as usize,
    };
    // One result per window, plus a last slot for what arrives while
    // draining, so late acks never inflate a window's throughput.
    let drain = Window {
        name: "drain",
        len: DRAIN_GRACE,
        spans: false,
    };
    let mut results: Vec<WindowResult> = plan
        .windows
        .iter()
        .map(|w| WindowResult::new(w, expect_per_window(w)))
        .chain([WindowResult::new(&drain, 4_096)])
        .collect();
    let mut last_gmt: Vec<Option<Timestamp>> = vec![None; branches.len()];
    let mut spans = SpanLog::new();
    let mut chunk = vec![0u8; 64 * 1024];

    let mut sends = match plan.pace {
        Pace::Open { per_second } => Some(Schedule::new(start, per_second)),
        Pace::Closed { .. } => None,
    };
    let mut open_next = 0usize;
    let mut ack_count = 0u64;

    let mut w = 0usize;
    let mut w_end = start + plan.windows[0].len;
    let mut w_open_at = start;
    let mut w_counters = Counters::read(controller);
    let mut w_cpu = reactor.cpu_seconds();
    let mut w_root = spans.open_root(plan.windows[0].name, 0, start, start);
    let end = start + total;
    let mut draining = false;

    loop {
        let now = Instant::now();
        if !draining && now >= w_end {
            // Close this window, open the next (or start draining).
            let r = &mut results[w];
            r.wall = now - w_open_at;
            r.inflight_close = conns.iter().map(Conn::outstanding).sum();
            let counters = Counters::read(controller);
            r.counters = counters.since(&w_counters);
            let cpu = reactor.cpu_seconds();
            r.reactor_cpu = cpu - w_cpu;
            spans.extend(w_root, start, now);
            w += 1;
            w_open_at = now;
            results[w].inflight_open = results[w - 1].inflight_close;
            current.store(w, Ordering::SeqCst);
            if w < plan.windows.len() {
                w_end += plan.windows[w].len;
                w_counters = counters;
                w_cpu = cpu;
                w_root = spans.open_root(plan.windows[w].name, w as u8, start, now);
            } else {
                draining = true;
            }
        }
        if draining && (conns.iter().all(|c| c.outstanding() == 0) || now >= end + DRAIN_GRACE) {
            break;
        }
        let r = &mut results[w];
        let record_spans = !draining && plan.windows[w].spans;

        // 1. Open loop: queue whatever has come due.
        if let (Some(schedule), false) = (sends.as_mut(), draining) {
            while let Some((_, due)) = schedule.pop_due(now) {
                let b = order[open_next % order.len()];
                open_next += 1;
                conns[branches[b as usize].host % CONNECTIONS]
                    .queue
                    .push_back((b, due));
            }
        }

        // 2. Patch and write.
        let t_send = Instant::now();
        let mut wrote = 0u64;
        for conn in conns.iter_mut() {
            loop {
                if conn.cur.is_none() {
                    let picked = match plan.pace {
                        Pace::Closed { window } => {
                            if draining || conn.inflight.len() >= window || conn.order.is_empty() {
                                None
                            } else {
                                let b = conn.order[conn.next % conn.order.len()];
                                conn.next += 1;
                                Some((b, Instant::now()))
                            }
                        }
                        Pace::Open { .. } => conn.queue.pop_front().inspect(|(_, due)| {
                            r.late.push(Instant::now().saturating_duration_since(*due));
                        }),
                    };
                    let Some((b, t0)) = picked else { break };
                    let branch = &mut branches[b as usize];
                    host_seq[branch.host] += 1;
                    let gmt = gmt_base() + sent_before[b as usize];
                    sent_before[b as usize] += 1;
                    branch.stamp(host_seq[branch.host], gmt);
                    conn.cur = Some(Partial {
                        flight: Flight { branch: b, t0, gmt },
                        offset: 0,
                    });
                }
                let cur = conn.cur.as_mut().expect("a frame is staged");
                let frame = branches[cur.flight.branch as usize].frame();
                match conn.stream.write(&frame[cur.offset..]) {
                    Ok(n) => {
                        cur.offset += n;
                        if cur.offset == frame.len() {
                            let done = conn.cur.take().expect("a frame is staged").flight;
                            last_gmt[done.branch as usize] = Some(done.gmt);
                            r.sent += 1;
                            r.sent_archived += u64::from(branches[done.branch as usize].archived);
                            wrote += 1;
                            conn.inflight.push_back(done);
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => panic!("generator socket write failed: {e}"),
                }
            }
        }
        let t_recv = Instant::now();
        if wrote > 0 {
            r.send_busy += t_recv - t_send;
            if record_spans {
                spans.child("send", w_root, w as u8, start, t_send, t_recv, wrote);
            }
        }

        // 3. Read acks; every `verify_every`-th is read back.
        for conn in conns.iter_mut() {
            let t_read = Instant::now();
            if fill(&mut conn.stream, &mut conn.rbuf, &mut chunk) == 0 {
                continue;
            }
            let t_got = Instant::now();
            let mut consumed = 0usize;
            let mut acks = 0u64;
            let mut verify: Vec<Flight> = Vec::new();
            while conn.rbuf.len() - consumed >= 4 {
                let len = u32::from_be_bytes(
                    conn.rbuf[consumed..consumed + 4]
                        .try_into()
                        .expect("four bytes"),
                ) as usize;
                if conn.rbuf.len() - consumed < 4 + len {
                    break;
                }
                let reply = &conn.rbuf[consumed + 4..consumed + 4 + len];
                consumed += 4 + len;
                let flight = conn
                    .inflight
                    .pop_front()
                    .expect("a reply answers a sent report");
                let acked = reply == ack_bytes.as_slice()
                    || matches!(ServerResponse::decode(reply), Ok(ServerResponse::Ack));
                if !acked {
                    r.rejected += 1;
                    continue;
                }
                acks += 1;
                r.acked += 1;
                r.ack.push(t_got - flight.t0);
                ack_count += 1;
                // One ack in `verify_every`, shifted by one each time the
                // send order wraps, so every branch gets its turn even
                // when the branch count divides evenly.
                let lap = ack_count / branches.len() as u64;
                if plan.verify_every > 0 && (ack_count + lap).is_multiple_of(plan.verify_every) {
                    verify.push(flight);
                }
            }
            conn.rbuf.drain(..consumed);
            let t_parsed = Instant::now();
            r.recv_busy += t_parsed - t_read;
            let recv_span = record_spans
                .then(|| spans.child("recv", w_root, w as u8, start, t_read, t_parsed, acks));
            for flight in verify {
                let t_q = Instant::now();
                let branch = &branches[flight.branch as usize].branch;
                let cached = controller
                    .with_depot(|d| QueryInterface::new(d).report(branch))
                    .ok()
                    .flatten()
                    .map(|report| report.header.gmt);
                let t_done = Instant::now();
                if cached == Some(flight.gmt) {
                    r.fresh.push(t_done - flight.t0);
                } else {
                    r.misverified += 1;
                }
                if let Some(parent) = recv_span {
                    spans.child("verify", parent, w as u8, start, t_q, t_done, 1);
                    spans.extend(parent, start, t_done);
                }
            }
        }
    }

    results[w].wall = w_open_at.elapsed();
    let unacked: u64 = conns.iter().map(|c| c.outstanding() as u64).sum();
    Outcome {
        windows: results,
        unacked,
        last_gmt,
        spans,
        pinned: None,
    }
}

/// Non-blocking read of whatever the socket holds; returns bytes got.
fn fill(stream: &mut TcpStream, rbuf: &mut Vec<u8>, chunk: &mut [u8]) -> usize {
    let mut got = 0usize;
    loop {
        match stream.read(chunk) {
            Ok(0) => panic!("server closed a generator connection"),
            Ok(n) => {
                rbuf.extend_from_slice(&chunk[..n]);
                got += n;
                if n < chunk.len() {
                    return got;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return got,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => panic!("generator socket read failed: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_computed_from_the_index_and_never_drifts() {
        let start = Instant::now();
        // A rate whose period is not a whole number of nanoseconds.
        let s = Schedule::new(start, 7_000.0);
        for i in [1u64, 10, 7_000, 7_000 * 3_600] {
            let exact = i as f64 / 7_000.0;
            let got = (s.due(i) - start).as_secs_f64();
            assert!(
                (got - exact).abs() < 2e-9,
                "event {i} due at {got}, want {exact}"
            );
        }
        assert_eq!(s.due(7_000) - start, Duration::from_secs(1));
    }

    #[test]
    fn a_late_generator_catches_up_and_learns_how_late_it_was() {
        let start = Instant::now();
        let mut s = Schedule::new(start, 1_000.0);
        assert_eq!(s.pop_due(start).map(|(i, _)| i), Some(0));
        assert!(s.pop_due(start).is_none(), "event 1 is not due at t=0");
        // The generator stalls for 5.5 ms: events 1..=5 are all due,
        // each with its own (older) due time, and 6 is not.
        let now = start + Duration::from_micros(5_500);
        let mut late = Vec::new();
        while let Some((i, due)) = s.pop_due(now) {
            late.push((i, now - due));
        }
        assert_eq!(
            late.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5]
        );
        assert_eq!(late[0].1, Duration::from_micros(4_500));
        assert_eq!(late[4].1, Duration::from_micros(500));
    }

    #[test]
    fn a_busy_generator_invalidates_a_closed_loop_only() {
        let closed = Pace::Closed { window: 64 };
        assert!(!generator_bound(closed, 0.2));
        assert!(!generator_bound(closed, GENERATOR_BOUND_SHARE));
        assert!(generator_bound(closed, 0.51));
        // An open loop's load does not depend on how busy its sender is;
        // its validity check is lateness, not share.
        assert!(!generator_bound(
            Pace::Open {
                per_second: 8_000.0
            },
            0.9
        ));
    }
}
