//! The reactor's tests: real sockets through [`CentralizedController::serve_reactor`],
//! and the connection state machine driven deterministically over a
//! seeded in-memory network ([`FakeNet`]) — partial reads and writes
//! (including writes of 0 bytes), stalled readers, half-closes and
//! trickled frames, with the clock an argument. Five regressions pin
//! the reactor's five socket-timing bugs; none needs a sleep or a
//! pinned kernel buffer.

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use proptest::prelude::*;

use super::machine::{ACK_FRAME, IDLE_TIMEOUT};
use super::*;
use crate::controller::{ControllerConfig, DecodedSubmission};
use crate::depot::depot::Depot;
use inca_obs::sinks::RingSink;
use inca_obs::{Obs, TraceContext};
use inca_report::{BranchId, ReportBuilder};
use inca_wire::frame::{read_frame, write_frame, FrameBuffer, FrameError};
use inca_wire::message::{ClientMessage, ServerResponse};

fn message(resource: &str, reporter: &str) -> Vec<u8> {
    let report = ReportBuilder::new(reporter, "1.0")
        .host(resource)
        .gmt(Timestamp::from_secs(1_000))
        .body_value("v", "1")
        .success()
        .unwrap();
    let branch: BranchId =
        format!("reporter={reporter},resource={resource},vo=tg").parse().unwrap();
    ClientMessage::report(resource, branch, &report).encode()
}

fn framed(payloads: impl IntoIterator<Item = Vec<u8>>) -> Vec<u8> {
    let mut wire = Vec::new();
    for payload in payloads {
        write_frame(&mut wire, &payload).unwrap();
    }
    wire
}

fn controller() -> Arc<CentralizedController> {
    Arc::new(CentralizedController::new(ControllerConfig::default(), Depot::with_obs(Obs::new())))
}

fn spawn_reactor() -> (Arc<CentralizedController>, ReactorHandle) {
    let controller = controller();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = controller.serve_reactor(listener).unwrap();
    (controller, handle)
}

// ---- The in-memory network ------------------------------------------

/// Deterministic xorshift source for the fake network's choices.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// The server's end of one in-memory connection. Reads and writes act
/// like a non-blocking socket's: each moves at most `io_limit` bytes,
/// and `WouldBlock` when it can move none.
struct FakeSocket {
    /// Bytes the client sent that the server has not read.
    inbound: VecDeque<u8>,
    /// Bytes the server wrote that the client has not read.
    outbound: VecDeque<u8>,
    /// Most unread bytes the kernel buffers hold toward the client.
    capacity: usize,
    /// The client shut down its sending side.
    half_closed: bool,
    /// The server closed the connection.
    closed: bool,
    io_limit: usize,
    /// Reply bytes the client has read.
    received: Vec<u8>,
}

impl Read for FakeSocket {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.inbound.len()).min(self.io_limit);
        if n == 0 {
            return if self.inbound.is_empty() && self.half_closed {
                Ok(0)
            } else {
                Err(io::ErrorKind::WouldBlock.into())
            };
        }
        for (b, v) in buf.iter_mut().zip(self.inbound.drain(..n)) {
            *b = v;
        }
        Ok(n)
    }
}

impl Write for FakeSocket {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let room = self.capacity - self.outbound.len();
        let n = buf.len().min(room).min(self.io_limit);
        if n == 0 {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        self.outbound.extend(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A [`Machine`] behind a shell that mirrors [`Reactor`]'s, over
/// [`FakeSocket`]s and a clock the test advances.
struct FakeNet {
    controller: Arc<CentralizedController>,
    machine: Machine,
    socks: BTreeMap<u64, Sock<FakeSocket>>,
    now: Instant,
    rng: Rng,
    /// Each read and write moves `0..=max_io` bytes when set, and all it
    /// can otherwise.
    max_io: Option<usize>,
    chunk: Vec<u8>,
}

impl FakeNet {
    fn new(config: ReactorConfig) -> FakeNet {
        FakeNet::with(controller(), config, 1, None)
    }

    fn with(
        controller: Arc<CentralizedController>,
        config: ReactorConfig,
        seed: u64,
        max_io: Option<usize>,
    ) -> FakeNet {
        let now = Instant::now();
        FakeNet {
            machine: Machine::new(Arc::clone(&controller), config, now),
            controller,
            socks: BTreeMap::new(),
            now,
            rng: Rng(seed.rotate_left(17) | 1),
            max_io,
            chunk: vec![0; 64],
        }
    }

    /// Opens a connection whose kernel buffers hold `capacity` unread
    /// reply bytes.
    fn connect(&mut self, capacity: usize) -> u64 {
        let token = TOKEN_FIRST_CONN + self.socks.len() as u64;
        let stream = FakeSocket {
            inbound: VecDeque::new(),
            outbound: VecDeque::new(),
            capacity,
            half_closed: false,
            closed: false,
            io_limit: 0,
            received: Vec::new(),
        };
        self.socks.insert(token, Sock { stream, interest: Interest::READ });
        self.machine.open(token, self.now);
        token
    }

    fn sock(&mut self, token: u64) -> &mut FakeSocket {
        &mut self.socks.get_mut(&token).expect("connected").stream
    }

    fn io_limit(&mut self) -> usize {
        self.max_io.map_or(usize::MAX, |max| self.rng.below(max + 1))
    }

    /// One reactor pass: level-triggered readiness as epoll reports it,
    /// in token order.
    fn pass(&mut self) {
        let now = self.now;
        self.machine.begin_pass();
        let tokens: Vec<u64> = self.socks.keys().copied().collect();
        for token in tokens {
            let Sock { stream, interest } = &self.socks[&token];
            if stream.closed {
                continue;
            }
            // A half-closed peer reads as readable while read interest
            // is armed (`EPOLLRDHUP` rides with `EPOLLIN`).
            let readable =
                interest.read && (!stream.inbound.is_empty() || stream.half_closed);
            let writable = interest.write && stream.outbound.len() < stream.capacity;
            if writable {
                self.visit(token);
            }
            if readable && self.machine.may_read(token) {
                let io_limit = self.io_limit();
                let sock = &mut self.socks.get_mut(&token).expect("connected").stream;
                sock.io_limit = io_limit;
                read(&mut self.machine, token, sock, &mut self.chunk, now);
            }
        }
        self.machine.end_pass(Timestamp::from_secs(1_000));
        self.machine.tick(now);
        while let Some(token) = self.machine.next_visit() {
            self.visit(token);
        }
    }

    fn visit(&mut self, token: u64) {
        let io_limit = self.io_limit();
        let Some(sock) = self.socks.get_mut(&token).filter(|s| !s.stream.closed) else { return };
        sock.stream.io_limit = io_limit;
        flush(&mut self.machine, token, &mut sock.stream, self.now);
        match self.machine.settle(token) {
            Some(want) => sock.interest = want,
            None => sock.stream.closed = true,
        }
    }

    /// The client reads up to `max` reply bytes.
    fn client_read(&mut self, token: u64, max: usize) {
        let sock = self.sock(token);
        let n = max.min(sock.outbound.len());
        let bytes: Vec<u8> = sock.outbound.drain(..n).collect();
        sock.received.extend(bytes);
    }

    /// Every complete reply the client has read.
    fn replies(&mut self, token: u64) -> Vec<ServerResponse> {
        let mut frames = FrameBuffer::new();
        frames.extend(&self.sock(token).received);
        std::iter::from_fn(|| frames.next_frame().unwrap())
            .map(|reply| ServerResponse::decode(&reply).unwrap())
            .collect()
    }

    /// The client reads everything, pass after pass, until it holds
    /// `want` replies (or `max_passes` run out).
    fn drain(&mut self, token: u64, want: usize, max_passes: usize) -> Vec<ServerResponse> {
        for _ in 0..max_passes {
            self.client_read(token, usize::MAX);
            if self.replies(token).len() >= want {
                break;
            }
            self.pass();
        }
        self.replies(token)
    }

    /// Read interest withdrawn with replies still staged.
    fn paused(&self, token: u64) -> bool {
        let Sock { interest, .. } = &self.socks[&token];
        *interest == Interest { read: false, write: true }
    }

    fn report_count(&self) -> u64 {
        self.controller.with_depot(|d| d.report_count())
    }
}

/// A connection whose kernel buffers hold six acks, fed one frame per
/// pass by a client that reads nothing: the reply watermark pauses it
/// with the rest of the burst still unread in the kernel.
fn stalled_reader(net: &mut FakeNet, burst: usize) -> u64 {
    let conn = net.connect(64);
    for i in 0..burst {
        net.sock(conn).inbound.extend(framed([message(&format!("s{i}"), "stall")]));
        net.pass();
    }
    assert!(net.paused(conn), "replies past the window must pause the connection");
    assert!(!net.sock(conn).inbound.is_empty(), "the paused connection's frames wait unread");
    assert!(net.report_count() < burst as u64);
    conn
}

fn pause_at_8() -> ReactorConfig {
    ReactorConfig { pause_outbuf_bytes: 8, ..ReactorConfig::default() }
}

// ---- Real sockets ---------------------------------------------------

#[test]
fn roundtrip_two_frames_one_connection() {
    let (controller, handle) = spawn_reactor();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    for _ in 0..2 {
        write_frame(&mut stream, &message("h1", "version.gcc")).unwrap();
        let reply = read_frame(&mut stream).unwrap();
        assert_eq!(ServerResponse::decode(&reply).unwrap(), ServerResponse::Ack);
    }
    assert_eq!(controller.with_depot(|d| d.report_count()), 2);
    let obs = controller.obs().clone();
    assert_eq!(obs.metrics().counter_value("inca_net_frames_total", &[]), Some(2));
    assert!(obs.metrics().gauge_value("inca_net_connections", &[]).unwrap() >= 1.0);
    let hist = obs.metrics().histogram_of("inca_net_accept_to_insert_seconds", &[]).unwrap();
    assert_eq!(hist.count(), 2);
    handle.stop();
}

#[test]
fn many_clients_multiplex_one_reactor() {
    let (controller, handle) = spawn_reactor();
    let addr = handle.addr();
    let clients: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                for _ in 0..5 {
                    write_frame(&mut stream, &message(&format!("host{i}"), "ping")).unwrap();
                    let reply = read_frame(&mut stream).unwrap();
                    assert_eq!(ServerResponse::decode(&reply).unwrap(), ServerResponse::Ack);
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    assert_eq!(controller.with_depot(|d| d.report_count()), 40);
    assert_eq!(controller.with_depot(|d| d.cache().report_count()), 8);
    handle.stop();
}

#[test]
fn stalled_connection_does_not_block_live_traffic() {
    let (controller, handle) = spawn_reactor();
    let _stalled = TcpStream::connect(handle.addr()).unwrap(); // never writes
    let mut half = TcpStream::connect(handle.addr()).unwrap();
    // A half-sent frame parks a second state machine mid-header.
    half.write_all(&[0, 0]).unwrap();
    let mut live = TcpStream::connect(handle.addr()).unwrap();
    write_frame(&mut live, &message("live", "ping")).unwrap();
    let reply = read_frame(&mut live).unwrap();
    assert_eq!(ServerResponse::decode(&reply).unwrap(), ServerResponse::Ack);
    assert_eq!(controller.with_depot(|d| d.report_count()), 1);
    handle.stop();
}

#[test]
fn oversized_frame_rejected_then_closed() {
    let (_controller, handle) = spawn_reactor();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(&((inca_wire::frame::MAX_FRAME_LEN as u32) + 1).to_be_bytes()).unwrap();
    let reply = read_frame(&mut stream).unwrap();
    assert!(matches!(ServerResponse::decode(&reply).unwrap(), ServerResponse::Rejected(_)));
    // Connection is closed after the rejection.
    assert!(matches!(read_frame(&mut stream), Err(FrameError::Closed)));
    handle.stop();
}

#[test]
fn staged_ack_bytes_are_the_framed_ack_reply() {
    assert_eq!(ACK_FRAME, &framed([ServerResponse::Ack.encode()])[..]);
}

/// Hostile payloads inside well-formed frames: each gets exactly one
/// rejection, the connection survives, nothing reaches the depot, and a
/// good frame pipelined behind them still lands.
#[test]
fn hostile_framed_payloads_get_one_rejection_each_and_never_reach_the_depot() {
    let (controller, handle) = spawn_reactor();
    let good = message("h1", "version.gcc");
    let truncated = good[..good.len() / 2].to_vec();
    let garbage: Vec<u8> =
        (0..4_096u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
    // Within the frame limit, far beyond any report: a megabyte that
    // opens like a message and never closes.
    let mut huge = b"<incaMessage kind=\"report\"><resource>h1</resource><payload>".to_vec();
    huge.resize(1 << 20, b'x');
    let hostile = [truncated, garbage, huge, Vec::new(), vec![0xFF, 0xFE]];
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(&framed(hostile.iter().cloned().chain([good]))).unwrap();
    for payload in &hostile {
        let reply = ServerResponse::decode(&read_frame(&mut stream).unwrap()).unwrap();
        let want = ClientMessage::decode(payload).unwrap_err().to_string();
        assert_eq!(reply, ServerResponse::Rejected(want));
    }
    let reply = read_frame(&mut stream).unwrap();
    assert_eq!(ServerResponse::decode(&reply).unwrap(), ServerResponse::Ack);
    assert_eq!(controller.with_depot(|d| d.report_count()), 1);
    let metrics = controller.obs().metrics();
    assert_eq!(
        metrics.counter_value("inca_controller_rejected_total", &[("reason", "decode")]),
        Some(hostile.len() as u64)
    );
    assert_eq!(metrics.counter_value("inca_controller_accepted_total", &[]), Some(1));
    assert_eq!(metrics.counter_value("inca_net_frames_total", &[]), Some(hostile.len() as u64 + 1));
    handle.stop();
}

#[test]
fn pipelined_burst_is_batched_and_all_acked() {
    let (controller, handle) = spawn_reactor();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let burst = 50;
    for i in 0..burst {
        write_frame(&mut stream, &message(&format!("h{i}"), "burst")).unwrap();
    }
    for _ in 0..burst {
        let reply = read_frame(&mut stream).unwrap();
        assert_eq!(ServerResponse::decode(&reply).unwrap(), ServerResponse::Ack);
    }
    assert_eq!(controller.with_depot(|d| d.report_count()), burst as u64);
    handle.stop();
}

// ---- The state machine over the in-memory network -------------------

#[test]
fn trickled_partial_frames_reassemble() {
    let mut net = FakeNet::with(controller(), ReactorConfig::default(), 7, Some(7));
    let conn = net.connect(1_024);
    let wire = framed([message("h2", "version.gcc")]);
    net.sock(conn).inbound.extend(&wire);
    // At most 7 bytes a read, often none: many passes per frame.
    let replies = net.drain(conn, 1, 10 * wire.len());
    assert_eq!(replies, [ServerResponse::Ack]);
    assert_eq!(net.report_count(), 1);
}

#[test]
fn disconnect_mid_frame_cleans_up() {
    let mut net = FakeNet::new(ReactorConfig::default());
    let conn = net.connect(1_024);
    // A partial header, then EOF inside the frame. A short read ends
    // the first pass's read; the next one meets EOF.
    net.sock(conn).inbound.extend([0, 0, 1]);
    net.sock(conn).half_closed = true;
    net.pass();
    net.pass();
    assert!(net.sock(conn).closed, "dead connection must be reaped");
    assert_eq!(net.report_count(), 0);
}

/// Regression (acks lost to a half-close): a daemon that sends its last
/// frames and shuts down its sending side before the next pass once
/// lost every ack of that pass. The EOF closed the connection as soon
/// as nothing was staged, which was before the pass's batch had staged
/// its replies, so the reports were admitted and never answered.
#[test]
fn half_close_after_the_last_frames_keeps_their_acks() {
    let mut net = FakeNet::new(ReactorConfig::default());
    let conn = net.connect(1_024);
    let burst = 5;
    let wire = framed((0..burst).map(|i| message(&format!("h{i}"), "eof")));
    // One read takes every frame, and the next one in the same pass
    // meets the EOF.
    net.chunk = vec![0; wire.len()];
    net.sock(conn).inbound.extend(wire);
    net.sock(conn).half_closed = true;
    net.pass();
    assert_eq!(net.report_count(), burst as u64);
    assert!(net.sock(conn).closed, "closes once the acks are flushed");
    assert_eq!(net.drain(conn, burst, 1), vec![ServerResponse::Ack; burst]);
}

/// Regression (pause without pinned kernel buffers): the backpressure
/// test once ran against a 64 KiB kernel window that absorbed every
/// ack, so the connection never paused. Here the window is the fake
/// socket's six-ack capacity, and the pause must trip.
#[test]
fn backpressure_pauses_reads_and_nothing_is_lost() {
    // A 1-frame batch budget and a reply watermark under two acks force
    // both backpressure paths.
    let mut net = FakeNet::new(ReactorConfig { max_batch_frames: 1, pause_outbuf_bytes: 8 });
    let burst = 40;
    let conn = stalled_reader(&mut net, burst);
    let replies = net.drain(conn, burst, 1_000);
    assert_eq!(replies, vec![ServerResponse::Ack; burst]);
    assert_eq!(net.report_count(), burst as u64);
    let pauses = net
        .controller
        .obs()
        .metrics()
        .counter_value("inca_net_backpressure_pauses_total", &[])
        .unwrap_or(0);
    assert!(pauses > 0, "tiny budgets must trip the backpressure counter");
}

/// Regression (interest after a writable flush): a paused connection
/// whose replies drain only through writable events must have read
/// interest restored, and write interest dropped, after the flush —
/// once the recompute was skipped, so the paused daemon was never read
/// again and stale write interest busy-spun the level-triggered poller.
#[test]
fn paused_connection_resumes_after_writable_drain() {
    let mut net = FakeNet::new(pause_at_8());
    let burst = 40;
    let conn = stalled_reader(&mut net, burst);
    // The staged replies drain purely via writable events: nothing new
    // is read while paused, so only the post-flush recompute can resume.
    let replies = net.drain(conn, burst, 1_000);
    assert_eq!(replies.len(), burst, "the paused connection must resume reading");
    assert_eq!(net.socks[&conn].interest, Interest::READ, "no stale write interest");
    net.sock(conn).inbound.extend(framed([message("final", "stall")]));
    assert_eq!(net.drain(conn, burst + 1, 10).len(), burst + 1);
    assert_eq!(net.report_count(), burst as u64 + 1);
}

/// Regression (idle sweep vs. backpressure): the sweep once reaped any
/// connection without recent socket activity — including one the
/// reactor itself had paused. A paused daemon sends nothing (its read
/// interest is withdrawn) and receives nothing (the reply path is
/// full), so `last_activity` goes stale mid-drain and the sweep severed
/// a healthy connection with staged acks aboard.
#[test]
fn idle_sweep_spares_backpressure_paused_connections() {
    let mut net = FakeNet::new(pause_at_8());
    let burst = 40;
    let conn = stalled_reader(&mut net, burst);
    for _ in 0..10 {
        net.now += IDLE_TIMEOUT;
        net.pass();
    }
    assert!(!net.sock(conn).closed, "idle sweep reaped a backpressure-paused connection");
    assert_eq!(net.drain(conn, burst, 1_000), vec![ServerResponse::Ack; burst]);
    assert_eq!(net.report_count(), burst as u64);
}

/// Regression (sweep on a real clock): the idle-sweep test once raced a
/// client starved of CPU for one idle timeout. The sweep now reads only
/// the clock its caller passes, so a quiet connection is reaped once
/// the timeout has passed and a client that is merely slow is not.
#[test]
fn idle_sweep_runs_on_the_callers_clock() {
    let mut net = FakeNet::new(ReactorConfig::default());
    let start = net.now;
    let quiet = net.connect(1_024);
    let slow = net.connect(1_024);
    let wire = framed([message("slow", "ping")]);
    net.now = start + Duration::from_secs(20);
    net.sock(slow).inbound.extend(&wire[..2]);
    net.pass();
    net.now = start + IDLE_TIMEOUT + Duration::from_secs(1);
    net.pass();
    assert!(net.sock(quiet).closed, "30 s without progress is idle");
    assert!(!net.sock(slow).closed, "read progress 11 s ago is not");
    // The rest of the frame arrives after another 29 quiet seconds.
    net.now = start + Duration::from_secs(49);
    net.sock(slow).inbound.extend(&wire[2..]);
    assert_eq!(net.drain(slow, 1, 10), [ServerResponse::Ack]);
    net.now = start + Duration::from_secs(61);
    net.pass();
    assert!(!net.sock(slow).closed, "answered 12 s ago");
    net.now = start + Duration::from_secs(91);
    net.pass();
    assert!(net.sock(slow).closed, "quiet for 42 s");
}

/// A stamped report whose trace id is its seq, so the accept spans
/// give each daemon's admission order.
fn traced(daemon: &str, seq: u64) -> Vec<u8> {
    let report = ReportBuilder::new(format!("probe.r{}", seq % 3), "1.0")
        .host(daemon)
        .gmt(Timestamp::from_secs(1_000 + seq))
        .body_value("seq", seq.to_string())
        .success()
        .unwrap();
    let branch: BranchId =
        format!("reporter=probe.r{},resource={daemon},vo=tg", seq % 3).parse().unwrap();
    ClientMessage::report(daemon, branch, &report)
        .with_origin(daemon, seq)
        .with_trace(TraceContext { trace_id: seq, parent_span_id: 1 })
        .encode()
}

/// A controller whose accept spans land in the returned ring.
fn traced_controller() -> (Arc<CentralizedController>, Arc<RingSink>) {
    let obs = Obs::new();
    let ring = Arc::new(RingSink::new(1 << 14));
    obs.tracer().add_sink(ring.clone());
    let controller =
        Arc::new(CentralizedController::new(ControllerConfig::default(), Depot::with_obs(obs)));
    (controller, ring)
}

/// Each daemon's admitted seqs, in admission order.
fn admitted(ring: &RingSink) -> BTreeMap<String, Vec<u64>> {
    let mut by_peer: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for event in ring.drain() {
        if event.name == "controller.accept" && event.field("branch").is_some() {
            let peer = event.field("peer").unwrap_or_default().to_string();
            by_peer.entry(peer).or_default().push(event.trace.map_or(0, |t| t.trace_id));
        }
    }
    by_peer
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary interleavings of client sends, client reads and
    /// reactor passes, over several connections with partial IO: every
    /// connection's frames are admitted in its order, nothing is lost,
    /// and its replies arrive in order — exactly as when the same frames
    /// go straight to `submit_batch_decoded`.
    #[test]
    fn interleavings_admit_like_direct_submission(
        seed in any::<u64>(),
        conns in 1usize..5,
        frames in 1u64..10,
        max_batch_frames in 1usize..6,
        pause_outbuf_bytes in 1usize..48,
        capacity in 1usize..96,
        max_io in 1usize..64,
        half_close in any::<bool>(),
    ) {
        let mut rng = Rng(seed | 1);
        // Each daemon's frames; one in seven is garbage.
        let payloads: Vec<Vec<Vec<u8>>> = (0..conns)
            .map(|k| {
                (1..=frames)
                    .map(|seq| {
                        if rng.below(7) == 0 { vec![0xFF, 0xFE] } else { traced(&format!("d{k}"), seq) }
                    })
                    .collect()
            })
            .collect();

        let (direct, direct_ring) = traced_controller();
        let want: Vec<Vec<ServerResponse>> = payloads
            .iter()
            .map(|p| {
                direct
                    .submit_batch_decoded(p.iter().map(|f| DecodedSubmission::from_frame(f)), Timestamp::from_secs(1_000))
                    .into_iter()
                    .map(|(r, _)| r)
                    .collect()
            })
            .collect();

        let (served, served_ring) = traced_controller();
        let config = ReactorConfig { max_batch_frames, pause_outbuf_bytes };
        let mut net = FakeNet::with(Arc::clone(&served), config, seed, Some(max_io));
        let tokens: Vec<u64> = (0..conns).map(|_| net.connect(capacity)).collect();
        let mut unsent: Vec<Vec<u8>> = payloads.iter().map(|p| framed(p.iter().cloned())).collect();
        let done = |net: &mut FakeNet, unsent: &[Vec<u8>]| {
            tokens.iter().zip(unsent).zip(&want).all(|((&t, rest), want)| {
                let sock = net.sock(t);
                rest.is_empty()
                    && sock.outbound.is_empty()
                    && (sock.closed || net.replies(t).len() == want.len())
            })
        };
        let mut steps = 0;
        while !done(&mut net, &unsent) {
            steps += 1;
            prop_assert!(steps < 100_000, "no progress");
            let k = rng.below(conns);
            match rng.below(6) {
                0 | 1 if !unsent[k].is_empty() => {
                    let n = (1 + rng.below(256)).min(unsent[k].len());
                    net.sock(tokens[k]).inbound.extend(unsent[k].drain(..n));
                }
                2 => {
                    let n = rng.below(64);
                    net.client_read(tokens[k], n);
                }
                3 if half_close && unsent[k].is_empty() => net.sock(tokens[k]).half_closed = true,
                _ => {
                    net.now += Duration::from_millis(1);
                    net.pass();
                }
            }
        }

        for ((&token, want), k) in tokens.iter().zip(&want).zip(0..) {
            prop_assert!(half_close || !net.sock(token).closed, "d{} closed without a half-close", k);
            prop_assert_eq!(&net.replies(token), want, "d{}", k);
        }
        prop_assert_eq!(admitted(&served_ring), admitted(&direct_ring));
        prop_assert_eq!(
            served.with_depot(|d| (d.report_count(), d.cache().document().to_string())),
            direct.with_depot(|d| (d.report_count(), d.cache().document().to_string()))
        );
    }
}
