//! Event-driven server frontend: one reactor thread, 10k daemons.
//!
//! The thread-per-connection accept loop ([`serve_tcp`]) spends a
//! kernel thread (and its stack) per daemon, capping concurrency at
//! thread-pool scale — exactly the envelope DiPerF-style measurement
//! exposes as an early saturation knee. This module replaces it with a
//! readiness reactor in the spirit of the 2004 paper's single-daemon
//! depot, scaled three orders of magnitude:
//!
//! * **One reactor thread** owns a level-triggered [`Poller`] (epoll on
//!   Linux, `poll(2)` fallback elsewhere), the listener, and every
//!   connection.
//! * **Per-connection state machines** reassemble the length-prefixed
//!   envelope protocol from whatever byte fragments the socket yields
//!   ([`inca_wire::frame::FrameBuffer`]) and stage partially-written
//!   replies until the socket drains — both XML and
//!   [`EnvelopeMode::Binary`] payloads, which the depot decodes
//!   zero-copy ([`inca_wire::envelope::EnvelopeView`]) straight into
//!   the rope arena.
//! * **Connection multiplexing**: every complete frame gathered in one
//!   readiness pass — across *all* connections — is decoded once as it
//!   completes and submitted in a single
//!   [`CentralizedController::submit_batch_decoded`], so ten thousand
//!   daemons share one depot-lock acquisition per pass instead of
//!   contending per report.
//! * **Explicit backpressure, nothing dropped**: a connection with
//!   unflushed replies has its read interest withdrawn (the kernel
//!   buffer fills, the daemon's send blocks or times out, and overflow
//!   accumulates in its durable spool for retry); a pass that hits the
//!   in-flight frame budget simply stops reading — level triggering
//!   re-reports the remaining sockets on the next pass.
//!
//! The old loop stays available as [`serve_tcp`] and is the oracle:
//! both frontends must converge to byte-identical depot documents under
//! connection chaos (`tests/net_frontend.rs`).
//!
//! Instrumentation: `inca_net_connections`,
//! `inca_net_readiness_wakeups_total`, `inca_net_frames_total`,
//! `inca_net_backpressure_pauses_total`, and the accept-to-insert
//! latency histogram `inca_net_accept_to_insert_seconds` (trace
//! exemplars join each report's lineage).
//!
//! [`serve_tcp`]: CentralizedController::serve_tcp
//! [`EnvelopeMode::Binary`]: inca_wire::envelope::EnvelopeMode

pub mod poller;

use std::collections::{BTreeSet, HashMap};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use inca_obs::metrics::{Counter, Gauge, Histogram, DEFAULT_LATENCY_BOUNDS};
use inca_report::Timestamp;
use inca_wire::frame::{FrameBuffer, FrameError};
use inca_wire::message::ServerResponse;

use crate::controller::{CentralizedController, DecodedSubmission, SERVER_IDLE_TIMEOUT};
use poller::{Interest, Poller, Readiness};

/// Tuning knobs for the reactor event loop. The defaults serve the
/// 10k-daemon envelope; tests shrink them to force the backpressure
/// paths at toy sizes.
#[derive(Debug, Clone)]
pub(crate) struct ReactorConfig {
    /// Most frames gathered into one depot batch per readiness pass;
    /// reaching it pauses further reads for the pass (level triggering
    /// re-reports the unread sockets immediately after the batch).
    pub max_batch_frames: usize,
    /// Read size per `read(2)` call on a ready connection.
    pub read_chunk_bytes: usize,
    /// A connection whose unflushed reply bytes exceed this has its
    /// read interest withdrawn until the replies drain — per-connection
    /// backpressure toward the daemon's spool.
    pub pause_outbuf_bytes: usize,
    /// Connections beyond this are accepted and immediately closed.
    pub max_connections: usize,
    /// Pins each accepted connection's kernel send buffer
    /// (`SO_SNDBUF`); `None` leaves kernel autotuning in charge.
    /// Pinning bounds per-connection kernel memory at 10k-connection
    /// scale and makes the `pause_outbuf_bytes` watermark effective —
    /// autotuned buffers can grow to absorb an arbitrarily large reply
    /// backlog before a flush ever goes partial.
    pub sndbuf_bytes: Option<usize>,
    /// Pins each accepted connection's kernel receive buffer
    /// (`SO_RCVBUF`); `None` leaves autotuning in charge. The receive
    /// side of the same kernel-memory bound: without it a paused
    /// connection's kernel buffer can grow to absorb megabytes of
    /// requests the reactor has not agreed to read yet.
    pub rcvbuf_bytes: Option<usize>,
    /// Idle connections (no frame, no write progress) older than this
    /// are reaped, as in the threaded frontend.
    pub idle_timeout: Duration,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            max_batch_frames: 4_096,
            read_chunk_bytes: 64 * 1024,
            pause_outbuf_bytes: 256 * 1024,
            max_connections: 64 * 1024,
            sndbuf_bytes: None,
            rcvbuf_bytes: None,
            idle_timeout: SERVER_IDLE_TIMEOUT,
        }
    }
}

/// Poll timeout: long enough to idle cheaply, short enough that idle
/// sweeps and shutdown checks stay prompt even if the wake pipe fails.
const WAIT_TIMEOUT_MS: i32 = 200;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    peer: SocketAddr,
    /// Reassembles length-prefixed frames from partial reads.
    inbuf: FrameBuffer,
    /// Encoded replies not yet accepted by the socket.
    outbuf: Vec<u8>,
    /// Flushed prefix of `outbuf`.
    written: usize,
    /// Current poller interest (kept to avoid redundant `modify`s).
    interest: Interest,
    /// Close once `outbuf` drains (EOF seen or protocol error).
    closing: bool,
    last_activity: Instant,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.outbuf.len() - self.written
    }
}

/// A frame fully received, decoded, and waiting for the depot, with
/// everything needed to time and answer it. The frame's bytes are gone
/// by now: the decoded submission is all the controller needs.
struct PendingFrame {
    conn: u64,
    submission: DecodedSubmission,
    /// Trace id for the accept-to-insert exemplar.
    trace_id: u64,
    /// When the frame's last byte was reassembled — before its decode,
    /// so accept-to-insert covers the decode.
    received_at: Instant,
}

/// Handle to a running reactor; shuts down on drop.
pub struct ReactorHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    wake: UnixStream,
    connections: Arc<AtomicUsize>,
    thread: Option<JoinHandle<()>>,
}

impl ReactorHandle {
    /// The bound address (use port 0 to pick a free port in tests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live connection count (also exported as `inca_net_connections`).
    pub fn connection_count(&self) -> usize {
        self.connections.load(Ordering::SeqCst)
    }

    /// Requests shutdown and joins the reactor thread.
    pub fn stop(mut self) {
        self.initiate_stop();
    }

    fn initiate_stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = (&self.wake).write(&[1]);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ReactorHandle {
    fn drop(&mut self) {
        self.initiate_stop();
    }
}

/// Reactor-wide metric instruments.
struct NetMetrics {
    connections: Arc<Gauge>,
    wakeups: Arc<Counter>,
    frames: Arc<Counter>,
    backpressure: Arc<Counter>,
    accept_to_insert: Arc<Histogram>,
}

impl NetMetrics {
    fn new(controller: &CentralizedController) -> NetMetrics {
        let metrics = controller.obs().metrics();
        NetMetrics {
            connections: metrics
                .gauge("inca_net_connections", "Live daemon connections on the reactor frontend."),
            wakeups: metrics.counter(
                "inca_net_readiness_wakeups_total",
                "Readiness-poll returns processed by the reactor loop.",
            ),
            frames: metrics.counter(
                "inca_net_frames_total",
                "Complete request frames received by the reactor frontend.",
            ),
            backpressure: metrics.counter(
                "inca_net_backpressure_pauses_total",
                "Reads withheld for backpressure (per-connection reply-buffer pauses plus whole passes that hit the in-flight frame budget).",
            ),
            accept_to_insert: metrics.histogram(
                "inca_net_accept_to_insert_seconds",
                "Latency from a complete frame on the wire to its depot insert being acknowledged.",
                &DEFAULT_LATENCY_BOUNDS,
            ),
        }
    }
}

/// The reactor state owned by its thread.
struct Reactor {
    controller: Arc<CentralizedController>,
    config: ReactorConfig,
    poller: Poller,
    listener: TcpListener,
    wake_rx: UnixStream,
    conns: HashMap<u64, Conn>,
    /// Connections with complete frames already reassembled in user
    /// space but deferred by the pass budget. Level triggering only
    /// re-reports sockets with *kernel*-buffered bytes, so these must
    /// be revisited explicitly or their frames would strand.
    backlog: BTreeSet<u64>,
    next_token: u64,
    /// Reusable `read(2)` chunk buffer — the reactor is single-threaded,
    /// so one buffer serves every connection without per-pass allocation.
    read_chunk: Vec<u8>,
    metrics: NetMetrics,
    conn_count: Arc<AtomicUsize>,
    shutdown: Arc<AtomicBool>,
    last_idle_sweep: Instant,
}

impl CentralizedController {
    /// Starts the event-driven reactor frontend with default tuning.
    ///
    /// Equivalent service semantics to [`serve_tcp`] — same admission,
    /// dedup, and reply protocol — but one thread serves every
    /// connection, reads are paused instead of reports dropped when the
    /// depot lags, and all frames ready in one pass share a single
    /// depot batch.
    ///
    /// [`serve_tcp`]: CentralizedController::serve_tcp
    pub fn serve_reactor(
        self: &Arc<Self>,
        listener: TcpListener,
    ) -> io::Result<ReactorHandle> {
        self.serve_reactor_config(listener, ReactorConfig::default())
    }

    /// [`serve_reactor`] with explicit tuning (tests shrink the budgets
    /// to exercise backpressure at toy sizes).
    ///
    /// [`serve_reactor`]: CentralizedController::serve_reactor
    pub(crate) fn serve_reactor_config(
        self: &Arc<Self>,
        listener: TcpListener,
        config: ReactorConfig,
    ) -> io::Result<ReactorHandle> {
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let mut poller = Poller::new(1_024)?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.register(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conn_count = Arc::new(AtomicUsize::new(0));
        let metrics = NetMetrics::new(self);
        let mut reactor = Reactor {
            controller: Arc::clone(self),
            read_chunk: vec![0u8; config.read_chunk_bytes],
            config,
            poller,
            listener,
            wake_rx,
            conns: HashMap::new(),
            backlog: BTreeSet::new(),
            next_token: TOKEN_FIRST_CONN,
            metrics,
            conn_count: Arc::clone(&conn_count),
            shutdown: Arc::clone(&shutdown),
            last_idle_sweep: Instant::now(),
        };
        let thread = std::thread::Builder::new()
            .name("inca-reactor".into())
            .spawn(move || reactor.run())?;
        Ok(ReactorHandle {
            addr,
            shutdown,
            wake: wake_tx,
            connections: conn_count,
            thread: Some(thread),
        })
    }
}

impl Reactor {
    fn run(&mut self) {
        let mut ready: Vec<Readiness> = Vec::new();
        while !self.shutdown.load(Ordering::SeqCst) {
            // Deferred user-space frames mean there is work regardless
            // of socket readiness: poll without blocking.
            let timeout = if self.backlog.is_empty() { WAIT_TIMEOUT_MS } else { 0 };
            if let Err(e) = self.poller.wait(timeout, &mut ready) {
                // A dead poller is unrecoverable; sever loudly rather
                // than serve nothing in silence.
                eprintln!("inca-reactor: poller failed, shutting down frontend: {e}");
                break;
            }
            self.metrics.wakeups.inc();
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let mut pending: Vec<PendingFrame> = Vec::new();
            let mut budget_hit = false;
            // Frames already reassembled last pass go first — they are
            // the oldest work in the house.
            for token in std::mem::take(&mut self.backlog) {
                if self.conns.get(&token).is_some_and(|c| !c.closing) {
                    match self.extract_frames(token, &mut pending, &mut budget_hit, false) {
                        Extracted::Ok => {}
                        Extracted::Protocol => self.close_after_flush(token),
                        Extracted::Corrupt => self.close_conn(token),
                    }
                }
            }
            for ev in std::mem::take(&mut ready) {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => {
                        let mut sink = [0u8; 64];
                        while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
                    }
                    token => self.conn_ready(token, &ev, &mut pending, &mut budget_hit),
                }
            }
            if budget_hit {
                // The rest of the ready sockets go unread this pass;
                // level triggering re-reports them right after the
                // batch below lands.
                self.metrics.backpressure.inc();
            }
            if !pending.is_empty() {
                self.process_batch(pending);
            }
            self.sweep_idle();
        }
        // Shutdown: sever every connection; daemons respool unacked
        // reports and retry against the next incarnation.
        for (_, conn) in self.conns.drain() {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
        self.conn_count.store(0, Ordering::SeqCst);
        self.metrics.connections.set(0.0);
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    if self.conns.len() >= self.config.max_connections {
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    if let Some(bytes) = self.config.sndbuf_bytes {
                        set_kernel_buf(&stream, KernelBuf::Send, bytes).ok();
                    }
                    if let Some(bytes) = self.config.rcvbuf_bytes {
                        set_kernel_buf(&stream, KernelBuf::Recv, bytes).ok();
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            peer,
                            inbuf: FrameBuffer::new(),
                            outbuf: Vec::new(),
                            written: 0,
                            interest: Interest::READ,
                            closing: false,
                            last_activity: Instant::now(),
                        },
                    );
                    self.sync_conn_count();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    fn sync_conn_count(&self) {
        let n = self.conns.len();
        self.conn_count.store(n, Ordering::SeqCst);
        self.metrics.connections.set(n as f64);
    }

    /// Handles readiness on one connection: flush staged replies, then
    /// read and reassemble frames (unless paused for backpressure).
    fn conn_ready(
        &mut self,
        token: u64,
        ev: &Readiness,
        pending: &mut Vec<PendingFrame>,
        budget_hit: &mut bool,
    ) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if ev.writable && conn.pending_out() > 0 {
            match flush_outbuf(conn) {
                Ok(()) => {}
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
            if conn.pending_out() == 0 && conn.closing {
                self.close_conn(token);
                return;
            }
            // Recompute interest after the flush: drop write interest
            // once the buffer drains (stale write interest busy-spins a
            // level-triggered poller on an always-writable socket) and
            // restore read interest once below the backpressure
            // watermark (a paused connection whose replies drain only
            // via writable events would otherwise never be read again).
            self.update_interest(token);
        }
        let conn = self.conns.get_mut(&token).expect("conn still present");
        if ev.readable {
            // Backpressure: while replies are backed up on this
            // connection, leave its bytes in the kernel buffer — the
            // daemon's writes stall and its spool absorbs the overflow.
            if conn.pending_out() >= self.config.pause_outbuf_bytes {
                self.pause_read(token);
                self.metrics.backpressure.inc();
                return;
            }
            if pending.len() >= self.config.max_batch_frames {
                // Budget spent: leave this socket's bytes in the kernel
                // buffer; level triggering re-reports it next pass.
                *budget_hit = true;
                return;
            }
            match self.read_frames(token, pending, budget_hit) {
                ReadOutcome::Open => {}
                ReadOutcome::Close => self.close_conn(token),
                ReadOutcome::CloseAfterFlush => self.close_after_flush(token),
            }
        } else if ev.error {
            self.close_conn(token);
        }
    }

    /// Reads whatever the socket holds, then extracts complete frames
    /// into the batch up to the pass budget.
    fn read_frames(
        &mut self,
        token: u64,
        pending: &mut Vec<PendingFrame>,
        budget_hit: &mut bool,
    ) -> ReadOutcome {
        // Take the shared chunk buffer so it does not alias the
        // connection-map borrow, and restore it before any return.
        let mut chunk = std::mem::take(&mut self.read_chunk);
        let filled = self.fill_inbuf(token, &mut chunk);
        self.read_chunk = chunk;
        let saw_eof = match filled {
            Ok(eof) => eof,
            Err(()) => return ReadOutcome::Close,
        };
        // At EOF nothing further will arrive: drain everything already
        // paid for, budget or not, so the final frames of a closing
        // daemon are not stranded.
        match self.extract_frames(token, pending, budget_hit, saw_eof) {
            Extracted::Ok => {}
            Extracted::Protocol => return ReadOutcome::CloseAfterFlush,
            Extracted::Corrupt => return ReadOutcome::Close,
        }
        if saw_eof {
            let conn = self.conns.get_mut(&token).expect("conn present");
            if conn.inbuf.buffered() > 0 {
                // Truncated frame at EOF: nothing to answer.
                return ReadOutcome::Close;
            }
            return ReadOutcome::CloseAfterFlush;
        }
        ReadOutcome::Open
    }

    /// Drains the socket into the connection's reassembly buffer.
    /// `Ok(true)` means EOF was seen; `Err(())` means a fatal read
    /// error and the connection should be closed.
    fn fill_inbuf(&mut self, token: u64, chunk: &mut [u8]) -> Result<bool, ()> {
        let conn = self.conns.get_mut(&token).expect("conn present");
        loop {
            match conn.stream.read(chunk) {
                Ok(0) => return Ok(true),
                Ok(n) => {
                    conn.inbuf.extend(&chunk[..n]);
                    conn.last_activity = Instant::now();
                    if n < chunk.len() {
                        return Ok(false);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
    }

    /// Pops complete frames from a connection's reassembly buffer into
    /// the pass batch. Hitting the budget parks the connection on the
    /// backlog (frames already in user space must be revisited without
    /// socket readiness) unless `drain_all` lifts the cap.
    fn extract_frames(
        &mut self,
        token: u64,
        pending: &mut Vec<PendingFrame>,
        budget_hit: &mut bool,
        drain_all: bool,
    ) -> Extracted {
        let max_frames = self.config.max_batch_frames;
        let conn = self.conns.get_mut(&token).expect("conn present");
        loop {
            if !drain_all && pending.len() >= max_frames && conn.inbuf.buffered() >= 4 {
                *budget_hit = true;
                self.backlog.insert(token);
                return Extracted::Ok;
            }
            match conn.inbuf.next_frame() {
                Ok(Some(payload)) => {
                    let received_at = Instant::now();
                    self.metrics.frames.inc();
                    let submission = DecodedSubmission::from_frame(&payload);
                    let trace = submission.message.as_ref().ok().and_then(|m| m.trace);
                    let trace_id = trace.map_or(0, |ctx| ctx.trace_id);
                    pending.push(PendingFrame { conn: token, submission, trace_id, received_at });
                }
                Ok(None) => return Extracted::Ok,
                Err(FrameError::TooLarge { .. }) => {
                    // Answer like the threaded loop, then hang up once
                    // the reply drains.
                    let resp = ServerResponse::Rejected("frame too large".into());
                    stage_reply(conn, &resp.encode());
                    return Extracted::Protocol;
                }
                Err(_) => return Extracted::Corrupt,
            }
        }
    }

    /// Marks a connection closing, pushes what the socket will take,
    /// and closes now if the reply buffer drained (write readiness
    /// carries the remainder out before the close otherwise).
    fn close_after_flush(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        conn.closing = true;
        if flush_outbuf(conn).is_err() {
            self.close_conn(token);
            return;
        }
        let conn = self.conns.get_mut(&token).expect("conn present");
        if conn.pending_out() == 0 {
            self.close_conn(token);
        } else {
            self.update_interest(token);
        }
    }

    /// Submits every frame of the pass as one controller batch, stages
    /// the replies, and flushes what the sockets will take.
    fn process_batch(&mut self, pending: Vec<PendingFrame>) {
        let now = Timestamp::from_secs(
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
        );
        let (frames, submissions): (Vec<_>, Vec<_>) = pending
            .into_iter()
            .map(|f| ((f.conn, f.trace_id, f.received_at), f.submission))
            .unzip();
        let results = self.controller.submit_batch_decoded(submissions, now);
        // A connection can contribute frames non-contiguously (backlog
        // frames first, this pass's reads later), so collect into a set
        // to flush and recompute interest exactly once per connection.
        let mut touched: BTreeSet<u64> = BTreeSet::new();
        for ((token, trace_id, received_at), (response, _timing)) in frames.into_iter().zip(results)
        {
            self.metrics
                .accept_to_insert
                .observe_with_exemplar(received_at.elapsed().as_secs_f64(), trace_id);
            if let Some(conn) = self.conns.get_mut(&token) {
                match response {
                    ServerResponse::Ack => conn.outbuf.extend_from_slice(ACK_FRAME),
                    rejected => stage_reply(conn, &rejected.encode()),
                }
                touched.insert(token);
            }
        }
        for token in touched {
            let Some(conn) = self.conns.get_mut(&token) else { continue };
            if flush_outbuf(conn).is_err() {
                self.close_conn(token);
                continue;
            }
            let conn = self.conns.get_mut(&token).expect("conn present");
            if conn.pending_out() == 0 && conn.closing {
                self.close_conn(token);
                continue;
            }
            self.update_interest(token);
        }
    }

    /// Recomputes and applies a connection's poller interest: write
    /// interest while replies are staged, read interest unless paused
    /// by the reply-buffer watermark.
    fn update_interest(&mut self, token: u64) {
        let pause_bytes = self.config.pause_outbuf_bytes;
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let want = Interest {
            read: !conn.closing && conn.pending_out() < pause_bytes,
            write: conn.pending_out() > 0,
        };
        if want != conn.interest {
            if self.poller.modify(conn.stream.as_raw_fd(), token, want).is_ok() {
                conn.interest = want;
            }
        }
    }

    fn pause_read(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let want = Interest { read: false, write: conn.pending_out() > 0 };
        if want != conn.interest
            && self.poller.modify(conn.stream.as_raw_fd(), token, want).is_ok()
        {
            conn.interest = want;
        }
    }

    fn close_conn(&mut self, token: u64) {
        self.backlog.remove(&token);
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            let _ = conn.peer;
            self.sync_conn_count();
        }
    }

    /// Reaps idle connections, amortized to roughly once per timeout.
    ///
    /// "Idle" means the connection is genuinely quiet, not merely
    /// throttled: a daemon paused past the reply watermark sends no
    /// bytes *because the reactor withdrew its read interest*, so its
    /// `last_activity` goes stale mid-drain while tens of KiB of acks
    /// are still staged. Reaping it would discard acknowledged work and
    /// force a full respool — doubly costly once depot-to-depot links
    /// pause under fan-in. Connections with staged replies, withdrawn
    /// read interest, or frames parked on the pass-budget backlog are
    /// therefore exempt: all three states quiesce only through the
    /// reactor's own progress, which refreshes `last_activity`.
    fn sweep_idle(&mut self) {
        if self.last_idle_sweep.elapsed() < self.config.idle_timeout {
            return;
        }
        self.last_idle_sweep = Instant::now();
        let backlog = &self.backlog;
        let timeout = self.config.idle_timeout;
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(&t, c)| {
                c.last_activity.elapsed() > timeout
                    && c.pending_out() == 0
                    && (c.interest.read || c.closing)
                    && !backlog.contains(&t)
            })
            .map(|(&t, _)| t)
            .collect();
        for token in idle {
            self.close_conn(token);
        }
    }
}

enum ReadOutcome {
    Open,
    Close,
    CloseAfterFlush,
}

/// Outcome of draining a connection's reassembly buffer.
enum Extracted {
    /// Clean stop (buffer exhausted or budget reached).
    Ok,
    /// Protocol violation answered with a rejection; close after it
    /// flushes.
    Protocol,
    /// Unrecoverable framing state; close immediately.
    Corrupt,
}

/// The reply to almost every frame, framed once: length prefix +
/// `ServerResponse::Ack.encode()`.
const ACK_FRAME: &[u8] = b"\0\0\0\x06<ack/>";

/// Appends an encoded reply frame (length prefix + payload) to the
/// connection's staging buffer.
fn stage_reply(conn: &mut Conn, payload: &[u8]) {
    let len = payload.len() as u32;
    conn.outbuf.extend_from_slice(&len.to_be_bytes());
    conn.outbuf.extend_from_slice(payload);
}

/// Which kernel socket buffer [`set_kernel_buf`] pins.
enum KernelBuf {
    Send,
    Recv,
}

/// Pins a socket's kernel buffer size via `setsockopt` (std exposes no
/// API for this, so the same extern-shim approach as the poller).
/// Explicit sizing also disables kernel autotuning, which is what makes
/// the pinned size an actual bound.
fn set_kernel_buf(stream: &TcpStream, which: KernelBuf, bytes: usize) -> io::Result<()> {
    use std::os::raw::{c_int, c_void};
    #[cfg(target_os = "linux")]
    const SOL_SOCKET: c_int = 1;
    #[cfg(target_os = "linux")]
    const SO_SNDBUF: c_int = 7;
    #[cfg(target_os = "linux")]
    const SO_RCVBUF: c_int = 8;
    #[cfg(all(unix, not(target_os = "linux")))]
    const SOL_SOCKET: c_int = 0xffff;
    #[cfg(all(unix, not(target_os = "linux")))]
    const SO_SNDBUF: c_int = 0x1001;
    #[cfg(all(unix, not(target_os = "linux")))]
    const SO_RCVBUF: c_int = 0x1002;
    extern "C" {
        fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: u32,
        ) -> c_int;
    }
    let optname = match which {
        KernelBuf::Send => SO_SNDBUF,
        KernelBuf::Recv => SO_RCVBUF,
    };
    let val = bytes.min(i32::MAX as usize) as c_int;
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            optname,
            &val as *const c_int as *const c_void,
            std::mem::size_of::<c_int>() as u32,
        )
    };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Writes staged bytes until the socket stops taking them. `Ok` leaves
/// any remainder staged for the next writable event.
fn flush_outbuf(conn: &mut Conn) -> io::Result<()> {
    while conn.written < conn.outbuf.len() {
        match conn.stream.write(&conn.outbuf[conn.written..]) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "socket closed")),
            Ok(n) => {
                conn.written += n;
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if conn.written == conn.outbuf.len() {
        conn.outbuf.clear();
        conn.written = 0;
    } else if conn.written > 0 && conn.written >= conn.outbuf.len() / 2 {
        conn.outbuf.drain(..conn.written);
        conn.written = 0;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerConfig;
    use crate::depot::depot::Depot;
    use inca_report::{BranchId, ReportBuilder};
    use inca_wire::frame::{read_frame, write_frame};
    use inca_wire::message::ClientMessage;

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

    fn spawn_reactor() -> (Arc<CentralizedController>, ReactorHandle) {
        let controller = Arc::new(CentralizedController::new(
            ControllerConfig::default(),
            Depot::with_obs(inca_obs::Obs::new()),
        ));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = controller.serve_reactor(listener).unwrap();
        (controller, handle)
    }

    #[test]
    fn roundtrip_two_frames_one_connection() {
        let (controller, handle) = spawn_reactor();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        for _ in 0..2 {
            write_frame(&mut stream, &message("h1", "version.gcc")).unwrap();
            let reply = read_frame(&mut stream).unwrap();
            assert_eq!(ServerResponse::decode(&reply).unwrap(), ServerResponse::Ack);
        }
        assert_eq!(controller.with_depot(|d| d.stats().report_count()), 2);
        let obs = controller.obs().clone();
        assert_eq!(obs.metrics().counter_value("inca_net_frames_total", &[]), Some(2));
        assert!(obs.metrics().gauge_value("inca_net_connections", &[]).unwrap() >= 1.0);
        let hist =
            obs.metrics().histogram_of("inca_net_accept_to_insert_seconds", &[]).unwrap();
        assert_eq!(hist.count(), 2);
        handle.stop();
    }

    #[test]
    fn trickled_partial_frames_reassemble() {
        let (controller, handle) = spawn_reactor();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let payload = message("h2", "version.gcc");
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        // Dribble the frame a few bytes at a time across many writes.
        for piece in wire.chunks(7) {
            stream.write_all(piece).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        let reply = read_frame(&mut stream).unwrap();
        assert_eq!(ServerResponse::decode(&reply).unwrap(), ServerResponse::Ack);
        assert_eq!(controller.with_depot(|d| d.stats().report_count()), 1);
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
                        assert_eq!(
                            ServerResponse::decode(&reply).unwrap(),
                            ServerResponse::Ack
                        );
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        assert_eq!(controller.with_depot(|d| d.stats().report_count()), 40);
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
        assert_eq!(controller.with_depot(|d| d.stats().report_count()), 1);
        handle.stop();
    }

    #[test]
    fn oversized_frame_rejected_then_closed() {
        let (_controller, handle) = spawn_reactor();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .write_all(&((inca_wire::frame::MAX_FRAME_LEN as u32) + 1).to_be_bytes())
            .unwrap();
        let reply = read_frame(&mut stream).unwrap();
        assert!(matches!(
            ServerResponse::decode(&reply).unwrap(),
            ServerResponse::Rejected(_)
        ));
        // Connection is closed after the rejection.
        assert!(matches!(read_frame(&mut stream), Err(FrameError::Closed)));
        handle.stop();
    }

    #[test]
    fn staged_ack_bytes_are_the_framed_ack_reply() {
        let mut framed = Vec::new();
        write_frame(&mut framed, &ServerResponse::Ack.encode()).unwrap();
        assert_eq!(ACK_FRAME, &framed[..]);
    }

    /// Hostile payloads inside well-formed frames: each gets exactly
    /// one rejection, the connection survives, nothing reaches the
    /// depot, and a good frame pipelined behind them still lands.
    #[test]
    fn hostile_framed_payloads_get_one_rejection_each_and_never_reach_the_depot() {
        let (controller, handle) = spawn_reactor();
        let good = message("h1", "version.gcc");
        let truncated = good[..good.len() / 2].to_vec();
        let garbage: Vec<u8> = (0..4_096u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
        // Within the frame limit, far beyond any report: a megabyte
        // that opens like a message and never closes.
        let mut huge = b"<incaMessage kind=\"report\"><resource>h1</resource><payload>".to_vec();
        huge.resize(1 << 20, b'x');
        let hostile = [truncated, garbage, huge, Vec::new(), vec![0xFF, 0xFE]];
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut wire = Vec::new();
        for payload in &hostile {
            write_frame(&mut wire, payload).unwrap();
        }
        write_frame(&mut wire, &good).unwrap();
        stream.write_all(&wire).unwrap();
        for payload in &hostile {
            let reply = ServerResponse::decode(&read_frame(&mut stream).unwrap()).unwrap();
            let want = ClientMessage::decode(payload).unwrap_err().to_string();
            assert_eq!(reply, ServerResponse::Rejected(want));
        }
        let reply = read_frame(&mut stream).unwrap();
        assert_eq!(ServerResponse::decode(&reply).unwrap(), ServerResponse::Ack);
        assert_eq!(controller.with_depot(|d| d.stats().report_count()), 1);
        let metrics = controller.obs().metrics();
        assert_eq!(
            metrics.counter_value("inca_controller_rejected_total", &[("reason", "decode")]),
            Some(hostile.len() as u64)
        );
        assert_eq!(metrics.counter_value("inca_controller_accepted_total", &[]), Some(1));
        assert_eq!(
            metrics.counter_value("inca_net_frames_total", &[]),
            Some(hostile.len() as u64 + 1)
        );
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
        assert_eq!(controller.with_depot(|d| d.stats().report_count()), burst as u64);
        handle.stop();
    }

    #[test]
    fn backpressure_pauses_reads_and_nothing_is_lost() {
        // Tiny budgets force both backpressure paths: a 1-frame batch
        // budget and a reply watermark under two acks.
        let controller = Arc::new(CentralizedController::new(
            ControllerConfig::default(),
            Depot::with_obs(inca_obs::Obs::new()),
        ));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = controller
            .serve_reactor_config(
                listener,
                ReactorConfig {
                    max_batch_frames: 1,
                    pause_outbuf_bytes: 8,
                    // Pin both kernel buffers (the receive side bounds
                    // how far a paused connection's kernel buffer can
                    // absorb requests the reactor has not read yet).
                    sndbuf_bytes: Some(16 * 1024),
                    rcvbuf_bytes: Some(16 * 1024),
                    ..ReactorConfig::default()
                },
            )
            .unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let burst = 40;
        // Pipeline a burst in one write without reading a single reply:
        // the server must pace itself (1-frame batches, paused reads)
        // rather than drop or wedge.
        let mut wire = Vec::new();
        for i in 0..burst {
            write_frame(&mut wire, &message(&format!("bp{i}"), "bp")).unwrap();
        }
        stream.write_all(&wire).unwrap();
        for _ in 0..burst {
            let reply = read_frame(&mut stream).unwrap();
            assert_eq!(ServerResponse::decode(&reply).unwrap(), ServerResponse::Ack);
        }
        assert_eq!(controller.with_depot(|d| d.stats().report_count()), burst as u64);
        let paused = controller
            .obs()
            .metrics()
            .counter_value("inca_net_backpressure_pauses_total", &[])
            .unwrap_or(0);
        assert!(paused > 0, "tiny budgets must trip the backpressure counter");
        handle.stop();
    }

    /// Regression: a connection paused for backpressure whose replies
    /// drain only through writable events must have read interest
    /// restored (and write interest dropped) after each flush —
    /// conn_ready once skipped the interest recompute, so the paused
    /// daemon was never read again and stale write interest busy-spun
    /// the level-triggered poller.
    #[test]
    fn paused_connection_resumes_after_writable_drain() {
        let controller = Arc::new(CentralizedController::new(
            ControllerConfig::default(),
            Depot::with_obs(inca_obs::Obs::new()),
        ));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = controller
            .serve_reactor_config(
                listener,
                ReactorConfig {
                    pause_outbuf_bytes: 8,
                    // A pinned (so not autotuned) send buffer, with the
                    // client's receive buffer pinned below, caps the
                    // reply path at ~16KiB; the burst's ~40KiB of acks
                    // must overflow it and trip the watermark.
                    sndbuf_bytes: Some(4_096),
                    ..ReactorConfig::default()
                },
            )
            .unwrap();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        set_kernel_buf(&stream, KernelBuf::Recv, 4_096).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let burst: usize = 4_000;
        let mut wire = Vec::new();
        for i in 0..burst {
            write_frame(&mut wire, &message(&format!("wd{i}"), "wd")).unwrap();
        }
        // Push the whole burst from a second thread without reading a
        // single reply until the server quiesces: replies overflow the
        // pinned kernel buffers, a partial flush trips the watermark,
        // and the connection ends up paused with tens of KiB of acks
        // still staged.
        let mut writer_stream = stream.try_clone().unwrap();
        let writer = std::thread::spawn(move || writer_stream.write_all(&wire));
        let metrics = controller.obs().metrics();
        let mut last = 0u64;
        let mut stable = 0;
        let deadline = Instant::now() + Duration::from_secs(30);
        while stable < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(100));
            let now = metrics.counter_value("inca_net_frames_total", &[]).unwrap_or(0);
            if now == last {
                stable += 1;
            } else {
                stable = 0;
                last = now;
            }
        }
        assert!(last > 0, "server must have processed part of the burst");
        // From the quiesced state the staged replies drain purely via
        // writable events — no batch runs while nothing new is read —
        // so only the post-flush interest recompute can unpause the
        // connection for the frame sent after the drain.
        let mut stream = stream;
        for _ in 0..burst {
            let reply = read_frame(&mut stream).unwrap();
            assert_eq!(ServerResponse::decode(&reply).unwrap(), ServerResponse::Ack);
        }
        writer.join().unwrap().unwrap();
        // The connection must have resumed reading: one more frame
        // round-trips instead of idling out.
        write_frame(&mut stream, &message("wd-final", "wd")).unwrap();
        let reply = read_frame(&mut stream).unwrap();
        assert_eq!(ServerResponse::decode(&reply).unwrap(), ServerResponse::Ack);
        assert_eq!(
            controller.with_depot(|d| d.stats().report_count()),
            burst as u64 + 1
        );
        handle.stop();
    }

    /// Regression: the idle sweep used to reap any connection without
    /// recent socket activity — including one the reactor itself had
    /// paused for backpressure. A paused daemon sends no bytes (its
    /// read interest is withdrawn) and receives none (the kernel reply
    /// path is full), so `last_activity` goes stale mid-drain and the
    /// sweep severed a healthy connection with staged acks still
    /// aboard. The sweep must exempt paused/pending-write connections.
    #[test]
    fn idle_sweep_spares_backpressure_paused_connections() {
        let controller = Arc::new(CentralizedController::new(
            ControllerConfig::default(),
            Depot::with_obs(inca_obs::Obs::new()),
        ));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let idle_timeout = Duration::from_millis(300);
        let handle = controller
            .serve_reactor_config(
                listener,
                ReactorConfig {
                    pause_outbuf_bytes: 8,
                    sndbuf_bytes: Some(4_096),
                    idle_timeout,
                    ..ReactorConfig::default()
                },
            )
            .unwrap();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        set_kernel_buf(&stream, KernelBuf::Recv, 4_096).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        // ~80KiB of acks: more than the 64KiB window the client
        // advertised at connect, before its receive buffer was pinned
        // (a kernel honours that first window, so a 40KiB burst of
        // acks was absorbed whole and the connection never paused).
        let burst: usize = 8_000;
        let mut wire = Vec::new();
        for i in 0..burst {
            write_frame(&mut wire, &message(&format!("sw{i}"), "sw")).unwrap();
        }
        // One more frame behind the burst: it reaches the server only
        // after the stall, so its ack shows the connection that sat
        // through the sweeps still accepts a new frame. It rides the
        // writer's stream instead of being sent after the drain, when
        // the connection is honestly idle and a client starved of CPU
        // for one `idle_timeout` would lose that race to the sweep.
        write_frame(&mut wire, &message("sw-final", "sw")).unwrap();
        // Push the burst without reading a reply: acks overflow the
        // pinned kernel buffers, the watermark pauses the connection,
        // and with the client reading nothing the socket goes byte-
        // silent in both directions.
        let mut writer_stream = stream.try_clone().unwrap();
        let writer = std::thread::spawn(move || writer_stream.write_all(&wire));
        let metrics = controller.obs().metrics();
        let mut last = 0u64;
        let mut stable = 0;
        let deadline = Instant::now() + Duration::from_secs(30);
        while stable < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(100));
            let now = metrics.counter_value("inca_net_frames_total", &[]).unwrap_or(0);
            if now == last {
                stable += 1;
            } else {
                stable = 0;
                last = now;
            }
        }
        assert!(last > 0, "server must have processed part of the burst");
        // Hold the stall across several sweep periods. last_activity is
        // now long past idle_timeout; only the paused/pending-write
        // exemption keeps the connection alive.
        std::thread::sleep(idle_timeout * 4);
        assert!(
            handle.connection_count() >= 1,
            "idle sweep reaped a backpressure-paused connection mid-drain"
        );
        // The drain completes and the connection still works: the
        // burst and the frame behind it are all acked and cached.
        let mut stream = stream;
        for _ in 0..burst + 1 {
            let reply = read_frame(&mut stream).unwrap();
            assert_eq!(ServerResponse::decode(&reply).unwrap(), ServerResponse::Ack);
        }
        writer.join().unwrap().unwrap();
        assert_eq!(
            controller.with_depot(|d| d.stats().report_count()),
            burst as u64 + 1
        );
        handle.stop();
    }

    #[test]
    fn disconnect_mid_frame_cleans_up() {
        let (controller, handle) = spawn_reactor();
        {
            let mut stream = TcpStream::connect(handle.addr()).unwrap();
            stream.write_all(&[0, 0, 1]).unwrap(); // partial header
        } // dropped: EOF inside a frame
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.connection_count() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(handle.connection_count(), 0, "dead connection must be reaped");
        assert_eq!(controller.with_depot(|d| d.stats().report_count()), 0);
        handle.stop();
    }
}
