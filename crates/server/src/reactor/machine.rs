//! The reactor's connection state machine: every decision, no IO.
//!
//! [`Machine`] owns each connection's reassembly buffer, staged
//! replies and liveness, and the pass logic around them: the in-flight
//! frame budget and its backlog, the reply-buffer pause watermark, the
//! idle sweep and flush-then-close. It takes events from the shell —
//! bytes read ([`Machine::received`], [`Machine::read_done`]), bytes the
//! socket accepted ([`Machine::consumed`]), a failed socket
//! ([`Machine::close`]) and the clock ([`Machine::tick`]) — and the
//! shell pulls its answers: the bytes to write ([`Machine::output`]),
//! which connections need a visit ([`Machine::next_visit`]) and the
//! interest each wants, or that it is closed ([`Machine::settle`]).
//! Complete frames are admitted in process, one
//! [`CentralizedController::submit_batch_decoded`] per pass
//! ([`Machine::end_pass`]).
//!
//! The clock is an argument: every decision reads the `now` its caller
//! passes. Only the `inca_net_accept_to_insert_seconds` observation
//! reads a real clock, because it measures and decides nothing.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use inca_obs::metrics::{Counter, Gauge, Histogram, DEFAULT_LATENCY_BOUNDS};
use inca_report::Timestamp;
use inca_wire::frame::FrameBuffer;
use inca_wire::message::ServerResponse;

use super::poller::Interest;
use crate::controller::{CentralizedController, DecodedSubmission};

/// A connection with no read and no write progress for this long is
/// reaped, unless it has staged replies, is paused, or has frames on
/// the backlog.
pub(super) const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// The two per-pass limits. The defaults serve the 10k-daemon
/// envelope; tests shrink them to reach the backpressure paths at toy
/// sizes.
pub(crate) struct ReactorConfig {
    /// Most frames gathered into one depot batch per pass; reaching it
    /// stops further reads for the pass (level triggering re-reports
    /// the unread sockets right after the batch).
    pub(crate) max_batch_frames: usize,
    /// A connection whose unflushed reply bytes reach this has its read
    /// interest withdrawn until the replies drain — per-connection
    /// backpressure toward the daemon's spool.
    pub(crate) pause_outbuf_bytes: usize,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig { max_batch_frames: 4_096, pause_outbuf_bytes: 256 * 1024 }
    }
}

/// One connection's state.
struct Conn {
    /// Reassembles length-prefixed frames from partial reads.
    inbuf: FrameBuffer,
    /// Encoded replies not yet accepted by the socket.
    outbuf: Vec<u8>,
    /// Flushed prefix of `outbuf`.
    written: usize,
    /// The interest this machine last asked the shell for.
    interest: Interest,
    /// Close once `outbuf` drains and `in_flight` is 0 (EOF seen or
    /// protocol error).
    closing: bool,
    /// Frames in this pass's batch whose replies are not staged yet.
    in_flight: usize,
    /// On the visit queue and not yet settled.
    queued: bool,
    /// Last read or write progress.
    last_activity: Instant,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.outbuf.len() - self.written
    }

    /// Write interest while replies are staged; read interest unless
    /// closing or paused by the reply watermark.
    fn wanted(&self, pause_outbuf_bytes: usize) -> Interest {
        Interest {
            read: !self.closing && self.pending_out() < pause_outbuf_bytes,
            write: self.pending_out() > 0,
        }
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

/// Reactor-wide metric instruments.
pub(super) struct NetMetrics {
    pub(super) connections: Arc<Gauge>,
    pub(super) wakeups: Arc<Counter>,
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

/// Every connection's state and the pass logic; see the module docs.
pub(super) struct Machine {
    controller: Arc<CentralizedController>,
    config: ReactorConfig,
    conns: HashMap<u64, Conn>,
    /// Connections with complete frames already reassembled in user
    /// space but deferred by the pass budget. Level triggering only
    /// re-reports sockets with *kernel*-buffered bytes, so these must
    /// be revisited explicitly or their frames would strand.
    backlog: BTreeSet<u64>,
    /// This pass's frames, in arrival order.
    batch: Vec<PendingFrame>,
    /// A read was refused this pass because the batch was full.
    budget_hit: bool,
    /// Connections the shell must visit: flush, then settle.
    visits: Vec<u64>,
    pub(super) metrics: NetMetrics,
    last_sweep: Instant,
}

impl Machine {
    pub(super) fn new(
        controller: Arc<CentralizedController>,
        config: ReactorConfig,
        now: Instant,
    ) -> Machine {
        Machine {
            metrics: NetMetrics::new(&controller),
            controller,
            config,
            conns: HashMap::new(),
            backlog: BTreeSet::new(),
            batch: Vec::new(),
            budget_hit: false,
            visits: Vec::new(),
            last_sweep: now,
        }
    }

    /// A new connection, registered by the shell for reads.
    pub(super) fn open(&mut self, token: u64, now: Instant) {
        self.conns.insert(
            token,
            Conn {
                inbuf: FrameBuffer::new(),
                outbuf: Vec::new(),
                written: 0,
                interest: Interest::READ,
                closing: false,
                in_flight: 0,
                queued: false,
                last_activity: now,
            },
        );
    }

    /// Frames are waiting on the backlog: the next pass must not block
    /// on socket readiness.
    pub(super) fn has_backlog(&self) -> bool {
        !self.backlog.is_empty()
    }

    /// Starts a pass with the frames the last pass's budget deferred —
    /// the oldest work in the house.
    pub(super) fn begin_pass(&mut self) {
        for token in std::mem::take(&mut self.backlog) {
            if self.conns.get(&token).is_some_and(|c| !c.closing) {
                self.extract(token, false);
            }
        }
    }

    /// The socket for `token` is readable: whether the shell should read
    /// it now. No while the connection's replies are backed up past the
    /// watermark — its bytes stay in the kernel buffer, the daemon's
    /// writes stall and its spool absorbs the overflow — or once the
    /// pass's frame budget is spent, which level triggering re-reports
    /// next pass.
    pub(super) fn may_read(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get(&token) else { return false };
        if conn.pending_out() >= self.config.pause_outbuf_bytes {
            self.metrics.backpressure.inc();
            self.refresh(token);
            return false;
        }
        if self.batch.len() >= self.config.max_batch_frames {
            self.budget_hit = true;
            return false;
        }
        true
    }

    /// The shell read `bytes` from `token`'s socket.
    pub(super) fn received(&mut self, token: u64, bytes: &[u8], now: Instant) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.inbuf.extend(bytes);
            conn.last_activity = now;
        }
    }

    /// The shell drained `token`'s socket; `eof` if the peer closed its
    /// side. Extracts the complete frames into the pass batch.
    pub(super) fn read_done(&mut self, token: u64, eof: bool) {
        // At EOF nothing further will arrive: drain everything already
        // paid for, budget or not, so the final frames of a closing
        // daemon are not stranded.
        if !self.extract(token, eof) || !eof {
            return;
        }
        if self.conns.get(&token).is_some_and(|c| c.inbuf.buffered() > 0) {
            // Truncated frame at EOF: nothing to answer.
            self.close(token);
        } else {
            self.close_after_flush(token);
        }
    }

    /// The staged reply bytes the socket should take next; empty when
    /// there are none or the connection is gone.
    pub(super) fn output(&self, token: u64) -> &[u8] {
        self.conns.get(&token).map_or(&[], |c| &c.outbuf[c.written..])
    }

    /// The socket accepted the first `n` bytes of [`Machine::output`].
    pub(super) fn consumed(&mut self, token: u64, n: usize, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        conn.written += n;
        conn.last_activity = now;
        if conn.written == conn.outbuf.len() {
            conn.outbuf.clear();
            conn.written = 0;
        } else if conn.written >= conn.outbuf.len() / 2 {
            conn.outbuf.drain(..conn.written);
            conn.written = 0;
        }
        // Recompute interest after every flush: drop write interest once
        // the buffer drains (stale write interest busy-spins a
        // level-triggered poller on an always-writable socket) and
        // restore read interest below the watermark (a paused
        // connection whose replies drain only via writable events would
        // otherwise never be read again).
        self.refresh(token);
    }

    /// The next connection the shell must visit: write what the socket
    /// takes of [`Machine::output`], then [`Machine::settle`] it.
    pub(super) fn next_visit(&mut self) -> Option<u64> {
        self.visits.pop()
    }

    /// Ends a visit: the interest `token` wants, or `None` once it is
    /// closed — the shell then deregisters and drops the socket.
    pub(super) fn settle(&mut self, token: u64) -> Option<Interest> {
        let conn = self.conns.get_mut(&token)?;
        conn.queued = false;
        Some(conn.interest)
    }

    /// Submits every frame of the pass as one controller batch, stamped
    /// `wall` for archiving, and stages the replies; each connection
    /// answered is queued for a visit.
    pub(super) fn end_pass(&mut self, wall: Timestamp) {
        if std::mem::take(&mut self.budget_hit) {
            // The rest of the ready sockets went unread this pass.
            self.metrics.backpressure.inc();
        }
        if self.batch.is_empty() {
            return;
        }
        let (frames, submissions): (Vec<_>, Vec<_>) = std::mem::take(&mut self.batch)
            .into_iter()
            .map(|f| ((f.conn, f.trace_id, f.received_at), f.submission))
            .unzip();
        let results = self.controller.submit_batch_decoded(submissions, wall);
        let pause = self.config.pause_outbuf_bytes;
        for ((token, trace_id, received_at), (response, _timing)) in frames.into_iter().zip(results)
        {
            self.metrics
                .accept_to_insert
                .observe_with_exemplar(received_at.elapsed().as_secs_f64(), trace_id);
            let Some(conn) = self.conns.get_mut(&token) else { continue };
            conn.in_flight -= 1;
            match response {
                ServerResponse::Ack => conn.outbuf.extend_from_slice(ACK_FRAME),
                rejected => stage_reply(conn, &rejected.encode()),
            }
            conn.interest = conn.wanted(pause);
            enqueue(&mut self.visits, token, conn);
        }
    }

    /// Reaps idle connections, amortized to once per [`IDLE_TIMEOUT`]
    /// of `now`.
    ///
    /// "Idle" means the connection is genuinely quiet, not merely
    /// throttled: a daemon paused past the reply watermark sends no
    /// bytes *because the reactor withdrew its read interest*, so its
    /// `last_activity` goes stale mid-drain while tens of KiB of acks
    /// are still staged. Reaping it would discard acknowledged work and
    /// force a full respool. Connections with staged replies, withdrawn
    /// read interest, or frames parked on the backlog are therefore
    /// exempt: all three quiesce only through the reactor's own
    /// progress, which refreshes `last_activity`.
    pub(super) fn tick(&mut self, now: Instant) {
        if now.saturating_duration_since(self.last_sweep) < IDLE_TIMEOUT {
            return;
        }
        self.last_sweep = now;
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(t, c)| {
                now.saturating_duration_since(c.last_activity) > IDLE_TIMEOUT
                    && c.pending_out() == 0
                    && (c.interest.read || c.closing)
                    && !self.backlog.contains(t)
            })
            .map(|(&t, _)| t)
            .collect();
        for token in idle {
            self.close(token);
        }
    }

    /// Pops complete frames from `token`'s reassembly buffer into the
    /// pass batch. Hitting the budget parks the connection on the
    /// backlog unless `drain_all` lifts the cap. False if a framing
    /// error closed (or is closing) the connection.
    fn extract(&mut self, token: u64, drain_all: bool) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else { return false };
        loop {
            if !drain_all
                && self.batch.len() >= self.config.max_batch_frames
                && conn.inbuf.buffered() >= 4
            {
                self.budget_hit = true;
                self.backlog.insert(token);
                return true;
            }
            match conn.inbuf.next_frame() {
                Ok(Some(payload)) => {
                    let received_at = Instant::now();
                    self.metrics.frames.inc();
                    let submission = DecodedSubmission::from_frame(&payload);
                    let trace = submission.message.as_ref().ok().and_then(|m| m.trace);
                    let trace_id = trace.map_or(0, |ctx| ctx.trace_id);
                    conn.in_flight += 1;
                    self.batch.push(PendingFrame {
                        conn: token,
                        submission,
                        trace_id,
                        received_at,
                    });
                }
                Ok(None) => return true,
                Err(_) => {
                    // The one framing error is an oversize header: answer,
                    // then hang up once the reply drains.
                    let resp = ServerResponse::Rejected("frame too large".into());
                    stage_reply(conn, &resp.encode());
                    self.close_after_flush(token);
                    return false;
                }
            }
        }
    }

    /// Marks a connection closing; it closes as soon as the replies to
    /// its frames are staged and have drained.
    fn close_after_flush(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        conn.closing = true;
        enqueue(&mut self.visits, token, conn);
        self.refresh(token);
    }

    /// Recomputes `token`'s interest after its state moved, queueing a
    /// visit if it changed; a closing connection with nothing left to
    /// send and no frame awaiting a reply closes.
    fn refresh(&mut self, token: u64) {
        let pause = self.config.pause_outbuf_bytes;
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if conn.closing && conn.pending_out() == 0 && conn.in_flight == 0 {
            self.close(token);
            return;
        }
        let want = conn.wanted(pause);
        if want != conn.interest {
            conn.interest = want;
            enqueue(&mut self.visits, token, conn);
        }
    }

    /// Closes `token` now, dropping anything staged (its socket failed,
    /// or there is nothing left to answer); the shell drops the socket
    /// on its next visit.
    pub(super) fn close(&mut self, token: u64) {
        self.backlog.remove(&token);
        if self.conns.remove(&token).is_some() {
            self.visits.push(token);
        }
    }
}

fn enqueue(visits: &mut Vec<u64>, token: u64, conn: &mut Conn) {
    if !conn.queued {
        conn.queued = true;
        visits.push(token);
    }
}

/// The reply to almost every frame, framed once: length prefix +
/// `ServerResponse::Ack.encode()`.
pub(super) const ACK_FRAME: &[u8] = b"\0\0\0\x06<ack/>";

/// Appends an encoded reply frame (length prefix + payload) to the
/// connection's staging buffer.
fn stage_reply(conn: &mut Conn, payload: &[u8]) {
    let len = payload.len() as u32;
    conn.outbuf.extend_from_slice(&len.to_be_bytes());
    conn.outbuf.extend_from_slice(payload);
}
