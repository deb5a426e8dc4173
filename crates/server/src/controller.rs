//! The centralized controller.
//!
//! §3.2.1: "The current centralized controller is implemented as a Perl
//! daemon and listens on a TCP port for incoming reports from the
//! distributed controllers… When the centralized controller receives an
//! incoming connection from a distributed controller, it checks the
//! host against a list of hostnames… It then creates a XML envelope,
//! where the content of the envelope is the report and the envelope
//! address is the branch identifier. The envelope is forwarded to the
//! depot."
//!
//! [`CentralizedController::submit_batch_decoded`] is the
//! transport-independent core and the one route into the depot: both
//! TCP front ends ([`serve_tcp`], the thread-per-connection oracle, and
//! the reactor), the federation and the simulation harness admit
//! through it, and every report reaches the cache through one
//! [`Depot::receive_batch`]. What crosses from a front end into the
//! controller is a [`DecodedSubmission`]: each frame is decoded (and
//! its report validated) exactly once, where it is received, and
//! admission works on the decoded message. The depot sits behind a
//! reader-writer lock: submissions take the write side, while any
//! number of query readers proceed concurrently — an improvement over
//! the 2004 system, which serialized everything through its single Perl
//! daemon.
//!
//! [`serve_tcp`]: CentralizedController::serve_tcp

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use inca_obs::metrics::{Counter, Gauge};
use inca_obs::{Obs, Severity};
use inca_report::Timestamp;
use inca_wire::envelope::{Envelope, EnvelopeMode};
use inca_wire::frame::{read_frame, write_frame, FrameError};
use inca_wire::message::{ClientMessage, ServerResponse, WireError};
use inca_wire::HostAllowlist;

use crate::dedup::DedupIndex;
use crate::depot::depot::{Depot, DepotTiming};

/// Configuration of the centralized controller.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Hosts allowed to submit.
    pub allowlist: HostAllowlist,
    /// How reports are packed for the depot (binary = the zero-copy
    /// frame and the default, body = 2004 behaviour, attachment = the
    /// §5.2.2 proposed optimization).
    pub envelope_mode: EnvelopeMode,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            allowlist: HostAllowlist::allow_all(),
            envelope_mode: EnvelopeMode::Binary,
        }
    }
}

/// The centralized controller with its depot.
pub struct CentralizedController {
    config: ControllerConfig,
    /// Reader-writer lock, not a mutex: consumers, the health monitor
    /// and metric scrapes read the depot concurrently with each other;
    /// only ingest takes the write side. The depot's interior query
    /// memo has its own lock, so shared guards stay `Sync`-safe.
    depot: RwLock<Depot>,
    /// Error reports received (the §3.1.3 special reports).
    error_reports: Mutex<u64>,
    /// Observability handle, inherited from the depot so controller
    /// and depot metrics share one registry.
    obs: Obs,
    /// Accepted submissions (`inca_controller_accepted_total`).
    accepted: Arc<Counter>,
    /// Rejected submissions by reason
    /// (`inca_controller_rejected_total{reason=...}`).
    rejected_allowlist: Arc<Counter>,
    rejected_decode: Arc<Counter>,
    rejected_depot: Arc<Counter>,
    /// Submissions currently waiting on or holding the depot lock
    /// (`inca_controller_queue_depth`).
    queue_depth: Arc<Gauge>,
    /// Per-daemon seq windows: retransmissions of already-ingested
    /// reports are acked here without touching the depot, making
    /// ingest idempotent (exactly-once on top of at-least-once
    /// delivery).
    dedup: Mutex<DedupIndex>,
    /// Duplicate submissions absorbed
    /// (`inca_depot_duplicates_total`).
    duplicates: Arc<Counter>,
}

/// One received frame, decoded, on its way into admission.
///
/// This is what crosses the front-end → controller boundary: the
/// front end decodes each frame once ([`DecodedSubmission::from_frame`])
/// and drops the frame bytes; the controller admits the decoded
/// message without looking at the bytes again.
#[derive(Debug)]
pub struct DecodedSubmission {
    /// The host checked against the allowlist.
    pub peer_host: String,
    /// The decoded message, or why the frame did not decode. The error
    /// is admitted too, so it is answered and counted like any other
    /// refusal — after the allowlist check.
    pub message: Result<ClientMessage, WireError>,
    /// Size of the frame payload the message was decoded from. A
    /// message built in process (the simulator's drain) was never a
    /// frame, and carries the length of its report XML instead.
    pub payload_len: usize,
}

impl DecodedSubmission {
    /// Decodes a frame payload as submitted by `peer_host`.
    pub fn new(peer_host: impl Into<String>, payload: &[u8]) -> DecodedSubmission {
        DecodedSubmission {
            peer_host: peer_host.into(),
            message: ClientMessage::decode(payload),
            payload_len: payload.len(),
        }
    }

    /// Decodes a frame read off a socket. The socket names no host, so
    /// the message names its own: [`ClientMessage::allowlist_key`], or
    /// the empty host for a frame that does not decode.
    pub fn from_frame(payload: &[u8]) -> DecodedSubmission {
        let message = ClientMessage::decode(payload);
        DecodedSubmission {
            peer_host: message.as_ref().map_or("", ClientMessage::allowlist_key).to_string(),
            message,
            payload_len: payload.len(),
        }
    }
}

/// Outcome of admission: what to do with one submission.
enum Admission {
    /// Envelope bytes for the depot, the open accept span, and the
    /// message's delivery identity (to un-record on depot failure).
    Fresh(Vec<u8>, inca_obs::trace::Span, Option<(String, u64)>),
    /// Already ingested: ack idempotently, skip the depot.
    Duplicate,
    /// Refused before the depot (allowlist, decode).
    Rejected(ServerResponse),
}

impl CentralizedController {
    /// Creates a controller around a depot. The controller observes
    /// into the depot's [`Obs`] handle, so pass [`Depot::with_obs`] to
    /// isolate the whole pipeline's spans and metrics.
    pub fn new(config: ControllerConfig, depot: Depot) -> CentralizedController {
        let obs = depot.obs().clone();
        let metrics = obs.metrics();
        let accepted = metrics.counter(
            "inca_controller_accepted_total",
            "Submissions accepted and forwarded to the depot.",
        );
        let rejected = |reason| {
            metrics.counter_with(
                "inca_controller_rejected_total",
                &[("reason", reason)],
                "Submissions rejected before reaching the depot cache.",
            )
        };
        let rejected_allowlist = rejected("allowlist");
        let rejected_decode = rejected("decode");
        let rejected_depot = rejected("depot");
        let queue_depth = metrics.gauge(
            "inca_controller_queue_depth",
            "Submissions waiting on or holding the depot lock.",
        );
        let duplicates = metrics.counter(
            "inca_depot_duplicates_total",
            "Duplicate submissions absorbed by per-daemon seq dedup.",
        );
        CentralizedController {
            config,
            depot: RwLock::new(depot),
            error_reports: Mutex::new(0),
            obs,
            accepted,
            rejected_allowlist,
            rejected_decode,
            rejected_depot,
            queue_depth,
            dedup: Mutex::new(DedupIndex::default()),
            duplicates,
        }
    }

    /// The observability handle the controller (and its depot) report
    /// into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Admission for one submission — allowlist, decode outcome,
    /// seq-dedup, and enveloping — the single routine behind every
    /// entry point. A fresh admission carries the encoded envelope
    /// plus the open `controller.accept` span (already joined to the
    /// message's trace); the caller finishes the span once the depot
    /// outcome is known, and must un-record the delivery identity if
    /// the depot fails.
    fn admit(&self, submission: DecodedSubmission) -> Admission {
        let DecodedSubmission { peer_host, message, payload_len } = submission;
        let span = self
            .obs
            .span("controller.accept")
            .field("peer", &peer_host)
            .field("bytes", payload_len);
        // The allowlist answers first: a host that may not submit
        // learns nothing about how its bytes decoded.
        if !self.config.allowlist.allows(&peer_host) {
            self.rejected_allowlist.inc();
            span.severity(Severity::Warn).field("rejected", "allowlist").finish();
            return Admission::Rejected(ServerResponse::Rejected(format!(
                "host {peer_host} not in allowlist"
            )));
        }
        let message = match message {
            Ok(m) => m,
            Err(e) => {
                self.rejected_decode.inc();
                span.severity(Severity::Warn).field("rejected", "decode").finish();
                return Admission::Rejected(ServerResponse::Rejected(e.to_string()));
            }
        };
        // Seq dedup: a `(daemon, seq)` this controller has already
        // ingested is a retransmission (its ack was lost); answer Ack
        // without re-ingesting. Messages without an origin (legacy
        // peers) keep at-most-once semantics.
        if let Some((daemon, seq)) = &message.origin {
            if !self.dedup.lock().observe(daemon, *seq) {
                self.duplicates.inc();
                span.field("duplicate_seq", *seq).finish();
                return Admission::Duplicate;
            }
        }
        if message.is_error_report {
            *self.error_reports.lock() += 1;
        }
        // Join the report's trace (minted by the forwarding daemon) and
        // re-parent it on this accept span for the depot leg.
        let mut span = span.field("branch", &message.branch);
        if let Some(ctx) = message.trace {
            span = span.trace_ctx(ctx);
        }
        let depot_ctx = span.child_ctx();
        let mut envelope = Envelope::new(message.branch, message.report_xml);
        if let Some(ctx) = depot_ctx {
            envelope = envelope.with_trace(ctx);
        }
        Admission::Fresh(envelope.encode(self.config.envelope_mode), span, message.origin)
    }

    /// Un-records a delivery identity whose depot ingest failed, so the
    /// daemon's retry is not misclassified as a duplicate.
    fn forget_origin(&self, origin: &Option<(String, u64)>) {
        if let Some((daemon, seq)) = origin {
            self.dedup.lock().forget(daemon, *seq);
        }
    }

    /// Processes one framed client payload from `peer_host`: decodes
    /// it and admits it as a batch of one through
    /// [`CentralizedController::submit_batch_decoded`].
    ///
    /// Returns the response to send back plus the depot timing when the
    /// submission was accepted.
    pub fn submit(
        &self,
        peer_host: &str,
        payload: &[u8],
        now: Timestamp,
    ) -> (ServerResponse, Option<DepotTiming>) {
        self.submit_batch_decoded([DecodedSubmission::new(peer_host, payload)], now)
            .pop()
            .expect("one response per submission")
    }

    /// Processes a burst of `(peer_host, payload)` submissions in one
    /// depot pass, returning one response per submission in order:
    /// decodes each payload and hands the burst to
    /// [`CentralizedController::submit_batch_decoded`].
    pub fn submit_batch(
        &self,
        submissions: &[(String, Vec<u8>)],
        now: Timestamp,
    ) -> Vec<(ServerResponse, Option<DepotTiming>)> {
        self.submit_batch_decoded(
            submissions
                .iter()
                .map(|(peer_host, payload)| DecodedSubmission::new(peer_host.as_str(), payload)),
            now,
        )
    }

    /// Processes a burst of already-decoded submissions in one depot
    /// pass, returning one response per submission in order — the
    /// route every submission takes into the depot.
    ///
    /// Each submission is admitted on its own (allowlist, decode
    /// outcome, seq dedup, per-message accept span and counters); the
    /// depot lock is then taken **once** and every admitted report is
    /// spliced by a single [`Depot::receive_batch`] — the amortization
    /// the paper's §5.2.2 scalability analysis calls for. A burst with
    /// nothing admitted never touches the depot. The reactor submits
    /// every frame of a readiness pass here, the threaded loop and
    /// [`CentralizedController::submit`] a batch of one, and the
    /// simulator each tick's drained spools.
    pub fn submit_batch_decoded(
        &self,
        submissions: impl IntoIterator<Item = DecodedSubmission>,
        now: Timestamp,
    ) -> Vec<(ServerResponse, Option<DepotTiming>)> {
        let submissions = submissions.into_iter();
        let mut results: Vec<Option<(ServerResponse, Option<DepotTiming>)>> =
            Vec::with_capacity(submissions.size_hint().0);
        let mut admitted: Vec<(usize, inca_obs::trace::Span, Option<(String, u64)>)> =
            Vec::new();
        let mut batch: Vec<Vec<u8>> = Vec::new();
        for (index, submission) in submissions.enumerate() {
            results.push(match self.admit(submission) {
                Admission::Fresh(bytes, span, origin) => {
                    admitted.push((index, span, origin));
                    batch.push(bytes);
                    None
                }
                Admission::Duplicate => Some((ServerResponse::Ack, None)),
                Admission::Rejected(response) => Some((response, None)),
            });
        }
        // Writes serialize through the depot's write lock, as in the
        // paper (reads share the lock); the gauge tracks how many
        // submissions are queued on it.
        let outcomes = if batch.is_empty() {
            Vec::new()
        } else {
            self.queue_depth.add(batch.len() as f64);
            let outcomes = self.depot.write().receive_batch(&batch, now);
            self.queue_depth.sub(batch.len() as f64);
            outcomes
        };
        for ((index, span, origin), outcome) in admitted.into_iter().zip(outcomes) {
            results[index] = Some(match outcome {
                Ok(timing) => {
                    self.accepted.inc();
                    span.finish();
                    (ServerResponse::Ack, Some(timing))
                }
                Err(e) => {
                    self.forget_origin(&origin);
                    self.rejected_depot.inc();
                    span.severity(Severity::Warn).field("rejected", "depot").finish();
                    (ServerResponse::Rejected(e.to_string()), None)
                }
            });
        }
        results
            .into_iter()
            .map(|r| r.expect("every submission resolved"))
            .collect()
    }

    /// Runs a closure against the depot under a **shared** read guard:
    /// any number of consumers, health checks and metric scrapes run
    /// concurrently, blocking only while ingest holds the write side.
    pub fn with_depot<R>(&self, f: impl FnOnce(&Depot) -> R) -> R {
        f(&self.depot.read())
    }

    /// Mutable depot access (archive-rule upload, consumer recording)
    /// under the exclusive write guard.
    pub fn with_depot_mut<R>(&self, f: impl FnOnce(&mut Depot) -> R) -> R {
        f(&mut self.depot.write())
    }

    /// Number of execution-error reports received.
    pub fn error_report_count(&self) -> u64 {
        *self.error_reports.lock()
    }

    /// Duplicate submissions absorbed by seq dedup (also exported as
    /// `inca_depot_duplicates_total`).
    pub fn duplicate_count(&self) -> u64 {
        self.dedup.lock().duplicate_count()
    }

    /// Starts a thread-per-connection TCP accept loop. Submissions use
    /// wall-clock seconds for archive timestamps.
    ///
    /// This is the historical front end, kept as the oracle for the
    /// reactor ([`CentralizedController::serve_reactor`], the scale
    /// path): both speak the same framed protocol and admit through the
    /// same [`CentralizedController::submit_batch_decoded`], so they
    /// must build byte-identical depot documents from the same
    /// submissions (proven under chaos in `tests/net_frontend.rs`).
    ///
    /// Finished workers (and their stream clones) are reaped on every
    /// accept-loop pass, so a long-lived server under connection churn
    /// holds only as many handles as it has *live* connections — they
    /// previously accumulated for every connection ever accepted and
    /// were released only at [`TcpServerHandle::stop`].
    pub fn serve_tcp(
        self: &Arc<Self>,
        listener: TcpListener,
    ) -> std::io::Result<TcpServerHandle> {
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        // Clones of live accepted streams, keyed by connection id, so
        // `stop` can unblock worker threads parked in `read_frame` even
        // while clients keep their connections open. Each worker drops
        // its own entry on exit.
        let connections: Arc<Mutex<HashMap<u64, TcpStream>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let live_workers = Arc::new(AtomicUsize::new(0));
        let controller = Arc::clone(self);
        let stop = Arc::clone(&shutdown);
        let conns = Arc::clone(&connections);
        let conn_gauge = Arc::clone(&connections);
        let workers_up = Arc::clone(&live_workers);
        let accept_thread = std::thread::spawn(move || {
            let mut workers: Vec<JoinHandle<()>> = Vec::new();
            let mut next_id: u64 = 0;
            while !stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, peer)) => {
                        let id = next_id;
                        next_id += 1;
                        if let Ok(clone) = stream.try_clone() {
                            conns.lock().insert(id, clone);
                        }
                        let controller = Arc::clone(&controller);
                        let conns = Arc::clone(&conns);
                        let live = Arc::clone(&workers_up);
                        live.fetch_add(1, Ordering::SeqCst);
                        workers.push(std::thread::spawn(move || {
                            let _ = handle_connection(&controller, stream, peer);
                            conns.lock().remove(&id);
                            live.fetch_sub(1, Ordering::SeqCst);
                        }));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
                // Reap finished workers as we go; joining a finished
                // thread is immediate.
                workers = workers
                    .into_iter()
                    .filter_map(|w| {
                        if w.is_finished() {
                            let _ = w.join();
                            None
                        } else {
                            Some(w)
                        }
                    })
                    .collect();
            }
            // Shutdown: sever every connection so blocked reads return,
            // then reap the workers.
            for conn in conns.lock().values() {
                let _ = conn.shutdown(std::net::Shutdown::Both);
            }
            for w in workers {
                let _ = w.join();
            }
        });
        Ok(TcpServerHandle {
            addr: local_addr,
            shutdown,
            accept_thread: Some(accept_thread),
            connections: conn_gauge,
            live_workers,
        })
    }
}

/// How long a connection may sit idle (or mid-frame) before the server
/// reclaims its thread. Without this a stalled or half-dead peer holds
/// a worker in `read_frame` forever.
pub const SERVER_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Per-reply write deadline for the accept loop.
pub const SERVER_WRITE_TIMEOUT: Duration = Duration::from_secs(10);

fn handle_connection(
    controller: &CentralizedController,
    mut stream: TcpStream,
    peer: SocketAddr,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(SERVER_IDLE_TIMEOUT))?;
    stream.set_write_timeout(Some(SERVER_WRITE_TIMEOUT))?;
    // Peer identity: in the 2004 deployment this was the reverse-DNS
    // hostname; here the host the client message names for itself
    // (`ClientMessage::allowlist_key`) is checked against the allowlist
    // and the socket peer is recorded only for diagnostics.
    let _ = peer;
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            Err(FrameError::Closed) => return Ok(()),
            // An idle-timeout expiry surfaces as WouldBlock (or
            // TimedOut, platform-dependent): drop the connection; the
            // daemon reconnects and its spool retries anything unacked.
            Err(FrameError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(());
            }
            Err(FrameError::Io(e)) => return Err(e),
            Err(FrameError::TooLarge { .. }) => {
                let resp = ServerResponse::Rejected("frame too large".into());
                write_frame(&mut stream, &resp.encode())?;
                return Ok(());
            }
        };
        // The one decode of this frame; its bytes are done with.
        let submission = DecodedSubmission::from_frame(&payload);
        drop(payload);
        let now = Timestamp::from_secs(
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
        );
        let (response, _) = controller
            .submit_batch_decoded([submission], now)
            .pop()
            .expect("one response per submission");
        write_frame(&mut stream, &response.encode())?;
        stream.flush()?;
    }
}

/// Handle to a running TCP server; shuts down on drop.
pub struct TcpServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    connections: Arc<Mutex<HashMap<u64, TcpStream>>>,
    live_workers: Arc<AtomicUsize>,
}

impl TcpServerHandle {
    /// The bound address (use port 0 to pick a free port in tests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stream clones currently held for live connections. Bounded by
    /// live connections, not total connections ever accepted — the
    /// churn regression in `tests/net_frontend.rs` pins this down.
    pub fn connection_count(&self) -> usize {
        self.connections.lock().len()
    }

    /// Worker threads currently serving connections.
    pub fn worker_count(&self) -> usize {
        self.live_workers.load(Ordering::SeqCst)
    }

    /// Requests shutdown and waits for the accept loop.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TcpServerHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use inca_report::{BranchId, ReportBuilder};

    fn message(resource: &str) -> Vec<u8> {
        let report = ReportBuilder::new("version.globus", "1.0")
            .host(resource)
            .gmt(Timestamp::from_secs(1_000))
            .body_value("packageVersion", "2.4.3")
            .success()
            .unwrap();
        let branch: BranchId =
            format!("reporter=version.globus,resource={resource},vo=tg").parse().unwrap();
        ClientMessage::report(resource, branch, &report).encode()
    }

    #[test]
    fn accepted_submission_reaches_depot() {
        let controller =
            CentralizedController::new(ControllerConfig::default(), Depot::new());
        let (resp, timing) =
            controller.submit("tg-login1.sdsc.teragrid.org", &message("tg-login1.sdsc.teragrid.org"), Timestamp::from_secs(1_000));
        assert_eq!(resp, ServerResponse::Ack);
        assert!(timing.is_some());
        assert_eq!(controller.with_depot(|d| d.cache().report_count()), 1);
    }

    #[test]
    fn accept_and_depot_spans_join_the_message_trace() {
        use inca_obs::sinks::RingSink;
        use inca_obs::{Obs, TraceContext};
        let obs = Obs::new();
        let ring = Arc::new(RingSink::new(64));
        obs.tracer().add_sink(ring.clone());
        let controller =
            CentralizedController::new(ControllerConfig::default(), Depot::with_obs(obs.clone()));

        let ctx = TraceContext::root();
        let report = ReportBuilder::new("version.globus", "1.0")
            .host("h")
            .gmt(Timestamp::from_secs(1_000))
            .body_value("packageVersion", "2.4.3")
            .success()
            .unwrap();
        let branch: BranchId = "reporter=version.globus,resource=h,vo=tg".parse().unwrap();
        let payload = ClientMessage::report("h", branch, &report).with_trace(ctx).encode();
        let (resp, _) = controller.submit("h", &payload, Timestamp::from_secs(1_000));
        assert_eq!(resp, ServerResponse::Ack);

        let events = ring.drain();
        let accept = events.iter().find(|e| e.name == "controller.accept").unwrap();
        let insert = events.iter().find(|e| e.name == "depot.insert").unwrap();
        assert_eq!(accept.trace.unwrap().trace_id, ctx.trace_id, "accept joins the wire trace");
        assert_eq!(insert.trace.unwrap().trace_id, ctx.trace_id, "insert joins the wire trace");
        assert_eq!(
            insert.trace.unwrap().parent_span_id,
            accept.span_id,
            "depot insert is parented on the accept span"
        );

        let hist = obs.metrics().histogram_of("inca_depot_insert_seconds", &[]).unwrap();
        assert!(
            hist.bucket_exemplars().iter().flatten().any(|e| e.trace_id == ctx.trace_id),
            "insert latency histogram carries the trace exemplar"
        );
    }

    #[test]
    fn allowlist_rejects_unknown_host() {
        let config = ControllerConfig {
            allowlist: HostAllowlist::from_entries(["*.teragrid.org"]),
            envelope_mode: EnvelopeMode::Body,
        };
        let controller = CentralizedController::new(config, Depot::new());
        let (resp, _) = controller.submit(
            "evil.example.com",
            &message("evil.example.com"),
            Timestamp::from_secs(0),
        );
        assert!(matches!(resp, ServerResponse::Rejected(_)));
        assert_eq!(controller.with_depot(|d| d.cache().report_count()), 0);
    }

    #[test]
    fn malformed_payload_rejected() {
        let controller =
            CentralizedController::new(ControllerConfig::default(), Depot::new());
        let (resp, _) = controller.submit("h", b"not a message", Timestamp::from_secs(0));
        assert!(matches!(resp, ServerResponse::Rejected(_)));
    }

    #[test]
    fn error_reports_counted() {
        let controller =
            CentralizedController::new(ControllerConfig::default(), Depot::new());
        let report = inca_report::Report::execution_error(
            ReportBuilder::new("r", "1").success().unwrap().header,
            "killed after exceeding expected run time",
        );
        let branch: BranchId = "reporter=r,vo=tg".parse().unwrap();
        let payload = ClientMessage::error_report("h", branch, &report).encode();
        controller.submit("h", &payload, Timestamp::from_secs(0));
        assert_eq!(controller.error_report_count(), 1);
    }

    #[test]
    fn submit_batch_matches_sequential_submits() {
        let config = ControllerConfig {
            allowlist: HostAllowlist::from_entries(["*.teragrid.org"]),
            envelope_mode: EnvelopeMode::Body,
        };
        let batched = CentralizedController::new(config.clone(), Depot::new());
        let sequential = CentralizedController::new(config, Depot::new());

        let hosts = [
            "tg-login1.sdsc.teragrid.org",
            "evil.example.com", // allowlist reject
            "tg-login2.ncsa.teragrid.org",
            "tg-login1.sdsc.teragrid.org", // replaces the first branch
        ];
        let mut submissions: Vec<(String, Vec<u8>)> = hosts
            .iter()
            .map(|h| (h.to_string(), message(h)))
            .collect();
        submissions.push(("tg-login3.psc.teragrid.org".into(), b"garbage".to_vec()));

        let now = Timestamp::from_secs(2_000);
        let results = batched.submit_batch(&submissions, now);
        assert_eq!(results.len(), submissions.len());
        assert_eq!(results[0].0, ServerResponse::Ack);
        assert!(matches!(results[1].0, ServerResponse::Rejected(_)));
        assert_eq!(results[2].0, ServerResponse::Ack);
        assert_eq!(results[3].0, ServerResponse::Ack);
        assert!(matches!(results[4].0, ServerResponse::Rejected(_)));
        assert!(results[3].1.is_some(), "accepted submissions carry timings");

        for (host, payload) in &submissions {
            sequential.submit(host, payload, now);
        }
        assert_eq!(
            batched.with_depot(|d| d.cache().document().to_string()),
            sequential.with_depot(|d| d.cache().document().to_string()),
            "batched admission must build the same cache as sequential"
        );
        assert_eq!(batched.with_depot(|d| d.stats().report_count()), 3);
    }

    fn stamped(resource: &str, seq: u64) -> Vec<u8> {
        let report = ReportBuilder::new("version.globus", "1.0")
            .host(resource)
            .gmt(Timestamp::from_secs(1_000))
            .body_value("packageVersion", "2.4.3")
            .success()
            .unwrap();
        let branch: BranchId =
            format!("reporter=version.globus,resource={resource},vo=tg").parse().unwrap();
        ClientMessage::report(resource, branch, &report)
            .with_origin(resource, seq)
            .encode()
    }

    #[test]
    fn duplicate_seq_is_acked_but_ingested_once() {
        // Fresh Obs: the duplicates-counter assertion must not see
        // other tests' global-registry traffic.
        let controller = CentralizedController::new(
            ControllerConfig::default(),
            Depot::with_obs(inca_obs::Obs::new()),
        );
        let payload = stamped("h", 1);
        let now = Timestamp::from_secs(1_000);
        let (first, timing) = controller.submit("h", &payload, now);
        assert_eq!(first, ServerResponse::Ack);
        assert!(timing.is_some());
        // The retransmission (daemon never saw the ack) is acked again
        // — idempotently, without depot work.
        let (second, timing) = controller.submit("h", &payload, now);
        assert_eq!(second, ServerResponse::Ack);
        assert!(timing.is_none(), "no depot pass for a duplicate");
        assert_eq!(controller.with_depot(|d| d.stats().report_count()), 1);
        assert_eq!(controller.duplicate_count(), 1);
        assert_eq!(
            controller.obs().metrics().counter_value("inca_depot_duplicates_total", &[]),
            Some(1)
        );
        // A later seq from the same daemon still lands.
        let (third, _) = controller.submit("h", &stamped("h", 2), now);
        assert_eq!(third, ServerResponse::Ack);
        assert_eq!(controller.with_depot(|d| d.stats().report_count()), 2);
    }

    #[test]
    fn batch_absorbs_duplicates_idempotently() {
        let controller =
            CentralizedController::new(ControllerConfig::default(), Depot::new());
        let submissions = vec![
            ("a".to_string(), stamped("a", 1)),
            ("b".to_string(), stamped("b", 1)),
            ("a".to_string(), stamped("a", 1)), // retransmit in-batch
        ];
        let results = controller.submit_batch(&submissions, Timestamp::from_secs(1_000));
        assert!(results.iter().all(|(r, _)| *r == ServerResponse::Ack));
        assert!(results[2].1.is_none(), "duplicate carries no timing");
        assert_eq!(controller.with_depot(|d| d.stats().report_count()), 2);
        assert_eq!(controller.duplicate_count(), 1);
    }

    #[test]
    fn binary_framed_batch_absorbs_duplicates_and_matches_xml_cache() {
        // Seq dedup happens on the client message, before enveloping:
        // switching the depot leg to zero-copy binary frames must not
        // change which submissions are absorbed, and the spliced cache
        // must be byte-identical to the XML-envelope one.
        let binary = CentralizedController::new(
            ControllerConfig {
                envelope_mode: EnvelopeMode::Binary,
                ..ControllerConfig::default()
            },
            Depot::with_obs(inca_obs::Obs::new()),
        );
        let xml = CentralizedController::new(
            ControllerConfig::default(),
            Depot::with_obs(inca_obs::Obs::new()),
        );
        let submissions = vec![
            ("a".to_string(), stamped("a", 1)),
            ("b".to_string(), stamped("b", 1)),
            ("a".to_string(), stamped("a", 1)), // retransmit in-batch
            ("b".to_string(), stamped("b", 2)),
        ];
        let now = Timestamp::from_secs(1_000);
        for controller in [&binary, &xml] {
            let results = controller.submit_batch(&submissions, now);
            assert!(results.iter().all(|(r, _)| *r == ServerResponse::Ack));
            assert!(results[2].1.is_none(), "duplicate carries no timing");
            assert_eq!(controller.with_depot(|d| d.stats().report_count()), 3);
            assert_eq!(controller.duplicate_count(), 1);
            // A cross-batch retransmission is absorbed too.
            let (resp, timing) = controller.submit("a", &stamped("a", 1), now);
            assert_eq!(resp, ServerResponse::Ack);
            assert!(timing.is_none());
            assert_eq!(controller.duplicate_count(), 2);
        }
        assert_eq!(
            binary.with_depot(|d| d.cache().document().to_string()),
            xml.with_depot(|d| d.cache().document().to_string()),
            "binary-framed batch must build the same cache as the XML envelope"
        );
    }

    /// One submission of every kind admission tells apart, as
    /// `(peer_host, payload)`. Hosts under `teragrid.org` and the relay
    /// `relay-west` are the ones [`restrictive`] admits.
    pub(crate) fn mixed_submissions() -> Vec<(String, Vec<u8>)> {
        let host = "tg-login1.sdsc.teragrid.org";
        let report = ReportBuilder::new("version.globus", "1.0")
            .host(host)
            .gmt(Timestamp::from_secs(1_000))
            .body_value("packageVersion", "2.4.3")
            .success()
            .unwrap();
        let branch = |reporter: &str| -> BranchId {
            format!("reporter={reporter},resource={host},site=sdsc,vo=tg").parse().unwrap()
        };
        let error = inca_report::Report::execution_error(
            report.header.clone(),
            "killed after exceeding expected run time",
        );
        let bad_report = format!(
            "<incaMessage kind=\"report\"><resource>{host}</resource><branch>{}</branch>\
             <payload>&lt;notAReport/&gt;</payload></incaMessage>",
            branch("bad.report")
        );
        let traced = ClientMessage::report(host, branch("traced"), &report)
            .with_trace(inca_obs::TraceContext { trace_id: 0xfeed, parent_span_id: 7 });
        let relayed = ClientMessage::report("leaf.behind.relay", branch("relayed"), &report)
            .with_origin("relay-west", 1)
            .with_via("relay-west");
        vec![
            (host.into(), stamped(host, 1)),                      // fresh
            (host.into(), stamped(host, 1)),                      // duplicate (daemon, seq)
            ("evil.example.com".into(), message("evil.example.com")), // host not allowed
            (host.into(), b"not a message".to_vec()),             // undecodable, allowed host
            ("evil.example.com".into(), vec![0xFF, 0xFE]),        // undecodable, other host
            (host.into(), bad_report.into_bytes()),               // payload is no report
            (host.into(), ClientMessage::error_report(host, branch("err"), &error).encode()),
            (host.into(), traced.encode()),
            ("relay-west".into(), relayed.encode()),
            (host.into(), stamped(host, 2)),                      // replaces the first branch
        ]
    }

    pub(crate) fn restrictive() -> HostAllowlist {
        HostAllowlist::from_entries(["*.teragrid.org", "relay-west"])
    }

    /// Everything admission can be observed by.
    #[derive(Debug, PartialEq)]
    pub(crate) struct Observed {
        /// Each reply, and whether it came with a depot timing.
        pub(crate) responses: Vec<(ServerResponse, bool)>,
        /// accepted, rejected{allowlist, decode, depot}, duplicates.
        pub(crate) counters: [Option<u64>; 5],
        pub(crate) duplicates: u64,
        pub(crate) error_reports: u64,
        pub(crate) document: String,
    }

    pub(crate) fn observed(
        controller: &CentralizedController,
        responses: Vec<(ServerResponse, Option<DepotTiming>)>,
    ) -> Observed {
        let metrics = controller.obs().metrics();
        let rejected =
            |reason| metrics.counter_value("inca_controller_rejected_total", &[("reason", reason)]);
        Observed {
            responses: responses.into_iter().map(|(r, timing)| (r, timing.is_some())).collect(),
            counters: [
                metrics.counter_value("inca_controller_accepted_total", &[]),
                rejected("allowlist"),
                rejected("decode"),
                rejected("depot"),
                metrics.counter_value("inca_depot_duplicates_total", &[]),
            ],
            duplicates: controller.duplicate_count(),
            error_reports: controller.error_report_count(),
            document: controller.with_depot(|d| d.cache().document().to_string()),
        }
    }

    #[test]
    fn bytes_and_decoded_entries_admit_identically() {
        let submissions = mixed_submissions();
        let decoded = || submissions.iter().map(|(h, p)| DecodedSubmission::new(h.as_str(), p));
        let now = Timestamp::from_secs(2_000);
        for allowlist in [HostAllowlist::allow_all(), restrictive()] {
            let fresh = || {
                CentralizedController::new(
                    ControllerConfig { allowlist: allowlist.clone(), ..Default::default() },
                    Depot::with_obs(inca_obs::Obs::new()),
                )
            };
            let c = fresh();
            let bytes_single = observed(
                &c,
                submissions.iter().map(|(h, p)| c.submit(h, p, now)).collect(),
            );
            let c = fresh();
            let bytes_batch = observed(&c, c.submit_batch(&submissions, now));
            let c = fresh();
            let decoded_batch = observed(&c, c.submit_batch_decoded(decoded(), now));
            assert_eq!(bytes_batch, bytes_single);
            assert_eq!(decoded_batch, bytes_single);

            // And the outcome is the intended one, not merely the same.
            let Observed { responses, counters, duplicates, error_reports, .. } = bytes_single;
            let acked: Vec<bool> =
                responses.iter().map(|(r, _)| *r == ServerResponse::Ack).collect();
            let restricted = allowlist != HostAllowlist::allow_all();
            assert_eq!(
                acked,
                [true, true, !restricted, false, false, false, true, true, true, true]
            );
            assert!(!responses[1].1, "the duplicate is acked without a depot pass");
            let refused = ServerResponse::Rejected("host evil.example.com not in allowlist".into());
            if restricted {
                // The allowlist answers before the decode error does.
                assert_eq!(responses[2].0, refused);
                assert_eq!(responses[4].0, refused);
                assert_eq!(counters, [Some(5), Some(2), Some(2), Some(0), Some(1)]);
            } else {
                assert_eq!(counters, [Some(6), Some(0), Some(3), Some(0), Some(1)]);
            }
            assert_eq!((duplicates, error_reports), (1, 1));
        }
    }

    #[test]
    fn undecodable_frame_from_a_socket_is_keyed_on_the_empty_host() {
        let submission = DecodedSubmission::from_frame(b"garbage");
        assert_eq!(submission.peer_host, "");
        assert_eq!(submission.payload_len, 7);
        let controller = CentralizedController::new(
            ControllerConfig { allowlist: restrictive(), ..Default::default() },
            Depot::with_obs(inca_obs::Obs::new()),
        );
        let responses = controller.submit_batch_decoded([submission], Timestamp::from_secs(0));
        assert_eq!(
            responses,
            [(ServerResponse::Rejected("host  not in allowlist".into()), None)]
        );
    }

    #[test]
    fn unstamped_messages_keep_legacy_semantics() {
        let controller =
            CentralizedController::new(ControllerConfig::default(), Depot::new());
        let payload = message("h");
        let now = Timestamp::from_secs(1_000);
        controller.submit("h", &payload, now);
        controller.submit("h", &payload, now);
        // No origin → no dedup: both ingests count (at-most-once as
        // before the spool existed).
        assert_eq!(controller.with_depot(|d| d.stats().report_count()), 2);
        assert_eq!(controller.duplicate_count(), 0);
    }

    #[test]
    fn stalled_client_is_reaped_not_wedged() {
        // A connection that opens and sends nothing must not hold a
        // worker thread past the idle timeout. We can't wait the full
        // 30 s in a unit test, so just prove the timeout is set and a
        // live submission still works alongside a stalled peer.
        let controller =
            Arc::new(CentralizedController::new(ControllerConfig::default(), Depot::new()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = controller.serve_tcp(listener).unwrap();
        let addr = handle.addr();
        let _stalled = TcpStream::connect(addr).unwrap(); // never writes
        let mut live = TcpStream::connect(addr).unwrap();
        write_frame(&mut live, &stamped("h", 1)).unwrap();
        let reply = read_frame(&mut live).unwrap();
        assert_eq!(ServerResponse::decode(&reply).unwrap(), ServerResponse::Ack);
        handle.stop();
    }

    #[test]
    fn tcp_roundtrip() {
        let controller =
            Arc::new(CentralizedController::new(ControllerConfig::default(), Depot::new()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = controller.serve_tcp(listener).unwrap();
        let addr = handle.addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        write_frame(&mut stream, &message("client.host.org")).unwrap();
        let reply = read_frame(&mut stream).unwrap();
        assert_eq!(ServerResponse::decode(&reply).unwrap(), ServerResponse::Ack);

        // Second submission over the same connection.
        write_frame(&mut stream, &message("client.host.org")).unwrap();
        let reply = read_frame(&mut stream).unwrap();
        assert_eq!(ServerResponse::decode(&reply).unwrap(), ServerResponse::Ack);
        drop(stream);

        // Give the worker a moment to finish, then check the depot.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(controller.with_depot(|d| d.stats().report_count()), 2);
        handle.stop();
    }

    #[test]
    fn tcp_concurrent_clients_serialize_safely() {
        let controller =
            Arc::new(CentralizedController::new(ControllerConfig::default(), Depot::new()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = controller.serve_tcp(listener).unwrap();
        let addr = handle.addr();
        let clients: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    for _ in 0..5 {
                        write_frame(&mut stream, &message(&format!("client{i}.org"))).unwrap();
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
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(controller.with_depot(|d| d.stats().report_count()), 20);
        // 4 distinct resources → 4 cached reports (same reporter each).
        assert_eq!(controller.with_depot(|d| d.cache().report_count()), 4);
        handle.stop();
    }
}
