//! Forwarding reports to the Inca server.
//!
//! "The distributed controller communicates a report to the Inca
//! server along with its branch identifier using a TCP connection"
//! (§3.1.3). [`Transport`] abstracts the connection so the daemon runs
//! identically against a live TCP server ([`TcpTransport`]) or an
//! in-process server inside the simulation harness.
//!
//! [`DepotRelay`] layers the daemon's exactly-once spool on top of a
//! transport for the federated tier: a partition depot acts as a
//! client toward its parent, forwarding rollups (and any other
//! reports) with the same `(daemon_id, seq)` stamping, head-of-line
//! retry, and durable dump/restore a leaf daemon gets.

use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use inca_obs::metrics::{Counter, Gauge};
use inca_obs::Obs;
use inca_report::BranchId;
use inca_wire::frame::{read_frame, write_frame, FrameError};
use inca_wire::message::{ClientMessage, ServerResponse};

use crate::spool::{Spool, SpoolConfig};

/// A connection to the centralized controller.
pub trait Transport: Send {
    /// Submits one message, returning the server's response.
    fn send(&self, message: &ClientMessage) -> Result<ServerResponse, String>;

    /// Submits a burst of messages, returning one result per message
    /// in order.
    ///
    /// The default loops over [`Transport::send`]; transports that can
    /// pipeline (write every frame, then collect every reply — which
    /// the server's reactor frontend turns into one depot batch)
    /// override it. A transport error mid-burst fails the remaining
    /// messages so the caller's spool retries them.
    fn send_many(&self, messages: &[&ClientMessage]) -> Vec<Result<ServerResponse, String>> {
        messages.iter().map(|m| self.send(m)).collect()
    }
}

/// TCP transport with lazy connect, per-attempt socket timeouts, and
/// one reconnect attempt.
pub struct TcpTransport {
    addr: SocketAddr,
    stream: Mutex<Option<TcpStream>>,
    /// Per-attempt socket deadlines. Without them a stalled server
    /// wedges the daemon forever inside `read_frame`; with them a hung
    /// attempt surfaces as a transport error, the spool backs off, and
    /// the report is retried.
    read_timeout: Duration,
    write_timeout: Duration,
}

/// Default per-attempt socket deadline for [`TcpTransport`].
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(10);

impl TcpTransport {
    /// A transport to the given server address (connects on first
    /// send) with the default 10 s read/write timeouts.
    pub fn new(addr: SocketAddr) -> TcpTransport {
        TcpTransport::with_timeouts(addr, DEFAULT_IO_TIMEOUT, DEFAULT_IO_TIMEOUT)
    }

    /// A transport with explicit per-attempt socket deadlines.
    pub fn with_timeouts(
        addr: SocketAddr,
        read_timeout: Duration,
        write_timeout: Duration,
    ) -> TcpTransport {
        TcpTransport { addr, stream: Mutex::new(None), read_timeout, write_timeout }
    }

    /// Writes every frame, then reads every reply — one network round
    /// trip of latency for the whole burst instead of one per message.
    /// Any failure poisons the connection and fails the rest of the
    /// burst (the spool retries; server-side seq dedup absorbs any
    /// message that actually landed).
    fn send_many_once(&self, payloads: &[Vec<u8>]) -> Vec<Result<ServerResponse, String>> {
        let mut guard = self.stream.lock().expect("transport mutex");
        let mut results: Vec<Result<ServerResponse, String>> = Vec::with_capacity(payloads.len());
        let fail_rest = |results: &mut Vec<Result<ServerResponse, String>>, n: usize, e: String| {
            while results.len() < n {
                results.push(Err(e.clone()));
            }
        };
        if guard.is_none() {
            match TcpStream::connect_timeout(&self.addr, self.write_timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    if let Err(e) = stream
                        .set_read_timeout(Some(self.read_timeout))
                        .and_then(|()| stream.set_write_timeout(Some(self.write_timeout)))
                    {
                        fail_rest(&mut results, payloads.len(), format!("set timeouts: {e}"));
                        return results;
                    }
                    *guard = Some(stream);
                }
                Err(e) => {
                    fail_rest(&mut results, payloads.len(), format!("connect {}: {e}", self.addr));
                    return results;
                }
            }
        }
        let stream = guard.as_mut().expect("just connected");
        for payload in payloads {
            if let Err(e) = write_frame(stream, payload) {
                *guard = None;
                fail_rest(&mut results, payloads.len(), format!("send: {e}"));
                return results;
            }
        }
        for _ in 0..payloads.len() {
            match read_frame(stream) {
                Ok(reply) => match ServerResponse::decode(&reply) {
                    Ok(response) => results.push(Ok(response)),
                    Err(e) => {
                        // A reply that does not decode means the stream
                        // is desynchronized — subsequent frames cannot
                        // be trusted to pair with this burst's messages,
                        // and a whole-burst retry on the same socket
                        // would pair the dead stream's late replies with
                        // the next burst's seqs. Poison the connection
                        // and fail the remainder like any other
                        // transport error.
                        *guard = None;
                        fail_rest(&mut results, payloads.len(), format!("bad reply: {e}"));
                        return results;
                    }
                },
                Err(FrameError::Closed) => {
                    *guard = None;
                    fail_rest(&mut results, payloads.len(), "server closed connection".into());
                    return results;
                }
                Err(e) => {
                    *guard = None;
                    fail_rest(&mut results, payloads.len(), format!("recv: {e}"));
                    return results;
                }
            }
        }
        results
    }
}

impl Transport for TcpTransport {
    /// A burst of one.
    fn send(&self, message: &ClientMessage) -> Result<ServerResponse, String> {
        self.send_many(&[message]).pop().expect("one result per message")
    }

    fn send_many(&self, messages: &[&ClientMessage]) -> Vec<Result<ServerResponse, String>> {
        let payloads: Vec<Vec<u8>> = messages.iter().map(|m| m.encode()).collect();
        let results = self.send_many_once(&payloads);
        if results.iter().all(|r| r.is_ok()) {
            return results;
        }
        // One whole-burst retry after reconnect, as a long-lived daemon
        // would; the server's seq dedup makes re-sending acked messages
        // harmless.
        self.send_many_once(&payloads)
    }
}

/// Tally of one [`DepotRelay::deliver_due`] pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RelayOutcome {
    /// Messages acknowledged by the parent (ingested exactly once).
    pub delivered: usize,
    /// Messages the parent rejected permanently (dropped, no retry).
    pub rejected: usize,
    /// Transport failures left queued for backoff retry.
    pub failed: usize,
}

/// Exactly-once forwarding client of one federated depot.
///
/// A partition depot is a server toward its sites and a *client*
/// toward its parent: this relay wraps the daemon [`Spool`] around a
/// [`Transport`] so depot-to-depot hops inherit the whole
/// exactly-once contract — durable enqueue before any send, stamped
/// `(depot_id, seq)` identities the parent's `DedupIndex` absorbs
/// retries against, head-of-line capped-backoff retry, and
/// dump/restore across depot restarts. Every forwarded message is
/// additionally stamped `via = depot_id` so the parent authenticates
/// the hop (relay on the allowlist) independently of the leaf
/// `resource` that produced the report.
pub struct DepotRelay {
    spool: Spool,
    transport: Box<dyn Transport>,
    forwarded: Arc<Counter>,
    retries: Arc<Counter>,
    depth: Arc<Gauge>,
}

impl DepotRelay {
    /// A relay identified as `depot_id` toward the parent behind
    /// `transport`. Metrics are labelled `relay="depot_id"` so a
    /// process hosting several partitions keeps them apart.
    pub fn new(
        depot_id: impl Into<String>,
        config: SpoolConfig,
        transport: Box<dyn Transport>,
        obs: &Obs,
    ) -> DepotRelay {
        let depot_id = depot_id.into();
        let spool = Spool::new(depot_id, config);
        DepotRelay::with_spool(spool, transport, obs)
    }

    fn with_spool(spool: Spool, transport: Box<dyn Transport>, obs: &Obs) -> DepotRelay {
        let metrics = obs.metrics();
        let label = [("relay", spool.daemon_id())];
        let forwarded = metrics.counter_with(
            "inca_fed_forwarded_total",
            &label,
            "Messages this depot relay delivered to its parent (acked).",
        );
        let retries = metrics.counter_with(
            "inca_fed_forward_retries_total",
            &label,
            "Forwarding attempts that failed and were left for backoff retry.",
        );
        let depth = metrics.gauge_with(
            "inca_fed_relay_depth",
            &label,
            "Messages queued in this depot relay's spool.",
        );
        depth.set(spool.depth() as f64);
        DepotRelay { spool, transport, forwarded, retries, depth }
    }

    /// The identity stamped on every forwarded message.
    pub fn depot_id(&self) -> &str {
        self.spool.daemon_id()
    }

    /// Messages queued awaiting parent acknowledgement.
    pub fn depth(&self) -> usize {
        self.spool.depth()
    }

    /// True when nothing is awaiting delivery.
    pub fn is_empty(&self) -> bool {
        self.spool.is_empty()
    }

    /// Queues `message` for delivery, stamping origin and hop,
    /// returning the assigned seq.
    pub fn enqueue(&mut self, message: ClientMessage) -> u64 {
        let message = message.with_via(self.spool.daemon_id().to_string());
        let seq = self.spool.enqueue(message);
        self.depth.set(self.spool.depth() as f64);
        seq
    }

    /// Queues `message` after dropping any never-sent queued message
    /// of the same branch ([`Spool::supersede`]): the variant for
    /// last-writer-wins data like periodic rollups, where a parent
    /// recovering from a partition wants the freshest value per
    /// branch, not a replay of every superseded one.
    pub fn enqueue_latest(&mut self, message: ClientMessage) -> u64 {
        self.spool.supersede(&message.branch);
        self.enqueue(message)
    }

    /// Sends every due message (head-of-line order), resolving each
    /// reply against the spool: ack removes, reject drops permanently,
    /// a transport failure backs the entry off for retry. Returns the
    /// pass's tally.
    pub fn deliver_due(&mut self, now_secs: u64) -> RelayOutcome {
        let due = self.spool.due_prefix(now_secs, false);
        let mut outcome = RelayOutcome::default();
        if due.is_empty() {
            return outcome;
        }
        let refs: Vec<&ClientMessage> = due.iter().map(|e| &e.message).collect();
        let results = self.transport.send_many(&refs);
        for (entry, result) in due.iter().zip(results) {
            match result {
                Ok(ServerResponse::Ack) => {
                    self.spool.ack(entry.seq);
                    self.forwarded.inc();
                    outcome.delivered += 1;
                }
                Ok(ServerResponse::Rejected(_)) => {
                    self.spool.reject(entry.seq);
                    outcome.rejected += 1;
                }
                Err(_) => {
                    self.spool.nack(entry.seq, now_secs);
                    self.retries.inc();
                    outcome.failed += 1;
                }
            }
        }
        self.depth.set(self.spool.depth() as f64);
        outcome
    }

    /// Earliest second the next delivery may run (`None` when empty).
    pub fn next_due_secs(&self) -> Option<u64> {
        self.spool.next_due_secs()
    }

    /// Drops never-sent queued messages for `branch`; see
    /// [`Spool::supersede`].
    pub fn supersede(&mut self, branch: &BranchId) -> usize {
        let dropped = self.spool.supersede(branch);
        self.depth.set(self.spool.depth() as f64);
        dropped
    }

    /// Serializes the relay's spool (identity, seq counter, queue) for
    /// durable storage across depot restarts.
    pub fn dump(&self) -> Vec<u8> {
        self.spool.dump()
    }

    /// Restores a relay from [`DepotRelay::dump`] bytes. The restored
    /// relay retries immediately, like a restarted daemon.
    pub fn restore(
        bytes: &[u8],
        config: SpoolConfig,
        transport: Box<dyn Transport>,
        obs: &Obs,
    ) -> Result<DepotRelay, String> {
        let spool = Spool::restore(bytes, config)?;
        Ok(DepotRelay::with_spool(spool, transport, obs))
    }
}

/// Test/simulation transport that records every message and answers
/// with a fixed response.
#[derive(Default)]
pub struct CollectingTransport {
    /// Messages in submission order.
    pub sent: Mutex<Vec<ClientMessage>>,
    /// Response returned for every send (`None` = Ack).
    pub respond_with: Option<ServerResponse>,
}

impl CollectingTransport {
    /// A transport that acks everything.
    pub fn new() -> CollectingTransport {
        CollectingTransport::default()
    }

    /// Number of messages sent so far.
    pub fn sent_count(&self) -> usize {
        self.sent.lock().expect("mutex").len()
    }

    /// Clones out the sent messages.
    pub fn take_sent(&self) -> Vec<ClientMessage> {
        std::mem::take(&mut *self.sent.lock().expect("mutex"))
    }
}

impl Transport for CollectingTransport {
    fn send(&self, message: &ClientMessage) -> Result<ServerResponse, String> {
        self.sent.lock().expect("mutex").push(message.clone());
        Ok(self.respond_with.clone().unwrap_or(ServerResponse::Ack))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_report::{BranchId, ReportBuilder};

    fn message() -> ClientMessage {
        let report = ReportBuilder::new("r", "1").success().unwrap();
        let branch: BranchId = "reporter=r,vo=tg".parse().unwrap();
        ClientMessage::report("h", branch, &report)
    }

    #[test]
    fn collecting_transport_records() {
        let t = CollectingTransport::new();
        assert_eq!(t.send(&message()).unwrap(), ServerResponse::Ack);
        assert_eq!(t.send(&message()).unwrap(), ServerResponse::Ack);
        assert_eq!(t.sent_count(), 2);
        assert_eq!(t.take_sent().len(), 2);
        assert_eq!(t.sent_count(), 0);
    }

    #[test]
    fn collecting_transport_custom_response() {
        let t = CollectingTransport {
            respond_with: Some(ServerResponse::Rejected("no".into())),
            ..Default::default()
        };
        assert!(matches!(t.send(&message()), Ok(ServerResponse::Rejected(_))));
    }

    #[test]
    fn tcp_transport_errors_without_server() {
        // Port 1 on localhost is essentially never listening.
        let t = TcpTransport::new("127.0.0.1:1".parse().unwrap());
        assert!(t.send(&message()).is_err());
    }

    #[test]
    fn tcp_transport_times_out_on_stalled_server() {
        use std::net::TcpListener;
        use std::time::Instant;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // A server that accepts, reads, and then never replies — the
        // stalled-peer shape that used to wedge a daemon forever.
        let server = std::thread::spawn(move || {
            let mut held = Vec::new();
            // Two connections: the initial send and the reconnect retry.
            for _ in 0..2 {
                if let Ok((mut stream, _)) = listener.accept() {
                    let _ = read_frame(&mut stream);
                    held.push(stream); // keep open, never reply
                }
            }
        });
        let timeout = Duration::from_millis(200);
        let t = TcpTransport::with_timeouts(addr, timeout, timeout);
        let started = Instant::now();
        let result = t.send(&message());
        assert!(result.is_err(), "a stalled server is a transport error, not a hang");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "timed out promptly instead of blocking in read_frame"
        );
        drop(t);
        server.join().unwrap();
    }

    #[test]
    fn send_many_default_loops_over_send() {
        let t = CollectingTransport::new();
        let (a, b) = (message(), message());
        let results = t.send_many(&[&a, &b]);
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.as_ref().unwrap() == &ServerResponse::Ack));
        assert_eq!(t.sent_count(), 2);
    }

    #[test]
    fn tcp_send_many_pipelines_one_connection() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // The server reads all frames before answering any: only a
        // pipelined client (write all, then read all) completes this —
        // a request-response loop would deadlock on the first reply.
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut n = 0;
            while n < 5 {
                let _ = read_frame(&mut stream).unwrap();
                n += 1;
            }
            for _ in 0..n {
                write_frame(&mut stream, &ServerResponse::Ack.encode()).unwrap();
            }
        });
        let t = TcpTransport::new(addr);
        let msgs: Vec<ClientMessage> = (0..5).map(|_| message()).collect();
        let refs: Vec<&ClientMessage> = msgs.iter().collect();
        let results = t.send_many(&refs);
        assert_eq!(results.len(), 5);
        assert!(results.iter().all(|r| r.as_ref().unwrap() == &ServerResponse::Ack));
        server.join().unwrap();
    }

    #[test]
    fn tcp_send_many_fails_remainder_on_cut_connection() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Both the initial attempt and the reconnect retry get a server
        // that drains the whole burst, acks only two, and hangs up
        // cleanly (draining first avoids a RST that could discard the
        // acks in flight).
        let server = std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut stream, _) = listener.accept().unwrap();
                for _ in 0..4 {
                    let _ = read_frame(&mut stream);
                }
                for _ in 0..2 {
                    let _ = write_frame(&mut stream, &ServerResponse::Ack.encode());
                }
            }
        });
        let t = TcpTransport::new(addr);
        let msgs: Vec<ClientMessage> = (0..4).map(|_| message()).collect();
        let refs: Vec<&ClientMessage> = msgs.iter().collect();
        let results = t.send_many(&refs);
        assert_eq!(results.len(), 4);
        assert!(results[0].is_ok() && results[1].is_ok());
        assert!(results[2].is_err() && results[3].is_err(), "cut burst fails the remainder");
        server.join().unwrap();
    }

    /// Regression: a garbled reply mid-burst used to leave the stream
    /// connected — the decode error was recorded but reads continued,
    /// and the whole-burst retry in `send_many` then reused the
    /// desynchronized socket, pairing the dead stream's late replies
    /// with the next burst's messages. The transport must poison the
    /// connection on a bad reply, fail the remainder cleanly, and run
    /// the retry on a fresh connection whose replies pair correctly.
    #[test]
    fn tcp_send_many_reconnects_cleanly_after_garbled_reply() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Distinct reply markers per connection so any mis-pairing of
        // first-connection replies with retry messages is visible in
        // the results.
        let server = std::thread::spawn(move || {
            let (mut first, _) = listener.accept().unwrap();
            for _ in 0..4 {
                read_frame(&mut first).unwrap();
            }
            write_frame(&mut first, &ServerResponse::Rejected("a0".into()).encode()).unwrap();
            write_frame(&mut first, b"!!not a server response!!").unwrap();
            // Late valid replies on the now-tainted stream: the old
            // code read these, the fixed client must never see them.
            // The client may already have hung up, so a failed write
            // here is the fix working, not an error.
            let _ = write_frame(&mut first, &ServerResponse::Rejected("a2".into()).encode());
            let _ = write_frame(&mut first, &ServerResponse::Rejected("a3".into()).encode());
            // The retry must arrive on a fresh connection.
            let (mut second, _) = listener.accept().unwrap();
            for _ in 0..4 {
                read_frame(&mut second).unwrap();
            }
            for i in 0..4 {
                write_frame(&mut second, &ServerResponse::Rejected(format!("b{i}")).encode())
                    .unwrap();
            }
            drop(first);
        });
        let timeout = Duration::from_secs(5);
        let t = TcpTransport::with_timeouts(addr, timeout, timeout);
        let msgs: Vec<ClientMessage> = (0..4).map(|_| message()).collect();
        let refs: Vec<&ClientMessage> = msgs.iter().collect();
        let results = t.send_many(&refs);
        let got: Vec<String> = results
            .into_iter()
            .map(|r| match r.unwrap() {
                ServerResponse::Rejected(marker) => marker,
                other => panic!("unexpected reply {other:?}"),
            })
            .collect();
        assert_eq!(
            got,
            vec!["b0", "b1", "b2", "b3"],
            "retry replies must come from the fresh connection, in order"
        );
        server.join().unwrap();
    }

    /// Transport that fails the first `failures` sends, then acks.
    struct FlakyTransport {
        failures: std::cell::Cell<usize>,
        sent: Mutex<Vec<ClientMessage>>,
    }

    // Single-threaded test helper; Cell is fine behind this promise.
    unsafe impl Send for FlakyTransport {}

    impl Transport for FlakyTransport {
        fn send(&self, message: &ClientMessage) -> Result<ServerResponse, String> {
            self.sent.lock().unwrap().push(message.clone());
            if self.failures.get() > 0 {
                self.failures.set(self.failures.get() - 1);
                return Err("link down".into());
            }
            Ok(ServerResponse::Ack)
        }
    }

    #[test]
    fn relay_stamps_origin_and_via_and_delivers() {
        let obs = Obs::new();
        let mut relay = DepotRelay::new(
            "depot-west",
            SpoolConfig::default(),
            Box::new(CollectingTransport::new()),
            &obs,
        );
        relay.enqueue(message());
        relay.enqueue(message());
        let outcome = relay.deliver_due(0);
        assert_eq!(outcome, RelayOutcome { delivered: 2, rejected: 0, failed: 0 });
        assert!(relay.is_empty());
    }

    #[test]
    fn relay_backs_off_failed_sends_and_retries_to_delivery() {
        let obs = Obs::new();
        let transport = Box::new(FlakyTransport {
            failures: std::cell::Cell::new(1),
            sent: Mutex::new(Vec::new()),
        });
        let mut relay =
            DepotRelay::new("depot-west", SpoolConfig::default(), transport, &obs);
        relay.enqueue(message());
        let outcome = relay.deliver_due(0);
        assert_eq!(outcome.failed, 1);
        assert_eq!(relay.depth(), 1, "failed message stays queued");
        assert_eq!(relay.deliver_due(0).delivered, 0, "backoff gates the retry");
        let due_at = relay.next_due_secs().unwrap();
        let outcome = relay.deliver_due(due_at);
        assert_eq!(outcome.delivered, 1);
        assert!(relay.is_empty());
    }

    #[test]
    fn relay_rejected_messages_are_dropped_not_retried() {
        let obs = Obs::new();
        let transport = Box::new(CollectingTransport {
            respond_with: Some(ServerResponse::Rejected("no".into())),
            ..Default::default()
        });
        let mut relay =
            DepotRelay::new("depot-west", SpoolConfig::default(), transport, &obs);
        relay.enqueue(message());
        let outcome = relay.deliver_due(0);
        assert_eq!(outcome.rejected, 1);
        assert!(relay.is_empty(), "a rejected message would only be rejected again");
    }

    #[test]
    fn relay_enqueue_latest_supersedes_unsent_same_branch() {
        let obs = Obs::new();
        let mut relay = DepotRelay::new(
            "depot-west",
            SpoolConfig::default(),
            Box::new(CollectingTransport::new()),
            &obs,
        );
        relay.enqueue_latest(message());
        relay.enqueue_latest(message()); // same branch: replaces the first
        assert_eq!(relay.depth(), 1);
        assert_eq!(relay.deliver_due(0).delivered, 1);
    }

    #[test]
    fn relay_dump_restore_keeps_identity_and_queue() {
        let obs = Obs::new();
        let mut relay = DepotRelay::new(
            "depot-west",
            SpoolConfig::default(),
            Box::new(CollectingTransport {
                respond_with: Some(ServerResponse::Rejected("down".into())),
                ..Default::default()
            }),
            &obs,
        );
        relay.enqueue(message());
        let failing = Box::new(FlakyTransport {
            failures: std::cell::Cell::new(1),
            sent: Mutex::new(Vec::new()),
        });
        let mut relay2 =
            DepotRelay::restore(&relay.dump(), SpoolConfig::default(), failing, &obs).unwrap();
        assert_eq!(relay2.depot_id(), "depot-west");
        assert_eq!(relay2.depth(), 1);
        // Seq counter survives: the next enqueue does not reuse seq 1.
        assert_eq!(relay2.enqueue(message()), 2);
        let sent = relay2.deliver_due(0);
        assert_eq!(sent.failed + sent.delivered, 2);
    }

    #[test]
    fn tcp_transport_roundtrip_against_echo_server() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            for _ in 0..2 {
                let _req = read_frame(&mut stream).unwrap();
                write_frame(&mut stream, &ServerResponse::Ack.encode()).unwrap();
            }
        });
        let t = TcpTransport::new(addr);
        assert_eq!(t.send(&message()).unwrap(), ServerResponse::Ack);
        assert_eq!(t.send(&message()).unwrap(), ServerResponse::Ack);
        server.join().unwrap();
    }
}
