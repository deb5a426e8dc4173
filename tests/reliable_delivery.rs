//! Exactly-once delivery over a real (flaky) TCP hop.
//!
//! Regression for the duplicate-on-lost-reply bug: the original
//! forwarder re-sent a report blindly whenever the server's ack was
//! lost, and the depot ingested it twice. With the spool stamping
//! `(daemon, seq)` and the server deduplicating, a lost reply now
//! costs a retry — never a duplicate insert.

use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use inca::controller::{Spool, SpoolConfig, TcpTransport, Transport};
use inca::prelude::*;
use inca::server::{CentralizedController, ControllerConfig};
use inca::wire::frame::{read_frame, write_frame};
use inca::wire::message::{ClientMessage, ServerResponse};

fn probe_message(n: u64) -> ClientMessage {
    let report = ReportBuilder::new("ping", "1.3")
        .body_value("status", "up")
        .body_value("n", n.to_string())
        .success()
        .unwrap();
    let branch: BranchId = format!("reporter=ping{n},resource=tg1,vo=tg").parse().unwrap();
    ClientMessage::report("tg-login1.sdsc.teragrid.org", branch, &report)
}

/// An "echo server" that ingests every framed submission into a real
/// centralized controller but *swallows the reply* for the first
/// `drop_replies` connections — the report lands in the depot, the
/// client sees a dead connection. Returns the bound address.
fn spawn_flaky_server(
    controller: Arc<CentralizedController>,
    drop_replies: usize,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let served = AtomicUsize::new(0);
    let handle = std::thread::spawn(move || {
        // Two connections are enough for the regression: one flaky,
        // one honest retry.
        for _ in 0..=drop_replies {
            let (mut stream, _) = listener.accept().unwrap();
            let payload = read_frame(&mut stream).unwrap();
            let resource = ClientMessage::decode(&payload).unwrap().resource;
            let (response, _) =
                controller.submit(&resource, &payload, Timestamp::from_secs(1_000));
            if served.fetch_add(1, Ordering::SeqCst) < drop_replies {
                // Ingested — but the ack never leaves the building.
                drop(stream);
                continue;
            }
            write_frame(&mut stream, &response.encode()).unwrap();
        }
    });
    (addr, handle)
}

#[test]
fn lost_reply_costs_a_retry_never_a_duplicate_insert() {
    let obs = Obs::new();
    let controller = Arc::new(CentralizedController::new(
        ControllerConfig::default(),
        Depot::with_obs(obs.clone()),
    ));
    // Two dropped replies: `TcpTransport::send` itself retries once
    // after a reconnect, so both internal attempts must fail for the
    // spool-level retry path to engage.
    let (addr, server) = spawn_flaky_server(Arc::clone(&controller), 2);

    let transport = TcpTransport::with_timeouts(
        addr,
        Duration::from_millis(500),
        Duration::from_millis(500),
    );
    let mut spool = Spool::new("tg-login1.sdsc.teragrid.org", SpoolConfig::default());
    let seq = spool.enqueue(probe_message(1));

    // Attempt 1: the server ingests (twice over the two internal
    // tries — the second already absorbed as a duplicate), but every
    // reply is swallowed; the transport surfaces an error and the
    // report stays spooled.
    let entry = spool.head_if_due(0).unwrap();
    assert!(transport.send(&entry.message).is_err(), "all replies must be lost");
    spool.nack(seq, 0);
    assert_eq!(spool.depth(), 1, "unacked report must stay queued");
    assert_eq!(controller.with_depot(|d| d.stats().report_count()), 1);

    // Attempt 2 (after backoff): the identical stamped message is
    // retransmitted; the server recognizes the seq and acks without
    // another insert.
    let retry = spool.due_prefix(u64::MAX, true).remove(0);
    assert_eq!(retry.attempts, 1);
    assert_eq!(retry.message, entry.message, "retry is byte-identical");
    match transport.send(&retry.message) {
        Ok(ServerResponse::Ack) => spool.ack(seq),
        other => panic!("retry must be acked, got {other:?}"),
    };
    assert!(spool.is_empty());
    server.join().unwrap();

    // Exactly one depot insert; both retransmissions were absorbed at
    // admission and counted.
    assert_eq!(controller.with_depot(|d| d.stats().report_count()), 1);
    assert_eq!(controller.with_depot(|d| d.cache().report_count()), 1);
    assert_eq!(controller.duplicate_count(), 2);
    assert_eq!(
        obs.metrics().counter_value("inca_depot_duplicates_total", &[]),
        Some(2)
    );
}

#[test]
fn reconnect_mid_spool_drain_converges_exactly_once_on_reactor() {
    // A daemon draining its spool into the reactor frontend loses its
    // connection halfway, reconnects (new TcpTransport, same daemon
    // identity), blindly retransmits the last in-flight message, and
    // finishes the drain. The reactor must multiplex the new
    // connection like any other and the seq dedup must flatten the
    // overlap: every report ingested exactly once.
    let obs = Obs::new();
    let controller = Arc::new(CentralizedController::new(
        ControllerConfig::default(),
        Depot::with_obs(obs.clone()),
    ));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = controller.serve_reactor(listener).unwrap();
    let addr = handle.addr();

    const TOTAL: u64 = 20;
    let mut spool = Spool::new("tg-login1.sdsc.teragrid.org", SpoolConfig::default());
    let seqs: Vec<u64> = (1..=TOTAL).map(|n| spool.enqueue(probe_message(n))).collect();
    let io = Duration::from_millis(500);

    // First half over connection #1.
    let transport = TcpTransport::with_timeouts(addr, io, io);
    let mut last_message = None;
    for seq in &seqs[..TOTAL as usize / 2] {
        let entry = spool.head_if_due(u64::MAX).unwrap();
        assert_eq!(entry.seq, *seq);
        assert_eq!(transport.send(&entry.message).unwrap(), ServerResponse::Ack);
        last_message = Some(entry.message.clone());
        spool.ack(*seq);
    }
    // The connection dies mid-drain (daemon restart, network blip).
    drop(transport);

    // Connection #2: the daemon cannot know whether its last ack was
    // real, so it retransmits the already-acked message first.
    let transport = TcpTransport::with_timeouts(addr, io, io);
    assert_eq!(
        transport.send(&last_message.unwrap()).unwrap(),
        ServerResponse::Ack,
        "retransmission after reconnect is acked idempotently"
    );
    for seq in &seqs[TOTAL as usize / 2..] {
        let entry = spool.head_if_due(u64::MAX).unwrap();
        assert_eq!(entry.seq, *seq);
        assert_eq!(transport.send(&entry.message).unwrap(), ServerResponse::Ack);
        spool.ack(*seq);
    }
    assert!(spool.is_empty(), "drain completed across the reconnect");
    handle.stop();

    assert_eq!(controller.with_depot(|d| d.stats().report_count()), TOTAL);
    assert_eq!(controller.with_depot(|d| d.cache().report_count()), TOTAL as usize);
    assert_eq!(controller.duplicate_count(), 1, "the blind retransmit was absorbed");
    assert_eq!(obs.metrics().counter_value("inca_depot_duplicates_total", &[]), Some(1));
}

#[test]
fn fresh_seqs_after_the_retry_still_ingest() {
    // The dedup window must absorb retransmissions without ever
    // rejecting genuinely new work from the same daemon.
    let obs = Obs::new();
    let controller = Arc::new(CentralizedController::new(
        ControllerConfig::default(),
        Depot::with_obs(obs),
    ));
    let mut spool = Spool::new("tg-login1.sdsc.teragrid.org", SpoolConfig::default());
    let now = Timestamp::from_secs(2_000);
    for n in 1..=3u64 {
        let seq = spool.enqueue(probe_message(n));
        let entry = spool.head_if_due(u64::MAX).unwrap();
        // Deliver twice: once "normally", once as a spurious retry.
        for _ in 0..2 {
            let (response, _) = controller.submit(
                "tg-login1.sdsc.teragrid.org",
                &entry.message.encode(),
                now,
            );
            assert!(matches!(response, ServerResponse::Ack));
        }
        spool.ack(seq);
    }
    assert_eq!(controller.with_depot(|d| d.stats().report_count()), 3);
    assert_eq!(controller.duplicate_count(), 3);
}
