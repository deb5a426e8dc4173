//! The reactor front end admits like the in-process controller.
//!
//! The in-process [`CentralizedController::submit_batch_decoded`] is
//! the reference. This suite drives the reactor through the public TCP
//! surface under a seeded connection-chaos schedule (mid-burst
//! disconnects, lost acks, blind retransmissions) and requires its
//! final depot document to equal, byte for byte, the one built by
//! submitting the same messages straight to the controller — while the
//! reactor side runs the zero-copy `EnvelopeMode::Binary` depot leg and
//! the reference the XML `EnvelopeMode::Body` one. It also checks
//! multiplexing, oversize frames, and that the reactor's connection
//! count stays bounded under connection churn.

use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use inca::prelude::*;
use inca::server::{CentralizedController, ControllerConfig, DecodedSubmission};
use inca::wire::envelope::EnvelopeMode;
use inca::wire::frame::{read_frame, write_frame, FrameError};
use inca::wire::message::{ClientMessage, ServerResponse};

/// Deterministic xorshift chaos source — same schedule every run.
struct Chaos(u64);

impl Chaos {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.next().is_multiple_of(n)
    }
}

/// A stamped submission: daemon `daemon` reporting for one of five
/// rotating reporters, so later seqs replace earlier branches and the
/// final document depends on per-daemon delivery order being preserved.
fn stamped(daemon: &str, seq: u64) -> ClientMessage {
    let report = ReportBuilder::new(format!("probe.r{}", seq % 5), "1.0")
        .host(daemon)
        .gmt(Timestamp::from_secs(1_000 + seq))
        .body_value("seq", seq.to_string())
        .success()
        .unwrap();
    let branch: BranchId =
        format!("reporter=probe.r{},resource={daemon},vo=tg", seq % 5).parse().unwrap();
    ClientMessage::report(daemon, branch, &report).with_origin(daemon, seq)
}

fn controller_with(mode: EnvelopeMode) -> Arc<CentralizedController> {
    Arc::new(CentralizedController::new(
        ControllerConfig { envelope_mode: mode, ..ControllerConfig::default() },
        Depot::with_obs(Obs::new()),
    ))
}

fn loopback() -> TcpListener {
    TcpListener::bind("127.0.0.1:0").unwrap()
}

/// Sends one framed message and waits for the reply.
fn call(stream: &mut TcpStream, message: &ClientMessage) -> Result<ServerResponse, String> {
    write_frame(stream, &message.encode()).map_err(|e| e.to_string())?;
    let reply = read_frame(stream).map_err(|e| e.to_string())?;
    ServerResponse::decode(&reply).map_err(|e| e.to_string())
}

#[test]
fn frontends_converge_byte_identical_under_connection_chaos() {
    const DAEMONS: usize = 4;
    const SEQS: u64 = 12;

    // Reference: every message straight into the controller, in each
    // daemon's order, with XML envelopes.
    let direct = controller_with(EnvelopeMode::Body);
    for d in 0..DAEMONS {
        let daemon = format!("d{d}.teragrid.org");
        let frames =
            (1..=SEQS).map(|seq| DecodedSubmission::from_frame(&stamped(&daemon, seq).encode()));
        let acks = direct.submit_batch_decoded(frames, Timestamp::from_secs(1_000));
        assert!(acks.iter().all(|(r, _)| *r == ServerResponse::Ack));
    }
    let direct_doc = direct.with_depot(|d| d.cache().document().to_string());

    // Reactor under chaos, on the zero-copy binary depot leg. Each
    // daemon walks its seq window in order; the chaos schedule cuts
    // connections before or after the ack and injects blind
    // retransmissions — at-least-once delivery, which the server's seq
    // dedup must flatten back to exactly-once.
    let reactor = controller_with(EnvelopeMode::Binary);
    let reactor_handle = reactor.serve_reactor(loopback()).unwrap();
    let addr = reactor_handle.addr();
    let mut chaos = Chaos(0x1ca_2004);
    let mut retransmissions = 0u64;
    for d in 0..DAEMONS {
        let daemon = format!("d{d}.teragrid.org");
        let mut stream = TcpStream::connect(addr).unwrap();
        for seq in 1..=SEQS {
            let message = stamped(&daemon, seq);
            // Chaos: send the frame, then sever the connection without
            // reading the ack — the message may or may not have been
            // ingested; the daemon must retransmit blindly.
            if chaos.one_in(4) {
                let _ = write_frame(&mut stream, &message.encode());
                drop(stream);
                stream = TcpStream::connect(addr).unwrap();
                retransmissions += 1;
            }
            loop {
                match call(&mut stream, &message) {
                    Ok(ServerResponse::Ack) => break,
                    Ok(other) => panic!("unexpected response {other:?}"),
                    // A cut connection surfaces mid-call; reconnect
                    // and retry the same stamped message.
                    Err(_) => stream = TcpStream::connect(addr).unwrap(),
                }
            }
            // Chaos: a spurious duplicate after the ack landed.
            if chaos.one_in(5) {
                assert_eq!(call(&mut stream, &message).unwrap(), ServerResponse::Ack);
                retransmissions += 1;
            }
        }
    }
    assert!(retransmissions > 0, "chaos schedule must actually inject faults");
    reactor_handle.stop();

    let reactor_doc = reactor.with_depot(|d| d.cache().document().to_string());
    assert_eq!(
        reactor_doc, direct_doc,
        "chaos run on the reactor must converge to the in-process document"
    );
    assert_eq!(
        reactor.with_depot(|d| d.stats().report_count()),
        (DAEMONS as u64) * SEQS,
        "every (daemon, seq) ingests exactly once"
    );
    assert!(
        reactor.duplicate_count() >= retransmissions / 2,
        "retransmissions of ingested seqs are absorbed by dedup, not re-inserted"
    );
}

#[test]
fn reactor_multiplexes_many_connections_through_the_public_surface() {
    let controller = controller_with(EnvelopeMode::Binary);
    let handle = controller.serve_reactor(loopback()).unwrap();
    let addr = handle.addr();
    let clients: Vec<_> = (0..16)
        .map(|d| {
            std::thread::spawn(move || {
                let daemon = format!("m{d}.teragrid.org");
                let mut stream = TcpStream::connect(addr).unwrap();
                for seq in 1..=8 {
                    assert_eq!(
                        call(&mut stream, &stamped(&daemon, seq)).unwrap(),
                        ServerResponse::Ack
                    );
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    assert_eq!(controller.with_depot(|d| d.stats().report_count()), 16 * 8);
    // 16 daemons × 5 rotating reporters = 80 live branches.
    assert_eq!(controller.with_depot(|d| d.cache().report_count()), 16 * 5);
    handle.stop();
}

#[test]
fn reactor_connection_count_stays_bounded_under_connection_churn() {
    let controller = controller_with(EnvelopeMode::Body);
    let handle = controller.serve_reactor(loopback()).unwrap();
    let addr = handle.addr();
    const CYCLES: usize = 30;
    for seq in 1..=CYCLES as u64 {
        let mut stream = TcpStream::connect(addr).unwrap();
        assert_eq!(
            call(&mut stream, &stamped("churn.teragrid.org", seq)).unwrap(),
            ServerResponse::Ack
        );
        drop(stream); // the reactor must close its end on EOF
    }
    // Closing on EOF is the reactor's next pass; poll for it.
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.connection_count() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        handle.connection_count(),
        0,
        "connections held after churn of {CYCLES} closed ones"
    );
    assert_eq!(controller.with_depot(|d| d.stats().report_count()), CYCLES as u64);
    handle.stop();
}

#[test]
fn reactor_rejects_oversize_frames_then_closes() {
    use std::io::Write;
    let controller = controller_with(EnvelopeMode::Body);
    let handle = controller.serve_reactor(loopback()).unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .write_all(&((inca::wire::frame::MAX_FRAME_LEN as u32) + 1).to_be_bytes())
        .unwrap();
    let reply = read_frame(&mut stream).unwrap();
    assert!(matches!(ServerResponse::decode(&reply).unwrap(), ServerResponse::Rejected(_)));
    assert!(matches!(read_frame(&mut stream), Err(FrameError::Closed)));
    handle.stop();
}
