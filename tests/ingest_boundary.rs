//! The front-end → controller boundary carries a decoded message.
//!
//! Every route that receives bytes — the reactor, the federation —
//! decodes each frame exactly once and hands the controller the
//! decoded `ClientMessage`; the simulator, whose messages never leave
//! the process, decodes nothing. The decode-count tests pin both with
//! the debug counter in `inca_wire::message`. The relay test drives a
//! real `DepotRelay` → `TcpTransport` hop into the reactor of a parent
//! whose allowlist names only the relay: the boundary's single
//! allowlist key (`ClientMessage::allowlist_key`) must honour `via`.
//!
//! The decode counter is process-wide, so every test here that makes
//! the server decode holds [`SERIAL`] for its whole body.

use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex, MutexGuard};

use inca::controller::{DepotRelay, SpoolConfig, TcpTransport, Transport};
use inca::prelude::*;
use inca::server::{CentralizedController, ControllerConfig};
use inca::wire::message::{ClientMessage, ServerResponse};
use inca::wire::HostAllowlist;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn stamped(daemon: &str, seq: u64) -> ClientMessage {
    let report = ReportBuilder::new(format!("probe.r{}", seq % 3), "1.0")
        .host(daemon)
        .gmt(Timestamp::from_secs(1_000 + seq))
        .body_value("seq", seq.to_string())
        .success()
        .unwrap();
    let branch: BranchId =
        format!("reporter=probe.r{},resource={daemon},site=s{},vo=tg", seq % 3, seq % 4)
            .parse()
            .unwrap();
    ClientMessage::report(daemon, branch, &report).with_origin(daemon, seq)
}

fn controller_with(allowlist: HostAllowlist) -> Arc<CentralizedController> {
    Arc::new(CentralizedController::new(
        ControllerConfig { allowlist, ..ControllerConfig::default() },
        Depot::with_obs(Obs::new()),
    ))
}

fn loopback() -> TcpListener {
    TcpListener::bind("127.0.0.1:0").unwrap()
}

/// Runs `check` against a fresh controller served by the reactor.
/// `check` gets the controller and the bound address.
fn on_reactor(allowlist: HostAllowlist, check: impl Fn(&Arc<CentralizedController>, SocketAddr)) {
    let controller = controller_with(allowlist);
    let reactor = controller.serve_reactor(loopback()).unwrap();
    check(&controller, reactor.addr());
    reactor.stop();
}

#[cfg(debug_assertions)]
mod decode_once {
    use super::*;
    use std::io::Write;
    use std::net::TcpStream;

    use inca::server::{Federation, FederationConfig};
    use inca::wire::frame::{read_frame, write_frame};
    use inca::wire::message::decode_calls;

    /// Fresh, retransmitted and undecodable payloads: the count must
    /// hold whatever admission then does with the frame.
    fn payloads() -> Vec<Vec<u8>> {
        let mut payloads: Vec<Vec<u8>> =
            (1..=24).map(|seq| stamped("daemon-a", seq).encode()).collect();
        payloads.push(stamped("daemon-a", 3).encode()); // duplicate (daemon, seq)
        payloads.push(b"<incaMessage>truncated".to_vec());
        payloads.push(vec![0xFF, 0xFE, 0x00]);
        payloads
    }

    #[test]
    fn tcp_frontends_decode_each_frame_exactly_once() {
        let _guard = serial();
        let payloads = payloads();
        on_reactor(HostAllowlist::allow_all(), |controller, addr| {
            let before = decode_calls();
            // Two connections, each pipelining its half in one write.
            let halves = payloads.split_at(payloads.len() / 2);
            let mut acked = 0;
            for half in [halves.0, halves.1] {
                let mut stream = TcpStream::connect(addr).unwrap();
                let mut wire = Vec::new();
                for payload in half {
                    write_frame(&mut wire, payload).unwrap();
                }
                stream.write_all(&wire).unwrap();
                for _ in half {
                    let reply = ServerResponse::decode(&read_frame(&mut stream).unwrap()).unwrap();
                    acked += usize::from(reply == ServerResponse::Ack);
                }
            }
            assert_eq!(
                decode_calls() - before,
                payloads.len() as u64,
                "one ClientMessage::decode per received frame"
            );
            assert_eq!(acked, payloads.len() - 2);
            assert_eq!(controller.with_depot(|d| d.report_count()), 24);
        });
    }

    #[test]
    fn federation_decodes_each_payload_exactly_once() {
        let _guard = serial();
        let submissions: Vec<(String, Vec<u8>)> =
            payloads().into_iter().map(|p| ("daemon-a".to_string(), p)).collect();
        let now = Timestamp::from_secs(2_000);
        let fed = Federation::new(FederationConfig::default(), Obs::new());
        let before = decode_calls();
        let burst = fed.submit_batch(&submissions, now);
        assert_eq!(decode_calls() - before, submissions.len() as u64, "one burst");
        assert_eq!(burst.iter().filter(|(r, _)| *r == ServerResponse::Ack).count(), 25);

        let fed = Federation::new(FederationConfig::default(), Obs::new());
        let before = decode_calls();
        for submission in &submissions {
            fed.submit_batch(std::slice::from_ref(submission), now);
        }
        assert_eq!(decode_calls() - before, submissions.len() as u64, "bursts of one");
        assert_eq!(fed.report_count(), 12, "3 reporters x 4 sites, routed by decoded branch");
    }

    /// The simulator's daemons build their messages in process, and the
    /// drain hands them to the controller as they are: a fault-free run
    /// decodes nothing, yet admits every report a daemon executed.
    #[test]
    fn simulated_drain_decodes_nothing() {
        let _guard = serial();
        let start = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
        let obs = Obs::new();
        let run = SimRun::new(
            teragrid_deployment(42, start, start + 2 * 3_600),
            SimOptions { obs: Some(obs.clone()), verify_every_secs: None, ..Default::default() },
        );
        let before = decode_calls();
        let outcome = run.run();
        assert_eq!(decode_calls() - before, 0, "the in-process drain decodes no message");
        let executed: u64 = outcome.daemons.iter().map(|d| d.stats().executed).sum();
        assert!(executed > 0, "the run fired reporters");
        assert_eq!(
            obs.metrics().counter_value("inca_controller_accepted_total", &[]),
            Some(executed),
            "every executed report is admitted"
        );
    }
}

/// A partition's relay forwards over real TCP to a parent that lists
/// only the relay. The reactor must accept the relayed message (the hop
/// is authenticated, the leaf resource is not on the list) and refuse
/// the same leaf submitting directly.
#[test]
fn relayed_rollup_is_accepted_by_parents_that_list_only_the_relay() {
    let _guard = serial();
    on_reactor(HostAllowlist::from_entries(["depot-west"]), |parent, addr| {
        let mut relay = DepotRelay::new(
            "depot-west",
            SpoolConfig::default(),
            Box::new(TcpTransport::new(addr)),
            &Obs::new(),
        );
        for seq in 1..=3 {
            relay.enqueue(stamped("leaf.site.example.org", seq));
        }
        let outcome = relay.deliver_due(1_000);
        assert_eq!((outcome.delivered, outcome.rejected, outcome.failed), (3, 0, 0));
        assert!(relay.is_empty());
        assert_eq!(parent.with_depot(|d| d.report_count()), 3);

        // The same leaf submitting directly — no hop stamp — is not
        // on the list.
        let direct = TcpTransport::new(addr).send(&stamped("leaf.site.example.org", 9));
        assert_eq!(
            direct,
            Ok(ServerResponse::Rejected("host leaf.site.example.org not in allowlist".into()))
        );
        assert_eq!(parent.with_depot(|d| d.report_count()), 3);
        assert_eq!(
            parent
                .obs()
                .metrics()
                .counter_value("inca_controller_rejected_total", &[("reason", "allowlist")]),
            Some(1)
        );
    });
}
