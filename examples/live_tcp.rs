//! A live client/server deployment over real localhost TCP.
//!
//! ```text
//! cargo run --release --example live_tcp
//! ```
//!
//! Starts the centralized controller's reactor front end on a free
//! localhost port, wires two distributed controllers to it through
//! [`inca::controller::TcpTransport`], drives an hour of simulated
//! schedule (the bytes genuinely cross the loopback interface), then
//! queries the depot — the same wiring the 2004 TeraGrid deployment
//! used between ten login nodes and `inca.sdsc.edu` (Figure 3).

use inca::harness::live::start_live;
use inca::harness::teragrid_deployment;
use inca::prelude::*;

fn main() {
    let start = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
    let end = start + 3_600;
    let deployment = teragrid_deployment(42, start, end);
    let vo = deployment.vo.clone();

    let mut live = start_live(&deployment, EnvelopeMode::Body).expect("bind localhost");
    println!("Centralized controller listening on {}", live.handle.addr());

    // Drive two resources' daemons for one simulated hour over TCP.
    for daemon in live.daemons.iter_mut().take(2) {
        let host = daemon.spec().resource.clone();
        daemon.run_until(&vo, start, end);
        let stats = daemon.stats();
        println!(
            "{host}: executed {} reporters ({} succeeded, {} failed, {} killed, {} forward errors)",
            stats.executed, stats.succeeded, stats.failed, stats.killed, stats.forward_errors
        );
        assert_eq!(stats.forward_errors, 0, "all submissions must be acked over TCP");
    }

    let (received, cached, errors) = live.server.with_depot(|d| {
        (d.stats().report_count(), d.cache().report_count(), 0u64)
    });
    let _ = errors;
    println!(
        "\nDepot received {received} reports over TCP; cache holds {cached} current reports."
    );

    // Query one report back through the querying interface.
    let sample = live.server.with_depot(|d| {
        let q = QueryInterface::new(d);
        q.reports(None).unwrap().into_iter().next()
    });
    if let Some((branch, report)) = sample {
        println!(
            "\nSample cached report at branch\n  {branch}\nreporter={} host={} status={}",
            report.header.reporter,
            report.header.host,
            report.footer.status.as_str()
        );
    }
    live.handle.stop();
    println!("\nServer stopped cleanly.");
}
