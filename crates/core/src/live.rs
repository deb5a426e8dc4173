//! Live deployments over real localhost TCP.
//!
//! The same components as [`crate::sim_run`], but the client→server
//! hop is a real TCP connection through
//! [`inca_controller::TcpTransport`] into the server's one TCP front
//! end, [`inca_server::CentralizedController::serve_reactor`] — the
//! wiring the 2004 system used between the ten TeraGrid login nodes and
//! `inca.sdsc.edu`. Used by the integration tests and the `live_tcp`
//! example; simulated time still drives the schedules while the bytes
//! genuinely cross the loopback interface.

use std::net::TcpListener;
use std::sync::Arc;

use inca_controller::{DistributedController, TcpTransport};
use inca_server::{CentralizedController, ControllerConfig, Depot, ReactorHandle};
use inca_wire::envelope::EnvelopeMode;
use inca_wire::HostAllowlist;

use crate::deployment::Deployment;

/// A running live server plus configured daemons.
pub struct LiveDeployment {
    /// The server.
    pub server: Arc<CentralizedController>,
    /// Handle keeping the reactor alive.
    pub handle: ReactorHandle,
    /// One daemon per resource, wired over TCP.
    pub daemons: Vec<DistributedController>,
}

/// Binds a localhost server and wires every deployment resource to it
/// over TCP.
pub fn start_live(deployment: &Deployment, mode: EnvelopeMode) -> std::io::Result<LiveDeployment> {
    let allowlist =
        HostAllowlist::from_entries(deployment.assignments.iter().map(|a| a.hostname.clone()));
    let config = ControllerConfig { allowlist, envelope_mode: mode };
    let server = Arc::new(CentralizedController::new(config, Depot::new()));
    server.with_depot_mut(|d| {
        d.add_archive_rule(inca_consumer::bandwidth_archive_rule(&deployment.agreement.vo))
    });
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let handle = server.serve_reactor(listener)?;
    let addr = handle.addr();
    let mut daemons = Vec::with_capacity(deployment.assignments.len());
    for assignment in &deployment.assignments {
        let mut daemon = DistributedController::new(
            assignment.spec.clone(),
            Box::new(TcpTransport::new(addr)),
            deployment.seed,
        );
        daemon.register_from_catalog(&deployment.catalog);
        daemons.push(daemon);
    }
    Ok(LiveDeployment { server, handle, daemons })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::teragrid_deployment;
    use inca_report::Timestamp;

    #[test]
    fn live_tcp_deployment_delivers_reports() {
        let start = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
        let end = start + 3_600;
        let deployment = teragrid_deployment(42, start, end);
        let vo = deployment.vo.clone();
        let mut live = start_live(&deployment, EnvelopeMode::Body).unwrap();
        // Drive just two daemons for one simulated hour over real TCP.
        for daemon in live.daemons.iter_mut().take(2) {
            daemon.run_until(&vo, start, end);
            assert!(daemon.stats().executed > 0);
            assert_eq!(daemon.stats().forward_errors, 0, "TCP submissions must be acked");
        }
        let received = live.server.with_depot(|d| d.report_count());
        let executed: u64 =
            live.daemons.iter().take(2).map(|d| d.stats().executed).sum();
        assert_eq!(received, executed);
        live.handle.stop();
    }
}
