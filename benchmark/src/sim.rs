//! `sim_week`: the paper's one-week TeraGrid deployment in process,
//! then the week-old depot served live.
//!
//! The simulated week runs `cron`/scheduler → reporters → daemon →
//! spool → `submit_batch` → depot → archive → `verify_resource` every
//! 600 s → status page, on the profile under test (rope cache, binary
//! envelopes, one sim thread, fresh `Obs`). It never touches the
//! reactor or the framing code, so a wire-level change must predict no
//! change in its reports-per-second.
//!
//! Afterwards the same controller — now holding a week of real
//! deployment data — is served by the reactor and takes a paced trickle
//! of its own reports back from the deployment's hosts, beside the same
//! consumer reads the other workloads run. That tail is what gives this
//! workload ack, freshness and read latencies: here they are measured
//! against real site subtrees and real week-long availability series.

use std::time::{Duration, Instant};

use inca_consumer::render_status_page;
use inca_core::{teragrid_deployment, Deployment, SimOptions, SimOutcome, SimRun};
use inca_obs::Obs;
use inca_report::{BranchId, Report, Timestamp};
use inca_server::CacheBackend;
use inca_wire::envelope::EnvelopeMode;
use inca_xml::Element;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::{Inputs, Stamped};
use crate::loadgen::Pace;
use crate::tcp::Rig;

/// Reports a second the week-old depot takes in the tail: a quarter of
/// `paced_mix`'s rate, far from saturation.
pub const TAIL_PACE: Pace = Pace::Open {
    per_second: 2_000.0,
};
/// Warm-up before the tail's measured window.
pub const TAIL_WARM_UP: Duration = Duration::from_millis(500);
/// First seq the tail stamps: beyond anything a week of spooling used.
const TAIL_SEQ_BASE: u64 = 1_000_000_000;

/// Start of the simulated horizon (the paper's observation week).
pub fn horizon_start() -> Timestamp {
    Timestamp::from_gmt(2004, 7, 7, 0, 0, 0)
}

/// The deployment and a wired run over `days` days — the set-up step.
pub fn wire(seed: u64, days: u64) -> (Deployment, SimRun) {
    let start = horizon_start();
    let deployment = teragrid_deployment(seed, start, start + days * 86_400);
    (deployment.clone(), SimRun::new(deployment, options()))
}

fn options() -> SimOptions {
    SimOptions {
        envelope_mode: EnvelopeMode::Binary,
        cache_backend: CacheBackend::Rope,
        sim_threads: 1,
        obs: Some(Obs::new()),
        ..SimOptions::default()
    }
}

/// FNV-1a, so the digest does not depend on a hasher's random keys.
fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in parts.iter().flat_map(|p| p.iter()) {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What the simulated week left behind, checked.
pub struct Week {
    pub outcome: SimOutcome,
    pub wall: Duration,
    /// Reports the daemons produced (each is forwarded exactly once).
    pub reports: u64,
    /// Digest of the final cache document and status page.
    pub digest: u64,
    pub problems: Vec<String>,
}

/// Runs the wired week and checks what it left behind.
pub fn run_week(run: SimRun) -> Week {
    let t0 = Instant::now();
    let outcome = run.run();
    let wall = t0.elapsed();
    let mut problems = Vec::new();

    let unspooled: usize = outcome.daemons.iter().map(|d| d.spool().depth()).sum();
    if unspooled != 0 {
        problems.push(format!(
            "{unspooled} reports were still spooled at the horizon"
        ));
    }
    let reports: u64 = outcome.daemons.iter().map(|d| d.stats().executed).sum();
    let forward_errors: u64 = outcome
        .daemons
        .iter()
        .map(|d| d.stats().forward_errors)
        .sum();
    let accepted = outcome
        .server
        .obs()
        .metrics()
        .counter_value("inca_controller_accepted_total", &[])
        .unwrap_or(0);
    if accepted != reports || forward_errors != 0 {
        problems.push(format!(
            "daemons forwarded {reports} reports ({forward_errors} refused) but the depot accepted {accepted}"
        ));
    }
    let document = outcome
        .server
        .with_depot(|d| d.cache().document().into_owned());
    if let Err(e) = Element::parse(&document) {
        problems.push(format!("final cache document is not well-formed: {e}"));
    }
    let page = render_status_page(&outcome.final_page);
    let digest = fnv1a(&[document.as_bytes(), page.as_bytes()]);
    Week {
        outcome,
        wall,
        reports,
        digest,
        problems,
    }
}

/// Serves the week-old depot and builds the tail's inputs from what it
/// holds: every cached report goes back, re-stamped, from the host
/// that produced it.
///
/// Reports an archive rule would read stay out: the simulated archive
/// lives in 2004 and the reactor stamps wall-clock time, and one
/// update 22 years on makes an hourly RRD replay every step between.
pub fn serve_week(deployment: &Deployment, outcome: &SimOutcome, seed: u64) -> Rig {
    let controller = outcome.server.clone();
    let (cached, rules, series) = controller.with_depot(|depot| {
        let (cached, _) = depot
            .query_reports(None)
            .expect("the week-old cache is readable");
        let rules = depot.archive().rules().to_vec();
        let mut series: Vec<String> = depot
            .archive()
            .series_names()
            .into_iter()
            .filter(|name| name.starts_with("availability:Total:"))
            .collect();
        series.sort();
        (cached, rules, series)
    });
    let expect_cached = cached.len();
    let hosts: Vec<String> = deployment
        .assignments
        .iter()
        .map(|a| a.hostname.clone())
        .collect();
    let mut sites: Vec<String> = deployment
        .assignments
        .iter()
        .map(|a| a.site.clone())
        .collect();
    sites.sort();
    sites.dedup();
    let vo = &deployment.agreement.vo;
    let mut branches = Vec::with_capacity(cached.len());
    for (branch, xml) in cached {
        let report = Report::parse(&xml).expect("cached reports parse");
        let feeds_archive = rules.iter().any(|rule| {
            branch.matches_suffix(&rule.query) && rule.path.resolve(report.body.root()).is_some()
        });
        if feeds_archive {
            continue;
        }
        let resource = branch
            .get("resource")
            .expect("deployment branches name a resource");
        let host = hosts
            .iter()
            .position(|h| h == resource)
            .expect("a deployment host");
        branches.push(Stamped::build(
            resource,
            host,
            branch.clone(),
            report,
            false,
        ));
    }
    let site_queries: Vec<BranchId> = sites
        .iter()
        .map(|site| {
            format!("site={site},vo={vo}")
                .parse()
                .expect("deployment ids are branch-safe")
        })
        .collect();
    let inputs = Inputs {
        order: crate::inputs::shuffled(branches.len(), &mut StdRng::seed_from_u64(seed)),
        hosts,
        branches,
        rules: Vec::new(),
        site_queries,
    };
    let host_seq = vec![TAIL_SEQ_BASE; inputs.hosts.len()];
    let sent_before = vec![0u64; inputs.branches.len()];
    Rig::serve(
        inputs,
        controller,
        host_seq,
        sent_before,
        series,
        deployment.end,
        expect_cached,
    )
}
