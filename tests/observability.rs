//! End-to-end observability: a fig9-style traced run — synthetic
//! reports replayed through the centralized controller into a depot
//! with an archive rule — must produce `controller.accept`,
//! `depot.insert`, and `depot.archive.write` spans and non-zero depot
//! insert metrics in the Prometheus rendering.

use std::sync::Arc;

use inca::obs::sinks::RingSink;
use inca::obs::Obs;
use inca::prelude::*;
use inca::rrd::ArchivePolicy;
use inca::server::{ArchiveRule, ControllerConfig};
use inca::wire::message::{ClientMessage, ServerResponse};
use inca::wire::HostAllowlist;

/// A controller + depot pipeline on a private `Obs` handle, with a
/// ring sink capturing every span and an archive rule covering the
/// probe branches.
fn traced_pipeline(obs: &Obs) -> CentralizedController {
    let config = ControllerConfig {
        allowlist: HostAllowlist::from_entries(["inca.sdsc.edu".to_string()]),
        envelope_mode: EnvelopeMode::Body,
    };
    let mut depot = Depot::with_obs(obs.clone());
    depot.add_archive_rule(ArchiveRule {
        name: "probe-bandwidth".into(),
        query: "vo=fig9".parse().unwrap(),
        path: "bandwidth".parse().unwrap(),
        policy: ArchivePolicy::every("hourly", 14 * 86_400),
        period_secs: 3_600,
    });
    CentralizedController::new(config, depot)
}

fn probe_message(report_bytes: usize, t: Timestamp) -> ClientMessage {
    let branch: BranchId =
        format!("reporter=probe{report_bytes},vo=fig9").parse().unwrap();
    // A fig9-style padded report, plus a numeric value for the archive
    // rule to extract.
    let filler: String =
        (0..report_bytes).map(|i| (b'a' + (i % 26) as u8) as char).collect();
    let report = ReportBuilder::new(format!("probe{report_bytes}"), "1.0")
        .host("inca.sdsc.edu")
        .gmt(t)
        .body_value("bandwidth", "34.1")
        .body_value("data", filler)
        .success()
        .unwrap();
    ClientMessage::report("inca.sdsc.edu", branch, &report)
}

#[test]
fn fig9_style_run_emits_spans_and_metrics() {
    let obs = Obs::new();
    let ring = Arc::new(RingSink::new(4_096));
    obs.tracer().add_sink(ring.clone());
    let server = traced_pipeline(&obs);

    // Replay fig9's premade report sizes through the controller, a few
    // repetitions each, like one row of the §5.2.2 sweep.
    let t0 = Timestamp::from_gmt(2004, 7, 9, 0, 0, 0);
    let mut submissions = 0u64;
    for &size in &[851usize, 9_257, 23_168] {
        let payload = probe_message(size, t0).encode();
        for rep in 0..5u64 {
            let (response, timing) = server.submit("inca.sdsc.edu", &payload, t0 + rep);
            assert!(matches!(response, ServerResponse::Ack), "submission accepted");
            assert!(timing.is_some(), "accepted submissions carry depot timing");
            submissions += 1;
        }
    }

    // Every stage of the pipeline traced: accept → insert → archive.
    let events = ring.drain();
    let count = |name: &str| events.iter().filter(|e| e.name == name).count() as u64;
    assert_eq!(count("controller.accept"), submissions);
    assert_eq!(count("depot.insert"), submissions);
    assert_eq!(count("depot.archive.write"), submissions, "archive rule matched every probe");
    // Spans carry the fields the operations doc promises.
    let insert = events.iter().find(|e| e.name == "depot.insert").unwrap();
    assert!(insert.field("branch").is_some());
    assert!(insert.field("size").is_some());
    assert!(insert.duration.is_some(), "depot.insert is a timed span");

    // The metrics endpoint exposes the same run in Prometheus text.
    let text = server.with_depot(|d| QueryInterface::new(d).metrics_text());
    let metric = |name: &str| -> f64 {
        text.lines()
            .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("metric {name} missing from:\n{text}"))
    };
    assert_eq!(metric("inca_controller_accepted_total") as u64, submissions);
    assert_eq!(metric("inca_depot_insert_seconds_count") as u64, submissions);
    assert!(metric("inca_depot_insert_seconds_sum") > 0.0);
    assert_eq!(metric("inca_depot_archive_writes_total") as u64, submissions);
    assert!(metric("inca_depot_cache_bytes") > 0.0);

    // Rejections are counted by reason, not silently dropped.
    let payload = probe_message(851, t0).encode();
    let (response, _) = server.submit("rogue.example.org", &payload, t0);
    assert!(matches!(response, ServerResponse::Rejected(_)));
    let text = server.with_depot(|d| QueryInterface::new(d).metrics_text());
    assert!(
        text.contains("inca_controller_rejected_total{reason=\"allowlist\"} 1"),
        "allowlist rejection counted:\n{text}"
    );
    let events = ring.drain();
    let reject = events
        .iter()
        .find(|e| e.name == "controller.accept" && e.field("rejected").is_some())
        .expect("rejection traced");
    assert_eq!(reject.severity, inca::obs::Severity::Warn);
}

#[test]
fn simulated_deployment_reports_daemon_and_depot_metrics() {
    let obs = Obs::new();
    let start = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
    let deployment = teragrid_deployment(42, start, start + 3_600);
    let outcome = SimRun::new(
        deployment,
        SimOptions {
            verify_every_secs: None,
            obs: Some(obs.clone()),
            ..Default::default()
        },
    )
    .run();
    // The isolated registry saw the whole hour: every daemon run
    // forwarded through the controller into the depot.
    let text = obs.metrics().render();
    let metric = |name: &str| -> f64 {
        text.lines()
            .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("metric {name} missing from:\n{text}"))
    };
    let accepted = metric("inca_controller_accepted_total") as u64;
    let total_reports =
        outcome.server.with_depot(|d| d.report_count());
    assert_eq!(accepted, total_reports, "every accepted submission reached the depot");
    assert_eq!(metric("inca_depot_insert_seconds_count") as u64, total_reports);
    assert!(metric("inca_depot_cache_reports") > 0.0);
    assert_eq!(metric("inca_controller_queue_depth"), 0.0, "queue drains");
    // Fault-injection counters live on the global handle (the VO is
    // built before the run's Obs exists).
    let global = Obs::global().metrics().render();
    assert!(global.contains("inca_sim_injected_faults_total"));
}
