//! Cross-crate integration tests: the full Figure 1 pipeline.
//!
//! These exercise the whole stack through the public facade: reporters
//! run against the simulated VO, the distributed controllers forward
//! over the in-process (or TCP) transport, the centralized controller
//! envelopes into the depot, consumers verify against the agreement.

use inca::consumer::render_status_page;
use inca::prelude::*;

fn hour_horizon() -> (Timestamp, Timestamp) {
    let start = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
    // One hour plus a minute: cron fires are strictly after `start`,
    // so an entry with a minute-0 offset lands exactly on start+3600.
    (start, start + 3_660)
}

#[test]
fn full_pipeline_one_hour() {
    let (start, end) = hour_horizon();
    let deployment = teragrid_deployment(42, start, end);
    assert_eq!(deployment.total_instances(), 1_060);
    let outcome = SimRun::new(deployment, SimOptions::default()).run();

    // Every instance fired once.
    let executed: u64 = outcome.daemons.iter().map(|d| d.stats().executed).sum();
    assert_eq!(executed, 1_060);

    // Every execution produced exactly one depot submission.
    let received = outcome.server.with_depot(|d| d.stats().report_count());
    assert_eq!(received, executed);

    // The status page verifies hundreds of data points across all ten
    // resources (paper: "over 900 pieces of data").
    assert_eq!(outcome.final_page.rows.len(), 10);
    assert!(outcome.final_page.verified_count() > 400);

    // Render never panics and includes every resource label.
    let text = render_status_page(&outcome.final_page);
    for row in &outcome.final_page.rows {
        assert!(text.contains(&row.label));
    }
}

#[test]
fn reports_queryable_by_branch_levels() {
    let (start, end) = hour_horizon();
    let deployment = teragrid_deployment(7, start, end);
    let outcome = SimRun::new(
        deployment,
        SimOptions { verify_every_secs: None, ..Default::default() },
    )
    .run();
    outcome.server.with_depot(|depot| {
        let q = QueryInterface::new(depot);
        // VO-level query returns everything.
        let all: BranchId = "vo=teragrid".parse().unwrap();
        let everything = q.reports(Some(&all)).unwrap();
        assert_eq!(everything.len(), depot.cache().report_count());
        // Site-level query returns a strict subset.
        let sdsc: BranchId = "site=sdsc,vo=teragrid".parse().unwrap();
        let site_reports = q.reports(Some(&sdsc)).unwrap();
        assert!(!site_reports.is_empty());
        assert!(site_reports.len() < everything.len());
        for (branch, _) in &site_reports {
            assert_eq!(branch.get("site"), Some("sdsc"));
        }
        // Full-branch query returns exactly one report.
        let (branch, report) = &site_reports[0];
        let single = q.report(branch).unwrap().unwrap();
        assert_eq!(single, **report);
    });
}

#[test]
fn failure_injection_reaches_status_page() {
    let (start, end) = hour_horizon();
    let mut deployment = teragrid_deployment(99, start, end);
    // Break globus on one resource for the whole horizon.
    let fault = inca::sim::PackageFault {
        package: "globus".into(),
        from: start,
        until: end,
        message: "globus unit test failed: injected fault".into(),
    };
    let host = "tg-login1.ncsa.teragrid.org";
    for r in deployment.vo.resources_mut() {
        if r.hostname() == host {
            r.failure.package_faults.push(fault.clone());
        }
    }
    let outcome = SimRun::new(
        deployment,
        SimOptions { verify_every_secs: None, ..Default::default() },
    )
    .run();
    let row = outcome
        .final_page
        .rows
        .iter()
        .find(|r| r.label.contains(host))
        .expect("ncsa row present");
    assert!(
        row.failures.iter().any(|f| f.error.as_deref().unwrap_or("").contains("injected fault")),
        "injected fault must surface in the error view: {:?}",
        row.failures.iter().map(|f| &f.id).collect::<Vec<_>>()
    );
}

#[test]
fn attachment_mode_end_to_end() {
    let (start, end) = hour_horizon();
    let mut deployment = teragrid_deployment(5, start, end);
    deployment.retain_resources(&["rachel.psc.edu"]);
    let outcome = SimRun::new(
        deployment,
        SimOptions {
            envelope_mode: EnvelopeMode::Attachment,
            verify_every_secs: None,
            ..Default::default()
        },
    )
    .run();
    let received = outcome.server.with_depot(|d| d.stats().report_count());
    assert_eq!(received, 71, "rachel runs 71 instances per hour");
}

#[test]
fn error_reports_counted_at_server() {
    let (start, end) = hour_horizon();
    // Expected runtimes small enough that some benchmark runs get
    // killed and produce §3.1.3 error reports.
    let mut deployment = teragrid_deployment(13, start, end + 5 * 3_600);
    for a in &mut deployment.assignments {
        for e in &mut a.spec.entries {
            if e.reporter.starts_with("benchmark.") {
                e.expected_runtime_secs = 60;
            }
        }
    }
    let outcome = SimRun::new(
        deployment,
        SimOptions { verify_every_secs: None, ..Default::default() },
    )
    .run();
    let killed: u64 = outcome.daemons.iter().map(|d| d.stats().killed).sum();
    assert!(killed > 0, "some benchmark runs must exceed 60s and be killed");
    assert_eq!(outcome.server.error_report_count(), killed);
}
