//! A week of TeraGrid monitoring: the paper's §4 deployment end to end.
//!
//! ```text
//! cargo run --release --example teragrid_week [days]
//! ```
//!
//! Runs the tracked Caltech resource (128 hourly reporter instances)
//! for `days` simulated days (default 7, spanning a maintenance
//! Monday), verifying every ten minutes and archiving the availability
//! percentages, then prints the Figure 5 availability chart and the
//! daemon's impact statistics (the Figure 7 inputs).

use inca::agreement::Category;
use inca::consumer::AvailabilityTracker;
use inca::controller::ImpactModel;
use inca::harness::teragrid_deployment;
use inca::prelude::*;
use inca::rrd::ConsolidationFn;

fn main() {
    let days: u64 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(7);
    let start = Timestamp::from_gmt(2004, 7, 4, 0, 0, 0); // Sunday
    let end = start + days * 86_400;
    let host = "tg-login1.caltech.teragrid.org";
    println!("Simulating {days} day(s) of monitoring on {host}...");

    let mut deployment = teragrid_deployment(42, start, end);
    deployment.retain_resources(&[host]);
    let outcome = SimRun::new(
        deployment,
        SimOptions {
            verify_every_secs: Some(600),
            verify_resources: vec![("caltech".into(), host.into())],
            ..Default::default()
        },
    )
    .run();

    // Figure 5: the archived Grid availability series.
    let label = format!("caltech-{host}");
    let series = outcome.server.with_depot(|d| {
        QueryInterface::new(d).archived_series(
            &AvailabilityTracker::series_name(&label, Category::Grid),
            ConsolidationFn::Average,
            start,
            end + 600,
        )
    });
    if let Some(series) = series {
        println!("\n{}", series.to_ascii_chart(12));
        if let Some(stats) = series.stats() {
            println!(
                "Grid availability: mean {:.1}%, min {:.1}% (Mondays are maintenance days)",
                stats.mean, stats.min
            );
        }
    }

    // Figure 7 inputs: impact of the daemon over the week.
    let daemon = &outcome.daemons[0];
    let model = ImpactModel::paper_defaults(42);
    let samples = model.sample_week(daemon.processes(), start, end);
    let n = samples.len() as f64;
    let mean_cpu = samples.iter().map(|s| s.cpu_pct).sum::<f64>() / n;
    let mean_mem = samples.iter().map(|s| s.mem_mb).sum::<f64>() / n;
    println!(
        "\nController impact over {} samples: mean CPU {:.3}% (paper 0.02%), mean memory {:.1} MB (paper 35 MB)",
        samples.len(),
        mean_cpu,
        mean_mem
    );
    let stats = daemon.stats();
    println!(
        "Daemon counters: {} executions, {} failures reported, {} killed, {} skipped on dependency",
        stats.executed, stats.failed, stats.killed, stats.skipped_dependency
    );
    let (reports, cache) = outcome
        .server
        .with_depot(|d| (d.report_count(), d.cache().size_bytes()));
    println!(
        "Depot: {reports} reports received, cache steady at {:.2} MB",
        cache as f64 / 1e6
    );
}
