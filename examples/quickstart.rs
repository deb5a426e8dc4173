//! Quickstart: one simulated hour of a TeraGrid-like deployment,
//! end to end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the full §4 deployment (ten resources, 1,060 reporter
//! instances), runs one hour of simulated time through the complete
//! pipeline — reporters → distributed controllers → centralized
//! controller → depot — then verifies every resource against the
//! TeraGrid Hosting Environment agreement and prints the Figure 4
//! status page.

use inca::consumer::render_status_page;
use inca::prelude::*;

fn main() {
    let start = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
    let end = start + 3_600;
    println!("Building TeraGrid-like deployment (seed 42)...");
    let deployment = teragrid_deployment(42, start, end);
    println!(
        "  {} resources, {} reporter instances/hour, agreement \"{} {}\"",
        deployment.assignments.len(),
        deployment.total_instances(),
        deployment.agreement.vo,
        deployment.agreement.version,
    );

    println!("Simulating one hour ({start} .. {end})...");
    let outcome = SimRun::new(deployment, SimOptions::default()).run();

    let (reports, cache_bytes) = outcome
        .server
        .with_depot(|d| (d.report_count(), d.cache().size_bytes()));
    println!(
        "  depot received {reports} reports; cache now {:.2} MB; {} verification passes\n",
        cache_bytes as f64 / 1e6,
        outcome.verification_passes,
    );

    println!("{}", render_status_page(&outcome.final_page));
    println!(
        "Pieces of data compared and verified: {} (paper: \"over 900\")",
        outcome.final_page.verified_count()
    );

    // Show the paper's Figure 2: a bandwidth report body.
    let caltech_daemon = &outcome.daemons[2];
    println!(
        "\nExample reporter fired {} times on {} ({} killed for exceeding expected runtime).",
        caltech_daemon.stats().executed,
        caltech_daemon.spec().resource,
        caltech_daemon.stats().killed,
    );
}
