//! Figure 7: CPU and memory utilization of the distributed controller
//! at Caltech, sampled every 10–11 seconds for a week.
//!
//! The Caltech daemon (128 hourly reporter instances, Table 2) runs
//! over the horizon against the VO with a collecting transport; its
//! real process table then drives the documented §5.1 impact model,
//! including the one fork-storm incident that took memory to ~1 GB.

use inca_consumer::render_histogram;
use inca_controller::{CollectingTransport, DistributedController};
use inca_report::Timestamp;

use crate::deployment::teragrid_deployment;
use crate::impact::{histogram, ImpactModel, ImpactSample};

/// The experiment's outputs.
#[derive(Debug, Clone)]
pub struct Fig7Data {
    /// All samples (paper: 57,149 over the week).
    pub samples: Vec<ImpactSample>,
    /// Mean CPU percent.
    pub mean_cpu: f64,
    /// Mean memory MB.
    pub mean_mem: f64,
    /// Fraction of samples below 2% CPU (paper: 99.7%).
    pub cpu_under_2pct: f64,
    /// Fraction of samples below 107 MB (paper: 97.6%).
    pub mem_under_107mb: f64,
}

/// Runs the experiment over `days` (paper: 7).
pub fn run(seed: u64, days: u64) -> Fig7Data {
    let start = Timestamp::from_gmt(2004, 6, 29, 0, 0, 0);
    let end = start + days * 86_400;
    let deployment = teragrid_deployment(seed, start, end);
    let caltech = deployment
        .assignments
        .iter()
        .find(|a| a.hostname == "tg-login1.caltech.teragrid.org")
        .expect("caltech is in Table 2");
    let mut daemon = DistributedController::new(
        caltech.spec.clone(),
        Box::new(CollectingTransport::new()),
        seed,
    );
    daemon.register_from_catalog(&deployment.catalog);
    daemon.run_until(&deployment.vo, start, end);
    // The fork-storm incident was a one-off during the paper's week;
    // it is injected only on multi-day horizons where it stays a small
    // fraction of the samples (4 h of a week ≈ 2.4 %, matching the
    // 97.6 %-under-107 MB figure).
    let model = if days >= 4 {
        let storm_start = start + (days * 86_400) / 2 + 7 * 3_600;
        ImpactModel::paper_defaults(seed).with_storm(storm_start, 4 * 3_600)
    } else {
        ImpactModel::paper_defaults(seed)
    };
    let samples = model.sample_week(daemon.processes(), start, end);
    let n = samples.len() as f64;
    let mean_cpu = samples.iter().map(|s| s.cpu_pct).sum::<f64>() / n;
    let mean_mem = samples.iter().map(|s| s.mem_mb).sum::<f64>() / n;
    let cpu_under_2pct = samples.iter().filter(|s| s.cpu_pct < 2.0).count() as f64 / n;
    let mem_under_107mb = samples.iter().filter(|s| s.mem_mb < 107.0).count() as f64 / n;
    Fig7Data { samples, mean_cpu, mean_mem, cpu_under_2pct, mem_under_107mb }
}

/// Renders both horizontal histograms plus the summary lines.
pub fn render(data: &Fig7Data) -> String {
    let cpu_edges = [0.0, 2.0, 4.0, 8.0, 16.0, 32.0];
    let cpu_hist: Vec<(String, usize)> = histogram(
        data.samples.iter().map(|s| s.cpu_pct),
        &cpu_edges,
    )
    .into_iter()
    .map(|(lo, hi, n)| {
        let label = if hi.is_infinite() {
            format!(">{lo}%")
        } else {
            format!("{lo}-{hi}%")
        };
        (label, n)
    })
    .collect();
    let mem_edges = [0.0, 35.0, 71.0, 107.0, 250.0, 500.0];
    let mem_hist: Vec<(String, usize)> = histogram(
        data.samples.iter().map(|s| s.mem_mb),
        &mem_edges,
    )
    .into_iter()
    .map(|(lo, hi, n)| {
        let label = if hi.is_infinite() {
            format!(">{lo} MB")
        } else {
            format!("{lo}-{hi} MB")
        };
        (label, n)
    })
    .collect();
    let mut out = String::from("Figure 7: distributed controller system impact at Caltech\n\n");
    out.push_str(&render_histogram("(a) CPU utilization per CPU", &cpu_hist, 50));
    out.push('\n');
    out.push_str(&render_histogram("(b) Memory utilization", &mem_hist, 50));
    out.push_str(&format!(
        "\nsamples={} mean CPU={:.3}% (paper 0.02%) | {:.2}% of samples < 2% CPU (paper 99.7%)\n",
        data.samples.len(),
        data.mean_cpu,
        data.cpu_under_2pct * 100.0
    ));
    out.push_str(&format!(
        "mean memory={:.1} MB (paper 35 MB) | {:.2}% of samples < 107 MB (paper 97.6%)\n",
        data.mean_mem,
        data.mem_under_107mb * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_day_shapes_match_paper() {
        let data = run(42, 1);
        // One day at 10.5 s cadence ≈ 8.2k samples.
        assert!((7_900..8_500).contains(&data.samples.len()), "{}", data.samples.len());
        assert!(data.mean_cpu < 0.2, "mean cpu {:.3}", data.mean_cpu);
        assert!(data.cpu_under_2pct > 0.99, "{}", data.cpu_under_2pct);
        // Memory mean near the paper's 35 MB (18 MB daemon + forks).
        assert!((18.0..70.0).contains(&data.mean_mem), "mean mem {:.1}", data.mean_mem);
        assert!(data.mem_under_107mb > 0.9, "{}", data.mem_under_107mb);
        let text = render(&data);
        assert!(text.contains("CPU utilization"));
        assert!(text.contains("Memory utilization"));
    }

    #[test]
    fn week_horizon_includes_the_storm_incident() {
        // The storm only exists on multi-day horizons; verify with a
        // 4-day run that the ~1 GB peak appears but stays a small
        // fraction of samples.
        let data = run(42, 4);
        let peak = data.samples.iter().map(|s| s.mem_mb).fold(0.0, f64::max);
        assert!(peak > 900.0, "storm peak {peak:.0}");
        assert!(
            data.mem_under_107mb > 0.9,
            "storm must stay a small fraction: {}",
            data.mem_under_107mb
        );
    }
}
