//! Temporal queries over a simulated horizon: the Figure-5-equivalent
//! query must return data, find the Monday maintenance dip as an
//! incident, and be fully deterministic — two same-seed runs answer
//! byte-identically (the property the verify.sh smoke gate checks).

use inca::harness::experiments::fig5::{TRACKED_HOST, TRACKED_SITE};
use inca::prelude::*;

/// Everything the temporal layer says about one simulated horizon, in
/// comparable form.
#[derive(PartialEq, Debug)]
struct TemporalFingerprint {
    chart: String,
    aggregate: String,
    incidents: Vec<(Timestamp, Timestamp, usize)>,
    report_count: usize,
}

fn run_fixture(seed: u64) -> TemporalFingerprint {
    // Sunday + maintenance Monday: the smallest horizon that contains
    // a real availability dip.
    let start = Timestamp::from_gmt(2004, 7, 4, 0, 0, 0);
    let end = start + 2 * 86_400;
    let mut deployment = teragrid_deployment(seed, start, end);
    deployment.retain_resources(&[TRACKED_HOST]);
    let outcome = SimRun::new(
        deployment,
        SimOptions {
            obs: Some(Obs::new()),
            envelope_mode: EnvelopeMode::Body,
            verify_every_secs: Some(600),
            verify_resources: vec![(TRACKED_SITE.into(), TRACKED_HOST.into())],
            track_availability: true,
            ..Default::default()
        },
    )
    .run();
    let label = format!("{TRACKED_SITE}-{TRACKED_HOST}");
    let series_name = format!("availability:Grid:{label}");
    outcome.server.with_depot(|depot| {
        let temporal = QueryInterface::new(depot).temporal();
        let series = temporal
            .availability_series(&label, Category::Grid.as_str(), start, end + 600)
            .expect("the tracked resource has an availability archive");
        let agg = temporal
            .window_aggregate(&series_name, start, end + 600)
            .expect("same series, summarized");
        let incidents = temporal.incidents(&series_name, 90.0, start, end + 600);
        TemporalFingerprint {
            chart: series.to_ascii_chart(12),
            aggregate: format!(
                "step={} points={} known={} mean={:.3} min={:.3} max={:.3} unknown={:.3}",
                agg.step, agg.points, agg.known, agg.mean, agg.min, agg.max, agg.unknown_fraction
            ),
            incidents: incidents.into_iter().map(|i| (i.start, i.end, i.points)).collect(),
            report_count: temporal
                .resource_reports("teragrid", TRACKED_SITE, TRACKED_HOST)
                .expect("the week-old cache is readable")
                .len(),
        }
    })
}

#[test]
fn figure5_query_is_nonempty_and_deterministic() {
    let first = run_fixture(42);
    // Non-empty: the chart has data, reports are cached, and the
    // Monday maintenance window (08:00-14:00 GMT) shows up as at
    // least one incident below 90%.
    assert!(!first.chart.contains("no data"), "chart must have points:\n{}", first.chart);
    assert!(first.report_count > 0, "the tracked resource has cached reports");
    assert!(
        !first.incidents.is_empty(),
        "maintenance Monday must register as an incident: {first:?}"
    );
    let monday_morning = Timestamp::from_gmt(2004, 7, 5, 8, 0, 0);
    let monday_evening = Timestamp::from_gmt(2004, 7, 5, 14, 0, 0) + 3_600;
    assert!(
        first
            .incidents
            .iter()
            .any(|(s, e, _)| *e > monday_morning && *s < monday_evening),
        "an incident overlaps the maintenance window: {:?}",
        first.incidents
    );

    // Deterministic: a same-seed rerun answers byte-identically.
    let second = run_fixture(42);
    assert_eq!(first, second, "same seed, same answers");
}
