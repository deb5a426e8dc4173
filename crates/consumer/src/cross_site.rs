//! The cross-site Grid-availability consumer.
//!
//! §3.3's example metric needs the full probe matrix: "(1) at least
//! one site can access the resource's Grid service, and (2) the
//! resource can access at least one other site's Grid service". This
//! consumer extracts the probe observations from cached cross-site
//! reports (which record their target in the branch's `dest`
//! component) and applies [`inca_agreement::grid_availability`].

use std::collections::BTreeMap;

use inca_agreement::{grid_availability, ProbeObservation};
use inca_server::QueryInterface;

/// Extracts probe observations for one service from the cache.
///
/// Matches cached reports whose reporter is `grid.services.<svc>.probe`
/// (any instance suffix) and whose branch carries both `resource=`
/// (the probing side) and `dest=` (the probed side).
pub fn probe_observations(
    query: &QueryInterface<'_>,
    vo: &str,
    service: &str,
) -> Vec<ProbeObservation> {
    let reporter_prefix = format!("grid.services.{service}.probe");
    let mut out = Vec::new();
    // A cache the depot cannot read yields no observations.
    for (branch, report) in query.temporal().vo_reports(vo).unwrap_or_default() {
        let Some(reporter) = branch.get("reporter") else { continue };
        if !reporter.starts_with(&reporter_prefix) {
            continue;
        }
        let (Some(src), Some(dst)) = (branch.get("resource"), branch.get("dest")) else {
            continue;
        };
        out.push(ProbeObservation {
            src_resource: src.to_string(),
            dst_resource: dst.to_string(),
            ok: report.is_success(),
        });
    }
    out
}

/// The §3.3 metric per resource: `true` iff the resource's service is
/// reachable from elsewhere *and* the resource reaches another site.
pub fn grid_service_availability(
    query: &QueryInterface<'_>,
    vo: &str,
    service: &str,
) -> BTreeMap<String, bool> {
    grid_availability(&probe_observations(query, vo, service))
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_report::{BranchId, ReportBuilder, Timestamp};
    use inca_server::Depot;
    use inca_wire::envelope::{Envelope, EnvelopeMode};

    fn submit_probe(depot: &mut Depot, src: &str, dst: &str, ok: bool) {
        let name = "grid.services.gram.probe";
        let builder = ReportBuilder::new(name, "1.0").gmt(Timestamp::from_secs(1_000));
        let report = if ok {
            builder.body_value("target", dst).success().unwrap()
        } else {
            builder.failure(format!("{dst}:2119: gram did not answer")).unwrap()
        };
        let branch: BranchId =
            format!("dest={dst},reporter={name},resource={src},site=x,vo=tg").parse().unwrap();
        depot
            .receive(
                &Envelope::new(branch, report.to_xml()).encode(EnvelopeMode::Body),
                Timestamp::from_secs(1_000),
            )
            .unwrap();
    }

    #[test]
    fn metric_from_cached_probes() {
        let mut depot = Depot::new();
        // a <-> b fine; c reachable but cannot reach out.
        submit_probe(&mut depot, "a", "b", true);
        submit_probe(&mut depot, "b", "a", true);
        submit_probe(&mut depot, "a", "c", true);
        submit_probe(&mut depot, "c", "b", false);
        let q = QueryInterface::new(&depot);
        let availability = grid_service_availability(&q, "tg", "gram");
        assert_eq!(availability.get("a"), Some(&true));
        assert_eq!(availability.get("b"), Some(&true));
        assert_eq!(availability.get("c"), Some(&false));
    }

    #[test]
    fn non_probe_reports_ignored() {
        let mut depot = Depot::new();
        let report = ReportBuilder::new("version.globus", "1.0")
            .gmt(Timestamp::from_secs(1_000))
            .body_value("packageVersion", "2.4.3")
            .success()
            .unwrap();
        let branch: BranchId =
            "reporter=version.globus,resource=a,site=x,vo=tg".parse().unwrap();
        depot
            .receive(
                &Envelope::new(branch, report.to_xml()).encode(EnvelopeMode::Body),
                Timestamp::from_secs(1_000),
            )
            .unwrap();
        let q = QueryInterface::new(&depot);
        assert!(probe_observations(&q, "tg", "gram").is_empty());
    }

    #[test]
    fn service_filter_applies() {
        let mut depot = Depot::new();
        submit_probe(&mut depot, "a", "b", true);
        let q = QueryInterface::new(&depot);
        assert_eq!(probe_observations(&q, "tg", "gram").len(), 1);
        assert!(probe_observations(&q, "tg", "srb").is_empty());
        assert!(probe_observations(&q, "othervo", "gram").is_empty());
    }
}
