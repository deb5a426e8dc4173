//! The software-stack detail page.
//!
//! §4.1: "Another status page shows a detailed view of the software
//! stack, listing the packages and status for each resource. Green
//! indicates that an acceptable version of a software package is
//! located on a resource and the unit tests pass; red indicates
//! otherwise."

use std::collections::BTreeMap;

use inca_agreement::{verify_resource, Agreement};
use inca_server::QueryInterface;

use crate::render::render_table;

/// Per-package status on one resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackageStatus {
    /// Acceptable version present and unit tests pass.
    Green,
    /// Version wrong/missing or a unit test failed.
    Red,
    /// No data collected for this package on this resource.
    NoData,
}

impl PackageStatus {
    /// The page's cell text.
    pub fn as_str(self) -> &'static str {
        match self {
            PackageStatus::Green => "green",
            PackageStatus::Red => "RED",
            PackageStatus::NoData => "n/a",
        }
    }
}

/// The detail page: packages × resources.
#[derive(Debug, Clone)]
pub struct StackPage {
    /// Resource labels in column order.
    pub resources: Vec<String>,
    /// Package name → per-resource status (same order as
    /// `resources`).
    pub packages: BTreeMap<String, Vec<PackageStatus>>,
}

impl StackPage {
    /// Count of green cells (for summaries).
    pub fn green_count(&self) -> usize {
        self.packages
            .values()
            .flat_map(|row| row.iter())
            .filter(|s| **s == PackageStatus::Green)
            .count()
    }
}

/// Builds the stack detail page from cached data.
pub fn build_stack_page(
    query: &QueryInterface<'_>,
    agreement: &Agreement,
    resources: &[(String, String)],
) -> StackPage {
    let labels: Vec<String> =
        resources.iter().map(|(s, r)| format!("{s}-{r}")).collect();
    let mut packages: BTreeMap<String, Vec<PackageStatus>> = BTreeMap::new();
    for pkg in &agreement.packages {
        packages.insert(pkg.name.clone(), Vec::with_capacity(resources.len()));
    }
    for (site, resource) in resources {
        // A cache the depot cannot read renders as "no data" cells.
        let reports =
            query.temporal().resource_reports(&agreement.vo, site, resource).unwrap_or_default();
        let verification = verify_resource(agreement, &reports, resource);
        for pkg in &agreement.packages {
            // The package is green iff its version test and all its
            // unit tests passed; "no data" when the version test
            // failed for lack of data.
            let version_id = format!("{}-version", pkg.name);
            let unit_prefix = format!("unit.{}.", pkg.name);
            let mut saw_data = false;
            let mut all_green = true;
            for t in &verification.results {
                if t.id == version_id {
                    saw_data = t
                        .error
                        .as_deref()
                        .map_or(true, |e| !e.contains("no version data"));
                    all_green &= t.passed;
                } else if t.id.starts_with(&unit_prefix) {
                    all_green &= t.passed;
                }
            }
            let status = if !saw_data {
                PackageStatus::NoData
            } else if all_green {
                PackageStatus::Green
            } else {
                PackageStatus::Red
            };
            packages.get_mut(&pkg.name).expect("pre-seeded").push(status);
        }
    }
    StackPage { resources: labels, packages }
}

/// Renders the page as an aligned table.
pub fn render_stack_page(page: &StackPage) -> String {
    let mut headers: Vec<&str> = vec!["Package"];
    headers.extend(page.resources.iter().map(String::as_str));
    let rows: Vec<Vec<String>> = page
        .packages
        .iter()
        .map(|(pkg, statuses)| {
            let mut row = vec![pkg.clone()];
            row.extend(statuses.iter().map(|s| s.as_str().to_string()));
            row
        })
        .collect();
    let mut out = String::from("Software stack detail (green = version ok + unit tests pass)\n\n");
    out.push_str(&render_table(&headers, &rows));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_report::{BranchId, ReportBuilder, Timestamp};
    use inca_server::Depot;
    use inca_wire::envelope::{Envelope, EnvelopeMode};

    fn agreement() -> Agreement {
        let mut a = Agreement::new("tg", "2.0");
        for (name, req) in [("globus", ">=2.4.0"), ("mpich", "1.2.x")] {
            a.packages.push(inca_agreement::PackageRequirement {
                name: name.into(),
                category: inca_agreement::Category::Grid,
                version: req.parse().unwrap(),
                require_unit_tests: true,
            });
        }
        a
    }

    fn submit(depot: &mut Depot, resource: &str, reporter: &str, report: inca_report::Report) {
        let branch: BranchId =
            format!("reporter={reporter},resource={resource},site=sdsc,vo=tg").parse().unwrap();
        depot
            .receive(
                &Envelope::new(branch, report.to_xml()).encode(EnvelopeMode::Body),
                Timestamp::from_secs(1_000),
            )
            .unwrap();
    }

    fn version_report(pkg: &str, version: &str) -> inca_report::Report {
        ReportBuilder::new(format!("version.{pkg}"), "1.0")
            .gmt(Timestamp::from_secs(1_000))
            .body_value("packageVersion", version)
            .success()
            .unwrap()
    }

    #[test]
    fn page_cells_reflect_status() {
        let mut depot = Depot::new();
        // r1: good globus, old mpich. r2: no data at all.
        submit(&mut depot, "r1", "version.globus", version_report("globus", "2.4.3"));
        submit(&mut depot, "r1", "version.mpich", version_report("mpich", "1.1.0"));
        let q = QueryInterface::new(&depot);
        let page = build_stack_page(
            &q,
            &agreement(),
            &[("sdsc".into(), "r1".into()), ("sdsc".into(), "r2".into())],
        );
        assert_eq!(page.packages["globus"], vec![PackageStatus::Green, PackageStatus::NoData]);
        assert_eq!(page.packages["mpich"], vec![PackageStatus::Red, PackageStatus::NoData]);
        assert_eq!(page.green_count(), 1);
        let text = render_stack_page(&page);
        assert!(text.contains("globus"));
        assert!(text.contains("RED"));
        assert!(text.contains("n/a"));
    }

    #[test]
    fn failed_unit_test_turns_cell_red() {
        let mut depot = Depot::new();
        submit(&mut depot, "r1", "version.globus", version_report("globus", "2.4.3"));
        let failing = ReportBuilder::new("unit.globus.smoke", "1.0")
            .gmt(Timestamp::from_secs(1_000))
            .failure("gatekeeper auth failed")
            .unwrap();
        submit(&mut depot, "r1", "unit.globus.smoke", failing);
        let q = QueryInterface::new(&depot);
        let page = build_stack_page(&q, &agreement(), &[("sdsc".into(), "r1".into())]);
        assert_eq!(page.packages["globus"], vec![PackageStatus::Red]);
    }
}
