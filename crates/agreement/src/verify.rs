//! Comparing collected data to the agreement.
//!
//! "Data consumers display the comparison of data stored at the Inca
//! server to a machine-readable description of the service agreements
//! and apply predefined metrics to express the degree of resource
//! compliance" (§3.3). [`verify_resource`] produces the per-test
//! pass/fail results behind Figure 4's status page, including the
//! failure detail links ("the test that has failed is listed and a URL
//! is given to display the error message").

use std::borrow::Borrow;
use std::collections::BTreeMap;

use inca_report::{BranchId, Report};
use inca_xml::resolve_steps;

use crate::spec::{Agreement, Category, EnvVarRequirement, PackageRequirement};

/// One verified requirement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestResult {
    /// Test identifier, e.g. `globus-2.4.3-version` or
    /// `unit.globus.duroc-mpi`.
    pub id: String,
    /// Status-page category.
    pub category: Category,
    /// Whether the requirement is met.
    pub passed: bool,
    /// Failure detail for the expanded error view.
    pub error: Option<String>,
}

impl TestResult {
    fn pass(id: impl Into<String>, category: Category) -> TestResult {
        TestResult { id: id.into(), category, passed: true, error: None }
    }

    fn fail(id: impl Into<String>, category: Category, error: impl Into<String>) -> TestResult {
        TestResult { id: id.into(), category, passed: false, error: Some(error.into()) }
    }
}

/// All results for one resource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceVerification {
    /// The resource verified.
    pub resource: String,
    /// Individual test results.
    pub results: Vec<TestResult>,
}

impl ResourceVerification {
    /// Pass/fail counts for one category.
    pub fn category_counts(&self, category: Category) -> (usize, usize) {
        let mut pass = 0;
        let mut fail = 0;
        for r in self.results.iter().filter(|r| r.category == category) {
            if r.passed {
                pass += 1;
            } else {
                fail += 1;
            }
        }
        (pass, fail)
    }

    /// Overall pass/fail counts.
    pub fn total_counts(&self) -> (usize, usize) {
        let pass = self.results.iter().filter(|r| r.passed).count();
        (pass, self.results.len() - pass)
    }

    /// The failing tests, for the expanded error view.
    pub fn failures(&self) -> impl Iterator<Item = &TestResult> {
        self.results.iter().filter(|r| !r.passed)
    }
}

/// The latest report of each reporter name, as verification reads
/// them: reports are indexed by the reporter name in their headers, and
/// when several share a name the last one in `reports` wins (the cache
/// holds one per branch anyway).
pub type ReportsByReporter<'r> = BTreeMap<&'r str, &'r Report>;

/// Indexes `reports` by reporter name; see [`ReportsByReporter`].
pub fn reports_by_reporter<R: Borrow<Report>>(reports: &[(BranchId, R)]) -> ReportsByReporter<'_> {
    reports
        .iter()
        .map(|(_, r)| {
            let report: &Report = r.borrow();
            (report.header.reporter.as_str(), report)
        })
        .collect()
}

/// One requirement of an agreement as verification evaluates it: the
/// unit that reads a fixed set of reporter names and yields its
/// [`TestResult`]s. A consumer that knows which reporters' reports
/// changed evaluates again only the requirements that
/// [read](Requirement::reads) them.
#[derive(Debug, Clone, Copy)]
pub enum Requirement<'a> {
    /// A package's version test (`version.<package>`).
    Version(&'a PackageRequirement),
    /// A package's deployed unit tests (`unit.<package>.<test>`), one
    /// result per test reported.
    UnitTests(&'a PackageRequirement),
    /// The default user environment (`user.environment`), one result
    /// per variable.
    Environment(&'a [EnvVarRequirement]),
    /// The SoftEnv keys (`cluster.admin.softenv.db`), one result per
    /// key.
    SoftEnv(&'a [String]),
    /// One service's cross-site probe (`grid.services.<service>.probe`).
    Service(&'a str),
}

impl Agreement {
    /// The requirements in the order [`verify_resource`] lists their
    /// results.
    pub fn requirements(&self) -> impl Iterator<Item = Requirement<'_>> {
        let packages = self.packages.iter().flat_map(|pkg| {
            std::iter::once(Requirement::Version(pkg))
                .chain(pkg.require_unit_tests.then_some(Requirement::UnitTests(pkg)))
        });
        packages
            .chain([
                Requirement::Environment(&self.env_vars),
                Requirement::SoftEnv(&self.softenv_keys),
            ])
            .chain(self.services.iter().map(|svc| Requirement::Service(svc)))
    }
}

impl Requirement<'_> {
    /// The status-page category of every result this requirement
    /// yields.
    pub fn category(&self) -> Category {
        match self {
            Requirement::Version(pkg) | Requirement::UnitTests(pkg) => pkg.category,
            Requirement::Environment(_) | Requirement::SoftEnv(_) => Category::Cluster,
            Requirement::Service(_) => Category::Grid,
        }
    }

    /// Whether [`Requirement::evaluate`] reads the report of
    /// `reporter`: its result can change only when such a report does.
    pub fn reads(&self, reporter: &str) -> bool {
        match self {
            Requirement::Version(pkg) => reporter.strip_prefix("version.") == Some(&pkg.name),
            Requirement::UnitTests(pkg) => reporter
                .strip_prefix("unit.")
                .and_then(|rest| rest.strip_prefix(pkg.name.as_str()))
                .is_some_and(|rest| rest.starts_with('.')),
            Requirement::Environment(_) => reporter == "user.environment",
            Requirement::SoftEnv(_) => reporter == "cluster.admin.softenv.db",
            Requirement::Service(svc) => reporter
                .strip_prefix("grid.services.")
                .and_then(|rest| rest.strip_prefix(*svc))
                == Some(".probe"),
        }
    }

    /// Appends this requirement's results, judged on `by_reporter`.
    pub fn evaluate(&self, by_reporter: &ReportsByReporter<'_>, results: &mut Vec<TestResult>) {
        match *self {
            Requirement::Version(pkg) => {
                let version_id = format!("{}-version", pkg.name);
                match by_reporter.get(format!("version.{}", pkg.name).as_str()) {
                    None => results.push(TestResult::fail(
                        version_id,
                        pkg.category,
                        format!("no version data collected for {}", pkg.name),
                    )),
                    Some(report) if !report.is_success() => results.push(TestResult::fail(
                        version_id,
                        pkg.category,
                        report
                            .footer
                            .error_message
                            .clone()
                            .unwrap_or_else(|| "version reporter failed".into()),
                    )),
                    Some(report) => {
                        let found = resolve_steps(report.body.root(), &[("packageVersion", None)]);
                        match found.map(|e| e.text()) {
                            Some(found) if pkg.version.matches_str(&found) => {
                                results.push(TestResult::pass(version_id, pkg.category))
                            }
                            Some(found) => results.push(TestResult::fail(
                                version_id,
                                pkg.category,
                                format!(
                                    "installed version {found} does not satisfy {}",
                                    pkg.version
                                ),
                            )),
                            None => results.push(TestResult::fail(
                                version_id,
                                pkg.category,
                                "version report carries no packageVersion".to_string(),
                            )),
                        }
                    }
                }
            }
            Requirement::UnitTests(pkg) => {
                let prefix = format!("unit.{}.", pkg.name);
                for (name, report) in by_reporter.iter().filter(|(n, _)| n.starts_with(&prefix)) {
                    if report.is_success() {
                        results.push(TestResult::pass(*name, pkg.category));
                    } else {
                        results.push(TestResult::fail(
                            *name,
                            pkg.category,
                            report
                                .footer
                                .error_message
                                .clone()
                                .unwrap_or_else(|| "unit test failed".into()),
                        ));
                    }
                }
            }
            // Default user environment (reported under Cluster on the
            // pages).
            Requirement::Environment(vars) => {
                let env_report = by_reporter.get("user.environment");
                for var in vars {
                    let id = format!("env-{}", var.name);
                    match env_report {
                        None => {
                            results.push(TestResult::fail(id, Category::Cluster, "no environment data"))
                        }
                        Some(report) => {
                            // `value, var=<name>, environment`,
                            // root-first; the name trimmed as the
                            // written path form trims it.
                            let steps =
                                [("environment", None), ("var", Some(var.name.trim())), ("value", None)];
                            match resolve_steps(report.body.root(), &steps).map(|e| e.text()) {
                                None => results.push(TestResult::fail(
                                    id,
                                    Category::Cluster,
                                    format!("{} not set in default environment", var.name),
                                )),
                                Some(found) => match &var.expected {
                                    Some(want) if *want != found => results.push(TestResult::fail(
                                        id,
                                        Category::Cluster,
                                        format!("{}={found}, agreement requires {want}", var.name),
                                    )),
                                    _ => results.push(TestResult::pass(id, Category::Cluster)),
                                },
                            }
                        }
                    }
                }
            }
            Requirement::SoftEnv(keys) => {
                let softenv_report = by_reporter.get("cluster.admin.softenv.db");
                for key in keys {
                    let id = format!("softenv-{key}");
                    match softenv_report {
                        None => results.push(TestResult::fail(id, Category::Cluster, "no SoftEnv data")),
                        Some(report) => {
                            // `expansion, key=<key>, softenv`,
                            // root-first, trimmed alike.
                            let steps =
                                [("softenv", None), ("key", Some(key.trim())), ("expansion", None)];
                            if resolve_steps(report.body.root(), &steps).is_some() {
                                results.push(TestResult::pass(id, Category::Cluster));
                            } else {
                                results.push(TestResult::fail(
                                    id,
                                    Category::Cluster,
                                    format!("SoftEnv key {key} not defined"),
                                ));
                            }
                        }
                    }
                }
            }
            // Cross-site probes, Grid category.
            Requirement::Service(svc) => {
                let id = format!("service-{svc}");
                match by_reporter.get(format!("grid.services.{svc}.probe").as_str()) {
                    None => results.push(TestResult::fail(id, Category::Grid, "no probe data")),
                    Some(report) if report.is_success() => {
                        results.push(TestResult::pass(id, Category::Grid))
                    }
                    Some(report) => results.push(TestResult::fail(
                        id,
                        Category::Grid,
                        report.footer.error_message.clone().unwrap_or_else(|| "probe failed".into()),
                    )),
                }
            }
        }
    }
}

/// Verifies one resource's cached reports against the agreement: every
/// [`Requirement`] evaluated on [`reports_by_reporter`].
///
/// `reports` are the cached `(branch, report)` pairs for this resource
/// (as returned by the query interface). Owned and shared
/// (`Arc<Report>`, as the depot's set reads return) reports verify
/// alike.
pub fn verify_resource<R: Borrow<Report>>(
    agreement: &Agreement,
    reports: &[(BranchId, R)],
    resource: &str,
) -> ResourceVerification {
    let by_reporter = reports_by_reporter(reports);
    let mut results = Vec::new();
    for requirement in agreement.requirements() {
        requirement.evaluate(&by_reporter, &mut results);
    }
    ResourceVerification { resource: resource.to_string(), results }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_report::{ReportBuilder, Timestamp};
    use inca_xml::Element;

    fn branch(reporter: &str) -> BranchId {
        format!("reporter={reporter},resource=r1,site=sdsc,vo=tg").parse().unwrap()
    }

    fn version_report(pkg: &str, version: &str) -> (BranchId, Report) {
        let r = ReportBuilder::new(format!("version.{pkg}"), "1.0")
            .gmt(Timestamp::from_secs(0))
            .body_value("packageName", pkg)
            .body_value("packageVersion", version)
            .success()
            .unwrap();
        (branch(&format!("version.{pkg}")), r)
    }

    fn unit_report(pkg: &str, test: &str, ok: bool) -> (BranchId, Report) {
        let name = format!("unit.{pkg}.{test}");
        let b = ReportBuilder::new(&name, "1.0").gmt(Timestamp::from_secs(0));
        let r = if ok {
            b.body_value("testResult", "passed").success().unwrap()
        } else {
            b.failure(format!("{test} failed: timeout")).unwrap()
        };
        (branch(&name), r)
    }

    fn env_report(vars: &[(&str, &str)]) -> (BranchId, Report) {
        let mut env = Element::new("environment");
        for (n, v) in vars {
            env.push_child(
                Element::new("var")
                    .child(Element::with_text("ID", *n))
                    .child(Element::with_text("value", *v)),
            );
        }
        let r = ReportBuilder::new("user.environment", "1.0")
            .gmt(Timestamp::from_secs(0))
            .body_element(env)
            .success()
            .unwrap();
        (branch("user.environment"), r)
    }

    fn probe_report(svc: &str, ok: bool) -> (BranchId, Report) {
        let name = format!("grid.services.{svc}.probe");
        let b = ReportBuilder::new(&name, "1.0").gmt(Timestamp::from_secs(0));
        let r = if ok {
            b.body_value("target", "other").success().unwrap()
        } else {
            b.failure(format!("{svc} did not answer")).unwrap()
        };
        (branch(&name), r)
    }

    fn small_agreement() -> Agreement {
        let mut a = Agreement::new("tg", "2.0");
        a.packages.push(crate::spec::PackageRequirement {
            name: "globus".into(),
            category: Category::Grid,
            version: ">=2.4.0".parse().unwrap(),
            require_unit_tests: true,
        });
        a.env_vars.push(crate::spec::EnvVarRequirement {
            name: "GLOBUS_LOCATION".into(),
            expected: None,
        });
        a.services.push("gram".into());
        a
    }

    #[test]
    fn fully_compliant_resource() {
        let a = small_agreement();
        let reports = vec![
            version_report("globus", "2.4.3"),
            unit_report("globus", "smoke", true),
            env_report(&[("GLOBUS_LOCATION", "/usr/globus")]),
            probe_report("gram", true),
        ];
        let v = verify_resource(&a, &reports, "r1");
        let (pass, fail) = v.total_counts();
        assert_eq!(fail, 0, "failures: {:?}", v.failures().collect::<Vec<_>>());
        assert_eq!(pass, 4);
    }

    #[test]
    fn version_too_old_fails() {
        let a = small_agreement();
        let reports = vec![version_report("globus", "2.3.2")];
        let v = verify_resource(&a, &reports, "r1");
        let failing: Vec<&TestResult> = v.failures().collect();
        assert!(failing.iter().any(|t| t.id == "globus-version"
            && t.error.as_deref().unwrap().contains("does not satisfy")));
    }

    #[test]
    fn missing_data_fails_each_requirement() {
        let a = small_agreement();
        let v = verify_resource::<Report>(&a, &[], "r1");
        let (pass, fail) = v.total_counts();
        assert_eq!(pass, 0);
        assert_eq!(fail, 3); // version + env var + service
    }

    #[test]
    fn failed_unit_test_surfaces_its_message() {
        let a = small_agreement();
        let reports = vec![
            version_report("globus", "2.4.3"),
            unit_report("globus", "duroc-mpi", false),
        ];
        let v = verify_resource(&a, &reports, "r1");
        let unit = v.results.iter().find(|t| t.id == "unit.globus.duroc-mpi").unwrap();
        assert!(!unit.passed);
        assert!(unit.error.as_deref().unwrap().contains("timeout"));
        assert_eq!(unit.category, Category::Grid);
    }

    #[test]
    fn env_var_value_mismatch() {
        let mut a = Agreement::new("tg", "2.0");
        a.env_vars.push(crate::spec::EnvVarRequirement {
            name: "GLOBUS_LOCATION".into(),
            expected: Some("/usr/teragrid/globus".into()),
        });
        let reports = vec![env_report(&[("GLOBUS_LOCATION", "/opt/other")])];
        let v = verify_resource(&a, &reports, "r1");
        assert_eq!(v.total_counts(), (0, 1));
        // Presence-only requirement passes with any value.
        a.env_vars[0].expected = None;
        let v = verify_resource(&a, &reports, "r1");
        assert_eq!(v.total_counts(), (1, 0));
    }

    #[test]
    fn category_counts_split() {
        let a = small_agreement();
        let reports = vec![
            version_report("globus", "2.4.3"),
            probe_report("gram", false),
            env_report(&[]),
        ];
        let v = verify_resource(&a, &reports, "r1");
        let (grid_pass, grid_fail) = v.category_counts(Category::Grid);
        assert_eq!((grid_pass, grid_fail), (1, 1)); // version ok, probe failed
        let (cl_pass, cl_fail) = v.category_counts(Category::Cluster);
        assert_eq!((cl_pass, cl_fail), (0, 1)); // env var missing
        assert_eq!(v.category_counts(Category::Development), (0, 0));
    }

    #[test]
    fn softenv_keys_verified() {
        let mut a = Agreement::new("tg", "2.0");
        a.softenv_keys.push("+globus".into());
        a.softenv_keys.push("+missing".into());
        let mut db = Element::new("softenv");
        db.push_child(
            Element::new("key")
                .child(Element::with_text("ID", "+globus"))
                .child(Element::with_text("expansion", "PATH+=/g")),
        );
        let r = ReportBuilder::new("cluster.admin.softenv.db", "1.0")
            .body_element(db)
            .success()
            .unwrap();
        let reports = vec![(branch("cluster.admin.softenv.db"), r)];
        let v = verify_resource(&a, &reports, "r1");
        assert_eq!(v.total_counts(), (1, 1));
    }
}
