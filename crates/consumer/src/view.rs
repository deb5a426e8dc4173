//! The verification consumer at the cost of what changed.
//!
//! The paper's consumer compares the depot cache with the VO agreement
//! every ten minutes (§3.3), and between two passes only the reports
//! written since have changed. [`ComplianceView`] holds, for each
//! verified resource, that resource's reports in cache order and its
//! last [`ComplianceSummary`]. A pass ([`ComplianceView::refresh`])
//! asks the depot only for what was written after the generation the
//! view last saw ([`QueryInterface::reports_since`]), replaces those
//! entries, and evaluates again only the agreement [`Requirement`]s
//! that read a reporter whose report changed. Every summary equals
//! [`verify_resource`] over a fresh [`QueryInterface::reports`] of the
//! resource, the way a full pass computes it, including a resource
//! whose read fails: that one verifies as having no data until the read
//! succeeds again.

use std::collections::BTreeMap;
use std::sync::Arc;

#[cfg(doc)]
use inca_agreement::{verify_resource, Requirement};
use inca_agreement::{
    reports_by_reporter, Agreement, Category, CategorySummary, ComplianceSummary, TestResult,
};
use inca_report::{BranchId, Report};
use inca_server::QueryInterface;

/// One verified resource.
#[derive(Debug)]
struct Resource {
    /// `site-host`, as the status page labels it.
    label: String,
    host: String,
    /// `resource=<host>,site=<site>,vo=<vo>`, or `None` when the labels
    /// make no branch identifier (then the resource has no data).
    suffix: Option<BranchId>,
    /// The cache generation `reports` reflects; `None` before the
    /// first successful read.
    seen: Option<u64>,
    /// The resource's reports, in cache order.
    reports: Vec<(BranchId, Arc<Report>)>,
    /// Whether the last read failed; the verdict then is on no data.
    unreadable: bool,
    verdict: Verdict,
}

/// What the agreement says of one resource.
#[derive(Debug, Default)]
struct Verdict {
    /// Passes and failures per requirement, in
    /// [`Agreement::requirements`] order.
    counts: Vec<(usize, usize)>,
    /// `None` until the first refresh verifies the resource.
    summary: Option<ComplianceSummary>,
}

impl Verdict {
    /// Evaluates again, on `reports`, the requirements that read a
    /// reporter of `changed` (every requirement when `None`) and sums
    /// the summary; returns whether any requirement was evaluated.
    fn reverify(
        &mut self,
        agreement: &Agreement,
        host: &str,
        reports: &[(BranchId, Arc<Report>)],
        changed: Option<&[Arc<Report>]>,
    ) -> bool {
        let by_reporter = reports_by_reporter(reports);
        self.counts.resize(agreement.requirements().count(), (0, 0));
        let mut results: Vec<TestResult> = Vec::new();
        let mut evaluated = false;
        for (requirement, counts) in agreement.requirements().zip(&mut self.counts) {
            let reads_a_change = changed.is_none_or(|changed| {
                changed.iter().any(|report| requirement.reads(&report.header.reporter))
            });
            if reads_a_change {
                results.clear();
                requirement.evaluate(&by_reporter, &mut results);
                let passed = results.iter().filter(|r| r.passed).count();
                *counts = (passed, results.len() - passed);
                evaluated = true;
            }
        }
        if evaluated || self.summary.is_none() {
            self.summary = Some(summarize(agreement, host, &self.counts));
        }
        evaluated
    }
}

/// What one [`ComplianceView::refresh`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Reports read from the depot: those written since the last pass.
    pub changed: usize,
    /// How many of those the depot had to parse.
    pub parsed: usize,
    /// Resources with at least one requirement evaluated again.
    pub resources_reverified: usize,
}

/// Per-resource reports and compliance summaries, kept current by
/// reading only what changed.
#[derive(Debug)]
pub struct ComplianceView {
    agreement: Agreement,
    resources: Vec<Resource>,
}

impl ComplianceView {
    /// A view of `resources` (`(site, host)` pairs, each read with the
    /// suffix `resource=<host>,site=<site>,vo=<vo>`). It holds nothing
    /// until the first [`ComplianceView::refresh`].
    pub fn new(agreement: &Agreement, resources: &[(String, String)]) -> ComplianceView {
        let resources = resources
            .iter()
            .map(|(site, host)| Resource {
                label: format!("{site}-{host}"),
                host: host.clone(),
                suffix: format!("resource={host},site={site},vo={}", agreement.vo).parse().ok(),
                seen: None,
                reports: Vec::new(),
                unreadable: false,
                verdict: Verdict::default(),
            })
            .collect();
        ComplianceView { agreement: agreement.clone(), resources }
    }

    /// Reads what was written since the last refresh and evaluates
    /// again the requirements that read what changed (every
    /// requirement, the first time).
    pub fn refresh(&mut self, query: &QueryInterface<'_>) -> PassStats {
        let mut stats = PassStats::default();
        for resource in &mut self.resources {
            let read =
                resource.suffix.as_ref().map(|s| query.reports_since(Some(s), resource.seen));
            let reverified = match read {
                Some(Ok(read)) => {
                    stats.changed += read.reports.len();
                    stats.parsed += read.parsed;
                    let changed = replace_in_cache_order(&mut resource.reports, read.reports);
                    resource.seen = Some(read.generation);
                    let all = resource.verdict.summary.is_none() || resource.unreadable;
                    resource.unreadable = false;
                    (all || !changed.is_empty())
                        && resource.verdict.reverify(
                            &self.agreement,
                            &resource.host,
                            &resource.reports,
                            (!all).then_some(&changed),
                        )
                }
                // A resource the depot cannot read (or whose labels
                // name no branch) verifies as having no data. Its
                // entries and `seen` stay, so the next read asks again
                // for everything written since, the unreadable report
                // included.
                _ if resource.unreadable => false,
                _ => {
                    resource.unreadable = true;
                    resource.verdict.reverify(&self.agreement, &resource.host, &[], None)
                }
            };
            stats.resources_reverified += usize::from(reverified);
        }
        stats
    }

    /// `(label, summary)` per resource verified so far, in the order
    /// the view was given them.
    pub fn summaries(&self) -> impl Iterator<Item = (&str, &ComplianceSummary)> {
        self.resources
            .iter()
            .filter_map(|r| Some((r.label.as_str(), r.verdict.summary.as_ref()?)))
    }
}

/// The summary [`verify_resource`] would give, from per-requirement
/// counts.
fn summarize(agreement: &Agreement, host: &str, counts: &[(usize, usize)]) -> ComplianceSummary {
    let mut categories: BTreeMap<Category, CategorySummary> =
        Category::all().into_iter().map(|c| (c, CategorySummary { pass: 0, fail: 0 })).collect();
    for (requirement, (pass, fail)) in agreement.requirements().zip(counts) {
        let category = categories.get_mut(&requirement.category()).expect("every category");
        category.pass += pass;
        category.fail += fail;
    }
    ComplianceSummary { resource: host.to_string(), categories }
}

/// Puts each changed report in `held`, both in cache order: a branch
/// already held is replaced, a new one inserted where the cache walk
/// would list it (a level before its children, siblings by `(name,
/// id)`, which is the general-first pairs compared in order). Returns
/// every report that came or went: their reporters are what changed.
fn replace_in_cache_order(
    held: &mut Vec<(BranchId, Arc<Report>)>,
    changed: Vec<(BranchId, Arc<Report>)>,
) -> Vec<Arc<Report>> {
    let mut moved = Vec::with_capacity(2 * changed.len());
    for (branch, report) in changed {
        moved.push(Arc::clone(&report));
        match held.binary_search_by(|(b, _)| b.hierarchy().cmp(branch.hierarchy())) {
            Ok(i) => moved.push(std::mem::replace(&mut held[i].1, report)),
            Err(i) => held.insert(i, (branch, report)),
        }
    }
    moved
}
