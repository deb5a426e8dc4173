//! Compliance metrics.
//!
//! §3.3: "data consumers … apply predefined metrics to express the
//! degree of resource compliance. For example, a metric for measuring
//! Grid service availability on a resource can be defined as follows:
//! (1) at least one site can access the resource's Grid service, and
//! (2) the resource can access at least one other site's Grid
//! service." This module provides that metric plus the per-category
//! summary percentages shown on the Figure 4 status page and archived
//! for Figure 5.

use std::collections::BTreeMap;

use crate::spec::Category;
use crate::verify::ResourceVerification;

/// Pass/fail counts and percentage for one category (one cell of the
/// Figure 4 table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CategorySummary {
    /// Tests passed.
    pub pass: usize,
    /// Tests failed.
    pub fail: usize,
}

impl CategorySummary {
    /// Percentage passed, `None` when no test applies ("n/a" cells).
    pub fn percent(&self) -> Option<f64> {
        let total = self.pass + self.fail;
        if total == 0 {
            None
        } else {
            Some(self.pass as f64 * 100.0 / total as f64)
        }
    }
}

/// The full status-page row for one resource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComplianceSummary {
    /// The resource.
    pub resource: String,
    /// Per-category summaries in Grid/Development/Cluster order.
    pub categories: BTreeMap<Category, CategorySummary>,
}

impl ComplianceSummary {
    /// Builds the summary from verification results.
    pub fn from_verification(v: &ResourceVerification) -> ComplianceSummary {
        let mut categories = BTreeMap::new();
        for category in Category::all() {
            let (pass, fail) = v.category_counts(category);
            categories.insert(category, CategorySummary { pass, fail });
        }
        ComplianceSummary { resource: v.resource.clone(), categories }
    }

    /// One category's summary.
    pub fn category(&self, category: Category) -> CategorySummary {
        self.categories.get(&category).copied().unwrap_or(CategorySummary { pass: 0, fail: 0 })
    }

    /// The "Total Pass" column.
    pub fn total(&self) -> CategorySummary {
        let mut total = CategorySummary { pass: 0, fail: 0 };
        for s in self.categories.values() {
            total.pass += s.pass;
            total.fail += s.fail;
        }
        total
    }
}

/// One observed cross-site probe for the availability metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeObservation {
    /// Resource the probe ran on.
    pub src_resource: String,
    /// Resource whose service was probed.
    pub dst_resource: String,
    /// Whether the probe succeeded.
    pub ok: bool,
}

/// The §3.3 Grid-service-availability metric.
///
/// A resource's Grid service is *available* iff (1) at least one other
/// resource successfully probed it and (2) it successfully probed at
/// least one other resource. Returns the availability decision per
/// resource mentioned in the observations.
pub fn grid_availability(observations: &[ProbeObservation]) -> BTreeMap<String, bool> {
    let mut inbound_ok: BTreeMap<&str, bool> = BTreeMap::new();
    let mut outbound_ok: BTreeMap<&str, bool> = BTreeMap::new();
    for obs in observations {
        if obs.src_resource == obs.dst_resource {
            continue; // self-probes do not demonstrate cross-site access
        }
        let in_entry = inbound_ok.entry(&obs.dst_resource).or_insert(false);
        *in_entry |= obs.ok;
        let out_entry = outbound_ok.entry(&obs.src_resource).or_insert(false);
        *out_entry |= obs.ok;
        // Make sure both endpoints appear in the result even if only
        // seen on one side.
        inbound_ok.entry(&obs.src_resource).or_insert(false);
        outbound_ok.entry(&obs.dst_resource).or_insert(false);
    }
    let mut out = BTreeMap::new();
    for (resource, &has_in) in &inbound_ok {
        let has_out = outbound_ok.get(resource).copied().unwrap_or(false);
        out.insert(resource.to_string(), has_in && has_out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{ResourceVerification, TestResult};

    fn result(category: Category, passed: bool) -> TestResult {
        TestResult {
            id: format!("t-{}-{passed}", category.as_str()),
            category,
            passed,
            error: if passed { None } else { Some("boom".into()) },
        }
    }

    #[test]
    fn figure4_row_shape() {
        // site1-resource1 in Figure 4: Grid 32/1, Development 23/0,
        // Cluster 1/1, total 56/2.
        let mut results = Vec::new();
        for _ in 0..32 {
            results.push(result(Category::Grid, true));
        }
        results.push(result(Category::Grid, false));
        for _ in 0..23 {
            results.push(result(Category::Development, true));
        }
        results.push(result(Category::Cluster, true));
        results.push(result(Category::Cluster, false));
        let v = ResourceVerification { resource: "site1-resource1".into(), results };
        let s = ComplianceSummary::from_verification(&v);
        assert_eq!(s.category(Category::Grid).pass, 32);
        assert_eq!(s.category(Category::Grid).fail, 1);
        assert!((s.category(Category::Grid).percent().unwrap() - 96.969).abs() < 0.01);
        assert_eq!(s.category(Category::Development).percent(), Some(100.0));
        assert_eq!(s.category(Category::Cluster).percent(), Some(50.0));
        let total = s.total();
        assert_eq!((total.pass, total.fail), (56, 2));
        assert!((total.percent().unwrap() - 96.55).abs() < 0.01);
    }

    #[test]
    fn empty_category_is_na() {
        let v = ResourceVerification { resource: "r".into(), results: vec![] };
        let s = ComplianceSummary::from_verification(&v);
        assert_eq!(s.category(Category::Grid).percent(), None);
        assert_eq!(s.total().percent(), None);
    }

    fn obs(src: &str, dst: &str, ok: bool) -> ProbeObservation {
        ProbeObservation { src_resource: src.into(), dst_resource: dst.into(), ok }
    }

    #[test]
    fn availability_requires_both_directions() {
        // a can reach b; b can reach a: both available.
        let map = grid_availability(&[obs("a", "b", true), obs("b", "a", true)]);
        assert!(map["a"]);
        assert!(map["b"]);
    }

    #[test]
    fn inbound_only_is_unavailable() {
        // Everyone can reach c, but c reaches no one.
        let map = grid_availability(&[
            obs("a", "c", true),
            obs("b", "c", true),
            obs("c", "a", false),
            obs("c", "b", false),
        ]);
        assert!(!map["c"]);
    }

    #[test]
    fn outbound_only_is_unavailable() {
        let map = grid_availability(&[obs("c", "a", true), obs("a", "c", false)]);
        assert!(!map["c"]);
        assert!(!map["a"], "a has outbound failure only... a has inbound ok from c but no outbound success");
    }

    #[test]
    fn one_success_each_way_suffices() {
        // c reaches only a; only b reaches c.
        let map = grid_availability(&[
            obs("c", "a", true),
            obs("c", "b", false),
            obs("a", "c", false),
            obs("b", "c", true),
        ]);
        assert!(map["c"]);
    }

    #[test]
    fn self_probes_ignored() {
        let map = grid_availability(&[obs("a", "a", true)]);
        assert!(map.is_empty() || !map.get("a").copied().unwrap_or(false));
    }
}
