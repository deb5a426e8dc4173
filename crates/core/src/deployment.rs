//! Deployment generation: Figure 3 in code.
//!
//! A [`Deployment`] bundles everything the §4 TeraGrid installation
//! had: the VO (resources, failures, network), the service agreement,
//! and one specification file per resource. Reporter assignment
//! reproduces Table 2's per-machine instance counts; cross-site
//! reporters target the next machine at a different site; every entry
//! gets a random offset within its period (§3.1.3) drawn from the
//! deployment seed.

use inca_agreement::Agreement;
use inca_controller::{Spec, SpecEntry};
use inca_cron::Frequency;
use inca_report::{BranchId, Timestamp};
use inca_reporters::catalog::{install_extended_packages, teragrid_catalog, CatalogEntry};
use inca_sim::site::teragrid_machines;
use inca_sim::Vo;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One resource's generated configuration.
#[derive(Debug, Clone)]
pub struct ResourceAssignment {
    /// Fully-qualified hostname.
    pub hostname: String,
    /// Site id.
    pub site: String,
    /// The specification file for its distributed controller.
    pub spec: Spec,
}

/// A complete deployment.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The simulated VO.
    pub vo: Vo,
    /// The agreement data consumers verify against.
    pub agreement: Agreement,
    /// Per-resource configuration.
    pub assignments: Vec<ResourceAssignment>,
    /// The reporter catalog the controllers instantiate from.
    pub catalog: Vec<CatalogEntry>,
    /// Deployment seed (reproducibility).
    pub seed: u64,
    /// Simulation horizon start.
    pub start: Timestamp,
    /// Simulation horizon end.
    pub end: Timestamp,
}

impl Deployment {
    /// `(site, resource)` labels in deployment order, as the status
    /// page consumer wants them.
    pub fn resource_labels(&self) -> Vec<(String, String)> {
        self.assignments.iter().map(|a| (a.site.clone(), a.hostname.clone())).collect()
    }

    /// Total reporter instances per hour across all resources (Table
    /// 2's bottom line).
    pub fn total_instances(&self) -> usize {
        self.assignments.iter().map(|a| a.spec.entries.len()).sum()
    }

    /// Keeps only the named resources' controllers (the VO itself is
    /// untouched so cross-site targets stay resolvable). Used by
    /// single-resource experiments such as Figures 5 and 7.
    pub fn retain_resources(&mut self, hostnames: &[&str]) {
        self.assignments.retain(|a| hostnames.contains(&a.hostname.as_str()));
    }
}

/// Priority order for assigning catalog entries to machines: the
/// infrastructure reporters every machine should run come first, then
/// core package version/unit reporters, then the long tail of
/// extended version queries.
fn assignment_order(catalog: &[CatalogEntry]) -> Vec<usize> {
    let rank = |entry: &CatalogEntry| -> u32 {
        let n = entry.name.as_str();
        if n == "user.environment" || n == "cluster.admin.softenv.db" {
            0
        } else if n.starts_with("grid.services.") {
            1
        } else if n.starts_with("network.bandwidth.") {
            2
        } else if n.starts_with("benchmark.grasp.") {
            3
        } else if n.starts_with("version.")
            && inca_reporters::catalog::CORE_PACKAGES
                .contains(&n.trim_start_matches("version."))
        {
            4
        } else if n.starts_with("unit.") {
            5
        } else {
            6 // extended version reporters
        }
    };
    let mut order: Vec<usize> = (0..catalog.len()).collect();
    order.sort_by_key(|&i| (rank(&catalog[i]), i));
    order
}

/// Picks the probe/measurement target for `hostname`: the next Table 2
/// machine (cyclically) at a *different* site, skipping `extra`
/// positions for additional instances.
fn cross_site_target(
    machines: &[(inca_sim::ResourceSpec, u32)],
    own_index: usize,
    extra: usize,
) -> String {
    let own_site = &machines[own_index].0.site;
    let candidates: Vec<&str> = machines
        .iter()
        .enumerate()
        .filter(|(i, (spec, _))| *i != own_index && spec.site != *own_site)
        .map(|(_, (spec, _))| spec.hostname.as_str())
        .collect();
    let pick = (own_index + extra) % candidates.len();
    candidates[pick].to_string()
}

/// Expected-runtime budget per reporter family (§3.1.3's kill
/// threshold). Long enough that only hung runs are killed.
fn expected_runtime(reporter: &str) -> u64 {
    if reporter.starts_with("version.") {
        60
    } else if reporter.starts_with("unit.") || reporter.starts_with("grid.services.") {
        300
    } else if reporter.starts_with("network.") {
        600
    } else if reporter.starts_with("benchmark.") {
        1_500
    } else {
        300
    }
}

/// Builds the full TeraGrid-like deployment over `[start, end)`.
pub fn teragrid_deployment(seed: u64, start: Timestamp, end: Timestamp) -> Deployment {
    let mut vo = Vo::teragrid(seed, start, end);
    // The extended packages exist on every resource so the catalog's
    // version-only reporters succeed.
    for resource in vo.resources_mut() {
        install_extended_packages(&mut resource.stack);
    }
    let catalog = teragrid_catalog();
    let order = assignment_order(&catalog);
    let machines = teragrid_machines();
    let mut assignments = Vec::with_capacity(machines.len());

    for (m_idx, (spec_info, count)) in machines.iter().enumerate() {
        let hostname = spec_info.hostname.clone();
        let site = spec_info.site.clone();
        // Per-machine RNG so offsets differ across machines but are
        // reproducible.
        let mut rng = StdRng::seed_from_u64(seed ^ (m_idx as u64).wrapping_mul(0x9E37));
        let mut spec = Spec::new(hostname.clone());
        let count = *count as usize;
        for instance in 0..count {
            // Past the catalog size, wrap around adding extra probe
            // instances with distinct names and targets.
            let cat_idx = order[instance % catalog.len()];
            let entry = &catalog[cat_idx];
            let round = instance / catalog.len();
            let instance_name = if round == 0 {
                entry.name.clone()
            } else {
                format!("{}#{}", entry.name, round + 1)
            };
            let cron = entry
                .frequency
                .to_cron(&mut rng)
                .unwrap_or_else(|_| Frequency::Hourly.to_cron(&mut rng).expect("hourly is valid"));
            let target = if entry.kind.needs_target() {
                Some(cross_site_target(&machines, m_idx, round))
            } else {
                None
            };
            let branch_text = match &target {
                Some(t) => format!(
                    "dest={t},reporter={instance_name},resource={hostname},site={site},vo=teragrid"
                ),
                None => {
                    format!("reporter={instance_name},resource={hostname},site={site},vo=teragrid")
                }
            };
            let branch: BranchId = branch_text.parse().expect("generated branch is valid");
            let mut spec_entry =
                SpecEntry::new(instance_name, cron, expected_runtime(&entry.name), branch);
            spec_entry.target = target;
            spec.push(spec_entry);
        }
        assignments.push(ResourceAssignment { hostname, site, spec });
    }

    Deployment {
        vo,
        agreement: Agreement::teragrid(),
        assignments,
        catalog,
        seed,
        start,
        end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn week() -> (Timestamp, Timestamp) {
        let start = Timestamp::from_gmt(2004, 6, 29, 0, 0, 0);
        (start, start + 7 * 86_400)
    }

    #[test]
    fn table2_instance_counts() {
        let (start, end) = week();
        let d = teragrid_deployment(42, start, end);
        assert_eq!(d.assignments.len(), 10);
        assert_eq!(d.total_instances(), 1_060, "Table 2 total");
        let caltech = d
            .assignments
            .iter()
            .find(|a| a.hostname == "tg-login1.caltech.teragrid.org")
            .unwrap();
        assert_eq!(caltech.spec.entries.len(), 128);
        let viz = d
            .assignments
            .iter()
            .find(|a| a.hostname == "tg-viz-login1.uc.teragrid.org")
            .unwrap();
        assert_eq!(viz.spec.entries.len(), 136);
        let rachel = d.assignments.iter().find(|a| a.hostname == "rachel.psc.edu").unwrap();
        assert_eq!(rachel.spec.entries.len(), 71);
    }

    #[test]
    fn all_entries_hourly_per_table2() {
        let (start, end) = week();
        let d = teragrid_deployment(42, start, end);
        for a in &d.assignments {
            assert!(
                (a.spec.runs_per_hour() - a.spec.entries.len() as f64).abs() < 1e-9,
                "{} runs/hour mismatch",
                a.hostname
            );
        }
    }

    #[test]
    fn instance_names_unique_within_machine() {
        let (start, end) = week();
        let d = teragrid_deployment(42, start, end);
        for a in &d.assignments {
            let mut names: Vec<&str> =
                a.spec.entries.iter().map(|e| e.reporter.as_str()).collect();
            names.sort();
            let n = names.len();
            names.dedup();
            assert_eq!(names.len(), n, "duplicate instance names on {}", a.hostname);
        }
    }

    #[test]
    fn branches_unique_across_deployment() {
        let (start, end) = week();
        let d = teragrid_deployment(42, start, end);
        let mut branches: Vec<String> = d
            .assignments
            .iter()
            .flat_map(|a| a.spec.entries.iter().map(|e| e.branch.to_string()))
            .collect();
        branches.sort();
        let n = branches.len();
        branches.dedup();
        assert_eq!(branches.len(), n, "duplicate branch identifiers");
        assert_eq!(n, 1_060);
    }

    #[test]
    fn cross_site_targets_are_other_sites() {
        let (start, end) = week();
        let d = teragrid_deployment(42, start, end);
        for a in &d.assignments {
            for e in &a.spec.entries {
                if let Some(target) = &e.target {
                    assert_ne!(target, &a.hostname);
                    let target_site = d
                        .vo
                        .resource(target)
                        .unwrap_or_else(|| panic!("target {target} not in VO"))
                        .spec
                        .site
                        .clone();
                    assert_ne!(target_site, a.site, "{}: target {target} same site", a.hostname);
                }
            }
        }
    }

    #[test]
    fn every_machine_runs_infrastructure_reporters() {
        let (start, end) = week();
        let d = teragrid_deployment(42, start, end);
        for a in &d.assignments {
            for required in
                ["user.environment", "cluster.admin.softenv.db", "grid.services.gram.probe"]
            {
                assert!(
                    a.spec.entries.iter().any(|e| e.reporter == required),
                    "{} missing {required}",
                    a.hostname
                );
            }
        }
    }

    #[test]
    fn offsets_spread_within_the_hour() {
        let (start, end) = week();
        let d = teragrid_deployment(42, start, end);
        let caltech = d
            .assignments
            .iter()
            .find(|a| a.hostname == "tg-login1.caltech.teragrid.org")
            .unwrap();
        let minutes: std::collections::HashSet<u32> = caltech
            .spec
            .entries
            .iter()
            .filter_map(|e| e.cron.next_after(start).ok())
            .map(|t| t.minute_of_hour())
            .collect();
        assert!(minutes.len() > 30, "offsets poorly spread: {} distinct", minutes.len());
    }

    #[test]
    fn deterministic_from_seed() {
        let (start, end) = week();
        let a = teragrid_deployment(7, start, end);
        let b = teragrid_deployment(7, start, end);
        for (x, y) in a.assignments.iter().zip(&b.assignments) {
            assert_eq!(x.spec, y.spec);
        }
        let c = teragrid_deployment(8, start, end);
        assert_ne!(a.assignments[0].spec, c.assignments[0].spec);
    }

    #[test]
    fn extended_packages_installed() {
        let (start, end) = week();
        let d = teragrid_deployment(42, start, end);
        for r in d.vo.resources() {
            assert!(r.stack.version("lapack").is_some());
            assert!(r.stack.len() >= 80);
        }
    }
}
