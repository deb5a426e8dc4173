//! Scheduling: the dependency gate of the paper's §6 future work ("we
//! plan to enable more advanced test scheduling, specifically allowing
//! for dependencies"): an entry with `depends_on` only runs while its
//! dependency's most recent run succeeded.
//!
//! *When* entries fire is the daemon's wake-up heap
//! (`DistributedController::prime` / `run_next_batch`), which asks each
//! entry's cron expression for its next fire.

use std::collections::BTreeMap;

use crate::spec::Spec;

/// Scheduler state for one controller.
#[derive(Debug, Clone, Default)]
pub struct Scheduler {
    /// reporter name → most recent run success.
    last_success: BTreeMap<String, bool>,
}

impl Scheduler {
    /// Whether `entry`'s dependency (if any) currently permits it.
    ///
    /// Semantics: no dependency → runnable; dependency never ran yet →
    /// runnable (first periods must bootstrap); dependency's last run
    /// failed → blocked.
    pub fn dependency_satisfied(&self, spec: &Spec, entry_idx: usize) -> bool {
        match &spec.entries[entry_idx].depends_on {
            None => true,
            Some(dep) => self.last_success.get(dep).copied().unwrap_or(true),
        }
    }

    /// Records the outcome of a run for dependency gating.
    pub fn record_outcome(&mut self, reporter: &str, success: bool) {
        self.last_success.insert(reporter.to_string(), success);
    }

    /// Most recent outcome for a reporter, if it ran.
    pub fn last_outcome(&self, reporter: &str) -> Option<bool> {
        self.last_success.get(reporter).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecEntry;
    use inca_report::BranchId;

    fn spec() -> Spec {
        let branch: BranchId = "reporter=x,vo=t".parse().unwrap();
        let mut spec = Spec::new("host");
        spec.push(SpecEntry::new("a", "20 * * * *".parse().unwrap(), 60, branch.clone()));
        let mut b = SpecEntry::new("b", "25 * * * *".parse().unwrap(), 60, branch.clone());
        b.depends_on = Some("a".into());
        spec.push(b);
        spec
    }

    #[test]
    fn dependency_gating() {
        let spec = spec();
        let mut sched = Scheduler::default();
        // Bootstrap: dependency never ran, so b may run.
        assert!(sched.dependency_satisfied(&spec, 1));
        sched.record_outcome("a", false);
        assert!(!sched.dependency_satisfied(&spec, 1));
        sched.record_outcome("a", true);
        assert!(sched.dependency_satisfied(&spec, 1));
        // Entry without dependency always runnable.
        assert!(sched.dependency_satisfied(&spec, 0));
        assert_eq!(sched.last_outcome("a"), Some(true));
        assert_eq!(sched.last_outcome("never-ran"), None);
    }
}
