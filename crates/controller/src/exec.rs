//! Execution modelling: how long reporters run, and the process table
//! the daemon keeps over its forked children.
//!
//! "When a reporter is scheduled to run, the daemon wakes up and forks
//! off a process to execute it. The daemon also monitors all forked
//! processes and terminates them if they exceed expected run time"
//! (§3.1.3). In the simulation, a fork is an [`ExecRecord`] interval;
//! the [`DurationModel`] assigns each reporter a deterministic synthetic
//! runtime so kill behaviour and the Figure 7 memory profile (daemon +
//! concurrently live forks) fall out of the same state.

use inca_report::Timestamp;

/// Deterministic synthetic runtimes per reporter family.
#[derive(Debug, Clone, Copy)]
pub struct DurationModel {
    /// Seed mixed into the per-execution hash.
    pub seed: u64,
}

impl DurationModel {
    /// A model with the given seed.
    pub fn new(seed: u64) -> DurationModel {
        DurationModel { seed }
    }

    /// Seconds the named reporter takes when started at `t`.
    ///
    /// Families (by name prefix) get characteristic base times:
    /// version queries are seconds, unit tests tens of seconds,
    /// cross-site probes up to a minute, benchmarks minutes. A ±50 %
    /// deterministic jitter is applied; occasionally (~1 % of runs) a
    /// run hangs for 10× its base — that is what the expected-runtime
    /// kill is for.
    pub fn duration_secs(&self, reporter: &str, t: Timestamp) -> u64 {
        let base: u64 = if reporter.starts_with("version.") {
            2
        } else if reporter.starts_with("unit.") {
            15
        } else if reporter.starts_with("grid.services.") {
            25
        } else if reporter.starts_with("network.") {
            45
        } else if reporter.starts_with("benchmark.") {
            180
        } else {
            10
        };
        let h = self.hash(reporter, t);
        let jitter = 0.5 + (h % 1_000) as f64 / 1_000.0; // 0.5–1.5
        let hang = (h >> 10).is_multiple_of(100); // ~1% of runs hang
        let secs = (base as f64 * jitter) as u64;
        if hang {
            secs.saturating_mul(10).max(1)
        } else {
            secs.max(1)
        }
    }

    fn hash(&self, reporter: &str, t: Timestamp) -> u64 {
        let mut h = self.seed ^ t.as_secs();
        for b in reporter.bytes() {
            h = h.wrapping_mul(0x100_0000_01B3) ^ b as u64;
        }
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^ (h >> 31)
    }
}

/// One forked reporter process (completed or killed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecRecord {
    /// Fork time.
    pub start: Timestamp,
    /// Exit or kill time.
    pub end: Timestamp,
    /// Whether the daemon killed it for exceeding expected runtime.
    pub killed: bool,
}

impl ExecRecord {
    /// Whether the process was alive at `t`.
    pub fn alive_at(&self, t: Timestamp) -> bool {
        t >= self.start && t < self.end
    }
}

/// The daemon's record of all forked processes.
#[derive(Debug, Clone, Default)]
pub struct ProcessTable {
    records: Vec<ExecRecord>,
}

impl ProcessTable {
    /// An empty table.
    pub fn new() -> ProcessTable {
        ProcessTable::default()
    }

    /// Records one execution.
    pub fn record(&mut self, record: ExecRecord) {
        self.records.push(record);
    }

    /// All executions, in fork order.
    pub fn records(&self) -> &[ExecRecord] {
        &self.records
    }

    /// Number of processes alive at `t` (drives the memory model: the
    /// §5.1 average of 35 MB was "the main controller process (18 MB)
    /// and one forked process").
    pub fn live_at(&self, t: Timestamp) -> usize {
        self.records.iter().filter(|r| r.alive_at(t)).count()
    }

    /// Number of processes forked within `(t - window, t]` (drives
    /// the CPU model: forking is when the daemon burns cycles).
    pub fn forked_within(&self, t: Timestamp, window: u64) -> usize {
        self.records
            .iter()
            .filter(|r| r.start <= t && t - r.start < window)
            .count()
    }

    /// Total kills.
    pub fn kill_count(&self) -> usize {
        self.records.iter().filter(|r| r.killed).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn durations_follow_family_bases() {
        let model = DurationModel::new(7);
        let t = ts(1_000);
        // Sample many times to dodge the 1% hang multiplier.
        let avg = |name: &str| -> f64 {
            (0..100)
                .map(|i| model.duration_secs(name, ts(1_000 + i * 3_600)) as f64)
                .sum::<f64>()
                / 100.0
        };
        let version = avg("version.globus");
        let unit = avg("unit.globus.smoke");
        let bench = avg("benchmark.grasp.flops");
        assert!(version < unit && unit < bench, "{version} {unit} {bench}");
        assert!(model.duration_secs("version.globus", t) >= 1);
    }

    #[test]
    fn durations_are_deterministic() {
        let a = DurationModel::new(7);
        let b = DurationModel::new(7);
        assert_eq!(
            a.duration_secs("unit.srb.connect", ts(42)),
            b.duration_secs("unit.srb.connect", ts(42))
        );
        let c = DurationModel::new(8);
        // Different seeds usually differ (not guaranteed for any single
        // point, so check across several).
        let differs = (0..20).any(|i| {
            a.duration_secs("unit.srb.connect", ts(i * 100))
                != c.duration_secs("unit.srb.connect", ts(i * 100))
        });
        assert!(differs);
    }

    #[test]
    fn hangs_exist_but_are_rare() {
        let model = DurationModel::new(3);
        let mut hangs = 0;
        let n = 10_000;
        for i in 0..n {
            let d = model.duration_secs("unit.globus.smoke", ts(i * 60));
            if d > 15 * 5 {
                hangs += 1;
            }
        }
        assert!(hangs > 0, "some runs must hang");
        assert!(hangs < n / 20, "hangs must be rare: {hangs}/{n}");
    }

    #[test]
    fn process_table_liveness() {
        let mut table = ProcessTable::new();
        table.record(ExecRecord { start: ts(100), end: ts(160), killed: false });
        table.record(ExecRecord { start: ts(150), end: ts(200), killed: true });
        assert_eq!(table.live_at(ts(99)), 0);
        assert_eq!(table.live_at(ts(100)), 1);
        assert_eq!(table.live_at(ts(155)), 2);
        assert_eq!(table.live_at(ts(160)), 1);
        assert_eq!(table.live_at(ts(200)), 0);
        assert_eq!(table.kill_count(), 1);
    }

    #[test]
    fn forked_within_window() {
        let mut table = ProcessTable::new();
        table.record(ExecRecord { start: ts(100), end: ts(101), killed: false });
        table.record(ExecRecord { start: ts(108), end: ts(120), killed: false });
        assert_eq!(table.forked_within(ts(110), 5), 1);
        assert_eq!(table.forked_within(ts(110), 11), 2);
        assert_eq!(table.forked_within(ts(90), 10), 0);
    }
}
