//! Which core each thread runs on, and what `/proc` says they used.
//!
//! Three threads matter: the server's reactor, the generator and —
//! beside an open loop — the consumer. Left to the scheduler, the
//! mostly-sleeping consumer lands on either busy thread's core and
//! tends to stay there for a whole run, so one run's generator is late
//! for its schedule and the next run's is not. Pinning takes that coin
//! toss out: the reactor and the generator get a core each, and the
//! consumer shares the reactor's (in an open loop the reactor is mostly
//! idle, and the generator must not be late). With three or more cores
//! the consumer gets its own.

use std::path::PathBuf;

/// A `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

/// Linux's `struct sched_param`.
#[repr(C)]
struct SchedParam {
    priority: i32,
}

/// Linux's `SCHED_IDLE` policy number.
const SCHED_IDLE: i32 = 5;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// CPUs this process may run on, ascending.
fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable `cpu_set_t`-sized buffer and its
    // exact size is passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pins thread `tid` (0 = the calling thread) to `cpu`; false when the
/// kernel refuses, in which case the thread simply stays unpinned.
fn pin(tid: i32, cpu: usize) -> bool {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a live `cpu_set_t`-sized buffer the call only
    // reads, and its exact size is passed.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

/// Spins on `cpu` at idle priority until `done` says so, so that the
/// core never halts. Returns false (having done nothing) if the kernel
/// refuses the pin or the policy: a normal-priority spinner would steal
/// the core from the very thread it is meant to serve.
pub fn keep_awake(cpu: usize, done: impl Fn() -> bool) -> bool {
    let param = SchedParam { priority: 0 };
    // SAFETY: `param` is a live `sched_param` the call only reads; pid
    // 0 names the calling thread.
    let idle_class = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 };
    if !(idle_class && pin(0, cpu)) {
        return false;
    }
    while !done() {
        std::hint::spin_loop();
    }
    true
}

/// Where the three threads go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    pub reactor: usize,
    pub generator: usize,
    pub consumer: usize,
}

impl Placement {
    /// The placement rule over the CPUs this process may use; `None`
    /// with fewer than two (nothing to separate).
    pub fn choose(cpus: &[usize]) -> Option<Placement> {
        let (&reactor, &generator) = (cpus.first()?, cpus.get(1)?);
        let consumer = cpus.get(2).copied().unwrap_or(reactor);
        Some(Placement {
            reactor,
            generator,
            consumer,
        })
    }

    pub fn for_this_process() -> Option<Placement> {
        Placement::choose(&allowed_cpus())
    }

    /// Pins the calling thread as the generator and `reactor_tid` as
    /// the reactor.
    pub fn pin_generator_and_reactor(&self, reactor_tid: Option<i32>) -> bool {
        pin(0, self.generator) && reactor_tid.is_some_and(|tid| pin(tid, self.reactor))
    }

    /// Pins the calling thread as the consumer.
    pub fn pin_consumer(&self) -> bool {
        pin(0, self.consumer)
    }
}

/// The server's reactor thread as `/proc` shows it.
#[derive(Debug, Clone)]
pub struct ReactorThread {
    task: Option<PathBuf>,
}

impl ReactorThread {
    /// Finds the thread named `inca-reactor` in this process. Call
    /// after the server has started; a thread names itself only once
    /// it runs, so a just-spawned reactor is waited for briefly.
    pub fn find() -> ReactorThread {
        let find = || {
            std::fs::read_dir("/proc/self/task")
                .ok()?
                .flatten()
                .map(|t| t.path())
                .find(|task| {
                    std::fs::read_to_string(task.join("comm"))
                        .is_ok_and(|comm| comm.trim() == "inca-reactor")
                })
        };
        let mut task = find();
        for _ in 0..200 {
            if task.is_some() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
            task = find();
        }
        ReactorThread { task }
    }

    pub fn tid(&self) -> Option<i32> {
        self.task.as_ref()?.file_name()?.to_str()?.parse().ok()
    }

    /// Seconds the thread has spent on a CPU so far, from the kernel's
    /// per-thread scheduler statistics (nanoseconds).
    pub fn cpu_seconds(&self) -> f64 {
        self.task
            .as_ref()
            .and_then(|task| std::fs::read_to_string(task.join("schedstat")).ok())
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            .map_or(0.0, |ns| ns as f64 / 1e9)
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_consumer_shares_the_reactors_core_unless_it_can_have_its_own() {
        assert_eq!(
            Placement::choose(&[0, 1]),
            Some(Placement {
                reactor: 0,
                generator: 1,
                consumer: 0
            })
        );
        assert_eq!(
            Placement::choose(&[2, 5, 7, 9]),
            Some(Placement {
                reactor: 2,
                generator: 5,
                consumer: 7
            })
        );
        assert_eq!(Placement::choose(&[3]), None);
    }

    #[test]
    fn this_process_has_cpus_and_a_peak_rss() {
        assert!(!allowed_cpus().is_empty());
        assert!(peak_rss_mb() > 0.0);
    }
}
