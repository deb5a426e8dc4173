//! The TCP workloads: a reactor server in this process, the generator
//! on the calling thread, and the checks on what the depot ends up
//! holding.
//!
//! Profile under test, spelled out so a later default flip cannot move
//! the numbers: `serve_reactor` with default `ReactorConfig`, rope
//! cache, binary envelopes, the default allow-all allowlist, and a
//! fresh `Obs` with no trace sink (metrics on, spans inactive).

use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use inca_obs::Obs;
use inca_report::{BranchId, Timestamp};
use inca_rrd::ArchivePolicy;
use inca_server::{CacheBackend, CentralizedController, ControllerConfig, Depot, ReactorHandle};
use inca_wire::envelope::EnvelopeMode;
use inca_wire::message::ServerResponse;
use inca_wire::HostAllowlist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::inputs::{gmt_base, Inputs, Shape, Sizes};
use crate::loadgen::{
    connect, drive, generator_bound, Outcome, Pace, Plan, ReadTargets, SendState, Window,
};

/// Warm-up before the first measured window of a TCP workload.
pub const WARM_UP: Duration = Duration::from_secs(2);
/// Every sixteenth ack is read back through the query interface.
const VERIFY_EVERY: u64 = 16;
/// Consumer reads a second beside an open loop: 500 of each kind.
/// None beside a closed loop: it measures ingest capacity, and a
/// saturated server holds the depot's write lock so much of the time
/// that a read's median sits on the edge between "got the lock" and
/// "waited for it" (on `large_closed` it read 21 µs in one run and
/// 33 µs in the next).
const OPEN_LOOP_READS: f64 = 1_500.0;

/// What the generator does for `measure` after `warm_up` at `pace`.
pub fn plan(pace: Pace, warm_up: Duration, measure: Duration, traced: bool) -> Plan {
    Plan {
        pace,
        reads_per_second: match pace {
            Pace::Open { .. } => OPEN_LOOP_READS,
            Pace::Closed { .. } => 0.0,
        },
        verify_every: VERIFY_EVERY,
        windows: windows(warm_up, measure, traced),
    }
}
/// Archived series the window reads rotate over, each a week of
/// ten-minute points like Figure 5's.
const WINDOW_SERIES: usize = 10;
const SERIES_PERIOD: u64 = 600;
const SERIES_POINTS: u64 = 7 * 86_400 / SERIES_PERIOD;

/// A synthetic TCP workload.
#[derive(Debug, Clone, Copy)]
pub struct TcpWorkload {
    pub shape: Shape,
    pub pace: Pace,
}

/// 851-byte reports over 1,000 branches / 10 sites, window 64.
pub const SMALL_CLOSED: TcpWorkload = TcpWorkload {
    shape: Shape {
        sites: 10,
        hosts_per_site: 5,
        reporters_per_host: 20,
        sizes: Sizes::Fixed(inca_sim::workload::PREMADE_SIZES[0]),
        archived_sites: 0,
    },
    pace: Pace::Closed { window: 64 },
};

/// 45,527-byte reports over 200 branches, window 8.
pub const LARGE_CLOSED: TcpWorkload = TcpWorkload {
    shape: Shape {
        sites: 10,
        hosts_per_site: 2,
        reporters_per_host: 10,
        sizes: Sizes::Fixed(inca_sim::workload::PREMADE_SIZES[3]),
        archived_sites: 0,
    },
    pace: Pace::Closed { window: 8 },
};

/// Table 4 sizes over 2,000 branches / 20 sites at a fixed 8,000
/// reports/s; two sites (10% of branches) match an archive rule.
pub const PACED_MIX: TcpWorkload = TcpWorkload {
    shape: Shape {
        sites: 20,
        hosts_per_site: 5,
        reporters_per_host: 20,
        sizes: Sizes::Teragrid,
        archived_sites: 2,
    },
    pace: Pace::Open {
        per_second: 8_000.0,
    },
};

/// The profile under test around a fresh depot.
pub fn fresh_controller() -> Arc<CentralizedController> {
    Arc::new(CentralizedController::new(
        ControllerConfig {
            allowlist: HostAllowlist::allow_all(),
            envelope_mode: EnvelopeMode::Binary,
        },
        Depot::with_obs_backend(Obs::new(), CacheBackend::Rope),
    ))
}

fn wall_clock() -> Timestamp {
    Timestamp::from_secs(
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
    )
}

/// A served controller with the generator connected to it.
pub struct Rig {
    pub inputs: Inputs,
    pub controller: Arc<CentralizedController>,
    handle: ReactorHandle,
    streams: Vec<TcpStream>,
    /// Last seq each daemon has used.
    host_seq: Vec<u64>,
    /// Sends per branch so far (the next send's gmt offset).
    sent_before: Vec<u64>,
    series: Vec<String>,
    series_end: Timestamp,
    accepted_before: u64,
    /// Reports the cache must hold when the run is over.
    expect_cached: usize,
}

impl Rig {
    /// Generates a synthetic VO, uploads its rules, pre-fills every
    /// branch and the archived series, serves, connects.
    pub fn synthetic(seed: u64, shape: Shape) -> Rig {
        let mut inputs = Inputs::synthetic(seed, shape);
        let controller = fresh_controller();
        controller.with_depot_mut(|depot| {
            for rule in &inputs.rules {
                depot.add_archive_rule(rule.clone());
            }
        });
        // Every branch holds a report before the first window opens,
        // so the measured phase only ever replaces.
        let mut host_seq = vec![0u64; inputs.hosts.len()];
        let submissions: Vec<(String, Vec<u8>)> = inputs
            .branches
            .iter_mut()
            .map(|b| {
                host_seq[b.host] += 1;
                b.stamp(host_seq[b.host], gmt_base());
                (inputs.hosts[b.host].clone(), b.payload().to_vec())
            })
            .collect();
        // Two seconds in the past: the reactor's first wall-clock
        // archive update must be later than the pre-fill's.
        let replies = controller.submit_batch(&submissions, wall_clock() - 2);
        assert!(
            replies.iter().all(|(r, _)| *r == ServerResponse::Ack),
            "pre-fill was not fully accepted"
        );
        let sent_before = vec![1u64; inputs.branches.len()];

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e71e5);
        let policy = ArchivePolicy::every("availability", 14 * 86_400);
        let series_end = gmt_base() + SERIES_POINTS * SERIES_PERIOD;
        let series: Vec<String> = (0..WINDOW_SERIES.min(inputs.hosts.len()))
            .map(|h| format!("availability:Total:{}", inputs.hosts[h]))
            .collect();
        controller.with_depot_mut(|depot| {
            for name in &series {
                for i in 1..=SERIES_POINTS {
                    let pct = rng.gen_range(80.0..100.0);
                    depot.archive_mut().record(
                        name,
                        &policy,
                        SERIES_PERIOD,
                        gmt_base() + i * SERIES_PERIOD,
                        pct,
                    );
                }
            }
        });
        let expect_cached = inputs.branches.len();
        Rig::serve(
            inputs,
            controller,
            host_seq,
            sent_before,
            series,
            series_end,
            expect_cached,
        )
    }

    /// Serves an existing controller (the simulated week's) to the
    /// generator.
    pub fn serve(
        inputs: Inputs,
        controller: Arc<CentralizedController>,
        host_seq: Vec<u64>,
        sent_before: Vec<u64>,
        series: Vec<String>,
        series_end: Timestamp,
        expect_cached: usize,
    ) -> Rig {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let handle = controller
            .serve_reactor(listener)
            .expect("start the reactor");
        let streams = connect(handle.addr()).expect("connect the generator");
        let accepted_before = crate::loadgen::Counters::read(&controller).accepted;
        Rig {
            inputs,
            controller,
            handle,
            streams,
            host_seq,
            sent_before,
            series,
            series_end,
            accepted_before,
            expect_cached,
        }
    }

    /// Stops the server without running anything (set-up repetitions).
    pub fn tear_down(self) {
        drop(self.streams);
        self.handle.stop();
    }

    /// Runs `plan`, stops the server and checks the depot.
    pub fn run(mut self, plan: &Plan) -> TcpRun {
        let point_targets: Vec<BranchId> = self
            .inputs
            .order
            .iter()
            .map(|&b| self.inputs.branches[b as usize].branch.clone())
            .collect();
        let reads = ReadTargets {
            branches: &point_targets,
            site_queries: &self.inputs.site_queries,
            series: &self.series,
            series_end: self.series_end,
        };
        let outcome = drive(
            plan,
            &self.controller,
            std::mem::take(&mut self.streams),
            SendState {
                branches: &mut self.inputs.branches,
                order: &self.inputs.order,
                host_seq: &mut self.host_seq,
                sent_before: &mut self.sent_before,
            },
            &reads,
        );
        self.handle.stop();
        let mut problems = Vec::new();
        let verified = verify_depot(
            &self.inputs,
            &self.controller,
            &outcome,
            self.expect_cached,
            &mut problems,
        );
        let acked: u64 = outcome.windows.iter().map(|w| w.acked).sum();
        let accepted =
            crate::loadgen::Counters::read(&self.controller).accepted - self.accepted_before;
        if accepted != acked {
            problems.push(format!(
                "depot accepted {accepted} reports but {acked} were acked"
            ));
        }
        let duplicates = self.controller.duplicate_count();
        if duplicates != 0 {
            problems.push(format!("{duplicates} fresh seqs were taken for duplicates"));
        }
        validity(plan, &outcome, &mut problems);
        let cache_bytes = self.controller.with_depot(|d| d.cache().size_bytes());
        let attempted = outcome.windows.iter().map(|w| w.sent).sum::<u64>() + verified;
        let failed = outcome
            .windows
            .iter()
            .map(|w| w.rejected + w.misverified)
            .sum::<u64>()
            + outcome.unacked
            + problems.len() as u64;
        TcpRun {
            outcome,
            inputs: self.inputs,
            problems,
            attempted,
            failed,
            cache_bytes,
        }
    }
}

/// A finished TCP phase.
pub struct TcpRun {
    pub outcome: Outcome,
    pub inputs: Inputs,
    /// Every violated check, in words; empty means the outputs hold.
    pub problems: Vec<String>,
    /// Reports written to the sockets in any window, plus branches
    /// whose cached report was compared.
    pub attempted: u64,
    /// Refused, mis-verified or un-acked reports, plus one per
    /// violated check.
    pub failed: u64,
    pub cache_bytes: usize,
}

/// Every branch's cached report equals the last one sent for it, and
/// the cache holds exactly the branches.
fn verify_depot(
    inputs: &Inputs,
    controller: &CentralizedController,
    outcome: &Outcome,
    expect_cached: usize,
    problems: &mut Vec<String>,
) -> u64 {
    let mut wrong = 0u64;
    let mut first_wrong: Option<&BranchId> = None;
    controller.with_depot(|depot| {
        for (b, last) in inputs.branches.iter().zip(&outcome.last_gmt) {
            // A branch the generator never reached still holds what
            // set-up put there (pre-fill, or the simulated week's).
            let Some(gmt) = last else { continue };
            let (cached, _) = depot.query_report_exact(&b.branch);
            if cached.as_deref() != Some(b.expected_xml(*gmt).as_str()) {
                wrong += 1;
                first_wrong.get_or_insert(&b.branch);
            }
        }
        let cached = depot.cache().report_count();
        if cached != expect_cached {
            problems.push(format!(
                "cache holds {cached} reports, expected {expect_cached}"
            ));
        }
    });
    if let Some(branch) = first_wrong {
        problems.push(format!(
            "{wrong} branches do not hold the last report sent (first: {branch})"
        ));
    }
    outcome.last_gmt.iter().flatten().count() as u64
}

/// Checks that make the *measurement* trustworthy, not the program.
fn validity(plan: &Plan, outcome: &Outcome, problems: &mut Vec<String>) {
    for w in outcome
        .windows
        .iter()
        .filter(|w| w.name != "warm-up" && w.name != "drain")
    {
        let share = w.loadgen_share();
        if generator_bound(plan.pace, share) {
            problems.push(format!(
                "window {}: generator busy {:.0}% of a core — the run measures the generator",
                w.name,
                share * 100.0
            ));
        }
        if let Pace::Open { per_second } = plan.pace {
            // No backlog growth: what is outstanding when the window
            // closes may exceed what was outstanding when it opened by
            // at most what comes due in 10 ms.
            let burst = (per_second / 100.0).ceil() as usize;
            if w.inflight_close > w.inflight_open + burst {
                problems.push(format!(
                    "window {}: backlog grew from {} to {} outstanding reports",
                    w.name, w.inflight_open, w.inflight_close
                ));
            }
        }
    }
}

/// Target length of one slice of the measured stretch. Every gated
/// number is the median over slices of the slice's own value, so one
/// stall — the host's or the program's — moves one slice, not the
/// result.
const SLICE: Duration = Duration::from_secs(2);

/// The windows of one TCP phase: warm-up, then equal slices of about
/// [`SLICE`] each (never fewer than three).
///
/// Untraced, every slice is a `measure` slice. Traced, `plain` and
/// span-recording `traced` slices alternate: per-layer numbers come
/// from the traced ones, and the gap between the two kinds — same
/// server, same process, interleaved in time — is the tracing overhead.
fn windows(warm_up: Duration, measure: Duration, traced: bool) -> Vec<Window> {
    let slices = ((measure.as_secs_f64() / SLICE.as_secs_f64()).round() as u32).max(3);
    let slice = |i: u32| match (traced, i % 2) {
        (false, _) => Window {
            name: "measure",
            len: measure / slices,
            spans: false,
        },
        (true, 0) => Window {
            name: "plain",
            len: measure / slices,
            spans: false,
        },
        (true, _) => Window {
            name: "traced",
            len: measure / slices,
            spans: true,
        },
    };
    [Window {
        name: "warm-up",
        len: warm_up,
        spans: false,
    }]
    .into_iter()
    .chain((0..slices).map(slice))
    .collect()
}

/// Sets a synthetic workload up `repeats` times (tearing all but the
/// last down again) and returns the rig with every set-up's seconds.
pub fn set_up_repeatedly(seed: u64, shape: Shape, repeats: usize) -> (Rig, Vec<f64>) {
    let mut times = Vec::with_capacity(repeats);
    let mut rig = None;
    for _ in 0..repeats {
        if let Some(previous) = rig.take() {
            Rig::tear_down(previous);
        }
        let t0 = Instant::now();
        rig = Some(Rig::synthetic(seed, shape));
        times.push(t0.elapsed().as_secs_f64());
    }
    (rig.expect("at least one set-up"), times)
}
