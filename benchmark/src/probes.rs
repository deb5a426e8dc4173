//! Layer probes: a workload's own inputs replayed, single-threaded and
//! without sockets, through each layer's public functions.
//!
//! Every probe brackets calls into the program from outside; none
//! reaches into it. The `*_us` results are microseconds per report at
//! the workload's sizes (per pass for the two consumer probes), and
//! summed they are the per-report stage budget the README prints beside
//! the measured 1e6 ÷ `ingest_reports_per_s`.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use inca_agreement::{verify_resource, Agreement, ComplianceSummary};
use inca_consumer::build_status_page;
use inca_controller::{DistributedController, Spool, SpoolConfig, Transport};
use inca_core::teragrid_deployment;
use inca_obs::Obs;
use inca_report::{BranchId, Report, Timestamp};
use inca_rrd::ArchivePolicy;
use inca_server::{ArchiveRule, ArchiveStore, CacheBackend, DedupIndex, Depot, QueryInterface};
use inca_wire::envelope::{Envelope, EnvelopeMode, EnvelopeView};
use inca_wire::frame::FrameBuffer;
use inca_wire::message::{ClientMessage, ServerResponse};
use inca_xml::skim_balanced;

use crate::sim::horizon_start;
use crate::tcp::fresh_controller;

/// Most inputs a probe replays…
pub const MAX_INPUTS: usize = 20_000;
/// …and most bytes, so 45 KB reports do not make a probe run for minutes.
pub const MAX_INPUT_BYTES: usize = 64 * 1024 * 1024;
/// Reports the daemon probe fires.
const FIRED_REPORTS: usize = 5_000;
/// Largest `submit_batch` / `receive_batch` probe call.
pub const MAX_BATCH: usize = 64;
const POINT_READS: usize = 2_000;
const SUBTREE_READS: usize = 400;
const DOCUMENT_READS: usize = 20;
const WINDOW_READS: usize = 2_000;

/// Microseconds per item of running `f` over `n` items.
fn us_per(n: usize, f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64
}

/// Records what a daemon forwards and acks it.
#[derive(Clone, Default)]
struct Collector(Arc<Mutex<Vec<ClientMessage>>>);

impl Transport for Collector {
    fn send(&self, message: &ClientMessage) -> Result<ServerResponse, String> {
        self.0.lock().expect("collector lock").push(message.clone());
        Ok(ServerResponse::Ack)
    }
}

/// What the daemon probe fired, with the deployment it came from.
pub struct Fired {
    pub us_per_report: f64,
    /// The forwarded messages as stamped `ClientMessage` payloads.
    pub payloads: Vec<Vec<u8>>,
    agreement: Agreement,
    /// `(site, host)` of every deployment resource.
    labels: Vec<(String, String)>,
}

/// `daemon.fire_us`: the TeraGrid deployment's daemons executing their
/// reporters against the simulated VO and forwarding into a collector,
/// in wake-up order, until `FIRED_REPORTS` reports exist.
pub fn fire_daemons(seed: u64) -> Fired {
    let start = horizon_start();
    let deployment = teragrid_deployment(seed, start, start + 86_400);
    let collected = Collector::default();
    let obs = Obs::new();
    let mut daemons: Vec<DistributedController> = deployment
        .assignments
        .iter()
        .map(|a| {
            let mut daemon = DistributedController::with_obs(
                a.spec.clone(),
                Box::new(collected.clone()),
                deployment.seed ^ a.hostname.len() as u64,
                obs.clone(),
            );
            daemon.register_from_catalog(&deployment.catalog);
            daemon.prime(start);
            daemon
        })
        .collect();
    let fired = || collected.0.lock().expect("collector lock").len();
    let t0 = Instant::now();
    while fired() < FIRED_REPORTS {
        let next = daemons
            .iter_mut()
            .filter(|d| d.peek_next().is_some())
            .min_by_key(|d| d.peek_next())
            .expect("a day of cron entries outlasts the probe");
        next.run_next_batch(&deployment.vo);
    }
    let us_per_report = t0.elapsed().as_secs_f64() * 1e6 / fired() as f64;
    let messages = std::mem::take(&mut *collected.0.lock().expect("collector lock"));
    Fired {
        us_per_report,
        payloads: messages.iter().map(ClientMessage::encode).collect(),
        labels: deployment.resource_labels(),
        agreement: deployment.agreement,
    }
}

/// Keeps the leading payloads that fit both input caps.
pub fn cap_inputs(payloads: impl Iterator<Item = Vec<u8>>) -> Vec<Vec<u8>> {
    let mut bytes = 0usize;
    payloads
        .take(MAX_INPUTS)
        .take_while(|p| {
            bytes += p.len();
            bytes <= MAX_INPUT_BYTES
        })
        .collect()
}

/// Runs every layer probe over `payloads` (stamped `ClientMessage`
/// payloads with distinct `(daemon, seq)` origins) and returns
/// `(metric, value)` rows. `fired` feeds the consumer probes, which
/// need a deployment's reports whatever the workload sent. `batch` is
/// how many submissions one `submit_batch` / `receive_batch` call
/// carries: the batch the reactor was seen to form on this workload,
/// so the controller rows cost what the live path paid.
pub fn run(
    payloads: &[Vec<u8>],
    rules: &[ArchiveRule],
    fired: &Fired,
    batch: usize,
) -> Vec<(&'static str, f64)> {
    let batch = batch.clamp(1, MAX_BATCH);
    let n = payloads.len();
    assert!(n > 0, "probes need inputs");
    let mut rows: Vec<(&'static str, f64)> = vec![("daemon.fire_us", fired.us_per_report)];
    let now = Timestamp::from_gmt(2004, 7, 14, 0, 0, 0);

    // wire: the client message, the frame reassembly, the envelope.
    let mut messages: Vec<ClientMessage> = Vec::with_capacity(n);
    rows.push((
        "wire.message_decode_us",
        us_per(n, || {
            for p in payloads {
                messages
                    .push(ClientMessage::decode(black_box(p)).expect("generated message decodes"));
            }
        }),
    ));
    rows.push((
        "wire.message_encode_us",
        us_per(n, || {
            for m in &messages {
                black_box(m.encode());
            }
        }),
    ));
    let mut stream = Vec::with_capacity(payloads.iter().map(|p| p.len() + 4).sum());
    for p in payloads {
        stream.extend_from_slice(&(p.len() as u32).to_be_bytes());
        stream.extend_from_slice(p);
    }
    rows.push((
        "wire.framebuffer_us",
        us_per(n, || {
            let mut buffer = FrameBuffer::new();
            let mut frames = 0usize;
            for chunk in stream.chunks(64 * 1024) {
                buffer.extend(chunk);
                while let Some(frame) = buffer.next_frame().expect("generated frames are in bounds")
                {
                    black_box(frame);
                    frames += 1;
                }
            }
            assert_eq!(frames, n, "every frame reassembles");
        }),
    ));
    drop(stream);
    let envelopes: Vec<Envelope> = messages
        .iter()
        .map(|m| Envelope::new(m.branch.clone(), m.report_xml.clone()))
        .collect();
    let mut packed: Vec<Vec<u8>> = Vec::with_capacity(n);
    rows.push((
        "wire.envelope_encode_us",
        us_per(n, || {
            for e in &envelopes {
                packed.push(e.encode(EnvelopeMode::Binary));
            }
        }),
    ));
    drop(envelopes);
    rows.push((
        "wire.envelope_decode_us",
        us_per(n, || {
            for bytes in &packed {
                black_box(EnvelopeView::decode(bytes).expect("packed envelope decodes"));
            }
        }),
    ));
    rows.push((
        "wire.reply_codec_us",
        us_per(n, || {
            for _ in 0..n {
                let reply = black_box(ServerResponse::Ack).encode();
                black_box(ServerResponse::decode(&reply).expect("ack decodes"));
            }
        }),
    ));

    // xml: the structural skim and the full report parse.
    rows.push((
        "xml.skim_us",
        us_per(n, || {
            for m in &messages {
                black_box(skim_balanced(&m.report_xml).expect("generated report is balanced"));
            }
        }),
    ));
    let mut reports: Vec<Report> = Vec::with_capacity(n);
    rows.push((
        "xml.report_parse_us",
        us_per(n, || {
            for m in &messages {
                reports.push(Report::parse(&m.report_xml).expect("generated report parses"));
            }
        }),
    ));

    // spool: a daemon's enqueue → due prefix → ack cycle.
    let mut unstamped: Vec<ClientMessage> = messages
        .iter()
        .map(|m| ClientMessage {
            origin: None,
            ..m.clone()
        })
        .collect();
    rows.push((
        "spool.cycle_us",
        us_per(n, || {
            let mut spool = Spool::new("probe-daemon", SpoolConfig::default());
            while !unstamped.is_empty() {
                let batch = unstamped.len().min(16);
                for message in unstamped.drain(..batch) {
                    spool.enqueue(message);
                }
                for entry in spool.due_prefix(now.as_secs(), false) {
                    assert!(spool.ack(entry.seq), "a due entry acks");
                }
            }
        }),
    ));

    // dedup: one observe per stamped origin.
    rows.push((
        "dedup.observe_us",
        us_per(n, || {
            let mut index = DedupIndex::default();
            for m in &messages {
                let (daemon, seq) = m.origin.as_ref().expect("probe inputs are stamped");
                assert!(index.observe(daemon, *seq), "probe origins are distinct");
            }
        }),
    ));

    // controller: admission + depot, batched and one at a time.
    let submissions: Vec<(String, Vec<u8>)> = messages
        .iter()
        .zip(payloads)
        .map(|(m, p)| (m.resource.clone(), p.clone()))
        .collect();
    let with_rules = || {
        let controller = fresh_controller();
        controller.with_depot_mut(|d| rules.iter().for_each(|r| d.add_archive_rule(r.clone())));
        controller
    };
    let batched = with_rules();
    rows.push((
        "controller.submit_batch_us",
        us_per(n, || {
            for (i, chunk) in submissions.chunks(batch).enumerate() {
                let replies = batched.submit_batch(chunk, now + i as u64);
                assert!(
                    replies.iter().all(|(r, _)| *r == ServerResponse::Ack),
                    "probe batch is acked"
                );
            }
        }),
    ));
    let single = with_rules();
    rows.push((
        "controller.submit_single_us",
        us_per(n, || {
            for (i, (host, payload)) in submissions.iter().enumerate() {
                let (reply, _) = single.submit(host, payload, now + (i / batch) as u64);
                assert_eq!(reply, ServerResponse::Ack, "probe submission is acked");
            }
        }),
    ));
    drop(single);

    // depot: the timing decomposition `receive_batch` itself returns.
    let mut depot = Depot::with_obs_backend(Obs::new(), CacheBackend::Rope);
    rules.iter().for_each(|r| depot.add_archive_rule(r.clone()));
    let (mut unpack, mut insert) = (0f64, 0f64);
    for (i, chunk) in packed.chunks(batch).enumerate() {
        for timing in depot.receive_batch(chunk, now + i as u64) {
            let timing = timing.expect("packed envelope is received");
            unpack += timing.unpack.as_secs_f64();
            insert += timing.insert.as_secs_f64();
        }
    }
    rows.push(("depot.unpack_us", unpack * 1e6 / n as f64));
    rows.push(("depot.insert_us", insert * 1e6 / n as f64));
    drop((depot, packed));

    // archive and rrd.
    rows.push((
        "archive.ingest_us",
        us_per(n, || {
            let mut store = ArchiveStore::with_obs(&Obs::new());
            rules.iter().for_each(|r| store.add_rule(r.clone()));
            for (i, (m, report)) in messages.iter().zip(&reports).enumerate() {
                black_box(store.ingest(&m.branch, report, now + i as u64));
            }
        }),
    ));
    rows.push((
        "rrd.update_us",
        us_per(n, || {
            let mut rrd = ArchivePolicy::every("probe", 14 * 86_400)
                .build(now, 3_600)
                .expect("policy compiles to a valid RRD");
            for i in 1..=n as u64 {
                rrd.update_single(now + i * 3_600, (i % 97) as f64)
                    .expect("time advances");
            }
        }),
    ));

    // query: the quiet depot the batched controller just filled.
    let mut branches: Vec<&BranchId> = messages.iter().map(|m| &m.branch).collect();
    branches.sort();
    branches.dedup();
    let mut sites: Vec<BranchId> = branches
        .iter()
        .filter_map(|b| Some(format!("site={},vo={}", b.get("site")?, b.get("vo")?)))
        .map(|q| q.parse().expect("site suffixes are branch-safe"))
        .collect();
    sites.sort();
    sites.dedup();
    let series = "availability:Total:probe";
    let series_end = now + 7 * 86_400;
    batched.with_depot_mut(|d| {
        let policy = ArchivePolicy::every("availability", 14 * 86_400);
        for i in 1..=1_008u64 {
            d.archive_mut()
                .record(series, &policy, 600, now + i * 600, (i % 21) as f64 + 80.0);
        }
    });
    batched.with_depot(|d| {
        rows.push((
            "query.point_us",
            us_per(POINT_READS, || {
                for i in 0..POINT_READS {
                    let found = QueryInterface::new(d).report(branches[i % branches.len()]);
                    assert!(matches!(black_box(found), Ok(Some(_))));
                }
            }),
        ));
        rows.push((
            "query.subtree_us",
            us_per(SUBTREE_READS, || {
                for i in 0..SUBTREE_READS {
                    let found = QueryInterface::new(d).current(&sites[i % sites.len()]);
                    assert!(matches!(black_box(found), Ok(Some(_))));
                }
            }),
        ));
        rows.push((
            "query.current_all_us",
            us_per(DOCUMENT_READS, || {
                for _ in 0..DOCUMENT_READS {
                    black_box(QueryInterface::new(d).current_all());
                }
            }),
        ));
        rows.push((
            "temporal.window_us",
            us_per(WINDOW_READS, || {
                for _ in 0..WINDOW_READS {
                    let agg = QueryInterface::new(d).temporal().window_aggregate(
                        series,
                        series_end - 86_400,
                        series_end,
                    );
                    assert!(black_box(agg).is_some_and(|a| a.known > 0));
                }
            }),
        ));
    });
    drop(batched);

    // consumer: one verification pass and one status page over a depot
    // holding the deployment's reports (µs per pass, not per report).
    let consumer_depot = fresh_controller();
    let fired_submissions: Vec<(String, Vec<u8>)> = fired
        .payloads
        .iter()
        .map(|p| {
            let m = ClientMessage::decode(p).expect("fired message decodes");
            (m.resource, p.clone())
        })
        .collect();
    consumer_depot.submit_batch(&fired_submissions, now);
    let (agreement, labels) = (&fired.agreement, &fired.labels);
    consumer_depot.with_depot(|d| {
        rows.push((
            "agreement.verify_us",
            us_per(1, || {
                for (site, host) in labels {
                    let suffix: BranchId =
                        format!("resource={host},site={site},vo={}", agreement.vo)
                            .parse()
                            .expect("labels are branch-safe");
                    let reports = QueryInterface::new(d)
                        .reports(Some(&suffix))
                        .unwrap_or_default();
                    let verification = verify_resource(agreement, &reports, host);
                    black_box(ComplianceSummary::from_verification(&verification));
                }
            }),
        ));
        rows.push((
            "consumer.status_page_us",
            us_per(1, || {
                black_box(build_status_page(
                    &QueryInterface::new(d),
                    agreement,
                    labels,
                    now,
                ));
            }),
        ));
    });

    // obs: one span on a handle with no sink — the deployed default.
    let obs = Obs::new();
    rows.push((
        "obs.span_us",
        us_per(n, || {
            for i in 0..n {
                obs.span("probe.span").field("i", i).finish();
            }
        }),
    ));
    rows
}
