//! Federated depot tier, end to end: a 200-site grid VO ingesting
//! into 8 depot partitions, the one-query-plane byte-identity
//! guarantee, and exactly-once rollup forwarding to a parent depot
//! over a chaos-faulted hop.
//!
//! Two invariants the federation sells:
//!
//! * **One query plane.** The merged global document is byte-identical
//!   to what a single depot holding every report would serve — a
//!   client cannot tell the tier apart from the paper's one-depot
//!   deployment.
//! * **Exactly-once hops.** Depot-to-depot forwarding rides the same
//!   spool + seq-dedup machinery as daemon-to-depot delivery, so a
//!   faulty parent link costs retries and absorbed duplicates, never a
//!   lost or double-counted rollup.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use inca::controller::{DepotRelay, SpoolConfig, Transport};
use inca::prelude::*;
use inca::server::{
    rollup_rule, rollup_series_prefix, CentralizedController, ControllerConfig, Federation,
    FederationConfig, QueryInterface,
};
use inca::sim::{ForwardFault, ForwardFaultConfig, Vo};
use inca::wire::allowlist::HostAllowlist;
use inca::wire::message::{ClientMessage, ServerResponse};

const N_SITES: usize = 200;
const N_PARTITIONS: usize = 8;

fn horizon() -> (Timestamp, Timestamp) {
    let start = Timestamp::from_gmt(2004, 6, 29, 0, 0, 0);
    (start, start + 7 * 86_400)
}

/// One availability probe report per grid resource at `t`.
fn leaf_messages(vo: &Vo, t: Timestamp) -> Vec<ClientMessage> {
    vo.resources()
        .iter()
        .map(|r| {
            let host = r.hostname();
            let up = r.is_up(t);
            let builder = ReportBuilder::new("probe.avail", "1")
                .host(host)
                .gmt(t)
                .body_value("status", if up { "up" } else { "down" });
            let report =
                if up { builder.success() } else { builder.failure("unreachable") }.unwrap();
            let branch: BranchId =
                format!("reporter=probe.avail,resource={host},site={},vo=grid", r.spec.site)
                    .parse()
                    .unwrap();
            ClientMessage::report(host, branch, &report)
        })
        .collect()
}

fn grid_federation(cache_byte_bound: Option<usize>) -> Federation {
    Federation::new(
        FederationConfig {
            partitions: (0..N_PARTITIONS).map(|i| format!("depot{i}")).collect(),
            vo: "grid".into(),
            cache_byte_bound,
        },
        Obs::new(),
    )
}

#[test]
fn grid_scale_global_document_matches_single_depot_oracle() {
    let (start, end) = horizon();
    let vo = Vo::grid(42, N_SITES, 1, start, end);
    // Generously above what 200 one-report sites spread over 8
    // partitions need, but a real bound: one partition swallowing the
    // whole VO would trip it.
    let fed = grid_federation(Some(96 * 1024));
    let msgs = leaf_messages(&vo, start + 3_600);
    assert_eq!(msgs.len(), N_SITES);

    let batch: Vec<(String, Vec<u8>)> =
        msgs.iter().map(|m| (m.resource.clone(), m.encode())).collect();
    for (response, _) in fed.submit_batch(&batch, start + 3_600) {
        assert_eq!(response, ServerResponse::Ack);
    }
    assert_eq!(fed.report_count(), N_SITES);

    // Every partition carries a share of the VO, and none exceeds the
    // configured byte bound.
    for partition in fed.partition_map().partitions() {
        let held = fed
            .controller(partition)
            .unwrap()
            .with_depot(|d| d.cache().report_count());
        assert!(held > 0, "{partition} owns no sites out of {N_SITES}");
    }
    assert!(
        fed.over_bound_partitions().is_empty(),
        "over bound: {:?}",
        fed.over_bound_partitions()
    );
    assert!(fed.largest_cache_bytes() <= 96 * 1024);

    // The oracle: one depot ingesting the identical payloads.
    let oracle =
        CentralizedController::new(ControllerConfig::default(), Depot::with_obs(Obs::new()));
    for (host, payload) in &batch {
        let (response, _) = oracle.submit(host, payload, start + 3_600);
        assert_eq!(response, ServerResponse::Ack);
    }
    let oracle_doc = oracle.with_depot(|d| d.cache().document().to_string());
    assert_eq!(fed.global_document().unwrap(), oracle_doc, "global merge must be byte-identical");
}

/// The depot-to-depot hop under chaos: delivers, drops messages, drops
/// replies (the parent ingests but the relay never learns), and delays
/// — all decided by the deterministic fault schedule.
struct FaultyTransport {
    root: Arc<CentralizedController>,
    faults: ForwardFaultConfig,
    /// Simulated clock shared with the drain loop, so retry rounds
    /// roll fresh dice.
    now: Arc<AtomicU64>,
}

impl Transport for FaultyTransport {
    fn send(&self, message: &ClientMessage) -> Result<ServerResponse, String> {
        let t = Timestamp::from_secs(self.now.load(Ordering::SeqCst));
        let (daemon, seq) = message
            .origin
            .clone()
            .unwrap_or_else(|| (message.resource.clone(), 0));
        // The parent authenticates the *hop*: the peer host it sees is
        // the relay named in `via`, not the leaf resource.
        let peer = message.via.as_deref().unwrap_or(&message.resource);
        match self.faults.decide(&daemon, seq, 0, t) {
            ForwardFault::Deliver => Ok(self.root.submit(peer, &message.encode(), t).0),
            ForwardFault::DropMessage | ForwardFault::Delay(_) => Err("link lost".into()),
            ForwardFault::DropReply => {
                let _ = self.root.submit(peer, &message.encode(), t);
                Err("ack lost".into())
            }
        }
    }
}

#[test]
fn rollups_forward_exactly_once_under_chaos_and_answer_vo_compliance() {
    let (start, end) = horizon();
    let vo = Vo::grid(42, N_SITES, 1, start, end);
    let fed_obs = Obs::new();
    let fed = Federation::new(
        FederationConfig {
            partitions: (0..N_PARTITIONS).map(|i| format!("depot{i}")).collect(),
            vo: "grid".into(),
            ..FederationConfig::default()
        },
        fed_obs.clone(),
    );

    // One round of leaf reports into the partitions.
    let t0 = start + 3_600;
    let batch: Vec<(String, Vec<u8>)> =
        leaf_messages(&vo, t0).iter().map(|m| (m.resource.clone(), m.encode())).collect();
    for (response, _) in fed.submit_batch(&batch, t0) {
        assert_eq!(response, ServerResponse::Ack);
    }

    // The parent depot: only the partition relays are on its
    // allowlist, and the rollup archive rule turns forwarded rollups
    // into per-site series.
    let root_obs = Obs::new();
    let root_config = ControllerConfig {
        allowlist: HostAllowlist::from_entries(
            fed.partition_map().partitions().iter().cloned(),
        ),
        ..ControllerConfig::default()
    };
    let root = Arc::new(CentralizedController::new(
        root_config,
        Depot::with_obs(root_obs.clone()),
    ));
    root.with_depot_mut(|d| d.add_archive_rule(rollup_rule("grid", 3_600)));

    // One exactly-once relay per partition, all sharing the chaos
    // schedule and the simulated clock.
    let now = Arc::new(AtomicU64::new(t0.as_secs()));
    let relay_obs = Obs::new();
    let mut relays: BTreeMap<String, DepotRelay> = fed
        .partition_map()
        .partitions()
        .iter()
        .map(|partition| {
            let transport = FaultyTransport {
                root: Arc::clone(&root),
                faults: ForwardFaultConfig::chaos(7),
                now: Arc::clone(&now),
            };
            (
                partition.clone(),
                DepotRelay::new(
                    partition.clone(),
                    SpoolConfig::default(),
                    Box::new(transport),
                    &relay_obs,
                ),
            )
        })
        .collect();

    // Six hourly rollup rounds, each enqueued toward the parent, each
    // drained under faults before the next.
    let mut enqueued = 0usize;
    for round in 0..6u64 {
        let t = t0 + round * 3_600;
        for rollup in fed.site_rollups(t) {
            // A rollup's resource is the producing partition, which is
            // also its relay identity.
            relays
                .get_mut(&rollup.resource)
                .expect("rollup routed to a known partition")
                .enqueue(rollup);
            enqueued += 1;
        }
        let mut clock = t.as_secs();
        for _ in 0..600 {
            if relays.values().all(DepotRelay::is_empty) {
                break;
            }
            now.store(clock, Ordering::SeqCst);
            for relay in relays.values_mut() {
                relay.deliver_due(clock);
            }
            clock += 120;
        }
        assert!(
            relays.values().all(DepotRelay::is_empty),
            "round {round} did not drain: depths {:?}",
            relays.values().map(DepotRelay::depth).collect::<Vec<_>>()
        );
    }
    assert_eq!(enqueued, 6 * N_SITES);

    // Exactly-once: the chaos link forced duplicates (dropped acks)
    // and retries, yet the parent ingested each rollup exactly once —
    // and its *cache* holds one current rollup per site.
    assert!(root.duplicate_count() > 0, "chaos must have produced duplicate submissions");
    assert_eq!(
        root.with_depot(|d| d.report_count()),
        enqueued as u64,
        "every enqueued rollup ingested exactly once"
    );
    assert_eq!(root.with_depot(|d| d.cache().report_count()), N_SITES);
    let retries = relay_obs
        .metrics()
        .counter_value("inca_fed_forward_retries_total", &[("relay", "depot0")])
        .unwrap_or(0);
    assert!(retries > 0, "chaos must have forced at least one retry on depot0");

    // VO-scope compliance, answered from the per-site rollup series —
    // no leaf document materialized anywhere in the federation.
    let leaves_before = fed_obs
        .metrics()
        .counter_value("inca_fed_leaf_materializations_total", &[])
        .unwrap_or(0);
    let agg = root.with_depot(|d| {
        QueryInterface::new(d)
            .temporal()
            .federated_aggregate(&rollup_series_prefix(), start, end)
            .expect("rollup series present")
    });
    assert!(agg.known >= N_SITES, "at least one known point per site, got {}", agg.known);
    assert!(agg.mean > 0.0 && agg.mean <= 100.0, "mean availability {}", agg.mean);
    assert!(agg.min >= 0.0 && agg.max <= 100.0);
    assert_eq!(
        fed_obs
            .metrics()
            .counter_value("inca_fed_leaf_materializations_total", &[])
            .unwrap_or(0),
        leaves_before,
        "VO compliance must be answered from rollups, not leaves"
    );
}
