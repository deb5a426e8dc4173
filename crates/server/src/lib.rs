//! The Inca server: centralized controller, depot, querying interface.
//!
//! "The server receives data from the distributed controllers and
//! coordinates the scheduling and configuration of reporters; it is
//! composed of the centralized controller, depot, and querying
//! interface" (§3). This crate implements all three:
//!
//! * [`controller`] — the centralized controller: accepts framed
//!   client messages (over TCP or in process), checks the host
//!   allowlist, wraps each report in an envelope addressed by its
//!   branch identifier, and forwards it to the depot. All submissions
//!   serialize through it, as in the 2004 system.
//! * [`reactor`] — the event-driven server frontend: one thread, a
//!   level-triggered readiness poller, per-connection framing state
//!   machines, and explicit backpressure instead of thread-per-
//!   connection — the 10k-daemon service envelope.
//! * [`depot`] — data management, caching and archiving. The paper's
//!   cache is a **single XML document updated by streaming parse**
//!   ([`XmlCache`]: insert time grows with cache size, §5.2 and
//!   Figure 9); a depot runs on [`RopeCache`] unless asked for that
//!   one by name ([`CacheBackend::Splice`]), and both render the same
//!   bytes. Archiving compiles Inca archival policies into round-robin
//!   databases.
//! * [`query`] — the querying interface: current data by branch
//!   identifier (whole cache, subtree, or single report) and archived
//!   data as labelled series.
//! * [`temporal`] — time-travel queries over the archive: windowed
//!   availability aggregates, multi-resolution fetch, and incident
//!   reconstruction joining archive windows with trace lineage.
//! * [`federation`] — the federated depot tier: a partition map
//!   routing sites to depot partitions, exactly-once depot-to-depot
//!   forwarding, and a single query plane whose global merge is
//!   byte-identical to a one-depot deployment.
//! * [`scrape`] — the self-scrape pipeline: a [`MetricsScraper`]
//!   periodically records the framework's own metrics registry
//!   (gauges, counter rates, histogram quantiles) into archive series
//!   queryable through [`temporal`] — Inca monitoring Inca.
//! * [`stats`] — response-time statistics per report-size bucket
//!   (Table 4) and received-size histograms (Figure 8).

#![deny(missing_docs)]

pub mod controller;
pub mod dedup;
pub mod depot;
pub mod federation;
pub mod query;
pub mod reactor;
pub mod scrape;
pub mod stats;
pub mod temporal;

pub use controller::{CentralizedController, ControllerConfig, DecodedSubmission, TcpServerHandle};
pub use dedup::{DedupIndex, DEFAULT_DEDUP_WINDOW};
pub use depot::cache::{CacheError, XmlCache};
pub use depot::archive::{ArchiveRule, ArchiveStore};
pub use depot::depot::{CacheBackend, CacheRef, Depot, DepotError, DepotTiming};
pub use depot::rope::RopeCache;
pub use federation::{
    rollup_branch, rollup_rule, rollup_series_prefix, routing_key, Federation,
    FederationConfig, PartitionMap,
};
pub use query::QueryInterface;
pub use reactor::ReactorHandle;
pub use scrape::{MetricsScraper, SELF_SCRAPE_TIERS, SELF_SERIES_PREFIX};
pub use stats::{BucketStats, ResponseStats, SIZE_BUCKETS};
pub use temporal::{Incident, IncidentCause, TemporalQuery, WindowAggregate};
