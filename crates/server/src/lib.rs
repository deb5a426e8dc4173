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
//! * [`reactor`] — the TCP front end: a connection state machine with
//!   no IO (framing, the pass budget, backpressure, the idle sweep)
//!   inside a thin epoll shell on one thread — the 10k-daemon service
//!   envelope.
//! * [`depot`] — data management, caching and archiving. A depot
//!   caches on [`RopeCache`] (O(report) writes). The paper's cache, a
//!   **single XML document updated by streaming parse** ([`XmlCache`]:
//!   insert time grows with cache size, §5.2 and Figure 9), renders
//!   the same bytes and stays as the rope's test oracle and its
//!   document validator. Archiving compiles Inca archival policies
//!   into round-robin databases.
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

#![deny(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod controller;
pub mod dedup;
pub mod depot;
pub mod federation;
pub mod query;
pub mod reactor;
pub mod scrape;
pub mod temporal;

pub use controller::{CentralizedController, ControllerConfig, DecodedSubmission};
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
pub use temporal::{Incident, IncidentCause, TemporalQuery, WindowAggregate};
