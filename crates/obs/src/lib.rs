//! Observability layer for the Inca reproduction: structured tracing
//! plus a metrics registry, with zero external dependencies.
//!
//! The original Inca deployment (SC 2004, §5) was diagnosed with ad-hoc
//! instrumentation — wall-clock printouts around depot inserts, manual
//! counts of rejected connections. This crate packages that need as a
//! small, reusable facade the whole workspace shares:
//!
//! - **Tracing** ([`trace`]): named [`Span`]s carry a severity, a
//!   monotonic timestamp, an optional duration, and key/value fields.
//!   Finished spans fan out to pluggable [`TraceSink`]s — a
//!   line-oriented stderr sink, an in-memory ring buffer for tests, and
//!   a JSONL file sink (see [`sinks`]). When no sink is installed the
//!   hot path is a single relaxed atomic load.
//! - **Metrics** ([`metrics`]): a [`MetricsRegistry`] hands out
//!   lock-free [`Counter`]s, [`Gauge`]s, and fixed-bucket
//!   [`Histogram`]s, and renders the whole registry in the Prometheus
//!   text exposition format.
//! - **Durable trace store** ([`store`]): a segmented, size-rotated
//!   JSONL [`TraceStore`] sink with an in-memory index rebuilt from
//!   segment footers on open, so trace forensics (`by_trace`,
//!   time-window, slowest-span, critical-path queries) survive the
//!   writing process.
//!
//! # The `Obs` handle
//!
//! [`Obs`] bundles one [`Tracer`] and one [`MetricsRegistry`]. It is
//! cheap to clone (all clones share the same sinks and metrics).
//! Components take an `Obs` at construction; their default
//! constructors use [`Obs::global`], so installing a sink on the
//! global handle — as the experiment binaries' `--trace` flag does —
//! lights up every default-constructed component with no plumbing.
//! Tests that need isolation construct a fresh `Obs` and pass it via
//! the `with_obs` constructors.
//!
//! ```
//! use inca_obs::{Obs, Severity};
//! use inca_obs::sinks::RingSink;
//! use std::sync::Arc;
//!
//! let obs = Obs::new();
//! let ring = Arc::new(RingSink::new(64));
//! obs.tracer().add_sink(ring.clone());
//!
//! let requests = obs.metrics().counter("requests_total", "Requests seen.");
//! {
//!     let _span = obs.span("request.handle").field("peer", "10.0.0.1");
//!     requests.inc();
//! } // span finishes (and is emitted) on drop
//!
//! let events = ring.drain();
//! assert_eq!(events[0].name, "request.handle");
//! assert!(obs.metrics().render().contains("requests_total 1"));
//! ```
//!
//! [`Span`]: trace::Span
//! [`TraceSink`]: trace::TraceSink
//! [`Tracer`]: trace::Tracer
//! [`MetricsRegistry`]: metrics::MetricsRegistry
//! [`Counter`]: metrics::Counter
//! [`Gauge`]: metrics::Gauge
//! [`Histogram`]: metrics::Histogram
//! [`TraceStore`]: store::TraceStore

#![deny(missing_docs)]

pub mod metrics;
pub mod sinks;
pub mod store;
pub mod trace;

use std::fmt;
use std::sync::{Arc, OnceLock};

use metrics::MetricsRegistry;
use trace::{Span, Tracer};

pub use store::{StoredEvent, TraceStore, TraceStoreConfig};
pub use trace::{Severity, TraceContext};

/// A shared observability handle: one tracer plus one metrics
/// registry.
///
/// Cloning is cheap and clones are entangled: sinks installed and
/// metrics registered through any clone are visible through all of
/// them.
#[derive(Clone)]
pub struct Obs {
    tracer: Tracer,
    metrics: Arc<MetricsRegistry>,
}

impl Obs {
    /// Creates a fresh, isolated handle (no sinks, empty registry).
    pub fn new() -> Obs {
        Obs { tracer: Tracer::new(), metrics: Arc::new(MetricsRegistry::new()) }
    }

    /// Returns a clone of the process-wide handle, creating it on
    /// first use.
    ///
    /// Default constructors throughout the workspace observe into this
    /// handle, so a sink installed here (e.g. by a `--trace` flag)
    /// captures every component that was not given an explicit `Obs`.
    pub fn global() -> Obs {
        static GLOBAL: OnceLock<Obs> = OnceLock::new();
        GLOBAL.get_or_init(Obs::new).clone()
    }

    /// The tracer half of the handle.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The metrics registry half of the handle.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Starts a timed [`Span`] named `name` (shorthand for
    /// `obs.tracer().span(name)`). The span is emitted to the sinks
    /// when dropped or [`finish`](Span::finish)ed.
    pub fn span(&self, name: &'static str) -> Span {
        self.tracer.span(name)
    }

    /// Starts a point event (a span with no duration; shorthand for
    /// `obs.tracer().event(name)`). Emitted when dropped or
    /// [`finish`](Span::finish)ed.
    pub fn event(&self, name: &'static str) -> Span {
        self.tracer.event(name)
    }
}

impl Default for Obs {
    fn default() -> Obs {
        Obs::new()
    }
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("tracing_active", &self.tracer.is_active())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::sinks::RingSink;
    use super::*;

    #[test]
    fn clones_share_sinks_and_metrics() {
        let obs = Obs::new();
        let clone = obs.clone();
        let ring = Arc::new(RingSink::new(8));
        obs.tracer().add_sink(ring.clone());

        clone.span("via.clone").finish();
        assert_eq!(ring.drain().len(), 1);

        let c = clone.metrics().counter("shared_total", "Shared counter.");
        c.inc();
        assert!(obs.metrics().render().contains("shared_total 1"));
    }

    #[test]
    fn global_is_a_singleton() {
        let a = Obs::global();
        let b = Obs::global();
        let c = a.metrics().counter("obs_global_singleton_probe_total", "probe");
        c.inc();
        assert!(b.metrics().render().contains("obs_global_singleton_probe_total 1"));
    }
}
