//! The paper's depot, kept for the exhibits that measure it.
//!
//! The 2004 depot unpacked each SOAP envelope and SAX-spliced the
//! report into one XML document (§3.2.2); Figure 9 and Table 4
//! (§5.2.2) time exactly that. The production
//! [`Depot`](inca_server::Depot) caches on a rope and keeps no Table 4
//! accounting. [`PaperDepot`] is the 2004 design and nothing more:
//! envelope decode (timed as unpack), the streaming [`XmlCache`] splice
//! (timed as insert), and Table 4's [`ResponseStats`]. It has no
//! archive, deduplication, spans or metrics, because the 2004 depot
//! had none of them.

use std::time::{Duration, Instant};

use inca_server::{DepotError, DepotTiming, XmlCache};
use inca_wire::envelope::Envelope;

use crate::stats::ResponseStats;

/// Envelope unpack, splice cache and response statistics (§3.2.2).
#[derive(Debug, Default)]
pub struct PaperDepot {
    cache: XmlCache,
    stats: ResponseStats,
}

impl PaperDepot {
    /// An empty depot.
    pub fn new() -> PaperDepot {
        PaperDepot::default()
    }

    /// Receives one encoded envelope: unpacks it, splices its report
    /// into the cache and records the response time (unpack + insert)
    /// under the report's size. A rejected envelope is not recorded.
    pub fn receive(&mut self, envelope_bytes: &[u8]) -> Result<DepotTiming, DepotError> {
        let started = Instant::now();
        let envelope = Envelope::decode(envelope_bytes)?;
        let unpack = started.elapsed();
        let started = Instant::now();
        self.cache.update(&envelope.address, &envelope.report_xml)?;
        let timing = DepotTiming {
            unpack,
            insert: started.elapsed(),
            archive: Duration::ZERO,
            report_size: envelope.report_xml.len(),
        };
        self.stats.record(timing.report_size, timing.response().as_secs_f64());
        Ok(timing)
    }

    /// The splice cache.
    pub fn cache(&self) -> &XmlCache {
        &self.cache
    }

    /// Table 4's statistics over every accepted envelope.
    pub fn stats(&self) -> &ResponseStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_report::{BranchId, ReportBuilder, Timestamp};
    use inca_wire::envelope::EnvelopeMode;

    fn envelope_bytes(branch: &str, value: &str, mode: EnvelopeMode) -> Vec<u8> {
        let report = ReportBuilder::new("r", "1.0")
            .gmt(Timestamp::from_secs(1_000))
            .body_value("v", value)
            .success()
            .unwrap();
        Envelope::new(branch.parse().unwrap(), report.to_xml()).encode(mode)
    }

    #[test]
    fn accepted_envelopes_are_spliced_and_recorded() {
        let mut depot = PaperDepot::new();
        for (i, mode) in [EnvelopeMode::Body, EnvelopeMode::Attachment].into_iter().enumerate() {
            let timing = depot.receive(&envelope_bytes("reporter=r,vo=tg", &i.to_string(), mode));
            assert!(timing.unwrap().report_size > 0);
        }
        assert!(matches!(depot.receive(b"garbage"), Err(DepotError::Envelope(_))));
        assert_eq!(depot.cache().report_count(), 1, "the second report replaced the first");
        assert_eq!(depot.stats().report_count(), 2, "the rejected envelope is not recorded");
    }

    #[test]
    // Slow (multi-megabyte cache rebuilds): excluded from the default
    // `cargo test -q` run, where `tests/paper_check.rs` holds Figure 9's
    // scaling on a reduced sweep. scripts/verify.sh opts back in via
    // `cargo test -p inca-core --lib -- --ignored`.
    #[ignore = "slow Figure 9 scaling check; run with --ignored (scripts/verify.sh does)"]
    fn insert_time_grows_with_cache_size() {
        // The Figure 9 mechanism, asserted coarsely: inserting into a
        // multi-megabyte cache takes longer than into a near-empty one.
        let mut depot = PaperDepot::new();
        let t = Timestamp::from_secs(1_000);
        // Grow the cache with many distinct ~20 KB reports.
        let filler = "x".repeat(20_000);
        for i in 0..150 {
            let report = ReportBuilder::new("r", "1.0")
                .gmt(t)
                .body_value("v", filler.as_str())
                .success()
                .unwrap();
            let env = Envelope::new(
                format!("reporter=r{i},vo=tg").parse::<BranchId>().unwrap(),
                report.to_xml(),
            );
            depot.receive(&env.encode(EnvelopeMode::Body)).unwrap();
        }
        assert!(depot.cache().size_bytes() > 2_000_000);
        // Time many small inserts into the big cache vs a fresh one.
        let small = envelope_bytes("reporter=probe,vo=tg", "1", EnvelopeMode::Body);
        let reps = 30;
        let start = Instant::now();
        for _ in 0..reps {
            depot.receive(&small).unwrap();
        }
        let big_elapsed = start.elapsed();
        let mut fresh = PaperDepot::new();
        let start = Instant::now();
        for _ in 0..reps {
            fresh.receive(&small).unwrap();
        }
        let fresh_elapsed = start.elapsed();
        assert!(
            big_elapsed > fresh_elapsed * 3,
            "expected big-cache inserts to dominate: {big_elapsed:?} vs {fresh_elapsed:?}"
        );
    }
}
