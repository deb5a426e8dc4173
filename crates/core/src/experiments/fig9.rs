//! Figure 9: depot response time and XML processing time vs cache size
//! and report size.
//!
//! §5.2.2's synthetic workload: premade reports of 851 / 9,257 /
//! 23,168 / 45,527 bytes replayed against caches held steady at 0.928,
//! 1.8, 2.7, 3.6, 4.4 and 5.4 MB. For every (cache, report) cell the
//! experiment measures the total response time and the cache
//! processing (insert) time; the gap between them is the envelope
//! unpacking cost that grows with report size — "regardless of the
//! size of the cache, it takes almost 3 seconds to unpack the SOAP
//! envelope and get the largest report ready for addition to the
//! cache".

use inca_consumer::render_table;
use inca_report::{BranchId, Timestamp};
use inca_server::{CacheBackend, Depot};
use inca_sim::workload::{synthetic_report, PREMADE_SIZES};
use inca_wire::envelope::{Envelope, EnvelopeMode};

/// The paper's cache sizes in bytes.
pub const CACHE_SIZES: [usize; 6] =
    [928_000, 1_800_000, 2_700_000, 3_600_000, 4_400_000, 5_400_000];

/// One measured cell of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig9Cell {
    /// Cache size the depot was held at (bytes).
    pub cache_bytes: usize,
    /// Replayed report size (bytes).
    pub report_bytes: usize,
    /// Mean envelope-unpack time (µs).
    pub unpack_us: f64,
    /// Mean cache-insert time (µs) — the paper's "XML processing".
    pub insert_us: f64,
    /// Mean total response time (µs).
    pub total_us: f64,
}

/// Builds a depot on the paper's splice cache, at least `target_bytes`
/// big, made of ~2 KB filler reports across distinct branches.
fn depot_with_cache(seed_label: &str, target_bytes: usize, mode: EnvelopeMode) -> Depot {
    let mut depot = Depot::with_backend(CacheBackend::Splice);
    let t = Timestamp::from_gmt(2004, 7, 8, 0, 0, 0);
    let mut i = 0usize;
    while depot.cache().size_bytes() < target_bytes {
        let branch: BranchId = format!(
            "reporter=filler{i},resource=m{},site=s{},vo={seed_label}",
            i % 40,
            i % 6
        )
        .parse()
        .expect("filler branch is valid");
        let report = synthetic_report(&format!("filler{i}"), "filler.host", t, 2_048);
        let envelope = Envelope::new(branch, report.to_xml());
        depot.receive(&envelope.encode(mode), t).expect("filler envelope valid");
        i += 1;
    }
    depot
}

/// Runs the sweep with `reps` replays per cell (mean reported).
pub fn run(reps: usize, mode: EnvelopeMode) -> Vec<Fig9Cell> {
    run_with(reps, mode, &CACHE_SIZES, &PREMADE_SIZES)
}

/// Parameterized sweep (scaled-down variants for tests).
pub fn run_with(
    reps: usize,
    mode: EnvelopeMode,
    cache_sizes: &[usize],
    report_sizes: &[usize],
) -> Vec<Fig9Cell> {
    let mut cells = Vec::with_capacity(cache_sizes.len() * report_sizes.len());
    let t0 = Timestamp::from_gmt(2004, 7, 9, 0, 0, 0);
    for &cache_bytes in cache_sizes {
        let mut depot = depot_with_cache("fig9", cache_bytes, mode);
        for &report_bytes in report_sizes {
            // One branch per report size so replays replace in place
            // and the cache size stays steady, as in §5.2.2.
            let branch: BranchId = format!("reporter=probe{report_bytes},vo=fig9")
                .parse()
                .expect("probe branch is valid");
            let report =
                synthetic_report(&format!("probe{report_bytes}"), "inca.sdsc.edu", t0, report_bytes);
            let bytes = Envelope::new(branch, report.to_xml()).encode(mode);
            // Warm-up insert (creates the branch).
            depot.receive(&bytes, t0).expect("probe envelope valid");
            let mut unpack = 0.0;
            let mut insert = 0.0;
            let mut total = 0.0;
            for r in 0..reps {
                let timing = depot
                    .receive(&bytes, t0 + 1 + r as u64)
                    .expect("probe envelope valid");
                unpack += timing.unpack.as_secs_f64();
                insert += timing.insert.as_secs_f64();
                total += timing.response().as_secs_f64();
            }
            let n = reps.max(1) as f64;
            cells.push(Fig9Cell {
                cache_bytes,
                report_bytes,
                unpack_us: unpack / n * 1e6,
                insert_us: insert / n * 1e6,
                total_us: total / n * 1e6,
            });
        }
    }
    cells
}

/// Renders the sweep as a table (one row per cell).
pub fn render(cells: &[Fig9Cell]) -> String {
    let mut out = String::from(
        "Figure 9: depot response time vs cache size and report size\n\
         (total = unpack + insert; insert alone is the paper's lower 'XML processing' line)\n\n",
    );
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                format!("{:.1}", c.cache_bytes as f64 / 1e6),
                c.report_bytes.to_string(),
                format!("{:.1}", c.unpack_us),
                format!("{:.1}", c.insert_us),
                format!("{:.1}", c.total_us),
            ]
        })
        .collect();
    out.push_str(&render_table(
        &["Cache (MB)", "Report (B)", "Unpack (us)", "Insert (us)", "Total (us)"],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The figure's shape — insert grows with the cache, unpack with the
    // report, attachments cut the unpack — is timed in
    // tests/paper_check.rs, which keeps other tests off the machine
    // while it measures.

    #[test]
    fn totals_decompose() {
        let cells = run_with(4, EnvelopeMode::Body, &[300_000], &[9_257]);
        for c in &cells {
            assert!((c.total_us - (c.unpack_us + c.insert_us)).abs() < 1.0);
        }
        let text = render(&cells);
        assert!(text.contains("Cache (MB)"));
    }
}
