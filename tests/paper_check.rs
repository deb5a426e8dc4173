//! Paper mode, pinned: every exhibit of the paper's evaluation is
//! regenerated from the code and held against the printout checked in
//! under `results/` (`scripts/run_experiments.sh` writes them), so a
//! change that moves an exhibit fails the build instead of waiting for
//! a reader to notice a stale file.
//!
//! What each exhibit promises (DESIGN.md's substitution table):
//! Tables 1–3 and Figures 4–7 are deterministic per seed and must
//! match byte for byte. Figure 9 and Table 4 time the 2004 splice
//! cache for real, so Figure 9 is held by *shape* on a reduced sweep
//! and Table 4 by everything except its response-time columns. Beside
//! them, the rope the depot runs on is held to the splice those
//! exhibits time: the same document, at a fraction of the cost.

use inca::harness::experiments::{
    fig4, fig5, fig6, fig7, fig8_table4, fig9, table1, table2, table3,
};
use inca::report::{BranchId, ReportBuilder, Timestamp};
use inca::paper::XmlCache;
use inca::server::RopeCache;
use inca::wire::envelope::EnvelopeMode;
use std::sync::{PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Figure 9's shape is read off microsecond timings, and the harness
/// runs a file's tests on parallel threads: the timing test takes this
/// for writing, every other test for reading, so nothing here streams
/// megabytes through the other core while it measures.
static QUIET: RwLock<()> = RwLock::new(());

/// The seed every checked-in printout was generated with.
const SEED: u64 = 42;

fn checked_in(name: &str) -> String {
    let path = format!("{}/results/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn tables_1_to_3_match_results() {
    let _shared = QUIET.read().unwrap_or_else(PoisonError::into_inner);
    assert_eq!(table1::render(&table1::run()), checked_in("table1"));
    assert_eq!(table2::render(&table2::run(SEED)), checked_in("table2"));
    assert_eq!(table3::render(&table3::run()), checked_in("table3"));
}

#[test]
fn fig4_status_page_matches_results() {
    let _shared = QUIET.read().unwrap_or_else(PoisonError::into_inner);
    assert_eq!(fig4::render(&fig4::run(SEED, 6)), checked_in("fig4"));
}

#[test]
fn fig5_availability_week_matches_results() {
    let _shared = QUIET.read().unwrap_or_else(PoisonError::into_inner);
    assert_eq!(fig5::render(&fig5::run(SEED, 7)), checked_in("fig5"));
}

#[test]
fn fig6_bandwidth_week_matches_results() {
    let _shared = QUIET.read().unwrap_or_else(PoisonError::into_inner);
    assert_eq!(fig6::render(&fig6::run(SEED, 7)), checked_in("fig6"));
}

#[test]
fn fig7_controller_impact_matches_results() {
    let _shared = QUIET.read().unwrap_or_else(PoisonError::into_inner);
    assert_eq!(fig7::render(&fig7::run(SEED, 7)), checked_in("fig7"));
}

/// The sweep's `(unpack, insert)` µs per `(cache, report)` cell, each
/// the quietest of three measurements on one cache (the sweep takes
/// the report sizes in turn, so naming them three times measures them
/// three times). A cell is a mean of twenty samples, and one
/// pre-empted 20 µs unpack moves such a mean several-fold.
fn quietest_cells(
    mode: EnvelopeMode,
    caches: &[usize],
    reports: &[usize],
) -> std::collections::BTreeMap<(usize, usize), (f64, f64)> {
    let mut cells = std::collections::BTreeMap::new();
    for c in fig9::run_with(20, mode, caches, &reports.repeat(3)) {
        let cell = cells
            .entry((c.cache_bytes, c.report_bytes))
            .or_insert((f64::INFINITY, f64::INFINITY));
        *cell = (c.unpack_us.min(cell.0), c.insert_us.min(cell.1));
    }
    cells
}

/// A cache document of at least `bytes`, made of small version
/// reports, rendered by the rope: the splice loads it in one pass.
#[cfg(debug_assertions)]
fn document_of(bytes: usize) -> String {
    let mut rope = RopeCache::new();
    let mut next = 0;
    while rope.size_bytes() < bytes {
        for (branch, xml) in version_reports(500, next) {
            rope.update(&branch, &xml).expect("rope insert");
        }
        next += 500;
    }
    rope.document()
}

/// §5.2.2's insert by counting: the document bytes one probe replace
/// streams through the splice, and the arena bytes it writes into the
/// rope, at a cache of `document` with a `report`-byte probe.
#[cfg(debug_assertions)]
fn counted_insert(document: &str, report: usize) -> (u64, u64) {
    use inca::server::depot::rope::touched_bytes;
    let (bytes, _) = fig9::probe_envelope(report, EnvelopeMode::Binary);
    let probe = inca::wire::envelope::Envelope::decode(&bytes).expect("probe envelope valid");
    let mut splice = XmlCache::from_document(document.to_string()).expect("rope document");
    let mut rope = RopeCache::from_document(document.to_string()).expect("rope document");
    // The first insert creates the probe's branch; the counted one
    // replaces it, as the sweep's replays do.
    splice.update(&probe.address, &probe.report_xml).expect("splice probe");
    rope.update(&probe.address, &probe.report_xml).expect("rope probe");
    let (streamed, touched) = (inca::paper::streamed_bytes(), touched_bytes());
    splice.update(&probe.address, &probe.report_xml).expect("splice probe");
    rope.update(&probe.address, &probe.report_xml).expect("rope probe");
    (inca::paper::streamed_bytes() - streamed, touched_bytes() - touched)
}

/// §5.2.2 on the smallest and largest cache of the paper's sweep and
/// its smallest and largest report: the splice grows with the cache
/// and not with the report, the unpack with the report and not with
/// the cache, and attachments skip the body's pass over the report.
/// Counted in debug builds (the tier-1 suite): the bytes each step
/// streams. Timed in release builds, which `scripts/verify.sh` runs one
/// test at a time: a ratio of 20 µs-scale means on a loaded machine
/// misses its bound now and then, so it waits for a quiet one.
#[test]
fn fig9_keeps_the_papers_shape() {
    let _alone = QUIET.write().unwrap_or_else(PoisonError::into_inner);
    let (small_cache, big_cache) = (fig9::CACHE_SIZES[0], fig9::CACHE_SIZES[5]);
    let (small_report, big_report) = (851, 45_527);
    // The splice streams the cache: from 0.9 to 5.4 MB a probe costs
    // about six times the bytes, and a 53× larger report about the
    // same. The rope writes the report and nothing else, at any size.
    #[cfg(debug_assertions)]
    {
        let (small_doc, big_doc) = (document_of(small_cache), document_of(big_cache));
        let insert = |doc: &str, report| counted_insert(doc, report);
        for report in [small_report, big_report] {
            let ((small, rope_small), (big, rope_big)) =
                (insert(&small_doc, report), insert(&big_doc, report));
            assert!(big >= small * 4, "insert streams {small} -> {big} B from 0.9 to 5.4 MB");
            assert_eq!(rope_small, rope_big, "a rope replace writes the report alone");
            assert!(rope_small < report as u64 + 1_024, "{rope_small} B for a {report} B report");
        }
        for doc in [&small_doc, &big_doc] {
            let (small, _) = insert(doc, small_report);
            let (big, _) = insert(doc, big_report);
            let ratio = big as f64 / small as f64;
            assert!((0.5..2.0).contains(&ratio), "insert streams x{ratio:.2} across report sizes");
        }
    }
    // The paper's proposed saving, by counting work: the body unpack
    // tokenizes and unescapes the whole envelope, every byte of the
    // escaped report with it; the attachment unpack tokenizes its
    // header and none of the report. (Both then validate the report
    // with one parse.)
    #[cfg(debug_assertions)]
    for report in [small_report, big_report] {
        use inca::harness::experiments::paper_depot::PaperDepot;
        use inca::wire::envelope::tokenized_bytes;
        let unpack = |mode| {
            let (bytes, report_len) = fig9::probe_envelope(report, mode);
            let before = tokenized_bytes();
            PaperDepot::new().receive(&bytes).expect("probe envelope valid");
            (tokenized_bytes() - before, bytes.len() as u64, report_len as u64)
        };
        let (body, body_len, report_len) = unpack(EnvelopeMode::Body);
        assert_eq!(body, body_len, "the body unpack tokenizes the whole envelope");
        assert!(body > report_len, "{body} envelope bytes hold the {report_len}-byte report");
        let (attached, attached_len, _) = unpack(EnvelopeMode::Attachment);
        assert_eq!(attached, attached_len - report_len - 1, "the header alone, at {report} B");
    }
    // Timed. The two unpack modes lean on different resources (the
    // body is unescaped, the attachment copied), so each side of the
    // saving is the quietest of three caches as well.
    if !cfg!(debug_assertions) {
        let body = quietest_cells(
            EnvelopeMode::Body,
            &[small_cache, big_cache],
            &[small_report, big_report],
        );
        let unpack = |cache, report| body[&(cache, report)].0;
        let insert = |cache, report| body[&(cache, report)].1;
        for report in [small_report, big_report] {
            let (small, big) = (insert(small_cache, report), insert(big_cache, report));
            assert!(big >= small * 4.0, "insert {small:.0} -> {big:.0} us from 0.9 to 5.4 MB");
        }
        let ratio = unpack(big_cache, big_report) / unpack(small_cache, big_report);
        assert!((0.5..2.0).contains(&ratio), "unpack x{ratio:.2} across cache sizes");
        for cache in [small_cache, big_cache] {
            let ratio = insert(cache, big_report) / insert(cache, small_report);
            assert!((0.5..2.0).contains(&ratio), "insert x{ratio:.2} across report sizes at {cache}");
            let (small, big) = (unpack(cache, small_report), unpack(cache, big_report));
            assert!(big >= small * 2.5, "unpack {small:.1} -> {big:.1} us from 851 to 45,527 B");
        }
        let quietest_unpack = |mode| {
            (0..3)
                .map(|_| {
                    quietest_cells(mode, &[small_cache], &[big_report])[&(small_cache, big_report)].0
                })
                .fold(f64::INFINITY, f64::min)
        };
        let (in_body, attached) =
            (quietest_unpack(EnvelopeMode::Body), quietest_unpack(EnvelopeMode::Attachment));
        assert!(attached * 2.0 <= in_body, "attachment unpack {attached:.1} vs body {in_body:.1} us");
    }

    // The checked-in printouts are this renderer's, whatever the
    // machine that timed them.
    let header = fig9::render(&[]);
    for name in ["fig9", "fig9_attachment"] {
        assert!(checked_in(name).starts_with(&header), "results/{name}.txt header moved");
    }
}

/// How many times faster the rope must take a probe insert than the
/// splice at the same cache. The test's scale reads about 5,000× (full
/// scale, 200 probes into 100,000 reports, about 59,000×); a rope that
/// streamed and spliced like the 2004 cache would read about 1×.
const ROPE_SPEEDUP_FLOOR: f64 = 10.0;

/// `n` small version reports on distinct branches, numbered from
/// `first` so separately built sets never collide.
fn version_reports(n: usize, first: usize) -> Vec<(BranchId, String)> {
    (first..first + n)
        .map(|id| {
            let (site, resource) = (format!("site{}", id % 10), format!("m{}", id % 40));
            let branch = format!("reporter=version.pkg{id},resource={resource},site={site},vo=tg")
                .parse()
                .expect("generated branch is well-formed");
            let xml = ReportBuilder::new(format!("version.pkg{id}"), "1.0")
                .host(&resource)
                .gmt(Timestamp::from_secs(1_089_158_400 + id as u64))
                .body_value("packageVersion", format!("2.4.{}", id % 20))
                .success()
                .expect("builder succeeds")
                .to_xml();
            (branch, xml)
        })
        .collect()
}

/// The production write path against the paper's: 50 probe inserts
/// into the same 5,000-report cache on the rope and on the streaming
/// splice leave byte-identical documents, and the rope does at least
/// `ROPE_SPEEDUP_FLOOR` times less: counted in debug builds (the bytes
/// each streams or writes), timed in release builds.
#[test]
fn rope_inserts_match_the_splice_at_a_fraction_of_its_cost() {
    let _alone = QUIET.write().unwrap_or_else(PoisonError::into_inner);
    let seed = version_reports(5_000, 0);
    let probes = version_reports(50, seed.len());
    let mut rope = RopeCache::new();
    let items: Vec<(&BranchId, &str)> = seed.iter().map(|(b, x)| (b, x.as_str())).collect();
    rope.insert_batch(&items).expect("rope seed");
    let mut splice = XmlCache::from_document(rope.document()).expect("rope document is valid");

    #[cfg(debug_assertions)]
    let document_bytes = rope.size_bytes() as u64;
    #[cfg(debug_assertions)]
    let counted = (inca::server::depot::rope::touched_bytes(), inca::paper::streamed_bytes());
    let timed = |update: &mut dyn FnMut(&BranchId, &str)| -> Duration {
        let started = Instant::now();
        for (branch, xml) in &probes {
            update(branch, xml);
        }
        started.elapsed()
    };
    let rope_time = timed(&mut |b, x| rope.update(b, x).expect("rope probe"));
    let splice_time = timed(&mut |b, x| splice.update(b, x).expect("splice probe"));

    assert_eq!(rope.document(), splice.document(), "documents diverged");
    #[cfg(debug_assertions)]
    {
        let rope_bytes = inca::server::depot::rope::touched_bytes() - counted.0;
        let splice_bytes = inca::paper::streamed_bytes() - counted.1;
        let report_bytes: u64 = probes.iter().map(|(_, xml)| xml.len() as u64).sum();
        assert!(rope_bytes >= report_bytes, "the rope writes each report once");
        assert!(splice_bytes >= 50 * document_bytes, "the splice streams the cache per probe");
        let saving = splice_bytes as f64 / rope_bytes as f64;
        assert!(
            saving >= ROPE_SPEEDUP_FLOOR,
            "rope {rope_bytes} B vs splice {splice_bytes} B: {saving:.1}x, floor {ROPE_SPEEDUP_FLOOR}x"
        );
    }
    if !cfg!(debug_assertions) {
        let speedup = splice_time.as_secs_f64() / rope_time.as_secs_f64().max(1e-9);
        assert!(
            speedup >= ROPE_SPEEDUP_FLOOR,
            "rope {rope_time:?} vs splice {splice_time:?}: {speedup:.1}x, floor {ROPE_SPEEDUP_FLOOR}x"
        );
    }
}

/// `(size bucket, update count)` of a rendered Table 4 row: the five
/// columns between them are the response times.
fn table4_row(line: &str) -> Option<(&str, &str)> {
    match line.split_whitespace().collect::<Vec<_>>()[..] {
        [bucket, "KB", _, _, _, _, _, updates] => Some((bucket, updates)),
        _ => None,
    }
}

/// Table 4 with its response-time columns blanked.
fn without_response_times(text: &str) -> String {
    text.lines()
        .map(|line| match table4_row(line) {
            Some((bucket, updates)) => format!("{bucket} KB … {updates}"),
            None => line.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// `(size bucket, share of all updates)` rows of a rendered Table 4.
fn bucket_shares(text: &str) -> Vec<(&str, f64)> {
    let rows: Vec<(&str, f64)> = text
        .lines()
        .filter_map(table4_row)
        .map(|(bucket, updates)| (bucket, updates.parse().expect("update count")))
        .collect();
    let total: f64 = rows.iter().map(|(_, n)| n).sum();
    rows.into_iter().map(|(bucket, n)| (bucket, n / total)).collect()
}

/// A 1/50-scale week keeps the checked-in bucket split: sizes are
/// drawn from the same distribution whatever the count.
#[test]
fn table4_scaled_replay_keeps_the_checked_in_split() {
    let _shared = QUIET.read().unwrap_or_else(PoisonError::into_inner);
    let scaled = fig8_table4::render(&fig8_table4::run(SEED, 3_000, EnvelopeMode::Body));
    let full = checked_in("table4_fig8");
    let (scaled, full) = (bucket_shares(&scaled), bucket_shares(&full));
    assert_eq!(scaled.len(), full.len(), "{scaled:?} vs {full:?}");
    for ((bucket, share), (full_bucket, full_share)) in scaled.iter().zip(&full) {
        assert_eq!(bucket, full_bucket);
        assert!(
            (share - full_share).abs() < 0.01,
            "{bucket} KB: {share:.4} of the scaled week, {full_share:.4} of the checked-in one"
        );
    }
}

#[test]
#[ignore = "replays all 151,955 reports through the streaming splice: about two minutes in a \
            release build (scripts/verify.sh runs it)"]
fn table4_full_replay_matches_results_but_for_response_times() {
    let _shared = QUIET.read().unwrap_or_else(PoisonError::into_inner);
    let week = fig8_table4::run(SEED, 151_955, EnvelopeMode::Body);
    assert_eq!(
        without_response_times(&fig8_table4::render(&week)),
        without_response_times(&checked_in("table4_fig8")),
    );
}
