//! Criterion bench behind Figure 9: depot response time as a function
//! of cache size and report size, split into unpack and insert.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use inca_report::{BranchId, Timestamp};
use inca_server::{CacheBackend, Depot};
use inca_sim::workload::{synthetic_report, PREMADE_SIZES};
use inca_wire::envelope::{Envelope, EnvelopeMode};

/// Builds a depot on the paper's splice cache with ~`target` bytes of
/// cache from 2 KB filler reports.
fn depot_with_cache(target: usize) -> Depot {
    let mut depot = Depot::with_backend(CacheBackend::Splice);
    let t = Timestamp::from_secs(1_000_000);
    let mut i = 0usize;
    while depot.cache().size_bytes() < target {
        let branch: BranchId =
            format!("reporter=f{i},resource=m{},vo=bench", i % 20).parse().unwrap();
        let report = synthetic_report(&format!("f{i}"), "h", t, 2_048);
        depot
            .receive(&Envelope::new(branch, report.to_xml()).encode(EnvelopeMode::Body), t)
            .unwrap();
        i += 1;
    }
    depot
}

fn bench_cache_size_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("depot_response/cache_size");
    for cache_mb in [1usize, 2, 4] {
        let mut depot = depot_with_cache(cache_mb * 1_000_000);
        let report = synthetic_report("probe", "h", Timestamp::from_secs(2_000_000), 851);
        let branch: BranchId = "reporter=probe,vo=bench".parse().unwrap();
        let bytes = Envelope::new(branch, report.to_xml()).encode(EnvelopeMode::Body);
        let mut tick = 3_000_000u64;
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{cache_mb}MB")),
            &cache_mb,
            |b, _| {
                b.iter(|| {
                    tick += 1;
                    depot.receive(&bytes, Timestamp::from_secs(tick)).unwrap()
                })
            },
        );
    }
    group.finish();
}

fn bench_report_size_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("depot_response/report_size");
    for &size in &PREMADE_SIZES {
        let mut depot = depot_with_cache(1_000_000);
        let report = synthetic_report("probe", "h", Timestamp::from_secs(2_000_000), size);
        let branch: BranchId = "reporter=probe,vo=bench".parse().unwrap();
        let bytes = Envelope::new(branch, report.to_xml()).encode(EnvelopeMode::Body);
        let mut tick = 3_000_000u64;
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| {
                tick += 1;
                depot.receive(&bytes, Timestamp::from_secs(tick)).unwrap()
            })
        });
    }
    group.finish();
}

/// The §5.2.2 ablation: body mode (2004 behaviour) vs attachment mode
/// (the paper's proposed optimization).
fn bench_envelope_mode_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("depot_response/envelope_mode");
    for (label, mode) in
        [("body", EnvelopeMode::Body), ("attachment", EnvelopeMode::Attachment)]
    {
        let mut depot = depot_with_cache(1_000_000);
        let report =
            synthetic_report("probe", "h", Timestamp::from_secs(2_000_000), PREMADE_SIZES[3]);
        let branch: BranchId = "reporter=probe,vo=bench".parse().unwrap();
        let bytes = Envelope::new(branch, report.to_xml()).encode(mode);
        let mut tick = 3_000_000u64;
        group.bench_with_input(BenchmarkId::from_parameter(label), &label, |b, _| {
            b.iter(|| {
                tick += 1;
                depot.receive(&bytes, Timestamp::from_secs(tick)).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cache_size_sweep,
    bench_report_size_sweep,
    bench_envelope_mode_ablation
);
criterion_main!(benches);
