//! Wall-clock microbenchmarks of the command-queue substrate: the indexed
//! visible-window queue vs. the reference alloc-and-sort scheduler, per visible
//! window depth (ISSUE 2 tentpole part 4). These measure real CPU time —
//! the simulated clock is the *workload*, not the metric.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pathix_bench::throughput::{indexed_drain, reference_drain};

const PENDING: usize = 2048;

fn bench_queue_drain(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_drain");
    group.throughput(Throughput::Elements(PENDING as u64));
    for depth in [1usize, 8, 32, 128, 512] {
        group.bench_with_input(BenchmarkId::new("indexed", depth), &depth, |b, &d| {
            b.iter(|| indexed_drain(PENDING, d))
        });
        group.bench_with_input(BenchmarkId::new("naive", depth), &depth, |b, &d| {
            b.iter(|| reference_drain(PENDING, d))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_queue_drain);
criterion_main!(benches);
