//! Wall-clock microbenchmarks of two storage costs, measured in real CPU
//! time (the simulated clock is the *workload*, not the metric):
//!
//! - `queue_drain`: the command-queue substrate, the indexed visible-window
//!   queue vs. the reference alloc-and-sort scheduler, per visible window
//!   depth;
//! - `page_verify`: the CRC32 check the buffer manager runs on every page
//!   miss, over one sealed 8 KiB page.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pathix_bench::throughput::{indexed_drain, reference_drain};
use pathix_storage::{seal_page, verify_page};
use std::hint::black_box;

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

const PAGE: usize = 8192;

fn bench_page_verify(c: &mut Criterion) {
    let mut page: Vec<u8> = (0..PAGE).map(|i| (i * 31 % 251) as u8).collect();
    seal_page(&mut page);
    let mut group = c.benchmark_group("page_verify");
    group.sample_size(1000);
    group.throughput(Throughput::Bytes(PAGE as u64));
    group.bench_function("crc32_8k", |b| b.iter(|| verify_page(black_box(&page))));
    group.finish();
}

criterion_group!(benches, bench_queue_drain, bench_page_verify);
criterion_main!(benches);
