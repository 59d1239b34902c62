//! Thread-scaling harness (ISSUE 3): wall-clock throughput of the parallel
//! batch executor over 1/2/4/8 workers, on a mixed Q6'/Q7/Q15-style batch.
//!
//! Everything else in this repository measures *simulated* time; like the
//! throughput harness (PR 2) this one measures the wall clock. The simulated
//! disk costs zero real time, so to make batch execution genuinely I/O-bound
//! in wall-clock terms each worker's device fork is wrapped in a
//! [`PacedDevice`] that realizes device latency as real `thread::sleep`: a
//! fixed service time per *physical* read (a constant-latency device, like
//! flash). A fixed per-read cost — rather than the fork's own simulated
//! latency — keeps the realized cost independent of how the batch happens to
//! be split across forks: per-worker forks each have their own disk arm, so
//! splitting one access sequence across them would otherwise inflate seek
//! costs as a pure artifact of the worker count. This reproduces the physics
//! the paper's §7 outlook appeals to: a worker blocked on the device leaves
//! the CPU to the other workers, so overlapping I/O waits — not core-count —
//! is what lets batch throughput scale. The shared page cache compounds it:
//! a page any worker has physically read costs the others neither sleep nor
//! device traffic.
//!
//! [`artifact`] gathers the sweep as the `BENCH_PR3` artifact; every row
//! cross-checks that the parallel results are bit-identical to sequential
//! one-at-a-time execution and that the shared cache read path performs
//! zero page copies.

use crate::artifact::{Artifact, Value};
use crate::{
    build_db_with, harness_options, parse_work, sequential_reference, sorted_cfg, worker_seeds,
};
use pathix::Method;
use pathix_core::execute_batch_parallel;
use pathix_storage::{Completion, Device, DeviceStats, IoError, PageId, SharedPageCache, SimClock};
use std::sync::Arc;
use std::time::Instant;

/// What the batch of [`batch_work`] holds, as the artifacts describe it.
pub(crate) const BATCH: &str = "Q6'/Q7/Q15-style paths x Simple/XSchedule/XScan";

/// Worker counts swept by the full harness.
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Realized service time per physical page read, in real nanoseconds.
/// Chosen so realized device latency dominates per-item CPU time — the
/// regime the paper's batch-of-queries outlook (§7) assumes — while keeping
/// the full sweep well under a second of wall clock.
pub const PACE_READ_NS: u64 = 700_000;

/// Realizes device latency as real wall-clock sleep: a fixed `read_ns` per
/// physical read served by the inner device. Simulated outcomes (clock,
/// stats, bytes) are completely untouched — the wrapper only burns real
/// time, so R2 determinism of everything simulated is preserved by
/// construction. A `read_ns` of 0 disables pacing entirely (fast mode).
pub struct PacedDevice {
    inner: Box<dyn Device + Send>,
    read_ns: u64,
}

impl PacedDevice {
    /// Wraps `inner`, sleeping `read_ns` real time per physical read.
    pub fn new(inner: Box<dyn Device + Send>, read_ns: u64) -> Self {
        Self { inner, read_ns }
    }

    fn pace(&self) {
        if self.read_ns > 0 {
            std::thread::sleep(std::time::Duration::from_nanos(self.read_ns));
        }
    }
}

impl Device for PacedDevice {
    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }

    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn read_sync(&mut self, page: PageId, clock: &SimClock) -> Result<Arc<[u8]>, IoError> {
        let bytes = self.inner.read_sync(page, clock);
        if bytes.is_ok() {
            self.pace();
        }
        bytes
    }

    fn submit(&mut self, page: PageId, clock: &SimClock) {
        self.inner.submit(page, clock);
    }

    fn poll(&mut self, clock: &SimClock, block: bool) -> Option<Completion> {
        let c = self.inner.poll(clock, block);
        if c.is_some() {
            self.pace();
        }
        c
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn append_page(&mut self, bytes: Vec<u8>) -> PageId {
        self.inner.append_page(bytes)
    }

    fn write_page(&mut self, page: PageId, bytes: Vec<u8>) {
        self.inner.write_page(page, bytes);
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn park(&mut self) {
        self.inner.park();
    }

    fn access_trace(&self) -> &[PageId] {
        self.inner.access_trace()
    }

    fn set_trace(&mut self, enabled: bool) {
        self.inner.set_trace(enabled);
    }
}

/// The mixed batch: the paper's three query shapes as location paths (the
/// batch executor runs paths, not aggregates), each under every method.
/// The Q6'/Q7-style paths are scoped to the document's four top-level
/// subtrees — as a multi-client batch would be — so concurrent workers
/// fault largely disjoint page sets instead of colliding in lockstep on
/// the same single-flight loads.
pub fn batch_paths() -> Vec<&'static str> {
    vec![
        // Q6' shape, regions subtree.
        "/site/regions//item",
        // Q7 shapes (descendant prose counts), one subtree each.
        "/site/people//email",
        "/site/open_auctions//description",
        "/site/closed_auctions//annotation",
        // Q15 shape: the deep, highly selective chain.
        "/site/closed_auctions/closed_auction/annotation/description/parlist\
         /listitem/parlist/listitem/text/emph/keyword",
    ]
}

/// `(path, method)` work items: every batch path under every method, so the
/// pool mixes scan-bound, schedule-bound, and random-I/O-bound work.
pub fn batch_work() -> Vec<(&'static str, Method)> {
    let mut work = Vec::new();
    for m in [Method::Simple, Method::xschedule(), Method::XScan] {
        for p in batch_paths() {
            work.push((p, m));
        }
    }
    work
}

/// The `BENCH_PR3` artifact: the batch at each worker count, every result
/// cross-checked against the sequential reference on the main store. Full
/// mode sweeps [`WORKER_COUNTS`] at SF 0.1 with [`PACE_READ_NS`] of real
/// sleep per physical read; fast mode runs 1 and 2 workers at SF 0.02 on
/// the instant disk profile without pacing (a correctness smoke).
///
/// Checks: `results_identical` per row and overall, `zero_copy_read_path`,
/// and `acceptance_speedup_4w_ge_2`, which holds vacuously without a
/// 4-worker row.
pub fn artifact(fast: bool) -> Artifact {
    let (worker_counts, scale, read_ns): (&[usize], f64, u64) = if fast {
        (&[1, 2], 0.02, 0)
    } else {
        (&WORKER_COUNTS, 0.1, PACE_READ_NS)
    };
    let db = build_db_with(scale, &harness_options(fast));
    let work = batch_work();
    let reference = sequential_reference(&db, &work);
    let parsed = parse_work(&work);
    let cfg = sorted_cfg(Method::Simple);

    let mut rows = Vec::new();
    let (mut all_identical, mut zero_copy) = (true, true);
    let (mut base_ms, mut speedup_4w) = (None, None);
    for &workers in worker_counts {
        let cache = Arc::new(SharedPageCache::new());
        let seeds = worker_seeds(&db, workers, read_ns, Some(&cache));
        let t = Instant::now();
        let batch = execute_batch_parallel(seeds, &parsed, &cfg);
        let wall_s = t.elapsed().as_secs_f64().max(1e-9);
        let wall_ms = wall_s * 1e3;
        let identical = batch.runs.len() == reference.len()
            && batch
                .runs
                .iter()
                .zip(&reference)
                .all(|(run, want)| run.as_ref().is_ok_and(|r| r.nodes == want.nodes));
        let speedup = base_ms.map_or(1.0, |base| base / wall_ms);
        base_ms = base_ms.or(Some(wall_ms));
        if workers == 4 {
            speedup_4w = Some(speedup);
        }
        let dev = batch.report.device;
        all_identical &= identical;
        zero_copy &= dev.page_copies == 0;
        let stats = cache.stats();
        rows.push(vec![
            ("workers", workers.into()),
            ("items", work.len().into()),
            ("wall_ms", Value::Fixed(wall_ms, 1)),
            ("items_per_s", Value::Fixed(work.len() as f64 / wall_s, 2)),
            ("speedup_vs_1w", Value::Fixed(speedup, 2)),
            ("results_identical", identical.into()),
            ("page_copies", dev.page_copies.into()),
            ("device_reads", dev.reads.into()),
            ("cache_hits", stats.hits.into()),
            ("cache_misses", stats.misses.into()),
            ("single_flight_waits", stats.single_flight_waits.into()),
        ]);
    }
    Artifact {
        name: "BENCH_PR3",
        description: "wall-clock batch throughput of the parallel worker-pool executor over a shared sharded page cache; device latency realized as a fixed real sleep per physical read so the batch is I/O-bound in wall-clock terms",
        params: vec![
            ("engine_scale_factor", Value::Float(scale)),
            ("pace_read_ns", PACE_READ_NS.into()),
            ("batch", BATCH.into()),
        ],
        sections: vec![("thread_scaling", rows)],
        summary: vec![
            ("results_identical", all_identical.into()),
            ("zero_copy_read_path", zero_copy.into()),
            ("speedup_at_4_workers", Value::Fixed(speedup_4w.unwrap_or(0.0), 2)),
            (
                "acceptance_speedup_4w_ge_2",
                speedup_4w.is_none_or(|s| s >= 2.0).into(),
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::artifact::assert_passes_with_schema_of;

    #[test]
    fn fast_sweep_is_identical_and_zero_copy() {
        let a = artifact(true);
        assert_passes_with_schema_of(&a, "BENCH_PR3.json");
        let (_, rows) = &a.sections[0];
        assert_eq!(rows.len(), 2);
        // The cache sits on the read path: every physical read went through
        // it. (Cross-worker *hits* are scheduling-dependent — on one core
        // with an instant profile a single worker may drain the whole batch
        // before the second is scheduled — so none are asserted here; the
        // paced full sweep is where sharing shows.)
        assert!(matches!(rows[0][7], ("device_reads", Value::Int(n)) if n > 0));
        for row in rows {
            assert!(matches!(row[9], ("cache_misses", Value::Int(n)) if n > 0));
        }
    }
}
