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
//! `emit_json` writes the `BENCH_PR3.json` artifact consumed by the
//! acceptance criteria; every row cross-checks that the parallel results are
//! bit-identical to sequential one-at-a-time execution and that the shared
//! cache read path performs zero page copies.

use crate::{bench_options, build_db_with};
use pathix::{Database, Method, PlanConfig};
use pathix_core::{execute_batch_parallel, WorkerSeed};
use pathix_storage::{
    Completion, Device, DeviceStats, DiskProfile, IoError, PageId, SharedCacheDevice,
    SharedPageCache, SharedPageCacheStats, SimClock,
};
use pathix_tree::NodeId;
use std::sync::Arc;
use std::time::Instant;

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

/// One measurement at one worker count.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Worker threads.
    pub workers: usize,
    /// Batch items executed.
    pub items: usize,
    /// Real elapsed milliseconds for the whole batch.
    pub wall_ms: f64,
    /// Batch items per wall-clock second.
    pub items_per_s: f64,
    /// Wall-clock speedup vs. the 1-worker row.
    pub speedup: f64,
    /// Parallel results bit-identical to sequential execution.
    pub identical: bool,
    /// Page-image copies on the shared-cache read path — must be 0.
    pub page_copies: u64,
    /// Physical device reads summed over all worker forks.
    pub device_reads: u64,
    /// Shared-cache counters for this batch.
    pub cache: SharedPageCacheStats,
}

fn seeds_for(
    db: &Database,
    workers: usize,
    read_ns: u64,
    cache: &Arc<SharedPageCache>,
) -> Vec<WorkerSeed> {
    (0..workers)
        .map(|_| {
            let fork = db
                .store()
                .buffer
                .device_mut()
                .try_fork()
                .expect("the simulated disk forks");
            let paced: Box<dyn Device + Send> = Box::new(PacedDevice::new(fork, read_ns));
            WorkerSeed {
                device: Box::new(SharedCacheDevice::new(paced, Arc::clone(cache))),
                meta: db.store().meta.clone(),
                params: db.store().buffer.params(),
            }
        })
        .collect()
}

/// Runs the batch at each worker count and cross-checks every result
/// against sequential one-at-a-time execution on the main store.
pub fn scaling_sweep(
    scale: f64,
    worker_counts: &[usize],
    instant_profile: bool,
) -> Vec<ScalingRow> {
    let mut opts = bench_options();
    if instant_profile {
        opts.profile = DiskProfile::instant();
    }
    let db = build_db_with(scale, &opts);
    let work = batch_work();

    // Sequential reference: each item alone, document order, main store.
    let mut cfg = PlanConfig::new(Method::Simple);
    cfg.sort = true;
    let reference: Vec<Vec<(NodeId, u64)>> = work
        .iter()
        .map(|(p, m)| {
            let mut item_cfg = cfg;
            item_cfg.method = *m;
            db.run_with(p, &item_cfg).expect("sequential run").nodes
        })
        .collect();

    let parsed: Vec<(pathix::xpath::LocationPath, Method)> = work
        .iter()
        .map(|(p, m)| {
            (
                pathix::xpath::parse_path(p)
                    .expect("batch path parses")
                    .rooted(),
                *m,
            )
        })
        .collect();

    // Fast/instant mode skips the pacing sleeps: correctness smoke only.
    let read_ns = if instant_profile { 0 } else { PACE_READ_NS };

    let mut rows: Vec<ScalingRow> = Vec::new();
    for &workers in worker_counts {
        let cache = Arc::new(SharedPageCache::new());
        let seeds = seeds_for(&db, workers, read_ns, &cache);
        let t = Instant::now();
        let batch = execute_batch_parallel(seeds, &parsed, &cfg);
        let wall_s = t.elapsed().as_secs_f64().max(1e-9);
        let identical = batch.runs.len() == reference.len()
            && batch
                .runs
                .iter()
                .zip(&reference)
                .all(|(run, want)| run.as_ref().is_ok_and(|r| &r.nodes == want));
        let base = rows.first().map(|r: &ScalingRow| r.wall_ms).unwrap_or(0.0);
        rows.push(ScalingRow {
            workers,
            items: work.len(),
            wall_ms: wall_s * 1e3,
            items_per_s: work.len() as f64 / wall_s,
            speedup: if base > 0.0 {
                base / (wall_s * 1e3)
            } else {
                1.0
            },
            identical,
            page_copies: batch.report.device.page_copies,
            device_reads: batch.report.device.reads,
            cache: cache.stats(),
        });
    }
    rows
}

/// Serializes the sweep as the `BENCH_PR3.json` artifact.
pub fn emit_json(scale: f64, rows: &[ScalingRow]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"artifact\": \"BENCH_PR3\",\n");
    out.push_str("  \"description\": \"wall-clock batch throughput of the parallel worker-pool executor over a shared sharded page cache; device latency realized as a fixed real sleep per physical read so the batch is I/O-bound in wall-clock terms\",\n");
    out.push_str(&format!("  \"engine_scale_factor\": {scale},\n"));
    out.push_str(&format!("  \"pace_read_ns\": {PACE_READ_NS},\n"));
    out.push_str("  \"batch\": \"Q6'/Q7/Q15-style paths x Simple/XSchedule/XScan\",\n");
    out.push_str("  \"thread_scaling\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"workers\": {}, \"items\": {}, \"wall_ms\": {:.1}, \"items_per_s\": {:.2}, \"speedup_vs_1w\": {:.2}, \"results_identical\": {}, \"page_copies\": {}, \"device_reads\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \"single_flight_waits\": {}}}{sep}\n",
            r.workers,
            r.items,
            r.wall_ms,
            r.items_per_s,
            r.speedup,
            r.identical,
            r.page_copies,
            r.device_reads,
            r.cache.hits,
            r.cache.misses,
            r.cache.single_flight_waits
        ));
    }
    out.push_str("  ],\n");
    let identical = rows.iter().all(|r| r.identical);
    let zero_copy = rows.iter().all(|r| r.page_copies == 0);
    let speedup_4w = rows
        .iter()
        .find(|r| r.workers == 4)
        .map(|r| r.speedup)
        .unwrap_or(0.0);
    out.push_str(&format!("  \"results_identical\": {identical},\n"));
    out.push_str(&format!("  \"zero_copy_read_path\": {zero_copy},\n"));
    out.push_str(&format!("  \"speedup_at_4_workers\": {speedup_4w:.2},\n"));
    out.push_str(&format!(
        "  \"acceptance_speedup_4w_ge_2\": {}\n",
        speedup_4w >= 2.0
    ));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn fast_sweep_is_identical_and_zero_copy() {
        // Instant profile: no pacing sleeps, pure correctness smoke.
        let rows = scaling_sweep(0.01, &[1, 2], true);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.identical, "worker count {} diverged", r.workers);
            assert_eq!(r.page_copies, 0);
            assert!(r.cache.misses > 0);
        }
        // The cache sits on the read path: every physical read went through
        // it. (Cross-worker *hits* are scheduling-dependent — on one core
        // with an instant profile a single worker may drain the whole batch
        // before the second is scheduled — so none are asserted here; the
        // paced full sweep is where sharing shows.)
        assert!(rows[0].device_reads > 0);
        assert!(rows[1].cache.misses > 0);
    }

    #[test]
    fn emit_json_is_wellformed_enough() {
        let rows = scaling_sweep(0.01, &[1], true);
        let json = emit_json(0.01, &rows);
        assert!(json.starts_with('{') && json.ends_with("}\n"));
        assert!(json.contains("\"results_identical\": true"));
        assert!(json.contains("\"zero_copy_read_path\": true"));
    }
}
