//! # pathix-bench
//!
//! Benchmark harness reproducing every table and figure of the paper's
//! evaluation (§6), plus the ablations listed in DESIGN.md.
//!
//! The `report` binary regenerates the artifacts:
//!
//! ```text
//! cargo run --release -p pathix-bench --bin report -- all
//! cargo run --release -p pathix-bench --bin report -- fig9 fig10 fig11 tab3 example1
//! cargo run --release -p pathix-bench --bin report -- throughput scaling chaos overload
//! ```
//!
//! The paper's figures and tables are functions in [`experiments`]. The
//! four engine harnesses ([`throughput`], [`scaling`], [`chaos`],
//! [`overload`]) each expose `artifact(fast) -> Artifact`: one
//! [`artifact::Artifact`] per run, which `report` prints, gates on and
//! writes as `BENCH_PRn.json`. The plumbing they share (parsing a batch,
//! the sequential reference, worker seeds, fast-mode options) lives here.
//!
//! Criterion micro-benchmarks live in `benches/` and wrap the same
//! experiment functions.

pub mod artifact;
pub mod chaos;
pub mod experiments;
pub mod overload;
pub mod scaling;
pub mod table;
pub mod throughput;

pub use experiments::*;

use pathix::xpath::{parse_path, LocationPath};
use pathix::{Database, DatabaseOptions, Method, PlanConfig, QueryRun};
use pathix_core::WorkerSeed;
use pathix_storage::{Device, DiskProfile, SharedCacheDevice, SharedPageCache};
use scaling::PacedDevice;
use std::sync::Arc;

/// [`bench_options`], with the zero-latency disk profile in fast mode (the
/// CI smoke configuration: wall time is then pure engine overhead).
pub(crate) fn harness_options(fast: bool) -> DatabaseOptions {
    let mut opts = bench_options();
    if fast {
        opts.profile = DiskProfile::instant();
    }
    opts
}

/// A plan configuration for `method` that sorts results into document
/// order, so result lists compare across methods and executors.
pub(crate) fn sorted_cfg(method: Method) -> PlanConfig {
    let mut cfg = PlanConfig::new(method);
    cfg.sort = true;
    cfg
}

/// Parses `(path, method)` work items into rooted location paths.
pub(crate) fn parse_work(work: &[(&str, Method)]) -> Vec<(LocationPath, Method)> {
    work.iter()
        .map(|(p, m)| (parse_path(p).expect("batch path parses").rooted(), *m))
        .collect()
}

/// The sequential reference of a batch: each item run alone on `db`'s main
/// store, cold, sorted into document order.
pub(crate) fn sequential_reference(db: &Database, work: &[(&str, Method)]) -> Vec<QueryRun> {
    work.iter()
        .map(|(p, m)| run_cold_with(db, p, &sorted_cfg(*m)))
        .collect()
}

/// One worker seed per worker, each over a private fork of `db`'s device
/// that sleeps `read_ns` real time per physical read ([`PacedDevice`]; 0
/// disables pacing) and, with `cache`, is stacked on that shared page cache.
pub(crate) fn worker_seeds(
    db: &Database,
    workers: usize,
    read_ns: u64,
    cache: Option<&Arc<SharedPageCache>>,
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
                device: match cache {
                    Some(cache) => Box::new(SharedCacheDevice::new(paced, Arc::clone(cache))),
                    None => paced,
                },
                meta: db.store().meta.clone(),
                params: db.store().buffer.params(),
            }
        })
        .collect()
}
