//! End-to-end checks of the parallel batch executor (`Database::run_batch`):
//! for any worker count and any method mix, parallel results are bit-identical
//! to sequential one-at-a-time execution, the shared-cache read path performs
//! zero page copies, and the per-plan report deltas sum to the combined batch
//! report.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

use pathix::{
    AdmissionConfig, BatchRun, Database, DatabaseOptions, DeviceKind, ExecError, Method, PlanConfig,
};
use pathix_storage::SharedPageCacheStats;

const PATHS: [&str; 6] = [
    "/site/regions//item",
    "/site/people//email",
    "/site/open_auctions//description",
    "/site/closed_auctions//annotation",
    "/site/closed_auctions/closed_auction/annotation/description/parlist\
     /listitem/parlist/listitem/text/emph/keyword",
    "//keyword",
];

fn corpus() -> Vec<(&'static str, Method)> {
    let mut work = Vec::new();
    for m in [Method::Simple, Method::xschedule(), Method::XScan] {
        for p in PATHS {
            work.push((p, m));
        }
    }
    work
}

fn sorted_cfg() -> PlanConfig {
    let mut cfg = PlanConfig::new(Method::Simple);
    cfg.sort = true;
    cfg
}

/// An ungoverned batch: no budgets, no admission limits.
fn ungoverned_batch(
    db: &Database,
    work: &[(&str, Method)],
    workers: usize,
) -> (BatchRun, Option<SharedPageCacheStats>) {
    db.run_batch(
        work,
        &sorted_cfg(),
        workers,
        &[],
        &AdmissionConfig::unlimited(),
    )
    .unwrap()
}

/// The determinism contract: for every worker count, the parallel batch
/// returns exactly what sequential one-at-a-time execution returns, in
/// batch order, for all three methods.
#[test]
fn parallel_is_bit_identical_to_sequential_for_any_worker_count() {
    let db = Database::from_xmark(0.012, &DatabaseOptions::default()).unwrap();
    let work = corpus();
    let cfg = sorted_cfg();

    let reference: Vec<_> = work
        .iter()
        .map(|(p, m)| {
            let mut item_cfg = cfg;
            item_cfg.method = *m;
            db.run(p, &item_cfg).unwrap().nodes
        })
        .collect();
    // The corpus is non-trivial: every path matches something.
    assert!(reference.iter().all(|nodes| !nodes.is_empty()));

    for workers in [1, 2, 3, 8] {
        let (batch, _) = ungoverned_batch(&db, &work, workers);
        assert_eq!(batch.runs.len(), reference.len());
        for (i, (run, want)) in batch.runs.iter().zip(&reference).enumerate() {
            let run = run.as_ref().expect("fault-free batch item succeeds");
            assert_eq!(
                &run.nodes, want,
                "item {i} diverged at {workers} workers (path {:?}, method {:?})",
                work[i].0, work[i].1
            );
        }
    }
}

/// The shared-cache read path hands out `Arc<[u8]>` clones, never copies:
/// `page_copies` stays zero across the whole batch while the cache is
/// demonstrably in use.
#[test]
fn shared_cache_read_path_is_zero_copy() {
    let db = Database::from_xmark(0.012, &DatabaseOptions::default()).unwrap();
    let (batch, cache) = ungoverned_batch(&db, &corpus(), 4);
    assert_eq!(batch.report.device.page_copies, 0);
    // The cache actually served the batch: every physical read went
    // through it as a miss, and reads happened.
    assert!(cache.expect("an ungoverned batch shares a cache").misses > 0);
    assert!(batch.report.device.reads > 0);
}

/// Per-plan report deltas attribute the batch cost exactly: summing them
/// reproduces the combined report's physical-read total.
#[test]
fn per_plan_reports_sum_to_combined() {
    let db = Database::from_xmark(0.012, &DatabaseOptions::default()).unwrap();
    let (batch, _) = ungoverned_batch(&db, &corpus(), 3);
    let read_sum: u64 = batch
        .runs
        .iter()
        .flatten()
        .map(|r| r.report.device.reads)
        .sum();
    assert_eq!(read_sum, batch.report.device.reads);
    for run in &batch.runs {
        assert!(!run
            .as_ref()
            .expect("item succeeds")
            .report
            .method
            .is_empty());
    }
}

/// A memory-backed database parallelizes too (forks share page images by
/// refcount), and worker counts beyond the batch size are harmless.
#[test]
fn mem_device_and_excess_workers() {
    let opts = DatabaseOptions {
        device: DeviceKind::Mem,
        ..Default::default()
    };
    let db = Database::from_xmark(0.012, &opts).unwrap();
    let work = [("/site/regions//item", Method::xschedule())];
    let cfg = sorted_cfg();
    let want = db.run(work[0].0, &{
        let mut c = cfg;
        c.method = work[0].1;
        c
    });
    let (batch, _) = ungoverned_batch(&db, &work, 16);
    assert_eq!(batch.runs.len(), 1);
    let run = batch.runs[0].as_ref().expect("item succeeds");
    assert_eq!(run.nodes, want.unwrap().nodes);
}

/// Admission caps alone (no deadline, no ledger) do not make a batch cold:
/// it runs over the shared page cache and still sheds exactly the batch
/// tail, while every admitted item answers like sequential execution.
#[test]
fn admission_caps_alone_shed_the_tail_over_the_shared_cache() {
    let db = Database::from_xmark(0.012, &DatabaseOptions::default()).unwrap();
    let work = corpus();
    let cfg = sorted_cfg();
    let admitted = work.len() - 3;
    let admission = AdmissionConfig {
        max_in_flight: 2,
        max_admitted: Some(admitted),
        ledger_cap_bytes: None,
    };
    let (batch, cache) = db.run_batch(&work, &cfg, 3, &[], &admission).unwrap();
    assert!(cache.expect("no deadline, no ledger: shared cache").misses > 0);
    for (i, run) in batch.runs.iter().enumerate() {
        if i < admitted {
            let mut item_cfg = cfg;
            item_cfg.method = work[i].1;
            let want = db.run(work[i].0, &item_cfg).unwrap().nodes;
            assert_eq!(run.as_ref().expect("admitted item answers").nodes, want);
        } else {
            assert!(
                matches!(run, Err(ExecError::Overloaded)),
                "item {i} not shed"
            );
        }
    }
    assert_eq!(batch.governor.admitted, admitted as u64);
    assert_eq!(batch.governor.shed, 3);
}
