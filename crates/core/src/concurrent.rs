//! Interleaved execution of several plans over one device — the paper's
//! outlook: "We also expect concurrent queries to strongly benefit from
//! asynchronous I/O, as scheduling decisions can be made based on more
//! pending requests" (§7), and the converse warning it cites for the
//! Assembly operator: concurrently active scan-based plans interfere and
//! cause extra disk-arm movement.
//!
//! The executor round-robins `next()` across the plans, so their I/O
//! requests arrive at the shared device interleaved. Synchronous plans
//! (Simple) ping-pong the head between working sets; asynchronous plans
//! (XSchedule) pool everything in the device queue, which reorders across
//! *both* queries.

use crate::context::ExecCtx;
use crate::error::ExecError;
use crate::plan::{Method, PathRun, PlanConfig, PlanCursor};
use crate::report::{buffer_delta, device_delta, ExecReport};
use pathix_tree::TreeStore;
use pathix_xpath::LocationPath;

/// Runs `f`, adding the clock/buffer/device activity it causes to `acc`.
fn bracketed<R>(store: &TreeStore, acc: &mut ExecReport, f: impl FnOnce() -> R) -> R {
    let t0 = store.clock().breakdown();
    let b0 = store.buffer.stats();
    let d0 = store.buffer.device_stats();
    let out = f();
    acc.absorb(&ExecReport {
        time: store.clock().breakdown().since(&t0),
        buffer: buffer_delta(store.buffer.stats(), b0),
        device: device_delta(store.buffer.device_stats(), d0),
        ..Default::default()
    });
    out
}

/// Runs all `(path, method)` pairs concurrently (interleaved on the shared
/// simulated device) and reports the combined cost. Each plan is charged
/// like a sequential run of it: Simple plans pay their duplicate
/// elimination, and with `cfg.sort` every plan pays its final sort.
///
/// Each plan's own report is its share of the batch cost: the
/// clock/buffer/device deltas accumulated around its `pull()` turns and its
/// final sort, plus its private algebra counters. Summing the per-plan
/// reports reproduces the combined report's I/O and time totals.
///
/// Fails with [`ExecError::UnexpectedEnd`] if any plan breaks the output
/// contract (a bug in the operator tree, never the caller's input).
pub fn execute_interleaved(
    store: &TreeStore,
    work: &[(LocationPath, Method)],
    cfg: &PlanConfig,
) -> Result<(Vec<PathRun>, ExecReport), ExecError> {
    // A recorded I/O error from an earlier aborted run must not bleed in.
    store.clear_io_error();
    let clock0 = store.clock().breakdown();
    let buf0 = store.buffer.stats();
    let dev0 = store.buffer.device_stats();

    // Each cursor with the clock/buffer/device deltas attributed to it.
    let mut slots: Vec<(PlanCursor<'_>, ExecReport)> = work
        .iter()
        .map(|(path, method)| {
            let cx = ExecCtx::new(store, cfg.costs, cfg.mem_limit);
            (
                PlanCursor::new(path, cfg, *method, cx),
                ExecReport::default(),
            )
        })
        .collect();

    // Round-robin until every plan is exhausted. One pull per turn
    // interleaves the plans' I/O at instance granularity; each turn is
    // bracketed so its activity is attributed to its plan.
    loop {
        let mut progressed = false;
        for (cursor, acc) in &mut slots {
            if !cursor.done() {
                progressed |= bracketed(store, acc, || cursor.pull())?;
            }
        }
        if !progressed || store.io_failed() {
            break;
        }
    }

    if let Some(e) = store.take_io_error() {
        // Clean abort of the whole interleaved batch: the shared device is
        // the failure domain here (unlike the forked per-worker devices of
        // `execute_batch`, which contain failures per item).
        drop(slots);
        store.buffer.drain_inflight();
        return Err(ExecError::Io {
            page: e.page,
            attempts: e.attempts,
        });
    }

    let mut runs = Vec::with_capacity(slots.len());
    for (cursor, mut acc) in slots {
        let (nodes, report) = bracketed(store, &mut acc, || cursor.finish(cfg.sort));
        let report = ExecReport {
            time: acc.time,
            buffer: acc.buffer,
            device: acc.device,
            ..report
        };
        runs.push(PathRun { nodes, report });
    }
    let report = ExecReport {
        method: "interleaved".to_owned(),
        time: store.clock().breakdown().since(&clock0),
        buffer: buffer_delta(store.buffer.stats(), buf0),
        device: device_delta(store.buffer.device_stats(), dev0),
        results: runs.iter().map(|r| r.nodes.len() as u64).sum(),
        ..Default::default()
    };
    Ok((runs, report))
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::ops::testutil::{mem_store, sample_doc};
    use pathix_tree::Placement;
    use pathix_xpath::parse_path;

    #[test]
    fn interleaved_plans_all_correct() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Shuffled { seed: 17 });
        let ranks = doc.preorder_ranks();
        let work = vec![
            (parse_path("/regions//item").unwrap(), Method::Simple),
            (parse_path("//email").unwrap(), Method::xschedule()),
            (parse_path("//name").unwrap(), Method::XScan),
        ];
        let mut cfg = PlanConfig::new(Method::Simple);
        cfg.sort = true;
        let (runs, report) = execute_interleaved(&store, &work, &cfg).expect("plans execute");
        assert_eq!(runs.len(), 3);
        for (i, (path, _)) in work.iter().enumerate() {
            let want: Vec<u64> = pathix_xpath::eval_path(&doc, doc.root(), &path.normalize())
                .iter()
                .map(|n| pathix_tree::node::order_key(ranks[n.0 as usize]))
                .collect();
            let got: Vec<u64> = runs[i].nodes.iter().map(|&(_, o)| o).collect();
            assert_eq!(got, want, "plan {i} diverged under interleaving");
        }
        assert!(report.results > 0);
    }

    #[test]
    fn two_schedules_share_the_device_queue() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Shuffled { seed: 3 });
        let work = vec![
            (parse_path("//item").unwrap(), Method::xschedule()),
            (parse_path("//email").unwrap(), Method::xschedule()),
        ];
        let (runs, _) = execute_interleaved(&store, &work, &PlanConfig::new(Method::Simple))
            .expect("plans execute");
        assert!(!runs[0].nodes.is_empty());
        assert!(!runs[1].nodes.is_empty());
    }

    #[test]
    fn per_plan_reports_sum_to_combined() {
        let doc = sample_doc();
        let work = vec![
            (parse_path("//item").unwrap(), Method::Simple),
            (parse_path("//email").unwrap(), Method::xschedule()),
            (parse_path("//name").unwrap(), Method::XScan),
        ];
        let mut cpu_ns = Vec::new();
        for sort in [false, true] {
            let store = mem_store(&doc, 256, Placement::Shuffled { seed: 23 });
            let mut cfg = PlanConfig::new(Method::Simple);
            cfg.sort = sort;
            let (runs, combined) = execute_interleaved(&store, &work, &cfg).expect("plans execute");
            // Every read and every simulated nanosecond of the batch,
            // including the final sorts, happens inside some plan's
            // bracketed turn, so the per-plan deltas must sum exactly to
            // the combined report.
            let reads: u64 = runs.iter().map(|r| r.report.device.reads).sum();
            let total_ns: u64 = runs.iter().map(|r| r.report.time.total_ns).sum();
            let fixes: u64 = runs.iter().map(|r| r.report.buffer.fixes).sum();
            assert_eq!(reads, combined.device.reads, "sort = {sort}");
            assert_eq!(total_ns, combined.time.total_ns, "sort = {sort}");
            assert_eq!(fixes, combined.buffer.fixes, "sort = {sort}");
            for run in &runs {
                assert_eq!(run.report.results, run.nodes.len() as u64);
                assert!(
                    run.report.instances > 0,
                    "{} did no work?",
                    run.report.method
                );
            }
            cpu_ns.push(combined.time.cpu_ns);
        }
        assert!(cpu_ns[1] > cpu_ns[0], "the final sorts are charged");
    }

    #[test]
    fn interleaved_plans_charge_like_sequential_runs() {
        // On identical cold stores, a lone interleaved plan must cost
        // exactly what the sequential run of the same path costs: Simple
        // pays its duplicate elimination, sorted plans pay their sort.
        let doc = sample_doc();
        let path = parse_path("//item/..//name").unwrap();
        for method in [Method::Simple, Method::xschedule(), Method::XScan] {
            for sort in [false, true] {
                let mut cfg = PlanConfig::new(method);
                cfg.sort = sort;
                let store = mem_store(&doc, 256, Placement::Shuffled { seed: 29 });
                let solo = crate::plan::execute_path(&store, &path, &cfg).expect("plan executes");
                let store = mem_store(&doc, 256, Placement::Shuffled { seed: 29 });
                let (runs, _) = execute_interleaved(&store, &[(path.clone(), method)], &cfg)
                    .expect("plan executes");
                let run = &runs[0];
                assert_eq!(run.nodes, solo.nodes, "{method:?}, sort = {sort}");
                assert_eq!(
                    run.report.time.cpu_ns, solo.report.time.cpu_ns,
                    "{method:?}, sort = {sort}"
                );
                assert_eq!(
                    run.report.time.total_ns, solo.report.time.total_ns,
                    "{method:?}, sort = {sort}"
                );
            }
        }
    }
}
