//! Wall-clock throughput harness (ISSUE 2): measures what the *substrate
//! itself* costs, as opposed to the simulated times every other experiment
//! reports.
//!
//! Two measurements:
//!
//! 1. **Queue microbench** — drain a large pending set through the indexed
//!    [`SimDisk`] command queue vs. the original alloc-and-sort scheduler
//!    ([`ReferenceDisk`]), both driven through the [`Device`] interface, at
//!    several visible-window depths. Both sides simulate the identical
//!    workload (same LCG page sequence, same cost model), and the harness
//!    cross-checks that their simulated outcomes agree before trusting the
//!    wall-clock ratio.
//! 2. **Engine sweep** — run a benchmark query end-to-end for
//!    Simple/XSchedule/XScan at each device queue depth, reporting real
//!    pages/s and result-nodes/s (wall clock, not simulated ns), plus the
//!    page-copy counter that the zero-copy read path must keep at zero.
//!
//! [`artifact`] gathers both as the `BENCH_PR2` artifact. Its checks are
//! `outcomes_agree` on every microbench row and `zero_copy_read_path`.

use crate::artifact::{Artifact, Cells, Value};
use crate::{build_db_with, harness_options, Q6};
use pathix::{Method, PlanConfig};
use pathix_storage::{Device, DiskProfile, ReferenceDisk, SimClock, SimDisk};
use std::time::Instant;

/// Device queue depths swept by both measurements.
pub const DEPTHS: [usize; 5] = [1, 8, 32, 128, 512];

/// Pending-set size of the full queue microbench.
pub const MICRO_PENDING: usize = 4096;

const LCG_MUL: u64 = 6364136223846793005;
const LCG_ADD: u64 = 1442695040888963407;

fn lcg(x: &mut u64) -> u64 {
    *x = x.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
    *x >> 33
}

fn micro_profile(depth: usize) -> DiskProfile {
    DiskProfile {
        queue_depth: depth,
        ..DiskProfile::default()
    }
}

/// Drains `n` pseudo-random requests through `disk` (which gets `n` empty
/// pages first). Returns `(final_now_ns, busy_ns)`.
fn drain(mut disk: impl Device, n: usize) -> (u64, u64) {
    for _ in 0..n {
        disk.append_page(Vec::new());
    }
    let clock = SimClock::new();
    let mut x = 0x2545F4914F6CDD1Du64;
    for _ in 0..n {
        disk.submit(lcg(&mut x) as u32 % n as u32, &clock);
    }
    while disk.poll(&clock, true).is_some() {}
    (clock.now_ns(), disk.stats().busy_ns)
}

/// Drains the workload through the original alloc-and-sort scheduler
/// ([`ReferenceDisk`]). Returns `(final_now_ns, busy_ns)`.
pub fn reference_drain(n: usize, depth: usize) -> (u64, u64) {
    drain(ReferenceDisk::with_profile(64, micro_profile(depth)), n)
}

/// Drains the identical workload through the real indexed [`SimDisk`].
/// Returns `(final_now_ns, busy_ns)`.
pub fn indexed_drain(n: usize, depth: usize) -> (u64, u64) {
    drain(SimDisk::with_profile(64, micro_profile(depth)), n)
}

/// Runs the queue microbench at each depth, `n` pending requests: one row
/// per depth, with both sides' wall-clock milliseconds and whether their
/// simulated outcomes agree (the check that makes the ratio trustworthy).
fn micro_sweep(n: usize, depths: &[usize]) -> Vec<Cells> {
    depths
        .iter()
        .map(|&depth| {
            let t = Instant::now();
            let naive = reference_drain(n, depth);
            let naive_ms = t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let indexed = indexed_drain(n, depth);
            let indexed_ms = t.elapsed().as_secs_f64() * 1e3;
            vec![
                ("depth", depth.into()),
                ("pending", n.into()),
                ("naive_ms", Value::Fixed(naive_ms, 3)),
                ("indexed_ms", Value::Fixed(indexed_ms, 3)),
                ("speedup", Value::Fixed(naive_ms / indexed_ms.max(1e-9), 2)),
                ("outcomes_agree", (naive == indexed).into()),
            ]
        })
        .collect()
}

/// Runs Q6 cold for each method at each device queue depth (also
/// XSchedule's `k`), measuring wall time: one row per `(depth, method)`,
/// with the page-copy counter that the zero-copy read path keeps at 0.
fn engine_sweep(scale: f64, depths: &[usize], fast: bool) -> Vec<Cells> {
    let mut rows = Vec::new();
    for &depth in depths {
        let mut opts = harness_options(fast);
        opts.profile.queue_depth = depth;
        let db = build_db_with(scale, &opts);
        let methods = [
            Method::Simple,
            Method::XSchedule {
                k: depth.max(1),
                speculative: false,
            },
            Method::XScan,
        ];
        for m in methods {
            db.clear_buffers();
            db.reset_device_stats();
            let t = Instant::now();
            let run = db
                .run(Q6, &PlanConfig::new(m))
                .expect("throughput query runs");
            let wall_s = t.elapsed().as_secs_f64().max(1e-9);
            let dev = run.report.device;
            rows.push(vec![
                ("method", m.label().into()),
                ("depth", depth.into()),
                ("wall_ms", Value::Fixed(wall_s * 1e3, 3)),
                ("pages_read", dev.reads.into()),
                ("pages_per_s", Value::Fixed(dev.reads as f64 / wall_s, 0)),
                ("result_nodes", run.value.into()),
                ("nodes_per_s", Value::Fixed(run.value as f64 / wall_s, 0)),
                ("sim_total_s", Value::Fixed(run.report.total_secs(), 4)),
                ("page_copies", dev.page_copies.into()),
            ]);
        }
    }
    rows
}

/// The `BENCH_PR2` artifact. Full mode drains [`MICRO_PENDING`] requests
/// and runs the engine at SF 0.25 over every depth of [`DEPTHS`]; fast mode
/// drains 512 at the first three depths and runs SF 0.02 on the instant
/// disk profile.
pub fn artifact(fast: bool) -> Artifact {
    let (pending, depths, scale) = if fast {
        (512, &DEPTHS[..3], 0.02)
    } else {
        (MICRO_PENDING, &DEPTHS[..], 0.25)
    };
    let micro = micro_sweep(pending, depths);
    let engine = engine_sweep(scale, depths, fast);
    let zero_copy = engine
        .iter()
        .all(|row| row.contains(&("page_copies", Value::Int(0))));
    Artifact {
        name: "BENCH_PR2",
        description: "wall-clock throughput of the reordering substrate: indexed command queue vs naive alloc+sort, and end-to-end engine rates per device queue depth",
        params: vec![("engine_scale_factor", Value::Float(scale))],
        sections: vec![("queue_microbench", micro), ("engine_throughput", engine)],
        summary: vec![("zero_copy_read_path", zero_copy.into())],
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::artifact::assert_passes_with_schema_of;

    #[test]
    fn naive_and_indexed_agree_on_simulated_outcome() {
        for depth in [1, 7, 0] {
            assert_eq!(reference_drain(300, depth), indexed_drain(300, depth));
        }
    }

    #[test]
    fn micro_sweep_rows_are_consistent() {
        let a = artifact(true);
        assert_passes_with_schema_of(&a, "BENCH_PR2.json");
        let (_, micro) = &a.sections[0];
        assert_eq!(micro.len(), 3);
        for row in micro {
            assert!(matches!(row[3], ("indexed_ms", Value::Fixed(ms, _)) if ms > 0.0));
        }
        assert_eq!(a.sections[1].1.len(), 9);
    }
}
