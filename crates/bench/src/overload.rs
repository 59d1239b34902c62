//! Overload harness (PR 5): the governed batch executor under an
//! **open-loop arrival ramp**.
//!
//! The model: `N` work items arrive open-loop at `m×` the sustainable
//! service rate. In an arrival window that admits all `N` at `1×`, a
//! server running at rate multiple `m` can drain only `⌈N/m⌉` of them —
//! the rest must be shed up front or they would queue without bound (the
//! defining failure of open-loop overload). The admission controller
//! therefore gets `max_admitted = ⌈N/m⌉`, and shedding is a batch-order
//! prefix decision: deterministic, decided before execution, reported as
//! [`ExecError::Overloaded`](pathix_core::ExecError).
//!
//! Every admitted item carries a two-stage deadline derived from the
//! measured mean sim service time `T̄`: soft at `T̄`, hard at `2T̄`. Items
//! whose plan would blow past the mean degrade into the §5.4.6 fallback at
//! the soft deadline and abort with a typed error at the hard one — so the
//! per-item p99 sim-latency is bounded by the hard deadline (plus at most
//! one inter-checkpoint stride of work, see DESIGN.md §12).
//!
//! Workers use **private device forks with cold per-item buffers** (no
//! shared page cache): each item's sim-timeline — and therefore its
//! deadline outcome — is a pure function of the item itself, never of
//! claim order. The shared memory ledger is likewise off here: its
//! refusals depend on which items are concurrently in flight, which is
//! real scheduling, not a reproducible figure (the chaos and unit suites
//! cover it). That is what lets the whole sweep assert bit-identical
//! outcomes across repeated runs and worker counts.
//!
//! In full mode each fork is wrapped in a [`PacedDevice`] so the ramp
//! costs real wall-clock time per physical read, like the scaling harness;
//! fast mode uses an instant profile and no pacing (correctness smoke).
//! [`artifact`] gathers the sweep as the `BENCH_PR5` artifact.

use crate::artifact::{Artifact, Cells, Value};
use crate::scaling::{batch_work, BATCH};
use crate::{
    build_db_with, harness_options, parse_work, sequential_reference, sorted_cfg, worker_seeds,
};
use pathix::{Database, Method, QueryRun};
use pathix_core::{execute_batch, AdmissionConfig, ExecError, QueryBudget};
use std::time::Instant;

/// Rate multiples swept by the full harness (1× = sustainable).
pub const RATE_MULTIPLES: [u32; 4] = [1, 2, 4, 8];

/// Worker threads executing admitted items.
pub const OVERLOAD_WORKERS: usize = 4;

/// Realized wall-clock service time per physical read in full mode. The
/// deadline-governed batch runs cold per-item buffers (no shared cache), so this
/// is deliberately lighter than the scaling harness's pace.
pub const OVERLOAD_PACE_READ_NS: u64 = 40_000;

/// One measurement at one rate multiple.
struct OverloadRow {
    /// Offered-load multiple of the sustainable rate.
    multiple: u32,
    /// Items offered (the whole batch).
    offered: usize,
    /// Admission capacity `⌈N/m⌉` at this rate.
    admitted_cap: usize,
    /// Items admitted (ran to an answer or a typed abort).
    admitted: u64,
    /// Items shed with `Overloaded`.
    shed: u64,
    /// Admitted items that degraded into §5.4.6 fallback and answered.
    degraded: u64,
    /// Admitted items aborted at the hard deadline.
    deadline_aborted: u64,
    /// Admitted items that answered (degraded or not).
    answered: usize,
    /// Answered items whose nodes diverged from the oracle — must be 0.
    wrong: usize,
    /// Median sim-latency of admitted items, milliseconds.
    p50_sim_ms: f64,
    /// 99th-percentile sim-latency of admitted items, milliseconds.
    p99_sim_ms: f64,
    /// The hard deadline every admitted item carried, milliseconds.
    hard_deadline_ms: f64,
    /// Real elapsed milliseconds for the batch (not deterministic).
    wall_ms: f64,
}

impl OverloadRow {
    fn cells(&self) -> Cells {
        vec![
            ("rate_multiple", self.multiple.into()),
            ("offered", self.offered.into()),
            ("admitted_cap", self.admitted_cap.into()),
            ("admitted", self.admitted.into()),
            ("shed", self.shed.into()),
            ("degraded", self.degraded.into()),
            ("deadline_aborted", self.deadline_aborted.into()),
            ("answered", self.answered.into()),
            ("wrong", self.wrong.into()),
            ("p50_sim_ms", Value::Fixed(self.p50_sim_ms, 3)),
            ("p99_sim_ms", Value::Fixed(self.p99_sim_ms, 3)),
            ("hard_deadline_ms", Value::Fixed(self.hard_deadline_ms, 3)),
            ("wall_ms", Value::Fixed(self.wall_ms, 1)),
        ]
    }
}

fn percentile_ms(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_ns.len() as f64).ceil() as usize;
    sorted_ns[rank.clamp(1, sorted_ns.len()) - 1] as f64 / 1e6
}

fn run_ramp(
    db: &Database,
    parsed: &[(pathix::xpath::LocationPath, Method)],
    reference: &[QueryRun],
    mean_service_ns: u64,
    read_ns: u64,
    multiple: u32,
) -> OverloadRow {
    let offered = parsed.len();
    let admitted_cap = offered.div_ceil(multiple as usize);
    let hard_ns = 2 * mean_service_ns;
    let budgets: Vec<QueryBudget> = (0..offered)
        .map(|_| QueryBudget::with_deadline(mean_service_ns, hard_ns))
        .collect();
    let admission = AdmissionConfig {
        max_in_flight: OVERLOAD_WORKERS,
        max_admitted: Some(admitted_cap),
        ledger_cap_bytes: None,
    };
    let seeds = worker_seeds(db, OVERLOAD_WORKERS, read_ns, None);
    let t = Instant::now();
    let cfg = sorted_cfg(Method::Simple);
    let batch = execute_batch(seeds, parsed, &cfg, &budgets, &admission);
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut latencies_ns: Vec<u64> = Vec::new();
    let mut answered = 0usize;
    let mut wrong = 0usize;
    for (i, run) in batch.runs.iter().enumerate() {
        match run {
            Ok(r) => {
                answered += 1;
                if r.nodes != reference[i].nodes {
                    wrong += 1;
                }
                latencies_ns.push(r.report.time.total_ns);
            }
            Err(ExecError::DeadlineExceeded { elapsed, .. }) => latencies_ns.push(*elapsed),
            Err(ExecError::Overloaded) => {} // never started: no latency
            Err(other) => panic!("illegal overload outcome on item {i}: {other:?}"),
        }
    }
    latencies_ns.sort_unstable();

    OverloadRow {
        multiple,
        offered,
        admitted_cap,
        admitted: batch.governor.admitted,
        shed: batch.governor.shed,
        degraded: batch.governor.degraded,
        deadline_aborted: batch.governor.deadline_aborted,
        answered,
        wrong,
        p50_sim_ms: percentile_ms(&latencies_ns, 50.0),
        p99_sim_ms: percentile_ms(&latencies_ns, 99.0),
        hard_deadline_ms: hard_ns as f64 / 1e6,
        wall_ms,
    }
}

/// The `BENCH_PR5` artifact: the open-loop ramp at each rate multiple,
/// run twice. Full mode ramps over [`RATE_MULTIPLES`] at SF 0.05 with
/// [`OVERLOAD_PACE_READ_NS`] of real sleep per physical read; fast mode
/// ramps 1× and 4× at SF 0.01 on the instant disk profile without pacing.
///
/// Checks: `deterministic` (the two passes are sim-identical),
/// `zero_wrong_answers`, `sheds_exactly_over_capacity` (every rate above
/// 1× sheds exactly its over-capacity tail, and sheds something) and
/// `p99_bounded_by_hard_deadline`.
pub fn artifact(fast: bool) -> Artifact {
    let (scale, multiples, read_ns): (f64, &[u32], u64) = if fast {
        (0.01, &[1, 4], 0)
    } else {
        (0.05, &RATE_MULTIPLES, OVERLOAD_PACE_READ_NS)
    };
    let db = build_db_with(scale, &harness_options(fast));
    let work = batch_work();

    // Oracle + mean sim service time, from cold sequential runs on the
    // main store (unpaced; pacing burns wall clock, not sim time).
    let reference = sequential_reference(&db, &work);
    let total_service_ns: u64 = reference.iter().map(|r| r.report.time.total_ns).sum();
    let mean_service_ns = (total_service_ns / work.len() as u64).max(1);
    let parsed = parse_work(&work);

    let pass = || -> Vec<OverloadRow> {
        multiples
            .iter()
            .map(|&m| run_ramp(&db, &parsed, &reference, mean_service_ns, read_ns, m))
            .collect()
    };
    let first = pass();
    let second = pass();
    // Everything but the wall clock must repeat exactly.
    let sim_cells = |r: &OverloadRow| -> Cells {
        r.cells()
            .into_iter()
            .filter(|(k, _)| *k != "wall_ms")
            .collect()
    };
    let deterministic = first.len() == second.len()
        && first
            .iter()
            .zip(&second)
            .all(|(a, b)| sim_cells(a) == sim_cells(b));
    let zero_wrong = first.iter().all(|r| r.wrong == 0);
    let sheds_over_capacity = first
        .iter()
        .filter(|r| r.multiple > 1)
        .all(|r| r.shed as usize == r.offered - r.admitted_cap && r.shed > 0);
    // One inter-checkpoint stride of slack past the hard deadline (see the
    // module docs): p99 ≤ 2× the hard deadline is the acceptance bound.
    let p99_bounded = first
        .iter()
        .all(|r| r.p99_sim_ms <= 2.0 * r.hard_deadline_ms);
    Artifact {
        name: "BENCH_PR5",
        description: "governed batch executor under an open-loop arrival ramp: admission control sheds the over-capacity batch tail deterministically, two-stage deadlines degrade then abort the rest, and answered items are always oracle-correct",
        params: vec![
            ("engine_scale_factor", Value::Float(scale)),
            ("workers", OVERLOAD_WORKERS.into()),
            ("pace_read_ns", OVERLOAD_PACE_READ_NS.into()),
            ("batch", BATCH.into()),
        ],
        sections: vec![("overload_ramp", first.iter().map(OverloadRow::cells).collect())],
        summary: vec![
            ("deterministic", deterministic.into()),
            ("zero_wrong_answers", zero_wrong.into()),
            ("sheds_exactly_over_capacity", sheds_over_capacity.into()),
            ("p99_bounded_by_hard_deadline", p99_bounded.into()),
        ],
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::artifact::assert_passes_with_schema_of;

    #[test]
    fn fast_ramp_sheds_deterministically_with_zero_wrong_answers() {
        let a = artifact(true);
        assert_passes_with_schema_of(&a, "BENCH_PR5.json");
        let (_, rows) = &a.sections[0];
        assert_eq!(rows.len(), 2);
        for row in rows {
            let (Value::Int(offered), Value::Int(admitted), Value::Int(shed)) =
                (&row[1].1, &row[3].1, &row[4].1)
            else {
                panic!("unexpected row layout: {row:?}");
            };
            assert_eq!(admitted + shed, *offered, "{row:?}");
        }
    }
}
