//! Plan compilation and execution: a location path plus a [`Method`]
//! becomes an operator tree, which is run to exhaustion and measured.
//!
//! This is the role of the paper's algebraic XPath compiler (§6.1), reduced
//! to the three plan shapes the evaluation compares:
//!
//! * **Simple** — `ContextSource → UnnestMap* → DupElim`,
//! * **XSchedule** — `ContextSource → XSchedule → XStep* → XAssembly`
//!   (with the `Q` feedback edge),
//! * **XScan** — `ContextSource → XScan → XStep* → XAssembly`.

use crate::context::{AbortReason, CostParams, ExecCtx};
use crate::error::ExecError;
use crate::governor::{IoGate, MemLedger, QueryBudget};
use crate::instance::REnd;
use crate::ops::{
    ContextSource, NodeSet, Operator, SchedShared, UnnestMap, XAssembly, XScan, XSchedule, XStep,
};
use crate::report::{buffer_delta, device_delta, ExecReport};
use pathix_tree::{NodeId, ResolvedTest, TreeStore};
use pathix_xpath::{Axis, LocationPath, NodeTest, Query};
use std::cell::RefCell;
use std::rc::Rc;

/// Which physical plan to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// The baseline nested-loop method (§5.1).
    Simple,
    /// Asynchronous scheduling of cluster accesses (§5.3.4 / §5.4.4).
    XSchedule {
        /// Desired minimum queue size `k` (paper default 100).
        k: usize,
        /// Generate speculative instances to avoid cluster revisits.
        speculative: bool,
    },
    /// One sequential scan over all clusters (§5.4.3).
    XScan,
}

impl Method {
    /// The paper's default XSchedule configuration (`k = 100`,
    /// `speculative = false` — the configuration benchmarked in §6.2).
    pub fn xschedule() -> Self {
        Method::XSchedule {
            k: 100,
            speculative: false,
        }
    }

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            Method::Simple => "Simple",
            Method::XSchedule { .. } => "XSchedule",
            Method::XScan => "XScan",
        }
    }
}

/// Plan options.
#[derive(Debug, Clone, Copy)]
pub struct PlanConfig {
    /// Physical method.
    pub method: Method,
    /// Cost model.
    pub costs: CostParams,
    /// `S` memory limit (instances) before fallback; `None` = unlimited.
    pub mem_limit: Option<usize>,
    /// Sort results into document order (§5.5). Counts and aggregates do
    /// not need it.
    pub sort: bool,
    /// Apply `//`-collapsing normalization before planning.
    pub normalize: bool,
}

impl PlanConfig {
    /// Default configuration for a method.
    pub fn new(method: Method) -> Self {
        Self {
            method,
            costs: CostParams::default(),
            mem_limit: None,
            sort: false,
            normalize: true,
        }
    }
}

/// Result of one path execution.
#[derive(Debug, Clone)]
pub struct PathRun {
    /// Distinct result nodes with their document-order keys. Sorted by
    /// document order if the plan was configured with `sort`.
    pub nodes: Vec<(NodeId, u64)>,
    /// Measurements.
    pub report: ExecReport,
}

/// Result of a query (count / sum-of-counts / node set).
#[derive(Debug, Clone)]
pub struct QueryRun {
    /// Numeric value (count) — for node-set queries, the result size.
    pub value: u64,
    /// Result nodes for plain path queries (empty for counts).
    pub nodes: Vec<(NodeId, u64)>,
    /// Aggregated measurements over all paths of the query.
    pub report: ExecReport,
}

/// CPU cost charged per comparison when sorting results into document
/// order.
const SORT_CMP_NS: u64 = 30;

/// §5.4.5.4: with a full scan of a path starting at the document root with
/// `descendant-or-self::node()`, every end at step 1 may be treated as
/// reachable. This is sound for *core* ends always, but speculative left
/// ends are **borders**, and a border at step 1 is only guaranteed to be
/// crossed when step 2 is a downward axis (a sideways axis such as
/// `following-sibling` never crosses an edge that has no context on its
/// near side). Restrict the shortcut accordingly.
pub(crate) fn scan_all_reachable_step(path: &LocationPath) -> Option<u16> {
    let first = path.steps.first()?;
    let starts_dos = first.axis == Axis::DescendantOrSelf && first.test == NodeTest::AnyNode;
    let second_ok = path
        .steps
        .get(1)
        .map(|s| s.axis.is_downward())
        .unwrap_or(true);
    if starts_dos && second_ok {
        Some(1)
    } else {
        None
    }
}

/// Builds the operator tree for a (normalized) path from the document root.
fn build_plan(store: &TreeStore, path: &LocationPath, method: Method) -> Box<dyn Operator> {
    let len = path.steps.len() as u16;
    let source: Box<dyn Operator> = Box::new(ContextSource::new(vec![store.meta.root]));
    match method {
        Method::Simple => {
            let mut op = source;
            for (idx, step) in path.steps.iter().enumerate() {
                let test = ResolvedTest::resolve(&step.test, &store.meta.symbols);
                op = Box::new(UnnestMap::new(op, idx as u16 + 1, step.axis, test));
            }
            op
        }
        Method::XSchedule { k, speculative } => {
            let shared = Rc::new(RefCell::new(SchedShared::default()));
            let mut op: Box<dyn Operator> = Box::new(XSchedule::new(
                source,
                Rc::clone(&shared),
                k,
                speculative,
                len,
            ));
            for (idx, step) in path.steps.iter().enumerate() {
                let test = ResolvedTest::resolve(&step.test, &store.meta.symbols);
                op = Box::new(XStep::new(op, idx as u16 + 1, step.axis, test));
            }
            Box::new(XAssembly::new(op, len, Some(shared), None))
        }
        Method::XScan => {
            let pages = store.meta.page_range().collect();
            let mut op: Box<dyn Operator> = Box::new(XScan::new(source, pages, len));
            for (idx, step) in path.steps.iter().enumerate() {
                let test = ResolvedTest::resolve(&step.test, &store.meta.symbols);
                op = Box::new(XStep::new(op, idx as u16 + 1, step.axis, test));
            }
            Box::new(XAssembly::new(op, len, None, scan_all_reachable_step(path)))
        }
    }
}

/// Executes `path` from the document root.
///
/// Fails with [`ExecError::Io`] on an unrecovered page read, and with
/// [`ExecError::UnexpectedEnd`] if an operator breaks the plan output
/// contract (a bug in the operator tree, never the caller's input).
pub fn execute_path(
    store: &TreeStore,
    path: &LocationPath,
    cfg: &PlanConfig,
) -> Result<PathRun, ExecError> {
    run_path(store, path, cfg, None, None)
}

/// The one path runner behind [`execute_path`], [`execute_query`] and the
/// batch executor.
///
/// A `budget` or a `ledger` puts the run under governance: the soft
/// deadline degrades the plan into §5.4.6 fallback mode, the hard deadline
/// (or the budget's cancel token) aborts it with a typed error, and S-set
/// growth is charged to `ledger`, so batch-wide memory pressure degrades
/// the query instead of growing S. With neither, the run is ungoverned; an
/// unlimited budget and no ledger behave exactly like that.
pub(crate) fn run_path(
    store: &TreeStore,
    path: &LocationPath,
    cfg: &PlanConfig,
    budget: Option<&QueryBudget>,
    ledger: Option<&MemLedger>,
) -> Result<PathRun, ExecError> {
    // A recorded I/O error from an earlier aborted run must not bleed in.
    store.clear_io_error();
    let governed = budget.is_some() || ledger.is_some();
    let cx = if governed {
        let budget = budget.cloned().unwrap_or_default();
        ExecCtx::with_budget(store, cfg.costs, cfg.mem_limit, &budget, ledger.cloned())
    } else {
        ExecCtx::new(store, cfg.costs, cfg.mem_limit)
    };
    // Past the hard deadline no further device I/O is issued and retry
    // backoff is clamped, even between operator checkpoints.
    let _gate = IoGate::arm(store, cx.governor_hard_ns());
    let clock0 = store.clock().breakdown();
    let buf0 = store.buffer.stats();
    let dev0 = store.buffer.device_stats();

    let mut cursor = PlanCursor::new(path, cfg, cfg.method, cx);
    let drained = loop {
        match cursor.pull() {
            Ok(true) => {}
            end => break end,
        }
    };
    cursor.close();
    let cx = &cursor.cx;

    // Governed epilogue: settle the ledger, then surface the abort cause (a
    // governor abort wins over the `Interrupted` I/O error it may have
    // produced at the gate). The gate itself disarms when `_gate` drops.
    cx.release_ledger();
    let recorded_io = store.take_io_error();
    if governed {
        let abort = cx.governor_abort().or_else(|| {
            // The gate refused a read but the plan wound down without
            // another checkpoint: classify by the budget itself.
            recorded_io
                .filter(|e| e.kind == pathix_storage::IoErrorKind::Interrupted)
                .map(|_| {
                    if cx.governor_canceled() {
                        AbortReason::Canceled
                    } else {
                        AbortReason::Deadline
                    }
                })
        });
        if let Some(reason) = abort {
            store.buffer.drain_inflight();
            return Err(match reason {
                AbortReason::Canceled => ExecError::Canceled,
                AbortReason::Deadline => ExecError::DeadlineExceeded {
                    page_reads: device_delta(store.buffer.device_stats(), dev0).reads,
                    elapsed: store
                        .clock()
                        .now_ns()
                        .saturating_sub(cx.governor_t0().unwrap_or(0)),
                },
            });
        }
    }

    drained?;
    if let Some(e) = recorded_io {
        // Clean abort: discard whatever asynchronous reads are still queued
        // so the next run starts from an idle device, then surface the
        // failure as a value.
        store.buffer.drain_inflight();
        return Err(ExecError::Io {
            page: e.page,
            attempts: e.attempts,
        });
    }

    let (nodes, report) = cursor.finish(cfg.sort);
    let report = ExecReport {
        time: store.clock().breakdown().since(&clock0),
        buffer: buffer_delta(store.buffer.stats(), buf0),
        device: device_delta(store.buffer.device_stats(), dev0),
        ..report
    };
    Ok(PathRun { nodes, report })
}

/// A built plan plus its context, drained one output row at a time: the one
/// place that maps plan output rows to result nodes, applies the Simple
/// method's final duplicate elimination (§5.1) and sorts into document
/// order (§5.5). [`run_path`] drains one cursor to the end; the interleaved
/// executor round-robins one [`PlanCursor::pull`] per cursor.
pub(crate) struct PlanCursor<'a> {
    /// `None` once [`Self::close`] released the operator tree.
    plan: Option<Box<dyn Operator>>,
    pub(crate) cx: ExecCtx<'a>,
    method: Method,
    nodes: Vec<(NodeId, u64)>,
    /// Result nodes seen so far (Simple only), as step 0 of a [`NodeSet`].
    seen: NodeSet,
    done: bool,
}

impl<'a> PlanCursor<'a> {
    /// Builds the `method` plan for `path` (normalized if `cfg` asks for
    /// it) from the document root of `cx`'s store.
    pub(crate) fn new(
        path: &LocationPath,
        cfg: &PlanConfig,
        method: Method,
        cx: ExecCtx<'a>,
    ) -> Self {
        let path = if cfg.normalize {
            path.normalize()
        } else {
            path.clone()
        };
        Self {
            plan: Some(build_plan(cx.store, &path, method)),
            cx,
            method,
            nodes: Vec::new(),
            seen: NodeSet::default(),
            done: false,
        }
    }

    /// True once the plan is exhausted or aborted.
    pub(crate) fn done(&self) -> bool {
        self.done
    }

    /// Pulls one plan output row. `Ok(false)` once the plan is exhausted,
    /// or aborted on an unrecovered read (the store holds the error). Fails
    /// with [`ExecError::UnexpectedEnd`] if the plan breaks its output
    /// contract.
    pub(crate) fn pull(&mut self) -> Result<bool, ExecError> {
        let Some(plan) = self.plan.as_mut().filter(|_| !self.done) else {
            return Ok(false);
        };
        let Some(p) = plan.next(&self.cx) else {
            self.done = true;
            return Ok(false);
        };
        let (id, order) = match &p.nr {
            REnd::Done { id, order } => (*id, *order),
            REnd::Core {
                cluster,
                slot,
                order,
            } => (cluster.id(*slot), *order),
            // Zero-step Simple plans emit the raw context instances.
            REnd::Cold { id, .. } => match self.cx.store.checked_fix(id.page) {
                Some(cluster) => (*id, cluster.node(id.slot).order()),
                None => {
                    // Error recorded; the executor aborts.
                    self.done = true;
                    return Ok(false);
                }
            },
            other => {
                self.done = true;
                return Err(ExecError::unexpected_end("plan cursor", other));
            }
        };
        if matches!(self.method, Method::Simple) {
            // Final duplicate elimination of the Simple method (§5.1).
            self.cx.charge_set_op();
            if !self.seen.insert(0, id) {
                return Ok(true);
            }
        }
        self.nodes.push((id, order));
        Ok(true)
    }

    /// Releases the operator tree (and the pages it pins).
    pub(crate) fn close(&mut self) {
        self.done = true;
        self.plan = None;
    }

    /// Ends the run: sorts the results into document order if `sort`, and
    /// returns them with a report of this plan's counters. The caller adds
    /// the clock, buffer and device deltas.
    pub(crate) fn finish(mut self, sort: bool) -> (Vec<(NodeId, u64)>, ExecReport) {
        self.close();
        if sort {
            sort_document_order(self.cx.store, &mut self.nodes);
        }
        let report = self.cx.report(self.method.label(), self.nodes.len() as u64);
        (self.nodes, report)
    }
}

/// §5.5: reordered evaluation needs a final sort into document order,
/// charged as `SORT_CMP_NS` per comparison.
pub(crate) fn sort_document_order(store: &TreeStore, nodes: &mut [(NodeId, u64)]) {
    let n = nodes.len() as u64;
    if n > 1 {
        store
            .clock()
            .charge_cpu(SORT_CMP_NS * n * (64 - n.leading_zeros() as u64));
    }
    nodes.sort_by_key(|&(_, order)| order);
}

/// Executes a query (path, count, or sum of counts) from the document root.
pub fn execute_query(
    store: &TreeStore,
    query: &Query,
    cfg: &PlanConfig,
) -> Result<QueryRun, ExecError> {
    match query {
        Query::Path(p) | Query::Count(p) => {
            // Counting never needs document order (§5.5).
            let count = matches!(query, Query::Count(_));
            let cfg = PlanConfig {
                sort: cfg.sort && !count,
                ..*cfg
            };
            let run = execute_path(store, p, &cfg)?;
            Ok(QueryRun {
                value: run.nodes.len() as u64,
                nodes: if count { Vec::new() } else { run.nodes },
                report: run.report,
            })
        }
        Query::Sum(qs) => {
            let mut value = 0u64;
            let mut report = ExecReport {
                method: cfg.method.label().to_owned(),
                ..Default::default()
            };
            for q in qs {
                let r = execute_query(store, q, cfg)?;
                value += r.value;
                report.absorb(&r.report);
            }
            Ok(QueryRun {
                value,
                nodes: Vec::new(),
                report,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::ops::testutil::{mem_store, sample_doc};
    use pathix_tree::Placement;
    use pathix_xpath::{parse_path, parse_query};

    fn all_methods() -> [Method; 4] {
        [
            Method::Simple,
            Method::xschedule(),
            Method::XSchedule {
                k: 10,
                speculative: true,
            },
            Method::XScan,
        ]
    }

    fn reference(doc: &pathix_xml::Document, path: &str) -> Vec<u64> {
        let ranks = doc.preorder_ranks();
        pathix_xpath::eval_path(doc, doc.root(), &parse_path(path).unwrap())
            .iter()
            .map(|n| pathix_tree::node::order_key(ranks[n.0 as usize]))
            .collect()
    }

    #[test]
    fn all_methods_agree_with_reference() {
        let doc = sample_doc();
        for placement in [
            Placement::Sequential,
            Placement::Shuffled { seed: 11 },
            Placement::Strided { stride: 3 },
        ] {
            for path in [
                "/regions//item",
                "//email",
                "/regions/eu/item/name",
                "//item/..",
                "//name/text()",
                "//item/ancestor-or-self::*",
            ] {
                let want = reference(&doc, path);
                for method in all_methods() {
                    let store = mem_store(&doc, 256, placement);
                    let mut cfg = PlanConfig::new(method);
                    cfg.sort = true;
                    let run = execute_path(&store, &parse_path(path).unwrap(), &cfg)
                        .expect("plan executes");
                    let got: Vec<u64> = run.nodes.iter().map(|&(_, o)| o).collect();
                    assert_eq!(
                        got, want,
                        "mismatch: path {path}, method {method:?}, {placement:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn results_are_duplicate_free_and_sorted() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Shuffled { seed: 7 });
        let mut cfg = PlanConfig::new(Method::XScan);
        cfg.sort = true;
        let run =
            execute_path(&store, &parse_path("//item").unwrap(), &cfg).expect("plan executes");
        let orders: Vec<u64> = run.nodes.iter().map(|&(_, o)| o).collect();
        let mut sorted = orders.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(orders, sorted);
    }

    #[test]
    fn count_query_sums() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Sequential);
        let q = parse_query("count(//item)+count(//email)").unwrap();
        let cfg = PlanConfig::new(Method::xschedule());
        let run = execute_query(&store, &q, &cfg).expect("query executes");
        let want = pathix_xpath::eval_query(&doc, doc.root(), &q).as_number();
        assert_eq!(run.value, want);
        assert_eq!(run.report.method, "XSchedule");
    }

    #[test]
    fn empty_path_returns_context() {
        let doc = sample_doc();
        for method in all_methods() {
            let store = mem_store(&doc, 256, Placement::Sequential);
            let run = execute_path(&store, &parse_path("/").unwrap(), &PlanConfig::new(method))
                .expect("plan executes");
            assert_eq!(run.nodes.len(), 1, "{method:?}");
            assert_eq!(run.nodes[0].0, store.meta.root);
        }
    }

    #[test]
    fn xscan_reads_every_page_once_methods_differ_in_io() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Shuffled { seed: 3 });
        let pages = store.meta.page_count as u64;
        let run = execute_path(
            &store,
            &parse_path("//email").unwrap(),
            &PlanConfig::new(Method::XScan),
        )
        .expect("plan executes");
        assert_eq!(run.report.device.reads, pages, "XScan reads each page once");
        // A fresh store for the Simple method (cold buffer).
        let store2 = mem_store(&doc, 256, Placement::Shuffled { seed: 3 });
        let run2 = execute_path(
            &store2,
            &parse_path("//email").unwrap(),
            &PlanConfig::new(Method::Simple),
        )
        .expect("plan executes");
        assert_eq!(run.nodes.len(), run2.nodes.len());
    }

    #[test]
    fn fallback_still_correct() {
        let doc = sample_doc();
        let want = reference(&doc, "//item");
        for method in [Method::xschedule(), Method::XScan] {
            let store = mem_store(&doc, 256, Placement::Shuffled { seed: 5 });
            let mut cfg = PlanConfig::new(method);
            cfg.mem_limit = Some(1); // force fallback almost immediately
            cfg.sort = true;
            let run =
                execute_path(&store, &parse_path("//item").unwrap(), &cfg).expect("plan executes");
            let got: Vec<u64> = run.nodes.iter().map(|&(_, o)| o).collect();
            assert_eq!(got, want, "fallback correctness for {method:?}");
        }
    }

    #[test]
    fn fallback_flag_reported() {
        // A shuffled layout scans some clusters before the cluster of the
        // context node, so speculative instances must be parked in S —
        // with a zero memory limit the first parked instance flips the
        // plan into fallback mode.
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Shuffled { seed: 2 });
        let mut cfg = PlanConfig::new(Method::XScan);
        cfg.mem_limit = Some(0);
        let run =
            execute_path(&store, &parse_path("//item").unwrap(), &cfg).expect("plan executes");
        assert!(run.report.fallback);
    }

    #[test]
    fn speculative_xschedule_visits_each_cluster_once() {
        // With speculative on, re-entrant paths must not re-read clusters:
        // device reads ≤ number of pages.
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Shuffled { seed: 13 });
        let cfg = PlanConfig::new(Method::XSchedule {
            k: 100,
            speculative: true,
        });
        let run = execute_path(&store, &parse_path("//item/..//name").unwrap(), &cfg)
            .expect("plan executes");
        assert!(
            run.report.device.reads <= store.meta.page_count as u64,
            "speculative XSchedule must not reread clusters: {} reads vs {} pages",
            run.report.device.reads,
            store.meta.page_count
        );
        assert!(run.report.speculative_generated > 0);
    }
}
