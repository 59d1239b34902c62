//! The four workloads. Each builds its inputs from the seeds, then runs
//! *passes*: a fixed, repeatable unit of work whose answers are checked
//! against the reference evaluator and whose simulated counters are
//! fingerprinted for the determinism check.
//!
//! * `cold-xmark` — Q6′/Q7/Q15 × {Simple, XSchedule, XScan, auto} on XMark
//!   SF 1 with a 100-frame buffer, cleared (and the disk head parked)
//!   before every query: the paper's regime, dominated by page misses.
//! * `warm-xmark` — the same queries with a buffer twice the document,
//!   filled by the untimed warm-up pass: navigation and operator CPU only.
//! * `parallel-batch` — the 15-item batch of `scaling::batch_work()` on 2
//!   workers over one shared page cache per batch.
//! * `update-mix` — rounds of seeded leaf inserts, each committed, then
//!   cold Q6′ under every plan, on a WAL-backed store reopened from the
//!   freshly imported image at the start of every pass.

use crate::device::TimedDevice;
use crate::trace::{SpanTotals, Tracer};
use crate::wall::Stopwatch;
use pathix::core::{
    execute_batch_parallel, execute_path, execute_query, ExecReport, Method, Optimizer, PlanConfig,
    QueryRun, WorkerSeed,
};
use pathix::storage::{
    BufferParams, Device, DiskProfile, SharedCacheDevice, SharedPageCache, SharedPageCacheStats,
    SimClock, SimDisk, WriteAheadLog,
};
use pathix::tree::{
    import_into, ImportConfig, InsertPos, NewNode, NodeId, Placement, TreeMeta, TreeStore,
    TreeUpdater,
};
use pathix::xml::Document;
use pathix::xpath::{eval_path, eval_query, parse_path, parse_query, Query};
use pathix_bench::{bench_options, scaling, Q6, QUERIES};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// Worker threads of `parallel-batch` (the reference machine has 2 cores).
pub const WORKERS: usize = 2;
/// `update-mix`: rounds per pass, and inserts (each committed) per round.
pub const UPDATE_ROUNDS: usize = 4;
pub const INSERTS_PER_ROUND: usize = 32;
/// The element every `update-mix` insert adds, and its XML payload.
const INSERT_TAG: &str = "item";
const INSERT_PAYLOAD: &str = "<item/>";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ColdXmark,
    WarmXmark,
    ParallelBatch,
    UpdateMix,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::ColdXmark,
        Kind::WarmXmark,
        Kind::ParallelBatch,
        Kind::UpdateMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdXmark => "cold-xmark",
            Kind::WarmXmark => "warm-xmark",
            Kind::ParallelBatch => "parallel-batch",
            Kind::UpdateMix => "update-mix",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// True if the warm-up pass already does exactly what every measured
    /// pass does (all but `warm-xmark`, whose warm-up fills the buffer).
    pub fn warmup_is_steady(self) -> bool {
        self != Kind::WarmXmark
    }
}

/// The input seeds of one set-up.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    /// XMark generator seed.
    pub gen: u64,
    /// Seed of the chunk-shuffled page placement.
    pub placement: u64,
    /// Seed of the `update-mix` insert positions.
    pub update: u64,
}

impl Seeds {
    /// The seeds of `n` set-ups: consecutive triples of the SplitMix64
    /// stream started at the command-line seed.
    pub fn derive(seed: u64, n: usize) -> Vec<Self> {
        let mut rng = SplitMix64(seed);
        (0..n)
            .map(|_| Self {
                gen: rng.next(),
                placement: rng.next(),
                update: rng.next(),
            })
            .collect()
    }
}

/// SplitMix64: a small, fixed, seedable generator for the inputs.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// How a query's physical plan is picked.
#[derive(Debug, Clone, Copy)]
enum Plan {
    Fixed(Method),
    /// The cost-based choice between XSchedule and XScan.
    Auto,
}

fn plans() -> [Plan; 4] {
    [
        Plan::Fixed(Method::Simple),
        Plan::Fixed(Method::xschedule()),
        Plan::Fixed(Method::XScan),
        Plan::Auto,
    ]
}

/// What one pass did and measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall seconds of the whole pass.
    pub wall_s: f64,
    /// Wall milliseconds of each unit operation: a query (xmark), a batch
    /// (parallel-batch), an insert plus its commit (update-mix).
    pub op_ms: Vec<f64>,
    /// Read operations completed (queries or batch items) and the wall
    /// seconds they took.
    pub reads: u64,
    pub read_s: f64,
    /// Simulated nanoseconds of the pass (the paper's metric).
    pub sim_ns: u64,
    /// Engine counters summed over the pass.
    pub report: ExecReport,
    pub fallbacks: u64,
    /// Checked operations, and those that failed or answered wrongly.
    pub attempted: u64,
    pub failed: u64,
    /// Simulated counters that must repeat exactly from pass to pass.
    pub fingerprint: Vec<u64>,
    /// Bytes written to the device and to the WAL, and the user payload
    /// bytes they stored (update-mix only).
    pub device_writes: u64,
    pub written_bytes: u64,
    pub wal_records: u64,
    pub wal_bytes: u64,
    pub payload_bytes: u64,
    /// Shared page cache counters and distinct pages cached (parallel-batch).
    pub cache: Option<(SharedPageCacheStats, usize)>,
    /// Span totals of the pass, when it was traced.
    pub spans: BTreeMap<&'static str, SpanTotals>,
    /// Index of the set-up the pass ran on.
    pub setup: usize,
}

impl Pass {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        eprintln!("perfbench: FAILED: {what}");
    }
}

/// A prepared workload.
pub trait Workload {
    /// Runs one pass.
    fn pass(&mut self, tr: &Tracer) -> Result<Pass, String>;

    /// Checks that need more than the per-answer comparison, run once
    /// after the warm-up pass, outside every timed window.
    fn verify(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// The store the fix-latency probe runs on.
    fn store(&self) -> &TreeStore;

    /// Optimizer quality over the last pass, as geometric means over the
    /// queries: regret (simulated time of the auto plan ÷ that of the best
    /// fixed plan) and q-error of the estimated pages touched (against
    /// XSchedule's cold device reads). Zero where it is not measured.
    fn optimizer_quality(&self) -> (f64, f64) {
        (0.0, 0.0)
    }
}

/// One set-up of a workload, with its timings.
pub struct Setup {
    pub workload: Box<dyn Workload>,
    pub generate_s: f64,
    pub import_s: f64,
    /// Generation, import, store open and warm-up pass, in seconds.
    pub total_s: f64,
    pub import_pages: u32,
    /// Bytes the import wrote per byte of XML text.
    pub import_write_amp: f64,
    pub warmup: Pass,
}

/// A generated document imported into a [`TimedDevice`] over a simulated
/// disk, opened as a store.
struct Built {
    doc: Document,
    store: TreeStore,
    border_edges: u64,
    generate_s: f64,
    import_s: f64,
    import_write_amp: f64,
}

fn build(
    scale: f64,
    seeds: &Seeds,
    placement: Placement,
    buffer_frames: impl FnOnce(&TreeMeta) -> usize,
    tracer: &Rc<Tracer>,
) -> Result<Built, String> {
    let opts = bench_options();
    let sw = Stopwatch::start();
    let doc = {
        let _s = tracer.span("xmlgen.generate");
        let cfg = pathix::xmlgen::GenConfig::at_scale(scale).with_seed(seeds.gen);
        pathix::xmlgen::generate(&cfg)
    };
    let generate_s = sw.secs();

    let sw = Stopwatch::start();
    let writes = Rc::new(Cell::new(0));
    let disk = SimDisk::with_profile(opts.page_size, opts.profile);
    let mut device = TimedDevice::new(Box::new(disk), Rc::clone(tracer), Rc::clone(&writes));
    let cfg = ImportConfig {
        page_size: opts.page_size,
        placement,
    };
    let (meta, report) = {
        let _s = tracer.span("tree.import");
        import_into(&mut device, &doc, &cfg).map_err(|e| format!("import: {e}"))?
    };
    let params = BufferParams {
        capacity: buffer_frames(&meta),
        ..Default::default()
    };
    let store = TreeStore::open(Box::new(device), meta, params, Rc::new(SimClock::new()));
    let import_s = sw.secs();

    let xml_bytes = pathix::xml::serialize(&doc).len().max(1);
    Ok(Built {
        doc,
        store,
        border_edges: report.border_edges,
        generate_s,
        import_s,
        import_write_amp: (writes.get() * opts.page_size as u64) as f64 / xml_bytes as f64,
    })
}

/// Builds `kind` from the seeds and runs its warm-up pass.
pub fn setup(kind: Kind, scale: f64, seeds: &Seeds, tracer: &Rc<Tracer>) -> Result<Setup, String> {
    let opts = bench_options();
    let shuffled = match opts.placement {
        Placement::ChunkShuffled { chunk, .. } => Placement::ChunkShuffled {
            chunk,
            seed: seeds.placement,
        },
        other => other,
    };
    let placement = if kind == Kind::UpdateMix {
        Placement::Sequential
    } else {
        shuffled
    };
    let frames = |m: &TreeMeta| {
        if kind == Kind::WarmXmark {
            2 * m.page_count as usize
        } else {
            opts.buffer_pages
        }
    };
    let built = build(scale, seeds, placement, frames, tracer)?;
    let (generate_s, import_s) = (built.generate_s, built.import_s);
    let import_pages = built.store.meta.page_count;
    let import_write_amp = built.import_write_amp;

    // Reference answers are computed here, outside the set-up time.
    let mut workload: Box<dyn Workload> = match kind {
        Kind::ColdXmark | Kind::WarmXmark => Box::new(Xmark::new(built, kind == Kind::ColdXmark)?),
        Kind::ParallelBatch => Box::new(Parallel::new(built)?),
        Kind::UpdateMix => Box::new(UpdateMix::new(built, seeds, Rc::clone(tracer))?),
    };
    let warmup = workload.pass(tracer)?;
    Ok(Setup {
        workload,
        generate_s,
        import_s,
        total_s: generate_s + import_s + warmup.wall_s,
        import_pages,
        import_write_amp,
        warmup,
    })
}

/// The optimizer the `Database` facade builds for a store: import
/// statistics feed the border density.
fn optimizer(meta: &TreeMeta, border_edges: u64) -> Optimizer<'_> {
    let mut opt = Optimizer::new(meta, DiskProfile::default());
    opt.borders_per_cluster = (2.0 * border_edges as f64 / meta.page_count.max(1) as f64).max(0.5);
    opt
}

/// Parses and runs one query the way `Database::run`/`run_auto` do, with a
/// span around each public call.
fn run_query(
    store: &TreeStore,
    text: &str,
    plan: Plan,
    border_edges: u64,
    tr: &Tracer,
) -> Result<(Method, QueryRun), String> {
    let query = {
        let _s = tr.span("xpath.parse");
        parse_query(text)
            .map_err(|e| format!("parse {text}: {e}"))?
            .rooted()
    };
    let method = match plan {
        Plan::Fixed(m) => m,
        Plan::Auto => {
            let _s = tr.span("core.optimizer.estimate");
            let opt = optimizer(&store.meta, border_edges);
            query
                .paths()
                .first()
                .map_or(Method::xschedule(), |p| opt.choose(p))
        }
    };
    let _s = tr.span("core.plan");
    let run = execute_query(store, &query, &PlanConfig::new(method))
        .map_err(|e| format!("{text} ({}): {e}", method.label()))?;
    Ok((method, run))
}

/// Empties the buffer and parks the disk head, so the next query's
/// simulated timeline depends on nothing that ran before it.
fn make_cold(store: &TreeStore) {
    store.buffer.reset();
    store.buffer.device_mut().park();
}

fn method_code(m: Method) -> u64 {
    match m {
        Method::Simple => 1,
        Method::XSchedule { k, speculative } => 2 + 4 * k as u64 + 2 * u64::from(speculative),
        Method::XScan => 3,
    }
}

/// Appends every simulated counter of `run` to `out`.
fn fingerprint(run: &QueryRun, method: Method, out: &mut Vec<u64>) {
    let r = &run.report;
    out.extend_from_slice(&[
        run.value,
        run.nodes.len() as u64,
        method_code(method),
        r.time.total_ns,
        r.time.cpu_ns,
        r.time.io_wait_ns,
        r.device.reads,
        r.device.sequential_reads,
        r.device.random_reads,
        r.device.seek_distance_pages,
        r.device.busy_ns,
        r.device.retries,
        r.buffer.fixes,
        r.buffer.hits,
        r.buffer.misses,
        r.buffer.async_loads,
        r.buffer.evictions,
        r.buffer.prefetches,
        r.nodes_visited,
        r.node_tests,
        r.borders,
        r.instances,
        r.results,
        r.r_inserts,
        r.s_inserts,
        r.s_peak,
        r.q_pushes,
        r.speculative_generated,
        u64::from(r.fallback),
        u64::from(r.degraded),
    ]);
}

/// Node-set results without `sort` come in plan order; compare them as
/// sets, in document (order-key) order.
fn in_document_order(mut nodes: Vec<(NodeId, u64)>) -> Vec<(NodeId, u64)> {
    nodes.sort_unstable_by_key(|&(_, key)| key);
    nodes
}

fn oracle_value(doc: &Document, text: &str) -> Result<(Query, u64), String> {
    let q = parse_query(text)
        .map_err(|e| format!("parse {text}: {e}"))?
        .rooted();
    let value = eval_query(doc, doc.root(), &q).as_number();
    Ok((q, value))
}

/// A query of the XMark workloads with its reference answer.
struct Checked {
    label: &'static str,
    text: &'static str,
    value: u64,
    /// Result nodes of the first correct run; later runs must match them.
    nodes: Option<Vec<(NodeId, u64)>>,
    /// Estimated pages touched, summed over the query's paths.
    est_pages: f64,
    /// Simulated ns per plan (in `plans()` order) and XSchedule's device
    /// reads, from the last pass.
    sim_ns: [u64; 4],
    xschedule_reads: u64,
}

/// `cold-xmark` and `warm-xmark`.
struct Xmark {
    store: TreeStore,
    cold: bool,
    border_edges: u64,
    queries: Vec<Checked>,
    request: u64,
}

impl Xmark {
    fn new(built: Built, cold: bool) -> Result<Self, String> {
        let opt = optimizer(&built.store.meta, built.border_edges);
        let queries = QUERIES
            .iter()
            .map(|&(label, text)| {
                let (q, value) = oracle_value(&built.doc, text)?;
                let est_pages = q
                    .paths()
                    .iter()
                    .map(|p| opt.estimate(p).touched_pages)
                    .sum();
                Ok(Checked {
                    label,
                    text,
                    value,
                    nodes: None,
                    est_pages,
                    sim_ns: [0; 4],
                    xschedule_reads: 0,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            store: built.store,
            cold,
            border_edges: built.border_edges,
            queries,
            request: 0,
        })
    }
}

impl Workload for Xmark {
    fn pass(&mut self, tr: &Tracer) -> Result<Pass, String> {
        let mut p = Pass::default();
        let pass_sw = Stopwatch::start();
        for q in &mut self.queries {
            for (pi, plan) in plans().into_iter().enumerate() {
                if self.cold {
                    make_cold(&self.store);
                }
                self.request += 1;
                tr.set_request(self.request);
                let sw = Stopwatch::start();
                let out = {
                    let _s = tr.span("query");
                    run_query(&self.store, q.text, plan, self.border_edges, tr)
                };
                let secs = sw.secs();
                p.attempted += 1;
                let (method, run) = match out {
                    Ok(ok) => ok,
                    Err(e) => {
                        p.fail(e);
                        continue;
                    }
                };
                p.op_ms.push(secs * 1e3);
                p.reads += 1;
                p.read_s += secs;
                let nodes = in_document_order(run.nodes.clone());
                let nodes_ok = q.nodes.as_ref().is_none_or(|n| *n == nodes);
                if run.value != q.value || !nodes_ok {
                    p.fail(format!(
                        "{} under {}: {} results, reference {}{}",
                        q.label,
                        method.label(),
                        run.value,
                        q.value,
                        if nodes_ok { "" } else { ", other nodes" }
                    ));
                } else if q.nodes.is_none() {
                    q.nodes = Some(nodes);
                }
                q.sim_ns[pi] = run.report.time.total_ns;
                if matches!(plan, Plan::Fixed(Method::XSchedule { .. })) {
                    q.xschedule_reads = run.report.device.reads;
                }
                p.sim_ns += run.report.time.total_ns;
                p.fallbacks += u64::from(run.report.fallback);
                fingerprint(&run, method, &mut p.fingerprint);
                p.report.absorb(&run.report);
            }
        }
        p.wall_s = pass_sw.secs();
        Ok(p)
    }

    fn store(&self) -> &TreeStore {
        &self.store
    }

    fn optimizer_quality(&self) -> (f64, f64) {
        let regret = geomean(self.queries.iter().map(|q| {
            let best = q.sim_ns[..3].iter().copied().min().unwrap_or(0).max(1);
            q.sim_ns[3] as f64 / best as f64
        }));
        // Pages touched are device reads only when every query starts cold.
        let qerror = if self.cold {
            geomean(self.queries.iter().map(|q| {
                let (e, a) = (q.est_pages.max(1.0), (q.xschedule_reads as f64).max(1.0));
                (e / a).max(a / e)
            }))
        } else {
            0.0
        };
        (regret, qerror)
    }
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (n, log_sum) = values.fold((0u32, 0.0), |(n, s), v| (n + 1, s + v.ln()));
    if n == 0 {
        0.0
    } else {
        (log_sum / f64::from(n)).exp()
    }
}

/// `parallel-batch`.
struct Parallel {
    store: TreeStore,
    work: Vec<(&'static str, Method)>,
    cfg: PlanConfig,
    /// Sequential cold results and their total simulated time.
    expected: Vec<Vec<(NodeId, u64)>>,
    sequential_sim_ns: u64,
    request: u64,
}

impl Parallel {
    fn new(built: Built) -> Result<Self, String> {
        let mut cfg = PlanConfig::new(Method::Simple);
        cfg.sort = true;
        let mut oracle: BTreeMap<&str, usize> = BTreeMap::new();
        let work = scaling::batch_work();
        let mut expected = Vec::new();
        let mut sequential_sim_ns = 0;
        for &(text, method) in &work {
            let path = parse_path(text)
                .map_err(|e| format!("parse {text}: {e}"))?
                .rooted();
            let want = *oracle
                .entry(text)
                .or_insert_with(|| eval_path(&built.doc, built.doc.root(), &path).len());
            make_cold(&built.store);
            let mut item_cfg = cfg;
            item_cfg.method = method;
            let run = execute_path(&built.store, &path, &item_cfg)
                .map_err(|e| format!("{text} ({}): {e}", method.label()))?;
            if run.nodes.len() != want {
                return Err(format!(
                    "{text} ({}) sequential: {} results, reference {want}",
                    method.label(),
                    run.nodes.len()
                ));
            }
            sequential_sim_ns += run.report.time.total_ns;
            expected.push(run.nodes);
        }
        Ok(Self {
            store: built.store,
            work,
            cfg,
            expected,
            sequential_sim_ns,
            request: 0,
        })
    }
}

impl Workload for Parallel {
    /// One batch, run the way `Database::run_parallel` runs it: parse the
    /// paths, fork the device once per worker, stack every fork on one
    /// fresh shared page cache.
    fn pass(&mut self, tr: &Tracer) -> Result<Pass, String> {
        let mut p = Pass::default();
        self.request += 1;
        tr.set_request(self.request);
        let sw = Stopwatch::start();
        let work = self
            .work
            .iter()
            .map(|&(text, method)| {
                let _s = tr.span("xpath.parse");
                parse_path(text)
                    .map(|path| (path.rooted(), method))
                    .map_err(|e| format!("parse {text}: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let cache = Arc::new(SharedPageCache::new());
        let mut seeds = Vec::with_capacity(WORKERS);
        for _ in 0..WORKERS {
            let fork = self
                .store
                .buffer
                .device_mut()
                .try_fork()
                .ok_or("the simulated disk cannot be forked")?;
            seeds.push(WorkerSeed {
                device: Box::new(SharedCacheDevice::new(fork, Arc::clone(&cache))),
                meta: self.store.meta.clone(),
                params: self.store.buffer.params(),
            });
        }
        let batch = {
            let _s = tr.span("core.server.batch");
            execute_batch_parallel(seeds, &work, &self.cfg)
        };
        let secs = sw.secs();
        p.wall_s = secs;
        p.op_ms.push(secs * 1e3);
        for (i, (run, want)) in batch.runs.iter().zip(&self.expected).enumerate() {
            p.attempted += 1;
            let label = self.work.get(i).map_or("?", |(_, m)| m.label());
            match run {
                Ok(r) if r.nodes == *want => {
                    p.reads += 1;
                    p.fallbacks += u64::from(r.report.fallback);
                    p.fingerprint.push(r.nodes.len() as u64);
                    p.fingerprint
                        .extend(r.nodes.iter().map(|(id, key)| key ^ u64::from(id.page)));
                }
                Ok(r) => p.fail(format!(
                    "batch item {i} ({label}): {} results differ from sequential ({})",
                    r.nodes.len(),
                    want.len()
                )),
                Err(e) => p.fail(format!("batch item {i} ({label}): {e}")),
            }
        }
        p.read_s = secs;
        p.sim_ns = self.sequential_sim_ns;
        p.report = batch.report;
        p.cache = Some((cache.stats(), cache.len()));
        Ok(p)
    }

    fn store(&self) -> &TreeStore {
        &self.store
    }
}

/// `update-mix`.
struct UpdateMix {
    /// The device as the import left it; every pass writes to a fork.
    pristine: Box<dyn Device + Send>,
    meta: TreeMeta,
    params: BufferParams,
    border_edges: u64,
    tracer: Rc<Tracer>,
    /// Q6′ items in document order, the insert targets, and the target
    /// index of each insert of a pass.
    targets: Vec<NodeId>,
    schedule: Vec<usize>,
    /// Q6′ before any insert.
    base_count: u64,
    /// The generated document with one pass's inserts applied.
    reference: Document,
    /// The store of the last pass.
    store: TreeStore,
    request: u64,
}

impl UpdateMix {
    fn new(built: Built, seeds: &Seeds, tracer: Rc<Tracer>) -> Result<Self, String> {
        let items = parse_path("/site/regions//item")
            .map_err(|e| format!("parse: {e}"))?
            .rooted();
        let mut cfg = PlanConfig::new(Method::Simple);
        cfg.sort = true;
        let targets: Vec<NodeId> = execute_path(&built.store, &items, &cfg)
            .map_err(|e| format!("items: {e}"))?
            .nodes
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        let refs = eval_path(&built.doc, built.doc.root(), &items);
        let (_, base_count) = oracle_value(&built.doc, Q6)?;
        if targets.len() != refs.len() || targets.len() as u64 != base_count || targets.is_empty() {
            return Err(format!(
                "insert targets: engine {}, reference {}, Q6' {base_count}",
                targets.len(),
                refs.len()
            ));
        }
        let mut rng = SplitMix64(seeds.update);
        let schedule: Vec<usize> = (0..UPDATE_ROUNDS * INSERTS_PER_ROUND)
            .map(|_| (rng.next() % targets.len() as u64) as usize)
            .collect();
        let mut reference = built.doc;
        for &t in &schedule {
            if let Some(&r) = refs.get(t) {
                reference.insert_element_after(r, INSERT_TAG);
            }
        }
        let pristine = built
            .store
            .buffer
            .device_mut()
            .try_fork()
            .ok_or("the simulated disk cannot be forked")?;
        Ok(Self {
            pristine,
            meta: built.store.meta.clone(),
            params: built.store.buffer.params(),
            border_edges: built.border_edges,
            tracer,
            targets,
            schedule,
            base_count,
            reference,
            store: built.store,
            request: 0,
        })
    }
}

impl Workload for UpdateMix {
    fn pass(&mut self, tr: &Tracer) -> Result<Pass, String> {
        let mut p = Pass::default();
        let pass_sw = Stopwatch::start();
        let writes = Rc::new(Cell::new(0));
        let fork = self
            .pristine
            .try_fork()
            .ok_or("the simulated disk cannot be forked")?;
        let device = TimedDevice::new(fork, Rc::clone(&self.tracer), Rc::clone(&writes));
        let mut store = TreeStore::open(
            Box::new(device),
            self.meta.clone(),
            self.params,
            Rc::new(SimClock::new()),
        );
        let wal = Rc::new(RefCell::new(WriteAheadLog::new()));
        store.attach_wal(Rc::clone(&wal));

        let mut done = 0usize;
        for round in 0..UPDATE_ROUNDS {
            for _ in 0..INSERTS_PER_ROUND {
                let target = self
                    .schedule
                    .get(done)
                    .and_then(|&t| self.targets.get(t))
                    .copied()
                    .ok_or("insert schedule out of range")?;
                done += 1;
                self.request += 1;
                tr.set_request(self.request);
                let sw = Stopwatch::start();
                let inserted = {
                    let _s = tr.span("update");
                    let mut up = TreeUpdater::new(&mut store);
                    let inserted = {
                        let _s = tr.span("tree.update.insert");
                        up.insert(
                            InsertPos::After(target),
                            NewNode::Element(INSERT_TAG.to_owned()),
                        )
                    };
                    let _s = tr.span("tree.update.commit");
                    up.commit();
                    inserted
                };
                p.op_ms.push(sw.secs() * 1e3);
                p.attempted += 1;
                match inserted {
                    Ok(id) => p
                        .fingerprint
                        .extend_from_slice(&[u64::from(id.page), u64::from(id.slot)]),
                    Err(e) => p.fail(format!("insert after {target:?}: {e}")),
                }
            }
            let want = self.base_count + done as u64;
            for plan in plans() {
                make_cold(&store);
                self.request += 1;
                tr.set_request(self.request);
                let sw = Stopwatch::start();
                let out = {
                    let _s = tr.span("query");
                    run_query(&store, Q6, plan, self.border_edges, tr)
                };
                let secs = sw.secs();
                p.attempted += 1;
                match out {
                    Ok((method, run)) => {
                        p.reads += 1;
                        p.read_s += secs;
                        if run.value != want {
                            p.fail(format!(
                                "Q6' after round {round} under {}: {}, reference {want}",
                                method.label(),
                                run.value
                            ));
                        }
                        p.fallbacks += u64::from(run.report.fallback);
                        fingerprint(&run, method, &mut p.fingerprint);
                        p.report.absorb(&run.report);
                    }
                    Err(e) => p.fail(e),
                }
            }
        }
        p.wall_s = pass_sw.secs();
        p.sim_ns = store.clock().now_ns();
        // The store is fresh, so its device counters cover the whole pass,
        // inserts included.
        p.report.device = store.buffer.device_stats();
        let log = wal.borrow();
        p.wal_records = log.durable_records().len() as u64;
        p.wal_bytes = log
            .durable_records()
            .iter()
            .map(|r| r.image.len() as u64)
            .sum();
        p.device_writes = writes.get();
        p.written_bytes = writes.get() * self.pristine.page_size() as u64;
        p.payload_bytes = (done * INSERT_PAYLOAD.len()) as u64;
        p.fingerprint.extend_from_slice(&[
            p.sim_ns,
            p.report.device.reads,
            p.report.device.seek_distance_pages,
            p.report.device.busy_ns,
            p.wal_records,
            p.wal_bytes,
            p.device_writes,
            u64::from(store.meta.page_count),
        ]);
        drop(log);
        self.store = store;
        Ok(p)
    }

    /// The stored tree after a pass must be the reference document with
    /// the same inserts applied.
    fn verify(&mut self) -> Result<(), String> {
        let exported = pathix::tree::export::export(&self.store);
        if !exported.logically_equal(&self.reference) {
            return Err("update-mix: exported store differs from the reference document".into());
        }
        let (_, want) = oracle_value(&self.reference, Q6)?;
        if want != self.base_count + self.schedule.len() as u64 {
            return Err(format!(
                "update-mix: reference Q6' is {want} after the inserts"
            ));
        }
        Ok(())
    }

    fn store(&self) -> &TreeStore {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn every_workload_answers_correctly_and_repeats_its_counters() {
        let tracer = Rc::new(Tracer::new());
        let seeds = Seeds::derive(7, 1)[0];
        for kind in Kind::ALL {
            let mut s = setup(kind, 0.02, &seeds, &tracer).expect("set-up");
            s.workload.verify().expect("verify");
            let a = s.workload.pass(&tracer).expect("pass");
            tracer.set_enabled(true);
            let b = s.workload.pass(&tracer).expect("traced pass");
            tracer.set_enabled(false);
            assert_eq!(s.warmup.failed + a.failed + b.failed, 0, "{}", kind.name());
            assert!(a.attempted > 0 && !a.fingerprint.is_empty());
            assert_eq!(
                a.fingerprint,
                b.fingerprint,
                "{}: tracing moved a counter",
                kind.name()
            );
            if kind.warmup_is_steady() {
                assert_eq!(s.warmup.fingerprint, a.fingerprint, "{}", kind.name());
            }
        }
    }

    #[test]
    fn seeds_differ_between_setups_and_repeat() {
        let a = Seeds::derive(1, 3);
        let b = Seeds::derive(1, 3);
        assert_eq!(a.len(), 3);
        assert_eq!(a[2].update, b[2].update);
        assert_ne!(a[0].gen, a[1].gen);
    }
}
