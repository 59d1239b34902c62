//! The pathix benchmark: runs one named workload against the engine's
//! public API, checks every answer, and prints every metric by name.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-xmark --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with tracing off.
//! `--trace 1` alternates untraced and traced passes, prints the per-layer
//! metrics of the traced ones plus the tracing overhead, and writes the
//! spans to `<target dir>/perfbench/trace-<workload>-<seed>.tsv`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! Exit code 0 means every answer was right and every simulated counter
//! repeated exactly; 1 means a wrong answer, an engine error or a
//! determinism failure; 2 means bad arguments.

#![allow(clippy::print_stdout)]

mod device;
mod metrics;
mod trace;
mod wall;
mod workloads;

use metrics::{median, quantile, Metrics, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::rc::Rc;
use trace::{SpanTotals, Tracer};
use wall::Stopwatch;
use workloads::{Kind, Pass, Seeds, Setup};

/// XMark scale factor of every workload: the paper's SF 1.
const SCALE: f64 = 1.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Passes measured at least on each set-up, whatever `--seconds` says.
const MIN_PASSES: usize = 2;

const USAGE: &str =
    "usage: pathix-perfbench --workload <cold-xmark|warm-xmark|parallel-batch|update-mix> \
--seed <u64> --seconds <n> --trace <0|1>";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(num(value)?),
            "--seconds" => seconds = Some(num(value)? as f64),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs the benchmark; `Ok(false)` if an answer was wrong or a simulated
/// counter did not repeat.
fn run(args: &Args) -> Result<bool, String> {
    let tracer = Rc::new(Tracer::new());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // Set up several times, each from its own seeds. The measurement
    // rotates over all set-ups, so neither one document nor the luck of
    // one heap layout decides the run.
    let mut setups: Vec<Setup> = Vec::with_capacity(SETUP_REPS);
    let (mut attempted, mut failed) = (0u64, 0u64);
    tracer.set_enabled(args.trace);
    for seeds in Seeds::derive(args.seed, SETUP_REPS) {
        println!(
            "set-up {}: xmlgen seed {:#x}, placement seed {:#x}, update seed {:#x}",
            setups.len(),
            seeds.gen,
            seeds.placement,
            seeds.update
        );
        let mut s = workloads::setup(args.kind, SCALE, &seeds, &tracer)?;
        attempted += s.warmup.attempted;
        failed += s.warmup.failed;
        s.workload.verify()?;
        setups.push(s);
    }
    tracer.set_enabled(false);
    let setup_s: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    let generate_s: Vec<f64> = setups.iter().map(|s| s.generate_s).collect();
    let import_s: Vec<f64> = setups.iter().map(|s| s.import_s).collect();

    // Measure: whole passes, round-robin over the set-ups, until the time
    // is up. A traced run alternates rounds of untraced and traced passes.
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let sw = Stopwatch::start();
    let steal_before = wall::steal_ticks();
    let mut k = 0usize;
    while sw.secs() < args.seconds || k < MIN_PASSES * SETUP_REPS {
        let i = k % SETUP_REPS;
        let trace_this = args.trace && (k / SETUP_REPS) % 2 == 1;
        k += 1;
        tracer.set_enabled(trace_this);
        let mark = tracer.mark();
        let pass = setups[i].workload.pass(&tracer);
        tracer.set_enabled(false);
        let mut pass = pass?;
        pass.setup = i;
        attempted += pass.attempted;
        failed += pass.failed;
        if trace_this {
            pass.spans = tracer.totals_since(mark);
            traced.push(pass);
        } else {
            plain.push(pass);
        }
    }

    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, wall::steal_ticks()) {
        println!(
            "host steal during the measurement: {:.1}% of CPU time",
            100.0 * s1.saturating_sub(s0) as f64 / t1.saturating_sub(t0).max(1) as f64
        );
    }
    for (i, s) in setups.iter().enumerate() {
        let mine: Vec<&Pass> = plain
            .iter()
            .chain(&traced)
            .filter(|p| p.setup == i)
            .collect();
        let walls: Vec<f64> = mine.iter().map(|p| p.wall_s).collect();
        println!(
            "set-up {i}: {} pages, set-up {:.3} s, {} passes, median pass {:.3} s wall, {:.3} s simulated",
            s.import_pages,
            s.total_s,
            mine.len(),
            median(&walls).unwrap_or(0.0),
            mine.first().map_or(0.0, |p| p.sim_ns as f64 / 1e9)
        );
    }
    let deterministic = check_determinism(args, &setups, &plain, &traced)?;
    let correct = failed == 0 && deterministic;

    let mut m = Metrics::default();
    let names: &[(&str, &str)] = if args.trace {
        per_layer(&mut m, &setups, &traced, &plain, &generate_s, &import_s);
        let path = artifact_dir()?.join(format!("trace-{}-{}.tsv", args.kind.name(), args.seed));
        tracer
            .write_tsv(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
        if tracer.dropped() > 0 {
            println!(
                "{} spans over the in-memory cap were not kept",
                tracer.dropped()
            );
        }
        &PER_LAYER
    } else {
        end_to_end(&mut m, &setups, &plain, &setup_s);
        &END_TO_END
    };
    let (table, line) = m.render(names, correct, attempted.max(1), failed)?;
    print!("{table}");
    println!("{line}");
    Ok(correct)
}

/// The mean over set-ups of each set-up's median of `f` over its passes:
/// every set-up has its own document, and all weigh the same.
fn per_setup_mean(setups: usize, passes: &[Pass], f: impl Fn(&Pass) -> Option<f64>) -> Option<f64> {
    let medians: Vec<f64> = (0..setups)
        .filter_map(|i| {
            let v: Vec<f64> = passes
                .iter()
                .filter(|p| p.setup == i)
                .filter_map(&f)
                .collect();
            median(&v)
        })
        .collect();
    (!medians.is_empty()).then(|| medians.iter().sum::<f64>() / medians.len() as f64)
}

fn end_to_end(m: &mut Metrics, setups: &[Setup], passes: &[Pass], setup_s: &[f64]) {
    let n = passes.len();
    m.set("setup_s", median(setup_s).unwrap_or(0.0), setup_s.len());
    let reads: u64 = passes.iter().map(|p| p.reads).sum();
    let read_s: f64 = passes.iter().map(|p| p.read_s).sum();
    m.set(
        "queries_per_s",
        reads as f64 / read_s.max(1e-9),
        reads as usize,
    );
    let ops: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.op_ms.iter().copied())
        .collect();
    m.set(
        "latency_ms_p50",
        quantile(&ops, 0.5).unwrap_or(0.0),
        ops.len(),
    );
    m.set(
        "latency_ms_p90",
        quantile(&ops, 0.9).unwrap_or(0.0),
        ops.len(),
    );
    let sim_s = per_setup_mean(setups.len(), passes, |p| Some(p.sim_ns as f64 / 1e9));
    m.set("sim_s", sim_s.unwrap_or(0.0), n);
    m.set("peak_rss_mb", wall::peak_rss_mb().unwrap_or(0.0), 1);
    let update_amp = per_setup_mean(setups.len(), passes, |p| {
        (p.payload_bytes > 0)
            .then(|| (p.written_bytes + p.wal_bytes) as f64 / p.payload_bytes as f64)
    });
    let import_amp =
        setups.iter().map(|s| s.import_write_amp).sum::<f64>() / setups.len().max(1) as f64;
    match update_amp {
        Some(a) => m.set("write_amp", a, n),
        None => m.set("write_amp", import_amp, setups.len()),
    }
}

/// Mean of `f` over the traced passes.
fn mean(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    passes.iter().map(f).sum::<f64>() / passes.len().max(1) as f64
}

fn span(p: &Pass, name: &str) -> SpanTotals {
    p.spans.get(name).copied().unwrap_or_default()
}

/// Wall time of all device spans of a pass, in ns.
fn device_ns(p: &Pass) -> u64 {
    p.spans
        .iter()
        .filter(|(name, _)| name.starts_with("storage.device."))
        .map(|(_, t)| t.wall_ns)
        .sum()
}

/// Mean span duration in µs over all traced passes.
fn span_mean_us(passes: &[Pass], name: &str) -> (f64, usize) {
    let (count, ns) = passes.iter().fold((0u64, 0u64), |(c, w), p| {
        let t = span(p, name);
        (c + t.count, w + t.wall_ns)
    });
    (ns as f64 / 1e3 / count.max(1) as f64, count as usize)
}

fn per_layer(
    m: &mut Metrics,
    setups: &[Setup],
    traced: &[Pass],
    plain: &[Pass],
    generate_s: &[f64],
    import_s: &[f64],
) {
    let n = traced.len();
    let dev = |f: fn(&Pass) -> f64| mean(traced, f);
    m.set(
        "storage.device.reads",
        dev(|p| p.report.device.reads as f64),
        n,
    );
    m.set(
        "storage.device.seq_fraction",
        dev(|p| p.report.device.sequential_fraction()),
        n,
    );
    m.set(
        "storage.device.seek_pages",
        dev(|p| p.report.device.seek_distance_pages as f64),
        n,
    );
    m.set(
        "storage.device.busy_sim_ms",
        dev(|p| p.report.device.busy_ns as f64 / 1e6),
        n,
    );
    m.set("storage.device.writes", dev(|p| p.device_writes as f64), n);
    m.set(
        "storage.device.wall_ms",
        dev(|p| device_ns(p) as f64 / 1e6),
        n,
    );
    m.set(
        "storage.buffer.fixes",
        dev(|p| p.report.buffer.fixes as f64),
        n,
    );
    m.set(
        "storage.buffer.hit_rate",
        dev(|p| p.report.buffer.hit_rate()),
        n,
    );
    m.set(
        "storage.buffer.evictions",
        dev(|p| p.report.buffer.evictions as f64),
        n,
    );
    m.set(
        "storage.buffer.prefetches",
        dev(|p| p.report.buffer.prefetches as f64),
        n,
    );

    let Some(setup) = setups.first() else {
        return;
    };
    let (cold_us, warm_us, pages) = fix_probe(setup.workload.store());
    m.set("tree.fix_cold_us", cold_us, pages);
    m.set("tree.fix_warm_us", warm_us, pages);

    // Plan execution: `core.plan` spans (sequential) or the batch span.
    let plan = |p: &Pass| {
        let a = span(p, "core.plan");
        let b = span(p, "core.server.batch");
        (a.wall_ns + b.wall_ns, a.self_ns + b.self_ns)
    };
    let wall_ms = mean(traced, |p| plan(p).0 as f64 / 1e6);
    let self_ms = mean(traced, |p| plan(p).1 as f64 / 1e6);
    let sim_cpu_ms = mean(traced, |p| p.report.time.cpu_ns as f64 / 1e6);
    m.set("core.plan.wall_ms", wall_ms, n);
    m.set("core.plan.self_ms", self_ms, n);
    m.set("core.plan.sim_cpu_ms", sim_cpu_ms, n);
    m.set(
        "core.plan.wall_per_sim_cpu",
        self_ms / sim_cpu_ms.max(1e-9),
        n,
    );

    type Counter = fn(&Pass) -> f64;
    let algebra: [(&'static str, Counter); 10] = [
        ("core.nodes_visited", |p| p.report.nodes_visited as f64),
        ("core.node_tests", |p| p.report.node_tests as f64),
        ("core.borders", |p| p.report.borders as f64),
        ("core.instances", |p| p.report.instances as f64),
        ("core.results_per_instance", |p| {
            p.report.results as f64 / p.report.instances.max(1) as f64
        }),
        ("core.xassembly.r_inserts", |p| p.report.r_inserts as f64),
        ("core.xassembly.s_inserts", |p| p.report.s_inserts as f64),
        ("core.xassembly.s_peak", |p| p.report.s_peak as f64),
        ("core.xschedule.q_pushes", |p| p.report.q_pushes as f64),
        ("core.xscan.speculative", |p| {
            p.report.speculative_generated as f64
        }),
    ];
    for (name, f) in algebra {
        m.set(name, mean(traced, f), n);
    }
    m.set("core.fallbacks", mean(traced, |p| p.fallbacks as f64), n);

    let (parse_us, parses) = span_mean_us(traced, "xpath.parse");
    m.set("xpath.parse_us", parse_us, parses);
    let (estimate_us, estimates) = span_mean_us(traced, "core.optimizer.estimate");
    m.set("core.optimizer.estimate_us", estimate_us, estimates);
    let (regret, qerror) = setup.workload.optimizer_quality();
    m.set("core.optimizer.regret", regret, 1);
    m.set("core.optimizer.pages_qerror", qerror, 1);

    let cache = |f: fn(&pathix::storage::SharedPageCacheStats, usize, &Pass) -> f64| {
        mean(traced, |p| {
            p.cache.as_ref().map_or(0.0, |(s, d)| f(s, *d, p))
        })
    };
    m.set(
        "storage.shared_cache.hit_fraction",
        cache(|s, _, _| s.hit_fraction()),
        n,
    );
    m.set(
        "storage.shared_cache.misses",
        cache(|s, _, _| s.misses as f64),
        n,
    );
    m.set(
        "storage.shared_cache.single_flight_waits",
        cache(|s, _, _| s.single_flight_waits as f64),
        n,
    );
    m.set(
        "storage.shared_cache.read_amp",
        cache(|_, d, p| p.report.device.reads as f64 / d.max(1) as f64),
        n,
    );

    let (insert_us, inserts) = span_mean_us(traced, "tree.update.insert");
    m.set("tree.update.insert_us", insert_us, inserts);
    let (commit_us, commits) = span_mean_us(traced, "tree.update.commit");
    m.set("tree.update.commit_us", commit_us, commits);
    m.set(
        "storage.wal.records",
        mean(traced, |p| p.wal_records as f64),
        n,
    );
    m.set("storage.wal.bytes", mean(traced, |p| p.wal_bytes as f64), n);

    let pages: Vec<f64> = setups.iter().map(|s| f64::from(s.import_pages)).collect();
    m.set(
        "tree.import_pages",
        median(&pages).unwrap_or(0.0),
        pages.len(),
    );
    m.set(
        "xmlgen.generate_s",
        median(generate_s).unwrap_or(0.0),
        generate_s.len(),
    );
    m.set(
        "tree.import_s",
        median(import_s).unwrap_or(0.0),
        import_s.len(),
    );

    let walls = |ps: &[Pass]| median(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let overhead = match (walls(traced), walls(plain)) {
        (Some(t), Some(u)) if u > 0.0 => t / u - 1.0,
        _ => 0.0,
    };
    m.set("trace.overhead_frac", overhead, n + plain.len());
}

/// Mean wall µs of `TreeStore::try_fix` over every page of the document,
/// first with an empty buffer (device read, checksum, decode), then with
/// every page resident. Runs after the measurement: it resizes the buffer.
fn fix_probe(store: &pathix::tree::TreeStore) -> (f64, f64, usize) {
    let params = store.buffer.params();
    let pages = store.meta.page_range();
    let n = pages.len();
    store.buffer.set_params(pathix::storage::BufferParams {
        capacity: params.capacity.max(2 * n),
        ..params
    });
    let timed = || {
        let sw = Stopwatch::start();
        for page in pages.clone() {
            let _ = std::hint::black_box(store.try_fix(page));
        }
        sw.secs() * 1e6 / n.max(1) as f64
    };
    store.buffer.reset();
    store.buffer.device_mut().park();
    let cold = timed();
    let warm = timed();
    store.buffer.reset();
    store.buffer.set_params(params);
    (cold, warm, n)
}

/// Where the benchmark keeps its artifacts: beside its own build output,
/// inside the checkout it was built in.
fn artifact_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let target = exe
        .parent()
        .and_then(|release| release.parent())
        .ok_or("the executable has no target directory")?;
    Ok(target.join("perfbench"))
}

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Every pass of a set-up must repeat the simulated counters of that
/// set-up's first measured pass (and, where it does the same work, of its
/// warm-up pass). Across runs of the same build and seed the digest of
/// those counters must repeat too: it is stored beside the build and
/// compared on the next run.
fn check_determinism(
    args: &Args,
    setups: &[Setup],
    plain: &[Pass],
    traced: &[Pass],
) -> Result<bool, String> {
    let mut ok = true;
    let mut digest_words = Vec::new();
    for (i, s) in setups.iter().enumerate() {
        let mut passes = plain.iter().chain(traced).filter(|p| p.setup == i);
        let first = passes.next().ok_or("a set-up had no measured pass")?;
        if args.kind.warmup_is_steady() && s.warmup.fingerprint != first.fingerprint {
            eprintln!("perfbench: NONDETERMINISTIC: set-up {i}: the warm-up pass differs");
            ok = false;
        }
        if passes.any(|p| p.fingerprint != first.fingerprint) {
            eprintln!("perfbench: NONDETERMINISTIC: set-up {i}: a pass differs from its first");
            ok = false;
        }
        digest_words.extend_from_slice(&first.fingerprint);
    }
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let meta = std::fs::metadata(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    let built_at = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos() as u64);
    let build = fnv([meta.len(), built_at]);
    let dir = artifact_dir()?.join("determinism");
    let file = dir.join(format!("{build:016x}-{}-{}", args.kind.name(), args.seed));
    let digest = format!("{:016x}\n", fnv(digest_words));
    match std::fs::read_to_string(&file) {
        Ok(previous) if previous != digest => {
            eprintln!(
                "perfbench: NONDETERMINISTIC: simulated counters differ from an earlier run of this build and seed ({})",
                file.display()
            );
            ok = false;
        }
        Ok(_) => {}
        Err(_) => {
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            std::fs::write(&file, digest).map_err(|e| format!("{}: {e}", file.display()))?;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn squeezed(relative: &str) -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
        let text = std::fs::read_to_string(&path).expect("declaration file readable");
        text.split_whitespace().collect()
    }

    #[test]
    fn declared_metrics_are_the_measured_ones() {
        let bench = squeezed("../BENCHMARK.json");
        let spec = squeezed("spec.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(bench.contains(&entry), "BENCHMARK.json lacks {entry}");
            let entry = format!("\"{name}\":{{\"unit\":\"{unit}\"");
            assert!(spec.contains(&entry), "spec.json lacks {entry}");
        }
        for kind in Kind::ALL {
            assert!(bench.contains(&format!("{{\"name\":\"{}\",\"why\"", kind.name())));
        }
        let declared = bench.matches("\"name\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len() + Kind::ALL.len()
        );
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split(' ').map(str::to_owned).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload update-mix --seed 3 --seconds 5 --trace 1",
        ))
        .expect("valid arguments");
        assert_eq!((ok.kind, ok.seed, ok.trace), (Kind::UpdateMix, 3, true));
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 5 --trace 0")).is_err());
        assert!(parse_args(&args("--workload cold-xmark --seconds 5 --trace 0")).is_err());
        assert!(parse_args(&args(
            "--workload cold-xmark --seed 3 --seconds 5 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&args("--workload cold-xmark --seed 3 --seconds 5 --trace")).is_err());
    }

    #[test]
    fn fnv_is_order_sensitive() {
        assert_ne!(fnv([1, 2]), fnv([2, 1]));
        assert_eq!(fnv([]), 0xcbf2_9ce4_8422_2325);
    }
}
