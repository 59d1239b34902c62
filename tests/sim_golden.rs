//! Golden simulated counters: the XMark benchmark queries under every plan,
//! cold and warm, on two placements, must reproduce a checked-in record of
//! every `ExecReport` counter, the simulated time split and a digest of the
//! result nodes in plan output order.
//!
//! A change that claims "simulated results bit-identical" is held to this
//! record by `cargo test`. A change that is *meant* to move simulated
//! numbers regenerates the record with
//!
//! ```text
//! PATHIX_BLESS=1 cargo test --test sim_golden
//! ```
//!
//! and says why in its description.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

use pathix::{Database, DatabaseOptions, DeviceKind, ExecReport, Method, PlanConfig, QueryRun};
use pathix_tree::Placement;
use std::fmt::Write as _;
use std::path::PathBuf;

const SCALE: f64 = 0.05;
/// Small pages give the SF 0.05 document enough clusters and borders to
/// exercise `Q`, `R` and `S`.
const PAGE_SIZE: usize = 2048;
/// Cold runs: a buffer well under the document, so runs evict.
const COLD_FRAMES: usize = 32;

/// The benchmark queries Q6′, Q7 and Q15 as node sets, so every result
/// node enters the digest. Q7's sum of counts runs as its three paths.
const QUERIES: [(&str, &str); 5] = [
    ("Q6'", "/site/regions//item"),
    ("Q7-description", "/site//description"),
    ("Q7-annotation", "/site//annotation"),
    ("Q7-email", "/site//email"),
    (
        "Q15",
        "/site/closed_auctions/closed_auction/annotation/description/parlist\
         /listitem/parlist/listitem/text/emph/keyword",
    ),
];

/// `None` is the optimizer's choice (`auto`). Beyond the four benchmark
/// plans, speculative XSchedule and a memory-limited XScan cover `S`'s
/// firing and fallback paths.
fn plans() -> [(&'static str, Option<Method>, Option<usize>); 6] {
    [
        ("Simple", Some(Method::Simple), None),
        ("XSchedule", Some(Method::xschedule()), None),
        (
            "XSchedule-spec",
            Some(Method::XSchedule {
                k: 100,
                speculative: true,
            }),
            None,
        ),
        ("XScan", Some(Method::XScan), None),
        ("XScan-mem64", Some(Method::XScan), Some(64)),
        ("auto", None, None),
    ]
}

fn placements() -> [(&'static str, Placement); 2] {
    [
        ("sequential", Placement::Sequential),
        (
            "chunk-shuffled",
            Placement::ChunkShuffled { chunk: 4, seed: 3 },
        ),
    ]
}

fn open(doc: &pathix_xml::Document, placement: Placement, frames: usize) -> Database {
    let opts = DatabaseOptions {
        page_size: PAGE_SIZE,
        placement,
        buffer_pages: frames,
        device: DeviceKind::SimDisk,
        ..Default::default()
    };
    Database::from_document(doc, &opts).unwrap()
}

fn run(db: &Database, query: &str, method: Option<Method>, mem_limit: Option<usize>) -> QueryRun {
    let method = method.unwrap_or_else(|| db.estimate(query).unwrap().recommend());
    let mut cfg = PlanConfig::new(method);
    cfg.mem_limit = mem_limit;
    db.run(query, &cfg).unwrap()
}

/// FNV-1a over `(page, slot, order)` of every result node, in output order.
fn digest(run: &QueryRun) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(id, order) in &run.nodes {
        for word in [u64::from(id.page), u64::from(id.slot), order] {
            for b in word.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

fn line(label: &str, run: &QueryRun) -> String {
    let r: &ExecReport = &run.report;
    let (t, b, d) = (&r.time, &r.buffer, &r.device);
    let mut s = String::new();
    write!(
        s,
        "{label} method={} value={} nodes={} digest={:016x} \
         total_ns={} cpu_ns={} io_wait_ns={} \
         fixes={} hits={} misses={} async_loads={} evictions={} prefetches={} overflows={} \
         reads={} seq_reads={} random_reads={} seek_pages={} busy_ns={} page_copies={} retries={} \
         nodes_visited={} node_tests={} borders={} instances={} results={} \
         r_inserts={} s_inserts={} s_peak={} q_pushes={} speculative={} fallback={} degraded={}",
        r.method,
        run.value,
        run.nodes.len(),
        digest(run),
        t.total_ns,
        t.cpu_ns,
        t.io_wait_ns,
        b.fixes,
        b.hits,
        b.misses,
        b.async_loads,
        b.evictions,
        b.prefetches,
        b.capacity_overflows,
        d.reads,
        d.sequential_reads,
        d.random_reads,
        d.seek_distance_pages,
        d.busy_ns,
        d.page_copies,
        d.retries,
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
        r.fallback,
        r.degraded,
    )
    .unwrap();
    s
}

/// Every run of the golden matrix, one line each.
fn record() -> Vec<String> {
    let doc = pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(SCALE));
    let mut lines = Vec::new();
    for (pname, placement) in placements() {
        // Cold: an emptied buffer and a parked head before every query.
        let db = open(&doc, placement, COLD_FRAMES);
        for (qname, query) in QUERIES {
            for (plan, method, mem) in plans() {
                db.clear_buffers();
                db.store().buffer.device_mut().park();
                let r = run(&db, query, method, mem);
                lines.push(line(&format!("{pname} cold {qname} {plan}"), &r));
            }
        }
        // Warm: a buffer larger than the document, filled by one untimed
        // pass over the whole matrix; the second pass is recorded.
        let db = open(&doc, placement, 2 * db.pages() as usize);
        for pass in 0..2 {
            for (qname, query) in QUERIES {
                for (plan, method, mem) in plans() {
                    let r = run(&db, query, method, mem);
                    if pass == 1 {
                        lines.push(line(&format!("{pname} warm {qname} {plan}"), &r));
                    }
                }
            }
        }
    }
    lines
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sim_counters.txt")
}

#[test]
fn simulated_counters_match_the_golden_record() {
    let got = record();
    let path = golden_path();
    if std::env::var_os("PATHIX_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got.join("\n") + "\n").unwrap();
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap();
    let want: Vec<&str> = text.lines().collect();
    let diffs: Vec<String> = got
        .iter()
        .zip(&want)
        .filter(|(g, w)| g.as_str() != **w)
        .map(|(g, w)| format!("want {w}\n got {g}"))
        .collect();
    assert!(
        diffs.is_empty() && got.len() == want.len(),
        "{} of {} runs differ from {} ({} lines recorded):\n{}",
        diffs.len(),
        got.len(),
        path.display(),
        want.len(),
        diffs.join("\n")
    );
}
