//! The rule engine: per-file checks R1–R7 over the token stream.
//!
//! Paths are workspace-relative with `/` separators; rules decide their
//! applicability purely from the path, so fixtures can exercise any rule
//! by picking a suitable virtual path (see `tests/golden.rs`).

use crate::tokenizer::{test_regions, tokenize, SpannedTok, Tok};
use std::fmt;

/// One finding, printed as `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule identifier (`R1`…`R7`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Operator files allowed to perform cluster I/O (paper §5.3.4, §5.4.3:
/// XSchedule and XScan are *the* I/O-performing operators; UnnestMap is
/// the deliberately I/O-naive baseline).
const IO_OPERATOR_FILES: &[&str] = &["xschedule.rs", "xscan.rs", "unnest.rs"];

/// Operator files that are declared budget checkpoints (R7, DESIGN §12):
/// the only `ops/` files that may consult the buffer's interrupt gate.
/// XStep/XAssembly check in their produce loops, XSchedule/XScan at queue
/// pops, UnnestMap per context row.
const CHECKPOINT_FILES: &[&str] = &[
    "xstep.rs",
    "xscan.rs",
    "xschedule.rs",
    "xassembly.rs",
    "unnest.rs",
];

/// Files whose non-test code must be panic-free (R3): the operator hot
/// path, the buffer manager and the page checksum it runs on every miss,
/// and the navigation primitives.
fn in_panic_free_zone(path: &str) -> bool {
    path.starts_with("crates/core/src/ops/")
        || path == "crates/storage/src/buffer.rs"
        || path == "crates/storage/src/checksum.rs"
        || path == "crates/storage/src/sim_disk.rs"
        || path == "crates/tree/src/nav.rs"
}

/// The file name of a workspace-relative path.
fn base_name(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// One "vocabulary confined to a zone" row: the identifiers in `idents` (a
/// trailing `*` matches by prefix) are banned in every file `applies` to —
/// in non-test code only, unless `in_tests`.
struct Confinement {
    rule: &'static str,
    idents: &'static [&'static str],
    applies: fn(&str) -> bool,
    in_tests: bool,
    /// Match only where the identifier is *built*: a struct or tuple
    /// literal (see [`is_literal`]), not a type position or a path.
    literal: bool,
    /// `{id}` stands for the offending identifier.
    message: &'static str,
}

/// The identifier bans of R1, R2 and R4–R7, in reporting order.
const CONFINEMENTS: &[Confinement] = &[
    // R1: physical I/O and storage-layer access stays in the I/O operators.
    Confinement {
        rule: "R1",
        idents: &[
            "fix",
            "fix_any_prefetched",
            "checked_fix",
            "try_fix",
            "prefetch",
            "read_sync",
            "submit",
            "poll",
            "device_mut",
            "buffer",
            "pathix_storage",
            "Device",
            "BufferManager",
            "MemDevice",
            "SimDisk",
            "FileDevice",
        ],
        applies: |p| {
            p.starts_with("crates/core/src/ops/") && !IO_OPERATOR_FILES.contains(&base_name(p))
        },
        in_tests: false,
        literal: false,
        message: "I/O API `{id}` referenced in a navigation-only operator; \
                  only XSchedule/XScan/UnnestMap perform cluster I/O",
    },
    // R2: wall-clock time sources, banned in tests too.
    Confinement {
        rule: "R2",
        idents: &["Instant", "SystemTime"],
        applies: |p| p != "crates/storage/src/file_device.rs" && !p.starts_with("crates/bench/"),
        in_tests: true,
        literal: false,
        message: "`{id}` breaks deterministic replay; use the simulated \
                  clock (SimClock) for all cost accounting",
    },
    // R2: ambient randomness.
    Confinement {
        rule: "R2",
        idents: &["rand"],
        applies: |p| !p.starts_with("crates/xmlgen/") && !p.starts_with("crates/bench/"),
        in_tests: false,
        literal: false,
        message: "`rand` outside xmlgen/bench/tests; derive randomness \
                  from explicit seeds (see PlacementRng)",
    },
    // R2: anything iterating a map in cost-accounting/report files must
    // use `BTreeMap` so replayed runs print identically.
    Confinement {
        rule: "R2",
        idents: &["HashMap"],
        applies: |p| matches!(base_name(p), "report.rs" | "context.rs"),
        in_tests: false,
        literal: false,
        message: "HashMap iteration order is nondeterministic; use \
                  BTreeMap in cost-accounting/report code",
    },
    // R5: threading primitives only in the storage layer (shared page
    // cache, file device), the batch-executor module, the governor (whose
    // cancel tokens and memory ledger are shared across worker threads by
    // design, DESIGN §12), and the bench harness. Everything else — the
    // operator hot path above all — stays single-threaded (DESIGN §10).
    Confinement {
        rule: "R5",
        idents: &[
            "thread",
            "parking_lot",
            "mpsc",
            "Mutex",
            "RwLock",
            "Condvar",
            "Atomic*",
        ],
        applies: |p| {
            !(p.starts_with("crates/storage/")
                || p == "crates/core/src/server.rs"
                || p == "crates/core/src/governor.rs"
                || p.starts_with("crates/bench/"))
        },
        in_tests: false,
        literal: false,
        message: "threading primitive `{id}` outside the concurrency zone \
                  (storage, core/src/server.rs, core/src/governor.rs, \
                  bench); the operator hot path stays single-threaded",
    },
    // R5: the operator hot path is single-threaded (DESIGN §10), so it
    // shares clusters and instances by `Rc`; an `Arc` there pays an atomic
    // increment and decrement per instance for nothing.
    Confinement {
        rule: "R5",
        idents: &["Arc"],
        applies: |p| {
            p.starts_with("crates/core/src/ops/")
                || p == "crates/core/src/instance.rs"
                || p == "crates/tree/src/nav.rs"
        },
        in_tests: false,
        literal: false,
        message: "`{id}` on the operator hot path (core ops/, instance.rs, \
                  tree nav.rs); the hot path stays single-threaded, so \
                  share clusters by `Rc`",
    },
    // R7: budgets, cancellation, and admission control live in the
    // governor zone — the governor module itself, the context/plan layer
    // that threads budgets to checkpoints, the batch executor, the error
    // type, the facade, and the harnesses. Operators never see a budget:
    // they observe only the buffer's interrupt gate at the declared
    // checkpoint sites (DESIGN §12).
    Confinement {
        rule: "R7",
        idents: &[
            "QueryBudget",
            "CancelToken",
            "Deadline",
            "MemLedger",
            "AdmissionConfig",
            "GovernorReport",
        ],
        applies: |p| {
            !(matches!(
                p,
                "crates/core/src/governor.rs"
                    | "crates/core/src/context.rs"
                    | "crates/core/src/plan.rs"
                    | "crates/core/src/server.rs"
                    | "crates/core/src/error.rs"
                    | "crates/core/src/lib.rs"
                    | "src/db.rs"
                    | "src/lib.rs"
            ) || p.starts_with("crates/bench/"))
        },
        in_tests: false,
        literal: false,
        message: "governor type `{id}` outside the governor zone \
                  (core governor/context/plan/server/error/lib, \
                  src/db.rs, src/lib.rs, bench, tests); operators \
                  see budgets only through the buffer's interrupt \
                  gate",
    },
    // R7: budget checkpoints — only the declared checkpoint operators may
    // consult the interrupt gate.
    Confinement {
        rule: "R7",
        idents: &["interrupted"],
        applies: |p| {
            p.starts_with("crates/core/src/ops/") && !CHECKPOINT_FILES.contains(&base_name(p))
        },
        in_tests: false,
        literal: false,
        message: "interrupt gate consulted outside the declared \
                  checkpoint operators (xstep/xscan/xschedule/\
                  xassembly/unnest); see DESIGN §12",
    },
    // R7: deadline logic runs on simulated time only.
    Confinement {
        rule: "R7",
        idents: &["Instant", "SystemTime"],
        applies: |p| p == "crates/core/src/governor.rs",
        in_tests: false,
        literal: false,
        message: "`{id}` in deadline logic; deadlines are expressed \
                  in simulated nanoseconds (SimClock) so governed \
                  runs replay exactly",
    },
    // R6: faults are planted below the shared cache and must stay there.
    // Only the storage layer, the database facade (which wires a
    // `FaultPlan` under a fresh device), the bench chaos harness, and tests
    // may name the fault-injection API — query operators and the tree
    // layer see faults exclusively as `checked_fix → None`.
    Confinement {
        rule: "R6",
        idents: &["FaultDevice", "FaultPlan", "FaultRule", "FaultKind"],
        applies: |p| {
            !(p.starts_with("crates/storage/")
                || p.starts_with("crates/bench/")
                || p == "src/db.rs"
                || p == "src/lib.rs")
        },
        in_tests: false,
        literal: false,
        message: "fault-injection type `{id}` outside the fault zone \
                  (storage, src/db.rs, src/lib.rs, bench, tests); faults \
                  are planted below the shared cache only",
    },
    // R6: operators have no error channel — failures travel via
    // `TreeStore::checked_fix → None` plus the store-recorded error, never
    // as `ExecError` values inside ops/.
    Confinement {
        rule: "R6",
        idents: &["ExecError"],
        applies: |p| p.starts_with("crates/core/src/ops/"),
        in_tests: false,
        literal: false,
        message: "`ExecError` referenced inside an operator; operators \
                  wind down on checked_fix() == None and the executor \
                  surfaces the store-recorded error",
    },
    // R6: `IoError` may only be *constructed* by the storage layer
    // (device/buffer stack); everyone else consumes it.
    Confinement {
        rule: "R6",
        idents: &["IoError"],
        applies: |p| !p.starts_with("crates/storage/"),
        in_tests: false,
        literal: true,
        message: "IoError built outside the storage layer; only the \
                  device/buffer stack originates I/O errors",
    },
    // R6: a page image becomes a `VerifiedPage` only by passing its
    // checksum in `checksum::verify_image`, so everything a decoder (and a
    // cluster reading payloads lazily) sees was CRC-checked.
    Confinement {
        rule: "R6",
        idents: &["VerifiedPage"],
        applies: |p| p != "crates/storage/src/checksum.rs",
        in_tests: true,
        literal: true,
        message: "VerifiedPage built outside checksum.rs; images are \
                  verified only by checksum::verify_image",
    },
    // R4: path instances are built by the checked constructors only.
    Confinement {
        rule: "R4",
        idents: &["Pi"],
        applies: |p| p != "crates/core/src/instance.rs",
        in_tests: false,
        literal: true,
        message: "Pi built by struct literal; use the checked \
                  constructors in instance.rs (Pi::band/context/\
                  swizzled_context/speculative/result)",
    },
];

/// Whether `id` matches a [`Confinement`] pattern.
fn ident_matches(pattern: &str, id: &str) -> bool {
    match pattern.strip_suffix('*') {
        Some(prefix) => id.starts_with(prefix),
        None => pattern == id,
    }
}

/// True for files that are test-only by location.
pub fn is_test_path(path: &str) -> bool {
    path.split('/').any(|c| c == "tests" || c == "benches")
}

/// Canonical layer of each workspace crate; `use` edges must point
/// strictly downwards (R4: `xml → tree → core` direction).
pub fn layer(krate: &str) -> Option<u32> {
    Some(match krate {
        "pathix-storage" | "pathix-xml" | "pathix-lint" => 0,
        "pathix-xpath" | "pathix-xmlgen" => 1,
        "pathix-tree" => 2,
        "pathix-core" => 3,
        "pathix" => 4,
        "pathix-bench" => 5,
        _ => return None,
    })
}

/// The crate a workspace-relative path belongs to.
pub fn crate_of_path(path: &str) -> Option<&'static str> {
    if let Some(rest) = path.strip_prefix("crates/") {
        let dir = rest.split('/').next()?;
        return Some(match dir {
            "storage" => "pathix-storage",
            "xml" => "pathix-xml",
            "xmlgen" => "pathix-xmlgen",
            "xpath" => "pathix-xpath",
            "tree" => "pathix-tree",
            "core" => "pathix-core",
            "bench" => "pathix-bench",
            "lint" => "pathix-lint",
            _ => return None,
        });
    }
    if path.starts_with("src/") || path.starts_with("tests/") {
        return Some("pathix");
    }
    None
}

/// Keywords that rule out the slice-indexing interpretation of a
/// following `[` (array literals, slice types, patterns, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "macro", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "type",
    "unsafe", "use", "where", "while", "yield",
];

const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];

/// Runs every applicable rule over one source file.
pub fn check_source(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let tf = tokenize(src);
    let in_region = test_regions(&tf.tokens);
    let whole_file_test = is_test_path(rel_path);
    let toks = &tf.tokens;
    let mut out: Vec<Diagnostic> = Vec::new();

    let is_test = |i: usize| whole_file_test || in_region[i];
    let confinements: Vec<&Confinement> = CONFINEMENTS
        .iter()
        .filter(|c| (c.applies)(rel_path))
        .collect();
    let r3_applies = in_panic_free_zone(rel_path);
    let own_crate = crate_of_path(rel_path);

    for (i, st) in toks.iter().enumerate() {
        match &st.tok {
            Tok::Ident(id) => {
                for c in &confinements {
                    if (c.in_tests || !is_test(i))
                        && c.idents.iter().any(|pat| ident_matches(pat, id))
                        && (!c.literal || is_literal(toks, i))
                    {
                        out.push(Diagnostic {
                            file: rel_path.to_owned(),
                            line: st.line,
                            rule: c.rule,
                            message: c.message.replace("{id}", id),
                        });
                    }
                }
                // R3: unwrap/expect method calls.
                if r3_applies
                    && !is_test(i)
                    && (id == "unwrap" || id == "expect")
                    && prev_is(toks, i, '.')
                    && next_is(toks, i, '(')
                {
                    out.push(Diagnostic {
                        file: rel_path.to_owned(),
                        line: st.line,
                        rule: "R3",
                        message: format!(
                            "`.{id}()` in the panic-free zone; thread a Result or use \
                             a checked accessor (or justify with lint:allow)"
                        ),
                    });
                }
                // R3: panic-family macros.
                if r3_applies
                    && !is_test(i)
                    && PANIC_MACROS.contains(&id.as_str())
                    && next_is(toks, i, '!')
                {
                    out.push(Diagnostic {
                        file: rel_path.to_owned(),
                        line: st.line,
                        rule: "R3",
                        message: format!("`{id}!` in the panic-free zone"),
                    });
                }
                // R4: layering of inter-crate references.
                if id == "pathix" || id.starts_with("pathix_") {
                    let referenced = id.replace('_', "-");
                    if let (Some(own), Some(own_layer)) = (own_crate, own_crate.and_then(layer)) {
                        if referenced != own {
                            match layer(&referenced) {
                                Some(l) if l < own_layer => {}
                                Some(_) => out.push(Diagnostic {
                                    file: rel_path.to_owned(),
                                    line: st.line,
                                    rule: "R4",
                                    message: format!(
                                        "`{referenced}` referenced from `{own}` points \
                                         against the layering (xml → tree → core)"
                                    ),
                                }),
                                None => out.push(Diagnostic {
                                    file: rel_path.to_owned(),
                                    line: st.line,
                                    rule: "R4",
                                    message: format!(
                                        "reference to unknown workspace crate `{referenced}`"
                                    ),
                                }),
                            }
                        } else if !is_test(i) && !is_bin_target(rel_path) {
                            // A crate naming itself outside tests is almost
                            // always a stale path; integration tests and bin
                            // targets (which import their sibling lib by
                            // crate name) are the legitimate uses.
                            out.push(Diagnostic {
                                file: rel_path.to_owned(),
                                line: st.line,
                                rule: "R4",
                                message: format!(
                                    "`{own}` references itself by crate name; use \
                                     `crate::` paths inside the crate"
                                ),
                            });
                        }
                    }
                }
            }
            Tok::Punct('[') if r3_applies && !is_test(i) && indexes_expression(toks, i) => {
                out.push(Diagnostic {
                    file: rel_path.to_owned(),
                    line: st.line,
                    rule: "R3",
                    message: "slice indexing in the panic-free zone; use .get()/\
                              .get_mut() (or justify with lint:allow)"
                        .to_owned(),
                });
            }
            _ => {}
        }
    }

    out.retain(|d| !tf.allowed(d.line));
    out
}

/// Heuristic: a `[` indexes an expression iff the previous token can end
/// an expression — a non-keyword identifier, a numeric literal, `)`, `]`,
/// or `?`. Attributes (`#[`), array literals/types, macro calls (`vec![`)
/// and patterns all have different predecessors.
fn indexes_expression(toks: &[SpannedTok], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).and_then(|p| toks.get(p)) else {
        return false;
    };
    match &prev.tok {
        Tok::Ident(id) => !NON_INDEX_KEYWORDS.contains(&id.as_str()),
        Tok::Num => true,
        Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('?') => true,
        _ => false,
    }
}

/// Whether the identifier at `i` is built here: followed by `{` or `(`,
/// except after `->` (a return type before the body) and in `impl T {`,
/// `for T {`, `dyn T {` and `struct T(` (declarations, not literals).
fn is_literal(toks: &[SpannedTok], i: usize) -> bool {
    (next_is(toks, i, '{') || next_is(toks, i, '('))
        && !prev_is(toks, i, '>')
        && !prev_is_ident(toks, i, &["impl", "for", "dyn", "struct"])
}

/// Bin targets are separate crates that legitimately import the sibling
/// library by its crate name.
fn is_bin_target(path: &str) -> bool {
    path.contains("/bin/") || path.ends_with("/main.rs")
}

fn prev_is_ident(toks: &[SpannedTok], i: usize, names: &[&str]) -> bool {
    i.checked_sub(1)
        .and_then(|p| toks.get(p))
        .is_some_and(|t| matches!(&t.tok, Tok::Ident(id) if names.contains(&id.as_str())))
}

fn prev_is(toks: &[SpannedTok], i: usize, c: char) -> bool {
    i.checked_sub(1)
        .and_then(|p| toks.get(p))
        .is_some_and(|t| t.tok == Tok::Punct(c))
}

fn next_is(toks: &[SpannedTok], i: usize, c: char) -> bool {
    toks.get(i + 1).is_some_and(|t| t.tok == Tok::Punct(c))
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn rules_of(path: &str, src: &str) -> Vec<&'static str> {
        check_source(path, src)
            .into_iter()
            .map(|d| d.rule)
            .collect()
    }

    #[test]
    fn indexing_heuristic_negatives() {
        // Attributes, array literals, slice types, macros, patterns: none
        // of these are indexing.
        let src = r#"
            #[derive(Debug)]
            struct S { a: [u8; 4] }
            fn f(x: &[u8]) -> Vec<u8> {
                let [p, q] = [1u8, 2];
                let v = vec![p, q];
                v
            }
        "#;
        assert!(rules_of("crates/core/src/ops/xstep.rs", src).is_empty());
    }

    #[test]
    fn indexing_heuristic_positives() {
        let cases = [
            "fn f(v: &[u8], i: usize) -> u8 { v[i] }",
            "fn f(v: &Vec<u8>) -> &[u8] { &v[1..] }",
            "fn g(m: &M) -> u8 { m.rows[0] }",
            "fn h(v: &V) -> u8 { (v.inner())[2] }",
        ];
        for src in cases {
            assert_eq!(
                rules_of("crates/core/src/ops/xstep.rs", src),
                vec!["R3"],
                "{src}"
            );
        }
    }

    #[test]
    fn lint_allow_suppresses() {
        let src = "fn f(v: &[u8]) -> u8 {\n    // lint:allow(bounds checked above)\n    v[0]\n}";
        assert!(rules_of("crates/core/src/ops/xstep.rs", src).is_empty());
    }

    #[test]
    fn test_code_is_exempt_from_r3() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}";
        assert!(rules_of("crates/core/src/ops/xstep.rs", src).is_empty());
        // …but the same code in a tests/ directory is exempt too.
        assert!(rules_of("crates/core/src/ops/xstep.rs", "fn f() { x.unwrap(); }").contains(&"R3"));
    }

    #[test]
    fn checksum_is_in_the_panic_free_zone() {
        let src = "fn f(v: Option<u8>) -> u8 { v.unwrap() }";
        assert_eq!(rules_of("crates/storage/src/checksum.rs", src), vec!["R3"]);
        assert!(rules_of("crates/storage/src/wal.rs", src).is_empty());
    }

    #[test]
    fn concurrency_confinement() {
        let src = "use std::thread;\nfn f() { thread::spawn(|| {}); }";
        // Operator hot path: flagged (twice: the use and the call).
        assert!(rules_of("crates/core/src/ops/xstep.rs", src).contains(&"R5"));
        // Atomics are matched by prefix.
        assert_eq!(
            rules_of(
                "crates/xpath/src/parse.rs",
                "use std::sync::atomic::AtomicU64;"
            ),
            vec!["R5"]
        );
        // The concurrency zone and tests are allowed.
        assert!(rules_of("crates/storage/src/shared_cache.rs", src).is_empty());
        assert!(rules_of("crates/core/src/server.rs", src).is_empty());
        assert!(rules_of("crates/core/src/governor.rs", src).is_empty());
        assert!(rules_of("crates/bench/src/scaling.rs", src).is_empty());
        assert!(rules_of("crates/core/tests/t.rs", src).is_empty());
    }

    #[test]
    fn operator_hot_path_has_no_arc() {
        let src = "use std::sync::Arc;\nfn f(c: Arc<Cluster>) -> Arc<Cluster> { Arc::clone(&c) }";
        for hot in [
            "crates/core/src/ops/xassembly.rs",
            "crates/core/src/ops/nodeset.rs",
            "crates/core/src/instance.rs",
            "crates/tree/src/nav.rs",
        ] {
            assert_eq!(rules_of(hot, src), vec!["R5"; 4], "{hot}");
        }
        // `Rc` is the hot path's handle; tests and the concurrency zone,
        // the shared page cache above all, may hold `Arc`s.
        let rc = "use std::rc::Rc;\nfn f(c: Rc<Cluster>) -> Rc<Cluster> { Rc::clone(&c) }";
        assert!(rules_of("crates/core/src/ops/xstep.rs", rc).is_empty());
        let test_mod = format!("#[cfg(test)]\nmod tests {{\n{src}\n}}");
        assert!(rules_of("crates/core/src/ops/xstep.rs", &test_mod).is_empty());
        assert!(rules_of("crates/storage/src/shared_cache.rs", src).is_empty());
        assert!(rules_of("crates/core/src/plan.rs", src).is_empty());
        assert!(rules_of("crates/tree/src/store.rs", src).is_empty());
    }

    #[test]
    fn governor_api_confinement() {
        let src = "use crate::governor::QueryBudget;\nfn f(b: &QueryBudget) {}";
        // Operators, the tree layer, and storage must not name budgets.
        assert!(rules_of("crates/core/src/ops/xstep.rs", src).contains(&"R7"));
        assert!(rules_of("crates/tree/src/store.rs", src).contains(&"R7"));
        assert!(rules_of("crates/storage/src/buffer.rs", src).contains(&"R7"));
        // The governor zone and tests are allowed.
        assert!(!rules_of("crates/core/src/governor.rs", src).contains(&"R7"));
        assert!(!rules_of("crates/core/src/context.rs", src).contains(&"R7"));
        assert!(!rules_of("crates/core/src/server.rs", src).contains(&"R7"));
        assert!(!rules_of("src/db.rs", src).contains(&"R7"));
        assert!(!rules_of("crates/bench/src/overload.rs", src).contains(&"R7"));
        assert!(!rules_of("tests/governor_chaos.rs", src).contains(&"R7"));
    }

    #[test]
    fn interrupt_gate_only_at_checkpoints() {
        let src = "fn f(cx: &C) { if cx.store.interrupted() { return; } }";
        // Declared checkpoint operators may consult the gate…
        assert!(!rules_of("crates/core/src/ops/xschedule.rs", src).contains(&"R7"));
        assert!(!rules_of("crates/core/src/ops/xstep.rs", src).contains(&"R7"));
        // …other operators may not.
        assert!(rules_of("crates/core/src/ops/stack.rs", src).contains(&"R7"));
        // Outside ops/ the checkpoint rule does not apply.
        assert!(!rules_of("crates/core/src/plan.rs", src).contains(&"R7"));
    }

    #[test]
    fn deadline_logic_is_sim_time_only() {
        let src = "use std::time::Instant;\nfn f() { let _ = Instant::now(); }";
        assert!(rules_of("crates/core/src/governor.rs", src).contains(&"R7"));
        // Elsewhere wall clocks are R2's business, not R7's.
        assert!(!rules_of("crates/core/src/plan.rs", src).contains(&"R7"));
    }

    #[test]
    fn fault_api_confinement() {
        let src = "use pathix_storage::FaultPlan;\nfn f() { let _ = FaultPlan::none(); }";
        // Operators and the tree layer must not name the fault API.
        assert!(rules_of("crates/core/src/ops/xstep.rs", src).contains(&"R6"));
        assert!(rules_of("crates/tree/src/store.rs", src).contains(&"R6"));
        // The fault zone and tests are allowed.
        assert!(!rules_of("crates/storage/src/fault.rs", src).contains(&"R6"));
        assert!(!rules_of("src/db.rs", src).contains(&"R6"));
        assert!(!rules_of("src/lib.rs", src).contains(&"R6"));
        assert!(!rules_of("crates/bench/src/chaos.rs", src).contains(&"R6"));
        assert!(!rules_of("tests/fault_injection.rs", src).contains(&"R6"));
    }

    #[test]
    fn io_error_construction_confinement() {
        let build = "fn f() -> IoError { IoError { page: 0, attempts: 1 } }";
        let diags = rules_of("crates/core/src/server.rs", build);
        // Exactly one R6: the literal, not the return type.
        assert_eq!(diags.iter().filter(|r| **r == "R6").count(), 1);
        // The storage layer constructs freely; consumers may name the type.
        assert!(!rules_of("crates/storage/src/buffer.rs", build).contains(&"R6"));
        let consume = "fn f(e: IoError) -> u32 { e.page }";
        assert!(!rules_of("crates/core/src/server.rs", consume).contains(&"R6"));
    }

    #[test]
    fn verified_page_is_built_only_in_checksum() {
        let build = "fn f(b: Arc<[u8]>) -> VerifiedPage { VerifiedPage(b) }";
        // Anywhere else a literal is flagged, in tests too…
        for path in [
            "crates/storage/src/buffer.rs",
            "crates/tree/src/node.rs",
            "crates/storage/tests/t.rs",
        ] {
            assert_eq!(rules_of(path, build), vec!["R6"], "{path}");
        }
        // …but checksum.rs, the only verifier, builds it.
        assert!(rules_of("crates/storage/src/checksum.rs", build).is_empty());
        // Naming the type is fine everywhere.
        let consume = "fn decode(image: &VerifiedPage) -> Option<VerifiedPage> { None }";
        assert!(rules_of("crates/tree/src/store.rs", consume).is_empty());
        let declare = "pub struct VerifiedPage(Arc<[u8]>);\nimpl VerifiedPage {}";
        assert!(rules_of("crates/storage/src/buffer.rs", declare).is_empty());
    }

    #[test]
    fn operators_have_no_error_channel() {
        let src = "fn f() -> ExecError { ExecError::Io { page: 0, attempts: 1 } }";
        assert!(rules_of("crates/core/src/ops/xscan.rs", src).contains(&"R6"));
        // Executors outside ops/ own the error channel.
        assert!(!rules_of("crates/core/src/exec.rs", src).contains(&"R6"));
    }

    #[test]
    fn checked_fix_is_io() {
        let src = "fn f(cx: &C) { let _ = cx.store.checked_fix(p); }";
        assert!(rules_of("crates/core/src/ops/xstep.rs", src).contains(&"R1"));
        assert!(!rules_of("crates/core/src/ops/xscan.rs", src).contains(&"R1"));
    }

    #[test]
    fn layering_direction() {
        // Downward reference: fine.
        assert!(rules_of("crates/core/src/plan.rs", "use pathix_tree::NodeId;").is_empty());
        // Upward reference: flagged.
        assert_eq!(
            rules_of("crates/xml/src/lib.rs", "use pathix_tree::NodeId;"),
            vec!["R4"]
        );
        // Integration tests may name their own crate.
        assert!(rules_of("crates/tree/tests/t.rs", "use pathix_tree::NodeId;").is_empty());
    }
}
