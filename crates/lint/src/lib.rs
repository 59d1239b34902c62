//! pathix-lint: an architectural invariant checker for the pathix
//! workspace.
//!
//! The paper's physical algebra rests on contracts that the type system
//! cannot express: XStep and XAssembly never touch the buffer manager
//! (§5.2, §5.4.2), only XSchedule/XScan/UnnestMap perform cluster I/O
//! (§5.3.4, §5.4.3), replayed runs are bit-identical (DESIGN §3), the
//! operator hot path never panics, and the crate graph flows
//! `xml → tree → core`. This crate enforces them statically with a
//! hand-rolled tokenizer and a per-file rule engine — no dependencies,
//! runnable anywhere the workspace builds:
//!
//! ```text
//! cargo run -p pathix-lint -- check
//! ```
//!
//! Rules:
//! - **R1 — I/O confinement.** Navigation-only operators must not
//!   reference `Buffer::fix`, `Device`, `pathix_storage`, or any other
//!   physical-I/O API.
//! - **R2 — determinism.** No `Instant`/`SystemTime` outside the file
//!   device and bench; no `rand` outside xmlgen/bench/tests; no
//!   `HashMap` in cost-accounting/report code.
//! - **R3 — panic-freedom.** No `unwrap`/`expect`/`panic!`-family
//!   macros or slice indexing in non-test code of the operator hot
//!   path, the buffer manager and its page checksum, the simulated disk,
//!   and the navigation primitives.
//!   Escape hatch: `// lint:allow(reason)` on or above the line.
//! - **R4 — layering.** Inter-crate references must point down the
//!   layer stack, and `Pi` instances may only be built through the
//!   checked constructors in `instance.rs`.
//! - **R5 — concurrency confinement.** Threading primitives
//!   (`std::thread`, `parking_lot`, channels, locks, atomics) appear
//!   only in the storage layer, the batch-executor module
//!   (`core/src/server.rs`), the governor (`core/src/governor.rs`),
//!   and the bench harness; the operator hot path stays
//!   single-threaded (DESIGN §10).
//! - **R6 — fault containment.** The fault-injection API
//!   (`FaultDevice`/`FaultPlan`/…) stays below the shared cache
//!   (storage, the facade, bench, tests); `IoError` is constructed
//!   only by the storage layer; operators have no error channel
//!   (`ExecError` never appears inside `ops/`).
//! - **R7 — governor confinement.** Budget and admission types
//!   (`QueryBudget`, `CancelToken`, `Deadline`, `MemLedger`,
//!   `AdmissionConfig`, `GovernorReport`) stay in the governor zone;
//!   inside `ops/` the buffer's interrupt gate is consulted only at
//!   the declared checkpoint operators, and deadline logic never
//!   reads a wall clock (DESIGN §12).

pub mod rules;
pub mod tokenizer;
pub mod workspace;

pub use rules::{check_source, Diagnostic};
pub use workspace::{check_workspace, find_workspace_root};
