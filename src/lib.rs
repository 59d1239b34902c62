//! # pathix
//!
//! A from-scratch reproduction of **"Cost-Sensitive Reordering of
//! Navigational Primitives"** (Kanne, Brantner, Moerkotte — SIGMOD 2005):
//! an XPath evaluation engine whose physical algebra separates cheap
//! intra-cluster navigation from expensive inter-cluster I/O, pooling all
//! I/O for a location path in a single operator that can exploit
//! asynchronous request reordering (`XSchedule`) or a single sequential
//! scan (`XScan`).
//!
//! ## Crate map
//!
//! * [`storage`] — paged storage: simulated disk with a seek/rotation/
//!   transfer cost model and a reordering command queue, real-file backend,
//!   buffer manager over decoded pages.
//! * [`xml`] — minimal XML parser/serializer and the in-memory document
//!   tree.
//! * [`xmlgen`] — deterministic XMark-shaped benchmark document generator.
//! * [`tree`] — clustered on-page tree storage with border nodes and
//!   intra-cluster navigation primitives.
//! * [`xpath`] — location-path AST, parser, and the reference evaluator.
//! * [`core`] — partial path instances and the physical algebra
//!   (`XStep`/`XAssembly`/`XSchedule`/`XScan`), plan compiler and executor.
//!
//! ## Quickstart
//!
//! ```
//! use pathix::{Database, DatabaseOptions, Method, PlanConfig};
//!
//! // An XMark-like auction document at scaling factor 0.05.
//! let db = Database::from_xmark(0.05, &DatabaseOptions::default()).unwrap();
//!
//! // Evaluate XMark Q6' with all three plans of the paper.
//! let q = "count(/site/regions//item)";
//! let simple = db.run(q, &PlanConfig::new(Method::Simple)).unwrap();
//! let sched = db.run(q, &PlanConfig::new(Method::xschedule())).unwrap();
//! let scan = db.run(q, &PlanConfig::new(Method::XScan)).unwrap();
//! assert_eq!(simple.value, sched.value);
//! assert_eq!(simple.value, scan.value);
//!
//! // Let the cost model pick the I/O operator.
//! let auto = PlanConfig::new(db.estimate(q).unwrap().recommend());
//! assert_eq!(db.run(q, &auto).unwrap().value, scan.value);
//! println!("{}", sched.report);
//! ```

pub use pathix_core as core;
pub use pathix_storage as storage;
pub use pathix_tree as tree;
pub use pathix_xml as xml;
pub use pathix_xmlgen as xmlgen;
pub use pathix_xpath as xpath;

mod db;

pub use db::{Database, DatabaseOptions, DbError, DeviceKind};
pub use pathix_core::{
    AdmissionConfig, BatchRun, CancelToken, Deadline, ExecError, ExecReport, GovernorReport,
    MemLedger, Method, PlanConfig, QueryBudget, QueryRun,
};
pub use pathix_storage::{FaultKind, FaultPlan, FaultRule};
