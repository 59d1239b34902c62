//! The paper's evaluation workload in miniature: XMark Q6', Q7 and Q15 on
//! a generated auction document, comparing the three physical plans.
//!
//! ```text
//! cargo run --release --example xmark_queries [scale]
//! ```

// Demo binaries print to stdout and unwrap for brevity.
#![allow(clippy::unwrap_used, clippy::print_stdout)]

use pathix::{Database, DatabaseOptions, Method, PlanConfig};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("numeric scale"))
        .unwrap_or(0.25);

    let opts = DatabaseOptions {
        buffer_pages: 100,
        ..Default::default()
    };
    println!("generating XMark document at scaling factor {scale}…");
    let db = Database::from_xmark(scale, &opts).expect("import");
    println!(
        "document: {} pages of {} bytes, {} inter-cluster edges\n",
        db.pages(),
        8192,
        db.import_report().border_edges
    );

    let queries = [
        ("Q6'", "count(/site/regions//item)"),
        (
            "Q7",
            "count(/site//description)+count(/site//annotation)+count(/site//email)",
        ),
        (
            "Q15",
            "/site/closed_auctions/closed_auction/annotation/description/parlist\
             /listitem/parlist/listitem/text/emph/keyword",
        ),
    ];

    for (label, query) in queries {
        println!("--- {label}: {query}");
        let mut base: Option<u64> = None;
        for method in [Method::Simple, Method::xschedule(), Method::XScan] {
            db.clear_buffers();
            db.reset_device_stats();
            let run = db.run(query, &PlanConfig::new(method)).expect("query");
            if let Some(v) = base {
                assert_eq!(v, run.value, "plans must agree");
            }
            base = Some(run.value);
            println!(
                "{:<10} result {:>7}  total {:>8.3}s  cpu {:>7.3}s ({:>4.1}%)  reads {:>6} ({} seq)",
                method.label(),
                run.value,
                run.report.total_secs(),
                run.report.cpu_secs(),
                100.0 * run.report.cpu_fraction(),
                run.report.device.reads,
                run.report.device.sequential_reads,
            );
        }
        println!();
    }
}
