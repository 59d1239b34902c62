//! Updatable storage in action (the paper's requirement 2): in-place
//! inserts and deletes on the stored tree, query correctness afterwards,
//! and WAL-based crash recovery.
//!
//! ```text
//! cargo run --release --example updates
//! ```

// Demo binaries print to stdout and unwrap for brevity.
#![allow(clippy::unwrap_used, clippy::print_stdout)]

use pathix::{Database, DatabaseOptions, DeviceKind, Method, PlanConfig};
use pathix_storage::{recover, SimClock, WriteAheadLog};
use pathix_tree::{InsertPos, NewNode, Placement};
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    let opts = DatabaseOptions {
        page_size: 4096,
        placement: Placement::Sequential,
        buffer_pages: 64,
        device: DeviceKind::Mem,
        ..Default::default()
    };
    let mut db = Database::from_xmark(0.02, &opts).expect("import");
    let (xscan, xschedule) = (
        PlanConfig::new(Method::XScan),
        PlanConfig::new(Method::xschedule()),
    );
    println!(
        "fresh import: {} pages, count(//item) = {}",
        db.pages(),
        db.run("count(//item)", &xscan).unwrap().value
    );

    // --- in-place updates -------------------------------------------------
    // Find the first stored `item` element and graft a new child onto it.
    let item_id = {
        let store = db.store();
        let sym = store.meta.symbols.lookup("item").expect("item tag");
        let mut found = None;
        'outer: for p in store.meta.page_range() {
            let c = store.fix(p);
            for (slot, n) in c.nodes.iter().enumerate() {
                if let pathix_tree::NodeKind::Element { tag, .. } = &n.kind {
                    if *tag == sym {
                        found = Some(pathix_tree::NodeId::new(p, slot as u16));
                        break 'outer;
                    }
                }
            }
        }
        found.expect("an item exists")
    };
    let new_el = db
        .updater()
        .insert(
            InsertPos::FirstChildOf(item_id),
            NewNode::Element("freshly_inserted".into()),
        )
        .expect("insert");
    db.updater()
        .insert(
            InsertPos::FirstChildOf(new_el),
            NewNode::Text("added after import".into()),
        )
        .expect("insert text");
    println!(
        "after insert: count(//freshly_inserted) = {}",
        db.run("count(//freshly_inserted)", &xschedule)
            .unwrap()
            .value
    );
    db.updater().delete(new_el).expect("delete");
    println!(
        "after delete: count(//freshly_inserted) = {}",
        db.run("count(//freshly_inserted)", &xschedule)
            .unwrap()
            .value
    );

    // --- WAL commit/recovery ---------------------------------------------
    // (See crates/tree/tests/recovery_tests.rs for the full crash drill;
    // here we just show the protocol.)
    let wal = Rc::new(RefCell::new(WriteAheadLog::new()));
    db.store_mut_attach_wal(Rc::clone(&wal));
    let mut up = db.updater();
    up.insert(
        InsertPos::FirstChildOf(item_id),
        NewNode::Element("durable".into()),
    )
    .expect("insert");
    up.commit();
    let (logged, durable) = wal.borrow().len();
    println!("WAL: {logged} records logged, {durable} durable after commit");
    {
        let mut dev = db.store().buffer.device_mut();
        let clock = SimClock::new();
        let _ = dev.read_sync(0, &clock);
        let replayed = recover(dev.as_mut(), &wal.borrow());
        println!(
            "redo replay applied {} page images (idempotent), {} corrupt skipped",
            replayed.applied, replayed.skipped_corrupt
        );
    }
    db.clear_buffers();
    println!(
        "count(//durable) = {}",
        db.run("count(//durable)", &xscan).unwrap().value
    );
}
