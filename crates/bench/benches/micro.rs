//! Micro-benchmarks of the substrates: navigation primitives, buffer
//! manager, page codec, XML parsing and document generation, plus the
//! operator chain on a warm buffer. These measure real CPU time (the
//! simulated clock is irrelevant here).
//!
//! The page codec group has three sides: `encode` serializes an owned
//! cluster, `decode` is the buffer's structural decode of a verified page
//! image (record heads only, payloads left in the image), and
//! `materialize` is the owned decode the updater uses to rewrite a page,
//! which copies every payload out.
//!
//! The `operators` group runs whole plans at SF 0.05 over a buffer larger
//! than the document, warmed before timing: no page is read, so it times
//! the XStep chain, XAssembly's `R`/`S`, the I/O operator's bookkeeping and
//! navigation — the wall cost the simulated CPU model stands for.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pathix::{Database, Method, PlanConfig};
use pathix_bench::{bench_options, Q15, Q7};
use pathix_storage::{seal_page, verify_image, BufferParams, MemDevice, SimClock};
use pathix_tree::{
    import_into, Entry, ImportConfig, NavCharge, NavCounters, NavParams, Placement, ResolvedTest,
    StepCursor, TreeStore,
};
use pathix_xpath::{Axis, NodeTest};
use std::rc::Rc;

fn store_for_micro() -> TreeStore {
    let doc = pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(0.05));
    let mut dev = MemDevice::new(8192);
    let (meta, _) = import_into(
        &mut dev,
        &doc,
        &ImportConfig {
            page_size: 8192,
            placement: Placement::Sequential,
        },
    )
    .expect("generated document imports cleanly");
    TreeStore::open(
        Box::new(dev),
        meta,
        BufferParams::default(),
        Rc::new(SimClock::new()),
    )
}

fn bench_navigation(c: &mut Criterion) {
    let store = store_for_micro();
    let cluster = store.fix_node(store.root());
    let test = ResolvedTest::resolve(&NodeTest::AnyElement, &store.meta.symbols);
    let counters = NavCounters::default();
    let clock = SimClock::new();
    let charge = NavCharge {
        clock: &clock,
        params: NavParams::default(),
        counters: &counters,
    };
    let mut group = c.benchmark_group("nav_step_cursor");
    group.throughput(Throughput::Elements(cluster.len() as u64));
    group.bench_function("descendant_scan_cluster", |b| {
        b.iter(|| {
            let mut cursor = StepCursor::new(
                cluster.clone(),
                Entry::Fresh(store.root().slot),
                Axis::Descendant,
                test,
            );
            let mut n = 0u32;
            while cursor.next(&charge).is_some() {
                n += 1;
            }
            n
        })
    });
    group.finish();
}

fn bench_operators(c: &mut Criterion) {
    let mut opts = bench_options();
    opts.buffer_pages = 1 << 16; // more frames than pages: every fix hits
    let db = Database::from_xmark(0.05, &opts).expect("generated document imports cleanly");
    let mut group = c.benchmark_group("operators");
    for (name, query, method) in [
        ("warm_xscan_q15", Q15, Method::XScan),
        ("warm_xschedule_q7", Q7, Method::xschedule()),
    ] {
        let cfg = PlanConfig::new(method);
        db.run(query, &cfg).expect("warm-up run");
        group.bench_function(name, |b| {
            b.iter(|| db.run(query, &cfg).expect("query runs").value)
        });
    }
    group.finish();
}

fn bench_buffer_fix(c: &mut Criterion) {
    let store = store_for_micro();
    store.fix(store.meta.base_page); // warm
    c.bench_function("buffer_fix_hit", |b| {
        b.iter(|| store.fix(store.meta.base_page))
    });
}

fn bench_codec(c: &mut Criterion) {
    let store = store_for_micro();
    let view = store.fix_node(store.root());
    let owned = view.materialize().expect("well-formed payloads");
    let mut bytes = pathix_tree::node::encode_cluster(&owned, 8192);
    seal_page(&mut bytes);
    let image = verify_image(bytes.into()).expect("freshly sealed page");
    let clock = SimClock::new();
    let mut group = c.benchmark_group("page_codec");
    group.throughput(Throughput::Elements(view.len() as u64));
    group.bench_function("encode", |b| {
        b.iter(|| pathix_tree::node::encode_cluster(&owned, 8192))
    });
    group.bench_function("decode", |b| {
        b.iter(|| pathix_tree::node::decode_cluster(0, &image, &clock))
    });
    group.bench_function("materialize", |b| b.iter(|| view.materialize()));
    group.finish();
}

fn bench_xml(c: &mut Criterion) {
    let doc = pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(0.02));
    let text = pathix_xml::serialize(&doc);
    let mut group = c.benchmark_group("xml");
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("parse", |b| {
        b.iter(|| pathix_xml::parse(&text).expect("round-trip parses"))
    });
    group.bench_function("serialize", |b| b.iter(|| pathix_xml::serialize(&doc)));
    group.finish();
}

fn bench_generator(c: &mut Criterion) {
    c.bench_function("xmlgen_scale_0_05", |b| {
        b.iter(|| pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(0.05)))
    });
}

fn bench_import(c: &mut Criterion) {
    let doc = pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(0.05));
    c.bench_function("import_scale_0_05", |b| {
        b.iter(|| {
            let mut dev = MemDevice::new(8192);
            import_into(
                &mut dev,
                &doc,
                &ImportConfig {
                    page_size: 8192,
                    placement: Placement::Sequential,
                },
            )
            .expect("generated document imports cleanly")
            .1
            .clusters
        })
    });
}

criterion_group!(
    benches,
    bench_navigation,
    bench_operators,
    bench_buffer_fix,
    bench_codec,
    bench_xml,
    bench_generator,
    bench_import
);
criterion_main!(benches);
