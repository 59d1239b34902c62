//! Differential tests of the lazy cluster view. A page miss decodes only
//! record heads and leaves payloads in the pinned page image; these tests
//! check the heads and the zero-copy `text`/`attrs` against the owned
//! materialization on every page of a generated XMark document, and check
//! that updates starting from lazily loaded pages round-trip through
//! export.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

use pathix_storage::{seal_page, verify_image, BufferParams, Device, MemDevice, SimClock};
use pathix_tree::export::{export, export_scan};
use pathix_tree::node::{decode_cluster, encode_cluster, order_key, DECODE_NODE_NS};
use pathix_tree::{
    import_into, ImportConfig, InsertPos, NewNode, NodeId, NodeKind, Placement, TreeStore,
    TreeUpdater,
};
use pathix_xml::{Document, NodeRef};
use std::collections::BTreeMap;
use std::rc::Rc;

fn import(doc: &Document, page_size: usize) -> (MemDevice, pathix_tree::TreeMeta) {
    let mut dev = MemDevice::new(page_size);
    let cfg = ImportConfig {
        page_size,
        placement: Placement::Sequential,
    };
    let (meta, _) = import_into(&mut dev, doc, &cfg).unwrap();
    (dev, meta)
}

#[test]
fn view_matches_materialization_on_every_xmark_page() {
    let doc = pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(0.05));
    let (mut dev, meta) = import(&doc, 8192);
    let clock = SimClock::new();
    let (mut texts, mut attrs) = (0usize, 0usize);
    for page in meta.page_range() {
        let bytes = dev.read_sync(page, &clock).unwrap();
        let image = verify_image(bytes.clone()).unwrap();
        let before = clock.cpu_ns();
        let view = decode_cluster(page, &image, &clock);
        assert_eq!(
            clock.cpu_ns() - before,
            DECODE_NODE_NS * view.len() as u64,
            "decode charges every record"
        );
        let owned = view.materialize().unwrap();
        // The materialization is exact: it re-encodes to the page it came
        // from, byte for byte.
        let mut again = encode_cluster(&owned, 8192);
        seal_page(&mut again);
        assert_eq!(&again[..], &bytes[..], "page {page}");
        assert_eq!(owned.len(), view.len());
        for (slot, (head, node)) in (0u16..).zip(view.heads().iter().zip(&owned.nodes)) {
            assert_eq!(head.kind(), node.kind.head(), "{page}:{slot}");
            assert_eq!(head.parent(), node.parent);
            assert_eq!(head.first_child(), node.first_child);
            assert_eq!(head.next_sibling(), node.next_sibling);
            assert_eq!(head.prev_sibling(), node.prev_sibling);
            assert_eq!(head.order(), node.order);
            match &node.kind {
                NodeKind::Text(t) => {
                    assert_eq!(view.text(slot).unwrap(), &**t);
                    texts += 1;
                }
                NodeKind::Element { attrs: want, .. } => {
                    let got: Vec<_> = view.attrs(slot).unwrap().collect();
                    let want: Vec<_> = want.iter().map(|(n, v)| (*n, &**v)).collect();
                    assert_eq!(got, want);
                    attrs += want.len();
                }
                _ => assert!(view.text(slot).is_err() && view.attrs(slot).is_err()),
            }
        }
    }
    assert!(texts > 1000, "only {texts} text nodes compared");
    assert!(attrs > 100, "only {attrs} attributes compared");
}

/// Stored NodeId of every logical node, by the document's preorder rank.
fn stored_ids(doc: &Document, store: &TreeStore) -> Vec<NodeId> {
    let mut by_order = BTreeMap::new();
    for page in store.meta.page_range() {
        let c = store.fix(page);
        for (slot, n) in (0u16..).zip(c.heads()) {
            if n.kind().is_core() {
                by_order.insert(n.order(), NodeId::new(page, slot));
            }
        }
    }
    doc.preorder_ranks()
        .iter()
        .map(|&rank| by_order[&order_key(rank)])
        .collect()
}

#[test]
fn update_after_lazy_load_roundtrips_through_export() {
    let mut doc = Document::new("site");
    let items = doc.add_element(doc.root(), "items");
    doc.set_attr(items, "note", "größe ✓");
    let mut item: Vec<NodeRef> = Vec::new();
    let mut text: Vec<NodeRef> = Vec::new();
    for i in 0..40 {
        let it = doc.add_element(items, "item");
        doc.set_attr(it, "id", &format!("i{i}"));
        doc.set_attr(it, "lang", "日本語");
        text.push(doc.add_text(it, &format!("текст {i}")));
        item.push(it);
    }
    let (dev, meta) = import(&doc, 512);
    let mut store = TreeStore::open(
        Box::new(dev),
        meta,
        BufferParams::default(),
        Rc::new(SimClock::new()),
    );
    assert!(store.meta.page_count > 4, "the document spans pages");
    // Every page is now cached as a lazy view; the updates below load
    // their pages from those views.
    let ids = stored_ids(&doc, &store);
    let id = |n: NodeRef| ids[n.0 as usize];
    let (t7, i3, i10, i20) = (id(text[7]), id(item[3]), id(item[10]), id(item[20]));

    let mut up = TreeUpdater::new(&mut store);
    up.update_text(t7, "ändert ✓").unwrap();
    up.insert(InsertPos::After(i3), NewNode::Element("new".into()))
        .unwrap();
    up.insert(InsertPos::FirstChildOf(i10), NewNode::Text("前".into()))
        .unwrap();
    up.delete(i20).unwrap();
    up.commit();

    doc.set_text(text[7], "ändert ✓");
    doc.insert_element_after(item[3], "new");
    doc.insert_text_first(item[10], "前");
    doc.detach(item[20]);
    assert!(doc.logically_equal(&export(&store)));
    assert!(doc.logically_equal(&export_scan(&store)));
}
