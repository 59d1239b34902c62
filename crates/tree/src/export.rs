//! Export: reconstructs the logical [`Document`] from a stored tree by
//! walking all clusters across borders. Used for round-trip verification
//! (import ∘ export ≡ identity) and by the document-export use case the
//! paper's outlook mentions.

use crate::node::{Cluster, HeadKind};
use crate::store::TreeStore;
use pathix_storage::PageId;
use pathix_xml::{Document, NodeRef};
use std::collections::HashMap;
use std::rc::Rc;

/// Rebuilds the logical document from the store.
///
/// Fixes every page of the document through the buffer manager (sequentially
/// by following the tree structure), so it exercises exactly the structures
/// queries use.
pub fn export(store: &TreeStore) -> Document {
    walk(store, |page| store.fix(page))
}

/// Rebuilds the logical document with a **single sequential scan** of the
/// document's pages, then stitches the clusters in memory — the
/// scan-friendly export the paper's outlook sketches ("speed up document
/// export, where our 'path instance' becomes the textual representation of
/// a whole document", §7). On a fragmented layout this replaces the
/// random page accesses of [`export`]'s structural walk with one scan.
pub fn export_scan(store: &TreeStore) -> Document {
    // Phase 1: one sequential pass pins every cluster.
    let clusters: HashMap<PageId, Rc<Cluster>> = store
        .meta
        .page_range()
        .map(|page| (page, store.fix(page)))
        .collect();
    // Phase 2: stitch in memory (no further I/O).
    walk(store, |page| Rc::clone(&clusters[&page]))
}

struct Frame {
    cluster: Rc<Cluster>,
    /// Next slot to process in the current sibling chain.
    cur: Option<u16>,
    /// Document node receiving the children.
    parent: NodeRef,
}

/// The stitch loop both exports share: a depth-first walk of the stored
/// tree from the root, crossing every `BorderDown` into the cluster that
/// `fetch` returns for its target page, reading text and attribute
/// payloads zero-copy from the clusters' images.
///
/// # Panics
/// Panics on a structurally invalid store (a non-element root, a proxy
/// root or tombstone inside a sibling chain) or a malformed payload.
fn walk(store: &TreeStore, mut fetch: impl FnMut(PageId) -> Rc<Cluster>) -> Document {
    let symbols = &store.meta.symbols;
    let root = store.root();
    let root_cluster = fetch(root.page);
    let root_node = *root_cluster.node(root.slot);
    let HeadKind::Element { tag } = root_node.kind() else {
        panic!("document root must be an element");
    };
    let mut doc = Document::new(symbols.name(tag));
    let doc_root = doc.root();
    copy_attrs(store, &mut doc, doc_root, &root_cluster, root.slot);
    let mut stack = vec![Frame {
        cur: root_node.first_child(),
        cluster: root_cluster,
        parent: doc_root,
    }];
    while let Some(frame) = stack.last_mut() {
        let Some(slot) = frame.cur else {
            stack.pop();
            continue;
        };
        let node = *frame.cluster.node(slot);
        frame.cur = node.next_sibling();
        let (first, parent, remote) = match node.kind() {
            HeadKind::Element { tag } => {
                let el = doc.add_element(frame.parent, symbols.name(tag));
                copy_attrs(store, &mut doc, el, &frame.cluster, slot);
                (node.first_child(), el, None)
            }
            HeadKind::Text => {
                let text = frame.cluster.text(slot).expect("well-formed text payload");
                doc.add_text(frame.parent, text);
                continue;
            }
            HeadKind::BorderDown { target } => {
                // Continue this chain position inside the companion cluster:
                // the BorderUp's children are the deferred children.
                let next = fetch(target.page);
                debug_assert!(matches!(
                    next.node(target.slot).kind(),
                    HeadKind::BorderUp { .. }
                ));
                (
                    next.node(target.slot).first_child(),
                    frame.parent,
                    Some(next),
                )
            }
            HeadKind::BorderUp { .. } | HeadKind::Free => {
                unreachable!("proxy root or tombstone inside a sibling chain")
            }
        };
        if first.is_some() {
            let cluster = remote.unwrap_or_else(|| Rc::clone(&frame.cluster));
            stack.push(Frame {
                cluster,
                cur: first,
                parent,
            });
        }
    }
    doc
}

/// Copies the attributes of the element at `slot` onto `el`.
fn copy_attrs(store: &TreeStore, doc: &mut Document, el: NodeRef, cluster: &Cluster, slot: u16) {
    let attrs = cluster.attrs(slot).expect("well-formed attribute payload");
    for (name, value) in attrs {
        doc.set_attr(el, store.meta.symbols.name(name), value);
    }
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::import::{import_into, ImportConfig, Placement};
    use crate::store::TreeStore;
    use pathix_storage::{BufferParams, MemDevice, SimClock};
    use std::rc::Rc;

    fn roundtrip(doc: &Document, page_size: usize, placement: Placement) {
        let mut dev = MemDevice::new(page_size);
        let cfg = ImportConfig {
            page_size,
            placement,
        };
        let (meta, _) = import_into(&mut dev, doc, &cfg).unwrap();
        let store = TreeStore::open(
            Box::new(dev),
            meta,
            BufferParams::default(),
            Rc::new(SimClock::new()),
        );
        let back = export(&store);
        assert!(
            doc.logically_equal(&back),
            "export must reproduce the logical document"
        );
    }

    fn rich_doc() -> Document {
        let mut d = Document::new("site");
        let r = d.add_element(d.root(), "regions");
        d.set_attr(r, "count", "3");
        for i in 0..20 {
            let item = d.add_element(r, "item");
            d.set_attr(item, "id", &format!("i{i}"));
            let name = d.add_element(item, "name");
            d.add_text(name, "a reasonably long text payload for splitting");
            let desc = d.add_element(item, "description");
            let list = d.add_element(desc, "parlist");
            for _ in 0..3 {
                let li = d.add_element(list, "listitem");
                d.add_text(li, "item text content");
            }
        }
        d
    }

    #[test]
    fn roundtrip_single_page() {
        roundtrip(&rich_doc(), 1 << 16, Placement::Sequential);
    }

    #[test]
    fn roundtrip_many_small_pages() {
        roundtrip(&rich_doc(), 256, Placement::Sequential);
    }

    #[test]
    fn roundtrip_shuffled() {
        roundtrip(&rich_doc(), 256, Placement::Shuffled { seed: 42 });
    }

    #[test]
    fn roundtrip_strided() {
        roundtrip(&rich_doc(), 256, Placement::Strided { stride: 4 });
    }

    #[test]
    fn roundtrip_deep_chain() {
        let mut d = Document::new("r");
        let mut cur = d.root();
        for _ in 0..500 {
            cur = d.add_element(cur, "n");
        }
        d.add_text(cur, "leaf");
        roundtrip(&d, 256, Placement::Sequential);
    }

    #[test]
    fn export_scan_equals_export() {
        let doc = rich_doc();
        let mut dev = MemDevice::new(256);
        let cfg = ImportConfig {
            page_size: 256,
            placement: Placement::Shuffled { seed: 12 },
        };
        let (meta, _) = import_into(&mut dev, &doc, &cfg).unwrap();
        let store = TreeStore::open(
            Box::new(dev),
            meta,
            BufferParams::default(),
            Rc::new(SimClock::new()),
        );
        let a = export(&store);
        let b = export_scan(&store);
        assert!(a.logically_equal(&b));
        assert!(doc.logically_equal(&b));
    }

    #[test]
    fn export_scan_reads_sequentially() {
        let doc = rich_doc();
        let mut dev = MemDevice::new(256);
        let cfg = ImportConfig {
            page_size: 256,
            placement: Placement::Shuffled { seed: 12 },
        };
        let (meta, _) = import_into(&mut dev, &doc, &cfg).unwrap();
        let store = TreeStore::open(
            Box::new(dev),
            meta,
            BufferParams {
                capacity: 4096,
                ..Default::default()
            },
            Rc::new(SimClock::new()),
        );
        store.buffer.device_mut().set_trace(true);
        let _ = export_scan(&store);
        let trace = store.buffer.device_mut().access_trace().to_vec();
        let expect: Vec<u32> = store.meta.page_range().collect();
        assert_eq!(trace, expect, "one pass, physical order");
    }

    #[test]
    fn roundtrip_wide_fanout() {
        let mut d = Document::new("r");
        for _ in 0..800 {
            d.add_element(d.root(), "c");
        }
        roundtrip(&d, 256, Placement::Shuffled { seed: 1 });
    }
}
