//! In-place updates on the stored tree — the capability that motivates the
//! paper's storage-model requirements: the method must be "applicable on a
//! wide range of efficient and **updatable** storage formats" (§1, req. 2),
//! unlike the scan-only competitors whose preorder numberings "are
//! difficult to maintain during updates" (§2).
//!
//! Updates work directly on pages:
//!
//! * **Order keys** are gapped integers ([`crate::node::ORDER_SPACING`]);
//!   an insert takes the midpoint of its document-order neighbours' keys
//!   (the ORDPATH-substitute of §5.5). When a local gap is exhausted the
//!   operation fails with [`UpdateError::OrderKeyExhausted`] — recovery is
//!   an export/import relabel, as with any gapped scheme.
//! * **Slots are stable**: deleted records become [`NodeKind::Free`]
//!   tombstones, so NodeIDs held by border companions in other clusters
//!   stay valid (compaction is an offline export/import).
//! * **Overflow** allocates a page at the end of the document and links it
//!   with a border pair, exactly like the importer's chain split — updates
//!   therefore *fragment* the physical layout over time, which is the
//!   premise of the paper's introduction (see the `aging` experiment).

use crate::node::{
    encode_cluster, encoded_size, Cluster, HeadKind, Node, NodeId, NodeKind, OwnedCluster,
    PayloadError,
};
use crate::store::TreeStore;
use pathix_storage::{seal_page, PageId, CHECKSUM_LEN};
use pathix_xml::Symbol;
use std::fmt;
use std::rc::Rc;

/// Update failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// No order key remains between the insert position's neighbours.
    OrderKeyExhausted,
    /// The page cannot take even a border proxy; offline reorganization
    /// (export/import) is required.
    ClusterFull {
        /// The full page.
        page: PageId,
    },
    /// Structural misuse (inserting under a text node, deleting the root,
    /// text update on an element, …).
    InvalidTarget(&'static str),
    /// A stored payload on a page to be rewritten is malformed.
    Payload(PayloadError),
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::OrderKeyExhausted => {
                write!(f, "no order key space left at this position")
            }
            UpdateError::ClusterFull { page } => write!(f, "page {page} is full"),
            UpdateError::InvalidTarget(m) => write!(f, "invalid update target: {m}"),
            UpdateError::Payload(e) => write!(f, "cannot rewrite page: {e}"),
        }
    }
}

impl std::error::Error for UpdateError {}

impl From<PayloadError> for UpdateError {
    fn from(e: PayloadError) -> Self {
        UpdateError::Payload(e)
    }
}

/// Where to insert a new node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertPos {
    /// As the first child of this element.
    FirstChildOf(NodeId),
    /// As the next sibling of this node.
    After(NodeId),
}

/// What to insert.
#[derive(Debug, Clone)]
pub enum NewNode {
    /// An element with the given tag name.
    Element(String),
    /// A text node with the given content.
    Text(String),
}

/// Mutating handle over a store. Hold no `Rc<Cluster>` from this store
/// while updating: written pages are invalidated in the buffer, which
/// asserts that no pins remain.
pub struct TreeUpdater<'a> {
    store: &'a mut TreeStore,
}

impl<'a> TreeUpdater<'a> {
    /// Creates an updater. The device must hold only this document behind
    /// `page_range()` (overflow pages are appended at its end).
    pub fn new(store: &'a mut TreeStore) -> Self {
        Self { store }
    }

    /// The owned, editable records of `page`, materialized from its
    /// cached view.
    fn load(&self, page: PageId) -> Result<OwnedCluster, UpdateError> {
        Ok(self.store.fix(page).materialize()?)
    }

    /// Encoded byte size of a cluster, including the slot directory.
    fn cluster_bytes(c: &OwnedCluster) -> usize {
        2 + (c.len() + 1) * 2 + c.nodes.iter().map(|n| encoded_size(&n.kind)).sum::<usize>()
    }

    fn write(&self, cluster: &OwnedCluster) {
        let page_size = self.store.buffer.device_mut().page_size();
        debug_assert!(Self::cluster_bytes(cluster) <= page_size - CHECKSUM_LEN);
        let mut bytes = encode_cluster(cluster, page_size);
        // Seal before logging, so WAL after-images carry the checksum and
        // recovery can detect torn log records.
        seal_page(&mut bytes);
        // WAL protocol: log the after-image before the in-place write.
        if let Some(wal) = &self.store.wal {
            wal.borrow_mut().log_page(cluster.page, bytes.clone());
        }
        self.store.buffer.invalidate(cluster.page);
        self.store
            .buffer
            .device_mut()
            .write_page(cluster.page, bytes);
    }

    /// Commits all updates performed so far: flushes the attached WAL (a
    /// no-op without one).
    pub fn commit(&mut self) {
        if let Some(wal) = &self.store.wal {
            wal.borrow_mut().flush();
        }
    }

    fn fits(&self, cluster: &OwnedCluster, extra: &NodeKind) -> bool {
        let page_size = self.store.buffer.device_mut().page_size();
        Self::cluster_bytes(cluster) + 2 + encoded_size(extra) <= page_size - CHECKSUM_LEN
    }

    /// Document-order key of the last node of `slot`'s subtree, crossing
    /// borders.
    fn subtree_last_key(&self, cluster: &Rc<Cluster>, slot: u16) -> u64 {
        let mut cl = Rc::clone(cluster);
        let mut s = slot;
        loop {
            let node = cl.node(s);
            if let HeadKind::BorderDown { target } = node.kind() {
                cl = self.store.fix(target.page);
                s = target.slot;
                continue;
            }
            match node.first_child() {
                None => return node.order(),
                Some(first) => {
                    let mut c = first;
                    while let Some(n) = cl.node(c).next_sibling() {
                        c = n;
                    }
                    s = c;
                }
            }
        }
    }

    /// Order key of the next node after `slot`'s subtree in document order
    /// (`None` at the end of the document). Crosses borders upward.
    fn successor_key(&self, cluster: &Rc<Cluster>, slot: u16) -> Option<u64> {
        let mut cl = Rc::clone(cluster);
        let mut s = slot;
        loop {
            let node = cl.node(s);
            if let Some(ns) = node.next_sibling() {
                return Some(cl.node(ns).order());
            }
            match node.parent() {
                Some(p) => {
                    if let HeadKind::BorderUp { target } = cl.node(p).kind() {
                        cl = self.store.fix(target.page);
                        s = target.slot;
                    } else {
                        s = p;
                    }
                }
                None => return None,
            }
        }
    }

    fn midpoint(lo: u64, hi: Option<u64>) -> Result<u64, UpdateError> {
        match hi {
            Some(hi) => {
                if hi <= lo + 1 {
                    Err(UpdateError::OrderKeyExhausted)
                } else {
                    Ok(lo + (hi - lo) / 2)
                }
            }
            None => Ok(lo + crate::node::ORDER_SPACING),
        }
    }

    fn make_kind(&mut self, what: &NewNode) -> NodeKind {
        match what {
            NewNode::Element(tag) => {
                let sym = self.store.meta.symbols.intern(tag);
                let idx = sym.index() as usize;
                if self.store.meta.tag_counts.len() <= idx {
                    self.store.meta.tag_counts.resize(idx + 1, 0);
                    self.store.meta.tag_descendants.resize(idx + 1, 0);
                }
                NodeKind::elem(sym)
            }
            NewNode::Text(t) => NodeKind::Text(t.as_str().into()),
        }
    }

    fn bump_stats(&mut self, kind: &NodeKind) {
        self.store.meta.node_count += 1;
        if let NodeKind::Element { tag, .. } = kind {
            self.store.meta.element_count += 1;
            self.store.meta.tag_counts[tag.index() as usize] += 1;
            self.store.meta.tag_descendants[tag.index() as usize] += 1;
        }
    }

    /// Inserts a new leaf node at `pos`, returning its NodeId. Subtrees are
    /// built by repeated leaf inserts.
    pub fn insert(&mut self, pos: InsertPos, what: NewNode) -> Result<NodeId, UpdateError> {
        // 1. Determine the host cluster, the structural parent slot, the
        //    predecessor sibling slot (None = insert at chain head), and
        //    the order-key bounds.
        let (mut cluster, parent_slot, pred_slot, lo, hi) = match pos {
            InsertPos::FirstChildOf(p) => {
                let cl = self.store.fix(p.page);
                let parent = cl.node(p.slot);
                if !matches!(parent.kind(), HeadKind::Element { .. }) {
                    return Err(UpdateError::InvalidTarget(
                        "children can only be inserted under elements",
                    ));
                }
                let lo = parent.order();
                let hi = match parent.first_child() {
                    Some(fc) => Some(cl.node(fc).order()),
                    None => self.successor_key(&cl, p.slot),
                };
                (cl.materialize()?, p.slot, None, lo, hi)
            }
            InsertPos::After(s) => {
                let cl = self.store.fix(s.page);
                let node = cl.node(s.slot);
                if !node.kind().is_core() {
                    return Err(UpdateError::InvalidTarget(
                        "insert-after target must be a core node",
                    ));
                }
                let Some(parent_slot) = node.parent() else {
                    return Err(UpdateError::InvalidTarget(
                        "cannot insert a sibling of the document root",
                    ));
                };
                let lo = self.subtree_last_key(&cl, s.slot);
                let hi = self.successor_key(&cl, s.slot);
                (cl.materialize()?, parent_slot, Some(s.slot), lo, hi)
            }
        };
        let order = Self::midpoint(lo, hi)?;
        let kind = self.make_kind(&what);
        let page = cluster.page;

        if self.fits(&cluster, &kind) {
            let slot = Self::splice(&mut cluster, kind.clone(), parent_slot, pred_slot, order);
            self.write(&cluster);
            self.bump_stats(&kind);
            return Ok(NodeId::new(page, slot));
        }

        // 2. Overflow: the new node goes to a fresh page behind a border
        //    pair (the importer's chain-split, at update time). If even the
        //    proxy does not fit, relocate leaf records out of the page
        //    first.
        let border_kind = NodeKind::BorderDown {
            target: NodeId::new(0, 0), // patched below
        };
        if !self.fits(&cluster, &border_kind) {
            self.make_room(&mut cluster, 2 + encoded_size(&border_kind))?;
        }
        let new_page = {
            let mut dev = self.store.buffer.device_mut();
            assert_eq!(
                dev.num_pages(),
                self.store.meta.base_page + self.store.meta.page_count,
                "updater requires the document to be the device's last"
            );
            dev.append_page(Vec::new())
        };
        self.store.meta.page_count += 1;
        let down_slot = Self::splice(
            &mut cluster,
            NodeKind::BorderDown {
                target: NodeId::new(new_page, 0),
            },
            parent_slot,
            pred_slot,
            order,
        );
        let mut fresh = OwnedCluster {
            page: new_page,
            nodes: Vec::new(),
        };
        fresh.nodes.push(Node {
            kind: NodeKind::BorderUp {
                target: NodeId::new(page, down_slot),
            },
            parent: None,
            first_child: Some(1),
            next_sibling: None,
            prev_sibling: None,
            order,
        });
        fresh.nodes.push(Node {
            kind: kind.clone(),
            parent: Some(0),
            first_child: None,
            next_sibling: None,
            prev_sibling: None,
            order,
        });
        self.write(&cluster);
        self.write(&fresh);
        self.bump_stats(&kind);
        Ok(NodeId::new(new_page, 1))
    }

    /// Frees at least `needed` bytes in `cluster` by relocating its largest
    /// leaf records onto a fresh overflow page: each relocated record is
    /// replaced **in its own slot** by a `BorderDown` proxy (links and
    /// NodeIDs stay valid) whose companion `BorderUp` + record land on the
    /// overflow page. This is how update-time space management fragments a
    /// database over time.
    fn make_room(&mut self, cluster: &mut OwnedCluster, needed: usize) -> Result<(), UpdateError> {
        let page_size = self.store.buffer.device_mut().page_size();
        let border_bytes = encoded_size(&NodeKind::BorderDown {
            target: NodeId::new(0, 0),
        });
        // Candidates: core leaves whose relocation actually frees space.
        let mut candidates: Vec<(usize, u16)> = cluster
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind.is_core() && n.first_child.is_none())
            .map(|(i, n)| (encoded_size(&n.kind), i as u16))
            .filter(|&(sz, _)| sz > border_bytes)
            .collect();
        candidates.sort_unstable();
        let overflow_page = {
            let mut dev = self.store.buffer.device_mut();
            assert_eq!(
                dev.num_pages(),
                self.store.meta.base_page + self.store.meta.page_count,
                "updater requires the document to be the device's last"
            );
            dev.append_page(Vec::new())
        };
        self.store.meta.page_count += 1;
        let mut overflow = OwnedCluster {
            page: overflow_page,
            nodes: Vec::new(),
        };
        while Self::cluster_bytes(cluster) + needed > page_size - CHECKSUM_LEN {
            let Some((_, slot)) = candidates.pop() else {
                // Abandon the relocation. The caller drops its in-memory
                // `cluster` (with the proxies) unwritten on error, so the
                // overflow page must stay empty: writing the relocated
                // copies would duplicate live records on an orphan page.
                overflow.nodes.clear();
                self.write(&overflow);
                return Err(UpdateError::ClusterFull { page: cluster.page });
            };
            let moved = cluster.nodes[slot as usize].clone();
            let up_slot = overflow.nodes.len() as u16;
            overflow.nodes.push(Node {
                kind: NodeKind::BorderUp {
                    target: NodeId::new(cluster.page, slot),
                },
                parent: None,
                first_child: Some(up_slot + 1),
                next_sibling: None,
                prev_sibling: None,
                order: moved.order,
            });
            overflow.nodes.push(Node {
                kind: moved.kind,
                parent: Some(up_slot),
                first_child: None,
                next_sibling: None,
                prev_sibling: None,
                order: moved.order,
            });
            let rec = &mut cluster.nodes[slot as usize];
            rec.kind = NodeKind::BorderDown {
                target: NodeId::new(overflow_page, up_slot),
            };
            // parent/sibling links and the slot stay exactly as they were.
            rec.first_child = None;
        }
        self.write(&overflow);
        Ok(())
    }

    /// Splices a new record into `cluster` under `parent_slot`, after
    /// `pred_slot` (or at the head of the child chain).
    fn splice(
        cluster: &mut OwnedCluster,
        kind: NodeKind,
        parent_slot: u16,
        pred_slot: Option<u16>,
        order: u64,
    ) -> u16 {
        let slot = cluster.nodes.len() as u16;
        let (prev, next) = match pred_slot {
            Some(p) => (Some(p), cluster.node(p).next_sibling),
            None => (None, cluster.node(parent_slot).first_child),
        };
        cluster.nodes.push(Node {
            kind,
            parent: Some(parent_slot),
            first_child: None,
            next_sibling: next,
            prev_sibling: prev,
            order,
        });
        match prev {
            Some(p) => cluster.nodes[p as usize].next_sibling = Some(slot),
            None => cluster.nodes[parent_slot as usize].first_child = Some(slot),
        }
        if let Some(n) = next {
            cluster.nodes[n as usize].prev_sibling = Some(slot);
        }
        slot
    }

    /// Replaces the content of a stored text node in place.
    pub fn update_text(&mut self, node: NodeId, text: &str) -> Result<(), UpdateError> {
        let mut cluster = self.load(node.page)?;
        let n = &mut cluster.nodes[node.slot as usize];
        let NodeKind::Text(old) = &mut n.kind else {
            return Err(UpdateError::InvalidTarget("update_text needs a text node"));
        };
        let old_len = old.len();
        *old = text.into();
        let page_size = self.store.buffer.device_mut().page_size();
        if Self::cluster_bytes(&cluster) > page_size - CHECKSUM_LEN {
            let _ = old_len;
            return Err(UpdateError::ClusterFull { page: node.page });
        }
        self.write(&cluster);
        Ok(())
    }

    /// Deletes `node`'s whole subtree. Records become tombstones; empty
    /// border chains are cascaded away.
    pub fn delete(&mut self, node: NodeId) -> Result<(), UpdateError> {
        let cluster = self.store.fix(node.page);
        let target = cluster.node(node.slot);
        if !target.kind().is_core() {
            return Err(UpdateError::InvalidTarget("delete needs a core node"));
        }
        if target.parent().is_none() {
            return Err(UpdateError::InvalidTarget(
                "cannot delete the document root",
            ));
        }
        drop(cluster);
        self.unlink_and_tombstone(node)
    }

    fn unlink_and_tombstone(&mut self, node: NodeId) -> Result<(), UpdateError> {
        let mut cluster = self.load(node.page)?;
        // Unlink from the sibling chain.
        {
            let n = cluster.node(node.slot).clone();
            match n.prev_sibling {
                Some(p) => cluster.nodes[p as usize].next_sibling = n.next_sibling,
                None => {
                    if let Some(par) = n.parent {
                        cluster.nodes[par as usize].first_child = n.next_sibling;
                    }
                }
            }
            if let Some(nx) = n.next_sibling {
                cluster.nodes[nx as usize].prev_sibling = n.prev_sibling;
            }
        }
        // Tombstone the local subtree, collecting remote continuations.
        let mut remote: Vec<NodeId> = Vec::new();
        let mut stack = vec![node.slot];
        while let Some(s) = stack.pop() {
            let n = &cluster.nodes[s as usize];
            if let NodeKind::BorderDown { target } = &n.kind {
                remote.push(*target);
            }
            let mut c = n.first_child;
            while let Some(cs) = c {
                stack.push(cs);
                c = cluster.node(cs).next_sibling;
            }
            let n = &mut cluster.nodes[s as usize];
            if n.kind.is_core() {
                self.store.meta.node_count -= 1;
                if let NodeKind::Element { tag, .. } = &n.kind {
                    self.store.meta.element_count -= 1;
                    self.store.meta.tag_counts[tag.index() as usize] -= 1;
                }
            }
            n.kind = NodeKind::Free;
            n.parent = None;
            n.first_child = None;
            n.next_sibling = None;
            n.prev_sibling = None;
        }
        // Cascade: if the parent proxy chain became empty, remove it too.
        let parent_cleanup = {
            let orig = self.store.fix(node.page);
            let par = orig.node(node.slot).parent();
            drop(orig);
            par.and_then(|p| {
                let n = cluster.node(p);
                if matches!(n.kind, NodeKind::BorderUp { .. }) && n.first_child.is_none() {
                    n.kind.target().map(|t| (p, t))
                } else {
                    None
                }
            })
        };
        if let Some((up_slot, companion)) = parent_cleanup {
            cluster.nodes[up_slot as usize].kind = NodeKind::Free;
            cluster.nodes[up_slot as usize].first_child = None;
            self.write(&cluster);
            // The companion BorderDown sits in another cluster: delete it
            // like a subtree of its own (it has no children).
            self.unlink_and_tombstone_border(companion)?;
        } else {
            self.write(&cluster);
        }
        // Tombstone remote subtrees (each rooted at a BorderUp companion).
        for target in remote {
            self.tombstone_remote(target)?;
        }
        Ok(())
    }

    /// Tombstones a remote continuation rooted at a BorderUp companion.
    fn tombstone_remote(&mut self, up: NodeId) -> Result<(), UpdateError> {
        let mut cluster = self.load(up.page)?;
        let mut remote = Vec::new();
        let mut stack = vec![up.slot];
        while let Some(s) = stack.pop() {
            let n = &cluster.nodes[s as usize];
            if let NodeKind::BorderDown { target } = &n.kind {
                remote.push(*target);
            }
            let mut c = n.first_child;
            while let Some(cs) = c {
                stack.push(cs);
                c = cluster.node(cs).next_sibling;
            }
            let n = &mut cluster.nodes[s as usize];
            if n.kind.is_core() {
                self.store.meta.node_count -= 1;
                if let NodeKind::Element { tag, .. } = &n.kind {
                    self.store.meta.element_count -= 1;
                    self.store.meta.tag_counts[tag.index() as usize] -= 1;
                }
            }
            n.kind = NodeKind::Free;
            n.parent = None;
            n.first_child = None;
            n.next_sibling = None;
            n.prev_sibling = None;
        }
        self.write(&cluster);
        for target in remote {
            self.tombstone_remote(target)?;
        }
        Ok(())
    }

    /// Unlinks and tombstones a childless BorderDown proxy (cascade step).
    fn unlink_and_tombstone_border(&mut self, down: NodeId) -> Result<(), UpdateError> {
        let mut cluster = self.load(down.page)?;
        let n = cluster.node(down.slot).clone();
        debug_assert!(matches!(n.kind, NodeKind::BorderDown { .. }));
        match n.prev_sibling {
            Some(p) => cluster.nodes[p as usize].next_sibling = n.next_sibling,
            None => {
                if let Some(par) = n.parent {
                    cluster.nodes[par as usize].first_child = n.next_sibling;
                }
            }
        }
        if let Some(nx) = n.next_sibling {
            cluster.nodes[nx as usize].prev_sibling = n.prev_sibling;
        }
        let rec = &mut cluster.nodes[down.slot as usize];
        rec.kind = NodeKind::Free;
        rec.parent = None;
        rec.first_child = None;
        rec.next_sibling = None;
        rec.prev_sibling = None;
        // If the proxy's parent was a BorderUp whose chain is now empty,
        // cascade the cleanup to *its* companion.
        let cascade = n.parent.and_then(|p| {
            let pn = cluster.node(p);
            if matches!(pn.kind, NodeKind::BorderUp { .. }) && pn.first_child.is_none() {
                pn.kind.target().map(|t| (p, t))
            } else {
                None
            }
        });
        if let Some((up_slot, companion)) = cascade {
            cluster.nodes[up_slot as usize].kind = NodeKind::Free;
            self.write(&cluster);
            self.unlink_and_tombstone_border(companion)
        } else {
            self.write(&cluster);
            Ok(())
        }
    }

    /// Interns a tag name in the document's alphabet (helper for callers
    /// preparing [`NewNode::Element`] values in bulk).
    pub fn intern(&mut self, tag: &str) -> Symbol {
        self.store.meta.symbols.intern(tag)
    }
}
