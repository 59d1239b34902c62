//! Stored node records, clusters, and their page encoding.
//!
//! A cluster is one slotted page read as a mini-tree of nodes addressed by
//! slot number. Core nodes (elements, text) carry the logical document
//! content; border nodes proxy edges to other clusters (§3.4).
//!
//! A cluster has two forms:
//!
//! * The read side, [`Cluster`], is what the buffer caches: a structural
//!   view over the page's pinned, checksum-verified image. A page miss
//!   decodes only the fixed-width head of each record ([`NodeHead`]: kind,
//!   tag, links, order key, border target) — everything navigation reads.
//!   Text and attribute payloads stay in the image and are sliced out
//!   zero-copy by [`Cluster::text`] and [`Cluster::attrs`].
//! * The write side, [`OwnedCluster`] of [`Node`] records, is the owned,
//!   mutable form the importer and the updater build and encode.
//!   [`Cluster::materialize`] is the one bridge from the view to it.

use pathix_storage::{PageId, SimClock, SlottedPageBuilder, SlottedPageReader, VerifiedPage};
use pathix_xml::Symbol;
use std::fmt;

/// Spacing between consecutive document-order keys at import time. The gap
/// leaves room for `ORDER_SPACING − 1` insertions between any two adjacent
/// nodes before a local key range is exhausted — the insert-friendly
/// labelling the paper assumes via ORDPATHs (§5.5), realized as gapped
/// integer keys.
pub const ORDER_SPACING: u64 = 1 << 16;

/// The order key assigned to preorder rank `rank` at import time.
#[inline]
pub fn order_key(rank: u64) -> u64 {
    rank * ORDER_SPACING
}

/// Identifier of a stored node: record id = (page, slot) — the typical
/// NodeID form of the paper's Example 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId {
    /// Page (= cluster) number.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

impl NodeId {
    /// Constructs a node id.
    pub fn new(page: PageId, slot: u16) -> Self {
        Self { page, slot }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.page, self.slot)
    }
}

/// Payload of a stored node, in the owned record form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// Tombstone: a deleted record. Keeps slot numbers stable so border
    /// companions in other clusters stay valid; never linked into any
    /// chain, never matched by navigation.
    Free,
    /// Core element node with an interned tag and its attributes.
    /// Attributes are payload only — they are not navigable (the paper's
    /// model ignores the attribute axis) but are preserved for export.
    Element {
        /// Interned tag.
        tag: Symbol,
        /// Attribute name/value pairs.
        attrs: Box<[(Symbol, Box<str>)]>,
    },
    /// Core text node with inline content.
    Text(Box<str>),
    /// Border node standing for a child subtree stored in another cluster;
    /// `target` is the companion `BorderUp` node.
    BorderDown {
        /// Companion border node on the far side of the edge.
        target: NodeId,
    },
    /// Border node rooting one subtree of a cluster's forest, standing for
    /// the remote parent; `target` is the companion `BorderDown` node.
    BorderUp {
        /// Companion border node on the far side of the edge.
        target: NodeId,
    },
}

impl NodeKind {
    /// Convenience constructor for an attribute-less element.
    pub fn elem(tag: Symbol) -> Self {
        NodeKind::Element {
            tag,
            attrs: Box::new([]),
        }
    }

    /// The payload-free kind of this record.
    pub fn head(&self) -> HeadKind {
        match self {
            NodeKind::Free => HeadKind::Free,
            NodeKind::Element { tag, .. } => HeadKind::Element { tag: *tag },
            NodeKind::Text(_) => HeadKind::Text,
            NodeKind::BorderDown { target } => HeadKind::BorderDown { target: *target },
            NodeKind::BorderUp { target } => HeadKind::BorderUp { target: *target },
        }
    }

    /// True for element/text core nodes.
    pub fn is_core(&self) -> bool {
        self.head().is_core()
    }

    /// The companion border NodeId, for border nodes (the paper's
    /// `target(x)` operation, §3.4).
    pub fn target(&self) -> Option<NodeId> {
        self.head().target()
    }
}

/// One stored node in the owned record form: payload plus intra-cluster
/// structure links and the document-order key (an ORDPATH-substitute
/// preorder rank, §5.5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Payload.
    pub kind: NodeKind,
    /// Parent slot within this cluster (`None` for the cluster root).
    pub parent: Option<u16>,
    /// First child slot within this cluster.
    pub first_child: Option<u16>,
    /// Next sibling slot within this cluster.
    pub next_sibling: Option<u16>,
    /// Previous sibling slot within this cluster.
    pub prev_sibling: Option<u16>,
    /// Document preorder rank (for core nodes: the logical node's rank;
    /// for borders: the rank of the node the companion stands next to).
    pub order: u64,
}

/// The owned, mutable form of one cluster: what the importer and the
/// updater build and [`encode_cluster`] serializes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedCluster {
    /// The page this cluster lives on.
    pub page: PageId,
    /// Nodes by slot.
    pub nodes: Vec<Node>,
}

impl OwnedCluster {
    /// Node at `slot`.
    ///
    /// # Panics
    /// Panics if the slot is out of range.
    #[inline]
    pub fn node(&self, slot: u16) -> &Node {
        &self.nodes[slot as usize]
    }

    /// Number of nodes in the cluster.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the cluster holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// The payload-free kind of a node: what navigation matches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadKind {
    /// Tombstone (see [`NodeKind::Free`]).
    Free,
    /// Core element node; its attributes stay in the page image.
    Element {
        /// Interned tag.
        tag: Symbol,
    },
    /// Core text node; its content stays in the page image.
    Text,
    /// Border node for a child subtree in another cluster.
    BorderDown {
        /// Companion `BorderUp` node.
        target: NodeId,
    },
    /// Border node standing for the remote parent.
    BorderUp {
        /// Companion `BorderDown` node.
        target: NodeId,
    },
}

impl HeadKind {
    /// True for element/text core nodes.
    pub fn is_core(&self) -> bool {
        matches!(self, HeadKind::Element { .. } | HeadKind::Text)
    }

    /// True for either border variant.
    pub fn is_border(&self) -> bool {
        matches!(
            self,
            HeadKind::BorderDown { .. } | HeadKind::BorderUp { .. }
        )
    }

    /// The companion border NodeId, for border nodes (the paper's
    /// `target(x)` operation, §3.4).
    pub fn target(&self) -> Option<NodeId> {
        match self {
            HeadKind::BorderDown { target } | HeadKind::BorderUp { target } => Some(*target),
            _ => None,
        }
    }
}

// --- encoding ---------------------------------------------------------
//
// Record layout (little endian):
//   u8   kind (0 element, 1 text, 2 border-down, 3 border-up, 4 free)
//   u16  parent + 1        (0 = none)
//   u16  first_child + 1
//   u16  next_sibling + 1
//   u16  prev_sibling + 1
//   u64  order
//   payload:
//     element:     u32 tag symbol, u16 attr count,
//                  per attr: u32 name symbol, u16 len, bytes
//     text:        u16 len, bytes
//     border-*:    u32 target page, u16 target slot
// A free record is the kind byte alone.

const KIND_ELEMENT: u8 = 0;
const KIND_TEXT: u8 = 1;
const KIND_BORDER_DOWN: u8 = 2;
const KIND_BORDER_UP: u8 = 3;
const KIND_FREE: u8 = 4;

const FIXED_HEAD: usize = 1 + 4 * 2 + 8;

/// Exact encoded size of a node record (used by the importer's packing
/// budget).
pub fn encoded_size(kind: &NodeKind) -> usize {
    FIXED_HEAD
        + match kind {
            NodeKind::Free => return 1,
            NodeKind::Element { attrs, .. } => {
                4 + 2 + attrs.iter().map(|(_, v)| 6 + v.len()).sum::<usize>()
            }
            NodeKind::Text(t) => 2 + t.len(),
            NodeKind::BorderDown { .. } | NodeKind::BorderUp { .. } => 6,
        }
}

fn put_link(buf: &mut Vec<u8>, link: Option<u16>) {
    let v = link.map(|s| s + 1).unwrap_or(0);
    buf.extend_from_slice(&v.to_le_bytes());
}

fn encode_node(node: &Node, buf: &mut Vec<u8>) {
    let kind_byte = match &node.kind {
        NodeKind::Element { .. } => KIND_ELEMENT,
        NodeKind::Text(_) => KIND_TEXT,
        NodeKind::BorderDown { .. } => KIND_BORDER_DOWN,
        NodeKind::BorderUp { .. } => KIND_BORDER_UP,
        NodeKind::Free => {
            buf.push(KIND_FREE);
            return;
        }
    };
    buf.push(kind_byte);
    put_link(buf, node.parent);
    put_link(buf, node.first_child);
    put_link(buf, node.next_sibling);
    put_link(buf, node.prev_sibling);
    buf.extend_from_slice(&node.order.to_le_bytes());
    match &node.kind {
        NodeKind::Free => unreachable!("handled above"),
        NodeKind::Element { tag, attrs } => {
            buf.extend_from_slice(&tag.0.to_le_bytes());
            assert!(attrs.len() <= u16::MAX as usize, "too many attributes");
            buf.extend_from_slice(&(attrs.len() as u16).to_le_bytes());
            for (name, value) in attrs.iter() {
                buf.extend_from_slice(&name.0.to_le_bytes());
                assert!(value.len() <= u16::MAX as usize, "attribute too long");
                buf.extend_from_slice(&(value.len() as u16).to_le_bytes());
                buf.extend_from_slice(value.as_bytes());
            }
        }
        NodeKind::Text(t) => {
            assert!(t.len() <= u16::MAX as usize, "text record too long");
            buf.extend_from_slice(&(t.len() as u16).to_le_bytes());
            buf.extend_from_slice(t.as_bytes());
        }
        NodeKind::BorderDown { target } | NodeKind::BorderUp { target } => {
            buf.extend_from_slice(&target.page.to_le_bytes());
            buf.extend_from_slice(&target.slot.to_le_bytes());
        }
    }
}

/// Serializes a cluster into page bytes.
///
/// # Panics
/// Panics if the cluster exceeds the page size; the importer's budget
/// arithmetic guarantees it never does.
pub fn encode_cluster(cluster: &OwnedCluster, page_size: usize) -> Vec<u8> {
    let mut builder = SlottedPageBuilder::new(page_size);
    let mut buf = Vec::with_capacity(64);
    for node in &cluster.nodes {
        buf.clear();
        encode_node(node, &mut buf);
        builder.push(&buf);
    }
    builder.finish()
}

fn get_u16(b: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([b[at], b[at + 1]])
}

fn get_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

/// The length-prefixed UTF-8 string at `at` in `rec` and the offset just
/// past it; `None` if it runs past the record or is not UTF-8.
fn str_at(rec: &[u8], at: usize) -> Option<(&str, usize)> {
    let len = usize::from(get_u16(rec.get(at..at + 2)?, 0));
    let end = at + 2 + len;
    let text = std::str::from_utf8(rec.get(at + 2..end)?).ok()?;
    Some((text, end))
}

// --- the read side ----------------------------------------------------

/// The fixed-width head of one stored record: everything navigation reads,
/// and no payload. `Copy`, and at most 24 bytes, so a cluster's heads are
/// one flat allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeHead {
    order: u64,
    /// Parent, first child, next sibling, previous sibling, each stored as
    /// on the page: slot + 1, with 0 for none.
    links: [u16; 4],
    /// Element tag symbol, or border target page.
    arg: u32,
    /// Border target slot.
    target_slot: u16,
    /// Record kind byte (`KIND_*`).
    kind: u8,
}

const _: () = assert!(std::mem::size_of::<NodeHead>() <= 24);

impl NodeHead {
    fn decode(rec: &[u8]) -> Self {
        let kind = rec[0];
        if kind == KIND_FREE {
            return Self {
                order: 0,
                links: [0; 4],
                arg: 0,
                target_slot: 0,
                kind,
            };
        }
        let (arg, target_slot) = match kind {
            KIND_ELEMENT => (get_u32(rec, 17), 0),
            KIND_TEXT => (0, 0),
            KIND_BORDER_DOWN | KIND_BORDER_UP => (get_u32(rec, 17), get_u16(rec, 21)),
            other => panic!("corrupt node record: kind {other}"),
        };
        Self {
            order: u64::from_le_bytes(rec[9..17].try_into().expect("order bytes")),
            links: [
                get_u16(rec, 1),
                get_u16(rec, 3),
                get_u16(rec, 5),
                get_u16(rec, 7),
            ],
            arg,
            target_slot,
            kind,
        }
    }

    /// The node's payload-free kind.
    #[inline]
    pub fn kind(&self) -> HeadKind {
        let target = NodeId::new(self.arg, self.target_slot);
        match self.kind {
            KIND_ELEMENT => HeadKind::Element {
                tag: Symbol(self.arg),
            },
            KIND_TEXT => HeadKind::Text,
            KIND_BORDER_DOWN => HeadKind::BorderDown { target },
            KIND_BORDER_UP => HeadKind::BorderUp { target },
            _ => HeadKind::Free,
        }
    }

    #[inline]
    fn link(&self, i: usize) -> Option<u16> {
        self.links[i].checked_sub(1)
    }

    /// Parent slot within this cluster (`None` for the cluster root).
    #[inline]
    pub fn parent(&self) -> Option<u16> {
        self.link(0)
    }

    /// First child slot within this cluster.
    #[inline]
    pub fn first_child(&self) -> Option<u16> {
        self.link(1)
    }

    /// Next sibling slot within this cluster.
    #[inline]
    pub fn next_sibling(&self) -> Option<u16> {
        self.link(2)
    }

    /// Previous sibling slot within this cluster.
    #[inline]
    pub fn prev_sibling(&self) -> Option<u16> {
        self.link(3)
    }

    /// Document preorder rank (see [`Node::order`]).
    #[inline]
    pub fn order(&self) -> u64 {
        self.order
    }
}

/// A payload read that found no valid payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadError {
    /// The node has no payload of the requested kind (e.g. `text` on an
    /// element).
    WrongKind(NodeId),
    /// The payload runs past its record or is not valid UTF-8.
    Malformed(NodeId),
}

impl fmt::Display for PayloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PayloadError::WrongKind(id) => write!(f, "node {id} has no such payload"),
            PayloadError::Malformed(id) => write!(f, "node {id} has a malformed payload"),
        }
    }
}

impl std::error::Error for PayloadError {}

/// The cached read-side form of one page: the node heads of its records
/// plus the pinned, verified page image their payloads are read from.
#[derive(Debug)]
pub struct Cluster {
    /// The page this cluster lives on.
    pub page: PageId,
    image: VerifiedPage,
    heads: Box<[NodeHead]>,
}

impl Cluster {
    /// Node head at `slot`.
    ///
    /// # Panics
    /// Panics if the slot is out of range.
    #[inline]
    pub fn node(&self, slot: u16) -> &NodeHead {
        &self.heads[slot as usize]
    }

    /// All node heads, by slot.
    pub fn heads(&self) -> &[NodeHead] {
        &self.heads
    }

    /// Number of nodes in the cluster.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// True if the cluster holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// The global id of the node at `slot`.
    pub fn id(&self, slot: u16) -> NodeId {
        NodeId::new(self.page, slot)
    }

    /// Slots of all border nodes in the cluster (used by the speculative
    /// instance generation of `XScan`/`XSchedule`).
    pub fn border_slots(&self) -> impl Iterator<Item = u16> + '_ {
        self.heads
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind().is_border())
            .map(|(i, _)| i as u16)
    }

    /// Number of core nodes.
    pub fn core_count(&self) -> usize {
        self.heads.iter().filter(|n| n.kind().is_core()).count()
    }

    /// The encoded record at `slot` if it has kind `kind`.
    fn record(&self, slot: u16, kind: u8) -> Result<&[u8], PayloadError> {
        match self.heads.get(slot as usize) {
            Some(head) if head.kind == kind => Ok(SlottedPageReader::new(&self.image).record(slot)),
            _ => Err(PayloadError::WrongKind(self.id(slot))),
        }
    }

    /// The content of the text node at `slot`, read from the page image
    /// without copying. The bytes are UTF-8 checked here; an invalid
    /// payload is an error, never a `&str`.
    pub fn text(&self, slot: u16) -> Result<&str, PayloadError> {
        let rec = self.record(slot, KIND_TEXT)?;
        str_at(rec, FIXED_HEAD)
            .map(|(text, _)| text)
            .ok_or(PayloadError::Malformed(self.id(slot)))
    }

    /// The attributes of the element at `slot`, values read from the page
    /// image without copying. Every value is UTF-8 checked before the
    /// first one is yielded.
    pub fn attrs(
        &self,
        slot: u16,
    ) -> Result<impl Iterator<Item = (Symbol, &str)> + '_, PayloadError> {
        let rec = self.record(slot, KIND_ELEMENT)?;
        let malformed = PayloadError::Malformed(self.id(slot));
        let count = rec
            .get(FIXED_HEAD + 4..FIXED_HEAD + 6)
            .map(|b| get_u16(b, 0))
            .ok_or(malformed)?;
        let mut attrs = Vec::new();
        let mut at = FIXED_HEAD + 6;
        for _ in 0..count {
            let name = rec.get(at..at + 4).ok_or(malformed)?;
            let (value, end) = str_at(rec, at + 4).ok_or(malformed)?;
            attrs.push((Symbol(get_u32(name, 0)), value));
            at = end;
        }
        Ok(attrs.into_iter())
    }

    /// Materializes the owned record form of this cluster, copying every
    /// payload out of the image. This is the one bridge from the read
    /// side to the write side; the updater uses it to modify a page.
    pub fn materialize(&self) -> Result<OwnedCluster, PayloadError> {
        let mut nodes = Vec::with_capacity(self.heads.len());
        for (slot, head) in (0u16..).zip(self.heads.iter()) {
            let kind = match head.kind() {
                HeadKind::Free => NodeKind::Free,
                HeadKind::Element { tag } => NodeKind::Element {
                    tag,
                    attrs: self.attrs(slot)?.map(|(n, v)| (n, v.into())).collect(),
                },
                HeadKind::Text => NodeKind::Text(self.text(slot)?.into()),
                HeadKind::BorderDown { target } => NodeKind::BorderDown { target },
                HeadKind::BorderUp { target } => NodeKind::BorderUp { target },
            };
            nodes.push(Node {
                kind,
                parent: head.parent(),
                first_child: head.first_child(),
                next_sibling: head.next_sibling(),
                prev_sibling: head.prev_sibling(),
                order: head.order(),
            });
        }
        Ok(OwnedCluster {
            page: self.page,
            nodes,
        })
    }
}

/// CPU cost of decoding one node record (representation change, §3.6).
pub const DECODE_NODE_NS: u64 = 700;

/// Decodes a verified page image into a cluster view, charging the
/// representation-change cost of every record. Only the record heads are
/// decoded; the cluster pins `image` for its payloads.
pub fn decode_cluster(page: PageId, image: &VerifiedPage, clock: &SimClock) -> Cluster {
    let heads: Box<[NodeHead]> = SlottedPageReader::new(image)
        .iter()
        .map(NodeHead::decode)
        .collect();
    clock.charge_cpu(DECODE_NODE_NS * heads.len() as u64);
    Cluster {
        page,
        image: image.clone(),
        heads,
    }
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use pathix_storage::{seal_page, verify_image};

    fn node(kind: NodeKind, links: [Option<u16>; 4], order: u64) -> Node {
        let [parent, first_child, next_sibling, prev_sibling] = links;
        Node {
            kind,
            parent,
            first_child,
            next_sibling,
            prev_sibling,
            order,
        }
    }

    fn sample_cluster() -> OwnedCluster {
        OwnedCluster {
            page: 7,
            nodes: vec![
                node(
                    NodeKind::BorderUp {
                        target: NodeId::new(3, 9),
                    },
                    [None, Some(1), None, None],
                    41,
                ),
                node(
                    NodeKind::Element {
                        tag: Symbol(12),
                        attrs: Box::new([(Symbol(3), "v1".into())]),
                    },
                    [Some(0), Some(2), None, None],
                    42,
                ),
                node(
                    NodeKind::Text("hello world".into()),
                    [Some(1), None, Some(3), None],
                    43,
                ),
                node(
                    NodeKind::BorderDown {
                        target: NodeId::new(9, 0),
                    },
                    [Some(1), None, None, Some(2)],
                    44,
                ),
            ],
        }
    }

    /// Encodes, seals and verifies `c`, then decodes the view of it.
    fn view(c: &OwnedCluster, page_size: usize, clock: &SimClock) -> Cluster {
        let mut bytes = encode_cluster(c, page_size);
        seal_page(&mut bytes);
        let image = verify_image(bytes.into()).expect("freshly sealed page");
        decode_cluster(c.page, &image, clock)
    }

    /// Checks the view of `c` against `c` itself: every head, every
    /// payload, and the materialization.
    fn assert_view_matches(c: &OwnedCluster, page_size: usize) {
        let clock = SimClock::new();
        let v = view(c, page_size, &clock);
        assert_eq!(clock.cpu_ns(), DECODE_NODE_NS * c.len() as u64);
        assert_eq!(v.len(), c.len());
        for (slot, (head, node)) in (0u16..).zip(v.heads().iter().zip(&c.nodes)) {
            assert_eq!(head.kind(), node.kind.head(), "slot {slot}");
            if node.kind != NodeKind::Free {
                assert_eq!(head.parent(), node.parent);
                assert_eq!(head.first_child(), node.first_child);
                assert_eq!(head.next_sibling(), node.next_sibling);
                assert_eq!(head.prev_sibling(), node.prev_sibling);
                assert_eq!(head.order(), node.order);
            }
            match &node.kind {
                NodeKind::Text(t) => {
                    assert_eq!(v.text(slot), Ok(&**t));
                    assert!(v.attrs(slot).is_err());
                }
                NodeKind::Element { attrs, .. } => {
                    let got: Vec<(Symbol, &str)> = v.attrs(slot).unwrap().collect();
                    let want: Vec<(Symbol, &str)> = attrs.iter().map(|(n, s)| (*n, &**s)).collect();
                    assert_eq!(got, want);
                    assert_eq!(v.text(slot), Err(PayloadError::WrongKind(v.id(slot))));
                }
                _ => {
                    assert!(v.text(slot).is_err());
                    assert!(v.attrs(slot).is_err());
                }
            }
        }
        // Tombstones materialize with cleared links, as they encode.
        let mut want = c.clone();
        for n in want.nodes.iter_mut().filter(|n| n.kind == NodeKind::Free) {
            *n = node(NodeKind::Free, [None; 4], 0);
        }
        assert_eq!(v.materialize().unwrap(), want);
    }

    #[test]
    fn encode_decode_roundtrip() {
        assert_view_matches(&sample_cluster(), 4096);
    }

    #[test]
    fn edge_case_payloads_roundtrip() {
        let long = "é".repeat(32_000) + "x"; // 64,001 bytes, near the u16 limit
        let many: Box<[(Symbol, Box<str>)]> = (0..200)
            .map(|i| (Symbol(i), format!("v{i}·ü").into()))
            .collect();
        let c = OwnedCluster {
            page: 2,
            nodes: vec![
                node(NodeKind::elem(Symbol(1)), [None, Some(1), None, None], 10),
                node(
                    NodeKind::Text("".into()),
                    [Some(0), None, Some(2), None],
                    11,
                ),
                node(
                    NodeKind::Text("日本語 ✓ 𝄞".into()),
                    [Some(0), None, Some(3), Some(1)],
                    12,
                ),
                node(
                    NodeKind::Element {
                        tag: Symbol(u32::MAX),
                        attrs: many,
                    },
                    [Some(0), None, Some(5), Some(2)],
                    14,
                ),
                node(NodeKind::Free, [Some(0), Some(1), Some(5), None], 99),
                node(
                    NodeKind::BorderDown {
                        target: NodeId::new(u32::MAX, u16::MAX),
                    },
                    [Some(0), None, None, Some(3)],
                    u64::MAX,
                ),
                node(
                    NodeKind::BorderUp {
                        target: NodeId::new(0, 0),
                    },
                    [None; 4],
                    0,
                ),
            ],
        };
        assert_view_matches(&c, 1 << 16);
        let c = OwnedCluster {
            page: 3,
            nodes: vec![
                node(NodeKind::elem(Symbol(1)), [None, Some(1), None, None], 10),
                node(NodeKind::Text(long.into()), [Some(0), None, None, None], 11),
            ],
        };
        assert_view_matches(&c, 1 << 16);
    }

    #[test]
    fn invalid_utf8_payload_is_an_error() {
        let c = OwnedCluster {
            page: 1,
            nodes: vec![
                node(NodeKind::Text("abcd".into()), [None; 4], 1),
                node(
                    NodeKind::Element {
                        tag: Symbol(0),
                        attrs: Box::new([(Symbol(1), "wxyz".into())]),
                    },
                    [None; 4],
                    2,
                ),
            ],
        };
        let mut bytes = encode_cluster(&c, 256);
        for needle in [&b"abcd"[..], &b"wxyz"[..]] {
            let at = bytes.windows(4).position(|w| w == needle).unwrap();
            bytes[at + 1] = 0xFF; // never valid in UTF-8
        }
        seal_page(&mut bytes);
        let image = verify_image(bytes.into()).unwrap();
        let v = decode_cluster(1, &image, &SimClock::new());
        assert_eq!(v.text(0), Err(PayloadError::Malformed(NodeId::new(1, 0))));
        assert!(matches!(v.attrs(1), Err(PayloadError::Malformed(_))));
        assert_eq!(
            v.materialize(),
            Err(PayloadError::Malformed(NodeId::new(1, 0)))
        );
        // The structure is intact: navigation never reads the payload.
        assert_eq!(v.node(1).kind(), HeadKind::Element { tag: Symbol(0) });

        // A text record cut off before its length prefix, and one whose
        // length runs past the record.
        let mut page = SlottedPageBuilder::new(128);
        let mut rec = vec![KIND_TEXT];
        rec.extend_from_slice(&[0; 16]);
        page.push(&rec);
        rec.extend_from_slice(&9u16.to_le_bytes());
        rec.extend_from_slice(b"short");
        page.push(&rec);
        let image = verify_image(page.finish().into()).unwrap();
        let v = decode_cluster(4, &image, &SimClock::new());
        assert_eq!(v.text(0), Err(PayloadError::Malformed(NodeId::new(4, 0))));
        assert_eq!(v.text(1), Err(PayloadError::Malformed(NodeId::new(4, 1))));
    }

    #[test]
    fn encoded_size_is_exact() {
        let c = sample_cluster();
        for n in &c.nodes {
            let mut buf = Vec::new();
            encode_node(n, &mut buf);
            assert_eq!(buf.len(), encoded_size(&n.kind));
        }
    }

    #[test]
    fn border_helpers() {
        let c = view(&sample_cluster(), 4096, &SimClock::new());
        let borders: Vec<u16> = c.border_slots().collect();
        assert_eq!(borders, vec![0, 3]);
        assert_eq!(c.core_count(), 2);
        assert_eq!(c.node(0).kind().target(), Some(NodeId::new(3, 9)));
        assert_eq!(c.node(1).kind().target(), None);
        assert!(c.node(3).kind().is_border());
        assert!(c.node(1).kind().is_core());
    }

    #[test]
    fn node_id_ordering_is_page_then_slot() {
        assert!(NodeId::new(1, 9) < NodeId::new(2, 0));
        assert!(NodeId::new(2, 1) < NodeId::new(2, 2));
        assert_eq!(NodeId::new(4, 4).to_string(), "4:4");
    }

    #[test]
    fn empty_cluster_roundtrip() {
        let c = OwnedCluster {
            page: 0,
            nodes: vec![],
        };
        let back = view(&c, 128, &SimClock::new());
        assert!(back.is_empty());
        assert_eq!(back.materialize().unwrap(), c);
    }
}
