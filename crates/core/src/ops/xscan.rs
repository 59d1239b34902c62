//! `XScan` (paper §5.4.3): the scan-based I/O operator.
//!
//! Visits **every cluster of the document exactly once**, in physical page
//! order, i.e. one sequential scan. For each cluster it emits
//!
//! 1. the context-node instances whose context lives in the cluster
//!    (contexts are materialized and grouped by cluster up front — the
//!    paper's "input sorted by cluster ID" requirement), and
//! 2. **speculative left-incomplete instances** `l_{b,i}` for every border
//!    node `b` and every step `i < |π|`, so that all information relevant
//!    to the path is extracted in this single visit — the cluster is never
//!    loaded again. They are charged when the cluster is visited and built
//!    one at a time as the consumer pulls them, so a visit materializes no
//!    queue of instances.
//!
//! In fallback mode (§5.4.6) the operator restarts its (materialized)
//! producer and degrades to the identity: it re-emits context nodes and the
//! now-border-crossing `XStep`s recompute the full result, deduplicated by
//! `XAssembly`'s surviving `R` structure.

use crate::context::ExecCtx;
use crate::instance::Pi;
use crate::ops::Operator;
use crate::FastMap;
use pathix_storage::PageId;
use pathix_tree::{Cluster, NodeId};
use std::collections::VecDeque;
use std::rc::Rc;

/// The speculative instances of the visited cluster still to be emitted:
/// `l_{b,i}` for the border `borders[next / |π|]` and step `next % |π|`.
/// Holding the cluster pins it exactly as long as instances remain.
struct Speculation {
    cluster: Rc<Cluster>,
    next: usize,
}

/// The sequential-scan I/O operator.
pub struct XScan {
    producer: Option<Box<dyn Operator>>,
    path_len: u16,
    pages: Vec<PageId>,
    pos: usize,
    ctx_by_page: FastMap<PageId, Vec<NodeId>>,
    all_contexts: Vec<NodeId>,
    /// Context instances of the visited cluster, emitted first.
    emit: VecDeque<Pi>,
    /// Border slots of the visited cluster (reused across visits).
    borders: Vec<u16>,
    spec: Option<Speculation>,
    /// Fallback restart state.
    fb_pos: Option<usize>,
}

impl XScan {
    /// Creates a scan over the document's page range.
    pub fn new(producer: Box<dyn Operator>, pages: Vec<PageId>, path_len: u16) -> Self {
        Self {
            producer: Some(producer),
            path_len,
            pages,
            pos: 0,
            ctx_by_page: FastMap::default(),
            all_contexts: Vec::new(),
            emit: VecDeque::new(),
            borders: Vec::new(),
            spec: None,
            fb_pos: None,
        }
    }

    fn materialize_contexts(&mut self, cx: &ExecCtx<'_>) {
        let Some(mut producer) = self.producer.take() else {
            return;
        };
        while let Some(p) = producer.next(cx) {
            debug_assert_eq!(p.sr, 0, "XScan's producer feeds context nodes");
            let id = p.nr.node_id();
            self.ctx_by_page.entry(id.page).or_default().push(id);
            self.all_contexts.push(id);
        }
    }

    fn visit_cluster(&mut self, cx: &ExecCtx<'_>, page: PageId) {
        // A failed read records the error on the store; the scan winds down
        // on the next `next()` turn (io_failed check).
        let Some(cluster) = cx.store.checked_fix(page) else {
            return;
        };
        // 1. Context instances located in this cluster.
        if let Some(ctxs) = self.ctx_by_page.get(&page) {
            for &id in ctxs {
                cx.charge_instance();
                let order = cluster.node(id.slot).order();
                self.emit
                    .push_back(Pi::swizzled_context(cluster.clone(), id.slot, order));
            }
        }
        // 2. Speculative instances for every border node and step, charged
        //    now and built by `next_speculative`.
        if self.path_len > 0 {
            self.borders.clear();
            self.borders.extend(cluster.border_slots());
            for _ in 0..self.borders.len() * usize::from(self.path_len) {
                cx.charge_instance();
                cx.stats
                    .speculative_generated
                    .set(cx.stats.speculative_generated.get() + 1);
            }
            if !self.borders.is_empty() {
                self.spec = Some(Speculation { cluster, next: 0 });
            }
        }
    }

    /// The next speculative instance of the visited cluster. The last one
    /// takes the cluster handle, so nothing stays pinned after it.
    fn next_speculative(&mut self) -> Option<Pi> {
        let spec = self.spec.as_mut()?;
        let len = usize::from(self.path_len);
        let at = spec.next;
        let &b = self.borders.get(at / len)?;
        let step = (at % len) as u16;
        spec.next += 1;
        let cluster = if spec.next == self.borders.len() * len {
            self.spec.take()?.cluster
        } else {
            Rc::clone(&spec.cluster)
        };
        Some(Pi::speculative(step, cluster, b))
    }
}

impl Operator for XScan {
    fn next(&mut self, cx: &ExecCtx<'_>) -> Option<Pi> {
        self.materialize_contexts(cx);
        loop {
            // Governor checkpoint: an unrecovered read error, a cancel, or a
            // passed hard deadline aborts the plan — stop emitting so the
            // pipeline winds down and the executor can surface it.
            if cx.interrupted() {
                self.emit.clear();
                self.spec = None;
                return None;
            }
            if cx.in_fallback() && self.fb_pos.is_none() {
                // Restart as identity over the context nodes (§5.4.6).
                self.emit.clear();
                self.spec = None;
                self.fb_pos = Some(0);
            }
            if let Some(pi) = self.emit.pop_front() {
                return Some(pi);
            }
            if let Some(pi) = self.next_speculative() {
                return Some(pi);
            }
            if let Some(fb) = &mut self.fb_pos {
                let &id = self.all_contexts.get(*fb)?;
                *fb += 1;
                let cluster = cx.store.checked_fix(id.page)?;
                let order = cluster.node(id.slot).order();
                cx.charge_instance();
                return Some(Pi::swizzled_context(cluster, id.slot, order));
            }
            let &page = self.pages.get(self.pos)?;
            self.pos += 1;
            self.visit_cluster(cx, page);
        }
    }
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::context::CostParams;
    use crate::instance::REnd;
    use crate::ops::testutil::{drain, mem_store, sample_doc};
    use crate::ops::ContextSource;
    use pathix_tree::Placement;

    #[test]
    fn scans_every_page_exactly_once_in_order() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Shuffled { seed: 2 });
        let cx = ExecCtx::new(&store, CostParams::default(), None);
        {
            let mut dev = store.buffer.device_mut();
            dev.set_trace(true);
        }
        let src = ContextSource::new(vec![store.root()]);
        let pages: Vec<PageId> = store.meta.page_range().collect();
        let mut scan = XScan::new(Box::new(src), pages.clone(), 2);
        let _ = drain(&mut scan, &cx);
        let dev = store.buffer.device_mut();
        let trace = dev.access_trace().to_vec();
        assert_eq!(trace, pages, "physical order, each page once");
    }

    #[test]
    fn emits_context_plus_speculative_instances() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Sequential);
        let cx = ExecCtx::new(&store, CostParams::default(), None);
        let src = ContextSource::new(vec![store.root()]);
        let pages: Vec<PageId> = store.meta.page_range().collect();
        let path_len = 2u16;
        let mut scan = XScan::new(Box::new(src), pages.clone(), path_len);
        let got = drain(&mut scan, &cx);
        let mut total_borders = 0usize;
        for p in store.meta.page_range() {
            total_borders += store.fix(p).border_slots().count();
        }
        assert_eq!(got.len(), 1 + total_borders * path_len as usize);
        let contexts = got.iter().filter(|p| !p.li).count();
        assert_eq!(contexts, 1);
        // Speculative instances: S_L == S_R, Entry ends, every step < |π|.
        for p in got.iter().filter(|p| matches!(p.nr, REnd::Entry { .. })) {
            assert_eq!(p.sl, p.sr);
            assert!(p.sr < path_len);
        }
    }

    #[test]
    fn zero_length_path_emits_contexts_only() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Sequential);
        let cx = ExecCtx::new(&store, CostParams::default(), None);
        let src = ContextSource::new(vec![store.root()]);
        let pages: Vec<PageId> = store.meta.page_range().collect();
        let mut scan = XScan::new(Box::new(src), pages, 0);
        let got = drain(&mut scan, &cx);
        assert_eq!(got.len(), 1);
        assert!(got[0].is_full(0));
    }

    #[test]
    fn fallback_reemits_contexts() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Sequential);
        let cx = ExecCtx::new(&store, CostParams::default(), None);
        let src = ContextSource::new(vec![store.root()]);
        let pages: Vec<PageId> = store.meta.page_range().collect();
        let mut scan = XScan::new(Box::new(src), pages, 2);
        // Pull a few instances, then force fallback mid-scan.
        let _ = scan.next(&cx).expect("some instance");
        cx.fallback.set(true);
        let rest = drain(&mut scan, &cx);
        assert_eq!(rest.len(), 1, "identity over the one context node");
        assert_eq!(rest[0].nr.node_id(), store.root());
        assert_eq!(rest[0].sr, 0);
    }
}
