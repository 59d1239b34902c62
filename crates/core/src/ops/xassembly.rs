//! `XAssembly` / `XAssembly^R` (paper §5.3.3, §5.4.5): the topmost operator
//! of a path plan.
//!
//! Responsibilities:
//!
//! * return **full path instances** to the consumer, eliminating duplicate
//!   result nodes through the reachable-right-ends structure `R`;
//! * turn right-incomplete instances into cluster-visit requests on the
//!   shared queue `Q` (when an `XSchedule` is attached), deduplicating via
//!   `R` so no inter-cluster edge is traversed twice for the same step;
//! * hold **left-incomplete (speculative) instances** in `S` until their
//!   left end is proven reachable, then *fire* them — transitively — which
//!   may produce results or further cluster requests (§5.4.5.2);
//! * implement the `//` optimization (§5.4.5.4): for `XScan` plans whose
//!   path starts with `descendant-or-self::node()`, every left end at step
//!   1 counts as reachable without storing anything;
//! * enforce the memory limit on `S` and flip the plan into **fallback
//!   mode** (§5.4.6) when it is exceeded.
//!
//! Neither structure allocates per node: `R` is a `NodeSet` (bits per
//! `(step, page)`, indexed by slot), and `S` is one arena of unswizzled
//! instances threaded into a FIFO list per left end (`SpecStore`).

use crate::context::ExecCtx;
use crate::instance::{Pi, REnd};
use crate::ops::nodeset::NodeSet;
use crate::ops::xschedule::{QEntry, SchedShared, XSchedule};
use crate::ops::Operator;
use crate::FastMap;
use pathix_tree::NodeId;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Unswizzled right end stored in `S`.
#[derive(Debug, Clone, Copy)]
enum SEnd {
    /// Right-complete at `sr` (full when `sr == |π|`).
    Complete { id: NodeId, order: u64 },
    /// Right-incomplete; continuing requires visiting `target`'s cluster.
    Border { target: NodeId },
}

#[derive(Debug, Clone, Copy)]
struct SPi {
    sl: u16,
    nl: NodeId,
    li: bool,
    sr: u16,
    end: SEnd,
}

/// End of a list in [`SpecStore`]'s arena.
const NIL: u32 = u32::MAX;

/// One arena slot: a live instance linked to the next of its key, or a
/// free slot linked to the next free one.
#[derive(Debug, Clone, Copy)]
struct SNode {
    spi: SPi,
    next: u32,
}

/// The speculative instances `S`, keyed by left end `(S_L, N_L)`: one
/// arena of [`SNode`]s, a FIFO list per key (head and tail in `lists`), and
/// a free list through the slots that fired. Capacity never exceeds the
/// peak number of live instances, and dropping `S` frees two allocations.
#[derive(Debug)]
struct SpecStore {
    lists: FastMap<(u16, NodeId), (u32, u32)>,
    arena: Vec<SNode>,
    /// Head of the free list.
    free: u32,
    /// Live instances.
    len: usize,
}

impl Default for SpecStore {
    fn default() -> Self {
        Self {
            lists: FastMap::default(),
            arena: Vec::new(),
            free: NIL,
            len: 0,
        }
    }
}

impl SpecStore {
    /// Appends `spi` to the list of `key`.
    fn push(&mut self, key: (u16, NodeId), spi: SPi) {
        let node = SNode { spi, next: NIL };
        let at = if let Some(slot) = self.arena.get_mut(self.free as usize) {
            let at = self.free;
            self.free = slot.next;
            *slot = node;
            at
        } else {
            self.arena.push(node);
            (self.arena.len() - 1) as u32
        };
        let arena = &mut self.arena;
        self.lists
            .entry(key)
            .and_modify(|(_, tail)| {
                if let Some(last) = arena.get_mut(*tail as usize) {
                    last.next = at;
                }
                *tail = at;
            })
            .or_insert((at, at));
        self.len += 1;
    }

    /// Detaches the list of `key` and returns its head ([`NIL`] if `key`
    /// has none); drain it with [`Self::pop`].
    fn take(&mut self, key: (u16, NodeId)) -> u32 {
        // Most plans never park an instance: skip hashing the key.
        if self.len == 0 {
            return NIL;
        }
        self.lists.remove(&key).map_or(NIL, |(head, _)| head)
    }

    /// Frees the slot at `*at`, advances `*at` along its list and returns
    /// the instance the slot held.
    fn pop(&mut self, at: &mut u32) -> Option<SPi> {
        let slot = self.arena.get_mut(*at as usize)?;
        let SNode { spi, next } = *slot;
        slot.next = self.free;
        self.free = *at;
        *at = next;
        self.len -= 1;
        Some(spi)
    }

    /// Discards every instance and releases the arena.
    fn clear(&mut self) {
        *self = Self::default();
    }
}

/// The assembly operator. Emits full path instances with `Done` right ends.
pub struct XAssembly {
    producer: Box<dyn Operator>,
    path_len: u16,
    sched: Option<Rc<RefCell<SchedShared>>>,
    /// Reachable right ends `R`: (step, node).
    r: NodeSet,
    /// Speculative instances `S`, indexed by left end.
    s: SpecStore,
    /// Newly reachable ends whose dependent `S` entries must fire.
    fire: VecDeque<(u16, NodeId)>,
    out: VecDeque<Pi>,
    /// §5.4.5.4: left/right ends at this step are always reachable.
    all_reachable_step: Option<u16>,
}

impl XAssembly {
    /// Creates the operator. `sched` links back to the plan's `XSchedule`
    /// (or `None` for `XScan` plans).
    pub fn new(
        producer: Box<dyn Operator>,
        path_len: u16,
        sched: Option<Rc<RefCell<SchedShared>>>,
        all_reachable_step: Option<u16>,
    ) -> Self {
        Self {
            producer,
            path_len,
            sched,
            r: NodeSet::default(),
            s: SpecStore::default(),
            fire: VecDeque::new(),
            out: VecDeque::new(),
            all_reachable_step,
        }
    }

    /// Current number of instances held in `S` (for tests/reports).
    pub fn s_len(&self) -> usize {
        self.s.len
    }

    fn end_reachable(&self, (step, id): (u16, NodeId)) -> bool {
        self.all_reachable_step == Some(step) || self.r.contains(step, id)
    }

    /// Processes a (proven-reachable) right end.
    fn note_right(&mut self, cx: &ExecCtx<'_>, sl: u16, nl: NodeId, li: bool, sr: u16, end: SEnd) {
        match end {
            SEnd::Complete { id, order } => {
                if sr == self.path_len {
                    cx.charge_set_op();
                    if self.r.insert(sr, id) {
                        cx.stats.r_inserts.set(cx.stats.r_inserts.get() + 1);
                        cx.stats.results.set(cx.stats.results.get() + 1);
                        cx.charge_instance();
                        self.out.push_back(Pi::result(sr, id, order));
                    }
                } else {
                    // Right-complete mid-path ends are normally consumed by
                    // the next XStep; treat defensively as a reachable end.
                    cx.charge_set_op();
                    if self.r.insert(sr, id) {
                        cx.stats.r_inserts.set(cx.stats.r_inserts.get() + 1);
                        self.fire.push_back((sr, id));
                    }
                }
            }
            SEnd::Border { target } => {
                let key = (sr, target);
                if self.all_reachable_step == Some(sr) {
                    // `//` + XScan: ends at this step need no bookkeeping.
                    return;
                }
                cx.charge_set_op();
                if self.r.insert(sr, target) {
                    cx.stats.r_inserts.set(cx.stats.r_inserts.get() + 1);
                    self.fire.push_back(key);
                    if let Some(sched) = &self.sched {
                        // §5.4.4: under speculation, a cluster that was
                        // already visited needs no second visit — its
                        // speculative instances cover this continuation
                        // (unless fallback discarded S).
                        let covered =
                            !cx.in_fallback() && sched.borrow().covered_by_speculation(target.page);
                        if !covered {
                            XSchedule::enqueue(
                                cx,
                                sched,
                                QEntry {
                                    page: target.page,
                                    sr,
                                    slot: target.slot,
                                    resume: true,
                                    sl,
                                    nl,
                                    li,
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    fn fire_pending(&mut self, cx: &ExecCtx<'_>) {
        while let Some(key) = self.fire.pop_front() {
            cx.charge_set_op();
            let mut at = self.s.take(key);
            while let Some(x) = self.s.pop(&mut at) {
                self.note_right(cx, x.sl, x.nl, x.li, x.sr, x.end);
            }
        }
    }

    fn unswizzle(p: &Pi) -> Option<SEnd> {
        match &p.nr {
            REnd::Core {
                cluster,
                slot,
                order,
            } => Some(SEnd::Complete {
                id: cluster.id(*slot),
                order: *order,
            }),
            REnd::Done { id, order } => Some(SEnd::Complete {
                id: *id,
                order: *order,
            }),
            REnd::Border { target, .. } => Some(SEnd::Border { target: *target }),
            // Entry/Cold ends never surface at the top of a well-formed
            // plan: Entry ends are always consumed by their XStep.
            REnd::Entry { .. } | REnd::Cold { .. } => None,
        }
    }

    fn enter_fallback(&mut self) {
        // §5.4.6: discard S; only the duplicate-elimination structures stay.
        self.s.clear();
    }
}

impl Operator for XAssembly {
    fn next(&mut self, cx: &ExecCtx<'_>) -> Option<Pi> {
        loop {
            // Governor checkpoint: a recorded read error, a cancel, or a
            // passed hard deadline winds the assembly down — the executor
            // surfaces the cause, so emitting further results is pointless.
            if cx.interrupted() {
                self.out.clear();
                return None;
            }
            if let Some(pi) = self.out.pop_front() {
                return Some(pi);
            }
            self.fire_pending(cx);
            if let Some(pi) = self.out.pop_front() {
                return Some(pi);
            }
            let Some(p) = self.producer.next(cx) else {
                // Producer exhausted and nothing left to fire: whatever
                // remains in S is unreachable.
                return None;
            };
            debug_assert!(p.validate(self.path_len).is_ok(), "{p:?}");
            let Some(end) = Self::unswizzle(&p) else {
                debug_assert!(false, "unexpected end at XAssembly: {p:?}");
                continue;
            };
            if p.nr.is_border() {
                cx.stats
                    .borders_deferred
                    .set(cx.stats.borders_deferred.get() + 1);
            }
            if !p.li {
                self.note_right(cx, p.sl, p.nl, p.li, p.sr, end);
            } else {
                let lkey = (p.sl, p.nl);
                cx.charge_set_op();
                if self.end_reachable(lkey) {
                    self.note_right(cx, p.sl, p.nl, p.li, p.sr, end);
                } else if !cx.in_fallback() {
                    self.s.push(
                        lkey,
                        SPi {
                            sl: p.sl,
                            nl: p.nl,
                            li: p.li,
                            sr: p.sr,
                            end,
                        },
                    );
                    cx.stats.s_inserts.set(cx.stats.s_inserts.get() + 1);
                    if cx.note_s_size(self.s.len) {
                        self.enter_fallback();
                    }
                }
                // In fallback mode unproven speculative instances are
                // dropped: the plan re-derives results exhaustively.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CostParams;
    use crate::ops::testutil::{drain, mem_store, sample_doc};
    use pathix_tree::Placement;

    struct Feed(Vec<Pi>);
    impl Operator for Feed {
        fn next(&mut self, _cx: &ExecCtx<'_>) -> Option<Pi> {
            if self.0.is_empty() {
                None
            } else {
                Some(self.0.remove(0))
            }
        }
    }

    /// `sl > 0` test feeds mark themselves left-incomplete, matching the
    /// shapes the real operators produce.
    fn done(sl: u16, nl: NodeId, sr: u16, id: NodeId, order: u64) -> Pi {
        Pi {
            sl,
            nl,
            sr,
            nr: REnd::Done { id, order },
            li: sl > 0,
        }
    }

    fn border(sl: u16, nl: NodeId, sr: u16, target: NodeId) -> Pi {
        Pi {
            sl,
            nl,
            sr,
            nr: REnd::Border {
                proxy: NodeId::new(99, 99),
                target,
            },
            li: sl > 0,
        }
    }

    fn cx_for_tests(store: &pathix_tree::TreeStore) -> ExecCtx<'_> {
        ExecCtx::new(store, CostParams::default(), None)
    }

    #[test]
    fn full_instances_pass_through_deduplicated() {
        let docstore = mem_store(&sample_doc(), 1 << 14, Placement::Sequential);
        let cx = cx_for_tests(&docstore);
        let n = NodeId::new(1, 1);
        let feed = Feed(vec![
            done(0, NodeId::new(0, 0), 2, n, 7),
            done(0, NodeId::new(0, 0), 2, n, 7), // duplicate result node
            done(0, NodeId::new(0, 0), 2, NodeId::new(1, 2), 8),
        ]);
        let mut asm = XAssembly::new(Box::new(feed), 2, None, None);
        let got = drain(&mut asm, &cx);
        assert_eq!(got.len(), 2, "duplicates eliminated via R");
        assert_eq!(cx.stats.results.get(), 2);
    }

    #[test]
    fn speculative_instance_fires_when_left_end_reachable() {
        let docstore = mem_store(&sample_doc(), 1 << 14, Placement::Sequential);
        let cx = cx_for_tests(&docstore);
        let proxy_target = NodeId::new(5, 0);
        let result = NodeId::new(5, 3);
        // First a speculative instance: "if (1, 5:0) reachable, result at 2".
        // Then a right-incomplete real path making (1, 5:0) reachable.
        let feed = Feed(vec![
            done(1, proxy_target, 2, result, 42),
            border(0, NodeId::new(0, 0), 1, proxy_target),
        ]);
        let mut asm = XAssembly::new(Box::new(feed), 2, None, None);
        let got = drain(&mut asm, &cx);
        assert_eq!(got.len(), 1, "fired speculative instance yields result");
        assert_eq!(got[0].nr.node_id(), result);
        assert_eq!(asm.s_len(), 0, "fired instances leave S");
    }

    #[test]
    fn firing_cascades_transitively() {
        let docstore = mem_store(&sample_doc(), 1 << 14, Placement::Sequential);
        let cx = cx_for_tests(&docstore);
        let a = NodeId::new(3, 0);
        let b = NodeId::new(4, 0);
        let result = NodeId::new(4, 7);
        // Chain: real path reaches border a at step1; spec instance says
        // a@1 → border b@2; another says b@2 → result@3.
        let feed = Feed(vec![
            done(2, b, 3, result, 9),
            border(1, a, 2, b),
            border(0, NodeId::new(0, 0), 1, a),
        ]);
        let mut asm = XAssembly::new(Box::new(feed), 3, None, None);
        let got = drain(&mut asm, &cx);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].nr.node_id(), result);
    }

    #[test]
    fn unreachable_speculation_stays_unfired() {
        let docstore = mem_store(&sample_doc(), 1 << 14, Placement::Sequential);
        let cx = cx_for_tests(&docstore);
        let feed = Feed(vec![done(1, NodeId::new(9, 0), 2, NodeId::new(9, 1), 1)]);
        let mut asm = XAssembly::new(Box::new(feed), 2, None, None);
        let got = drain(&mut asm, &cx);
        assert!(got.is_empty());
        assert_eq!(asm.s_len(), 1, "unproven instance remains in S");
    }

    #[test]
    fn all_reachable_step_skips_storage() {
        let docstore = mem_store(&sample_doc(), 1 << 14, Placement::Sequential);
        let cx = cx_for_tests(&docstore);
        // With the // optimization, a left end at step 1 fires immediately
        // even though nothing was recorded in R.
        let feed = Feed(vec![done(1, NodeId::new(9, 0), 2, NodeId::new(9, 1), 1)]);
        let mut asm = XAssembly::new(Box::new(feed), 2, None, Some(1));
        let got = drain(&mut asm, &cx);
        assert_eq!(got.len(), 1);
        assert_eq!(asm.s_len(), 0);
    }

    #[test]
    fn borders_feed_the_schedule_queue() {
        let docstore = mem_store(&sample_doc(), 256, Placement::Sequential);
        assert!(docstore.meta.page_count > 1);
        let cx = cx_for_tests(&docstore);
        let shared = Rc::new(RefCell::new(SchedShared::default()));
        let target = NodeId::new(docstore.meta.base_page + 1, 0);
        let feed = Feed(vec![
            border(0, NodeId::new(0, 0), 1, target),
            border(0, NodeId::new(0, 0), 1, target), // same edge twice
        ]);
        let mut asm = XAssembly::new(Box::new(feed), 2, Some(Rc::clone(&shared)), None);
        let got = drain(&mut asm, &cx);
        assert!(got.is_empty());
        assert_eq!(shared.borrow().len(), 1, "edge queued once (dedup via R)");
        assert_eq!(cx.stats.q_pushes.get(), 1);
    }

    #[test]
    fn memory_limit_triggers_fallback_and_discards_s() {
        let docstore = mem_store(&sample_doc(), 1 << 14, Placement::Sequential);
        let mut cx = cx_for_tests(&docstore);
        cx.mem_limit = Some(2);
        let feed = Feed(vec![
            done(1, NodeId::new(9, 0), 2, NodeId::new(9, 1), 1),
            done(1, NodeId::new(9, 2), 2, NodeId::new(9, 3), 2),
            done(1, NodeId::new(9, 4), 2, NodeId::new(9, 5), 3),
        ]);
        let mut asm = XAssembly::new(Box::new(feed), 2, None, None);
        let got = drain(&mut asm, &cx);
        assert!(got.is_empty());
        assert!(cx.in_fallback());
        assert_eq!(asm.s_len(), 0, "S discarded on fallback");
        assert!(cx.stats.fallback_entered.get());
        // The third insert crossed the limit: counted, peaked, then freed.
        assert_eq!(cx.stats.s_inserts.get(), 3);
        assert_eq!(cx.stats.s_peak.get(), 3);
        assert_eq!(asm.s.arena.capacity(), 0, "fallback releases the arena");
        assert!(asm.s.lists.is_empty());
    }

    #[test]
    fn instances_of_one_key_fire_in_insertion_order() {
        let docstore = mem_store(&sample_doc(), 1 << 14, Placement::Sequential);
        let cx = cx_for_tests(&docstore);
        let (k1, k2) = (NodeId::new(5, 0), NodeId::new(6, 0));
        // Two keys' lists interleaved in the arena; k2 fires first, so its
        // freed slots are reused by k1's later inserts.
        let mut feed = Vec::new();
        for i in 0..4u16 {
            feed.push(done(1, k1, 2, NodeId::new(7, i), u64::from(i)));
            feed.push(done(1, k2, 2, NodeId::new(8, i), 10 + u64::from(i)));
        }
        feed.push(border(0, NodeId::new(0, 0), 1, k2));
        for i in 4..8u16 {
            feed.push(done(1, k1, 2, NodeId::new(7, i), u64::from(i)));
        }
        feed.push(border(0, NodeId::new(0, 0), 1, k1));
        let mut asm = XAssembly::new(Box::new(Feed(feed)), 2, None, None);
        let got: Vec<NodeId> = drain(&mut asm, &cx)
            .iter()
            .map(|p| p.nr.node_id())
            .collect();
        let mut want: Vec<NodeId> = (0..4).map(|i| NodeId::new(8, i)).collect();
        want.extend((0..8).map(|i| NodeId::new(7, i)));
        assert_eq!(got, want);
        assert_eq!(asm.s_len(), 0);
        assert_eq!(cx.stats.s_inserts.get(), 12);
        assert_eq!(cx.stats.s_peak.get(), 8, "4 + 4 live before k2 fired");
        assert_eq!(asm.s.arena.len(), 8, "k1's later inserts reuse k2's slots");
    }

    #[test]
    fn arena_stays_bounded_by_the_live_peak() {
        let mut s = SpecStore::default();
        let spi = |i: u16| SPi {
            sl: 1,
            nl: NodeId::new(1, i),
            li: true,
            sr: 2,
            end: SEnd::Complete {
                id: NodeId::new(2, i),
                order: u64::from(i),
            },
        };
        for round in 0..50u16 {
            // 3 keys × 4 instances live, then all fired.
            for i in 0..12 {
                s.push((1, NodeId::new(1, round * 3 + i % 3)), spi(i));
            }
            assert_eq!(s.len, 12);
            for k in 0..3 {
                let mut at = s.take((1, NodeId::new(1, round * 3 + k)));
                let mut fired = Vec::new();
                while let Some(x) = s.pop(&mut at) {
                    fired.push(x.nl.slot);
                }
                assert_eq!(fired, [k, k + 3, k + 6, k + 9], "FIFO per key");
            }
            assert_eq!(s.len, 0);
            assert!(s.arena.len() <= 12, "round {round}: {}", s.arena.len());
        }
        assert_eq!(s.take((1, NodeId::new(1, 0))), NIL, "fired keys are gone");
        s.push((0, NodeId::new(9, 9)), spi(0));
        s.clear();
        assert_eq!((s.len, s.arena.capacity(), s.free), (0, 0, NIL));
    }
}
