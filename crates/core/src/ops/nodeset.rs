//! Sets of `(step, node)` pairs without hashing: `XAssembly`'s reachable
//! right ends `R` (§5.4.5) and the Simple method's final duplicate
//! elimination.
//!
//! A `NodeId` is `(page, slot)`, so membership is one bit in a bitset per
//! `(step, page)`, indexed by slot. Bitsets are allocated on the first
//! insert into their `(step, page)` and grow to the highest slot inserted,
//! so a plan pays only for the clusters it actually touches.

use pathix_tree::NodeId;

/// A set of `(step, NodeId)` pairs.
#[derive(Debug, Default)]
pub(crate) struct NodeSet {
    /// `rows[step][page]`: bit `slot` is set iff `(step, page:slot)` is in
    /// the set. Empty vectors are bitsets not yet allocated.
    rows: Vec<Vec<Vec<u64>>>,
}

fn word_bit(slot: u16) -> (usize, u64) {
    (usize::from(slot / 64), 1 << (slot % 64))
}

impl NodeSet {
    /// Adds `(step, id)`; returns false if it was already present.
    pub(crate) fn insert(&mut self, step: u16, id: NodeId) -> bool {
        let (step, page) = (usize::from(step), id.page as usize);
        if self.rows.len() <= step {
            self.rows.resize_with(step + 1, Vec::new);
        }
        let Some(pages) = self.rows.get_mut(step) else {
            return false;
        };
        if pages.len() <= page {
            pages.resize_with(page + 1, Vec::new);
        }
        let Some(bits) = pages.get_mut(page) else {
            return false;
        };
        let (word, bit) = word_bit(id.slot);
        if bits.len() <= word {
            bits.resize(word + 1, 0);
        }
        match bits.get_mut(word) {
            Some(w) if *w & bit == 0 => {
                *w |= bit;
                true
            }
            _ => false,
        }
    }

    /// True if `(step, id)` is in the set.
    pub(crate) fn contains(&self, step: u16, id: NodeId) -> bool {
        let (word, bit) = word_bit(id.slot);
        self.rows
            .get(usize::from(step))
            .and_then(|pages| pages.get(id.page as usize))
            .and_then(|bits| bits.get(word))
            .is_some_and(|w| w & bit != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_reports_novelty_and_contains_agrees() {
        let mut s = NodeSet::default();
        let a = NodeId::new(3, 5);
        assert!(!s.contains(1, a));
        assert!(s.insert(1, a));
        assert!(!s.insert(1, a), "second insert is a duplicate");
        assert!(s.contains(1, a));
        // Same node, other step; same step, neighbouring slot and page.
        assert!(!s.contains(0, a));
        assert!(!s.contains(2, a));
        assert!(!s.contains(1, NodeId::new(3, 4)));
        assert!(!s.contains(1, NodeId::new(2, 5)));
        assert!(!s.contains(1, NodeId::new(4, 5)));
    }

    #[test]
    fn edge_slots_pages_and_steps() {
        // Slot 0, the last slot a page can address, a word boundary, page
        // 0, and a final step |π| = 12 (Q15's length).
        let path_len = 12;
        let ids = [
            NodeId::new(0, 0),
            NodeId::new(0, u16::MAX),
            NodeId::new(7, 63),
            NodeId::new(7, 64),
            NodeId::new(1100, 0),
        ];
        let mut s = NodeSet::default();
        for step in [0, path_len] {
            for id in ids {
                assert!(s.insert(step, id), "({step}, {id})");
            }
        }
        for step in [0, path_len] {
            for id in ids {
                assert!(s.contains(step, id), "({step}, {id})");
                assert!(!s.insert(step, id));
            }
        }
        for step in [1, path_len - 1, path_len + 1] {
            for id in ids {
                assert!(!s.contains(step, id), "({step}, {id}) never inserted");
            }
        }
        assert!(!s.contains(0, NodeId::new(0, u16::MAX - 1)));
        assert!(!s.contains(0, NodeId::new(7, 62)));
        assert!(!s.contains(0, NodeId::new(7, 65)));
    }

    #[test]
    fn agrees_with_a_hash_set() {
        let mut s = NodeSet::default();
        let mut reference = std::collections::HashSet::new();
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let step = (x % 5) as u16;
            let id = NodeId::new((x >> 8) as u32 % 40, (x >> 24) as u16 % 400);
            assert_eq!(s.insert(step, id), reference.insert((step, id)));
        }
        for step in 0..5 {
            for page in 0..40 {
                for slot in 0..400 {
                    let id = NodeId::new(page, slot);
                    assert_eq!(s.contains(step, id), reference.contains(&(step, id)));
                }
            }
        }
    }
}
