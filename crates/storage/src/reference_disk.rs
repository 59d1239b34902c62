//! The original alloc-and-sort command-queue scheduler of the simulated
//! disk, kept as the oracle for the indexed queue of
//! [`SimDisk`](crate::SimDisk).
//!
//! `pick_next` allocates and sorts the whole pending set on every serve
//! (O(n log n) per pick), which is what the indexed `CommandQueue` replaces.
//! Served order and simulated times must be bit-identical between the two:
//! the equivalence property tests in `sim_disk.rs` check it, and the
//! throughput microbench times both through the [`Device`] interface.

use crate::clock::SimClock;
use crate::device::{Completion, Device, DeviceStats, IoError, PageId};
use crate::sim_disk::{DiskProfile, Pending, QueuePolicy};
use std::collections::VecDeque;
use std::sync::Arc;

/// The pre-index [`SimDisk`](crate::SimDisk) scheduler as a [`Device`]:
/// same cost model, same policies, but every pick allocates and sorts the
/// whole pending set.
pub struct ReferenceDisk {
    pages: Vec<Arc<[u8]>>,
    page_size: usize,
    profile: DiskProfile,
    policy: QueuePolicy,
    head: PageId,
    sweep_up: bool,
    busy_until_ns: u64,
    pending: Vec<Pending>,
    completed: VecDeque<Completion>,
    next_seq: u64,
    stats: DeviceStats,
}

impl ReferenceDisk {
    /// An empty disk with the given page size and cost profile, serving
    /// with the default policy.
    pub fn with_profile(page_size: usize, profile: DiskProfile) -> Self {
        Self {
            pages: Vec::new(),
            page_size,
            profile,
            policy: QueuePolicy::default(),
            head: 0,
            sweep_up: true,
            busy_until_ns: 0,
            pending: Vec::new(),
            completed: VecDeque::new(),
            next_seq: 0,
            stats: DeviceStats::default(),
        }
    }

    /// Sets the command-queue policy.
    pub fn set_policy(&mut self, policy: QueuePolicy) {
        self.policy = policy;
    }

    /// The original pick: allocate an index Vec, sort it by submission
    /// sequence, truncate to the visible window, then scan linearly.
    fn pick_next(&self) -> Option<usize> {
        if self.pending.is_empty() {
            return None;
        }
        let window = self.visible_queue();
        let mut idx: Vec<usize> = (0..self.pending.len()).collect();
        idx.sort_by_key(|&i| self.pending[i].seq);
        idx.truncate(window);
        let choice = match self.policy {
            QueuePolicy::Fifo => idx[0],
            QueuePolicy::ShortestSeekFirst => *idx
                .iter()
                .min_by_key(|&&i| {
                    let p = self.pending[i].page;
                    (p.abs_diff(self.head), p)
                })
                .expect("window is non-empty"),
            QueuePolicy::Elevator => {
                let ahead = |up: bool, i: usize| {
                    let p = self.pending[i].page;
                    if up {
                        p >= self.head
                    } else {
                        p <= self.head
                    }
                };
                let best_in_dir = |up: bool| {
                    idx.iter()
                        .copied()
                        .filter(|&i| ahead(up, i))
                        .min_by_key(|&i| self.pending[i].page.abs_diff(self.head))
                };
                match best_in_dir(self.sweep_up) {
                    Some(i) => i,
                    None => best_in_dir(!self.sweep_up).expect("window is non-empty"),
                }
            }
        };
        Some(choice)
    }

    fn visible_queue(&self) -> usize {
        if self.profile.queue_depth == 0 {
            self.pending.len()
        } else {
            self.profile.queue_depth.min(self.pending.len())
        }
    }

    fn serve(&mut self, i: usize) -> Completion {
        let queued = self.visible_queue().saturating_sub(1);
        let req = self.pending.swap_remove(i);
        let start = self.busy_until_ns.max(req.submitted_at_ns);
        let cost = self
            .profile
            .access_cost_queued_ns(self.head, req.page, queued);
        let finished = start + cost;
        self.account_read(req.page, cost);
        if let QueuePolicy::Elevator = self.policy {
            if req.page != self.head {
                self.sweep_up = req.page > self.head;
            }
        }
        self.head = req.page + 1;
        self.busy_until_ns = finished;
        Completion::ok(
            req.page,
            Arc::clone(&self.pages[req.page as usize]),
            finished,
        )
    }

    fn account_read(&mut self, page: PageId, cost: u64) {
        self.stats.reads += 1;
        if page == self.head {
            self.stats.sequential_reads += 1;
        } else {
            self.stats.random_reads += 1;
            self.stats.seek_distance_pages += page.abs_diff(self.head) as u64;
        }
        self.stats.busy_ns += cost;
    }

    fn advance(&mut self, now_ns: u64) {
        while let Some(i) = self.pick_next() {
            let req = self.pending[i];
            let start = self.busy_until_ns.max(req.submitted_at_ns);
            let queued = self.visible_queue().saturating_sub(1);
            let cost = self
                .profile
                .access_cost_queued_ns(self.head, req.page, queued);
            if start + cost > now_ns {
                break;
            }
            let c = self.serve(i);
            self.completed.push_back(c);
        }
    }
}

impl Device for ReferenceDisk {
    fn num_pages(&self) -> u32 {
        self.pages.len() as u32
    }

    fn page_size(&self) -> usize {
        self.page_size
    }

    fn read_sync(&mut self, page: PageId, clock: &SimClock) -> Result<Arc<[u8]>, IoError> {
        self.advance(clock.now_ns());
        let start = self.busy_until_ns.max(clock.now_ns());
        let cost = self.profile.access_cost_ns(self.head, page);
        self.account_read(page, cost);
        self.head = page + 1;
        self.busy_until_ns = start + cost;
        clock.wait_until(start + cost);
        Ok(Arc::clone(&self.pages[page as usize]))
    }

    fn submit(&mut self, page: PageId, clock: &SimClock) {
        self.advance(clock.now_ns());
        self.pending.push(Pending {
            page,
            submitted_at_ns: clock.now_ns(),
            seq: self.next_seq,
        });
        self.next_seq += 1;
    }

    fn poll(&mut self, clock: &SimClock, block: bool) -> Option<Completion> {
        self.advance(clock.now_ns());
        if let Some(c) = self.completed.pop_front() {
            clock.wait_until(c.finished_at_ns);
            return Some(c);
        }
        if !block || self.pending.is_empty() {
            return None;
        }
        let i = self.pick_next().expect("pending is non-empty");
        let c = self.serve(i);
        clock.wait_until(c.finished_at_ns);
        Some(c)
    }

    fn in_flight(&self) -> usize {
        self.pending.len() + self.completed.len()
    }

    fn append_page(&mut self, bytes: Vec<u8>) -> PageId {
        let id = self.pages.len() as PageId;
        let mut b = bytes;
        b.resize(self.page_size, 0);
        self.pages.push(Arc::from(b));
        id
    }

    fn write_page(&mut self, page: PageId, bytes: Vec<u8>) {
        let mut b = bytes;
        b.resize(self.page_size, 0);
        self.pages[page as usize] = Arc::from(b);
    }

    fn stats(&self) -> DeviceStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = DeviceStats::default();
    }
}
