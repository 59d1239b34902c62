//! Resource governance: per-query budgets and batch-wide admission state.
//!
//! The paper's fallback mode (§5.4.6, DESIGN §5.4.6 note) bounds a single
//! query's *memory*; a server handling a batch needs the batch-wide
//! analogue — bounded time and memory per query, cancellation that actually
//! stops work, and load shedding that degrades latency, never correctness.
//! This module holds the vocabulary types; enforcement lives at the declared
//! checkpoints (operator produce loops, queue pops, and the buffer fix path
//! — see DESIGN §12 for the checkpoint map), in the path runner that arms
//! the buffer's gate ([`IoGate`]), and in the batch executor
//! (`server::execute_batch`), whose item start mode [`cold_start`] decides.
//!
//! Everything here is simulated-time based: deadlines are expressed in
//! `SimClock` nanoseconds, never wall-clock, so every governed outcome is
//! exactly reproducible (lint rule R7 enforces that no `std::time::Instant`
//! creeps into deadline logic).

use pathix_tree::TreeStore;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Cooperative cancellation handle. Cloning shares the flag: the server side
/// keeps one clone and calls [`CancelToken::cancel`]; the query's execution
/// context polls [`CancelToken::is_canceled`] at checkpoints.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-canceled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; takes effect at the query's next
    /// checkpoint (operator loop top or buffer fix).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_canceled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// A two-stage deadline in simulated nanoseconds, relative to query start.
///
/// Crossing `soft_ns` flips the plan into the existing §5.4.6 fallback mode
/// (degrade: keep answering with bounded S); crossing `hard_ns` aborts the
/// query with [`crate::ExecError::DeadlineExceeded`]. `hard_ns` is clamped
/// to be no earlier than `soft_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    /// Degrade threshold (sim-ns after query start).
    pub soft_ns: u64,
    /// Abort threshold (sim-ns after query start), `>= soft_ns`.
    pub hard_ns: u64,
}

impl Deadline {
    /// A two-stage deadline; `hard_ns` is clamped up to at least `soft_ns`.
    pub fn new(soft_ns: u64, hard_ns: u64) -> Self {
        Self {
            soft_ns,
            hard_ns: hard_ns.max(soft_ns),
        }
    }

    /// A single-stage deadline: degrade and abort at the same instant
    /// (the soft stage never observably fires before the hard one).
    pub fn hard_only(hard_ns: u64) -> Self {
        Self::new(hard_ns, hard_ns)
    }
}

/// Everything the governor may hold against one query. The default budget is
/// unlimited: no deadline, a token nobody cancels — executing under it is
/// behaviorally identical to executing ungoverned. (A per-query S-set cap is
/// `PlanConfig::mem_limit`.)
#[derive(Debug, Clone, Default)]
pub struct QueryBudget {
    /// Optional two-stage sim-time deadline.
    pub deadline: Option<Deadline>,
    /// Cooperative cancellation handle.
    pub cancel: CancelToken,
}

impl QueryBudget {
    /// No deadline, fresh token: governance off.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Budget with a two-stage deadline and nothing else.
    pub fn with_deadline(soft_ns: u64, hard_ns: u64) -> Self {
        Self {
            deadline: Some(Deadline::new(soft_ns, hard_ns)),
            ..Self::default()
        }
    }
}

/// Admission-control knobs of the batch executor (`server::execute_batch`).
/// The default admits everything, caps nothing and keeps no ledger.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmissionConfig {
    /// Admitted queries allowed to *execute* concurrently (a semaphore over
    /// the worker pool). `0` = no cap beyond the worker count.
    pub max_in_flight: usize,
    /// Total queries admitted per batch; items beyond this prefix are shed
    /// with `ExecError::Overloaded` — deterministically by batch order,
    /// before any execution. `None` = admit everything.
    pub max_admitted: Option<usize>,
    /// Byte cap of the shared S-set [`MemLedger`]. Pressure *degrades*
    /// queries (fallback mode), it never sheds them. `None` = no ledger.
    pub ledger_cap_bytes: Option<u64>,
}

impl AdmissionConfig {
    /// Everything admitted, no concurrency cap, no ledger — governance off.
    pub fn unlimited() -> Self {
        Self::default()
    }
}

/// Whether a batch runs each item *cold*: from a reset private buffer on a
/// re-parked device, over plain device forks rather than a shared page
/// cache. True when some budget carries a deadline or admission sets a
/// ledger — the two outcomes that depend on an item's simulated timeline
/// (deadline stages) or on the order its clusters arrive (S-set growth).
/// Running cold makes both a pure function of `(path, method, budget)`,
/// not of which items a worker served before. Every other batch runs warm,
/// so items reuse pages across the batch.
pub fn cold_start(budgets: &[QueryBudget], admission: &AdmissionConfig) -> bool {
    admission.ledger_cap_bytes.is_some() || budgets.iter().any(|b| b.deadline.is_some())
}

/// The buffer's governor gate for one query run: arming sets the absolute
/// sim-time I/O deadline (`None` for an ungoverned run) and clears the
/// interrupt flag; dropping disarms both. The run holds the guard for its
/// whole extent, so every exit — a result, a typed abort, or a panic
/// unwinding out of the plan — leaves the buffer ungated for the next run.
pub(crate) struct IoGate<'a>(&'a TreeStore);

impl<'a> IoGate<'a> {
    pub(crate) fn arm(store: &'a TreeStore, io_deadline_ns: Option<u64>) -> Self {
        store.buffer.set_interrupted(false);
        store.buffer.set_io_deadline(io_deadline_ns);
        Self(store)
    }
}

impl Drop for IoGate<'_> {
    fn drop(&mut self) {
        self.0.buffer.set_io_deadline(None);
        self.0.buffer.set_interrupted(false);
    }
}

/// Batch-wide S-set memory ledger, shared across worker threads. Queries
/// charge their S-set bytes as XAssembly grows them (via
/// `ExecCtx::note_s_size`); a charge that would exceed the cap fails, and
/// the failing query degrades into fallback mode instead of growing S.
///
/// The ledger never rejects a query outright — memory pressure degrades,
/// only admission sheds — so correctness of admitted answers is independent
/// of the cap.
#[derive(Debug, Clone)]
pub struct MemLedger {
    inner: Arc<LedgerInner>,
}

#[derive(Debug)]
struct LedgerInner {
    used: AtomicU64,
    peak: AtomicU64,
    cap: u64,
}

impl MemLedger {
    /// A ledger with `cap` bytes of batch-wide S-set headroom.
    pub fn new(cap: u64) -> Self {
        Self {
            inner: Arc::new(LedgerInner {
                used: AtomicU64::new(0),
                peak: AtomicU64::new(0),
                cap,
            }),
        }
    }

    /// Tries to charge `bytes` against the cap. On success the ledger keeps
    /// the charge (credit it back with [`MemLedger::credit`]); on failure
    /// nothing is charged and the caller must degrade.
    pub fn try_charge(&self, bytes: u64) -> bool {
        let mut used = self.inner.used.load(Ordering::Acquire);
        loop {
            let Some(next) = used.checked_add(bytes) else {
                return false;
            };
            if next > self.inner.cap {
                return false;
            }
            match self.inner.used.compare_exchange_weak(
                used,
                next,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.inner.peak.fetch_max(next, Ordering::AcqRel);
                    return true;
                }
                Err(actual) => used = actual,
            }
        }
    }

    /// Returns `bytes` previously charged with [`MemLedger::try_charge`].
    pub fn credit(&self, bytes: u64) {
        self.inner.used.fetch_sub(bytes, Ordering::AcqRel);
    }

    /// Bytes currently charged.
    pub fn used(&self) -> u64 {
        self.inner.used.load(Ordering::Acquire)
    }

    /// High-water mark of charged bytes over the ledger's lifetime.
    pub fn peak(&self) -> u64 {
        self.inner.peak.load(Ordering::Acquire)
    }

    /// The configured cap in bytes.
    pub fn cap(&self) -> u64 {
        self.inner.cap
    }
}

/// Batch-level outcome tally produced by the batch executor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovernorReport {
    /// Items the admission controller let in.
    pub admitted: u64,
    /// Items shed with `ExecError::Overloaded` before execution.
    pub shed: u64,
    /// Admitted items that completed in fallback mode (soft deadline or
    /// ledger pressure) — answers are still correct.
    pub degraded: u64,
    /// Admitted items aborted at the hard deadline.
    pub deadline_aborted: u64,
    /// Admitted items aborted by their cancel token.
    pub canceled: u64,
    /// High-water mark of the shared S-set ledger, in bytes (0 without a ledger).
    pub peak_ledger_bytes: u64,
}

impl std::fmt::Display for GovernorReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "governor: admitted {} shed {} degraded {} deadline-aborted {} canceled {} peak-ledger {} B",
            self.admitted,
            self.shed,
            self.degraded,
            self.deadline_aborted,
            self.canceled,
            self.peak_ledger_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::ops::testutil::{mem_store, sample_doc};
    use pathix_tree::Placement;

    #[test]
    fn cold_start_needs_a_deadline_or_a_ledger() {
        let unlimited = AdmissionConfig::unlimited();
        assert!(!cold_start(&[], &unlimited));
        let capped = AdmissionConfig {
            max_in_flight: 1,
            max_admitted: Some(1),
            ledger_cap_bytes: None,
        };
        assert!(!cold_start(&[QueryBudget::unlimited()], &capped));
        assert!(cold_start(
            &[QueryBudget::unlimited(), QueryBudget::with_deadline(1, 2)],
            &unlimited
        ));
        let ledger = AdmissionConfig {
            ledger_cap_bytes: Some(1),
            ..unlimited
        };
        assert!(cold_start(&[], &ledger));
    }

    #[test]
    fn io_gate_disarms_when_a_run_unwinds() {
        let store = mem_store(&sample_doc(), 256, Placement::Sequential);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _gate = IoGate::arm(&store, Some(0));
            store.buffer.set_interrupted(true);
            panic!("plan panics with the gate armed");
        }));
        assert!(unwound.is_err());
        assert!(!store.buffer.interrupted());
        assert!(
            store.checked_fix(store.meta.root.page).is_some(),
            "the I/O deadline was cleared too"
        );
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!u.is_canceled());
        t.cancel();
        assert!(u.is_canceled());
        // Idempotent.
        u.cancel();
        assert!(t.is_canceled());
    }

    #[test]
    fn deadline_clamps_hard_to_soft() {
        let d = Deadline::new(100, 50);
        assert_eq!(d.soft_ns, 100);
        assert_eq!(d.hard_ns, 100);
        let h = Deadline::hard_only(70);
        assert_eq!((h.soft_ns, h.hard_ns), (70, 70));
    }

    #[test]
    fn unlimited_budget_has_no_limits() {
        let b = QueryBudget::unlimited();
        assert!(b.deadline.is_none());
        assert!(!b.cancel.is_canceled());
    }

    #[test]
    fn ledger_charges_credits_and_tracks_peak() {
        let l = MemLedger::new(100);
        assert!(l.try_charge(60));
        assert!(!l.try_charge(50), "would exceed the cap");
        assert!(l.try_charge(40));
        assert_eq!(l.used(), 100);
        l.credit(60);
        assert_eq!(l.used(), 40);
        assert_eq!(l.peak(), 100);
        assert_eq!(l.cap(), 100);
    }

    #[test]
    fn ledger_is_shared_across_clones() {
        let l = MemLedger::new(10);
        let m = l.clone();
        assert!(m.try_charge(10));
        assert!(!l.try_charge(1));
        m.credit(10);
        assert!(l.try_charge(1));
    }
}
