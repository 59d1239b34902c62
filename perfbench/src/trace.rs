//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each public engine call the benchmark makes
//! (and, through [`crate::device::TimedDevice`], around each device call).
//! Every span has a name, a start and an end on the benchmark's wall clock,
//! the span that was open when it began (its parent), and the request id of
//! the operation it belongs to. Spans stay in memory and are written out
//! once, when the run ends.
//!
//! With tracing off, [`Tracer::span`] reads no clock and records nothing.

use crate::wall::Stopwatch;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;

/// Spans kept in memory at most; later spans are counted, not stored.
const MAX_SPANS: usize = 1 << 19;

/// One recorded span. Ids start at 1; parent 0 means a root span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Wall and self time of all spans of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub wall_ns: u64,
    /// Wall time minus the time covered by child spans.
    pub self_ns: u64,
}

/// Records spans while enabled.
pub struct Tracer {
    enabled: Cell<bool>,
    epoch: Stopwatch,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    request: Cell<u64>,
    dropped: Cell<u64>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: Option<&'a Tracer>,
    idx: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.tracer {
            t.close(self.idx);
        }
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            enabled: Cell::new(false),
            epoch: Stopwatch::start(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            request: Cell::new(0),
            dropped: Cell::new(0),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Tags spans opened from now on with `request`.
    pub fn set_request(&self, request: u64) {
        self.request.set(request);
    }

    /// Opens a span that closes when the guard is dropped.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled.get() {
            return SpanGuard {
                tracer: None,
                idx: 0,
            };
        }
        let mut spans = self.spans.borrow_mut();
        if spans.len() >= MAX_SPANS {
            self.dropped.set(self.dropped.get() + 1);
            return SpanGuard {
                tracer: None,
                idx: 0,
            };
        }
        let idx = spans.len();
        let mut open = self.open.borrow_mut();
        spans.push(Span {
            id: span_id(idx),
            parent: open.last().map_or(0, |&p| span_id(p)),
            request: self.request.get(),
            name,
            start_ns: self.epoch.ns(),
            end_ns: 0,
        });
        open.push(idx);
        SpanGuard {
            tracer: Some(self),
            idx,
        }
    }

    fn close(&self, idx: usize) {
        let end = self.epoch.ns();
        if let Some(s) = self.spans.borrow_mut().get_mut(idx) {
            s.end_ns = end;
        }
        let mut open = self.open.borrow_mut();
        debug_assert_eq!(open.last(), Some(&idx), "spans close in LIFO order");
        open.pop();
    }

    /// Number of spans recorded so far (a mark for [`Self::totals_since`]).
    pub fn mark(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Wall and self time per span name over the spans recorded since
    /// `mark`. A child's time counts against its parent's self time.
    pub fn totals_since(&self, mark: usize) -> BTreeMap<&'static str, SpanTotals> {
        let spans = self.spans.borrow();
        let recent = spans.get(mark..).unwrap_or(&[]);
        let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
        for s in recent {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for s in recent {
            let wall = s.end_ns - s.start_ns;
            let children = child_ns.get(&s.id).copied().unwrap_or(0);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.wall_ns += wall;
            t.self_ns += wall.saturating_sub(children);
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `id parent request name start_ns end_ns`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for s in self.spans.borrow().iter() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// Spans not stored because the in-memory cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }
}

fn span_id(idx: usize) -> u32 {
    u32::try_from(idx + 1).unwrap_or(u32::MAX)
}
