//! A device wrapper the benchmark owns: it records a span around every
//! device call (when tracing is on) and counts the pages written through
//! it, which `DeviceStats` does not report. Every write stores a whole
//! page, so bytes written are pages written times the page size.

use crate::trace::Tracer;
use pathix::storage::{Completion, Device, DeviceStats, IoError, PageId, SimClock};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

/// Forwards every call to `inner`; see the module docs.
pub struct TimedDevice {
    inner: Box<dyn Device + Send>,
    tracer: Rc<Tracer>,
    /// Pages written or appended, shared with the benchmark.
    writes: Rc<Cell<u64>>,
}

impl TimedDevice {
    pub fn new(inner: Box<dyn Device + Send>, tracer: Rc<Tracer>, writes: Rc<Cell<u64>>) -> Self {
        Self {
            inner,
            tracer,
            writes,
        }
    }
}

impl Device for TimedDevice {
    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }

    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn read_sync(&mut self, page: PageId, clock: &SimClock) -> Result<Arc<[u8]>, IoError> {
        let _span = self.tracer.span("storage.device.read_sync");
        self.inner.read_sync(page, clock)
    }

    fn submit(&mut self, page: PageId, clock: &SimClock) {
        let _span = self.tracer.span("storage.device.submit");
        self.inner.submit(page, clock);
    }

    fn poll(&mut self, clock: &SimClock, block: bool) -> Option<Completion> {
        let _span = self.tracer.span("storage.device.poll");
        self.inner.poll(clock, block)
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn append_page(&mut self, bytes: Vec<u8>) -> PageId {
        let _span = self.tracer.span("storage.device.append_page");
        self.writes.set(self.writes.get() + 1);
        self.inner.append_page(bytes)
    }

    fn write_page(&mut self, page: PageId, bytes: Vec<u8>) {
        let _span = self.tracer.span("storage.device.write_page");
        self.writes.set(self.writes.get() + 1);
        self.inner.write_page(page, bytes);
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn access_trace(&self) -> &[PageId] {
        self.inner.access_trace()
    }

    fn set_trace(&mut self, enabled: bool) {
        self.inner.set_trace(enabled);
    }

    fn park(&mut self) {
        self.inner.park();
    }

    /// Forks the inner device: parallel workers read through plain forks.
    fn try_fork(&self) -> Option<Box<dyn Device + Send>> {
        self.inner.try_fork()
    }
}
