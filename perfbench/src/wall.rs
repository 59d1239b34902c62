//! Wall-clock and process-memory probes.
//!
//! The engine itself runs on the deterministic simulated clock (lint rule
//! R2 keeps wall time out of it). The benchmark is the one place that must
//! read the real clock, so every `Instant` use is confined to this file.

use std::time::Instant; // lint:allow(R2: the benchmark measures wall time by design)

/// A started wall-clock measurement.
#[derive(Clone, Copy)]
pub struct Stopwatch(Instant); // lint:allow(R2: wall-clock stopwatch of the benchmark)

impl Stopwatch {
    /// Starts measuring now.
    pub fn start() -> Self {
        Self(Instant::now()) // lint:allow(R2: wall-clock stopwatch of the benchmark)
    }

    /// Seconds elapsed since [`Self::start`].
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Nanoseconds elapsed since [`Self::start`].
    pub fn ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM` of
/// `/proc/self/status`), or `None` where the kernel does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// `(steal, total)` CPU ticks of this machine so far, from the first line
/// of `/proc/stat`; `None` where it is not reported. Steal is time the
/// host gave this machine's virtual CPUs to other tenants: wall-clock
/// timings taken while it grows are slowed by them, not by the program.
pub fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    let ticks: Vec<u64> = cpu
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    let steal = *ticks.get(7)?;
    Some((steal, ticks.iter().sum()))
}
