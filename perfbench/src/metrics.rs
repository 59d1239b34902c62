//! Metric names, sample statistics and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; the
//! `perfbench/spec.json` file maps each per-layer metric to the end-to-end
//! metric and workload it should move.

use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("sim_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("write_amp", "ratio"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. Counts
/// are per pass; a layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("storage.device.reads", "count"),
    ("storage.device.seq_fraction", "ratio"),
    ("storage.device.seek_pages", "pages"),
    ("storage.device.busy_sim_ms", "ms"),
    ("storage.device.writes", "count"),
    ("storage.device.wall_ms", "ms"),
    ("storage.buffer.fixes", "count"),
    ("storage.buffer.hit_rate", "ratio"),
    ("storage.buffer.evictions", "count"),
    ("storage.buffer.prefetches", "count"),
    ("tree.fix_cold_us", "us"),
    ("tree.fix_warm_us", "us"),
    ("core.plan.wall_ms", "ms"),
    ("core.plan.self_ms", "ms"),
    ("core.plan.sim_cpu_ms", "ms"),
    ("core.plan.wall_per_sim_cpu", "ratio"),
    ("core.nodes_visited", "count"),
    ("core.node_tests", "count"),
    ("core.borders", "count"),
    ("core.instances", "count"),
    ("core.results_per_instance", "ratio"),
    ("core.xassembly.r_inserts", "count"),
    ("core.xassembly.s_inserts", "count"),
    ("core.xassembly.s_peak", "count"),
    ("core.xschedule.q_pushes", "count"),
    ("core.xscan.speculative", "count"),
    ("core.fallbacks", "count"),
    ("xpath.parse_us", "us"),
    ("core.optimizer.estimate_us", "us"),
    ("core.optimizer.regret", "ratio"),
    ("core.optimizer.pages_qerror", "ratio"),
    ("storage.shared_cache.hit_fraction", "ratio"),
    ("storage.shared_cache.misses", "count"),
    ("storage.shared_cache.single_flight_waits", "count"),
    ("storage.shared_cache.read_amp", "ratio"),
    ("tree.update.insert_us", "us"),
    ("tree.update.commit_us", "us"),
    ("storage.wal.records", "count"),
    ("storage.wal.bytes", "bytes"),
    ("tree.import_pages", "pages"),
    ("xmlgen.generate_s", "s"),
    ("tree.import_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// Quantile `q` in `[0, 1]` of `samples`, interpolating linearly between
/// the closest ranks. `None` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let mut v: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(v[lo] + (v[hi] - v[lo]) * frac)
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// One metric value with the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

/// The metrics of one run, by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, Value>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name, Value { value, samples });
    }

    /// Renders the table (one metric a line) and the final JSON result
    /// line for the metrics in `names`, in that order. Fails if one of
    /// them was never set: every declared metric must be measured.
    pub fn render(
        &self,
        names: &[(&'static str, &'static str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<(String, String), String> {
        let mut table = String::new();
        let mut json = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let v = self
                .0
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            let _ = writeln!(
                table,
                "{name:<42} {:>16} {unit:<6} (n={})",
                format!("{:.6}", v.value),
                v.samples
            );
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                v.value
            );
        }
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}"
        );
        Ok((table, line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn render_requires_every_metric() {
        let mut m = Metrics::default();
        m.set("a", 1.5, 3);
        assert!(m.render(&[("a", "s"), ("b", "s")], true, 1, 0).is_err());
        let (_, line) = m.render(&[("a", "s")], true, 3, 0).expect("a is set");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
