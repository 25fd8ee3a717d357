//! The benchmark's metric catalogue and measured values.

use std::collections::BTreeMap;

use crate::stats::{summarize, Summary};

/// A metric's name and unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Def {
    /// Name, matching `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// End-to-end metrics, measured with tracing off. Host seconds unless the
/// name starts with `sim_` (simulated, deterministic). `ok_frac` is
/// `1 − fail_frac`: a gated metric must never read 0.
pub const END_TO_END: [Def; 9] = [
    def("setup_s", "s"),
    def("run_s", "s"),
    def("wall_s", "s"),
    def("events_per_s", "1/s"),
    def("sim_tx_per_s", "1/s"),
    def("peak_rss_mib", "MiB"),
    def("sim_cycles", "cycles"),
    def("sim_write_lat_cycles", "cycles"),
    def("ok_frac", "ratio"),
];

/// Per-layer metrics of the traced run; layer names are the crates.
pub const PER_LAYER: [Def; 44] = [
    def("workloads.generate_s", "s"),
    def("workloads.program_ops", "count"),
    def("instrument.pass_s", "s"),
    def("instrument.ns_per_op", "ns"),
    def("instrument.ops_added", "count"),
    def("core.build_s", "s"),
    def("core.run_s", "s"),
    def("core.verify_s", "s"),
    def("core.events", "count"),
    def("core.ns_per_event", "ns"),
    def("core.unattributed_ns_per_event", "ns"),
    def("core.l2_hits", "count"),
    def("core.l2_misses", "count"),
    def("core.irb_inserted", "count"),
    def("core.irb_consumed", "count"),
    def("core.irb_dropped", "count"),
    def("core.irb_consume_ratio", "ratio"),
    def("core.fully_preexecuted_fraction", "ratio"),
    def("core.read_lat_cycles", "cycles"),
    def("core.tenant_p99_cycles_max", "cycles"),
    def("core.jain_fairness", "ratio"),
    def("bmo.writes", "count"),
    def("bmo.dup_writes", "count"),
    def("bmo.sched_hits", "count"),
    def("bmo.sched_misses", "count"),
    def("bmo.sched_hit_ratio", "ratio"),
    def("bmo.pipeline_s", "s"),
    def("bmo.pipeline_ns_per_write", "ns"),
    def("bmo.merkle_s", "s"),
    def("crypto.md5_calls", "count"),
    def("crypto.md5_s", "s"),
    def("crypto.otp_calls", "count"),
    def("crypto.otp_s", "s"),
    def("crypto.mac_calls", "count"),
    def("crypto.mac_s", "s"),
    def("nvm.device_writes", "count"),
    def("nvm.device_reads", "count"),
    def("nvm.wq_stall_cycles", "cycles"),
    def("nvm.wq_coalesced", "count"),
    def("nvm.replay_ns_per_write", "ns"),
    def("sim.queue_ops", "count"),
    def("sim.queue_ns_per_op", "ns"),
    def("bench.pool_efficiency", "ratio"),
    def("trace.overhead_ratio", "ratio"),
];

/// A measured metric: its definition and the summary of its samples.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name and unit.
    pub def: Def,
    /// Summary of the samples (one sample for deterministic values).
    pub summary: Summary,
}

/// Measured samples, keyed by metric name.
#[derive(Clone, Debug, Default)]
pub struct Values(BTreeMap<&'static str, Vec<f64>>);

impl Values {
    /// Records the samples of metric `name`.
    pub fn set(&mut self, name: &'static str, samples: Vec<f64>) {
        self.0.insert(name, samples);
    }

    /// Records a single value.
    pub fn one(&mut self, name: &'static str, value: f64) {
        self.set(name, vec![value]);
    }

    /// The median of metric `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .get(name)
            .and_then(|s| summarize(s))
            .map(|s| s.median)
    }

    /// Resolves every definition in `defs`; a metric with no samples is
    /// missing from the result.
    pub fn resolve(&self, defs: &[Def]) -> Vec<Metric> {
        defs.iter()
            .filter_map(|d| {
                Some(Metric {
                    def: *d,
                    summary: summarize(self.0.get(d.name)?)?,
                })
            })
            .collect()
    }
}
