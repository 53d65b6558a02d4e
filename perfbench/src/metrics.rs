//! The metric catalog (names and units, in `BENCHMARK.json` order), the
//! values one run collects, and the result record it prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Reported by untraced runs. `fail_frac` is not among them: it is zero
/// on a healthy run, so it travels as the record's `failed`/`attempted`
/// pair and is printed in the human-readable table.
pub const END_TO_END: &[Metric] = &[
    m("wall_s", "s"),
    m("cpu_s", "s"),
    m("setup_s", "s"),
    m("peak_rss_mib", "MiB"),
    m("sim_minsts_per_s", "Minst/s"),
    m("sim_cycles", "cycles"),
    m("sim_ckpt_overhead_pct", "%"),
];

/// Reported by traced runs, one crate prefix per layer (`bench.` is the
/// benchmark's own tracing cost).
pub const PER_LAYER: &[Metric] = &[
    m("engine.events", "count"),
    m("engine.events_per_kinst", "1/kinst"),
    m("engine.host_ns_per_event", "ns"),
    m("engine.queue_peak", "count"),
    m("workloads.build_s", "s"),
    m("workloads.lines", "count"),
    m("mem.l1_accesses", "count"),
    m("mem.l2_accesses", "count"),
    m("mem.l1_hit_frac", "ratio"),
    m("mem.mem_lines", "count"),
    m("mem.log_entries", "count"),
    m("mem.log_peak_bytes", "bytes"),
    m("mem.load_lat_p50_cyc", "cycles"),
    m("mem.load_lat_p99_cyc", "cycles"),
    m("coherence.msgs_base", "count"),
    m("coherence.msgs_dep", "count"),
    m("coherence.msgs_protocol", "count"),
    m("coherence.dir_entries", "count"),
    m("coherence.dir_resident_kib", "KiB"),
    m("coherence.dir_spill_peak", "count"),
    m("core.run_s", "s"),
    m("core.report_s", "s"),
    m("core.wsig_ops", "count"),
    m("core.lwid_updates", "count"),
    m("core.dep_stalls", "count"),
    m("core.checkpoints", "count"),
    m("core.processor_checkpoints", "count"),
    m("core.ichk_mean_pct", "%"),
    m("core.busy_aborts", "count"),
    m("core.declines", "count"),
    m("core.nacks", "count"),
    m("core.stall_sync_cyc", "cycles"),
    m("core.stall_wb_cyc", "cycles"),
    m("core.stall_imbalance_cyc", "cycles"),
    m("core.stall_ipc_cyc", "cycles"),
    m("core.rollbacks", "count"),
    m("core.recovery_cyc", "cycles"),
    m("core.irec_mean", "cores"),
    m("core.proto_errors", "count"),
    m("harness.job_s_p50", "s"),
    m("harness.job_s_tail", "s"),
    m("harness.job_s_tail_pctile", "pctile"),
    m("harness.job_samples", "count"),
    m("harness.pool_busy_frac", "ratio"),
    m("harness.golden_capture_s", "s"),
    m("harness.goldens_computed", "count"),
    m("harness.goldens_reused", "count"),
    m("harness.golden_resident_kib", "KiB"),
    m("harness.oracle_pass", "count"),
    m("harness.oracle_vacuous_frac", "ratio"),
    m("harness.store_save_s", "s"),
    m("harness.store_load_s", "s"),
    m("harness.store_kib", "KiB"),
    m("harness.render_s", "s"),
    m("bench.traced_wall_s", "s"),
    m("bench.trace_overhead_pct", "%"),
    m("bench.raw_wall_s", "s"),
    m("bench.ref_s", "s"),
];

/// Metric values of one run, plus its failure accounting.
#[derive(Default)]
pub struct Outcome {
    values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "unknown metric {name}"
        );
        self.values
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Records a failed output check; `ops` operations count as failed.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.problems.push(why);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The human-readable table (every metric of the run's set; `n/a`
    /// marks one the workload has no source for, reported as 0).
    pub fn table(&self, set: &[Metric]) -> String {
        let mut out = String::new();
        let fail_frac = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "  {:<32} {:>20} ratio  ({} of {} failed)",
            "fail_frac", fail_frac, self.failed, self.attempted
        );
        for m in set {
            match self.values.get(m.name) {
                Some(v) => {
                    let _ = writeln!(out, "  {:<32} {:>20} {}", m.name, v, m.unit);
                }
                None => {
                    let _ = writeln!(out, "  {:<32} {:>20} {} (n/a)", m.name, 0, m.unit);
                }
            }
        }
        out
    }

    /// The one-line JSON result: every metric of `set`, in order.
    pub fn json(&self, set: &[Metric]) -> String {
        let metrics: Vec<String> = set
            .iter()
            .map(|m| {
                let v = self.values.get(m.name).copied().unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed.min(self.attempted.max(1)),
            metrics.join(", ")
        )
    }
}

/// Mean of `v` (0 when empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (1..=100) of `v`.
pub fn percentile(v: &[f64], p: u32) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p as usize * s.len()).div_ceil(100).max(1);
    s[rank - 1]
}

/// The highest whole percentile with at least ten samples above its
/// nearest rank; the median when there are too few samples for one.
pub fn tail_percentile(n: usize) -> u32 {
    (50..=99)
        .rev()
        .find(|&p| n - (p as usize * n).div_ceil(100).max(1) >= 10)
        .unwrap_or(50)
}

/// 64-bit FNV-1a, the digest pinned for deterministic outputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_leaves_ten_samples_above() {
        // 324 jobs: p96 ranks 312 (12 above), p97 ranks 315 (9 above).
        assert_eq!(tail_percentile(324), 96);
        assert_eq!(tail_percentile(20), 50);
        assert_eq!(tail_percentile(5), 50);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 96), 96.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
