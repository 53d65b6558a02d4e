//! Overhead accounting and run metrics.
//!
//! Fig 6.5 decomposes checkpointing overhead into four categories; the
//! machine tags every checkpoint-attributable stall cycle with an
//! [`OverheadKind`] at the moment it occurs, so the breakdown is measured,
//! not inferred.

use rebound_engine::{Counter, Histogram, RunningStats};

/// The four overhead categories of Fig 6.5.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OverheadKind {
    /// `WBDelay`: the processor is stalled writing back its own dirty
    /// lines at a checkpoint.
    WbDelay,
    /// `WBImbalanceDelay`: the processor finished its writebacks and waits
    /// for the other checkpointing processors to finish theirs.
    WbImbalance,
    /// `SyncDelay`: coordination cost of the checkpoint protocol
    /// (CK?/Accept collection, start/resume signalling).
    Sync,
    /// `IPCDelay`: slowdown of normal execution caused by background
    /// checkpoint traffic (delayed writebacks, other processors'
    /// checkpoints) contending for memory bandwidth.
    Ipc,
}

/// Cycle totals per overhead category.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Own-writeback stall cycles.
    pub wb_delay: u64,
    /// Waiting-for-others stall cycles.
    pub wb_imbalance: u64,
    /// Protocol/synchronization stall cycles.
    pub sync_delay: u64,
    /// Demand-miss queueing cycles behind checkpoint traffic.
    pub ipc_delay: u64,
}

impl StallBreakdown {
    /// Adds `cycles` to the given category.
    pub fn add(&mut self, kind: OverheadKind, cycles: u64) {
        match kind {
            OverheadKind::WbDelay => self.wb_delay += cycles,
            OverheadKind::WbImbalance => self.wb_imbalance += cycles,
            OverheadKind::Sync => self.sync_delay += cycles,
            OverheadKind::Ipc => self.ipc_delay += cycles,
        }
    }

    /// Total checkpoint-attributable cycles.
    pub fn total(&self) -> u64 {
        self.wb_delay + self.wb_imbalance + self.sync_delay + self.ipc_delay
    }

    /// Element-wise sum.
    pub fn merge(&mut self, other: &StallBreakdown) {
        self.wb_delay += other.wb_delay;
        self.wb_imbalance += other.wb_imbalance;
        self.sync_delay += other.sync_delay;
        self.ipc_delay += other.ipc_delay;
    }
}

/// Aggregated metrics of one simulation run.
#[derive(Clone, Debug, Default)]
pub struct MachineMetrics {
    /// Stall breakdown summed over all cores.
    pub breakdown: StallBreakdown,
    /// Completed checkpoint episodes (one per interaction set, not per
    /// processor).
    pub checkpoint_episodes: u64,
    /// Per-processor checkpoint completions.
    pub processor_checkpoints: u64,
    /// Interaction-set-for-checkpointing sizes, one sample per episode
    /// (Figs 6.1/6.2).
    pub ichk_sizes: RunningStats,
    /// Static-closure ICHK sizes over the bloom-recorded dependence edges
    /// (same timing dynamics as the oracle closure below). Sampled only
    /// under [`MachineConfig::fp_study`](crate::MachineConfig::fp_study).
    pub ichk_bloom_sizes: RunningStats,
    /// Static-closure ICHK sizes over the exact-oracle dependence sets —
    /// the WSIG false-positive study of Table 6.1 row 1. Sampled only
    /// under [`MachineConfig::fp_study`](crate::MachineConfig::fp_study).
    pub ichk_oracle_sizes: RunningStats,
    /// Cycles between consecutive checkpoints of the same processor
    /// (Fig 6.7's y-axis).
    pub ckpt_intervals: RunningStats,
    /// Rollback episodes performed.
    pub rollbacks: u64,
    /// Interaction-set-for-recovery sizes.
    pub irec_sizes: RunningStats,
    /// Wall-clock cycles each rollback took (Fig 6.6(c)).
    pub recovery_cycles: RunningStats,
    /// Checkpoint initiations aborted by a Busy reply (§3.3.4 deadlock
    /// avoidance).
    pub busy_aborts: u64,
    /// Decline replies observed (stale MyProducers / recent checkpoints).
    pub declines: u64,
    /// Nacks received while a target was draining delayed writebacks.
    pub nacks: u64,
    /// Stalls for want of a free Dep register set (§4.2).
    pub dep_stalls: u64,
    // --- activity counters (consumed by the power model) ---
    /// L1 cache accesses.
    pub l1_accesses: Counter,
    /// L2 cache accesses.
    pub l2_accesses: Counter,
    /// Memory line transfers (demand + checkpoint).
    pub mem_lines: Counter,
    /// WSIG insertions + membership checks.
    pub wsig_ops: Counter,
    /// LW-ID field updates at directories.
    pub lwid_updates: Counter,
    /// Undo-log entries appended.
    pub log_entries: Counter,
    /// Distribution of demand-load latencies (cycles), including any
    /// queueing behind checkpoint traffic.
    pub load_latency: Histogram,
    /// Total instructions retired across cores.
    pub insts: u64,
}

impl MachineMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> MachineMetrics {
        MachineMetrics::default()
    }

    /// Mean ICHK size as a percentage of `ncores` (the y-axis of
    /// Figs 6.1/6.2).
    pub fn ichk_percent(&self, ncores: usize) -> f64 {
        100.0 * self.ichk_sizes.mean() / ncores as f64
    }

    /// Percentage increase in ICHK attributable to WSIG false positives
    /// (Table 6.1 row 1): the bloom-edge closure versus the exact-oracle
    /// closure. False positives only ever add edges, so this is ≥ 0; it is
    /// 0 unless the run had
    /// [`MachineConfig::fp_study`](crate::MachineConfig::fp_study) on.
    pub fn ichk_fp_increase_percent(&self) -> f64 {
        let oracle = self.ichk_oracle_sizes.mean();
        if oracle == 0.0 {
            0.0
        } else {
            100.0 * (self.ichk_bloom_sizes.mean() - oracle) / oracle
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_adds_per_category() {
        let mut b = StallBreakdown::default();
        b.add(OverheadKind::WbDelay, 10);
        b.add(OverheadKind::WbImbalance, 20);
        b.add(OverheadKind::Sync, 5);
        b.add(OverheadKind::Ipc, 7);
        assert_eq!(b.wb_delay, 10);
        assert_eq!(b.wb_imbalance, 20);
        assert_eq!(b.sync_delay, 5);
        assert_eq!(b.ipc_delay, 7);
        assert_eq!(b.total(), 42);
    }

    #[test]
    fn breakdown_merge_sums() {
        let mut a = StallBreakdown {
            wb_delay: 1,
            wb_imbalance: 2,
            sync_delay: 3,
            ipc_delay: 4,
        };
        a.merge(&a.clone());
        assert_eq!(a.total(), 20);
    }

    #[test]
    fn ichk_percentages() {
        let mut m = MachineMetrics::new();
        for _ in 0..10 {
            m.ichk_sizes.push(16.0);
            m.ichk_bloom_sizes.push(16.0);
            m.ichk_oracle_sizes.push(15.0);
        }
        assert!((m.ichk_percent(64) - 25.0).abs() < 1e-9);
        let fp = m.ichk_fp_increase_percent();
        assert!((fp - 100.0 / 15.0).abs() < 1e-9);
    }

    #[test]
    fn fp_increase_handles_empty() {
        let m = MachineMetrics::new();
        assert_eq!(m.ichk_fp_increase_percent(), 0.0);
        assert_eq!(m.ichk_percent(64), 0.0);
    }
}
