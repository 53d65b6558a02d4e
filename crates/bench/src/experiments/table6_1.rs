//! Table 6.1: per-application characterization of Rebound —
//! (1) % increase in ICHK due to WSIG false positives,
//! (2) maximum log space per checkpoint interval,
//! (3) % increase in coherence messages from LW-ID/Dep maintenance.
//!
//! Paper averages: +2.0% ICHK from false positives, 7.2 MB log,
//! +4.2% coherence messages.

use rebound_core::{Machine, Scheme};
use rebound_workloads::{all_profiles, Suite};

use crate::{config_for, ExpScale, Table};

use super::{PARSEC_CORES, SPLASH_CORES};

/// Runs the characterization and returns the table (SPLASH-2 at 64
/// processors, PARSEC/Apache at 24, as in the paper). Log sizes are
/// rescaled to the paper's 4M-instruction interval for comparability.
pub fn run(scale: ExpScale) -> Table {
    let mut t = Table::new([
        "App",
        "ICHK FP increase %",
        "Log size (MB @4M-inst)",
        "Coher. msg increase %",
    ]);
    let rescale = 1.0 / scale.vs_paper();
    let (mut fp, mut log, mut msg, mut n) = (0.0, 0.0, 0.0, 0.0);
    for p in all_profiles() {
        let cores = if p.suite == Suite::Splash2 {
            SPLASH_CORES
        } else {
            PARSEC_CORES
        };
        let mut cfg = config_for(Scheme::REBOUND, cores, scale);
        cfg.fp_study = true;
        let r = Machine::from_profile(&cfg, &p, scale.quota).run_to_completion();
        let fp_pct = r.metrics.ichk_fp_increase_percent();
        // Max per-processor interval bytes scaled to machine-wide MB at
        // the paper's interval length.
        let log_mb = r.log_max_interval_bytes as f64 * cores as f64 * rescale / 1.0e6;
        let msg_pct = r.msgs.dep_overhead_percent();
        fp += fp_pct;
        log += log_mb;
        msg += msg_pct;
        n += 1.0;
        t.row([
            p.name.to_string(),
            format!("{fp_pct:.1}"),
            format!("{log_mb:.1}"),
            format!("{msg_pct:.1}"),
        ]);
    }
    t.row([
        "Average".to_string(),
        format!("{:.1}", fp / n),
        format!("{:.1}", log / n),
        format!("{:.1}", msg / n),
    ]);
    t
}
