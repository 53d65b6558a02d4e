//! Ablation studies for Rebound's design choices (DESIGN.md §5):
//!
//! * **WSIG size** — smaller signatures alias more, inflating interaction
//!   sets through false positives (the sensitivity behind Table 6.1 row 1
//!   and the paper's choice of 512–1024 bits).
//! * **Dep register sets** — fewer sets force rotation stalls when
//!   checkpoints outpace the recycling rule of §4.2 (the paper provisions
//!   4).
//! * **Detection latency L** — larger L pushes rollback targets further
//!   back and delays Dep-set recycling.
//! * **Log banking** — more banks shorten the reverse scan at recovery.
//!
//! ```sh
//! cargo run --release -p rebound-bench --bin ablations
//! ```

use rebound_bench::{config_for, ExpScale, Table};
use rebound_core::{Machine, Scheme};
use rebound_engine::{CoreId, Cycle};
use rebound_workloads::profile_named;

const CORES: usize = 32;

fn main() {
    let scale = ExpScale::from_env();
    println!(
        "# ablations (scale: interval={} insts, {CORES} cores)\n",
        scale.interval
    );
    wsig_sweep(scale);
    dep_set_sweep(scale);
    detect_latency_sweep(scale);
    log_bank_sweep(scale);
    log_filter_sweep(scale);
}

fn wsig_sweep(scale: ExpScale) {
    let p = profile_named("Radix").expect("catalog app"); // highest FP rate in the paper
    let mut t = Table::new(["WSIG bits", "ICHK FP increase %", "mean ICHK %"]);
    for bits in [128usize, 256, 512, 1024, 2048] {
        let mut cfg = config_for(Scheme::REBOUND, CORES, scale);
        cfg.wsig_bits = bits;
        cfg.fp_study = true;
        let r = Machine::from_profile(&cfg, &p, scale.quota).run_to_completion();
        t.row([
            bits.to_string(),
            format!("{:.2}", r.metrics.ichk_fp_increase_percent()),
            format!("{:.1}", 100.0 * r.ichk_fraction()),
        ]);
    }
    println!("## WSIG size sweep (Radix)\n\n{}", t.render());
}

fn dep_set_sweep(scale: ExpScale) {
    let p = profile_named("Blackscholes").expect("catalog app"); // frequent solo ckpts
    let mut t = Table::new(["Dep sets", "rotation stalls", "checkpoints", "cycles"]);
    for sets in [2usize, 3, 4, 6] {
        let mut cfg = config_for(Scheme::REBOUND, CORES, scale);
        cfg.dep_sets = sets;
        // Stress recycling: long detection latency pins completed sets.
        cfg.detect_latency = scale.interval;
        let r = Machine::from_profile(&cfg, &p, scale.quota).run_to_completion();
        t.row([
            sets.to_string(),
            r.metrics.dep_stalls.to_string(),
            r.metrics.processor_checkpoints.to_string(),
            r.cycles.to_string(),
        ]);
    }
    println!(
        "## Dep-register-set sweep (Blackscholes, L=interval)\n\n{}",
        t.render()
    );
}

fn detect_latency_sweep(scale: ExpScale) {
    let p = profile_named("FMM").expect("catalog app");
    let mut t = Table::new([
        "L (cycles)",
        "recovery cycles",
        "IREC size",
        "re-executed insts",
    ]);
    for l in [1_000u64, 10_000, 50_000, 200_000] {
        let mut cfg = config_for(Scheme::REBOUND, CORES, scale);
        cfg.detect_latency = l;
        let base = Machine::from_profile(&cfg, &p, scale.quota).run_to_completion();
        let mut m = Machine::from_profile(&cfg, &p, scale.quota);
        m.schedule_fault_detection(CoreId(0), Cycle(base.cycles / 2));
        let r = m.run_to_completion();
        t.row([
            l.to_string(),
            format!("{:.0}", r.metrics.recovery_cycles.mean()),
            format!("{:.1}", r.metrics.irec_sizes.mean()),
            format!("{}", r.insts.saturating_sub(base.insts)),
        ]);
    }
    println!(
        "## Detection-latency sweep (FMM, fault at mid-run)\n\n{}",
        t.render()
    );
}

fn log_bank_sweep(scale: ExpScale) {
    let p = profile_named("Ocean").expect("catalog app"); // largest log in the paper
    let mut t = Table::new(["Log banks", "recovery cycles", "restores"]);
    for banks in [1usize, 2, 4, 8] {
        let mut cfg = config_for(Scheme::REBOUND, CORES, scale);
        cfg.log_banks = banks;
        let base = Machine::from_profile(&cfg, &p, scale.quota).run_to_completion();
        let mut m = Machine::from_profile(&cfg, &p, scale.quota);
        m.schedule_fault_detection(CoreId(0), Cycle(base.cycles / 2));
        let r = m.run_to_completion();
        t.row([
            banks.to_string(),
            format!("{:.0}", r.metrics.recovery_cycles.mean()),
            format!("{}", r.log_entries),
        ]);
    }
    println!(
        "## Log-banking sweep (Ocean, fault at mid-run)\n\n{}",
        t.render()
    );
}

fn log_filter_sweep(scale: ExpScale) {
    // ReVive's "log only the first writeback of a line per interval"
    // (§3.3.3): how much log volume does the filter save? With the
    // paper's 256 KB L2 the working sets fit and mid-interval
    // re-displacements are rare, so the sweep also runs a cache-starved
    // configuration where dirty lines thrash — the regime the
    // optimization was designed for.
    let mut t = Table::new(["app / L2", "entries (filter on)", "entries (off)", "saved"]);
    for (app, small_l2) in [
        ("Ocean", false),
        ("Ocean", true),
        ("Radix", true),
        ("Apache", true),
    ] {
        let p = profile_named(app).expect("catalog app");
        let run = |filter: bool| {
            let mut cfg = config_for(Scheme::REBOUND, CORES, scale);
            cfg.log_first_wb_filter = filter;
            if small_l2 {
                cfg.l1 = rebound_mem::CacheConfig::new(512, 4, 32);
                cfg.l2 = rebound_mem::CacheConfig::new(2 * 1024, 8, 32);
            }
            Machine::from_profile(&cfg, &p, scale.quota).run_to_completion()
        };
        let on = run(true);
        let off = run(false);
        t.row([
            format!("{app} ({})", if small_l2 { "2KB L2" } else { "256KB L2" }),
            on.log_entries.to_string(),
            off.log_entries.to_string(),
            format!(
                "{:.0}%",
                100.0 * (1.0 - on.log_entries as f64 / off.log_entries.max(1) as f64)
            ),
        ]);
    }
    println!("## First-writeback log filter (§3.3.3)\n\n{}", t.render());
}
