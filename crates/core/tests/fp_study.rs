//! The WSIG false-positive study (`MachineConfig::fp_study`) only
//! measures. Switching it on moves no simulated statistic except the
//! study's own two samples; switching it off leaves every WSIG without its
//! exact shadow, so a tracked store does no hash-set work.

use rebound_core::{Machine, MachineConfig, RunReport, Scheme};
use rebound_engine::{CoreId, Cycle, RunningStats};
use rebound_workloads::profile_named;

const CORES: usize = 8;
const QUOTA: u64 = 12_000;

fn cfg(scheme: Scheme, fp_study: bool) -> MachineConfig {
    let mut c = MachineConfig::small(CORES);
    c.scheme = scheme;
    c.ckpt_interval_insts = 4_000;
    c.fp_study = fp_study;
    c
}

/// Runs to completion and returns the report with the largest WSIG shadow
/// seen on any Dep register set at any step.
fn run(cfg: &MachineConfig, app: &str, fault_at: Option<Cycle>) -> (RunReport, usize) {
    let p = profile_named(app).expect("catalog app");
    let mut m = Machine::from_profile(cfg, &p, QUOTA);
    if let Some(at) = fault_at {
        m.schedule_fault_detection(CoreId(1), at);
    }
    let mut max_shadow = 0;
    while m.step() {
        for c in 0..CORES {
            let f = m.dep_regs(CoreId(c));
            for i in 0..f.len() {
                max_shadow = max_shadow.max(f.set(i).wsig.exact_len());
            }
        }
    }
    (m.report(), max_shadow)
}

/// The report minus the study's samples, rendered field for field.
fn without_study(mut r: RunReport) -> String {
    r.metrics.ichk_bloom_sizes = RunningStats::default();
    r.metrics.ichk_oracle_sizes = RunningStats::default();
    format!("{r:?}")
}

/// Runs one cell with the study off and on, checks the switch only
/// measured, and returns the report with the study on.
fn check_cell(scheme: Scheme, app: &str, fault_at: Option<Cycle>) -> RunReport {
    let label = format!("{}/{app}/fault={fault_at:?}", scheme.label());
    let (off, off_shadow) = run(&cfg(scheme, false), app, fault_at);
    let (on, on_shadow) = run(&cfg(scheme, true), app, fault_at);
    assert_eq!(
        off_shadow, 0,
        "{label}: a WSIG kept a shadow without the study"
    );
    assert_eq!(off.metrics.ichk_bloom_sizes.count(), 0, "{label}");
    assert_eq!(off.metrics.ichk_oracle_sizes.count(), 0, "{label}");
    // With the study on, every episode samples both closures.
    let episodes = on.metrics.ichk_sizes.count();
    assert_eq!(on.metrics.ichk_bloom_sizes.count(), episodes, "{label}");
    assert_eq!(on.metrics.ichk_oracle_sizes.count(), episodes, "{label}");
    if scheme.tracks_dependences() {
        assert!(
            on_shadow > 0,
            "{label}: the study must shadow tracked stores"
        );
    }
    assert_eq!(
        without_study(off),
        without_study(on.clone()),
        "{label}: the study changed the simulation"
    );
    on
}

#[test]
fn fp_study_changes_no_statistic_on_any_scheme() {
    for scheme in Scheme::ALL {
        for app in ["Ocean", "FFT"] {
            check_cell(scheme, app, None);
        }
    }
}

#[test]
fn fp_study_changes_nothing_across_a_rollback() {
    let (clean, _) = run(&cfg(Scheme::REBOUND, false), "Ocean", None);
    let faulty = check_cell(Scheme::REBOUND, "Ocean", Some(Cycle(clean.cycles / 2)));
    assert!(faulty.rollbacks > 0, "the fault must roll back (reset_all)");
}
