//! Property-based tests of the machine's recovery invariants.
//!
//! The central property is Appendix A's: the most recent *safe* checkpoints
//! always form a consistent recovery line, so deterministic re-execution
//! after any fault schedule converges to exactly the state a fault-free
//! run produces — and there is no domino effect (every run terminates with
//! bounded re-execution).

use proptest::prelude::*;
use rebound_core::{CoreProgram, Machine, MachineConfig, Scheme};
use rebound_engine::{Addr, CoreId, Cycle, LineAddr};
use rebound_workloads::Op;

/// Build a script from a compact random description. Each core writes only
/// its own lines (so final memory is interleaving-independent) but may read
/// anyone's — reads create the cross-core dependences recovery must honour.
fn build_script(core: usize, ncores: usize, ops: &[(u8, u8)]) -> CoreProgram {
    let mut v = Vec::new();
    for &(kind, arg) in ops {
        match kind % 5 {
            0 => v.push(Op::Compute(50 + (arg as u64) * 20)),
            1 => {
                // Write one of this core's 8 private-to-writer lines.
                let line = (core * 8 + (arg as usize % 8)) as u64;
                v.push(Op::Store(Addr(0x20_0000 + line * 32)));
            }
            2 => {
                // Read any core's line.
                let owner = arg as usize % ncores;
                let line = (owner * 8 + (arg as usize / 16 % 8)) as u64;
                v.push(Op::Load(Addr(0x20_0000 + line * 32)));
            }
            3 => v.push(Op::CheckpointHint),
            _ => v.push(Op::Compute(10)),
        }
    }
    v.push(Op::Compute(3_000));
    CoreProgram::script(v)
}

fn machine_cfg(n: usize, scheme: Scheme) -> MachineConfig {
    let mut c = MachineConfig::small(n);
    c.scheme = scheme;
    c.ckpt_interval_insts = 4_000;
    c.detect_latency = 300;
    c
}

fn all_lines(n: usize) -> Vec<LineAddr> {
    (0..(n * 8) as u64)
        .map(|l| Addr(0x20_0000 + l * 32).line(Default::default()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Re-execution after any single fault reproduces the fault-free final
    /// machine state (memory overlaid with dirty cache lines).
    #[test]
    fn recovery_converges_to_fault_free_state(
        scripts in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<u8>()), 10..60),
            2..4,
        ),
        fault_core in any::<u8>(),
        fault_at in 1_000u64..60_000,
    ) {
        let n = scripts.len();
        let programs: Vec<CoreProgram> = scripts
            .iter()
            .enumerate()
            .map(|(i, ops)| build_script(i, n, ops))
            .collect();

        let run = |fault: Option<(CoreId, Cycle)>| {
            let mut m = Machine::with_programs(
                &machine_cfg(n, Scheme::REBOUND),
                programs.clone(),
            );
            if let Some((c, t)) = fault {
                m.schedule_fault_detection(c, t);
            }
            // Bounded stepping to catch livelocks as failures, not hangs.
            let mut steps = 0u64;
            while m.step() {
                steps += 1;
                prop_assert!(steps < 30_000_000, "machine livelocked");
            }
            let values: Vec<u64> = all_lines(n)
                .into_iter()
                .map(|l| m.effective_line_value(l))
                .collect();
            Ok((values, m.report()))
        };

        let (clean, _) = run(None)?;
        let fc = CoreId(fault_core as usize % n);
        let (faulty, rep) = run(Some((fc, Cycle(fault_at))))?;
        // The fault may land after completion (then no rollback happens),
        // but whenever recovery ran, state must converge.
        prop_assert_eq!(clean, faulty, "rollbacks={}", rep.rollbacks);
    }

    /// Multiple faults: the machine always terminates (no domino effect)
    /// and still converges to the fault-free state.
    #[test]
    fn no_domino_effect_under_repeated_faults(
        scripts in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<u8>()), 10..40),
            2..4,
        ),
        faults in proptest::collection::vec((any::<u8>(), 2_000u64..80_000), 1..4),
    ) {
        let n = scripts.len();
        let programs: Vec<CoreProgram> = scripts
            .iter()
            .enumerate()
            .map(|(i, ops)| build_script(i, n, ops))
            .collect();

        let clean_values = {
            let mut m = Machine::with_programs(
                &machine_cfg(n, Scheme::REBOUND),
                programs.clone(),
            );
            m.run_to_completion();
            all_lines(n)
                .into_iter()
                .map(|l| m.effective_line_value(l))
                .collect::<Vec<u64>>()
        };

        let mut m = Machine::with_programs(
            &machine_cfg(n, Scheme::REBOUND),
            programs.clone(),
        );
        for &(c, t) in &faults {
            m.schedule_fault_detection(CoreId(c as usize % n), Cycle(t));
        }
        let mut steps = 0u64;
        while m.step() {
            steps += 1;
            prop_assert!(steps < 40_000_000, "domino effect / livelock");
        }
        let r = m.report();
        prop_assert!(r.rollbacks <= faults.len() as u64);
        let faulty_values: Vec<u64> = all_lines(n)
            .into_iter()
            .map(|l| m.effective_line_value(l))
            .collect();
        prop_assert_eq!(clean_values, faulty_values);
    }

    /// Under the Global baseline the same convergence property holds.
    #[test]
    fn global_scheme_recovery_converges(
        scripts in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<u8>()), 10..40),
            2..3,
        ),
        fault_at in 2_000u64..40_000,
    ) {
        let n = scripts.len();
        let programs: Vec<CoreProgram> = scripts
            .iter()
            .enumerate()
            .map(|(i, ops)| build_script(i, n, ops))
            .collect();
        let run = |fault: bool| {
            let mut m = Machine::with_programs(
                &machine_cfg(n, Scheme::GLOBAL),
                programs.clone(),
            );
            if fault {
                m.schedule_fault_detection(CoreId(0), Cycle(fault_at));
            }
            m.run_to_completion();
            all_lines(n)
                .into_iter()
                .map(|l| m.effective_line_value(l))
                .collect::<Vec<u64>>()
        };
        prop_assert_eq!(run(false), run(true));
    }

    /// Interaction sets never exceed the machine and the undo log never
    /// shrinks a run's instruction total: sanity under random workloads.
    #[test]
    fn interaction_sets_are_bounded(seed in any::<u64>()) {
        let profile = rebound_workloads::profile_named("FMM").unwrap();
        let mut c = MachineConfig::small(6);
        c.scheme = Scheme::REBOUND;
        c.ckpt_interval_insts = 6_000;
        c.seed = seed;
        c.fp_study = true;
        let mut m = Machine::from_profile(&c, &profile, 25_000);
        let r = m.run_to_completion();
        prop_assert!(r.metrics.ichk_sizes.max() <= 6.0);
        prop_assert!(r.metrics.ichk_oracle_sizes.count() > 0);
        prop_assert!(r.metrics.ichk_oracle_sizes.max() <= 6.0);
        // The oracle closure can never exceed the bloom-edge closure
        // (false positives only ever add edges).
        prop_assert!(
            r.metrics.ichk_oracle_sizes.mean() <= r.metrics.ichk_bloom_sizes.mean() + 1e-9
        );
        prop_assert!(r.insts >= 6 * 25_000);
    }
}
