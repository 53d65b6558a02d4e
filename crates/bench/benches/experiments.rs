//! Reduced-scale end-to-end benchmarks: one representative cell per paper
//! figure/table, so `cargo bench` exercises the full reproduction pipeline
//! (the complete matrices are regenerated by the `fig6_*`/`table6_1`
//! binaries and `bin/reproduce`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use rebound_bench::{config_for, run_cell, ExpScale};
use rebound_core::{Machine, Scheme};
use rebound_engine::{CoreId, Cycle};
use rebound_workloads::profile_named;

fn scale() -> ExpScale {
    ExpScale::tiny()
}

fn bench_ichk(c: &mut Criterion) {
    // Figs 6.1/6.2: interaction-set measurement runs.
    let mut g = c.benchmark_group("fig6_1_2_ichk");
    g.sample_size(10);
    for app in ["Blackscholes", "Barnes", "Ocean"] {
        let p = profile_named(app).unwrap();
        g.bench_function(app, |b| {
            b.iter(|| black_box(run_cell(&p, Scheme::REBOUND, 16, scale()).ichk_fraction()));
        });
    }
    g.finish();
}

fn bench_overhead(c: &mut Criterion) {
    // Figs 6.3/6.4: overhead runs for each scheme.
    let mut g = c.benchmark_group("fig6_3_4_overhead");
    g.sample_size(10);
    let p = profile_named("FMM").unwrap();
    for s in [
        Scheme::None,
        Scheme::GLOBAL,
        Scheme::GLOBAL_DWB,
        Scheme::REBOUND_NODWB,
        Scheme::REBOUND,
        Scheme::REBOUND_BARR,
    ] {
        g.bench_function(s.label(), |b| {
            b.iter(|| black_box(run_cell(&p, s, 16, scale()).cycles));
        });
    }
    g.finish();
}

fn bench_breakdown(c: &mut Criterion) {
    // Fig 6.5: breakdown accounting comes for free with a run.
    let mut g = c.benchmark_group("fig6_5_breakdown");
    g.sample_size(10);
    let p = profile_named("LU-C").unwrap();
    g.bench_function("rebound_breakdown", |b| {
        b.iter(|| {
            let r = run_cell(&p, Scheme::REBOUND, 16, scale());
            black_box(r.metrics.breakdown.total())
        });
    });
    g.finish();
}

fn bench_scalability(c: &mut Criterion) {
    // Fig 6.6: machine-size sweep.
    let mut g = c.benchmark_group("fig6_6_scalability");
    g.sample_size(10);
    let p = profile_named("Water-Sp").unwrap();
    for n in [8usize, 16, 32] {
        g.bench_function(format!("rebound_{n}p"), |b| {
            b.iter(|| black_box(run_cell(&p, Scheme::REBOUND, n, scale()).cycles));
        });
    }
    g.finish();
}

fn bench_recovery(c: &mut Criterion) {
    // Fig 6.6(c): fault injection + rollback + re-execution.
    let mut g = c.benchmark_group("fig6_6c_recovery");
    g.sample_size(10);
    let p = profile_named("FMM").unwrap();
    g.bench_function("fault_and_recover", |b| {
        b.iter(|| {
            let cfg = rebound_bench::config_for(Scheme::REBOUND, 8, scale());
            let mut m = Machine::from_profile(&cfg, &p, scale().quota);
            m.schedule_fault_detection(CoreId(0), Cycle(50_000));
            black_box(m.run_to_completion().rollbacks)
        });
    });
    g.finish();
}

fn bench_io(c: &mut Criterion) {
    // Fig 6.7: I/O-pressured run.
    let mut g = c.benchmark_group("fig6_7_io");
    g.sample_size(10);
    let p = profile_named("Apache").unwrap();
    g.bench_function("rebound_io", |b| {
        b.iter(|| {
            let mut cfg = rebound_bench::config_for(Scheme::REBOUND, 16, scale());
            cfg.io = Some(rebound_core::IoPressure {
                core: CoreId(0),
                period_cycles: scale().interval,
            });
            let mut m = Machine::from_profile(&cfg, &p, scale().quota);
            black_box(m.run_to_completion().metrics.ckpt_intervals.mean())
        });
    });
    g.finish();
}

fn bench_power_table(c: &mut Criterion) {
    // Fig 6.8 / Table 6.1: metric extraction on top of a run.
    let mut g = c.benchmark_group("fig6_8_table6_1");
    g.sample_size(10);
    let p = profile_named("Radix").unwrap();
    g.bench_function("power_and_characterization", |b| {
        b.iter(|| {
            let mut cfg = config_for(Scheme::REBOUND, 16, scale());
            cfg.fp_study = true;
            let r = Machine::from_profile(&cfg, &p, scale().quota).run_to_completion();
            let e = rebound_bench::energy_of(&r, &Default::default());
            black_box((
                e.avg_power_w,
                r.metrics.ichk_fp_increase_percent(),
                r.msgs.dep_overhead_percent(),
            ))
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_ichk,
    bench_overhead,
    bench_breakdown,
    bench_scalability,
    bench_recovery,
    bench_io,
    bench_power_table
);
criterion_main!(benches);
