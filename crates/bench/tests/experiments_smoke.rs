//! Tiny-scale smoke tests of every experiment module: each figure/table
//! generator must produce a complete, well-formed table and respect the
//! paper's first-order invariants even at smoke scale.

use rebound_bench::{experiments as e, ExpScale};

fn scale() -> ExpScale {
    ExpScale::tiny()
}

fn rows(t: &rebound_bench::Table) -> Vec<Vec<String>> {
    t.render()
        .lines()
        .skip(2) // header + separator
        .map(|l| {
            l.split('|')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect()
        })
        .collect()
}

#[test]
fn fig6_1_covers_parsec_and_apache() {
    let t = e::fig6_1::run(scale());
    let r = rows(&t);
    assert_eq!(r.len(), 6, "5 apps + average");
    assert_eq!(r[0][0], "Blackscholes");
    assert_eq!(r[5][0], "Average");
    // Global is always 100%; Rebound must be below it for these apps.
    for row in &r[..5] {
        assert_eq!(row[1], "100");
        let reb: f64 = row[2].parse().unwrap();
        assert!(reb < 100.0, "{}: {}", row[0], reb);
    }
}

#[test]
fn fig6_2_covers_splash_at_both_sizes() {
    let t = e::fig6_2::run(scale());
    let r = rows(&t);
    assert_eq!(r.len(), 14, "13 apps + average");
    for row in &r {
        let p32: f64 = row[1].parse().unwrap();
        let p64: f64 = row[2].parse().unwrap();
        assert!((0.0..=100.0).contains(&p32));
        assert!((0.0..=100.0).contains(&p64));
    }
}

#[test]
fn fig6_3_splash_has_all_schemes() {
    // Use the per-app helper on one application to keep smoke time down.
    let p = rebound_workloads::profile_named("Water-Sp").unwrap();
    let (ovh, base) = e::fig6_3::app_overheads(&p, 16, scale());
    assert_eq!(ovh.len(), 4);
    assert!(base.cycles > 0);
    for v in &ovh {
        assert!(v.is_finite());
        assert!(*v > -20.0 && *v < 400.0, "overhead {v}% out of range");
    }
}

#[test]
fn fig6_7_io_shrinks_global_interval() {
    let t = e::fig6_7::run(scale());
    let r = rows(&t);
    assert_eq!(r.len(), 6, "5 apps + average");
    let avg = &r[5];
    let g: f64 = avg[1].parse().unwrap();
    let g_io: f64 = avg[2].parse().unwrap();
    let reb: f64 = avg[3].parse().unwrap();
    let reb_io: f64 = avg[4].parse().unwrap();
    assert!(g_io < g, "I/O must shorten Global's interval");
    // Rebound must retain a larger fraction of its nominal interval than
    // Global retains of its own.
    assert!(
        reb_io / reb > g_io / g,
        "Rebound must be less disrupted: {reb_io}/{reb} vs {g_io}/{g}"
    );
}

#[test]
fn fig6_8_power_orders_schemes() {
    let t = e::fig6_8::run(scale());
    let r = rows(&t);
    assert_eq!(r.len(), 3);
    assert_eq!(r[0][0], "Global");
    let g: f64 = r[0][1].parse().unwrap();
    let reb: f64 = r[2][1].parse().unwrap();
    assert!(g > 0.0 && reb > 0.0);
    // The paper finds Rebound consumes slightly MORE power (denser
    // execution + Dep hardware).
    assert!(
        reb >= g * 0.95,
        "Rebound power should not collapse: {reb} vs {g}"
    );
}

#[test]
fn table6_1_covers_all_18_apps() {
    let t = e::table6_1::run(scale());
    // The whole table, byte for byte: its FP column has non-zero rows
    // (FFT 0.9), so a run without the WSIG false-positive study fails.
    assert_eq!(t.render(), include_str!("golden/table6_1_tiny.txt"));
    let r = rows(&t);
    assert_eq!(r.len(), 19, "18 apps + average");
    for row in &r {
        let fp: f64 = row[1].parse().unwrap();
        let log: f64 = row[2].parse().unwrap();
        let msg: f64 = row[3].parse().unwrap();
        assert!(fp >= 0.0, "{}: FP {fp}", row[0]);
        assert!(log >= 0.0);
        assert!((0.0..100.0).contains(&msg), "{}: msg {msg}%", row[0]);
    }
}
