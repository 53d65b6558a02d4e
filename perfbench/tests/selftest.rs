//! The benchmark's self-test: every workload at `--size small`, untraced
//! and traced, against the metric lists of `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["tracked_256c", "untracked_256c", "adversarial_oracle"];

/// Per-layer metrics that are host times (or derived from them), so
/// they are not expected to repeat between runs.
const HOST_TIMED: [&str; 3] = [
    "harness.pool_busy_frac",
    "bench.traced_wall_s",
    "bench.trace_overhead_pct",
];

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = fs::read_to_string(&path).expect("BENCHMARK.json next to perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} list"));
    let list = &text[start..];
    let list = &list[..list.find(']').expect("closed list")];
    list.split('{')
        .skip(1)
        .map(|obj| (string_field(obj, "name"), string_field(obj, "unit")))
        .collect()
}

/// The string value of `"key": "value"` in `text`.
fn string_field(text: &str, key: &str) -> String {
    let at = text
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key} in {text}"));
    let rest = &text[at + key.len() + 2..];
    let open = rest.find('"').expect("opening quote") + 1;
    let close = open + rest[open..].find('"').expect("closing quote");
    rest[open..close].to_string()
}

struct Run {
    /// Metric name → (value, unit, times printed) from the JSON line.
    metrics: BTreeMap<String, (f64, String, usize)>,
    /// The `pin …` digest lines.
    pins: Vec<String>,
}

fn run(workload: &str, traced: bool, seed: Option<u64>) -> Run {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(["--workload", workload, "--size", "small", "--seconds", "0"])
        .args(["--trace", if traced { "1" } else { "0" }])
        .current_dir(env!("CARGO_TARGET_TMPDIR"));
    if let Some(s) = seed {
        cmd.args(["--seed", &s.to_string()]);
    }
    let out = cmd.output().expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} traced={traced} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true, "), "{last}");
    let body = &last[last.find("\"metrics\": {").expect("metrics object") + 12..];
    let mut metrics = BTreeMap::new();
    for entry in body.split("}, ").map(|e| e.trim_end_matches('}')) {
        let name = entry[1..entry.find("\": {").expect("metric entry")].to_string();
        let value: f64 = entry
            [entry.find("\"value\": ").unwrap() + 9..entry.find(", \"unit\"").unwrap()]
            .parse()
            .expect("numeric value");
        let unit = string_field(entry, "unit");
        metrics
            .entry(name)
            .and_modify(|e: &mut (f64, String, usize)| e.2 += 1)
            .or_insert((value, unit, 1));
    }
    let pins = stdout
        .lines()
        .filter(|l| l.starts_with("pin "))
        .map(str::to_string)
        .collect();
    Run { metrics, pins }
}

fn assert_exactly(run: &Run, section: &str, workload: &str) {
    let want = listed(section);
    assert_eq!(run.metrics.len(), want.len(), "{workload}: {section} count");
    for (name, unit) in want {
        let (_, got_unit, times) = run
            .metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: {name} not printed"));
        assert_eq!(*times, 1, "{workload}: {name} printed {times} times");
        assert!(!got_unit.is_empty(), "{workload}: {name} has no unit");
        assert_eq!(*got_unit, unit, "{workload}: unit of {name}");
    }
}

#[test]
fn untraced_runs_print_every_end_to_end_metric_once() {
    for w in WORKLOADS {
        assert_exactly(&run(w, false, None), "end_to_end", w);
    }
}

#[test]
fn traced_runs_repeat_counts_and_match_untraced_digests() {
    for w in WORKLOADS {
        let plain = run(w, false, None);
        let a = run(w, true, None);
        let b = run(w, true, None);
        assert_exactly(&a, "per_layer", w);
        assert!(!plain.pins.is_empty(), "{w}: no digests printed");
        assert_eq!(
            a.pins, plain.pins,
            "{w}: traced digests differ from untraced"
        );
        assert_eq!(a.pins, b.pins, "{w}: traced digests differ between runs");
        for (name, (value, unit, _)) in &a.metrics {
            if unit == "s" || unit == "ns" || HOST_TIMED.contains(&name.as_str()) {
                continue;
            }
            assert_eq!(
                *value, b.metrics[name].0,
                "{w}: {name} differs between traced runs"
            );
        }
    }
}

#[test]
fn a_non_default_seed_passes_the_seed_independent_checks() {
    for w in WORKLOADS {
        let default = run(w, false, None);
        let other = run(w, false, Some(4243));
        assert_ne!(
            default.pins, other.pins,
            "{w}: the seed did not reach the workload"
        );
    }
}
