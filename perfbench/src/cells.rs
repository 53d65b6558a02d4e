//! The two fault-free manycore workloads, `tracked_256c` and
//! `untracked_256c`: every scheme × app cell built with
//! `Machine::from_profile` and stepped to completion on one thread, with
//! the knobs of the `sim_throughput` criterion bench (and so of
//! `BENCH_sim.json`): interval 8 000 insts, quota 6 000 insts/core.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use rebound_coherence::DirFootprint;
use rebound_core::{Machine, MachineConfig, RunReport, Scheme};
use rebound_workloads::profile_named;

use crate::calib;
use crate::metrics::{fnv1a, mean, median, Outcome};
use crate::sys::{peak_rss_mib, Interval};
use crate::trace::Tracer;
use crate::{pinned, Size};

pub const DEFAULT_SEED: u64 = 7;
const QUOTA: u64 = 6_000;
const INTERVAL: u64 = 8_000;
/// Events after which a cell counts as livelocked (a 256-core cell
/// takes a few million).
const EVENT_BUDGET: u64 = 200_000_000;
const APPS: [&str; 2] = ["Ocean", "FFT"];

pub fn schemes(tracked: bool) -> [Scheme; 3] {
    if tracked {
        [
            Scheme::REBOUND,
            Scheme::REBOUND_CLUSTER,
            Scheme::REBOUND_EPOCH,
        ]
    } else {
        [Scheme::None, Scheme::GLOBAL, Scheme::GLOBAL_DWB]
    }
}

/// One finished cell: its report plus what only the live machine shows.
struct CellRun {
    label: String,
    report: RunReport,
    events: u64,
    build_s: f64,
    /// The step loop.
    run_s: f64,
    report_s: f64,
    cpu_s: f64,
    /// Largest `queue_len()` after any step (traced passes only).
    queue_peak: usize,
    lines: usize,
    dir: DirFootprint,
    proto_errors: usize,
    all_done: bool,
}

impl CellRun {
    /// The deterministic counts a cell digest covers, `name=value`.
    fn counts(&self) -> String {
        let r = &self.report;
        let mm = &r.metrics;
        let b = &mm.breakdown;
        let fields: [(&str, u64); 35] = [
            ("cycles", r.cycles),
            ("insts", r.insts),
            ("events", self.events),
            ("msgs_base", r.msgs.base.get()),
            ("msgs_dep", r.msgs.dep.get()),
            ("msgs_protocol", r.msgs.protocol.get()),
            ("l1", mm.l1_accesses.get()),
            ("l2", mm.l2_accesses.get()),
            ("mem_lines", mm.mem_lines.get()),
            ("log_appends", mm.log_entries.get()),
            ("log_entries", r.log_entries),
            ("log_peak_bytes", r.log_max_interval_bytes),
            ("load_n", mm.load_latency.count()),
            ("load_sum", mm.load_latency.sum()),
            ("load_p50", mm.load_latency.quantile_upper_bound(0.50)),
            ("load_p99", mm.load_latency.quantile_upper_bound(0.99)),
            ("wsig", mm.wsig_ops.get()),
            ("lwid", mm.lwid_updates.get()),
            ("dep_stalls", mm.dep_stalls),
            ("checkpoints", r.checkpoints),
            ("proc_checkpoints", mm.processor_checkpoints),
            ("ichk_n", mm.ichk_sizes.count()),
            ("ichk_mean_bits", mm.ichk_sizes.mean().to_bits()),
            ("busy_aborts", mm.busy_aborts),
            ("declines", mm.declines),
            ("nacks", mm.nacks),
            ("stall_sync", b.sync_delay),
            ("stall_wb", b.wb_delay),
            ("stall_imbalance", b.wb_imbalance),
            ("stall_ipc", b.ipc_delay),
            ("rollbacks", r.rollbacks),
            ("lines", self.lines as u64),
            ("dir_entries", self.dir.entries as u64),
            ("dir_resident", self.dir.resident_bytes as u64),
            ("dir_spill", self.dir.spill_capacity as u64),
        ];
        let parts: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
        parts.join(",")
    }

    fn digest(&self) -> u64 {
        fnv1a(self.counts().as_bytes())
    }
}

fn config(scheme: Scheme, cores: usize, seed: u64) -> MachineConfig {
    let mut cfg = MachineConfig::small(cores);
    cfg.scheme = scheme;
    cfg.ckpt_interval_insts = INTERVAL;
    cfg.seed = seed;
    cfg
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// Times `f`; under a tracer it is also recorded as a span. Returns the
/// result, its seconds and the span's id.
fn timed<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<u64>,
    trace: u64,
    f: impl FnOnce() -> R,
) -> (R, f64, Option<u64>) {
    let t = Instant::now();
    let (r, id) = match tracer {
        Some(tr) => tr.span(name, parent, trace, |id| (f(), Some(id))),
        None => (f(), None),
    };
    (r, t.elapsed().as_secs_f64(), id)
}

/// Builds and runs one cell. With a tracer, the build, the step loop and
/// the report are three spans under trace id `trace`, each caused by the
/// one before (`workloads.build` → `core.run` → `core.report`), and the
/// queue length is sampled after every step.
fn run_cell(
    scheme: Scheme,
    app: &str,
    cores: usize,
    seed: u64,
    tracer: Option<&Tracer>,
    trace: u64,
) -> Result<CellRun, String> {
    let label = format!("{}/{app}", scheme.label());
    let profile = profile_named(app).expect("catalog app");
    let cfg = config(scheme, cores, seed);
    catch_unwind(AssertUnwindSafe(|| {
        let (mut m, build_s, build_id) = timed(tracer, "workloads.build", None, trace, || {
            Machine::from_profile(&cfg, &profile, QUOTA)
        });
        let iv = Interval::start();
        let mut events = 0u64;
        let mut queue_peak = 0usize;
        let (looped, run_s, run_id) = timed(tracer, "core.run", build_id, trace, || {
            while m.step() {
                events += 1;
                if tracer.is_some() {
                    queue_peak = queue_peak.max(m.queue_len());
                }
                if events >= EVENT_BUDGET {
                    return Err(format!("livelock: {EVENT_BUDGET} events"));
                }
            }
            Ok(())
        });
        let (report, report_s, _) = timed(tracer, "core.report", run_id, trace, || m.report());
        let cpu_s = iv.stop().1;
        looped?;
        Ok(CellRun {
            label: label.clone(),
            report,
            events,
            build_s,
            run_s,
            report_s,
            cpu_s,
            queue_peak,
            lines: m.line_table().len(),
            dir: m.dir_footprint(),
            proto_errors: m.proto_errors().len(),
            all_done: m.done_cores() == m.ncores() && m.is_finished(),
        })
    }))
    .unwrap_or_else(|p| Err(format!("machine panicked: {}", panic_text(&*p))))
    .map_err(|e| format!("{label}: {e}"))
}

/// One pass over every cell of a workload.
struct Pass {
    traced: bool,
    cells: Vec<CellRun>,
    /// Reference-kernel samples, one before each cell of a timed pass.
    refs: Vec<f64>,
    /// Cells that failed to produce a report (panic, livelock).
    broken: Vec<String>,
}

impl Pass {
    fn sum(&self, f: impl Fn(&CellRun) -> f64) -> f64 {
        self.cells.iter().map(f).sum()
    }
    fn count(&self, f: impl Fn(&CellRun) -> u64) -> u64 {
        self.cells.iter().map(f).sum()
    }
    fn max(&self, f: impl Fn(&CellRun) -> u64) -> u64 {
        self.cells.iter().map(f).max().unwrap_or(0)
    }
    /// Measured part: step loops and reports, set-up excluded.
    fn wall_s(&self) -> f64 {
        self.sum(|c| c.run_s + c.report_s)
    }
    fn digests(&self) -> Vec<(String, u64)> {
        self.cells
            .iter()
            .map(|c| (c.label.clone(), c.digest()))
            .collect()
    }
}

fn run_pass(
    tracked: bool,
    cores: usize,
    seed: u64,
    tracer: Option<&Tracer>,
    pass_no: u64,
    mut sampler: Option<&mut calib::Sampler>,
) -> Pass {
    let mut pass = Pass {
        traced: tracer.is_some(),
        cells: Vec::new(),
        refs: Vec::new(),
        broken: Vec::new(),
    };
    let mut cell_no = 0;
    for scheme in schemes(tracked) {
        for app in APPS {
            if let Some(s) = sampler.as_deref_mut() {
                pass.refs.push(s.sample());
            }
            match run_cell(scheme, app, cores, seed, tracer, pass_no * 1000 + cell_no) {
                Ok(c) => pass.cells.push(c),
                Err(e) => pass.broken.push(e),
            }
            cell_no += 1;
        }
    }
    pass
}

/// Checks one pass's outputs, recording every failed cell in `out`.
fn check_pass(
    pass: &Pass,
    tracked: bool,
    workload: &str,
    seed: u64,
    size: Size,
    reference: Option<&[(String, u64)]>,
    out: &mut Outcome,
) {
    let ncells = (pass.cells.len() + pass.broken.len()) as u64;
    out.attempted += ncells;
    for e in &pass.broken {
        out.fail(1, e.clone());
    }
    for c in &pass.cells {
        if !c.all_done {
            out.fail(1, format!("{}: not every core finished", c.label));
        } else if c.proto_errors > 0 {
            out.fail(
                1,
                format!("{}: {} protocol errors", c.label, c.proto_errors),
            );
        } else if let Some(pin) = pinned(size, workload, seed, &c.label) {
            if pin != c.digest() {
                out.fail(
                    1,
                    format!(
                        "{}: digest {:016x} != pinned {pin:016x} ({})",
                        c.label,
                        c.digest(),
                        c.counts()
                    ),
                );
            }
        }
    }
    if let Some(reference) = reference {
        if pass.digests() != reference {
            out.fail(
                ncells,
                format!(
                    "{} pass differs from the first pass",
                    if pass.traced { "traced" } else { "untraced" }
                ),
            );
        }
    }
    // Bypass guard: a workload that stops exercising its layer fails.
    let tracking = [
        pass.count(|c| c.report.metrics.wsig_ops.get()),
        pass.count(|c| c.report.metrics.lwid_updates.get()),
        pass.count(|c| c.report.msgs.dep.get()),
    ];
    let ok = if tracked {
        tracking.iter().all(|&n| n > 0)
    } else {
        tracking.iter().all(|&n| n == 0)
    };
    if !ok && pass.broken.is_empty() {
        out.fail(
            ncells,
            format!(
                "bypass guard: wsig_ops, lwid_updates, msgs_dep = {tracking:?} \
                 (must all be {} on {workload})",
                if tracked { "non-zero" } else { "zero" }
            ),
        );
    }
}

/// Runs `tracked_256c` or `untracked_256c` for at least `seconds`.
/// The first pass warms up: it is checked but not timed, and the peak
/// RSS is read after it, before the reference kernel first runs.
/// Untraced: every pass is untraced and the host-time metrics are
/// taken over the timed passes, at reference speed (see `calib`).
/// Traced: the timed passes alternate traced and untraced; the
/// per-layer metrics come from the traced passes' spans, and the
/// untraced ones are the reference for the tracing overhead.
pub fn run(
    tracked: bool,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: Size,
    tracer: &Tracer,
) -> (Outcome, Vec<String>) {
    let workload = if tracked {
        "tracked_256c"
    } else {
        "untracked_256c"
    };
    let cores = match size {
        Size::Full => 256,
        Size::Small => 16,
    };
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut out = Outcome::default();
    let mut passes: Vec<Pass> = Vec::new();
    let mut reference: Option<Vec<(String, u64)>> = None;
    // Started after the warm-up pass, once the peak RSS has been read.
    let mut sampler: Option<calib::Sampler> = None;
    loop {
        let trace_this = traced && passes.len() % 2 == 1;
        let pass_no = passes.len() as u64;
        let pass = run_pass(
            tracked,
            cores,
            seed,
            trace_this.then_some(tracer),
            pass_no,
            sampler.as_mut(),
        );
        check_pass(
            &pass,
            tracked,
            workload,
            seed,
            size,
            reference.as_deref(),
            &mut out,
        );
        if reference.is_none() && pass.broken.is_empty() {
            reference = Some(pass.digests());
        }
        if passes.is_empty() {
            if !traced {
                out.set("peak_rss_mib", peak_rss_mib());
            }
            sampler = Some(calib::Sampler::start());
        }
        eprintln!(
            "perfbench: pass {pass_no}{} wall {:.3} s{}",
            if pass.traced { " (traced)" } else { "" },
            pass.wall_s(),
            if pass.refs.is_empty() {
                ", warm-up".to_string()
            } else {
                format!(", reference run {:.4} s", median(&pass.refs))
            }
        );
        passes.push(pass);
        let min_passes = if traced { 3 } else { 2 };
        if passes.len() >= min_passes && start.elapsed() >= budget {
            break;
        }
    }
    // A traced run prints its traced pass's digests.
    let pins = passes
        .iter()
        .find(|p| p.traced == traced && p.broken.is_empty())
        .map(Pass::digests)
        .unwrap_or_default()
        .into_iter()
        .map(|(label, d)| format!("pin {workload} {seed} {label} {d:016x}"))
        .collect();

    let first = &passes[0];
    let insts = first.count(|c| c.report.insts) as f64;
    let cycles = first.count(|c| c.report.cycles) as f64;
    let core_cycles = first.count(|c| c.report.cycles * c.report.cores as u64) as f64;
    let stalls = first.count(|c| c.report.metrics.breakdown.total()) as f64;
    // Host times at reference speed: the timed passes' mean, scaled by
    // the mean of the reference samples taken among them (set-up: the
    // median pass, so one slow build does not move it).
    let timed = &passes[1..];
    let refs: Vec<f64> = timed.iter().flat_map(|p| p.refs.iter().copied()).collect();
    let scale = calib::scale(&refs);
    let raw = |traced: bool, f: &dyn Fn(&Pass) -> f64| -> Vec<f64> {
        timed.iter().filter(|p| p.traced == traced).map(f).collect()
    };
    let raw_wall = mean(&raw(false, &|p| p.wall_s()));
    let wall = raw_wall * scale;
    eprintln!(
        "perfbench: mean wall {raw_wall:.3} s, reference run {:.4} s, \
         {wall:.3} s at reference speed",
        calib::REF_S / scale
    );
    if !traced {
        out.set("wall_s", wall);
        out.set("cpu_s", mean(&raw(false, &|p| p.sum(|c| c.cpu_s))) * scale);
        out.set(
            "setup_s",
            median(&raw(false, &|p| p.sum(|c| c.build_s))) * scale,
        );
        out.set(
            "sim_minsts_per_s",
            insts / (mean(&raw(false, &|p| p.sum(|c| c.run_s))) * scale) / 1e6,
        );
        out.set("sim_cycles", cycles);
        out.set("sim_ckpt_overhead_pct", 100.0 * stalls / core_cycles);
        return (out, pins);
    }

    // Per-layer: host times from the traced passes' spans, grouped by
    // pass through the trace id; counts from the first traced pass.
    let spans = tracer.spans();
    let traced_passes: Vec<u64> = (0..passes.len() as u64)
        .filter(|&i| passes[i as usize].traced)
        .collect();
    let per_pass = |name: &str| -> Vec<f64> {
        traced_passes
            .iter()
            .map(|&p| {
                spans
                    .iter()
                    .filter(|s| s.name == name && s.trace / 1000 == p)
                    .map(|s| s.secs())
                    .sum()
            })
            .collect()
    };
    let build = per_pass("workloads.build");
    let run = per_pass("core.run");
    let report = per_pass("core.report");
    let t = passes.iter().find(|p| p.traced).expect("a traced pass");
    let events = t.count(|c| c.events) as f64;
    let mm =
        |f: &dyn Fn(&rebound_core::MachineMetrics) -> u64| t.count(|c| f(&c.report.metrics)) as f64;
    out.set("engine.events", events);
    out.set("engine.events_per_kinst", events / (insts / 1000.0));
    out.set("engine.host_ns_per_event", median(&run) / events * 1e9);
    out.set("engine.queue_peak", t.max(|c| c.queue_peak as u64) as f64);
    out.set("workloads.build_s", median(&build));
    out.set("workloads.lines", t.count(|c| c.lines as u64) as f64);
    let l1 = mm(&|m| m.l1_accesses.get());
    let l2 = mm(&|m| m.l2_accesses.get());
    out.set("mem.l1_accesses", l1);
    out.set("mem.l2_accesses", l2);
    out.set("mem.l1_hit_frac", 1.0 - l2 / l1);
    out.set("mem.mem_lines", mm(&|m| m.mem_lines.get()));
    out.set("mem.log_entries", mm(&|m| m.log_entries.get()));
    out.set(
        "mem.log_peak_bytes",
        t.max(|c| c.report.log_max_interval_bytes) as f64,
    );
    out.set(
        "mem.load_lat_p50_cyc",
        t.max(|c| c.report.metrics.load_latency.quantile_upper_bound(0.50)) as f64,
    );
    out.set(
        "mem.load_lat_p99_cyc",
        t.max(|c| c.report.metrics.load_latency.quantile_upper_bound(0.99)) as f64,
    );
    out.set(
        "coherence.msgs_base",
        t.count(|c| c.report.msgs.base.get()) as f64,
    );
    out.set(
        "coherence.msgs_dep",
        t.count(|c| c.report.msgs.dep.get()) as f64,
    );
    out.set(
        "coherence.msgs_protocol",
        t.count(|c| c.report.msgs.protocol.get()) as f64,
    );
    out.set(
        "coherence.dir_entries",
        t.count(|c| c.dir.entries as u64) as f64,
    );
    out.set(
        "coherence.dir_resident_kib",
        t.count(|c| c.dir.resident_bytes as u64) as f64 / 1024.0,
    );
    out.set(
        "coherence.dir_spill_peak",
        t.max(|c| c.dir.spill_capacity as u64) as f64,
    );
    out.set("core.run_s", median(&run));
    out.set("core.report_s", median(&report));
    out.set("core.wsig_ops", mm(&|m| m.wsig_ops.get()));
    out.set("core.lwid_updates", mm(&|m| m.lwid_updates.get()));
    out.set("core.dep_stalls", mm(&|m| m.dep_stalls));
    out.set("core.checkpoints", t.count(|c| c.report.checkpoints) as f64);
    out.set(
        "core.processor_checkpoints",
        mm(&|m| m.processor_checkpoints),
    );
    let ichk_n = mm(&|m| m.ichk_sizes.count());
    let ichk_sum =
        t.sum(|c| c.report.metrics.ichk_sizes.mean() * c.report.metrics.ichk_sizes.count() as f64);
    out.set(
        "core.ichk_mean_pct",
        100.0 * ichk_sum / ichk_n.max(1.0) / cores as f64,
    );
    out.set("core.busy_aborts", mm(&|m| m.busy_aborts));
    out.set("core.declines", mm(&|m| m.declines));
    out.set("core.nacks", mm(&|m| m.nacks));
    out.set("core.stall_sync_cyc", mm(&|m| m.breakdown.sync_delay));
    out.set("core.stall_wb_cyc", mm(&|m| m.breakdown.wb_delay));
    out.set(
        "core.stall_imbalance_cyc",
        mm(&|m| m.breakdown.wb_imbalance),
    );
    out.set("core.stall_ipc_cyc", mm(&|m| m.breakdown.ipc_delay));
    out.set("core.rollbacks", t.count(|c| c.report.rollbacks) as f64);
    out.set("core.recovery_cyc", 0.0);
    out.set("core.irec_mean", 0.0);
    out.set(
        "core.proto_errors",
        t.count(|c| c.proto_errors as u64) as f64,
    );
    let traced_wall = mean(&raw(true, &|p| p.wall_s())) * scale;
    out.set("bench.traced_wall_s", traced_wall);
    out.set(
        "bench.trace_overhead_pct",
        100.0 * (traced_wall / wall - 1.0),
    );
    out.set("bench.raw_wall_s", raw_wall);
    out.set("bench.ref_s", calib::REF_S / scale);
    (out, pins)
}
