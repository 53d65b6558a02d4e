//! The `adversarial_oracle` workload: the stock adversarial campaign
//! (every scheme × Ocean/FFT × 8 cores × two seeds × nine fault plans),
//! oracle-checked with the golden cache on, 2 workers × 1 sim thread,
//! into a fresh empty result store on every pass.

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rebound_core::{Machine, MachineMetrics, RunReport, Scheme};
use rebound_harness::{
    parallel_map, run_job_cached, run_jobs_opts, CampaignResult, CampaignRow, CampaignSpec,
    GoldenCache, GoldenCtx, GoldenSnapshot, Job, OracleVerdict, Store, StoreStats,
};
use rebound_workloads::profile_named;

use crate::calib;
use crate::metrics::{fnv1a, mean, median, percentile, tail_percentile, Outcome};
use crate::sys::{dir_bytes, peak_rss_mib, Interval};
use crate::trace::Tracer;
use crate::{pinned, Size};

/// The stock spec's seed axis is `{1, 2}`: `--seed n` runs `{n, n+1}`.
pub const DEFAULT_SEED: u64 = 1;
const WORKERS: usize = 2;
const SIM_THREADS: usize = 1;
/// Set-ups timed per run, for a stable `setup_s` median.
const SETUP_REPS: usize = 11;
/// How often a pass samples the reference kernel (see `calib`). A pass
/// runs for the whole host, so no gap between its jobs is free for the
/// kernel: the samples run alongside the workers.
const REF_PERIOD: Duration = Duration::from_millis(500);

fn spec(seed: u64, size: Size) -> CampaignSpec {
    let mut spec = CampaignSpec::adversarial();
    spec.seeds = vec![seed, seed.wrapping_add(1)];
    if size == Size::Small {
        // A filtered slice: one tracked and one global scheme, one app,
        // the clean plan plus three fault plans.
        spec.schemes = vec![Scheme::REBOUND, Scheme::GLOBAL];
        spec.apps.retain(|a| a == "FFT");
        spec.plans.truncate(4);
    }
    spec
}

/// A scratch directory under `root`, removed when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn new(root: &Path, name: String) -> TempDir {
        let dir = root.join(name);
        let _ = fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The jobs and the fresh empty store of one pass.
fn setup(seed: u64, size: Size, dir: &TempDir) -> (Vec<Job>, Store) {
    let jobs = spec(seed, size).expand();
    let store = Store::open(&dir.0).expect("create the pass's result store");
    (jobs, store)
}

/// Times the set-up a campaign pays before its jobs simulate: spec
/// expansion, a fresh store, the golden cache, and every job's
/// `Machine`. (A pass builds those machines again, inside `wall_s`;
/// the campaign-level part alone is tens of microseconds, too short to
/// time steadily on a shared host.)
fn time_setup(seed: u64, size: Size, scratch: &Path) -> f64 {
    let dir = TempDir::new(scratch, "store-setup".to_string());
    let t = Instant::now();
    let (jobs, store) = setup(seed, size, &dir);
    let cache = GoldenCache::for_jobs(&jobs);
    for j in &jobs {
        let profile = profile_named(&j.app).expect("catalog app");
        black_box(Machine::from_profile(&j.config(), &profile, j.scale.quota));
    }
    let secs = t.elapsed().as_secs_f64();
    black_box((store, cache));
    secs
}

/// One untraced pass through `run_jobs_opts`, rendered as CSV and JSON.
struct Plain {
    result: CampaignResult,
    csv: String,
    wall_s: f64,
    cpu_s: f64,
}

fn plain_pass(jobs: Vec<Job>, store: &Store) -> Plain {
    let iv = Interval::start();
    let result = run_jobs_opts(jobs, WORKERS, SIM_THREADS, Some(store), true);
    let csv = result.to_csv();
    black_box(result.to_json());
    let (wall_s, cpu_s) = iv.stop();
    Plain {
        result,
        csv,
        wall_s,
        cpu_s,
    }
}

/// Checks a pass's rows and CSV, recording failures in `out`.
fn check(
    result: &CampaignResult,
    csv: &str,
    jobs: usize,
    seed: u64,
    size: Size,
    out: &mut Outcome,
) {
    out.attempted += jobs as u64;
    for r in result.failures() {
        out.fail(
            1,
            format!("oracle FAIL: {} {:?}", r.job.label(), r.run.verdict),
        );
    }
    if result.rows.len() != jobs {
        out.fail(1, format!("{} rows for {jobs} jobs", result.rows.len()));
    }
    if let Some(pin) = pinned(size, "adversarial_oracle", seed, "csv") {
        let d = fnv1a(csv.as_bytes());
        if d != pin {
            out.fail(1, format!("CSV digest {d:016x} != pinned {pin:016x}"));
        }
    }
}

/// Σ over jobs of a row field.
fn rows_sum(result: &CampaignResult, f: impl Fn(&CampaignRow) -> u64) -> f64 {
    result.rows.iter().map(f).sum::<u64>() as f64
}

/// What the traced pass keeps of each job besides its row.
struct Traced {
    row: CampaignRow,
    report: RunReport,
    /// Scalars and line count of the golden snapshot the job was judged
    /// against.
    golden: Option<([u64; 6], usize)>,
}

/// The traced pass: the same job list on the same worker pool, driven
/// through the public per-job entry point with spans around the store
/// probe, the job, the store write and the rendering.
fn traced_pass(
    jobs: &[Job],
    store: &Store,
    tr: &Tracer,
) -> (CampaignResult, Vec<Traced>, String, f64) {
    let t = Instant::now();
    let (result, traced, csv) = tr.span("harness.pass", None, 0, |pass| {
        let cache = GoldenCache::for_jobs(jobs);
        let traced: Vec<Traced> = tr.span("harness.pool", Some(pass), 0, |pool| {
            parallel_map(jobs, WORKERS, |j| {
                let trace = j.id as u64 + 1;
                tr.span("harness.job", Some(pool), trace, |id| {
                    let key = store.key(j);
                    let hit = tr.span("harness.store_probe", Some(id), trace, |_| store.load(&key));
                    assert!(hit.is_none(), "a fresh store holds no rows");
                    let ctx = GoldenCtx {
                        cache: &cache,
                        store: Some(store),
                    };
                    let outcome = tr.span("harness.run_job", Some(id), trace, |_| {
                        run_job_cached(j, SIM_THREADS, Some(ctx))
                    });
                    let run = outcome.run_row();
                    tr.span("harness.store_save", Some(id), trace, |_| {
                        if let Err(e) = store.save(&key, &run) {
                            eprintln!("warning: store write for {} failed: {e}", j.label());
                        }
                    });
                    Traced {
                        row: CampaignRow {
                            job: j.clone(),
                            run,
                            cached: false,
                        },
                        golden: outcome
                            .golden
                            .as_ref()
                            .map(|g| (g.scalars(), g.line_count())),
                        report: outcome.report,
                    }
                })
            })
        });
        let result = CampaignResult {
            rows: traced.iter().map(|t| t.row.clone()).collect(),
            jobs_used: WORKERS,
            wall_ms: t.elapsed().as_millis(),
            store: Some(StoreStats {
                hits: 0,
                recomputed: jobs.len(),
            }),
            golden: Some(cache.stats()),
            golden_footprint: cache.footprint(),
        };
        let csv = tr.span("harness.render", Some(pass), 0, |_| {
            let csv = result.to_csv();
            black_box(result.to_json());
            csv
        });
        (result, traced, csv)
    });
    (result, traced, csv, t.elapsed().as_secs_f64())
}

/// Runs `adversarial_oracle`: whole passes while another would end
/// within half a pass of `seconds` (at least one). Traced: one
/// untraced reference pass, one traced pass, then the probes — a golden
/// capture per judged base config and a warm re-read of the traced
/// pass's store.
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    size: Size,
    tracer: &Tracer,
    scratch: &Path,
) -> (Outcome, Vec<String>) {
    let start = Instant::now();
    let mut out = Outcome::default();
    let mut plains: Vec<Plain> = Vec::new();
    let mut sampler = calib::Sampler::start();
    // Set-up first, each timing next to a reference sample of its own.
    let mut setup_refs = Vec::new();
    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            setup_refs.push(sampler.sample());
            time_setup(seed, size, scratch)
        })
        .collect();
    let mut refs = Vec::new();
    loop {
        let dir = TempDir::new(scratch, format!("store-{}", plains.len()));
        let (jobs, store) = setup(seed, size, &dir);
        let njobs = jobs.len();
        let (p, samples) = sampler.during(REF_PERIOD, || plain_pass(jobs, &store));
        check(&p.result, &p.csv, njobs, seed, size, &mut out);
        if !traced && plains.is_empty() {
            out.set("peak_rss_mib", peak_rss_mib());
        }
        eprintln!(
            "perfbench: pass {} wall {:.3} s, reference run {:.4} s",
            plains.len(),
            p.wall_s,
            median(&samples)
        );
        refs.extend(samples);
        plains.push(p);
        // Another pass only if it would end within half a pass of the
        // budget, so a run does not overrun it by a whole pass.
        let last = plains.last().map_or(0.0, |p| p.wall_s);
        if traced || start.elapsed().as_secs_f64() + last / 2.0 >= seconds {
            break;
        }
    }
    for p in &plains[1..] {
        if p.csv != plains[0].csv {
            out.fail(1, "CSV differs between passes".to_string());
        }
    }
    let r = &plains[0].result;
    let core_cycles = rows_sum(r, |row| row.run.cycles * row.job.cores as u64);
    // Host times at reference speed: the passes' mean, scaled by the
    // mean of the reference samples taken during them (set-up: the
    // median, scaled by its own samples).
    let scale = calib::scale(&refs);
    let raw_wall = mean(&plains.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let wall = raw_wall * scale;
    eprintln!(
        "perfbench: mean wall {raw_wall:.3} s, reference run {:.4} s, \
         {wall:.3} s at reference speed",
        calib::REF_S / scale
    );
    if !traced {
        out.set("wall_s", wall);
        out.set(
            "cpu_s",
            mean(&plains.iter().map(|p| p.cpu_s).collect::<Vec<_>>()) * scale,
        );
        out.set("setup_s", median(&setups) * calib::scale(&setup_refs));
        out.set(
            "sim_minsts_per_s",
            rows_sum(r, |row| row.run.insts) / wall / 1e6,
        );
        out.set("sim_cycles", rows_sum(r, |row| row.run.cycles));
        out.set(
            "sim_ckpt_overhead_pct",
            100.0 * rows_sum(r, |row| row.run.stall_total) / core_cycles,
        );
        return (out, pins(seed, &plains[0].csv));
    }

    // Traced pass on a fresh store of its own.
    let dir = TempDir::new(scratch, "store-traced".to_string());
    let (jobs, store) = setup(seed, size, &dir);
    let ((result, traced_jobs, csv, traced_wall), traced_refs) =
        sampler.during(REF_PERIOD, || traced_pass(&jobs, &store, tracer));
    let traced_wall = traced_wall * calib::scale(&traced_refs);
    check(&result, &csv, jobs.len(), seed, size, &mut out);
    if csv != plains[0].csv {
        out.fail(1, "traced CSV differs from the untraced CSV".to_string());
    }

    // Probe 1: capture each judged base config's golden again, spanned,
    // on the same pool; it must equal the snapshot the job was judged
    // against.
    let mut bases: BTreeMap<String, (&Job, ([u64; 6], usize))> = BTreeMap::new();
    for t in &traced_jobs {
        if let Some(g) = t.golden {
            bases
                .entry(t.row.job.base_label())
                .or_insert((&t.row.job, g));
        }
    }
    let bases: Vec<(&Job, ([u64; 6], usize))> = bases.into_values().collect();
    let mismatched = tracer.span("harness.probe", None, 0, |probe| {
        parallel_map(&bases, WORKERS, |(job, want)| {
            let g = tracer.span(
                "harness.golden_capture",
                Some(probe),
                job.id as u64 + 1,
                |_| GoldenSnapshot::capture(job),
            );
            ((g.scalars(), g.line_count()) != *want).then(|| job.base_label())
        })
    });
    for label in mismatched.into_iter().flatten() {
        out.fail(1, format!("recaptured golden of {label} differs"));
    }

    // Probe 2: warm re-read of every row the traced pass stored.
    let reread_ok = tracer.span("harness.probe", None, 0, |probe| {
        traced_jobs
            .iter()
            .filter(|t| {
                let key = store.key(&t.row.job);
                let got = tracer.span(
                    "harness.store_load",
                    Some(probe),
                    t.row.job.id as u64 + 1,
                    |_| store.load(&key),
                );
                got.as_ref() == Some(&t.row.run)
            })
            .count()
    });
    if reread_ok != traced_jobs.len() {
        out.fail(
            (traced_jobs.len() - reread_ok) as u64,
            "store re-read returned a different row".to_string(),
        );
    }

    let job_s = tracer.durations("harness.job");
    let pool_s = tracer.total("harness.pool");
    let tail = tail_percentile(job_s.len());
    let reports: Vec<&RunReport> = traced_jobs.iter().map(|t| &t.report).collect();
    let sum = |f: &dyn Fn(&RunReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    let max =
        |f: &dyn Fn(&RunReport) -> u64| reports.iter().map(|r| f(r)).max().unwrap_or(0) as f64;
    let mm = |f: &dyn Fn(&MachineMetrics) -> u64| sum(&|r| f(&r.metrics));
    let weighted = |f: &dyn Fn(&RunReport) -> (f64, u64)| {
        let (s, n) = reports.iter().fold((0.0, 0u64), |(s, n), r| {
            let (m, count) = f(r);
            (s + m * count as f64, n + count)
        });
        s / n.max(1) as f64
    };
    let l1 = mm(&|m| m.l1_accesses.get());
    let l2 = mm(&|m| m.l2_accesses.get());
    out.set("mem.l1_accesses", l1);
    out.set("mem.l2_accesses", l2);
    out.set("mem.l1_hit_frac", 1.0 - l2 / l1);
    out.set("mem.mem_lines", mm(&|m| m.mem_lines.get()));
    out.set("mem.log_entries", mm(&|m| m.log_entries.get()));
    out.set("mem.log_peak_bytes", max(&|r| r.log_max_interval_bytes));
    out.set(
        "mem.load_lat_p50_cyc",
        max(&|r| r.metrics.load_latency.quantile_upper_bound(0.50)),
    );
    out.set(
        "mem.load_lat_p99_cyc",
        max(&|r| r.metrics.load_latency.quantile_upper_bound(0.99)),
    );
    out.set("coherence.msgs_base", sum(&|r| r.msgs.base.get()));
    out.set("coherence.msgs_dep", sum(&|r| r.msgs.dep.get()));
    out.set("coherence.msgs_protocol", sum(&|r| r.msgs.protocol.get()));
    out.set("core.wsig_ops", mm(&|m| m.wsig_ops.get()));
    out.set("core.lwid_updates", mm(&|m| m.lwid_updates.get()));
    out.set("core.dep_stalls", mm(&|m| m.dep_stalls));
    out.set("core.checkpoints", sum(&|r| r.checkpoints));
    out.set(
        "core.processor_checkpoints",
        mm(&|m| m.processor_checkpoints),
    );
    out.set(
        "core.ichk_mean_pct",
        100.0 * weighted(&|r| (r.ichk_fraction(), r.metrics.ichk_sizes.count())),
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
    out.set("core.rollbacks", sum(&|r| r.rollbacks));
    out.set(
        "core.recovery_cyc",
        rows_sum(&result, |row| row.run.recovery_cycles),
    );
    out.set(
        "core.irec_mean",
        weighted(&|r| (r.metrics.irec_sizes.mean(), r.metrics.irec_sizes.count())),
    );
    out.set("harness.job_s_p50", percentile(&job_s, 50));
    out.set("harness.job_s_tail", percentile(&job_s, tail));
    out.set("harness.job_s_tail_pctile", tail as f64);
    out.set("harness.job_samples", job_s.len() as f64);
    out.set(
        "harness.pool_busy_frac",
        job_s.iter().sum::<f64>() / (WORKERS as f64 * pool_s),
    );
    out.set(
        "harness.golden_capture_s",
        tracer.total("harness.golden_capture"),
    );
    let golden = result.golden.unwrap_or_default();
    out.set("harness.goldens_computed", golden.computed as f64);
    out.set("harness.goldens_reused", golden.reused as f64);
    out.set(
        "harness.golden_resident_kib",
        result
            .golden_footprint
            .iter()
            .map(|g| g.bytes)
            .sum::<usize>() as f64
            / 1024.0,
    );
    let faulty = result
        .rows
        .iter()
        .filter(|r| !r.job.plan.is_clean())
        .count();
    let verdicts = |v: OracleVerdict| result.rows.iter().filter(|r| r.run.verdict == v).count();
    out.set("harness.oracle_pass", verdicts(OracleVerdict::Pass) as f64);
    out.set(
        "harness.oracle_vacuous_frac",
        verdicts(OracleVerdict::Vacuous) as f64 / faulty.max(1) as f64,
    );
    out.set("harness.store_save_s", tracer.total("harness.store_save"));
    out.set("harness.store_load_s", tracer.total("harness.store_load"));
    out.set("harness.store_kib", dir_bytes(&dir.0) as f64 / 1024.0);
    out.set("harness.render_s", tracer.total("harness.render"));
    out.set("bench.traced_wall_s", traced_wall);
    out.set(
        "bench.trace_overhead_pct",
        100.0 * (traced_wall / wall - 1.0),
    );
    out.set("bench.raw_wall_s", raw_wall);
    out.set("bench.ref_s", calib::REF_S / scale);
    (out, pins(seed, &csv))
}

/// The `pin` line of a pass's CSV.
fn pins(seed: u64, csv: &str) -> Vec<String> {
    vec![format!(
        "pin adversarial_oracle {seed} csv {:016x}",
        fnv1a(csv.as_bytes())
    )]
}
