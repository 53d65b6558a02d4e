//! The Rebound reproduction's benchmark: one workload per invocation,
//! end-to-end metrics from an untraced run, per-crate metrics from a
//! traced one, and an output check on every pass.
//!
//! ```text
//! perfbench --workload tracked_256c|untracked_256c|adversarial_oracle
//!           [--seed N] [--seconds S] [--trace 0|1] [--size full|small]
//! ```
//!
//! The last line of standard output is the JSON result; the exit code
//! is non-zero when any output check failed. See `perfbench/README.md`.
//! `perfbench --reference` is the reference-kernel child a run starts
//! for itself (see `calib`).

mod calib;
mod campaign;
mod cells;
mod metrics;
mod sys;
mod trace;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use metrics::{END_TO_END, PER_LAYER};
use trace::Tracer;

/// Where runs leave their records, span files and scratch stores,
/// relative to the working directory.
const RUN_DIR: &str = ".perfbench-run";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark proper: 256-core cells, the whole adversarial
    /// matrix, digests checked against `pins.txt`.
    Full,
    /// The self-test's reduced size: 16-core cells and a slice of the
    /// adversarial jobs; nothing is pinned.
    Small,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Tracked,
    Untracked,
    Adversarial,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "tracked_256c" => Some(Workload::Tracked),
            "untracked_256c" => Some(Workload::Untracked),
            "adversarial_oracle" => Some(Workload::Adversarial),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Tracked => "tracked_256c",
            Workload::Untracked => "untracked_256c",
            Workload::Adversarial => "adversarial_oracle",
        }
    }

    fn default_seed(self) -> u64 {
        match self {
            Workload::Adversarial => campaign::DEFAULT_SEED,
            _ => cells::DEFAULT_SEED,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 30.0;
    let mut traced = false;
    let mut size = Size::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--size" => {
                size = match value()?.as_str() {
                    "full" => Size::Full,
                    "small" => Size::Small,
                    v => return Err(format!("--size takes full or small, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        traced,
        size,
    })
}

/// The digest pinned for `item` of `workload` at `seed`, if any.
pub fn pinned(size: Size, workload: &str, seed: u64, item: &str) -> Option<u64> {
    if size != Size::Full {
        return None;
    }
    include_str!("../pins.txt").lines().find_map(|l| {
        let f: Vec<&str> = l.split_whitespace().collect();
        match f.as_slice() {
            ["pin", w, s, i, d] if *w == workload && s.parse() == Ok(seed) && *i == item => {
                u64::from_str_radix(d, 16).ok()
            }
            _ => None,
        }
    })
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--reference") {
        calib::serve();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let run_dir = Path::new(RUN_DIR);
    let scratch: PathBuf = run_dir.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    eprintln!(
        "perfbench: {name} seed {} for {} s, {}",
        args.seed,
        args.seconds,
        if args.traced { "traced" } else { "untraced" }
    );
    let tracer = Tracer::new();
    let (out, pins) = match args.workload {
        Workload::Tracked | Workload::Untracked => cells::run(
            args.workload == Workload::Tracked,
            args.seed,
            args.seconds,
            args.traced,
            args.size,
            &tracer,
        ),
        Workload::Adversarial => campaign::run(
            args.seed,
            args.seconds,
            args.traced,
            args.size,
            &tracer,
            &scratch,
        ),
    };
    let _ = fs::remove_dir_all(&scratch);
    let set = if args.traced { PER_LAYER } else { END_TO_END };
    let stem = format!("{name}-seed{}-trace{}", args.seed, u8::from(args.traced));
    if args.traced {
        let path = run_dir.join(format!("{stem}.spans.tsv"));
        if let Err(e) = tracer.write_tsv(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    let result = out.json(set);
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"size\": {}, \"traced\": {}, \"nproc\": {}, \
         \"rustc\": {}, \"commit\": {}, \"result\": {result}}}",
        json_str(name),
        args.seed,
        json_str(if args.size == Size::Full {
            "full"
        } else {
            "small"
        }),
        args.traced,
        sys::nproc(),
        json_str(&sys::rustc_version()),
        json_str(&sys::git_commit()),
    );
    let _ = fs::write(run_dir.join(format!("{stem}.json")), format!("{record}\n"));

    println!("# record {record}");
    for p in &pins {
        println!("{p}");
    }
    print!("{}", out.table(set));
    for p in &out.problems {
        println!("# FAIL {p}");
    }
    println!("{result}");
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
