//! In-memory span recorder for traced runs.
//!
//! A span is recorded around each call the benchmark makes into a
//! layer: its name (prefixed with the crate that owns the callee), start
//! and end in nanoseconds since the tracer was created, the span that
//! caused it, and a trace id shared by every span of one request (a
//! 256c cell or a campaign job). Spans stay in memory until the run
//! ends; [`Tracer::write_tsv`] then writes them out, and the per-layer
//! metrics are derived from them.

use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the new span's
    /// id so it can parent spans of its own.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        trace: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span buffer poisoned").push(Span {
            id,
            parent,
            trace,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Every recorded span, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span buffer poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Total seconds of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Writes the spans as a tab-separated table with a header row.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = String::from("id\tparent\ttrace\tname\tstart_ns\tend_ns\n");
        for s in self.spans() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{}\t{parent}\t{}\t{}\t{}\t{}\n",
                s.id, s.trace, s.name, s.start_ns, s.end_ns
            ));
        }
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, out)
    }
}
