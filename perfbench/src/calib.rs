//! Host-speed normalisation. The benchmark shares its host with other
//! tenants, and their load slows the whole machine by a third or more
//! for minutes at a time, which no run length averages away. So every run
//! also times a fixed reference kernel alongside the measured work and
//! scales its host times by how fast that kernel ran: a time `t`
//! measured while the kernel took `r` seconds per run on average is
//! reported as `t × REF_S / r`, the time on a host where it takes
//! `REF_S`.
//!
//! The kernel is benchmark code that no change to the simulator touches,
//! so a change that makes the simulator slower still reads slower. It
//! runs in a child process (this binary with `--reference`), so its
//! tables never count towards the measured process's peak RSS.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use crate::sys::thread_cpu_seconds;

/// About the fastest one reference run took on the 2-vCPU Intel Xeon
/// (2.0 GHz) host the benchmark was written on. It only sets the scale:
/// normalised times read as seconds on that host when it is quiet.
pub const REF_S: f64 = 0.030;

/// Iterations of one reference run.
const ROUNDS: u64 = 1 << 20;

/// The tables the kernel works on: L2-sized and 64 MiB.
struct Tables {
    hot: Vec<u64>,
    cold: Vec<u64>,
}

impl Tables {
    fn new() -> Tables {
        Tables {
            hot: vec![1; 1 << 15],
            cold: vec![1; 1 << 23],
        }
    }
}

/// The kernel: xorshift steps that each update both tables, so it waits
/// on memory much as the simulator does. (Of the kernels tried, this
/// one's speed followed the simulator's closest under other tenants'
/// load.) Returns the calling thread's CPU seconds, which leave out any
/// time it waited for a core.
fn kernel(t: &mut Tables) -> f64 {
    let (hot_mask, cold_mask) = (t.hot.len() - 1, t.cold.len() - 1);
    let start = thread_cpu_seconds();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let h = &mut t.hot[x as usize & hot_mask];
        *h = h.wrapping_add(x) ^ i;
        if *h & 1 == 1 {
            x = x.rotate_left(5);
        }
        let c = &mut t.cold[(x >> 20) as usize & cold_mask];
        *c = c.wrapping_mul(3) ^ x;
    }
    std::hint::black_box(x);
    thread_cpu_seconds() - start
}

/// The child's side (`perfbench --reference`): for each line read from
/// standard input, runs the kernel once and writes its seconds as a
/// line. Ends at the end of its input.
pub fn serve() {
    let mut tables = Tables::new();
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        if line.is_err() {
            break;
        }
        let secs = kernel(&mut tables);
        if writeln!(out, "{secs}").and_then(|()| out.flush()).is_err() {
            break;
        }
    }
}

/// The parent's handle on the reference child. Dropping it ends the
/// child and waits for it.
pub struct Sampler {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Sampler {
    pub fn start() -> Sampler {
        let exe = std::env::current_exe().expect("the benchmark's own path");
        let mut child = Command::new(exe)
            .arg("--reference")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("start the reference kernel");
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Sampler {
            child,
            stdin,
            stdout,
        }
    }

    /// One sample: the kernel's CPU seconds for one run.
    pub fn sample(&mut self) -> f64 {
        let stdin = self.stdin.as_mut().expect("reference child running");
        writeln!(stdin)
            .and_then(|()| stdin.flush())
            .expect("ask the reference kernel for a sample");
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .expect("read a reference sample");
        line.trim()
            .parse()
            .unwrap_or_else(|_| panic!("bad reference sample {line:?}"))
    }

    /// Runs `f` while taking one sample every `period`, the first
    /// straight away. Returns `f`'s result and the samples.
    /// The kernel then shares the host with `f`'s threads, so `f`'s own
    /// load on the memory system slows it a little too.
    pub fn during<R>(&mut self, period: Duration, f: impl FnOnce() -> R) -> (R, Vec<f64>) {
        let (stop, stopped) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let sampler = s.spawn(move || {
                let mut samples = Vec::new();
                loop {
                    samples.push(self.sample());
                    if let Err(mpsc::RecvTimeoutError::Disconnected) = stopped.recv_timeout(period)
                    {
                        return samples;
                    }
                }
            });
            let r = f();
            drop(stop);
            (r, sampler.join().expect("reference sampler"))
        })
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        // Closing its input ends the child; kill it if it has not ended
        // shortly after.
        drop(self.stdin.take());
        for _ in 0..50 {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The factor that turns host seconds measured alongside `samples` into
/// seconds at reference speed: `REF_S` over the samples' mean.
pub fn scale(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    REF_S * samples.len() as f64 / samples.iter().sum::<f64>()
}
