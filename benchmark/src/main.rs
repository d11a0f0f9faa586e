//! The repo's performance ledger. See `benchmark/README.md`.
//!
//! ```text
//! sdnfv-benchmark run [--seed N] [--seconds S] [--smoke] [--out FILE]
//!     every workload, each in its own process, end to end and traced;
//!     prints every metric and writes one result file
//! sdnfv-benchmark run --workload W [--seed N] [--seconds S] [--trace 0|1]
//!     one workload in this process; the last line of standard output is
//!     the JSON object `BENCHMARK.json`'s contract asks for
//! sdnfv-benchmark compare A.json B.json [--bounds BENCHMARK.json]
//!     judges B against A, row by row, by each metric's bound
//! ```

mod check;
mod compare;
mod drive;
mod gen;
mod json;
mod kernels;
mod ledger;
mod run;
mod stats;
mod trace;
mod workload;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::process::ExitCode;

thread_local! {
    /// Heap allocations (and reallocations) made by this thread. The traced
    /// run is single-threaded, so reading this around a call counts the
    /// allocations that call made. Thread-local rather than one shared
    /// atomic so that the threaded workload's two cores do not fight over
    /// the counter's cache line.
    pub static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every method forwards to `System` unchanged; the only addition is
// a thread-local counter bump that neither allocates nor can unwind
// (`try_with` tolerates a thread whose locals are already torn down).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with the
        // same `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Where trace and result files go: `benchmark/out` under the current
/// directory (the benchmark is run from the repository root).
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark").join("out")
}

/// Parsed command line of `run`.
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} is outside (0, 600]"));
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: sdnfv-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]\n\
         \x20      sdnfv-benchmark compare A.json B.json [--bounds BENCHMARK.json]\n\
         workloads: {}",
        workload::WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run_args(&args[1..]).and_then(|parsed| match &parsed.workload {
            Some(name) => ledger::run_one(name, &parsed),
            None => ledger::run_all(&parsed),
        }),
        Some("compare") => compare::main(&args[1..]),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("sdnfv-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
