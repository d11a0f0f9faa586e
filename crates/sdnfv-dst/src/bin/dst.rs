//! The DST sweep/replay driver.
//!
//! ```text
//! dst --seeds 1000 [--base-seed N]   # sweep: N.., stop at first failure
//! dst --seed S                       # replay one seed, print the trace
//! ```
//!
//! On failure the failing seed and its trace are printed; if the
//! `DST_TRACE_OUT` environment variable names a file, the trace is also
//! written there (CI uploads it as an artifact). Exit code 1 on any
//! violation, and on a sweep of 100 or more seeds that moved no NF state on
//! a replica scale (`nf_state_handoffs` stayed 0).

use std::collections::BTreeSet;
use std::process::ExitCode;

use sdnfv_dst::{run_seed, run_seed_checked, DstConfig};

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seeds: u64 = 200;
    let mut base_seed: u64 = 0x5DFF_0001;
    let mut replay: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).and_then(|s| parse_u64(s));
        match args[i].as_str() {
            "--seeds" => {
                let Some(v) = value(i) else {
                    eprintln!("--seeds needs a number");
                    return ExitCode::FAILURE;
                };
                seeds = v;
                i += 2;
            }
            "--base-seed" => {
                let Some(v) = value(i) else {
                    eprintln!("--base-seed needs a number");
                    return ExitCode::FAILURE;
                };
                base_seed = v;
                i += 2;
            }
            "--seed" => {
                let Some(v) = value(i) else {
                    eprintln!("--seed needs a number");
                    return ExitCode::FAILURE;
                };
                replay = Some(v);
                i += 2;
            }
            other => {
                eprintln!("unknown argument {other:?} (try --seeds N | --seed S)");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(seed) = replay {
        let report = run_seed_checked(&DstConfig::for_seed(seed));
        print!("{}", report.trace.render());
        println!(
            "seed {seed:#x}: {} | faults: {}",
            if report.passed() { "PASS" } else { "FAIL" },
            report.fault_coverage()
        );
        if report.passed() {
            return ExitCode::SUCCESS;
        }
        for v in &report.violations {
            println!("violation: {v}");
        }
        write_trace_artifact(&report);
        return ExitCode::FAILURE;
    }

    let mut coverage = BTreeSet::new();
    let mut pins = 0usize;
    let mut handoffs = 0u64;
    for offset in 0..seeds {
        let seed = base_seed.wrapping_add(offset);
        // Double-run (determinism check) every 32nd seed; plain otherwise.
        let config = DstConfig::for_seed(seed);
        let report = if offset % 32 == 0 {
            run_seed_checked(&config)
        } else {
            run_seed(&config)
        };
        coverage.extend(report.fired.iter().copied());
        pins += report.pins;
        handoffs += report.stats.nf_state_handoffs;
        if !report.passed() {
            eprintln!("{}", report.failure_message());
            write_trace_artifact(&report);
            return ExitCode::FAILURE;
        }
        if (offset + 1) % 50 == 0 {
            println!(
                "{}/{} schedules passed (fault kinds so far: {})",
                offset + 1,
                seeds,
                coverage.len()
            );
        }
    }
    // A sweep this long always scales a replica under per-flow state; one
    // that moved none has silently stopped covering the replica-scale move.
    if seeds >= 100 && handoffs == 0 {
        eprintln!("FAIL: {seeds} schedules moved no NF state on a replica scale");
        return ExitCode::FAILURE;
    }
    println!(
        "PASS: {seeds} schedules, {} fault kinds ({}), {pins} pins, {handoffs} state handoffs",
        coverage.len(),
        coverage
            .iter()
            .map(|k| k.as_str())
            .collect::<Vec<_>>()
            .join(","),
    );
    ExitCode::SUCCESS
}

fn write_trace_artifact(report: &sdnfv_dst::RunReport) {
    if let Ok(path) = std::env::var("DST_TRACE_OUT") {
        let body = format!(
            "seed: {:#x}\nviolations:\n{}\ntrace:\n{}",
            report.seed,
            report.violations.join("\n"),
            report.trace.render()
        );
        if let Err(err) = std::fs::write(&path, body) {
            eprintln!("could not write {path}: {err}");
        } else {
            eprintln!("failing seed + trace written to {path}");
        }
    }
}
