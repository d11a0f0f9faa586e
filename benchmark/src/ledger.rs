//! The `run` command: one workload in this process (what `BENCHMARK.json`'s
//! `command` invokes), or every workload, each in a process of its own,
//! gathered into one result file with an environment block.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use crate::json::Json;
use crate::run::{self, nproc, Outcome, Request, Sizes};
use crate::workload::{self, Spec, WORKLOADS};
use crate::RunArgs;

/// Line prefix under which a child hands its full record to the parent.
const DETAIL_PREFIX: &str = "detail ";
const FULL_SECONDS: f64 = 10.0;
/// Per child of a `--smoke` run: ten children must finish within ~10 s.
const SMOKE_SECONDS: f64 = 0.3;

fn request_of(args: &RunArgs) -> Request {
    Request {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke {
            SMOKE_SECONDS
        } else {
            FULL_SECONDS
        }),
        trace: args.trace,
        sizes: if args.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        },
    }
}

fn print_outcome(spec: &Spec, request: &Request, outcome: &Outcome) {
    println!(
        "{} seed {} {} ({:.1} s): {} packets attempted, {} failed{}",
        spec.name,
        request.seed,
        if request.trace {
            "traced"
        } else {
            "end to end"
        },
        request.seconds,
        outcome.attempted,
        outcome.failed,
        if outcome.correct() {
            ""
        } else {
            "  ** INCORRECT **"
        },
    );
    for violation in &outcome.violations {
        println!("  violation: {violation}");
    }
    for metric in &outcome.metrics {
        let samples = if metric.samples > 1 {
            format!(
                "  ({} samples, quartile spread {:.2} %)",
                metric.samples,
                100.0 * metric.spread
            )
        } else {
            String::new()
        };
        println!(
            "  {:<36} {:>16.4} {}{samples}",
            metric.name, metric.value, metric.unit
        );
    }
}

/// Runs one workload here. Standard output ends with the contract line.
pub fn run_one(name: &str, args: &RunArgs) -> Result<ExitCode, String> {
    let spec = workload::find(name).ok_or_else(|| {
        format!(
            "unknown workload {name}; known: {}",
            WORKLOADS.map(|w| w.name).join(", ")
        )
    })?;
    let request = request_of(args);
    let outcome = run::run(spec, &request)?;
    print_outcome(spec, &request, &outcome);
    println!(
        "{DETAIL_PREFIX}{}",
        outcome.detail(spec, &request).to_line()
    );
    println!("{}", outcome.contract_line());
    Ok(ExitCode::SUCCESS)
}

/// First line of a command's standard output, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| {
            String::from_utf8_lossy(&output.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs one child and returns its detail record, echoing what it printed
/// for people.
fn run_child(spec: &Spec, args: &RunArgs, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let request = request_of(args);
    let mut command = Command::new(exe);
    command
        .arg("run")
        .args(["--workload", spec.name])
        .args(["--seed", &request.seed.to_string()])
        .args(["--seconds", &request.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child for {}: {e}", spec.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    let lines: Vec<&str> = stdout.lines().collect();
    // The last line is the contract line, for the driver; people get the rest.
    for line in lines.iter().take(lines.len().saturating_sub(1)) {
        match line.strip_prefix(DETAIL_PREFIX) {
            Some(json) => detail = Some(Json::parse(json)?),
            None => println!("{line}"),
        }
    }
    if !output.status.success() {
        return Err(format!(
            "child for {} (trace {}) exited with {}",
            spec.name,
            u8::from(trace),
            output.status
        ));
    }
    detail.ok_or_else(|| format!("child for {} printed no detail record", spec.name))
}

/// Runs every workload, each end to end and traced, each in its own
/// process, and writes the result file.
pub fn run_all(args: &RunArgs) -> Result<ExitCode, String> {
    let request = request_of(args);
    let mut workloads = Json::obj();
    let mut all_correct = true;
    for spec in &WORKLOADS {
        let mut entry = Json::obj()
            .with("why", spec.why)
            .with("drive", spec.drive.name());
        // Too few cores for generator + pipeline threads: say so instead of
        // reporting a number taken on shared cores.
        let refusal = (spec.drive == workload::Drive::Threaded)
            .then(|| run::threaded_refusal(spec))
            .flatten();
        for (key, trace) in [("end_to_end", false), ("traced", true)] {
            let detail = match &refusal {
                Some(refusal) if !trace => {
                    println!("{}: {}", spec.name, refusal.to_line());
                    refusal.clone()
                }
                _ => {
                    let detail = run_child(spec, args, trace)?;
                    all_correct &= detail.get("correct") == Some(&Json::Bool(true));
                    detail
                }
            };
            entry.set(key, detail);
        }
        workloads.set(spec.name, entry);
    }
    let result = Json::obj()
        .with("schema", 1u64)
        .with(
            "env",
            Json::obj()
                .with("nproc", nproc())
                .with(
                    "commit",
                    first_line_of("git", &["rev-parse", "--short", "HEAD"]),
                )
                .with("rustc", first_line_of("rustc", &["--version"]))
                .with("os", std::env::consts::OS)
                .with("arch", std::env::consts::ARCH)
                .with("seed", request.seed)
                .with("seconds", request.seconds)
                .with("smoke", args.smoke)
                .with("min_windows", request.sizes.min_windows)
                .with(
                    "window_target_s",
                    request.seconds / request.sizes.min_windows as f64,
                )
                .with("warmup_packets", request.sizes.warmup_packets)
                .with("lat_samples", request.sizes.lat_samples),
        )
        .with("workloads", workloads);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| crate::out_dir().join(format!("result-seed{}.json", request.seed)));
    write_file(&path, &result)?;
    println!("result written to {}", path.display());
    if all_correct {
        Ok(ExitCode::SUCCESS)
    } else {
        println!("at least one workload was INCORRECT");
        Ok(ExitCode::from(1))
    }
}

fn write_file(path: &PathBuf, json: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, json.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}
