//! `compare A.json B.json`: judges result file B against result file A,
//! one row per (end-to-end metric, workload), by the bound `BENCHMARK.json`
//! fixes for the metric.

use std::process::ExitCode;

use crate::json::Json;

/// One end-to-end metric's rule, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// The runs' own spread is wider than the bound: no verdict.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A metric value with the quartile spread of the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub spread: f64,
}

/// By how much `b` is worse than `a`, as a share of `a` (negative: better).
fn worse_by(bound: &Bound, a: f64, b: f64) -> f64 {
    if bound.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// A change counts only beyond both the bound and the runs' own spread;
/// a spread wider than the bound leaves everything inside it unresolved.
pub fn judge(bound: &Bound, a: Reading, b: Reading) -> Verdict {
    let spread = a.spread.max(b.spread);
    let threshold = bound.bound.max(spread);
    let worse = worse_by(bound, a.value, b.value);
    if worse > threshold {
        Verdict::Worse
    } else if worse < -threshold {
        Verdict::Better
    } else if spread > bound.bound {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    }
}

pub fn bounds_from(benchmark_json: &Json) -> Result<Vec<Bound>, String> {
    benchmark_json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|metric| {
            let field = |key: &str| {
                metric
                    .get(key)
                    .ok_or_else(|| format!("end_to_end metric without \"{key}\""))
            };
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("metric name is not a string")?
                    .to_string(),
                higher_is_better: match field("better")?.as_str() {
                    Some("higher") => true,
                    Some("lower") => false,
                    other => return Err(format!("\"better\" is {other:?}")),
                },
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

fn reading(result: &Json, workload: &str, metric: &str) -> Option<Reading> {
    let entry = result
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get("metrics")?
        .get(metric)?;
    Some(Reading {
        value: entry.get("value")?.as_f64()?,
        spread: entry.get("spread").and_then(Json::as_f64).unwrap_or(0.0),
    })
}

fn fail_ratio(result: &Json, workload: &str) -> Option<f64> {
    result
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get("fail_ratio")?
        .as_f64()
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Compares two parsed result files; returns the report and whether B may
/// pass (no row worse, no fail ratio risen).
pub fn compare(bounds: &[Bound], a: &Json, b: &Json) -> Result<(String, bool), String> {
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("first file has no workloads")?;
    let mut report = format!(
        "{:<12} {:<12} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict\n",
        "workload", "metric", "a", "b", "change", "spread", "bound"
    );
    let mut pass = true;
    for (workload, _) in workloads {
        for bound in bounds {
            let (Some(ra), Some(rb)) = (
                reading(a, workload, &bound.name),
                reading(b, workload, &bound.name),
            ) else {
                report += &format!("{workload:<12} {:<12} missing in one file\n", bound.name);
                continue;
            };
            let verdict = judge(bound, ra, rb);
            pass &= verdict != Verdict::Worse;
            report += &format!(
                "{workload:<12} {:<12} {:>14.4} {:>14.4} {:>+8.2}% {:>7.2}% {:>6.1}%  {}\n",
                bound.name,
                ra.value,
                rb.value,
                100.0 * (rb.value - ra.value) / ra.value,
                100.0 * ra.spread.max(rb.spread),
                100.0 * bound.bound,
                verdict.label(),
            );
        }
        if let (Some(fa), Some(fb)) = (fail_ratio(a, workload), fail_ratio(b, workload)) {
            let risen = fb > fa;
            pass &= !risen;
            report += &format!(
                "{workload:<12} {:<12} {fa:>14.6} {fb:>14.6} {:>41}\n",
                "fail_ratio",
                if risen {
                    "ROSE"
                } else if fb > 0.0 {
                    "not zero"
                } else {
                    "zero"
                },
            );
        }
    }
    Ok((report, pass))
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut bounds_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--bounds" {
            bounds_path = it.next().ok_or("--bounds needs a path")?.clone();
        } else {
            files.push(arg.clone());
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        return Err("compare takes exactly two result files".to_string());
    };
    let bounds = bounds_from(&load(&bounds_path)?)?;
    let (report, pass) = compare(&bounds, &load(a_path)?, &load(b_path)?)?;
    print!("{report}");
    println!("{}", if pass { "PASS" } else { "FAIL" });
    Ok(if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pps() -> Bound {
        Bound {
            name: "pps".into(),
            higher_is_better: true,
            bound: 0.10,
        }
    }

    fn lat() -> Bound {
        Bound {
            name: "lat1_p50_us".into(),
            higher_is_better: false,
            bound: 0.10,
        }
    }

    fn r(value: f64, spread: f64) -> Reading {
        Reading { value, spread }
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        assert_eq!(
            judge(&pps(), r(100.0, 0.01), r(95.0, 0.01)),
            Verdict::WithinBound
        );
        assert_eq!(judge(&pps(), r(100.0, 0.01), r(85.0, 0.01)), Verdict::Worse);
        assert_eq!(
            judge(&pps(), r(100.0, 0.01), r(115.0, 0.01)),
            Verdict::Better
        );
        assert_eq!(judge(&lat(), r(2.0, 0.01), r(2.5, 0.01)), Verdict::Worse);
        assert_eq!(judge(&lat(), r(2.0, 0.01), r(1.5, 0.01)), Verdict::Better);
        assert_eq!(
            judge(&lat(), r(2.0, 0.01), r(2.1, 0.01)),
            Verdict::WithinBound
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        assert_eq!(
            judge(&pps(), r(100.0, 0.15), r(98.0, 0.02)),
            Verdict::Unresolved
        );
        // ... and a change has to clear the spread too.
        assert_eq!(
            judge(&pps(), r(100.0, 0.15), r(88.0, 0.02)),
            Verdict::Unresolved
        );
        assert_eq!(judge(&pps(), r(100.0, 0.15), r(80.0, 0.02)), Verdict::Worse);
    }

    fn result(pps: f64, fail_ratio: f64) -> Json {
        let metric = Json::obj().with("value", pps).with("spread", 0.01);
        Json::obj().with(
            "workloads",
            Json::obj().with(
                "fwd64",
                Json::obj().with(
                    "end_to_end",
                    Json::obj()
                        .with("fail_ratio", fail_ratio)
                        .with("metrics", Json::obj().with("pps", metric)),
                ),
            ),
        )
    }

    #[test]
    fn compare_fails_on_a_worse_row_or_a_risen_fail_ratio() {
        let bounds = [pps()];
        let (_, pass) = compare(&bounds, &result(100.0, 0.0), &result(99.0, 0.0)).unwrap();
        assert!(pass);
        let (report, pass) = compare(&bounds, &result(100.0, 0.0), &result(80.0, 0.0)).unwrap();
        assert!(!pass && report.contains("WORSE"));
        let (report, pass) = compare(&bounds, &result(100.0, 0.0), &result(100.0, 0.001)).unwrap();
        assert!(!pass && report.contains("ROSE"));
    }

    #[test]
    fn bounds_are_read_from_benchmark_json() {
        let text = r#"{"end_to_end": [
            {"name": "pps", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#;
        let bounds = bounds_from(&Json::parse(text).unwrap()).unwrap();
        assert_eq!(bounds[0], pps());
        assert_eq!((bounds[1].higher_is_better, bounds[1].bound), (false, 0.25));
        assert!(bounds_from(&Json::obj()).is_err());
    }
}
