//! `hintbench compare A.json B.json`: each side's median per (workload,
//! end-to-end metric), judged against the bounds in `BENCHMARK.json`.

use crate::json::{self, Value};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;

/// Metric values of one side: workload -> metric -> one value per run.
type Side = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Worse,
    /// A's own quartile spread is wider than the bound, and B does not
    /// beat every A run: the runs cannot tell.
    Unresolved,
}

/// Judges B against A. Returns the verdict and B's median change
/// relative to A's, signed so that positive is worse.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (Verdict, f64) {
    let ma = median(&mut a.to_vec());
    let mb = median(&mut b.to_vec());
    let change = if lower_is_better { mb - ma } else { ma - mb };
    let worse_by = change / ma.abs().max(f64::MIN_POSITIVE);
    let spread = quartiles(a).map_or(0.0, |q| (q[2] - q[0]) / ma.abs().max(f64::MIN_POSITIVE));
    let better = |y: f64, x: f64| if lower_is_better { y < x } else { y > x };
    let b_beats_all = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let verdict = if spread > bound && !b_beats_all {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Pass
    };
    (verdict, worse_by)
}

/// Reads a results file written by `hintbench run --out`, keeping the
/// untraced runs that passed their correctness check.
fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or(format!("{path}: no \"runs\" list"))?;
    let mut side = Side::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("run without workload")?;
        let result = run.get("result").ok_or("run without result")?;
        if run.get("trace") == Some(&Value::Bool(true))
            || result.get("correct") != Some(&Value::Bool(true))
        {
            continue;
        }
        for (name, m) in result.get("metrics").and_then(Value::as_obj).unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                side.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(side)
}

pub fn run(a_path: &str, b_path: &str, bench_path: &str) -> Result<bool, String> {
    let text = std::fs::read_to_string(bench_path).map_err(|e| format!("{bench_path}: {e}"))?;
    let bench = json::parse(&text).map_err(|e| format!("{bench_path}: {e}"))?;
    let metrics: Vec<(String, bool, f64)> = bench
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without name")?;
            let lower = m.get("better").and_then(Value::as_str) == Some("lower");
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without bound")?;
            Ok((name.to_string(), lower, bound))
        })
        .collect::<Result<_, String>>()?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!("B ({b_path}) against A ({a_path}); change is B's median vs A's, positive = worse");
    let mut worse = false;
    for (workload, ma) in &a {
        let Some(mb) = b.get(workload) else {
            println!("{workload:<16} missing from B");
            continue;
        };
        let mut cells = Vec::new();
        for (name, lower, bound) in &metrics {
            let cell = match (ma.get(name), mb.get(name)) {
                (Some(va), Some(vb)) => {
                    let (v, change) = judge(va, vb, *lower, *bound);
                    worse |= v == Verdict::Worse;
                    let word = match v {
                        Verdict::Pass => "pass",
                        Verdict::Worse => "WORSE",
                        Verdict::Unresolved => "unresolved",
                    };
                    format!(
                        "{name} {word} {:+.1}% (n={}/{}, bound {:.0}%)",
                        change * 100.0,
                        va.len(),
                        vb.len(),
                        bound * 100.0
                    )
                }
                _ => format!("{name} missing"),
            };
            cells.push(cell);
        }
        println!("{workload:<16} {}", cells.join(" | "));
    }
    Ok(!worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            judge(&a, &[100.2, 99.8, 100.0, 100.1, 99.9], false, 0.05).0,
            Verdict::Pass
        );
        // qps fell 10% against a 5% bound
        assert_eq!(
            judge(&a, &[90.0, 90.5, 89.5, 90.2, 89.8], false, 0.05).0,
            Verdict::Worse
        );
        // latency rose 10%: worse when lower is better
        assert_eq!(
            judge(&a, &[110.0, 110.5, 109.5, 110.2, 109.8], true, 0.05).0,
            Verdict::Worse
        );
        // A's own spread (~40%) exceeds the bound
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(
            judge(&noisy, &[95.0, 105.0, 100.0], false, 0.05).0,
            Verdict::Unresolved
        );
        // ...unless every B run beats every A run
        assert_eq!(judge(&noisy, &[150.0, 160.0], false, 0.05).0, Verdict::Pass);
    }
}
