//! `kamel-benchmark compare A.json B.json`: two sets of runs, side by side.
//!
//! A set is a file of JSON lines as `sets.sh` writes them:
//! `{"workload": "...", "seed": n, "result": <the run's result line>}`.
//! For every workload and end-to-end metric the comparison prints both
//! medians, both quartile spreads as a share of the median, the bound from
//! `BENCHMARK.json`, and a verdict: `worse` when B's median is worse than
//! A's by more than the bound, `unresolved` when either spread is wider
//! than the bound (the sets cannot tell), else `ok`.

use crate::report::{MetricSpec, Spec};
use crate::stats::{median, quartile_spread};
use serde::Deserialize;
use std::collections::BTreeMap;

#[derive(Deserialize)]
struct SetLine {
    workload: String,
    result: RunResult,
}

#[derive(Deserialize)]
struct RunResult {
    correct: bool,
    metrics: BTreeMap<String, Value>,
}

#[derive(Deserialize)]
struct Value {
    value: f64,
}

/// workload → metric → values, one per run.
type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn parse_set(text: &str) -> Result<Set, String> {
    let mut set = Set::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run: SetLine =
            serde_json::from_str(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if !run.result.correct {
            return Err(format!(
                "line {}: a run of `{}` reported wrong outputs",
                n + 1,
                run.workload
            ));
        }
        let metrics = set.entry(run.workload).or_default();
        for (name, v) in run.result.metrics {
            metrics.entry(name).or_default().push(v.value);
        }
    }
    Ok(set)
}

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// The rule, on one metric's two samples.
pub fn verdict(a: &[f64], b: &[f64], spec: &MetricSpec) -> Verdict {
    let bound = spec.bound.unwrap_or(0.0);
    let (ma, mb) = (median(a), median(b));
    let loss = if spec.better == "lower" {
        mb - ma
    } else {
        ma - mb
    };
    if loss > bound * ma.abs() {
        Verdict::Worse
    } else if a.len() < 2 || b.len() < 2 || quartile_spread(a).max(quartile_spread(b)) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Prints the table; `Ok(true)` when nothing is `worse`.
pub fn compare(a_text: &str, b_text: &str, spec: &Spec) -> Result<bool, String> {
    let (a, b) = (parse_set(a_text)?, parse_set(b_text)?);
    let mut clean = true;
    println!(
        "{:<13} {:<17} {:>12} {:>12} {:>9} {:>9} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "spread A", "spread B", "bound"
    );
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let values = |set: &Set| {
                set.get(&workload.name)
                    .and_then(|w| w.get(&m.name))
                    .cloned()
            };
            let (Some(va), Some(vb)) = (values(&a), values(&b)) else {
                println!(
                    "{:<13} {:<17} missing from one of the sets",
                    workload.name, m.name
                );
                continue;
            };
            let v = verdict(&va, &vb, m);
            clean &= v != Verdict::Worse;
            let spread = |v: &[f64]| {
                if v.len() >= 2 {
                    quartile_spread(v)
                } else {
                    f64::NAN
                }
            };
            println!(
                "{:<13} {:<17} {:>12.5} {:>12.5} {:>9.4} {:>9.4} {:>6.2}  {}",
                workload.name,
                m.name,
                median(&va),
                median(&vb),
                spread(&va),
                spread(&vb),
                m.bound.unwrap_or(0.0),
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(better: &str, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "s".into(),
            better: better.into(),
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [13.0, 13.1, 12.9, 13.0, 13.05];
        let noisy = [6.0, 14.0, 8.0, 12.0, 10.0];
        assert_eq!(
            verdict(&steady, &slower, &spec("lower", 0.25)),
            Verdict::Worse
        );
        assert_eq!(verdict(&slower, &steady, &spec("lower", 0.25)), Verdict::Ok);
        assert_eq!(
            verdict(&steady, &slower, &spec("higher", 0.25)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&slower, &steady, &spec("higher", 0.2)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&steady, &noisy, &spec("lower", 0.25)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&[10.0], &[10.0], &spec("lower", 0.25)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn sets_parse_and_reject_incorrect_runs() {
        let line = |correct: bool, v: f64| {
            format!("{{\"workload\": \"w\", \"seed\": 1, \"result\": {{\"correct\": {correct}, \"attempted\": 5, \"failed\": 0, \"metrics\": {{\"m\": {{\"value\": {v:?}, \"unit\": \"s\"}}}}}}}}\n")
        };
        let set = parse_set(&(line(true, 1.5) + &line(true, 2.5))).unwrap();
        assert_eq!(set["w"]["m"], vec![1.5, 2.5]);
        assert!(parse_set(&line(false, 1.0)).is_err());
        assert!(parse_set("not json\n").is_err());
    }
}
