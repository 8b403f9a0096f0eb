//! `kamel-benchmark`: the repository's benchmark. See `README.md` beside
//! this crate for the workloads, the metrics and how to read them.
//!
//! ```text
//! kamel-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! kamel-benchmark --smoke
//! kamel-benchmark compare A.json B.json
//! ```

mod compare;
mod district;
mod host;
mod inputs;
mod layers;
mod probe;
mod report;
mod stats;
mod trace;
mod workload;
mod yardstick;

use report::{Metric, Spec};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Outcome, Plan};

const WORKLOADS: [&str; 3] = ["bulk_ngram", "store_cold", "serve_reload"];

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("`{flag} {value}`: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad("a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; known: {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(RunArgs {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Where fixtures and traces go: `$CARGO_TARGET_DIR/benchmark`, inside the
/// checkout when the driver runs this.
fn out_dir() -> Result<PathBuf, String> {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let dir = target.join("benchmark");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn run_workload(
    name: &str,
    seed: u64,
    plan: &Plan,
    traced: bool,
    dir: &Path,
) -> Result<Outcome, String> {
    // Every measured window runs the program on one thread of its own
    // choosing; what parallelism there is comes from the server's threads.
    kamel::set_thread_budget(1);
    match name {
        "bulk_ngram" => workload::bulk_ngram::run(seed, plan, traced, dir),
        "store_cold" => workload::store_cold::run(seed, plan, traced, dir),
        "serve_reload" => workload::serve_reload::run(seed, plan, traced, dir),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Reasons that hold for the whole process, not one workload.
fn process_invalid() -> Vec<String> {
    let mut invalid = Vec::new();
    if cfg!(debug_assertions) {
        invalid.push("debug build: timings mean nothing".to_string());
    }
    if host::nproc() < 2 {
        invalid.push(format!(
            "nproc is {}: serve_reload needs a second core for its reloads",
            host::nproc()
        ));
    }
    invalid
}

/// The metrics of one finished run, its trace written if it has one.
fn metrics_of(name: &str, outcome: &Outcome, dir: &Path) -> Result<Vec<Metric>, String> {
    let Some(traced) = &outcome.traced else {
        return Ok(report::end_to_end(outcome));
    };
    let path = dir.join(format!("trace-{name}.jsonl"));
    let spans: Vec<_> = traced
        .window_spans
        .iter()
        .chain(&traced.replay_spans)
        .cloned()
        .collect();
    trace::write_jsonl(&path, &spans).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(report::per_layer(outcome, traced))
}

fn meta_line(args: &RunArgs, outcome: &Outcome, invalid: &[String]) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let settings: Vec<String> = outcome
        .settings
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:?}"))
        .collect();
    let invalid: Vec<String> = invalid.iter().map(|r| format!("{r:?}")).collect();
    format!(
        "{{\"meta\": {{\"workload\": {:?}, \"seed\": {}, \"seconds\": {:?}, \"trace\": {}, \"nproc\": {}, \
         \"cpu\": {:?}, \"isa\": {:?}, \"rustc\": {:?}, \"commit\": {:?}, \"limit_ms\": {:?}, \
         \"rounds\": {}, {}, \"invalid\": [{}]}}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        host::nproc(),
        host::cpu_model(),
        kamel::active_isa().to_string(),
        env("KAMEL_BENCH_RUSTC"),
        env("KAMEL_BENCH_COMMIT"),
        outcome.limit_ms,
        outcome.window.rounds.len(),
        settings.join(", "),
        invalid.join(", ")
    )
}

fn run(args: &RunArgs) -> Result<bool, String> {
    let dir = out_dir()?;
    let outcome = run_workload(
        &args.workload,
        args.seed,
        &Plan::full(args.seconds),
        args.trace,
        &dir,
    )?;
    let metrics = metrics_of(&args.workload, &outcome, &dir)?;
    let mut invalid = process_invalid();
    invalid.extend(outcome.invalid.iter().cloned());
    for reason in &invalid {
        eprintln!("INVALID RUN: {reason}");
    }
    println!("{}", meta_line(args, &outcome, &invalid));
    println!(
        "{}",
        report::result_line(
            outcome.correct,
            outcome.window.attempted(),
            outcome.window.failed,
            &metrics
        )
    );
    Ok(outcome.correct)
}

/// Every workload once, traced, with windows of a second or two: checks
/// that each runs, verifies its outputs, and emits exactly the metric names
/// and units `BENCHMARK.json` declares — the end-to-end ones from the
/// untraced part of the window, the per-layer ones from the rest.
fn smoke() -> Result<(), String> {
    let spec = Spec::load();
    let declared: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
    if declared != WORKLOADS {
        return Err(format!(
            "BENCHMARK.json lists workloads {declared:?}, the code has {WORKLOADS:?}"
        ));
    }
    let dir = out_dir()?;
    for name in WORKLOADS {
        let outcome = run_workload(name, 1, &Plan::smoke(), true, &dir)?;
        if !outcome.correct {
            return Err(format!("{name}: wrong outputs"));
        }
        let mut found = report::disagreements(&report::end_to_end(&outcome), &spec.end_to_end);
        found.extend(report::disagreements(
            &metrics_of(name, &outcome, &dir)?,
            &spec.per_layer,
        ));
        if !found.is_empty() {
            return Err(format!("{name}: {}", found.join("; ")));
        }
        eprintln!("smoke: {name} ok");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => (|| {
                let read =
                    |p: &String| std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"));
                compare::compare(&read(a)?, &read(b)?, &Spec::load())
            })(),
            _ => Err("usage: kamel-benchmark compare A.json B.json".to_string()),
        },
        Some("--smoke") if args.len() == 1 => smoke().map(|()| true),
        _ => parse_run_args(&args).and_then(|a| run(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("kamel-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}
