//! Runs `kamel-benchmark --smoke`: all three workloads, traced and
//! untraced, with short windows. It fails when a workload cannot run, when
//! an output is wrong, or when the metric names and units the code emits
//! differ from `BENCHMARK.json`.

use std::process::Command;

#[test]
fn every_workload_runs_and_emits_the_declared_metrics() {
    let target = std::env::temp_dir().join(format!("kamel-benchmark-smoke-{}", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_kamel-benchmark"))
        .arg("--smoke")
        .env("CARGO_TARGET_DIR", &target)
        .output()
        .expect("the benchmark binary starts");
    std::fs::remove_dir_all(&target).ok();
    assert!(
        output.status.success(),
        "smoke run failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}
