//! Integration test: the full CLI workflow over temp files —
//! generate → train → stats → impute → evaluate → append.

use std::path::PathBuf;

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kamel_cli_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> (i32, String) {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut buf = Vec::new();
    let code = kamel_cli::run(&args, &mut buf);
    (code, String::from_utf8(buf).unwrap())
}

#[test]
fn full_workflow() {
    // Its own subdirectory: removing the shared root at the end would pull
    // the files out from under the tests running beside it.
    let dir = workdir().join("full");
    std::fs::create_dir_all(&dir).unwrap();
    let train_csv = dir.join("train.csv");
    let truth_csv = dir.join("truth.csv");
    let model = dir.join("model.json");
    let dense_csv = dir.join("dense.csv");
    let (train_s, truth_s, model_s, dense_s) = (
        train_csv.to_str().unwrap(),
        truth_csv.to_str().unwrap(),
        model.to_str().unwrap(),
        dense_csv.to_str().unwrap(),
    );

    // generate
    let (code, out) = run(&[
        "generate", "--city", "porto", "--scale", "small", "--train", train_s, "--test", truth_s,
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("training trajectories"), "{out}");
    assert!(train_csv.exists() && truth_csv.exists());

    // train
    let (code, out) = run(&[
        "train", "--input", train_s, "--model", model_s, "--threshold-k", "150",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("models"), "{out}");
    assert!(model.exists());

    // stats
    let (code, out) = run(&["stats", "--model", model_s]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("engine: ngram"), "{out}");
    assert!(out.contains("tokens:"), "{out}");

    // impute the (sparsified by evaluate internally — here raw) truth file
    let (code, out) = run(&[
        "impute", "--model", model_s, "--input", truth_s, "--output", dense_s,
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(dense_csv.exists());

    // evaluate against ground truth
    let (code, out) = run(&[
        "evaluate", "--model", model_s, "--truth", truth_s, "--sparse-m", "1000", "--limit", "8",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("KAMEL"), "{out}");
    // A trained model must beat the 0.5 recall floor on its own city.
    let recall: f64 = out
        .lines()
        .find(|l| l.starts_with("KAMEL"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .expect("recall column");
    assert!(recall > 0.5, "recall {recall}\n{out}");

    // append: incremental training on the same file keeps the model usable.
    let (code, out) = run(&["train", "--input", train_s, "--model", model_s, "--append"]);
    assert_eq!(code, 0, "{out}");
    let (code, out) = run(&["stats", "--model", model_s]);
    assert_eq!(code, 0, "{out}");
    // Store now holds both batches.
    assert!(out.contains("trajectories: 308") || out.contains("trajectories:"), "{out}");

    std::fs::remove_dir_all(&dir).ok();
}

/// Crash-safe training: checkpoint mid-run, resume to completion, survive
/// corruption of the final checkpoint via the `.bak` rotation, and refuse
/// to resume against a different input file.
#[test]
fn checkpoint_resume_workflow() {
    let dir = workdir().join("ckpt_resume");
    std::fs::create_dir_all(&dir).unwrap();
    let train_csv = dir.join("train.csv");
    let model = dir.join("model.ckpt");
    let progress = dir.join("model.ckpt.progress");
    let (train_s, model_s) = (train_csv.to_str().unwrap(), model.to_str().unwrap());

    let (code, out) = run(&["generate", "--city", "porto", "--scale", "small", "--train", train_s]);
    assert_eq!(code, 0, "{out}");
    let total: usize = out
        .split("wrote ")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("trajectory count in generate output");
    assert!(total > 80, "corpus too small for this test: {total}");

    // An "interrupted" run: checkpoint every 40 trajectories, stop at 80.
    let (code, out) = run(&[
        "train", "--input", train_s, "--model", model_s, "--threshold-k", "150",
        "--checkpoint-every", "40", "--stop-after", "80",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("checkpoint: 40/"), "{out}");
    assert!(out.contains("stopped after 80/"), "{out}");
    assert!(model.exists() && progress.exists());

    // The partial checkpoint is a valid, inspectable model.
    let (code, out) = run(&["stats", "--model", model_s]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("trajectories: 80"), "{out}");

    // Resume finishes the rest and removes the progress record.
    let (code, out) = run(&["train", "--input", train_s, "--model", model_s, "--resume"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("resuming") && out.contains("at trajectory 80/"), "{out}");
    assert!(out.contains(&format!("trained on {total} trajectories")), "{out}");
    assert!(!progress.exists(), "progress record must be cleaned up");
    let (code, out) = run(&["stats", "--model", model_s]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains(&format!("trajectories: {total}")), "{out}");

    // Resuming a completed run is a clean no-op.
    let (code, out) = run(&["train", "--input", train_s, "--model", model_s, "--resume"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("nothing to resume"), "{out}");

    // Corrupt the live checkpoint's tail: stats must fall back to the
    // rotated .bak and still exit 0.
    let bytes = std::fs::read(&model).unwrap();
    std::fs::write(&model, &bytes[..bytes.len() - 64]).unwrap();
    let (code, out) = run(&["stats", "--model", model_s]);
    assert_eq!(code, 0, "corrupt checkpoint must recover via .bak: {out}");
    assert!(out.contains("trajectories:"), "{out}");

    // A resume against a different input file is refused loudly.
    let model2 = dir.join("model2.ckpt");
    let model2_s = model2.to_str().unwrap();
    let (code, out) = run(&[
        "train", "--input", train_s, "--model", model2_s, "--threshold-k", "150",
        "--checkpoint-every", "40", "--stop-after", "40",
    ]);
    assert_eq!(code, 0, "{out}");
    let mut csv = std::fs::read(&train_csv).unwrap();
    csv.extend_from_slice(b"9999,41.15,-8.61,0\n9999,41.15,-8.60,60\n");
    std::fs::write(&train_csv, &csv).unwrap();
    let (code, out) = run(&["train", "--input", train_s, "--model", model2_s, "--resume"]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("digest mismatch"), "{out}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tune_picks_a_candidate() {
    let dir = workdir();
    let train_csv = dir.join("tune_train.csv");
    let train_s = train_csv.to_str().unwrap();
    let (code, out) = run(&[
        "generate", "--city", "porto", "--scale", "small", "--train", train_s,
    ]);
    assert_eq!(code, 0, "{out}");
    let (code, out) = run(&[
        "tune", "--input", train_s, "--candidates", "50,75,150", "--threshold-k", "150",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(
        out.contains("50") || out.contains("75") || out.contains("150"),
        "{out}"
    );
    assert!(out.contains("best hexagon edge"), "{out}");
    std::fs::remove_file(&train_csv).ok();
}

#[test]
fn export_writes_geojson() {
    let dir = workdir();
    let csv = dir.join("export.csv");
    let geojson = dir.join("export.geojson");
    std::fs::write(&csv, "traj_id,lat,lng,t\n0,41.15,-8.61,0\n0,41.16,-8.60,60\n").unwrap();
    let (code, out) = run(&[
        "export", "--input", csv.to_str().unwrap(), "--output", geojson.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{out}");
    // Members are decoded one at a time: `type` is a keyword, so no struct
    // field can name it.
    type Object = std::collections::HashMap<String, serde_json::Value>;
    let tag = |o: &Object| serde_json::from_value::<String>(o["type"].clone()).unwrap();
    let doc: Object = serde_json::from_str(&std::fs::read_to_string(&geojson).unwrap()).unwrap();
    assert_eq!(tag(&doc), "FeatureCollection");
    let features: Vec<Object> = serde_json::from_value(doc["features"].clone()).unwrap();
    let geometry: Object = serde_json::from_value(features[0]["geometry"].clone()).unwrap();
    assert_eq!(tag(&geometry), "LineString");
    std::fs::remove_file(&csv).ok();
    std::fs::remove_file(&geojson).ok();
}

#[test]
fn helpful_errors() {
    let (code, out) = run(&["train", "--model", "/nonexistent/model.json"]);
    assert_eq!(code, 1);
    assert!(out.contains("--input"), "{out}");

    let (code, out) = run(&["impute", "--model", "/nonexistent/model.json", "--input", "x", "--output", "y"]);
    assert_eq!(code, 1);
    assert!(out.contains("error"), "{out}");

    let (code, out) = run(&["generate", "--city", "atlantis", "--train", "/tmp/x.csv"]);
    assert_eq!(code, 1);
    assert!(out.contains("porto|jakarta"), "{out}");

    let (code, out) = run(&["route"]);
    assert_eq!(code, 1);
    assert!(out.contains("--shard"), "{out}");

    let (code, out) = run(&["route", "--shard", "127.0.0.1:1", "--shard-map", "/tmp/map.json"]);
    assert_eq!(code, 1);
    assert!(out.contains("not both"), "{out}");

    // Shard identity is validated before the model loads.
    let (code, out) = run(&["serve", "--model", "/nonexistent/model.json", "--shard-id", "0"]);
    assert_eq!(code, 1);
    assert!(out.contains("given together"), "{out}");

    let (code, out) = run(&[
        "serve", "--model", "/nonexistent/model.json", "--shard-id", "2", "--shard-of", "2",
    ]);
    assert_eq!(code, 1);
    assert!(out.contains("must be <"), "{out}");
}

#[test]
fn per_command_help() {
    for cmd in ["generate", "train", "tune", "impute", "serve", "route", "stats", "evaluate", "export"] {
        let (code, out) = run(&[cmd, "--help"]);
        assert_eq!(code, 0, "{cmd}");
        assert!(out.contains(cmd), "{cmd}: {out}");
    }
}
