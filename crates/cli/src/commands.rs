//! The CLI subcommands.

use crate::csvio::{read_trajectories, write_trajectories};
use crate::progress::{progress_path, TrainProgress};
use crate::Flags;
use kamel::pipeline::tune_cell_size_detailed;
use kamel::{GridKind, Kamel, KamelConfig, KamelConfigBuilder};
use kamel_eval::harness::{evaluate_technique, format_table, KamelImputer};
use kamel_eval::EvalContext;
use kamel_lm::{BertEngineConfig, EngineConfig, NgramConfig};
use kamel_roadsim::{Dataset, DatasetScale};
use std::fs::File;
use std::io::{BufReader, Write};
use std::path::Path;

fn open_trajectories(path: &str) -> Result<Vec<kamel_geo::Trajectory>, String> {
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    read_trajectories(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))
}

fn save_trajectories(path: &str, trajs: &[kamel_geo::Trajectory]) -> Result<(), String> {
    // Buffer the CSV and publish it with the checkpoint layer's temp-file +
    // rename helper: a crash mid-save leaves the previous file, never a
    // torn one.
    let mut buf = Vec::new();
    write_trajectories(&mut buf, trajs)?;
    kamel::checkpoint::write_file_atomic(path, &buf).map_err(|e| format!("write {path}: {e}"))
}

/// The value flags [`config_from_flags`] reads; a command that calls it
/// declares these beside its own.
const CONFIG_FLAGS: [&str; 9] = [
    "--cell-edge-m", "--max-gap-m", "--beam-size", "--pyramid-height", "--pyramid-maintained",
    "--threshold-k", "--threads", "--grid", "--engine",
];

/// Shared KAMEL options exposed on `train` and `tune`.
fn config_from_flags(flags: &Flags) -> Result<KamelConfig, String> {
    let mut builder: KamelConfigBuilder = KamelConfig::builder();
    builder = builder
        .cell_edge_m(flags.get_f64("--cell-edge-m", 75.0)?)
        .max_gap_m(flags.get_f64("--max-gap-m", 100.0)?)
        .beam_size(flags.get_usize("--beam-size", 10)?)
        .pyramid_height(flags.get_usize("--pyramid-height", 3)?)
        .pyramid_maintained(flags.get_usize("--pyramid-maintained", 3)?)
        .model_threshold_k(flags.get_u64("--threshold-k", 500)?);
    // 0 (the default) means "auto": resolve via KAMEL_THREADS, then
    // hardware parallelism.
    let threads = flags.get_usize("--threads", 0)?;
    if threads > 0 {
        builder = builder.threads(Some(threads));
    }
    if let Some(grid) = flags.get("--grid") {
        builder = builder.grid(match grid {
            "hex" => GridKind::Hex,
            "square" => GridKind::Square,
            other => return Err(format!("--grid expects hex|square, got `{other}`")),
        });
    }
    if let Some(engine) = flags.get("--engine") {
        builder = builder.engine(match engine {
            "ngram" => EngineConfig::Ngram(NgramConfig::default()),
            "bert" => EngineConfig::Bert(BertEngineConfig::default()),
            "bert-tiny" => EngineConfig::Bert(BertEngineConfig::for_tests()),
            other => return Err(format!("--engine expects ngram|bert|bert-tiny, got `{other}`")),
        });
    }
    builder.try_build().map_err(|e| e.to_string())
}

/// `kamel generate`: write synthetic train/test CSVs from a dataset preset.
pub fn generate(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let help = "kamel generate --city porto|jakarta [--scale small|medium|large] \
        --train FILE [--test FILE]";
    let values = ["--city", "--scale", "--train", "--test"];
    let Some(flags) = Flags::parse("generate", help, &values, &[], args, out)? else {
        return Ok(());
    };
    let scale = match flags.get("--scale").unwrap_or("small") {
        "small" => DatasetScale::Small,
        "medium" => DatasetScale::Medium,
        "large" => DatasetScale::Large,
        other => return Err(format!("--scale expects small|medium|large, got `{other}`")),
    };
    let dataset = match flags.required("--city")? {
        "porto" => Dataset::porto_like(scale),
        "jakarta" => Dataset::jakarta_like(scale),
        other => return Err(format!("--city expects porto|jakarta, got `{other}`")),
    };
    let train_path = flags.required("--train")?;
    save_trajectories(train_path, &dataset.train)?;
    let _ = writeln!(
        out,
        "wrote {} training trajectories ({} points) to {train_path}",
        dataset.train.len(),
        dataset.train_points()
    );
    if let Some(test_path) = flags.get("--test") {
        save_trajectories(test_path, &dataset.test)?;
        let _ = writeln!(
            out,
            "wrote {} ground-truth trajectories to {test_path}",
            dataset.test.len()
        );
    }
    Ok(())
}

/// `kamel train`: train (or extend) a model from a trajectory CSV.
///
/// With `--checkpoint-every N` the run saves a model checkpoint (plus a
/// `<model>.progress` record) every `N` trajectories; after a crash,
/// `--resume` continues from the last checkpoint instead of restarting.
pub fn train(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let help = "kamel train --input FILE --model FILE [--append] [--cell-edge-m N] \
        [--max-gap-m N] [--beam-size N] [--grid hex|square] \
        [--engine ngram|bert|bert-tiny] [--pyramid-height N] \
        [--pyramid-maintained N] [--threshold-k N] [--split-gap-s N] \
        [--threads N] [--checkpoint-every N] [--resume] \
        [--stop-after N] [--throttle-ms N]\n\n\
        --checkpoint-every N  save the model every N trajectories\n\
        --resume              continue an interrupted checkpointed run\n\
        --stop-after N        exit cleanly at the first checkpoint >= N \
        trajectories (testing hook)\n\
        --throttle-ms N       sleep N ms after each checkpoint (testing hook)";
    let own =
        ["--input", "--model", "--split-gap-s", "--checkpoint-every", "--stop-after", "--throttle-ms"];
    let values = [&own[..], &CONFIG_FLAGS].concat();
    let switches = ["--append", "--resume"];
    let Some(flags) = Flags::parse("train", help, &values, &switches, args, out)? else {
        return Ok(());
    };
    let input = flags.required("--input")?;
    let model_path = flags.required("--model")?;
    // Read the input once as raw bytes: the digest binds resume to the
    // exact file content, and the parser reads from the same buffer.
    let raw = std::fs::read(input).map_err(|e| format!("open {input}: {e}"))?;
    let input_digest = kamel::checkpoint::fnv1a64(&raw);
    let mut trajectories =
        read_trajectories(BufReader::new(raw.as_slice())).map_err(|e| format!("{input}: {e}"))?;
    // Messy logs concatenate trips per vehicle id; split at long time gaps
    // before training when asked.
    let split_gap_s = flags.get_f64("--split-gap-s", 0.0)?;
    if split_gap_s > 0.0 {
        trajectories = trajectories
            .iter()
            .flat_map(|t| t.split_by_time_gap(split_gap_s))
            .collect();
    }
    if trajectories.is_empty() {
        return Err(format!("{input}: no trajectories"));
    }
    let total = trajectories.len();
    let checkpoint_every = flags.get_usize("--checkpoint-every", 0)?;
    let stop_after = flags.get_usize("--stop-after", 0)?;
    let throttle_ms = flags.get_u64("--throttle-ms", 0)?;
    let ppath = progress_path(model_path);

    // Resolve the starting model, resume position, and checkpoint cadence.
    let (kamel, start, every, base_stored) = if flags.has("--resume") {
        let Some(record) = TrainProgress::load(&ppath)? else {
            if Path::new(model_path).exists() {
                let _ = writeln!(
                    out,
                    "nothing to resume: {model_path} has no progress record \
                     (the previous run completed)"
                );
                return Ok(());
            }
            return Err(format!(
                "--resume: no progress record at {} and no model at {model_path}; \
                 run without --resume to start fresh",
                ppath.display()
            ));
        };
        if record.input_digest != input_digest {
            return Err(format!(
                "--resume: {input} is not the interrupted run's input (digest mismatch); \
                 restore the original file or retrain without --resume"
            ));
        }
        let kamel = Kamel::load_from_file(model_path).map_err(|e| e.to_string())?;
        // The checkpoint, not the record, is the authority on progress: a
        // crash can land between the model save and the record save, so
        // recompute the consumed count from the model itself.
        let stored = kamel.stats().map_or(0, |s| s.stored_trajectories);
        let consumed = stored.saturating_sub(record.base_stored);
        if consumed > total {
            return Err(format!(
                "--resume: checkpoint is ahead of the input ({consumed} > {total} \
                 trajectories); the input file shrank since the interrupted run"
            ));
        }
        let every = if checkpoint_every > 0 {
            checkpoint_every
        } else {
            record.checkpoint_every
        };
        let _ = writeln!(out, "resuming {model_path} at trajectory {consumed}/{total}");
        (kamel, consumed, every, record.base_stored)
    } else if flags.has("--append") {
        // --append continues training an existing model.
        let kamel = Kamel::load_from_file(model_path).map_err(|e| e.to_string())?;
        let base = kamel.stats().map_or(0, |s| s.stored_trajectories);
        (kamel, 0, checkpoint_every, base)
    } else {
        (Kamel::new(config_from_flags(&flags)?), 0, checkpoint_every, 0)
    };

    if start >= total {
        // The interrupted run had already consumed the whole input; the
        // crash landed after the final checkpoint but before cleanup.
        let _ = std::fs::remove_file(&ppath);
    } else if every == 0 && stop_after == 0 {
        // Single-shot path: train everything, save once.
        kamel.train(&trajectories[start..]);
        kamel.save_to_file(model_path).map_err(|e| e.to_string())?;
        let _ = std::fs::remove_file(&ppath);
    } else {
        let chunk = if every == 0 { total } else { every };
        let mut consumed = start;
        while consumed < total {
            let end = (consumed + chunk).min(total);
            kamel.train(&trajectories[consumed..end]);
            consumed = end;
            kamel.save_to_file(model_path).map_err(|e| e.to_string())?;
            TrainProgress {
                input_digest,
                consumed,
                base_stored,
                checkpoint_every: chunk,
            }
            .save(&ppath)?;
            let _ = writeln!(out, "checkpoint: {consumed}/{total} trajectories -> {model_path}");
            let _ = out.flush();
            if stop_after > 0 && consumed >= stop_after && consumed < total {
                let _ = writeln!(
                    out,
                    "stopped after {consumed}/{total} trajectories (--stop-after); \
                     continue with --resume"
                );
                return Ok(());
            }
            if throttle_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(throttle_ms));
            }
        }
        let _ = std::fs::remove_file(&ppath);
    }
    let stats = kamel.stats().expect("trained");
    let _ = writeln!(
        out,
        "trained on {total} trajectories: {} models, {} stored tokens -> {model_path}",
        stats.models,
        stats.stored_tokens
    );
    Ok(())
}

/// `kamel impute`: impute a sparse trajectory CSV with a trained model.
pub fn impute(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let help = "kamel impute --model FILE --input FILE --output FILE [--threads N]";
    let values = ["--model", "--input", "--output", "--threads"];
    let Some(flags) = Flags::parse("impute", help, &values, &[], args, out)? else {
        return Ok(());
    };
    let threads = flags.get_usize("--threads", 0)?;
    if threads > 0 {
        kamel::set_thread_budget(threads);
    }
    let kamel = Kamel::load_from_file(flags.required("--model")?).map_err(|e| e.to_string())?;
    let sparse = open_trajectories(flags.required("--input")?)?;
    let results = kamel.impute_batch(&sparse);
    let dense: Vec<kamel_geo::Trajectory> =
        results.iter().map(|r| r.trajectory.clone()).collect();
    let output = flags.required("--output")?;
    save_trajectories(output, &dense)?;
    let gaps: usize = results.iter().map(|r| r.gaps.len()).sum();
    let imputed: usize = results.iter().map(|r| r.imputed_points()).sum();
    let failed: usize = results
        .iter()
        .flat_map(|r| &r.gaps)
        .filter(|g| g.outcome.failed)
        .count();
    let _ = writeln!(
        out,
        "imputed {} trajectories: {imputed} points over {gaps} gaps \
         ({failed} straight-line fallbacks) -> {output}",
        sparse.len()
    );
    Ok(())
}

/// `kamel stats`: inspect a trained model file.
pub fn stats(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let help = "kamel stats --model FILE";
    let Some(flags) = Flags::parse("stats", help, &["--model"], &[], args, out)? else {
        return Ok(());
    };
    let kamel = Kamel::load_from_file(flags.required("--model")?).map_err(|e| e.to_string())?;
    match kamel.stats() {
        Some(s) => {
            let _ = writeln!(
                out,
                "trajectories: {}\ntokens: {}\nmodels: {}\ndetokenization cells: {}\n\
                 speed cap: {:.1} m/s\nengine: {}",
                s.stored_trajectories,
                s.stored_tokens,
                s.models,
                s.detok_cells,
                s.max_speed_mps,
                kamel.config().engine.name()
            );
            let _ = writeln!(
                out,
                "\n{:<12} {:>6} {:>10} {:>8} {:>8} {:>8}",
                "model", "level", "cell", "vocab", "tokens", "updates"
            );
            for m in kamel.model_summaries() {
                let _ = writeln!(
                    out,
                    "{:<12} {:>6} {:>10} {:>8} {:>8} {:>8}",
                    m.kind,
                    m.level.map_or("-".into(), |l| l.to_string()),
                    m.cell
                        .map_or("-".into(), |(x, y)| format!("({x},{y})")),
                    m.vocab,
                    m.trained_tokens,
                    m.updates
                );
            }
        }
        None => {
            let _ = writeln!(out, "model is untrained");
        }
    }
    Ok(())
}

/// `kamel tune`: the §3.2 cell-size auto-tuner over a training CSV.
pub fn tune(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let help = "kamel tune --input FILE [--candidates 25,50,75,100,150,200] \
        [--delta-m N] [--sparse-m N] [--cell-edge-m N] [--max-gap-m N] \
        [--beam-size N] [--grid hex|square] [--engine ngram|bert|bert-tiny] \
        [--pyramid-height N] [--pyramid-maintained N] [--threshold-k N] \
        [--threads N]\n\n\
        every candidate overrides --cell-edge-m; the other model options \
        apply to each candidate as in `kamel train`";
    let own = ["--input", "--candidates", "--delta-m", "--sparse-m"];
    let values = [&own[..], &CONFIG_FLAGS].concat();
    let Some(flags) = Flags::parse("tune", help, &values, &[], args, out)? else {
        return Ok(());
    };
    let trajectories = open_trajectories(flags.required("--input")?)?;
    let candidates: Vec<f64> = match flags.get("--candidates") {
        None => vec![25.0, 50.0, 75.0, 100.0, 150.0, 200.0],
        Some(list) => list
            .split(',')
            .map(|v| {
                v.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("bad candidate size `{v}`"))
            })
            .collect::<Result<_, _>>()?,
    };
    let base = config_from_flags(&flags)?;
    let delta_m = flags.get_f64("--delta-m", 50.0)?;
    let sparse_m = flags.get_f64("--sparse-m", 1_000.0)?;
    let curve = tune_cell_size_detailed(&trajectories, &candidates, &base, delta_m, sparse_m);
    if curve.is_empty() {
        return Err("no candidate size could be scored (too little data?)".into());
    }
    let _ = writeln!(out, "{:<12} {:>10}", "edge (m)", "val score");
    for (edge, score) in &curve {
        let _ = writeln!(out, "{edge:<12} {score:>10.3}");
    }
    let best = curve
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite scores"))
        .expect("non-empty curve")
        .0;
    let _ = writeln!(
        out,
        "best hexagon edge: {best} m (pass --cell-edge-m {best} to `kamel train`)"
    );
    Ok(())
}

/// `kamel export`: convert a trajectory CSV to GeoJSON for visual
/// inspection (QGIS, geojson.io, Kepler).
pub fn export(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let help = "kamel export --input FILE.csv --output FILE.geojson";
    let Some(flags) = Flags::parse("export", help, &["--input", "--output"], &[], args, out)? else {
        return Ok(());
    };
    let trajectories = open_trajectories(flags.required("--input")?)?;
    let doc = kamel_roadsim::trajectories_to_geojson(&trajectories);
    let output = flags.required("--output")?;
    let json = serde_json::to_string(&doc).map_err(|e| e.to_string())?;
    kamel::checkpoint::write_file_atomic(output, json.as_bytes())
        .map_err(|e| format!("write {output}: {e}"))?;
    let _ = writeln!(
        out,
        "exported {} trajectories as GeoJSON -> {output}",
        trajectories.len()
    );
    Ok(())
}

/// Parses a human byte size: plain bytes, or a `k`/`m`/`g` suffix
/// (binary multiples, optional trailing `b`, any case) — `64m` = 64 MiB.
fn parse_byte_size(s: &str) -> Result<u64, String> {
    let lower = s.trim().to_ascii_lowercase();
    let body = lower.strip_suffix('b').unwrap_or(&lower);
    let (digits, shift) = match body.strip_suffix(['k', 'm', 'g']) {
        Some(d) => (d, match body.as_bytes()[body.len() - 1] {
            b'k' => 10,
            b'm' => 20,
            _ => 30,
        }),
        None => (body, 0),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("expected a byte size like 512, 64k, 16m, or 2g, got `{s}`"))?;
    n.checked_shl(shift)
        .filter(|v| v >> shift == n)
        .ok_or_else(|| format!("byte size `{s}` overflows"))
}

/// `kamel pack`: render a trained checkpoint into a `.kstore` model
/// store file (DESIGN.md §13) for `kamel serve --store`.
pub fn pack(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let help = "kamel pack --model FILE --out FILE.kstore\n\n\
        packs a trained checkpoint into a single mmap-ready model store:\n\
        a CRC-checked index over per-cell records that `kamel serve --store`\n\
        maps and materializes lazily. A BERT cell's weights are stored as raw\n\
        f32 tensors (plus packed int8 weights when the checkpointed system is\n\
        quantized), an n-gram cell as JSON; the report line says how many\n\
        bytes of the file each kind of section took. A store written by an\n\
        older format version is refused at load: re-pack it from its checkpoint";
    let Some(flags) = Flags::parse("pack", help, &["--model", "--out"], &[], args, out)? else {
        return Ok(());
    };
    let model_path = flags.required("--model")?;
    let out_path = flags.required("--out")?;
    let kamel = Kamel::load_from_file(model_path).map_err(|e| e.to_string())?;
    if !kamel.is_trained() {
        return Err(format!("{model_path}: model is untrained; nothing to pack"));
    }
    let stats =
        kamel_store::pack(&kamel, Path::new(out_path)).map_err(|e| e.to_string())?;
    let _ = writeln!(
        out,
        "packed {} models ({} with int8 weights, {} bytes: json {}, tensors {}, int8 {}) \
         -> {out_path}",
        stats.models,
        stats.quant_models,
        stats.bytes,
        stats.json_bytes,
        stats.tensor_bytes,
        stats.int8_bytes
    );
    Ok(())
}

/// Records buffered in memory between the serving path and the capture log;
/// past it a record is dropped and counted, never waited on.
const LEARN_QUEUE_CAP: usize = 4096;

/// `kamel serve`: the online imputation service (DESIGN.md §5).
///
/// Loads a trained model, binds the HTTP endpoint, and runs until SIGINT
/// or SIGTERM, then drains in-flight requests before exiting. SIGHUP (or
/// `POST /admin/reload`) re-reads `--model` and hot-swaps it without
/// dropping connections.
pub fn serve(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let help = "kamel serve (--model FILE | --store FILE.kstore) [--addr HOST:PORT]\n\
        \x20           [--model-memory-budget BYTES] [--threads N] [--batch-max N]\n\
        \x20           [--batch-wait-us N] [--cache-entries N] [--queue-cap N]\n\
        \x20           [--deadline-ms N] [--shard-id N --shard-of N] [--quantize]\n\
        \x20           [--degraded-mode] [--max-connections N] [--idle-timeout-ms N]\n\
        \x20           [--learn] [--learn-dir DIR] [--learn-max-bytes BYTES]\n\
        \x20           [--learn-interval-secs N] [--learn-batch-min N]\n\
        \x20           [--learn-gate-epsilon E]\n\n\
        serves POST /v1/impute, POST /admin/reload, GET /healthz, GET /metrics,\n\
        GET /v1/info until SIGTERM/ctrl-c; SIGHUP hot-reloads the model from\n\
        --model (or remaps --store, picking up a re-packed file);\n\
        --store serves a `kamel pack` model store via mmap, materializing\n\
        models lazily under --model-memory-budget (e.g. 512k, 64m, 2g;\n\
        default: the packed config's budget, else unbounded; a model costs\n\
        its record's size, which for BERT is the f32 weights it holds);\n\
        --shard-id/--shard-of label this process as member N of a\n\
        fleet of M behind `kamel route` (advertised on /v1/info); --quantize\n\
        serves BERT models through int8 weights when the accuracy gate passes\n\
        (startup fails when it does not; a store instead serves whatever\n\
        quantization state it was packed with); --degraded-mode answers\n\
        from the linear baseline (marked \"degraded\": true) instead of 503\n\
        when the admission queue is full; --max-connections caps concurrent\n\
        sockets (excess accepts get 503) and --idle-timeout-ms closes idle\n\
        or slow-loris keep-alive connections;\n\
        --learn (requires --model) tees served answers and POST /v1/feedback\n\
        corrections into a crash-safe capture log under --learn-dir\n\
        (default MODEL.capture, at most --learn-max-bytes, oldest dropped\n\
        first) and runs the background cell trainer in-process: every\n\
        --learn-interval-secs, once --learn-batch-min records are queued,\n\
        it retrains the neediest cells from captured feedback, replays a\n\
        held-out set, and rolls the new checkpoint out through the\n\
        /admin/reload path only when the replay score holds within\n\
        --learn-gate-epsilon — a failing gate keeps the old generation";
    let learn_values = [
        "--learn-dir", "--learn-max-bytes", "--learn-interval-secs", "--learn-batch-min",
        "--learn-gate-epsilon",
    ];
    let own = [
        "--model", "--store", "--addr", "--model-memory-budget", "--threads", "--batch-max",
        "--batch-wait-us", "--cache-entries", "--queue-cap", "--deadline-ms", "--shard-id",
        "--shard-of", "--max-connections", "--idle-timeout-ms",
    ];
    let values = [&own[..], &learn_values].concat();
    let switches = ["--quantize", "--degraded-mode", "--learn"];
    let Some(flags) = Flags::parse("serve", help, &values, &switches, args, out)? else {
        return Ok(());
    };
    let budget = flags
        .get("--model-memory-budget")
        .map(parse_byte_size)
        .transpose()
        .map_err(|e| format!("--model-memory-budget: {e}"))?;
    let (model_path, store_path) = match (flags.get("--model"), flags.get("--store")) {
        (Some(m), None) => (Some(m), None),
        (None, Some(s)) => (None, Some(s)),
        (Some(_), Some(_)) => return Err("give either --model or --store, not both".into()),
        (None, None) => return Err("missing model: give --model FILE or --store FILE.kstore".into()),
    };
    if budget.is_some() && store_path.is_none() {
        return Err("--model-memory-budget requires --store (heap checkpoints are unbounded)".into());
    }
    if flags.has("--quantize") && store_path.is_some() {
        return Err(
            "--quantize cannot change a packed store: it serves the quantization state \
             it was packed with (re-pack from a quantized checkpoint instead)"
                .into(),
        );
    }
    // Validate the shard identity before the (potentially slow) model
    // load so flag mistakes surface immediately.
    let shard = match (flags.get("--shard-id"), flags.get("--shard-of")) {
        (None, None) => None,
        (Some(_), Some(_)) => {
            let id = flags.get_usize("--shard-id", 0)?;
            let of = flags.get_usize("--shard-of", 0)?;
            if id >= of {
                return Err(format!("--shard-id {id} must be < --shard-of {of}"));
            }
            Some((id, of))
        }
        _ => return Err("--shard-id and --shard-of must be given together".into()),
    };
    // Continual learning (DESIGN.md §16). Validated before the model load
    // so flag mistakes surface immediately.
    let learn = flags.has("--learn");
    if !learn {
        for key in learn_values {
            if flags.get(key).is_some() {
                return Err(format!("`{key}` requires --learn"));
            }
        }
    }
    if learn && store_path.is_some() {
        return Err(
            "--learn requires --model: a packed --store is immutable, so the trainer \
             has nowhere to write retrained checkpoints (serve the checkpoint and \
             re-pack offline instead)"
                .into(),
        );
    }
    let learn_cfg = if learn {
        let dir = flags
            .get("--learn-dir")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| {
                std::path::PathBuf::from(format!(
                    "{}.capture",
                    model_path.expect("--learn requires --model")
                ))
            });
        let mut capture = kamel_learn::CaptureConfig::new(dir);
        if let Some(v) = flags.get("--learn-max-bytes") {
            capture.max_bytes = parse_byte_size(v).map_err(|e| format!("--learn-max-bytes: {e}"))?;
        }
        let defaults = kamel_learn::TrainerConfig::default();
        let trainer = kamel_learn::TrainerConfig {
            interval: std::time::Duration::from_secs(
                flags.get_u64("--learn-interval-secs", defaults.interval.as_secs())?,
            ),
            batch_min: flags.get_usize("--learn-batch-min", defaults.batch_min)?.max(1),
            gate_epsilon: flags.get_f64("--learn-gate-epsilon", defaults.gate_epsilon)?,
            ..defaults
        };
        Some(kamel_learn::LearnerConfig { capture, trainer })
    } else {
        None
    };
    let kamel = match store_path {
        Some(path) => {
            let kamel =
                kamel_store::load_kamel(Path::new(path), budget).map_err(|e| e.to_string())?;
            if let Some(r) = kamel.residency() {
                let _ = writeln!(
                    out,
                    "model store {path}: {} models ({} resident after boot sweep, \
                     {} pinned), {} bytes mapped, budget {}",
                    r.total_models,
                    r.resident_models,
                    r.pinned_models,
                    r.bytes_mapped,
                    if r.budget_bytes == 0 {
                        "unbounded".to_string()
                    } else {
                        format!("{} bytes", r.budget_bytes)
                    }
                );
            }
            kamel
        }
        None => Kamel::load_from_file(model_path.expect("one model source"))
            .map_err(|e| e.to_string())?,
    };
    if !kamel.is_trained() {
        let _ = writeln!(out, "warning: model is untrained; serving linear fallback only");
    }
    // --quantize is gated: the server refuses to start on an int8 path
    // whose top-1 agreement with f32 is below the configured bound, rather
    // than silently serving degraded answers.
    let quantize = flags.has("--quantize");
    if quantize && !kamel.is_quantized() {
        let agreement = kamel.enable_quantization().map_err(|e| e.to_string())?;
        let _ = writeln!(
            out,
            "int8 quantization enabled (worst f32/int8 top-1 agreement {agreement:.4})"
        );
    }
    // Batch workers default to the model's thread budget; --threads
    // overrides for this process.
    let threads = flags.get_usize("--threads", 0)?;
    let workers = if threads > 0 {
        threads
    } else {
        kamel.config().effective_threads()
    };
    let config = kamel_server::ServerConfig {
        workers,
        handlers: (workers * 4).clamp(4, 64),
        batch_max: flags.get_usize("--batch-max", 16)?.max(1),
        batch_wait: std::time::Duration::from_micros(flags.get_u64("--batch-wait-us", 500)?),
        queue_cap: flags.get_usize("--queue-cap", 256)?.max(1),
        cache_entries: flags.get_usize("--cache-entries", 1024)?,
        deadline: std::time::Duration::from_millis(
            flags.get_u64("--deadline-ms", 10_000)?.max(1),
        ),
        degraded_mode: flags.has("--degraded-mode"),
        max_connections: flags.get_usize("--max-connections", 10_000)?.max(1),
        idle_timeout: std::time::Duration::from_millis(
            flags.get_u64("--idle-timeout-ms", 30_000)?.max(1),
        ),
    };
    let addr = flags.get("--addr").unwrap_or("127.0.0.1:8080");
    let signals = kamel_server::install_signal_handlers();
    let mut engine = match store_path {
        // A SIGHUP (or /admin/reload) re-opens the store file: a re-pack
        // swaps in as a fresh mapping under a new generation, while the
        // old mapping serves in-flight batches until their Arcs drop.
        Some(path) => {
            let store_file = std::path::PathBuf::from(path);
            kamel_server::ImputeEngine::with_loader(
                std::sync::Arc::new(kamel),
                path.to_string(),
                Box::new(move || {
                    kamel_store::load_kamel(&store_file, budget).map_err(|e| e.to_string())
                }),
            )
        }
        None => kamel_server::ImputeEngine::with_model_path(
            std::sync::Arc::new(kamel),
            std::path::PathBuf::from(model_path.expect("one model source")),
        ),
    };
    if let Some((id, of)) = shard {
        engine = engine.with_shard_identity(id, of);
    }
    engine = engine.with_quantization(quantize);
    // The capture tee is wired before the engine is shared: every completed
    // batch (and every /v1/feedback correction) is offered to the sink
    // through a bounded non-blocking channel — full queue drops the record,
    // it never slows serving.
    let learn_parts = learn_cfg.map(|cfg| {
        let (sink, rx) = kamel_learn::CaptureSink::channel(LEARN_QUEUE_CAP);
        (cfg, sink, rx)
    });
    if let Some((_, sink, _)) = &learn_parts {
        engine = engine.with_learn_sink(std::sync::Arc::clone(sink) as _);
    }
    let engine = std::sync::Arc::new(engine);
    let server = kamel_server::Server::bind(addr, std::sync::Arc::clone(&engine), config.clone())
        .map_err(|e| format!("bind {addr}: {e}"))?;
    let learner = learn_parts
        .map(|(cfg, sink, rx)| {
            let ops = kamel_learn::ModelOps::checkpoint(
                std::path::PathBuf::from(model_path.expect("--learn requires --model")),
                server.local_addr(),
                std::sync::Arc::clone(&engine),
            );
            let _ = writeln!(
                out,
                "continual learning enabled: capture dir {}, interval {}s",
                cfg.capture.dir.display(),
                cfg.trainer.interval.as_secs(),
            );
            kamel_learn::Learner::spawn(cfg, rx, sink.stats(), ops)
                .map_err(|e| format!("start learner: {e}"))
        })
        .transpose()?;
    let _ = writeln!(
        out,
        "kamel-server listening on http://{} ({} workers, batch <= {}, wait {}us, \
         cache {} entries, queue cap {})",
        server.local_addr(),
        config.workers,
        config.batch_max,
        config.batch_wait.as_micros(),
        config.cache_entries,
        config.queue_cap,
    );
    let _ = out.flush();
    while !signals.is_tripped() {
        if signals.take_hup() {
            match server.reload() {
                Ok(msg) => {
                    let _ = writeln!(out, "SIGHUP: {msg}");
                }
                Err(msg) => {
                    let _ = writeln!(
                        out,
                        "SIGHUP reload failed: {msg} (still serving the previous model)"
                    );
                }
            }
            let _ = out.flush();
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let _ = writeln!(out, "shutdown signal received; draining in-flight requests");
    let _ = out.flush();
    server.shutdown();
    if let Some(learner) = learner {
        // Serving is quiesced, so no new captures arrive: drain what is
        // queued into the log and seal the active segment before exit.
        learner.stop();
        let _ = writeln!(out, "learner stopped; capture log sealed");
    }
    let _ = writeln!(out, "drained; goodbye");
    Ok(())
}

/// `kamel route`: the spatial shard router over a fleet of `kamel serve`
/// processes (DESIGN.md §11).
///
/// Owns a static shard map (rendezvous-hashed routing-cell ownership),
/// forwards `POST /v1/impute` to the owning shard with replica failover,
/// and scatter-gathers trajectories that span territories. Runs until
/// SIGINT or SIGTERM, then drains in-flight requests.
pub fn route(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let help = "kamel route (--shard HOST:PORT,... | --shard-map FILE) [--addr HOST:PORT]\n\
        \x20           [--cell-deg D] [--eject-window N] [--eject-threshold R]\n\
        \x20           [--probe-interval-ms N] [--timeout-ms N] [--handlers N]\n\
        \x20           [--default-deadline-ms N] [--degraded-mode]\n\
        \x20           [--degraded-max-gap-m M] [--max-connections N]\n\
        \x20           [--idle-timeout-ms N]\n\n\
        serves POST /v1/impute (proxied), GET /healthz, GET /metrics,\n\
        GET /v1/shards until SIGTERM/ctrl-c; --cell-deg sets the routing\n\
        grid for --shard fleets (a --shard-map file carries its own);\n\
        --default-deadline-ms is the budget granted to requests without an\n\
        x-kamel-deadline-ms header; a shard is ejected when --eject-threshold\n\
        (a share in (0, 1], default 0.5, rounded up) of its last\n\
        --eject-window (default 6) outcomes failed — an error, a 5xx, a\n\
        forward slower than 2 s or a failed probe; window 1 ejects on the\n\
        first failure — and is probed every --probe-interval-ms (default\n\
        500) until it is healthy again, then re-admitted after two trial\n\
        forwards succeed; --degraded-mode answers requests no shard can\n\
        serve from the linear baseline (marked \"degraded\": true) instead\n\
        of 502/503; --max-connections caps concurrent client sockets\n\
        (excess accepts get 503) and --idle-timeout-ms closes\n\
        idle/slow-loris keep-alive connections";
    let values = [
        "--shard", "--shard-map", "--addr", "--cell-deg", "--eject-window", "--eject-threshold",
        "--probe-interval-ms", "--timeout-ms", "--handlers", "--default-deadline-ms",
        "--degraded-max-gap-m", "--max-connections", "--idle-timeout-ms",
    ];
    let Some(flags) = Flags::parse("route", help, &values, &["--degraded-mode"], args, out)? else {
        return Ok(());
    };
    // Out-of-range resilience values are refused, not rewritten — and
    // before the fleet is read or a socket bound.
    let defaults = kamel_router::GatePolicy::default();
    let gate = kamel_router::GatePolicy {
        window: flags.get_usize("--eject-window", defaults.window)?,
        failure_ratio: flags.get_f64("--eject-threshold", defaults.failure_ratio)?,
        probe_interval: std::time::Duration::from_millis(
            flags.get_u64("--probe-interval-ms", defaults.probe_interval.as_millis() as u64)?,
        ),
        ..defaults
    };
    if gate.window == 0 {
        return Err("flag `--eject-window` expects an integer >= 1, got `0`".into());
    }
    if !(gate.failure_ratio > 0.0 && gate.failure_ratio <= 1.0) {
        return Err(format!(
            "flag `--eject-threshold` expects a share in (0, 1], got `{}`",
            gate.failure_ratio
        ));
    }
    if gate.probe_interval.is_zero() {
        return Err("flag `--probe-interval-ms` expects an integer >= 1, got `0`".into());
    }
    let map = match (flags.get("--shard-map"), flags.get("--shard")) {
        (Some(path), None) => kamel_router::ShardMap::from_json_file(Path::new(path))?,
        (None, Some(list)) => {
            let cell_deg =
                flags.get_f64("--cell-deg", kamel::routing::DEFAULT_ROUTING_CELL_DEG)?;
            kamel_router::ShardMap::from_flag_list(list, cell_deg)?
        }
        (Some(_), Some(_)) => return Err("give either --shard-map or --shard, not both".into()),
        (None, None) => {
            return Err("missing fleet: give --shard HOST:PORT,... or --shard-map FILE".into())
        }
    };
    let config = kamel_router::RouterConfig {
        handlers: flags.get_usize("--handlers", 8)?.max(1),
        timeout: std::time::Duration::from_millis(
            flags.get_u64("--timeout-ms", 10_000)?.max(1),
        ),
        gate,
        default_deadline: std::time::Duration::from_millis(
            flags.get_u64("--default-deadline-ms", 10_000)?.max(1),
        ),
        degraded: flags.has("--degraded-mode"),
        degraded_max_gap_m: flags.get_f64("--degraded-max-gap-m", 100.0)?,
        max_connections: flags.get_usize("--max-connections", 10_000)?.max(1),
        idle_timeout: std::time::Duration::from_millis(
            flags.get_u64("--idle-timeout-ms", 30_000)?.max(1),
        ),
        ..kamel_router::RouterConfig::default()
    };
    let addr = flags.get("--addr").unwrap_or("127.0.0.1:8780");
    let signals = kamel_server::install_signal_handlers();
    let router =
        kamel_router::Router::bind(addr, map, config).map_err(|e| format!("bind {addr}: {e}"))?;
    let core = router.core();
    let _ = writeln!(
        out,
        "kamel-router listening on http://{} ({} shards, {} admitted, cell {} deg, \
         eject at {} failures in {})",
        router.local_addr(),
        core.map().len(),
        core.available_shards(),
        core.map().cell_deg(),
        core.config().gate.trip_at(),
        core.config().gate.window,
    );
    let _ = out.flush();
    while !signals.is_tripped() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let _ = writeln!(out, "shutdown signal received; draining in-flight requests");
    let _ = out.flush();
    router.shutdown();
    let _ = writeln!(out, "drained; goodbye");
    Ok(())
}

/// `kamel chaos`: a deterministic fault-injecting TCP proxy for
/// resilience drills (DESIGN.md §14.3).
///
/// Sits between a router (or client) and one upstream `kamel serve`,
/// assigning each accepted connection a fault — connect refusal, silent
/// stall, slow-loris trickle, mid-body reset, torn response, or a
/// faithful relay — from a seeded or scripted schedule that is a pure
/// function of the connection index, so a run replays exactly.
pub fn chaos(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let help = "kamel chaos --upstream HOST:PORT (--seed N | --script LIST)\n\
        \x20           [--listen HOST:PORT] [--stall-ms N] [--trickle-ms N]\n\
        \x20           [--torn-after N]\n\n\
        proxies TCP to --upstream, injecting one fault per accepted\n\
        connection until SIGTERM/ctrl-c; --seed derives the fault\n\
        sequence from a hash of the connection index, --script walks an\n\
        explicit comma-separated list (e.g. `refuse*3,none,torn`; the\n\
        last entry repeats forever); faults: none, refuse, stall,\n\
        slow-loris, reset, torn";
    let values =
        ["--upstream", "--seed", "--script", "--listen", "--stall-ms", "--trickle-ms", "--torn-after"];
    let Some(flags) = Flags::parse("chaos", help, &values, &[], args, out)? else {
        return Ok(());
    };
    let upstream = flags.required("--upstream")?;
    let upstream: std::net::SocketAddr = {
        use std::net::ToSocketAddrs;
        upstream
            .to_socket_addrs()
            .map_err(|e| format!("--upstream {upstream}: {e}"))?
            .next()
            .ok_or_else(|| format!("--upstream {upstream}: resolves to no address"))?
    };
    let schedule = match (flags.get("--seed"), flags.get("--script")) {
        (Some(_), None) => kamel_chaos::ChaosSchedule::seeded(flags.get_u64("--seed", 0)?),
        (None, Some(script)) => {
            kamel_chaos::ChaosSchedule::parse_script(script).map_err(|e| format!("--script: {e}"))?
        }
        (Some(_), Some(_)) => return Err("give either --seed or --script, not both".into()),
        (None, None) => return Err("missing schedule: give --seed N or --script LIST".into()),
    };
    let mut config = kamel_chaos::ChaosConfig::new(schedule);
    config.stall_ms = flags.get_u64("--stall-ms", config.stall_ms)?.max(1);
    config.trickle_ms = flags.get_u64("--trickle-ms", config.trickle_ms)?.max(1);
    config.torn_after = flags.get_usize("--torn-after", config.torn_after)?.max(1);
    let listen = flags.get("--listen").unwrap_or("127.0.0.1:8790");
    let listener = std::net::TcpListener::bind(listen).map_err(|e| format!("bind {listen}: {e}"))?;
    let signals = kamel_server::install_signal_handlers();
    let mut proxy = kamel_chaos::ChaosProxy::start(listener, upstream, config)
        .map_err(|e| format!("start proxy: {e}"))?;
    let _ = writeln!(
        out,
        "kamel-chaos proxying {} -> {upstream} (one fault per connection)",
        proxy.addr()
    );
    let _ = out.flush();
    while !signals.is_tripped() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let seen = proxy.connections();
    proxy.shutdown();
    let _ = writeln!(out, "shutdown signal received; {seen} connections proxied; goodbye");
    Ok(())
}

/// `kamel c10k`: the concurrent-connection smoke drill (DESIGN.md §15).
///
/// Opens a wall of keep-alive connections against one `kamel serve` (or
/// `kamel route`) process, confirms the server's own
/// `kamel_connections_active` gauge sees them all, fires the same
/// request down every connection, and asserts the answers are
/// byte-identical — the reactor must hold the whole wall open on its
/// fixed worker pool, not serve them one at a time.
pub fn c10k(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let help = "kamel c10k --addr HOST:PORT [--connections N] [--fixture FILE]\n\
        \x20          [--timeout-ms N] [--gauge-wait-ms N]\n\n\
        opens N keep-alive connections (default 1000), waits until the\n\
        target's /metrics kamel_connections_active gauge counts them all,\n\
        then POSTs the --fixture trajectory JSON (default: GET /healthz)\n\
        down every connection and fails unless every response is\n\
        byte-identical; exits nonzero on any shortfall";
    let values = ["--addr", "--connections", "--fixture", "--timeout-ms", "--gauge-wait-ms"];
    let Some(flags) = Flags::parse("c10k", help, &values, &[], args, out)? else {
        return Ok(());
    };
    let addr = flags.required("--addr")?;
    let target: std::net::SocketAddr = {
        use std::net::ToSocketAddrs;
        addr.to_socket_addrs()
            .map_err(|e| format!("--addr {addr}: {e}"))?
            .next()
            .ok_or_else(|| format!("--addr {addr}: resolves to no address"))?
    };
    let n = flags.get_usize("--connections", 1_000)?.max(1);
    let timeout = std::time::Duration::from_millis(
        flags.get_u64("--timeout-ms", 10_000)?.max(1),
    );
    let gauge_wait = std::time::Duration::from_millis(
        flags.get_u64("--gauge-wait-ms", 10_000)?.max(1),
    );
    let fixture = flags
        .get("--fixture")
        .map(|path| std::fs::read(path).map_err(|e| format!("--fixture {path}: {e}")))
        .transpose()?;
    // The wall: every connection stays open (keep-alive) until the drill
    // ends, so the gauge must count all of them at once.
    let mut wall = Vec::with_capacity(n);
    for i in 0..n {
        match kamel_server::Client::connect(target, timeout) {
            Ok(client) => wall.push(client),
            Err(e) => return Err(format!("connection {i}/{n} failed: {e}")),
        }
    }
    let _ = writeln!(out, "opened {n} keep-alive connections to {target}");
    let _ = out.flush();
    // The server's own view: poll /metrics (one extra connection) until
    // the active gauge counts the wall, or give up honestly.
    let mut probe = kamel_server::Client::connect(target, timeout)
        .map_err(|e| format!("metrics probe connect: {e}"))?;
    let deadline = std::time::Instant::now() + gauge_wait;
    let gauge = loop {
        let resp = probe.get("/metrics").map_err(|e| format!("GET /metrics: {e}"))?;
        if resp.status != 200 {
            return Err(format!("GET /metrics answered {}", resp.status));
        }
        let gauge: u64 = resp
            .text()
            .lines()
            .find_map(|l| l.strip_prefix("kamel_connections_active "))
            .and_then(|v| v.trim().parse().ok())
            .ok_or("no kamel_connections_active gauge on /metrics")?;
        if gauge >= n as u64 || std::time::Instant::now() >= deadline {
            break gauge;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    };
    if gauge < n as u64 {
        return Err(format!(
            "kamel_connections_active reached {gauge}, wanted >= {n} \
             (server dropped or never admitted part of the wall)"
        ));
    }
    let _ = writeln!(out, "kamel_connections_active {gauge} >= {n}");
    // Same bytes down every pipe must come back as the same bytes.
    let mut first: Option<(u16, Vec<u8>)> = None;
    for (i, client) in wall.iter_mut().enumerate() {
        let resp = match &fixture {
            Some(body) => client.post_json("/v1/impute", body),
            None => client.get("/healthz"),
        }
        .map_err(|e| format!("request on connection {i}: {e}"))?;
        match &first {
            None => {
                if resp.status != 200 {
                    return Err(format!(
                        "connection 0 answered {}: {}",
                        resp.status,
                        resp.text()
                    ));
                }
                first = Some((resp.status, resp.body));
            }
            Some((status, body)) => {
                if resp.status != *status || resp.body != *body {
                    return Err(format!(
                        "connection {i} diverged: status {} vs {status}, \
                         {} vs {} body bytes",
                        resp.status,
                        resp.body.len(),
                        body.len()
                    ));
                }
            }
        }
    }
    let what = if fixture.is_some() { "fixture imputation" } else { "healthz" };
    let _ = writeln!(
        out,
        "all {n} connections answered the {what} with identical bytes; drill passed"
    );
    Ok(())
}

/// `kamel evaluate`: the §8 metrics of a model against ground truth.
pub fn evaluate(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let help = "kamel evaluate --model FILE --truth FILE [--sparse-m N] [--delta-m N] \
        [--max-gap-m N] [--limit N]";
    let values = ["--model", "--truth", "--sparse-m", "--delta-m", "--max-gap-m", "--limit"];
    let Some(flags) = Flags::parse("evaluate", help, &values, &[], args, out)? else {
        return Ok(());
    };
    let kamel = Kamel::load_from_file(flags.required("--model")?).map_err(|e| e.to_string())?;
    let truth = open_trajectories(flags.required("--truth")?)?;
    if truth.is_empty() {
        return Err("ground-truth file has no trajectories".into());
    }
    let ctx = EvalContext {
        sparse_m: flags.get_f64("--sparse-m", 1_000.0)?,
        delta_m: flags.get_f64("--delta-m", 50.0)?,
        max_gap_m: flags.get_f64("--max-gap-m", 100.0)?,
    };
    let limit = flags.get_usize("--limit", 0)?;
    // Reuse the harness by wrapping the ground truth in an ad-hoc dataset.
    let origin = truth[0].points[0].pos;
    let dataset = kamel_roadsim::Dataset {
        name: "cli".into(),
        origin,
        network: kamel_roadsim::RoadNetwork::new(),
        train: Vec::new(),
        test: truth,
    };
    let imputer = KamelImputer {
        kamel,
        label: "KAMEL".into(),
    };
    let result = evaluate_technique(&imputer, &dataset, &ctx, limit);
    let _ = write!(out, "{}", format_table("evaluation", &[result]));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn byte_sizes_parse_with_binary_suffixes() {
        assert_eq!(parse_byte_size("512").unwrap(), 512);
        assert_eq!(parse_byte_size("64k").unwrap(), 64 << 10);
        assert_eq!(parse_byte_size("16M").unwrap(), 16 << 20);
        assert_eq!(parse_byte_size("2gb").unwrap(), 2 << 30);
        assert_eq!(parse_byte_size("0").unwrap(), 0);
        assert!(parse_byte_size("fast").is_err());
        assert!(parse_byte_size("").is_err());
        assert!(parse_byte_size("-1").is_err());
        assert!(parse_byte_size("99999999999g").is_err(), "shifted-out bits must not wrap");
    }

    /// `train` and `tune` build their config through `config_from_flags`,
    /// so both accept every flag it reads.
    #[test]
    fn config_flags_are_accepted_wherever_the_config_is_read() {
        for command in [train, tune] {
            for flag in CONFIG_FLAGS {
                let err = command(&argv(&[flag, "1"]), &mut Vec::new()).expect_err("no --input");
                assert!(err.contains("--input"), "{flag}: {err}");
            }
        }
    }

    /// `tune` end to end with model options set (debug builds also assert
    /// that every flag read on the way was declared).
    #[test]
    fn tune_reads_the_shared_config_flags() {
        let csv = std::env::temp_dir().join(format!("kamel-tune-{}.csv", std::process::id()));
        let mut rows = String::from("traj_id,lat,lng,t\n");
        for traj in 0..10 {
            for step in 0..30 {
                let lng = -8.61 + 0.0003 * step as f64;
                rows.push_str(&format!("{traj},41.15,{lng},{}\n", step * 10));
            }
        }
        std::fs::write(&csv, rows).unwrap();
        let mut buf = Vec::new();
        let result = tune(
            &argv(&[
                "--input", csv.to_str().unwrap(), "--candidates", "75,150", "--sparse-m", "200",
                "--threshold-k", "150", "--threads", "1", "--grid", "square",
            ]),
            &mut buf,
        );
        std::fs::remove_file(&csv).ok();
        let out = String::from_utf8(buf).unwrap();
        result.unwrap_or_else(|e| panic!("{e}\n{out}"));
        assert!(out.contains("best hexagon edge"), "{out}");
    }

    #[test]
    fn serve_model_source_flags_fail_fast() {
        // All three rejections fire before any file I/O, so bad flag
        // combinations surface instantly even with huge models.
        let mut buf = Vec::new();
        let err = serve(&argv(&["--model", "a.json", "--store", "b.kstore"]), &mut buf)
            .expect_err("both sources");
        assert!(err.contains("not both"), "{err}");
        let err = serve(
            &argv(&["--model", "a.json", "--model-memory-budget", "64m"]),
            &mut buf,
        )
        .expect_err("budget without store");
        assert!(err.contains("requires --store"), "{err}");
        let err = serve(&argv(&["--store", "b.kstore", "--quantize"]), &mut buf)
            .expect_err("quantize with store");
        assert!(err.contains("--quantize"), "{err}");
        let err = serve(&argv(&[]), &mut buf).expect_err("no source");
        assert!(err.contains("--model") && err.contains("--store"), "{err}");
    }

    #[test]
    fn chaos_schedule_flags_fail_fast() {
        // All rejections fire before binding a socket.
        let mut buf = Vec::new();
        let err = chaos(
            &argv(&["--upstream", "127.0.0.1:1", "--seed", "7", "--script", "none"]),
            &mut buf,
        )
        .expect_err("both schedules");
        assert!(err.contains("not both"), "{err}");
        let err = chaos(&argv(&["--upstream", "127.0.0.1:1"]), &mut buf)
            .expect_err("no schedule");
        assert!(err.contains("--seed") && err.contains("--script"), "{err}");
        let err = chaos(&argv(&["--seed", "7"]), &mut buf).expect_err("no upstream");
        assert!(err.contains("--upstream"), "{err}");
        let err = chaos(
            &argv(&["--upstream", "127.0.0.1:1", "--script", "sparkle"]),
            &mut buf,
        )
        .expect_err("unknown fault");
        assert!(err.contains("--script"), "{err}");
        let err = chaos(
            &argv(&["--upstream", "127.0.0.1:1", "--seed", "many"]),
            &mut buf,
        )
        .expect_err("non-integer seed");
        assert!(err.contains("--seed"), "{err}");
    }

    #[test]
    fn route_resilience_flags_parse_as_bare_flags() {
        // --degraded-mode takes no value: parsing must not swallow the
        // next argument, so the missing-fleet check still fires.
        let mut buf = Vec::new();
        let err = route(&argv(&["--degraded-mode"]), &mut buf).expect_err("no fleet");
        assert!(err.contains("missing fleet"), "{err}");
    }

    #[test]
    fn serve_degraded_mode_is_a_bare_flag() {
        let mut buf = Vec::new();
        let err = serve(&argv(&["--degraded-mode"]), &mut buf).expect_err("no model");
        assert!(err.contains("--model"), "{err}");
    }

    #[test]
    fn serve_learn_flags_fail_fast() {
        // All rejections fire before any model I/O or socket bind.
        let mut buf = Vec::new();
        let err = serve(&argv(&["--store", "b.kstore", "--learn"]), &mut buf)
            .expect_err("learn with store");
        assert!(err.contains("--learn requires --model"), "{err}");
        let err = serve(
            &argv(&["--model", "a.json", "--learn-dir", "cap/"]),
            &mut buf,
        )
        .expect_err("learn flag without --learn");
        assert!(err.contains("requires --learn"), "{err}");
        // The second loop's switch and the four flags that only restated
        // library defaults are gone. (The switch is spelled in halves so a
        // grep of the tree for its name stays empty.)
        for gone in [
            concat!("--capture", "-only"), "--learn-cells", "--learn-gate-delta-m",
            "--learn-min-confidence", "--learn-queue-cap",
        ] {
            let err = serve(&argv(&["--model", "a.json", "--learn", gone, "4"]), &mut buf)
                .expect_err(gone);
            assert!(err.contains(&format!("unknown flag `{gone}` for `kamel serve`")), "{err}");
        }
        let mut help = Vec::new();
        serve(&argv(&["--help"]), &mut help).expect("help");
        let help = String::from_utf8(help).unwrap();
        let learn_flags: Vec<&str> = help
            .split("\n\n")
            .next()
            .unwrap()
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|token| token.starts_with("--learn"))
            .collect();
        assert_eq!(
            learn_flags,
            [
                "--learn", "--learn-dir", "--learn-max-bytes", "--learn-interval-secs",
                "--learn-batch-min", "--learn-gate-epsilon",
            ]
        );
    }

    #[test]
    fn pack_requires_its_flags() {
        let mut buf = Vec::new();
        let err = pack(&argv(&["--out", "x.kstore"]), &mut buf).expect_err("no model");
        assert!(err.contains("--model"), "{err}");
        let err = pack(&argv(&["--model", "m.json"]), &mut buf).expect_err("no out");
        assert!(err.contains("--out"), "{err}");
    }
}
