//! `bulk_ngram`: the paper's bulk mode with a cheap language model.
//!
//! Closed loop, one thread: `Kamel::impute_batch` over batches of 16
//! sparsified test trajectories, on a heap-resident n-gram system loaded
//! from its checkpoint file. With the model this cheap, time goes to
//! tokenizing, model retrieval, beam search, constraints and
//! detokenization — so this is where `core` work shows, and where `store`,
//! `nn` and `server` work must show nothing.

use super::{
    boot_repetitions, boots_before_window, closed_loop, file_mb, Outcome, Plan, RoundLog, Traced,
};
use crate::district::{self, Engine, Fixture};
use crate::host;
use crate::inputs::{sparse_variants, Rng};
use crate::layers::{self, replay_pipeline};
use crate::probe::{Parts, Traceable};
use crate::trace::{self, span};
use kamel::{ImputedTrajectory, Kamel};
use kamel_geo::Trajectory;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const BATCH: usize = 16;
/// Passes over the batch list per round; frozen so that a round is about
/// 1.4 s of work on the host the bounds were set on.
const PASSES_PER_ROUND: usize = 10;
/// A batch must be answered within this to count: three times what the
/// heaviest batch (one whose beam searches spend their whole call budget)
/// took in the slowest spell seen while freezing it (50 ms).
const LIMIT_MS: f64 = 150.0;

/// One round's work: every batch, `passes` times.
fn round(
    system: &Kamel,
    batches: &[(&[Trajectory], &[ImputedTrajectory])],
    passes: usize,
    log: &mut RoundLog,
) {
    for _ in 0..passes {
        for (i, (batch, expected)) in batches.iter().enumerate() {
            trace::set_request(i as u64 + 1);
            let started = Instant::now();
            let answers = {
                let _s = span("op");
                system.impute_batch(batch)
            };
            let ms = started.elapsed().as_secs_f64() * 1e3;
            log.record(ms, batch.len(), answers.as_slice() == *expected);
        }
    }
}

pub fn run(seed: u64, plan: &Plan, traced: bool, out_dir: &Path) -> Result<Outcome, String> {
    let fixture = Fixture::train(Engine::Ngram);
    let checkpoint = out_dir.join("bulk_ngram.ckpt");
    let save_started = Instant::now();
    fixture
        .kamel
        .save_to_file(&checkpoint)
        .map_err(|e| e.to_string())?;
    let save_ms = save_started.elapsed().as_secs_f64() * 1e3;

    let mut rng = Rng::new(seed);
    let mut inputs = sparse_variants(&district::input_truths(&fixture.dataset), &mut rng);
    inputs.truncate(inputs.len() / BATCH * BATCH);
    let expected: Vec<ImputedTrajectory> = inputs.iter().map(|t| fixture.kamel.impute(t)).collect();
    let batches: Vec<(&[Trajectory], &[ImputedTrajectory])> =
        inputs.chunks(BATCH).zip(expected.chunks(BATCH)).collect();
    let quality = district::quality(&fixture.kamel, &fixture.dataset);
    let passes = plan.passes(PASSES_PER_ROUND);

    // Boot: checkpoint file on disk → loaded system → first verified answer.
    let boot = || -> Result<Kamel, String> {
        let system = Kamel::load_from_file(&checkpoint).map_err(|e| e.to_string())?;
        if system.impute(&inputs[0]) != expected[0] {
            return Err("first answer after boot differs from the reference".into());
        }
        Ok(system)
    };
    let (mut boots, side) = boots_before_window(plan, boot, drop)?;
    let system = boot()?;

    let (main_s, traced_s) = plan.split(traced);
    let window = closed_loop(main_s, LIMIT_MS, |log| {
        round(&system, &batches, passes, log)
    });
    let rss_peak_mb = host::peak_rss_mb();

    let mut invalid = Vec::new();
    let mut correct = window.failed == 0;
    let traced = if traced {
        // The same checkpoint, with the heap repository behind the decorator.
        let bytes = std::fs::read(&checkpoint).map_err(|e| e.to_string())?;
        let payload = kamel::checkpoint::decode(&bytes).map_err(|e| e.to_string())?;
        let parts = Parts::from_json(std::str::from_utf8(payload).map_err(|e| e.to_string())?);
        let repository = Arc::new(parts.pyramid.clone());
        let traceable = Traceable::new(
            Kamel::load_from_file(&checkpoint).map_err(|e| e.to_string())?,
            repository,
        );
        trace::set_enabled(true);
        let traced_window = closed_loop(traced_s, LIMIT_MS, |log| {
            round(&traceable.kamel, &batches, passes, log)
        });
        let window_spans = trace::drain();
        let replay = replay_pipeline(
            &traceable,
            &parts,
            &inputs[..plan.replay_inputs.min(inputs.len())],
        );
        for _ in 0..3 {
            let _s = span("core.checkpoint.load");
            Kamel::load_from_file(&checkpoint).map_err(|e| e.to_string())?;
        }
        trace::set_enabled(false);
        correct &= traced_window.failed == 0;
        if !replay.faithful {
            invalid.push(layers::UNFAITHFUL_REPLAY.to_string());
        }
        let mut gauges = replay.gauges;
        gauges.extend([
            ("core.train_s", fixture.train_s),
            ("core.checkpoint.save_ms", save_ms),
            ("core.checkpoint.file_mb", file_mb(&checkpoint)),
        ]);
        Some(Traced {
            window: traced_window,
            window_spans,
            replay_spans: trace::drain(),
            gauges,
        })
    } else {
        None
    };

    boots.extend(boot_repetitions(side, boot, drop)?);
    Ok(Outcome {
        quality,
        boots,
        rss_peak_mb,
        window,
        traced,
        limit_ms: LIMIT_MS,
        settings: vec![("batch", BATCH as f64), ("passes_per_round", passes as f64)],
        invalid,
        correct,
    })
}
