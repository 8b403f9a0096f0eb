//! Continual learning from live traffic for the KAMEL reproduction.
//!
//! The serving path answers `/v1/impute` requests from a model trained
//! offline; this crate closes the loop so the model keeps up with the
//! road network it serves. Four layers:
//!
//! * **capture** ([`capture`]) — the server tees completed imputations
//!   and `/v1/feedback` ground-truth corrections through a bounded
//!   channel into a crash-safe, CRC-framed, append-only capture log.
//!   The serving path never blocks on learning: a full queue drops the
//!   record and counts it.
//! * **selection** ([`select`]) — an active-learning scorer ranks
//!   pyramid cells by retraining need (feedback disagreement, low beam
//!   confidence, traffic volume, staleness) so the budget goes where the
//!   model is demonstrably weak.
//! * **training** ([`trainer`]) — a background pass loads a *private*
//!   copy of the model, retrains only the selected cells on captured
//!   corrections and high-confidence pseudo-labels, and re-gates
//!   quantization (a side effect of maintenance).
//! * **rollout** ([`trainer::ModelOps`]) — the retrained checkpoint must
//!   beat a replay regression gate against the serving generation; only
//!   then is it saved and hot-reloaded (`/admin/reload`), bumping the
//!   generation so cached answers never mix generations. A failing gate
//!   rolls back: nothing is saved and the old generation keeps serving.
//!
//! [`Learner`] glues the layers into one background thread; the serving
//! process talks to it only through the non-blocking [`CaptureSink`].

#![warn(missing_docs)]

pub mod capture;
pub mod select;
pub mod sink;
pub mod trainer;

pub use capture::{CaptureConfig, CaptureLog, CaptureRecord, RecordKind};
pub use select::{need_score, select_cells, CellStats, SelectionConfig};
pub use sink::{points_to_traj, traj_to_points, CaptureSink, LearnStats};
pub use trainer::{retrain_pass, ModelOps, PassReport, TrainerConfig};

use capture::CaptureRecord as Record;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything the learner thread needs to run.
pub struct LearnerConfig {
    /// Where and how the capture log persists.
    pub capture: CaptureConfig,
    /// Retrain cadence, selection, and gate thresholds.
    pub trainer: TrainerConfig,
}

/// The background learning daemon: drains the capture channel into the
/// durable log, and periodically runs a [`retrain_pass`] over the
/// accumulated batch, which leaves the log only once the pass has an
/// outcome.
pub struct Learner {
    handle: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    stats: Arc<LearnStats>,
}

impl Learner {
    /// Spawns the learner thread. `rx` and `stats` come from
    /// [`CaptureSink::channel`] / [`CaptureSink::stats`]; `model` is how
    /// the trainer loads, saves, and rolls out checkpoints.
    pub fn spawn(
        config: LearnerConfig,
        rx: Receiver<Record>,
        stats: Arc<LearnStats>,
        model: ModelOps,
    ) -> std::io::Result<Learner> {
        let mut log = CaptureLog::open(config.capture)?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread_stats = Arc::clone(&stats);
        let trainer_cfg = config.trainer;
        let handle = std::thread::Builder::new()
            .name("kamel-learn".into())
            .spawn(move || {
                run_loop(&mut log, &rx, &thread_stop, &thread_stats, &trainer_cfg, &model);
            })?;
        Ok(Learner {
            handle: Some(handle),
            stop,
            stats,
        })
    }

    /// The shared counters (same instance the sink updates).
    pub fn stats(&self) -> Arc<LearnStats> {
        Arc::clone(&self.stats)
    }

    /// Asks the thread to stop after persisting everything already
    /// queued, and waits for it.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Learner {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Moves one record from the channel into the durable log.
fn absorb(log: &mut CaptureLog, stats: &LearnStats, record: Record) {
    stats.queue_records.fetch_sub(1, Ordering::Relaxed);
    if let Err(e) = log.append(&record) {
        eprintln!("kamel-learn: capture append failed: {e}");
    }
}

fn run_loop(
    log: &mut CaptureLog,
    rx: &Receiver<Record>,
    stop: &AtomicBool,
    stats: &LearnStats,
    cfg: &TrainerConfig,
    model: &ModelOps,
) {
    let mut last_pass = Instant::now();
    let mut round: u64 = 1;
    let mut cell_rounds: HashMap<u64, u64> = HashMap::new();
    // The log reports cumulative drop-oldest evictions; publish deltas.
    let mut dropped_seen = log.dropped_records();
    loop {
        // Drain the channel (blocking briefly so shutdown stays snappy),
        // then opportunistically batch whatever else is already queued.
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(record) => {
                absorb(log, stats, record);
                while let Ok(more) = rx.try_recv() {
                    absorb(log, stats, more);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                // All sinks gone; persist what we have and wind down.
                stop.store(true, Ordering::Release);
            }
        }
        stats.queue_bytes.store(log.total_bytes(), Ordering::Relaxed);
        let log_dropped = log.dropped_records();
        if log_dropped > dropped_seen {
            // Fold log-side drop-oldest evictions into the same counter
            // as queue drops: both are records learning never saw.
            stats
                .dropped_total
                .fetch_add(log_dropped - dropped_seen, Ordering::Relaxed);
            dropped_seen = log_dropped;
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
        if last_pass.elapsed() >= cfg.interval && log.records() >= cfg.batch_min as u64 {
            // The batch stays in the log until the pass has an outcome: a
            // failed pass (checkpoint load, save or reload) or a crash
            // mid-pass reads the same records again.
            let pass = log
                .read_sealed()
                .map_err(|e| format!("capture read failed: {e}"))
                .and_then(|records| retrain_pass(&records, round, &mut cell_rounds, cfg, model));
            if pass.is_ok() {
                if let Err(e) = log.discard_sealed() {
                    eprintln!("kamel-learn: capture discard failed: {e}");
                }
            }
            match pass {
                Ok(Some(report)) if report.rolled_out => {
                    stats.retrains_total.fetch_add(1, Ordering::Relaxed);
                    stats
                        .cells_retrained_total
                        .fetch_add(report.selected_cells.len() as u64, Ordering::Relaxed);
                    stats
                        .last_generation
                        .store(report.generation, Ordering::Relaxed);
                    stats
                        .last_retrain_unix_ms
                        .store(sink::unix_ms(), Ordering::Relaxed);
                }
                Ok(Some(report)) => {
                    stats.rollbacks_total.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "kamel-learn: rollout aborted by regression gate \
                         (old {:.3}, new {:.3}); serving generation unchanged",
                        report.gate.old_score, report.gate.new_score
                    );
                }
                Ok(None) => {}
                Err(e) => eprintln!("kamel-learn: retrain pass failed: {e} (records retained)"),
            }
            round += 1;
            last_pass = Instant::now();
        }
    }
    // Shutdown: everything still in the channel becomes durable before
    // the thread exits, and the active segment is sealed.
    while let Ok(record) = rx.try_recv() {
        absorb(log, stats, record);
    }
    if let Err(e) = log.seal() {
        eprintln!("kamel-learn: final seal failed: {e}");
    }
    stats.queue_bytes.store(log.total_bytes(), Ordering::Relaxed);
}
