//! The serving-side capture producer: a [`kamel_server::LearnSink`] that
//! turns completed answers into [`CaptureRecord`]s and `try_send`s them
//! into the learner's bounded queue.
//!
//! Nothing here ever blocks: a full queue drops the record and bumps
//! `dropped_total`. The serving path's only cost is encoding a record and
//! one failed/successful channel push.

use crate::capture::{CaptureRecord, RecordKind};
use kamel::ImputedTrajectory;
use kamel_geo::{GpsPoint, LatLng, Trajectory};
use kamel_server::{LearnSink, LearningInfo};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;

/// Shared counters behind every observability surface
/// (`kamel_learn_*` metrics, the `/v1/info` `learning` block).
#[derive(Debug, Default)]
pub struct LearnStats {
    /// Records accepted into the queue.
    pub captured_total: AtomicU64,
    /// Records dropped by queue backpressure.
    pub dropped_total: AtomicU64,
    /// Records currently in the channel (not yet durable in the log).
    pub queue_records: AtomicU64,
    /// Bytes currently held by the capture log.
    pub queue_bytes: AtomicU64,
    /// Successful retrain + rollout passes.
    pub retrains_total: AtomicU64,
    /// Passes aborted by the regression gate.
    pub rollbacks_total: AtomicU64,
    /// Cells retrained across all passes.
    pub cells_retrained_total: AtomicU64,
    /// Generation after the last rollout.
    pub last_generation: AtomicU64,
    /// Wall-clock ms of the last rollout.
    pub last_retrain_unix_ms: AtomicU64,
}

impl LearnStats {
    /// Snapshot for the wire surfaces.
    pub fn info(&self) -> LearningInfo {
        LearningInfo {
            captured_total: self.captured_total.load(Ordering::Relaxed),
            dropped_total: self.dropped_total.load(Ordering::Relaxed),
            queue_records: self.queue_records.load(Ordering::Relaxed),
            queue_bytes: self.queue_bytes.load(Ordering::Relaxed),
            retrains_total: self.retrains_total.load(Ordering::Relaxed),
            rollbacks_total: self.rollbacks_total.load(Ordering::Relaxed),
            cells_retrained_total: self.cells_retrained_total.load(Ordering::Relaxed),
            last_generation: self.last_generation.load(Ordering::Relaxed),
            last_retrain_unix_ms: self.last_retrain_unix_ms.load(Ordering::Relaxed),
        }
    }
}

/// Milliseconds since the Unix epoch.
pub fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Converts a trajectory to the capture log's `(lat, lng, t)` triples.
pub fn traj_to_points(traj: &Trajectory) -> Vec<[f64; 3]> {
    traj.points
        .iter()
        .map(|p| [p.pos.lat, p.pos.lng, p.t])
        .collect()
}

/// Inverse of [`traj_to_points`].
pub fn points_to_traj(points: &[[f64; 3]]) -> Trajectory {
    Trajectory::new(
        points
            .iter()
            .map(|&[lat, lng, t]| GpsPoint::new(LatLng::new(lat, lng), t))
            .collect(),
    )
}

/// The producer half of the learning loop.
pub struct CaptureSink {
    tx: SyncSender<CaptureRecord>,
    stats: Arc<LearnStats>,
}

impl CaptureSink {
    /// Creates the bounded capture channel: the sink for the serving
    /// engine, and the receiver the [`crate::Learner`] drains. `queue_cap`
    /// bounds records buffered in memory between sink and log.
    pub fn channel(queue_cap: usize) -> (Arc<CaptureSink>, Receiver<CaptureRecord>) {
        let (tx, rx) = sync_channel(queue_cap.max(1));
        let sink = Arc::new(CaptureSink {
            tx,
            stats: Arc::new(LearnStats::default()),
        });
        (sink, rx)
    }

    /// The shared counters (hand these to the learner thread).
    pub fn stats(&self) -> Arc<LearnStats> {
        Arc::clone(&self.stats)
    }

    /// Non-blocking push; a full queue drops the record.
    pub fn push(&self, record: CaptureRecord) {
        match self.tx.try_send(record) {
            Ok(()) => {
                self.stats.captured_total.fetch_add(1, Ordering::Relaxed);
                self.stats.queue_records.fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.stats.dropped_total.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl LearnSink for CaptureSink {
    fn on_impute(&self, cells: &[u64], sparse: &Trajectory, result: &ImputedTrajectory) {
        if result.gaps.is_empty() {
            return; // nothing was imputed; nothing to learn from
        }
        // The weakest gap bounds the whole answer's trustworthiness.
        let confidence = result
            .gaps
            .iter()
            .map(|g| g.outcome.confidence)
            .fold(1.0_f64, f64::min);
        self.push(CaptureRecord {
            kind: RecordKind::Impute,
            unix_ms: unix_ms(),
            confidence,
            cells: cells.to_vec(),
            sparse: traj_to_points(sparse),
            answer: traj_to_points(&result.trajectory),
        });
    }

    fn on_feedback(&self, cells: &[u64], sparse: &Trajectory, truth: &Trajectory) {
        self.push(CaptureRecord {
            kind: RecordKind::Feedback,
            unix_ms: unix_ms(),
            confidence: 0.0,
            cells: cells.to_vec(),
            sparse: traj_to_points(sparse),
            answer: traj_to_points(truth),
        });
    }

    fn learning(&self) -> LearningInfo {
        self.stats.info()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj(n: usize) -> Trajectory {
        Trajectory::new(
            (0..n)
                .map(|i| GpsPoint::from_parts(41.15, -8.61 + i as f64 * 0.01, i as f64 * 60.0))
                .collect(),
        )
    }

    #[test]
    fn trajectory_point_roundtrip() {
        let t = traj(7);
        assert_eq!(points_to_traj(&traj_to_points(&t)), t);
    }

    #[test]
    fn full_queue_drops_without_blocking() {
        let (sink, _rx) = CaptureSink::channel(2);
        let truth = traj(5);
        let sparse = truth.sparsify(2_000.0);
        let start = std::time::Instant::now();
        for _ in 0..50 {
            sink.on_feedback(&[], &sparse, &truth);
        }
        // 2 accepted, 48 dropped, and nobody waited on anything.
        assert!(
            start.elapsed() < std::time::Duration::from_millis(500),
            "capture must never block the caller"
        );
        let info = sink.learning();
        assert_eq!(info.captured_total, 2);
        assert_eq!(info.dropped_total, 48);
        assert_eq!(info.queue_records, 2);
    }
}
