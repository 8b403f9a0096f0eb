//! The capture seam between serving and continual learning.
//!
//! `kamel-server` never trains; it only *tees* served traffic into a
//! [`LearnSink`] the embedder wires in (the `kamel-learn` crate provides
//! the real one: a bounded queue draining into a crash-safe capture log
//! feeding a background cell trainer). The seam is deliberately one-way —
//! the server depends on nothing from the learner, and every sink call on
//! the serving path must be non-blocking: a sink that cannot keep up drops
//! records, it never slows a response.

use kamel::ImputedTrajectory;
use kamel_geo::Trajectory;
use serde::{Deserialize, Serialize};

/// Where served traffic is teed for the continual learner.
///
/// Implementations MUST be non-blocking: `on_impute` runs on the batch
/// worker threads (a response is waiting on it) and `on_feedback` on a
/// connection handler. Use a bounded `try_send`-style queue and count
/// drops rather than waiting.
pub trait LearnSink: Send + Sync + 'static {
    /// A completed `/v1/impute` answer: the sparse request, its gap-context
    /// `cells` under the model snapshot that answered, and the imputed
    /// result (answer and per-gap beam confidence).
    fn on_impute(&self, cells: &[u64], sparse: &Trajectory, result: &ImputedTrajectory);
    /// A `POST /v1/feedback` ground-truth correction, with the gap-context
    /// `cells` of `sparse` under the model serving when it arrived.
    fn on_feedback(&self, cells: &[u64], sparse: &Trajectory, truth: &Trajectory);
    /// A snapshot of the learning loop's counters, for `/metrics` and the
    /// `learning` block of `GET /v1/info`.
    fn learning(&self) -> LearningInfo;
}

/// Counters describing the continual-learning loop, exported on the
/// observability surfaces.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LearningInfo {
    /// Records accepted into the capture queue since boot.
    pub captured_total: u64,
    /// Records dropped because the queue or log was full (backpressure).
    pub dropped_total: u64,
    /// Records currently waiting in the capture queue.
    pub queue_records: u64,
    /// Bytes currently held by the capture log (active + sealed segments).
    pub queue_bytes: u64,
    /// Background retrain passes that rolled out a new generation.
    pub retrains_total: u64,
    /// Retrain passes aborted by the replay regression gate.
    pub rollbacks_total: u64,
    /// Pyramid cells retrained across all passes.
    pub cells_retrained_total: u64,
    /// Model generation after the last successful rollout (0 = never).
    pub last_generation: u64,
    /// Wall-clock ms of the last successful rollout (0 = never).
    pub last_retrain_unix_ms: u64,
}

/// The `POST /v1/feedback` request body: the sparse trajectory as
/// originally submitted to `/v1/impute`, plus the ground-truth dense
/// trajectory the caller later learned (e.g. from a full-rate trace).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeedbackRequest {
    /// The sparse trajectory that was (or would be) imputed.
    pub sparse: Trajectory,
    /// The dense ground truth for the same trip.
    pub truth: Trajectory,
}

/// The `POST /v1/feedback` acknowledgement body.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeedbackAck {
    /// Always `"accepted"` — the record entered the capture queue (it may
    /// still be dropped under backpressure; check `dropped_total`).
    pub status: String,
    /// Queue depth after the enqueue, for client-side pacing.
    pub queue_records: u64,
}
