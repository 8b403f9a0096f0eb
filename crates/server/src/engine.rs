//! The real [`WireService`]: JSON in, `Kamel` imputation, JSON out.
//!
//! This is the only module of the crate that touches serde or the trained
//! system; everything else (framing, batching, caching, shedding,
//! shutdown) is `std`-only and tested against stub services.

use crate::learn::{FeedbackAck, FeedbackRequest, LearnSink};
use crate::server::{fnv1a, CacheKey, WireService};
use kamel::{ImputedTrajectory, Kamel};
use kamel_baselines::{LinearImputer, TrajectoryImputer};
use kamel_geo::Trajectory;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// How a hot-reload rebuilds the served system: a display label (shown in
/// the reload confirmation) plus the closure that loads a fresh `Kamel`.
/// A closure rather than a path keeps this crate agnostic of model
/// *sources* — the CLI wires checkpoint files and mmap stores alike.
type ModelLoader = (String, Box<dyn Fn() -> Result<Kamel, String> + Send + Sync>);

/// The `POST /v1/impute` response body.
///
/// The dense trajectory plus the per-request imputation summary (the
/// fields a caller needs to judge the result without re-deriving them from
/// the point list).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImputeResponse {
    /// The dense output: all original fixes plus imputed points, in time
    /// order.
    pub trajectory: Trajectory,
    /// Number of gaps that required imputation.
    pub gap_count: usize,
    /// Number of imputed (non-original) points.
    pub imputed_points: usize,
    /// Gaps that fell back to a straight line (the paper's failures, §8).
    pub failed_gaps: usize,
    /// Total masked-language-model calls across all gaps.
    pub model_calls: usize,
    /// `true` when this answer came from the degraded linear-interpolation
    /// path instead of the trained model (overload, open breakers, or an
    /// almost-spent deadline budget). Omitted from the wire format when
    /// `false`, so pre-resilience clients see unchanged bytes.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub degraded: bool,
    /// Why the degraded path answered (e.g. `"overloaded"`,
    /// `"no-shard-available"`, `"deadline"`). Empty for full-fidelity
    /// answers and omitted from the wire format.
    #[serde(default, skip_serializing_if = "String::is_empty")]
    pub degraded_reason: String,
}

impl ImputeResponse {
    /// Builds the wire response for one imputation result.
    pub fn from_result(result: ImputedTrajectory) -> Self {
        Self {
            gap_count: result.gaps.len(),
            imputed_points: result.imputed_points(),
            failed_gaps: result.gaps.iter().filter(|g| g.outcome.failed).count(),
            model_calls: result.model_calls(),
            trajectory: result.trajectory,
            degraded: false,
            degraded_reason: String::new(),
        }
    }

    /// Builds a degraded-mode response by linearly interpolating the
    /// sparse trajectory (the paper's §8.1 baseline). Every gap counts as
    /// failed — the straight line is exactly what KAMEL exists to beat —
    /// but under overload an approximate answer beats a shed request.
    pub fn degraded_linear(sparse: &Trajectory, max_gap_m: f64, reason: &str) -> Self {
        let out = LinearImputer { max_gap_m }.impute(sparse);
        Self {
            gap_count: out.segments_total,
            imputed_points: out.trajectory.points.len().saturating_sub(sparse.points.len()),
            failed_gaps: out.segments_failed,
            model_calls: 0,
            trajectory: out.trajectory,
            degraded: true,
            degraded_reason: reason.to_string(),
        }
    }
}

/// The `GET /v1/info` response body: the identity card a shard router
/// uses to admit (or refuse) this backend into a fleet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InfoResponse {
    /// Model generation (0 until the first hot-reload).
    pub generation: u64,
    /// Whether a trained model is serving (vs the linear fallback).
    pub trained: bool,
    /// Largest vocabulary across the pyramid's models (0 untrained).
    pub vocab: usize,
    /// FNV-1a digest of the serialized [`kamel::KamelConfig`], hex-coded.
    /// Two backends agree on grid kind, cell size, constraints, and every
    /// other imputation knob iff their digests match — the router's
    /// admission check (mixed-grid fleets would silently answer requests
    /// with incompatible tokenizations).
    pub config_digest: String,
    /// The process thread budget resolved by the config.
    pub threads: usize,
    /// Shard index within a fleet (`kamel serve --shard-id`), if any.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub shard_id: Option<usize>,
    /// Fleet size this shard believes in (`kamel serve --shard-of`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub shard_of: Option<usize>,
    /// Instruction set the SIMD kernels dispatched to ("scalar", "avx2",
    /// "neon"). Empty when reported by a pre-SIMD backend.
    #[serde(default)]
    pub simd_isa: String,
    /// Whether the int8 weight-quantized serving path is active.
    #[serde(default)]
    pub quantized: bool,
    /// Residency summary when models serve from a budget-bounded mmap
    /// store (`kamel serve --store`); absent for heap-resident systems.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub store: Option<kamel::ResidencyStats>,
    /// Continual-learning loop state when a learner is attached
    /// (`kamel serve --learn`); absent otherwise.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub learning: Option<crate::learn::LearningInfo>,
}

/// The config digest reported in [`InfoResponse::config_digest`]: equal
/// digests mean equal answers. `threads` and `model_memory_budget` change
/// how fast a shard answers, never what, so they are cleared first — shards
/// of one fleet may differ in them.
pub fn config_digest(config: &kamel::KamelConfig) -> String {
    let answering = kamel::KamelConfig {
        threads: None,
        model_memory_budget: None,
        ..config.clone()
    };
    let bytes = serde_json::to_vec(&answering).unwrap_or_default();
    format!("fnv1a64:{:016x}", kamel::checkpoint::fnv1a64(&bytes))
}

/// [`WireService`] over a shared trained system.
///
/// Batches assembled by the server's micro-batcher go straight to
/// [`Kamel::impute_batch`], so a burst of concurrent single-trajectory
/// requests costs one batched call — and produces outputs identical to
/// imputing each request alone (batch imputation is order-preserving and
/// per-trajectory independent). Below that, each trajectory's beam-search
/// rounds coalesce their per-gap model queries into fused
/// `predict_masked_batch` calls served by the grad-free inference engine
/// (`kamel_nn::infer`), so coalesced requests ride batched kernels end to
/// end while the response bytes stay identical to serial calls.
///
/// The model sits behind an `RwLock<Arc<Kamel>>` so a hot-reload
/// ([`ImputeEngine::reload`]) swaps it atomically: each batch clones the
/// `Arc` once up front, so every response is computed entirely by one
/// model snapshot — never a mix of old and new — while in-flight batches
/// on the old model simply finish on it.
pub struct ImputeEngine {
    kamel: RwLock<Arc<Kamel>>,
    /// How reloads rebuild the system; `None` disables reload.
    loader: Option<ModelLoader>,
    /// Bumped on every successful reload; part of every cache key.
    generation: AtomicU64,
    /// `(shard_id, shard_of)` when serving as one shard of a fleet.
    shard: Option<(usize, usize)>,
    /// Whether `kamel serve --quantize` armed the int8 path: reloads must
    /// re-enable (and re-gate) it on the freshly loaded system, because
    /// the int8 artifact is derived state that never persists.
    quantize: bool,
    /// Where served traffic is teed for the continual learner (`kamel
    /// serve --learn`). Every call into it is non-blocking by the
    /// [`LearnSink`] contract, so capture can never slow serving.
    sink: Option<Arc<dyn LearnSink>>,
}

impl ImputeEngine {
    /// Wraps a (typically trained) system. Without a loader the engine
    /// cannot hot-reload (`/admin/reload` answers 500).
    pub fn new(kamel: Arc<Kamel>) -> Self {
        Self {
            kamel: RwLock::new(kamel),
            loader: None,
            generation: AtomicU64::new(0),
            shard: None,
            quantize: false,
            sink: None,
        }
    }

    /// Wraps a system loaded from `path`, enabling hot-reload from the
    /// same checkpoint path.
    pub fn with_model_path(kamel: Arc<Kamel>, path: PathBuf) -> Self {
        let label = path.display().to_string();
        Self::with_loader(
            kamel,
            label,
            Box::new(move || Kamel::load_from_file(&path).map_err(|e| e.to_string())),
        )
    }

    /// Wraps a system with an arbitrary reload source — e.g. the CLI's
    /// `serve --store` passes a closure that re-opens the `.kstore` file,
    /// so a re-packed store hot-swaps in as a fresh mapping (new
    /// generation, so cached responses from the old mapping never serve).
    pub fn with_loader(
        kamel: Arc<Kamel>,
        label: String,
        loader: Box<dyn Fn() -> Result<Kamel, String> + Send + Sync>,
    ) -> Self {
        Self {
            kamel: RwLock::new(kamel),
            loader: Some((label, loader)),
            generation: AtomicU64::new(0),
            shard: None,
            quantize: false,
            sink: None,
        }
    }

    /// Tags `/v1/info` with this backend's position in a fleet
    /// (`kamel serve --shard-id I --shard-of N`).
    pub fn with_shard_identity(mut self, shard_id: usize, shard_of: usize) -> Self {
        self.shard = Some((shard_id, shard_of));
        self
    }

    /// Records that the int8 serving path was requested (`kamel serve
    /// --quantize`), so hot-reloads re-enable and re-gate it on the
    /// freshly loaded system. Enabling quantization on the *current*
    /// system (and refusing startup on gate failure) is the caller's job.
    pub fn with_quantization(mut self, on: bool) -> Self {
        self.quantize = on;
        self
    }

    /// Attaches a continual-learning capture sink (`kamel serve --learn`):
    /// completed imputations and feedback corrections are teed into it,
    /// its counters appear on `/metrics` and `/v1/info`, and
    /// `POST /v1/feedback` starts answering 200 instead of 404.
    pub fn with_learn_sink(mut self, sink: Arc<dyn LearnSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The [`InfoResponse`] this engine serves on `GET /v1/info`.
    pub fn info_response(&self) -> InfoResponse {
        let kamel = self.kamel();
        InfoResponse {
            generation: self.generation(),
            trained: kamel.is_trained(),
            vocab: kamel
                .model_summaries()
                .iter()
                .map(|s| s.vocab)
                .max()
                .unwrap_or(0),
            config_digest: config_digest(kamel.config()),
            threads: kamel.config().effective_threads(),
            shard_id: self.shard.map(|(id, _)| id),
            shard_of: self.shard.map(|(_, of)| of),
            simd_isa: kamel::active_isa().to_string(),
            quantized: kamel.is_quantized(),
            store: kamel.residency(),
            learning: self.sink.as_ref().map(|s| s.learning()),
        }
    }

    /// A snapshot of the current system.
    pub fn kamel(&self) -> Arc<Kamel> {
        Arc::clone(&self.kamel.read().expect("engine lock poisoned"))
    }

    /// The current model generation (0 until the first reload).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }
}

/// `sparse`'s gap-context cell ids under `kamel`; empty while untrained.
fn gap_cells(kamel: &Kamel, sparse: &Trajectory) -> Vec<u64> {
    kamel
        .gap_context(sparse)
        .map(|(cells, _)| cells.into_iter().map(|c| c.0).collect())
        .unwrap_or_default()
}

impl WireService for ImputeEngine {
    type Job = Trajectory;
    type Out = ImputedTrajectory;

    fn parse(&self, body: &[u8]) -> Result<Trajectory, String> {
        let sparse: Trajectory =
            serde_json::from_slice(body).map_err(|e| format!("invalid trajectory JSON: {e}"))?;
        for (i, p) in sparse.points.iter().enumerate() {
            if !p.pos.lat.is_finite() || !p.pos.lng.is_finite() || !p.t.is_finite() {
                return Err(format!("fix {i} has a non-finite coordinate or timestamp"));
            }
        }
        Ok(sparse)
    }

    fn cache_key(&self, job: &Trajectory) -> Option<CacheKey> {
        // Untrained systems have no tokenizer, so jobs are uncacheable
        // (and the linear fallback is cheap anyway).
        let (cells, spans) = self.kamel().gap_context(job)?;
        let digest = fnv1a(job.points.iter().flat_map(|p| {
            [p.pos.lat.to_bits(), p.pos.lng.to_bits(), p.t.to_bits()]
        }));
        Some(CacheKey {
            generation: self.generation(),
            cells: cells.into_iter().map(|c| c.0).collect(),
            spans: spans.into_iter().map(f64::to_bits).collect(),
            digest,
        })
    }

    fn run_batch(&self, jobs: Vec<Trajectory>) -> Vec<ImputedTrajectory> {
        // One snapshot per batch: a reload mid-batch cannot mix models
        // within it, and the read lock is held only for the clone.
        let kamel = self.kamel();
        let outs = kamel.impute_batch(&jobs);
        // Tee completed answers to the continual learner, attributed to
        // the cells of the snapshot that answered. The sink's contract
        // makes this a try_send: a full queue drops the record and the
        // response is unaffected. Cache hits never reach this point —
        // only freshly computed answers are capture candidates.
        if let Some(sink) = &self.sink {
            for (job, out) in jobs.iter().zip(&outs) {
                sink.on_impute(&gap_cells(&kamel, job), job, out);
            }
        }
        outs
    }

    fn render(&self, out: &ImputedTrajectory) -> Vec<u8> {
        serde_json::to_vec(&ImputeResponse::from_result(out.clone()))
            .unwrap_or_else(|e| format!("{{\"error\":\"render failed: {e}\"}}").into_bytes())
    }

    fn degraded(&self, job: &Trajectory, reason: &str) -> Option<Vec<u8>> {
        let max_gap_m = self.kamel().config().max_gap_m;
        serde_json::to_vec(&ImputeResponse::degraded_linear(job, max_gap_m, reason)).ok()
    }

    fn info(&self) -> Vec<u8> {
        serde_json::to_vec(&self.info_response())
            .unwrap_or_else(|e| format!("{{\"error\":\"info failed: {e}\"}}").into_bytes())
    }

    fn reload(&self) -> Result<String, String> {
        let Some((label, load)) = &self.loader else {
            return Err("server was started without a reloadable model path".into());
        };
        // Validate the new model fully (envelope, CRC, JSON, config — or
        // for a store, its whole index and boot sweep) before touching
        // the served model; any failure keeps it as-is.
        let fresh = load()?;
        // Re-arm the int8 path when the server was started with
        // --quantize: the artifact never persists, and a gate failure on
        // the fresh checkpoint fails the reload (the old model keeps
        // serving rather than silently de-quantizing).
        if self.quantize && !fresh.is_quantized() {
            fresh.enable_quantization().map_err(|e| e.to_string())?;
        }
        let trained = fresh.is_trained();
        *self.kamel.write().expect("engine lock poisoned") = Arc::new(fresh);
        let generation = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        Ok(format!(
            "reloaded {label} (generation {generation}{})",
            if trained { "" } else { ", untrained" }
        ))
    }

    fn feedback(&self, body: &[u8]) -> Option<Result<Vec<u8>, String>> {
        let sink = self.sink.as_ref()?;
        let parsed: Result<FeedbackRequest, String> = serde_json::from_slice(body)
            .map_err(|e| format!("invalid feedback JSON: {e}"));
        Some(parsed.and_then(|req| {
            if req.truth.points.len() < 2 {
                return Err("ground truth needs at least 2 fixes".into());
            }
            for p in req.sparse.points.iter().chain(&req.truth.points) {
                if !p.pos.lat.is_finite() || !p.pos.lng.is_finite() || !p.t.is_finite() {
                    return Err("non-finite coordinate or timestamp".into());
                }
            }
            sink.on_feedback(&gap_cells(&self.kamel(), &req.sparse), &req.sparse, &req.truth);
            let ack = FeedbackAck {
                status: "accepted".to_string(),
                queue_records: sink.learning().queue_records,
            };
            serde_json::to_vec(&ack).map_err(|e| format!("render failed: {e}"))
        }))
    }

    fn extra_metrics(&self) -> String {
        let mut out = String::new();
        if let Some(r) = self.kamel().residency() {
            out.push_str(&format!(
                "kamel_store_resident_models {}\n\
                 kamel_store_pinned_models {}\n\
                 kamel_store_total_models {}\n\
                 kamel_store_evictions_total {}\n\
                 kamel_store_bytes_resident {}\n\
                 kamel_store_bytes_mapped {}\n\
                 kamel_store_budget_bytes {}\n",
                r.resident_models,
                r.pinned_models,
                r.total_models,
                r.evictions_total,
                r.bytes_resident,
                r.bytes_mapped,
                r.budget_bytes
            ));
        }
        if let Some(sink) = &self.sink {
            let l = sink.learning();
            out.push_str(&format!(
                "kamel_learn_captured_total {}\n\
                 kamel_learn_dropped_total {}\n\
                 kamel_learn_queue_records {}\n\
                 kamel_learn_queue_bytes {}\n\
                 kamel_learn_retrains_total {}\n\
                 kamel_learn_rollbacks_total {}\n\
                 kamel_learn_cells_retrained_total {}\n\
                 kamel_learn_last_generation {}\n",
                l.captured_total,
                l.dropped_total,
                l.queue_records,
                l.queue_bytes,
                l.retrains_total,
                l.rollbacks_total,
                l.cells_retrained_total,
                l.last_generation
            ));
        }
        out
    }
}
