//! The assembled KAMEL system (Figure 1).
//!
//! [`Kamel`] owns the five modules and exposes the architecture's two
//! entry points:
//!
//! * [`Kamel::train`] — feed a batch of training trajectories: tokenize,
//!   store, rebuild detokenization clusters, infer the speed cap, and run
//!   pyramid maintenance (all offline work, §4.2).
//! * [`Kamel::impute`] / [`Kamel::impute_batch`] / [`Kamel::impute_stream`]
//!   — impute sparse trajectories using only precomputed models (the online
//!   path, which never rescans trajectory data, §4.1).
//!
//! Internally the state sits behind an [`RwLock`], so an
//! `Arc<Kamel>` can serve online imputation from many threads while a
//! background thread periodically trains on new batches — the paper's
//! "scheduled as a background process … without causing any downtime".
//! Both entry points also parallelize internally on the configured thread
//! budget ([`KamelConfig::threads`], `KAMEL_THREADS`, or all hardware
//! threads): training fans per-cell maintenance jobs over a worker pool and
//! batch imputation imputes trajectories concurrently under the read lock —
//! with results identical to single-threaded execution in both cases.

use crate::config::KamelConfig;
use crate::constraints::SpatialConstraints;
use crate::detokenize::Detokenizer;
use crate::error::KamelError;
use crate::impute::{GapFiller, SegmentOutcome};
use crate::partition::{ModelSelection, Repository};
use crate::source::{ModelSource, ResidencyStats};
use crate::tokenize::Tokenizer;
use kamel_geo::{BBox, GpsPoint, LatLng, Trajectory, Xy};
use kamel_hexgrid::CellId;
use kamel_lm::{MaskedTokenModel, TrainedModel};
use kamel_trajstore::TrajStore;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Report for one imputed gap.
#[derive(Debug, Clone, PartialEq)]
pub struct GapReport {
    /// Planar distance between the gap's endpoints in meters.
    pub gap_m: f64,
    /// Number of points inserted into the output for this gap.
    pub points_inserted: usize,
    /// The multipoint imputation outcome (tokens, failure flag, calls).
    pub outcome: SegmentOutcome,
    /// Whether a pyramid model covered this gap (false → straight-line
    /// fallback before the imputer even ran).
    pub had_model: bool,
}

/// The result of imputing one sparse trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct ImputedTrajectory {
    /// The dense output trajectory: all original fixes plus imputed points,
    /// in time order.
    pub trajectory: Trajectory,
    /// One report per gap that required imputation.
    pub gaps: Vec<GapReport>,
}

impl ImputedTrajectory {
    /// Fraction of gaps imputed by a straight line (the paper's failure
    /// rate, §8). `None` when the trajectory had no gaps.
    pub fn failure_rate(&self) -> Option<f64> {
        if self.gaps.is_empty() {
            return None;
        }
        let failed = self.gaps.iter().filter(|g| g.outcome.failed).count();
        Some(failed as f64 / self.gaps.len() as f64)
    }

    /// Total model calls across all gaps.
    pub fn model_calls(&self) -> usize {
        self.gaps.iter().map(|g| g.outcome.model_calls).sum()
    }

    /// Number of imputed (non-original) points.
    pub fn imputed_points(&self) -> usize {
        self.gaps.iter().map(|g| g.points_inserted).sum()
    }
}

/// Snapshot of system state for reporting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KamelStats {
    /// Trajectories in the store.
    pub stored_trajectories: usize,
    /// Total tokens in the store.
    pub stored_tokens: u64,
    /// Models in the repository (single + pair + global).
    pub models: usize,
    /// Token cells with detokenization metadata.
    pub detok_cells: usize,
    /// Inferred maximum speed (m/s) used by the constraints.
    pub max_speed_mps: f64,
}

/// Everything built from training data.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct State {
    tokenizer: Tokenizer,
    store: TrajStore,
    repo: Repository,
    detok: Detokenizer,
    /// Capped sample of observed per-fix speeds (m/s) for the §5.1 cap.
    speed_sample: Vec<f64>,
    max_speed_mps: f64,
}

/// Cap on the retained speed sample.
const SPEED_SAMPLE_CAP: usize = 50_000;
/// Padding applied around the first batch's MBR when rooting the pyramid.
const ROOT_PAD_FRACTION: f64 = 0.25;
/// Probes per model for the int8 accuracy gate.
const QUANT_PROBES: usize = 64;
/// Fixed seed for the gate's probe generator — the gate verdict is
/// deterministic for a given repository.
const QUANT_GATE_SEED: u64 = 0xA93E_E001;

/// The KAMEL system.
pub struct Kamel {
    config: KamelConfig,
    inner: RwLock<Option<State>>,
    /// Whether the repository is currently serving through the int8 path.
    /// `config.quantize` records *intent*; this records the live state
    /// (quantization can be refused by the accuracy gate).
    quantized: AtomicBool,
    /// External model source overriding the heap repository's models
    /// (the mmap store's resident set). When set, imputation resolves
    /// models through it; the inner repository is only the retrieval
    /// skeleton. `None` for an ordinary heap-resident system.
    source: Option<Arc<dyn ModelSource>>,
}

impl Kamel {
    /// Creates an untrained system.
    ///
    /// # Panics
    /// Panics when the configuration is invalid (use
    /// [`KamelConfig::validate`] to check beforehand).
    pub fn new(config: KamelConfig) -> Self {
        config.validate().expect("invalid KAMEL configuration");
        if let Some(n) = config.threads {
            crate::threads::set_thread_budget(n);
        }
        Self {
            config,
            inner: RwLock::new(None),
            quantized: AtomicBool::new(false),
            source: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &KamelConfig {
        &self.config
    }

    /// A deep, independent copy of this system (configuration plus the
    /// full in-heap trained state), without going through serialization.
    ///
    /// This is how the continual-learning trainer obtains a private
    /// instance to retrain off-path while the original keeps serving.
    /// Any external model source binding is *not* carried over — the
    /// copy owns whatever models live in the heap repository — and the
    /// quantized serving path is re-gated on the copy when the
    /// configuration asks for it.
    pub fn deep_clone(&self) -> Self {
        let copy = Self {
            config: self.config.clone(),
            inner: RwLock::new(self.state().clone()),
            quantized: AtomicBool::new(false),
            source: None,
        };
        if copy.config.quantize && copy.is_trained() {
            if let Err(e) = copy.enable_quantization() {
                eprintln!("warning: cloned model serves on the f32 path: {e}");
            }
        }
        copy
    }

    /// Overrides where serving models come from. The system keeps its
    /// tokenizer, detokenizer, and pyramid *shape*, but every model
    /// lookup goes through `source` — this is how a store-backed system
    /// (loaded from a serving skeleton) serves out of an mmap'd `.kstore`
    /// resident set instead of heap-owned models. Takes `&mut self`
    /// deliberately: the source is wired at construction time, before
    /// the system is shared behind an `Arc`.
    pub fn set_model_source(&mut self, source: Arc<dyn ModelSource>) {
        self.source = Some(source);
    }

    /// Residency statistics of the model source, when it has a bounded
    /// resident set (`None` for heap-resident systems).
    pub fn residency(&self) -> Option<ResidencyStats> {
        self.source.as_ref().and_then(|s| s.residency())
    }

    /// The model state for reading. A lock poisoned by a trainer that
    /// panicked is entered anyway: a serving system keeps answering from
    /// the state the trainer left, as it did under the non-poisoning lock
    /// this replaced.
    fn state(&self) -> RwLockReadGuard<'_, Option<State>> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The model state for writing; poisoning is ignored as in
    /// [`Kamel::state`].
    fn state_mut(&self) -> RwLockWriteGuard<'_, Option<State>> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// True once at least one training batch has been processed.
    pub fn is_trained(&self) -> bool {
        self.state().is_some()
    }

    /// Current system statistics, when trained.
    pub fn stats(&self) -> Option<KamelStats> {
        let guard = self.state();
        guard.as_ref().map(|s| KamelStats {
            stored_trajectories: s.store.len(),
            stored_tokens: s.store.total_tokens(),
            models: match &self.source {
                Some(src) => src.model_count(),
                None => s.repo.model_count(),
            },
            detok_cells: s.detok.len(),
            max_speed_mps: s.max_speed_mps,
        })
    }

    /// Summaries of every model in the repository (empty before training).
    pub fn model_summaries(&self) -> Vec<crate::partition::ModelSummary> {
        if let Some(src) = &self.source {
            return src.summaries();
        }
        self.state()
            .as_ref()
            .map(|s| s.repo.summaries())
            .unwrap_or_default()
    }

    /// Switches the repository to the int8 weight-quantized serving path,
    /// gated on accuracy: every BERT model's top-1 agreement with its f32
    /// twin is measured first, and if the worst agreement falls below
    /// [`KamelConfig::quantize_min_agreement`] **nothing** is quantized and
    /// [`KamelError::QuantizationRejected`] is returned. On success returns
    /// the worst agreement observed. Before training (or on n-gram
    /// repositories) there is nothing to quantize: the call returns
    /// `Ok(1.0)` and arms the path, so [`Kamel::train`] re-gates and
    /// applies it to the models it builds.
    pub fn enable_quantization(&self) -> Result<f64, KamelError> {
        let mut guard = self.state_mut();
        let Some(state) = guard.as_mut() else {
            self.quantized.store(true, Ordering::Release);
            return Ok(1.0);
        };
        let worst = state.repo.enable_quantization(
            self.config.quantize_min_agreement,
            QUANT_PROBES,
            QUANT_GATE_SEED,
        )?;
        self.quantized.store(true, Ordering::Release);
        Ok(worst)
    }

    /// Reverts the repository to the f32 serving path.
    pub fn disable_quantization(&self) {
        if let Some(state) = self.state_mut().as_mut() {
            state.repo.disable_quantization();
        }
        self.quantized.store(false, Ordering::Release);
    }

    /// Whether the int8 serving path is currently active.
    pub fn is_quantized(&self) -> bool {
        self.quantized.load(Ordering::Acquire)
    }

    /// Feeds a batch of training trajectories (the offline path): tokenizes
    /// and stores them, refreshes the speed cap and detokenization
    /// clusters, and runs pyramid maintenance over the affected region.
    pub fn train(&self, trajectories: &[Trajectory]) {
        let batch: Vec<&Trajectory> = trajectories.iter().filter(|t| t.len() >= 2).collect();
        if batch.is_empty() {
            return;
        }
        let mut guard = self.state_mut();
        if guard.is_none() {
            let origin = batch[0].points[0].pos;
            *guard = Some(State {
                tokenizer: Tokenizer::new(origin, &self.config),
                store: TrajStore::new((self.config.cell_edge_m * 8.0).max(300.0)),
                repo: Repository::new(
                    padded_bbox(&batch, &Tokenizer::new(origin, &self.config)),
                    &self.config,
                ),
                detok: Detokenizer::default(),
                speed_sample: Vec::new(),
                max_speed_mps: 30.0,
            });
        }
        let state = guard.as_mut().expect("initialized above");
        // Tokenize + store, tracking the dirty region.
        let mut dirty: Option<BBox> = None;
        for traj in &batch {
            let tt = state.tokenizer.tokenize(traj);
            if let Some(bb) = tt.bbox() {
                dirty = Some(match dirty {
                    Some(d) => d.union(&bb),
                    None => bb,
                });
            }
            // Speed observations for the §5.1 cap.
            if state.speed_sample.len() < SPEED_SAMPLE_CAP {
                for w in traj.points.windows(2) {
                    if let Some(v) = w[0].speed_to(&w[1]) {
                        if v.is_finite() && v < 120.0 {
                            state.speed_sample.push(v);
                        }
                    }
                }
                state.speed_sample.truncate(SPEED_SAMPLE_CAP);
            }
            state.store.insert(tt);
        }
        let Some(dirty) = dirty else { return };
        // Speed cap: 95th percentile of observed speeds × slack.
        state.max_speed_mps = percentile(&mut state.speed_sample.clone(), 0.95)
            .map_or(30.0, |p| (p * self.config.speed_slack).max(3.0));
        // Re-root the pyramid if the data outgrew it (rebuilds all models
        // from the store, which still holds everything).
        let root = state.repo.root_bbox();
        let full_rebuild = !root.contains_bbox(&dirty);
        if full_rebuild {
            let grown = grow_bbox(root.union(&dirty), ROOT_PAD_FRACTION);
            state.repo = Repository::new(grown, &self.config);
        }
        // Detokenization clusters (offline §7 operation): full rebuild from
        // the store, in id order — HashMap iteration order varies across
        // processes and DBSCAN border-point assignment is order-sensitive,
        // so sorting keeps training bit-reproducible run to run.
        let mut stored: Vec<_> = state.store.iter().collect();
        stored.sort_by_key(|(id, _)| **id);
        state.detok =
            Detokenizer::build(stored.into_iter().map(|(_, t)| t), &self.config.detok);
        // Pyramid maintenance (§4.2) or the global-model ablation.
        if self.config.disable_partitioning {
            state.repo.train_global(&state.store, &self.config.engine);
        } else {
            let region = if full_rebuild {
                state.repo.root_bbox()
            } else {
                dirty
            };
            state.repo.maintain_with_threads(
                &state.store,
                &region,
                &self.config.engine,
                self.config.effective_threads(),
            );
        }
        // Re-apply quantization: maintenance rebuilds models, and rebuilt
        // models come out of the trainer on the f32 path. Run the gate
        // directly on the repository — we already hold the write guard, and
        // the lock is not reentrant.
        if self.config.quantize || self.quantized.load(Ordering::Acquire) {
            match state.repo.enable_quantization(
                self.config.quantize_min_agreement,
                QUANT_PROBES,
                QUANT_GATE_SEED,
            ) {
                Ok(_) => self.quantized.store(true, Ordering::Release),
                Err(e) => {
                    self.quantized.store(false, Ordering::Release);
                    eprintln!("warning: serving stays on the f32 path after training: {e}");
                }
            }
        }
    }

    /// Cell-targeted retraining (the continual-learning path): trains on
    /// only those `examples` whose tokenization touches one of the selected
    /// `cells`, so the incremental dirty-region maintenance rebuilds just
    /// the pyramid slots covering them. Everything else — detokenization
    /// clusters, the speed cap, the quantization re-gate — follows the same
    /// [`Kamel::train`] path, keeping retrained state indistinguishable
    /// from offline-trained state. Returns the number of examples used.
    ///
    /// Call this on a **separate** instance loaded from the checkpoint, not
    /// the serving one: training write-locks the model state for the whole
    /// maintenance pass.
    pub fn retrain_cells(&self, cells: &[CellId], examples: &[Trajectory]) -> usize {
        let selected: Vec<Trajectory> = {
            let guard = self.state();
            let Some(state) = guard.as_ref() else {
                // Untrained: nothing to target, train on everything.
                drop(guard);
                self.train(examples);
                return examples.len();
            };
            let targets: std::collections::HashSet<CellId> = cells.iter().copied().collect();
            examples
                .iter()
                .filter(|t| {
                    anchors_of(t, &state.tokenizer)
                        .iter()
                        .any(|a| targets.contains(&a.cell))
                })
                .cloned()
                .collect()
        };
        let n = selected.len();
        if n > 0 {
            self.train(&selected);
        }
        n
    }

    /// Imputes one sparse trajectory (the online path).
    ///
    /// This is a total function: trajectories with fewer than two points
    /// pass through unchanged, and gaps no model covers are imputed by a
    /// straight line and reported as failures — exactly the paper's
    /// fallback semantics (§4.1, §6).
    pub fn impute(&self, sparse: &Trajectory) -> ImputedTrajectory {
        let guard = self.state();
        let Some(state) = guard.as_ref() else {
            return linear_only(sparse, &self.config);
        };
        if sparse.len() < 2 {
            return ImputedTrajectory {
                trajectory: sparse.clone(),
                gaps: Vec::new(),
            };
        }
        let tokenizer = &state.tokenizer;
        let gap_threshold = tokenizer.effective_max_gap_m(self.config.max_gap_m);
        let constraints = SpatialConstraints::new(state.max_speed_mps, &self.config);
        // Anchors: one (cell, fix) per run of consecutive same-cell fixes.
        let anchors = anchors_of(sparse, tokenizer);
        // Models resolve through the external source when one is wired
        // (the mmap store), else through the heap repository.
        let source: &dyn ModelSource = match &self.source {
            Some(src) => src.as_ref(),
            None => &state.repo,
        };
        // Whole-trajectory model (§4.1), falling back to per-gap retrieval.
        let traj_bbox = BBox::of_points(anchors.iter().map(|a| a.xy)).expect("non-empty");
        let whole_model = source.find_model(&traj_bbox);
        let mut out_points: Vec<GpsPoint> = Vec::with_capacity(sparse.len() * 2);
        let mut gaps = Vec::new();
        for (i, anchor) in anchors.iter().enumerate() {
            // Emit every original fix of this run.
            for p in &sparse.points[anchor.first_idx..=anchor.last_idx] {
                out_points.push(*p);
            }
            let Some(next) = anchors.get(i + 1) else { break };
            let gap_m = anchor.xy.dist(&next.xy);
            if gap_m <= gap_threshold {
                continue; // no imputation needed
            }
            let prev_cell = i.checked_sub(1).map(|j| anchors[j].cell);
            // Speed of the preceding sparse segment, for the adaptive §5.1
            // speed policy.
            let preceding_speed_mps = i.checked_sub(1).and_then(|j| {
                let dt = anchor.t - anchors[j].t;
                if dt > 0.0 {
                    Some(anchors[j].xy.dist(&anchor.xy) / dt)
                } else {
                    None
                }
            });
            let next_cell = anchors.get(i + 2).map(|a| a.cell);
            // Resolve a model for this gap. The per-gap handle must
            // outlive `model`, hence the early declaration.
            let gap_bbox = grow_bbox(BBox::new(anchor.xy, next.xy), 0.3);
            let gap_model;
            let model: Option<&dyn MaskedTokenModel> = match &whole_model {
                Some((_, m)) => Some(&**m as &dyn MaskedTokenModel),
                None => {
                    gap_model = source.find_model(&gap_bbox);
                    gap_model
                        .as_ref()
                        .map(|(_, m)| &**m as &dyn MaskedTokenModel)
                }
            };
            let (outcome, had_model) = match model {
                Some(model) => {
                    let filler = GapFiller {
                        model,
                        constraints: &constraints,
                        tokenizer,
                        config: &self.config,
                        preceding_speed_mps,
                    };
                    (
                        filler.fill(
                            anchor.cell,
                            next.cell,
                            anchor.t,
                            next.t,
                            prev_cell,
                            next_cell,
                        ),
                        true,
                    )
                }
                None => (
                    SegmentOutcome {
                        tokens: vec![anchor.cell, next.cell],
                        failed: true,
                        model_calls: 0,
                        failure_reason: Some(crate::impute::FailureReason::NoModel),
                        confidence: 0.0,
                    },
                    false,
                ),
            };
            // Materialize the gap's interior points.
            let interior: Vec<Xy> = if outcome.failed {
                straight_line_points(anchor.xy, next.xy, self.config.max_gap_m)
            } else {
                let inner_tokens = &outcome.tokens[1..outcome.tokens.len() - 1];
                state
                    .detok
                    .detokenize(&outcome.tokens, tokenizer)
                    .into_iter()
                    .skip(1)
                    .take(inner_tokens.len())
                    .collect()
            };
            let timed = time_points(anchor.xy, next.xy, anchor.t, next.t, &interior);
            let points_inserted = timed.len();
            for (xy, t) in timed {
                out_points.push(GpsPoint::new(tokenizer.projection().to_latlng(xy), t));
            }
            gaps.push(GapReport {
                gap_m,
                points_inserted,
                outcome,
                had_model,
            });
        }
        ImputedTrajectory {
            trajectory: Trajectory::new(out_points),
            gaps,
        }
    }

    /// Bulk offline imputation. Trajectories are imputed concurrently on
    /// the configured thread budget (imputation only reads shared state
    /// under the read lock); output order matches input order and each
    /// result is identical to a sequential [`Kamel::impute`] call.
    pub fn impute_batch(&self, sparse: &[Trajectory]) -> Vec<ImputedTrajectory> {
        self.impute_batch_with_threads(sparse, self.config.effective_threads())
    }

    /// [`Kamel::impute_batch`] with an explicit worker-thread count.
    pub fn impute_batch_with_threads(
        &self,
        sparse: &[Trajectory],
        threads: usize,
    ) -> Vec<ImputedTrajectory> {
        let threads = threads.clamp(1, sparse.len().max(1));
        if threads <= 1 {
            return sparse.iter().map(|t| self.impute(t)).collect();
        }
        let mut out: Vec<Option<ImputedTrajectory>> = Vec::new();
        out.resize_with(sparse.len(), || None);
        let per = sparse.len().div_ceil(threads);
        std::thread::scope(|s| {
            for (in_chunk, out_chunk) in sparse.chunks(per).zip(out.chunks_mut(per)) {
                s.spawn(move || {
                    for (t, slot) in in_chunk.iter().zip(out_chunk) {
                        *slot = Some(self.impute(t));
                    }
                });
            }
        });
        out.into_iter().map(|o| o.expect("every slot filled")).collect()
    }

    /// Online/streaming imputation: lazily imputes each incoming trajectory
    /// as the stream yields it.
    pub fn impute_stream<'a, I>(&'a self, stream: I) -> impl Iterator<Item = ImputedTrajectory> + 'a
    where
        I: IntoIterator<Item = Trajectory> + 'a,
    {
        stream.into_iter().map(move |t| self.impute(&t))
    }

    /// The tokenized gap context of `sparse` under the trained tokenizer:
    /// the dedup-run cell-id sequence (one cell per run of consecutive
    /// same-cell fixes, exactly the anchors [`Kamel::impute`] works from)
    /// and the planar span in meters between each consecutive anchor pair.
    ///
    /// Two sparse trajectories with equal gap context traverse the same
    /// cells with the same gap geometry, which makes this the semantic part
    /// of an online response-cache key (`kamel-server` combines it with a
    /// digest of the raw fixes, since originals are echoed verbatim into
    /// the imputed output). Returns `None` while untrained — no tokenizer
    /// exists yet, so there is nothing stable to key on.
    pub fn gap_context(&self, sparse: &Trajectory) -> Option<(Vec<CellId>, Vec<f64>)> {
        let guard = self.state();
        let state = guard.as_ref()?;
        let anchors = anchors_of(sparse, &state.tokenizer);
        let cells = anchors.iter().map(|a| a.cell).collect();
        let spans = anchors
            .windows(2)
            .map(|w| w[0].xy.dist(&w[1].xy))
            .collect();
        Some((cells, spans))
    }

    /// Serializes the full trained state (config + store + models +
    /// detokenization metadata) to JSON.
    pub fn to_json(&self) -> Result<String, KamelError> {
        let guard = self.state();
        let doc = PersistedKamel {
            config: self.config.clone(),
            state: guard.clone(),
        };
        serde_json::to_string(&doc).map_err(|e| KamelError::Persistence(e.to_string()))
    }

    /// Serializes a **serving skeleton**: the trained tokenizer,
    /// detokenization clusters, speed cap, and pyramid shape — with the
    /// trajectory store emptied and every model dropped. This is what
    /// `kamel pack` embeds as the store's meta record: a few KB standing
    /// in for the full model set, enough to rebuild a serving `Kamel`
    /// whose models then resolve through the store's resident set.
    pub fn serving_skeleton_json(&self) -> Result<String, KamelError> {
        let guard = self.state();
        let Some(state) = guard.as_ref() else {
            return Err(KamelError::NotTrained);
        };
        let skeleton = State {
            tokenizer: state.tokenizer.clone(),
            store: TrajStore::new((self.config.cell_edge_m * 8.0).max(300.0)),
            repo: state.repo.skeleton(),
            detok: state.detok.clone(),
            speed_sample: Vec::new(),
            max_speed_mps: state.max_speed_mps,
        };
        let doc = PersistedKamel {
            config: self.config.clone(),
            state: Some(skeleton),
        };
        serde_json::to_string(&doc).map_err(|e| KamelError::Persistence(e.to_string()))
    }

    /// Every stored model as the sections of its store record, in
    /// [`Repository::model_keys`] order — what `kamel pack` frames per
    /// cell. A BERT model's weights leave as bytes
    /// ([`kamel_lm::BertMlm::write_record`]: raw f32 tensors, vocabulary,
    /// token count) beside the small [`ModelMeta`](crate::partition::ModelMeta)
    /// JSON, plus the int8 artifact it serves with, if any; an n-gram
    /// model has no tensors and leaves as its whole `ModelEntry` JSON.
    /// Either way a store materializing the record rebuilds the
    /// *identical* model.
    pub fn export_models(&self) -> Result<Vec<ExportedModel>, KamelError> {
        let guard = self.state();
        let Some(state) = guard.as_ref() else {
            return Err(KamelError::NotTrained);
        };
        let persist = |e: serde_json::Error| KamelError::Persistence(e.to_string());
        let mut out = Vec::new();
        for selection in state.repo.model_keys() {
            let entry = state
                .repo
                .entry(selection)
                .expect("model_keys lists only stored entries");
            let (json, tensors) = match &entry.model {
                TrainedModel::Bert(bert) => (
                    serde_json::to_string(&entry.meta).map_err(persist)?,
                    bert.write_record(),
                ),
                TrainedModel::Ngram(_) => {
                    (serde_json::to_string(entry).map_err(persist)?, Vec::new())
                }
            };
            out.push(ExportedModel {
                selection,
                json,
                tensors,
                quant: entry.model.quant_artifact(),
            });
        }
        Ok(out)
    }

    /// A modelless clone of the repository's pyramid geometry (root,
    /// height, maintained levels, k) — the selection structure a model
    /// store needs to route queries without holding any weights.
    pub fn repo_skeleton(&self) -> Option<crate::partition::Repository> {
        self.state().as_ref().map(|s| s.repo.skeleton())
    }

    /// Persists the full trained state to a file as a crash-safe
    /// checkpoint: the JSON state is wrapped in a versioned, CRC32C-
    /// checksummed envelope, written to a same-directory temp file,
    /// synced, and renamed over `path`, rotating any previous checkpoint
    /// to `<path>.bak` (see [`crate::checkpoint`]). A crash or full disk
    /// mid-save leaves the previous checkpoint intact.
    pub fn save_to_file(&self, path: impl AsRef<std::path::Path>) -> Result<(), KamelError> {
        let json = self.to_json()?;
        crate::checkpoint::save_checkpoint(path.as_ref(), json.as_bytes()).map_err(|e| {
            KamelError::Persistence(format!("write {}: {e}", path.as_ref().display()))
        })
    }

    /// Restores a system persisted with [`Kamel::save_to_file`].
    ///
    /// Loads the checkpoint at `path`, validating its envelope (magic,
    /// version, length, CRC32C). When the live file is missing, truncated,
    /// corrupt, or fails to parse, the loader falls back to the rotated
    /// `<path>.bak` checkpoint with a loud warning on stderr, and errors
    /// only when both copies are unusable.
    pub fn load_from_file(path: impl AsRef<std::path::Path>) -> Result<Self, KamelError> {
        let path = path.as_ref();
        let primary_err = match Self::read_checkpoint_file(path) {
            Ok(kamel) => return Ok(kamel),
            Err(e) => e,
        };
        let bak = crate::checkpoint::bak_path(path);
        if !bak.exists() {
            return Err(primary_err);
        }
        match Self::read_checkpoint_file(&bak) {
            Ok(kamel) => {
                // Once per path per process: a store boot loads hundreds
                // of cells from the same tree and must not repeat this
                // for every one of them.
                if crate::checkpoint::note_bak_recovery(path) {
                    eprintln!(
                        "warning: checkpoint {} is unusable ({primary_err}); \
                         recovered previous checkpoint from {}",
                        path.display(),
                        bak.display()
                    );
                }
                Ok(kamel)
            }
            Err(bak_err) => Err(KamelError::Persistence(format!(
                "{primary_err}; backup {} also unusable: {bak_err}",
                bak.display()
            ))),
        }
    }

    /// Reads and fully validates one checkpoint file (no fallback).
    fn read_checkpoint_file(path: &std::path::Path) -> Result<Self, KamelError> {
        let bytes = std::fs::read(path).map_err(|e| {
            KamelError::Persistence(format!("read {}: {e}", path.display()))
        })?;
        let payload = crate::checkpoint::decode(&bytes).map_err(|e| {
            KamelError::Persistence(format!("{}: {e}", path.display()))
        })?;
        let json = std::str::from_utf8(payload).map_err(|e| {
            KamelError::Persistence(format!("{}: payload is not UTF-8: {e}", path.display()))
        })?;
        Self::from_json(json)
    }

    /// Restores a system serialized with [`Kamel::to_json`].
    pub fn from_json(json: &str) -> Result<Self, KamelError> {
        let doc: PersistedKamel =
            serde_json::from_str(json).map_err(|e| KamelError::Persistence(e.to_string()))?;
        doc.config.validate()?;
        if let Some(n) = doc.config.threads {
            crate::threads::set_thread_budget(n);
        }
        let kamel = Self {
            config: doc.config,
            inner: RwLock::new(doc.state),
            quantized: AtomicBool::new(false),
            source: None,
        };
        // The int8 artifact is derived state and never persists; when the
        // persisted config asks for it, rebuild and re-gate it now. A gate
        // failure is not a load failure — the system serves f32 instead.
        if kamel.config.quantize && kamel.is_trained() {
            if let Err(e) = kamel.enable_quantization() {
                eprintln!("warning: loaded model serves on the f32 path: {e}");
            }
        }
        Ok(kamel)
    }
}

/// Serialized form of a trained system.
#[derive(Serialize, Deserialize)]
struct PersistedKamel {
    config: KamelConfig,
    state: Option<State>,
}

/// One model record exported by [`Kamel::export_models`] for `kamel pack`.
pub struct ExportedModel {
    /// Which pyramid slot the model occupies.
    pub selection: ModelSelection,
    /// The record's JSON section: the entry's
    /// [`ModelMeta`](crate::partition::ModelMeta) when `tensors` carries
    /// the model, the whole serialized
    /// [`ModelEntry`](crate::partition::ModelEntry) when it does not.
    pub json: String,
    /// The model as a binary record (BERT engines; empty for n-gram).
    pub tensors: Vec<u8>,
    /// Packed-ready int8 weights (BERT engines only).
    pub quant: Option<kamel_nn::QuantizedBertMlm>,
}

/// One dedup-run anchor.
struct Anchor {
    cell: CellId,
    xy: Xy,
    t: f64,
    first_idx: usize,
    last_idx: usize,
}

fn anchors_of(sparse: &Trajectory, tokenizer: &Tokenizer) -> Vec<Anchor> {
    let mut anchors: Vec<Anchor> = Vec::with_capacity(sparse.len());
    for (idx, p) in sparse.points.iter().enumerate() {
        let xy = tokenizer.projection().to_xy(p.pos);
        let cell = tokenizer.cell_of_xy(xy);
        match anchors.last_mut() {
            Some(last) if last.cell == cell => last.last_idx = idx,
            _ => anchors.push(Anchor {
                cell,
                xy,
                t: p.t,
                first_idx: idx,
                last_idx: idx,
            }),
        }
    }
    anchors
}

/// Interior points of a straight-line fallback, spaced at `max_gap`.
fn straight_line_points(a: Xy, b: Xy, max_gap_m: f64) -> Vec<Xy> {
    let d = a.dist(&b);
    let n = (d / max_gap_m).ceil() as usize;
    (1..n).map(|i| a.lerp(&b, i as f64 / n as f64)).collect()
}

/// Assigns timestamps to interior points, linear in cumulative distance
/// between the gap endpoints.
fn time_points(a: Xy, b: Xy, t_a: f64, t_b: f64, interior: &[Xy]) -> Vec<(Xy, f64)> {
    if interior.is_empty() {
        return Vec::new();
    }
    let mut cum = Vec::with_capacity(interior.len() + 1);
    let mut total = 0.0;
    let mut prev = a;
    for p in interior {
        total += prev.dist(p);
        cum.push(total);
        prev = *p;
    }
    total += prev.dist(&b);
    if total <= 0.0 {
        return interior.iter().map(|p| (*p, t_a)).collect();
    }
    interior
        .iter()
        .zip(cum)
        .map(|(p, c)| (*p, t_a + (t_b - t_a) * c / total))
        .collect()
}

/// Pure straight-line imputation used before any training.
fn linear_only(sparse: &Trajectory, config: &KamelConfig) -> ImputedTrajectory {
    if sparse.len() < 2 {
        return ImputedTrajectory {
            trajectory: sparse.clone(),
            gaps: Vec::new(),
        };
    }
    // Without a tokenizer we still honour the output contract: interpolate
    // in geodetic space directly (valid at city scale).
    let mut points = Vec::with_capacity(sparse.len() * 2);
    let mut gaps = Vec::new();
    for w in sparse.points.windows(2) {
        points.push(w[0]);
        let gap_m = w[0].pos.fast_dist_m(&w[1].pos);
        if gap_m > config.max_gap_m {
            let n = (gap_m / config.max_gap_m).ceil() as usize;
            for i in 1..n {
                let f = i as f64 / n as f64;
                points.push(GpsPoint::new(
                    w[0].pos.lerp(&w[1].pos, f),
                    w[0].t + (w[1].t - w[0].t) * f,
                ));
            }
            gaps.push(GapReport {
                gap_m,
                points_inserted: n.saturating_sub(1),
                outcome: SegmentOutcome {
                    tokens: Vec::new(),
                    failed: true,
                    model_calls: 0,
                    failure_reason: Some(crate::impute::FailureReason::NoModel),
                    confidence: 0.0,
                },
                had_model: false,
            });
        }
    }
    points.push(*sparse.points.last().expect("len >= 2"));
    ImputedTrajectory {
        trajectory: Trajectory::new(points),
        gaps,
    }
}

fn padded_bbox(batch: &[&Trajectory], tokenizer: &Tokenizer) -> BBox {
    let bb = BBox::of_points(
        batch
            .iter()
            .flat_map(|t| t.points.iter().map(|p| tokenizer.projection().to_xy(p.pos))),
    )
    .expect("non-empty batch");
    grow_bbox(bb, ROOT_PAD_FRACTION)
}

fn grow_bbox(bb: BBox, fraction: f64) -> BBox {
    let dx = (bb.width() * fraction).max(1.0);
    let dy = (bb.height() * fraction).max(1.0);
    BBox::new(
        Xy::new(bb.min.x - dx, bb.min.y - dy),
        Xy::new(bb.max.x + dx, bb.max.y + dy),
    )
}

/// In-place percentile of a sample (`None` when empty). `q` in [0, 1].
fn percentile(sample: &mut [f64], q: f64) -> Option<f64> {
    if sample.is_empty() {
        return None;
    }
    let idx = ((sample.len() - 1) as f64 * q).round() as usize;
    sample
        .select_nth_unstable_by(idx, |a, b| a.partial_cmp(b).expect("finite speeds"));
    Some(sample[idx])
}

/// Cell-size auto-tuning (§3.2): trains a throwaway system per candidate
/// hexagon edge on a training subsample and scores imputation accuracy on a
/// held-out validation subsample; returns the edge with the best recall
/// proxy.
///
/// `delta_m` is the accuracy threshold δ and `sparse_m` the sparsification
/// distance used for validation.
pub fn tune_cell_size(
    training: &[Trajectory],
    candidate_edges_m: &[f64],
    base: &KamelConfig,
    delta_m: f64,
    sparse_m: f64,
) -> f64 {
    tune_cell_size_detailed(training, candidate_edges_m, base, delta_m, sparse_m)
        .into_iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite scores"))
        .map_or(base.cell_edge_m, |(edge, _)| edge)
}

/// Like [`tune_cell_size`] but returns the full `(edge, validation score)`
/// curve — the data behind the paper's Figure 3(d) accuracy-vs-cell-size
/// plot. Sizes that could not be scored are omitted.
pub fn tune_cell_size_detailed(
    training: &[Trajectory],
    candidate_edges_m: &[f64],
    base: &KamelConfig,
    delta_m: f64,
    sparse_m: f64,
) -> Vec<(f64, f64)> {
    assert!(!candidate_edges_m.is_empty(), "no candidate sizes");
    if training.len() < 5 {
        return vec![(base.cell_edge_m, 0.0)];
    }
    // 80/20 split of the (sub)sample.
    let n_val = (training.len() / 5).max(1);
    let (train_part, val_part) = training.split_at(training.len() - n_val);
    let mut curve = Vec::with_capacity(candidate_edges_m.len());
    for &edge in candidate_edges_m {
        let cfg = KamelConfig {
            cell_edge_m: edge,
            ..base.clone()
        };
        if cfg.validate().is_err() {
            continue;
        }
        let kamel = Kamel::new(cfg);
        kamel.train(train_part);
        let mut score_sum = 0.0;
        let mut scored = 0usize;
        for gt in val_part {
            if gt.len() < 3 {
                continue;
            }
            let sparse = gt.sparsify(sparse_m);
            if sparse.len() >= gt.len() {
                continue; // nothing was removed; no signal
            }
            let imputed = kamel.impute(&sparse);
            score_sum += recall_proxy(gt, &imputed.trajectory, delta_m);
            scored += 1;
        }
        if scored > 0 {
            curve.push((edge, score_sum / scored as f64));
        }
    }
    curve
}

/// Fraction of ground-truth fixes within `delta_m` of the imputed polyline.
///
/// A light-weight recall used by cell-size tuning and by the continual
/// learner's replay-based regression gate (the evaluation crate implements
/// the paper's full discretized metrics; this proxy is cheap enough to run
/// on every rollout).
pub fn replay_recall(gt: &Trajectory, imputed: &Trajectory, delta_m: f64) -> f64 {
    recall_proxy(gt, imputed, delta_m)
}

/// Fraction of ground-truth fixes within `delta_m` of the imputed polyline
/// (a light-weight recall used only for tuning; the evaluation crate
/// implements the paper's full discretized metrics).
fn recall_proxy(gt: &Trajectory, imputed: &Trajectory, delta_m: f64) -> f64 {
    if gt.is_empty() || imputed.is_empty() {
        return 0.0;
    }
    let origin = gt.points[0].pos;
    let proj = kamel_geo::LocalProjection::new(LatLng::new(origin.lat, origin.lng));
    let line: Vec<Xy> = imputed.points.iter().map(|p| proj.to_xy(p.pos)).collect();
    let hits = gt
        .points
        .iter()
        .filter(|p| {
            kamel_geo::point_to_polyline_distance(proj.to_xy(p.pos), &line) <= delta_m
        })
        .count();
    hits as f64 / gt.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamel_geo::GpsPoint;

    /// A corpus of trips along one straight street, fixes every ~84 m.
    fn street_corpus(n: usize) -> Vec<Trajectory> {
        (0..n)
            .map(|_| {
                Trajectory::new(
                    (0..30)
                        .map(|i| {
                            GpsPoint::from_parts(41.15, -8.61 + i as f64 * 0.001, i as f64 * 10.0)
                        })
                        .collect(),
                )
            })
            .collect()
    }

    fn trained() -> Kamel {
        let kamel = Kamel::new(
            KamelConfig::builder()
                .model_threshold_k(50)
                .pyramid_height(3)
                .build(),
        );
        kamel.train(&street_corpus(40));
        kamel
    }

    #[test]
    fn train_builds_models_and_stats() {
        let kamel = trained();
        assert!(kamel.is_trained());
        let stats = kamel.stats().expect("stats");
        assert!(stats.models >= 1, "no models: {stats:?}");
        assert_eq!(stats.stored_trajectories, 40);
        assert!(stats.detok_cells > 5);
        assert!(stats.max_speed_mps > 3.0 && stats.max_speed_mps < 60.0);
    }

    #[test]
    fn impute_fills_a_street_gap() {
        let kamel = trained();
        // Sparse trajectory along the street with one ~1.7 km gap.
        let sparse = Trajectory::new(vec![
            GpsPoint::from_parts(41.15, -8.610, 0.0),
            GpsPoint::from_parts(41.15, -8.609, 10.0),
            GpsPoint::from_parts(41.15, -8.589, 210.0),
            GpsPoint::from_parts(41.15, -8.588, 220.0),
        ]);
        let result = kamel.impute(&sparse);
        assert_eq!(result.gaps.len(), 1);
        let gap = &result.gaps[0];
        assert!(gap.had_model, "no model for gap");
        assert!(!gap.outcome.failed, "imputation failed: {:?}", gap.outcome);
        assert!(gap.points_inserted >= 5, "too few points: {gap:?}");
        // Output is time-ordered and contains all originals.
        let ts: Vec<f64> = result.trajectory.points.iter().map(|p| p.t).collect();
        for w in ts.windows(2) {
            assert!(w[1] >= w[0], "timestamps not monotone: {ts:?}");
        }
        assert!(result.trajectory.len() >= sparse.len() + gap.points_inserted);
        // Imputed points stay on the street (lat ≈ 41.15).
        for p in &result.trajectory.points {
            assert!((p.pos.lat - 41.15).abs() < 0.002, "off-street point {p:?}");
        }
    }

    #[test]
    fn untrained_system_falls_back_to_linear() {
        let kamel = Kamel::new(KamelConfig::default());
        let sparse = Trajectory::new(vec![
            GpsPoint::from_parts(41.15, -8.61, 0.0),
            GpsPoint::from_parts(41.15, -8.60, 100.0),
        ]);
        let result = kamel.impute(&sparse);
        assert_eq!(result.failure_rate(), Some(1.0));
        assert!(result.trajectory.len() > 2, "linear fallback materializes points");
    }

    #[test]
    fn short_trajectories_pass_through() {
        let kamel = trained();
        let single = Trajectory::new(vec![GpsPoint::from_parts(41.15, -8.61, 0.0)]);
        let result = kamel.impute(&single);
        assert_eq!(result.trajectory, single);
        assert!(result.gaps.is_empty());
        let empty = kamel.impute(&Trajectory::default());
        assert!(empty.trajectory.is_empty());
    }

    #[test]
    fn small_gaps_require_no_imputation() {
        let kamel = trained();
        let dense = Trajectory::new(
            (0..10)
                .map(|i| GpsPoint::from_parts(41.15, -8.61 + i as f64 * 0.0005, i as f64 * 5.0))
                .collect(),
        );
        let result = kamel.impute(&dense);
        assert!(result.gaps.is_empty());
        assert_eq!(result.trajectory.len(), dense.len());
    }

    #[test]
    fn batch_and_stream_agree() {
        let kamel = trained();
        let sparse: Vec<Trajectory> = street_corpus(3)
            .into_iter()
            .map(|t| t.sparsify(800.0))
            .collect();
        let batch = kamel.impute_batch(&sparse);
        let streamed: Vec<ImputedTrajectory> =
            kamel.impute_stream(sparse.clone()).collect();
        assert_eq!(batch, streamed);
    }

    #[test]
    fn persistence_roundtrip_preserves_behaviour() {
        let kamel = trained();
        let sparse = street_corpus(1)[0].sparsify(900.0);
        let before = kamel.impute(&sparse);
        let json = kamel.to_json().expect("serialize");
        let restored = Kamel::from_json(&json).expect("deserialize");
        let after = restored.impute(&sparse);
        assert_eq!(before, after);
    }

    #[test]
    fn quantize_config_survives_training_and_reload() {
        use kamel_lm::{BertEngineConfig, EngineConfig};
        let kamel = Kamel::new(
            KamelConfig::builder()
                .model_threshold_k(50)
                .pyramid_height(3)
                .disable_partitioning(true)
                .engine(EngineConfig::Bert(BertEngineConfig::for_tests()))
                .quantize(true)
                .quantize_min_agreement(0.0)
                .build(),
        );
        assert!(!kamel.is_quantized(), "untrained system starts on f32");
        kamel.train(&street_corpus(40));
        assert!(kamel.is_quantized(), "config.quantize applies after training");
        // The quantized system still serves imputation end to end.
        let sparse = street_corpus(1)[0].sparsify(900.0);
        let result = kamel.impute(&sparse);
        assert!(!result.trajectory.is_empty());
        // The int8 artifact is derived state: a reload rebuilds and
        // re-gates it because the persisted config asks for it.
        let json = kamel.to_json().expect("serialize");
        let restored = Kamel::from_json(&json).expect("deserialize");
        assert!(restored.is_quantized(), "reload re-enables quantization");
        restored.disable_quantization();
        assert!(!restored.is_quantized());
    }

    #[test]
    fn explicit_enable_quantization_gates_and_applies() {
        use kamel_lm::{BertEngineConfig, EngineConfig};
        let kamel = Kamel::new(
            KamelConfig::builder()
                .model_threshold_k(50)
                .pyramid_height(3)
                .disable_partitioning(true)
                .engine(EngineConfig::Bert(BertEngineConfig::for_tests()))
                // A tiny test model under-trains; keep the gate permissive
                // so this test exercises the pass path deterministically.
                .quantize_min_agreement(0.5)
                .build(),
        );
        kamel.train(&street_corpus(40));
        assert!(!kamel.is_quantized(), "quantization is opt-in");
        let worst = kamel.enable_quantization().expect("gate passes");
        assert!((0.0..=1.0).contains(&worst), "agreement out of range: {worst}");
        assert!(kamel.is_quantized());
        // Re-training keeps the armed path live (models are rebuilt, so
        // quantization is re-applied under the same gate).
        kamel.train(&street_corpus(5));
        assert!(kamel.is_quantized(), "training dropped the armed int8 path");
    }

    #[test]
    fn model_summaries_match_stats() {
        let kamel = trained();
        let summaries = kamel.model_summaries();
        assert_eq!(summaries.len(), kamel.stats().unwrap().models);
        assert!(!summaries.is_empty());
        let untrained = Kamel::new(KamelConfig::default());
        assert!(untrained.model_summaries().is_empty());
    }

    #[test]
    fn file_persistence_roundtrip() {
        let kamel = trained();
        let dir = ckpt_dir("roundtrip");
        let path = dir.join("kamel_test_model.json");
        kamel.save_to_file(&path).expect("save");
        let restored = Kamel::load_from_file(&path).expect("load");
        let sparse = street_corpus(1)[0].sparsify(900.0);
        assert_eq!(kamel.impute(&sparse), restored.impute(&sparse));
        std::fs::remove_file(&path).ok();
        // Missing file (and no backup rotation yet) surfaces a
        // persistence error.
        assert!(matches!(
            Kamel::load_from_file(&path),
            Err(crate::error::KamelError::Persistence(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A temp directory unique to one test, wiped up front so reruns
    /// never see stale checkpoints.
    fn ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("kamel_pipe_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn from_json_failure_paths_never_panic() {
        // Empty input.
        assert!(matches!(
            Kamel::from_json(""),
            Err(crate::error::KamelError::Persistence(_))
        ));
        // Truncated JSON.
        let full = trained().to_json().expect("serialize");
        for cut in [1, full.len() / 2, full.len() - 1] {
            assert!(
                matches!(
                    Kamel::from_json(&full[..cut]),
                    Err(crate::error::KamelError::Persistence(_))
                ),
                "cut at {cut} did not fail cleanly"
            );
        }
        // Valid JSON carrying an invalid configuration.
        let bad_config = full.replace("\"beam_size\":10", "\"beam_size\":0");
        assert_ne!(bad_config, full, "replacement must hit the config field");
        assert!(matches!(
            Kamel::from_json(&bad_config),
            Err(crate::error::KamelError::InvalidConfig(_))
        ));
    }

    #[test]
    fn truncated_checkpoint_tail_falls_back_to_backup() {
        let a = trained();
        let dir = ckpt_dir("truncate");
        let path = dir.join("model.ckpt");
        a.save_to_file(&path).expect("save A");
        // A second training batch makes a distinct post-save state.
        a.train(&street_corpus(5));
        a.save_to_file(&path).expect("save B");
        let stats_b = a.stats().unwrap();
        assert_eq!(
            Kamel::load_from_file(&path).expect("clean load").stats().unwrap(),
            stats_b
        );
        // Truncate the live checkpoint's last 64 bytes: the loader must
        // recover the previous checkpoint from the rotation.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 64]).unwrap();
        let recovered = Kamel::load_from_file(&path).expect("fallback load");
        let stats_a = recovered.stats().unwrap();
        assert_eq!(stats_a.stored_trajectories, 40, "recovered pre-save state");
        assert_ne!(stats_a, stats_b);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The acceptance-criterion fault matrix, round-tripped through
    /// imputation: after every injected fault during a save, the model
    /// that loads back imputes byte-identically to either the pre-save or
    /// the post-save system — never something in between.
    #[test]
    fn fault_matrix_roundtrips_imputation_output() {
        use crate::checkpoint::faults::{Fault, FaultyIo};
        let a = trained();
        let sparse = street_corpus(1)[0].sparsify(900.0);
        let out_a = a.impute(&sparse);
        // The post-save state: the same system after one more batch.
        let b = trained();
        b.train(&street_corpus(5));
        let out_b = b.impute(&sparse);
        let b_wire =
            crate::checkpoint::encode(b.to_json().expect("serialize").as_bytes());
        let faults = [
            Fault::ShortWrite { keep: 100 },
            Fault::ShortWrite { keep: b_wire.len() - 1 },
            Fault::Enospc { after: 0 },
            Fault::Enospc { after: b_wire.len() / 2 },
            Fault::CrashBeforeRename,
            // Leaves no live file at all: only the rotated `.bak` exists.
            Fault::CrashBetweenRenames,
        ];
        for (i, fault) in faults.into_iter().enumerate() {
            let dir = ckpt_dir(&format!("matrix_{i}"));
            let path = dir.join("model.ckpt");
            a.save_to_file(&path).expect("pre-save");
            crate::checkpoint::write_atomic_with(&FaultyIo::new(fault), &path, &b_wire, true)
                .expect_err("fault must surface");
            let recovered = Kamel::load_from_file(&path)
                .unwrap_or_else(|e| panic!("{fault:?}: recovery failed: {e}"));
            assert_eq!(
                recovered.impute(&sparse),
                out_a,
                "{fault:?}: recovered model is not the pre-save system"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
        // Corruption after a *successful* save: a bit flip on the live
        // file → fallback to the rotated pre-save checkpoint.
        let dir = ckpt_dir("matrix_bitflip");
        let path = dir.join("model.ckpt");
        a.save_to_file(&path).expect("pre-save");
        b.save_to_file(&path).expect("post-save");
        assert_eq!(
            Kamel::load_from_file(&path).expect("clean").impute(&sparse),
            out_b,
            "clean post-save load is the post-save system"
        );
        // One offset in each validated region: magic, version, length,
        // recorded CRC, first payload byte, a late payload byte.
        let clean = std::fs::read(&path).unwrap();
        let header = crate::checkpoint::HEADER_LEN;
        for offset in [0, 8, 12, 20, header, clean.len() - 40] {
            let mut bytes = clean.clone();
            bytes[offset] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
            let recovered = Kamel::load_from_file(&path)
                .unwrap_or_else(|e| panic!("flip at {offset}: recovery failed: {e}"));
            assert_eq!(recovered.impute(&sparse), out_a, "flip at {offset}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn both_copies_unusable_is_an_error_naming_both_paths() {
        let a = trained();
        let dir = ckpt_dir("both_bad");
        let path = dir.join("model.ckpt");
        a.save_to_file(&path).expect("save");
        a.save_to_file(&path).expect("save again: rotates a backup");
        let bak = crate::checkpoint::bak_path(&path);
        for file in [&path, &bak] {
            let bytes = std::fs::read(file).unwrap();
            std::fs::write(file, &bytes[..bytes.len() - 64]).unwrap();
        }
        let err = match Kamel::load_from_file(&path) {
            Ok(_) => panic!("two truncated copies must not load"),
            Err(e) => e.to_string(),
        };
        assert!(err.contains("model.ckpt:"), "{err}");
        assert!(err.contains(bak.to_str().unwrap()), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_none_before_training() {
        let kamel = Kamel::new(KamelConfig::default());
        assert!(!kamel.is_trained());
        assert!(kamel.stats().is_none());
    }

    #[test]
    fn gap_context_keys_match_anchor_structure() {
        let kamel = trained();
        let sparse = Trajectory::new(vec![
            GpsPoint::from_parts(41.15, -8.610, 0.0),
            GpsPoint::from_parts(41.15, -8.609, 10.0),
            GpsPoint::from_parts(41.15, -8.589, 210.0),
        ]);
        let (cells, spans) = kamel.gap_context(&sparse).expect("trained");
        assert!(!cells.is_empty());
        assert_eq!(spans.len(), cells.len() - 1);
        assert!(spans.iter().all(|s| *s >= 0.0 && s.is_finite()));
        // Same trajectory → same context; a shifted copy → different cells.
        assert_eq!(kamel.gap_context(&sparse), Some((cells.clone(), spans)));
        let shifted = Trajectory::new(
            sparse
                .points
                .iter()
                .map(|p| GpsPoint::from_parts(p.pos.lat + 0.01, p.pos.lng, p.t))
                .collect(),
        );
        let (shifted_cells, _) = kamel.gap_context(&shifted).expect("trained");
        assert_ne!(cells, shifted_cells);
        // Untrained systems have no tokenizer, hence no context.
        assert!(Kamel::new(KamelConfig::default()).gap_context(&sparse).is_none());
    }

    #[test]
    fn percentile_basics() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&mut v, 0.0), Some(1.0));
        assert_eq!(percentile(&mut v, 1.0), Some(5.0));
        assert_eq!(percentile(&mut v, 0.5), Some(3.0));
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn straight_line_spacing() {
        let pts = straight_line_points(Xy::new(0.0, 0.0), Xy::new(350.0, 0.0), 100.0);
        assert_eq!(pts.len(), 3); // 87.5, 175, 262.5
        for w in pts.windows(2) {
            assert!(w[0].dist(&w[1]) <= 100.0);
        }
    }

    #[test]
    fn time_points_are_monotone() {
        let interior = vec![Xy::new(100.0, 0.0), Xy::new(200.0, 0.0)];
        let timed = time_points(Xy::new(0.0, 0.0), Xy::new(300.0, 0.0), 0.0, 30.0, &interior);
        assert_eq!(timed.len(), 2);
        assert!((timed[0].1 - 10.0).abs() < 1e-9);
        assert!((timed[1].1 - 20.0).abs() < 1e-9);
    }

    #[test]
    fn tune_cell_size_picks_a_candidate() {
        let corpus = street_corpus(30);
        let base = KamelConfig::builder()
            .model_threshold_k(50)
            .pyramid_height(3)
            .build();
        let edge = tune_cell_size(&corpus, &[50.0, 75.0, 150.0], &base, 50.0, 500.0);
        assert!([50.0, 75.0, 150.0].contains(&edge));
    }
}
