//! Partitioning — the pyramid model repository (§4).
//!
//! KAMEL keeps one language model per spatial region instead of one global
//! model, like BERT keeps one model per language. Regions form a pyramid of
//! `H` levels: level 0 is one root cell over the whole space, level `l`
//! splits it into `4^l` equal cells. Only the lowest `L` levels are
//! maintained (§4.1): larger cells would need more data than is ever
//! available. A cell at level `l` earns a **single-cell model** once it
//! holds `k × 4^(leaf − l)` tokens; an edge-adjacent pair earns a
//! **neighbor-cell model** at twice that threshold, stored in the north/west
//! cell of the pair with the other cell holding a pointer (here: looked up
//! from either side).
//!
//! Retrieval walks from the leaf level upward and returns the smallest cell
//! or pair that fully encloses a query rectangle and has a model (§4.1).
//! Maintenance (§4.2) re-trains every maintained cell that intersects a new
//! training batch from the trajectory store — functionally the paper's
//! four-step incremental procedure, run as one batch pass. Cells are
//! independent training jobs, so maintenance fans them out over a worker
//! pool (see [`Repository::maintain_with_threads`]); results are applied in
//! sorted key order, keeping repository state identical for every thread
//! count.

use crate::config::KamelConfig;
use kamel_geo::{BBox, Xy};
use kamel_lm::{EngineConfig, TrainedModel};
use kamel_trajstore::TrajStore;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Address of one pyramid cell: level plus grid coordinates within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PyramidKey {
    /// Pyramid level; 0 is the root.
    pub level: u8,
    /// Column within the level (0..2^level).
    pub x: u32,
    /// Row within the level (0..2^level).
    pub y: u32,
}

/// Bookkeeping stored with every trained model (§4.1 "metadata, which
/// include model statistics and last update date").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelMeta {
    /// Tokens in the training corpus when the model was (re)built.
    pub trained_tokens: u64,
    /// Trajectories in the corpus.
    pub corpus_trajectories: usize,
    /// How many times this model has been rebuilt.
    pub updates: u32,
}

/// A trained model plus its metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelEntry {
    /// The language model.
    pub model: TrainedModel,
    /// Statistics about its training corpus.
    pub meta: ModelMeta,
}

/// Contents of one materialized pyramid cell.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct PyramidCell {
    /// Model over this cell alone.
    single: Option<ModelEntry>,
    /// Neighbor-cell model over this cell ∪ its east neighbor (this cell is
    /// the west member, so the model is stored here per §4.1).
    pair_east: Option<ModelEntry>,
    /// Neighbor-cell model over this cell ∪ its south neighbor (this cell
    /// is the north member).
    pair_south: Option<ModelEntry>,
}

/// Which repository model a retrieval returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelSelection {
    /// Single-cell model at the key.
    Single(PyramidKey),
    /// Neighbor-cell model stored at the key (west/north member), spanning
    /// the key's cell and its east (`true`) or south (`false`) neighbor.
    Pair(PyramidKey, bool),
    /// The global model (partitioning disabled, §8.7 "No Part.").
    Global,
}

/// Human-readable description of one stored model, for inspection tools.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSummary {
    /// "global", "single", or "pair".
    pub kind: String,
    /// Pyramid level (`None` for the global model).
    pub level: Option<u8>,
    /// Cell coordinates at that level (`None` for the global model).
    pub cell: Option<(u32, u32)>,
    /// Distinct tokens in the model's vocabulary.
    pub vocab: usize,
    /// Tokens in the training corpus at the last (re)build.
    pub trained_tokens: u64,
    /// Training sentences (trajectory runs).
    pub corpus_trajectories: usize,
    /// Rebuild count.
    pub updates: u32,
}

/// The model repository.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Repository {
    root: BBox,
    height: usize,
    maintained: usize,
    k: u64,
    #[serde(with = "cells_serde")]
    cells: HashMap<PyramidKey, PyramidCell>,
    global: Option<ModelEntry>,
}

impl Repository {
    /// Creates an empty repository over `root` with the configured pyramid
    /// shape.
    pub fn new(root: BBox, config: &KamelConfig) -> Self {
        Self {
            root,
            height: config.pyramid_height,
            maintained: config.pyramid_maintained,
            k: config.model_threshold_k,
            cells: HashMap::new(),
            global: None,
        }
    }

    /// The space the pyramid covers.
    pub fn root_bbox(&self) -> BBox {
        self.root
    }

    /// Deepest (leaf) level index.
    pub fn leaf_level(&self) -> u8 {
        (self.height - 1) as u8
    }

    /// The maintained levels, deepest first (§4.1: only the lowest `L`
    /// levels hold models).
    pub fn maintained_levels(&self) -> impl Iterator<Item = u8> {
        let leaf = self.leaf_level();
        let top = (self.height - self.maintained) as u8;
        (top..=leaf).rev()
    }

    /// Token threshold for a single-cell model at `level`:
    /// `k × 4^(leaf − level)` (§4.1).
    pub fn threshold(&self, level: u8) -> u64 {
        self.k * 4u64.pow((self.leaf_level() - level) as u32)
    }

    /// Planar rectangle of a pyramid cell.
    pub fn cell_bbox(&self, key: PyramidKey) -> BBox {
        let n = 1u32 << key.level;
        let w = self.root.width() / n as f64;
        let h = self.root.height() / n as f64;
        let min = Xy::new(
            self.root.min.x + key.x as f64 * w,
            self.root.min.y + key.y as f64 * h,
        );
        BBox::new(min, Xy::new(min.x + w, min.y + h))
    }

    /// The cell containing a point at `level`, or `None` when outside the
    /// root.
    pub fn key_of(&self, level: u8, p: Xy) -> Option<PyramidKey> {
        if !self.root.contains(p) {
            return None;
        }
        let n = 1u32 << level;
        let fx = (p.x - self.root.min.x) / self.root.width().max(f64::MIN_POSITIVE);
        let fy = (p.y - self.root.min.y) / self.root.height().max(f64::MIN_POSITIVE);
        let x = ((fx * n as f64) as u32).min(n - 1);
        let y = ((fy * n as f64) as u32).min(n - 1);
        Some(PyramidKey { level, x, y })
    }

    /// Number of models currently stored (single + pair + global).
    pub fn model_count(&self) -> usize {
        let mut n = usize::from(self.global.is_some());
        for cell in self.cells.values() {
            n += usize::from(cell.single.is_some());
            n += usize::from(cell.pair_east.is_some());
            n += usize::from(cell.pair_south.is_some());
        }
        n
    }

    /// Iterates over `(key, is_pair)` entries of all stored models.
    pub fn model_keys(&self) -> Vec<ModelSelection> {
        let mut out = Vec::new();
        if self.global.is_some() {
            out.push(ModelSelection::Global);
        }
        let mut keys: Vec<&PyramidKey> = self.cells.keys().collect();
        keys.sort();
        for key in keys {
            let cell = &self.cells[key];
            if cell.single.is_some() {
                out.push(ModelSelection::Single(*key));
            }
            if cell.pair_east.is_some() {
                out.push(ModelSelection::Pair(*key, true));
            }
            if cell.pair_south.is_some() {
                out.push(ModelSelection::Pair(*key, false));
            }
        }
        out
    }

    /// Summaries of every stored model, deepest level first — what the
    /// `kamel stats` CLI and operational dashboards display.
    pub fn summaries(&self) -> Vec<ModelSummary> {
        use kamel_lm::MaskedTokenModel;
        let mut out = Vec::new();
        for sel in self.model_keys() {
            let Some(entry) = self.entry(sel) else { continue };
            let (kind, level, cell) = match sel {
                ModelSelection::Global => ("global".to_string(), None, None),
                ModelSelection::Single(k) => ("single".to_string(), Some(k.level), Some((k.x, k.y))),
                ModelSelection::Pair(k, east) => (
                    format!("pair-{}", if east { "east" } else { "south" }),
                    Some(k.level),
                    Some((k.x, k.y)),
                ),
            };
            out.push(ModelSummary {
                kind,
                level,
                cell,
                vocab: entry.model.vocab_len(),
                trained_tokens: entry.meta.trained_tokens,
                corpus_trajectories: entry.meta.corpus_trajectories,
                updates: entry.meta.updates,
            });
        }
        out.sort_by(|a, b| b.level.cmp(&a.level).then(a.cell.cmp(&b.cell)));
        out
    }

    /// Resolves a selection to its model entry.
    pub fn entry(&self, sel: ModelSelection) -> Option<&ModelEntry> {
        match sel {
            ModelSelection::Global => self.global.as_ref(),
            ModelSelection::Single(key) => self.cells.get(&key)?.single.as_ref(),
            ModelSelection::Pair(key, east) => {
                let cell = self.cells.get(&key)?;
                if east {
                    cell.pair_east.as_ref()
                } else {
                    cell.pair_south.as_ref()
                }
            }
        }
    }

    /// §4.1 retrieval: the smallest cell or neighbor-cell pair that fully
    /// encloses `query` and has a model. Falls back to the global model when
    /// partitioning is disabled.
    pub fn find_model(&self, query: &BBox) -> Option<(ModelSelection, &TrainedModel)> {
        let sel = self.find_selection(query, |s| self.entry(s).is_some())?;
        Some((sel, &self.entry(sel)?.model))
    }

    /// The §4.1 retrieval walk with membership abstracted out: returns the
    /// smallest enclosing selection for which `has` reports a model. Only
    /// the pyramid *shape* (root, levels) is consulted — an external model
    /// source (the mmap store) runs this on a [`Repository::skeleton`]
    /// against its own record membership, so both sources pick the same
    /// model for every query by construction.
    pub fn find_selection(
        &self,
        query: &BBox,
        has: impl Fn(ModelSelection) -> bool,
    ) -> Option<ModelSelection> {
        if has(ModelSelection::Global) {
            return Some(ModelSelection::Global);
        }
        for level in self.maintained_levels() {
            let kmin = self.key_of(level, query.min);
            let kmax = self.key_of(level, query.max);
            let (Some(kmin), Some(kmax)) = (kmin, kmax) else {
                continue;
            };
            if kmin == kmax {
                let sel = ModelSelection::Single(kmin);
                if has(sel) {
                    return Some(sel);
                }
                continue;
            }
            let dx = kmax.x as i64 - kmin.x as i64;
            let dy = kmax.y as i64 - kmin.y as i64;
            // East pair: stored at the west cell (kmin when dx == 1).
            if dx == 1 && dy == 0 {
                let sel = ModelSelection::Pair(kmin, true);
                if has(sel) {
                    return Some(sel);
                }
            }
            // South pair: stored at the north cell. With y growing north,
            // the north member is the one with the larger y (kmax here when
            // dy == 1).
            if dx == 0 && dy == 1 {
                let sel = ModelSelection::Pair(kmax, false);
                if has(sel) {
                    return Some(sel);
                }
            }
        }
        None
    }

    /// A copy of the pyramid shape with every model dropped: the retrieval
    /// geometry (root, height, maintained levels, threshold base) without
    /// the weights. This is what `kamel pack` persists as the store's
    /// meta record — a few hundred bytes standing in for gigabytes of
    /// models — and what the store's resident set drives
    /// [`Repository::find_selection`] on at serve time.
    pub fn skeleton(&self) -> Repository {
        Repository {
            root: self.root,
            height: self.height,
            maintained: self.maintained,
            k: self.k,
            cells: HashMap::new(),
            global: None,
        }
    }

    /// §4.2 maintenance: re-trains every maintained cell (and neighbor pair)
    /// whose region intersects `dirty` and meets its token threshold, using
    /// the trajectory store as the corpus source (the store already holds
    /// old + new trajectories, which is the paper's "enrich" step).
    ///
    /// Cell jobs run on the process-wide thread budget; see
    /// [`Repository::maintain_with_threads`].
    ///
    /// Returns the number of models built or refreshed.
    pub fn maintain(&mut self, store: &TrajStore, dirty: &BBox, engine: &EngineConfig) -> usize {
        self.maintain_with_threads(store, dirty, engine, crate::threads::thread_budget())
    }

    /// [`Repository::maintain`] with an explicit worker-thread count.
    ///
    /// Every affected cell is an independent training job (its own corpus,
    /// its own seeded RNG), so scoped workers claim jobs off a shared cursor.
    /// Results are applied in sorted key order and each job is internally
    /// deterministic, so the repository state is identical for every
    /// `threads` value.
    pub fn maintain_with_threads(
        &mut self,
        store: &TrajStore,
        dirty: &BBox,
        engine: &EngineConfig,
        threads: usize,
    ) -> usize {
        let jobs = self.plan_jobs(dirty);
        let threads = threads.clamp(1, jobs.len().max(1));
        let mut builds: Vec<(PyramidKey, CellBuild)> = if threads <= 1 {
            jobs.iter()
                .map(|job| (job.key, build_cell(job, store, engine)))
                .collect()
        } else {
            // Relaxed: the cursor only hands out indices; joining the
            // workers is what publishes their results.
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                let workers: Vec<_> = (0..threads)
                    .map(|_| {
                        s.spawn(|| {
                            let mut built = Vec::new();
                            while let Some(job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                                built.push((job.key, build_cell(job, store, engine)));
                            }
                            built
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|w| w.join().expect("maintenance worker panicked"))
                    .collect()
            })
        };
        // Apply in sorted key order so repository state never depends on
        // worker scheduling.
        builds.sort_by_key(|(key, _)| *key);
        let mut built = 0usize;
        for (key, build) in builds {
            if let Some(entry) = build.single {
                let cell = self.cells.entry(key).or_default();
                let updates = cell.single.as_ref().map_or(0, |e| e.meta.updates) + 1;
                cell.single = Some(with_updates(entry, updates));
                built += 1;
            }
            if let Some(entry) = build.pair_east {
                let cell = self.cells.entry(key).or_default();
                let updates = cell.pair_east.as_ref().map_or(0, |e| e.meta.updates) + 1;
                cell.pair_east = Some(with_updates(entry, updates));
                built += 1;
            }
            if let Some(entry) = build.pair_south {
                let cell = self.cells.entry(key).or_default();
                let updates = cell.pair_south.as_ref().map_or(0, |e| e.meta.updates) + 1;
                cell.pair_south = Some(with_updates(entry, updates));
                built += 1;
            }
        }
        built
    }

    /// Enumerates the training jobs for one maintenance pass: every
    /// maintained-level cell intersecting `dirty`, with its region, token
    /// threshold, and (where the grid has room) the east/south pair-region
    /// unions precomputed so workers never touch `self`.
    fn plan_jobs(&self, dirty: &BBox) -> Vec<CellJob> {
        let mut jobs = Vec::new();
        for level in self.maintained_levels() {
            let n = 1u32 << level;
            // Cells at this level intersecting the dirty region.
            let Some(kmin) = self.key_of(level, clamp_to(self.root, dirty.min)) else {
                continue;
            };
            let Some(kmax) = self.key_of(level, clamp_to(self.root, dirty.max)) else {
                continue;
            };
            for x in kmin.x..=kmax.x.min(n - 1) {
                for y in kmin.y..=kmax.y.min(n - 1) {
                    let key = PyramidKey { level, x, y };
                    let bbox = self.cell_bbox(key);
                    // East neighbor pair (stored here, the west member).
                    let east_union = (key.x + 1 < n)
                        .then(|| bbox.union(&self.cell_bbox(PyramidKey { x: key.x + 1, ..key })));
                    // South neighbor pair (stored here, the north member).
                    let south_union = (key.y > 0)
                        .then(|| bbox.union(&self.cell_bbox(PyramidKey { y: key.y - 1, ..key })));
                    jobs.push(CellJob {
                        key,
                        bbox,
                        threshold: self.threshold(level),
                        east_union,
                        south_union,
                    });
                }
            }
        }
        jobs
    }

    /// Trains the single global model (the §8.7 "No Part." ablation).
    pub fn train_global(&mut self, store: &TrajStore, engine: &EngineConfig) {
        let corpus: Vec<Vec<u64>> = store
            .iter()
            .map(|(_, t)| t.dedup_cells().iter().map(|c| c.0).collect())
            .collect();
        let trained_tokens: u64 = corpus.iter().map(|s| s.len() as u64).sum();
        let updates = self.global.as_ref().map_or(0, |e| e.meta.updates) + 1;
        self.global = Some(ModelEntry {
            model: engine.train(&corpus),
            meta: ModelMeta {
                trained_tokens,
                corpus_trajectories: corpus.len(),
                updates,
            },
        });
    }

    /// Iterates over every stored model entry (cells plus global).
    fn models(&self) -> impl Iterator<Item = &ModelEntry> {
        self.cells
            .values()
            .flat_map(|c| {
                [c.single.as_ref(), c.pair_east.as_ref(), c.pair_south.as_ref()].into_iter()
            })
            .chain(std::iter::once(self.global.as_ref()))
            .flatten()
    }

    /// Mutable variant of [`Repository::models`].
    fn models_mut(&mut self) -> impl Iterator<Item = &mut ModelEntry> {
        self.cells
            .values_mut()
            .flat_map(|c| {
                [c.single.as_mut(), c.pair_east.as_mut(), c.pair_south.as_mut()].into_iter()
            })
            .chain(std::iter::once(self.global.as_mut()))
            .flatten()
    }

    /// Switches every BERT model to the int8 serving path — but only after
    /// gating: each quantizable model's top-1 agreement with its f32 twin is
    /// measured over `probes` seeded probes, and if the worst agreement falls
    /// below `min_agreement` **no model is quantized** and
    /// [`crate::KamelError::QuantizationRejected`] is returned (ISSUE 6's
    /// "server refuses" semantics). On success returns the worst agreement
    /// observed (`1.0` when there is nothing to quantize, e.g. n-gram
    /// repositories).
    pub fn enable_quantization(
        &mut self,
        min_agreement: f64,
        probes: usize,
        seed: u64,
    ) -> Result<f64, crate::KamelError> {
        let mut worst = 1.0f64;
        for entry in self.models() {
            if let Some(agreement) = entry.model.quantization_agreement(probes, seed) {
                worst = worst.min(agreement);
            }
        }
        if worst < min_agreement {
            return Err(crate::KamelError::QuantizationRejected {
                agreement: worst,
                min: min_agreement,
            });
        }
        for entry in self.models_mut() {
            entry.model.enable_quantization();
        }
        Ok(worst)
    }

    /// Reverts every model to the f32 serving path.
    pub fn disable_quantization(&mut self) {
        for entry in self.models_mut() {
            entry.model.disable_quantization();
        }
    }

    /// Number of stored models currently serving through the int8 path.
    pub fn quantized_models(&self) -> usize {
        self.models().filter(|e| e.model.is_quantized()).count()
    }
}

/// One cell's maintenance work order, fully resolved from read-only
/// repository state so it can be executed on any worker thread.
struct CellJob {
    key: PyramidKey,
    bbox: BBox,
    threshold: u64,
    /// Region of this cell ∪ its east neighbor, when one exists.
    east_union: Option<BBox>,
    /// Region of this cell ∪ its south neighbor, when one exists.
    south_union: Option<BBox>,
}

/// Freshly trained models for one cell (update counters not yet applied).
#[derive(Default)]
struct CellBuild {
    single: Option<ModelEntry>,
    pair_east: Option<ModelEntry>,
    pair_south: Option<ModelEntry>,
}

/// Trains one cell's single model and its east/south pair models when
/// their token thresholds are met. Pure function of the job, store, and
/// engine — safe to run concurrently across cells.
fn build_cell(job: &CellJob, store: &TrajStore, engine: &EngineConfig) -> CellBuild {
    let mut build = CellBuild::default();
    if store.token_count_in(&job.bbox) >= job.threshold {
        build.single = train_on_region(store, &job.bbox, engine);
    }
    if let Some(union) = &job.east_union {
        if store.token_count_in(union) >= 2 * job.threshold {
            build.pair_east = train_on_region(store, union, engine);
        }
    }
    if let Some(union) = &job.south_union {
        if store.token_count_in(union) >= 2 * job.threshold {
            build.pair_south = train_on_region(store, union, engine);
        }
    }
    build
}

fn clamp_to(bbox: BBox, p: Xy) -> Xy {
    Xy::new(
        p.x.clamp(bbox.min.x, bbox.max.x),
        p.y.clamp(bbox.min.y, bbox.max.y),
    )
}

fn with_updates(mut entry: ModelEntry, updates: u32) -> ModelEntry {
    entry.meta.updates = updates;
    entry
}

/// Trains a model on all traffic through `region`: the in-region runs of
/// every stored trajectory that intersects it (fully enclosed trajectories
/// contribute their whole token sentence; crossing trajectories contribute
/// their clipped portions — see `TrajStore::clipped_cell_runs`).
fn train_on_region(store: &TrajStore, region: &BBox, engine: &EngineConfig) -> Option<ModelEntry> {
    let runs = store.clipped_cell_runs(region, 2);
    if runs.is_empty() {
        return None;
    }
    let corpus: Vec<Vec<u64>> = runs
        .iter()
        .map(|run| {
            let mut sentence: Vec<u64> = Vec::with_capacity(run.len());
            for cell in run {
                if sentence.last() != Some(&cell.0) {
                    sentence.push(cell.0);
                }
            }
            sentence
        })
        .collect();
    let trained_tokens: u64 = corpus.iter().map(|s| s.len() as u64).sum();
    Some(ModelEntry {
        model: engine.train(&corpus),
        meta: ModelMeta {
            trained_tokens,
            corpus_trajectories: corpus.len(),
            updates: 0,
        },
    })
}

/// Serializes the `PyramidKey`-keyed map as a pair list for JSON safety.
mod cells_serde {
    use super::{PyramidCell, PyramidKey};
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::collections::HashMap;

    pub fn serialize<S: Serializer>(
        map: &HashMap<PyramidKey, PyramidCell>,
        ser: S,
    ) -> Result<S::Ok, S::Error> {
        let mut pairs: Vec<(&PyramidKey, &PyramidCell)> = map.iter().collect();
        pairs.sort_by_key(|(k, _)| **k);
        pairs.serialize(ser)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(
        de: D,
    ) -> Result<HashMap<PyramidKey, PyramidCell>, D::Error> {
        let pairs: Vec<(PyramidKey, PyramidCell)> = Vec::deserialize(de)?;
        Ok(pairs.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamel_hexgrid::CellId;
    use kamel_trajstore::TokenTrajectory;

    include!("../../../tests/common/canonical_json.rs");

    fn config() -> KamelConfig {
        KamelConfig::builder()
            .pyramid_height(3)
            .pyramid_maintained(3)
            .model_threshold_k(10)
            .build()
    }

    fn root() -> BBox {
        BBox::new(Xy::new(0.0, 0.0), Xy::new(1600.0, 1600.0))
    }

    /// Inserts `n` short trajectories confined to `region` into the store.
    fn fill_region(store: &mut TrajStore, region: BBox, n: usize) {
        let w = region.width();
        let h = region.height();
        for i in 0..n {
            let base_x = region.min.x + w * 0.2 + (i as f64 * 13.0) % (w * 0.6);
            let base_y = region.min.y + h * 0.2 + (i as f64 * 7.0) % (h * 0.6);
            let xy: Vec<Xy> = (0..5)
                .map(|j| Xy::new(base_x + j as f64 * 5.0, base_y))
                .collect();
            let cells: Vec<CellId> = xy
                .iter()
                .map(|p| CellId::from_coords((p.x / 75.0) as i32, (p.y / 75.0) as i32))
                .collect();
            let t: Vec<f64> = (0..5).map(|j| j as f64).collect();
            store.insert(TokenTrajectory::new(cells, xy, t));
        }
    }

    #[test]
    fn thresholds_scale_by_level() {
        let repo = Repository::new(root(), &config());
        // height 3: leaf level 2.
        assert_eq!(repo.leaf_level(), 2);
        assert_eq!(repo.threshold(2), 10);
        assert_eq!(repo.threshold(1), 40);
        assert_eq!(repo.threshold(0), 160);
        let levels: Vec<u8> = repo.maintained_levels().collect();
        assert_eq!(levels, vec![2, 1, 0]);
    }

    #[test]
    fn cell_bbox_partitions_the_root() {
        let repo = Repository::new(root(), &config());
        let k = PyramidKey { level: 1, x: 1, y: 0 };
        let bb = repo.cell_bbox(k);
        assert_eq!(bb.min, Xy::new(800.0, 0.0));
        assert_eq!(bb.max, Xy::new(1600.0, 800.0));
        // key_of inverts cell_bbox centers.
        assert_eq!(repo.key_of(1, bb.center()), Some(k));
        // Outside the root → None.
        assert_eq!(repo.key_of(1, Xy::new(-1.0, 0.0)), None);
    }

    #[test]
    fn maintenance_builds_models_where_data_is() {
        let cfg = config();
        let mut repo = Repository::new(root(), &cfg);
        let mut store = TrajStore::new(200.0);
        // Fill one leaf cell (level 2, cell (0,0): [0,400)²) heavily.
        let region = BBox::new(Xy::new(0.0, 0.0), Xy::new(400.0, 400.0));
        fill_region(&mut store, region, 30); // 150 tokens ≥ threshold 10
        let built = repo.maintain(&store, &region, &EngineConfig::default());
        assert!(built >= 1, "no models built");
        // Retrieval for a query inside that leaf returns the leaf model.
        let query = BBox::new(Xy::new(50.0, 50.0), Xy::new(300.0, 300.0));
        let (sel, _) = repo.find_model(&query).expect("model expected");
        assert_eq!(
            sel,
            ModelSelection::Single(PyramidKey { level: 2, x: 0, y: 0 })
        );
    }

    #[test]
    fn quantization_gate_is_all_or_nothing() {
        let cfg = config();
        let mut repo = Repository::new(root(), &cfg);
        let mut store = TrajStore::new(200.0);
        let region = BBox::new(Xy::new(0.0, 0.0), Xy::new(400.0, 400.0));
        fill_region(&mut store, region, 30);
        let engine = EngineConfig::Bert(kamel_lm::BertEngineConfig::for_tests());
        let built = repo.maintain(&store, &region, &engine);
        assert!(built >= 1, "no models built");
        // An unreachable bound (top-1 agreement cannot exceed 1.0) refuses
        // and leaves every model on the f32 path — gating is all-or-nothing.
        let err = repo.enable_quantization(1.5, 8, 7).unwrap_err();
        assert!(
            matches!(err, crate::KamelError::QuantizationRejected { .. }),
            "unexpected error: {err:?}"
        );
        assert_eq!(repo.quantized_models(), 0);
        // A permissive bound quantizes every BERT model.
        let worst = repo.enable_quantization(0.0, 8, 7).expect("gate passes");
        assert!((0.0..=1.0).contains(&worst), "agreement out of range: {worst}");
        assert_eq!(repo.quantized_models(), repo.model_count());
        repo.disable_quantization();
        assert_eq!(repo.quantized_models(), 0);
    }

    #[test]
    fn ngram_repositories_have_nothing_to_quantize() {
        let cfg = config();
        let mut repo = Repository::new(root(), &cfg);
        let mut store = TrajStore::new(200.0);
        let region = BBox::new(Xy::new(0.0, 0.0), Xy::new(400.0, 400.0));
        fill_region(&mut store, region, 30);
        repo.maintain(&store, &region, &EngineConfig::default());
        // No quantizable models: the gate trivially passes at the tightest
        // legal bound and nothing switches paths.
        assert_eq!(repo.enable_quantization(1.0, 8, 7), Ok(1.0));
        assert_eq!(repo.quantized_models(), 0);
    }

    #[test]
    fn retrieval_returns_smallest_enclosing_model() {
        let cfg = config();
        let mut repo = Repository::new(root(), &cfg);
        let mut store = TrajStore::new(200.0);
        // Data everywhere: every maintained level passes its threshold.
        fill_region(&mut store, root(), 700);
        repo.maintain(&store, &root(), &EngineConfig::default());
        // A tiny query must resolve at the deepest level with a model.
        let query = BBox::new(Xy::new(10.0, 10.0), Xy::new(60.0, 60.0));
        let (sel, _) = repo.find_model(&query).expect("model");
        match sel {
            ModelSelection::Single(k) => assert_eq!(k.level, 2, "expected leaf, got {k:?}"),
            other => panic!("expected single-cell model, got {other:?}"),
        }
        // A root-spanning query resolves at the root (level 0) if its
        // threshold was met.
        let wide = BBox::new(Xy::new(100.0, 100.0), Xy::new(1500.0, 1500.0));
        if let Some((sel, _)) = repo.find_model(&wide) {
            match sel {
                ModelSelection::Single(k) => assert_eq!(k.level, 0),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn neighbor_pair_models_cover_boundaries() {
        let cfg = config();
        let mut repo = Repository::new(root(), &cfg);
        let mut store = TrajStore::new(200.0);
        // Data straddling the vertical boundary between leaf cells (0,0)
        // and (1,0) at x = 400.
        fill_region(&mut store, BBox::new(Xy::new(250.0, 50.0), Xy::new(390.0, 350.0)), 30);
        fill_region(&mut store, BBox::new(Xy::new(410.0, 50.0), Xy::new(550.0, 350.0)), 30);
        repo.maintain(&store, &root(), &EngineConfig::default());
        // A query spanning the boundary cannot fit one leaf cell; the east
        // pair stored at (0,0) must pick it up.
        let query = BBox::new(Xy::new(300.0, 100.0), Xy::new(500.0, 300.0));
        let (sel, _) = repo.find_model(&query).expect("pair model expected");
        match sel {
            ModelSelection::Pair(k, east) => {
                assert!(east);
                assert_eq!(k, PyramidKey { level: 2, x: 0, y: 0 });
            }
            // A coarser single cell also legitimately covers the query if
            // its threshold was met — but level-1 cell (0,0) needs 40 tokens
            // and has 300, so the pair at the deeper level must win because
            // retrieval is deepest-first.
            other => panic!("expected east pair, got {other:?}"),
        }
    }

    #[test]
    fn no_model_for_uncovered_regions() {
        let cfg = config();
        let mut repo = Repository::new(root(), &cfg);
        let mut store = TrajStore::new(200.0);
        fill_region(&mut store, BBox::new(Xy::new(0.0, 0.0), Xy::new(350.0, 350.0)), 30);
        repo.maintain(&store, &root(), &EngineConfig::default());
        // Query in the empty far corner.
        let query = BBox::new(Xy::new(1200.0, 1200.0), Xy::new(1500.0, 1500.0));
        assert!(repo.find_model(&query).is_none());
    }

    #[test]
    fn global_model_short_circuits_retrieval() {
        let cfg = config();
        let mut repo = Repository::new(root(), &cfg);
        let mut store = TrajStore::new(200.0);
        fill_region(&mut store, root(), 20);
        repo.train_global(&store, &EngineConfig::default());
        let (sel, _) = repo
            .find_model(&BBox::new(Xy::new(0.0, 0.0), Xy::new(10.0, 10.0)))
            .expect("global");
        assert_eq!(sel, ModelSelection::Global);
        assert_eq!(repo.model_count(), 1);
    }

    #[test]
    fn summaries_describe_every_model() {
        let cfg = config();
        let mut repo = Repository::new(root(), &cfg);
        let mut store = TrajStore::new(200.0);
        fill_region(&mut store, root(), 700);
        repo.maintain(&store, &root(), &EngineConfig::default());
        let summaries = repo.summaries();
        assert_eq!(summaries.len(), repo.model_count());
        assert!(summaries.iter().all(|s| s.vocab > 0 && s.trained_tokens > 0));
        // Deepest first.
        let levels: Vec<_> = summaries.iter().map(|s| s.level).collect();
        let mut sorted = levels.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(levels, sorted);
        // Kinds are the expected vocabulary.
        for s in &summaries {
            assert!(
                s.kind == "single" || s.kind.starts_with("pair-") || s.kind == "global",
                "{s:?}"
            );
        }
    }

    #[test]
    fn maintenance_is_thread_count_invariant() {
        let cfg = config();
        let mut store = TrajStore::new(200.0);
        fill_region(&mut store, root(), 700);
        let mut seq = Repository::new(root(), &cfg);
        seq.maintain_with_threads(&store, &root(), &EngineConfig::default(), 1);
        let mut par = Repository::new(root(), &cfg);
        par.maintain_with_threads(&store, &root(), &EngineConfig::default(), 4);
        assert!(seq.model_count() > 1, "want a multi-model pyramid");
        let state = |repo: &Repository| canonical_json(&serde_json::to_string(repo).unwrap());
        assert!(
            state(&seq) == state(&par),
            "repository state must not depend on the worker count"
        );
    }

    /// A degenerate query exactly on the boundary between two leaf cells
    /// belongs to exactly one of them (the east/north side, by the grid's
    /// half-open convention) — never to both, never to neither.
    #[test]
    fn boundary_query_resolves_to_exactly_one_leaf() {
        let cfg = config();
        let mut repo = Repository::new(root(), &cfg);
        let mut store = TrajStore::new(200.0);
        // Models on both sides of the x = 400 leaf boundary.
        fill_region(&mut store, BBox::new(Xy::new(0.0, 0.0), Xy::new(400.0, 400.0)), 30);
        fill_region(&mut store, BBox::new(Xy::new(400.0, 0.0), Xy::new(800.0, 400.0)), 30);
        repo.maintain(&store, &root(), &EngineConfig::default());
        assert!(repo
            .entry(ModelSelection::Single(PyramidKey { level: 2, x: 0, y: 0 }))
            .is_some());
        assert!(repo
            .entry(ModelSelection::Single(PyramidKey { level: 2, x: 1, y: 0 }))
            .is_some());
        // x = 400.0 is the first coordinate of the east cell.
        let on_boundary = BBox::new(Xy::new(400.0, 100.0), Xy::new(400.0, 100.0));
        let (sel, _) = repo.find_model(&on_boundary).expect("model");
        assert_eq!(
            sel,
            ModelSelection::Single(PyramidKey { level: 2, x: 1, y: 0 })
        );
        // Just inside the west cell resolves west.
        let west = BBox::new(Xy::new(399.9, 100.0), Xy::new(399.9, 100.0));
        let (sel, _) = repo.find_model(&west).expect("model");
        assert_eq!(
            sel,
            ModelSelection::Single(PyramidKey { level: 2, x: 0, y: 0 })
        );
    }

    /// A query spanning leaf cells *diagonally* can never be covered by a
    /// neighbor pair (pairs are edge-adjacent only) — retrieval must fall
    /// back to the enclosing coarser-level single-cell model.
    #[test]
    fn diagonal_span_falls_back_to_the_coarser_level() {
        let cfg = config();
        let mut repo = Repository::new(root(), &cfg);
        let mut store = TrajStore::new(200.0);
        // Data across the level-1 cell (0,0) = [0,800)²: its 40-token
        // threshold is met, as are the leaf thresholds inside it.
        fill_region(&mut store, BBox::new(Xy::new(0.0, 0.0), Xy::new(800.0, 800.0)), 60);
        repo.maintain(&store, &root(), &EngineConfig::default());
        // Spans leaf cells (0,0), (1,0), (0,1), (1,1) around (400, 400).
        let query = BBox::new(Xy::new(350.0, 350.0), Xy::new(450.0, 450.0));
        let (sel, _) = repo.find_model(&query).expect("coarser model expected");
        assert_eq!(
            sel,
            ModelSelection::Single(PyramidKey { level: 1, x: 0, y: 0 }),
            "diagonal spans skip the (impossible) pair and climb a level"
        );
    }

    /// Retrieval is a pure function of the repository: the model chosen
    /// for a query does not depend on what was queried before it.
    #[test]
    fn retrieval_does_not_depend_on_query_order() {
        let cfg = config();
        let mut repo = Repository::new(root(), &cfg);
        let mut store = TrajStore::new(200.0);
        fill_region(&mut store, root(), 700);
        repo.maintain(&store, &root(), &EngineConfig::default());
        let queries = [
            BBox::new(Xy::new(10.0, 10.0), Xy::new(60.0, 60.0)),
            BBox::new(Xy::new(300.0, 100.0), Xy::new(500.0, 300.0)),
            BBox::new(Xy::new(350.0, 350.0), Xy::new(450.0, 450.0)),
            BBox::new(Xy::new(100.0, 100.0), Xy::new(1500.0, 1500.0)),
            BBox::new(Xy::new(400.0, 100.0), Xy::new(400.0, 100.0)),
        ];
        let forward: Vec<_> = queries
            .iter()
            .map(|q| repo.find_model(q).map(|(sel, _)| sel))
            .collect();
        let mut backward: Vec<_> = queries
            .iter()
            .rev()
            .map(|q| repo.find_model(q).map(|(sel, _)| sel))
            .collect();
        backward.reverse();
        assert_eq!(forward, backward, "answers must not depend on query order");
        // And re-asking is idempotent.
        let again: Vec<_> = queries
            .iter()
            .map(|q| repo.find_model(q).map(|(sel, _)| sel))
            .collect();
        assert_eq!(forward, again);
    }

    /// The store serves retrieval from a skeleton + membership oracle; it
    /// must pick exactly the model the heap walk picks, for every query.
    #[test]
    fn skeleton_selection_matches_heap_retrieval() {
        let cfg = config();
        let mut repo = Repository::new(root(), &cfg);
        let mut store = TrajStore::new(200.0);
        fill_region(&mut store, root(), 700);
        repo.maintain(&store, &root(), &EngineConfig::default());
        assert!(repo.model_count() > 1, "want a multi-model pyramid");
        let skeleton = repo.skeleton();
        assert_eq!(skeleton.model_count(), 0, "skeleton must drop all models");
        assert_eq!(skeleton.root_bbox(), repo.root_bbox());
        // Membership oracle over the real repository's stored selections,
        // as the store keeps it (a set of record keys).
        let members: std::collections::HashSet<ModelSelection> =
            repo.model_keys().into_iter().collect();
        let queries = [
            BBox::new(Xy::new(10.0, 10.0), Xy::new(60.0, 60.0)),
            BBox::new(Xy::new(300.0, 100.0), Xy::new(500.0, 300.0)),
            BBox::new(Xy::new(350.0, 350.0), Xy::new(450.0, 450.0)),
            BBox::new(Xy::new(100.0, 100.0), Xy::new(1500.0, 1500.0)),
            BBox::new(Xy::new(400.0, 100.0), Xy::new(400.0, 100.0)),
            BBox::new(Xy::new(1200.0, 1200.0), Xy::new(1500.0, 1500.0)),
            BBox::new(Xy::new(-50.0, -50.0), Xy::new(-10.0, -10.0)),
        ];
        for q in &queries {
            let heap = repo.find_model(q).map(|(sel, _)| sel);
            let skel = skeleton.find_selection(q, |s| members.contains(&s));
            assert_eq!(heap, skel, "query {q:?} diverged");
        }
    }

    #[test]
    fn model_meta_tracks_updates() {
        let cfg = config();
        let mut repo = Repository::new(root(), &cfg);
        let mut store = TrajStore::new(200.0);
        let region = BBox::new(Xy::new(0.0, 0.0), Xy::new(400.0, 400.0));
        fill_region(&mut store, region, 30);
        repo.maintain(&store, &region, &EngineConfig::default());
        fill_region(&mut store, region, 10);
        repo.maintain(&store, &region, &EngineConfig::default());
        let key = PyramidKey { level: 2, x: 0, y: 0 };
        let entry = repo.entry(ModelSelection::Single(key)).expect("entry");
        assert_eq!(entry.meta.updates, 2);
        assert!(entry.meta.trained_tokens > 0);
        assert!(entry.meta.corpus_trajectories >= 30);
    }
}
