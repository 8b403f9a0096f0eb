//! The benchmark's handles on the program's inner layers, all through
//! public seams: decorators for [`ModelSource`] and [`MaskedTokenModel`]
//! that record spans, a store opener that slips the decorator in, and
//! the tokenizer / detokenizer / speed cap of a trained system recovered
//! from its own serving skeleton.

use crate::trace;
use kamel::detokenize::Detokenizer;
use kamel::partition::{ModelSelection, ModelSummary, Repository};
use kamel::{Kamel, ModelHandle, ModelSource, ResidencyStats, Tokenizer};
use kamel_geo::BBox;
use kamel_lm::{Candidate, MaskedTokenModel};
use kamel_store::{Store, StoreError, StoreSource};
use serde::Deserialize;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// The `ModelSource` decorator: one `core.partition.find_model` span per
/// lookup, with a `store.materialize` or `store.find_model.hit` child when
/// the source it wraps has a resident set to tell the two apart.
pub struct TimedSource {
    inner: Arc<dyn ModelSource>,
}

impl TimedSource {
    pub fn new(inner: Arc<dyn ModelSource>) -> Self {
        TimedSource { inner }
    }
}

impl ModelSource for TimedSource {
    fn find_model(&self, query: &BBox) -> Option<(ModelSelection, ModelHandle<'_>)> {
        if !trace::enabled() {
            return self.inner.find_model(query);
        }
        let _lookup = trace::span("core.partition.find_model");
        let Some(before) = self.inner.residency() else {
            return self.inner.find_model(query);
        };
        // Whether this lookup materialized a record is only known from the
        // residency counters afterwards, so the child span is recorded then,
        // from its measured duration.
        let started = std::time::Instant::now();
        let found = self.inner.find_model(query);
        let took = started.elapsed();
        let after = self.inner.residency().unwrap_or_default();
        let materialized = after.evictions_total != before.evictions_total
            || after.resident_models != before.resident_models;
        trace::record_child(
            if materialized {
                "store.materialize"
            } else {
                "store.find_model.hit"
            },
            took,
        );
        found
    }

    fn model_count(&self) -> usize {
        self.inner.model_count()
    }

    fn summaries(&self) -> Vec<ModelSummary> {
        self.inner.summaries()
    }

    fn residency(&self) -> Option<ResidencyStats> {
        self.inner.residency()
    }
}

/// A system whose model lookups go through [`TimedSource`], and the
/// decorator itself for direct lookups.
pub struct Traceable {
    pub kamel: Kamel,
    pub source: Arc<TimedSource>,
}

impl Traceable {
    pub fn new(mut kamel: Kamel, inner: Arc<dyn ModelSource>) -> Self {
        let source = Arc::new(TimedSource::new(inner));
        kamel.set_model_source(source.clone());
        Traceable { kamel, source }
    }

    /// What [`kamel_store::load_kamel`] builds, assembled from the same
    /// public pieces with the decorator between the pipeline and the
    /// store's resident set.
    pub fn open_store(path: &Path, budget: Option<u64>) -> Result<Traceable, StoreError> {
        let store = Store::open(path)?;
        let meta = store.record(0)?;
        let skeleton_json = std::str::from_utf8(meta.json)
            .map_err(|e| StoreError::Corrupt(format!("meta record is not UTF-8: {e}")))?;
        let kamel = Kamel::from_json(skeleton_json)
            .map_err(|e| StoreError::Corrupt(format!("meta skeleton failed to load: {e}")))?;
        let skeleton_repo = kamel
            .repo_skeleton()
            .ok_or_else(|| StoreError::Corrupt("meta skeleton holds no trained state".into()))?;
        // Summaries only feed inspection endpoints, which no workload calls.
        let source =
            StoreSource::new(store, skeleton_repo, Vec::new(), budget.unwrap_or(u64::MAX))?;
        source.warm_all()?;
        Ok(Traceable::new(kamel, Arc::new(source)))
    }
}

/// One model call as the decorator saw it.
pub struct ModelCall {
    pub requests: Vec<(Vec<u64>, usize)>,
    pub top_k: usize,
    pub raw: Vec<Vec<Candidate>>,
}

/// The `MaskedTokenModel` decorator: one `lm.predict_batch` span per
/// batched call, and a copy of what went in and came out so the layers
/// below and beside the model can be replayed on the same data.
pub struct TimedModel<'a> {
    inner: &'a dyn MaskedTokenModel,
    pub calls: Mutex<Vec<ModelCall>>,
}

impl<'a> TimedModel<'a> {
    pub fn new(inner: &'a dyn MaskedTokenModel) -> Self {
        TimedModel {
            inner,
            calls: Mutex::new(Vec::new()),
        }
    }
}

impl MaskedTokenModel for TimedModel<'_> {
    fn predict_masked(&self, seq: &[u64], pos: usize, top_k: usize) -> Vec<Candidate> {
        self.predict_masked_batch(&[(seq.to_vec(), pos)], top_k)
            .remove(0)
    }

    fn predict_masked_batch(
        &self,
        reqs: &[(Vec<u64>, usize)],
        top_k: usize,
    ) -> Vec<Vec<Candidate>> {
        let raw = {
            let _call = trace::span("lm.predict_batch");
            self.inner.predict_masked_batch(reqs, top_k)
        };
        self.calls
            .lock()
            .expect("no panic while holding the call log")
            .push(ModelCall {
                requests: reqs.to_vec(),
                top_k,
                raw: raw.clone(),
            });
        raw
    }

    fn vocab_len(&self) -> usize {
        self.inner.vocab_len()
    }

    fn trained_tokens(&self) -> u64 {
        self.inner.trained_tokens()
    }
}

/// The parts of a trained system the pipeline keeps private, read back from
/// the serving skeleton it exports for `kamel pack`.
pub struct Parts {
    pub tokenizer: Tokenizer,
    pub detok: Detokenizer,
    pub max_speed_mps: f64,
    pub pyramid: Repository,
}

#[derive(Deserialize)]
struct SkeletonDoc {
    state: Option<SkeletonState>,
}

#[derive(Deserialize)]
struct SkeletonState {
    tokenizer: Tokenizer,
    detok: Detokenizer,
    max_speed_mps: f64,
    repo: Repository,
}

impl Parts {
    /// From a trained system's serving skeleton: `pyramid` has no models.
    pub fn of(kamel: &Kamel) -> Parts {
        Parts::from_json(
            &kamel
                .serving_skeleton_json()
                .expect("the fixture is trained"),
        )
    }

    /// From a persisted system (`Kamel::to_json`, a checkpoint's payload or
    /// a skeleton): `pyramid` holds whatever models the document holds.
    pub fn from_json(json: &str) -> Parts {
        let doc: SkeletonDoc = serde_json::from_str(json).expect("a persisted system parses");
        let state = doc.state.expect("a trained system carries its state");
        Parts {
            tokenizer: state.tokenizer,
            detok: state.detok,
            max_speed_mps: state.max_speed_mps,
            pyramid: state.repo,
        }
    }
}
