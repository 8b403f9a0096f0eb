//! Lazy residency over an open store.
//!
//! [`StoreSource`] implements `kamel`'s [`ModelSource`] on top of a
//! [`Store`]: queries route through a modelless pyramid *skeleton* (the
//! same §4 selection walk the heap repository runs), and the chosen
//! record is materialized on first touch: checksum verified, then for a
//! BERT record its tensor header checked against the shapes its config
//! implies, each tensor copied into an owned buffer, and any packed int8
//! weights installed as a zero-copy view into the mapped file. Only an
//! n-gram record (no tensors) is parsed from JSON.
//!
//! Materialized models live in an LRU set bounded by a byte budget
//! (`--model-memory-budget`). Two classes never evict:
//!
//! * the global model, and
//! * every model above the pyramid's leaf level — the upper levels are
//!   few, cover wide areas (so nearly every query can fall back to
//!   them), and re-materializing them would dominate eviction churn.
//!
//! The budget therefore bounds the *unpinned* resident bytes: a
//! materialization that lands over budget evicts least-recently-used
//! unpinned models (never the one just requested) until it fits, or
//! until only pins remain. A model's cost is its record's payload
//! length; for a BERT record that is the bytes of weights it holds on
//! the heap, so a budget byte is a heap byte.

use crate::format::{RecordView, Store, KIND_META};
use crate::StoreError;
use kamel::partition::{ModelEntry, ModelMeta, ModelSelection, ModelSummary, Repository};
use kamel::{ModelHandle, ModelSource, ResidencyStats};
use kamel_geo::BBox;
use kamel_lm::{BertMlm, TrainedModel};
use kamel_nn::ByteSource;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// LRU bookkeeping, model-free so the policy is testable in isolation:
/// per-record cost, recency tick, and pin flag.
#[derive(Debug, Default)]
struct Ledger {
    entries: HashMap<usize, LedgerSlot>,
    bytes: u64,
    tick: u64,
}

#[derive(Debug)]
struct LedgerSlot {
    cost: u64,
    tick: u64,
    pinned: bool,
}

impl Ledger {
    /// Bumps `idx`'s recency; true when it is resident.
    fn touch(&mut self, idx: usize) -> bool {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(&idx) {
            Some(slot) => {
                slot.tick = tick;
                true
            }
            None => false,
        }
    }

    fn insert(&mut self, idx: usize, cost: u64, pinned: bool) {
        self.tick += 1;
        let tick = self.tick;
        if self.entries.insert(idx, LedgerSlot { cost, tick, pinned }).is_none() {
            self.bytes += cost;
        }
    }

    /// Evicts least-recently-used unpinned entries (never `keep`) until
    /// resident bytes fit `budget` or no candidate remains. Returns the
    /// evicted indices.
    fn evict_over(&mut self, budget: u64, keep: usize) -> Vec<usize> {
        let mut victims = Vec::new();
        while self.bytes > budget {
            let victim = self
                .entries
                .iter()
                .filter(|(&idx, slot)| idx != keep && !slot.pinned)
                .min_by_key(|(_, slot)| slot.tick)
                .map(|(&idx, _)| idx);
            let Some(idx) = victim else { break };
            let slot = self.entries.remove(&idx).expect("victim just found");
            self.bytes -= slot.cost;
            victims.push(idx);
        }
        victims
    }
}

struct Resident {
    ledger: Ledger,
    models: HashMap<usize, Arc<TrainedModel>>,
}

/// A [`ModelSource`] serving lazily-materialized models out of a store.
pub struct StoreSource {
    store: Store,
    skeleton: Repository,
    summaries: Vec<ModelSummary>,
    /// Pyramid slot → record index, for the selection walk's membership
    /// oracle and record lookup.
    members: HashMap<ModelSelection, usize>,
    /// Record indices that never evict (global + upper pyramid levels).
    pinned: Vec<bool>,
    budget: u64,
    resident: Mutex<Resident>,
    evictions: AtomicU64,
}

impl StoreSource {
    /// Wires a validated store to the pyramid skeleton it was packed
    /// from. `summaries` is the packed systems' model inventory (served
    /// verbatim, so inspection endpoints need no materialization);
    /// `budget` caps resident unpinned bytes (`u64::MAX` = unbounded).
    pub fn new(
        store: Store,
        skeleton: Repository,
        summaries: Vec<ModelSummary>,
        budget: u64,
    ) -> Result<Self, StoreError> {
        let mut members = HashMap::new();
        let mut leaf_level = 0u8;
        for (idx, entry) in store.index().iter().enumerate() {
            if entry.key.kind == KIND_META {
                continue;
            }
            let sel = entry.key.to_selection().ok_or_else(|| {
                StoreError::Corrupt(format!(
                    "record {idx} has unknown kind {} — file written by a newer tool?",
                    entry.key.kind
                ))
            })?;
            if members.insert(sel, idx).is_some() {
                return Err(StoreError::Corrupt(format!(
                    "record {idx} duplicates pyramid slot {sel:?}"
                )));
            }
            if !matches!(sel, ModelSelection::Global) {
                leaf_level = leaf_level.max(entry.key.level);
            }
        }
        let pinned = store
            .index()
            .iter()
            .map(|e| {
                e.key.kind != KIND_META
                    && (e.key.to_selection() == Some(ModelSelection::Global)
                        || e.key.level < leaf_level)
            })
            .collect();
        Ok(StoreSource {
            store,
            skeleton,
            summaries,
            members,
            pinned,
            budget,
            resident: Mutex::new(Resident {
                ledger: Ledger::default(),
                models: HashMap::new(),
            }),
            evictions: AtomicU64::new(0),
        })
    }

    /// Number of models in the store (excluding the meta record).
    pub fn model_count(&self) -> usize {
        self.members.len()
    }

    /// Materializes every model once, in record order. This is the boot
    /// sweep: it verifies every record checksum before the system serves
    /// (a damaged cell fails the load, not a 3 a.m. request), and it
    /// exercises the eviction path deterministically whenever the budget
    /// is smaller than the store.
    pub fn warm_all(&self) -> Result<(), StoreError> {
        let mut ordered: Vec<(usize, ModelSelection)> =
            self.members.iter().map(|(&sel, &idx)| (idx, sel)).collect();
        ordered.sort_unstable_by_key(|&(idx, _)| idx);
        for (idx, sel) in ordered {
            self.materialize(sel, idx)?;
        }
        Ok(())
    }

    /// The resident set. Poisoning is ignored, as under the non-poisoning
    /// lock this replaced: the critical sections only move map entries and
    /// counters, so a holder cannot unwind with the ledger and the model
    /// map out of step.
    fn resident(&self) -> MutexGuard<'_, Resident> {
        self.resident.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current residency counters.
    pub fn stats(&self) -> ResidencyStats {
        let r = self.resident();
        ResidencyStats {
            resident_models: r.ledger.entries.len(),
            pinned_models: r.ledger.entries.values().filter(|s| s.pinned).count(),
            total_models: self.members.len(),
            evictions_total: self.evictions.load(Ordering::Relaxed),
            bytes_resident: r.ledger.bytes,
            bytes_mapped: self.store.file_len(),
            // u64::MAX means "unbounded" internally; report the stats
            // convention of 0 so dashboards don't graph 16 EiB budgets.
            budget_bytes: if self.budget == u64::MAX { 0 } else { self.budget },
        }
    }

    fn materialize(
        &self,
        sel: ModelSelection,
        idx: usize,
    ) -> Result<Arc<TrainedModel>, StoreError> {
        {
            let mut r = self.resident();
            if r.ledger.touch(idx) {
                return Ok(r.models[&idx].clone());
            }
        }
        // Decode outside the lock: the checksum and the tensor copy are the
        // whole cost of a miss, and concurrent queries for *other* cells
        // must not serialize on it.
        let view = self.store.record(idx)?;
        let model = Arc::new(self.decode(sel, &view)?);
        let cost = view.payload_len as u64;
        let mut r = self.resident();
        if r.ledger.touch(idx) {
            // Another thread won the race; serve its copy.
            return Ok(r.models[&idx].clone());
        }
        r.ledger.insert(idx, cost, self.pinned[idx]);
        r.models.insert(idx, model.clone());
        for victim in r.ledger.evict_over(self.budget, idx) {
            r.models.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(model)
    }

    fn decode(&self, sel: ModelSelection, view: &RecordView<'_>) -> Result<TrainedModel, StoreError> {
        let corrupt = |what: &str, e: &dyn std::fmt::Display| {
            StoreError::Corrupt(format!("{what} for {sel:?}: {e}"))
        };
        let source: Arc<dyn ByteSource> = self.store.byte_source();
        let mut model = if view.tensors_len == 0 {
            // An n-gram model: the one record kind still kept as JSON.
            let entry: ModelEntry = serde_json::from_slice(view.json)
                .map_err(|e| corrupt("record failed to decode", &e))?;
            entry.model
        } else {
            // The JSON beside a tensor section is only the entry's
            // metadata; serving keeps none of it, but a record that does
            // not hold one was not written by `kamel pack`.
            serde_json::from_slice::<ModelMeta>(view.json)
                .map_err(|e| corrupt("record metadata failed to decode", &e))?;
            let bert = BertMlm::read_record(&source, view.tensors_offset, view.tensors_len)
                .map_err(|e| corrupt("tensor section is invalid", &e))?;
            TrainedModel::Bert(Box::new(bert))
        };
        if view.aux_len > 0 {
            let quant =
                kamel_nn::QuantizedBertMlm::read_packed(source, view.aux_offset, view.aux_len)
                    .map_err(|e| corrupt("packed int8 weights are invalid", &e))?;
            model
                .install_quantization(quant)
                .map_err(|e| corrupt("packed int8 weights do not fit their model", &e))?;
        }
        Ok(model)
    }
}

impl ModelSource for StoreSource {
    fn find_model(&self, query: &BBox) -> Option<(ModelSelection, ModelHandle<'_>)> {
        let sel = self
            .skeleton
            .find_selection(query, |s| self.members.contains_key(&s))?;
        let idx = *self.members.get(&sel)?;
        match self.materialize(sel, idx) {
            Ok(model) => Some((sel, ModelHandle::Shared(model))),
            Err(e) => {
                // A record damaged *after* the boot sweep: log once per
                // occurrence and degrade (the query falls back to
                // gap-level lookups or linear interpolation) instead of
                // taking the process down.
                eprintln!("warning: model store: dropping {sel:?}: {e}");
                None
            }
        }
    }

    fn model_count(&self) -> usize {
        self.members.len()
    }

    fn summaries(&self) -> Vec<ModelSummary> {
        self.summaries.clone()
    }

    fn residency(&self) -> Option<ResidencyStats> {
        Some(self.stats())
    }
}

impl std::fmt::Debug for StoreSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreSource")
            .field("models", &self.members.len())
            .field("budget", &self.budget)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_evicts_in_lru_order() {
        let mut l = Ledger::default();
        l.insert(0, 100, false);
        l.insert(1, 100, false);
        l.insert(2, 100, false);
        assert!(l.touch(0), "0 resident");
        // Budget 200: one entry must go, and it is 1 (oldest untouched).
        assert_eq!(l.evict_over(200, 2), vec![1]);
        assert_eq!(l.bytes, 200);
        assert!(l.touch(0) && l.touch(2) && !l.touch(1));
    }

    #[test]
    fn ledger_never_evicts_pins_or_the_kept_entry() {
        let mut l = Ledger::default();
        l.insert(0, 100, true); // pinned
        l.insert(1, 100, false);
        l.insert(2, 100, false);
        // Budget 0: everything unpinned except `keep`=2 must go.
        assert_eq!(l.evict_over(0, 2), vec![1]);
        assert_eq!(l.bytes, 200, "pin + keep remain");
        assert!(l.touch(0) && l.touch(2));
    }

    #[test]
    fn ledger_eviction_stops_once_under_budget() {
        let mut l = Ledger::default();
        for i in 0..5 {
            l.insert(i, 50, false);
        }
        let victims = l.evict_over(120, 4);
        assert_eq!(victims.len(), 3, "250 -> 100 bytes needs three evictions");
        assert_eq!(l.bytes, 100);
        // Victims are the three least recently inserted, in order.
        assert_eq!(victims, vec![0, 1, 2]);
    }

    #[test]
    fn ledger_double_insert_does_not_double_count() {
        let mut l = Ledger::default();
        l.insert(7, 64, false);
        l.insert(7, 64, false);
        assert_eq!(l.bytes, 64);
    }
}
