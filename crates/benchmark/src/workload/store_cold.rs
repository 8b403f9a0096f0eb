//! `store_cold`: every operation materializes an evicted model.
//!
//! Closed loop, one thread: `Kamel::impute` on one-gap trajectories through
//! `kamel_store::load_kamel` over a packed BERT system, with a memory
//! budget that holds the pinned upper level plus exactly one leaf record.
//! Inputs go round-robin over the leaf records, so each lookup finds its
//! record evicted by the previous one and pays checksum → JSON → rebuild.
//! That path is what ROADMAP item 4 (weights as bytes) and any residency
//! change move; BERT inference is a small share here by design.

use super::{
    boot_repetitions, boots_before_window, closed_loop, file_mb, Outcome, Plan, RoundLog, Traced,
};
use crate::district::{self, Engine, Fixture};
use crate::host;
use crate::inputs::{one_gap_trajectories, sparse_variants, Rng};
use crate::layers::{self, bert_bulk_ops_per_s, query_box, replay_pipeline, replay_store, Gauges};
use crate::probe::{Parts, Traceable};
use crate::trace::{self, span};
use kamel::partition::ModelSelection;
use kamel::{ImputedTrajectory, Kamel};
use kamel_geo::Trajectory;
use kamel_store::Store;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Passes over the leaf records per round; with eight records a round is
/// 72 operations, about 1.5 s on the host the bounds were set on.
const PASSES_PER_ROUND: usize = 9;
/// Leaf records the round-robin must cover for the run to mean anything.
const MIN_LEAF_RECORDS: usize = 8;
/// An operation must be answered within this to count: three times what
/// one took in the slowest spell seen while freezing it (30 ms).
const LIMIT_MS: f64 = 90.0;
/// Share of the traced window's time that must be materialization.
const MIN_MATERIALIZE_SHARE: f64 = 0.70;

/// What the packed file says about itself: each model record's slot and
/// size, and which level is the leaf.
struct Layout {
    records: Vec<(ModelSelection, u64)>,
    leaf_level: u8,
}

impl Layout {
    fn read(store: &Store) -> Layout {
        let records: Vec<(ModelSelection, u64)> = store
            .index()
            .iter()
            .filter_map(|e| Some((e.key.to_selection()?, e.len)))
            .collect();
        let leaf_level = records
            .iter()
            .filter_map(|(s, _)| level_of(*s))
            .max()
            .unwrap_or(0);
        Layout {
            records,
            leaf_level,
        }
    }

    fn has(&self, sel: ModelSelection) -> bool {
        self.records.iter().any(|(s, _)| *s == sel)
    }

    fn is_leaf(&self, sel: ModelSelection) -> bool {
        level_of(sel) == Some(self.leaf_level)
    }

    /// Room for everything the store pins (the global model and every
    /// level above the leaf) plus the largest single leaf record.
    fn budget_for_one_leaf(&self) -> u64 {
        let pinned: u64 = self
            .records
            .iter()
            .filter(|(s, _)| !self.is_leaf(*s))
            .map(|(_, n)| n)
            .sum();
        let leaf = self
            .records
            .iter()
            .filter(|(s, _)| self.is_leaf(*s))
            .map(|(_, n)| *n)
            .max();
        pinned + leaf.unwrap_or(0)
    }
}

fn level_of(sel: ModelSelection) -> Option<u8> {
    match sel {
        ModelSelection::Global => None,
        ModelSelection::Single(k) | ModelSelection::Pair(k, _) => Some(k.level),
    }
}

/// A stable order for slots, so that a seed always maps to the same list.
fn slot_order(sel: ModelSelection) -> (u8, u32, u32, u8) {
    match sel {
        ModelSelection::Global => (0, 0, 0, 0),
        ModelSelection::Single(k) => (k.level, k.x, k.y, 1),
        ModelSelection::Pair(k, east) => (k.level, k.x, k.y, if east { 2 } else { 3 }),
    }
}

/// The round's operations: one-gap trajectories grouped by the leaf record
/// their lookup resolves to, interleaved so consecutive operations never
/// share a record. Returns the operations and how many records they cover.
fn round_robin_ops(
    fixture: &Fixture,
    parts: &Parts,
    layout: &Layout,
    passes: usize,
    rng: &mut Rng,
) -> (Vec<Trajectory>, usize) {
    let mut by_record: BTreeMap<(u8, u32, u32, u8), Vec<Trajectory>> = BTreeMap::new();
    for sparse in sparse_variants(&district::input_truths(&fixture.dataset), rng) {
        for op in one_gap_trajectories(&sparse) {
            let Some(query) = query_box(&op, parts) else {
                continue;
            };
            // A pair of fixes closer than this leaves nothing to impute (the
            // last fix of a sparsified trajectory can sit anywhere).
            if query.width().hypot(query.height()) < 2.0 * fixture.kamel.config().max_gap_m {
                continue;
            }
            let resolved = parts.pyramid.find_selection(&query, |s| layout.has(s));
            if let Some(sel) = resolved.filter(|s| layout.is_leaf(*s)) {
                by_record.entry(slot_order(sel)).or_default().push(op);
            }
        }
    }
    by_record.retain(|_, ops| ops.len() >= passes);
    let ops = (0..passes)
        .flat_map(|pass| by_record.values().map(move |ops| ops[pass].clone()))
        .collect();
    (ops, by_record.len())
}

/// One round: every operation once.
fn round(system: &Kamel, ops: &[Trajectory], expected: &[ImputedTrajectory], log: &mut RoundLog) {
    for (i, (op, want)) in ops.iter().zip(expected).enumerate() {
        trace::set_request(i as u64 + 1);
        let started = Instant::now();
        let answer = {
            let _s = span("op");
            system.impute(op)
        };
        let ms = started.elapsed().as_secs_f64() * 1e3;
        log.record(ms, 1, answer == *want);
    }
}

pub fn run(seed: u64, plan: &Plan, traced: bool, out_dir: &Path) -> Result<Outcome, String> {
    let fixture = Fixture::train(Engine::Bert);
    let path = out_dir.join("store_cold.kstore");
    let pack_started = Instant::now();
    kamel_store::pack(&fixture.kamel, &path).map_err(|e| e.to_string())?;
    let pack_ms = pack_started.elapsed().as_secs_f64() * 1e3;

    let parts = Parts::of(&fixture.kamel);
    let layout = Layout::read(&Store::open(&path).map_err(|e| e.to_string())?);
    let budget = layout.budget_for_one_leaf();
    let mut rng = Rng::new(seed);
    let passes = plan.passes(PASSES_PER_ROUND);
    let (ops, leaf_records) = round_robin_ops(&fixture, &parts, &layout, passes, &mut rng);
    let expected: Vec<ImputedTrajectory> = ops.iter().map(|t| fixture.kamel.impute(t)).collect();
    let quality = district::quality(&fixture.kamel, &fixture.dataset);

    let mut invalid = Vec::new();
    if leaf_records < MIN_LEAF_RECORDS {
        invalid.push(format!(
            "inputs cover {leaf_records} leaf records, fewer than {MIN_LEAF_RECORDS}"
        ));
    }
    if ops.is_empty() {
        return Err("no one-gap input resolves to a leaf record of the packed store".into());
    }

    // Boot: store file on disk → load_kamel with its boot sweep → first
    // verified answer.
    let boot = || -> Result<Kamel, String> {
        let system = kamel_store::load_kamel(&path, Some(budget)).map_err(|e| e.to_string())?;
        if system.impute(&ops[0]) != expected[0] {
            return Err("first answer after boot differs from the reference".into());
        }
        Ok(system)
    };
    let (mut boots, side) = boots_before_window(plan, boot, drop)?;
    let system = boot()?;

    let (main_s, traced_s) = plan.split(traced);
    let window = closed_loop(main_s, LIMIT_MS, |log| round(&system, &ops, &expected, log));
    let rss_peak_mb = host::peak_rss_mb();
    let evicted = system.residency().map_or(0, |r| r.evictions_total);
    if evicted == 0 {
        invalid.push("the store never evicted: the budget holds more than one leaf".to_string());
    }

    let mut correct = window.failed == 0;
    let traced = if traced {
        let traceable = Traceable::open_store(&path, Some(budget)).map_err(|e| e.to_string())?;
        let evictions_before = traceable.kamel.residency().map_or(0, |r| r.evictions_total);
        trace::set_enabled(true);
        let traced_window = closed_loop(traced_s, LIMIT_MS, |log| {
            round(&traceable.kamel, &ops, &expected, log)
        });
        let window_spans = trace::drain();
        let residency = traceable.kamel.residency().unwrap_or_default();
        let replay = replay_pipeline(
            &traceable,
            &parts,
            &ops[..plan.replay_inputs.min(ops.len())],
        );
        replay_store(&path, &parts, budget).map_err(|e| e.to_string())?;
        trace::set_enabled(false);
        correct &= traced_window.failed == 0;
        if !replay.faithful {
            invalid.push(layers::UNFAITHFUL_REPLAY.to_string());
        }
        let materialize_share = trace::total_ns(&window_spans, "store.materialize") as f64
            / trace::total_ns(&window_spans, "op").max(1) as f64;
        if materialize_share < MIN_MATERIALIZE_SHARE {
            invalid.push(format!(
                "store.materialize_share {materialize_share:.3} is below {MIN_MATERIALIZE_SHARE}"
            ));
        }
        // Counted over the same span of time as the evictions: the
        // unmeasured round included.
        let traced_ops = trace::durations_us(&window_spans, "op").len().max(1) as f64;
        let mut gauges: Gauges = replay.gauges;
        gauges.extend([
            ("core.train_s", fixture.train_s),
            ("store.pack_ms", pack_ms),
            ("store.file_mb", file_mb(&path)),
            ("store.materialize_share", materialize_share),
            (
                "store.evictions_per_1k_ops",
                (residency.evictions_total - evictions_before) as f64 * 1e3 / traced_ops,
            ),
            ("store.resident_models", residency.resident_models as f64),
            (
                "store.bytes_resident_mb",
                residency.bytes_resident as f64 / (1024.0 * 1024.0),
            ),
            (
                "lm.bert_bulk_ops_per_s",
                bert_bulk_ops_per_s(&fixture, plan.bert_bulk_s, &mut rng),
            ),
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
        settings: vec![
            ("budget_bytes", budget as f64),
            ("leaf_records", leaf_records as f64),
            ("passes_per_round", passes as f64),
        ],
        invalid,
        correct,
    })
}
