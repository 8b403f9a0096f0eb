//! The background retrain pass: captured batch → cell selection →
//! targeted retrain → replay regression gate → rollout or rollback.
//!
//! The pass never touches the serving [`Kamel`] instance. It loads its
//! own copy through [`ModelOps::load`], retrains the selected cells on
//! a deep clone of it, and only if the gate passes does it
//! [`ModelOps::save`] the new checkpoint and ask [`ModelOps::rollout`] to
//! swap generations (hot-reload). A failing gate saves nothing: the old
//! generation keeps serving, and the attempt is counted as a rollback.
//!
//! The model channel is closure-based so the pass is testable without
//! checkpoints on disk: production wires [`ModelOps::checkpoint`]; tests
//! wire an in-memory model slot.

use crate::capture::{CaptureRecord, RecordKind};
use crate::select::{select_cells, CellStats, SelectionConfig};
use crate::sink::points_to_traj;
use kamel::Kamel;
use kamel_eval::{regression_gate, GateReport, ReplayCase};
use kamel_geo::Trajectory;
use kamel_hexgrid::CellId;
use kamel_server::{Client, ImputeEngine};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Cadence and thresholds of the background trainer.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Minimum time between retrain passes.
    pub interval: Duration,
    /// Minimum captured records before a pass is attempted.
    pub batch_min: usize,
    /// Cell selection weights and budget.
    pub selection: SelectionConfig,
    /// Accuracy threshold (meters) for replay recall in the gate.
    pub gate_delta_m: f64,
    /// Allowed replay-score drop before the rollout is aborted.
    pub gate_epsilon: f64,
    /// Served answers below this confidence are not trusted as
    /// pseudo-label training examples.
    pub min_confidence: f64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_secs(60),
            batch_min: 16,
            selection: SelectionConfig::default(),
            gate_delta_m: 50.0,
            gate_epsilon: 0.0,
            min_confidence: 0.9,
        }
    }
}

/// Loads a fresh, private model instance.
pub type LoadFn = Box<dyn Fn() -> Result<Kamel, String> + Send>;
/// Persists a retrained model where the serving loader will find it.
pub type SaveFn = Box<dyn Fn(&Kamel) -> Result<(), String> + Send>;
/// Swaps the serving generation (hot reload); returns the new number.
pub type RolloutFn = Box<dyn Fn() -> Result<u64, String> + Send>;

/// How the trainer reaches the model: load a private copy, persist a
/// retrained one, and trigger the serving swap.
pub struct ModelOps {
    /// Loads a fresh, private model instance.
    pub load: LoadFn,
    /// Persists the retrained model where the serving loader will find it.
    pub save: SaveFn,
    /// Swaps the serving generation (hot reload); returns the new
    /// generation number.
    pub rollout: RolloutFn,
}

impl ModelOps {
    /// The production wiring (`kamel serve --learn`): load and save the
    /// checkpoint at `path` that `engine` reloads from, and roll out
    /// through the real admin path — a loopback `POST /admin/reload` on
    /// `admin` swaps the generation AND clears the answer cache, exactly
    /// as an operator's curl would.
    pub fn checkpoint(path: PathBuf, admin: SocketAddr, engine: Arc<ImputeEngine>) -> Self {
        let save_path = path.clone();
        Self {
            load: Box::new(move || Kamel::load_from_file(&path).map_err(|e| e.to_string())),
            save: Box::new(move |k| k.save_to_file(&save_path).map_err(|e| e.to_string())),
            rollout: Box::new(move || {
                let mut client = Client::connect(admin, Duration::from_secs(30))
                    .map_err(|e| e.to_string())?;
                let resp = client
                    .post_json("/admin/reload", b"")
                    .map_err(|e| e.to_string())?;
                if resp.status != 200 {
                    return Err(format!("admin/reload: HTTP {}", resp.status));
                }
                Ok(engine.generation())
            }),
        }
    }
}

/// What one retrain pass did, for logs and counters.
#[derive(Debug, Clone, PartialEq)]
pub struct PassReport {
    /// Cells selected for retraining.
    pub selected_cells: Vec<u64>,
    /// Training examples offered to [`Kamel::retrain_cells`].
    pub examples_offered: usize,
    /// The regression gate's verdict.
    pub gate: GateReport,
    /// `true` when the new checkpoint was saved and the swap requested.
    pub rolled_out: bool,
    /// Serving generation after the pass (0 when rolled back).
    pub generation: u64,
}

/// Splits feedback records into training examples and a held-out replay
/// set the gate scores. Even indices train, odd indices judge; with a
/// single record it must do both (better a weak gate than none).
fn split_feedback(feedback: &[&CaptureRecord]) -> (Vec<Trajectory>, Vec<ReplayCase>) {
    let mut train = Vec::new();
    let mut holdout = Vec::new();
    for (i, rec) in feedback.iter().enumerate() {
        let truth = points_to_traj(&rec.answer);
        if i % 2 == 0 {
            train.push(truth.clone());
        }
        if i % 2 == 1 || feedback.len() == 1 {
            holdout.push(ReplayCase {
                sparse: points_to_traj(&rec.sparse),
                truth,
            });
        }
    }
    (train, holdout)
}

/// Runs one retrain pass over `records`.
///
/// Returns `Ok(None)` when the batch produced no actionable work (below
/// `batch_min`, no cell above the selection threshold, or no usable
/// training examples) — not an error, just nothing to do. `cell_rounds`
/// carries each cell's last-retrained round across passes for the
/// staleness term.
pub fn retrain_pass(
    records: &[CaptureRecord],
    round: u64,
    cell_rounds: &mut HashMap<u64, u64>,
    cfg: &TrainerConfig,
    model: &ModelOps,
) -> Result<Option<PassReport>, String> {
    if records.len() < cfg.batch_min {
        return Ok(None);
    }
    let old = (model.load)()?;

    // Reduce the batch to per-cell evidence, attributed to the cells the
    // serving snapshot recorded with each answer. Feedback disagreement is
    // measured against the OLD model — "how wrong is what we serve
    // today" is exactly the retraining-need signal.
    let mut stats: HashMap<u64, CellStats> = HashMap::new();
    let feedback: Vec<&CaptureRecord> = records
        .iter()
        .filter(|r| r.kind == RecordKind::Feedback)
        .collect();
    for rec in records {
        let disagreement = match rec.kind {
            RecordKind::Feedback => {
                let truth = points_to_traj(&rec.answer);
                let served = old.impute(&points_to_traj(&rec.sparse)).trajectory;
                Some(1.0 - kamel::replay_recall(&truth, &served, cfg.gate_delta_m))
            }
            RecordKind::Impute => None,
        };
        for &cell in &rec.cells {
            let s = stats.entry(cell).or_default();
            s.traffic += 1;
            s.last_selected_round = *cell_rounds.get(&cell).unwrap_or(&0);
            match disagreement {
                Some(d) => {
                    s.disagreement_sum += d;
                    s.disagreement_n += 1;
                }
                None => {
                    s.confidence_sum += rec.confidence;
                    s.confidence_n += 1;
                }
            }
        }
    }

    let selected = select_cells(&stats, round, &cfg.selection);
    if selected.is_empty() {
        return Ok(None);
    }

    // Training set: ground-truth corrections plus confident served
    // answers as pseudo-labels (they reinforce what the model already
    // does well in neighboring cells without amplifying its mistakes).
    let (mut examples, holdout) = split_feedback(&feedback);
    examples.extend(
        records
            .iter()
            .filter(|r| r.kind == RecordKind::Impute && r.confidence >= cfg.min_confidence)
            .map(|r| points_to_traj(&r.answer)),
    );
    if examples.is_empty() {
        return Ok(None);
    }

    let new = old.deep_clone();
    let cell_ids: Vec<CellId> = selected.iter().map(|&c| CellId(c)).collect();
    new.retrain_cells(&cell_ids, &examples);

    let gate = regression_gate(&old, &new, &holdout, cfg.gate_delta_m, cfg.gate_epsilon);
    if !gate.pass {
        // Rollback: nothing saved, nothing swapped; the old generation
        // keeps serving untouched.
        return Ok(Some(PassReport {
            selected_cells: selected,
            examples_offered: examples.len(),
            gate,
            rolled_out: false,
            generation: 0,
        }));
    }

    (model.save)(&new)?;
    let generation = (model.rollout)()?;
    for &cell in &selected {
        cell_rounds.insert(cell, round);
    }
    Ok(Some(PassReport {
        selected_cells: selected,
        examples_offered: examples.len(),
        gate,
        rolled_out: true,
        generation,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::traj_to_points;
    use kamel::KamelConfig;
    use kamel_geo::GpsPoint;
    use std::sync::{Arc, Mutex};

    /// An L-shaped street (east, then a 90° turn north) with fixes every
    /// ~84–111 m. The turn keeps straight-line fallback from being a
    /// perfect answer, so replay scores actually discriminate.
    fn street(base_lat: f64, n: usize) -> Trajectory {
        Trajectory::new(
            (0..n)
                .map(|i| {
                    let (lat, lng) = if i < 15 {
                        (base_lat, -8.61 + i as f64 * 0.001)
                    } else {
                        (base_lat + (i - 14) as f64 * 0.001, -8.61 + 14.0 * 0.001)
                    };
                    GpsPoint::from_parts(lat, lng, i as f64 * 10.0)
                })
                .collect(),
        )
    }

    fn corpus(lat: f64) -> Vec<Trajectory> {
        (0..30).map(|_| street(lat, 30)).collect()
    }

    /// An in-memory model slot standing in for the checkpoint file +
    /// /admin/reload pair: `load` clones out of the slot via export,
    /// `save` stores, `rollout` bumps a generation counter.
    struct Slot {
        model: Arc<Mutex<Arc<Kamel>>>,
        generation: Arc<Mutex<u64>>,
    }

    fn slot_with(initial_corpus: &[Trajectory]) -> (Slot, ModelOps) {
        // Small pyramid + low model threshold so 30 trips build models.
        let kamel = Kamel::new(
            KamelConfig::builder()
                .model_threshold_k(50)
                .pyramid_height(3)
                .build(),
        );
        kamel.train(initial_corpus);
        let model = Arc::new(Mutex::new(Arc::new(kamel)));
        let generation = Arc::new(Mutex::new(1u64));
        let slot = Slot {
            model: Arc::clone(&model),
            generation: Arc::clone(&generation),
        };
        let load_model = Arc::clone(&model);
        let save_model = Arc::clone(&model);
        let gen = Arc::clone(&generation);
        let ops = ModelOps {
            load: Box::new(move || Ok(load_model.lock().unwrap().deep_clone())),
            save: Box::new(move |k| {
                *save_model.lock().unwrap() = Arc::new(k.deep_clone());
                Ok(())
            }),
            rollout: Box::new(move || {
                let mut g = gen.lock().unwrap();
                *g += 1;
                Ok(*g)
            }),
        };
        (slot, ops)
    }

    /// The cells the serving engine would record for `sparse` under the
    /// slot's model.
    fn cells_under(slot: &Slot, sparse: &Trajectory) -> Vec<u64> {
        let (cells, _) = slot.model.lock().unwrap().gap_context(sparse).expect("trained");
        cells.into_iter().map(|c| c.0).collect()
    }

    /// Feedback records for trips on `lat` (the model will disagree when
    /// it never trained there), as captured while `slot`'s model served.
    fn feedback_records(slot: &Slot, lat: f64, n: usize) -> Vec<CaptureRecord> {
        (0..n)
            .map(|i| {
                let truth = street(lat, 30);
                let sparse = truth.sparsify(1000.0);
                CaptureRecord {
                    kind: RecordKind::Feedback,
                    unix_ms: 1_000 + i as u64,
                    confidence: 0.0,
                    cells: cells_under(slot, &sparse),
                    sparse: traj_to_points(&sparse),
                    answer: traj_to_points(&truth),
                }
            })
            .collect()
    }

    fn quick_cfg() -> TrainerConfig {
        TrainerConfig {
            interval: Duration::from_millis(0),
            batch_min: 2,
            ..TrainerConfig::default()
        }
    }

    #[test]
    fn disagreeing_feedback_triggers_a_gated_rollout() {
        // Model trained on one street; feedback arrives for a parallel
        // street ~330 m north it has never seen — the old model serves it
        // from the original street's evidence, visibly wrong.
        let (slot, ops) = slot_with(&corpus(41.15));
        let records = feedback_records(&slot, 41.153, 8);
        let mut rounds = HashMap::new();
        let report = retrain_pass(&records, 1, &mut rounds, &quick_cfg(), &ops)
            .expect("pass must not error")
            .expect("pass must act on disagreeing feedback");
        assert!(!report.selected_cells.is_empty());
        assert!(report.gate.pass, "gate: {:?}", report.gate);
        assert!(
            report.gate.new_score > report.gate.old_score,
            "retraining must measurably improve the fed-back street: {:?}",
            report.gate
        );
        assert!(report.rolled_out);
        assert_eq!(report.generation, 2);
        assert_eq!(*slot.generation.lock().unwrap(), 2);
        // The rolled-out model now serves the new street well.
        let new_model = slot.model.lock().unwrap();
        let truth = street(41.153, 30);
        let out = new_model.impute(&truth.sparsify(1000.0));
        assert!(
            kamel::replay_recall(&truth, &out.trajectory, 50.0) > 0.9,
            "retrained model must have learned the fed-back street"
        );
        // Selected cells are stamped with the round for staleness.
        for cell in &report.selected_cells {
            assert_eq!(rounds.get(cell), Some(&1));
        }
    }

    #[test]
    fn impossible_gate_rolls_back_and_saves_nothing() {
        let (slot, ops) = slot_with(&corpus(41.15));
        let before = Arc::clone(&slot.model.lock().unwrap());
        let records = feedback_records(&slot, 41.153, 8);
        let cfg = TrainerConfig {
            // A gate no retrain can pass: demand the new model beat the
            // old by more than the metric's full range.
            gate_epsilon: -2.0,
            ..quick_cfg()
        };
        let mut rounds = HashMap::new();
        let report = retrain_pass(&records, 1, &mut rounds, &cfg, &ops)
            .unwrap()
            .expect("pass must still run and report the rollback");
        assert!(!report.rolled_out);
        assert_eq!(report.generation, 0);
        assert_eq!(*slot.generation.lock().unwrap(), 1, "no rollout");
        assert!(
            Arc::ptr_eq(&before, &slot.model.lock().unwrap()),
            "a rolled-back pass must not touch the serving model"
        );
        assert!(rounds.is_empty(), "rolled-back cells stay stale");
    }

    #[test]
    fn small_batches_and_healthy_traffic_do_nothing() {
        let (slot, ops) = slot_with(&corpus(41.15));
        let mut rounds = HashMap::new();
        // Below batch_min.
        let few = feedback_records(&slot, 41.153, 1);
        assert_eq!(
            retrain_pass(&few, 1, &mut rounds, &quick_cfg(), &ops).unwrap(),
            None
        );
        // Confident impute traffic on the trained street: no cell should
        // clear the selection threshold, so no churn.
        let sparse = street(41.15, 30).sparsify(1000.0);
        let served = slot.model.lock().unwrap().impute(&sparse);
        let healthy: Vec<CaptureRecord> = (0..6)
            .map(|i| CaptureRecord {
                kind: RecordKind::Impute,
                unix_ms: i,
                confidence: 1.0,
                cells: cells_under(&slot, &sparse),
                sparse: traj_to_points(&sparse),
                answer: traj_to_points(&served.trajectory),
            })
            .collect();
        assert_eq!(
            retrain_pass(&healthy, 1, &mut rounds, &quick_cfg(), &ops).unwrap(),
            None,
            "healthy traffic must not churn generations"
        );
        assert_eq!(*slot.generation.lock().unwrap(), 1);
    }
}
