//! The experiment harness: sparsify → impute → score, per technique.

use crate::metrics::MetricsAccumulator;
use kamel::{Kamel, KamelConfig};
use kamel_baselines::{ImputationOutput, TrajectoryImputer, TrImpute, TrImputeConfig};
use kamel_geo::{LocalProjection, Trajectory};
use kamel_roadsim::Dataset;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Shared evaluation parameters (§8 defaults).
#[derive(Debug, Clone, Copy)]
pub struct EvalContext {
    /// Discretization spacing (`max_gap`), meters.
    pub max_gap_m: f64,
    /// Accuracy threshold δ, meters.
    pub delta_m: f64,
    /// Imposed sparsification distance, meters.
    pub sparse_m: f64,
}

impl Default for EvalContext {
    fn default() -> Self {
        Self {
            max_gap_m: 100.0,
            delta_m: 50.0,
            sparse_m: 1_000.0,
        }
    }
}

/// One technique's scores on one configuration — a row of a paper figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TechniqueResult {
    /// Technique name.
    pub technique: String,
    /// Recall per §8.
    pub recall: f64,
    /// Precision per §8.
    pub precision: f64,
    /// Failure rate (`None` when no gaps needed imputation).
    pub failure_rate: Option<f64>,
    /// Mean deviation of the output from the ground truth, meters.
    pub mean_deviation_m: f64,
    /// Worst single excursion from the ground truth, meters.
    pub worst_deviation_m: f64,
    /// Total imputation wall time in seconds.
    pub impute_time_s: f64,
    /// Trajectories evaluated.
    pub trajectories: usize,
}

/// Adapts [`Kamel`] to the evaluation interface.
pub struct KamelImputer {
    /// The trained system.
    pub kamel: Kamel,
    /// Display name (lets ablation variants label themselves).
    pub label: String,
}

impl TrajectoryImputer for KamelImputer {
    fn name(&self) -> &str {
        &self.label
    }

    fn impute(&self, sparse: &Trajectory) -> ImputationOutput {
        let out = self.kamel.impute(sparse);
        let segments_total = out.gaps.len();
        let segments_failed = out.gaps.iter().filter(|g| g.outcome.failed).count();
        ImputationOutput {
            trajectory: out.trajectory,
            segments_total,
            segments_failed,
        }
    }
}

/// Trains a KAMEL instance on a dataset's training split, returning the
/// system and the wall training time in seconds.
pub fn train_kamel(dataset: &Dataset, config: KamelConfig) -> (KamelImputer, f64) {
    let kamel = Kamel::new(config);
    let start = Instant::now();
    kamel.train(&dataset.train);
    let secs = start.elapsed().as_secs_f64();
    (
        KamelImputer {
            kamel,
            label: "KAMEL".to_string(),
        },
        secs,
    )
}

/// Trains the TrImpute comparator, returning it and its training time.
pub fn train_trimpute(dataset: &Dataset, config: TrImputeConfig) -> (TrImpute, f64) {
    let start = Instant::now();
    let tr = TrImpute::train(config, &dataset.train);
    (tr, start.elapsed().as_secs_f64())
}

/// Evaluates one technique over a dataset's test split: each ground-truth
/// trajectory is sparsified at `ctx.sparse_m`, imputed, and scored with the
/// §8 metrics. Set `limit` to bound the number of test trajectories (0 = no
/// limit).
pub fn evaluate_technique(
    imputer: &dyn TrajectoryImputer,
    dataset: &Dataset,
    ctx: &EvalContext,
    limit: usize,
) -> TechniqueResult {
    let proj = dataset.projection();
    let tests: Vec<&Trajectory> = dataset
        .test
        .iter()
        .filter(|t| t.len() >= 3)
        .take(if limit == 0 { usize::MAX } else { limit })
        .collect();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(1)
        .min(tests.len().max(1));
    let chunk = tests.len().div_ceil(threads.max(1)).max(1);
    let start = Instant::now();
    let mut acc = MetricsAccumulator::default();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for shard in tests.chunks(chunk) {
            let proj: LocalProjection = proj;
            handles.push(scope.spawn(move || {
                let mut local = MetricsAccumulator::default();
                for gt in shard {
                    let sparse = gt.sparsify(ctx.sparse_m);
                    let out = imputer.impute(&sparse);
                    local.add_pair(gt, &out.trajectory, &proj, ctx.max_gap_m, ctx.delta_m);
                    local.add_failures(out.segments_total, out.segments_failed);
                }
                local
            }));
        }
        for h in handles {
            acc.merge(&h.join().expect("evaluation shard panicked"));
        }
    });
    TechniqueResult {
        technique: imputer.name().to_string(),
        recall: acc.recall(),
        precision: acc.precision(),
        failure_rate: acc.failure_rate(),
        mean_deviation_m: acc.mean_deviation_m(),
        worst_deviation_m: acc.worst_deviation_m,
        impute_time_s: start.elapsed().as_secs_f64(),
        trajectories: tests.len(),
    }
}

/// Dataset-level f32-vs-int8 accuracy comparison of one trained system —
/// the §8-metric counterpart of the serving gate's top-1 agreement check.
/// Deltas are int8 minus f32, so a negative delta means quantization lost
/// accuracy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantizationDelta {
    /// Recall on the f32 path.
    pub f32_recall: f64,
    /// Recall on the int8 path.
    pub int8_recall: f64,
    /// Precision on the f32 path.
    pub f32_precision: f64,
    /// Precision on the int8 path.
    pub int8_precision: f64,
    /// `int8_recall - f32_recall`.
    pub recall_delta: f64,
    /// `int8_precision - f32_precision`.
    pub precision_delta: f64,
}

impl QuantizationDelta {
    /// Whether the int8 path lost no more than `bound` of either recall or
    /// precision (gains always pass).
    pub fn within(&self, bound: f64) -> bool {
        self.recall_delta >= -bound && self.precision_delta >= -bound
    }
}

/// Evaluates one trained KAMEL system on both serving paths and reports
/// the accuracy delta: the f32 pass runs with quantization off, then the
/// int8 pass runs behind the usual top-1 agreement gate — a gate refusal
/// propagates as [`kamel::KamelError::QuantizationRejected`] and the
/// system is left un-quantized. On success the system's original path
/// (f32 or int8) is restored.
pub fn quantization_delta(
    imputer: &KamelImputer,
    dataset: &Dataset,
    ctx: &EvalContext,
    limit: usize,
) -> Result<QuantizationDelta, kamel::KamelError> {
    let was_quantized = imputer.kamel.is_quantized();
    imputer.kamel.disable_quantization();
    let f32_result = evaluate_technique(imputer, dataset, ctx, limit);
    imputer.kamel.enable_quantization()?;
    let int8_result = evaluate_technique(imputer, dataset, ctx, limit);
    if !was_quantized {
        imputer.kamel.disable_quantization();
    }
    Ok(QuantizationDelta {
        f32_recall: f32_result.recall,
        int8_recall: int8_result.recall,
        f32_precision: f32_result.precision,
        int8_precision: int8_result.precision,
        recall_delta: int8_result.recall - f32_result.recall,
        precision_delta: int8_result.precision - f32_result.precision,
    })
}

/// Formats results as a fixed-width table (one line per technique).
pub fn format_table(title: &str, results: &[TechniqueResult]) -> String {
    let mut out = format!("== {title}\n");
    out.push_str(&format!(
        "{:<12} {:>8} {:>10} {:>9} {:>10} {:>7}\n",
        "technique", "recall", "precision", "failure", "time(s)", "trajs"
    ));
    for r in results {
        out.push_str(&format!(
            "{:<12} {:>8.3} {:>10.3} {:>9} {:>10.2} {:>7}\n",
            r.technique,
            r.recall,
            r.precision,
            r.failure_rate
                .map_or("-".to_string(), |f| format!("{f:.3}")),
            r.impute_time_s,
            r.trajectories
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamel_baselines::LinearImputer;
    use kamel_roadsim::DatasetScale;

    fn tiny_dataset() -> Dataset {
        Dataset::porto_like(DatasetScale::Small)
    }

    #[test]
    fn linear_baseline_scores_and_fails_everything() {
        let dataset = tiny_dataset();
        let ctx = EvalContext::default();
        let result = evaluate_technique(&LinearImputer::default(), &dataset, &ctx, 10);
        assert_eq!(result.technique, "Linear");
        assert_eq!(result.failure_rate, Some(1.0));
        assert!(result.recall > 0.0 && result.recall < 1.0, "recall {}", result.recall);
        assert!(result.precision > 0.0);
        assert_eq!(result.trajectories, 10);
    }

    #[test]
    fn trained_kamel_beats_linear_on_the_small_city() {
        let dataset = tiny_dataset();
        let ctx = EvalContext {
            sparse_m: 1_000.0,
            ..EvalContext::default()
        };
        let config = KamelConfig::builder()
            .model_threshold_k(150)
            .pyramid_height(3)
            .build();
        let (kamel, train_s) = train_kamel(&dataset, config);
        assert!(train_s > 0.0);
        let k = evaluate_technique(&kamel, &dataset, &ctx, 12);
        let l = evaluate_technique(&LinearImputer::default(), &dataset, &ctx, 12);
        assert!(
            k.recall > l.recall,
            "KAMEL recall {} <= linear {}",
            k.recall,
            l.recall
        );
        assert!(k.failure_rate.unwrap_or(1.0) < 1.0, "KAMEL always failed");
    }

    #[test]
    fn kamel_imputer_maps_gap_accounting() {
        use kamel_baselines::TrajectoryImputer;
        let dataset = tiny_dataset();
        let config = KamelConfig::builder()
            .model_threshold_k(150)
            .pyramid_height(3)
            .build();
        let (imputer, _) = train_kamel(&dataset, config);
        let sparse = dataset.test[0].sparsify(1_000.0);
        let direct = imputer.kamel.impute(&sparse);
        let adapted = imputer.impute(&sparse);
        assert_eq!(adapted.trajectory, direct.trajectory);
        assert_eq!(adapted.segments_total, direct.gaps.len());
        assert_eq!(
            adapted.segments_failed,
            direct.gaps.iter().filter(|g| g.outcome.failed).count()
        );
        assert_eq!(imputer.name(), "KAMEL");
    }

    #[test]
    fn quantization_delta_is_zero_for_ngram_engines() {
        // N-gram models have no weights to quantize, so both passes run
        // the identical model — the delta is exactly zero and the gate
        // trivially passes. This pins the plumbing (path switching, state
        // restoration) without the cost of BERT training.
        let dataset = tiny_dataset();
        let config = KamelConfig::builder()
            .model_threshold_k(150)
            .pyramid_height(3)
            .build();
        let (imputer, _) = train_kamel(&dataset, config);
        let ctx = EvalContext::default();
        let delta = quantization_delta(&imputer, &dataset, &ctx, 6).expect("gate passes");
        assert_eq!(delta.recall_delta, 0.0, "{delta:?}");
        assert_eq!(delta.precision_delta, 0.0, "{delta:?}");
        assert!(delta.within(0.0));
        assert!(!imputer.kamel.is_quantized(), "original f32 path restored");
    }

    #[test]
    fn quantization_delta_gates_bert_models() {
        use kamel_lm::{BertEngineConfig, EngineConfig};
        let dataset = tiny_dataset();
        let config = KamelConfig::builder()
            .model_threshold_k(150)
            .pyramid_height(3)
            .disable_partitioning(true)
            .engine(EngineConfig::Bert(BertEngineConfig::for_tests()))
            // Tiny test models under-train; keep the serving gate
            // permissive so this test exercises the measurement itself.
            .quantize_min_agreement(0.0)
            .build();
        let (imputer, _) = train_kamel(&dataset, config);
        let ctx = EvalContext::default();
        let delta = quantization_delta(&imputer, &dataset, &ctx, 3).expect("gate passes");
        for v in [
            delta.f32_recall,
            delta.int8_recall,
            delta.f32_precision,
            delta.int8_precision,
        ] {
            assert!((0.0..=1.0).contains(&v), "metric out of range: {delta:?}");
        }
        // A delta can never fail an infinite bound, and `within` is
        // monotone in the bound.
        assert!(delta.within(f64::INFINITY));
        assert!(!imputer.kamel.is_quantized(), "original f32 path restored");
    }

    #[test]
    fn table_formatting_is_stable() {
        let rows = vec![TechniqueResult {
            technique: "KAMEL".into(),
            recall: 0.891,
            precision: 0.87,
            failure_rate: Some(0.01),
            mean_deviation_m: 18.0,
            worst_deviation_m: 120.0,
            impute_time_s: 1.5,
            trajectories: 20,
        }];
        let s = format_table("demo", &rows);
        assert!(s.contains("KAMEL"));
        assert!(s.contains("0.891"));
        assert!(s.contains("0.010"));
    }
}
