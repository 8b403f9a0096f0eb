//! Experiment runners that regenerate every table and figure of the
//! paper's evaluation (§8) for the `figures` binary, plus the helpers the
//! perf benches share.
//!
//! Each `figN` function reproduces one figure's sweep and returns the same
//! rows/series the paper plots. The datasets are the synthetic Porto/Jakarta
//! analogues (DESIGN.md §2, substitution 1); absolute numbers differ from
//! the paper's testbed, but the comparative shape — who wins, by what
//! factor, where the crossovers fall — is the reproduction target
//! (EXPERIMENTS.md records paper-vs-measured for every figure).

#![warn(missing_docs)]

pub mod loadgen;
pub mod svg;

use kamel::{GridKind, KamelConfig, KamelConfigBuilder, MultipointStrategy, SpeedMode};
use kamel_baselines::{LinearImputer, MapMatcher, TrajectoryImputer, TrImputeConfig};
use kamel_eval::harness::{evaluate_technique, format_table, train_kamel, train_trimpute};
use kamel_eval::roadtype::evaluate_by_road_type;
use kamel_eval::{EvalContext, MetricsAccumulator, TechniqueResult};
use kamel_roadsim::{Dataset, DatasetScale};
use serde::{Deserialize, Serialize};

/// Which dataset analogue an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum City {
    /// Porto analogue: many short trajectories.
    Porto,
    /// Jakarta analogue: few long 1 Hz trajectories.
    Jakarta,
}

impl City {
    /// Generates the dataset at the given scale.
    pub fn dataset(self, scale: DatasetScale) -> Dataset {
        match self {
            City::Porto => Dataset::porto_like(scale),
            City::Jakarta => Dataset::jakarta_like(scale),
        }
    }

    /// The paper's default δ per dataset (§8: 50 m Porto, 25 m Jakarta).
    pub fn default_delta_m(self) -> f64 {
        match self {
            City::Porto => 50.0,
            City::Jakarta => 25.0,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            City::Porto => "porto-like",
            City::Jakarta => "jakarta-like",
        }
    }
}

/// Writes a perf bench's result document to `file` at the repo root and
/// echoes it on stdout (compact JSON; pipe through `python3 -m json.tool`
/// to read it).
pub fn write_bench_json<T: Serialize>(file: &str, doc: &T) {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let json = serde_json::to_string(doc).expect("serialize");
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("{json}\nwrote {path}");
}

/// Caps evaluation cost: test trajectories scored per configuration point.
pub const EVAL_LIMIT: usize = 60;

/// A scaled-down pyramid configuration matched to the simulator's data
/// volume (same semantics as the paper's H=10/L=3/k=20K over world-scale
/// data; see DESIGN.md).
pub fn default_kamel_config() -> KamelConfigBuilder {
    // The paper roots its pyramid at the whole world and maintains the
    // lowest 3 levels — cells of 70–280 km, i.e. city-to-region scale. Our
    // pyramid is rooted at the dataset's own extent, so the faithful
    // analogue maintains every level including the root (a "city model"
    // always exists) with leaf cells a few blocks wide.
    KamelConfig::builder()
        .pyramid_height(3)
        .pyramid_maintained(3)
        .model_threshold_k(500)
}

/// One point of a sweep: the x-value plus every technique's scores.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The varied parameter (sparseness meters, δ meters, % size, …).
    pub x: f64,
    /// Scores per technique at this x.
    pub results: Vec<TechniqueResult>,
}

/// A full figure: its id, the dataset, and the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure {
    /// Paper figure id ("fig9-porto", "fig12-ablation", …).
    pub id: String,
    /// What the x axis is.
    pub x_label: String,
    /// The series.
    pub points: Vec<SweepPoint>,
}

impl Figure {
    /// Renders all sweep points as fixed-width tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for p in &self.points {
            out.push_str(&format_table(
                &format!("{} | {} = {}", self.id, self.x_label, p.x),
                &p.results,
            ));
        }
        out
    }
}

/// Builds the four standard §8 techniques over a dataset: KAMEL, TrImpute,
/// Linear, and the MapMatch reference. Returns them with their training
/// times `(kamel_s, trimpute_s)`.
pub fn standard_techniques(
    dataset: &Dataset,
    config: KamelConfig,
) -> (Vec<Box<dyn TrajectoryImputer>>, f64, f64) {
    let (kamel, kamel_train_s) = train_kamel(dataset, config);
    let (trimpute, tr_train_s) = train_trimpute(dataset, TrImputeConfig::default());
    let mapmatch = MapMatcher::new(dataset.network.clone(), dataset.projection());
    let techniques: Vec<Box<dyn TrajectoryImputer>> = vec![
        Box::new(kamel),
        Box::new(trimpute),
        Box::new(LinearImputer::default()),
        Box::new(mapmatch),
    ];
    (techniques, kamel_train_s, tr_train_s)
}

/// Figure 9: impact of data sparseness (500–4000 m) on recall, precision,
/// and failure rate, all techniques.
pub fn fig9(city: City, scale: DatasetScale) -> Figure {
    let dataset = city.dataset(scale);
    let (techniques, _, _) = standard_techniques(&dataset, default_kamel_config().build());
    let mut points = Vec::new();
    for sparse_m in [500.0, 1_000.0, 1_500.0, 2_000.0, 2_500.0, 3_000.0, 4_000.0] {
        let ctx = EvalContext {
            sparse_m,
            delta_m: city.default_delta_m(),
            ..EvalContext::default()
        };
        let results = techniques
            .iter()
            .map(|t| evaluate_technique(t.as_ref(), &dataset, &ctx, EVAL_LIMIT))
            .collect();
        points.push(SweepPoint { x: sparse_m, results });
    }
    Figure {
        id: format!("fig9-{}", city.name()),
        x_label: "sparseness_m".into(),
        points,
    }
}

/// Figure 10: impact of the accuracy threshold δ (5–100 m) on recall and
/// precision.
pub fn fig10(city: City, scale: DatasetScale) -> Figure {
    let dataset = city.dataset(scale);
    let (techniques, _, _) = standard_techniques(&dataset, default_kamel_config().build());
    let mut points = Vec::new();
    for delta_m in [5.0, 10.0, 25.0, 50.0, 75.0, 100.0] {
        let ctx = EvalContext {
            delta_m,
            ..EvalContext::default()
        };
        let results = techniques
            .iter()
            .map(|t| evaluate_technique(t.as_ref(), &dataset, &ctx, EVAL_LIMIT))
            .collect();
        points.push(SweepPoint { x: delta_m, results });
    }
    Figure {
        id: format!("fig10-{}", city.name()),
        x_label: "delta_m".into(),
        points,
    }
}

/// Figure 11 rows: training and imputation time per technique.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimingRow {
    /// Dataset name.
    pub dataset: String,
    /// Technique name.
    pub technique: String,
    /// Training wall time (seconds); `None` for training-free techniques.
    pub train_time_s: Option<f64>,
    /// Total imputation time over the evaluation slice (seconds).
    pub impute_time_s: f64,
}

/// Figure 11: training and imputation time for both cities.
pub fn fig11(scale: DatasetScale) -> Vec<TimingRow> {
    let mut rows = Vec::new();
    for city in [City::Porto, City::Jakarta] {
        let dataset = city.dataset(scale);
        let (techniques, kamel_s, trimpute_s) =
            standard_techniques(&dataset, default_kamel_config().build());
        let ctx = EvalContext {
            delta_m: city.default_delta_m(),
            ..EvalContext::default()
        };
        for t in &techniques {
            let r = evaluate_technique(t.as_ref(), &dataset, &ctx, EVAL_LIMIT);
            rows.push(TimingRow {
                dataset: city.name().into(),
                technique: r.technique.clone(),
                train_time_s: match r.technique.as_str() {
                    "KAMEL" => Some(kamel_s),
                    "TrImpute" => Some(trimpute_s),
                    _ => None,
                },
                impute_time_s: r.impute_time_s,
            });
        }
    }
    rows
}

/// Figure 12-I/II: road-type (straight vs curved) sweeps on the Jakarta
/// analogue.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoadTypeRow {
    /// Varied sparseness in meters.
    pub sparse_m: f64,
    /// Technique.
    pub technique: String,
    /// Straight-segment scores.
    pub straight: RoadScores,
    /// Curved-segment scores.
    pub curved: RoadScores,
}

/// One road class's scores in a [`RoadTypeRow`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoadScores {
    /// Recall.
    pub recall: f64,
    /// Precision.
    pub precision: f64,
    /// Failure rate (`None` when the class had no gaps).
    pub failure_rate: Option<f64>,
}

/// Figure 12-I/II: per-road-class performance across sparseness.
pub fn fig12_road(scale: DatasetScale) -> Vec<RoadTypeRow> {
    let city = City::Jakarta;
    let dataset = city.dataset(scale);
    let (techniques, _, _) = standard_techniques(&dataset, default_kamel_config().build());
    let mut rows = Vec::new();
    for sparse_m in [1_000.0, 2_000.0, 3_000.0] {
        for t in &techniques {
            if t.name() == "MapMatch" {
                continue; // §8.4 plots the no-map techniques
            }
            let m = evaluate_by_road_type(
                t.as_ref(),
                &dataset,
                100.0,
                city.default_delta_m(),
                sparse_m,
                20.0,
                EVAL_LIMIT,
            );
            let scores = |m: &MetricsAccumulator| RoadScores {
                recall: m.recall(),
                precision: m.precision(),
                failure_rate: m.failure_rate(),
            };
            rows.push(RoadTypeRow {
                sparse_m,
                technique: t.name().to_string(),
                straight: scores(&m.straight),
                curved: scores(&m.curved),
            });
        }
    }
    rows
}

/// Figure 12-III: hexagons vs squares.
pub fn fig12_grid(scale: DatasetScale) -> Figure {
    let city = City::Jakarta;
    let dataset = city.dataset(scale);
    let mut points = Vec::new();
    let mut techniques: Vec<Box<dyn TrajectoryImputer>> = Vec::new();
    for (grid, label) in [(GridKind::Hex, "Hex(H3)"), (GridKind::Square, "Square(S2)")] {
        let (mut k, _) = train_kamel(&dataset, default_kamel_config().grid(grid).build());
        k.label = label.to_string();
        techniques.push(Box::new(k));
    }
    for sparse_m in [1_000.0, 2_000.0, 3_000.0, 4_000.0] {
        let ctx = EvalContext {
            sparse_m,
            delta_m: city.default_delta_m(),
            ..EvalContext::default()
        };
        let results = techniques
            .iter()
            .map(|t| evaluate_technique(t.as_ref(), &dataset, &ctx, EVAL_LIMIT))
            .collect();
        points.push(SweepPoint { x: sparse_m, results });
    }
    Figure {
        id: "fig12-grid".into(),
        x_label: "sparseness_m".into(),
        points,
    }
}

/// Figure 12-IV: training data size (100/75/50/25%).
pub fn fig12_size(scale: DatasetScale) -> Figure {
    let city = City::Jakarta;
    let full = city.dataset(scale);
    let mut points = Vec::new();
    for pct in [100usize, 75, 50, 25] {
        let mut dataset = full.clone();
        let keep = dataset.train.len() * pct / 100;
        dataset.train.truncate(keep.max(1));
        let (mut kamel, _) = train_kamel(&dataset, default_kamel_config().build());
        kamel.label = format!("KAMEL-{pct}%");
        let ctx = EvalContext {
            delta_m: city.default_delta_m(),
            ..EvalContext::default()
        };
        let result = evaluate_technique(&kamel, &full, &ctx, EVAL_LIMIT);
        points.push(SweepPoint {
            x: pct as f64,
            results: vec![result],
        });
    }
    Figure {
        id: "fig12-size".into(),
        x_label: "train_pct".into(),
        points,
    }
}

/// Figure 12-V: training data density (1/15/30/60 s resampling).
pub fn fig12_density(scale: DatasetScale) -> Figure {
    let city = City::Jakarta;
    let full = city.dataset(scale);
    let mut points = Vec::new();
    for period_s in [1.0, 15.0, 30.0, 60.0] {
        let mut dataset = full.clone();
        if period_s > 1.0 {
            dataset.train = dataset.train.iter().map(|t| t.resample(period_s)).collect();
        }
        let (mut kamel, _) = train_kamel(&dataset, default_kamel_config().build());
        kamel.label = format!("KAMEL-{period_s}s");
        let ctx = EvalContext {
            delta_m: city.default_delta_m(),
            ..EvalContext::default()
        };
        let result = evaluate_technique(&kamel, &full, &ctx, EVAL_LIMIT);
        points.push(SweepPoint {
            x: period_s,
            results: vec![result],
        });
    }
    Figure {
        id: "fig12-density".into(),
        x_label: "sampling_period_s".into(),
        points,
    }
}

/// Figure 12-VI: ablation — full vs No Part. / No Const. / No Multi.
pub fn fig12_ablation(scale: DatasetScale) -> Figure {
    let city = City::Jakarta;
    let dataset = city.dataset(scale);
    let variants: Vec<(&str, KamelConfig)> = vec![
        ("KAMEL", default_kamel_config().build()),
        (
            "NoPart",
            default_kamel_config().disable_partitioning(true).build(),
        ),
        (
            "NoConst",
            default_kamel_config().disable_constraints(true).build(),
        ),
        (
            "NoMulti",
            default_kamel_config()
                .multipoint(MultipointStrategy::Single)
                .build(),
        ),
    ];
    let mut techniques: Vec<Box<dyn TrajectoryImputer>> = Vec::new();
    for (label, config) in variants {
        let (mut k, _) = train_kamel(&dataset, config);
        k.label = label.to_string();
        techniques.push(Box::new(k));
    }
    let mut points = Vec::new();
    for sparse_m in [1_000.0, 2_000.0, 3_000.0, 4_000.0] {
        let ctx = EvalContext {
            sparse_m,
            delta_m: city.default_delta_m(),
            ..EvalContext::default()
        };
        let results = techniques
            .iter()
            .map(|t| evaluate_technique(t.as_ref(), &dataset, &ctx, EVAL_LIMIT))
            .collect();
        points.push(SweepPoint { x: sparse_m, results });
    }
    Figure {
        id: "fig12-ablation".into(),
        x_label: "sparseness_m".into(),
        points,
    }
}

/// Figure 3(d) / §3.2: accuracy vs cell size.
pub fn fig3d(scale: DatasetScale) -> Figure {
    let city = City::Porto;
    let dataset = city.dataset(scale);
    let mut points = Vec::new();
    for edge_m in [25.0, 50.0, 75.0, 100.0, 150.0, 200.0] {
        let (mut kamel, _) = train_kamel(&dataset, default_kamel_config().cell_edge_m(edge_m).build());
        kamel.label = format!("H={edge_m}m");
        let ctx = EvalContext {
            delta_m: city.default_delta_m(),
            ..EvalContext::default()
        };
        let result = evaluate_technique(&kamel, &dataset, &ctx, EVAL_LIMIT);
        points.push(SweepPoint {
            x: edge_m,
            results: vec![result],
        });
    }
    Figure {
        id: "fig3d-cellsize".into(),
        x_label: "hex_edge_m".into(),
        points,
    }
}

/// §6 comparison: beam search vs iterative calling vs single call.
pub fn beam_vs_iterative(scale: DatasetScale) -> Figure {
    let city = City::Porto;
    let dataset = city.dataset(scale);
    let mut techniques: Vec<Box<dyn TrajectoryImputer>> = Vec::new();
    for (label, strategy) in [
        ("Beam", MultipointStrategy::Beam),
        ("Iterative", MultipointStrategy::Iterative),
        ("Single", MultipointStrategy::Single),
    ] {
        let (mut k, _) = train_kamel(&dataset, default_kamel_config().multipoint(strategy).build());
        k.label = label.to_string();
        techniques.push(Box::new(k));
    }
    let mut points = Vec::new();
    for sparse_m in [1_000.0, 2_000.0, 3_000.0] {
        let ctx = EvalContext {
            sparse_m,
            delta_m: city.default_delta_m(),
            ..EvalContext::default()
        };
        let results = techniques
            .iter()
            .map(|t| evaluate_technique(t.as_ref(), &dataset, &ctx, EVAL_LIMIT))
            .collect();
        points.push(SweepPoint { x: sparse_m, results });
    }
    Figure {
        id: "beam-vs-iterative".into(),
        x_label: "sparseness_m".into(),
        points,
    }
}

/// Map-inference payoff (the paper's §1 motivation): quality of a
/// density-inferred road map from raw sparse fixes vs linear interpolation
/// vs KAMEL-imputed trajectories, against the hidden network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MapInferRow {
    /// Which trajectories fed the inference.
    pub input: String,
    /// Fraction of true road cells discovered.
    pub road_recall: f64,
    /// Fraction of inferred cells that are real road.
    pub road_precision: f64,
    /// Harmonic mean.
    pub f1: f64,
}

/// Runs the map-inference comparison on the Porto analogue at 1.5 km
/// sparsity.
pub fn map_inference(scale: DatasetScale) -> Vec<MapInferRow> {
    use kamel_baselines::LinearImputer;
    use kamel_eval::mapinfer::{compare_maps, infer_map, rasterize_network, MapInferConfig};
    use kamel_geo::Trajectory;

    let dataset = City::Porto.dataset(scale);
    let proj = dataset.projection();
    let cfg = MapInferConfig::default();
    let truth = rasterize_network(&dataset.network, &cfg);
    let (kamel, _) = train_kamel(&dataset, default_kamel_config().build());
    let sparse: Vec<Trajectory> = dataset.test.iter().map(|t| t.sparsify(1_500.0)).collect();
    let raw_fixes: Vec<Trajectory> = sparse
        .iter()
        .flat_map(|t| t.points.iter().map(|p| Trajectory::new(vec![*p])))
        .collect();
    let linear = LinearImputer::default();
    let linear_dense: Vec<Trajectory> =
        sparse.iter().map(|t| linear.impute(t).trajectory).collect();
    let kamel_dense: Vec<Trajectory> = sparse
        .iter()
        .map(|t| kamel.kamel.impute(t).trajectory)
        .collect();
    let mut rows = Vec::new();
    for (label, trajs) in [
        ("sparse-fixes", &raw_fixes),
        ("linear", &linear_dense),
        ("KAMEL", &kamel_dense),
    ] {
        let q = compare_maps(&infer_map(trajs, &proj, &cfg), &truth, 1);
        rows.push(MapInferRow {
            input: label.to_string(),
            road_recall: q.road_recall,
            road_precision: q.road_precision,
            f1: q.f1,
        });
    }
    rows
}

/// Coverage-skew study (extension): the paper's Jakarta behaviour depends
/// on fleets that cluster around demand hotspots, leaving most streets
/// thinly observed. Compares KAMEL vs TrImpute on the uniform Jakarta
/// analogue and an OD-hotspot-skewed variant.
pub fn coverage_skew(scale: DatasetScale) -> Figure {
    let mut points = Vec::new();
    for (x, dataset) in [
        (0.0, Dataset::jakarta_like(scale)),
        (6.0, Dataset::jakarta_like_skewed(scale, 6)),
    ] {
        let (kamel, _) = train_kamel(&dataset, default_kamel_config().build());
        let (trimpute, _) = train_trimpute(&dataset, TrImputeConfig::default());
        let ctx = EvalContext {
            sparse_m: 1_500.0,
            delta_m: City::Jakarta.default_delta_m(),
            ..EvalContext::default()
        };
        let results = vec![
            evaluate_technique(&kamel, &dataset, &ctx, EVAL_LIMIT),
            evaluate_technique(&trimpute, &dataset, &ctx, EVAL_LIMIT),
        ];
        points.push(SweepPoint { x, results });
    }
    Figure {
        id: "coverage-skew".into(),
        x_label: "od_hotspots".into(),
        points,
    }
}

/// §5.1 speed-policy comparison: the paper's fixed trained cap vs its
/// stated alternative (preceding-segment speed × conservative factor).
pub fn speed_mode(scale: DatasetScale) -> Figure {
    let city = City::Porto;
    let dataset = city.dataset(scale);
    let mut techniques: Vec<Box<dyn TrajectoryImputer>> = Vec::new();
    for (label, mode) in [
        ("Fixed", SpeedMode::FixedFromTraining),
        ("Adaptive1.5x", SpeedMode::AdaptivePreceding { factor: 1.5 }),
        ("Adaptive2.5x", SpeedMode::AdaptivePreceding { factor: 2.5 }),
    ] {
        let (mut k, _) = train_kamel(&dataset, default_kamel_config().speed_mode(mode).build());
        k.label = label.to_string();
        techniques.push(Box::new(k));
    }
    let mut points = Vec::new();
    for sparse_m in [1_000.0, 2_000.0, 3_000.0] {
        let ctx = EvalContext {
            sparse_m,
            delta_m: city.default_delta_m(),
            ..EvalContext::default()
        };
        let results = techniques
            .iter()
            .map(|t| evaluate_technique(t.as_ref(), &dataset, &ctx, EVAL_LIMIT))
            .collect();
        points.push(SweepPoint { x: sparse_m, results });
    }
    Figure {
        id: "speed-mode".into(),
        x_label: "sparseness_m".into(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke test: the smallest figure runs end to end at Small scale.
    #[test]
    fn fig3d_smoke() {
        let city = City::Porto;
        let dataset = city.dataset(DatasetScale::Small);
        let (kamel, _) = train_kamel(&dataset, default_kamel_config().pyramid_height(3).model_threshold_k(150).build());
        let ctx = EvalContext {
            delta_m: city.default_delta_m(),
            ..EvalContext::default()
        };
        let r = evaluate_technique(&kamel, &dataset, &ctx, 5);
        assert!(r.recall > 0.0);
        assert_eq!(r.trajectories, 5);
    }
}
