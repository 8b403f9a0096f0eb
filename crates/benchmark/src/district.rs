//! The one simulated district every workload runs on, the two systems
//! trained on it, and the fixed evaluation set.
//!
//! Everything here is frozen in source: `--seed` never reaches this file,
//! so the trained models, the evaluation set and therefore recall,
//! precision and the failure rate are the same in every run of a commit.

use kamel::{Kamel, KamelConfig};
use kamel_eval::MetricsAccumulator;
use kamel_geo::{LatLng, Trajectory};
use kamel_lm::{BertEngineConfig, BertScale, EngineConfig, NgramConfig};
use kamel_roadsim::{CityConfig, Dataset, TripConfig};
use std::time::Instant;

/// A 12 × 12-block district, 1.65 km across, with the motifs of the
/// paper's Figure 5 (a roundabout pair, a diagonal, a ring road, an
/// overpass). Every field is spelled out so that a changed default in
/// `kamel_roadsim` cannot silently change the benchmark's inputs.
pub fn dataset() -> Dataset {
    let city = CityConfig {
        cols: 12,
        rows: 12,
        spacing_m: 150.0,
        jitter_m: 12.0,
        street_removal_prob: 0.06,
        diagonals: 1,
        roundabouts: 2,
        ring_road: true,
        overpass: true,
        seed: 0xD157_0001,
    };
    let trips = TripConfig {
        n_trips: 1_500,
        sample_period_s: 10.0,
        speed_mps: 10.0,
        speed_jitter: 0.25,
        gps_noise_m: 4.0,
        min_trip_dist_m: 800.0,
        hotspots: 0,
        seed: 0xD157_0002,
    };
    Dataset::generate("district", LatLng::new(41.15, -8.61), &city, &trips)
}

/// Which masked-token engine a fixture trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Ngram,
    Bert,
}

/// The n-gram system: three pyramid levels, the lower two maintained, over
/// all 1 200 training trips.
fn ngram_config() -> KamelConfig {
    KamelConfig::builder()
        .engine(EngineConfig::Ngram(NgramConfig::default()))
        .pyramid_height(3)
        .pyramid_maintained(2)
        .model_threshold_k(300)
        .threads(Some(1))
        .build()
}

/// Trips the BERT system trains on. Chosen with the epochs below so that
/// training stays near 2.5 s on this host (it is paid in every run of two
/// workloads) while four of five gaps are still filled by the model.
const BERT_TRAIN_TRIPS: usize = 300;

/// The BERT system: a two-level pyramid — one pinned root model and eight
/// leaf records (four single cells, four neighbour pairs) — of the `Tiny`
/// scale.
fn bert_config() -> KamelConfig {
    KamelConfig::builder()
        .engine(EngineConfig::Bert(BertEngineConfig {
            scale: BertScale::Tiny,
            epochs: 4,
            lr: 3e-3,
            batch_size: 8,
            dropout: 0.0,
            seed: 0xD157_0003,
        }))
        .pyramid_height(2)
        .pyramid_maintained(2)
        .model_threshold_k(300)
        .threads(Some(1))
        .build()
}

/// A trained heap-resident system: the reference every output is checked
/// against, and what gets saved or packed for the system under test.
pub struct Fixture {
    pub dataset: Dataset,
    pub kamel: Kamel,
    pub train_s: f64,
}

impl Fixture {
    pub fn train(engine: Engine) -> Fixture {
        let dataset = dataset();
        let (config, trips) = match engine {
            Engine::Ngram => (ngram_config(), dataset.train.len()),
            Engine::Bert => (bert_config(), BERT_TRAIN_TRIPS),
        };
        let kamel = Kamel::new(config);
        let started = Instant::now();
        kamel.train(&dataset.train[..trips]);
        let train_s = started.elapsed().as_secs_f64();
        Fixture {
            dataset,
            kamel,
            train_s,
        }
    }
}

/// Sparsification distance of the evaluation set and of the request
/// bodies `serve_reload` sends (the paper's default, §8).
pub const EVAL_SPARSE_M: f64 = 400.0;
/// Accuracy threshold δ.
const DELTA_M: f64 = 50.0;
/// Ground-truth trajectories scored; the first this many of the test split.
const EVAL_TRAJECTORIES: usize = 100;

/// Recall, precision and the share of gaps the model filled.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    pub recall: f64,
    pub precision: f64,
    pub filled_gap_share: f64,
}

/// Scores `kamel` on the fixed evaluation set.
pub fn quality(kamel: &Kamel, dataset: &Dataset) -> Quality {
    let proj = dataset.projection();
    let max_gap_m = kamel.config().max_gap_m;
    let mut acc = MetricsAccumulator::default();
    for truth in eval_truths(dataset) {
        let out = kamel.impute(&truth.sparsify(EVAL_SPARSE_M));
        acc.add_pair(truth, &out.trajectory, &proj, max_gap_m, DELTA_M);
        let failed = out.gaps.iter().filter(|g| g.outcome.failed).count();
        acc.add_failures(out.gaps.len(), failed);
    }
    Quality {
        recall: acc.recall(),
        precision: acc.precision(),
        filled_gap_share: 1.0 - acc.failure_rate().unwrap_or(1.0),
    }
}

fn eval_truths(dataset: &Dataset) -> impl Iterator<Item = &Trajectory> {
    dataset
        .test
        .iter()
        .filter(|t| t.len() >= 3)
        .take(EVAL_TRAJECTORIES)
}

/// Test trajectories the seeded workloads draw their inputs from: the part
/// of the test split the evaluation set does not use.
pub fn input_truths(dataset: &Dataset) -> Vec<&Trajectory> {
    dataset
        .test
        .iter()
        .filter(|t| t.len() >= 3)
        .skip(EVAL_TRAJECTORIES)
        .collect()
}
