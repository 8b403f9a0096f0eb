//! System configuration with the paper's default parameters (§8).

use crate::error::KamelError;
use kamel_lm::EngineConfig;
use serde::{Deserialize, Serialize};

/// Which tessellation the Tokenization module uses (§3.1 vs §8.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum GridKind {
    /// Uber-H3-style flat hexagons (the paper's choice).
    #[default]
    Hex,
    /// Google-S2-style squares (the §8.5 comparison).
    Square,
}

/// How the Multipoint Imputation module fills a gap (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum MultipointStrategy {
    /// Bidirectional beam search (§6.2) — the paper's default.
    #[default]
    Beam,
    /// Greedy iterative calling (§6.1).
    Iterative,
    /// Call the model exactly once per gap — the "No Multi." ablation
    /// variant of §8.7.
    Single,
}

/// How the §5.1 speed-constraint cap is chosen per gap.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum SpeedMode {
    /// One fixed cap inferred from the training data (the paper's current
    /// choice: "KAMEL currently uses a fixed speed inferred from its
    /// training trajectory data").
    #[default]
    FixedFromTraining,
    /// The paper's stated alternative: "consider the speed of the preceding
    /// imputed segment multiplied by a conservative factor". The cap for a
    /// gap becomes `observed speed of the preceding sparse segment ×
    /// factor`, falling back to (and never exceeding) the trained cap.
    AdaptivePreceding {
        /// Conservative multiplier on the preceding segment's speed.
        factor: f64,
    },
}

/// Detokenization clustering parameters (§7).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetokConfig {
    /// DBSCAN neighborhood: spatial scale in meters.
    pub eps_xy_m: f64,
    /// DBSCAN neighborhood: heading scale in degrees.
    pub eps_heading_deg: f64,
    /// DBSCAN core-point minimum neighborhood size.
    pub min_pts: usize,
}

impl Default for DetokConfig {
    fn default() -> Self {
        Self {
            eps_xy_m: 25.0,
            eps_heading_deg: 30.0,
            min_pts: 4,
        }
    }
}

/// Full KAMEL configuration. Defaults follow §8 ("Default values and
/// parameter tuning") except where the paper's value assumes city-scale
/// datasets; those keep the same meaning at simulator scale and are
/// documented per field.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KamelConfig {
    /// Tessellation kind.
    pub grid: GridKind,
    /// Grid cell edge length `H` in meters (paper default 75 m; §3.2 studies
    /// 25–200 m).
    pub cell_edge_m: f64,
    /// Maximum allowed distance between consecutive output tokens,
    /// `max_gap`, in meters (paper default 100 m).
    pub max_gap_m: f64,
    /// Beam width `B` for bidirectional beam search (paper default 10).
    pub beam_size: usize,
    /// Length-normalization strength α in `P × |S|^α` (paper default 1).
    pub length_norm_alpha: f64,
    /// Multipoint strategy.
    pub multipoint: MultipointStrategy,
    /// Candidates requested from the model per call (top-k).
    pub top_k: usize,
    /// Hard limit on model calls per gap; when exceeded the segment is
    /// imputed by a straight line and counted as a failure (§6).
    pub max_model_calls: usize,
    /// Direction-constraint cone in degrees (paper default 45°).
    pub direction_cone_deg: f64,
    /// Maximum repeated-sequence length checked by cycle prevention
    /// (paper default x = 6).
    pub cycle_window: usize,
    /// Slack multiplier applied to the speed inferred from training data
    /// when building the §5.1 ellipse.
    pub speed_slack: f64,
    /// Per-gap speed-cap policy (§5.1).
    pub speed_mode: SpeedMode,
    /// Pyramid height `H`: number of levels, root = level 0 (paper uses 10
    /// over the whole world; at simulator scale 4–5 over the dataset area
    /// gives the same leaf-cell granularity relative to the data).
    pub pyramid_height: usize,
    /// Number of lowest pyramid levels maintained, `L` (paper default 3).
    pub pyramid_maintained: usize,
    /// Model threshold base `k`: a cell at level `l` earns a model once it
    /// holds `k × 4^(leaf−l)` tokens (paper default 20 K; scaled down with
    /// the simulated data volume).
    pub model_threshold_k: u64,
    /// Language-model engine trained per pyramid cell.
    pub engine: EngineConfig,
    /// Detokenization clustering parameters.
    pub detok: DetokConfig,
    /// Ablation switch (§8.7 "No Part."): train a single global model.
    pub disable_partitioning: bool,
    /// Ablation switch (§8.7 "No Const."): accept every model prediction.
    pub disable_constraints: bool,
    /// Process-wide budget of outer workers (per-cell maintenance, batch
    /// imputation). `None` resolves via the `KAMEL_THREADS` env var, then
    /// `available_parallelism()`. Only execution speed changes — both
    /// tiers are bit-identical to their sequential counterparts.
    #[serde(default)]
    pub threads: Option<usize>,
    /// Serve BERT models through the int8 weight-quantized path. Enabling
    /// is gated: quantization only activates when every BERT model's
    /// top-1 agreement with its f32 twin stays at or above
    /// [`KamelConfig::quantize_min_agreement`]; otherwise enabling fails
    /// and the f32 path keeps serving. The int8 weights are derived state,
    /// rebuilt (and re-gated) whenever a model loads from disk.
    #[serde(default)]
    pub quantize: bool,
    /// Accuracy gate for [`KamelConfig::quantize`]: minimum acceptable
    /// top-1 agreement (f32 vs int8) over seeded probes, in [0, 1].
    #[serde(default = "default_quantize_min_agreement")]
    pub quantize_min_agreement: f64,
    /// Byte budget for the store-backed resident model set (`kamel serve
    /// --store --model-memory-budget`). `None` (the default) means
    /// unbounded residency. Heap-resident systems ignore it.
    #[serde(default)]
    pub model_memory_budget: Option<u64>,
}

/// Serde default for [`KamelConfig::quantize_min_agreement`].
fn default_quantize_min_agreement() -> f64 {
    0.98
}

impl Default for KamelConfig {
    fn default() -> Self {
        Self {
            grid: GridKind::Hex,
            cell_edge_m: 75.0,
            max_gap_m: 100.0,
            beam_size: 10,
            length_norm_alpha: 1.0,
            multipoint: MultipointStrategy::Beam,
            top_k: 10,
            max_model_calls: 1_500,
            direction_cone_deg: 45.0,
            cycle_window: 6,
            speed_slack: 1.5,
            speed_mode: SpeedMode::default(),
            pyramid_height: 4,
            pyramid_maintained: 3,
            model_threshold_k: 3_000,
            engine: EngineConfig::default(),
            detok: DetokConfig::default(),
            disable_partitioning: false,
            disable_constraints: false,
            threads: None,
            quantize: false,
            quantize_min_agreement: default_quantize_min_agreement(),
            model_memory_budget: None,
        }
    }
}

impl KamelConfig {
    /// Starts a builder with the defaults.
    pub fn builder() -> KamelConfigBuilder {
        KamelConfigBuilder::default()
    }

    /// Validates parameter interactions.
    pub fn validate(&self) -> Result<(), KamelError> {
        let fail = |msg: &str| Err(KamelError::InvalidConfig(msg.to_string()));
        if !(self.cell_edge_m.is_finite() && self.cell_edge_m > 0.0) {
            return fail("cell_edge_m must be positive");
        }
        if !(self.max_gap_m.is_finite() && self.max_gap_m > 0.0) {
            return fail("max_gap_m must be positive");
        }
        if self.beam_size == 0 {
            return fail("beam_size must be at least 1");
        }
        if self.top_k == 0 {
            return fail("top_k must be at least 1");
        }
        if self.max_model_calls == 0 {
            return fail("max_model_calls must be at least 1");
        }
        if !(0.0..=1.0).contains(&self.length_norm_alpha) {
            return fail("length_norm_alpha must be in [0, 1]");
        }
        if self.pyramid_height == 0 {
            return fail("pyramid_height must be at least 1");
        }
        if self.pyramid_maintained == 0 || self.pyramid_maintained > self.pyramid_height {
            return fail("pyramid_maintained must be in [1, pyramid_height]");
        }
        if self.model_threshold_k == 0 {
            return fail("model_threshold_k must be positive");
        }
        if self.speed_slack < 1.0 {
            return fail("speed_slack must be at least 1.0");
        }
        if let SpeedMode::AdaptivePreceding { factor } = self.speed_mode {
            if !(factor.is_finite() && factor >= 1.0) {
                return fail("adaptive speed factor must be at least 1.0");
            }
        }
        if self.threads == Some(0) {
            return fail("threads must be at least 1 when set");
        }
        if !(0.0..=1.0).contains(&self.quantize_min_agreement)
            || !self.quantize_min_agreement.is_finite()
        {
            return fail("quantize_min_agreement must be in [0, 1]");
        }
        if self.model_memory_budget == Some(0) {
            return fail("model_memory_budget must be positive when set");
        }
        Ok(())
    }

    /// The worker-thread count this configuration resolves to: the explicit
    /// [`KamelConfig::threads`] knob when set, otherwise the process-wide
    /// budget (env var or hardware parallelism).
    pub fn effective_threads(&self) -> usize {
        self.threads
            .unwrap_or_else(crate::threads::thread_budget)
            .max(1)
    }
}

/// Fluent builder for [`KamelConfig`].
#[derive(Debug, Clone, Default)]
pub struct KamelConfigBuilder {
    config: KamelConfig,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $name:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $name(mut self, value: $ty) -> Self {
                self.config.$name = value;
                self
            }
        )*
    };
}

impl KamelConfigBuilder {
    builder_setters! {
        /// Sets the tessellation kind.
        grid: GridKind,
        /// Sets the grid cell edge length in meters.
        cell_edge_m: f64,
        /// Sets `max_gap` in meters.
        max_gap_m: f64,
        /// Sets the beam width.
        beam_size: usize,
        /// Sets the length-normalization strength α.
        length_norm_alpha: f64,
        /// Sets the multipoint strategy.
        multipoint: MultipointStrategy,
        /// Sets the per-call candidate count.
        top_k: usize,
        /// Sets the per-gap model call budget.
        max_model_calls: usize,
        /// Sets the direction cone in degrees.
        direction_cone_deg: f64,
        /// Sets the cycle window x.
        cycle_window: usize,
        /// Sets the speed slack multiplier.
        speed_slack: f64,
        /// Sets the per-gap speed-cap policy.
        speed_mode: SpeedMode,
        /// Sets the pyramid height H.
        pyramid_height: usize,
        /// Sets the maintained level count L.
        pyramid_maintained: usize,
        /// Sets the model threshold base k.
        model_threshold_k: u64,
        /// Sets the language-model engine.
        engine: EngineConfig,
        /// Sets the detokenization clustering parameters.
        detok: DetokConfig,
        /// Enables the "No Part." ablation.
        disable_partitioning: bool,
        /// Enables the "No Const." ablation.
        disable_constraints: bool,
        /// Sets the worker-thread budget (`None` = auto).
        threads: Option<usize>,
        /// Enables the gated int8 weight-quantized serving path.
        quantize: bool,
        /// Sets the minimum f32-vs-int8 top-1 agreement for the gate.
        quantize_min_agreement: f64,
        /// Sets the resident-model byte budget (`None` = unbounded).
        model_memory_budget: Option<u64>,
    }

    /// Finishes the builder.
    ///
    /// # Panics
    /// Panics on invalid parameter combinations; use
    /// [`KamelConfigBuilder::try_build`] for a fallible version.
    pub fn build(self) -> KamelConfig {
        self.try_build().expect("invalid KAMEL configuration")
    }

    /// Finishes the builder, returning configuration errors.
    pub fn try_build(self) -> Result<KamelConfig, KamelError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = KamelConfig::default();
        assert_eq!(c.cell_edge_m, 75.0);
        assert_eq!(c.max_gap_m, 100.0);
        assert_eq!(c.beam_size, 10);
        assert_eq!(c.direction_cone_deg, 45.0);
        assert_eq!(c.cycle_window, 6);
        assert_eq!(c.pyramid_maintained, 3);
        assert_eq!(c.length_norm_alpha, 1.0);
        assert_eq!(c.grid, GridKind::Hex);
        assert_eq!(c.multipoint, MultipointStrategy::Beam);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_overrides_fields() {
        let c = KamelConfig::builder()
            .cell_edge_m(50.0)
            .beam_size(4)
            .multipoint(MultipointStrategy::Iterative)
            .disable_constraints(true)
            .build();
        assert_eq!(c.cell_edge_m, 50.0);
        assert_eq!(c.beam_size, 4);
        assert_eq!(c.multipoint, MultipointStrategy::Iterative);
        assert!(c.disable_constraints);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(KamelConfig::builder().cell_edge_m(0.0).try_build().is_err());
        assert!(KamelConfig::builder().beam_size(0).try_build().is_err());
        assert!(KamelConfig::builder()
            .pyramid_maintained(9)
            .pyramid_height(4)
            .try_build()
            .is_err());
        assert!(KamelConfig::builder()
            .length_norm_alpha(1.5)
            .try_build()
            .is_err());
        assert!(KamelConfig::builder().speed_slack(0.5).try_build().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid KAMEL configuration")]
    fn build_panics_on_invalid() {
        let _ = KamelConfig::builder().top_k(0).build();
    }

    #[test]
    fn config_roundtrips_through_serde() {
        let config = KamelConfig::builder()
            .cell_edge_m(50.0)
            .grid(GridKind::Square)
            .multipoint(MultipointStrategy::Iterative)
            .speed_mode(crate::config::SpeedMode::AdaptivePreceding { factor: 2.0 })
            .disable_partitioning(true)
            .build();
        let json = serde_json::to_string(&config).expect("serialize");
        let back: KamelConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.cell_edge_m, 50.0);
        assert_eq!(back.grid, GridKind::Square);
        assert_eq!(back.multipoint, MultipointStrategy::Iterative);
        assert!(back.disable_partitioning);
        assert!(matches!(
            back.speed_mode,
            crate::config::SpeedMode::AdaptivePreceding { factor } if factor == 2.0
        ));
        assert!(back.validate().is_ok());
    }

    /// The default configuration as persisted before `threads`, `quantize`,
    /// `quantize_min_agreement` and `model_memory_budget` existed.
    const PRE_KNOB_CONFIG: &str = r#"{"grid":"Hex","cell_edge_m":75.0,"max_gap_m":100.0,
        "beam_size":10,"length_norm_alpha":1.0,"multipoint":"Beam","top_k":10,
        "max_model_calls":1500,"direction_cone_deg":45.0,"cycle_window":6,"speed_slack":1.5,
        "speed_mode":"FixedFromTraining","pyramid_height":3,"pyramid_maintained":3,
        "model_threshold_k":500,"engine":{"Ngram":{"tri_weight":0.4,"between_weight":0.32,
        "fwd_weight":0.11,"bwd_weight":0.11,"uni_weight":0.06,"between_window":24,
        "prune_below":0}},"detok":{"eps_xy_m":25.0,"eps_heading_deg":30.0,"min_pts":4},
        "disable_partitioning":false,"disable_constraints":false}"#;

    #[test]
    fn threads_knob_validates_and_resolves() {
        assert!(KamelConfig::builder().threads(Some(0)).try_build().is_err());
        let c = KamelConfig::builder().threads(Some(3)).build();
        assert_eq!(c.effective_threads(), 3);
        // None resolves to the process-wide budget (always ≥ 1).
        assert!(KamelConfig::default().effective_threads() >= 1);
        // Configs persisted before the knob existed still deserialize.
        let back: KamelConfig = serde_json::from_str(PRE_KNOB_CONFIG).expect("deserialize");
        assert_eq!(back.threads, None);
    }

    #[test]
    fn quantize_knob_validates_and_defaults() {
        let c = KamelConfig::default();
        assert!(!c.quantize);
        assert_eq!(c.quantize_min_agreement, 0.98);
        assert!(KamelConfig::builder()
            .quantize_min_agreement(1.5)
            .try_build()
            .is_err());
        assert!(KamelConfig::builder()
            .quantize_min_agreement(f64::NAN)
            .try_build()
            .is_err());
        let c = KamelConfig::builder()
            .quantize(true)
            .quantize_min_agreement(0.9)
            .build();
        assert!(c.quantize);
        // Configs persisted before the knobs existed still deserialize.
        let back: KamelConfig = serde_json::from_str(PRE_KNOB_CONFIG).expect("deserialize");
        assert!(!back.quantize);
        assert_eq!(back.quantize_min_agreement, 0.98);
    }

    #[test]
    fn adaptive_speed_factor_validation() {
        use crate::config::SpeedMode;
        assert!(KamelConfig::builder()
            .speed_mode(SpeedMode::AdaptivePreceding { factor: 0.5 })
            .try_build()
            .is_err());
        assert!(KamelConfig::builder()
            .speed_mode(SpeedMode::AdaptivePreceding { factor: f64::NAN })
            .try_build()
            .is_err());
        assert!(KamelConfig::builder()
            .speed_mode(SpeedMode::AdaptivePreceding { factor: 1.5 })
            .try_build()
            .is_ok());
    }
}
