//! # KAMEL — a scalable BERT-based trajectory imputation system
//!
//! Pure-Rust reproduction of *KAMEL* (Musleh & Mokbel, PVLDB 17(3), 2023;
//! demonstrated at SIGMOD 2023). KAMEL inserts realistic points into sparse
//! GPS trajectories **without any road network knowledge** by mapping
//! trajectory imputation to NLP's missing-word problem: trajectories are
//! sentences, hexagonal grid cells are words, and a masked-language model
//! trained on trajectories predicts the cells missing from a gap.
//!
//! The system is the paper's five-module architecture (Figure 1):
//!
//! | Module | Paper § | Here |
//! |---|---|---|
//! | Tokenization (hex grid + cell-size auto-tuning) | §3 | [`tokenize`] |
//! | Partitioning (pyramid model repository)         | §4 | [`partition`] |
//! | Spatial Constraints (speed / direction / cycles)| §5 | [`constraints`] |
//! | Multipoint Imputation (iterative + beam search) | §6 | [`impute`] |
//! | Detokenization (DBSCAN direction clusters)      | §7 | [`detokenize`] |
//!
//! [`pipeline::Kamel`] wires them together behind the two entry points the
//! paper's architecture diagram shows: feeding training trajectories, and
//! imputing sparse trajectories (bulk or streaming).
//!
//! ## Quick example
//!
//! ```
//! use kamel::{Kamel, KamelConfig};
//! use kamel_geo::{GpsPoint, Trajectory};
//!
//! // A toy corpus: vehicles repeatedly drive the same straight street.
//! let street: Vec<Trajectory> = (0..30)
//!     .map(|_| Trajectory::new(
//!         (0..20)
//!             .map(|i| GpsPoint::from_parts(41.15, -8.61 + i as f64 * 0.001, i as f64 * 10.0))
//!             .collect(),
//!     ))
//!     .collect();
//!
//! let mut kamel = Kamel::new(KamelConfig::builder().cell_edge_m(75.0).build());
//! kamel.train(&street);
//!
//! // A sparse trajectory with a large gap in the middle of that street.
//! let sparse = Trajectory::new(vec![
//!     GpsPoint::from_parts(41.15, -8.61, 0.0),
//!     GpsPoint::from_parts(41.15, -8.591, 190.0),
//! ]);
//! let result = kamel.impute(&sparse);
//! assert!(result.trajectory.len() >= sparse.len());
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod cluster;
pub mod config;
pub mod constraints;
pub mod detokenize;
pub mod error;
pub mod impute;
pub mod partition;
pub mod pipeline;
pub mod routing;
pub mod source;
pub mod threads;
pub mod tokenize;

pub use config::{GridKind, KamelConfig, KamelConfigBuilder, MultipointStrategy, SpeedMode};
pub use error::KamelError;
pub use impute::SegmentOutcome;
pub use kamel_nn::active_isa;
pub use pipeline::{replay_recall, ExportedModel, ImputedTrajectory, Kamel, KamelStats};
pub use source::{ModelHandle, ModelSource, ResidencyStats};
pub use threads::{available_threads, set_thread_budget, thread_budget};
pub use tokenize::Tokenizer;
