//! # kamel-server — online trajectory imputation over HTTP
//!
//! The paper demonstrates KAMEL as a *system*: trained once, then queried
//! online. This crate is that serving layer — a dependency-free HTTP/1.1
//! service over `std::net` exposing a shared [`kamel::Kamel`] to
//! concurrent clients:
//!
//! * **Worker pool** — a fixed number of batch workers drawn from the
//!   process thread budget run the imputation compute; cheap dispatch
//!   workers park on tickets while batches execute ([`batcher`]), and one
//!   reactor thread owns every socket ([`reactor`]).
//! * **Dynamic micro-batching** — concurrent single-trajectory requests
//!   are coalesced into one [`kamel::Kamel::impute_batch`] call under a
//!   max-batch-size / max-wait policy, and results are scattered back per
//!   request in order ([`batcher`]).
//! * **Response cache** — an LRU keyed by the tokenized gap context
//!   (cell-id sequence + gap spans + a digest of the raw fixes), with hit
//!   and miss counters ([`lru`], [`server::CacheKey`]).
//! * **Admission control** — a bounded queue sheds overload with
//!   `503 Service Unavailable` + `Retry-After`, every request carries a
//!   deadline (missed → `504`), and SIGTERM/ctrl-c trigger a graceful
//!   drain: in-flight work finishes, new work is refused ([`shutdown`]).
//!
//! Endpoints: `POST /v1/impute` (a sparse [`kamel_geo::Trajectory`] as
//! JSON in, an [`engine::ImputeResponse`] out), `GET /healthz`,
//! `GET /v1/info` (an [`engine::InfoResponse`] identity card — model
//! generation, vocabulary, config digest, thread budget — used by the
//! `kamel-router` fleet gateway for admission), and `GET /metrics`
//! (Prometheus-style text: request counts, latency and batch-size
//! histograms, cache hit rate, queue depth, shed count).
//!
//! The protocol and policies are specified in `DESIGN.md` §5; the CLI
//! front-end is `kamel serve`.
//!
//! The HTTP machinery is generic over [`server::WireService`], so the
//! whole stack short of the serde glue ([`engine`]) is `std`-only and
//! unit-tested with stub services — a deliberate choice: the build
//! environment has no crates registry, so the wire layer must not grow
//! dependencies.

#![warn(missing_docs)]

pub mod batcher;
pub mod client;
pub mod clock;
pub mod engine;
pub mod http;
pub mod learn;
pub mod lru;
pub mod metrics;
pub mod poller;
pub mod reactor;
pub mod server;
pub mod shutdown;

pub use batcher::{Batcher, BatcherConfig, SubmitError, WaitError};
pub use client::{Client, ClientResponse, RequestOpts, RetryPolicy, RetryingClient};
pub use clock::{Clock, ManualClock, SystemClock};
pub use engine::{config_digest, ImputeEngine, ImputeResponse, InfoResponse};
pub use http::{DEADLINE_HEADER, DEGRADED_HEADER};
pub use learn::{FeedbackAck, FeedbackRequest, LearnSink, LearningInfo};
pub use lru::LruCache;
pub use metrics::Metrics;
pub use reactor::{ConnStats, ReactorConfig, ReactorHandle};
pub use server::{CacheKey, Server, ServerConfig, WireService};
pub use shutdown::{install_signal_handlers, ShutdownFlag, SignalFlag};
