//! # kamel-router — spatial scale-out over a fleet of kamel-servers
//!
//! KAMEL's partitioning module scales *models* to fine spatial regions
//! (the pyramid repository, paper §4); this crate scales *machines* the
//! same way. It is a dependency-free HTTP/1.1 gateway over `std::net`
//! that owns a static [`shardmap::ShardMap`] — routing-cell ownership
//! assigned by rendezvous (highest-random-weight) hashing over each
//! shard's id — and routes `POST /v1/impute` to the shard owning each
//! gap's anchor cell:
//!
//! * **Single-owner forwarding** — a request whose gaps all belong to one
//!   shard is forwarded verbatim and answered with the shard's bytes,
//!   byte-identical to a monolithic server over the same model.
//! * **Scatter-gather** — a trajectory spanning territories is split at
//!   ownership changes into boundary-sharing sub-trajectories, imputed in
//!   parallel, and merged in order ([`proxy`]).
//! * **Availability + failover** — one clock-free state machine per
//!   shard ([`gate`]) ejects a dead, failing, slow or foreign-digest
//!   shard, skips it in O(1) on the deterministic walk down each cell's
//!   rendezvous chain, and re-admits it through probe-gated probation.
//!   Every request carries a deadline budget (`x-kamel-deadline-ms` or
//!   the configured default) that is re-stamped on each forward and
//!   turns into an honest 504 when spent; and with `--degraded-mode` a
//!   request no shard can serve is answered from the linear baseline,
//!   marked `"degraded": true` + `x-kamel-degraded` (DESIGN.md §11.4,
//!   §14).
//!
//! Endpoints: `POST /v1/impute` (proxied), `GET /healthz`,
//! `GET /metrics` (per-shard request / failover / ejection counters,
//! state and in-flight gauges), `GET /v1/shards` (the live map + gate
//! states). The CLI front-end is `kamel route`; the protocol and the
//! gate are specified in `DESIGN.md` §11.

#![warn(missing_docs)]

pub mod gate;
pub mod metrics;
pub mod proxy;
pub mod router;
pub mod shardmap;

pub use gate::{Gate, GatePolicy, Permit, Probe, ShardState};
pub use metrics::{RouterMetrics, ShardCounters};
pub use proxy::{RouterConfig, RouterCore};
pub use router::Router;
pub use shardmap::{ShardInfo, ShardMap};
