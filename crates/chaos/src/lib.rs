//! # kamel-chaos — a deterministic fault-injecting TCP proxy
//!
//! Resilience claims are cheap; this crate makes them testable. A
//! [`ChaosProxy`] sits between a `kamel-router` and one shard of a
//! `kamel-server` fleet and injects network faults on a **deterministic
//! schedule**: each accepted connection is numbered in accept order, and a
//! [`ChaosSchedule`] — either a seeded pure function of the connection
//! index or an explicit script like `refuse*20,none` — decides which
//! [`Fault`] that connection suffers. Same seed (or script) → same fault
//! sequence, every run, so the chaos integration suite replays exact
//! failure interleavings instead of hoping a flaky network shows up.
//!
//! The injected faults cover the failure modes a TCP client can actually
//! observe:
//!
//! * [`Fault::Refuse`] — accept then immediately close: the connection
//!   dies before a byte is exchanged, like a down backend.
//! * [`Fault::Stall`] — accept and go silent: never read, never write,
//!   hold the socket open. Exercises connect-vs-read timeout handling.
//! * [`Fault::SlowLoris`] — relay the response one byte at a time with a
//!   delay between bytes. Exercises overall-budget enforcement (a
//!   per-read timeout alone never fires).
//! * [`Fault::ResetMidBody`] — send response headers plus a torn JSON
//!   prefix, then close with the request body deliberately unread so the
//!   kernel answers with RST. Exercises mid-body connection-reset
//!   handling and mixed-bytes rejection.
//! * [`Fault::Torn`] — relay a short prefix of the real response, then a
//!   clean FIN. Exercises short-read detection (`Content-Length`
//!   mismatch must not parse as success).
//! * [`Fault::None`] — a faithful full-duplex relay, so healthy traffic
//!   through the proxy is byte-identical to a direct connection.
//!
//! Everything is `std`-only (the build environment has no crates
//! registry). The CLI front-end is `kamel chaos`; the protocol-level
//! consumers are `crates/router/tests/chaos_integration.rs` and the CI
//! `chaos-smoke` job. See `DESIGN.md` §14.3 for the schedule format.

#![warn(missing_docs)]

pub mod proxy;
pub mod schedule;

pub use proxy::{ChaosConfig, ChaosProxy};
pub use schedule::{ChaosSchedule, Fault};
