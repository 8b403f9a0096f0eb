//! The connection layer: one epoll/kqueue reactor thread multiplexes
//! every connection through non-blocking state machines, so concurrent
//! keep-alive connections are bounded by file descriptors — not by
//! threads — and a fixed pool of dispatch workers runs the service code.
//!
//! ```text
//!              ┌────────────────────────── reactor thread ─────────────┐
//!  accept ──▶  │ non-blocking accept → Conn slab (generation tokens)   │
//!              │                                                       │
//!  readable ─▶ │ Reading ──(RequestParser)──▶ Dispatched ──────────────┼──▶ dispatch
//!              │    ▲                                                  │    channel
//!  writable ─▶ │ KeepAlive ◀── Writing ◀──(serialize + close rule)─────┼◀── ResponseSink
//!              │    │                                                  │    (worker pool)
//!  timer ────▶ │  idle / slow-loris close (hashed timer wheel)         │
//!              └───────────────────────────────────────────────────────┘
//! ```
//!
//! [`ReactorHandle::spawn`] is the whole lifecycle: it builds the
//! selector, starts the reactor thread and the dispatch pool, and
//! [`ReactorHandle::join`] drains them. `kamel serve` and `kamel route`
//! both sit on it, differing only in the routing function they pass.
//!
//! The reactor thread never blocks on a socket and never runs service
//! code: a parsed request goes down the dispatch channel with the instant
//! its last byte was parsed (the deadline base — time spent queued counts
//! against the request budget); a worker calls the routing function and
//! sends the [`crate::http::Response`] back, which wakes the reactor to
//! serialize and write it. A worker that panics mid-request answers `500`
//! and closes that connection instead of leaking it.
//!
//! Wire bytes do not depend on how a request was fragmented: parsing
//! delegates to the canonical [`crate::http::read_request`] (see
//! [`crate::http::RequestParser`]), serialization is
//! [`crate::http::Response::write_to`], and a connection closes after a
//! response when the client asked (`Connection: close`), the response is
//! a shed/draining `503`, or the server is draining.
//!
//! Timeouts run on the injectable [`crate::clock::Clock`] through a
//! hashed timer wheel: one lazy entry per connection, re-armed on expiry
//! if the connection saw activity since — O(1) per I/O event. Graceful
//! drain: the listener stops accepting, idle connections close
//! immediately, in-flight requests finish (bounded by their deadline
//! budget) and their connections close after the response.
//!
//! Supported where a selector exists — Linux/Android (epoll) and
//! macOS/iOS/FreeBSD (kqueue). Elsewhere [`ReactorHandle::spawn`], and so
//! `Server::bind` / `Router::bind`, return `Unsupported`.

use crate::clock::Clock;
use crate::http::{Request, Response};
use crate::shutdown::ShutdownFlag;
use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[cfg(any(
    target_os = "linux",
    target_os = "android",
    target_os = "macos",
    target_os = "ios",
    target_os = "freebsd"
))]
mod event_loop;

/// Reactor tuning knobs.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Hard cap on concurrently open connections; an accept beyond it is
    /// answered `503` and closed immediately.
    pub max_connections: usize,
    /// A connection with no read/write progress for this long is closed
    /// (idle keep-alive and slow-loris alike). In-flight dispatched
    /// requests are exempt — their lifetime is bounded by the request
    /// deadline, not the socket timer.
    pub idle_timeout: Duration,
    /// Upper bound on one poll cycle — how quickly the loop notices a
    /// tripped shutdown flag or an injected-clock jump with no I/O.
    pub loop_tick: Duration,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self {
            max_connections: 10_000,
            idle_timeout: Duration::from_secs(30),
            loop_tick: Duration::from_millis(25),
        }
    }
}

/// Connection-layer counters, exported on `/metrics` as
/// `kamel_connections_*` and on `GET /v1/info` as `connections`. Shared
/// between the reactor (writer) and the metrics endpoints (readers).
#[derive(Debug, Default)]
pub struct ConnStats {
    /// Currently open connections (gauge).
    pub active: AtomicU64,
    /// Connections ever accepted and admitted.
    pub accepted_total: AtomicU64,
    /// Connections closed by the idle/slow-loris timer.
    pub timed_out_total: AtomicU64,
    /// Connections refused at accept time (`max_connections`).
    pub rejected_total: AtomicU64,
}

impl ConnStats {
    /// The Prometheus-format block for `/metrics` (newline-terminated).
    pub fn render(&self) -> String {
        let active = self.active.load(Ordering::Relaxed);
        let accepted = self.accepted_total.load(Ordering::Relaxed);
        let timed_out = self.timed_out_total.load(Ordering::Relaxed);
        let rejected = self.rejected_total.load(Ordering::Relaxed);
        format!(
            "# TYPE kamel_connections_active gauge\n\
             kamel_connections_active {active}\n\
             # TYPE kamel_connections_accepted_total counter\n\
             kamel_connections_accepted_total {accepted}\n\
             # TYPE kamel_connections_timed_out_total counter\n\
             kamel_connections_timed_out_total {timed_out}\n\
             # TYPE kamel_connections_rejected_total counter\n\
             kamel_connections_rejected_total {rejected}\n"
        )
    }
}

/// A running connection layer: the reactor thread and its dispatch pool.
/// Dropping it detaches the threads; trip the shutdown flag and call
/// [`ReactorHandle::join`] for the graceful path.
pub struct ReactorHandle {
    reactor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ReactorHandle {
    /// Starts the connection layer on `listener`: one reactor thread
    /// (`{name}-reactor`) and `handlers` dispatch workers (`{name}-{i}`)
    /// that call `handle` with each parsed request and the instant its
    /// last byte came off the wire. `handle` may block (on a batcher
    /// ticket, on a shard socket); it runs on the workers only.
    ///
    /// The selector is built before any thread starts, so a platform
    /// without one (or a process out of descriptors) is an `Err` here and
    /// nothing is left running.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        listener: TcpListener,
        config: ReactorConfig,
        clock: Arc<dyn Clock>,
        flag: ShutdownFlag,
        stats: Arc<ConnStats>,
        handlers: usize,
        name: &str,
        handle: impl Fn(&Request, Instant) -> Response + Send + Sync + 'static,
    ) -> io::Result<ReactorHandle> {
        #[cfg(any(
            target_os = "linux",
            target_os = "android",
            target_os = "macos",
            target_os = "ios",
            target_os = "freebsd"
        ))]
        return Self::spawn_with(
            crate::poller::Poller::new,
            listener,
            config,
            clock,
            flag,
            stats,
            handlers,
            name,
            handle,
        );
        #[cfg(not(any(
            target_os = "linux",
            target_os = "android",
            target_os = "macos",
            target_os = "ios",
            target_os = "freebsd"
        )))]
        {
            let _ = (listener, config, clock, flag, stats, handlers, name, handle);
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "no epoll/kqueue on this platform",
            ))
        }
    }

    /// Waits for the drain: the reactor thread exits once the (already
    /// tripped) shutdown flag is seen and every connection has closed,
    /// which disconnects the dispatch channel and ends the workers. When
    /// this returns no thread holds `handle` any more.
    pub fn join(self) {
        let _ = self.reactor.join();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conn_stats_render_prometheus_lines() {
        let stats = ConnStats::default();
        stats.active.store(3, Ordering::Relaxed);
        stats.accepted_total.store(10, Ordering::Relaxed);
        let page = stats.render();
        assert!(page.contains("kamel_connections_active 3\n"), "{page}");
        assert!(page.contains("kamel_connections_accepted_total 10\n"), "{page}");
        assert!(page.contains("kamel_connections_timed_out_total 0\n"), "{page}");
        assert!(page.contains("kamel_connections_rejected_total 0\n"), "{page}");
    }
}
