//! The gateway server: the connection layer, the background probe
//! thread, and routing to the [`RouterCore`].
//!
//! The connection layer is `kamel-server`'s
//! ([`kamel_server::ReactorHandle`]): one epoll/kqueue reactor
//! thread owns every socket (accept, incremental parse, write-out, idle
//! timers) and hands parsed requests to a fixed pool of dispatch workers,
//! which run the proxy logic (forwarding may block on shard sockets —
//! never on the reactor thread).

use crate::proxy::{RouterConfig, RouterCore};
use crate::shardmap::ShardMap;
use kamel_server::http::{Request, Response};
use kamel_server::{ConnStats, ReactorConfig, ReactorHandle, ShutdownFlag};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A running router. Dropping it without [`Router::shutdown`] aborts
/// without draining; call `shutdown` for the graceful path.
pub struct Router {
    addr: SocketAddr,
    flag: ShutdownFlag,
    core: Arc<RouterCore>,
    conn_stats: Arc<ConnStats>,
    connections: ReactorHandle,
    probe_thread: std::thread::JoinHandle<()>,
}

impl Router {
    /// Binds `addr` (port 0 for ephemeral), runs one synchronous
    /// admission sweep over the fleet, and starts serving. Shards that
    /// are not up yet stay unverified and are admitted by the periodic
    /// probe once they answer.
    pub fn bind(addr: &str, map: ShardMap, config: RouterConfig) -> std::io::Result<Router> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let flag = ShutdownFlag::new();
        let core = Arc::new(RouterCore::new(map, config.clone()));
        core.probe_all();
        let conn_stats = Arc::new(ConnStats::default());
        let connections = {
            let core = Arc::clone(&core);
            let flag = flag.clone();
            let conn_stats = Arc::clone(&conn_stats);
            ReactorHandle::spawn(
                listener,
                ReactorConfig {
                    max_connections: config.max_connections.max(1),
                    idle_timeout: config.idle_timeout,
                    ..ReactorConfig::default()
                },
                Arc::clone(core.clock()),
                flag.clone(),
                Arc::clone(&conn_stats),
                config.handlers,
                "kamel-route",
                move |request, received| route(request, received, &core, &flag, &conn_stats),
            )?
        };
        let probe_core = Arc::clone(&core);
        let probe_flag = flag.clone();
        let probe_thread = std::thread::Builder::new()
            .name("kamel-route-probe".into())
            .spawn(move || probe_loop(&probe_core, &probe_flag))
            .expect("spawn router probe thread");
        Ok(Router {
            addr,
            flag,
            core,
            conn_stats,
            connections,
            probe_thread,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The routing core (map, gates, metrics) — shared with the
    /// dispatch workers.
    pub fn core(&self) -> &Arc<RouterCore> {
        &self.core
    }

    /// The live connection-layer counters (shared with the reactor).
    pub fn connections(&self) -> &Arc<ConnStats> {
        &self.conn_stats
    }

    /// Requests a graceful shutdown without waiting; follow with
    /// [`Router::shutdown`] to drain and join.
    pub fn request_shutdown(&self) {
        self.flag.trip();
    }

    /// Graceful shutdown: stop accepting, finish requests in flight on
    /// every connection, stop probing, join all threads.
    pub fn shutdown(self) {
        self.flag.trip();
        self.connections.join();
        let _ = self.probe_thread.join();
    }
}

/// Sweeps the fleet every `probe_interval`, polling the shutdown flag at
/// a finer grain so shutdown never waits out a full interval.
fn probe_loop(core: &RouterCore, flag: &ShutdownFlag) {
    let interval = core.config().gate.probe_interval;
    let tick = interval.min(Duration::from_millis(50)).max(Duration::from_millis(1));
    loop {
        let mut slept = Duration::ZERO;
        while slept < interval {
            if flag.is_tripped() {
                return;
            }
            std::thread::sleep(tick);
            slept += tick;
        }
        if flag.is_tripped() {
            return;
        }
        core.probe_all();
    }
}

fn route(
    request: &Request,
    received: Instant,
    core: &RouterCore,
    flag: &ShutdownFlag,
    conn_stats: &ConnStats,
) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/impute") => core.handle_impute_at(request, received),
        ("GET", "/healthz") => {
            if flag.is_tripped() {
                Response::text(503, "draining\n")
            } else {
                Response::text(200, "ok\n")
            }
        }
        ("GET", "/metrics") => {
            Response::text(200, format!("{}{}", core.metrics_page(), conn_stats.render()))
        }
        ("GET", "/v1/shards") => match core.shards_page() {
            Ok(body) => Response::json(body),
            Err(e) => Response::text(500, format!("{e}\n")),
        },
        (_, "/v1/impute") | (_, "/healthz") | (_, "/metrics") | (_, "/v1/shards") => {
            Response::text(405, "method not allowed\n")
        }
        _ => Response::text(404, "not found\n"),
    }
}
