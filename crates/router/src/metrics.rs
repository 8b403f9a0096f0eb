//! Router metrics: fleet-level and per-shard counters in the same
//! Prometheus text idiom as `kamel-server`'s `/metrics`, with a
//! `{shard="..."}` label per backend.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters for one backend shard.
#[derive(Debug, Default)]
pub struct ShardCounters {
    /// Requests (or sub-requests of a scatter) forwarded to this shard.
    pub forwarded: AtomicU64,
    /// Forward attempts that failed (transport error or 5xx).
    pub errors: AtomicU64,
    /// Requests that failed over *past* this shard (the gate refused it,
    /// or it just failed) to a replica further down the chain.
    pub failovers: AtomicU64,
    /// Times the gate ejected this shard (from active or probation).
    pub ejections: AtomicU64,
    /// Times a healthy probe moved it from ejected to probation.
    pub probations: AtomicU64,
    /// Times it became active: admitted at boot, or re-activated after
    /// its probation trials.
    pub admissions: AtomicU64,
    /// Probes that found the shard's `/v1/info` config digest
    /// disagreeing with the fleet.
    pub admission_refusals: AtomicU64,
    /// Forwards currently in flight (gauge).
    pub inflight: AtomicU64,
}

/// The router's metrics registry.
#[derive(Debug)]
pub struct RouterMetrics {
    shard_ids: Vec<String>,
    shards: Vec<ShardCounters>,
    /// Client requests answered 2xx (whether proxied or merged).
    pub requests_ok: AtomicU64,
    /// Client requests rejected as malformed (400).
    pub requests_bad: AtomicU64,
    /// Client requests the fleet could not serve (502/503 from the
    /// router itself).
    pub requests_failed: AtomicU64,
    /// Requests whose gaps spanned more than one shard (scatter-gather).
    pub scatter_requests: AtomicU64,
    /// Requests whose deadline budget ran out at the router (504).
    pub requests_deadline: AtomicU64,
    /// Requests answered from the degraded linear-interpolation path.
    pub degraded: AtomicU64,
}

impl RouterMetrics {
    /// A registry for the given fleet (ids label the per-shard series).
    pub fn new(shard_ids: Vec<String>) -> Self {
        let shards = shard_ids.iter().map(|_| ShardCounters::default()).collect();
        Self {
            shard_ids,
            shards,
            requests_ok: AtomicU64::new(0),
            requests_bad: AtomicU64::new(0),
            requests_failed: AtomicU64::new(0),
            scatter_requests: AtomicU64::new(0),
            requests_deadline: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
        }
    }

    /// The counters for shard `i` (indexed like the shard map).
    pub fn shard(&self, i: usize) -> &ShardCounters {
        &self.shards[i]
    }

    /// The Prometheus text exposition for `GET /metrics`.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(2048);
        let mut counter = |name: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        };
        counter(
            "kamel_router_requests_ok_total",
            "Client requests answered successfully.",
            self.requests_ok.load(Ordering::Relaxed),
        );
        counter(
            "kamel_router_requests_bad_total",
            "Client requests rejected as malformed.",
            self.requests_bad.load(Ordering::Relaxed),
        );
        counter(
            "kamel_router_requests_failed_total",
            "Client requests the fleet could not serve.",
            self.requests_failed.load(Ordering::Relaxed),
        );
        counter(
            "kamel_router_scatter_requests_total",
            "Requests whose gaps spanned more than one shard.",
            self.scatter_requests.load(Ordering::Relaxed),
        );
        counter(
            "kamel_router_deadline_exceeded_total",
            "Requests whose deadline budget ran out at the router (504).",
            self.requests_deadline.load(Ordering::Relaxed),
        );
        counter(
            "kamel_router_degraded_total",
            "Requests answered from the degraded linear path.",
            self.degraded.load(Ordering::Relaxed),
        );
        let labeled = |out: &mut String, name: &str, help: &str, kind: &str, get: &dyn Fn(&ShardCounters) -> u64| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
            for (id, counters) in self.shard_ids.iter().zip(&self.shards) {
                out.push_str(&format!("{name}{{shard=\"{id}\"}} {}\n", get(counters)));
            }
        };
        labeled(
            &mut out,
            "kamel_router_shard_requests_total",
            "Forwards sent to each shard.",
            "counter",
            &|c| c.forwarded.load(Ordering::Relaxed),
        );
        labeled(
            &mut out,
            "kamel_router_shard_errors_total",
            "Forward attempts that failed per shard.",
            "counter",
            &|c| c.errors.load(Ordering::Relaxed),
        );
        labeled(
            &mut out,
            "kamel_router_failovers_total",
            "Requests that failed over past each shard to a replica.",
            "counter",
            &|c| c.failovers.load(Ordering::Relaxed),
        );
        labeled(
            &mut out,
            "kamel_router_ejections_total",
            "Ejections per shard.",
            "counter",
            &|c| c.ejections.load(Ordering::Relaxed),
        );
        labeled(
            &mut out,
            "kamel_router_probations_total",
            "Ejected shards a healthy probe put on probation.",
            "counter",
            &|c| c.probations.load(Ordering::Relaxed),
        );
        labeled(
            &mut out,
            "kamel_router_admissions_total",
            "Boot admissions and re-activations after probation per shard.",
            "counter",
            &|c| c.admissions.load(Ordering::Relaxed),
        );
        labeled(
            &mut out,
            "kamel_router_admission_refusals_total",
            "Probes that found a foreign config digest per shard.",
            "counter",
            &|c| c.admission_refusals.load(Ordering::Relaxed),
        );
        labeled(
            &mut out,
            "kamel_router_inflight",
            "Forwards currently in flight per shard.",
            "gauge",
            &|c| c.inflight.load(Ordering::Relaxed),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_labels_every_shard() {
        let m = RouterMetrics::new(vec!["west".into(), "east".into()]);
        m.requests_ok.store(7, Ordering::Relaxed);
        m.shard(0).forwarded.store(4, Ordering::Relaxed);
        m.shard(1).ejections.store(1, Ordering::Relaxed);
        m.shard(1).inflight.store(2, Ordering::Relaxed);
        m.shard(0).probations.store(3, Ordering::Relaxed);
        m.requests_deadline.store(5, Ordering::Relaxed);
        m.degraded.store(6, Ordering::Relaxed);
        let page = m.render();
        assert!(page.contains("kamel_router_requests_ok_total 7"), "{page}");
        assert!(page.contains("kamel_router_deadline_exceeded_total 5"), "{page}");
        assert!(page.contains("kamel_router_degraded_total 6"), "{page}");
        assert!(page.contains("kamel_router_probations_total{shard=\"west\"} 3"), "{page}");
        assert!(page.contains("kamel_router_admissions_total{shard=\"east\"} 0"), "{page}");
        assert!(page.contains("kamel_router_shard_requests_total{shard=\"west\"} 4"), "{page}");
        assert!(page.contains("kamel_router_shard_requests_total{shard=\"east\"} 0"), "{page}");
        assert!(page.contains("kamel_router_ejections_total{shard=\"east\"} 1"), "{page}");
        assert!(page.contains("kamel_router_inflight{shard=\"east\"} 2"), "{page}");
        assert!(page.contains("# TYPE kamel_router_inflight gauge"), "{page}");
    }
}
