//! From a workload's outcome to named metrics and the result line.

use crate::stats::{self, median};
use crate::trace::{durations_us, total_ns, Span};
use crate::workload::{Boot, Outcome, Traced};
use serde::Deserialize;
use std::collections::BTreeMap;
use std::fmt::Write;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    // A ratio with an empty denominator must not put NaN on the result line.
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// The seven end-to-end metrics every workload reports (`--trace 0`).
pub fn end_to_end(outcome: &Outcome) -> Vec<Metric> {
    let w = &outcome.window;
    vec![
        metric(
            "setup_s",
            median(
                &outcome
                    .boots
                    .iter()
                    .map(Boot::nominal_s)
                    .collect::<Vec<_>>(),
            ),
            "s",
        ),
        metric("ops_per_s", median(&w.round_rates()), "traj/s"),
        metric("slo_ok_share", median(&w.round_ok_shares()), "ratio"),
        metric("rss_peak_mb", outcome.rss_peak_mb, "MB"),
        metric("recall", outcome.quality.recall, "ratio"),
        metric("precision", outcome.quality.precision, "ratio"),
        metric(
            "filled_gap_share",
            outcome.quality.filled_gap_share,
            "ratio",
        ),
    ]
}

/// The per-layer metrics (`--trace 1`). Span times are medians per call; a
/// layer the workload does not exercise reports 0.
pub fn per_layer(outcome: &Outcome, traced: &Traced) -> Vec<Metric> {
    let w = &outcome.window;
    let all: Vec<Span> = traced
        .window_spans
        .iter()
        .chain(&traced.replay_spans)
        .cloned()
        .collect();
    let us = |name: &str| median(&durations_us(&all, name));
    let gauge = |name: &str| {
        traced
            .gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let (tail_percentile, tail_ms) = stats::tail(&w.latencies_ms);
    let rates = w.round_rates();
    // The open loop takes no strokes during its window; its boots do.
    let host_speeds: Vec<f64> = if outcome.window.rounds.iter().any(|r| r.speed != 1.0) {
        w.round_speeds()
    } else {
        outcome.boots.iter().map(|b| b.speed).collect()
    };
    let fill_ns = total_ns(&all, "core.impute.fill");
    let predict_batch_ns = total_ns(&all, "lm.predict_batch") as f64;
    // What a cache hit costs beyond the stages replayed in isolation: the
    // reactor, the dispatch hand-off, the socket and the client.
    let hit_path_us = us("server.http.parse")
        + us("server.engine.decode")
        + us("server.cache.lookup")
        + us("server.http.write");
    let transport_us = if gauge("server.hit_service_us") > 0.0 {
        gauge("server.hit_service_us") - hit_path_us
    } else {
        0.0
    };
    vec![
        metric(
            "ops_per_s.fastest",
            rates.iter().copied().fold(0.0, f64::max),
            "traj/s",
        ),
        metric(
            "ops_per_s.trimmed",
            stats::trimmed_mean(&rates, 0.1),
            "traj/s",
        ),
        metric("cpu_ms_per_op", w.cpu_ms_per_op(), "ms"),
        metric("latency_p50_ms", median(&w.latencies_ms), "ms"),
        metric("latency_tail_ms", tail_ms, "ms"),
        metric("latency.tail_percentile", tail_percentile, "pct"),
        metric("latency.samples", w.latencies_ms.len() as f64, "count"),
        metric(
            "trace_overhead_share",
            traced.window.cpu_ms_per_op() / w.cpu_ms_per_op() - 1.0,
            "ratio",
        ),
        metric("ops_per_s.raw", median(&w.raw_round_rates()), "traj/s"),
        metric(
            "setup_raw_s",
            median(&outcome.boots.iter().map(|b| b.raw_s).collect::<Vec<_>>()),
            "s",
        ),
        metric("host.speed", median(&host_speeds), "ratio"),
        metric("host.steal_share", w.steal_share, "ratio"),
        metric(
            "host.round_iqr_share",
            if rates.len() >= 2 {
                stats::quartile_spread(&rates)
            } else {
                0.0
            },
            "ratio",
        ),
        metric("loadgen.late_p99_us", gauge("loadgen.late_p99_us"), "us"),
        metric(
            "loadgen.sched_requests",
            gauge("loadgen.sched_requests"),
            "count",
        ),
        metric("core.tokenize_us", us("core.tokenize"), "us"),
        metric("core.impute_us", us("core.impute"), "us"),
        metric("core.impute.fill_us", us("core.impute.fill"), "us"),
        metric(
            "core.constraints.filter_us",
            us("core.constraints.filter"),
            "us",
        ),
        metric("core.detokenize_us", us("core.detokenize"), "us"),
        metric(
            "core.impute.gaps_per_traj",
            gauge("core.impute.gaps_per_traj"),
            "count",
        ),
        metric(
            "core.impute.model_calls_per_gap",
            gauge("core.impute.model_calls_per_gap"),
            "count",
        ),
        metric(
            "core.impute.points_per_gap",
            gauge("core.impute.points_per_gap"),
            "count",
        ),
        metric(
            "core.partition.find_model_us",
            us("core.partition.find_model"),
            "us",
        ),
        metric("core.train_s", gauge("core.train_s"), "s"),
        metric(
            "core.checkpoint.save_ms",
            gauge("core.checkpoint.save_ms"),
            "ms",
        ),
        metric(
            "core.checkpoint.load_ms",
            us("core.checkpoint.load") / 1e3,
            "ms",
        ),
        metric(
            "core.checkpoint.file_mb",
            gauge("core.checkpoint.file_mb"),
            "MB",
        ),
        metric("lm.predict_us", us("lm.predict"), "us"),
        metric(
            "lm.predict_batch_us_per_req",
            predict_batch_ns / 1e3 / gauge("lm.requests").max(1.0),
            "us",
        ),
        metric(
            "lm.est_share",
            predict_batch_ns / fill_ns.max(1) as f64,
            "ratio",
        ),
        metric(
            "lm.bert_bulk_ops_per_s",
            gauge("lm.bert_bulk_ops_per_s"),
            "traj/s",
        ),
        metric("nn.forward_us", us("nn.forward"), "us"),
        metric("nn.int8_forward_us", us("nn.int8_forward"), "us"),
        metric("nn.forward_flops", gauge("nn.forward_flops"), "flop"),
        metric(
            "nn.forward_weight_bytes",
            gauge("nn.forward_weight_bytes"),
            "B",
        ),
        metric("store.pack_ms", gauge("store.pack_ms"), "ms"),
        metric("store.file_mb", gauge("store.file_mb"), "MB"),
        metric("store.open_ms", us("store.open") / 1e3, "ms"),
        metric("store.boot_sweep_ms", us("store.boot_sweep") / 1e3, "ms"),
        metric("store.materialize_us", us("store.materialize"), "us"),
        metric(
            "store.materialize_share",
            gauge("store.materialize_share"),
            "ratio",
        ),
        metric(
            "store.evictions_per_1k_ops",
            gauge("store.evictions_per_1k_ops"),
            "count",
        ),
        metric("store.find_model.hit_us", us("store.find_model.hit"), "us"),
        metric(
            "store.resident_models",
            gauge("store.resident_models"),
            "count",
        ),
        metric(
            "store.bytes_resident_mb",
            gauge("store.bytes_resident_mb"),
            "MB",
        ),
        metric("server.http.parse_us", us("server.http.parse"), "us"),
        metric("server.http.write_us", us("server.http.write"), "us"),
        metric("server.engine.decode_us", us("server.engine.decode"), "us"),
        metric("server.engine.encode_us", us("server.engine.encode"), "us"),
        metric("server.cache.lookup_us", us("server.cache.lookup"), "us"),
        metric(
            "server.batcher.handoff_us",
            us("server.batcher.handoff"),
            "us",
        ),
        metric("server.transport_us", transport_us, "us"),
        metric(
            "server.cache.hit_share",
            gauge("server.cache.hit_share"),
            "ratio",
        ),
        metric(
            "server.batch_size_mean",
            gauge("server.batch_size_mean"),
            "count",
        ),
        metric("server.shed_count", gauge("server.shed_count"), "count"),
        metric(
            "server.deadline_count",
            gauge("server.deadline_count"),
            "count",
        ),
        metric("server.reload_p50_ms", gauge("server.reload_p50_ms"), "ms"),
        metric(
            "server.reloads_completed",
            gauge("server.reloads_completed"),
            "count",
        ),
        metric(
            "router.shardmap.owner_ns",
            us("router.shardmap.owner") * 1e3,
            "ns",
        ),
        metric("router.hop_us", gauge("router.hop_us"), "us"),
    ]
}

/// The one line the driver reads: `correct`, `attempted`, `failed`,
/// `metrics`. Values print with every digit `f64` needs to round-trip.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut line = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            line,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    line.push_str("}}");
    line
}

/// `BENCHMARK.json`, compiled in: the bounds `compare` applies and the
/// metric names the smoke test holds the code to.
#[derive(Debug, Deserialize)]
pub struct Spec {
    pub workloads: Vec<NamedSpec>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

#[derive(Debug, Deserialize)]
pub struct NamedSpec {
    pub name: String,
}

#[derive(Debug, Deserialize)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Absent on per-layer metrics.
    #[serde(default)]
    pub bound: Option<f64>,
}

impl Spec {
    pub fn load() -> Spec {
        serde_json::from_str(include_str!("../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses")
    }
}

/// Names and units the code emits that `BENCHMARK.json` does not list, or
/// the other way round; empty when they agree.
pub fn disagreements(emitted: &[Metric], declared: &[MetricSpec]) -> Vec<String> {
    let emitted: BTreeMap<&str, &str> = emitted.iter().map(|m| (m.name, m.unit)).collect();
    let declared: BTreeMap<&str, &str> = declared
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    let mut out = Vec::new();
    for (name, unit) in &emitted {
        match declared.get(name) {
            None => out.push(format!("`{name}` is emitted but not in BENCHMARK.json")),
            Some(d) if d != unit => {
                out.push(format!("`{name}` is emitted in {unit} but declared in {d}"))
            }
            Some(_) => {}
        }
    }
    out.extend(
        declared
            .keys()
            .filter(|n| !emitted.contains_key(*n))
            .map(|n| format!("`{n}` is in BENCHMARK.json but not emitted")),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_full_digits() {
        let line = result_line(
            true,
            1000,
            0,
            &[
                metric("setup_s", 0.1 + 0.2, "s"),
                metric("x", f64::NAN, "ratio"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}, \
             \"x\": {\"value\": 0.0, \"unit\": \"ratio\"}}}"
        );
    }

    #[test]
    fn disagreements_name_both_directions() {
        let spec = |name: &str, unit: &str| MetricSpec {
            name: name.into(),
            unit: unit.into(),
            better: "lower".into(),
            bound: None,
        };
        let emitted = [metric("a", 1.0, "s"), metric("b", 1.0, "ms")];
        assert!(disagreements(&emitted, &[spec("a", "s"), spec("b", "ms")]).is_empty());
        let found = disagreements(&emitted, &[spec("a", "s"), spec("b", "us"), spec("c", "s")]);
        assert_eq!(found.len(), 2, "{found:?}");
    }
}
