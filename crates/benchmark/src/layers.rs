//! The layer replay of a traced run: a sample of the workload's own inputs
//! goes through each layer's public functions, in the order the program
//! calls them, under one span per call. Per-layer metrics are aggregates
//! of these spans (see `report`), plus the gauges returned here for what
//! is a count or a size rather than a time.

use crate::district::{self, Fixture};
use crate::inputs::{sparse_variants, Rng};
use crate::probe::{ModelCall, Parts, TimedModel, Traceable};
use crate::trace::{self, span};
use kamel::constraints::{GapContext, SpatialConstraints};
use kamel::impute::GapFiller;
use kamel::partition::ModelEntry;
use kamel::ModelSource;
use kamel_geo::LatLng;
use kamel_geo::{BBox, Trajectory, Xy};
use kamel_hexgrid::CellId;
use kamel_lm::{BertMlm, MaskedTokenModel, TrainedModel, Vocab};
use kamel_nn::{BertMlmModel, InferScratch, QuantizedBertMlm};
use kamel_router::{Router, RouterConfig, ShardInfo, ShardMap};
use kamel_server::http::{read_request, Response};
use kamel_server::{Batcher, BatcherConfig, CacheKey, Client, ImputeEngine, LruCache, WireService};
use kamel_store::{Store, StoreError, StoreSource};
use serde::Deserialize;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type Gauges = Vec<(&'static str, f64)>;

/// The validity flag for a replay that is not faithful (see
/// [`PipelineReplay::faithful`]).
pub const UNFAITHFUL_REPLAY: &str = "the layer replay's outcomes differ from Kamel::impute's";

/// One run of consecutive fixes in the same cell, as `Kamel::impute` forms
/// them.
struct Anchor {
    cell: CellId,
    xy: Xy,
    t: f64,
}

fn anchors_of(sparse: &Trajectory, parts: &Parts) -> Vec<Anchor> {
    let mut anchors: Vec<Anchor> = Vec::new();
    for p in &sparse.points {
        let xy = parts.tokenizer.projection().to_xy(p.pos);
        let cell = parts.tokenizer.cell_of_xy(xy);
        if anchors.last().map(|a| a.cell) != Some(cell) {
            anchors.push(Anchor { cell, xy, t: p.t });
        }
    }
    anchors
}

/// The whole-trajectory query box `Kamel::impute` looks a model up with.
pub fn query_box(sparse: &Trajectory, parts: &Parts) -> Option<BBox> {
    BBox::of_points(anchors_of(sparse, parts).iter().map(|a| a.xy))
}

/// The per-gap query box of the pipeline: the gap's box grown by 30 %.
fn gap_box(a: Xy, b: Xy) -> BBox {
    let bb = BBox::new(a, b);
    let (dx, dy) = ((bb.width() * 0.3).max(1.0), (bb.height() * 0.3).max(1.0));
    BBox::new(
        Xy::new(bb.min.x - dx, bb.min.y - dy),
        Xy::new(bb.max.x + dx, bb.max.y + dy),
    )
}

/// Forwards the `nn` replay stops collecting at.
const NN_FORWARDS_WANTED: usize = 64;

/// What the pipeline replay saw besides times.
#[derive(Default)]
pub struct PipelineReplay {
    pub gauges: Gauges,
    /// False when a replayed gap's outcome differs from what
    /// `Kamel::impute` reported for it: the replay no longer follows the
    /// program's call order and its spans describe something else.
    pub faithful: bool,
}

/// Replays `inputs` through tokenize → find_model → fill (↔ model ↔
/// constraints) → detokenize. Span names: `replay.op` › `core.impute`
/// (the program's own call, for the total), `core.tokenize`,
/// `core.partition.find_model`, `core.impute.fill` › `lm.predict_batch`,
/// `lm.predict`, `core.constraints.filter`, `core.detokenize`, and for the
/// first BERT model met `nn.forward` and `nn.int8_forward`.
pub fn replay_pipeline(system: &Traceable, parts: &Parts, inputs: &[Trajectory]) -> PipelineReplay {
    let config = system.kamel.config();
    let constraints = SpatialConstraints::new(parts.max_speed_mps, config);
    let tokenizer = &parts.tokenizer;
    let threshold = tokenizer.effective_max_gap_m(config.max_gap_m);
    let mut replay = PipelineReplay {
        faithful: true,
        ..Default::default()
    };
    let (mut gaps, mut calls, mut points, mut lm_requests) = (0usize, 0usize, 0usize, 0usize);
    let mut nn_gauges = Gauges::new();
    let mut nn_forwards = 0usize;
    for (i, sparse) in inputs.iter().enumerate() {
        trace::set_request(i as u64 + 1);
        let _op = span("replay.op");
        let imputed = {
            let _s = span("core.impute");
            system.kamel.impute(sparse)
        };
        gaps += imputed.gaps.len();
        calls += imputed.model_calls();
        points += imputed.imputed_points();
        {
            let _s = span("core.tokenize");
            std::hint::black_box(tokenizer.tokenize(sparse));
        }
        let anchors = anchors_of(sparse, parts);
        let Some(whole_box) = BBox::of_points(anchors.iter().map(|a| a.xy)) else {
            continue;
        };
        let whole = system.source.find_model(&whole_box);
        let mut reported = imputed.gaps.iter();
        for (j, pair) in anchors.windows(2).enumerate() {
            let (a, b) = (&pair[0], &pair[1]);
            if a.xy.dist(&b.xy) <= threshold {
                continue;
            }
            let reported = reported.next();
            let per_gap;
            let model: &TrainedModel = match &whole {
                Some((_, m)) => m,
                None => {
                    per_gap = system.source.find_model(&gap_box(a.xy, b.xy));
                    match &per_gap {
                        Some((_, m)) => m,
                        None => continue, // straight-line fallback: no layer below runs
                    }
                }
            };
            let model: &TrainedModel = model;
            let before = j.checked_sub(1).map(|k| &anchors[k]);
            let prev = before.map(|p| p.cell);
            let next = anchors.get(j + 2).map(|n| n.cell);
            let preceding_speed_mps = before
                .filter(|p| a.t > p.t)
                .map(|p| p.xy.dist(&a.xy) / (a.t - p.t));
            let timed = TimedModel::new(model);
            let outcome = {
                let _s = span("core.impute.fill");
                GapFiller {
                    model: &timed,
                    constraints: &constraints,
                    tokenizer,
                    config,
                    preceding_speed_mps,
                }
                .fill(a.cell, b.cell, a.t, b.t, prev, next)
            };
            replay.faithful &= reported.is_some_and(|r| r.outcome == outcome);
            let model_calls = timed
                .calls
                .into_inner()
                .expect("no panic while holding the call log");
            // The first round of every strategy asks about the bare gap
            // [S, MASK, D], so its raw candidates and this context are what
            // the constraints module was given.
            if let Some(first) = model_calls.first() {
                let (seq, pos) = &first.requests[0];
                {
                    let _s = span("lm.predict");
                    std::hint::black_box(model.predict_masked(seq, *pos, first.top_k));
                }
                let ctx = GapContext {
                    s: a.cell,
                    d: b.cell,
                    s_xy: tokenizer.centroid(a.cell),
                    d_xy: tokenizer.centroid(b.cell),
                    t_s: a.t,
                    t_d: b.t,
                    prev_xy: prev.map(|c| tokenizer.centroid(c)),
                    next_xy: next.map(|c| tokenizer.centroid(c)),
                    preceding_speed_mps,
                };
                let raw = first.raw[0].clone();
                let _s = span("core.constraints.filter");
                std::hint::black_box(constraints.filter(raw, &ctx, tokenizer));
            }
            if !outcome.failed {
                let _s = span("core.detokenize");
                std::hint::black_box(parts.detok.detokenize(&outcome.tokens, tokenizer));
            }
            lm_requests += model_calls.iter().map(|c| c.requests.len()).sum::<usize>();
            // A few dozen forwards are sample enough for the layer below,
            // and reading a model's weights back costs tens of ms each time.
            if let (TrainedModel::Bert(bert), true) = (model, nn_forwards < NN_FORWARDS_WANTED) {
                nn_forwards += model_calls.iter().map(|c| c.requests.len()).sum::<usize>();
                nn_gauges = replay_nn(bert, &model_calls);
            }
        }
    }
    trace::set_request(0);
    let n = inputs.len().max(1) as f64;
    replay.gauges = vec![
        ("core.impute.gaps_per_traj", gaps as f64 / n),
        (
            "core.impute.model_calls_per_gap",
            calls as f64 / gaps.max(1) as f64,
        ),
        (
            "core.impute.points_per_gap",
            points as f64 / gaps.max(1) as f64,
        ),
        ("lm.requests", lm_requests as f64),
    ];
    replay.gauges.extend(nn_gauges);
    replay
}

/// The pieces of a `BertMlm` that its public interface does not hand out,
/// read back through its own serialized form.
#[derive(Deserialize)]
struct BertParts {
    vocab: Vocab,
    model: BertMlmModel,
}

/// Replays captured model calls one layer down: a single f32 forward
/// (`nn.forward`) and a single int8 forward (`nn.int8_forward`) per
/// request, on the token ids `BertMlm` would build. Returns the forward's
/// arithmetic and weight traffic, **computed from the model's shapes**,
/// not measured.
pub fn replay_nn(bert: &BertMlm, calls: &[ModelCall]) -> Gauges {
    let json = serde_json::to_string(bert).expect("a trained model serializes");
    let BertParts { vocab, model } = serde_json::from_str(&json).expect("and reads back");
    let quant = QuantizedBertMlm::from_model(&model);
    let mut scratch = InferScratch::new();
    let (mut flops, mut requests) = (0.0, 0usize);
    let shape = model.config;
    for (seq, pos) in calls.iter().flat_map(|c| &c.requests) {
        let mut ids = vec![Vocab::CLS];
        ids.extend(seq.iter().enumerate().map(|(i, &key)| {
            if i == *pos {
                Vocab::MASK
            } else {
                vocab.id_of(key)
            }
        }));
        ids.push(Vocab::SEP);
        if ids.len() > shape.max_seq_len {
            continue;
        }
        {
            let _s = span("nn.forward");
            std::hint::black_box(model.predict_with(&mut scratch, &ids, pos + 1));
        }
        {
            let _s = span("nn.int8_forward");
            std::hint::black_box(model.predict_quant_with(&quant, &mut scratch, &ids, pos + 1));
        }
        let (l, h, f) = (ids.len() as f64, shape.hidden as f64, shape.ff_dim as f64);
        // Per layer: four H×H projections, scores and weighted sum, two
        // feed-forward matmuls; then the vocabulary head on the masked row.
        flops += shape.n_layers as f64 * (8.0 * l * h * h + 4.0 * l * l * h + 4.0 * l * h * f)
            + 2.0 * h * shape.vocab_size as f64;
        requests += 1;
    }
    let weights = shape.n_layers
        * (4 * shape.hidden * shape.hidden + 2 * shape.hidden * shape.ff_dim)
        + shape.hidden * shape.vocab_size;
    vec![
        ("nn.forward_flops", flops / requests.max(1) as f64),
        (
            "nn.forward_weight_bytes",
            (weights * std::mem::size_of::<f32>()) as f64,
        ),
    ]
}

/// Replays request bodies through the server's stages short of the socket
/// and the model: `server.http.parse`, `server.engine.decode`,
/// `server.cache.lookup` (key derivation plus a hit in an LRU of the
/// server's size), `server.engine.encode`, `server.http.write`, and
/// `server.batcher.handoff` (submit to a batch worker and wake up with its
/// answer, the runner doing nothing).
pub fn replay_server(engine: &ImputeEngine, bodies: &[Vec<u8>], cache_entries: usize) {
    let mut cache: LruCache<CacheKey, Arc<Vec<u8>>> = LruCache::new(cache_entries);
    let batcher: Batcher<u64, u64> = Batcher::start(
        BatcherConfig::default(),
        Arc::new(|batch: Vec<u64>| batch),
        |_| {},
    );
    for (i, body) in bodies.iter().enumerate() {
        trace::set_request(i as u64 + 1);
        let _op = span("replay.request");
        let mut wire = format!(
            "POST /v1/impute HTTP/1.1\r\nhost: kamel\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body);
        let request = {
            let _s = span("server.http.parse");
            read_request(&mut &wire[..]).expect("the generator's own request parses")
        };
        let job = {
            let _s = span("server.engine.decode");
            engine
                .parse(&request.body)
                .expect("the generator's own body decodes")
        };
        let out = engine.kamel().impute(&job);
        let bytes = {
            let _s = span("server.engine.encode");
            engine.render(&out)
        };
        if let Some(key) = engine.cache_key(&job) {
            cache.insert(key, Arc::new(bytes.clone()));
        }
        {
            let _s = span("server.cache.lookup");
            let key = engine.cache_key(&job);
            std::hint::black_box(key.and_then(|k| cache.get(&k).cloned()));
        }
        {
            let _s = span("server.batcher.handoff");
            let ticket = batcher.submit(i as u64).expect("an idle batcher admits");
            let _ = ticket.wait_deadline(Instant::now() + Duration::from_secs(5));
        }
        let _s = span("server.http.write");
        let mut sink = Vec::with_capacity(bytes.len() + 256);
        Response::json(bytes)
            .with_header("x-kamel-cache", "hit")
            .write_to(&mut sink, false)
            .expect("writing to a Vec cannot fail");
        std::hint::black_box(sink);
    }
    trace::set_request(0);
    batcher.shutdown();
}

/// Median closed-loop latency in microseconds of `bodies` posted one after
/// another over one connection to `addr`, each twice: the second answer of
/// each pair (a cache hit on a caching server) is the one timed.
pub fn closed_loop_hit_us(addr: SocketAddr, bodies: &[Vec<u8>]) -> std::io::Result<f64> {
    let mut client = Client::connect(addr, Duration::from_secs(10))?;
    let mut took = Vec::with_capacity(bodies.len());
    for body in bodies {
        client.post_json("/v1/impute", body)?;
        let started = Instant::now();
        client.post_json("/v1/impute", body)?;
        took.push(started.elapsed().as_secs_f64() * 1e6);
    }
    Ok(crate::stats::median(&took))
}

/// The router in front of one shard, in process: `router.shardmap.owner`
/// spans for the ownership lookup, and the gauge `router.hop_us`, the
/// closed-loop hit latency through the router minus `direct_us`.
pub fn replay_router(
    shard: SocketAddr,
    bodies: &[Vec<u8>],
    positions: &[LatLng],
    direct_us: f64,
) -> std::io::Result<Gauges> {
    let map = ShardMap::new(
        vec![ShardInfo {
            id: "shard-0".into(),
            addr: shard,
        }],
        0.01,
    )
    .map_err(std::io::Error::other)?;
    for &pos in positions {
        let _s = span("router.shardmap.owner");
        std::hint::black_box(map.owner_order(map.cell_of(pos)));
    }
    let router = Router::bind("127.0.0.1:0", map, RouterConfig::default())?;
    let routed_us = closed_loop_hit_us(router.local_addr(), bodies);
    router.shutdown();
    Ok(vec![("router.hop_us", routed_us? - direct_us)])
}

/// The store layer on its own, three times over: `store.open` (map and
/// validate the file), `store.boot_sweep` (materialize every record once),
/// and per model record the first two stages of a materialization,
/// `store.materialize.crc` and `store.materialize.json`.
pub fn replay_store(path: &Path, parts: &Parts, budget: u64) -> Result<(), StoreError> {
    for _ in 0..3 {
        let store = {
            let _s = span("store.open");
            Store::open(path)?
        };
        for i in 1..store.record_count() {
            let view = {
                let _s = span("store.materialize.crc");
                store.record(i)?
            };
            let _s = span("store.materialize.json");
            let entry: Result<ModelEntry, _> = serde_json::from_slice(view.json);
            std::hint::black_box(entry.is_ok());
        }
        let source = StoreSource::new(store, parts.pyramid.skeleton(), Vec::new(), budget)?;
        let _s = span("store.boot_sweep");
        source.warm_all()?;
    }
    Ok(())
}

/// `impute_batch(16)` on the heap BERT system in a closed loop for
/// `seconds`: trajectories per second. The number an `nn` or `lm` change
/// reports until BERT throughput is steady enough on this host to gate.
pub fn bert_bulk_ops_per_s(fixture: &Fixture, seconds: f64, rng: &mut Rng) -> f64 {
    let inputs = sparse_variants(&district::input_truths(&fixture.dataset), rng);
    let started = Instant::now();
    let mut done = 0usize;
    for batch in inputs.chunks(16).cycle() {
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        done += std::hint::black_box(fixture.kamel.impute_batch(batch)).len();
    }
    done as f64 / started.elapsed().as_secs_f64()
}
