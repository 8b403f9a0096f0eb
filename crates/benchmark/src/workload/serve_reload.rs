//! `serve_reload`: reads beside model writes.
//!
//! Open loop: seeded Poisson arrivals at a frozen rate over two
//! connections, `POST /v1/impute` to an in-process `Server` whose models
//! come from the packed BERT store (everything resident), response cache
//! on. Each round mixes draws from a hot set (cache hits) with unique
//! copies (BERT misses), and contains exactly one `Server::reload()`, which
//! re-opens the store on the other core and clears the cache while traffic
//! continues. The rate is far below capacity, so the end-to-end numbers are
//! flat by construction: this workload can show a loss — in `server`, in
//! miss latency, in a cold-path gain that taxes the hot path — not a gain.

use super::{boot_repetitions, boots_before_window, file_mb, Outcome, Plan, Round, Traced, Window};
use crate::district::{self, Engine, Fixture};
use crate::host;
use crate::inputs::{poisson_round, sparse_variants, time_shifted, Arrival, Rng};
use crate::layers::{
    self, bert_bulk_ops_per_s, closed_loop_hit_us, replay_pipeline, replay_router, replay_server,
    replay_store, Gauges,
};
use crate::probe::{Parts, Traceable};
use crate::stats;
use crate::trace::{self, span};
use kamel_geo::Trajectory;
use kamel_server::{Client, ImputeEngine, ImputeResponse, Metrics, Server, ServerConfig};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rate of the Poisson arrival process. About a quarter of one core of
/// this process's capacity, reloads included, in a slow spell.
const RATE_PER_S: f64 = 80.0;
const ROUND_S: f64 = 1.5;
/// Arrivals per round; at the rate above they span 1.4 s on average.
const REQUESTS_PER_ROUND: usize = 112;
const HOT_KEYS: usize = 8;
const HOT_DRAWS_PER_ROUND: usize = 78;
const CONNECTIONS: usize = 2;
/// Where in each round the reload starts, as a share of the round.
const RELOAD_AT: f64 = 0.1;
/// A request must be answered within this of its due time to count: three
/// times what a miss took, queueing behind a reload included, at the 90th
/// percentile of the slowest spell seen while freezing it (40 ms).
const LIMIT_MS: f64 = 120.0;
/// Requests whose reference answer needed more model calls than this are
/// left out. Beam search on a hard gap can spend its whole budget of 1 500
/// calls (60 ms and more); one such request holds one of the two
/// connections long enough that what the window measures is the
/// generator's own backlog.
const MAX_MODEL_CALLS: usize = 200;
/// How far the measured hit share may be from the round plan's.
const HIT_SHARE_TOLERANCE: f64 = 0.03;

/// What one run sends: request bodies, the bytes each must be answered
/// with, and one round's arrivals.
struct Traffic {
    bodies: Vec<Vec<u8>>,
    expected: Vec<Vec<u8>>,
    trajectories: Vec<Trajectory>,
    round: Vec<Arrival>,
    /// Share of a round's requests the cache answers once every round has
    /// the same plan: each hot key misses once per reload, every other hot
    /// draw hits, unique copies always miss.
    planned_hit_share: f64,
}

impl Traffic {
    fn build(fixture: &Fixture, rng: &mut Rng) -> Result<Traffic, String> {
        let unique = REQUESTS_PER_ROUND - HOT_DRAWS_PER_ROUND;
        // The first requests of the shuffled pool whose reference answer
        // stays under the model-call cap. Bodies 0..HOT_KEYS are the hot
        // set; the rest are time-shifted copies, each sent once per round.
        let mut trajectories = Vec::with_capacity(HOT_KEYS + unique);
        let mut expected = Vec::with_capacity(HOT_KEYS + unique);
        for sparse in sparse_variants(&district::input_truths(&fixture.dataset), rng) {
            let request = if trajectories.len() < HOT_KEYS {
                sparse
            } else {
                time_shifted(&sparse, 0.125)
            };
            let answer = fixture.kamel.impute(&request);
            if answer.model_calls() > MAX_MODEL_CALLS {
                continue;
            }
            expected.push(
                serde_json::to_vec(&ImputeResponse::from_result(answer))
                    .map_err(|e| e.to_string())?,
            );
            trajectories.push(request);
            if trajectories.len() == HOT_KEYS + unique {
                break;
            }
        }
        if trajectories.len() < HOT_KEYS + unique {
            return Err(format!(
                "only {} inputs stay under {MAX_MODEL_CALLS} model calls",
                trajectories.len()
            ));
        }
        let mut order: Vec<usize> = (0..HOT_DRAWS_PER_ROUND)
            .map(|_| rng.below(HOT_KEYS))
            .collect();
        let mut hot_drawn = order.clone();
        hot_drawn.sort_unstable();
        hot_drawn.dedup();
        order.extend(HOT_KEYS..HOT_KEYS + unique);
        rng.shuffle(&mut order);
        let bodies = trajectories
            .iter()
            .map(|t| serde_json::to_vec(t).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        Ok(Traffic {
            bodies,
            expected,
            trajectories,
            round: poisson_round(&order, RATE_PER_S, ROUND_S, rng),
            planned_hit_share: (HOT_DRAWS_PER_ROUND - hot_drawn.len()) as f64
                / REQUESTS_PER_ROUND as f64,
        })
    }
}

/// One answered (or failed) request.
struct Shot {
    round: usize,
    /// From the due time to the last byte of the answer.
    latency_ms: f64,
    /// How long after its due time the request was written.
    late_us: f64,
    verified: bool,
}

/// Counters of the server's own metrics page, to take deltas of.
#[derive(Clone, Copy, Default)]
struct Counters {
    hits: u64,
    misses: u64,
    shed: u64,
    deadline: u64,
    batches: u64,
    batched: u64,
    reloads: u64,
}

impl Counters {
    fn read(m: &Metrics) -> Counters {
        let get = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        Counters {
            hits: get(&m.cache_hits),
            misses: get(&m.cache_misses),
            shed: get(&m.requests_shed),
            deadline: get(&m.requests_deadline),
            batches: m.batch_size.count(),
            batched: m.batch_size.sum(),
            reloads: get(&m.model_reloads),
        }
    }

    fn since(self, earlier: Counters) -> Counters {
        Counters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            shed: self.shed - earlier.shed,
            deadline: self.deadline - earlier.deadline,
            batches: self.batches - earlier.batches,
            batched: self.batched - earlier.batched,
            reloads: self.reloads - earlier.reloads,
        }
    }
}

/// What an open-loop window measured beyond the common [`Window`].
struct OpenWindow {
    window: Window,
    late_us: Vec<f64>,
    reload_ms: Vec<f64>,
    counters: Counters,
}

/// Runs `rounds` measured rounds after one unmeasured one: two generator
/// threads send each arrival at its due time (never before, and late only
/// when both connections are still waiting for answers), this thread
/// reloads the server once per round.
fn open_loop(server: &Server, traffic: &Traffic, rounds: usize) -> OpenWindow {
    let addr = server.local_addr();
    let round_ns = (ROUND_S * 1e9) as u64;
    let total = (rounds + 1) * traffic.round.len();
    let next = AtomicUsize::new(0);
    let started = Instant::now() + Duration::from_millis(20);
    let mut measured_from = None;
    let mut reload_ms = Vec::with_capacity(rounds);
    let shots: Vec<Shot> = std::thread::scope(|scope| {
        let generators: Vec<_> = (0..CONNECTIONS)
            .map(|_| scope.spawn(|| generate(addr, traffic, started, round_ns, total, &next)))
            .collect();
        let sleep_until =
            |at: Instant| std::thread::sleep(at.saturating_duration_since(Instant::now()));
        for round in 0..=rounds {
            let round_start = started + Duration::from_nanos(round as u64 * round_ns);
            sleep_until(round_start);
            if round == 1 {
                measured_from = Some((host::Snapshot::take(), Counters::read(server.metrics())));
            }
            sleep_until(round_start + Duration::from_nanos((RELOAD_AT * round_ns as f64) as u64));
            let reload_started = Instant::now();
            let reloaded = {
                let _s = span("server.reload");
                server.reload()
            };
            if reloaded.is_ok() && round > 0 {
                reload_ms.push(reload_started.elapsed().as_secs_f64() * 1e3);
            }
        }
        generators
            .into_iter()
            .flat_map(|g| g.join().expect("a generator thread does not panic"))
            .collect()
    });
    let (snapshot, counters_before) = measured_from.expect("at least the unmeasured round ran");
    let (mut window, late_us) = fold_rounds(&shots, rounds, traffic.round.len());
    (window.wall_s, window.cpu_s, window.steal_share) = snapshot.since();
    OpenWindow {
        window,
        late_us,
        reload_ms,
        counters: Counters::read(server.metrics()).since(counters_before),
    }
}

/// Folds the shots of rounds `1..=rounds` (round 0 is the unmeasured one)
/// into per-round counts. Every scheduled request is attempted; one that
/// was answered wrongly, refused or never answered is a failure and misses
/// the limit, like one answered late.
fn fold_rounds(shots: &[Shot], rounds: usize, per_round: usize) -> (Window, Vec<f64>) {
    let mut window = Window::default();
    let mut late_us = Vec::new();
    for round in 1..=rounds {
        let in_round: Vec<&Shot> = shots.iter().filter(|s| s.round == round).collect();
        let ok = in_round
            .iter()
            .filter(|s| s.verified && s.latency_ms <= LIMIT_MS)
            .count();
        window.rounds.push(Round {
            busy_s: ROUND_S,
            attempted: per_round,
            ok,
            speed: 1.0,
            strokes_s: 0.0,
        });
        window.failed += per_round - in_round.iter().filter(|s| s.verified).count();
        window
            .latencies_ms
            .extend(in_round.iter().map(|s| s.latency_ms));
        late_us.extend(in_round.iter().map(|s| s.late_us));
    }
    (window, late_us)
}

impl Shot {
    /// Latency runs from the moment the request was due, not from when the
    /// generator got round to sending it.
    fn timed(round: usize, due: Instant, sent: Instant, done: Instant, verified: bool) -> Shot {
        Shot {
            round,
            latency_ms: done.duration_since(due).as_secs_f64() * 1e3,
            late_us: sent.duration_since(due).as_secs_f64() * 1e6,
            verified,
        }
    }
}

/// One generator thread: claims the next arrival, sleeps until it is due,
/// sends it, checks the answer.
fn generate(
    addr: SocketAddr,
    traffic: &Traffic,
    started: Instant,
    round_ns: u64,
    total: usize,
    next: &AtomicUsize,
) -> Vec<Shot> {
    let connect = || Client::connect(addr, Duration::from_secs(10));
    let mut client = connect().ok();
    let mut shots = Vec::new();
    loop {
        // Relaxed: the counter only hands out indices.
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= total {
            return shots;
        }
        let round = i / traffic.round.len();
        let arrival = traffic.round[i % traffic.round.len()];
        let due = started + Duration::from_nanos(round as u64 * round_ns + arrival.due_ns);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        trace::set_request(i as u64 + 1);
        let sent = Instant::now();
        let answer = {
            let _s = span("request");
            match client.as_mut() {
                Some(c) => c.post_json("/v1/impute", &traffic.bodies[arrival.body]),
                None => Err(std::io::Error::other("not connected")),
            }
        };
        let done = Instant::now();
        let verified = match &answer {
            Ok(response) => {
                response.status == 200 && response.body == traffic.expected[arrival.body]
            }
            Err(_) => {
                client = connect().ok();
                false
            }
        };
        shots.push(Shot::timed(round, due, sent, done, verified));
    }
}

/// Starts a server over the packed store. Reloads re-open the store; while
/// tracing is on they put the span-recording decorator in front of it.
fn start_server(path: &Path) -> Result<(Server, Arc<ImputeEngine>), String> {
    let kamel = kamel_store::load_kamel(path, None).map_err(|e| e.to_string())?;
    let reload_path: PathBuf = path.to_path_buf();
    let engine = Arc::new(ImputeEngine::with_loader(
        Arc::new(kamel),
        path.display().to_string(),
        Box::new(move || {
            if trace::enabled() {
                Traceable::open_store(&reload_path, None).map(|t| t.kamel)
            } else {
                kamel_store::load_kamel(&reload_path, None)
            }
            .map_err(|e| e.to_string())
        }),
    ));
    let server = Server::bind("127.0.0.1:0", engine.clone(), ServerConfig::default())
        .map_err(|e| e.to_string())?;
    Ok((server, engine))
}

pub fn run(seed: u64, plan: &Plan, traced: bool, out_dir: &Path) -> Result<Outcome, String> {
    let fixture = Fixture::train(Engine::Bert);
    let path = out_dir.join("serve_reload.kstore");
    let pack_started = Instant::now();
    kamel_store::pack(&fixture.kamel, &path).map_err(|e| e.to_string())?;
    let pack_ms = pack_started.elapsed().as_secs_f64() * 1e3;
    let mut rng = Rng::new(seed);
    let traffic = Traffic::build(&fixture, &mut rng)?;
    let quality = district::quality(&fixture.kamel, &fixture.dataset);

    // Boot: store file on disk → load_kamel with its boot sweep →
    // Server::bind → first verified answer over a fresh connection.
    let boot = || -> Result<(Server, Arc<ImputeEngine>), String> {
        let (server, engine) = start_server(&path)?;
        let mut client = Client::connect(server.local_addr(), Duration::from_secs(10))
            .map_err(|e| e.to_string())?;
        let answer = client
            .post_json("/v1/impute", &traffic.bodies[0])
            .map_err(|e| e.to_string())?;
        if answer.status != 200 || answer.body != traffic.expected[0] {
            return Err("first answer after boot differs from the reference".into());
        }
        Ok((server, engine))
    };
    let stop = |(server, _): (Server, Arc<ImputeEngine>)| server.shutdown();
    let (mut boots, side) = boots_before_window(plan, boot, stop)?;
    let (server, engine) = boot()?;

    let (main_s, traced_s) = plan.split(traced);
    let rounds_in = |seconds: f64| ((seconds / ROUND_S).floor() as usize).max(1);
    let main = open_loop(&server, &traffic, rounds_in(main_s));
    let rss_peak_mb = host::peak_rss_mb();

    let mut invalid = validity(&main, &traffic);
    let mut correct = main.window.failed == 0;
    let traced = if traced {
        trace::set_enabled(true);
        let open = open_loop(&server, &traffic, rounds_in(traced_s));
        let window_spans = trace::drain();
        invalid.extend(validity(&open, &traffic));
        correct &= open.window.failed == 0;

        let parts = Parts::of(&fixture.kamel);
        let sample = plan.replay_inputs.min(traffic.bodies.len());
        let traceable = Traceable::open_store(&path, None).map_err(|e| e.to_string())?;
        let replay = replay_pipeline(&traceable, &parts, &traffic.trajectories[..sample]);
        if !replay.faithful {
            invalid.push(layers::UNFAITHFUL_REPLAY.to_string());
        }
        let residency = traceable.kamel.residency().unwrap_or_default();
        replay_store(&path, &parts, u64::MAX).map_err(|e| e.to_string())?;
        replay_server(
            &engine,
            &traffic.bodies[..sample],
            ServerConfig::default().cache_entries,
        );
        let hot = &traffic.bodies[..HOT_KEYS];
        let direct_us = closed_loop_hit_us(server.local_addr(), hot).map_err(|e| e.to_string())?;
        let positions: Vec<_> = traffic
            .trajectories
            .iter()
            .map(|t| t.points[0].pos)
            .collect();
        let routed = replay_router(server.local_addr(), hot, &positions, direct_us)
            .map_err(|e| e.to_string())?;
        trace::set_enabled(false);

        let c = open.counters;
        let mut gauges: Gauges = replay.gauges;
        gauges.extend(routed);
        gauges.extend([
            ("core.train_s", fixture.train_s),
            ("store.pack_ms", pack_ms),
            ("store.file_mb", file_mb(&path)),
            ("store.resident_models", residency.resident_models as f64),
            (
                "store.bytes_resident_mb",
                residency.bytes_resident as f64 / (1024.0 * 1024.0),
            ),
            ("server.hit_service_us", direct_us),
            (
                "server.cache.hit_share",
                c.hits as f64 / (c.hits + c.misses).max(1) as f64,
            ),
            (
                "server.batch_size_mean",
                c.batched as f64 / c.batches.max(1) as f64,
            ),
            ("server.shed_count", c.shed as f64),
            ("server.deadline_count", c.deadline as f64),
            ("server.reload_p50_ms", stats::median(&open.reload_ms)),
            ("server.reloads_completed", c.reloads as f64),
            (
                "loadgen.late_p99_us",
                stats::percentile(&open.late_us, 99, 100),
            ),
            ("loadgen.sched_requests", open.window.attempted() as f64),
            (
                "lm.bert_bulk_ops_per_s",
                bert_bulk_ops_per_s(&fixture, plan.bert_bulk_s, &mut rng),
            ),
        ]);
        Some(Traced {
            window: open.window,
            window_spans,
            replay_spans: trace::drain(),
            gauges,
        })
    } else {
        None
    };
    stop((server, engine));

    boots.extend(boot_repetitions(side, boot, stop)?);
    Ok(Outcome {
        quality,
        boots,
        rss_peak_mb,
        window: main.window,
        traced,
        limit_ms: LIMIT_MS,
        settings: vec![
            ("rate_per_s", RATE_PER_S),
            ("round_s", ROUND_S),
            ("requests_per_round", REQUESTS_PER_ROUND as f64),
            ("hot_keys", HOT_KEYS as f64),
            ("planned_hit_share", traffic.planned_hit_share),
        ],
        invalid,
        correct,
    })
}

/// Reasons an open-loop window's numbers should not be trusted.
fn validity(open: &OpenWindow, traffic: &Traffic) -> Vec<String> {
    let mut invalid = Vec::new();
    let late_p99_us = stats::percentile(&open.late_us, 99, 100);
    if late_p99_us > LIMIT_MS * 1e3 / 10.0 {
        invalid.push(format!(
            "the generator ran {late_p99_us:.0} us late at p99, beyond a tenth of the limit"
        ));
    }
    let c = open.counters;
    if c.shed != 0 || c.deadline != 0 {
        invalid.push(format!(
            "the server shed {} and timed out {} requests at the frozen rate",
            c.shed, c.deadline
        ));
    }
    let hit_share = c.hits as f64 / (c.hits + c.misses).max(1) as f64;
    if (hit_share - traffic.planned_hit_share).abs() > HIT_SHARE_TOLERANCE {
        invalid.push(format!(
            "cache hit share {hit_share:.3} is off the round plan's {:.3}",
            traffic.planned_hit_share
        ));
    }
    if c.reloads as usize != open.window.rounds.len() {
        invalid.push(format!(
            "{} reloads completed in {} rounds",
            c.reloads,
            open.window.rounds.len()
        ));
    }
    invalid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_runs_from_the_due_time_and_failures_stay_in_as_misses() {
        let due = Instant::now();
        let ms = Duration::from_millis;
        let shots = [
            Shot::timed(0, due, due, due + ms(1), true), // unmeasured round: ignored
            Shot::timed(1, due, due + ms(30), due + ms(35), true), // sent late, answered in 5 ms
            Shot::timed(1, due, due, due + ms(LIMIT_MS as u64 + 1), true), // correct but too late
            Shot::timed(1, due, due, due + ms(2), false), // wrong bytes or a refusal
            // A fourth request of round 1 was never answered: no shot at all.
            Shot::timed(2, due, due, due + ms(2), true),
        ];
        assert_eq!(shots[1].latency_ms, 35.0, "the wait before sending counts");
        assert_eq!(shots[1].late_us, 30_000.0);
        let (window, late_us) = fold_rounds(&shots, 2, 4);
        assert_eq!(window.rounds.len(), 2);
        assert_eq!((window.rounds[0].attempted, window.rounds[0].ok), (4, 1));
        assert_eq!((window.rounds[1].attempted, window.rounds[1].ok), (4, 1));
        assert_eq!(
            window.failed,
            2 + 3,
            "wrong and unanswered requests are failures"
        );
        assert_eq!(window.round_ok_shares(), vec![0.25, 0.25]);
        assert_eq!(window.latencies_ms.len(), 4);
        assert_eq!(late_us.len(), 4);
    }
}
