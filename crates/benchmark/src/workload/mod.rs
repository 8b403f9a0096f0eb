//! The three workloads and what they have in common: the shape of a
//! measured window and of a boot repetition.

pub mod bulk_ngram;
pub mod serve_reload;
pub mod store_cold;

use crate::district::Quality;
use crate::host;
use crate::trace::Span;
use crate::yardstick;
use std::time::{Duration, Instant};

/// How long and how often things run. Frozen in `Plan::full`; `smoke`
/// shrinks every duration so the whole suite fits a test.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Length of the measured window (`--seconds`).
    pub window_s: f64,
    /// Wall time the boot repetitions should fill, and their least count.
    pub setup_fill_s: f64,
    pub setup_min_reps: usize,
    /// Length of the BERT bulk closed loop a traced run adds.
    pub bert_bulk_s: f64,
    /// Inputs replayed through each layer in a traced run.
    pub replay_inputs: usize,
    /// Rounds of a single pass over the inputs instead of the frozen count:
    /// only for the smoke test, whose numbers nobody reads.
    pub short_rounds: bool,
}

impl Plan {
    pub fn full(seconds: f64) -> Plan {
        Plan {
            window_s: seconds,
            setup_fill_s: 1.0,
            setup_min_reps: 9,
            bert_bulk_s: 3.0,
            replay_inputs: 48,
            short_rounds: false,
        }
    }

    pub fn smoke() -> Plan {
        Plan {
            window_s: 1.5,
            setup_fill_s: 0.0,
            setup_min_reps: 3,
            bert_bulk_s: 0.3,
            replay_inputs: 8,
            short_rounds: true,
        }
    }

    /// Passes over the input list in one round, given the frozen count.
    pub fn passes(&self, frozen: usize) -> usize {
        if self.short_rounds {
            1
        } else {
            frozen
        }
    }

    /// `(untraced, traced)` seconds of window. A traced run spends 40 % of
    /// `--seconds` on each and keeps the rest for the layer replay.
    pub fn split(&self, traced: bool) -> (f64, f64) {
        if traced {
            (self.window_s * 0.4, self.window_s * 0.4)
        } else {
            (self.window_s, 0.0)
        }
    }
}

/// One round of a window: identical work every time.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Time the program spent answering: closed loops sum their calls (the
    /// yardstick strokes between them are not the program's time); the open
    /// loop's round is its scheduled length.
    pub busy_s: f64,
    pub attempted: usize,
    /// Verified answers that arrived inside the latency limit.
    pub ok: usize,
    /// The host's speed while the round ran (see `yardstick`): 1.0 at the
    /// nominal pace, below 1 in a slow phase. The open loop, whose rate is
    /// set by its schedule and not by the host, records 1.0.
    pub speed: f64,
    /// Time the round's yardstick strokes took.
    pub strokes_s: f64,
}

/// What a window measured.
#[derive(Debug, Default)]
pub struct Window {
    pub rounds: Vec<Round>,
    /// One latency per call (closed loops) or per request from its due
    /// time (open loop), in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Operations whose answer was wrong, refused or missing.
    pub failed: usize,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub steal_share: f64,
}

impl Window {
    pub fn attempted(&self) -> usize {
        self.rounds.iter().map(|r| r.attempted).sum()
    }

    /// Verified in-limit answers per second as measured, one value per
    /// round.
    pub fn raw_round_rates(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.ok as f64 / r.busy_s).collect()
    }

    /// The same at the host's nominal pace: each round's rate divided by
    /// the host's speed while it ran.
    pub fn round_rates(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| r.ok as f64 / r.busy_s / r.speed)
            .collect()
    }

    pub fn round_ok_shares(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| r.ok as f64 / r.attempted.max(1) as f64)
            .collect()
    }

    pub fn round_speeds(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.speed).collect()
    }

    /// Process CPU milliseconds per operation, the yardstick's own (one
    /// thread, never waiting) taken out.
    pub fn cpu_ms_per_op(&self) -> f64 {
        let strokes_s: f64 = self.rounds.iter().map(|r| r.strokes_s).sum();
        (self.cpu_s - strokes_s) * 1e3 / self.attempted().max(1) as f64
    }
}

/// What one closed-loop round did, call by call.
pub struct RoundLog {
    limit_ms: f64,
    calls_ms: Vec<f64>,
    strokes_ms: Vec<f64>,
    attempted: usize,
    ok: usize,
    failed: usize,
}

impl RoundLog {
    /// Records one timed call that answered `operations` operations, all
    /// `correct` or not, and takes one yardstick stroke: strokes are spread
    /// over the round as evenly as the calls are, so their mean is the
    /// host's pace over the same stretch of time.
    pub fn record(&mut self, ms: f64, operations: usize, correct: bool) {
        self.calls_ms.push(ms);
        self.attempted += operations;
        if !correct {
            self.failed += operations;
        } else if ms <= self.limit_ms {
            self.ok += operations;
        }
        self.strokes_ms.push(yardstick::stroke_ms());
    }
}

/// Runs a closed loop: one unmeasured round, then whole rounds until
/// `seconds` have passed. `round` does one round's identical work,
/// recording every call in the log it is given.
pub fn closed_loop(seconds: f64, limit_ms: f64, mut round: impl FnMut(&mut RoundLog)) -> Window {
    let mut run_round = || {
        let mut log = RoundLog {
            limit_ms,
            calls_ms: Vec::new(),
            strokes_ms: Vec::new(),
            attempted: 0,
            ok: 0,
            failed: 0,
        };
        round(&mut log);
        log
    };
    run_round();
    let mut window = Window::default();
    let snapshot = host::Snapshot::take();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        let log = run_round();
        window.rounds.push(Round {
            busy_s: log.calls_ms.iter().sum::<f64>() / 1e3,
            attempted: log.attempted,
            ok: log.ok,
            speed: yardstick::speed(&log.strokes_ms),
            strokes_s: log.strokes_ms.iter().sum::<f64>() / 1e3,
        });
        window.failed += log.failed;
        window.latencies_ms.extend(log.calls_ms);
    }
    (window.wall_s, window.cpu_s, window.steal_share) = snapshot.since();
    window
}

/// One boot repetition: cold start to first verified answer.
#[derive(Debug, Clone, Copy)]
pub struct Boot {
    pub raw_s: f64,
    /// The host's speed around the repetition.
    pub speed: f64,
}

impl Boot {
    /// Seconds at the host's nominal pace.
    pub fn nominal_s(&self) -> f64 {
        self.raw_s * self.speed
    }
}

/// Yardstick strokes taken before and after every boot repetition.
const STROKES_PER_SIDE: usize = 24;

/// Repeats a boot and times each repetition, with yardstick strokes on
/// both sides of it. What a boot built is handed to `stop` after its clock
/// has stopped. `Err` when an answer was wrong.
pub fn boot_repetitions<T>(
    reps: usize,
    mut boot: impl FnMut() -> Result<T, String>,
    mut stop: impl FnMut(T),
) -> Result<Vec<Boot>, String> {
    let strokes = || -> Vec<f64> {
        (0..STROKES_PER_SIDE)
            .map(|_| yardstick::stroke_ms())
            .collect()
    };
    let mut before = strokes();
    let mut boots = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = Instant::now();
        let built = boot()?;
        let raw_s = started.elapsed().as_secs_f64();
        stop(built);
        let after = strokes();
        boots.push(Boot {
            raw_s,
            speed: yardstick::speed(&[before.as_slice(), &after].concat()),
        });
        before = after;
    }
    Ok(boots)
}

/// The boot repetitions before the window: one to learn the pace, then the
/// rest of this side's share. Returns them with the count the other side
/// owes after the window.
pub fn boots_before_window<T>(
    plan: &Plan,
    mut boot: impl FnMut() -> Result<T, String>,
    mut stop: impl FnMut(T),
) -> Result<(Vec<Boot>, usize), String> {
    let mut boots = boot_repetitions(1, &mut boot, &mut stop)?;
    let side = reps_per_side(plan, Duration::from_secs_f64(boots[0].raw_s));
    boots.extend(boot_repetitions(side - 1, boot, stop)?);
    Ok((boots, side))
}

/// How many boot repetitions each side of the window gets: half of what
/// fills `setup_fill_s` at the pace of the first repetition, at least half
/// of `setup_min_reps`, rounded up.
pub fn reps_per_side(plan: &Plan, first: Duration) -> usize {
    let fill = (plan.setup_fill_s / first.as_secs_f64().max(1e-6)).ceil() as usize;
    fill.max(plan.setup_min_reps).div_ceil(2)
}

pub fn file_mb(path: &std::path::Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64 / (1024.0 * 1024.0))
}

/// Everything one workload run produced.
pub struct Outcome {
    pub quality: Quality,
    pub boots: Vec<Boot>,
    /// `VmHWM` when the untraced window ended.
    pub rss_peak_mb: f64,
    /// The untraced window.
    pub window: Window,
    /// The traced window, its spans, and the layer replay's spans and
    /// gauges; `None` with `--trace 0`.
    pub traced: Option<Traced>,
    pub limit_ms: f64,
    /// Frozen settings worth recording with the result.
    pub settings: Vec<(&'static str, f64)>,
    /// Reasons this run should not be compared with others.
    pub invalid: Vec<String>,
    /// False when any answer (window, boot or replay) was wrong.
    pub correct: bool,
}

pub struct Traced {
    pub window: Window,
    /// Spans of the traced window, and of the layer replay after it.
    pub window_spans: Vec<Span>,
    pub replay_spans: Vec<Span>,
    /// Numbers that are not span aggregates: counts, sizes, fixture times.
    pub gauges: Vec<(&'static str, f64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_measured_round_carries_the_same_work_and_the_first_is_not_counted() {
        let mut rounds_run = 0;
        let window = closed_loop(0.03, 10.0, |log| {
            rounds_run += 1;
            std::thread::sleep(Duration::from_millis(2));
            log.record(2.0, 4, true); // four operations, in time
            log.record(11.0, 2, true); // two correct but past the 10 ms limit
            log.record(1.0, 1, false); // one wrong answer
        });
        assert!(
            window.rounds.len() >= 2,
            "a 30 ms window holds several rounds"
        );
        assert_eq!(
            rounds_run,
            window.rounds.len() + 1,
            "one unmeasured round ran first"
        );
        assert!(window.rounds.iter().all(|r| r.attempted == 7 && r.ok == 4));
        assert!(window
            .rounds
            .iter()
            .all(|r| (r.busy_s - 0.014).abs() < 1e-12 && r.speed > 0.0));
        assert_eq!(window.attempted(), 7 * window.rounds.len());
        assert_eq!(window.failed, window.rounds.len());
        assert_eq!(
            window.latencies_ms.len(),
            3 * window.rounds.len(),
            "the unmeasured round's calls are dropped"
        );
        let (raw, nominal) = (window.raw_round_rates(), window.round_rates());
        assert!(raw.iter().all(|r| (r - 4.0 / 0.014).abs() < 1e-6));
        assert!(raw
            .iter()
            .zip(&nominal)
            .zip(&window.rounds)
            .all(|((r, n), round)| (r / round.speed - n).abs() < 1e-9));
    }

    #[test]
    fn boot_repetitions_split_evenly_and_respect_the_minimum() {
        let plan = Plan::full(30.0);
        // 0.17 s boots: 1 s holds six, the minimum of nine wins, five a side.
        assert_eq!(reps_per_side(&plan, Duration::from_millis(170)), 5);
        // 20 ms boots: fifty fill the second, twenty-five a side.
        assert_eq!(reps_per_side(&plan, Duration::from_millis(20)), 25);
        let mut stopped = 0;
        let boots = boot_repetitions(3, || Ok(()), |()| stopped += 1).unwrap();
        assert_eq!((boots.len(), stopped), (3, 3));
        assert!(boots
            .iter()
            .all(|b| b.speed > 0.0 && (b.nominal_s() - b.raw_s * b.speed).abs() < 1e-15));
        assert!(boot_repetitions(2, || Err::<(), _>("wrong answer".to_string()), |()| {}).is_err());
    }
}
