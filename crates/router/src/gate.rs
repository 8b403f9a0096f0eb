//! Per-shard availability: the one state machine that answers "may this
//! shard receive the next forward?" (`std`-only, clock-free, unit-tested
//! without sockets).
//!
//! ```text
//!               healthy probe              trip rule, foreign digest
//!   Unverified ───────────────► Active ─────────────────────────► Ejected
//!                                 ▲                                │   ▲
//!                                 │ 2 consecutive    healthy probe │   │ any
//!                                 │ trial successes                ▼   │ failure
//!                                 └───────────────────────────── Probation
//! ```
//!
//! * `Unverified` — boot state: no healthy `/v1/info` with the fleet's
//!   config digest seen yet. No traffic (a mixed-grid shard must never
//!   answer a request); the first healthy probe activates it directly,
//!   since no traffic has failed yet.
//! * `Active` — serving. Each forward records an outcome into a sliding
//!   window of the last `window`; a failure is a transport error, a 5xx,
//!   a forward slower than `latency_threshold`, or a failed probe.
//!   **Trip rule:** failures in the window ≥ ⌈`failure_ratio`·`window`⌉
//!   ejects. A probe *success* is not an outcome, so an idle sick shard's
//!   clean `/healthz` cannot dilute its failing forwards. A probe that
//!   finds a foreign config digest ejects at once.
//! * `Ejected` — no traffic. The probe sweep is the only way out: a
//!   healthy, digest-matching answer moves the shard to probation.
//! * `Probation` — at most one trial forward in flight; two consecutive
//!   trial successes re-activate it with a cleared window, any failure
//!   (trial or probe) ejects it again.
//!
//! The gate holds no clock: it is a pure function of the events fed to
//! it ([`Gate::admit`] / [`Gate::record`] / [`Gate::release`] on the
//! request path, [`Gate::probe`] from the probe sweep), and the probe
//! interval is the fleet's only timer. Every transition bumps the
//! shard's generation and is reported exactly once (the state entered),
//! so metrics stay deterministic under concurrent forwards; a [`Permit`]
//! carries the generation it was granted under, and an outcome arriving
//! under a later one is discarded by number.

use std::sync::Mutex;
use std::time::Duration;

/// Consecutive trial successes that re-activate a shard on probation.
const TRIALS_TO_ACTIVATE: u32 = 2;

/// Gate tuning.
#[derive(Debug, Clone)]
pub struct GatePolicy {
    /// Sliding window size, in outcomes.
    pub window: usize,
    /// Eject when failures in the window reach this share of it.
    /// `window: N, failure_ratio: 1.0` is "N consecutive failures".
    pub failure_ratio: f64,
    /// A successful forward slower than this still counts as a failure.
    pub latency_threshold: Duration,
    /// How often the background probe sweeps the fleet.
    pub probe_interval: Duration,
}

impl Default for GatePolicy {
    /// Three failures among the last six outcomes eject: a dead shard is
    /// out after three forwards, a shard failing one request in three is
    /// not.
    fn default() -> Self {
        Self {
            window: 6,
            failure_ratio: 0.5,
            latency_threshold: Duration::from_secs(2),
            probe_interval: Duration::from_millis(500),
        }
    }
}

impl GatePolicy {
    /// Failures in the window that eject: ⌈`failure_ratio`·`window`⌉,
    /// kept inside `1..=window` so no policy can disable the rule.
    pub fn trip_at(&self) -> usize {
        let window = self.window.max(1);
        // The epsilon keeps 0.3 × 10 = 3.0000000000000004 at 3.
        let raw = (self.failure_ratio * window as f64 - 1e-9).ceil();
        (raw.max(1.0) as usize).min(window)
    }
}

/// One shard's position in the state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Not yet admitted (no healthy, digest-matching `/v1/info` seen).
    Unverified,
    /// Serving traffic.
    Active,
    /// Receives no traffic; probed for re-admission.
    Ejected,
    /// Re-admitted on trial: one forward at a time.
    Probation,
}

impl ShardState {
    /// The lowercase wire name used on `/v1/shards`.
    pub fn as_str(self) -> &'static str {
        match self {
            ShardState::Unverified => "unverified",
            ShardState::Active => "active",
            ShardState::Ejected => "ejected",
            ShardState::Probation => "probation",
        }
    }

    /// The `kamel_router_shard_state` gauge value (0 active, 1 probation,
    /// 2 ejected, 3 unverified).
    pub fn gauge(self) -> u64 {
        match self {
            ShardState::Active => 0,
            ShardState::Probation => 1,
            ShardState::Ejected => 2,
            ShardState::Unverified => 3,
        }
    }
}

/// What one probe of one shard found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// `/healthz` 200 and `/v1/info` carries the fleet's config digest.
    Healthy,
    /// Unreachable, unhealthy, or an unreadable `/v1/info`.
    Failed,
    /// Healthy, but its config digest is not the fleet's.
    Foreign,
}

/// Proof of admission, returned by [`Gate::admit`] and handed back via
/// [`Gate::record`] (or [`Gate::release`] if the forward never happened).
#[derive(Debug)]
#[must_use = "a permit must be passed back via record() or release()"]
pub struct Permit {
    generation: u64,
}

#[derive(Debug)]
struct Slot {
    state: ShardState,
    /// Bumped on every transition.
    generation: u64,
    /// Ring buffer of the last `window` outcomes (`true` = failure).
    outcomes: Vec<bool>,
    next: usize,
    failures: usize,
    trial_inflight: bool,
    trial_successes: u32,
}

impl Slot {
    /// `Active` always grants a permit; `Probation` grants while no other
    /// trial is in flight.
    fn grants(&self) -> bool {
        match self.state {
            ShardState::Active => true,
            ShardState::Probation => !self.trial_inflight,
            ShardState::Unverified | ShardState::Ejected => false,
        }
    }

    fn push(&mut self, failure: bool) {
        let evicted = std::mem::replace(&mut self.outcomes[self.next], failure);
        self.failures = self.failures - usize::from(evicted) + usize::from(failure);
        self.next = (self.next + 1) % self.outcomes.len();
    }

    /// The one place a state changes. Activation clears the window:
    /// history from the bad era must not eject the shard again.
    fn enter(&mut self, state: ShardState) -> Option<ShardState> {
        self.state = state;
        self.generation += 1;
        self.trial_inflight = false;
        self.trial_successes = 0;
        if state == ShardState::Active {
            self.outcomes.fill(false);
            self.failures = 0;
        }
        Some(state)
    }
}

/// The fleet's gates, indexed like `ShardMap::shards()`.
#[derive(Debug)]
pub struct Gate {
    slots: Vec<Mutex<Slot>>,
    latency_threshold: Duration,
    trip_at: usize,
}

impl Gate {
    /// All shards start `Unverified`.
    pub fn new(shards: usize, policy: &GatePolicy) -> Self {
        let slot = || Slot {
            state: ShardState::Unverified,
            generation: 0,
            outcomes: vec![false; policy.window.max(1)],
            next: 0,
            failures: 0,
            trial_inflight: false,
            trial_successes: 0,
        };
        Self {
            slots: (0..shards).map(|_| Mutex::new(slot())).collect(),
            latency_threshold: policy.latency_threshold,
            trip_at: policy.trip_at(),
        }
    }

    fn slot(&self, shard: usize) -> std::sync::MutexGuard<'_, Slot> {
        self.slots[shard].lock().expect("gate poisoned")
    }

    /// The shard's current state.
    pub fn state(&self, shard: usize) -> ShardState {
        self.slot(shard).state
    }

    /// `(state, failures in the window)` for every shard, for `/v1/shards`.
    pub fn snapshot(&self) -> Vec<(ShardState, usize)> {
        (0..self.slots.len())
            .map(|shard| {
                let slot = self.slot(shard);
                (slot.state, slot.failures)
            })
            .collect()
    }

    /// Would [`Gate::admit`] grant a permit right now? Looking changes
    /// nothing and takes no trial slot.
    pub fn would_admit(&self, shard: usize) -> bool {
        self.slot(shard).grants()
    }

    /// Admission: a permit, or `None` to skip this shard. A permit granted
    /// on probation is the trial and holds its one slot.
    pub fn admit(&self, shard: usize) -> Option<Permit> {
        let mut slot = self.slot(shard);
        if !slot.grants() {
            return None;
        }
        slot.trial_inflight = slot.state == ShardState::Probation;
        Some(Permit {
            generation: slot.generation,
        })
    }

    /// Hands back a permit without an outcome (the forward was never
    /// sent — e.g. the request's deadline budget ran out first): frees
    /// the trial slot without a verdict.
    pub fn release(&self, shard: usize, permit: Permit) {
        let mut slot = self.slot(shard);
        if permit.generation == slot.generation {
            slot.trial_inflight = false;
        }
    }

    /// Records a forward's outcome under `permit`. `ok` is "transport
    /// succeeded and status < 500"; an `ok` forward slower than the
    /// latency threshold is a failure. Returns the state this outcome
    /// moved the shard into, if it moved.
    pub fn record(
        &self,
        shard: usize,
        permit: Permit,
        ok: bool,
        latency: Duration,
    ) -> Option<ShardState> {
        let failure = !ok || latency > self.latency_threshold;
        let mut slot = self.slot(shard);
        if permit.generation != slot.generation {
            return None;
        }
        match slot.state {
            ShardState::Active => {
                slot.push(failure);
                if slot.failures >= self.trip_at {
                    return slot.enter(ShardState::Ejected);
                }
                None
            }
            ShardState::Probation => {
                slot.trial_inflight = false;
                if failure {
                    slot.push(true);
                    return slot.enter(ShardState::Ejected);
                }
                slot.trial_successes += 1;
                if slot.trial_successes >= TRIALS_TO_ACTIVATE {
                    return slot.enter(ShardState::Active);
                }
                None
            }
            // No permit carries the generation of a state that grants none.
            ShardState::Unverified | ShardState::Ejected => None,
        }
    }

    /// Feeds one probe verdict. Returns the state it moved the shard
    /// into, if it moved.
    pub fn probe(&self, shard: usize, verdict: Probe) -> Option<ShardState> {
        let mut slot = self.slot(shard);
        if verdict == Probe::Healthy {
            return match slot.state {
                ShardState::Unverified => slot.enter(ShardState::Active),
                ShardState::Ejected => slot.enter(ShardState::Probation),
                ShardState::Active | ShardState::Probation => None,
            };
        }
        slot.push(true);
        let eject = match slot.state {
            ShardState::Active => verdict == Probe::Foreign || slot.failures >= self.trip_at,
            ShardState::Probation => true,
            ShardState::Unverified | ShardState::Ejected => false,
        };
        if eject {
            return slot.enter(ShardState::Ejected);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    include!("../../../tests/common/cases.rs");

    const FAST: Duration = Duration::from_millis(1);

    fn gate(window: usize, failure_ratio: f64) -> Gate {
        let policy = GatePolicy {
            window,
            failure_ratio,
            latency_threshold: Duration::from_millis(500),
            ..GatePolicy::default()
        };
        Gate::new(2, &policy)
    }

    /// An admitted gate: shard 0 is `Active`, shard 1 stays `Unverified`.
    fn active(window: usize, failure_ratio: f64) -> Gate {
        let g = gate(window, failure_ratio);
        assert_eq!(g.probe(0, Probe::Healthy), Some(ShardState::Active));
        g
    }

    /// One forward through shard 0.
    fn run(g: &Gate, ok: bool, latency: Duration) -> Option<ShardState> {
        let permit = g.admit(0).expect("admitted");
        g.record(0, permit, ok, latency)
    }

    /// Drives shard 0 from `Active` into `Probation`.
    fn on_probation(window: usize, failure_ratio: f64) -> Gate {
        let g = active(window, failure_ratio);
        while g.state(0) == ShardState::Active {
            run(&g, false, FAST);
        }
        assert_eq!(g.probe(0, Probe::Healthy), Some(ShardState::Probation));
        g
    }

    #[test]
    fn the_default_policy_ejects_a_dead_shard_after_three_forwards() {
        assert_eq!(GatePolicy::default().trip_at(), 3);
        let ratio = |window, failure_ratio| GatePolicy {
            window,
            failure_ratio,
            ..GatePolicy::default()
        };
        assert_eq!(ratio(1, 0.5).trip_at(), 1, "window 1 ejects on the first failure");
        assert_eq!(ratio(4, 0.5).trip_at(), 2);
        assert_eq!(ratio(5, 0.5).trip_at(), 3, "the ratio rounds up");
        assert_eq!(ratio(10, 0.3).trip_at(), 3, "0.3 × 10 is 3, not 3.0000000000000004");
        assert_eq!(ratio(3, 1.0).trip_at(), 3);
        // No policy disables the rule or makes it unreachable.
        assert_eq!(ratio(4, 0.0).trip_at(), 1);
        assert_eq!(ratio(4, 7.0).trip_at(), 4);
        assert_eq!(ratio(0, 0.5).trip_at(), 1);
    }

    #[test]
    fn unverified_shards_never_receive_a_permit() {
        let g = gate(4, 0.5);
        assert_eq!(g.state(0), ShardState::Unverified);
        assert!(!g.would_admit(0));
        assert!(g.admit(0).is_none());
        // Failures on an unverified shard never "eject" it.
        for _ in 0..8 {
            assert_eq!(g.probe(0, Probe::Failed), None);
        }
        assert_eq!(g.state(0), ShardState::Unverified);
        // Nor does a foreign digest: it stays where no request reaches it.
        assert_eq!(g.probe(0, Probe::Foreign), None);
        assert_eq!(g.state(0), ShardState::Unverified);
    }

    #[test]
    fn boot_time_failures_are_wiped_by_first_admission() {
        // Boot-time probe failures fill the window; the first admission
        // must not inherit them, or the shard would eject on its first
        // real wobble.
        let g = gate(4, 0.75);
        g.probe(0, Probe::Failed);
        g.probe(0, Probe::Failed);
        assert_eq!(g.snapshot()[0], (ShardState::Unverified, 2));
        assert_eq!(g.probe(0, Probe::Healthy), Some(ShardState::Active));
        assert_eq!(g.snapshot()[0], (ShardState::Active, 0));
        assert_eq!(run(&g, false, FAST), None);
        assert_eq!(run(&g, false, FAST), None);
        assert_eq!(
            run(&g, false, FAST),
            Some(ShardState::Ejected),
            "the full trip count is required after admission"
        );
    }

    #[test]
    fn each_transition_is_reported_exactly_once() {
        let g = gate(1, 1.0);
        assert_eq!(g.probe(0, Probe::Healthy), Some(ShardState::Active));
        assert_eq!(g.probe(0, Probe::Healthy), None, "already active: no second admission");
        assert_eq!(run(&g, false, FAST), Some(ShardState::Ejected));
        // Concurrent requests that raced the ejection keep failing and
        // probes keep failing; the transition happened exactly once.
        for _ in 0..5 {
            assert_eq!(g.probe(0, Probe::Failed), None);
        }
        assert_eq!(g.state(0), ShardState::Ejected);
        assert_eq!(g.probe(0, Probe::Healthy), Some(ShardState::Probation));
        assert_eq!(g.probe(0, Probe::Healthy), None, "already on probation");
        assert_eq!(run(&g, true, FAST), None);
        assert_eq!(run(&g, true, FAST), Some(ShardState::Active));
    }

    #[test]
    fn it_trips_exactly_once_at_the_ratio() {
        // 4 of the last 8 at ratio 0.5.
        let g = active(8, 0.5);
        for _ in 0..3 {
            assert_eq!(run(&g, false, FAST), None);
        }
        assert_eq!(g.state(0), ShardState::Active);
        assert_eq!(run(&g, false, FAST), Some(ShardState::Ejected));
        assert!(!g.would_admit(0));
        assert!(g.admit(0).is_none(), "an ejected shard receives no permit");
        // A two-slot window still trips: nothing floors the sample count.
        let g = active(2, 1.0);
        assert_eq!(run(&g, false, FAST), None);
        assert_eq!(run(&g, false, FAST), Some(ShardState::Ejected));
    }

    #[test]
    fn window_n_at_ratio_one_is_n_consecutive_failures() {
        let g = active(3, 1.0);
        assert_eq!(run(&g, false, FAST), None);
        assert_eq!(run(&g, false, FAST), None);
        assert_eq!(run(&g, true, FAST), None);
        // The success sits in the window for three more outcomes.
        assert_eq!(run(&g, false, FAST), None, "streak restarted after the success");
        assert_eq!(run(&g, false, FAST), None);
        assert_eq!(run(&g, false, FAST), Some(ShardState::Ejected));
    }

    #[test]
    fn a_mostly_healthy_window_never_trips() {
        let g = active(8, 0.5);
        for i in 0..32 {
            // One failure in four: 25% < 50%.
            assert_eq!(run(&g, i % 4 != 0, FAST), None, "iteration {i}");
        }
        assert_eq!(g.state(0), ShardState::Active);
    }

    #[test]
    fn slow_successes_count_as_failures() {
        let g = active(8, 0.5);
        let slow = Duration::from_millis(600);
        for _ in 0..3 {
            assert_eq!(run(&g, true, slow), None, "slower than the 500 ms threshold");
        }
        assert_eq!(run(&g, true, slow), Some(ShardState::Ejected));
    }

    #[test]
    fn the_window_slides_old_failures_out() {
        let g = active(4, 0.5);
        // One failure inside a healthy stretch never trips (1/4 < 0.5)...
        run(&g, false, FAST);
        for _ in 0..7 {
            assert_eq!(run(&g, true, FAST), None);
        }
        // ...and by now it has slid out: a fresh failure is again only 1/4.
        assert_eq!(g.snapshot()[0], (ShardState::Active, 0));
        assert_eq!(run(&g, false, FAST), None);
        // The window remembers 4 outcomes: a second fresh failure makes
        // 2/4 and trips.
        assert_eq!(run(&g, false, FAST), Some(ShardState::Ejected));
    }

    #[test]
    fn probe_successes_are_not_outcomes_and_probe_failures_are() {
        let g = active(4, 0.5);
        run(&g, false, FAST);
        // An idle sick shard's clean /healthz cannot dilute the failure.
        for _ in 0..16 {
            assert_eq!(g.probe(0, Probe::Healthy), None);
        }
        assert_eq!(g.snapshot()[0], (ShardState::Active, 1));
        // A failed probe counts like a failed forward: ejection does not
        // depend on request traffic.
        assert_eq!(g.probe(0, Probe::Failed), Some(ShardState::Ejected));
    }

    #[test]
    fn a_foreign_digest_ejects_an_active_shard_at_once() {
        let g = active(8, 1.0);
        assert_eq!(g.probe(0, Probe::Foreign), Some(ShardState::Ejected));
        // It stays out while the digest disagrees, and returns through
        // probation when it matches again.
        assert_eq!(g.probe(0, Probe::Foreign), None);
        assert_eq!(g.probe(0, Probe::Healthy), Some(ShardState::Probation));
        assert_eq!(g.probe(0, Probe::Foreign), Some(ShardState::Ejected));
    }

    #[test]
    fn success_alone_never_admits() {
        // A straggler success from before the ejection must not launder
        // the failures or re-admit: only a probe (digest-checked) does.
        let g = active(2, 1.0);
        let straggler = g.admit(0).unwrap();
        run(&g, false, FAST);
        run(&g, false, FAST);
        assert_eq!(g.state(0), ShardState::Ejected);
        assert_eq!(g.record(0, straggler, true, FAST), None);
        assert_eq!(g.snapshot()[0], (ShardState::Ejected, 2));
        assert!(!g.would_admit(1), "an unverified shard has no permit to succeed with");
    }

    #[test]
    fn probation_runs_one_trial_at_a_time() {
        let g = on_probation(4, 0.5);
        assert!(g.would_admit(0));
        let trial = g.admit(0).expect("first trial admitted");
        assert!(!g.would_admit(0));
        assert!(g.admit(0).is_none(), "one trial in flight");
        // A permit that never carried a forward frees the slot without a
        // verdict.
        g.release(0, trial);
        assert!(g.would_admit(0));
        assert_eq!(g.state(0), ShardState::Probation);
        assert_eq!(run(&g, true, FAST), None);
        assert!(g.would_admit(0), "a finished trial frees the slot too");
    }

    #[test]
    fn two_trial_successes_reactivate_with_a_cleared_window() {
        let g = on_probation(4, 0.5);
        assert_eq!(g.snapshot()[0], (ShardState::Probation, 2));
        assert_eq!(run(&g, true, FAST), None);
        assert_eq!(run(&g, true, FAST), Some(ShardState::Active));
        // The window was cleared: one new failure is not 2 old + 1 new.
        assert_eq!(g.snapshot()[0], (ShardState::Active, 0));
        assert_eq!(run(&g, false, FAST), None);
        assert_eq!(g.state(0), ShardState::Active);
    }

    #[test]
    fn any_failure_on_probation_ejects_again() {
        let g = on_probation(4, 0.5);
        assert_eq!(run(&g, true, FAST), None);
        assert_eq!(run(&g, false, FAST), Some(ShardState::Ejected), "a failed trial");
        assert_eq!(g.probe(0, Probe::Healthy), Some(ShardState::Probation));
        assert_eq!(
            run(&g, true, Duration::from_millis(600)),
            Some(ShardState::Ejected),
            "a slow trial"
        );
        assert_eq!(g.probe(0, Probe::Healthy), Some(ShardState::Probation));
        assert_eq!(g.probe(0, Probe::Failed), Some(ShardState::Ejected), "a failed probe");
        // The earlier trial success did not carry over.
        assert_eq!(g.probe(0, Probe::Healthy), Some(ShardState::Probation));
        assert_eq!(run(&g, true, FAST), None);
    }

    #[test]
    fn stale_generation_outcomes_change_nothing() {
        // A forward admitted while Active lands after the shard was
        // ejected, probed back and re-activated: its failure belongs to an
        // earlier generation and is not counted against the fresh window.
        let g = active(2, 1.0);
        let straggler = g.admit(0).unwrap();
        run(&g, false, FAST);
        run(&g, false, FAST);
        g.probe(0, Probe::Healthy);
        // A stale permit holds no trial slot and frees none.
        let trial = g.admit(0).unwrap();
        let stale = Permit { generation: 0 };
        g.release(0, stale);
        assert!(!g.would_admit(0), "the live trial still holds the slot");
        assert_eq!(g.record(0, trial, true, FAST), None);
        assert_eq!(run(&g, true, FAST), Some(ShardState::Active));
        assert_eq!(g.record(0, straggler, false, FAST), None);
        assert_eq!(g.snapshot()[0], (ShardState::Active, 0));
        // A trial that outlives its probation is history as well.
        let g = on_probation(2, 1.0);
        let trial = g.admit(0).unwrap();
        assert_eq!(g.probe(0, Probe::Failed), Some(ShardState::Ejected));
        assert_eq!(g.probe(0, Probe::Healthy), Some(ShardState::Probation));
        assert_eq!(g.record(0, trial, true, FAST), None);
        assert!(g.would_admit(0), "the new probation's slot was never taken");
        assert_eq!(run(&g, true, FAST), None, "and its success was not counted");
    }

    #[test]
    fn snapshot_reflects_per_shard_state() {
        let g = active(4, 1.0);
        run(&g, false, FAST);
        assert_eq!(g.snapshot(), vec![(ShardState::Active, 1), (ShardState::Unverified, 0)]);
        assert_eq!(ShardState::Probation.as_str(), "probation");
    }

    /// Random interleavings of every event across three shards: permits
    /// only where the state grants them, one trial at a time, only the
    /// diagram's edges, and each state change reported exactly once — so
    /// counters fed from the reports reconcile with the final states.
    #[test]
    fn random_interleavings_keep_the_gate_consistent() {
        use ShardState::{Active, Ejected, Probation, Unverified};
        const SHARDS: usize = 3;
        for_each_case(2_000, |gen| {
            let policy = GatePolicy {
                window: gen.usize_in(1..7),
                failure_ratio: gen.f64_in(0.1..1.0),
                latency_threshold: Duration::from_millis(500),
                ..GatePolicy::default()
            };
            let g = Gate::new(SHARDS, &policy);
            let mut held: [Vec<Permit>; SHARDS] = Default::default();
            // What `proxy.rs` counts: entries into Active (first, and
            // again after probation), Ejected and Probation.
            let mut counts = [[0u32; 4]; SHARDS];
            let (first, again, ejections, probations) = (0, 1, 2, 3);
            for _ in 0..gen.usize_in(1..120) {
                let shard = gen.usize_in(0..SHARDS);
                let before = g.state(shard);
                let live = |held: &[Permit]| {
                    let generation = g.slot(shard).generation;
                    held.iter().filter(|p| p.generation == generation).count()
                };
                let entered = match gen.usize_in(0..8) {
                    0..=2 => {
                        let may = before == Active || (before == Probation && live(&held[shard]) == 0);
                        let granted = g.admit(shard);
                        assert_eq!(granted.is_some(), may, "admit in {before:?}");
                        held[shard].extend(granted);
                        None
                    }
                    3..=5 if !held[shard].is_empty() => {
                        let permit = held[shard].swap_remove(gen.usize_in(0..held[shard].len()));
                        match gen.usize_in(0..4) {
                            0 => {
                                g.release(shard, permit);
                                None
                            }
                            ok => {
                                let latency = Duration::from_millis(gen.usize_in(0..1_000) as u64);
                                g.record(shard, permit, ok > 1, latency)
                            }
                        }
                    }
                    _ => {
                        let verdict = [Probe::Healthy, Probe::Healthy, Probe::Failed, Probe::Foreign];
                        g.probe(shard, verdict[gen.usize_in(0..4)])
                    }
                };
                let after = g.state(shard);
                assert_eq!(entered, (after != before).then_some(after), "{before:?} -> {after:?}");
                match (before, entered) {
                    (_, None) => {}
                    (Unverified, Some(Active)) => counts[shard][first] += 1,
                    (Probation, Some(Active)) => counts[shard][again] += 1,
                    (Active | Probation, Some(Ejected)) => counts[shard][ejections] += 1,
                    (Ejected, Some(Probation)) => counts[shard][probations] += 1,
                    (from, Some(to)) => panic!("no such edge: {from:?} -> {to:?}"),
                }
                if after == Probation {
                    assert!(live(&held[shard]) <= 1, "more than one trial outstanding");
                }
            }
            for (shard, count) in counts.iter().enumerate() {
                let state = g.state(shard);
                assert_eq!(count[first], u32::from(state != Unverified));
                assert_eq!(
                    count[ejections] - count[probations],
                    u32::from(state == Ejected),
                    "every ejection but a standing one was probed back"
                );
                assert!(count[again] <= count[probations], "re-activation without a probation");
            }
        });
    }
}
