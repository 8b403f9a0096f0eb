//! Seeded input generation: which sparsified variants a run imputes, in
//! what order, and (for the open loop) when each request is due.
//!
//! `--seed` enters the benchmark here and nowhere else; the program under
//! test only ever sees the trajectories and request bodies built from it.

use kamel_geo::{GpsPoint, Trajectory};

/// splitmix64: a few lines, good enough statistics for shuffles and
/// exponential gaps, and no dependency that could change the stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `(0, 1]`, so its logarithm is finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Sparsification distances a seed chooses among, around the paper's
/// 400 m default.
const SPARSE_DISTANCES_M: [f64; 4] = [300.0, 400.0, 500.0, 600.0];

/// One sparsified variant per ground-truth trajectory, the distance drawn
/// per trajectory, in shuffled order. Trajectories whose variant kept every
/// fix (nothing to impute) are dropped.
pub fn sparse_variants(truths: &[&Trajectory], rng: &mut Rng) -> Vec<Trajectory> {
    let mut out: Vec<Trajectory> = truths
        .iter()
        .map(|t| t.sparsify(SPARSE_DISTANCES_M[rng.below(SPARSE_DISTANCES_M.len())]))
        .filter(|s| s.len() >= 2)
        .collect();
    rng.shuffle(&mut out);
    out
}

/// Every consecutive pair of fixes of `sparse` as a trajectory of its own:
/// exactly one gap.
pub fn one_gap_trajectories(sparse: &Trajectory) -> impl Iterator<Item = Trajectory> + '_ {
    sparse
        .points
        .windows(2)
        .map(|w| Trajectory::new(w.to_vec()))
}

/// A copy of `t` with every timestamp moved by `shift_s`: the same cells,
/// gaps and imputation work, but other bytes — so a response cache keyed
/// on the raw fixes cannot have seen it.
pub fn time_shifted(t: &Trajectory, shift_s: f64) -> Trajectory {
    Trajectory::new(
        t.points
            .iter()
            .map(|p| GpsPoint::new(p.pos, p.t + shift_s))
            .collect(),
    )
}

/// One request of an open-loop round: when it is due, counted from the
/// round's start, and which body it sends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due_ns: u64,
    pub body: usize,
}

/// A Poisson arrival schedule of exactly `bodies.len()` requests over one
/// round: exponential gaps at `rate_per_s`, rescaled so the last request
/// falls inside `round_s` whatever the draw. `bodies` gives the body index
/// of each arrival in order.
pub fn poisson_round(
    bodies: &[usize],
    rate_per_s: f64,
    round_s: f64,
    rng: &mut Rng,
) -> Vec<Arrival> {
    let mut at = 0.0;
    let mut offsets: Vec<f64> = bodies
        .iter()
        .map(|_| {
            at += -rng.unit().ln() / rate_per_s;
            at
        })
        .collect();
    // Keep the tail of the round free for the last answers: arrivals span
    // at most 95 % of it.
    let span = round_s * 0.95;
    if at > span {
        let scale = span / at;
        offsets.iter_mut().for_each(|o| *o *= scale);
    }
    offsets
        .into_iter()
        .zip(bodies)
        .map(|(o, &body)| Arrival {
            due_ns: (o * 1e9) as u64,
            body,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let bodies: Vec<usize> = (0..120).map(|i| i % 9).collect();
        let a = poisson_round(&bodies, 80.0, 1.5, &mut Rng::new(42));
        let b = poisson_round(&bodies, 80.0, 1.5, &mut Rng::new(42));
        let c = poisson_round(&bodies, 80.0, 1.5, &mut Rng::new(43));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 120);
        assert!(
            a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns),
            "arrivals are in due order"
        );
        assert!(
            a.last().unwrap().due_ns <= 1_500_000_000,
            "the round holds every arrival"
        );
    }

    #[test]
    fn shuffles_and_draws_are_reproducible() {
        let mut v1: Vec<u32> = (0..50).collect();
        let mut v2 = v1.clone();
        Rng::new(7).shuffle(&mut v1);
        Rng::new(7).shuffle(&mut v2);
        assert_eq!(v1, v2);
        assert_ne!(v1, (0..50).collect::<Vec<_>>());
        let mut rng = Rng::new(1);
        assert!((0..10_000).all(|_| rng.below(7) < 7));
        assert!((0..10_000).all(|_| {
            let u = rng.unit();
            u > 0.0 && u <= 1.0
        }));
    }

    #[test]
    fn time_shift_keeps_positions_and_moves_every_timestamp() {
        let t = Trajectory::new(vec![
            GpsPoint::from_parts(41.15, -8.61, 0.0),
            GpsPoint::from_parts(41.16, -8.60, 90.0),
        ]);
        let s = time_shifted(&t, 0.25);
        assert_eq!(s.points[1].pos, t.points[1].pos);
        assert_eq!(s.points[0].t, 0.25);
        assert_eq!(s.points[1].t, 90.25);
    }
}
