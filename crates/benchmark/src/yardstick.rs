//! A fixed piece of work that has nothing to do with the program under
//! test, timed next to everything the benchmark times, so that a timing
//! can be told apart from the host's speed at that moment.
//!
//! This host runs the same code up to 1.9 times slower from one second to
//! the next, and stays mostly-slow or mostly-fast for minutes at a time
//! (see README, "The design rule" and "Spreads"): two sets of ten runs
//! taken twenty minutes apart differ by more than any bound a metric may
//! have, whatever is done inside one run. The yardstick's own time moves
//! with the host; a regression in the program does not move it. Dividing
//! one by the other gives a timing at the host's nominal pace.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// What one stroke takes on the host the bounds were frozen on, in its
/// fast phase. Only ratios to it are used, so its exact value matters as
/// little as the choice of a unit.
pub const NOMINAL_MS: f64 = 1.0;

/// One stroke, in milliseconds: integer mixing and a sort, hash-map
/// inserts and lookups, float formatting and parsing, and a float
/// reduction — the same kinds of work (branches, hashing, allocation,
/// parsing, arithmetic) the program's layers are made of, in about the
/// time of one model materialization.
pub fn stroke_ms() -> f64 {
    let started = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut keys: Vec<u64> = (0..24_000).map(|_| next()).collect();
    keys.sort_unstable();
    let mut table: HashMap<u64, u64> = HashMap::with_capacity(4_096);
    for (i, &k) in keys.iter().step_by(6).enumerate() {
        table.insert(k, i as u64);
    }
    let found: u64 = keys.iter().step_by(3).filter_map(|k| table.get(k)).sum();
    let text: Vec<String> = keys
        .iter()
        .take(1_500)
        .map(|&k| format!("{:?}", (k >> 11) as f64 / 1e9))
        .collect();
    let parsed: f64 = text.iter().filter_map(|t| t.parse::<f64>().ok()).sum();
    let floats: Vec<f32> = keys.iter().map(|&k| (k >> 40) as f32 * 1e-6).collect();
    let dot: f32 = floats
        .iter()
        .zip(floats.iter().rev())
        .map(|(a, b)| a * b)
        .sum();
    black_box((found, parsed, dot));
    started.elapsed().as_secs_f64() * 1e3
}

/// The host's speed from the strokes taken over a stretch of time: 1.0 at
/// the nominal pace, below 1 when the host is slower. The pace is the
/// **mean** stroke: the host's speed flips within milliseconds, and what a
/// measurement next to the strokes saw is the average, not the best case.
pub fn speed(strokes_ms: &[f64]) -> f64 {
    let total: f64 = strokes_ms.iter().sum();
    if total > 0.0 {
        NOMINAL_MS * strokes_ms.len() as f64 / total
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_nominal_over_the_mean_stroke() {
        assert_eq!(speed(&[NOMINAL_MS, NOMINAL_MS * 3.0]), 0.5);
        assert_eq!(speed(&[NOMINAL_MS]), 1.0);
        assert_eq!(speed(&[]), 1.0);
    }

    #[test]
    fn a_stroke_takes_measurable_time() {
        assert!(stroke_ms() > 0.05);
    }
}
