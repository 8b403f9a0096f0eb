// Included (`include!`) by every seeded property suite: the root `tests/`,
// `crates/{geo,hexgrid,lm}/tests/properties.rs`, and (under its `Matrix`
// helpers) `crates/nn/tests/common/mod.rs`. One splitmix64 stream per case,
// so the suites need no registry crate and a failure reproduces from its
// seed alone.

/// One case's value stream.
pub struct Gen(u64);

#[allow(dead_code)]
impl Gen {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in the half-open `range`.
    pub fn usize_in(&mut self, range: std::ops::Range<usize>) -> usize {
        range.start + (self.next_u64() % (range.end - range.start) as u64) as usize
    }

    /// Uniform in the half-open `range`.
    pub fn i32_in(&mut self, range: std::ops::Range<i32>) -> i32 {
        let span = (i64::from(range.end) - i64::from(range.start)) as u64;
        (i64::from(range.start) + (self.next_u64() % span) as i64) as i32
    }

    /// Uniform in the half-open `range` (24 random mantissa bits).
    pub fn f32_in(&mut self, range: std::ops::Range<f32>) -> f32 {
        let unit = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        range.start + unit * (range.end - range.start)
    }

    /// Uniform in the half-open `range` (53 random mantissa bits).
    pub fn f64_in(&mut self, range: std::ops::Range<f64>) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        range.start + unit * (range.end - range.start)
    }
}

thread_local! {
    /// Seed of the last case that panicked on this thread.
    static FAILING_SEED: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

/// The seed [`for_each_case`] last named as failing on this thread.
#[allow(dead_code)]
pub fn failing_seed() -> Option<u64> {
    FAILING_SEED.with(std::cell::Cell::get)
}

/// Names the failing case when an assertion inside it panics.
struct SeedOnPanic(u64);

impl Drop for SeedOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing case: seed {}", self.0);
            FAILING_SEED.with(|s| s.set(Some(self.0)));
        }
    }
}

/// Runs `case` once per seed in `0..cases`, each on its own stream.
pub fn for_each_case(cases: u64, mut case: impl FnMut(&mut Gen)) {
    for seed in 0..cases {
        let _guard = SeedOnPanic(seed);
        case(&mut Gen(seed.wrapping_mul(0xD1B5_4A32_D192_ED03)));
    }
}
