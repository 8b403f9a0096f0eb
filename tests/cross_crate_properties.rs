//! Seeded property tests spanning crates: system-level invariants for arbitrary
//! trajectories. Reproduces `ProptestConfig::with_cases(24)`: walks of 3..40
//! fixes, steps ±0.002°, dt 1..60 s, sparsify 100..3000 m, δ 5..100 m, street
//! origin lng -8.62..-8.60.

use kamel::{Kamel, KamelConfig};
use kamel_baselines::{LinearImputer, TrajectoryImputer};
use kamel_eval::MetricsAccumulator;
use kamel_geo::{GpsPoint, LatLng, LocalProjection, Trajectory};

include!("common/cases.rs");

const CASES: u64 = 24;

/// A plausible city-scale trajectory (random walk with bounded steps and
/// strictly increasing timestamps).
fn trajectory(g: &mut Gen) -> Trajectory {
    let n = g.usize_in(3..40);
    let steps: Vec<(f64, f64)> = (0..40)
        .map(|_| (g.f64_in(-1.0..1.0), g.f64_in(-1.0..1.0)))
        .collect();
    let dt = g.f64_in(1.0..60.0);
    let mut lat = 41.15;
    let mut lng = -8.61;
    let mut points = Vec::with_capacity(n);
    for (i, (dlat, dlng)) in steps.into_iter().take(n).enumerate() {
        lat += dlat * 0.002;
        lng += dlng * 0.002;
        points.push(GpsPoint::from_parts(lat, lng, i as f64 * dt));
    }
    Trajectory::new(points)
}

/// Sparsify keeps endpoints, never adds points, and enforces spacing.
#[test]
fn sparsify_invariants() {
    for_each_case(CASES, |g| {
        let (traj, d) = (trajectory(g), g.f64_in(100.0..3_000.0));
        let s = traj.sparsify(d);
        assert!(s.len() <= traj.len());
        assert_eq!(s.points[0], traj.points[0]);
        assert_eq!(*s.points.last().unwrap(), *traj.points.last().unwrap());
        // All interior kept pairs respect the spacing.
        if s.len() > 2 {
            for w in s.points[..s.len() - 1].windows(2) {
                assert!(w[0].pos.fast_dist_m(&w[1].pos) >= d * 0.99);
            }
        }
    });
}

/// An untrained system is total: output contains the input fixes, is
/// time-ordered, and reports failures only.
#[test]
fn untrained_impute_is_total() {
    for_each_case(CASES, |g| {
        let traj = trajectory(g);
        let kamel = Kamel::new(KamelConfig::default());
        let out = kamel.impute(&traj);
        for p in &traj.points {
            assert!(out.trajectory.points.contains(p));
        }
        for w in out.trajectory.points.windows(2) {
            assert!(w[1].t >= w[0].t - 1e-9);
        }
        if let Some(f) = out.failure_rate() {
            assert_eq!(f, 1.0);
        }
    });
}

/// Metrics are bounded and self-comparison is perfect.
#[test]
fn metric_bounds() {
    for_each_case(CASES, |g| {
        let (traj, delta) = (trajectory(g), g.f64_in(5.0..100.0));
        let proj = LocalProjection::new(LatLng::new(41.15, -8.61));
        let mut acc = MetricsAccumulator::default();
        acc.add_pair(&traj, &traj, &proj, 100.0, delta);
        assert_eq!(acc.recall(), 1.0);
        assert_eq!(acc.precision(), 1.0);
        // Against a fixed line the scores stay in [0, 1].
        let line = Trajectory::new(vec![
            GpsPoint::from_parts(41.15, -8.61, 0.0),
            GpsPoint::from_parts(41.16, -8.60, 600.0),
        ]);
        let mut acc2 = MetricsAccumulator::default();
        acc2.add_pair(&traj, &line, &proj, 100.0, delta);
        assert!((0.0..=1.0).contains(&acc2.recall()));
        assert!((0.0..=1.0).contains(&acc2.precision()));
    });
}

/// The linear baseline's output spacing never exceeds max_gap (plus
/// floating-point slack) and its failure accounting is exact.
#[test]
fn linear_spacing_invariant() {
    for_each_case(CASES, |g| {
        let traj = trajectory(g);
        let li = LinearImputer { max_gap_m: 150.0 };
        let out = li.impute(&traj);
        assert_eq!(out.segments_failed, out.segments_total);
        for w in out.trajectory.points.windows(2) {
            assert!(w[0].pos.fast_dist_m(&w[1].pos) <= 150.0 * 1.01 + 1.0);
        }
    });
}

/// Trained imputation output: original fixes preserved, times monotone,
/// and every inserted point stays inside the dilated trajectory bbox.
#[test]
fn trained_impute_respects_geometry() {
    for_each_case(CASES, |g| {
        let seed_lng = g.f64_in(-8.62..-8.60);
        let corpus: Vec<Trajectory> = (0..25)
            .map(|_| {
                Trajectory::new(
                    (0..25)
                        .map(|i| {
                            GpsPoint::from_parts(
                                41.15,
                                seed_lng + i as f64 * 0.001,
                                i as f64 * 10.0,
                            )
                        })
                        .collect(),
                )
            })
            .collect();
        let kamel = Kamel::new(
            KamelConfig::builder()
                .pyramid_height(3)
                .model_threshold_k(50)
                .build(),
        );
        kamel.train(&corpus);
        let sparse = corpus[0].sparsify(900.0);
        let out = kamel.impute(&sparse);
        for p in &sparse.points {
            assert!(out.trajectory.points.contains(p));
        }
        for w in out.trajectory.points.windows(2) {
            assert!(w[1].t >= w[0].t - 1e-9);
        }
        // Imputed points stay near the street corridor.
        for p in &out.trajectory.points {
            assert!((p.pos.lat - 41.15).abs() < 0.005, "stray point {:?}", p);
        }
    });
}

/// The shared generator's contract: distinct streams per case, half-open
/// bounds, and the failing case named by seed.
#[test]
fn case_generator_contract() {
    let mut firsts = Vec::new();
    for_each_case(3, |g| firsts.push(g.next_u64()));
    firsts.sort_unstable();
    firsts.dedup();
    assert_eq!(firsts.len(), 3, "each case draws from its own stream");

    for_each_case(8, |g| {
        for _ in 0..200 {
            assert!((3..5).contains(&g.usize_in(3..5)));
            assert!((-2..1).contains(&g.i32_in(-2..1)));
            assert!((-1.0..1.0).contains(&g.f64_in(-1.0..1.0)));
            assert!((0.5..0.75).contains(&g.f32_in(0.5..0.75)));
        }
    });

    assert_eq!(failing_seed(), None);
    let mut visited = 0;
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for_each_case(5, |_| {
            visited += 1;
            assert!(visited < 3, "third case fails");
        });
    }));
    assert!(outcome.is_err(), "the panic propagates");
    assert_eq!(visited, 3, "cases after the failing one do not run");
    assert_eq!(failing_seed(), Some(2), "the guard names the failing seed");
}
