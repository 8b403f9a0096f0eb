//! Seeded property tests for the geographic primitives. Reproduces the default
//! `ProptestConfig` (256 cases): lat 40.9..41.4 × lng -8.9..-8.3, angles and xy
//! in ±1e4, polylines of 2..12 (bbox 1..20) points in ±5e3, interval 10..500,
//! ellipse foci in ±1e3 with speed 1..40, dt 0..600.

use kamel_geo::{
    angle_between_deg, bearing_deg, discretize, equirectangular_m, haversine_m, normalize_deg,
    point_to_polyline_distance, polyline_length, BBox, Ellipse, LatLng, LocalProjection, Xy,
};

include!("../../../tests/common/cases.rs");

const CASES: u64 = 256;

fn city_latlng(g: &mut Gen) -> LatLng {
    LatLng::new(g.f64_in(40.9..41.4), g.f64_in(-8.9..-8.3))
}

fn xy_in(g: &mut Gen, range: std::ops::Range<f64>) -> Xy {
    Xy::new(g.f64_in(range.clone()), g.f64_in(range))
}

/// Projection round-trip error is far below GPS noise.
#[test]
fn projection_roundtrip() {
    for_each_case(CASES, |g| {
        let p = city_latlng(g);
        let proj = LocalProjection::new(LatLng::new(41.15, -8.61));
        let back = proj.to_latlng(proj.to_xy(p));
        assert!(p.fast_dist_m(&back) < 0.01, "roundtrip error too large");
    });
}

/// Haversine and equirectangular agree at city scale.
#[test]
fn distances_agree() {
    for_each_case(CASES, |g| {
        let (a, b) = (city_latlng(g), city_latlng(g));
        let h = haversine_m(a, b);
        let e = equirectangular_m(a, b);
        assert!((h - e).abs() <= h.max(1.0) * 5e-3);
    });
}

/// Haversine is a metric: symmetric, zero iff equal, triangle holds.
#[test]
fn haversine_metric() {
    for_each_case(CASES, |g| {
        let (a, b, c) = (city_latlng(g), city_latlng(g), city_latlng(g));
        assert!((haversine_m(a, b) - haversine_m(b, a)).abs() < 1e-6);
        assert!(haversine_m(a, c) <= haversine_m(a, b) + haversine_m(b, c) + 1e-6);
        assert_eq!(haversine_m(a, a), 0.0);
    });
}

/// Normalized angles land in [0, 360); differences in [0, 180].
#[test]
fn angles_in_range() {
    for_each_case(CASES, |g| {
        let (a, b) = (g.f64_in(-1e4..1e4), g.f64_in(-1e4..1e4));
        let na = normalize_deg(a);
        assert!((0.0..360.0).contains(&na));
        let d = angle_between_deg(a, b);
        assert!((0.0..=180.0).contains(&d));
        // Symmetric.
        assert!((d - angle_between_deg(b, a)).abs() < 1e-9);
    });
}

/// Bearing plus 180° flips direction.
#[test]
fn bearing_reverse() {
    for_each_case(CASES, |g| {
        let a = xy_in(g, -1e4..1e4);
        let mut b = xy_in(g, -1e4..1e4);
        while a == b {
            b = xy_in(g, -1e4..1e4);
        }
        let fwd = bearing_deg(a, b).unwrap();
        let rev = bearing_deg(b, a).unwrap();
        assert!((angle_between_deg(fwd, rev) - 180.0).abs() < 1e-6);
    });
}

/// Discretized points lie on the polyline and are spaced ≤ interval.
#[test]
fn discretize_invariants() {
    for_each_case(CASES, |g| {
        let line: Vec<Xy> = (0..g.usize_in(2..12))
            .map(|_| xy_in(g, -5e3..5e3))
            .collect();
        let interval = g.f64_in(10.0..500.0);
        let samples = discretize(&line, interval);
        assert_eq!(samples[0], line[0]);
        assert_eq!(*samples.last().unwrap(), *line.last().unwrap());
        for s in &samples {
            assert!(point_to_polyline_distance(*s, &line) < 1e-6);
        }
        // Count is consistent with the length.
        let expected = (polyline_length(&line) / interval).floor() as usize;
        assert!(samples.len() >= expected.max(1));
    });
}

/// A bbox built from points contains all of them; union is monotone.
#[test]
fn bbox_contains_sources() {
    for_each_case(CASES, |g| {
        let xs: Vec<Xy> = (0..g.usize_in(1..20))
            .map(|_| xy_in(g, -5e3..5e3))
            .collect();
        let bb = BBox::of_points(xs.iter().copied()).unwrap();
        for p in &xs {
            assert!(bb.contains(*p));
        }
        let grown = bb.union(&BBox::new(Xy::new(0.0, 0.0), Xy::new(1.0, 1.0)));
        assert!(grown.contains_bbox(&bb));
    });
}

/// The speed ellipse always contains the chord between its foci.
#[test]
fn ellipse_contains_chord() {
    for_each_case(CASES, |g| {
        let (f1, f2) = (xy_in(g, -1e3..1e3), xy_in(g, -1e3..1e3));
        let (speed, dt, t) = (
            g.f64_in(1.0..40.0),
            g.f64_in(0.0..600.0),
            g.f64_in(0.0..1.0),
        );
        let e = Ellipse::speed_constraint(f1, f2, speed, dt);
        assert!(e.contains(f1.lerp(&f2, t)));
    });
}
