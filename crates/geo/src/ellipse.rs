//! The speed-constraint ellipse of the Spatial Constraints module (§5.1).
//!
//! Between two segment end tokens S and D, a physically reachable imputed
//! point p must satisfy `|pS| + |pD| <= v_max * (t_D - t_S)` — an ellipse
//! whose foci are the centers of S and D.

use crate::point::Xy;
use serde::{Deserialize, Serialize};

/// An ellipse defined by two foci and the maximum total distance to them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Ellipse {
    /// First focus (the gap's source token center).
    pub f1: Xy,
    /// Second focus (the gap's destination token center).
    pub f2: Xy,
    /// Maximum of `dist(p, f1) + dist(p, f2)` for contained points (2a).
    pub max_total_dist: f64,
}

impl Ellipse {
    /// Builds the speed-constraint ellipse for a gap.
    ///
    /// `max_speed_mps` is the maximum plausible travel speed and `dt_s` the
    /// timestamp difference between the endpoints. A negative or zero `dt_s`
    /// (noisy data) yields a degenerate ellipse that contains only points on
    /// the straight segment between the foci.
    pub fn speed_constraint(f1: Xy, f2: Xy, max_speed_mps: f64, dt_s: f64) -> Self {
        let focal_dist = f1.dist(&f2);
        // The ellipse is empty (degenerate) if the budget cannot even cover
        // the straight line; clamp so the direct path always qualifies.
        let budget = (max_speed_mps * dt_s.max(0.0)).max(focal_dist);
        Self {
            f1,
            f2,
            max_total_dist: budget,
        }
    }

    /// Distance between the two foci (2c).
    #[inline]
    pub fn focal_distance(&self) -> f64 {
        self.f1.dist(&self.f2)
    }

    /// True when `p` lies inside or on the ellipse.
    #[inline]
    pub fn contains(&self, p: Xy) -> bool {
        p.dist(&self.f1) + p.dist(&self.f2) <= self.max_total_dist + 1e-9
    }

    /// Expands the reachable budget by a multiplicative slack factor, keeping
    /// the invariant that the straight path stays contained.
    pub fn with_slack(&self, factor: f64) -> Self {
        Self {
            max_total_dist: (self.max_total_dist * factor).max(self.focal_distance()),
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn foci_and_midpoint_always_contained() {
        let e = Ellipse::speed_constraint(Xy::new(0.0, 0.0), Xy::new(100.0, 0.0), 10.0, 20.0);
        assert!(e.contains(e.f1));
        assert!(e.contains(e.f2));
        assert!(e.contains(Xy::new(50.0, 0.0)));
    }

    #[test]
    fn rejects_points_beyond_budget() {
        // 200 m budget between foci 100 m apart: a point 100 m off the axis at
        // the midpoint has total distance 2*sqrt(50^2+100^2) ≈ 223.6 > 200.
        let e = Ellipse::speed_constraint(Xy::new(0.0, 0.0), Xy::new(100.0, 0.0), 10.0, 20.0);
        assert!(!e.contains(Xy::new(50.0, 100.0)));
        // But 40 m off-axis is fine: 2*sqrt(50^2+40^2) ≈ 128 < 200.
        assert!(e.contains(Xy::new(50.0, 40.0)));
    }

    #[test]
    fn degenerate_time_still_contains_straight_path() {
        let e = Ellipse::speed_constraint(Xy::new(0.0, 0.0), Xy::new(100.0, 0.0), 10.0, 0.0);
        assert!(e.contains(Xy::new(25.0, 0.0)));
        assert!(!e.contains(Xy::new(25.0, 5.0)));
    }

    #[test]
    fn negative_dt_treated_as_zero() {
        let e = Ellipse::speed_constraint(Xy::new(0.0, 0.0), Xy::new(100.0, 0.0), 10.0, -5.0);
        assert_eq!(e.max_total_dist, 100.0);
    }

    #[test]
    fn slack_grows_budget() {
        let e = Ellipse::speed_constraint(Xy::new(0.0, 0.0), Xy::new(100.0, 0.0), 10.0, 20.0);
        let s = e.with_slack(1.5);
        assert!((s.max_total_dist - 300.0).abs() < 1e-9);
        assert!(s.contains(Xy::new(50.0, 100.0)));
    }

    #[test]
    fn coincident_foci_make_a_circle() {
        let c = Xy::new(10.0, 10.0);
        let e = Ellipse::speed_constraint(c, c, 5.0, 10.0); // radius 25
        assert!(e.contains(Xy::new(10.0, 34.9)));
        assert!(!e.contains(Xy::new(10.0, 35.1)));
    }
}
