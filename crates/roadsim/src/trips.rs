//! Trip generation: shortest-path routes driven with noisy speed and GPS
//! sampling.
//!
//! Each trip picks a far-apart origin/destination pair, routes over the
//! hidden network, then simulates a vehicle driving the route: speed follows
//! a mean-reverting random walk, fixes are emitted at a fixed GPS period,
//! and every fix gets isotropic Gaussian position noise — the ingredients
//! that make the trajectories "GPS-like" rather than polyline samples.

use crate::network::RoadNetwork;
use kamel_geo::{GpsPoint, LocalProjection, Trajectory, Xy};
use kamel_rng::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of trip simulation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TripConfig {
    /// Number of trajectories to generate.
    pub n_trips: usize,
    /// GPS sampling period in seconds (Porto-like ≈ 10–15 s, Jakarta-like
    /// ≈ 1 s).
    pub sample_period_s: f64,
    /// Mean driving speed in m/s.
    pub speed_mps: f64,
    /// Standard deviation of the per-sample speed perturbation (fraction of
    /// the mean speed).
    pub speed_jitter: f64,
    /// Standard deviation of GPS position noise in meters.
    pub gps_noise_m: f64,
    /// Minimum straight-line origin→destination distance in meters.
    pub min_trip_dist_m: f64,
    /// Number of origin/destination hotspots. 0 draws trips uniformly;
    /// otherwise each trip endpoint is sampled near one of this many
    /// randomly-placed attraction nodes (real fleets cluster around
    /// stations, malls, and business districts, which skews per-street
    /// coverage — the regime the paper's Jakarta analysis lives in).
    pub hotspots: usize,
    /// RNG seed; generation is deterministic.
    pub seed: u64,
}

impl Default for TripConfig {
    fn default() -> Self {
        Self {
            n_trips: 100,
            sample_period_s: 10.0,
            speed_mps: 10.0,
            speed_jitter: 0.25,
            gps_noise_m: 4.0,
            min_trip_dist_m: 1_500.0,
            hotspots: 0,
            seed: 0x7219,
        }
    }
}

/// Generates `cfg.n_trips` trajectories over `net`, projecting fixes to
/// geodetic coordinates with `proj`.
pub fn generate_trips(
    net: &RoadNetwork,
    cfg: &TripConfig,
    proj: &LocalProjection,
) -> Vec<Trajectory> {
    assert!(cfg.sample_period_s > 0.0 && cfg.speed_mps > 0.0);
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut out = Vec::with_capacity(cfg.n_trips);
    let n_nodes = net.node_count();
    if n_nodes < 2 {
        return out;
    }
    // Hotspot endpoints: pick attraction nodes once, then sample trip
    // endpoints from a small neighborhood around a random hotspot.
    let hotspot_nodes: Vec<usize> = (0..cfg.hotspots).map(|_| rng.range(0..n_nodes)).collect();
    let endpoint = |rng: &mut Rng| -> usize {
        if hotspot_nodes.is_empty() || rng.bool(0.2) {
            // 20% background traffic keeps the rest of the city observed.
            return rng.range(0..n_nodes);
        }
        let hub = hotspot_nodes[rng.range(0..hotspot_nodes.len())];
        // A short random walk from the hub spreads endpoints over its
        // neighborhood.
        let mut node = hub;
        for _ in 0..rng.range(0..4) {
            let neighbors = net.neighbors(node);
            if neighbors.is_empty() {
                break;
            }
            node = neighbors[rng.range(0..neighbors.len())].to;
        }
        node
    };
    let mut attempts = 0usize;
    let max_attempts = cfg.n_trips * 50;
    while out.len() < cfg.n_trips && attempts < max_attempts {
        attempts += 1;
        let src = endpoint(&mut rng);
        let dst = endpoint(&mut rng);
        if net.node(src).dist(&net.node(dst)) < cfg.min_trip_dist_m {
            continue;
        }
        let Some(path) = net.shortest_path(src, dst) else {
            continue;
        };
        if path.len() < 2 {
            continue;
        }
        let polyline: Vec<Xy> = path.iter().map(|&i| net.node(i)).collect();
        let traj = drive(&polyline, cfg, proj, &mut rng);
        if traj.len() >= 3 {
            out.push(traj);
        }
    }
    out
}

/// Simulates driving one polyline, emitting noisy GPS fixes.
fn drive(
    polyline: &[Xy],
    cfg: &TripConfig,
    proj: &LocalProjection,
    rng: &mut Rng,
) -> Trajectory {
    let total_len = kamel_geo::polyline_length(polyline);
    let mut points = Vec::with_capacity((total_len / (cfg.speed_mps * cfg.sample_period_s)) as usize + 2);
    let mut travelled = 0.0f64;
    let mut t = 0.0f64;
    let mut speed = cfg.speed_mps;
    loop {
        let pos = point_at(polyline, travelled);
        let noisy = Xy::new(
            pos.x + gaussian(rng) * cfg.gps_noise_m,
            pos.y + gaussian(rng) * cfg.gps_noise_m,
        );
        points.push(GpsPoint::new(proj.to_latlng(noisy), t));
        if travelled >= total_len {
            break;
        }
        // Mean-reverting speed walk, clamped to a plausible band.
        let drift = 0.5 * (cfg.speed_mps - speed);
        speed = (speed + drift + gaussian(rng) * cfg.speed_jitter * cfg.speed_mps)
            .clamp(0.3 * cfg.speed_mps, 1.8 * cfg.speed_mps);
        travelled = (travelled + speed * cfg.sample_period_s).min(total_len);
        t += cfg.sample_period_s;
    }
    Trajectory::new(points)
}

/// Position at arc-length `d` along the polyline (clamped to the ends).
fn point_at(polyline: &[Xy], d: f64) -> Xy {
    if d <= 0.0 {
        return polyline[0];
    }
    let mut remaining = d;
    for w in polyline.windows(2) {
        let seg = w[0].dist(&w[1]);
        if remaining <= seg {
            if seg == 0.0 {
                return w[0];
            }
            return w[0].lerp(&w[1], remaining / seg);
        }
        remaining -= seg;
    }
    *polyline.last().expect("non-empty polyline")
}

/// Standard normal sample via Box–Muller.
fn gaussian(rng: &mut Rng) -> f64 {
    let u1: f64 = rng.range(f64::EPSILON..1.0);
    let u2 = rng.f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::citygen::{generate_city, CityConfig};
    use kamel_geo::LatLng;

    fn small_city() -> (RoadNetwork, LocalProjection) {
        let net = generate_city(&CityConfig {
            cols: 10,
            rows: 10,
            roundabouts: 2,
            ..CityConfig::default()
        });
        (net, LocalProjection::new(LatLng::new(41.15, -8.61)))
    }

    #[test]
    fn trips_are_generated_with_requested_count() {
        let (net, proj) = small_city();
        let cfg = TripConfig {
            n_trips: 20,
            min_trip_dist_m: 500.0,
            ..TripConfig::default()
        };
        let trips = generate_trips(&net, &cfg, &proj);
        assert_eq!(trips.len(), 20);
    }

    #[test]
    fn timestamps_are_monotone_and_evenly_spaced() {
        let (net, proj) = small_city();
        let cfg = TripConfig {
            n_trips: 5,
            sample_period_s: 10.0,
            min_trip_dist_m: 500.0,
            ..TripConfig::default()
        };
        for traj in generate_trips(&net, &cfg, &proj) {
            for w in traj.points.windows(2) {
                let dt = w[1].t - w[0].t;
                assert!((dt - 10.0).abs() < 1e-9, "dt {dt}");
            }
        }
    }

    #[test]
    fn trajectories_stay_near_the_network() {
        let (net, proj) = small_city();
        let cfg = TripConfig {
            n_trips: 10,
            gps_noise_m: 3.0,
            min_trip_dist_m: 500.0,
            ..TripConfig::default()
        };
        for traj in generate_trips(&net, &cfg, &proj) {
            for p in &traj.points {
                let xy = proj.to_xy(p.pos);
                let nearest = net.nearest_node(xy).unwrap();
                // Within a block of some node: fixes can sit mid-edge, so
                // allow roughly one block length.
                assert!(
                    net.node(nearest).dist(&xy) < 200.0,
                    "fix {xy:?} far from the network"
                );
            }
        }
    }

    #[test]
    fn speeds_are_plausible() {
        let (net, proj) = small_city();
        let cfg = TripConfig {
            n_trips: 10,
            speed_mps: 10.0,
            min_trip_dist_m: 800.0,
            ..TripConfig::default()
        };
        for traj in generate_trips(&net, &cfg, &proj) {
            let v = traj.mean_speed_mps().unwrap();
            assert!((3.0..20.0).contains(&v), "mean speed {v}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let (net, proj) = small_city();
        let cfg = TripConfig {
            n_trips: 5,
            min_trip_dist_m: 500.0,
            ..TripConfig::default()
        };
        let a = generate_trips(&net, &cfg, &proj);
        let b = generate_trips(&net, &cfg, &proj);
        assert_eq!(a, b);
    }

    #[test]
    fn hotspots_concentrate_endpoints() {
        let (net, proj) = small_city();
        let uniform = generate_trips(
            &net,
            &TripConfig {
                n_trips: 60,
                min_trip_dist_m: 400.0,
                ..TripConfig::default()
            },
            &proj,
        );
        let clustered = generate_trips(
            &net,
            &TripConfig {
                n_trips: 60,
                min_trip_dist_m: 400.0,
                hotspots: 2,
                ..TripConfig::default()
            },
            &proj,
        );
        // Dispersion of trip origins: mean pairwise distance drops when
        // endpoints cluster around two hubs.
        let dispersion = |trips: &[kamel_geo::Trajectory]| {
            let origins: Vec<_> = trips
                .iter()
                .map(|t| proj.to_xy(t.points[0].pos))
                .collect();
            let mut sum = 0.0;
            let mut n = 0u32;
            for i in 0..origins.len() {
                for j in i + 1..origins.len() {
                    sum += origins[i].dist(&origins[j]);
                    n += 1;
                }
            }
            sum / n as f64
        };
        assert!(
            dispersion(&clustered) < dispersion(&uniform) * 0.95,
            "hotspots did not concentrate endpoints: {} vs {}",
            dispersion(&clustered),
            dispersion(&uniform)
        );
    }

    #[test]
    fn empty_network_yields_no_trips() {
        let proj = LocalProjection::new(LatLng::new(0.0, 0.0));
        let trips = generate_trips(&RoadNetwork::new(), &TripConfig::default(), &proj);
        assert!(trips.is_empty());
    }

    #[test]
    fn point_at_clamps_to_ends() {
        let line = [Xy::new(0.0, 0.0), Xy::new(10.0, 0.0)];
        assert_eq!(point_at(&line, -5.0), line[0]);
        assert_eq!(point_at(&line, 5.0), Xy::new(5.0, 0.0));
        assert_eq!(point_at(&line, 50.0), line[1]);
    }
}
