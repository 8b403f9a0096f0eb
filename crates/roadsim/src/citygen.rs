//! Synthetic city generator.
//!
//! Produces road networks with the motifs the paper's Figure 5 analyses:
//! right-angle turns (grid blocks), roundabouts, curved segments (a ring
//! road), and an overpass (a long edge crossing the grid without
//! intersecting it). Geometry is jittered so streets are not perfectly
//! axis-aligned, and a fraction of blocks is removed to create irregular
//! connectivity like a real city.

use crate::network::RoadNetwork;
use kamel_geo::Xy;
use kamel_rng::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of the synthetic city.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CityConfig {
    /// Grid columns (east-west intersections).
    pub cols: usize,
    /// Grid rows (north-south intersections).
    pub rows: usize,
    /// Block edge length in meters.
    pub spacing_m: f64,
    /// Uniform positional jitter applied to every intersection, in meters.
    pub jitter_m: f64,
    /// Probability of removing each grid street segment (creates irregular
    /// blocks; kept low so the city stays connected).
    pub street_removal_prob: f64,
    /// Number of diagonal avenues cutting across the grid.
    pub diagonals: usize,
    /// Number of intersections replaced by 6-node roundabouts.
    pub roundabouts: usize,
    /// Whether to add a curved ring road around the center.
    pub ring_road: bool,
    /// Whether to add an overpass (a long chord crossing several blocks
    /// without intersecting them).
    pub overpass: bool,
    /// RNG seed; generation is fully deterministic.
    pub seed: u64,
}

impl Default for CityConfig {
    fn default() -> Self {
        Self {
            cols: 20,
            rows: 20,
            spacing_m: 150.0,
            jitter_m: 12.0,
            street_removal_prob: 0.06,
            diagonals: 2,
            roundabouts: 6,
            ring_road: true,
            overpass: true,
            seed: 0xC17,
        }
    }
}

/// What occupies one grid intersection slot.
enum Slot {
    /// An ordinary intersection node.
    Single(usize),
    /// A roundabout: a cycle of ring nodes.
    Ring(Vec<usize>),
}

impl Slot {
    /// The ring/standalone node nearest to `p`.
    fn attach_node(&self, net: &RoadNetwork, p: Xy) -> usize {
        match self {
            Slot::Single(i) => *i,
            Slot::Ring(nodes) => *nodes
                .iter()
                .min_by(|&&a, &&b| {
                    net.node(a)
                        .dist_sq(&p)
                        .partial_cmp(&net.node(b).dist_sq(&p))
                        .expect("finite coordinates")
                })
                .expect("rings are non-empty"),
        }
    }

    fn center(&self, net: &RoadNetwork) -> Xy {
        match self {
            Slot::Single(i) => net.node(*i),
            Slot::Ring(nodes) => {
                let n = nodes.len() as f64;
                let (sx, sy) = nodes.iter().fold((0.0, 0.0), |(sx, sy), &i| {
                    let p = net.node(i);
                    (sx + p.x, sy + p.y)
                });
                Xy::new(sx / n, sy / n)
            }
        }
    }
}

/// Generates a deterministic synthetic city.
pub fn generate_city(cfg: &CityConfig) -> RoadNetwork {
    assert!(cfg.cols >= 3 && cfg.rows >= 3, "city must be at least 3x3");
    assert!(cfg.spacing_m > 0.0, "spacing must be positive");
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut net = RoadNetwork::new();

    // Choose roundabout slots away from the boundary.
    let mut roundabout_slots = std::collections::HashSet::new();
    let mut guard = 0;
    while roundabout_slots.len() < cfg.roundabouts && guard < cfg.roundabouts * 50 {
        let c = rng.range(1..cfg.cols - 1);
        let r = rng.range(1..cfg.rows - 1);
        roundabout_slots.insert((c, r));
        guard += 1;
    }

    // Lay down intersections (with jitter), as single nodes or roundabouts.
    let ring_radius = (cfg.spacing_m * 0.18).min(30.0);
    let mut slots: Vec<Vec<Slot>> = Vec::with_capacity(cfg.cols);
    for c in 0..cfg.cols {
        let mut col = Vec::with_capacity(cfg.rows);
        for r in 0..cfg.rows {
            let jx = rng.range(-cfg.jitter_m..=cfg.jitter_m);
            let jy = rng.range(-cfg.jitter_m..=cfg.jitter_m);
            let center = Xy::new(c as f64 * cfg.spacing_m + jx, r as f64 * cfg.spacing_m + jy);
            if roundabout_slots.contains(&(c, r)) {
                let mut ring = Vec::with_capacity(6);
                for k in 0..6 {
                    let a = k as f64 / 6.0 * std::f64::consts::TAU;
                    ring.push(net.add_node(Xy::new(
                        center.x + ring_radius * a.cos(),
                        center.y + ring_radius * a.sin(),
                    )));
                }
                for k in 0..6 {
                    net.add_edge(ring[k], ring[(k + 1) % 6]);
                }
                col.push(Slot::Ring(ring));
            } else {
                col.push(Slot::Single(net.add_node(center)));
            }
        }
        slots.push(col);
    }

    // Grid streets, with random removals. Boundary streets are never removed
    // so the city stays connected.
    for c in 0..cfg.cols {
        for r in 0..cfg.rows {
            if c + 1 < cfg.cols {
                let boundary = r == 0 || r == cfg.rows - 1;
                if boundary || rng.f64() >= cfg.street_removal_prob {
                    connect_slots(&mut net, &slots[c][r], &slots[c + 1][r]);
                }
            }
            if r + 1 < cfg.rows {
                let boundary = c == 0 || c == cfg.cols - 1;
                if boundary || rng.f64() >= cfg.street_removal_prob {
                    connect_slots(&mut net, &slots[c][r], &slots[c][r + 1]);
                }
            }
        }
    }

    // Diagonal avenues: walk the lattice diagonally from a random boundary
    // start, linking consecutive intersections.
    for d in 0..cfg.diagonals {
        let start_c = rng.range(0..cfg.cols / 2);
        let start_r = if d % 2 == 0 { 0 } else { cfg.rows - 1 };
        let dr: isize = if d % 2 == 0 { 1 } else { -1 };
        let (mut c, mut r) = (start_c as isize, start_r as isize);
        while c + 1 < cfg.cols as isize && r + dr >= 0 && r + dr < cfg.rows as isize {
            let next = (c + 1, r + dr);
            connect_slots_idx(&mut net, &slots, (c, r), next);
            c = next.0;
            r = next.1;
        }
    }

    // Curved ring road around the center: an arc of dedicated nodes,
    // attached to the grid at a handful of anchor intersections.
    if cfg.ring_road {
        let cx = (cfg.cols - 1) as f64 * cfg.spacing_m / 2.0;
        let cy = (cfg.rows - 1) as f64 * cfg.spacing_m / 2.0;
        let radius = cx.min(cy) * 0.8;
        let n_arc = ((std::f64::consts::TAU * radius) / (cfg.spacing_m * 0.5)).ceil() as usize;
        let mut arc_nodes = Vec::with_capacity(n_arc);
        for k in 0..n_arc {
            let a = k as f64 / n_arc as f64 * std::f64::consts::TAU;
            arc_nodes.push(net.add_node(Xy::new(cx + radius * a.cos(), cy + radius * a.sin())));
        }
        for k in 0..n_arc {
            net.add_edge(arc_nodes[k], arc_nodes[(k + 1) % n_arc]);
        }
        // Anchor the ring to the grid every quarter turn.
        for k in (0..n_arc).step_by((n_arc / 8).max(1)) {
            let p = net.node(arc_nodes[k]);
            let (bc, br) = nearest_slot(&net, &slots, p);
            let attach = slots[bc][br].attach_node(&net, p);
            net.add_edge(arc_nodes[k], attach);
        }
    }

    // Overpass: a long chord between two distant intersections that crosses
    // blocks without touching them (no intermediate connections).
    if cfg.overpass {
        let a = slots[cfg.cols / 4][cfg.rows / 3].attach_node(
            &net,
            slots[cfg.cols / 4][cfg.rows / 3].center(&net),
        );
        let b = slots[3 * cfg.cols / 4][2 * cfg.rows / 3].attach_node(
            &net,
            slots[3 * cfg.cols / 4][2 * cfg.rows / 3].center(&net),
        );
        net.add_edge(a, b);
    }

    net
}

fn connect_slots(net: &mut RoadNetwork, a: &Slot, b: &Slot) {
    let bc = b.center(net);
    let ac = a.center(net);
    let an = a.attach_node(net, bc);
    let bn = b.attach_node(net, ac);
    net.add_edge(an, bn);
}

fn connect_slots_idx(
    net: &mut RoadNetwork,
    slots: &[Vec<Slot>],
    a: (isize, isize),
    b: (isize, isize),
) {
    let sa = &slots[a.0 as usize][a.1 as usize];
    let sb = &slots[b.0 as usize][b.1 as usize];
    connect_slots(net, sa, sb);
}

fn nearest_slot(net: &RoadNetwork, slots: &[Vec<Slot>], p: Xy) -> (usize, usize) {
    let mut best = (0usize, 0usize);
    let mut best_d = f64::INFINITY;
    for (c, col) in slots.iter().enumerate() {
        for (r, slot) in col.iter().enumerate() {
            let d = slot.center(net).dist_sq(&p);
            if d < best_d {
                best_d = d;
                best = (c, r);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_city_is_generated_and_connected_enough() {
        let net = generate_city(&CityConfig::default());
        assert!(net.node_count() > 400, "nodes {}", net.node_count());
        assert!(net.edge_count() > net.node_count(), "too sparse");
        // Random far-apart locations must be routable (the boundary ring is
        // never removed, so the grid stays connected).
        let bb = net.bbox().unwrap();
        let a = net.nearest_node(bb.min).unwrap();
        let b = net.nearest_node(bb.max).unwrap();
        assert!(net.shortest_path(a, b).is_some());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_city(&CityConfig::default());
        let b = generate_city(&CityConfig::default());
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        for i in 0..a.node_count() {
            assert_eq!(a.node(i), b.node(i));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_city(&CityConfig::default());
        let b = generate_city(&CityConfig {
            seed: 999,
            ..CityConfig::default()
        });
        let same = (0..a.node_count().min(b.node_count()))
            .filter(|&i| a.node(i) == b.node(i))
            .count();
        assert!(same < a.node_count(), "jitter must depend on the seed");
    }

    #[test]
    fn roundabouts_add_ring_nodes() {
        let plain = generate_city(&CityConfig {
            roundabouts: 0,
            ring_road: false,
            overpass: false,
            diagonals: 0,
            street_removal_prob: 0.0,
            jitter_m: 0.0,
            ..CityConfig::default()
        });
        let with_r = generate_city(&CityConfig {
            roundabouts: 5,
            ring_road: false,
            overpass: false,
            diagonals: 0,
            street_removal_prob: 0.0,
            jitter_m: 0.0,
            ..CityConfig::default()
        });
        // Each roundabout replaces 1 node with 6.
        assert_eq!(with_r.node_count(), plain.node_count() + 5 * 5);
    }

    #[test]
    fn city_extent_matches_config() {
        let cfg = CityConfig {
            cols: 10,
            rows: 8,
            spacing_m: 100.0,
            jitter_m: 0.0,
            ring_road: false,
            overpass: false,
            roundabouts: 0,
            diagonals: 0,
            street_removal_prob: 0.0,
            seed: 1,
        };
        let net = generate_city(&cfg);
        let bb = net.bbox().unwrap();
        assert!((bb.width() - 900.0).abs() < 1e-9);
        assert!((bb.height() - 700.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "3x3")]
    fn rejects_tiny_grids() {
        let _ = generate_city(&CityConfig {
            cols: 2,
            rows: 2,
            ..CityConfig::default()
        });
    }
}
