//! Seeded property tests for the tessellations. Reproduces the default
//! `ProptestConfig` (256 cases): points in ±50 000 m, edges 10..500 m, cells in
//! ±1000 (roundtrip), ±200 (metric, rings), ±300 (lines), radii 0..6 / 0..8.

use kamel_geo::Xy;
use kamel_hexgrid::{CellId, HexGrid, SquareGrid, Tessellation};

include!("../../../tests/common/cases.rs");

const CASES: u64 = 256;

/// A cell with both coordinates in `-bound..bound`.
fn cell_within(g: &mut Gen, bound: i32) -> CellId {
    CellId::from_coords(g.i32_in(-bound..bound), g.i32_in(-bound..bound))
}

fn point(g: &mut Gen) -> Xy {
    Xy::new(g.f64_in(-50_000.0..50_000.0), g.f64_in(-50_000.0..50_000.0))
}

/// A point always lies within the circumradius of its cell centroid.
#[test]
fn hex_point_within_circumradius() {
    for_each_case(CASES, |g| {
        let (p, edge) = (point(g), g.f64_in(10.0..500.0));
        let grid = HexGrid::new(edge);
        let c = grid.cell_of(p);
        assert!(grid.centroid(c).dist(&p) <= edge + 1e-6);
    });
}

/// Cell assignment is stable: the centroid maps back to the same cell.
#[test]
fn hex_centroid_roundtrip() {
    for_each_case(CASES, |g| {
        let c = cell_within(g, 1000);
        let grid = HexGrid::new(g.f64_in(10.0..500.0));
        assert_eq!(grid.cell_of(grid.centroid(c)), c);
    });
}

/// Hex distance is a metric: symmetric and triangle inequality holds.
#[test]
fn hex_distance_is_metric() {
    for_each_case(CASES, |g| {
        let grid = HexGrid::new(75.0);
        let (ca, cb, cc) = (
            cell_within(g, 200),
            cell_within(g, 200),
            cell_within(g, 200),
        );
        assert_eq!(grid.grid_distance(ca, cb), grid.grid_distance(cb, ca));
        assert!(
            grid.grid_distance(ca, cc) <= grid.grid_distance(ca, cb) + grid.grid_distance(cb, cc)
        );
        assert_eq!(grid.grid_distance(ca, ca), 0);
    });
}

/// Lines between any two cells are connected chains of neighbors with the
/// right endpoints.
#[test]
fn hex_line_connected() {
    for_each_case(CASES, |g| {
        let grid = HexGrid::new(75.0);
        let (ca, cb) = (cell_within(g, 300), cell_within(g, 300));
        let line = grid.line(ca, cb);
        assert_eq!(line[0], ca);
        assert_eq!(*line.last().unwrap(), cb);
        for w in line.windows(2) {
            assert_eq!(grid.grid_distance(w[0], w[1]), 1);
        }
    });
}

/// Square grid: same contract.
#[test]
fn square_point_within_circumradius() {
    for_each_case(CASES, |g| {
        let (p, edge) = (point(g), g.f64_in(10.0..500.0));
        let grid = SquareGrid::new(edge);
        let c = grid.cell_of(p);
        assert!(grid.centroid(c).dist(&p) <= grid.neighbor_spacing_m() / 2.0 * 1.0001 + 1e-6);
    });
}

#[test]
fn square_line_connected() {
    for_each_case(CASES, |g| {
        let grid = SquareGrid::new(120.0);
        let (ca, cb) = (cell_within(g, 300), cell_within(g, 300));
        let line = grid.line(ca, cb);
        assert_eq!(line[0], ca);
        assert_eq!(*line.last().unwrap(), cb);
        assert_eq!(line.len() as u32, grid.grid_distance(ca, cb) + 1);
        for w in line.windows(2) {
            assert_eq!(grid.grid_distance(w[0], w[1]), 1);
        }
    });
}

/// Rings tile disks exactly, for both tessellations.
#[test]
fn rings_tile_the_disk() {
    for_each_case(CASES, |g| {
        let c = cell_within(g, 200);
        let radius = g.usize_in(0..6) as u32;
        for grid in [
            &HexGrid::new(75.0) as &dyn Tessellation,
            &SquareGrid::new(120.0),
        ] {
            let mut from_rings: Vec<CellId> = (0..=radius).flat_map(|k| grid.ring(c, k)).collect();
            from_rings.sort();
            from_rings.dedup();
            let mut disk = grid.disk(c, radius);
            disk.sort();
            assert_eq!(from_rings, disk, "{} radius {}", grid.kind(), radius);
        }
    });
}

/// Disks contain exactly the cells within the radius.
#[test]
fn hex_disk_membership() {
    for_each_case(CASES, |g| {
        let radius = g.usize_in(0..8) as u32;
        let grid = HexGrid::new(75.0);
        let c = CellId::from_coords(0, 0);
        let disk = grid.disk(c, radius);
        assert_eq!(disk.len() as u32, 3 * radius * (radius + 1) + 1);
        for m in disk {
            assert!(grid.grid_distance(c, m) <= radius);
        }
    });
}
