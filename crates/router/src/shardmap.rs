//! The static shard map: which backend owns which routing cell.
//!
//! Ownership is assigned by rendezvous (highest-random-weight) hashing:
//! every `(cell, shard)` pair gets a pseudo-random weight from hashing the
//! shard's id with the cell bits, and the shards sorted by descending
//! weight form the cell's candidate list — the first is the primary, the
//! rest are replicas in deterministic failover order. Rendezvous hashing
//! needs no coordination, gives every router the same answer from the
//! same map, and moves only `1/n` of the cells when a shard is added or
//! removed from the map.
//!
//! The map is loaded from a JSON file (see [`ShardMap::from_json_str`])
//! or built from a `--shard host:port,...` flag list, where each shard's
//! id defaults to its address string (stable under list reordering).

use kamel::checkpoint::fnv1a64;
use kamel::routing::{routing_cell, DEFAULT_ROUTING_CELL_DEG};
use kamel_geo::LatLng;
use kamel_hexgrid::CellId;
use kamel_rng::splitmix64;
use serde::Deserialize;
use std::net::SocketAddr;

/// One backend in the fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardInfo {
    /// Stable identifier — the rendezvous hash input. Renaming a shard
    /// reshuffles its cells; changing only its address does not.
    pub id: String,
    /// Where the shard listens.
    pub addr: SocketAddr,
}

/// The fleet map: shards, the routing-cell resolution, and (optionally)
/// the config digest every shard must report on `/v1/info` to be
/// admitted.
#[derive(Debug, Clone)]
pub struct ShardMap {
    shards: Vec<ShardInfo>,
    cell_deg: f64,
    expected_digest: Option<String>,
}

/// The JSON shard-map file.
#[derive(Deserialize)]
struct ShardMapFile {
    #[serde(default)]
    cell_deg: Option<f64>,
    #[serde(default)]
    config_digest: Option<String>,
    shards: Vec<ShardEntry>,
}

#[derive(Deserialize)]
struct ShardEntry {
    #[serde(default)]
    id: Option<String>,
    addr: String,
}

impl ShardMap {
    /// Builds and validates a map. Errors on an empty fleet, duplicate
    /// ids or addresses, or a non-positive cell size.
    pub fn new(shards: Vec<ShardInfo>, cell_deg: f64) -> Result<Self, String> {
        if shards.is_empty() {
            return Err("shard map has no shards".into());
        }
        if !(cell_deg.is_finite() && cell_deg > 0.0) {
            return Err(format!("routing cell size must be positive, got {cell_deg}"));
        }
        for (i, shard) in shards.iter().enumerate() {
            if shard.id.is_empty() {
                return Err(format!("shard {i} has an empty id"));
            }
            for other in &shards[..i] {
                if other.id == shard.id {
                    return Err(format!("duplicate shard id `{}`", shard.id));
                }
                if other.addr == shard.addr {
                    return Err(format!("duplicate shard address `{}`", shard.addr));
                }
            }
        }
        Ok(Self {
            shards,
            cell_deg,
            expected_digest: None,
        })
    }

    /// A map from a `--shard host:port,host:port,...` flag; each shard's
    /// id is its address string.
    pub fn from_flag_list(list: &str, cell_deg: f64) -> Result<Self, String> {
        let shards = list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| {
                Ok(ShardInfo {
                    id: s.to_string(),
                    addr: s.parse().map_err(|e| format!("bad shard address `{s}`: {e}"))?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Self::new(shards, cell_deg)
    }

    /// A map from the JSON file format:
    ///
    /// ```json
    /// {
    ///   "cell_deg": 0.01,
    ///   "config_digest": "fnv1a64:0123456789abcdef",
    ///   "shards": [
    ///     { "id": "porto-west", "addr": "127.0.0.1:8788" },
    ///     { "addr": "127.0.0.1:8789" }
    ///   ]
    /// }
    /// ```
    ///
    /// `cell_deg` defaults to [`DEFAULT_ROUTING_CELL_DEG`], a shard's
    /// `id` to its address, and `config_digest` (when present) pins the
    /// `/v1/info` digest shards must report to be admitted.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let file: ShardMapFile =
            serde_json::from_str(text).map_err(|e| format!("invalid shard map JSON: {e}"))?;
        let shards = file
            .shards
            .into_iter()
            .map(|e| {
                Ok(ShardInfo {
                    id: e.id.unwrap_or_else(|| e.addr.clone()),
                    addr: e
                        .addr
                        .parse()
                        .map_err(|err| format!("bad shard address `{}`: {err}", e.addr))?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mut map = Self::new(shards, file.cell_deg.unwrap_or(DEFAULT_ROUTING_CELL_DEG))?;
        map.expected_digest = file.config_digest;
        Ok(map)
    }

    /// Loads [`ShardMap::from_json_str`] from a file.
    pub fn from_json_file(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read shard map {}: {e}", path.display()))?;
        Self::from_json_str(&text)
    }

    /// The fleet, in map order (health state is indexed the same way).
    pub fn shards(&self) -> &[ShardInfo] {
        &self.shards
    }

    /// Fleet size.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when the map holds no shards (never, post-validation).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The routing-cell edge in degrees.
    pub fn cell_deg(&self) -> f64 {
        self.cell_deg
    }

    /// The pinned admission digest, if the map carries one.
    pub fn expected_digest(&self) -> Option<&str> {
        self.expected_digest.as_deref()
    }

    /// The routing cell owning `pos` at this map's resolution.
    pub fn cell_of(&self, pos: LatLng) -> CellId {
        routing_cell(pos, self.cell_deg)
    }

    /// The cell's candidate shards by descending rendezvous weight:
    /// `order[0]` is the primary, the rest the deterministic failover
    /// chain. Ties (astronomically unlikely) break by id so the order
    /// never depends on map file ordering.
    pub fn owner_order(&self, cell: CellId) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.shards.len()).collect();
        order.sort_by(|&a, &b| {
            let (wa, wb) = (self.weight(a, cell), self.weight(b, cell));
            wb.cmp(&wa).then_with(|| self.shards[a].id.cmp(&self.shards[b].id))
        });
        order
    }

    /// The rendezvous weight of `(shard, cell)`.
    fn weight(&self, shard: usize, cell: CellId) -> u64 {
        splitmix64(fnv1a64(self.shards[shard].id.as_bytes()) ^ cell.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(ids: &[&str]) -> ShardMap {
        let shards = ids
            .iter()
            .enumerate()
            .map(|(i, id)| ShardInfo {
                id: id.to_string(),
                addr: format!("127.0.0.1:{}", 9000 + i).parse().unwrap(),
            })
            .collect();
        ShardMap::new(shards, 0.01).unwrap()
    }

    #[test]
    fn owner_order_is_deterministic_and_total() {
        let m = map(&["a", "b", "c"]);
        for q in -5..5 {
            for r in -5..5 {
                let cell = CellId::from_coords(q, r);
                let order = m.owner_order(cell);
                assert_eq!(order, m.owner_order(cell), "same map, same order");
                let mut sorted = order.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, vec![0, 1, 2], "a permutation of the fleet");
            }
        }
    }

    #[test]
    fn ownership_is_pinned() {
        // Every router of a fleet must agree on these, across versions: a
        // change to the weight hash moves cells between live shards.
        let m = map(&["a", "b", "c"]);
        let orders: Vec<Vec<usize>> = (-3..3)
            .map(|q| m.owner_order(CellId::from_coords(q, 7 * q + 3)))
            .collect();
        assert_eq!(
            orders,
            [[0, 1, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0], [2, 0, 1], [0, 1, 2]]
        );
    }

    #[test]
    fn ownership_ignores_map_file_ordering() {
        let fwd = map(&["a", "b", "c"]);
        let rev = map(&["c", "b", "a"]);
        for q in -10..10 {
            let cell = CellId::from_coords(q, 7 * q + 3);
            let by_id = |m: &ShardMap, cell| -> Vec<String> {
                m.owner_order(cell)
                    .into_iter()
                    .map(|i| m.shards()[i].id.clone())
                    .collect()
            };
            assert_eq!(by_id(&fwd, cell), by_id(&rev, cell));
        }
    }

    #[test]
    fn every_shard_owns_a_fair_share_of_cells() {
        let m = map(&["a", "b", "c", "d"]);
        let mut owned = [0usize; 4];
        for q in 0..40 {
            for r in 0..40 {
                owned[m.owner_order(CellId::from_coords(q, r))[0]] += 1;
            }
        }
        for (i, n) in owned.iter().enumerate() {
            // 1600 cells over 4 shards ≈ 400 each; allow a wide band.
            assert!(
                (200..=600).contains(n),
                "shard {i} owns {n} of 1600 cells — rendezvous is skewed: {owned:?}"
            );
        }
    }

    #[test]
    fn removing_a_shard_only_reassigns_its_own_cells() {
        let full = map(&["a", "b", "c"]);
        let reduced = map(&["a", "b"]);
        for q in 0..30 {
            for r in 0..30 {
                let cell = CellId::from_coords(q, r);
                let before = &full.shards()[full.owner_order(cell)[0]].id;
                let after = &reduced.shards()[reduced.owner_order(cell)[0]].id;
                if before != "c" {
                    assert_eq!(before, after, "cell {cell} moved needlessly");
                }
            }
        }
    }

    #[test]
    fn flag_list_parses_and_validates() {
        let m = ShardMap::from_flag_list("127.0.0.1:8788, 127.0.0.1:8789", 0.01).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.shards()[0].id, "127.0.0.1:8788");
        assert!(ShardMap::from_flag_list("", 0.01).is_err(), "empty fleet");
        assert!(ShardMap::from_flag_list("nonsense", 0.01).is_err());
        assert!(
            ShardMap::from_flag_list("127.0.0.1:1,127.0.0.1:1", 0.01).is_err(),
            "duplicate address"
        );
        assert!(ShardMap::from_flag_list("127.0.0.1:1", 0.0).is_err(), "bad cell size");
    }

    #[test]
    fn json_map_roundtrips_with_defaults() {
        let m = ShardMap::from_json_str(
            r#"{
                "config_digest": "fnv1a64:00000000deadbeef",
                "shards": [
                    { "id": "west", "addr": "127.0.0.1:8788" },
                    { "addr": "127.0.0.1:8789" }
                ]
            }"#,
        )
        .unwrap();
        assert_eq!(m.cell_deg(), DEFAULT_ROUTING_CELL_DEG);
        assert_eq!(m.expected_digest(), Some("fnv1a64:00000000deadbeef"));
        assert_eq!(m.shards()[0].id, "west");
        assert_eq!(m.shards()[1].id, "127.0.0.1:8789", "id defaults to the address");
        assert!(ShardMap::from_json_str("{").is_err());
        assert!(ShardMap::from_json_str(r#"{"shards": []}"#).is_err());
    }
}
