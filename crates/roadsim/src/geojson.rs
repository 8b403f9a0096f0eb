//! GeoJSON export for visual inspection.
//!
//! Road networks and trajectories serialize to standard GeoJSON
//! `FeatureCollection`s (RFC 7946: coordinates are `[lng, lat]`), viewable
//! in QGIS, geojson.io, or Kepler — the practical way to eyeball a
//! simulated city or an imputation result.

use crate::network::RoadNetwork;
use kamel_geo::{LocalProjection, Trajectory};
use serde_json::{json, Value};

/// Renders a road network as a GeoJSON `FeatureCollection` of `LineString`
/// features (one per edge), using `proj` to convert planar nodes back to
/// geodetic coordinates.
pub fn network_to_geojson(network: &RoadNetwork, proj: &LocalProjection) -> Value {
    let features: Vec<Value> = network
        .edges()
        .map(|(a, b)| {
            let pa = proj.to_latlng(network.node(a));
            let pb = proj.to_latlng(network.node(b));
            json!({
                "type": "Feature",
                "properties": { "from": a, "to": b },
                "geometry": {
                    "type": "LineString",
                    "coordinates": [[pa.lng, pa.lat], [pb.lng, pb.lat]],
                }
            })
        })
        .collect();
    json!({ "type": "FeatureCollection", "features": features })
}

/// Renders trajectories as a GeoJSON `FeatureCollection` of `LineString`
/// features with start/end timestamps in the properties. Single-fix
/// trajectories become `Point` features.
pub fn trajectories_to_geojson(trajectories: &[Trajectory]) -> Value {
    let features: Vec<Value> = trajectories
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_empty())
        .map(|(id, t)| {
            let coords: Vec<Value> =
                t.points.iter().map(|p| json!([p.pos.lng, p.pos.lat])).collect();
            let geometry = if coords.len() == 1 {
                json!({ "type": "Point", "coordinates": coords[0] })
            } else {
                json!({ "type": "LineString", "coordinates": coords })
            };
            json!({
                "type": "Feature",
                "properties": {
                    "traj_id": id,
                    "points": t.len(),
                    "t_start": t.points[0].t,
                    "t_end": t.points[t.len() - 1].t,
                },
                "geometry": geometry,
            })
        })
        .collect();
    json!({ "type": "FeatureCollection", "features": features })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::citygen::{generate_city, CityConfig};
    use kamel_geo::{GpsPoint, LatLng};
    use serde::de::DeserializeOwned;
    use std::collections::HashMap;

    /// A GeoJSON object as its members; each is decoded to the type the
    /// assertion needs (`type` is a keyword, so no struct field can name it).
    type Object = HashMap<String, Value>;

    fn member<T: DeserializeOwned>(object: &Object, key: &str) -> T {
        serde_json::from_value(object[key].clone())
            .unwrap_or_else(|e| panic!("member `{key}`: {e}"))
    }

    #[test]
    fn network_geojson_structure() {
        let net = generate_city(&CityConfig {
            cols: 4,
            rows: 4,
            roundabouts: 0,
            ring_road: false,
            overpass: false,
            diagonals: 0,
            ..CityConfig::default()
        });
        let proj = LocalProjection::new(LatLng::new(41.15, -8.61));
        let doc: Object = serde_json::from_value(network_to_geojson(&net, &proj)).unwrap();
        assert_eq!(member::<String>(&doc, "type"), "FeatureCollection");
        let features: Vec<Object> = member(&doc, "features");
        assert_eq!(features.len(), net.edge_count());
        let geom: Object = member(&features[0], "geometry");
        assert_eq!(member::<String>(&geom, "type"), "LineString");
        // RFC 7946 coordinate order: [lng, lat].
        let coordinates: Vec<(f64, f64)> = member(&geom, "coordinates");
        let (lng, lat) = coordinates[0];
        assert!((-9.0..-8.0).contains(&lng), "lng {lng}");
        assert!((41.0..42.0).contains(&lat), "lat {lat}");
    }

    #[test]
    fn trajectory_geojson_structure() {
        let trajs = vec![
            Trajectory::new(vec![
                GpsPoint::from_parts(41.15, -8.61, 0.0),
                GpsPoint::from_parts(41.16, -8.60, 60.0),
            ]),
            Trajectory::new(vec![GpsPoint::from_parts(41.2, -8.5, 5.0)]),
            Trajectory::default(), // dropped
        ];
        let doc: Object = serde_json::from_value(trajectories_to_geojson(&trajs)).unwrap();
        let features: Vec<Object> = member(&doc, "features");
        assert_eq!(features.len(), 2);
        let geometry_type = |f: &Object| member::<String>(&member::<Object>(f, "geometry"), "type");
        assert_eq!(geometry_type(&features[0]), "LineString");
        let properties: Object = member(&features[0], "properties");
        assert_eq!(member::<u64>(&properties, "points"), 2);
        assert_eq!(member::<f64>(&properties, "t_end"), 60.0);
        assert_eq!(geometry_type(&features[1]), "Point");
    }
}
