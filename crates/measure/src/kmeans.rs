//! Geographic clustering of measurement runs.
//!
//! The paper groups nearby crowd-sourced runs "using a k-means
//! clustering algorithm, with a cluster radius of r = 100 kilometers;
//! i.e., all runs in each group are within 200 kilometers of each
//! other" (Table 1). We implement the radius-bounded variant: leader
//! initialization (a run starts a new cluster when no centroid lies
//! within the radius) followed by Lloyd refinement that respects the
//! radius bound.
//!
//! # Pruning, exactly
//!
//! Every point and every centroid is prepared once: its haversine
//! inputs (radians, `cos φ`) and its unit vector
//! `u = (cos φ cos λ, cos φ sin λ, sin φ)`. The chord `R·|u_a − u_b|`
//! is `2R·sin(θ/2)` for the central angle `θ`, and the haversine
//! distance is `2R·asin(sin(θ/2)) = R·θ`; since `sin x ≤ x`, the chord
//! never exceeds the distance. A centroid is measured exactly only when
//! its chord, less `MARGIN_KM`, does not exceed the distance a winner
//! has to beat (the best exact distance so far, or the radius in the
//! leader pass); a skipped centroid is one the exhaustive scan could
//! not have picked. This is the triangle-inequality pruning of Elkan's
//! k-means (ICML 2003), with a bound that is never loose in the wrong
//! direction.
//!
//! The margin covers the rounding in both computed values. Each
//! unit-vector component is within a few ulp of its true value (about
//! 1e-16 absolute), so the computed chord is within about 1e-11 km of
//! the true one. The computed haversine is within a few ulp of the
//! distance (about 1e-11 km at 20 000 km), except close to antipodal
//! points, where `asin`'s slope near 1 turns an ulp of `h` into about
//! 1.5e-8 rad, 1e-4 km. One metre is ten times the worst of these, and
//! a thousandth of the radius the clustering works at.
//!
//! The exact distance is [`crate::haversine_km`]'s own expression over
//! the prepared inputs, so every distance compared is the same `f64`
//! an unpruned scan computes, and ties resolve as `min_by` resolves
//! them: to the first centroid.

use crate::geo::{haversine_radians, GeoPoint, Radians, EARTH_RADIUS_KM};

/// How far below its exact distance a centroid's chord bound may be
/// pushed by rounding before pruning could be wrong, kilometres (see
/// the module docs for why a metre is far above it).
const MARGIN_KM: f64 = 1e-3;

/// One cluster of run indices.
#[derive(Debug, Clone)]
pub struct GeoCluster {
    /// Centroid (mean lat/lon of members).
    pub centroid: GeoPoint,
    /// Indices into the input slice.
    pub members: Vec<usize>,
}

impl GeoCluster {
    fn recompute_centroid(&mut self, points: &[GeoPoint]) {
        let n = self.members.len() as f64;
        if n == 0.0 {
            return;
        }
        let lat = self.members.iter().map(|&i| points[i].lat).sum::<f64>() / n;
        let lon = self.members.iter().map(|&i| points[i].lon).sum::<f64>() / n;
        self.centroid = GeoPoint { lat, lon };
    }
}

/// A point prepared for many distance queries: its haversine inputs
/// and its unit vector on the sphere.
#[derive(Debug, Clone, Copy)]
struct Site {
    rad: Radians,
    unit: [f64; 3],
}

impl Site {
    fn of(p: GeoPoint) -> Site {
        let rad = Radians::of(p);
        let (sin_lon, cos_lon) = rad.lon.sin_cos();
        Site {
            rad,
            unit: [rad.cos_lat * cos_lon, rad.cos_lat * sin_lon, rad.lat.sin()],
        }
    }

    /// Chord to `other`, kilometres: never more than the distance.
    fn chord_km(&self, other: &Site) -> f64 {
        let [x, y, z] = self.unit;
        let [ox, oy, oz] = other.unit;
        let (dx, dy, dz) = (x - ox, y - oy, z - oz);
        EARTH_RADIUS_KM * (dx * dx + dy * dy + dz * dz).sqrt()
    }

    /// The haversine distance to `other`, kilometres:
    /// `haversine_km(self, other)` to the bit.
    fn distance_km(&self, other: &Site) -> f64 {
        haversine_radians(&self.rad, &other.rad)
    }
}

/// The centroid nearest `p` among those within `limit` km — on equal
/// distances the first — or `None` when none is. `hint`, when given, is
/// measured first, so its exact distance is the bound the others'
/// chords are held against from the start.
fn nearest(centroids: &[Site], p: &Site, limit: f64, hint: Option<usize>) -> Option<usize> {
    let mut best = hint
        .map(|k| (centroids[k].distance_km(p), k))
        .filter(|&(d, _)| d <= limit);
    for (k, c) in centroids.iter().enumerate() {
        if Some(k) == hint {
            continue;
        }
        let bound = best.map_or(limit, |(d, _)| d);
        if c.chord_km(p) - MARGIN_KM > bound {
            continue;
        }
        let d = c.distance_km(p);
        let wins = match best {
            None => d <= limit,
            Some((b, j)) => d < b || (d == b && k < j),
        };
        if wins {
            best = Some((d, k));
        }
    }
    best.map(|(_, k)| k)
}

/// Cluster points with a maximum centroid radius of `radius_km`.
/// Deterministic: iteration order follows the input order.
pub fn cluster_geo(points: &[GeoPoint], radius_km: f64, max_iters: usize) -> Vec<GeoCluster> {
    assert!(radius_km > 0.0, "radius must be positive");
    let sites: Vec<Site> = points.iter().map(|&p| Site::of(p)).collect();
    let mut clusters: Vec<GeoCluster> = Vec::new();
    // A leader-pass centroid stays at the point that founded it.
    let mut founders: Vec<Site> = Vec::new();

    // Leader pass: assign to the nearest in-radius centroid or found a
    // new cluster.
    for (i, site) in sites.iter().enumerate() {
        match nearest(&founders, site, radius_km, None) {
            Some(k) => clusters[k].members.push(i),
            None => {
                clusters.push(GeoCluster {
                    centroid: points[i],
                    members: vec![i],
                });
                founders.push(*site);
            }
        }
    }
    for c in &mut clusters {
        c.recompute_centroid(points);
    }

    // Lloyd refinement under the radius constraint. A point's current
    // cluster is measured first: it is usually still the nearest.
    let mut home = vec![0; points.len()];
    for _ in 0..max_iters {
        let mut changed = false;
        let centroids: Vec<Site> = clusters.iter().map(|c| Site::of(c.centroid)).collect();
        for (k, c) in clusters.iter().enumerate() {
            for &i in &c.members {
                home[i] = k;
            }
        }
        let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); clusters.len()];
        for (i, site) in sites.iter().enumerate() {
            let best = nearest(&centroids, site, f64::INFINITY, Some(home[i]))
                .expect("at least one cluster");
            assignment[best].push(i);
        }
        for (k, members) in assignment.into_iter().enumerate() {
            if members != clusters[k].members {
                changed = true;
            }
            clusters[k].members = members;
            clusters[k].recompute_centroid(points);
        }
        clusters.retain(|c| !c.members.is_empty());
        if !changed {
            break;
        }
    }
    // Sort by descending size for stable, Table-1-like ordering.
    clusters.sort_by(|a, b| {
        b.members
            .len()
            .cmp(&a.members.len())
            .then_with(|| a.members.first().cmp(&b.members.first()))
    });
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon)
    }

    #[test]
    fn distinct_cities_stay_separate() {
        // Boston-ish, Tel-Aviv-ish, Seoul-ish clusters of 3 runs each.
        let pts = vec![
            p(42.4, -71.1),
            p(42.5, -71.0),
            p(42.3, -71.2),
            p(31.8, 35.0),
            p(31.9, 35.1),
            p(31.7, 34.9),
            p(37.5, 126.9),
            p(37.6, 127.0),
            p(37.4, 126.8),
        ];
        let clusters = cluster_geo(&pts, 100.0, 10);
        assert_eq!(clusters.len(), 3);
        for c in &clusters {
            assert_eq!(c.members.len(), 3);
        }
    }

    #[test]
    fn nearby_points_merge() {
        let pts = vec![p(42.40, -71.10), p(42.41, -71.11), p(42.39, -71.09)];
        let clusters = cluster_geo(&pts, 100.0, 10);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].members.len(), 3);
        // Centroid near the mean.
        assert!((clusters[0].centroid.lat - 42.40).abs() < 0.02);
    }

    #[test]
    fn every_point_assigned_exactly_once() {
        let pts: Vec<GeoPoint> = (0..50)
            .map(|i| {
                p(
                    ((i * 7) % 120) as f64 - 60.0,
                    ((i * 13) % 300) as f64 - 150.0,
                )
            })
            .collect();
        let clusters = cluster_geo(&pts, 100.0, 10);
        let mut seen = vec![false; pts.len()];
        for c in &clusters {
            for &m in &c.members {
                assert!(!seen[m], "point {m} assigned twice");
                seen[m] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn sorted_by_descending_size() {
        let mut pts = vec![p(10.0, 10.0)];
        for i in 0..5 {
            pts.push(p(42.0 + 0.01 * i as f64, -71.0));
        }
        let clusters = cluster_geo(&pts, 100.0, 10);
        assert!(clusters[0].members.len() >= clusters[1].members.len());
    }

    #[test]
    fn deterministic() {
        let pts: Vec<GeoPoint> = (0..30)
            .map(|i| p((i % 10) as f64 * 5.0, (i % 7) as f64 * 10.0))
            .collect();
        let a = cluster_geo(&pts, 100.0, 10);
        let b = cluster_geo(&pts, 100.0, 10);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.members, y.members);
        }
    }

    /// `cluster_geo` and `haversine_km` as they were before pruning,
    /// verbatim: the oracle the pruned clustering must equal to the bit.
    mod oracle {
        use crate::geo::{GeoPoint, EARTH_RADIUS_KM};
        use crate::kmeans::GeoCluster;

        fn haversine_km(a: GeoPoint, b: GeoPoint) -> f64 {
            let (lat1, lon1) = (a.lat.to_radians(), a.lon.to_radians());
            let (lat2, lon2) = (b.lat.to_radians(), b.lon.to_radians());
            let dlat = lat2 - lat1;
            let dlon = lon2 - lon1;
            let h =
                (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
            2.0 * EARTH_RADIUS_KM * h.sqrt().asin()
        }

        pub(super) fn cluster_geo(
            points: &[GeoPoint],
            radius_km: f64,
            max_iters: usize,
        ) -> Vec<GeoCluster> {
            assert!(radius_km > 0.0, "radius must be positive");
            let mut clusters: Vec<GeoCluster> = Vec::new();

            // Leader pass: assign to the nearest in-radius centroid or found a
            // new cluster.
            for (i, &p) in points.iter().enumerate() {
                let best = clusters
                    .iter_mut()
                    .map(|c| (haversine_km(c.centroid, p), c))
                    .filter(|(d, _)| *d <= radius_km)
                    .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                match best {
                    Some((_, c)) => c.members.push(i),
                    None => clusters.push(GeoCluster {
                        centroid: p,
                        members: vec![i],
                    }),
                }
            }
            for c in &mut clusters {
                c.recompute_centroid(points);
            }

            // Lloyd refinement under the radius constraint.
            for _ in 0..max_iters {
                let mut changed = false;
                let centroids: Vec<GeoPoint> = clusters.iter().map(|c| c.centroid).collect();
                let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); clusters.len()];
                for (i, &p) in points.iter().enumerate() {
                    let (best, _) = centroids
                        .iter()
                        .enumerate()
                        .map(|(k, &c)| (k, haversine_km(c, p)))
                        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                        .expect("at least one cluster");
                    assignment[best].push(i);
                }
                for (k, members) in assignment.into_iter().enumerate() {
                    if members != clusters[k].members {
                        changed = true;
                    }
                    clusters[k].members = members;
                    clusters[k].recompute_centroid(points);
                }
                clusters.retain(|c| !c.members.is_empty());
                if !changed {
                    break;
                }
            }
            // Sort by descending size for stable, Table-1-like ordering.
            clusters.sort_by(|a, b| {
                b.members
                    .len()
                    .cmp(&a.members.len())
                    .then_with(|| a.members.first().cmp(&b.members.first()))
            });
            clusters
        }
    }

    use crate::geo::haversine_km;
    use proptest::prelude::*;

    /// The pruned clustering equals the oracle: the same clusters in
    /// the same order, the same members, centroids equal to the bit.
    fn same_as_oracle(
        points: &[GeoPoint],
        radius_km: f64,
        max_iters: usize,
    ) -> Result<(), TestCaseError> {
        let got = cluster_geo(points, radius_km, max_iters);
        let want = oracle::cluster_geo(points, radius_km, max_iters);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(&g.members, &w.members);
            prop_assert_eq!(g.centroid.lat.to_bits(), w.centroid.lat.to_bits());
            prop_assert_eq!(g.centroid.lon.to_bits(), w.centroid.lon.to_bits());
        }
        Ok(())
    }

    /// The point at exactly `km` north of `founder`, which must lie on
    /// the equator: there one ulp of latitude moves the distance by
    /// less than one ulp of the distance, so a short walk lands on it.
    fn due_north_at_exactly(founder: GeoPoint, km: f64) -> GeoPoint {
        assert_eq!(founder.lat, 0.0);
        let mut lat = (km / EARTH_RADIUS_KM).to_degrees();
        for _ in 0..10_000 {
            let d = haversine_km(founder, p(lat, founder.lon));
            if d == km {
                return p(lat, founder.lon);
            }
            lat = if d < km {
                lat.next_up()
            } else {
                lat.next_down()
            };
        }
        panic!("no latitude lies at exactly {km} km");
    }

    #[test]
    fn a_point_at_exactly_the_radius_joins_its_founder() {
        for lon in [-180.0, -71.1, 0.0, 35.0, 180.0] {
            let founder = p(0.0, lon);
            let at = due_north_at_exactly(founder, 100.0);
            let past = p(at.lat.next_up(), lon);
            assert!(haversine_km(founder, past) > 100.0);
            let pts = [founder, at, past];
            let leader = cluster_geo(&pts, 100.0, 0);
            assert_eq!(leader[0].members, [0, 1], "at {lon}");
            for iters in [0, 20] {
                same_as_oracle(&pts, 100.0, iters).unwrap();
            }
        }
    }

    #[test]
    fn a_tie_goes_to_the_first_centroid_not_the_points_own() {
        // On the equator, with longitudes that sum exactly: point 3
        // joins cluster 1 (27.8 km against 83.4 km from the founders),
        // but the leader pass leaves the centroids at lon ∓5/12, mirror
        // images, so the first Lloyd pass finds it exactly as far from
        // cluster 0 as from its own and must move it to cluster 0.
        let pts = [
            p(0.0, -0.75),
            p(0.0, 0.0),
            p(0.0, 0.25),
            p(0.0, 0.0),
            p(0.0, -0.5),
            p(0.0, 1.0),
        ];
        let leader = cluster_geo(&pts, 100.0, 0);
        assert_eq!(leader[0].members, [0, 1, 4]);
        assert_eq!(leader[1].members, [2, 3, 5]);
        let d = |k: usize| haversine_km(leader[k].centroid, pts[3]);
        assert_eq!(d(0), d(1));
        let refined = cluster_geo(&pts, 100.0, 1);
        assert_eq!(refined[0].members, [0, 1, 3, 4]);
        same_as_oracle(&pts, 100.0, 20).unwrap();
    }

    fn anywhere() -> impl Strategy<Value = GeoPoint> {
        (-90.0f64..90.0, -180.0f64..180.0).prop_map(|(lat, lon)| p(lat, lon))
    }

    /// A point in a 6° by 8° box around New England: every pair within
    /// a few hundred km, so clusters found there compete for points.
    fn regional() -> impl Strategy<Value = GeoPoint> {
        (40.0f64..46.0, -75.0f64..-67.0).prop_map(|(lat, lon)| p(lat, lon))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_pruning_matches_oracle_on_global_points(
            pts in proptest::collection::vec(anywhere(), 1..300),
            radius in 20.0f64..3000.0,
            iters in 0usize..25,
        ) {
            same_as_oracle(&pts, radius, iters)?;
        }

        #[test]
        fn prop_pruning_matches_oracle_on_tight_clusters(
            centers in proptest::collection::vec(regional(), 1..10),
            jitter in proptest::collection::vec((0usize..10, -0.12f64..0.12, -0.12f64..0.12), 1..400),
        ) {
            // The dataset's runs sit within 0.12° of their cluster centre.
            let pts: Vec<GeoPoint> = jitter
                .iter()
                .map(|&(k, dlat, dlon)| {
                    let c = centers[k % centers.len()];
                    p(c.lat + dlat, c.lon + dlon)
                })
                .collect();
            same_as_oracle(&pts, 100.0, 20)?;
        }

        #[test]
        fn prop_pruning_matches_oracle_on_duplicated_points(
            base in proptest::collection::vec(regional(), 1..6),
            picks in proptest::collection::vec(0usize..6, 1..200),
        ) {
            let pts: Vec<GeoPoint> = picks.iter().map(|&k| base[k % base.len()]).collect();
            same_as_oracle(&pts, 100.0, 20)?;
        }

        #[test]
        fn prop_pruning_matches_oracle_at_exactly_the_radius(
            pts in proptest::collection::vec(regional(), 2..120),
            at in 1usize..120,
            iters in 0usize..25,
        ) {
            // The radius is the first founder's exact distance to one of
            // the points, so `d <= radius` is decided by equality.
            let radius = haversine_km(pts[0], pts[at % pts.len()]);
            if radius > 0.0 {
                same_as_oracle(&pts, radius, iters)?;
            }
        }

        #[test]
        fn prop_pruning_matches_oracle_on_equidistant_centroids(
            lat in -60.0f64..60.0,
            half_gap in 0.3f64..1.5,
            side in proptest::collection::vec((-0.12f64..0.12, -0.12f64..0.12), 1..60),
            middle in proptest::collection::vec((-0.5f64..0.5, 0usize..3, -1e-5f64..1e-5), 1..60),
        ) {
            // Two mirror-image clumps about the prime meridian: the
            // west one is the east one with every longitude negated, so
            // their centroids are too, and a point on the meridian is
            // exactly as far from each. Points a centimetre to a metre
            // off the meridian are nearer one by less than the margin.
            let mut pts = Vec::new();
            for &(dlat, dlon) in &side {
                pts.push(p(lat + dlat, -(half_gap + dlon)));
                pts.push(p(lat + dlat, half_gap + dlon));
            }
            for &(dlat, kind, off) in &middle {
                let lon = [0.0, off, -off][kind];
                pts.push(p(lat + dlat, lon));
            }
            for radius in [100.0, 200.0] {
                same_as_oracle(&pts, radius, 20)?;
            }
        }

        #[test]
        fn prop_pruning_matches_oracle_at_the_poles_and_the_antimeridian(
            drawn in proptest::collection::vec((0usize..4, 0.0f64..1.0, -180.0f64..180.0, -60.0f64..60.0), 1..200),
            radius in 20.0f64..300.0,
        ) {
            let mut pts = vec![p(90.0, 0.0), p(-90.0, 0.0), p(0.0, 180.0), p(0.0, -180.0), p(10.0, 180.0)];
            pts.extend(drawn.iter().map(|&(region, u, lon, lat)| match region {
                0 => p(90.0 - u, lon),
                1 => p(-90.0 + u, lon),
                2 => p(lat, 180.0 - u),
                _ => p(lat, -180.0 + u),
            }));
            same_as_oracle(&pts, radius, 20)?;
        }
    }
}
