//! Geographic primitives: latitude/longitude points and great-circle
//! distance.

use serde::{Deserialize, Serialize};

/// Mean Earth radius, kilometres.
pub const EARTH_RADIUS_KM: f64 = 6371.0;

/// A point on the globe.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeoPoint {
    /// Latitude, degrees.
    pub lat: f64,
    /// Longitude, degrees.
    pub lon: f64,
}

impl GeoPoint {
    /// Construct (validates ranges).
    pub fn new(lat: f64, lon: f64) -> GeoPoint {
        assert!((-90.0..=90.0).contains(&lat), "bad latitude {lat}");
        assert!((-180.0..=180.0).contains(&lon), "bad longitude {lon}");
        GeoPoint { lat, lon }
    }
}

/// Great-circle distance via the haversine formula, kilometres.
pub fn haversine_km(a: GeoPoint, b: GeoPoint) -> f64 {
    haversine_radians(&Radians::of(a), &Radians::of(b))
}

/// A point's latitude and longitude in radians and the cosine of its
/// latitude: what [`haversine_km`] derives from each point before the
/// distance itself, so a caller that measures one point many times
/// derives it once.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Radians {
    pub(crate) lat: f64,
    pub(crate) lon: f64,
    pub(crate) cos_lat: f64,
}

impl Radians {
    pub(crate) fn of(p: GeoPoint) -> Radians {
        let lat = p.lat.to_radians();
        Radians {
            lat,
            lon: p.lon.to_radians(),
            cos_lat: lat.cos(),
        }
    }
}

/// The haversine expression over two prepared points. The one copy of
/// it: [`haversine_km`] and the k-means both call it, so a distance
/// the clustering measures is the `f64` `haversine_km` returns.
pub(crate) fn haversine_radians(a: &Radians, b: &Radians) -> f64 {
    let dlat = b.lat - a.lat;
    let dlon = b.lon - a.lon;
    let h = (dlat / 2.0).sin().powi(2) + a.cos_lat * b.cos_lat * (dlon / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_KM * h.sqrt().asin()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_distance_to_self() {
        let p = GeoPoint::new(42.4, -71.1);
        assert!(haversine_km(p, p) < 1e-9);
    }

    #[test]
    fn boston_to_nyc_about_300km() {
        let boston = GeoPoint::new(42.36, -71.06);
        let nyc = GeoPoint::new(40.71, -74.01);
        let d = haversine_km(boston, nyc);
        assert!((d - 306.0).abs() < 10.0, "distance {d}");
    }

    #[test]
    fn antipodal_is_half_circumference() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 180.0);
        let d = haversine_km(a, b);
        assert!((d - std::f64::consts::PI * EARTH_RADIUS_KM).abs() < 1.0);
    }

    #[test]
    fn symmetric() {
        let a = GeoPoint::new(31.8, 35.0);
        let b = GeoPoint::new(59.4, 27.4);
        assert!((haversine_km(a, b) - haversine_km(b, a)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "bad latitude")]
    fn invalid_latitude_rejected() {
        GeoPoint::new(99.0, 0.0);
    }
}
