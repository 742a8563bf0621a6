//! Renewable sites: location, source kind, capacity, and geography.
//!
//! §2.3 of the paper assumes every farm has the median peak capacity of
//! large farms worldwide — 400 MW — and forms multi-VB groups from sites
//! "in close proximity of each other (<50 ms ping latency)". The latency
//! model here (great-circle distance at a fraction of the speed of light
//! plus a fixed processing overhead) provides that proximity notion.

/// The paper's assumed per-farm peak capacity (§2.3).
pub const DEFAULT_CAPACITY_MW: f64 = 400.0;

/// Mean Earth radius in kilometres, for great-circle distances.
pub const EARTH_RADIUS_KM: f64 = 6_371.0;

/// Which renewable source powers a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceKind {
    /// Photovoltaic generation (diurnal, zero at night).
    Solar,
    /// Wind-turbine generation (synoptic, rarely zero).
    Wind,
}

impl SourceKind {
    /// Short label used in trace files and reports.
    pub fn label(self) -> &'static str {
        match self {
            SourceKind::Solar => "solar",
            SourceKind::Wind => "wind",
        }
    }
}

impl std::fmt::Display for SourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A renewable farm co-located with a VB edge data center.
#[derive(Debug, Clone, PartialEq)]
pub struct Site {
    /// Human-readable identifier, e.g. `"NO-solar"`.
    pub name: String,
    /// Latitude in degrees north.
    pub lat: f64,
    /// Longitude in degrees east.
    pub lon: f64,
    /// Energy source.
    pub kind: SourceKind,
    /// Peak (nameplate) capacity in MW.
    pub capacity_mw: f64,
}

impl Site {
    /// A solar site with the default 400 MW capacity.
    pub fn solar(name: &str, lat: f64, lon: f64) -> Site {
        Site {
            name: name.to_string(),
            lat,
            lon,
            kind: SourceKind::Solar,
            capacity_mw: DEFAULT_CAPACITY_MW,
        }
    }

    /// A wind site with the default 400 MW capacity.
    pub fn wind(name: &str, lat: f64, lon: f64) -> Site {
        Site {
            name: name.to_string(),
            lat,
            lon,
            kind: SourceKind::Wind,
            capacity_mw: DEFAULT_CAPACITY_MW,
        }
    }

    /// Override the nameplate capacity (builder style).
    pub fn with_capacity(mut self, capacity_mw: f64) -> Site {
        self.capacity_mw = capacity_mw;
        self
    }

    /// Great-circle distance to another site, in kilometres.
    pub fn distance_km(&self, other: &Site) -> f64 {
        haversine_km(self.lat, self.lon, other.lat, other.lon)
    }

    /// Estimated round-trip latency to another site, in milliseconds.
    ///
    /// Light in fibre covers ~200 km/ms one way; real WAN paths are not
    /// geodesics, so we apply a 1.5× path-stretch factor and add 2 ms of
    /// fixed switching/processing overhead. The absolute values only
    /// matter relative to the paper's 50 ms multi-VB edge threshold.
    pub fn rtt_ms(&self, other: &Site) -> f64 {
        let km = self.distance_km(other);
        let one_way_ms = km * 1.5 / 200.0;
        2.0 * one_way_ms + 2.0
    }

    /// Deterministic 64-bit identity used to derive per-site RNG streams.
    pub fn stream_id(&self) -> u64 {
        // FNV-1a over the name and kind: stable across runs and platforms.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.name.bytes().chain(std::iter::once(match self.kind {
            SourceKind::Solar => 0u8,
            SourceKind::Wind => 1u8,
        })) {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

/// Great-circle (haversine) distance between two lat/lon points, in km.
pub fn haversine_km(lat1: f64, lon1: f64, lat2: f64, lon2: f64) -> f64 {
    let (phi1, phi2) = (lat1.to_radians(), lat2.to_radians());
    let dphi = (lat2 - lat1).to_radians();
    let dlambda = (lon2 - lon1).to_radians();
    let a = (dphi / 2.0).sin().powi(2) + phi1.cos() * phi2.cos() * (dlambda / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haversine_matches_known_city_pair() {
        // London (51.5074, -0.1278) to Paris (48.8566, 2.3522) ≈ 344 km.
        let d = haversine_km(51.5074, -0.1278, 48.8566, 2.3522);
        assert!((d - 344.0).abs() < 5.0, "got {d}");
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Site::solar("a", 60.0, 10.0);
        let b = Site::wind("b", 52.0, -1.5);
        assert!((a.distance_km(&b) - b.distance_km(&a)).abs() < 1e-9);
        assert!(a.distance_km(&a) < 1e-9);
    }

    #[test]
    fn rtt_grows_with_distance_and_has_floor() {
        let a = Site::solar("a", 50.0, 5.0);
        let near = Site::wind("n", 50.5, 5.0);
        let far = Site::wind("f", 40.0, -8.0);
        assert!(a.rtt_ms(&near) < a.rtt_ms(&far));
        assert!(a.rtt_ms(&a) >= 2.0, "fixed overhead floor");
    }

    #[test]
    fn nearby_sites_fit_under_the_50ms_threshold() {
        // Oslo to Lisbon is ~2 800 km -> should still be under 50 ms RTT;
        // the paper groups NO/UK/PT sites together.
        let no = Site::solar("NO", 59.9, 10.7);
        let pt = Site::wind("PT", 38.7, -9.1);
        assert!(no.rtt_ms(&pt) < 50.0, "got {}", no.rtt_ms(&pt));
    }

    #[test]
    fn stream_ids_differ_by_name_and_kind() {
        let a = Site::solar("x", 0.0, 0.0);
        let b = Site::wind("x", 0.0, 0.0);
        let c = Site::solar("y", 0.0, 0.0);
        assert_ne!(a.stream_id(), b.stream_id());
        assert_ne!(a.stream_id(), c.stream_id());
        assert_eq!(a.stream_id(), Site::solar("x", 9.0, 9.0).stream_id());
    }

    #[test]
    fn builders_set_fields() {
        let s = Site::wind("w", 1.0, 2.0).with_capacity(250.0);
        assert_eq!(s.kind, SourceKind::Wind);
        assert_eq!(s.capacity_mw, 250.0);
        assert_eq!(SourceKind::Wind.label(), "wind");
        assert_eq!(format!("{}", SourceKind::Solar), "solar");
    }
}
