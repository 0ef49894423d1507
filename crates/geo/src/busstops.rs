//! Bus-stop recovery from noisy stop reports (Section 4.1.2).
//!
//! The raw data reports the same physical stop at scattered GPS positions,
//! marks buses as stopped while moving, and gives nearby stops different
//! ids. The paper's remedy, reproduced here:
//!
//! 1. run [DENCLUE](crate::denclue) over the positions where buses reported
//!    reaching a stop;
//! 2. split each cluster further by the **average entry angle** per
//!    (line, direction), so stops serving opposite travel directions become
//!    distinct sub-clusters;
//! 3. build a lookup tool that maps any new (line, direction, position) to
//!    its closest sub-cluster — which the rest of the system treats as
//!    *the* bus stop.

use crate::denclue::{Denclue, DenclueConfig};
use crate::error::GeoError;
use crate::point::{angle_diff_deg, circular_mean_deg, GeoPoint};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A raw "bus reached a stop" observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StopObservation {
    /// Bus line id.
    pub line_id: u32,
    /// Travel direction flag as reported by the vehicle.
    pub direction: bool,
    /// Reported position.
    pub position: GeoPoint,
    /// Bearing the bus had when it entered the stop area, degrees.
    pub entry_bearing_deg: f64,
}

/// A recovered bus stop (a direction sub-cluster in the paper's terms).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BusStop {
    /// Dense stop id assigned by the index.
    pub id: u32,
    /// DENCLUE cluster the stop came from.
    pub cluster_id: usize,
    /// Representative location (centroid of member observations).
    pub location: GeoPoint,
    /// Circular-mean entry bearing of the member observations.
    pub mean_bearing_deg: f64,
    /// (line, direction) pairs that were observed using this stop.
    pub serving: Vec<(u32, bool)>,
    /// Number of observations merged into this stop.
    pub observation_count: usize,
}

/// Parameters for the angle-based sub-clustering.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SubclusterConfig {
    /// Two (line, direction) groups are placed in the same sub-cluster when
    /// their average entry bearings differ by at most this many degrees.
    pub angle_tolerance_deg: f64,
}

impl Default for SubclusterConfig {
    fn default() -> Self {
        SubclusterConfig { angle_tolerance_deg: 60.0 }
    }
}

/// One lookup list: `(latitude, stop id)` of its stops, sorted by latitude.
/// The latitude is the stop's own `location.lat`, bit for bit.
type ByLatitude = Vec<(f64, u32)>;

/// Index of recovered bus stops supporting nearest-stop lookups.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BusStopIndex {
    stops: Vec<BusStop>,
    /// The stops serving each (line, direction), for the scoped lookup.
    by_line_dir: HashMap<(u32, bool), ByLatitude>,
    /// Every stop, for the global lookup.
    all: ByLatitude,
}

impl BusStopIndex {
    /// Builds the index from raw stop observations.
    pub fn build(
        observations: &[StopObservation],
        denclue: DenclueConfig,
        subcluster: SubclusterConfig,
    ) -> Result<Self, GeoError> {
        if observations.is_empty() {
            return Err(GeoError::EmptyInput { what: "stop observations" });
        }
        if !(subcluster.angle_tolerance_deg > 0.0 && subcluster.angle_tolerance_deg <= 180.0) {
            return Err(GeoError::InvalidClusteringConfig {
                reason: format!(
                    "angle_tolerance_deg must be in (0, 180], got {}",
                    subcluster.angle_tolerance_deg
                ),
            });
        }

        let positions: Vec<GeoPoint> = observations.iter().map(|o| o.position).collect();
        let result = Denclue::new(denclue)?.cluster(&positions)?;

        let mut stops: Vec<BusStop> = Vec::new();
        for cluster in &result.clusters {
            // Group member observations by (line, direction) and compute
            // each group's average entry angle.
            let mut groups: HashMap<(u32, bool), Vec<usize>> = HashMap::new();
            for &m in &cluster.members {
                let o = &observations[m];
                groups.entry((o.line_id, o.direction)).or_default().push(m);
            }
            let mut group_angles: Vec<((u32, bool), f64, Vec<usize>)> = groups
                .into_iter()
                .map(|(key, members)| {
                    let angles: Vec<f64> =
                        members.iter().map(|&m| observations[m].entry_bearing_deg).collect();
                    // A group whose bearings cancel exactly is pathological;
                    // fall back to the first observation's bearing.
                    let mean = circular_mean_deg(&angles)
                        .unwrap_or(observations[members[0]].entry_bearing_deg);
                    (key, mean, members)
                })
                .collect();
            // Deterministic order: by line, then direction.
            group_angles.sort_by_key(|(key, _, _)| *key);

            // Greedy angular agglomeration: each group joins the first
            // sub-cluster whose mean bearing is within tolerance.
            struct Sub {
                keys: Vec<(u32, bool)>,
                members: Vec<usize>,
                angles: Vec<f64>,
            }
            let mut subs: Vec<Sub> = Vec::new();
            for (key, mean, members) in group_angles {
                let hit = subs.iter_mut().find(|s| {
                    let smean = circular_mean_deg(&s.angles).unwrap_or(0.0);
                    angle_diff_deg(smean, mean) <= subcluster.angle_tolerance_deg
                });
                match hit {
                    Some(s) => {
                        s.keys.push(key);
                        s.angles.extend(members.iter().map(|&m| observations[m].entry_bearing_deg));
                        s.members.extend(members);
                    }
                    None => subs.push(Sub {
                        keys: vec![key],
                        angles: members
                            .iter()
                            .map(|&m| observations[m].entry_bearing_deg)
                            .collect(),
                        members,
                    }),
                }
            }

            for sub in subs {
                let n = sub.members.len() as f64;
                let (mut lat, mut lon) = (0.0, 0.0);
                for &m in &sub.members {
                    lat += observations[m].position.lat;
                    lon += observations[m].position.lon;
                }
                let mean_bearing = circular_mean_deg(&sub.angles).unwrap_or(0.0);
                stops.push(BusStop {
                    id: stops.len() as u32,
                    cluster_id: cluster.id,
                    location: GeoPoint { lat: lat / n, lon: lon / n },
                    mean_bearing_deg: mean_bearing,
                    serving: sub.keys,
                    observation_count: sub.members.len(),
                });
            }
        }

        Ok(Self::from_stops(stops))
    }

    /// Sorts the lookup lists of `stops`, whose ids are their positions.
    fn from_stops(stops: Vec<BusStop>) -> Self {
        let mut by_line_dir: HashMap<(u32, bool), ByLatitude> = HashMap::new();
        let mut all = ByLatitude::with_capacity(stops.len());
        for stop in &stops {
            let entry = (stop.location.lat, stop.id);
            all.push(entry);
            for &key in &stop.serving {
                by_line_dir.entry(key).or_default().push(entry);
            }
        }
        for list in by_line_dir.values_mut().chain([&mut all]) {
            list.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        BusStopIndex { stops, by_line_dir, all }
    }

    /// All recovered stops.
    pub fn stops(&self) -> &[BusStop] {
        &self.stops
    }

    /// Number of recovered stops.
    pub fn len(&self) -> usize {
        self.stops.len()
    }

    /// Whether the index is empty (never true for a built index).
    pub fn is_empty(&self) -> bool {
        self.stops.is_empty()
    }

    /// The stop with the given id.
    pub fn stop(&self, id: u32) -> Option<&BusStop> {
        self.stops.get(id as usize)
    }

    /// The paper's lookup tool: for a (line, direction, position) triple,
    /// the closest sub-cluster serving that line and direction. Falls back
    /// to the globally closest stop if the line/direction was never seen
    /// (new routes appear over time).
    ///
    /// Closest by [`GeoPoint::approx_dist2`]; of several equally close
    /// stops, the one with the lowest id. A position with a non-finite
    /// coordinate is as far from one stop as from another (every distance
    /// is NaN or infinite) and gets the lowest-id candidate outright.
    pub fn closest_stop(&self, line_id: u32, direction: bool, position: &GeoPoint) -> Option<&BusStop> {
        let candidates = self.by_line_dir.get(&(line_id, direction)).unwrap_or(&self.all);
        self.nearest(candidates, position)
    }

    /// The globally closest stop regardless of line/direction; ties and
    /// non-finite positions as in [`Self::closest_stop`].
    pub fn closest_stop_any(&self, position: &GeoPoint) -> Option<&BusStop> {
        self.nearest(&self.all, position)
    }

    /// The stop of `candidates` nearest to `position`, exactly: starts at
    /// the position's latitude and visits candidates on both sides in
    /// order of increasing latitude gap, until the gap alone exceeds the
    /// best distance found.
    fn nearest(&self, candidates: &[(f64, u32)], position: &GeoPoint) -> Option<&BusStop> {
        if !(position.lat.is_finite() && position.lon.is_finite()) {
            let lowest = candidates.iter().map(|&(_, id)| id).min()?;
            return Some(&self.stops[lowest as usize]);
        }
        // The same subtraction as `approx_dist2`'s, so `gap2` is that sum's
        // first term, and a sum of two non-negative floats never rounds
        // below either: `approx_dist2 >= gap2`. Gaps grow (weakly) along
        // each side of the sorted list, in float arithmetic too.
        let gap2 = |i: usize| {
            let dlat = position.lat - candidates[i].0;
            dlat * dlat
        };
        let split = candidates.partition_point(|&(lat, _)| lat < position.lat);
        // Still to visit: `candidates[..below]` downwards, `candidates[above..]` upwards.
        let (mut below, mut above) = (split, split);
        let mut best: Option<(f64, u32)> = None;
        loop {
            let down = (below > 0).then(|| gap2(below - 1));
            let up = (above < candidates.len()).then(|| gap2(above));
            let (i, gap) = match (down, up) {
                (Some(d), Some(u)) if d <= u => (below - 1, d),
                (_, Some(u)) => (above, u),
                (Some(d), None) => (below - 1, d),
                (None, None) => break,
            };
            // Strict: a candidate whose gap equals the best distance can
            // still tie it, and a tie goes to the lower id.
            if best.is_some_and(|(b, _)| gap > b) {
                break;
            }
            if i < above {
                below -= 1;
            } else {
                above += 1;
            }
            let id = candidates[i].1;
            let d = position.approx_dist2(&self.stops[id as usize].location);
            if best.is_none_or(|(b, best_id)| d < b || (d == b && id < best_id)) {
                best = Some((d, id));
            }
        }
        best.map(|(_, id)| &self.stops[id as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn observations_at(
        rng: &mut StdRng,
        center: GeoPoint,
        line: u32,
        dir: bool,
        bearing: f64,
        n: usize,
    ) -> Vec<StopObservation> {
        (0..n)
            .map(|_| StopObservation {
                line_id: line,
                direction: dir,
                position: center.destination(rng.random_range(0.0..360.0), rng.random_range(0.0..10.0)),
                entry_bearing_deg: (bearing + rng.random_range(-10.0..10.0)).rem_euclid(360.0),
            })
            .collect()
    }

    #[test]
    fn opposite_directions_split_into_two_stops() {
        let mut rng = StdRng::seed_from_u64(21);
        let c = GeoPoint::new_unchecked(53.34, -6.26);
        // Same physical area, two travel directions ⇒ one DENCLUE cluster,
        // two angle sub-clusters.
        let mut obs = observations_at(&mut rng, c, 46, true, 85.0, 30);
        obs.extend(observations_at(&mut rng, c, 46, false, 265.0, 30));
        let idx =
            BusStopIndex::build(&obs, DenclueConfig::default(), SubclusterConfig::default())
                .unwrap();
        assert_eq!(idx.len(), 2);
        let a = idx.closest_stop(46, true, &c).unwrap();
        let b = idx.closest_stop(46, false, &c).unwrap();
        assert_ne!(a.id, b.id);
        assert!(angle_diff_deg(a.mean_bearing_deg, 85.0) < 15.0);
        assert!(angle_diff_deg(b.mean_bearing_deg, 265.0) < 15.0);
    }

    #[test]
    fn similar_angles_share_a_stop_across_lines() {
        let mut rng = StdRng::seed_from_u64(22);
        let c = GeoPoint::new_unchecked(53.35, -6.25);
        let mut obs = observations_at(&mut rng, c, 1, true, 90.0, 20);
        obs.extend(observations_at(&mut rng, c, 2, true, 100.0, 20));
        let idx =
            BusStopIndex::build(&obs, DenclueConfig::default(), SubclusterConfig::default())
                .unwrap();
        assert_eq!(idx.len(), 1);
        let stop = &idx.stops()[0];
        assert_eq!(stop.serving.len(), 2);
        assert_eq!(stop.observation_count, 40);
    }

    #[test]
    fn distinct_locations_make_distinct_stops() {
        let mut rng = StdRng::seed_from_u64(23);
        let c1 = GeoPoint::new_unchecked(53.34, -6.26);
        let c2 = c1.destination(90.0, 500.0);
        let mut obs = observations_at(&mut rng, c1, 1, true, 90.0, 20);
        obs.extend(observations_at(&mut rng, c2, 1, true, 90.0, 20));
        let idx =
            BusStopIndex::build(&obs, DenclueConfig::default(), SubclusterConfig::default())
                .unwrap();
        assert_eq!(idx.len(), 2);
        // Lookup near c2 resolves to the c2 stop.
        let near = idx.closest_stop(1, true, &c2.destination(0.0, 5.0)).unwrap();
        assert!(near.location.haversine_m(&c2) < 50.0);
    }

    #[test]
    fn unknown_line_falls_back_to_global_lookup() {
        let mut rng = StdRng::seed_from_u64(24);
        let c = GeoPoint::new_unchecked(53.33, -6.27);
        let obs = observations_at(&mut rng, c, 7, true, 45.0, 15);
        let idx =
            BusStopIndex::build(&obs, DenclueConfig::default(), SubclusterConfig::default())
                .unwrap();
        let got = idx.closest_stop(999, false, &c).unwrap();
        assert!(got.location.haversine_m(&c) < 50.0);
    }

    #[test]
    fn empty_observations_rejected() {
        let err =
            BusStopIndex::build(&[], DenclueConfig::default(), SubclusterConfig::default());
        assert!(matches!(err, Err(GeoError::EmptyInput { .. })));
    }

    #[test]
    fn invalid_angle_tolerance_rejected() {
        let mut rng = StdRng::seed_from_u64(25);
        let obs = observations_at(
            &mut rng,
            GeoPoint::new_unchecked(53.33, -6.27),
            1,
            true,
            0.0,
            5,
        );
        for bad in [0.0, -10.0, 200.0] {
            let err = BusStopIndex::build(
                &obs,
                DenclueConfig::default(),
                SubclusterConfig { angle_tolerance_deg: bad },
            );
            assert!(err.is_err(), "tolerance {bad} should be rejected");
        }
    }

    #[test]
    fn stop_ids_are_dense() {
        let mut rng = StdRng::seed_from_u64(26);
        let c1 = GeoPoint::new_unchecked(53.34, -6.26);
        let c2 = c1.destination(90.0, 400.0);
        let mut obs = observations_at(&mut rng, c1, 1, true, 90.0, 10);
        obs.extend(observations_at(&mut rng, c1, 1, false, 270.0, 10));
        obs.extend(observations_at(&mut rng, c2, 2, true, 0.0, 10));
        let idx =
            BusStopIndex::build(&obs, DenclueConfig::default(), SubclusterConfig::default())
                .unwrap();
        for (i, s) in idx.stops().iter().enumerate() {
            assert_eq!(s.id as usize, i);
            assert_eq!(idx.stop(s.id).unwrap().id, s.id);
        }
    }

    /// The lookup's definition, as a scan: `min_by` (first of equals) over
    /// the stops serving (line, direction) in id order, or over all stops
    /// when none does. `None` for the line is the global lookup.
    fn closest_stop_by_min_by<'a>(
        idx: &'a BusStopIndex,
        line_dir: Option<(u32, bool)>,
        position: &GeoPoint,
    ) -> Option<&'a BusStop> {
        let serves = |s: &&BusStop| line_dir.is_some_and(|key| s.serving.contains(&key));
        let by_distance = |a: &&BusStop, b: &&BusStop| {
            position.approx_dist2(&a.location).total_cmp(&position.approx_dist2(&b.location))
        };
        if idx.stops.iter().any(|s| serves(&s)) {
            idx.stops.iter().filter(serves).min_by(by_distance)
        } else {
            idx.stops.iter().min_by(by_distance)
        }
    }

    fn stop_at(id: usize, location: GeoPoint, serving: Vec<(u32, bool)>) -> BusStop {
        BusStop {
            id: id as u32,
            cluster_id: 0,
            location,
            mean_bearing_deg: 0.0,
            serving,
            observation_count: 1,
        }
    }

    /// Every lookup the index offers, against the scan: each (line,
    /// direction) of `lines`, and the global one.
    fn assert_lookups_equal_the_scan(
        idx: &BusStopIndex,
        lines: std::ops::Range<u32>,
        position: &GeoPoint,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let id = |s: Option<&BusStop>| s.map(|s| s.id);
        for key in lines.flat_map(|l| [(l, false), (l, true)]) {
            let got = id(idx.closest_stop(key.0, key.1, position));
            let want = id(closest_stop_by_min_by(idx, Some(key), position));
            proptest::prop_assert_eq!(got, want, "line/direction {:?} at {:?}", key, position);
        }
        let got = id(idx.closest_stop_any(position));
        let want = id(closest_stop_by_min_by(idx, None, position));
        proptest::prop_assert_eq!(got, want, "global at {:?}", position);
        Ok(())
    }

    #[test]
    fn non_finite_queries_get_the_first_candidate() {
        // Neither list's first candidate is at an end of its latitude order.
        let at = |lat, lon| GeoPoint::new_unchecked(lat, lon);
        let stops = vec![
            stop_at(0, at(53.34, -6.20), vec![(2, true)]),
            stop_at(1, at(53.32, -6.26), vec![(1, true)]),
            stop_at(2, at(53.30, -6.30), vec![(1, true), (2, true)]),
            stop_at(3, at(53.36, -6.22), vec![(1, true)]),
            stop_at(4, at(53.38, -6.24), vec![(2, true)]),
        ];
        let idx = BusStopIndex::from_stops(stops);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for position in [at(bad, -6.26), at(53.33, bad), at(bad, bad)] {
                assert_eq!(idx.closest_stop(1, true, &position).unwrap().id, 1);
                assert_eq!(idx.closest_stop(2, true, &position).unwrap().id, 0);
                assert_eq!(idx.closest_stop(9, true, &position).unwrap().id, 0);
                assert_eq!(idx.closest_stop_any(&position).unwrap().id, 0);
                assert_lookups_equal_the_scan(&idx, 0..4, &position).unwrap();
            }
        }
    }

    proptest::proptest! {
        /// Same stop id as the scan for every (line, direction) and for the
        /// global lookup. Up to 300 stops sit on a coarse grid (three
        /// interleaved ones), so duplicate locations under different ids
        /// and exact distance ties (lower id wins) occur in most cases;
        /// every stop of line 5 has one latitude, where the latitude gap
        /// never ends the walk; some stops serve two lists; line 6 is
        /// never served and takes the global fallback. Queries sit on
        /// cells and cell midpoints, or degrees outside the stops' box on
        /// either side of either axis.
        #[test]
        fn closest_stop_picks_the_stop_min_by_picked(
            cells in proptest::collection::vec(
                (0u32..12, 0u32..12, 0u32..3, 0u32..6, proptest::prelude::any::<bool>(), 0u32..4),
                1..300,
            ),
            half_lat in 0u32..24,
            half_lon in 0u32..24,
            outside in 0u32..6,
        ) {
            let at = |lat: f64, lon: f64| GeoPoint::new_unchecked(53.30 + 0.01 * lat, -6.30 + 0.01 * lon);
            let stops = cells
                .iter()
                .enumerate()
                .map(|(i, &(lat, lon, skew, line, dir, second))| {
                    let lat = if line == 5 { 4.0 } else { lat as f64 + 0.37 * skew as f64 };
                    let mut serving = vec![(line, dir)];
                    if second == 0 {
                        serving.push(((line + 1) % 5, !dir));
                    }
                    stop_at(i, at(lat, lon as f64 + 0.37 * skew as f64), serving)
                })
                .collect();
            let idx = BusStopIndex::from_stops(stops);
            let (far_lat, far_lon) = [(0.0, 0.0), (300.0, 0.0), (-300.0, 0.0), (0.0, 500.0), (0.0, -500.0), (-300.0, 500.0)]
                [outside as usize];
            let position = at(half_lat as f64 * 0.5 + far_lat, half_lon as f64 * 0.5 + far_lon);
            assert_lookups_equal_the_scan(&idx, 0..7, &position)?;
        }
    }
}
