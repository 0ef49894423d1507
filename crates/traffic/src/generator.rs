//! The synthetic Dublin bus fleet.
//!
//! Calibrated to Table 2 of the paper:
//!
//! | property        | value                      |
//! |-----------------|----------------------------|
//! | buses           | 911                        |
//! | lines           | 67                         |
//! | data frequency  | 3 tuples / minute / bus    |
//! | service window  | 06:00 – 03:00 (next day)   |
//! | volume          | ~160 MB per day            |
//!
//! Each line gets a synthetic route: a polyline from one edge of the city
//! through a mid-point near the centre to another edge. Buses shuttle
//! along their line's polyline, at a speed shaped by a diurnal congestion
//! profile (harsh at 08:00 and 17:30 on weekdays, mild on weekends) that
//! is strongest near the city centre — giving different spatial locations
//! genuinely different "normal behaviour", which is the premise of the
//! paper's dynamic thresholds. Delay accumulates when a bus moves slower
//! than its schedule assumes; GPS positions and stop reports carry noise
//! (Section 4.1.2's motivation); injected [`Incident`]s slow everything
//! inside their radius, producing the abnormal events rules must detect.

// `!(x > 0.0)` is used deliberately in validations: unlike `x <= 0.0`
// it also rejects NaN.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

use crate::error::TrafficError;
use crate::model::{BusTrace, HOUR_MS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tms_geo::point::EARTH_RADIUS_M;
use tms_geo::{GeoPoint, DUBLIN_BBOX};

/// Fleet configuration; defaults reproduce Table 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Number of vehicles (Table 2: 911).
    pub buses: u32,
    /// Number of lines (Table 2: 67).
    pub lines: u32,
    /// Seconds between two reports of one vehicle (Table 2: 3/min → 20 s).
    pub report_interval_s: u32,
    /// Service start, hour of day (Table 2: 06:00).
    pub service_start_hour: u32,
    /// Service end, hours from midnight of the same day — 27 = 03:00 next
    /// day (Table 2).
    pub service_end_hour: u32,
    /// RNG seed; identical seeds produce identical days.
    pub seed: u64,
    /// GPS noise, metres (standard deviation scale).
    pub gps_noise_m: f64,
    /// Probability that a stopped-at-stop report is wrong (the dataset's
    /// "buses reported stopped while actually moving" noise).
    pub stop_report_noise: f64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            buses: 911,
            lines: 67,
            report_interval_s: 20,
            service_start_hour: 6,
            service_end_hour: 27,
            seed: 42,
            gps_noise_m: 15.0,
            stop_report_noise: 0.05,
        }
    }
}

impl FleetConfig {
    /// A scaled-down config for tests: same shape, fewer vehicles.
    pub fn small(seed: u64) -> Self {
        FleetConfig { buses: 40, lines: 8, seed, ..FleetConfig::default() }
    }

    fn validate(&self) -> Result<(), TrafficError> {
        if self.buses == 0 || self.lines == 0 {
            return Err(TrafficError::InvalidConfig {
                reason: "buses and lines must be at least 1".into(),
            });
        }
        if self.lines > self.buses {
            return Err(TrafficError::InvalidConfig {
                reason: format!("more lines ({}) than buses ({})", self.lines, self.buses),
            });
        }
        if self.report_interval_s == 0 {
            return Err(TrafficError::InvalidConfig {
                reason: "report_interval_s must be positive".into(),
            });
        }
        if self.service_end_hour <= self.service_start_hour || self.service_end_hour > 30 {
            return Err(TrafficError::InvalidConfig {
                reason: format!(
                    "service window {}..{} is invalid",
                    self.service_start_hour, self.service_end_hour
                ),
            });
        }
        if !(0.0..=1.0).contains(&self.stop_report_noise) {
            return Err(TrafficError::InvalidConfig {
                reason: "stop_report_noise must be a probability".into(),
            });
        }
        Ok(())
    }
}

/// A traffic incident (e.g. the Figure 2 accident): every bus within
/// `radius_m` of `center` during the window is slowed by `severity`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Incident {
    /// Centre of the affected zone.
    pub center: GeoPoint,
    /// Radius of the affected zone, metres.
    pub radius_m: f64,
    /// Start of the incident (ms since simulation epoch).
    pub start_ms: u64,
    /// End of the incident (ms since simulation epoch).
    pub end_ms: u64,
    /// Speed multiplier inside the incident, `0.0..1.0` (0.1 = crawl).
    pub severity: f64,
}

/// One synthetic route: a polyline with per-vertex cumulative distance.
#[derive(Debug, Clone)]
pub struct Route {
    /// The line this route serves.
    pub line_id: u32,
    /// Polyline vertices.
    pub points: Vec<GeoPoint>,
    cumulative_m: Vec<f64>,
    /// Indices of stop vertices.
    pub stops: Vec<usize>,
}

impl Route {
    /// Total route length in metres.
    pub fn length_m(&self) -> f64 {
        *self.cumulative_m.last().expect("routes have vertices")
    }

    /// The position at `dist` metres along the route (clamped).
    pub fn position_at(&self, dist: f64) -> GeoPoint {
        let d = dist.clamp(0.0, self.length_m());
        let i = match self.cumulative_m.binary_search_by(|c| c.total_cmp(&d)) {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        };
        if i + 1 >= self.points.len() {
            return self.points[self.points.len() - 1];
        }
        let seg = self.cumulative_m[i + 1] - self.cumulative_m[i];
        let f = if seg > 0.0 { (d - self.cumulative_m[i]) / seg } else { 0.0 };
        let a = self.points[i];
        let b = self.points[i + 1];
        GeoPoint { lat: a.lat + (b.lat - a.lat) * f, lon: a.lon + (b.lon - a.lon) * f }
    }
}

struct BusState {
    vehicle_id: u32,
    line: u32,
    direction: bool,
    /// Distance along the route, metres; direction=false runs backwards.
    dist_m: f64,
    delay_s: f64,
    /// Persistent per-vehicle offset (driver habits, dwell patterns):
    /// real per-cell delay variance is dominated by between-vehicle
    /// spread, not by one bus's fluctuation.
    delay_bias_s: f64,
}

/// The fleet simulator: an iterator over [`BusTrace`]s in timestamp order.
pub struct FleetGenerator {
    config: FleetConfig,
    routes: Vec<Route>,
    buses: Vec<BusState>,
    incidents: Vec<Incident>,
    rng: StdRng,
    now_ms: u64,
    end_ms: u64,
    /// Traces ready to be handed out for the current tick.
    pending: std::collections::VecDeque<BusTrace>,
}

/// Base cruise speed of a bus in km/h before congestion.
const BASE_SPEED_KMH: f64 = 34.0;
/// A bus is flagged congested below this speed.
const CONGESTION_SPEED_KMH: f64 = 9.0;
/// A report this close to a stop vertex (haversine, metres) is at the stop.
const NEAR_STOP_M: f64 = 40.0;
/// A stop whose latitude differs from the report's by more than this many
/// degrees is farther than [`NEAR_STOP_M`]: the haversine distance is at
/// least `R·|Δφ|`, and the cut sits at 40.5 m so that rounding in either
/// computation (nanometres here) never drops a stop the distance keeps.
const NEAR_STOP_CUT_DEG: f64 = 40.5 / (EARTH_RADIUS_M * std::f64::consts::PI / 180.0);

/// The stop vertex of `route` nearest to `pos` within [`NEAR_STOP_M`], as
/// (index into `route.stops`, distance); of equally near stops, the first.
/// Takes the haversine only for stops the latitude gap leaves in range.
fn near_stop(route: &Route, pos: &GeoPoint) -> Option<(usize, f64)> {
    route
        .stops
        .iter()
        .map(|&i| route.points[i])
        .enumerate()
        .filter(|(_, p)| (pos.lat - p.lat).abs() <= NEAR_STOP_CUT_DEG)
        .map(|(si, p)| (si, pos.haversine_m(&p)))
        .filter(|&(_, d)| d <= NEAR_STOP_M)
        .min_by(|a, b| a.1.total_cmp(&b.1))
}

/// Diurnal congestion factor: multiplies the base speed. Weekday rush
/// hours bite hard; weekends stay mild. `centrality` in `[0,1]` scales the
/// effect towards the city centre.
pub fn congestion_factor(hour: f64, weekend: bool, centrality: f64) -> f64 {
    let rush = |peak: f64, width: f64, depth: f64| -> f64 {
        let d = (hour - peak) / width;
        depth * (-d * d).exp()
    };
    let dip = if weekend {
        rush(13.0, 3.0, 0.25)
    } else {
        rush(8.2, 1.2, 0.55) + rush(17.5, 1.5, 0.6)
    };
    // At full centrality the dip applies fully; at the city fringe only a
    // third of it does.
    let scaled = dip * (0.33 + 0.67 * centrality);
    (1.0 - scaled).max(0.15)
}

impl FleetGenerator {
    /// Creates a generator for one service day.
    ///
    /// `day_index` selects which calendar day (day 0 is a Monday, so days
    /// 5 and 6 of each week are weekends).
    pub fn new(config: FleetConfig, day_index: u32) -> Result<Self, TrafficError> {
        Self::with_incidents(config, day_index, Vec::new())
    }

    /// Creates a generator with injected incidents.
    pub fn with_incidents(
        config: FleetConfig,
        day_index: u32,
        incidents: Vec<Incident>,
    ) -> Result<Self, TrafficError> {
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x9e37_79b9_7f4a_7c15);
        let routes = make_routes(config.lines, &mut rng);

        let day_base = u64::from(day_index) * crate::model::DAY_MS;
        let start_ms = day_base + u64::from(config.service_start_hour) * HOUR_MS;
        let end_ms = day_base + u64::from(config.service_end_hour) * HOUR_MS;

        // Buses spread round-robin over lines, alternating directions, and
        // staggered along their routes so reports interleave.
        let mut buses = Vec::with_capacity(config.buses as usize);
        // Day-specific RNG so different days differ while routes stay put.
        let mut day_rng = StdRng::seed_from_u64(config.seed.wrapping_add(u64::from(day_index)));
        for b in 0..config.buses {
            let line = b % config.lines;
            let route = &routes[line as usize];
            buses.push(BusState {
                vehicle_id: 33_000 + b,
                line,
                direction: b % 2 == 0,
                dist_m: day_rng.random_range(0.0..route.length_m()),
                // Buses start their service day on schedule.
                delay_s: 0.0,
                // The bias is mostly a property of the *line* (route
                // timing quality) plus a small vehicle component, both
                // stable across days — otherwise yesterday's statistics
                // could not predict today's traffic at a location.
                delay_bias_s: {
                    let mut lrng = StdRng::seed_from_u64(
                        config.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(line) + 1)),
                    );
                    let mut vrng = StdRng::seed_from_u64(
                        config.seed ^ (0xb5ad_4ece_da1c_e2a9u64.wrapping_mul(u64::from(b) + 1)),
                    );
                    lrng.random_range(-35.0..35.0) + vrng.random_range(-10.0..10.0)
                },
            });
        }
        Ok(FleetGenerator {
            config,
            routes,
            buses,
            incidents,
            rng: day_rng,
            now_ms: start_ms,
            end_ms,
            pending: std::collections::VecDeque::new(),
        })
    }

    /// The synthetic routes (shared with the off-line component, which
    /// seeds its quadtree from route vertices — "important coordinates of
    /// the Dublin city, e.g. main road segments").
    pub fn routes(&self) -> &[Route] {
        &self.routes
    }

    /// All route vertices — the quadtree seed set.
    pub fn route_seed_points(&self) -> Vec<GeoPoint> {
        self.routes.iter().flat_map(|r| r.points.iter().copied()).collect()
    }

    /// Whether the generated day is a weekend (day 0 is a Monday).
    pub fn is_weekend(&self) -> bool {
        (self.now_ms / crate::model::DAY_MS) % 7 >= 5
    }

    fn centrality(p: &GeoPoint) -> f64 {
        let c = DUBLIN_BBOX.center();
        let half_span = (DUBLIN_BBOX.max_lat - DUBLIN_BBOX.min_lat) * 0.5;
        let d = ((p.lat - c.lat) / half_span).hypot((p.lon - c.lon) / (half_span * 2.0));
        (1.0 - d).clamp(0.0, 1.0)
    }

    /// Advances the simulation by one report interval, producing one trace
    /// per active bus.
    fn tick(&mut self) {
        let interval_s = f64::from(self.config.report_interval_s);
        let hour = (self.now_ms % crate::model::DAY_MS) as f64 / HOUR_MS as f64;
        let weekend = self.is_weekend();
        for bi in 0..self.buses.len() {
            let (line, dist, direction) = {
                let b = &self.buses[bi];
                (b.line, b.dist_m, b.direction)
            };
            let route = &self.routes[line as usize];
            let pos = route.position_at(dist);
            let centrality = Self::centrality(&pos);
            let mut factor = congestion_factor(hour, weekend, centrality);
            // Incidents override the diurnal profile where they apply.
            for inc in &self.incidents {
                if self.now_ms >= inc.start_ms
                    && self.now_ms < inc.end_ms
                    && pos.haversine_m(&inc.center) <= inc.radius_m
                {
                    factor = factor.min(inc.severity.max(0.02));
                }
            }
            let noise: f64 = self.rng.random_range(0.85..1.15);
            let speed_kmh = (BASE_SPEED_KMH * factor * noise).max(0.0);
            let step_m = speed_kmh / 3.6 * interval_s;

            let b = &mut self.buses[bi];
            if b.direction {
                b.dist_m += step_m;
                if b.dist_m >= route.length_m() {
                    b.dist_m = route.length_m();
                    b.direction = false;
                }
            } else {
                b.dist_m -= step_m;
                if b.dist_m <= 0.0 {
                    b.dist_m = 0.0;
                    b.direction = true;
                }
            }
            // Delay drifts: the schedule assumes ~80% of base speed, so a
            // bus slower than that accumulates delay and a faster one
            // recovers. Early buses hold at stops to re-join the schedule
            // (real dispatching), so negative delay reverts towards zero
            // and cannot run away.
            let scheduled_kmh = BASE_SPEED_KMH * 0.8;
            b.delay_s += (scheduled_kmh - speed_kmh) / scheduled_kmh * interval_s;
            if b.delay_s < 0.0 {
                b.delay_s *= 0.90;
            }
            b.delay_s = b.delay_s.clamp(-120.0, 3600.0);

            // Noisy GPS.
            let jitter_bearing = self.rng.random_range(0.0..360.0);
            let jitter_dist = self.rng.random_range(0.0..self.config.gps_noise_m);
            let noisy_pos = route.position_at(self.buses[bi].dist_m).destination(jitter_bearing, jitter_dist);

            // Stop reporting: at a stop when within 40 m of a stop vertex,
            // flipped with probability stop_report_noise.
            let near_stop = near_stop(&self.routes[line as usize], &noisy_pos);
            let mut at_stop = near_stop.is_some();
            if self.rng.random_range(0.0..1.0) < self.config.stop_report_noise {
                at_stop = !at_stop;
            }
            // Reported stop ids are noisy too: the same physical stop can
            // surface under neighbouring ids (Section 4.1.2).
            let reported_stop = near_stop.map(|(si, _)| {
                let base = line * 100 + si as u32;
                if self.rng.random_range(0.0..1.0) < 0.1 {
                    base + 1
                } else {
                    base
                }
            });

            let b = &self.buses[bi];
            let reported_delay =
                b.delay_s + b.delay_bias_s + self.rng.random_range(-12.0..12.0);
            self.pending.push_back(BusTrace {
                timestamp_ms: self.now_ms,
                line_id: line,
                direction,
                position: noisy_pos,
                delay_s: reported_delay,
                congestion: speed_kmh < CONGESTION_SPEED_KMH,
                reported_stop,
                at_stop,
                vehicle_id: b.vehicle_id,
            });
        }
        self.now_ms += u64::from(self.config.report_interval_s) * 1000;
    }

    /// Expected number of traces for the whole service day.
    pub fn expected_count(&self) -> u64 {
        let window_s = u64::from(self.config.service_end_hour - self.config.service_start_hour)
            * 3600;
        window_s / u64::from(self.config.report_interval_s) * u64::from(self.config.buses)
    }
}

impl Iterator for FleetGenerator {
    type Item = BusTrace;

    fn next(&mut self) -> Option<BusTrace> {
        loop {
            if let Some(t) = self.pending.pop_front() {
                return Some(t);
            }
            if self.now_ms >= self.end_ms {
                return None;
            }
            self.tick();
        }
    }
}

/// Builds one synthetic route per line: edge point → near-centre waypoint
/// → edge point, subdivided into ~250 m segments, with a stop roughly
/// every 350 m.
fn make_routes(lines: u32, rng: &mut StdRng) -> Vec<Route> {
    let bb = DUBLIN_BBOX;
    let mut routes = Vec::with_capacity(lines as usize);
    for line_id in 0..lines {
        // Endpoints on opposite-ish edges.
        let edge_point = |rng: &mut StdRng, side: u8| -> GeoPoint {
            match side % 4 {
                0 => GeoPoint { lat: bb.min_lat, lon: rng.random_range(bb.min_lon..bb.max_lon) },
                1 => GeoPoint { lat: bb.max_lat, lon: rng.random_range(bb.min_lon..bb.max_lon) },
                2 => GeoPoint { lat: rng.random_range(bb.min_lat..bb.max_lat), lon: bb.min_lon },
                _ => GeoPoint { lat: rng.random_range(bb.min_lat..bb.max_lat), lon: bb.max_lon },
            }
        };
        let side = rng.random_range(0..4u8);
        let offset = rng.random_range(1..4u8);
        let a = edge_point(rng, side);
        let b = edge_point(rng, side + offset);
        let c = bb.center();
        let mid = GeoPoint {
            lat: c.lat + rng.random_range(-0.02..0.02),
            lon: c.lon + rng.random_range(-0.04..0.04),
        };
        // Subdivide a → mid → b.
        let mut points = Vec::new();
        for (from, to) in [(a, mid), (mid, b)] {
            let dist = from.haversine_m(&to);
            let segments = (dist / 250.0).ceil().max(1.0) as usize;
            for s in 0..segments {
                let f = s as f64 / segments as f64;
                points.push(GeoPoint {
                    lat: from.lat + (to.lat - from.lat) * f,
                    lon: from.lon + (to.lon - from.lon) * f,
                });
            }
        }
        points.push(b);
        let mut cumulative_m = Vec::with_capacity(points.len());
        let mut acc = 0.0;
        for (i, p) in points.iter().enumerate() {
            if i > 0 {
                acc += points[i - 1].haversine_m(p);
            }
            cumulative_m.push(acc);
        }
        // A stop roughly every 350 m → every ~1.4 vertices at 250 m.
        let stops = (0..points.len()).step_by(2).collect();
        routes.push(Route { line_id, points, cumulative_m, stops });
    }
    routes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DAY_MS;

    #[test]
    fn table2_shape_counts() {
        let cfg = FleetConfig::default();
        let g = FleetGenerator::new(cfg.clone(), 0).unwrap();
        // 21 service hours × 3 reports/min × 911 buses.
        assert_eq!(g.expected_count(), 21 * 3600 / 20 * 911);
        assert_eq!(g.routes().len(), 67);
    }

    #[test]
    fn generates_expected_count_and_ordering() {
        let g = FleetGenerator::new(FleetConfig::small(1), 0).unwrap();
        let expected = g.expected_count();
        let traces: Vec<BusTrace> = g.collect();
        assert_eq!(traces.len() as u64, expected);
        // Timestamps are non-decreasing and within the service window.
        for w in traces.windows(2) {
            assert!(w[0].timestamp_ms <= w[1].timestamp_ms);
        }
        assert_eq!(traces[0].timestamp_ms, 6 * HOUR_MS);
        assert!(traces.last().unwrap().timestamp_ms < 27 * HOUR_MS);
    }

    #[test]
    fn deterministic_for_a_seed() {
        let a: Vec<BusTrace> = FleetGenerator::new(FleetConfig::small(7), 0).unwrap().collect();
        let b: Vec<BusTrace> = FleetGenerator::new(FleetConfig::small(7), 0).unwrap().collect();
        assert_eq!(a, b);
        let c: Vec<BusTrace> = FleetGenerator::new(FleetConfig::small(8), 0).unwrap().collect();
        assert_ne!(a, c);
    }

    #[test]
    fn positions_stay_inside_dublin_with_margin() {
        let traces: Vec<BusTrace> =
            FleetGenerator::new(FleetConfig::small(3), 0).unwrap().take(5_000).collect();
        for t in traces {
            // GPS noise can leak a few metres past the bbox edge.
            assert!(t.position.lat > DUBLIN_BBOX.min_lat - 0.01);
            assert!(t.position.lat < DUBLIN_BBOX.max_lat + 0.01);
            assert!(t.position.lon > DUBLIN_BBOX.min_lon - 0.01);
            assert!(t.position.lon < DUBLIN_BBOX.max_lon + 0.01);
        }
    }

    #[test]
    fn rush_hour_slows_traffic() {
        // Congestion factor: 08:12 weekday well below 11:00, centre worse
        // than fringe, weekend milder than weekday.
        let rush = congestion_factor(8.2, false, 1.0);
        let midday = congestion_factor(11.0, false, 1.0);
        assert!(rush < midday * 0.7, "rush {rush} vs midday {midday}");
        let fringe = congestion_factor(8.2, false, 0.0);
        assert!(rush < fringe, "centre {rush} vs fringe {fringe}");
        let weekend = congestion_factor(8.2, true, 1.0);
        assert!(weekend > rush, "weekend {weekend} vs weekday {rush}");
    }

    #[test]
    fn weekday_delays_exceed_weekend_delays() {
        let avg_delay = |day: u32| -> f64 {
            let traces: Vec<BusTrace> = FleetGenerator::new(FleetConfig::small(5), day)
                .unwrap()
                .filter(|t| t.hour_of_day() == 9)
                .collect();
            traces.iter().map(|t| t.delay_s).sum::<f64>() / traces.len() as f64
        };
        let weekday = avg_delay(0); // Monday
        let weekend = avg_delay(5); // Saturday
        assert!(
            weekday > weekend + 10.0,
            "weekday 09:00 delay {weekday} should exceed weekend {weekend}"
        );
    }

    #[test]
    fn incident_slows_buses_inside_radius() {
        let cfg = FleetConfig::small(11);
        let routes_probe = FleetGenerator::new(cfg.clone(), 0).unwrap();
        // Put an incident on a route vertex so buses actually cross it.
        let center = routes_probe.routes()[0].points[routes_probe.routes()[0].points.len() / 2];
        let incident = Incident {
            center,
            radius_m: 800.0,
            start_ms: 10 * HOUR_MS,
            end_ms: 12 * HOUR_MS,
            severity: 0.05,
        };
        let with: Vec<BusTrace> =
            FleetGenerator::with_incidents(cfg.clone(), 0, vec![incident]).unwrap().collect();
        let congested_in_zone = with
            .iter()
            .filter(|t| {
                t.timestamp_ms >= 10 * HOUR_MS
                    && t.timestamp_ms < 12 * HOUR_MS
                    && t.position.haversine_m(&center) <= 800.0
            })
            .filter(|t| t.congestion)
            .count();
        assert!(congested_in_zone > 0, "incident must flag congestion in its zone");
    }

    #[test]
    fn invalid_configs_rejected() {
        let bad = |f: fn(&mut FleetConfig)| {
            let mut c = FleetConfig::small(0);
            f(&mut c);
            FleetGenerator::new(c, 0)
        };
        assert!(bad(|c| c.buses = 0).is_err());
        assert!(bad(|c| c.lines = 0).is_err());
        assert!(bad(|c| { c.lines = 50; c.buses = 10 }).is_err());
        assert!(bad(|c| c.report_interval_s = 0).is_err());
        assert!(bad(|c| c.service_end_hour = 5).is_err());
        assert!(bad(|c| c.stop_report_noise = 1.5).is_err());
    }

    #[test]
    fn route_geometry_is_consistent() {
        let g = FleetGenerator::new(FleetConfig::small(2), 0).unwrap();
        for r in g.routes() {
            assert!(r.length_m() > 1_000.0, "routes are at least a kilometre");
            assert!(!r.stops.is_empty());
            // position_at is monotone along the polyline ends.
            let start = r.position_at(0.0);
            let end = r.position_at(r.length_m());
            assert!(start.haversine_m(&end) <= r.length_m() + 1.0);
            // Clamping.
            assert_eq!(r.position_at(-5.0), start);
            assert_eq!(r.position_at(r.length_m() + 5.0), end);
        }
    }

    /// The near-stop search's definition: the haversine to every stop.
    fn near_stop_scan(route: &Route, pos: &GeoPoint) -> Option<(usize, f64)> {
        route
            .stops
            .iter()
            .map(|&i| route.points[i])
            .enumerate()
            .map(|(si, p)| (si, pos.haversine_m(&p)))
            .filter(|&(_, d)| d <= NEAR_STOP_M)
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    proptest::proptest! {
        /// Same stop, same distance bits as the scan, for reports up to
        /// 80 m from a stop of a random fleet's routes on any bearing; half
        /// of them on the 40 m ring or a nanometre inside or outside it.
        #[test]
        fn near_stop_is_the_scan(
            seed in 0u64..u64::MAX,
            line in 0usize..8,
            stop in 0usize..1_000,
            bearing in 0.0..360.0f64,
            dist in 0.0..80.0f64,
            ring in 0usize..6,
        ) {
            let routes = make_routes(8, &mut StdRng::seed_from_u64(seed));
            let route = &routes[line];
            let centre = route.points[route.stops[stop % route.stops.len()]];
            let dist = [dist, dist, dist, NEAR_STOP_M, NEAR_STOP_M - 1e-9, NEAR_STOP_M + 1e-9][ring];
            let pos = centre.destination(bearing, dist);
            let bits = |hit: Option<(usize, f64)>| hit.map(|(si, d)| (si, d.to_bits()));
            proptest::prop_assert_eq!(bits(near_stop(route, &pos)), bits(near_stop_scan(route, &pos)));
        }
    }

    #[test]
    fn day_index_shifts_timestamps() {
        let t0: Vec<BusTrace> =
            FleetGenerator::new(FleetConfig::small(4), 0).unwrap().take(10).collect();
        let t1: Vec<BusTrace> =
            FleetGenerator::new(FleetConfig::small(4), 1).unwrap().take(10).collect();
        assert_eq!(t1[0].timestamp_ms - t0[0].timestamp_ms, DAY_MS);
    }
}
