//! The generic rule template (Section 3.3, Listing 1, Table 6).
//!
//! A rule is `(attribute, spatial location, window length)`: it fires when
//! the windowed average of the attribute, over the buses inside a
//! location, crosses that location's dynamic threshold
//! `mean(attribute, location) ± s·stdv(attribute, location)` for the
//! current hour and day type.

// `!(x > 0.0)` is used deliberately in validations: unlike `x <= 0.0`
// it also rejects NaN.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

use crate::error::CoreError;
use crate::latency::RuleLoad;
use serde::{Deserialize, Serialize};
use tms_geo::{BoundingBox, BusStopIndex, GeoPoint, RegionQuadtree};
use tms_traffic::{Attribute, LocId};

/// Where a rule looks (Table 6's *Location* values).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LocationSelector {
    /// All regions of one quadtree layer.
    QuadtreeLayer(u8),
    /// The quadtree's leaf regions.
    QuadtreeLeaves,
    /// The recovered bus stops.
    BusStops,
    /// An explicit area of interest: the leaves intersecting the box.
    Area(BoundingBox),
}

impl LocationSelector {
    /// The quadtree layer this selector groups under for the allocation
    /// algorithm's layer-grouping logic (Section 4.2.2). Bus stops form
    /// their own pseudo-layer below every quadtree layer.
    pub fn layer_key(&self, quadtree: &RegionQuadtree) -> u8 {
        match self {
            LocationSelector::QuadtreeLayer(l) => *l,
            LocationSelector::QuadtreeLeaves | LocationSelector::Area(_) => quadtree.max_layer(),
            LocationSelector::BusStops => quadtree.max_layer() + 1,
        }
    }

    /// The selector's part of its rules' attribute stream name: rules of
    /// one selector share a stream (and so one ring per location), and no
    /// rule sees another selector's events.
    fn stream_tag(&self) -> String {
        match self {
            LocationSelector::QuadtreeLayer(l) => format!("layer{l}"),
            LocationSelector::QuadtreeLeaves => "leaves".into(),
            LocationSelector::BusStops => "stops".into(),
            LocationSelector::Area(bb) => {
                let [a, b, c, d] = [bb.min_lat, bb.min_lon, bb.max_lat, bb.max_lon].map(f64::to_bits);
                format!("area_{a:x}_{b:x}_{c:x}_{d:x}")
            }
        }
    }
}

/// The spatial artifacts rules resolve against: the quadtree of
/// Section 4.1.1 and the bus stops of Section 4.1.2.
#[derive(Debug, Clone)]
pub struct SpatialContext {
    /// The city's hierarchical decomposition.
    pub quadtree: RegionQuadtree,
    /// The recovered bus stops.
    pub stops: BusStopIndex,
}

impl SpatialContext {
    /// The id of a quadtree region.
    pub fn region_id(id: tms_geo::RegionId) -> LocId {
        LocId::Region(id.0)
    }

    /// The id of a bus stop.
    pub fn stop_id(id: u32) -> LocId {
        LocId::Stop(id)
    }

    /// The AreaTracker step: overwrites `areas` with the ids of the regions
    /// containing `p`, root first, allocating an empty `areas` once.
    pub fn locate_areas(quadtree: &RegionQuadtree, p: &GeoPoint, areas: &mut Vec<LocId>) {
        areas.clear();
        areas.reserve(usize::from(quadtree.max_layer()) + 1);
        areas.extend(quadtree.leaf_to_root(p).map(|r| Self::region_id(r.id)));
        areas.reverse();
    }

    /// Resolves a selector to its concrete location ids, as text.
    pub fn resolve(&self, selector: &LocationSelector) -> Vec<String> {
        let regions = match selector {
            // A leaf shallower than `l` covers its area at layer `l`
            // too (unbalanced tree), so include shallower leaves.
            LocationSelector::QuadtreeLayer(l) => self
                .quadtree
                .iter()
                .filter(|r| r.layer == *l || (r.is_leaf() && r.layer < *l))
                .collect(),
            LocationSelector::QuadtreeLeaves => self.quadtree.leaves(),
            LocationSelector::Area(bb) => self.quadtree.leaves_in_area(bb),
            LocationSelector::BusStops => {
                let stops = 0..self.stops.len() as u32;
                return stops.map(|s| Self::stop_id(s).to_string()).collect();
            }
        };
        let mut ids: Vec<String> =
            regions.iter().map(|r| Self::region_id(r.id).to_string()).collect();
        ids.sort();
        ids
    }
}

/// One instantiated generic rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleSpec {
    /// Stable rule name (used in listener wiring and reports).
    pub name: String,
    /// The monitored bus-data attribute.
    pub attribute: Attribute,
    /// The monitored spatial extent.
    pub location: LocationSelector,
    /// Window length `l` (Table 6: 1, 10, 100, 1000).
    pub window_length: usize,
    /// Threshold sensitivity `s` in `mean + s·stdv`.
    pub s: f64,
    /// The operator-assigned weight `w` of Equation 2.
    pub weight: f64,
}

impl RuleSpec {
    /// A rule with weight 1 and the paper's `s = 1` default.
    pub fn new(
        name: impl Into<String>,
        attribute: Attribute,
        location: LocationSelector,
        window_length: usize,
    ) -> Self {
        RuleSpec {
            name: name.into(),
            attribute,
            location,
            window_length,
            s: 1.0,
            weight: 1.0,
        }
    }

    /// Validates the spec.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.window_length == 0 {
            return Err(CoreError::Rule {
                reason: format!("rule {}: window_length must be at least 1", self.name),
            });
        }
        if !(self.weight > 0.0) {
            return Err(CoreError::Rule {
                reason: format!("rule {}: weight must be positive", self.name),
            });
        }
        if !self.s.is_finite() {
            return Err(CoreError::Rule {
                reason: format!("rule {}: s must be finite", self.name),
            });
        }
        Ok(())
    }

    /// The rule's Function 1 load, given the number of thresholds its
    /// engine will hold (one per location × hour × day-type).
    pub fn load(&self, thresholds: usize) -> RuleLoad {
        RuleLoad { window: self.window_length, thresholds }
    }

    /// Name of the bus stream this rule reads. Attribute values flow on
    /// one stream per attribute and location selector (`bus_delay_leaves`,
    /// `bus_speed_stops`, …) with the schema `(location, hour, day, value,
    /// threshold)`, so a rule's statements see the events of its own
    /// selector's locations only; the `threshold` field is only populated
    /// by the *join with database* method, which attaches the looked-up
    /// threshold to each event.
    pub fn bus_stream(&self) -> String {
        format!("bus_{}_{}", self.attribute.name(), self.location.stream_tag())
    }

    /// Name of the per-attribute threshold stream (each rule joins its
    /// own thresholds: different attributes have different statistics).
    pub fn threshold_stream(&self) -> String {
        format!("thresholds_{}", self.attribute.name())
    }

    /// The comparison operator: abnormal delay is *above* threshold,
    /// abnormal speed *below* (Section 3.1).
    fn cmp(&self) -> &'static str {
        if self.attribute.abnormal_is_high() {
            ">"
        } else {
            "<"
        }
    }

    /// The EPL statement implementing the rule — Listing 1 instantiated
    /// for this attribute, with the threshold supplied by the *new Esper
    /// stream* method (the paper's winner, Section 5.2).
    pub fn to_epl(&self) -> String {
        format!(
            "SELECT bd2.location AS location, avg(bd2.value) AS observed, \
                    avg(thresholds.threshold) AS threshold \
             FROM {bstream}.std:lastevent() AS bd, \
                  {bstream}.std:groupwin(location).win:length({l}) AS bd2, \
                  {tstream}.win:keepall() AS thresholds \
             WHERE bd.hour = thresholds.hour AND bd.day = thresholds.day \
               AND bd.location = thresholds.location AND bd.location = bd2.location \
             GROUP BY bd2.location \
             HAVING avg(bd2.value) {cmp} avg(thresholds.threshold)",
            l = self.window_length,
            bstream = self.bus_stream(),
            tstream = self.threshold_stream(),
            cmp = self.cmp(),
        )
    }

    /// EPL for the *join with database* method: the threshold arrives
    /// attached to each event (looked up per tuple from the storage
    /// medium) instead of via a joined stream.
    pub fn to_epl_db(&self) -> String {
        format!(
            "SELECT bd2.location AS location, avg(bd2.value) AS observed, \
                    avg(bd2.threshold) AS threshold \
             FROM {bstream}.std:lastevent() AS bd, \
                  {bstream}.std:groupwin(location).win:length({l}) AS bd2 \
             WHERE bd.location = bd2.location \
             GROUP BY bd2.location \
             HAVING avg(bd2.value) {cmp} avg(bd2.threshold)",
            l = self.window_length,
            bstream = self.bus_stream(),
            cmp = self.cmp(),
        )
    }

    /// EPL for the *multiple rules* method: one statement per location /
    /// hour / day-type with the threshold inlined as a literal
    /// (Section 4.3.1).
    pub fn to_epl_static(&self, location: &str, hour: u8, day: &str, threshold: f64) -> String {
        format!(
            "SELECT bd2.location AS location, avg(bd2.value) AS observed \
             FROM {bstream}.std:lastevent() AS bd, \
                  {bstream}.std:groupwin(location).win:length({l}) AS bd2 \
             WHERE bd.location = '{location}' AND bd.hour = {hour} AND bd.day = '{day}' \
               AND bd.location = bd2.location \
             GROUP BY bd2.location \
             HAVING avg(bd2.value) {cmp} {threshold}",
            l = self.window_length,
            bstream = self.bus_stream(),
            cmp = self.cmp(),
        )
    }

    /// EPL with one global static threshold — the "optimal" baseline of
    /// Figure 10 (no retrieval cost at all).
    pub fn to_epl_global(&self, threshold: f64) -> String {
        format!(
            "SELECT bd2.location AS location, avg(bd2.value) AS observed \
             FROM {bstream}.std:lastevent() AS bd, \
                  {bstream}.std:groupwin(location).win:length({l}) AS bd2 \
             WHERE bd.location = bd2.location \
             GROUP BY bd2.location \
             HAVING avg(bd2.value) {cmp} {threshold}",
            l = self.window_length,
            bstream = self.bus_stream(),
            cmp = self.cmp(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tms_geo::{DenclueConfig, QuadtreeConfig, StopObservation, DUBLIN_BBOX};

    fn context() -> SpatialContext {
        let mut seeds = Vec::new();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..60 {
            seeds.push(GeoPoint::new_unchecked(
                rng.random_range(53.25..53.40),
                rng.random_range(-6.40..-6.10),
            ));
        }
        let quadtree = RegionQuadtree::build(
            DUBLIN_BBOX,
            &seeds,
            QuadtreeConfig { max_points_per_region: 6, max_depth: 6 },
        )
        .unwrap();
        let mut obs = Vec::new();
        for (i, center) in [(0, GeoPoint::new_unchecked(53.34, -6.26)), (1, GeoPoint::new_unchecked(53.30, -6.20))] {
            for _ in 0..10 {
                obs.push(StopObservation {
                    line_id: i,
                    direction: true,
                    position: center.destination(rng.random_range(0.0..360.0), rng.random_range(0.0..8.0)),
                    entry_bearing_deg: 90.0,
                });
            }
        }
        let stops = BusStopIndex::build(
            &obs,
            DenclueConfig::default(),
            tms_geo::busstops::SubclusterConfig::default(),
        )
        .unwrap();
        SpatialContext { quadtree, stops }
    }

    #[test]
    fn resolve_layers_and_leaves() {
        let ctx = context();
        let layer0 = ctx.resolve(&LocationSelector::QuadtreeLayer(0));
        assert_eq!(layer0, vec!["R0"]);
        let leaves = ctx.resolve(&LocationSelector::QuadtreeLeaves);
        assert_eq!(leaves.len(), ctx.quadtree.leaves().len());
        // Layer 2 covers the whole city: region count between 1 and 16.
        let layer2 = ctx.resolve(&LocationSelector::QuadtreeLayer(2));
        assert!(!layer2.is_empty() && layer2.len() <= 16);
        let stops = ctx.resolve(&LocationSelector::BusStops);
        assert_eq!(stops.len(), 2);
        assert!(stops[0].starts_with('S'));
    }

    #[test]
    fn resolve_area_is_subset_of_leaves() {
        let ctx = context();
        let area = BoundingBox::new(53.30, -6.30, 53.36, -6.20).unwrap();
        let in_area = ctx.resolve(&LocationSelector::Area(area));
        let leaves = ctx.resolve(&LocationSelector::QuadtreeLeaves);
        assert!(!in_area.is_empty());
        assert!(in_area.len() < leaves.len());
        for r in &in_area {
            assert!(leaves.contains(r));
        }
    }

    #[test]
    fn layer_keys_order_groupings() {
        let ctx = context();
        let max = ctx.quadtree.max_layer();
        assert_eq!(LocationSelector::QuadtreeLayer(2).layer_key(&ctx.quadtree), 2);
        assert_eq!(LocationSelector::QuadtreeLeaves.layer_key(&ctx.quadtree), max);
        assert_eq!(LocationSelector::BusStops.layer_key(&ctx.quadtree), max + 1);
    }

    #[test]
    fn epl_generation_matches_listing1_shape() {
        let rule = RuleSpec::new(
            "delay-leaves",
            Attribute::Delay,
            LocationSelector::QuadtreeLeaves,
            100,
        );
        let epl = rule.to_epl();
        assert!(epl.contains("bus_delay_leaves.std:lastevent()"));
        assert!(epl.contains("win:length(100)"));
        assert!(epl.contains("thresholds_delay.win:keepall()"));
        assert!(epl.contains("HAVING avg(bd2.value) > avg(thresholds.threshold)"));
        // The statement must parse with our CEP front end.
        tms_cep::parse_statement(&epl).expect("generated EPL parses");
    }

    #[test]
    fn speed_rules_flip_the_comparison() {
        let rule =
            RuleSpec::new("speed", Attribute::Speed, LocationSelector::BusStops, 10);
        let epl = rule.to_epl();
        assert!(epl.contains("bus_speed_stops"));
        assert!(epl.contains("HAVING avg(bd2.value) < avg(thresholds.threshold)"));
        tms_cep::parse_statement(&epl).unwrap();
    }

    #[test]
    fn static_epl_inlines_thresholds() {
        let rule = RuleSpec::new("d", Attribute::Delay, LocationSelector::QuadtreeLeaves, 10);
        let epl = rule.to_epl_static("R7", 8, "weekday", 123.5);
        assert!(epl.contains("bd.location = 'R7'"));
        assert!(epl.contains("bd.hour = 8"));
        assert!(epl.contains("> 123.5"));
        tms_cep::parse_statement(&epl).unwrap();
    }

    #[test]
    fn db_and_global_variants_parse() {
        let rule = RuleSpec::new("d", Attribute::Delay, LocationSelector::QuadtreeLeaves, 10);
        let db = rule.to_epl_db();
        assert!(db.contains("avg(bd2.threshold)"));
        assert!(!db.contains("keepall"), "no threshold stream in the DB variant");
        tms_cep::parse_statement(&db).unwrap();
        let global = rule.to_epl_global(42.0);
        assert!(global.contains("> 42"));
        tms_cep::parse_statement(&global).unwrap();
    }

    #[test]
    fn validation() {
        let mut r = RuleSpec::new("x", Attribute::Delay, LocationSelector::QuadtreeLeaves, 10);
        r.validate().unwrap();
        r.window_length = 0;
        assert!(r.validate().is_err());
        r.window_length = 1;
        r.weight = 0.0;
        assert!(r.validate().is_err());
        r.weight = 1.0;
        r.s = f64::NAN;
        assert!(r.validate().is_err());
    }
}
