//! The bus trace data model (Table 1 of the paper) and its enrichment
//! (Section 3.1).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;
use tms_geo::GeoPoint;

/// Milliseconds in an hour.
pub const HOUR_MS: u64 = 3_600_000;
/// Milliseconds in a day.
pub const DAY_MS: u64 = 24 * HOUR_MS;

/// One raw bus report — the fields of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BusTrace {
    /// Time of the measurement, in milliseconds since the simulation
    /// epoch (midnight of day 0).
    pub timestamp_ms: u64,
    /// The line of the bus.
    pub line_id: u32,
    /// Travel direction flag.
    pub direction: bool,
    /// GPS position of the bus.
    pub position: GeoPoint,
    /// Seconds the bus is **behind** schedule (the dataset stores "ahead
    /// of schedule"; we store the negated value so bigger = worse, which
    /// is how every rule in the paper reads it).
    pub delay_s: f64,
    /// Whether the vehicle reports congestion.
    pub congestion: bool,
    /// Id of the closest bus stop as reported by the vehicle (noisy; the
    /// off-line component recomputes stops from scratch, Section 4.1.2).
    pub reported_stop: Option<u32>,
    /// Whether the vehicle reported being at a stop with this trace.
    pub at_stop: bool,
    /// Distinguishes different vehicles.
    pub vehicle_id: u32,
}

impl BusTrace {
    /// Hour of day of the measurement, `0..24`.
    pub fn hour_of_day(&self) -> u8 {
        ((self.timestamp_ms % DAY_MS) / HOUR_MS) as u8
    }

    /// Day index since the simulation epoch.
    pub fn day_index(&self) -> u32 {
        (self.timestamp_ms / DAY_MS) as u32
    }
}

/// A trace after the PreProcess / AreaTracker / BusStopsTracker bolts ran
/// (Figure 8): speed and actual delay computed, spatial ids attached.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnrichedTrace {
    /// The raw report.
    pub trace: BusTrace,
    /// Speed over ground since the previous report of this vehicle, km/h.
    /// `None` for a vehicle's first report.
    pub speed_kmh: Option<f64>,
    /// Change of the delay value since the previous report ("actual
    /// delay" in Section 3.1). `None` for a vehicle's first report.
    pub actual_delay_s: Option<f64>,
    /// The quadtree areas containing the position, root first — attached
    /// by the AreaTracker bolt.
    pub areas: Vec<LocId>,
    /// Recomputed closest bus stop — attached by the BusStopsTracker bolt.
    pub bus_stop: Option<LocId>,
}

/// A monitorable location: a quadtree region or a recovered bus stop.
///
/// This is the id a tuple carries and the key of every table a tuple
/// probes. Its text form — `R<n>` / `S<n>`, what rule specs, threshold
/// rows, detections and the DFS history hold — exists only through
/// [`Display`](fmt::Display) and [`FromStr`], which are exact inverses:
/// `n` is a `u32` in canonical decimal (no sign, no leading zeros).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LocId {
    /// A quadtree region, by its [`tms_geo::RegionId`] number.
    Region(u32),
    /// A recovered bus stop, by its index in the stop table.
    Stop(u32),
}

impl fmt::Display for LocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LocId::Region(n) => write!(f, "R{n}"),
            LocId::Stop(n) => write!(f, "S{n}"),
        }
    }
}

/// The text is not a [`LocId`]; carries the text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLocIdError(pub String);

impl fmt::Display for ParseLocIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} is not a location id (`R<n>` or `S<n>`, n a canonical decimal u32)", self.0)
    }
}

impl std::error::Error for ParseLocIdError {}

impl FromStr for LocId {
    type Err = ParseLocIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let digits = s.get(1..).unwrap_or("");
        // `u32::from_str` alone would take "+1" and "01".
        let canonical = digits.bytes().all(|b| b.is_ascii_digit())
            && (digits == "0" || !digits.starts_with('0'));
        match (s.as_bytes().first(), digits.parse::<u32>()) {
            (Some(b'R'), Ok(n)) if canonical => Ok(LocId::Region(n)),
            (Some(b'S'), Ok(n)) if canonical => Ok(LocId::Stop(n)),
            _ => Err(ParseLocIdError(s.to_string())),
        }
    }
}

/// The monitorable attributes of the generic rule template (Table 6),
/// ordered as in [`Attribute::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Attribute {
    /// The reported schedule delay.
    Delay,
    /// The per-report change in delay.
    ActualDelay,
    /// The computed speed.
    Speed,
    /// Delay, gated on the congestion flag (the rule only counts delayed
    /// reports that also flag congestion).
    DelayAndCongestion,
}

impl Attribute {
    /// All attributes, in Table 6 order.
    pub const ALL: [Attribute; 4] =
        [Attribute::Delay, Attribute::ActualDelay, Attribute::Speed, Attribute::DelayAndCongestion];

    /// Stable name used in table names, EPL fields and reports.
    pub fn name(self) -> &'static str {
        match self {
            Attribute::Delay => "delay",
            Attribute::ActualDelay => "actual_delay",
            Attribute::Speed => "speed",
            Attribute::DelayAndCongestion => "delay_congestion",
        }
    }

    /// Parses a stable name.
    pub fn parse(s: &str) -> Option<Attribute> {
        Attribute::ALL.into_iter().find(|a| a.name() == s)
    }

    /// Extracts the attribute's value from an enriched trace; `None` when
    /// the trace cannot provide it (first report, or the congestion gate
    /// is closed).
    pub fn value(self, t: &EnrichedTrace) -> Option<f64> {
        match self {
            Attribute::Delay => Some(t.trace.delay_s),
            Attribute::ActualDelay => t.actual_delay_s,
            Attribute::Speed => t.speed_kmh,
            Attribute::DelayAndCongestion => t.trace.congestion.then_some(t.trace.delay_s),
        }
    }

    /// Whether "abnormal" means *exceeding* the threshold (delay) or
    /// *falling below* it (speed: congestion shows as low speed,
    /// Section 3.1).
    pub fn abnormal_is_high(self) -> bool {
        !matches!(self, Attribute::Speed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tms_geo::GeoPoint;

    fn trace(ts: u64) -> BusTrace {
        BusTrace {
            timestamp_ms: ts,
            line_id: 46,
            direction: true,
            position: GeoPoint::new_unchecked(53.33, -6.26),
            delay_s: 120.0,
            congestion: false,
            reported_stop: Some(7),
            at_stop: false,
            vehicle_id: 33001,
        }
    }

    fn enriched(ts: u64) -> EnrichedTrace {
        EnrichedTrace {
            trace: trace(ts),
            speed_kmh: Some(24.0),
            actual_delay_s: Some(10.0),
            areas: vec![LocId::Region(0), LocId::Region(3)],
            bus_stop: Some(LocId::Stop(5)),
        }
    }

    #[test]
    fn hour_and_day_derivation() {
        let t = trace(6 * HOUR_MS + 30 * 60_000);
        assert_eq!(t.hour_of_day(), 6);
        assert_eq!(t.day_index(), 0);
        // 02:00 on day 1 — the tail of day 0's service window.
        let t = trace(DAY_MS + 2 * HOUR_MS);
        assert_eq!(t.hour_of_day(), 2);
        assert_eq!(t.day_index(), 1);
    }

    #[test]
    fn attribute_values() {
        let e = enriched(0);
        assert_eq!(Attribute::Delay.value(&e), Some(120.0));
        assert_eq!(Attribute::ActualDelay.value(&e), Some(10.0));
        assert_eq!(Attribute::Speed.value(&e), Some(24.0));
        // Congestion flag is off → gated attribute yields nothing.
        assert_eq!(Attribute::DelayAndCongestion.value(&e), None);
        let mut congested = enriched(0);
        congested.trace.congestion = true;
        assert_eq!(Attribute::DelayAndCongestion.value(&congested), Some(120.0));
        // First report: no derived attributes.
        let mut first = enriched(0);
        first.speed_kmh = None;
        first.actual_delay_s = None;
        assert_eq!(Attribute::Speed.value(&first), None);
        assert_eq!(Attribute::ActualDelay.value(&first), None);
    }

    #[test]
    fn loc_ids_print_as_the_text_ids_and_reject_everything_else() {
        assert_eq!(LocId::Region(0).to_string(), "R0");
        assert_eq!(LocId::Stop(4_294_967_295).to_string(), "S4294967295");
        assert_eq!("S12".parse(), Ok(LocId::Stop(12)));
        for bad in ["R01", "R", "X3", "R-1", "R4294967296", "", "R+1", "r1", "R1 ", " R1", "R١", "É1"] {
            assert_eq!(bad.parse::<LocId>(), Err(ParseLocIdError(bad.to_string())), "{bad:?}");
        }
    }

    proptest::proptest! {
        #[test]
        fn loc_id_text_round_trips(n in 0..=u32::MAX, digits in 0..=10u32, stop in proptest::arbitrary::any::<bool>()) {
            // Uniform u32s are nearly all ten digits long; the second draw
            // covers the short ones.
            for n in [n, n % 10u32.saturating_pow(digits).max(1)] {
                let id = if stop { LocId::Stop(n) } else { LocId::Region(n) };
                proptest::prop_assert_eq!(id.to_string().parse(), Ok(id));
            }
        }

        #[test]
        fn accepted_text_is_exactly_what_display_prints(
            head in 0..4usize,
            tail in proptest::collection::vec(0..16usize, 0..=11usize),
        ) {
            // Near-misses: mostly digits (zeros included, so leading zeros
            // and overflow come up), now and then a sign, a blank or a
            // non-ASCII digit.
            const TAIL: [char; 16] =
                ['0', '0', '1', '2', '3', '4', '4', '5', '6', '7', '8', '9', '9', '+', ' ', '٣'];
            let mut s = ["R", "S", "X", ""][head].to_string();
            s.extend(tail.into_iter().map(|i| TAIL[i]));
            match s.parse::<LocId>() {
                Ok(id) => proptest::prop_assert_eq!(id.to_string(), s),
                Err(e) => proptest::prop_assert_eq!(e.0, s),
            }
        }
    }

    #[test]
    fn attribute_names_round_trip() {
        for a in Attribute::ALL {
            assert_eq!(Attribute::parse(a.name()), Some(a));
        }
        assert_eq!(Attribute::parse("bogus"), None);
    }

    #[test]
    fn speed_abnormality_is_low() {
        assert!(Attribute::Delay.abnormal_is_high());
        assert!(!Attribute::Speed.abnormal_is_high());
    }
}
