//! Pins the fleet simulator's output: every field of every `BusTrace` of
//! the `FleetConfig::small(9)` fleet, floats by their bits, on a weekday
//! (day 0) and a Saturday (day 5), from the start of service to 12:00.
//! The digests were taken with this same file before the near-stop search
//! was cut by latitude; a change to the generator that moves one report,
//! one stop id or one random draw changes them.

use tms_traffic::{BusTrace, FleetConfig, FleetGenerator, DAY_MS, HOUR_MS};

/// FNV-1a, so the digest does not depend on the standard library's hasher.
fn fnv(digest: &mut u64, word: u64) {
    for i in 0..8 {
        *digest = (*digest ^ ((word >> (8 * i)) & 0xff)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// `(traces, digest)` of day `day`'s reports before 12:00.
fn morning(day: u32) -> (usize, u64) {
    let noon = u64::from(day) * DAY_MS + 12 * HOUR_MS;
    let traces = FleetGenerator::new(FleetConfig::small(9), day)
        .unwrap()
        .take_while(|t| t.timestamp_ms < noon);
    let (mut n, mut digest) = (0, FNV_OFFSET);
    for t in traces {
        let BusTrace {
            timestamp_ms,
            line_id,
            direction,
            position,
            delay_s,
            congestion,
            reported_stop,
            at_stop,
            vehicle_id,
        } = t;
        for word in [
            timestamp_ms,
            u64::from(line_id),
            u64::from(direction),
            position.lat.to_bits(),
            position.lon.to_bits(),
            delay_s.to_bits(),
            u64::from(congestion),
            reported_stop.map_or(u64::MAX, u64::from),
            u64::from(at_stop),
            u64::from(vehicle_id),
        ] {
            fnv(&mut digest, word);
        }
        n += 1;
    }
    (n, digest)
}

#[test]
fn the_simulated_fleet_is_the_one_it_was() {
    assert_eq!(morning(0), GOLDEN_DAY0);
    assert_eq!(morning(5), GOLDEN_DAY5);
}

const GOLDEN_DAY0: (usize, u64) = (43_200, 7_182_920_289_509_848_345);
const GOLDEN_DAY5: (usize, u64) = (43_200, 17_442_993_545_479_557_695);
