//! Decode-hardening harness for [`WireCodec`] types (test builds only).
//!
//! One property set for every type that reaches the disk, instantiated
//! per type by `tms-dsps`'s own tests and — this file is included by path
//! from `tms-core`'s `lib.rs`, hence the `tms_dsps::` paths — by the tests
//! of the codecs `tms-core` owns. A `WireCodec` impl
//! without a `codec_holds` test is an untested decoder of outside bytes.

use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
use std::fmt::Debug;
use tms_dsps::transport::{decode_value, encode_value, WireCodec};

/// Generated values per type; each is cut at every byte and flipped at
/// every bit, so the decoder runs ~9 × its encoded length per value.
const CASES: usize = 48;

/// For values drawn from `strategy`: encode → [`decode_value`] is the
/// identity (compared through `Debug` and through the re-encoded bytes, so
/// a NaN is held to its bits); every strict prefix is an `Err`; every
/// single-bit flip and a run of arbitrary bytes decode to `Ok` or `Err` —
/// never a panic, and never an allocation sized by a count the bytes do
/// not back (that one aborts the test process rather than failing it).
pub fn codec_holds<T: WireCodec + Debug>(strategy: impl Strategy<Value = T>) {
    let mut rng = TestRng::deterministic(std::any::type_name::<T>());
    for case in 0..CASES {
        let value = strategy.generate(&mut rng);
        let bytes = encode_value(&value);
        let back: T = decode_value(&bytes)
            .unwrap_or_else(|e| panic!("case {case}: {value:?} does not decode: {e}"));
        assert_eq!(format!("{back:?}"), format!("{value:?}"), "case {case}: value changed");
        assert_eq!(encode_value(&back), bytes, "case {case}: bytes of {value:?} changed");
        for cut in 0..bytes.len() {
            assert!(
                decode_value::<T>(&bytes[..cut]).is_err(),
                "case {case}: {value:?} cut at byte {cut} of {} still decodes",
                bytes.len()
            );
        }
        let mut flipped = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = decode_value::<T>(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        let noise: Vec<u8> = (0..rng.below(96)).map(|_| rng.next_u64() as u8).collect();
        let _ = decode_value::<T>(&noise);
    }
}
