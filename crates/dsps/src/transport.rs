//! The one serialiser: the value codec ([`WireCodec`]) and the frame
//! around every byte string that leaves a task — a snapshot or changelog
//! record on disk ([`durability`](crate::durability)).
//!
//! # Frame format
//!
//! ```text
//! [len: u32 LE][crc32(tag + payload): u32 LE][tag: u8][payload: len-1 bytes]
//! ```
//!
//! `len` counts the tag byte plus the payload, so a frame occupies
//! `8 + len` bytes. The CRC is the IEEE 802.3 polynomial ([`crc32`]). The
//! tag is a versioned message-type byte owned by the layer that writes the
//! frame; this module treats it as opaque.
//!
//! # Zero-copy discipline
//!
//! Encoding writes header + tag + payload into one [`BytesMut`] and
//! freezes it, so the payload is encoded once and written with a single
//! `write_all`. Decoding accumulates reads in a [`BytesMut`] and yields
//! each payload as a [`Bytes`] *view* into the receive buffer
//! ([`BytesMut::split_to`]) — torn and coalesced reads reassemble without
//! ever copying a payload byte.
//!
//! # Robustness
//!
//! A corrupt length field cannot be distinguished from a corrupt stream,
//! so the decoder rejects frames whose length is zero or exceeds
//! [`MAX_FRAME`] with a typed [`DspsError::Frame`] instead of attempting
//! resynchronization (a byte stream has no record boundaries to resync
//! on; the durability layer treats everything from the bad frame on as a
//! torn tail). CRC mismatches are rejected the same way.

use crate::error::DspsError;
use bytes::{Bytes, BytesMut};

/// Upper bound on the body (`tag + payload`) of a single frame: 64 MiB.
///
/// Large enough for any bolt snapshot the runtime persists, small enough
/// that a corrupt length field cannot make the decoder buffer gigabytes
/// before the CRC exposes the corruption.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Bytes of frame header preceding the body: `len` + `crc`.
const HEADER: usize = 8;

/// CRC-32 (IEEE 802.3, reflected) over `data` — the frame checksum.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Encodes one frame into `buf` (which must be empty) and freezes it
/// into an immutable view ready for a single `write_all`. `fill` writes
/// the payload; the header is patched in afterwards, so the payload is
/// encoded exactly once and never copied. A body over [`MAX_FRAME`] is an
/// error: no decoder would read it back.
pub fn try_encode_frame(
    mut buf: BytesMut,
    tag: u8,
    fill: impl FnOnce(&mut BytesMut),
) -> Result<Bytes, DspsError> {
    debug_assert!(buf.is_empty(), "encode_frame needs a fresh buffer");
    buf.put_u32_le(0); // len, patched below
    buf.put_u32_le(0); // crc, patched below
    buf.put_u8(tag);
    fill(&mut buf);
    let body_len = buf.len() - HEADER;
    if body_len > MAX_FRAME {
        return Err(DspsError::Frame {
            reason: format!("frame body of {body_len} bytes exceeds the {MAX_FRAME} byte bound"),
        });
    }
    let m = buf.as_mut();
    let crc = crc32(&m[HEADER..]);
    m[0..4].copy_from_slice(&(body_len as u32).to_le_bytes());
    m[4..8].copy_from_slice(&crc.to_le_bytes());
    Ok(buf.freeze())
}

/// [`try_encode_frame`] for a body whose size the caller bounds.
///
/// # Panics
/// When the body exceeds [`MAX_FRAME`] — an encoder-side bug, not a
/// condition of the input.
pub fn encode_frame(buf: BytesMut, tag: u8, fill: impl FnOnce(&mut BytesMut)) -> Bytes {
    try_encode_frame(buf, tag, fill).unwrap_or_else(|e| panic!("{e}"))
}

/// One decoded frame: the writer's tag and a zero-copy payload view
/// into the receive buffer.
#[derive(Debug)]
pub struct Frame {
    pub tag: u8,
    pub payload: Bytes,
}

/// Incremental frame decoder over an accumulating receive buffer.
///
/// Feed it reads with [`push`](FrameDecoder::push) in whatever sizes
/// they arrive; [`next`](FrameDecoder::next) yields complete frames in
/// order, `Ok(None)` when more bytes are needed, and a typed error on
/// corruption (after which the decoder is poisoned — the reader must
/// stop there).
pub struct FrameDecoder {
    buf: BytesMut,
    max_frame: usize,
}

impl FrameDecoder {
    pub fn new() -> Self {
        FrameDecoder { buf: BytesMut::new(), max_frame: MAX_FRAME }
    }

    /// Appends raw bytes to the receive buffer.
    pub fn push(&mut self, data: &[u8]) {
        self.buf.put_slice(data);
    }

    /// Bytes buffered but not yet yielded as frames.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Decodes the next complete frame, if one is fully buffered.
    ///
    /// Deliberately named like `Iterator::next` but fallible — the
    /// `Result<Option<_>>` shape cannot implement the trait.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Frame>, DspsError> {
        if self.buf.len() < HEADER {
            return Ok(None);
        }
        let head = &self.buf[..HEADER];
        let len = u32::from_le_bytes(head[0..4].try_into().expect("4-byte slice")) as usize;
        let crc = u32::from_le_bytes(head[4..8].try_into().expect("4-byte slice"));
        if len == 0 {
            return Err(DspsError::Frame { reason: "zero-length frame body".into() });
        }
        if len > self.max_frame {
            return Err(DspsError::Frame {
                reason: format!("frame body of {len} bytes exceeds the {} byte bound", self.max_frame),
            });
        }
        if self.buf.len() < HEADER + len {
            return Ok(None);
        }
        self.buf.advance(HEADER);
        let body = self.buf.split_to(len);
        if crc32(&body) != crc {
            return Err(DspsError::Frame { reason: "frame checksum mismatch".into() });
        }
        let tag = body[0];
        let payload = body.slice(1..body.len());
        Ok(Some(Frame { tag, payload }))
    }
}

impl Default for FrameDecoder {
    fn default() -> Self {
        FrameDecoder::new()
    }
}

/// A bounds-checked read cursor over a frame payload.
///
/// Every accessor returns [`DspsError::Frame`] on truncation instead of
/// panicking — a malformed payload from a peer or a file must never take
/// the process down.
pub struct WireReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        WireReader { data, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DspsError> {
        if self.remaining() < n {
            return Err(DspsError::Frame {
                reason: format!("payload truncated: wanted {n} bytes, {} left", self.remaining()),
            });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, DspsError> {
        u8::decode(self)
    }

    /// The leading format-version byte of a persisted value: anything but
    /// `want` is a layout this build does not read, said as such.
    pub fn expect_version(&mut self, what: &str, want: u8) -> Result<(), DspsError> {
        match self.u8()? {
            got if got == want => Ok(()),
            got => Err(DspsError::Frame {
                reason: format!("{what} has format version {got}, this build reads {want}"),
            }),
        }
    }
}

/// Manual wire encoding for a value.
///
/// The vendored serde shim can neither parse nor derive, so everything
/// that reaches the disk implements this by hand: fixed-width LE numbers,
/// `u32` length prefixes, field order is the format.
pub trait WireCodec: Sized {
    fn encode(&self, buf: &mut BytesMut);
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DspsError>;
}

macro_rules! le_number_codec {
    ($($t:ty),*) => {$(
        impl WireCodec for $t {
            fn encode(&self, buf: &mut BytesMut) {
                buf.put_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, DspsError> {
                let raw = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(raw.try_into().expect("take() returned the size asked")))
            }
        }
    )*};
}

le_number_codec!(u8, u32, u64, i64, f64);

impl WireCodec for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DspsError> {
        Ok(r.u8()? != 0)
    }
}

impl WireCodec for usize {
    fn encode(&self, buf: &mut BytesMut) {
        (*self as u64).encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DspsError> {
        Ok(u64::decode(r)? as usize)
    }
}

/// Encodes text the way [`String`] decodes it (`u32` byte count + UTF-8),
/// for callers that hold a `&str` and no `String`.
pub fn encode_str(s: &str, buf: &mut BytesMut) {
    (s.len() as u32).encode(buf);
    buf.put_slice(s.as_bytes());
}

impl WireCodec for String {
    fn encode(&self, buf: &mut BytesMut) {
        encode_str(self, buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DspsError> {
        let n = u32::decode(r)? as usize;
        String::from_utf8(r.take(n)?.to_vec())
            .map_err(|_| DspsError::Frame { reason: "invalid UTF-8 in wire string".into() })
    }
}

/// Encodes a counted sequence, `each` encoding one element — the form
/// behind `Vec<T>`, callable directly where the element type is another
/// crate's and cannot implement [`WireCodec`].
pub fn encode_seq<I: ExactSizeIterator>(
    items: I,
    buf: &mut BytesMut,
    each: impl Fn(I::Item, &mut BytesMut),
) {
    (items.len() as u32).encode(buf);
    items.for_each(|item| each(item, buf));
}

/// Decodes what [`encode_seq`] wrote. The count is checked against the
/// bytes left before anything is allocated for it (each element needs at
/// least one byte), so a hostile count is an error, not an allocation.
pub fn decode_seq<T>(
    r: &mut WireReader<'_>,
    mut each: impl FnMut(&mut WireReader<'_>) -> Result<T, DspsError>,
) -> Result<Vec<T>, DspsError> {
    let n = u32::decode(r)? as usize;
    if n > r.remaining() {
        return Err(DspsError::Frame {
            reason: format!("sequence claims {n} items with {} bytes left", r.remaining()),
        });
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(each(r)?);
    }
    Ok(out)
}

impl<T: WireCodec> WireCodec for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        encode_seq(self.iter(), buf, T::encode);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DspsError> {
        decode_seq(r, T::decode)
    }
}

impl<T: WireCodec> WireCodec for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DspsError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            k => Err(DspsError::Frame { reason: format!("invalid Option discriminant {k}") }),
        }
    }
}

impl WireCodec for std::time::Duration {
    fn encode(&self, buf: &mut BytesMut) {
        self.as_secs().encode(buf);
        self.subsec_nanos().encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DspsError> {
        let secs = u64::decode(r)?;
        let nanos = u32::decode(r)?;
        if nanos >= 1_000_000_000 {
            return Err(DspsError::Frame { reason: format!("invalid Duration nanos {nanos}") });
        }
        Ok(std::time::Duration::new(secs, nanos))
    }
}

impl<A: WireCodec, B: WireCodec> WireCodec for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DspsError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

/// Encodes a value on its own, the inverse of [`decode_value`] (a bolt's
/// snapshot bytes).
pub fn encode_value<T: WireCodec>(value: &T) -> Vec<u8> {
    let mut buf = BytesMut::new();
    value.encode(&mut buf);
    buf.freeze().to_vec()
}

/// Decodes a frame payload that is a single codec value, requiring the
/// payload to be fully consumed.
pub fn decode_value<T: WireCodec>(payload: &[u8]) -> Result<T, DspsError> {
    let mut r = WireReader::new(payload);
    let v = T::decode(&mut r)?;
    if !r.is_empty() {
        return Err(DspsError::Frame {
            reason: format!("{} trailing bytes after payload", r.remaining()),
        });
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(tag: u8, payload: &[u8]) -> Bytes {
        encode_frame(BytesMut::new(), tag, |b| b.put_slice(payload))
    }

    #[test]
    fn encode_decode_roundtrip() {
        let f = frame(7, b"hello world");
        let mut dec = FrameDecoder::new();
        dec.push(&f);
        let got = dec.next().unwrap().expect("one frame");
        assert_eq!(got.tag, 7);
        assert_eq!(&got.payload[..], b"hello world");
        assert!(dec.next().unwrap().is_none());
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn torn_and_coalesced_reads_reassemble() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&frame(1, b"alpha"));
        wire.extend_from_slice(&frame(2, b""));
        wire.extend_from_slice(&frame(3, &[0u8; 300]));
        // One byte at a time: worst-case torn reads.
        let mut dec = FrameDecoder::new();
        let mut tags = Vec::new();
        for b in &wire {
            dec.push(std::slice::from_ref(b));
            while let Some(f) = dec.next().unwrap() {
                tags.push((f.tag, f.payload.len()));
            }
        }
        assert_eq!(tags, vec![(1, 5), (2, 0), (3, 300)]);
        // Everything at once: coalesced.
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        let mut tags = Vec::new();
        while let Some(f) = dec.next().unwrap() {
            tags.push((f.tag, f.payload.len()));
        }
        assert_eq!(tags, vec![(1, 5), (2, 0), (3, 300)]);
    }

    #[test]
    fn corrupt_crc_is_a_typed_error() {
        let f = frame(1, b"payload");
        let mut wire = f.to_vec();
        let last = wire.len() - 1;
        wire[last] ^= 0xFF;
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        match dec.next() {
            Err(DspsError::Frame { reason }) => assert!(reason.contains("checksum")),
            other => panic!("expected checksum error, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_buffering() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        match dec.next() {
            Err(DspsError::Frame { reason }) => assert!(reason.contains("bound")),
            other => panic!("expected bound error, got {other:?}"),
        }
    }

    #[test]
    fn zero_length_is_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&0u32.to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        assert!(matches!(dec.next(), Err(DspsError::Frame { .. })));
    }

    #[test]
    fn payload_views_are_zero_copy_and_stable() {
        // Frames decoded earlier must stay valid while later pushes grow
        // the receive buffer (the aliasing contract with vendor bytes).
        let mut dec = FrameDecoder::new();
        dec.push(&frame(1, b"first"));
        let one = dec.next().unwrap().unwrap();
        dec.push(&frame(2, b"second"));
        let two = dec.next().unwrap().unwrap();
        assert_eq!(&one.payload[..], b"first");
        assert_eq!(&two.payload[..], b"second");
    }

    #[test]
    fn value_codecs_roundtrip() {
        let v: Vec<(u64, String)> = vec![(1, "a".into()), (2, "bb".into())];
        let f = encode_frame(BytesMut::new(), 9, |b| b.put_slice(&encode_value(&v)));
        let mut dec = FrameDecoder::new();
        dec.push(&f);
        let got = dec.next().unwrap().unwrap();
        assert_eq!(got.tag, 9);
        let back: Vec<(u64, String)> = decode_value(&got.payload).unwrap();
        assert_eq!(back, v);
        // Trailing garbage is an error, not a silent ignore.
        let mut with_junk = got.payload.to_vec();
        with_junk.push(0);
        assert!(matches!(
            decode_value::<Vec<(u64, String)>>(&with_junk),
            Err(DspsError::Frame { .. })
        ));
    }

    #[test]
    fn hostile_sequence_count_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(u32::MAX);
        let frozen = buf.freeze();
        assert!(matches!(decode_value::<Vec<u64>>(&frozen), Err(DspsError::Frame { .. })));
    }

    #[test]
    fn builtin_codecs_hold() {
        use proptest::prelude::*;
        let numbers = ((0u8..=255, 0u32..=u32::MAX), (i64::MIN..=i64::MAX, 0usize..=usize::MAX));
        let floats = (0u64..=u64::MAX).prop_map(f64::from_bits);
        let durations =
            (0u64..=u64::MAX, 0u32..1_000_000_000).prop_map(|(s, n)| std::time::Duration::new(s, n));
        let rows = prop::collection::vec((".{0,12}", prop::option::of(durations)), 0..4);
        crate::codec_harness::codec_holds((numbers, (floats, (any::<bool>(), rows))));
    }

    #[test]
    fn option_and_duration_roundtrip() {
        let mut buf = BytesMut::new();
        Some(std::time::Duration::from_millis(1500)).encode(&mut buf);
        Option::<u64>::None.encode(&mut buf);
        let frozen = buf.freeze();
        let mut r = WireReader::new(&frozen);
        assert_eq!(
            Option::<std::time::Duration>::decode(&mut r).unwrap(),
            Some(std::time::Duration::from_millis(1500))
        );
        assert_eq!(Option::<u64>::decode(&mut r).unwrap(), None);
        assert!(r.is_empty());
    }

    /// Decodes the whole byte stream fed in the given chunks.
    fn decode_chunked<'a>(
        chunks: impl Iterator<Item = &'a [u8]>,
    ) -> Vec<(u8, Vec<u8>)> {
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for chunk in chunks {
            dec.push(chunk);
            while let Some(f) = dec.next().expect("valid stream decodes") {
                out.push((f.tag, f.payload.to_vec()));
            }
        }
        assert_eq!(dec.pending(), 0, "a complete stream leaves nothing buffered");
        out
    }

    proptest::proptest! {
        /// The decoder is delivery-boundary oblivious: however the TCP
        /// layer tears or coalesces a valid frame stream, the frame
        /// sequence that comes out is identical. Exhaustive over *every*
        /// two-chunk split of each generated stream, plus an arbitrary
        /// multi-chunk partition.
        #[test]
        fn any_split_of_a_valid_stream_decodes_identically(
            frames in proptest::collection::vec(
                (0u8..=255, proptest::collection::vec(0u8..=255, 0..48)),
                0..5,
            ),
            cuts in proptest::collection::vec(0usize..4096, 0..8),
        ) {
            let mut wire = Vec::new();
            for (tag, payload) in &frames {
                wire.extend_from_slice(&frame(*tag, payload));
            }
            let expected: Vec<(u8, Vec<u8>)> =
                frames.iter().map(|(t, p)| (*t, p.clone())).collect();

            // Fully coalesced.
            proptest::prop_assert_eq!(
                &decode_chunked(std::iter::once(&wire[..])), &expected);
            // Every two-chunk split: a torn read at each byte boundary.
            for i in 0..=wire.len() {
                let (a, b) = wire.split_at(i);
                proptest::prop_assert_eq!(
                    &decode_chunked([a, b].into_iter()), &expected);
            }
            // An arbitrary multi-chunk partition (possibly empty chunks).
            let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (wire.len() + 1)).collect();
            bounds.push(0);
            bounds.push(wire.len());
            bounds.sort_unstable();
            proptest::prop_assert_eq!(
                &decode_chunked(bounds.windows(2).map(|w| &wire[w[0]..w[1]])),
                &expected);
        }
    }
}
