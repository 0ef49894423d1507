//! Stream groupings: how an upstream task's emissions are distributed over
//! a downstream component's tasks.

use std::fmt;
use std::sync::Arc;

/// Key extractor for fields grouping: maps a message to a hashable key.
pub type FieldsKeyFn<T> = Arc<dyn Fn(&T) -> u64 + Send + Sync>;

/// A stream grouping (Section 2.1.1).
#[derive(Clone)]
pub enum Grouping<T> {
    /// Round-robin over the downstream tasks (Storm's shuffle grouping is
    /// random; round-robin gives the same balance deterministically).
    Shuffle,
    /// Hash of a message key picks the task: all messages with one key go
    /// to one task. This is how the AreaTracker keeps one quadtree per
    /// task coherent and how fields-partitioned state stays local.
    Fields(FieldsKeyFn<T>),
    /// Every downstream task receives every message — the *All Grouping*
    /// baseline of Figure 12/13 routes bus traces this way.
    All,
    /// The **emitting task** names the destination task index
    /// ([`crate::runtime::Emitter::emit_direct`]); used by the Splitter
    /// bolt to route each tuple to the Esper engine that owns its spatial
    /// region (Section 4.3.2).
    Direct,
}

impl<T> Grouping<T> {
    /// Fields grouping from a key function.
    pub fn fields(key: impl Fn(&T) -> u64 + Send + Sync + 'static) -> Self {
        Grouping::Fields(Arc::new(key))
    }

    /// Fields grouping that hashes the extracted key with a precomputed
    /// [`KeyHasher`]: the hasher state is built once when the grouping is
    /// declared and cloned per tuple, instead of re-running
    /// `DefaultHasher::new()`'s initialization on every emission. Produces
    /// exactly the same task assignment as `Grouping::fields(|m| hash_key(..))`.
    pub fn fields_hashed<K: std::hash::Hash>(
        extract: impl Fn(&T) -> K + Send + Sync + 'static,
    ) -> Self {
        let hasher = KeyHasher::new();
        Grouping::Fields(Arc::new(move |msg| hasher.hash(&extract(msg))))
    }
}

impl<T> fmt::Debug for Grouping<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Grouping::Shuffle => "Shuffle",
            Grouping::Fields(_) => "Fields",
            Grouping::All => "All",
            Grouping::Direct => "Direct",
        };
        f.write_str(s)
    }
}

/// Hashes an arbitrary `Hash` key for [`Grouping::fields`].
///
/// Builds a fresh [`StableSipHasher13`] per call; on per-tuple hot paths
/// prefer [`KeyHasher`] (or [`Grouping::fields_hashed`]), which clones a
/// precomputed hasher state and yields identical values.
pub fn hash_key<K: std::hash::Hash>(key: &K) -> u64 {
    use std::hash::Hasher;
    let mut h = StableSipHasher13::new();
    key.hash(&mut h);
    h.finish()
}

/// A self-contained SipHash-1-3 with pinned zero keys, implementing
/// `std::hash::Hasher`.
///
/// `std`'s `DefaultHasher` happens to be the same algorithm today, but its
/// documentation explicitly reserves the right to change between releases —
/// useless for anything that must hash identically across runs or binary
/// versions (stable routing of unknown regions, keys whose task restores
/// durable state on a resubmit). This implementation is pinned by the
/// `stable_sip_hash_values_are_pinned` test: the bytes-to-u64 mapping is
/// part of the crate's public contract and may never change.
#[derive(Clone, Debug)]
pub struct StableSipHasher13 {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
    /// Pending input bytes, little-endian packed into the low `nbuf` bytes.
    buf: u64,
    nbuf: usize,
    /// Total bytes written, feeding the length byte of the final word.
    len: u64,
}

impl Default for StableSipHasher13 {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
const fn sipround(mut v: (u64, u64, u64, u64)) -> (u64, u64, u64, u64) {
    v.0 = v.0.wrapping_add(v.1);
    v.1 = v.1.rotate_left(13) ^ v.0;
    v.0 = v.0.rotate_left(32);
    v.2 = v.2.wrapping_add(v.3);
    v.3 = v.3.rotate_left(16) ^ v.2;
    v.0 = v.0.wrapping_add(v.3);
    v.3 = v.3.rotate_left(21) ^ v.0;
    v.2 = v.2.wrapping_add(v.1);
    v.1 = v.1.rotate_left(17) ^ v.2;
    v.2 = v.2.rotate_left(32);
    v
}

impl StableSipHasher13 {
    /// The initial state for the pinned zero keys (`k0 = k1 = 0`).
    pub const fn new() -> Self {
        // v_n = k ^ SipHash's "somepseudorandomlygeneratedbytes" constants.
        StableSipHasher13 {
            v0: 0x736f_6d65_7073_6575,
            v1: 0x646f_7261_6e64_6f6d,
            v2: 0x6c79_6765_6e65_7261,
            v3: 0x7465_6462_7974_6573,
            buf: 0,
            nbuf: 0,
            len: 0,
        }
    }

    #[inline]
    fn compress(&mut self, m: u64) {
        self.v3 ^= m;
        let v = sipround((self.v0, self.v1, self.v2, self.v3));
        (self.v0, self.v1, self.v2, self.v3) = v;
        self.v0 ^= m;
    }
}

impl std::hash::Hasher for StableSipHasher13 {
    fn write(&mut self, mut bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        // Top up a partially filled word first.
        if self.nbuf > 0 {
            let take = (8 - self.nbuf).min(bytes.len());
            for &b in &bytes[..take] {
                self.buf |= (b as u64) << (8 * self.nbuf);
                self.nbuf += 1;
            }
            bytes = &bytes[take..];
            if self.nbuf == 8 {
                let m = self.buf;
                self.buf = 0;
                self.nbuf = 0;
                self.compress(m);
            }
        }
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.compress(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.buf |= (b as u64) << (8 * self.nbuf);
            self.nbuf += 1;
        }
    }

    fn finish(&self) -> u64 {
        // Final word: low bytes = pending input, top byte = total length.
        let m = self.buf | (self.len << 56);
        let mut v = (self.v0, self.v1, self.v2, self.v3);
        v.3 ^= m;
        v = sipround(v);
        v.0 ^= m;
        v.2 ^= 0xff;
        v = sipround(v);
        v = sipround(v);
        v = sipround(v);
        v.0 ^ v.1 ^ v.2 ^ v.3
    }
}

/// Reusable fixed-key SipHash state for fields grouping: constructed once,
/// cloned per key. Every instance starts from the same pinned
/// [`StableSipHasher13`] state, so the mapping from key to hash is
/// deterministic across tasks, processes and Rust releases — the property
/// stable routing relies on.
#[derive(Clone, Debug)]
pub struct KeyHasher {
    proto: StableSipHasher13,
}

impl Default for KeyHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl KeyHasher {
    /// A hasher over the pinned initial state (`const`, so prototypes can
    /// live in statics).
    pub const fn new() -> Self {
        KeyHasher { proto: StableSipHasher13::new() }
    }

    /// Hashes `key` from the precomputed prototype state; `hash_key`-compatible.
    pub fn hash<K: std::hash::Hash>(&self, key: &K) -> u64 {
        use std::hash::Hasher;
        let mut h = self.proto.clone();
        key.hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_grouping_is_deterministic() {
        let g: Grouping<String> = Grouping::fields(|s: &String| hash_key(s));
        let Grouping::Fields(f) = &g else { panic!() };
        assert_eq!(f(&"R1".to_string()), f(&"R1".to_string()));
        assert_ne!(f(&"R1".to_string()), f(&"R2".to_string()));
    }

    #[test]
    fn stable_sip_hash_values_are_pinned() {
        // The bytes-to-u64 mapping is a cross-process/cross-release
        // contract: unknown-region routing and fields grouping both
        // depend on it. These constants may never change.
        for (key, expected) in [
            ("", 0x3040_6ea5_23c5_3defu64),
            ("R1", 0xbcd2_7e2f_fc42_3144u64),
            ("a-much-longer-route-identifier", 0x3f9e_d68b_0375_4c16u64),
        ] {
            assert_eq!(hash_key(&key), expected, "str key {key:?}");
        }
        for (key, expected) in [(0u64, 0xbd60_acb6_58c7_9e45u64), (u64::MAX, 0x2f20_5be2_fec8_e38du64)] {
            assert_eq!(hash_key(&key), expected, "u64 key {key}");
        }
    }

    #[test]
    fn stable_sip_hash_streams_like_one_shot() {
        use std::hash::Hasher;
        // Split writes at every boundary must agree with one big write.
        let data: Vec<u8> = (0u8..64).collect();
        let mut whole = StableSipHasher13::new();
        whole.write(&data);
        let expected = whole.finish();
        for split in 0..data.len() {
            let mut h = StableSipHasher13::new();
            h.write(&data[..split]);
            h.write(&data[split..]);
            assert_eq!(h.finish(), expected, "split at {split}");
        }
    }

    #[test]
    fn key_hasher_matches_hash_key() {
        let kh = KeyHasher::new();
        for key in ["R1", "R2", "a-much-longer-route-identifier", ""] {
            assert_eq!(kh.hash(&key), hash_key(&key));
        }
        for key in [0u64, 1, 7, u64::MAX] {
            assert_eq!(kh.hash(&key), hash_key(&key));
        }
    }

    #[test]
    fn fields_hashed_matches_fields_with_hash_key() {
        let fast: Grouping<String> = Grouping::fields_hashed(|s: &String| s.clone());
        let slow: Grouping<String> = Grouping::fields(|s: &String| hash_key(s));
        let (Grouping::Fields(f), Grouping::Fields(g)) = (&fast, &slow) else { panic!() };
        for s in ["line-72", "line-9", "depot"] {
            assert_eq!(f(&s.to_string()), g(&s.to_string()));
        }
    }

    #[test]
    fn debug_names() {
        assert_eq!(format!("{:?}", Grouping::<u32>::Shuffle), "Shuffle");
        assert_eq!(format!("{:?}", Grouping::<u32>::All), "All");
        assert_eq!(format!("{:?}", Grouping::<u32>::Direct), "Direct");
    }
}
