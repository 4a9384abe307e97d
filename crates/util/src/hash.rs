//! Fast non-cryptographic hashing: the Fx-style [`FxHasher`] plus 128-bit
//! incremental [`Fingerprint`]s.
//!
//! The lookahead memo caches hash sub-collection identities millions of
//! times per tree; SipHash dominates profiles there. [`FxHasher`] is the
//! classic Fx/FireFox mix — multiply by a large odd constant and rotate.
//! It is meant for integer and fingerprint keys: its output is the raw last
//! multiply, whose low bits are weak for byte strings, so string tables
//! probe by the mixed hash of [`crate::intern`] instead.
//! [`Fingerprint`] is a commutative 128-bit content digest (two independent
//! splitmix64 lanes summed over the elements) that supports O(1) incremental
//! update: adding or removing an element is a wrapping add/sub per lane, and
//! the digest of a set difference is the difference of digests. That last
//! property is what makes allocation-free partitioning possible — a view
//! split computes the yes-side digest while merging and derives the no-side
//! digest by subtraction.
//!
//! Neither primitive offers HashDoS protection, which is fine — every key
//! hashed in this workspace is produced by the program itself, never by an
//! adversary. Fingerprint equality is probabilistic: two distinct id sets
//! collide with probability ≈ `p²/2¹²⁸` over `p` distinct fingerprints ever
//! compared, negligible for any realizable workload (`p = 2⁴⁰` gives
//! ≈ `2⁻⁴⁸`).

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant used by the Fx mix (64-bit golden-ratio odd).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fast non-cryptographic hasher; see module docs for the trade-offs.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.add_to_hash(word);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf) | ((rem.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// The splitmix64 finalizer: a strong 64-bit bijective mixer.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Lane-separation constants (digits of π and e) so the two fingerprint
/// lanes mix the same element through unrelated bijections.
const LANE_LO: u64 = 0x243F_6A88_85A3_08D3;
const LANE_HI: u64 = 0xB7E1_5162_8AED_2A6A;

/// A 128-bit commutative content digest over a set of `u64` elements.
///
/// `Fingerprint` of a set is the lane-wise wrapping sum of
/// [`Fingerprint::of`] over its elements, so it is order-independent,
/// incrementally maintainable (`+=` / `-=` one element's digest), and
/// subtractive across set difference. Equality is probabilistic with
/// collision odds ≈ `p²/2¹²⁸` (see the module docs); every use in this
/// workspace pairs the digest with the set length for extra safety.
#[derive(Copy, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Fingerprint {
    lo: u64,
    hi: u64,
}

impl Fingerprint {
    /// The digest of the empty set.
    pub const ZERO: Fingerprint = Fingerprint { lo: 0, hi: 0 };

    /// The digest of the singleton set `{x}`.
    #[inline]
    pub fn of(x: u64) -> Self {
        let lo = mix64(x ^ LANE_LO);
        Self {
            lo,
            // Chain through the lo lane so the two lanes are unrelated even
            // for structured inputs like consecutive integers.
            hi: mix64(lo ^ LANE_HI),
        }
    }

    /// True for the empty-set digest.
    #[inline]
    pub fn is_zero(self) -> bool {
        self == Self::ZERO
    }

    /// The raw 128-bit value (for diagnostics and serialization).
    #[inline]
    pub fn as_u128(self) -> u128 {
        (self.hi as u128) << 64 | self.lo as u128
    }

    /// Reconstructs a digest from its [`Self::as_u128`] value (the
    /// deserialization inverse — no mixing happens here).
    #[inline]
    pub fn from_u128(raw: u128) -> Self {
        Self {
            lo: raw as u64,
            hi: (raw >> 64) as u64,
        }
    }
}

impl std::ops::Add for Fingerprint {
    type Output = Fingerprint;
    #[inline]
    fn add(self, rhs: Fingerprint) -> Fingerprint {
        Fingerprint {
            lo: self.lo.wrapping_add(rhs.lo),
            hi: self.hi.wrapping_add(rhs.hi),
        }
    }
}

impl std::ops::AddAssign for Fingerprint {
    #[inline]
    fn add_assign(&mut self, rhs: Fingerprint) {
        *self = *self + rhs;
    }
}

impl std::ops::Sub for Fingerprint {
    type Output = Fingerprint;
    #[inline]
    fn sub(self, rhs: Fingerprint) -> Fingerprint {
        Fingerprint {
            lo: self.lo.wrapping_sub(rhs.lo),
            hi: self.hi.wrapping_sub(rhs.hi),
        }
    }
}

impl std::ops::SubAssign for Fingerprint {
    #[inline]
    fn sub_assign(&mut self, rhs: Fingerprint) {
        *self = *self - rhs;
    }
}

impl std::iter::Sum for Fingerprint {
    fn sum<I: Iterator<Item = Fingerprint>>(iter: I) -> Fingerprint {
        iter.fold(Fingerprint::ZERO, |acc, fp| acc + fp)
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(bytes);
        h.finish()
    }

    /// Fx output is persisted — plan-file checksums and collection
    /// identity, the `weight_fp` wire labels, fault-injection streams — so
    /// these values must never change.
    #[test]
    fn known_answers_are_pinned() {
        for (bytes, want) in [
            (&b""[..], 0),
            (b"a", 0x7545_6665_d3e6_0275),
            (b"e262143", 0xbcae_64ab_6bed_46c9),
            (b"hello world", 0x2d91_ebaf_2845_4230),
            (b"0123456789abcdef", 0x0ef6_021b_7f61_a45b),
        ] {
            assert_eq!(hash_bytes(bytes), want, "{bytes:?}");
        }
        let mut h = FxHasher::default();
        for i in [1u64, 2, 3] {
            h.write_u64(i);
        }
        assert_eq!(h.finish(), 0xfdcb_2688_e076_0126);
        let mut h = FxHasher::default();
        h.write_u32(0xdead_beef);
        h.write_usize(7);
        assert_eq!(h.finish(), 0x9193_bae6_88a2_8b47);
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_bytes(b"hello world"), hash_bytes(b"hello world"));
    }

    #[test]
    fn distinguishes_lengths_of_zero_padding() {
        // A trailing partial chunk encodes its length, so `[0]` and `[0,0]`
        // must hash differently even though the padded words are equal.
        assert_ne!(hash_bytes(&[0]), hash_bytes(&[0, 0]));
        assert_ne!(hash_bytes(&[]), hash_bytes(&[0]));
    }

    #[test]
    fn distinguishes_neighbouring_integers() {
        let mut seen = std::collections::HashSet::new();
        for i in 0u64..10_000 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            assert!(seen.insert(h.finish()), "collision at {i}");
        }
    }

    #[test]
    fn map_alias_works() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn fingerprint_is_commutative_and_subtractive() {
        let a = Fingerprint::of(3);
        let b = Fingerprint::of(1_000_000);
        let c = Fingerprint::of(u64::MAX);
        assert_eq!(a + b + c, c + a + b);
        assert_eq!((a + b + c) - b, a + c);
        let mut inc = Fingerprint::ZERO;
        inc += a;
        inc += b;
        assert_eq!(inc, a + b);
        inc -= a;
        assert_eq!(inc, b);
        assert_eq!([a, b, c].into_iter().sum::<Fingerprint>(), a + b + c);
    }

    #[test]
    fn fingerprint_zero_is_empty_digest() {
        assert!(Fingerprint::ZERO.is_zero());
        assert_eq!(Fingerprint::default(), Fingerprint::ZERO);
        assert!(!Fingerprint::of(0).is_zero(), "element 0 must still mix");
        assert_eq!(Fingerprint::ZERO.as_u128(), 0);
    }

    #[test]
    fn fingerprint_u128_round_trips() {
        for fp in [
            Fingerprint::ZERO,
            Fingerprint::of(0),
            Fingerprint::of(42) + Fingerprint::of(u64::MAX),
        ] {
            assert_eq!(Fingerprint::from_u128(fp.as_u128()), fp);
        }
    }

    #[test]
    fn fingerprints_of_dense_ids_are_distinct() {
        // Consecutive small integers are the worst case for an additive
        // digest; both lanes must separate them and their pairwise sums.
        let mut seen = std::collections::HashSet::new();
        for i in 0u64..2_000 {
            assert!(seen.insert(Fingerprint::of(i)), "singleton collision {i}");
        }
        // All 2-subsets of a small range — an additive digest over a weak
        // element hash (e.g. identity) would collide constantly here.
        let mut pair_seen = std::collections::HashSet::new();
        for i in 0u64..64 {
            for j in (i + 1)..64 {
                let fp = Fingerprint::of(i) + Fingerprint::of(j);
                assert!(pair_seen.insert(fp), "pair collision {{{i},{j}}}");
            }
        }
    }

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(42), mix64(42));
        // Zero is the mixer's fixed point; Fingerprint::of pre-whitens with
        // a lane constant so no real input ever hits it.
        assert_eq!(mix64(0), 0);
        assert_ne!(mix64(1), 0);
        assert_ne!(mix64(1), mix64(2));
    }

    #[test]
    fn chunked_writes_match_single_write() {
        // Hashing the same logical bytes through `write` must not depend on
        // how callers split their buffers only when split on 8-byte borders.
        let data: Vec<u8> = (0..64).collect();
        let whole = hash_bytes(&data);
        let mut h = FxHasher::default();
        h.write(&data[..32]);
        h.write(&data[32..]);
        assert_eq!(whole, h.finish());
    }
}
