//! Word-parallel set-id bitmaps and the inverted postings index.
//!
//! The selection hot kernels — splitting a sub-collection on an entity and
//! counting entity occurrences — used to walk per-element `Vec<SetId>`
//! views. This module provides the bitmap substrate that turns them into
//! word-parallel operations:
//!
//! * [`IdBitmap`] — a dense `u64`-word bitmap over a collection's `SetId`
//!   space (`n` sets ⇒ `⌈n/64⌉` words), with popcount-based length and an
//!   increasing-id iterator. A [`crate::SubCollection`] carries one
//!   alongside its sorted id vector, so `partition` becomes one pass of
//!   `AND` / `ANDNOT` over the words.
//! * [`EntityPostings`] — the inverted index in bitmap form: for each
//!   entity, the bitmap of member sets containing it. Built once per
//!   [`crate::Collection`] (and therefore shared through the service's
//!   `Arc<Snapshot>` by every session over that collection).
//!
//! # Dense vs. sparse representation
//!
//! A dense bitmap costs `⌈n/64⌉` words (`n/8` bytes) per entity regardless
//! of how many sets contain it, which is wasteful for the long tail of rare
//! entities. [`EntityPostings`] therefore materializes a bitmap only for
//! entities whose sorted posting list (already held by the collection's
//! inverted index) is at least as long as the bitmap's word count:
//! at the threshold the bitmap costs at most 2× the sparse list's memory
//! (8 bytes/word vs. 4 bytes/id), and above it the bitmap is both smaller
//! per additional member and O(words) to intersect instead of
//! O(|C| + |list|) to merge. Entities below the threshold keep only the
//! sparse list; partition and counting fall back to per-id probes against
//! the *view's* bitmap, which is O(|list|) — cheap exactly because the
//! list is short. See DESIGN.md §8 for the full cost model.

use crate::entity::{EntityId, SetId};

/// A dense bitmap over a collection's `SetId` space.
///
/// All binary operations require both operands to come from the same
/// collection (equal word counts); this is a programmer invariant, checked
/// with debug assertions in the hot paths.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct IdBitmap {
    words: Vec<u64>,
}

impl IdBitmap {
    /// Words needed for `n_sets` bits.
    #[inline]
    pub fn words_for(n_sets: usize) -> usize {
        n_sets.div_ceil(64)
    }

    /// An empty bitmap sized for `n_sets` ids.
    pub fn empty(n_sets: usize) -> Self {
        Self {
            words: vec![0; Self::words_for(n_sets)],
        }
    }

    /// A bitmap with ids `0..n_sets` all present.
    pub fn full(n_sets: usize) -> Self {
        let mut words = vec![u64::MAX; Self::words_for(n_sets)];
        let tail = n_sets % 64;
        if tail != 0 {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << tail) - 1;
            }
        }
        Self { words }
    }

    /// Builds from sorted, in-range ids.
    pub fn from_sorted_ids(n_sets: usize, ids: &[SetId]) -> Self {
        let mut bm = Self::empty(n_sets);
        bm.set_from_ids(ids);
        bm
    }

    /// Clears the bitmap and resizes it for `n_sets` ids, reusing the word
    /// buffer (the recycling entry point for scratch-owned bitmaps).
    pub fn reset(&mut self, n_sets: usize) {
        self.words.clear();
        self.words.resize(Self::words_for(n_sets), 0);
    }

    /// Sets the bits for `ids` (does not clear existing bits first).
    pub fn set_from_ids(&mut self, ids: &[SetId]) {
        for &id in ids {
            self.insert(id);
        }
    }

    /// Clears the bitmap, resizes it for the same id space as `other`, and
    /// copies `other`'s words into the reused buffer.
    pub fn copy_words_from(&mut self, other: &Self) {
        self.words.clear();
        self.words.extend_from_slice(&other.words);
    }

    /// Sets bit `id`.
    #[inline]
    pub fn insert(&mut self, id: SetId) {
        self.words[id.0 as usize / 64] |= 1u64 << (id.0 % 64);
    }

    /// Clears bit `id`.
    #[inline]
    pub fn remove(&mut self, id: SetId) {
        self.words[id.0 as usize / 64] &= !(1u64 << (id.0 % 64));
    }

    /// The smallest id present.
    pub fn first(&self) -> Option<SetId> {
        self.words
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(wi, &w)| SetId(wi as u32 * 64 + w.trailing_zeros()))
    }

    /// Tests bit `id` (false when out of range).
    #[inline]
    pub fn contains(&self, id: SetId) -> bool {
        self.words
            .get(id.0 as usize / 64)
            .is_some_and(|w| w >> (id.0 % 64) & 1 == 1)
    }

    /// Number of ids present (popcount over the words).
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no id is present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The raw words.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable raw words (for kernels that write both children of a split
    /// in one pass).
    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut Vec<u64> {
        &mut self.words
    }

    /// `|self ∩ other|` by word-parallel popcount.
    pub fn intersection_len(&self, other: &Self) -> usize {
        debug_assert_eq!(self.words.len(), other.words.len());
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Iterates the present ids in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = SetId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros();
                w &= w - 1;
                Some(SetId(wi as u32 * 64 + bit))
            })
        })
    }
}

impl setdisc_util::mem::HeapSize for IdBitmap {
    fn heap_bytes(&self) -> usize {
        setdisc_util::mem::vec_bytes(&self.words)
    }
}

impl std::fmt::Debug for IdBitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter().map(|id| id.0)).finish()
    }
}

/// The inverted index in bitmap form: entity → bitmap of member sets, for
/// the entities frequent enough to clear the dense threshold (see the
/// module docs); rare entities keep only the collection's sorted posting
/// lists.
pub struct EntityPostings {
    /// Indexed by entity id; `None` below the dense threshold.
    dense: Vec<Option<Box<IdBitmap>>>,
    dense_entities: usize,
    scan_cost: u64,
}

impl EntityPostings {
    /// Builds the index from the collection's inverted lists, yielded in
    /// entity order (the `e`-th list = sorted ids of the sets containing
    /// entity `e`), over `n_sets` sets.
    pub fn build<'a>(lists: impl IntoIterator<Item = &'a [SetId]>, n_sets: usize) -> Self {
        let words = IdBitmap::words_for(n_sets);
        let mut dense_entities = 0;
        let mut scan_cost = 0u64;
        let dense = lists
            .into_iter()
            .map(|list| {
                if list.is_empty() {
                    return None;
                }
                if list.len() >= words {
                    dense_entities += 1;
                    scan_cost += words as u64;
                    Some(Box::new(IdBitmap::from_sorted_ids(n_sets, list)))
                } else {
                    scan_cost += list.len() as u64;
                    None
                }
            })
            .collect();
        Self {
            dense,
            dense_entities,
            scan_cost,
        }
    }

    /// The dense bitmap for entity `e`, when it cleared the threshold.
    #[inline]
    pub fn dense(&self, e: EntityId) -> Option<&IdBitmap> {
        self.dense
            .get(e.0 as usize)
            .and_then(|slot| slot.as_deref())
    }

    /// Number of entities holding a dense bitmap.
    pub fn dense_entities(&self) -> usize {
        self.dense_entities
    }

    /// Cost (in word/id probes) of one postings-driven counting sweep over
    /// every occurring entity — the quantity counting kernels compare
    /// against a view's element count to pick a representation.
    #[inline]
    pub fn scan_cost(&self) -> u64 {
        self.scan_cost
    }
}

impl setdisc_util::mem::HeapSize for EntityPostings {
    fn heap_bytes(&self) -> usize {
        // The spine plus every materialized dense bitmap (boxed, so each
        // carries its own `IdBitmap` header on the heap).
        self.dense.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<SetId> {
        v.iter().copied().map(SetId).collect()
    }

    #[test]
    fn empty_full_and_tail_masking() {
        let e = IdBitmap::empty(70);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let f = IdBitmap::full(70);
        assert_eq!(f.len(), 70);
        assert!(f.contains(SetId(69)));
        assert!(!f.contains(SetId(70)));
        assert!(!f.contains(SetId(1000)));
        // Exact multiples of 64 have no tail word to mask.
        assert_eq!(IdBitmap::full(128).len(), 128);
    }

    #[test]
    fn from_sorted_ids_roundtrips_through_iter() {
        let v = ids(&[0, 5, 63, 64, 65, 129]);
        let bm = IdBitmap::from_sorted_ids(130, &v);
        assert_eq!(bm.iter().collect::<Vec<_>>(), v);
        assert_eq!(bm.len(), v.len());
        for id in &v {
            assert!(bm.contains(*id));
        }
        assert!(!bm.contains(SetId(1)));
    }

    #[test]
    fn reset_recycles_capacity() {
        let mut bm = IdBitmap::from_sorted_ids(200, &ids(&[0, 199]));
        let cap = bm.words.capacity();
        bm.reset(130);
        assert!(bm.is_empty());
        assert_eq!(bm.words().len(), IdBitmap::words_for(130));
        assert!(bm.words.capacity() >= cap.min(IdBitmap::words_for(130)));
        bm.insert(SetId(129));
        assert_eq!(bm.iter().collect::<Vec<_>>(), ids(&[129]));
    }

    #[test]
    fn remove_first_and_copy_words() {
        let mut bm = IdBitmap::from_sorted_ids(150, &ids(&[3, 64, 149]));
        assert_eq!(bm.first(), Some(SetId(3)));
        bm.remove(SetId(3));
        assert_eq!(bm.first(), Some(SetId(64)));
        assert!(!bm.contains(SetId(3)));
        let mut other = IdBitmap::empty(10);
        other.copy_words_from(&bm);
        assert_eq!(other, bm);
        assert_eq!(IdBitmap::empty(64).first(), None);
    }

    #[test]
    fn intersection_len_matches_naive() {
        let a = IdBitmap::from_sorted_ids(150, &ids(&[1, 2, 3, 64, 100, 149]));
        let b = IdBitmap::from_sorted_ids(150, &ids(&[2, 3, 64, 101]));
        assert_eq!(a.intersection_len(&b), 3);
        assert_eq!(b.intersection_len(&a), 3);
        assert_eq!(a.intersection_len(&IdBitmap::empty(150)), 0);
    }

    #[test]
    fn postings_dense_threshold() {
        // 130 sets → 3 words: lists of length ≥ 3 go dense.
        let n = 130usize;
        let inverted = [
            ids(&[]),                      // absent entity
            ids(&[7]),                     // sparse
            ids(&[0, 64]),                 // sparse (length 2 < 3 words)
            ids(&[0, 64, 129]),            // dense (length 3 ≥ 3 words)
            (0..130).map(SetId).collect(), // dense
        ];
        let p = EntityPostings::build(inverted.iter().map(Vec::as_slice), n);
        assert!(p.dense(EntityId(0)).is_none());
        assert!(p.dense(EntityId(1)).is_none());
        assert!(p.dense(EntityId(2)).is_none());
        let d3 = p.dense(EntityId(3)).expect("dense");
        assert_eq!(d3.iter().collect::<Vec<_>>(), ids(&[0, 64, 129]));
        assert_eq!(p.dense(EntityId(4)).unwrap().len(), 130);
        assert!(p.dense(EntityId(99)).is_none(), "out of range is None");
        assert_eq!(p.dense_entities(), 2);
        // Scan cost: sparse lists contribute their length, dense ones the
        // word count.
        assert_eq!(p.scan_cost(), 1 + 2 + 3 + 3);
    }

    #[test]
    fn tiny_collections_are_all_dense() {
        // n ≤ 64 → one word: every occurring entity clears the threshold.
        let inverted = [ids(&[0]), ids(&[0, 1, 2])];
        let p = EntityPostings::build(inverted.iter().map(Vec::as_slice), 3);
        assert!(p.dense(EntityId(0)).is_some());
        assert!(p.dense(EntityId(1)).is_some());
        assert_eq!(p.dense_entities(), 2);
    }
}
