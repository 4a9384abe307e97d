//! Collections of unique sets with an inverted entity index.
//!
//! A [`Collection`] owns the sets and two indexes the algorithms rely on:
//!
//! * `sets[set_id]` — the sorted entity list of each set, and
//! * the inverted index in compressed-sparse-row form: one flat array of
//!   `SetId`s holding, entity after entity, the sorted ids of the sets
//!   containing it, and per-entity offsets into it (entity `e`'s list is
//!   `posting_sets[posting_offsets[e]..posting_offsets[e + 1]]`). A count
//!   pass sizes every list before a fill pass writes it, so the whole
//!   index is two exactly sized allocations.
//!
//! Two derived indexes are built once and shared by every view/session over
//! the collection: the [`EntityPostings`] bitmap form of the inverted index
//! (frequent entities get a dense `SetId` bitmap so partitioning is
//! word-parallel — see [`crate::bitset`]) and a per-set [`Fingerprint`]
//! table so hot paths sum content digests by lookup instead of rehashing
//! ids.
//!
//! The paper assumes sets are unique (§3); [`CollectionBuilder`] enforces
//! this by construction and reports how many duplicates it dropped, so noisy
//! loaders (web tables) can surface the statistic.

use crate::bitset::EntityPostings;
use crate::entity::{EntityId, SetId};
use crate::error::{Result, SetDiscError};
use crate::set::EntitySet;
use crate::subcollection::SubCollection;
use setdisc_util::{Fingerprint, FxHashSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotone token distinguishing collection instances, used by lookahead
/// caches to detect reuse of a strategy across different collections.
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

/// An immutable collection of unique entity sets.
pub struct Collection {
    sets: Vec<EntitySet>,
    posting_offsets: Vec<u32>,
    posting_sets: Vec<SetId>,
    postings: EntityPostings,
    set_fps: Vec<Fingerprint>,
    set_sizes: Vec<u32>,
    occurring: Vec<EntityId>,
    universe: u32,
    distinct: usize,
    token: u64,
}

impl Collection {
    /// Builds a collection from pre-built sets, deduplicating and dropping
    /// empty sets. Fails on an empty result.
    pub fn new(sets: Vec<EntitySet>) -> Result<Self> {
        let built = CollectionBuilder::from_sets(sets).build()?;
        Ok(built.collection)
    }

    /// Convenience: builds from raw `u32` element lists.
    pub fn from_raw_sets(raw: Vec<Vec<u32>>) -> Result<Self> {
        Self::new(raw.into_iter().map(EntitySet::from_raw).collect())
    }

    /// Number of sets `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// True when the collection is empty (unreachable through constructors).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Universe size `m` (one past the largest entity id present).
    #[inline]
    pub fn universe(&self) -> u32 {
        self.universe
    }

    /// Number of distinct entities that actually occur in some set.
    /// Computed once at build time (it sits inside sweep loops that call it
    /// per configuration).
    #[inline]
    pub fn distinct_entities(&self) -> usize {
        self.distinct
    }

    /// The set with the given id. Panics if out of range.
    #[inline]
    pub fn set(&self, id: SetId) -> &EntitySet {
        &self.sets[id.0 as usize]
    }

    /// The set with the given id, or an error.
    pub fn try_set(&self, id: SetId) -> Result<&EntitySet> {
        self.sets
            .get(id.0 as usize)
            .ok_or(SetDiscError::UnknownSet(id))
    }

    /// Iterates `(id, set)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SetId, &EntitySet)> {
        self.sets
            .iter()
            .enumerate()
            .map(|(i, s)| (SetId(i as u32), s))
    }

    /// Sorted ids of the sets containing entity `e` (empty if none).
    #[inline]
    pub fn sets_containing(&self, e: EntityId) -> &[SetId] {
        let e = e.0 as usize;
        match self.posting_offsets.get(e..e + 2) {
            Some(&[start, end]) => &self.posting_sets[start as usize..end as usize],
            _ => &[],
        }
    }

    /// The bitmap form of the inverted index (dense bitmaps for frequent
    /// entities), built once at construction and shared by every view.
    #[inline]
    pub fn postings(&self) -> &EntityPostings {
        &self.postings
    }

    /// The content digest of set id `id` as a member of a view — a table
    /// lookup of [`crate::subcollection::fp_of_set`]'s value, so hot loops
    /// never rehash ids. Panics if out of range.
    #[inline]
    pub fn set_fp(&self, id: SetId) -> Fingerprint {
        self.set_fps[id.0 as usize]
    }

    /// Size of set `id` from a flat table (no per-set pointer chase —
    /// views maintain their element totals incrementally through splits).
    #[inline]
    pub fn set_size(&self, id: SetId) -> u32 {
        self.set_sizes[id.0 as usize]
    }

    /// The entities occurring in at least one set, id-sorted — the sweep
    /// domain of postings-driven counting.
    #[inline]
    pub fn occurring_entities(&self) -> &[EntityId] {
        &self.occurring
    }

    /// Words per [`crate::bitset::IdBitmap`] over this collection's id
    /// space.
    #[inline]
    pub fn bitmap_words(&self) -> usize {
        crate::bitset::IdBitmap::words_for(self.sets.len())
    }

    /// A view over the whole collection.
    pub fn full_view(&self) -> SubCollection<'_> {
        SubCollection::full(self)
    }

    /// A view over the sets that are supersets of `initial` — the candidate
    /// sub-collection of Algorithm 2, lines 2–4.
    pub fn supersets_of(&self, initial: &[EntityId]) -> SubCollection<'_> {
        if initial.is_empty() {
            return self.full_view();
        }
        // Intersect the (sorted) inverted lists, rarest entity first.
        let mut lists: Vec<&[SetId]> = initial.iter().map(|&e| self.sets_containing(e)).collect();
        lists.sort_by_key(|l| l.len());
        let mut acc: Vec<SetId> = lists[0].to_vec();
        for list in &lists[1..] {
            if acc.is_empty() {
                break;
            }
            acc = intersect_sorted(&acc, list);
        }
        SubCollection::from_ids(self, acc)
    }

    /// Mean set size.
    pub fn avg_set_size(&self) -> f64 {
        if self.sets.is_empty() {
            return 0.0;
        }
        self.sets.iter().map(EntitySet::len).sum::<usize>() as f64 / self.sets.len() as f64
    }

    /// Instance token (from the private `NEXT_TOKEN` counter); stable for the lifetime of this
    /// collection, unique across collections within a process.
    #[inline]
    pub fn token(&self) -> u64 {
        self.token
    }
}

impl setdisc_util::mem::HeapSize for Collection {
    fn heap_bytes(&self) -> usize {
        use setdisc_util::mem::vec_bytes;
        self.sets.heap_bytes()
            + vec_bytes(&self.posting_offsets)
            + vec_bytes(&self.posting_sets)
            + self.postings.heap_bytes()
            + vec_bytes(&self.set_fps)
            + vec_bytes(&self.set_sizes)
            + vec_bytes(&self.occurring)
    }
}

impl std::fmt::Debug for Collection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Full set contents for small collections (proptest shrink output),
        // summary statistics beyond that.
        if self.len() <= 16 {
            f.debug_list().entries(self.sets.iter()).finish()
        } else {
            write!(
                f,
                "Collection({} sets, {} distinct entities)",
                self.len(),
                self.distinct_entities()
            )
        }
    }
}

/// Intersection of two sorted `SetId` slices.
fn intersect_sorted(a: &[SetId], b: &[SetId]) -> Vec<SetId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// The inverted index of `sets` over entities `0..universe` in CSR form:
/// `(offsets, ids)`, entity `e`'s sorted set ids being
/// `ids[offsets[e]..offsets[e + 1]]`.
fn invert(sets: &[EntitySet], universe: usize) -> (Vec<u32>, Vec<SetId>) {
    // Count pass: `offsets[e + 1]` holds entity e's list length.
    let mut offsets = vec![0u32; universe + 1];
    for set in sets {
        for e in set.iter() {
            offsets[e.0 as usize + 1] += 1;
        }
    }
    // Exclusive prefix sum: `offsets[e + 1]` becomes the start of e's
    // list. It is the fill cursor, and the fill pass advances it to the
    // list's end, which is where e + 1's list starts.
    let mut total = 0u32;
    for slot in &mut offsets[1..] {
        let len = std::mem::replace(slot, total);
        total = total
            .checked_add(len)
            .expect("collection exceeds u32::MAX memberships");
    }
    let mut ids = vec![SetId(0); total as usize];
    // Set ids are visited in increasing order, so every list comes out
    // sorted.
    for (i, set) in sets.iter().enumerate() {
        for e in set.iter() {
            let cursor = &mut offsets[e.0 as usize + 1];
            ids[*cursor as usize] = SetId(i as u32);
            *cursor += 1;
        }
    }
    (offsets, ids)
}

/// Incremental builder enforcing the paper's uniqueness assumption.
///
/// Duplicate detection is keyed on each set's 128-bit content
/// `(fingerprint, len)` digest rather than the set itself, so pushing a set
/// never clones it. Two *distinct* sets sharing a digest would be wrongly
/// merged, but the collision probability is ≈ `n²/2¹²⁸` over `n` pushed
/// sets (see [`setdisc_util::hash`]) — negligible against any realizable
/// collection.
#[derive(Default)]
pub struct CollectionBuilder {
    sets: Vec<EntitySet>,
    seen: FxHashSet<(Fingerprint, u32)>,
    duplicates_dropped: usize,
    empties_dropped: usize,
}

/// Result of [`CollectionBuilder::build`]: the collection plus cleaning
/// statistics (mirroring the dataset-cleaning counts reported in §5.2).
pub struct BuiltCollection {
    /// The deduplicated collection.
    pub collection: Collection,
    /// Duplicate sets dropped during building.
    pub duplicates_dropped: usize,
    /// Empty sets dropped during building.
    pub empties_dropped: usize,
}

impl CollectionBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder seeded with `sets`.
    pub fn from_sets(sets: Vec<EntitySet>) -> Self {
        let mut b = Self::new();
        for s in sets {
            b.push(s);
        }
        b
    }

    /// Adds one set; drops it if empty or already present.
    pub fn push(&mut self, set: EntitySet) -> &mut Self {
        if set.is_empty() {
            self.empties_dropped += 1;
        } else if !self.seen.insert((set.fingerprint(), set.len() as u32)) {
            self.duplicates_dropped += 1;
        } else {
            self.sets.push(set);
        }
        self
    }

    /// Number of (unique, non-empty) sets accumulated so far.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// True when no set has been kept yet.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Finalizes into a [`Collection`], computing the inverted index.
    pub fn build(self) -> Result<BuiltCollection> {
        if self.sets.is_empty() {
            return Err(SetDiscError::EmptyCollection);
        }
        let universe = self
            .sets
            .iter()
            .flat_map(|s| s.iter())
            .map(|e| e.0 + 1)
            .max()
            .unwrap_or(0);
        let (posting_offsets, posting_sets) = invert(&self.sets, universe as usize);
        let occurring: Vec<EntityId> = posting_offsets
            .windows(2)
            .enumerate()
            .filter(|(_, w)| w[0] < w[1])
            .map(|(e, _)| EntityId(e as u32))
            .collect();
        let distinct = occurring.len();
        let postings = EntityPostings::build(
            posting_offsets
                .windows(2)
                .map(|w| &posting_sets[w[0] as usize..w[1] as usize]),
            self.sets.len(),
        );
        let set_fps: Vec<Fingerprint> = (0..self.sets.len() as u32)
            .map(|i| crate::subcollection::fp_of_set(SetId(i)))
            .collect();
        let set_sizes: Vec<u32> = self.sets.iter().map(|s| s.len() as u32).collect();
        Ok(BuiltCollection {
            collection: Collection {
                sets: self.sets,
                posting_offsets,
                posting_sets,
                postings,
                set_fps,
                set_sizes,
                occurring,
                universe,
                distinct,
                token: NEXT_TOKEN.fetch_add(1, Ordering::Relaxed),
            },
            duplicates_dropped: self.duplicates_dropped,
            empties_dropped: self.empties_dropped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seven sets from Figure 1 (entities a..k ↦ 0..10).
    pub(crate) fn figure1() -> Collection {
        Collection::from_raw_sets(vec![
            vec![0, 1, 2, 3],
            vec![0, 3, 4],
            vec![0, 1, 2, 3, 5],
            vec![0, 1, 2, 6, 7],
            vec![0, 1, 7, 8],
            vec![0, 1, 9, 10],
            vec![0, 1, 6],
        ])
        .unwrap()
    }

    #[test]
    fn builds_with_inverted_index() {
        let c = figure1();
        assert_eq!(c.len(), 7);
        assert_eq!(c.universe(), 11);
        // Entity a=0 is in all sets; d=3 in S1,S2,S3.
        assert_eq!(c.sets_containing(EntityId(0)).len(), 7);
        assert_eq!(
            c.sets_containing(EntityId(3)),
            &[SetId(0), SetId(1), SetId(2)]
        );
        assert!(c.sets_containing(EntityId(99)).is_empty());
    }

    #[test]
    fn distinct_entities_counts_occupied_ids() {
        let c = Collection::from_raw_sets(vec![vec![0, 5], vec![5, 9]]).unwrap();
        assert_eq!(c.universe(), 10);
        assert_eq!(c.distinct_entities(), 3);
    }

    #[test]
    fn dedup_and_empty_drop() {
        let mut b = CollectionBuilder::new();
        b.push(EntitySet::from_raw([1, 2]));
        b.push(EntitySet::from_raw([2, 1])); // duplicate after sorting
        b.push(EntitySet::from_raw([]));
        b.push(EntitySet::from_raw([3]));
        let built = b.build().unwrap();
        assert_eq!(built.collection.len(), 2);
        assert_eq!(built.duplicates_dropped, 1);
        assert_eq!(built.empties_dropped, 1);
    }

    #[test]
    fn empty_collection_is_an_error() {
        assert_eq!(
            CollectionBuilder::new().build().err(),
            Some(SetDiscError::EmptyCollection)
        );
        assert!(Collection::from_raw_sets(vec![]).is_err());
    }

    #[test]
    fn supersets_of_initial_examples() {
        let c = figure1();
        // {b, c} = {1, 2} is contained in S1, S3, S4.
        let v = c.supersets_of(&[EntityId(1), EntityId(2)]);
        assert_eq!(v.ids(), &[SetId(0), SetId(2), SetId(3)]);
        // {d} = {3} → S1, S2, S3.
        let v = c.supersets_of(&[EntityId(3)]);
        assert_eq!(v.ids(), &[SetId(0), SetId(1), SetId(2)]);
        // Empty initial set → everything (Algorithm 2 degenerate case).
        assert_eq!(c.supersets_of(&[]).len(), 7);
        // Unsatisfiable example.
        assert!(c.supersets_of(&[EntityId(4), EntityId(10)]).is_empty());
        // Unknown entity → no supersets.
        assert!(c.supersets_of(&[EntityId(1000)]).is_empty());
    }

    #[test]
    fn tokens_are_unique_per_collection() {
        let a = figure1();
        let b = figure1();
        assert_ne!(a.token(), b.token());
        assert_eq!(a.token(), a.token());
    }

    #[test]
    fn derived_indexes_match_inverted_lists() {
        let c = figure1();
        // 7 sets → one bitmap word → every occurring entity is dense.
        assert_eq!(c.bitmap_words(), 1);
        for e in 0..c.universe() {
            let e = EntityId(e);
            let list = c.sets_containing(e);
            match c.postings().dense(e) {
                Some(bm) => assert_eq!(bm.iter().collect::<Vec<_>>(), list),
                None => assert!(list.is_empty()),
            }
        }
        assert_eq!(
            c.occurring_entities(),
            (0..11).map(EntityId).collect::<Vec<_>>()
        );
        for (id, _) in c.iter() {
            assert_eq!(c.set_fp(id), crate::subcollection::fp_of_set(id));
        }
    }

    #[test]
    fn try_set_bounds() {
        let c = figure1();
        assert!(c.try_set(SetId(6)).is_ok());
        assert_eq!(
            c.try_set(SetId(7)).err(),
            Some(SetDiscError::UnknownSet(SetId(7)))
        );
    }

    #[test]
    fn heap_accounting_is_deterministic_and_covers_the_elements() {
        use setdisc_util::mem::HeapSize as _;
        let a = figure1();
        let b = figure1();
        assert_eq!(
            a.heap_bytes(),
            b.heap_bytes(),
            "identical builds account identically"
        );
        // Every element is stored once in `sets` and once in the CSR index,
        // 4 bytes each — the accounted total must cover at least that.
        let elems: usize = a.iter().map(|(_, s)| s.len()).sum();
        assert!(a.heap_bytes() >= 2 * 4 * elems, "{}", a.heap_bytes());
    }

    #[test]
    fn avg_set_size() {
        let c = Collection::from_raw_sets(vec![vec![1], vec![1, 2, 3]]).unwrap();
        assert!((c.avg_set_size() - 2.0).abs() < 1e-12);
    }
}
