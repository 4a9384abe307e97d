//! Lightweight views over a subset of a collection's sets.
//!
//! Every step of the search — tree construction, lookahead recursion,
//! interactive filtering — operates on some subset of the sets. A
//! [`SubCollection`] is a borrowed collection plus the subset held
//! primarily as a dense [`IdBitmap`] over the collection's `SetId` space
//! (with a cached popcount length), plus a 128-bit content [`Fingerprint`]
//! maintained incrementally at split time so lookahead memos can key on
//! `(fingerprint, len)` instead of boxed id vectors. The sorted id vector
//! that ordered traversals and the wire layer consume is materialized
//! **lazily** from the bitmap on first [`SubCollection::ids`] call — the
//! selection recursions never ask for it, which is what makes their splits
//! word-parallel instead of per-element.
//!
//! [`SubCollection::partition_into`] is the split kernel: when the entity
//! has a dense postings bitmap (see [`crate::bitset::EntityPostings`]) the
//! split is one `AND`/`ANDNOT` pass over the words, accumulating the
//! yes-side count and fingerprint from the result words; entities below the
//! dense threshold instead copy the parent's words and clear the few bits
//! named by their short posting list. Both children recycle caller-provided
//! [`SubStorage`] buffers, so steady-state recursion allocates nothing. The
//! classic id-vector merge survives as
//! [`SubCollection::partition_into_merge`] — the reference kernel property
//! tests and benches pin the bitmap paths against.
//!
//! Entity counting is the innermost hot loop (it runs at every node of every
//! lookahead). Two implementations exist and the entry points auto-select
//! by a cost model (see DESIGN.md §8): the element pass walks every member
//! of every set in the view into an entity-indexed counting buffer, while
//! the postings sweep intersects each occurring entity's postings with the
//! view's bitmap — popcounts for the counts, member decoding for the
//! membership fingerprints (the yes-side digest of `partition(entity)`,
//! computed in the same pass so duplicate-partition candidates can be
//! dropped without ever partitioning). The counting buffer is private and
//! lives once per thread: counting is synchronous and never re-entrant, so
//! every strategy instance, session, and one-off caller on a thread shares
//! one buffer that grows to the largest universe it has counted and is
//! never zero-filled again.
//!
//! The lookahead arena (`LookaheadScratch`, also one per thread) completes
//! the allocation-free recursion story: depth-indexed reusable
//! candidate/stat/storage buffers that [`crate::lookahead`] and
//! [`crate::optimal`] borrow for one selection and thread through their
//! recursion together with [`SubCollection::partition_into`].

use crate::bitset::IdBitmap;
use crate::collection::Collection;
use crate::cost::Cost;
use crate::entity::{EntityId, SetId};
use crate::weights::WeightTable;
use setdisc_util::{obs, Fingerprint, FxHashSet};
use std::cell::Cell;
use std::sync::OnceLock;

/// Content digest of one set id (the unit [`SubCollection`] fingerprints
/// sum over). [`Collection::set_fp`] holds this value in a lookup table for
/// the hot paths.
#[inline]
pub fn fp_of_set(id: SetId) -> Fingerprint {
    Fingerprint::of(id.0 as u64)
}

/// What the counting dispatcher would decide for one pass, plus the cost-
/// model inputs it compared — see [`SubCollection::dispatch_preview`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DispatchPreview {
    /// `true` → the postings sweep runs; `false` → the element pass.
    pub use_postings: bool,
    /// Predicted element-pass cost driver: members summed over view sets.
    pub total_elements: u64,
    /// Predicted postings-sweep cost driver: the index's fixed scan cost.
    pub scan_cost: u64,
    /// The dispatch factor the comparison multiplied `scan_cost` by.
    pub factor: u64,
}

/// Cost-model calibration hook: when telemetry is armed, times `pass` and
/// records its measured cost in **milli-nanoseconds per predicted cost
/// unit** at `site` (so the histogram directly reads as "ns/unit ×1000" —
/// the fitted constant ROADMAP item 3's re-fit compares against the
/// committed dispatch factor). Disarmed this is one relaxed load and a
/// branch; the pass itself is always run exactly once.
#[inline]
fn record_kernel_cost(site: obs::Site, units: u64, pass: impl FnOnce()) {
    if !obs::armed() {
        pass();
        return;
    }
    let started = std::time::Instant::now();
    pass();
    let ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    obs::record(site, ns.saturating_mul(1000) / units.max(1));
}

/// A view over a sorted subset of sets in a [`Collection`]: a dense bitmap
/// with a lazily materialized sorted id vector.
#[derive(Clone)]
pub struct SubCollection<'c> {
    collection: &'c Collection,
    bits: IdBitmap,
    len: u32,
    elements: u64,
    ids: OnceLock<Vec<SetId>>,
    fp: Fingerprint,
}

/// Recyclable backing storage of one [`SubCollection`] — its bitmap words
/// plus the id vector when it was materialized.
/// [`SubCollection::partition_into`] consumes two of these for the children
/// and [`SubCollection::into_storage`] recovers them, so a recursion that
/// keeps a pair per depth never reallocates.
#[derive(Default)]
pub struct SubStorage {
    pub(crate) ids: Vec<SetId>,
    pub(crate) bits: IdBitmap,
}

impl SubStorage {
    /// Fresh empty storage; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Occurrence statistics for one entity within a sub-collection.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct EntityCount {
    /// The entity.
    pub entity: EntityId,
    /// Number of sets in the sub-collection containing it (`|C⁺|`).
    pub count: u32,
}

/// Occurrence statistics plus membership digest and prior mass for one
/// entity — what the weighted (§6) selection paths consume.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WeightedEntityStats {
    /// The entity.
    pub entity: EntityId,
    /// Number of member sets containing it (`|C⁺|`).
    pub count: u32,
    /// Membership digest (yes-side fingerprint), as on [`EntityStats`].
    pub fp: Fingerprint,
    /// Summed prior weight of the member sets containing it (`W(C⁺)`).
    pub wsum: u64,
}

/// Occurrence statistics plus membership digest for one entity.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct EntityStats {
    /// The entity.
    pub entity: EntityId,
    /// Number of sets in the sub-collection containing it (`|C⁺|`).
    pub count: u32,
    /// Fingerprint of the member sets containing the entity — equal to the
    /// fingerprint of the yes side of `partition(entity)`. Entities with
    /// equal membership digests induce the same partition (up to the
    /// negligible fingerprint collision odds), so candidates can be
    /// deduplicated before partitioning.
    pub fp: Fingerprint,
}

impl<'c> SubCollection<'c> {
    /// View over the entire collection.
    pub fn full(collection: &'c Collection) -> Self {
        let ids: Vec<SetId> = (0..collection.len() as u32).map(SetId).collect();
        let fp = fp_of_ids(collection, &ids);
        Self::from_filled(collection, IdBitmap::full(collection.len()), ids, fp)
    }

    /// View over the given ids. Sorts and deduplicates them; panics on an id
    /// out of range (programmer error, not data error).
    pub fn from_ids(collection: &'c Collection, mut ids: Vec<SetId>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        if let Some(last) = ids.last() {
            assert!(
                (last.0 as usize) < collection.len(),
                "set id {last} out of range"
            );
        }
        let fp = fp_of_ids(collection, &ids);
        let bits = IdBitmap::from_sorted_ids(collection.len(), &ids);
        Self::from_filled(collection, bits, ids, fp)
    }

    /// Internal constructor for ids that are already sorted and in range.
    pub(crate) fn from_sorted_unchecked(collection: &'c Collection, ids: Vec<SetId>) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        let fp = fp_of_ids(collection, &ids);
        let bits = IdBitmap::from_sorted_ids(collection.len(), &ids);
        Self::from_filled(collection, bits, ids, fp)
    }

    /// Internal constructor when the fingerprint of `ids` is already known.
    pub(crate) fn from_parts_unchecked(
        collection: &'c Collection,
        ids: Vec<SetId>,
        fp: Fingerprint,
    ) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        debug_assert_eq!(fp, fp_of_ids(collection, &ids));
        let bits = IdBitmap::from_sorted_ids(collection.len(), &ids);
        Self::from_filled(collection, bits, ids, fp)
    }

    /// Internal constructor trusting storage whose id vector is materialized
    /// and matches its bitmap (the zero-copy resume path of
    /// [`crate::engine::Engine`]).
    pub(crate) fn from_storage_unchecked(
        collection: &'c Collection,
        storage: SubStorage,
        fp: Fingerprint,
    ) -> Self {
        debug_assert!(storage.ids.windows(2).all(|w| w[0] < w[1]));
        debug_assert_eq!(fp, fp_of_ids(collection, &storage.ids));
        debug_assert_eq!(storage.bits.len(), storage.ids.len());
        debug_assert!(storage.ids.iter().all(|&id| storage.bits.contains(id)));
        Self::from_filled(collection, storage.bits, storage.ids, fp)
    }

    /// Internal constructor from a bitmap whose length and fingerprint are
    /// already known; the id vector stays unmaterialized.
    fn from_bits_unchecked(
        collection: &'c Collection,
        bits: IdBitmap,
        len: u32,
        elements: u64,
        fp: Fingerprint,
    ) -> Self {
        debug_assert_eq!(bits.len(), len as usize);
        debug_assert_eq!(
            elements,
            bits.iter()
                .map(|id| collection.set_size(id) as u64)
                .sum::<u64>()
        );
        Self {
            collection,
            bits,
            len,
            elements,
            ids: OnceLock::new(),
            fp,
        }
    }

    /// Internal constructor with both representations in hand.
    fn from_filled(
        collection: &'c Collection,
        bits: IdBitmap,
        ids: Vec<SetId>,
        fp: Fingerprint,
    ) -> Self {
        let len = ids.len() as u32;
        let elements = ids.iter().map(|&id| collection.set_size(id) as u64).sum();
        let cell = OnceLock::new();
        let _ = cell.set(ids);
        Self {
            collection,
            bits,
            len,
            elements,
            ids: cell,
            fp,
        }
    }

    /// The underlying collection.
    #[inline]
    pub fn collection(&self) -> &'c Collection {
        self.collection
    }

    /// Sorted ids of the member sets, decoded from the bitmap on first use
    /// and cached. The selection hot paths never call this; ordered
    /// consumers (wire layer, reports, tests) do.
    #[inline]
    pub fn ids(&self) -> &[SetId] {
        self.ids.get_or_init(|| self.bits.iter().collect())
    }

    /// The dense bitmap over the collection's id space — the primary
    /// membership representation.
    #[inline]
    pub fn bitmap(&self) -> &IdBitmap {
        &self.bits
    }

    /// The smallest member id (`None` on an empty view) without
    /// materializing the id vector.
    #[inline]
    pub fn first_id(&self) -> Option<SetId> {
        self.bits.first()
    }

    /// 128-bit content digest of the id set — the allocation-free identity
    /// the lookahead memos key on (always paired with [`Self::len`]).
    #[inline]
    pub fn fingerprint(&self) -> Fingerprint {
        self.fp
    }

    /// Number of member sets (cached; no popcount on query).
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the view holds no sets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Recovers the id vector (materializing it if no one asked before).
    /// Prefer [`Self::into_storage`] in recursion hot paths — it recycles
    /// the bitmap words without forcing materialization.
    pub fn into_ids(self) -> Vec<SetId> {
        let bits = self.bits;
        self.ids
            .into_inner()
            .unwrap_or_else(|| bits.iter().collect())
    }

    /// Recovers the backing storage for reuse (the counterpart of
    /// [`Self::partition_into`]'s buffer recycling). The id vector is empty
    /// unless it was materialized.
    pub fn into_storage(self) -> SubStorage {
        SubStorage {
            ids: self.ids.into_inner().unwrap_or_default(),
            bits: self.bits,
        }
    }

    /// Counts, for every entity occurring in the view, how many member sets
    /// contain it. Appends results to `out` in a deterministic order
    /// (entity-id ascending on the postings sweep, first-touched on the
    /// element pass — callers needing a specific order re-sort by a total
    /// key).
    pub fn count_entities(&self, out: &mut Vec<EntityCount>) {
        let _span = obs::span(obs::Site::Count);
        self.count_impl(out, u32::MAX);
    }

    /// The count-only pass behind [`Self::count_entities`] and
    /// [`Self::informative_into`]: appends every entity with a count in
    /// `1..below`, through whichever kernel the cost model picks.
    fn count_impl(&self, out: &mut Vec<EntityCount>, below: u32) {
        if self.use_postings(1) {
            let units = self.collection.postings().scan_cost();
            record_kernel_cost(obs::Site::CostModelPostings, units, || {
                self.count_postings_impl(out, below);
            });
            return;
        }
        let units = self.total_elements() as u64;
        record_kernel_cost(obs::Site::CostModelElements, units, || {
            with_counts(|scratch| {
                scratch.begin(self.collection.universe(), false, false);
                for id in self.bits.iter() {
                    for e in self.collection.set(id).iter() {
                        let slot = &mut scratch.counts[e.0 as usize];
                        if *slot == 0 {
                            scratch.touched.push(e);
                        }
                        *slot += 1;
                    }
                }
                out.reserve(scratch.touched.len());
                for &e in &scratch.touched {
                    let count = scratch.counts[e.0 as usize];
                    scratch.counts[e.0 as usize] = 0;
                    if count < below {
                        out.push(EntityCount { entity: e, count });
                    }
                }
                scratch.touched.clear();
            });
        });
    }

    /// Like [`Self::count_entities`], but also accumulates each entity's
    /// membership [`Fingerprint`] in the same pass. Clears `out` first;
    /// deterministic order as documented on [`Self::count_entities`].
    pub fn count_entities_with_fp(&self, out: &mut Vec<EntityStats>) {
        let _span = obs::span(obs::Site::Count);
        if self.use_postings(2) {
            let units = self.collection.postings().scan_cost();
            record_kernel_cost(obs::Site::CostModelPostings, units, || {
                self.count_with_fp_postings_impl(out, u32::MAX);
            });
        } else {
            let units = self.total_elements() as u64;
            record_kernel_cost(obs::Site::CostModelElements, units, || {
                self.count_with_fp_elements_impl(out, u32::MAX);
            });
        }
    }

    /// Informative entities (present in ≥ 1 but not all member sets, §3)
    /// with their counts and membership fingerprints, computed in one
    /// pass. Clears `out` first; deterministic order as documented on
    /// [`Self::count_entities`] — callers that need a specific order
    /// re-sort by a total key.
    pub fn informative_with_fp(&self, out: &mut Vec<EntityStats>) {
        let _span = obs::span(obs::Site::Count);
        let below = self.len;
        if self.use_postings(2) {
            let units = self.collection.postings().scan_cost();
            record_kernel_cost(obs::Site::CostModelPostings, units, || {
                self.count_with_fp_postings_impl(out, below);
            });
        } else {
            let units = self.total_elements() as u64;
            record_kernel_cost(obs::Site::CostModelElements, units, || {
                self.count_with_fp_elements_impl(out, below);
            });
        }
    }

    /// The element-pass reference implementation of
    /// [`Self::count_entities_with_fp`]: walks every member of every set in
    /// the view, accumulating counts and digests in the thread's
    /// entity-indexed counting buffer. Results in first-touched order.
    /// Public so property tests and benches can pin the postings sweep
    /// against it.
    pub fn count_entities_with_fp_elements(&self, out: &mut Vec<EntityStats>) {
        self.count_with_fp_elements_impl(out, u32::MAX);
    }

    /// The postings-sweep implementation of
    /// [`Self::count_entities_with_fp`]: intersects each occurring entity's
    /// postings with the view bitmap (word-parallel popcounts for dense
    /// entities, short-list probes for sparse ones). Results in entity-id
    /// order. Public so property tests and benches can compare
    /// representations.
    pub fn count_entities_with_fp_postings(&self, out: &mut Vec<EntityStats>) {
        self.count_with_fp_postings_impl(out, u32::MAX);
    }

    /// Decides representation for one counting pass: the postings sweep
    /// costs `scan_cost` probes over the whole collection plus (for the
    /// fingerprint variants) one digest add per view member, while the
    /// element pass costs one scattered add per view member. Sweep when the
    /// view's member count exceeds `factor ×` the sweep's fixed cost.
    fn use_postings(&self, factor: u64) -> bool {
        let scan = self.collection.postings().scan_cost();
        scan > 0 && self.total_elements() as u64 > scan.saturating_mul(factor)
    }

    /// The counting-dispatch decision for one pass, without running it:
    /// which kernel the internal `use_postings` gate would pick under `factor` and
    /// the two cost-model inputs it compared. Pure — provenance capture
    /// and tests read the dispatcher's mind through this without
    /// perturbing any counter or cache.
    pub fn dispatch_preview(&self, factor: u64) -> DispatchPreview {
        let scan_cost = self.collection.postings().scan_cost();
        let total_elements = self.total_elements() as u64;
        DispatchPreview {
            use_postings: scan_cost > 0 && total_elements > scan_cost.saturating_mul(factor),
            total_elements,
            scan_cost,
            factor,
        }
    }

    fn count_with_fp_elements_impl(&self, out: &mut Vec<EntityStats>, below: u32) {
        out.clear();
        with_counts(|scratch| {
            scratch.begin(self.collection.universe(), true, false);
            for id in self.bits.iter() {
                let h = self.collection.set_fp(id);
                for e in self.collection.set(id).iter() {
                    let slot = &mut scratch.counts[e.0 as usize];
                    if *slot == 0 {
                        scratch.touched.push(e);
                        scratch.fps[e.0 as usize] = h;
                    } else {
                        scratch.fps[e.0 as usize] += h;
                    }
                    *slot += 1;
                }
            }
            out.reserve(scratch.touched.len());
            for &e in &scratch.touched {
                let count = scratch.counts[e.0 as usize];
                scratch.counts[e.0 as usize] = 0;
                if count < below {
                    out.push(EntityStats {
                        entity: e,
                        count,
                        fp: scratch.fps[e.0 as usize],
                    });
                }
            }
            scratch.touched.clear();
        });
    }

    fn count_with_fp_postings_impl(&self, out: &mut Vec<EntityStats>, below: u32) {
        out.clear();
        let c = self.collection;
        let view_words = self.bits.words();
        for &e in c.occurring_entities() {
            let mut count = 0u32;
            let mut fp = Fingerprint::ZERO;
            match c.postings().dense(e) {
                Some(bm) => {
                    for (wi, (a, b)) in view_words.iter().zip(bm.words()).enumerate() {
                        let mut w = a & b;
                        count += w.count_ones();
                        while w != 0 {
                            let id = SetId(wi as u32 * 64 + w.trailing_zeros());
                            fp += c.set_fp(id);
                            w &= w - 1;
                        }
                    }
                }
                None => {
                    for &id in c.sets_containing(e) {
                        if self.bits.contains(id) {
                            count += 1;
                            fp += c.set_fp(id);
                        }
                    }
                }
            }
            if count > 0 && count < below {
                out.push(EntityStats {
                    entity: e,
                    count,
                    fp,
                });
            }
        }
    }

    fn count_postings_impl(&self, out: &mut Vec<EntityCount>, below: u32) {
        let c = self.collection;
        for &e in c.occurring_entities() {
            let count = match c.postings().dense(e) {
                Some(bm) => self.bits.intersection_len(bm) as u32,
                None => c
                    .sets_containing(e)
                    .iter()
                    .filter(|&&id| self.bits.contains(id))
                    .count() as u32,
            };
            if count > 0 && count < below {
                out.push(EntityCount { entity: e, count });
            }
        }
    }

    /// The membership fingerprint of `e` within this view — the digest of
    /// the member sets containing it, equal to the yes side of
    /// `partition(e)` (and to the `fp` field a fingerprint counting pass
    /// reports for `e`). `O(words + |postings ∩ view|)`; `KLp::explain_last`
    /// uses it to re-identify duplicate-partition candidates without
    /// splitting the view.
    pub fn membership_fp(&self, e: EntityId) -> Fingerprint {
        self.membership_stat(e).1
    }

    /// [`Self::membership_fp`] plus the member count in the same pass —
    /// `(|C⁺|, fingerprint(C⁺))` of `partition(e)`'s yes side. The plan
    /// cache uses this to derive both children's `(fingerprint, len)` keys
    /// without partitioning (the no side follows by subtraction).
    pub fn membership_stat(&self, e: EntityId) -> (u32, Fingerprint) {
        let c = self.collection;
        let mut fp = Fingerprint::ZERO;
        let mut count = 0u32;
        match c.postings().dense(e) {
            Some(bm) => {
                for (wi, (a, b)) in self.bits.words().iter().zip(bm.words()).enumerate() {
                    let mut w = a & b;
                    count += w.count_ones();
                    while w != 0 {
                        fp += c.set_fp(SetId(wi as u32 * 64 + w.trailing_zeros()));
                        w &= w - 1;
                    }
                }
            }
            None => {
                for &id in c.sets_containing(e) {
                    if self.bits.contains(id) {
                        fp += c.set_fp(id);
                        count += 1;
                    }
                }
            }
        }
        (count, fp)
    }

    /// Informative entities: present in at least one member set but not in
    /// all (§3). Sorted by entity id for determinism.
    pub fn informative_entities(&self) -> Vec<EntityCount> {
        let mut out = Vec::new();
        self.informative_into(&mut out);
        out.sort_unstable_by_key(|ec| ec.entity);
        out
    }

    /// Informative entities into a reusable buffer (cleared first), in the
    /// deterministic order documented on [`Self::count_entities`] — the
    /// allocation-free variant of [`Self::informative_entities`] for
    /// argmin-style callers whose final ranking key is total anyway.
    pub fn informative_into(&self, out: &mut Vec<EntityCount>) {
        out.clear();
        self.count_impl(out, self.len);
    }

    /// Informative entities with counts, membership digests, **and** prior
    /// mass, in one element pass (clears `out` first; first-touched order —
    /// every weighted ranking key is total, so consumers are
    /// order-independent). Weighted selection always uses the element pass:
    /// the postings sweep has no per-set weight hook, and with a total key
    /// the two orders select identically anyway.
    pub fn informative_weighted(&self, out: &mut Vec<WeightedEntityStats>, weights: &WeightTable) {
        out.clear();
        let n = self.len;
        with_counts(|scratch| {
            scratch.begin(self.collection.universe(), true, true);
            for id in self.bits.iter() {
                let h = self.collection.set_fp(id);
                let w = weights.weight(id);
                for e in self.collection.set(id).iter() {
                    let slot = &mut scratch.counts[e.0 as usize];
                    if *slot == 0 {
                        scratch.touched.push(e);
                        scratch.fps[e.0 as usize] = h;
                        scratch.wsums[e.0 as usize] = w;
                    } else {
                        scratch.fps[e.0 as usize] += h;
                        scratch.wsums[e.0 as usize] += w;
                    }
                    *slot += 1;
                }
            }
            out.reserve(scratch.touched.len());
            for &e in &scratch.touched {
                let count = scratch.counts[e.0 as usize];
                scratch.counts[e.0 as usize] = 0;
                if count < n {
                    out.push(WeightedEntityStats {
                        entity: e,
                        count,
                        fp: scratch.fps[e.0 as usize],
                        wsum: scratch.wsums[e.0 as usize],
                    });
                }
            }
            scratch.touched.clear();
        });
    }

    /// Summed prior weight of the view's member sets (`W(C)`), without
    /// materializing the id vector.
    pub fn total_weight(&self, weights: &WeightTable) -> u64 {
        self.bits.iter().map(|id| weights.weight(id)).sum()
    }

    /// Splits the view on entity `e`: `(C⁺, C⁻)` where `C⁺` holds the sets
    /// containing `e`.
    pub fn partition(&self, e: EntityId) -> (SubCollection<'c>, SubCollection<'c>) {
        self.partition_into(e, SubStorage::default(), SubStorage::default())
    }

    /// [`Self::partition`] into caller-provided storage (cleared first), so
    /// steady-state recursion performs no heap allocation: recover the
    /// buffers afterwards with [`Self::into_storage`].
    ///
    /// Kernel selection: entities with a dense postings bitmap split by one
    /// `AND`/`ANDNOT` pass over the words; entities below the dense
    /// threshold copy the parent's words and clear the bits named by their
    /// short posting list. Neither path materializes the children's id
    /// vectors — the yes-side count and fingerprint are accumulated from
    /// the result words and the no side's are derived by subtraction from
    /// the parent's. All paths (including the
    /// [`Self::partition_into_merge`] reference) produce identical
    /// children.
    pub fn partition_into(
        &self,
        e: EntityId,
        mut yes: SubStorage,
        mut no: SubStorage,
    ) -> (SubCollection<'c>, SubCollection<'c>) {
        let _span = obs::span(obs::Site::Partition);
        let c = self.collection;
        yes.ids.clear();
        no.ids.clear();
        let mut yes_fp = Fingerprint::ZERO;
        let mut yes_count = 0u32;
        let mut yes_elems = 0u64;
        if let Some(bm) = c.postings().dense(e) {
            yes.bits.reset(c.len());
            no.bits.reset(c.len());
            let yes_words = yes.bits.words_mut();
            let no_words = no.bits.words_mut();
            let view_words = self.bits.words();
            let post_words = bm.words();
            for wi in 0..view_words.len() {
                let a = view_words[wi];
                let b = post_words[wi];
                let mut yw = a & b;
                yes_words[wi] = yw;
                no_words[wi] = a & !b;
                yes_count += yw.count_ones();
                while yw != 0 {
                    let id = SetId(wi as u32 * 64 + yw.trailing_zeros());
                    yes_fp += c.set_fp(id);
                    yes_elems += c.set_size(id) as u64;
                    yw &= yw - 1;
                }
            }
        } else {
            // Sparse entity: the no side starts as the parent and loses the
            // few member sets on the short posting list.
            yes.bits.reset(c.len());
            no.bits.copy_words_from(&self.bits);
            for &id in c.sets_containing(e) {
                if self.bits.contains(id) {
                    yes.bits.insert(id);
                    no.bits.remove(id);
                    yes_fp += c.set_fp(id);
                    yes_elems += c.set_size(id) as u64;
                    yes_count += 1;
                }
            }
        }
        let no_fp = self.fp - yes_fp;
        let no_count = self.len - yes_count;
        let no_elems = self.elements - yes_elems;
        (
            SubCollection::from_bits_unchecked(c, yes.bits, yes_count, yes_elems, yes_fp),
            SubCollection::from_bits_unchecked(c, no.bits, no_count, no_elems, no_fp),
        )
    }

    /// The id-vector reference kernel: a sorted merge of the view's
    /// (materialized) ids against the entity's posting list,
    /// `O(|C| + |sets containing e|)`, producing children with both
    /// representations filled. Property tests and benches pin the bitmap
    /// kernels of [`Self::partition_into`] against it on every entity.
    pub fn partition_into_merge(
        &self,
        e: EntityId,
        mut yes: SubStorage,
        mut no: SubStorage,
    ) -> (SubCollection<'c>, SubCollection<'c>) {
        let c = self.collection;
        yes.ids.clear();
        no.ids.clear();
        yes.bits.reset(c.len());
        no.bits.reset(c.len());
        let list = c.sets_containing(e);
        let mut yes_fp = Fingerprint::ZERO;
        let mut li = 0usize;
        for &id in self.ids() {
            while li < list.len() && list[li] < id {
                li += 1;
            }
            if li < list.len() && list[li] == id {
                yes_fp += c.set_fp(id);
                yes.ids.push(id);
                yes.bits.insert(id);
            } else {
                no.ids.push(id);
                no.bits.insert(id);
            }
        }
        let no_fp = self.fp - yes_fp;
        (
            SubCollection::from_filled(c, yes.bits, yes.ids, yes_fp),
            SubCollection::from_filled(c, no.bits, no.ids, no_fp),
        )
    }

    /// Retains only the member sets for which `keep` returns true.
    pub fn filter(&self, mut keep: impl FnMut(SetId) -> bool) -> SubCollection<'c> {
        SubCollection::from_sorted_unchecked(
            self.collection,
            self.bits.iter().filter(|&id| keep(id)).collect(),
        )
    }

    /// Total number of elements across member sets (the work unit of one
    /// counting pass — also the quantity the counting dispatch compares
    /// against the postings sweep cost). Maintained incrementally through
    /// splits, so this is a field read.
    #[inline]
    pub fn total_elements(&self) -> usize {
        self.elements as usize
    }
}

/// Fingerprint of a sorted id slice (fold of per-id digests via the
/// collection's lookup table).
fn fp_of_ids(collection: &Collection, ids: &[SetId]) -> Fingerprint {
    ids.iter().map(|&id| collection.set_fp(id)).sum()
}

impl std::fmt::Debug for SubCollection<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SubCollection({} sets)", self.len)
    }
}

/// The counting buffer of the element pass: entity-indexed counters (plus
/// membership-fingerprint and prior-mass accumulators) and a touched list,
/// so a reset costs the entities seen, not the universe. One lives per
/// thread (see `with_counts`).
#[derive(Default)]
struct CountScratch {
    counts: Vec<u32>,
    fps: Vec<Fingerprint>,
    wsums: Vec<u64>,
    touched: Vec<EntityId>,
}

impl CountScratch {
    const fn new() -> Self {
        Self {
            counts: Vec::new(),
            fps: Vec::new(),
            wsums: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Readies the buffer for one pass over a collection of `universe`
    /// entities: zeroes any count still on the touched list, then grows
    /// the count array, and the fingerprint (`fps`) and mass (`wsums`)
    /// arrays only for passes that write them, so a count-only pass never
    /// pays for the wider lanes. Those two need no clearing, as a pass
    /// overwrites an entity's slot on first touch.
    ///
    /// A finished pass leaves the touched list empty and an unwound one
    /// drops its buffer, so the zeroing loop finds nothing to do; yet with
    /// it in place the counting loops compile to faster code (the
    /// `count_entities_copyadd_n2000` kernel's fastest runs read 21 µs with
    /// it and 28 µs without, over ten alternating runs each).
    fn begin(&mut self, universe: u32, fps: bool, wsums: bool) {
        for &e in &self.touched {
            self.counts[e.0 as usize] = 0;
        }
        self.touched.clear();
        let universe = universe as usize;
        if self.counts.len() < universe {
            self.counts.resize(universe, 0);
        }
        if fps && self.fps.len() < universe {
            self.fps.resize(universe, Fingerprint::ZERO);
        }
        if wsums && self.wsums.len() < universe {
            self.wsums.resize(universe, 0);
        }
    }
}

thread_local! {
    static COUNTS: Cell<CountScratch> = const { Cell::new(CountScratch::new()) };
    static ARENA: Cell<LookaheadScratch> = const { Cell::new(LookaheadScratch::new()) };
}

/// Runs one element pass with this thread's counting buffer, moved out of
/// the thread's slot for the pass and back after it. Moved out, the
/// counting loop runs as fast as it did with a buffer per caller; borrowed
/// in place (a `RefCell`, or a guard that puts it back on unwind) it
/// measured about 20% slower. A pass calls out to nothing that counts, so
/// passes never nest and none finds the slot already emptied.
/// A pass that unwinds drops its buffer with it: the slot is left empty,
/// not holding counts a later pass could read, and the thread's next pass
/// grows a fresh buffer.
fn with_counts<R>(pass: impl FnOnce(&mut CountScratch) -> R) -> R {
    let mut scratch = COUNTS.take();
    let out = pass(&mut scratch);
    COUNTS.set(scratch);
    out
}

/// One ranked selection candidate (an informative entity plus the sort keys
/// and membership digest the lookahead loops need).
#[derive(Copy, Clone, Debug)]
pub(crate) struct Candidate {
    /// Primary ranking score (`LB₁` for k-LP, 0 for the optimal solver).
    pub score: Cost,
    /// Partition imbalance tie-break.
    pub imbalance: u64,
    /// The candidate entity.
    pub entity: EntityId,
    /// Yes-side size `|C⁺|`.
    pub n1: u64,
    /// Membership digest (yes-side fingerprint) for duplicate-partition
    /// dedup. The optimal solver fills it from the fingerprint counting
    /// pass (deduping before any split); the k-LP loops leave it zero and
    /// dedup on the digest their bitmap split computes as a byproduct.
    pub fp: Fingerprint,
}

/// Reusable buffers for one recursion level of a lookahead search.
#[derive(Default)]
pub(crate) struct LevelScratch {
    /// Counting-pass output (informative entities with fingerprints).
    pub stats: Vec<EntityStats>,
    /// Fingerprint-free counting output for the `k ≤ 1` base case, which
    /// never partitions and therefore needs no membership digests — the
    /// count-only postings sweep is pure popcounts.
    pub ecounts: Vec<EntityCount>,
    /// Weighted counting output (§6 prior-weighted selection paths).
    pub wstats: Vec<WeightedEntityStats>,
    /// Ranked candidate list.
    pub cand: Vec<Candidate>,
    /// Storage for the yes side of a split (recycled via
    /// [`SubCollection::partition_into`] / [`SubCollection::into_storage`]).
    pub yes: SubStorage,
    /// Storage for the no side of a split.
    pub no: SubStorage,
    /// Seen-partition digests for duplicate-candidate dedup.
    pub seen: FxHashSet<(Fingerprint, u64)>,
}

/// Depth-indexed arena of [`LevelScratch`] buffers — the state that makes
/// the k-LP / gain-k / optimal recursions allocation-free in steady state.
/// Levels are taken by value for the duration of one recursion frame
/// (sibling frames at the same depth run sequentially, so one buffer set
/// per depth suffices) and put back before the frame returns.
///
/// One arena lives per thread and a selection borrows it for its duration
/// with [`LookaheadScratch::with_thread`]: selection is synchronous and
/// never re-entrant, so strategy instances need not own one, and the
/// buffers outlive every session that used them.
#[derive(Default)]
pub(crate) struct LookaheadScratch {
    levels: Vec<LevelScratch>,
}

impl LookaheadScratch {
    const fn new() -> Self {
        Self { levels: Vec::new() }
    }

    /// Runs `search` with this thread's arena. The arena is moved out for
    /// the call and back after it, so a nested borrow (none happens) would
    /// get an empty arena instead of aliasing this one, and an arena whose
    /// search unwinds is dropped with it rather than left for the next
    /// selection on the thread.
    pub fn with_thread<R>(search: impl FnOnce(&mut LookaheadScratch) -> R) -> R {
        let mut arena = ARENA.take();
        let out = search(&mut arena);
        ARENA.set(arena);
        out
    }

    /// Takes the buffer set for recursion depth `depth` (growing the arena
    /// on demand). The returned buffers are cleared of per-frame state
    /// (candidates, stats, seen digests); the storage buffers keep their
    /// capacity.
    pub fn take_level(&mut self, depth: usize) -> LevelScratch {
        if depth >= self.levels.len() {
            self.levels.resize_with(depth + 1, LevelScratch::default);
        }
        let mut level = std::mem::take(&mut self.levels[depth]);
        level.stats.clear();
        level.ecounts.clear();
        level.wstats.clear();
        level.cand.clear();
        level.seen.clear();
        level
    }

    /// Returns a buffer set taken with [`Self::take_level`] so the capacity
    /// is reused by the next frame at this depth.
    pub fn put_level(&mut self, depth: usize, level: LevelScratch) {
        self.levels[depth] = level;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::Collection;

    fn figure1() -> Collection {
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
    fn full_view_covers_all() {
        let c = figure1();
        let v = c.full_view();
        assert_eq!(v.len(), 7);
        assert_eq!(v.total_elements(), 4 + 3 + 5 + 5 + 4 + 4 + 3);
        assert_eq!(v.bitmap().iter().collect::<Vec<_>>(), v.ids());
        assert_eq!(v.first_id(), Some(SetId(0)));
    }

    #[test]
    fn counts_match_inverted_index() {
        let c = figure1();
        let v = c.full_view();
        let mut counts = Vec::new();
        v.count_entities(&mut counts);
        for ec in &counts {
            assert_eq!(
                ec.count as usize,
                c.sets_containing(ec.entity).len(),
                "entity {}",
                ec.entity
            );
        }
        // The thread's counting buffer must be fully reset for reuse.
        let mut counts2 = Vec::new();
        v.count_entities(&mut counts2);
        assert_eq!(counts, counts2);
    }

    /// `(entity, count)` of every entity with nonzero count in `view`,
    /// from the inverted index alone.
    fn index_counts(view: &SubCollection<'_>) -> Vec<(EntityId, u32)> {
        let c = view.collection();
        let mut want: Vec<(EntityId, u32)> = (0..c.universe())
            .map(EntityId)
            .map(|e| {
                let n = c
                    .sets_containing(e)
                    .iter()
                    .filter(|&&id| view.bitmap().contains(id));
                (e, n.count() as u32)
            })
            .filter(|&(_, n)| n > 0)
            .collect();
        want.sort_unstable();
        want
    }

    /// The lengths of this thread's counting lanes and touched list.
    fn lanes() -> (usize, usize, usize, usize) {
        let s = COUNTS.take();
        let lanes = (s.counts.len(), s.fps.len(), s.wsums.len(), s.touched.len());
        COUNTS.set(s);
        lanes
    }

    /// Runs a weighted pass under a prior too short for `view`: it panics at
    /// the first set the table does not cover, after counting the sets
    /// before it — touched entries with nonzero counts. The pass's buffer
    /// unwinds with it, so the thread's slot must be left empty: nothing a
    /// later pass could read.
    fn unwind_a_pass(view: &SubCollection<'_>) {
        view.informative_weighted(&mut Vec::new(), &WeightTable::uniform(2));
        assert_ne!(lanes(), (0, 0, 0, 0), "the thread holds a grown buffer");
        let short = WeightTable::uniform(1);
        let mut out = Vec::new();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            view.informative_weighted(&mut out, &short)
        }));
        assert!(unwound.is_err(), "the short prior must panic mid-pass");
        assert_eq!(lanes(), (0, 0, 0, 0), "the unwound pass's counts are gone");
    }

    #[test]
    fn a_pass_after_an_unwound_pass_counts_exactly() {
        let c = figure1();
        let v = SubCollection::from_ids(&c, vec![SetId(0), SetId(1)]);
        let want = index_counts(&v);
        // The view is small enough that every pass kind takes the element
        // pass, which is the one that reads the thread's buffer.
        let preview = v.dispatch_preview(1);
        assert!(!preview.use_postings, "{preview:?}");

        unwind_a_pass(&v);
        let mut counts = Vec::new();
        v.count_entities(&mut counts);
        let mut got: Vec<_> = counts.iter().map(|ec| (ec.entity, ec.count)).collect();
        got.sort_unstable();
        assert_eq!(got, want, "count-only pass");

        unwind_a_pass(&v);
        let mut stats = Vec::new();
        v.count_entities_with_fp_elements(&mut stats);
        stats.sort_unstable_by_key(|s| s.entity);
        let mut swept = Vec::new();
        v.count_entities_with_fp_postings(&mut swept);
        assert_eq!(stats, swept, "fingerprint pass");

        unwind_a_pass(&v);
        let mut weighted = Vec::new();
        v.informative_weighted(&mut weighted, &WeightTable::uniform(7));
        let mut got: Vec<_> = weighted.iter().map(|s| (s.entity, s.count)).collect();
        got.sort_unstable();
        let informative: Vec<_> = want.iter().copied().filter(|&(_, n)| n < 2).collect();
        assert_eq!(got, informative, "weighted pass");
        assert!(weighted.iter().all(|s| s.wsum == u64::from(s.count)));
    }

    #[test]
    fn a_pass_grows_only_the_lanes_it_writes() {
        // On a fresh thread, so the buffer starts empty.
        std::thread::spawn(|| {
            let c = figure1();
            let v = SubCollection::from_ids(&c, vec![SetId(0), SetId(1)]);
            assert!(!v.dispatch_preview(1).use_postings);
            let u = c.universe() as usize;
            assert_eq!(lanes(), (0, 0, 0, 0));
            v.informative_into(&mut Vec::new());
            assert_eq!(lanes(), (u, 0, 0, 0), "count-only pass");
            v.informative_with_fp(&mut Vec::new());
            assert_eq!(lanes(), (u, u, 0, 0), "fingerprint pass");
            v.informative_weighted(&mut Vec::new(), &WeightTable::uniform(7));
            assert_eq!(lanes(), (u, u, u, 0), "weighted pass");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn counting_buffer_is_shared_across_universes() {
        // Small → large → small on one thread: the buffer keeps the large
        // universe's length, and every pass still counts exactly.
        let small = figure1();
        let large = Collection::from_raw_sets(
            (0..40u32)
                .map(|i| vec![i, i + 1, 100 + i % 7, 500 + i % 3])
                .collect(),
        )
        .unwrap();
        for c in [&small, &large, &small] {
            let v = c.full_view();
            let mut stats = Vec::new();
            v.count_entities_with_fp_elements(&mut stats);
            let mut got: Vec<_> = stats.iter().map(|s| (s.entity, s.count)).collect();
            got.sort_unstable();
            assert_eq!(got, index_counts(&v), "{} sets", c.len());
        }
    }

    #[test]
    fn informative_excludes_universal_entity() {
        let c = figure1();
        let v = c.full_view();
        let inf = v.informative_entities();
        // Entity a=0 is in all seven sets → uninformative (Example 3.1).
        assert!(inf.iter().all(|ec| ec.entity != EntityId(0)));
        // b..k are all informative: 10 of them.
        assert_eq!(inf.len(), 10);
    }

    #[test]
    fn partition_on_d_matches_paper() {
        // Fig 2a: d splits into {S1,S2,S3} and {S4..S7}.
        let c = figure1();
        let (yes, no) = c.full_view().partition(EntityId(3));
        assert_eq!(yes.ids(), &[SetId(0), SetId(1), SetId(2)]);
        assert_eq!(no.ids(), &[SetId(3), SetId(4), SetId(5), SetId(6)]);
        assert_eq!(yes.bitmap().iter().collect::<Vec<_>>(), yes.ids());
        assert_eq!(no.bitmap().iter().collect::<Vec<_>>(), no.ids());
        assert_eq!(yes.len(), 3);
        assert_eq!(no.len(), 4);
        assert_eq!(no.first_id(), Some(SetId(3)));
    }

    #[test]
    fn partition_of_subview() {
        let c = figure1();
        let v = SubCollection::from_ids(&c, vec![SetId(0), SetId(3), SetId(4)]);
        // g=6 is in S4 and S7; within this view only S4.
        let (yes, no) = v.partition(EntityId(6));
        assert_eq!(yes.ids(), &[SetId(3)]);
        assert_eq!(no.ids(), &[SetId(0), SetId(4)]);
    }

    #[test]
    fn partition_on_absent_entity() {
        let c = figure1();
        let (yes, no) = c.full_view().partition(EntityId(999));
        assert!(yes.is_empty());
        assert_eq!(no.len(), 7);
    }

    #[test]
    fn all_partition_kernels_agree() {
        // The dense word path, the sparse copy-and-clear path, and the
        // merge reference must produce identical children (ids, bitmap,
        // length, fingerprints) for every entity on dense and tiny views.
        let c = figure1();
        let views = [
            c.full_view(),
            SubCollection::from_ids(&c, vec![SetId(1), SetId(4)]),
            SubCollection::from_ids(&c, vec![]),
        ];
        for v in &views {
            for e in 0..=c.universe() {
                let e = EntityId(e);
                let (y1, n1) = v.partition(e);
                let (y2, n2) =
                    v.partition_into_merge(e, SubStorage::default(), SubStorage::default());
                assert_eq!(y1.len(), y2.len(), "yes len, entity {e}");
                assert_eq!(y1.ids(), y2.ids(), "yes ids, entity {e}");
                assert_eq!(n1.ids(), n2.ids(), "no ids, entity {e}");
                assert_eq!(y1.fingerprint(), y2.fingerprint());
                assert_eq!(n1.fingerprint(), n2.fingerprint());
                assert_eq!(y1.bitmap(), y2.bitmap());
                assert_eq!(n1.bitmap(), n2.bitmap());
            }
        }
    }

    #[test]
    fn counting_kernels_agree() {
        let c = figure1();
        let views = [
            c.full_view(),
            SubCollection::from_ids(&c, vec![SetId(0), SetId(2), SetId(5)]),
        ];
        for v in &views {
            let mut elements = Vec::new();
            v.count_entities_with_fp_elements(&mut elements);
            elements.sort_unstable_by_key(|s| s.entity);
            let mut postings = Vec::new();
            v.count_entities_with_fp_postings(&mut postings);
            assert_eq!(elements, postings, "view of {} sets", v.len());
        }
    }

    #[test]
    fn weighted_counts_agree_with_unweighted_under_uniform() {
        let c = figure1();
        let weights = WeightTable::uniform(7);
        let views = [
            c.full_view(),
            SubCollection::from_ids(&c, vec![SetId(0), SetId(2), SetId(5)]),
        ];
        for v in &views {
            let mut plain = Vec::new();
            v.informative_with_fp(&mut plain);
            plain.sort_unstable_by_key(|s| s.entity);
            let mut weighted = Vec::new();
            v.informative_weighted(&mut weighted, &weights);
            weighted.sort_unstable_by_key(|s| s.entity);
            assert_eq!(plain.len(), weighted.len());
            for (p, w) in plain.iter().zip(&weighted) {
                assert_eq!((p.entity, p.count, p.fp), (w.entity, w.count, w.fp));
                assert_eq!(w.wsum, u64::from(w.count), "uniform mass = count");
            }
            assert_eq!(v.total_weight(&weights), v.len() as u64);
        }
    }

    #[test]
    fn weighted_counts_track_skewed_mass() {
        let c = figure1();
        // S2 = {a,d,e} carries weight 10, the rest 1.
        let raw = [1u64, 10, 1, 1, 1, 1, 1];
        let weights = WeightTable::new(&raw).unwrap();
        let v = c.full_view();
        assert_eq!(v.total_weight(&weights), 16);
        let mut out = Vec::new();
        v.informative_weighted(&mut out, &weights);
        let e4 = out.iter().find(|s| s.entity == EntityId(4)).unwrap();
        assert_eq!((e4.count, e4.wsum), (1, 10), "e only occurs in S2");
        let d = out.iter().find(|s| s.entity == EntityId(3)).unwrap();
        assert_eq!((d.count, d.wsum), (3, 12), "d in S1,S2,S3");
        let (yes, _) = v.partition(EntityId(3));
        assert_eq!(yes.total_weight(&weights), 12);
    }

    #[test]
    fn from_ids_sorts_and_dedups() {
        let c = figure1();
        let v = SubCollection::from_ids(&c, vec![SetId(4), SetId(1), SetId(4)]);
        assert_eq!(v.ids(), &[SetId(1), SetId(4)]);
    }

    #[test]
    fn filter_keeps_order() {
        let c = figure1();
        let v = c.full_view().filter(|id| id.0 % 2 == 0);
        assert_eq!(v.ids(), &[SetId(0), SetId(2), SetId(4), SetId(6)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_ids_checks_range() {
        let c = figure1();
        SubCollection::from_ids(&c, vec![SetId(7)]);
    }

    #[test]
    fn informative_on_two_unique_sets_is_nonempty() {
        // Any two distinct sets must expose at least one informative entity
        // (their symmetric difference) — the invariant that guarantees tree
        // construction terminates.
        let c = Collection::from_raw_sets(vec![vec![1, 2], vec![1, 3]]).unwrap();
        let inf = c.full_view().informative_entities();
        assert!(!inf.is_empty());
    }

    #[test]
    fn fingerprints_agree_across_construction_paths() {
        let c = figure1();
        let full = c.full_view();
        // partition sides, from_ids, and filter must all agree on the
        // digest of the same id set.
        let (yes, no) = full.partition(EntityId(3));
        assert_eq!(
            yes.fingerprint(),
            SubCollection::from_ids(&c, yes.ids().to_vec()).fingerprint()
        );
        assert_eq!(
            no.fingerprint(),
            full.filter(|id| !yes.ids().contains(&id)).fingerprint()
        );
        // Incremental maintenance: parent = yes + no.
        assert_eq!(full.fingerprint(), yes.fingerprint() + no.fingerprint());
        // Distinct id sets ⇒ distinct digests (the memo-soundness property):
        // all 2⁷ subsets of Figure 1 are pairwise distinct.
        let mut seen = std::collections::HashSet::new();
        for mask in 0u32..128 {
            let ids: Vec<SetId> = (0..7).filter(|b| mask >> b & 1 == 1).map(SetId).collect();
            let fp = SubCollection::from_ids(&c, ids).fingerprint();
            assert!(seen.insert(fp), "fingerprint collision at mask {mask}");
        }
    }

    #[test]
    fn membership_fp_equals_yes_side_fp() {
        let c = figure1();
        let v = c.full_view();
        let mut stats = Vec::new();
        v.count_entities_with_fp(&mut stats);
        assert!(!stats.is_empty());
        for s in &stats {
            let (yes, _) = v.partition(s.entity);
            assert_eq!(s.fp, yes.fingerprint(), "entity {}", s.entity);
            assert_eq!(s.count as usize, yes.len());
            assert_eq!(v.membership_stat(s.entity), (s.count, s.fp));
        }
        // The informative variant filters exactly the universal entities.
        let mut inf = Vec::new();
        v.informative_with_fp(&mut inf);
        assert_eq!(inf.len(), 10);
        assert!(inf.iter().all(|s| s.entity != EntityId(0)));
        // Buffers are cleared, not appended to, on reuse.
        let before = inf.clone();
        v.informative_with_fp(&mut inf);
        assert_eq!(inf, before);
    }

    #[test]
    fn membership_fp_is_view_relative() {
        // d=3 lives in S1,S2,S3; within a subview its membership digest only
        // covers the subview's member sets.
        let c = figure1();
        let v = SubCollection::from_ids(&c, vec![SetId(0), SetId(3)]);
        let mut stats = Vec::new();
        v.count_entities_with_fp(&mut stats);
        let d = stats
            .iter()
            .find(|s| s.entity == EntityId(3))
            .expect("d occurs");
        assert_eq!(d.count, 1);
        assert_eq!(d.fp, fp_of_set(SetId(0)));
    }

    #[test]
    fn partition_into_recycles_storage() {
        let c = figure1();
        let v = c.full_view();
        // Pre-dirtied storage must be cleared and reused; children keep the
        // bitmap words unmaterialized until someone asks for ids.
        let yes_buf = SubStorage {
            ids: vec![SetId(99); 64],
            bits: IdBitmap::full(512),
        };
        let (yes, no) = v.partition_into(EntityId(3), yes_buf, SubStorage::default());
        assert_eq!(yes.len(), 3);
        assert_eq!(no.len(), 4);
        assert_eq!(yes.ids(), &[SetId(0), SetId(1), SetId(2)]);
        let reclaimed = yes.into_storage();
        assert_eq!(reclaimed.bits.words().len(), 1, "bitmap resized to fit");
        // An unmaterialized child hands back an empty id buffer.
        assert!(no.into_storage().ids.is_empty());
    }

    #[test]
    fn lazy_ids_materialize_once_and_round_trip() {
        let c = figure1();
        let (yes, no) = c.full_view().partition(EntityId(2));
        // into_ids on an unmaterialized view decodes from the bitmap.
        assert_eq!(
            no.clone().into_ids(),
            no.bitmap().iter().collect::<Vec<_>>()
        );
        // ids() caches: two calls, same slice content.
        let first = yes.ids().to_vec();
        assert_eq!(yes.ids(), first.as_slice());
        // A materialized view hands its vector back through into_storage.
        let storage = yes.into_storage();
        assert_eq!(storage.ids, first);
    }

    #[test]
    fn lookahead_scratch_levels_retain_capacity() {
        let mut scratch = LookaheadScratch::new();
        let mut level = scratch.take_level(2);
        level.yes.bits.reset(512);
        let words = level.yes.bits.words().len();
        level.cand.push(Candidate {
            score: 1,
            imbalance: 0,
            entity: EntityId(0),
            n1: 1,
            fp: Fingerprint::ZERO,
        });
        scratch.put_level(2, level);
        let level = scratch.take_level(2);
        assert!(level.cand.is_empty(), "per-frame state cleared");
        assert_eq!(level.yes.bits.words().len(), words, "bitmap words reused");
    }
}
