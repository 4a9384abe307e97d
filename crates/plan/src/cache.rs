//! The concurrent plan store and its engine adapter.
//!
//! A [`PlanCache`] is pinned to one collection (content identity captured
//! at construction) and holds nodes for any number of strategy
//! configurations over it, sharded 16 ways so concurrent sessions contend
//! only 1/16 of the time. Each entry is one decision-tree node: the entity
//! the strategy selects on that sub-collection, the bound and prune
//! statistics behind the pick, and the `(fingerprint, len)` keys of the
//! yes/no children (derived at record time from one postings pass — no
//! partition happens). A "don't know" reply leaves the sub-collection — and
//! therefore the key — unchanged, so the don't-know child of every node is
//! the node itself; it is not stored, and the engine hook never consults
//! the cache once entities are excluded (see the crate docs).
//!
//! Eviction is size-bounded and LRU-ish: every access stamps the entry
//! from a global clock, and an insert of a new key into a full shard drops
//! the least-recently-stamped quarter of that shard in one sweep — O(shard)
//! once per quarter-shard of churn, amortized O(1), no per-access list
//! surgery. A shard is full at its even share of the bound, or earlier at
//! the most nodes its share's bucket count holds (see `shard_limit`), so a
//! shard's table never doubles; the sweep rebuilds the survivors into a
//! fresh table instead of erasing in place, so no tombstones build up to
//! force a rehash into a larger one.

use setdisc_core::collection::Collection;
use setdisc_core::cost::Cost;
use setdisc_core::engine::{PlanOrigin, SelectionCache};
use setdisc_core::entity::EntityId;
use setdisc_core::strategy::SelectionDetail;
use setdisc_core::subcollection::SubCollection;
use setdisc_util::mem::{map_spine_bytes, HeapSize};
use setdisc_util::{faults, Fingerprint, FxHashMap, FxHasher};
use std::hash::Hasher as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Number of independently locked shards.
const SHARDS: usize = 16;

/// A strategy configuration the cache can distinguish — the serializable
/// projection of a wire-level strategy spec. Randomized strategies have no
/// key (they must not share plans); `setdisc-service` maps its
/// `StrategySpec` here and returns `None` for those.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StrategyKey {
    /// Selection family tag (the service's wire family, e.g. k-LP vs
    /// most-even). Opaque to this crate beyond equality.
    pub family: u8,
    /// Cost metric tag (0 = AD, 1 = H).
    pub metric: u8,
    /// Lookahead depth for the k-LP families (0 when not applicable).
    pub k: u32,
    /// Beam width for the limited families (0 when not applicable).
    pub beam: u32,
    /// Fingerprint of the per-set prior the strategy optimizes under
    /// (`setdisc_core::weights::WeightTable::fp`), or `0` for the
    /// unweighted strategy. Weight tables force their fingerprints odd, so
    /// `0` is unambiguous; folding the prior into the key keeps weighted
    /// and unweighted plans for the same family losslessly separate.
    pub weight_fp: u64,
}

/// Identity of one decision-tree node: a strategy configuration plus the
/// sub-collection's content `(fingerprint, len)` — the same
/// canonicalization the lookahead memos key on.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanKey {
    /// The strategy configuration that produced (or would produce) the
    /// selection.
    pub strategy: StrategyKey,
    /// 128-bit content digest of the candidate sub-collection.
    pub fp: Fingerprint,
    /// Number of candidate sets (always paired with the digest).
    pub len: u32,
}

/// One cached decision-tree node.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PlanNode {
    /// The entity the strategy selects on this sub-collection.
    pub entity: EntityId,
    /// The strategy's bound for the pick (`LB_k` for lookahead families,
    /// 0 for greedy strategies).
    pub bound: Cost,
    /// Informative entities at this node (0 when the strategy reported
    /// none — e.g. a greedy family or a memo-served selection).
    pub informative: u32,
    /// Entities whose bound computation started (Table-4 counter; 0 when
    /// unreported).
    pub evaluated: u32,
    /// `(fingerprint, len)` of the yes child (sets containing the entity).
    pub yes: (Fingerprint, u32),
    /// `(fingerprint, len)` of the no child. The don't-know child is this
    /// node's own key and is not stored.
    pub no: (Fingerprint, u32),
}

/// Aggregate counters of one [`PlanCache`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Nodes currently resident.
    pub nodes: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// The subset of `hits` served under a weighted strategy key
    /// (`weight_fp != 0`) — lets a warm weighted plan prove it is being
    /// consulted.
    pub weighted_hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Nodes ever inserted.
    pub inserted: u64,
    /// Nodes dropped by the size bound.
    pub evicted: u64,
}

impl PlanStats {
    /// Hits over lookups, in `[0, 1]` (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    node: PlanNode,
    stamp: u64,
    /// Provenance bit: `true` when the node arrived via a plan-file load
    /// ([`PlanCache::insert_loaded`]) rather than a live session's record.
    from_file: bool,
}

/// Deterministic byte cost accounted per resident node: the key-value
/// slot plus one hash-table control byte. Every entry is the same size
/// (`PlanNode` is `Copy` and flat), so a shard's byte counter is exactly
/// `node_bytes × residents` — which is what lets tests cold-recount the
/// incrementally maintained counters from [`PlanCache::export_nodes`].
const NODE_BYTES: usize = std::mem::size_of::<(PlanKey, Entry)>() + 1;

#[derive(Default)]
struct Shard {
    map: FxHashMap<PlanKey, Entry>,
    /// Accounted bytes of this shard's residents — maintained on insert
    /// and evict, never recomputed (DESIGN.md §13).
    bytes: usize,
}

impl Shard {
    /// Drops the least-recently-stamped entries until at most `keep`
    /// (≤ `limit`) remain, returning how many were dropped. Stamps are
    /// unique (global counter), so the cutoff removes an exact count. The
    /// survivors move into a fresh table sized for `limit` nodes: erasing
    /// in place would leave tombstones that count against the table's
    /// load, so later inserts would rehash it into one twice the size.
    fn evict_to(&mut self, keep: usize, limit: usize) -> u64 {
        let drop = self.map.len().saturating_sub(keep);
        if drop == 0 {
            return 0;
        }
        let mut stamps: Vec<u64> = self.map.values().map(|e| e.stamp).collect();
        let (_, cutoff, _) = stamps.select_nth_unstable(drop - 1);
        let cutoff = *cutoff;
        let before = self.map.len();
        let mut kept = FxHashMap::with_capacity_and_hasher(limit, Default::default());
        kept.extend(self.map.drain().filter(|(_, e)| e.stamp > cutoff));
        self.map = kept;
        let dropped = before - self.map.len();
        self.bytes -= dropped * NODE_BYTES;
        dropped as u64
    }
}

/// Most nodes one shard holds under a cache bound of `capacity`: its even
/// share, but no more than a hash table of `share.next_power_of_two()`
/// buckets holds at the standard table's 7/8 load (a table of fewer than
/// 8 buckets holds one less than its bucket count, and the smallest has
/// 4). Without that cap a share of 16,384 nodes — the default bound's —
/// fills its 16,384-bucket table at 14,336 and doubles it to 32,768
/// buckets for the last 2,048 nodes; with it, that shard evicts instead
/// and its table never grows past the bucket count its share names.
fn shard_limit(capacity: usize) -> usize {
    let share = capacity.div_ceil(SHARDS);
    let buckets = share.next_power_of_two();
    let fits = if buckets < 8 {
        buckets.max(4) - 1
    } else {
        buckets / 8 * 7
    };
    share.min(fits)
}

/// A concurrent, size-bounded, persistable store of decision-tree nodes
/// for one collection.
pub struct PlanCache {
    collection_fp: Fingerprint,
    collection_len: u32,
    /// Node bound. Atomic so the memory governor can lower it on a live
    /// cache ([`Self::shrink_to`]) without stopping traffic.
    capacity: AtomicUsize,
    shards: Vec<Mutex<Shard>>,
    clock: AtomicU64,
    resident: AtomicU64,
    hits: AtomicU64,
    weighted_hits: AtomicU64,
    misses: AtomicU64,
    inserted: AtomicU64,
    evicted: AtomicU64,
}

/// Content identity of a collection: an order-independent 128-bit digest
/// binding every set's *content* fingerprint to its `SetId` (ids matter —
/// cached selections name entities whose membership is expressed through
/// those ids). Two collections match iff they hold the same sets under the
/// same ids, up to the usual fingerprint collision odds.
pub fn collection_identity(collection: &Collection) -> Fingerprint {
    collection
        .iter()
        .map(|(id, set)| {
            let mut h = FxHasher::default();
            h.write_u32(id.0);
            let content = set.fingerprint().as_u128();
            h.write_u64(content as u64);
            h.write_u64((content >> 64) as u64);
            Fingerprint::of(h.finish())
        })
        .sum()
}

impl PlanCache {
    /// An empty cache pinned to `collection`, bounded to about `capacity`
    /// resident nodes (clamped to ≥ the shard count so every shard can
    /// hold at least one entry). Each shard evicts at its own limit (see
    /// the module docs), so a cache can start evicting below `capacity`;
    /// a caller that must keep `n` nodes resident asks for headroom.
    pub fn for_collection(collection: &Collection, capacity: usize) -> Self {
        Self::with_identity(
            collection_identity(collection),
            collection.len() as u32,
            capacity,
        )
    }

    /// An empty cache for a known collection identity (the deserialization
    /// path; prefer [`Self::for_collection`]).
    pub fn with_identity(collection_fp: Fingerprint, collection_len: u32, capacity: usize) -> Self {
        Self {
            collection_fp,
            collection_len,
            capacity: AtomicUsize::new(capacity.max(SHARDS)),
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            clock: AtomicU64::new(0),
            resident: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            weighted_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserted: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// The pinned collection's content identity.
    pub fn collection_fp(&self) -> Fingerprint {
        self.collection_fp
    }

    /// The pinned collection's set count.
    pub fn collection_len(&self) -> u32 {
        self.collection_len
    }

    /// The configured node bound.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// The deterministic byte cost accounted per resident node.
    pub fn node_bytes() -> usize {
        NODE_BYTES
    }

    /// Accounted resident bytes, summed from the per-shard counters
    /// (maintained on insert/evict — this read takes the shard locks but
    /// recomputes nothing).
    pub fn accounted_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("plan shard poisoned").bytes)
            .sum()
    }

    /// The per-shard byte counters, in shard order (diagnostics and the
    /// governance invariants suite).
    pub fn shard_bytes(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.lock().expect("plan shard poisoned").bytes)
            .collect()
    }

    /// Lowers the node bound to `new_cap` (clamped to ≥ the shard count;
    /// never raises it) and evicts least-recently-stamped entries per
    /// shard until every shard fits its limit under the new bound.
    /// Returns the number of nodes evicted. This is the degradation
    /// ladder's first rung: plan nodes are derived data — re-learnable
    /// from traffic — so they are the cheapest thing to give back.
    pub fn shrink_to(&self, new_cap: usize) -> u64 {
        let new_cap = new_cap.max(SHARDS);
        let current = self.capacity.load(Ordering::Relaxed);
        if new_cap < current {
            self.capacity.store(new_cap, Ordering::Relaxed);
        }
        let limit = shard_limit(self.capacity.load(Ordering::Relaxed));
        let mut dropped = 0u64;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("plan shard poisoned");
            dropped += shard.evict_to(limit, limit);
            // A governor shrink must actually give spine memory back: a
            // shard that evicted nothing keeps the table it grew under
            // the old bound.
            shard.map.shrink_to_fit();
        }
        if dropped > 0 {
            self.resident.fetch_sub(dropped, Ordering::Relaxed);
            self.evicted.fetch_add(dropped, Ordering::Relaxed);
        }
        dropped
    }

    /// True when `collection` is (content- and id-wise) the collection this
    /// cache was built for — the attach-time validation gate.
    pub fn matches(&self, collection: &Collection) -> bool {
        self.collection_len == collection.len() as u32
            && self.collection_fp == collection_identity(collection)
    }

    fn shard(&self, key: &PlanKey) -> &Mutex<Shard> {
        // The fingerprint is already uniformly mixed; fold both lanes so
        // shard choice differs from any map-internal bucketing.
        let raw = key.fp.as_u128();
        let h = (raw as u64) ^ (raw >> 64) as u64 ^ u64::from(key.len);
        &self.shards[(h % SHARDS as u64) as usize]
    }

    /// The cached node for `key`, stamping it most-recently-used. Counts a
    /// hit or miss.
    pub fn get(&self, key: &PlanKey) -> Option<PlanNode> {
        self.get_with_origin(key).map(|(node, _)| node)
    }

    /// [`Self::get`] plus whether the served node was loaded from a plan
    /// file or recorded online — byte-identical cache-state effects (one
    /// probe, same stamp, same hit/miss counters), so provenance-armed
    /// and disarmed runs leave indistinguishable caches.
    pub fn get_with_origin(&self, key: &PlanKey) -> Option<(PlanNode, PlanOrigin)> {
        let mut shard = self.shard(key).lock().expect("plan shard poisoned");
        match shard.map.get_mut(key) {
            Some(entry) => {
                entry.stamp = self.clock.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                if key.strategy.weight_fp != 0 {
                    self.weighted_hits.fetch_add(1, Ordering::Relaxed);
                }
                let origin = if entry.from_file {
                    PlanOrigin::File
                } else {
                    PlanOrigin::Online
                };
                Some((entry.node, origin))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Probes `key` without stamping or counting (serialization and
    /// precompute use this to avoid skewing the serving statistics).
    pub fn peek(&self, key: &PlanKey) -> Option<PlanNode> {
        let shard = self.shard(key).lock().expect("plan shard poisoned");
        shard.map.get(key).map(|e| e.node)
    }

    /// Inserts (or replaces) a node. When the *target* shard is full (see
    /// the module docs), its least-recently-stamped quarter is dropped
    /// first — O(shard) once per quarter-shard of churn. Every shard holds
    /// at most its share of the bound, so the bound holds globally up to
    /// rounding the share up (at most one node per shard).
    pub fn insert(&self, key: PlanKey, node: PlanNode) {
        self.insert_with_origin(key, node, false);
    }

    /// [`Self::insert`] marking the node as plan-file-loaded — the warm
    /// boot / precompute-install path, so later hits can report
    /// [`PlanOrigin::File`]. It never evicts: hash shards fill unevenly,
    /// and a loaded plan must keep its whole payload (the loader raises
    /// the bound to the file's node count). A later online insert into a
    /// shard left over its limit trims it back.
    pub fn insert_loaded(&self, key: PlanKey, node: PlanNode) {
        self.insert_with_origin(key, node, true);
    }

    fn insert_with_origin(&self, key: PlanKey, node: PlanNode, from_file: bool) {
        // Under injected allocation pressure the node is simply not
        // cached — plans are derived data, and a cache that cannot grow
        // still serves what it holds (the session recomputes this one
        // selection).
        if faults::alloc_pressure("plan.insert") {
            return;
        }
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let limit = shard_limit(self.capacity());
        let mut shard = self.shard(&key).lock().expect("plan shard poisoned");
        if !from_file && shard.map.len() >= limit && !shard.map.contains_key(&key) {
            // Drop the least-recently-stamped quarter of the limit (at
            // least one entry) — O(shard) once per quarter-shard of churn.
            let keep = limit - (limit / 4).max(1);
            let dropped = shard.evict_to(keep, limit);
            self.resident.fetch_sub(dropped, Ordering::Relaxed);
            self.evicted.fetch_add(dropped, Ordering::Relaxed);
        }
        if shard
            .map
            .insert(
                key,
                Entry {
                    node,
                    stamp,
                    from_file,
                },
            )
            .is_none()
        {
            shard.bytes += NODE_BYTES;
            self.resident.fetch_add(1, Ordering::Relaxed);
            self.inserted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of resident nodes (O(1): maintained counter).
    pub fn len(&self) -> usize {
        self.resident.load(Ordering::Relaxed) as usize
    }

    /// True when no node is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate counters.
    pub fn stats(&self) -> PlanStats {
        PlanStats {
            nodes: self.len() as u64,
            hits: self.hits.load(Ordering::Relaxed),
            weighted_hits: self.weighted_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserted: self.inserted.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
        }
    }

    /// Every resident `(key, node)` pair, deterministically ordered (by
    /// key) so persisted files are byte-stable for a given content.
    pub fn export_nodes(&self) -> Vec<(PlanKey, PlanNode)> {
        let mut out: Vec<(PlanKey, PlanNode)> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            let shard = shard.lock().expect("plan shard poisoned");
            out.extend(shard.map.iter().map(|(k, e)| (*k, e.node)));
        }
        out.sort_unstable_by_key(|(k, _)| *k);
        out
    }

    /// The distinct strategy configurations with at least one resident
    /// node, sorted. Lets a loader check whether a persisted plan actually
    /// covers the strategy (and prior) it is about to serve — e.g. a
    /// weighted-key file attached to an unweighted strategy shares zero
    /// nodes and should be reported rather than silently serving nothing.
    pub fn strategy_keys(&self) -> Vec<StrategyKey> {
        let mut keys: Vec<StrategyKey> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("plan shard poisoned");
            keys.extend(shard.map.keys().map(|k| k.strategy));
        }
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// True when at least one resident node belongs to `strategy`.
    pub fn covers_strategy(&self, strategy: StrategyKey) -> bool {
        self.shards.iter().any(|shard| {
            let shard = shard.lock().expect("plan shard poisoned");
            shard.map.keys().any(|k| k.strategy == strategy)
        })
    }
}

impl HeapSize for PlanCache {
    fn heap_bytes(&self) -> usize {
        // Resident entries from the maintained counters, plus the spare
        // table slots each shard still has allocated (a slot costs the
        // same whether occupied or not, so this sums to the spine at the
        // shard's current capacity without recounting residents).
        self.shards
            .iter()
            .map(|s| {
                let s = s.lock().expect("plan shard poisoned");
                let spare = s.map.capacity().saturating_sub(s.map.len());
                s.bytes + map_spine_bytes::<PlanKey, Entry>(spare)
            })
            .sum()
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PlanCache({} nodes over {} sets)",
            self.len(),
            self.collection_len
        )
    }
}

/// One `(cache, strategy configuration)` pair adapted to the engine's
/// [`SelectionCache`] hook. Construction pins the process-local token of
/// the collection the sessions will run over; a view from any other
/// collection (programmer error) misses safely instead of cross-serving.
pub struct ScopedPlanCache {
    cache: Arc<PlanCache>,
    strategy: StrategyKey,
    collection_token: u64,
}

impl ScopedPlanCache {
    /// Scopes `cache` to one strategy configuration over `collection`.
    /// Returns `None` when the cache was built for a different collection
    /// (the caller decided to attach before validating).
    pub fn new(
        cache: Arc<PlanCache>,
        strategy: StrategyKey,
        collection: &Collection,
    ) -> Option<Self> {
        cache
            .matches(collection)
            .then(|| Self::new_prevalidated(cache, strategy, collection))
    }

    /// Like [`Self::new`], but trusts the caller that
    /// `cache.matches(collection)` already holds — the per-session path
    /// for caches obtained from the snapshot that owns the collection
    /// (validated once at lazy construction or plan-file install), where
    /// re-hashing every set's identity on each session create would put an
    /// O(collection) pass on the hot path. Debug builds still assert the
    /// match.
    pub fn new_prevalidated(
        cache: Arc<PlanCache>,
        strategy: StrategyKey,
        collection: &Collection,
    ) -> Self {
        debug_assert!(
            cache.matches(collection),
            "plan cache scoped to a collection it was not built for"
        );
        Self {
            cache,
            strategy,
            collection_token: collection.token(),
        }
    }

    /// The underlying shared cache.
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// The scoped strategy configuration.
    pub fn strategy(&self) -> StrategyKey {
        self.strategy
    }

    /// The [`PlanKey`] of a view under this scope.
    pub fn key_of(&self, view: &SubCollection<'_>) -> PlanKey {
        PlanKey {
            strategy: self.strategy,
            fp: view.fingerprint(),
            len: view.len() as u32,
        }
    }
}

impl SelectionCache for ScopedPlanCache {
    fn lookup(&self, view: &SubCollection<'_>) -> Option<EntityId> {
        if view.collection().token() != self.collection_token {
            debug_assert!(false, "plan cache consulted for a foreign collection");
            return None;
        }
        self.cache.get(&self.key_of(view)).map(|node| node.entity)
    }

    fn lookup_with_origin(&self, view: &SubCollection<'_>) -> Option<(EntityId, PlanOrigin)> {
        if view.collection().token() != self.collection_token {
            debug_assert!(false, "plan cache consulted for a foreign collection");
            return None;
        }
        self.cache
            .get_with_origin(&self.key_of(view))
            .map(|(node, origin)| (node.entity, origin))
    }

    fn record(&self, view: &SubCollection<'_>, detail: &SelectionDetail) {
        if view.collection().token() != self.collection_token {
            debug_assert!(false, "plan cache recorded for a foreign collection");
            return;
        }
        let (n1, yes_fp) = view.membership_stat(detail.entity);
        debug_assert!(n1 >= 1 && (n1 as usize) < view.len(), "informative pick");
        let node = PlanNode {
            entity: detail.entity,
            bound: detail.bound,
            informative: detail.informative,
            evaluated: detail.evaluated,
            yes: (yes_fp, n1),
            no: (view.fingerprint() - yes_fp, view.len() as u32 - n1),
        };
        self.cache.insert(self.key_of(view), node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setdisc_core::cost::AvgDepth;
    use setdisc_core::lookahead::KLp;
    use setdisc_core::strategy::SelectionStrategy;

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

    fn key(strategy: StrategyKey, fp: Fingerprint, len: u32) -> PlanKey {
        PlanKey { strategy, fp, len }
    }

    const KLP2: StrategyKey = StrategyKey {
        family: 0,
        metric: 0,
        k: 2,
        beam: 0,
        weight_fp: 0,
    };

    fn node(entity: u32) -> PlanNode {
        PlanNode {
            entity: EntityId(entity),
            bound: 17,
            informative: 5,
            evaluated: 2,
            yes: (Fingerprint::of(1), 3),
            no: (Fingerprint::of(2), 4),
        }
    }

    #[test]
    fn get_insert_and_stats_round_trip() {
        let c = figure1();
        let cache = PlanCache::for_collection(&c, 1024);
        let k = key(KLP2, Fingerprint::of(99), 7);
        assert_eq!(cache.get(&k), None);
        cache.insert(k, node(3));
        assert_eq!(cache.get(&k), Some(node(3)));
        assert_eq!(cache.peek(&k), Some(node(3)));
        let stats = cache.stats();
        assert_eq!(
            (stats.nodes, stats.hits, stats.misses, stats.inserted),
            (1, 1, 1, 1)
        );
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        // A different strategy configuration is a different node.
        let other = StrategyKey { k: 3, ..KLP2 };
        assert_eq!(cache.peek(&key(other, Fingerprint::of(99), 7)), None);
    }

    #[test]
    fn weighted_keys_are_separate_and_counted() {
        let c = figure1();
        let cache = PlanCache::for_collection(&c, 1024);
        let weighted = StrategyKey {
            weight_fp: 0x1234_5678_9abc_def1,
            ..KLP2
        };
        cache.insert(key(KLP2, Fingerprint::of(7), 7), node(1));
        cache.insert(key(weighted, Fingerprint::of(7), 7), node(2));
        // Same view, different prior → different node; only the weighted
        // hit bumps the weighted counter.
        assert_eq!(cache.get(&key(KLP2, Fingerprint::of(7), 7)), Some(node(1)));
        assert_eq!(cache.stats().weighted_hits, 0);
        assert_eq!(
            cache.get(&key(weighted, Fingerprint::of(7), 7)),
            Some(node(2))
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.weighted_hits), (2, 1));
        // Strategy inventory distinguishes the two configurations.
        assert_eq!(cache.strategy_keys(), vec![KLP2, weighted]);
        assert!(cache.covers_strategy(weighted));
        assert!(!cache.covers_strategy(StrategyKey { k: 9, ..KLP2 }));
    }

    #[test]
    fn identity_binds_content_and_ids() {
        let a = figure1();
        let b = figure1();
        assert_eq!(collection_identity(&a), collection_identity(&b));
        let cache = PlanCache::for_collection(&a, 64);
        assert!(cache.matches(&b), "identical content matches");
        // Same sets, two swapped ids → different identity.
        let swapped = Collection::from_raw_sets(vec![
            vec![0, 3, 4],
            vec![0, 1, 2, 3],
            vec![0, 1, 2, 3, 5],
            vec![0, 1, 2, 6, 7],
            vec![0, 1, 7, 8],
            vec![0, 1, 9, 10],
            vec![0, 1, 6],
        ])
        .unwrap();
        assert!(!cache.matches(&swapped));
        let smaller = Collection::from_raw_sets(vec![vec![0, 1], vec![0, 2]]).unwrap();
        assert!(!cache.matches(&smaller));
    }

    #[test]
    fn eviction_bounds_size_and_keeps_recent() {
        let c = figure1();
        let cache = PlanCache::for_collection(&c, 64);
        for i in 0..10_000u64 {
            cache.insert(key(KLP2, Fingerprint::of(i), 7), node(1));
        }
        let stats = cache.stats();
        assert!(
            stats.nodes as usize <= cache.capacity() + 16,
            "{} far over cap {}",
            stats.nodes,
            cache.capacity()
        );
        assert!(stats.evicted > 0);
        // The most recent insert survives (it carries the newest stamp).
        assert!(cache.peek(&key(KLP2, Fingerprint::of(9_999), 7)).is_some());
    }

    #[test]
    fn recently_used_entries_survive_eviction_pressure() {
        let c = figure1();
        let cache = PlanCache::for_collection(&c, 64);
        let hot = key(KLP2, Fingerprint::of(0), 7);
        cache.insert(hot, node(42));
        for i in 1..5_000u64 {
            // Touch the hot key continuously while cold keys churn.
            assert_eq!(cache.get(&hot).map(|n| n.entity), Some(EntityId(42)));
            cache.insert(key(KLP2, Fingerprint::of(i), 7), node(1));
        }
        assert!(cache.peek(&hot).is_some(), "hot entry evicted");
    }

    #[test]
    fn shard_limit_is_where_a_shard_table_would_double() {
        for capacity in [64usize, 1_000, 1 << 12, 16 * 5_000, 1 << 18] {
            let share = capacity.div_ceil(SHARDS);
            let limit = shard_limit(capacity);
            assert!(limit <= share, "capacity {capacity}");
            let mut map: FxHashMap<PlanKey, Entry> = FxHashMap::default();
            let entry = |i: u64| Entry {
                node: node(1),
                stamp: i,
                from_file: false,
            };
            for i in 0..limit as u64 {
                map.insert(key(KLP2, Fingerprint::of(i), 7), entry(i));
            }
            // Fewer slots than the share's power of two: the table has at
            // most that many buckets, not twice as many.
            assert!(
                map.capacity() < share.next_power_of_two().max(4),
                "capacity {capacity}: {} slots for a share of {share}",
                map.capacity()
            );
            if limit < share {
                // The limit is the table's fill point: one more node would
                // double it.
                let slots = map.capacity();
                map.insert(key(KLP2, Fingerprint::of(u64::MAX), 7), entry(0));
                assert!(map.capacity() > slots, "capacity {capacity}");
            }
        }
    }

    #[test]
    fn churn_past_the_bound_never_doubles_a_shard_table() {
        // A power-of-two share fills its shard's table at 7/8 of the
        // share; growing the table for the rest, or letting eviction
        // tombstones force a rehash, doubles the spine. Sixteen bounds'
        // worth of churn must leave it within the bound's slot count.
        use setdisc_util::mem::HeapSize as _;
        let c = figure1();
        let capacity = 1 << 12;
        let cache = PlanCache::for_collection(&c, capacity);
        for i in 0..16 * capacity as u64 {
            cache.insert(key(KLP2, Fingerprint::of(i), 7), node(1));
        }
        assert!(cache.stats().evicted > 0);
        assert!(cache.len() * 2 > capacity, "{} resident", cache.len());
        assert!(
            cache.heap_bytes() <= capacity * PlanCache::node_bytes(),
            "{} heap bytes for {} resident, bound {capacity}",
            cache.heap_bytes(),
            cache.len()
        );
    }

    #[test]
    fn scoped_cache_records_child_keys_consistent_with_partition() {
        let c = figure1();
        let cache = Arc::new(PlanCache::for_collection(&c, 1024));
        let scoped = ScopedPlanCache::new(Arc::clone(&cache), KLP2, &c).unwrap();
        let view = c.full_view();
        let mut klp = KLp::<AvgDepth>::new(2);
        let detail = klp
            .select_with_detail(&view, &setdisc_util::FxHashSet::default())
            .unwrap();
        SelectionCache::record(&scoped, &view, &detail);
        let stored = cache.peek(&scoped.key_of(&view)).unwrap();
        assert_eq!(stored.entity, detail.entity);
        assert_eq!(stored.bound, detail.bound);
        let (yes, no) = view.partition(detail.entity);
        assert_eq!(stored.yes, (yes.fingerprint(), yes.len() as u32));
        assert_eq!(stored.no, (no.fingerprint(), no.len() as u32));
        // And the lookup serves it back.
        assert_eq!(SelectionCache::lookup(&scoped, &view), Some(detail.entity));
    }

    #[test]
    fn scoped_cache_rejects_foreign_collections() {
        let c = figure1();
        let other = Collection::from_raw_sets(vec![vec![0, 1], vec![0, 2]]).unwrap();
        let cache = Arc::new(PlanCache::for_collection(&c, 64));
        assert!(ScopedPlanCache::new(cache, KLP2, &other).is_none());
    }

    #[test]
    fn byte_counters_track_churn_exactly() {
        let c = figure1();
        let cache = PlanCache::for_collection(&c, 64);
        for i in 0..5_000u64 {
            cache.insert(key(KLP2, Fingerprint::of(i), 7), node(1));
            // Re-inserting an existing key must not double-account.
            cache.insert(key(KLP2, Fingerprint::of(i), 7), node(2));
        }
        let recount = cache.export_nodes().len() * PlanCache::node_bytes();
        assert_eq!(cache.accounted_bytes(), recount, "after eviction churn");
        assert_eq!(
            cache.shard_bytes().iter().sum::<usize>(),
            cache.accounted_bytes()
        );
        use setdisc_util::mem::HeapSize as _;
        assert!(cache.heap_bytes() >= cache.accounted_bytes());
    }

    #[test]
    fn shrink_to_lowers_the_bound_and_evicts_cold_entries() {
        let c = figure1();
        let cache = PlanCache::for_collection(&c, 1024);
        for i in 0..512u64 {
            cache.insert(key(KLP2, Fingerprint::of(i), 7), node(1));
        }
        let hot = key(KLP2, Fingerprint::of(3), 7);
        assert!(cache.get(&hot).is_some(), "stamp the hot entry freshest");
        let dropped = cache.shrink_to(64);
        assert!(dropped > 0);
        assert_eq!(cache.capacity(), 64, "bound lowered");
        assert!(cache.len() <= 64, "residents fit the new bound");
        assert!(cache.peek(&hot).is_some(), "recently used survives");
        assert_eq!(
            cache.accounted_bytes(),
            cache.export_nodes().len() * PlanCache::node_bytes(),
            "counters stay exact through shrink"
        );
        // Never raises: asking for more capacity back is a no-op.
        cache.shrink_to(4096);
        assert_eq!(cache.capacity(), 64);
        // The floor is one entry per shard.
        cache.shrink_to(0);
        assert_eq!(cache.capacity(), 16);
        assert!(cache.len() <= 16);
    }

    #[test]
    fn export_is_sorted_and_complete() {
        let c = figure1();
        let cache = PlanCache::for_collection(&c, 1024);
        for i in [5u64, 1, 9, 3] {
            cache.insert(key(KLP2, Fingerprint::of(i), 7), node(i as u32));
        }
        let nodes = cache.export_nodes();
        assert_eq!(nodes.len(), 4);
        assert!(nodes.windows(2).all(|w| w[0].0 < w[1].0), "sorted by key");
    }
}
