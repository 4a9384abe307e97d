//! k-step lookahead entity selection with pruning (paper §4.3–4.4).
//!
//! [`KLp`] implements Algorithm 1 (*k-Lookahead with Pruning*) plus its two
//! beam variants:
//!
//! * **k-LP** — all informative entities are candidates at every step;
//! * **k-LPLE** — only the `q` most-even entities are candidates at every
//!   step of the bound calculation (§4.4.2);
//! * **k-LPLVE** — `q` candidates at the selection level, a *single*
//!   candidate in every recursive step (§4.4.3).
//!
//! Pruning (Lemma 4.4) is applied in the two places §4.3.1 describes:
//!
//! 1. candidates are ranked by 1-step lower bound (≡ most-even first); the
//!    scan stops at the first candidate whose `LB₁` already reaches the best
//!    `LB_k` found (the paper's AFLV), pruning it and every later candidate.
//!    The ranking is *lazy* (see `Ranked`): only the consumed prefix is ever
//!    sorted (via repeated `select_nth` partitioning), because the early
//!    exit typically visits a handful of the hundreds of candidates;
//! 2. recursive calls receive exclusive upper limits (eqs. 11–14); a child
//!    that cannot beat its limit returns "pruned" and the candidate is
//!    abandoned without computing the other child.
//!
//! Results are memoized per (sub-collection, k) with the exact cache
//! semantics of Algorithm 1 lines 1–6: a negative entry `(None, b)` means
//! "no entity here has `LB_k < b`" and only short-circuits callers whose
//! limit is at most `b`. The memo key is the view's 128-bit content
//! [`Fingerprint`] paired with its length — an O(1) probe with no boxed id
//! vector per entry; see `setdisc_util::hash` for the collision bound.
//!
//! The selection level is depth 0 of the same recursion: it differs only in
//! its beam width (k-LPLVE), its memo key, and in recording the node's
//! Table-4 statistics. The recursion is allocation-free in steady state:
//! candidate lists and the storage of every split live in a depth-indexed
//! arena that each selection borrows from its thread (as counting passes
//! borrow the thread's counting buffer), so a strategy instance holds only
//! what outlives a selection — memo, `LB₀` table, and statistics — and no
//! buffer sized to the collection; splits are word-parallel
//! bitmap kernels ([`SubCollection::partition_into`]); `LB₀` values come
//! from a per-search [`Lb0Table`]; and duplicate-partition candidates
//! (entities with identical membership across the member sets) are
//! dropped on the membership digest the split computes as a byproduct,
//! before any bound work happens — which frees candidate generation to use
//! the fingerprint-free counting pass.
//!
//! [`GainK`] is the unpruned k-step lookahead baseline in the style of
//! Esmeir & Markovitch's *gain-k* — identical recursion, no sorting-based
//! early exit, no upper limits, no memoization — used by the Figure 4
//! speedup experiments.

use crate::cost::{imbalance, AvgDepth, Cost, CostModel, Lb0Table, UNBOUNDED};
use crate::entity::EntityId;
use crate::strategy::{
    CandidateOutcome, RankedCandidate, SelectionDetail, SelectionStrategy, SelectionTrace,
    EXPLAIN_RANKED_CAP,
};
use crate::subcollection::{
    Candidate, EntityCount, LookaheadScratch, SubCollection, WeightedEntityStats,
};
use crate::weights::{combine_w, ul_first_w, ul_second_w, wlb0, WeightTable};
use setdisc_util::{Fingerprint, FxHashMap, FxHashSet};
use std::mem;
use std::sync::Arc;

/// Candidate-limiting mode for [`KLp`] (§4.4).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum KLpBeam {
    /// k-LP: every informative entity is a candidate.
    Full,
    /// k-LPLE: the `q` most-even entities are candidates at every level.
    Limited {
        /// Beam width.
        q: usize,
    },
    /// k-LPLVE: `q` candidates at the selection level, one in recursion.
    LimitedVariable {
        /// Beam width at the selection level.
        q: usize,
    },
}

impl KLpBeam {
    fn width(self, is_top: bool) -> usize {
        match self {
            KLpBeam::Full => usize::MAX,
            KLpBeam::Limited { q } => q,
            KLpBeam::LimitedVariable { q } => {
                if is_top {
                    q
                } else {
                    1
                }
            }
        }
    }
}

/// Prune statistics for one selection node (one entry per decision-tree
/// node / interactive question), reproducing Table 4.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct NodeStats {
    /// `|C|` at this node.
    pub collection_size: u32,
    /// Informative entities available at this node.
    pub informative: u32,
    /// Entities whose k-step bound computation was started.
    pub evaluated: u32,
}

impl NodeStats {
    /// Entities pruned outright at this node.
    pub fn pruned(&self) -> u32 {
        self.informative - self.evaluated
    }

    /// Fraction pruned in `[0, 1]`; 0 when there was nothing to prune.
    pub fn pruned_fraction(&self) -> f64 {
        if self.informative == 0 {
            0.0
        } else {
            self.pruned() as f64 / self.informative as f64
        }
    }
}

/// Aggregated prune statistics across selection nodes.
#[derive(Clone, Debug, Default)]
pub struct PruneStats {
    /// Per-node records in selection order.
    pub nodes: Vec<NodeStats>,
}

impl PruneStats {
    /// Mean pruned fraction across nodes (Table 4 "Avg").
    pub fn avg_pruned_fraction(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.nodes
            .iter()
            .map(NodeStats::pruned_fraction)
            .sum::<f64>()
            / self.nodes.len() as f64
    }

    /// Minimum pruned fraction across nodes (Table 4 "Min").
    pub fn min_pruned_fraction(&self) -> f64 {
        self.nodes
            .iter()
            .map(NodeStats::pruned_fraction)
            .fold(f64::INFINITY, f64::min)
            .min(1.0)
    }

    /// Drops all records.
    pub fn clear(&mut self) {
        self.nodes.clear();
    }
}

/// Memo key: `(view fingerprint, |view|, k, is_top)`. Copy-sized, so a
/// probe hashes four words instead of a boxed id slice.
type CacheKey = (Fingerprint, u32, u32, bool);

#[derive(Copy, Clone)]
struct CacheEntry {
    entity: Option<EntityId>,
    bound: Cost,
}

/// Bytes one [`KLp`] memo entry occupies in its hash table: key, value,
/// and the table's control byte. Session admission charges this per
/// expected entry.
pub const MEMO_ENTRY_BYTES: usize = std::mem::size_of::<(CacheKey, CacheEntry)>() + 1;

/// What one call of [`KLp::klp`] found: the argmin when some candidate
/// achieves `LB_k` below the call's upper limit (otherwise `None`, with
/// `bound` the tightest bound knowledge), plus the node's Table-4 counts
/// — zero on a memo hit, which re-runs no scan.
#[derive(Copy, Clone, Default)]
struct Found {
    entity: Option<EntityId>,
    bound: Cost,
    informative: u32,
    evaluated: u32,
}

/// Total ranking key of Algorithm 1 line 11: most even first (via `LB₁`,
/// which orders identically for the real-valued cost and is sound for the
/// ceiling version — see the note in [`KLp::klp`]), ties by imbalance then
/// entity id. Unique per candidate, so any partial ordering scheme yields
/// the same sequence.
#[inline]
fn rank_key(c: &Candidate) -> (Cost, u64, EntityId) {
    (c.score, c.imbalance, c.entity)
}

/// A lazily ranked candidate list: position `i` of the fully sorted order
/// is computable without sorting the rest. The consumed prefix is extended
/// geometrically — `select_nth` partitions the unsorted tail, then only the
/// new chunk is sorted — so a node that early-exits after a handful of
/// candidates pays `O(m)` instead of `O(m log m)`.
struct Ranked<'a> {
    cand: &'a mut [Candidate],
    sorted: usize,
}

impl<'a> Ranked<'a> {
    fn new(cand: &'a mut [Candidate]) -> Self {
        Self { cand, sorted: 0 }
    }

    /// The candidate at rank `i` (`i < len`).
    #[inline]
    fn get(&mut self, i: usize) -> Candidate {
        if i >= self.sorted {
            self.sort_through((i + 1).max(self.sorted * 2).max(16));
        }
        self.cand[i]
    }

    /// Ensures positions `0..target` hold the globally smallest candidates
    /// in ascending [`rank_key`] order.
    fn sort_through(&mut self, target: usize) {
        let target = target.min(self.cand.len());
        if target <= self.sorted {
            return;
        }
        let tail = &mut self.cand[self.sorted..];
        let take = target - self.sorted;
        if take < tail.len() {
            tail.select_nth_unstable_by_key(take - 1, rank_key);
        }
        tail[..take].sort_unstable_by_key(rank_key);
        self.sorted = target;
    }
}

/// Algorithm 1: k-lookahead entity selection with pruning, generic over the
/// cost metric `M` ([`crate::AvgDepth`] or [`crate::Height`]).
pub struct KLp<M: CostModel> {
    k: u32,
    beam: KLpBeam,
    /// §6 prior. Settable only through [`KLp::with_prior`] (AD metric only),
    /// so the weighted branches may read `lb0` as the AD table; `None` is
    /// the unweighted Algorithm-1 path, bit-for-bit unchanged.
    weights: Option<Arc<WeightTable>>,
    cache: FxHashMap<CacheKey, CacheEntry>,
    cache_token: u64,
    lb0: Lb0Table<M>,
    stats: PruneStats,
    record_stats: bool,
}

impl KLp<AvgDepth> {
    /// Attaches a §6 prior: bounds, pruning limits, and the selection key
    /// switch to the weighted-AD forms (weighted total depth in place of
    /// total depth, weight mass in place of cardinality). Restricted to the
    /// AD metric — the paper's non-uniform-prior extension weights the
    /// *expected* depth; worst-case height has no mass to weight. A uniform
    /// table is valid and provably selects identically to no table (the
    /// `weighted_lossless` property suite pins this bit-for-bit). Clears the
    /// memo cache: weighted and unweighted bounds never mix.
    pub fn with_prior(mut self, weights: Arc<WeightTable>) -> Self {
        self.weights = Some(weights);
        self.cache.clear();
        self
    }

    /// The attached §6 prior, if any.
    pub fn prior(&self) -> Option<&Arc<WeightTable>> {
        self.weights.as_ref()
    }
}

impl<M: CostModel> KLp<M> {
    /// k-LP with the full candidate set. `k ≥ 1`; `k = 1` degenerates to the
    /// 1-step lower bound (≡ InfoGain, Lemma 4.3).
    pub fn new(k: u32) -> Self {
        Self::with_beam(k, KLpBeam::Full)
    }

    /// k-LPLE: beam of `q` most-even candidates at every level.
    pub fn limited(k: u32, q: usize) -> Self {
        Self::with_beam(k, KLpBeam::Limited { q })
    }

    /// k-LPLVE: beam of `q` at the selection level, single candidate below.
    pub fn limited_variable(k: u32, q: usize) -> Self {
        Self::with_beam(k, KLpBeam::LimitedVariable { q })
    }

    /// Fully parameterized constructor.
    pub fn with_beam(k: u32, beam: KLpBeam) -> Self {
        assert!(k >= 1, "lookahead depth must be at least 1");
        if let KLpBeam::Limited { q } | KLpBeam::LimitedVariable { q } = beam {
            assert!(q >= 1, "beam width must be at least 1");
        }
        Self {
            k,
            beam,
            weights: None,
            cache: FxHashMap::default(),
            cache_token: 0,
            lb0: Lb0Table::new(),
            stats: PruneStats::default(),
            record_stats: false,
        }
    }

    /// Enables per-node prune statistics (Table 4). Off by default: the
    /// record itself is cheap, but callers usually want a clean slate per
    /// tree, which this forces them to think about.
    pub fn record_stats(mut self, on: bool) -> Self {
        self.record_stats = on;
        self
    }

    /// Recorded prune statistics.
    pub fn stats(&self) -> &PruneStats {
        &self.stats
    }

    /// Clears recorded statistics.
    pub fn clear_stats(&mut self) {
        self.stats.clear();
    }

    /// Number of memoized (sub-collection, k) entries.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Drops the memo cache (it is also dropped automatically when the
    /// strategy is used on a different collection).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Lookahead depth `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The `LB_k` bound of the entity this strategy would select on `view`,
    /// in scaled cost units — the quantity eq. (8) defines.
    pub fn bound(&mut self, view: &SubCollection<'_>) -> Option<(EntityId, Cost)> {
        let found = self.search(view, &FxHashSet::default());
        found.entity.map(|e| (e, found.bound))
    }

    /// One selection: drops memo entries left by another collection, then
    /// runs Algorithm 1 at the selection level with no upper limit, in the
    /// thread's lookahead arena.
    fn search(&mut self, view: &SubCollection<'_>, excluded: &FxHashSet<EntityId>) -> Found {
        let token = view.collection().token();
        if token != self.cache_token {
            self.cache.clear();
            self.cache_token = token;
        }
        self.lb0.ensure(view.len() as u64);
        LookaheadScratch::with_thread(|arena| self.klp(arena, view, self.k, UNBOUNDED, excluded, 0))
    }

    /// Scores every informative, non-excluded entity of `view` as a
    /// line-11 candidate and hands each to `f` in counting order: `LB₁`
    /// and partition imbalance, or under a prior their weighted forms
    /// (weighted `LB₁`, mass imbalance — equal to the unweighted ones
    /// value-for-value under a uniform table). The counting pass is
    /// fingerprint-free: only candidates that survive the early exit are
    /// ever partitioned, and the split computes the yes-side digest the
    /// duplicate check needs as a byproduct.
    fn score_candidates(
        &self,
        view: &SubCollection<'_>,
        excluded: &FxHashSet<EntityId>,
        ecounts: &mut Vec<EntityCount>,
        wstats: &mut Vec<WeightedEntityStats>,
        mut f: impl FnMut(Candidate),
    ) {
        let n = view.len() as u64;
        let lb0 = &self.lb0;
        if let Some(w) = self.weights.as_deref() {
            let wv = view.total_weight(w);
            view.informative_weighted(wstats, w);
            for s in wstats.iter() {
                if !excluded.is_empty() && excluded.contains(&s.entity) {
                    continue;
                }
                let (n1, n2) = (s.count as u64, n - s.count as u64);
                let (w1, w2) = (s.wsum, wv - s.wsum);
                f(Candidate {
                    score: combine_w(wv, wlb0(w1, n1, lb0.lb0(n1)), wlb0(w2, n2, lb0.lb0(n2))),
                    imbalance: (2 * w1).abs_diff(wv),
                    entity: s.entity,
                    n1,
                    fp: Fingerprint::ZERO,
                });
            }
        } else {
            view.informative_into(ecounts);
            for ec in ecounts.iter() {
                if !excluded.is_empty() && excluded.contains(&ec.entity) {
                    continue;
                }
                let n1 = ec.count as u64;
                f(Candidate {
                    score: lb0.lb1(n, n1),
                    imbalance: imbalance(n, n1),
                    entity: ec.entity,
                    n1,
                    fp: Fingerprint::ZERO,
                });
            }
        }
    }

    /// Algorithm 1 on `view` with lookahead `k` under the exclusive upper
    /// limit `ul`. Depth 0 is the selection level: it takes the beam's
    /// selection-level width, memoizes under its own key, and records the
    /// node's statistics; deeper calls bound one side of a candidate split.
    /// `depth` also indexes `arena`.
    fn klp(
        &mut self,
        arena: &mut LookaheadScratch,
        view: &SubCollection<'_>,
        k: u32,
        mut ul: Cost,
        excluded: &FxHashSet<EntityId>,
        depth: usize,
    ) -> Found {
        let n = view.len() as u64;
        if n <= 1 {
            return Found::default();
        }
        let is_top = depth == 0;

        // Lines 1–6: cache probe. Skipped under exclusions — the cached
        // answer may be an excluded entity.
        let key = if excluded.is_empty() {
            let key: CacheKey = (view.fingerprint(), view.len() as u32, k, is_top);
            if let Some(entry) = self.cache.get(&key) {
                if ul <= entry.bound {
                    return Found {
                        bound: entry.bound,
                        ..Found::default()
                    };
                }
                if entry.entity.is_some() {
                    return Found {
                        entity: entry.entity,
                        bound: entry.bound,
                        ..Found::default()
                    };
                }
                // Negative entry with a smaller bound than our limit: the
                // range [entry.bound, ul) is unexplored — recompute.
            }
            Some(key)
        } else {
            None
        };

        let width = self.beam.width(is_top);
        let mut level = arena.take_level(depth);
        let found = if k <= 1 {
            // Lines 7–10: base case — the minimal-LB₁ (most even) entity in
            // a single min pass; no partition happens at k ≤ 1, so no
            // candidate list is built. The beam can only truncate
            // candidates *after* the minimum, so the global argmin is the
            // beam's argmin for every beam width, and a beam's worth of
            // candidates counts as evaluated.
            let mut informative = 0u32;
            let mut best: Option<(Cost, u64, EntityId)> = None;
            self.score_candidates(view, excluded, &mut level.ecounts, &mut level.wstats, |c| {
                informative += 1;
                let key = rank_key(&c);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            });
            Found {
                entity: best.map(|(_, _, e)| e),
                bound: best.map_or(0, |(score, _, _)| score),
                informative,
                evaluated: (informative as usize).min(width) as u32,
            }
        } else {
            self.score_candidates(view, excluded, &mut level.ecounts, &mut level.wstats, |c| {
                level.cand.push(c)
            });
            let informative = level.cand.len() as u32;
            let width = level.cand.len().min(width);

            // Rank by (LB₁, imbalance, id), lazily. The paper sorts by
            // most-even partitioning and notes the order coincides with LB₁
            // order — true for the real-valued `n·log₂n` but not for the
            // ceiling version (e.g. n=35: a 16/19 split has ⌈16·log16⌉ +
            // ⌈19·log19⌉ = 145 < 146 = the 17/18 split's, because 16 is a
            // power of two). Ranking by LB₁ first keeps the early exit of
            // lines 14–15 sound; imbalance remains the paper's tie-break.
            let mut ranked = Ranked::new(&mut level.cand);
            let mut best: Option<EntityId> = None;
            let mut evaluated = 0u32;
            // Distinct entities often induce the *same* partition (entities
            // with identical membership across the candidate sets —
            // ubiquitous when sets are query outputs). Identical partitions
            // have identical bounds, and the first entity in rank order
            // wins ties either way, so duplicates can be skipped without
            // changing the selection. The word-parallel split computes the
            // yes-side digest anyway, so the dedup check reads it from the
            // freshly split child before any bound work happens.
            for i in 0..width {
                let c = ranked.get(i);
                // Lines 14–15: ranked early exit — prunes c and every
                // candidate after it (Lemma 4.4 with l = 1).
                if c.score >= ul {
                    break;
                }
                // A duplicate split counts as evaluated: its scan started.
                evaluated += 1;
                let (cpos, cneg) = view.partition_into(
                    c.entity,
                    mem::take(&mut level.yes),
                    mem::take(&mut level.no),
                );
                debug_assert_eq!(cpos.len() as u64, c.n1);
                let l = if level.seen.insert((cpos.fingerprint(), c.n1)) {
                    self.bound_children(arena, &cpos, &cneg, k, ul, excluded, depth)
                } else {
                    None // same split as an earlier (preferred) entity
                };
                level.yes = cpos.into_storage();
                level.no = cneg.into_storage();
                // Lines 33–36.
                if let Some(l) = l {
                    if l < ul {
                        ul = l;
                        best = Some(c.entity);
                    }
                }
            }
            Found {
                entity: best,
                bound: ul,
                informative,
                evaluated,
            }
        };
        arena.put_level(depth, level);

        // The base case always finds an entity here: a memoized view has no
        // exclusions, and two distinct sets differ in some entity.
        if let Some(key) = key {
            self.cache.insert(
                key,
                CacheEntry {
                    entity: found.entity,
                    bound: found.bound,
                },
            );
        }
        if is_top && self.record_stats {
            self.stats.nodes.push(NodeStats {
                collection_size: n as u32,
                informative: found.informative,
                evaluated: found.evaluated,
            });
        }
        found
    }

    /// Lines 18–32: bound both children of one candidate split, or `None`
    /// when either side is pruned against its upper limit.
    #[allow(clippy::too_many_arguments)]
    fn bound_children(
        &mut self,
        arena: &mut LookaheadScratch,
        cpos: &SubCollection<'_>,
        cneg: &SubCollection<'_>,
        k: u32,
        ul: Cost,
        excluded: &FxHashSet<EntityId>,
        depth: usize,
    ) -> Option<Cost> {
        let n1 = cpos.len() as u64;
        let n2 = cneg.len() as u64;
        let n = n1 + n2;

        // §6 weighted mode swaps the cardinality-based limits (eqs. 11/13)
        // for their weight-mass counterparts; the recursion is otherwise
        // identical. `wq` is the children's summed weights — computed here
        // per candidate, so the recursion needs no weight threading.
        let wq = self
            .weights
            .as_deref()
            .map(|w| (cpos.total_weight(w), cneg.total_weight(w)));

        // Lines 18–25: bound the positive side.
        let l_pos = if n1 == 1 {
            0
        } else {
            let ul_pos = match wq {
                Some((w1, w2)) => ul_first_w(ul, w1 + w2, wlb0(w2, n2, self.lb0.lb0(n2)))?,
                None => M::ul_first(ul, n, self.lb0.lb0(n2))?,
            };
            match self.klp(arena, cpos, k - 1, ul_pos, excluded, depth + 1) {
                Found {
                    entity: Some(_),
                    bound,
                    ..
                } => bound,
                _ => return None, // pruned (lines 24–25)
            }
        };

        // Lines 26–32: bound the negative side with the tightened limit.
        let l_neg = if n2 == 1 {
            0
        } else {
            let ul_neg = match wq {
                Some((w1, w2)) => ul_second_w(ul, w1 + w2, l_pos)?,
                None => M::ul_second(ul, n, l_pos)?,
            };
            match self.klp(arena, cneg, k - 1, ul_neg, excluded, depth + 1) {
                Found {
                    entity: Some(_),
                    bound,
                    ..
                } => bound,
                _ => return None,
            }
        };

        Some(match wq {
            Some((w1, w2)) => combine_w(w1 + w2, l_pos, l_neg),
            None => M::combine(n, l_pos, l_neg),
        })
    }
}

impl<M: CostModel> SelectionStrategy for KLp<M> {
    fn name(&self) -> String {
        // The weighted suffix carries the prior's fingerprint so two
        // sessions differing only in prior are distinguishable in reports;
        // unweighted names are byte-identical to what they always were.
        let w = match &self.weights {
            Some(w) => format!(",w:{:016x}", w.fp()),
            None => String::new(),
        };
        match self.beam {
            KLpBeam::Full => format!("k-LP(k={},{}{w})", self.k, M::NAME),
            KLpBeam::Limited { q } => format!("k-LPLE(k={},q={},{}{w})", self.k, q, M::NAME),
            KLpBeam::LimitedVariable { q } => {
                format!("k-LPLVE(k={},q={},{}{w})", self.k, q, M::NAME)
            }
        }
    }

    fn select_excluding(
        &mut self,
        view: &SubCollection<'_>,
        excluded: &FxHashSet<EntityId>,
    ) -> Option<EntityId> {
        if view.len() < 2 {
            return None;
        }
        self.search(view, excluded).entity
    }

    fn select_with_detail(
        &mut self,
        view: &SubCollection<'_>,
        excluded: &FxHashSet<EntityId>,
    ) -> Option<SelectionDetail> {
        if view.len() < 2 {
            return None;
        }
        let found = self.search(view, excluded);
        found.entity.map(|entity| SelectionDetail {
            entity,
            bound: found.bound,
            informative: found.informative,
            evaluated: found.evaluated,
        })
    }

    /// Reconstructs the ranked frontier of the selection `detail` came
    /// from. Pure by construction: one read-only counting pass into local
    /// buffers regenerates the candidates with the scoring function the
    /// selection used (same scores, same total rank order), and the scan
    /// horizon is replayed from the detail's `evaluated` counter — the
    /// memo, dedup state, and scratch invariants of live selection are
    /// untouched, so any number of calls leaves future selections and
    /// recorded plan nodes bit-identical.
    fn explain_last(
        &mut self,
        view: &SubCollection<'_>,
        excluded: &FxHashSet<EntityId>,
        detail: &SelectionDetail,
    ) -> SelectionTrace {
        let n = view.len() as u64;
        let mut trace = SelectionTrace::default();
        if n < 2 {
            return trace;
        }
        self.lb0.ensure(n);
        let (mut ecounts, mut wstats, mut cand) = (Vec::new(), Vec::new(), Vec::new());
        self.score_candidates(view, excluded, &mut ecounts, &mut wstats, |c| cand.push(c));
        cand.sort_unstable_by_key(rank_key);
        trace.informative = cand.len() as u32;
        // A memoized selection re-ran no scan (informative/evaluated both
        // zero on a real node is impossible: the winner itself is
        // informative) — the frontier below is the memoized node's.
        trace.memo_hit = detail.informative == 0 && detail.evaluated == 0;
        trace.evaluated = detail.evaluated;

        // The sequential scan bumps `evaluated` *before* the duplicate
        // check, so exactly the first `evaluated` rank positions were
        // scanned; duplicates among them are re-identified by membership
        // digest and everything past the horizon was cut by the ranked
        // early exit / beam before its bound computation started.
        let scanned = if trace.memo_hit {
            0
        } else {
            (detail.evaluated as usize).min(cand.len())
        };
        let mut seen: FxHashSet<(Fingerprint, u64)> = FxHashSet::default();
        for (i, c) in cand.iter().enumerate() {
            let outcome = if c.entity == detail.entity {
                CandidateOutcome::Selected
            } else if i < scanned {
                if !seen.insert((view.membership_fp(c.entity), c.n1)) {
                    trace.pruned_duplicate += 1;
                    CandidateOutcome::PrunedDuplicate
                } else {
                    CandidateOutcome::Evaluated
                }
            } else {
                trace.pruned_bound += 1;
                CandidateOutcome::PrunedBound
            };
            if outcome == CandidateOutcome::Selected && i < scanned {
                // The winner's digest participates in dedup for later ranks.
                seen.insert((view.membership_fp(c.entity), c.n1));
            }
            // The winner is always recorded, even past the ranked cap.
            if trace.ranked.len() < EXPLAIN_RANKED_CAP || outcome == CandidateOutcome::Selected {
                trace.ranked.push(RankedCandidate {
                    entity: c.entity,
                    count: c.n1 as u32,
                    rank: i as u32,
                    outcome,
                });
            }
        }
        trace
    }
}

/// Unpruned k-step lookahead (the *gain-k* baseline of Esmeir &
/// Markovitch): identical bound recursion, but every informative entity is
/// fully evaluated at every level — no early exit, no upper limits, no
/// memoization. Runtime is `O(mᵏ·n)`; use only on small inputs.
pub struct GainK<M: CostModel> {
    k: u32,
    _metric: std::marker::PhantomData<M>,
}

impl<M: CostModel> GainK<M> {
    /// New instance with lookahead depth `k ≥ 1`.
    pub fn new(k: u32) -> Self {
        assert!(k >= 1);
        Self {
            k,
            _metric: std::marker::PhantomData,
        }
    }

    /// The exact `LB_k` minimum over all entities (for equivalence tests
    /// against [`KLp`]).
    pub fn bound(&mut self, view: &SubCollection<'_>) -> Option<(EntityId, Cost)> {
        let r = LookaheadScratch::with_thread(|arena| Self::rec(arena, view, self.k, 0));
        r.0.map(|e| (e, r.1))
    }

    fn rec(
        arena: &mut LookaheadScratch,
        view: &SubCollection<'_>,
        k: u32,
        depth: usize,
    ) -> (Option<EntityId>, Cost) {
        let n = view.len() as u64;
        if n <= 1 {
            return (None, 0);
        }
        // Same arena reuse as KLp, but no memo, no dedup, no early exit —
        // the baseline must evaluate every candidate in full.
        let mut level = arena.take_level(depth);
        if k <= 1 {
            // Fingerprint-free base case, same argmin key as KLp's.
            view.informative_into(&mut level.ecounts);
            let result = level
                .ecounts
                .iter()
                .map(|ec| {
                    let n1 = ec.count as u64;
                    (lb1_direct::<M>(n, n1), imbalance(n, n1), ec.entity)
                })
                .min()
                .map(|(score, _, e)| (Some(e), score))
                .unwrap_or((None, 0));
            arena.put_level(depth, level);
            return result;
        }
        view.informative_with_fp(&mut level.stats);
        for s in &level.stats {
            let n1 = s.count as u64;
            level.cand.push(Candidate {
                score: lb1_direct::<M>(n, n1),
                imbalance: imbalance(n, n1),
                entity: s.entity,
                n1,
                fp: s.fp,
            });
        }
        // Same deterministic order as KLp so both make identical choices on
        // ties — but with NO early exit below.
        level.cand.sort_unstable_by_key(rank_key);

        let mut best: Option<EntityId> = None;
        let mut best_cost = UNBOUNDED;
        for i in 0..level.cand.len() {
            let c = level.cand[i];
            let n2 = n - c.n1;
            let (cpos, cneg) = view.partition_into(
                c.entity,
                mem::take(&mut level.yes),
                mem::take(&mut level.no),
            );
            let l_pos = if c.n1 == 1 {
                0
            } else {
                Self::rec(arena, &cpos, k - 1, depth + 1).1
            };
            let l_neg = if n2 == 1 {
                0
            } else {
                Self::rec(arena, &cneg, k - 1, depth + 1).1
            };
            level.yes = cpos.into_storage();
            level.no = cneg.into_storage();
            let l = M::combine(n, l_pos, l_neg);
            if l < best_cost {
                best_cost = l;
                best = Some(c.entity);
            }
        }
        arena.put_level(depth, level);
        (best, best_cost)
    }

    /// The "don't know" path of [`SelectionStrategy::select_excluding`]:
    /// exclusions are rare, so it filters by re-ranking every remaining
    /// candidate on its full `k`-step bound.
    fn select_excluding_in(
        arena: &mut LookaheadScratch,
        view: &SubCollection<'_>,
        k: u32,
        excluded: &FxHashSet<EntityId>,
    ) -> Option<EntityId> {
        let mut level = arena.take_level(0);
        view.informative_with_fp(&mut level.stats);
        level.stats.retain(|s| !excluded.contains(&s.entity));
        if level.stats.is_empty() {
            arena.put_level(0, level);
            return None;
        }
        let n = view.len() as u64;
        let mut best: Option<(Cost, u64, EntityId)> = None;
        for i in 0..level.stats.len() {
            let s = level.stats[i];
            let e = s.entity;
            let (cpos, cneg) =
                view.partition_into(e, mem::take(&mut level.yes), mem::take(&mut level.no));
            let (n1, n2) = (cpos.len() as u64, cneg.len() as u64);
            let l_pos = if n1 <= 1 {
                0
            } else {
                Self::rec(arena, &cpos, k - 1, 1).1
            };
            let l_neg = if n2 <= 1 {
                0
            } else {
                Self::rec(arena, &cneg, k - 1, 1).1
            };
            level.yes = cpos.into_storage();
            level.no = cneg.into_storage();
            let l = M::combine(n, l_pos, l_neg);
            let key = (l, imbalance(n, n1), e);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        arena.put_level(0, level);
        best.map(|(_, _, e)| e)
    }
}

/// `lb1` without a table (the baseline path; see [`Lb0Table`] for why the
/// pruned search uses one).
#[inline]
fn lb1_direct<M: CostModel>(n: u64, n1: u64) -> Cost {
    crate::cost::lb1::<M>(n, n1)
}

impl<M: CostModel> SelectionStrategy for GainK<M> {
    fn name(&self) -> String {
        format!("gain-k(k={},{})", self.k, M::NAME)
    }

    fn select_excluding(
        &mut self,
        view: &SubCollection<'_>,
        excluded: &FxHashSet<EntityId>,
    ) -> Option<EntityId> {
        if view.len() < 2 {
            return None;
        }
        let k = self.k;
        LookaheadScratch::with_thread(|arena| {
            if excluded.is_empty() {
                return Self::rec(arena, view, k, 0).0;
            }
            Self::select_excluding_in(arena, view, k, excluded)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_tree;
    use crate::collection::Collection;
    use crate::cost::{lb1, AvgDepth, Height};
    use crate::entity::SetId;

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

    /// §4.3 worked example, collection C2: same sets except
    /// S1 = {a,b,c} and S4 = {a,b,c,d,g,h}.
    fn section_4_3_c2() -> Collection {
        Collection::from_raw_sets(vec![
            vec![0, 1, 2],
            vec![0, 3, 4],
            vec![0, 1, 2, 3, 5],
            vec![0, 1, 2, 3, 6, 7],
            vec![0, 1, 7, 8],
            vec![0, 1, 9, 10],
            vec![0, 1, 6],
        ])
        .unwrap()
    }

    /// A deterministic pseudo-random collection (splitmix-style LCG) large
    /// enough to exercise the dense/sparse postings mix.
    fn pseudo_random_collection(n_sets: usize, universe: u32, seed: u64) -> Collection {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let sets: Vec<Vec<u32>> = (0..n_sets)
            .map(|_| {
                let len = 2 + (next() % 9) as usize;
                (0..len)
                    .map(|_| (next() % universe as u64) as u32)
                    .collect()
            })
            .collect();
        Collection::from_raw_sets(sets).unwrap()
    }

    #[test]
    fn paper_example_c1_three_step_height_bound() {
        // §4.3: with H and k=3 on Figure 1's collection, LB_H3(C1, d) = 3.
        let c = figure1();
        let v = c.full_view();
        let mut klp = KLp::<Height>::new(3);
        let (e, l) = klp.bound(&v).unwrap();
        assert_eq!(l, 3, "optimal 3-step height bound");
        // c ties d on LB₁ (both split 3/4) but only reaches height 4 at
        // three steps; d roots the optimal height-3 tree of Fig 2a.
        assert_eq!(e, EntityId(3));
    }

    #[test]
    fn paper_example_c2_three_step_height_is_four() {
        // §4.3: in C2, LB_H3(C2, d) = 4 — no tree of height 3 rooted at any
        // entity... the best 3-step bound over all entities is 4.
        let c = section_4_3_c2();
        let v = c.full_view();
        let mut klp = KLp::<Height>::new(3);
        let (_, l) = klp.bound(&v).unwrap();
        assert_eq!(l, 4);
    }

    #[test]
    fn klp_equals_gaink_bound_on_small_collections() {
        // Pruning must not change the computed minimum (Lemma 4.4 safety).
        let collections = vec![
            figure1(),
            section_4_3_c2(),
            Collection::from_raw_sets(vec![
                vec![1, 2, 3, 4],
                vec![2, 3, 4, 5],
                vec![3, 4, 5, 6],
                vec![1, 3, 5],
                vec![2, 4, 6],
                vec![1, 6],
            ])
            .unwrap(),
        ];
        for c in &collections {
            let v = c.full_view();
            for k in 1..=4 {
                let ad_klp = KLp::<AvgDepth>::new(k).bound(&v).unwrap();
                let ad_ref = GainK::<AvgDepth>::new(k).bound(&v).unwrap();
                assert_eq!(ad_klp.1, ad_ref.1, "AD bound, k={k}");
                assert_eq!(ad_klp.0, ad_ref.0, "AD argmin, k={k}");
                let h_klp = KLp::<Height>::new(k).bound(&v).unwrap();
                let h_ref = GainK::<Height>::new(k).bound(&v).unwrap();
                assert_eq!(h_klp.1, h_ref.1, "H bound, k={k}");
                assert_eq!(h_klp.0, h_ref.0, "H argmin, k={k}");
            }
        }
    }

    #[test]
    fn bounds_are_monotone_in_k() {
        // Lemma 4.1: LB_k(C) is non-decreasing in k.
        let c = section_4_3_c2();
        let v = c.full_view();
        let mut prev_ad = 0;
        let mut prev_h = 0;
        for k in 1..=5 {
            let (_, ad) = KLp::<AvgDepth>::new(k).bound(&v).unwrap();
            let (_, h) = KLp::<Height>::new(k).bound(&v).unwrap();
            assert!(ad >= prev_ad, "AD k={k}: {ad} < {prev_ad}");
            assert!(h >= prev_h, "H k={k}: {h} < {prev_h}");
            prev_ad = ad;
            prev_h = h;
        }
    }

    #[test]
    fn k1_matches_lb1_of_most_even_entity() {
        let c = figure1();
        let v = c.full_view();
        let (e, l) = KLp::<AvgDepth>::new(1).bound(&v).unwrap();
        assert_eq!(e, EntityId(2)); // most even (3/4), id tie-break
        assert_eq!(l, lb1::<AvgDepth>(7, 3));
    }

    #[test]
    fn beams_cover_spectrum() {
        // With q = m the beam variants coincide with full k-LP; with q = 1
        // they still return a valid informative entity.
        let c = figure1();
        let v = c.full_view();
        let full = KLp::<AvgDepth>::new(3).bound(&v).unwrap();
        let wide = KLp::<AvgDepth>::limited(3, 1000).bound(&v).unwrap();
        assert_eq!(full, wide);
        let narrow = KLp::<AvgDepth>::limited(3, 1).bound(&v).unwrap();
        assert!(narrow.1 >= full.1, "beam bound can only be looser");
        let lve = KLp::<AvgDepth>::limited_variable(3, 10).select(&v.clone());
        assert!(lve.is_some());
    }

    #[test]
    fn cache_reuse_is_consistent() {
        let c = figure1();
        let v = c.full_view();
        let mut klp = KLp::<AvgDepth>::new(3);
        let first = klp.bound(&v).unwrap();
        assert!(klp.cache_len() > 0);
        let second = klp.bound(&v).unwrap();
        assert_eq!(first, second, "cached result must match");
    }

    #[test]
    fn cache_invalidated_across_collections() {
        let c1 = figure1();
        let c2 = section_4_3_c2();
        let mut klp = KLp::<Height>::new(3);
        let b1 = klp.bound(&c1.full_view()).unwrap();
        let b2 = klp.bound(&c2.full_view()).unwrap();
        assert_eq!(b1.1, 3);
        assert_eq!(b2.1, 4);
        // And back again — the token check must clear, not poison.
        let b1_again = klp.bound(&c1.full_view()).unwrap();
        assert_eq!(b1, b1_again);
    }

    #[test]
    fn prune_stats_record_per_selection() {
        let c = figure1();
        let v = c.full_view();
        let mut klp = KLp::<Height>::new(3).record_stats(true);
        let _ = klp.select(&v);
        assert_eq!(klp.stats().nodes.len(), 1);
        let node = klp.stats().nodes[0];
        assert_eq!(node.collection_size, 7);
        assert_eq!(node.informative, 10);
        assert!(node.evaluated >= 1);
        assert!(node.evaluated <= node.informative);
        // §4.3: after computing LB_H3(C1, c) = 3, every other entity has
        // LB_H1 ≥ 3 → pruned. Only c (and possibly d, tied LB1) evaluated.
        assert!(
            node.pruned() >= 8,
            "expected heavy pruning, evaluated={}",
            node.evaluated
        );
    }

    #[test]
    fn selects_none_on_trivial_views() {
        let c = figure1();
        let mut klp = KLp::<AvgDepth>::new(2);
        let v1 = crate::subcollection::SubCollection::from_ids(&c, vec![SetId(3)]);
        assert_eq!(klp.select(&v1), None);
    }

    #[test]
    fn exclusions_respected_and_bypass_cache() {
        let c = figure1();
        let v = c.full_view();
        let mut klp = KLp::<AvgDepth>::new(2);
        let first = klp.select(&v).unwrap();
        let mut excluded = FxHashSet::default();
        excluded.insert(first);
        let second = klp.select_excluding(&v, &excluded).unwrap();
        assert_ne!(first, second);
        // Cached positive entry for the full view must still return the
        // original pick when exclusions are lifted.
        assert_eq!(klp.select(&v), Some(first));
    }

    #[test]
    fn gaink_handles_exclusions() {
        let c = figure1();
        let v = c.full_view();
        let mut g = GainK::<AvgDepth>::new(2);
        let first = g.select(&v).unwrap();
        let mut excluded = FxHashSet::default();
        excluded.insert(first);
        let second = g.select_excluding(&v, &excluded).unwrap();
        assert_ne!(first, second);
    }

    #[test]
    fn memo_distinguishes_same_length_views() {
        // Fingerprint keys carry the whole identity of a view; two disjoint
        // same-length subviews must never share memo entries. (This is the
        // regression guard for the (fingerprint, len) key: a collision or a
        // key that ignored content would surface here as a cross-view leak.)
        let c = figure1();
        let a = SubCollection::from_ids(&c, vec![SetId(0), SetId(1), SetId(2)]);
        let b = SubCollection::from_ids(&c, vec![SetId(3), SetId(4), SetId(5)]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut warm = KLp::<AvgDepth>::new(3);
        let a_warm = warm.bound(&a);
        let b_warm = warm.bound(&b);
        assert_eq!(a_warm, KLp::<AvgDepth>::new(3).bound(&a));
        assert_eq!(b_warm, KLp::<AvgDepth>::new(3).bound(&b));
        // And in the reverse query order with the same warm cache.
        assert_eq!(warm.bound(&a), a_warm);
        assert_eq!(warm.bound(&b), b_warm);
    }

    #[test]
    fn warm_memo_negative_entries_stay_sound_across_queries() {
        // A top-level bound() fills the memo with negative entries recorded
        // under the finite upper limits of inner recursion (Algorithm 1
        // lines 1–6). Re-querying every subview at UNBOUNDED as a fresh
        // top-level question must recompute past those entries, matching a
        // cold solver exactly.
        let c = section_4_3_c2();
        let view = c.full_view();
        let mut warm = KLp::<Height>::new(3);
        let top = warm.bound(&view).unwrap();
        assert_eq!(top.1, 4);
        assert!(warm.cache_len() > 0);
        for ec in view.informative_entities() {
            let (yes, no) = view.partition(ec.entity);
            for side in [yes, no] {
                if side.len() < 2 {
                    continue;
                }
                assert_eq!(
                    warm.bound(&side),
                    KLp::<Height>::new(3).bound(&side),
                    "entity {} side of size {}",
                    ec.entity,
                    side.len()
                );
            }
        }
    }

    #[test]
    fn ranked_prefix_matches_full_sort() {
        let c = pseudo_random_collection(60, 32, 5);
        let v = c.full_view();
        let mut stats = Vec::new();
        v.informative_with_fp(&mut stats);
        let n = v.len() as u64;
        let mut cand: Vec<Candidate> = stats
            .iter()
            .map(|s| Candidate {
                score: lb1::<AvgDepth>(n, s.count as u64),
                imbalance: imbalance(n, s.count as u64),
                entity: s.entity,
                n1: s.count as u64,
                fp: s.fp,
            })
            .collect();
        let mut sorted = cand.clone();
        sorted.sort_unstable_by_key(rank_key);
        let mut ranked = Ranked::new(&mut cand);
        for (i, want) in sorted.iter().enumerate() {
            let got = ranked.get(i);
            assert_eq!(rank_key(&got), rank_key(want), "rank {i}");
        }
    }

    #[test]
    fn names_identify_configuration() {
        assert_eq!(KLp::<AvgDepth>::new(2).name(), "k-LP(k=2,AD)");
        assert_eq!(KLp::<Height>::limited(3, 10).name(), "k-LPLE(k=3,q=10,H)");
        assert_eq!(
            KLp::<AvgDepth>::limited_variable(3, 10).name(),
            "k-LPLVE(k=3,q=10,AD)"
        );
        assert_eq!(GainK::<Height>::new(2).name(), "gain-k(k=2,H)");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_k_rejected() {
        let _ = KLp::<AvgDepth>::new(0);
    }

    #[test]
    fn uniform_prior_is_bit_identical_to_unweighted() {
        // The §6 losslessness claim at the strategy level: with w ≡ 1,
        // every weighted bound, limit, and ranking key equals its
        // unweighted counterpart, so selection and trees match exactly.
        use crate::weights::WeightTable;
        for seed in [3u64, 77] {
            let c = pseudo_random_collection(40, 28, seed);
            let v = c.full_view();
            let uni = Arc::new(WeightTable::uniform(c.len()));
            for k in 1..=3u32 {
                let plain = KLp::<AvgDepth>::new(k).bound(&v);
                let weighted = KLp::<AvgDepth>::new(k)
                    .with_prior(Arc::clone(&uni))
                    .bound(&v);
                assert_eq!(plain, weighted, "bound seed={seed} k={k}");
                let t_plain = build_tree(&v, &mut KLp::<AvgDepth>::new(k)).unwrap();
                let t_w = build_tree(
                    &v,
                    &mut KLp::<AvgDepth>::new(k).with_prior(Arc::clone(&uni)),
                )
                .unwrap();
                assert_eq!(t_plain.to_text(), t_w.to_text(), "tree seed={seed} k={k}");
            }
        }
    }

    #[test]
    fn skewed_prior_lowers_expected_depth() {
        // Concentrating mass on one set must pull it up the tree: the
        // weighted builder's expected depth under the prior is no worse
        // than the unweighted builder's, and strictly better somewhere.
        use crate::weights::{expected_depth, WeightTable};
        let mut improved = false;
        for hot in 0..7u32 {
            let c = figure1();
            let v = c.full_view();
            let mut raw = vec![1u64; 7];
            raw[hot as usize] = 50;
            let t = Arc::new(WeightTable::new(&raw).unwrap());
            let plain = build_tree(&v, &mut KLp::<AvgDepth>::new(2)).unwrap();
            let weighted =
                build_tree(&v, &mut KLp::<AvgDepth>::new(2).with_prior(Arc::clone(&t))).unwrap();
            let (dp, dw) = (expected_depth(&plain, &t), expected_depth(&weighted, &t));
            assert!(
                dw <= dp + 1e-9,
                "hot={hot}: weighted {dw} worse than plain {dp}"
            );
            improved |= dw + 1e-9 < dp;
        }
        assert!(improved, "no hot set ever improved expected depth");
    }

    #[test]
    fn weighted_name_carries_prior_fingerprint() {
        use crate::weights::WeightTable;
        let t = Arc::new(WeightTable::new(&[5, 1, 1]).unwrap());
        let name = KLp::<AvgDepth>::new(2).with_prior(Arc::clone(&t)).name();
        assert_eq!(name, format!("k-LP(k=2,AD,w:{:016x})", t.fp()));
        // Unweighted names unchanged (service labels pin these).
        assert_eq!(KLp::<AvgDepth>::new(2).name(), "k-LP(k=2,AD)");
    }
}
