//! Greedy entity-selection strategies (paper §4.2).
//!
//! All four single-step strategies — most-even partitioning, information
//! gain, indistinguishable pairs, and the 1-step cost lower bound — provably
//! select an entity that partitions the collection most evenly (Lemma 4.3),
//! so they achieve the same `(ln n + 1)`-approximation. They are all
//! implemented faithfully to their own scoring formulas (not aliased to each
//! other), and the equivalence is asserted by property tests.
//!
//! Tie-breaking is deterministic everywhere: better score, then more even
//! partition, then smaller entity id. The paper breaks remaining ties
//! randomly; a fixed order keeps experiments reproducible and is one of the
//! tied optima either way.

use crate::cost::{imbalance, lb1, Cost, CostModel};
use crate::entity::EntityId;
use crate::subcollection::{EntityCount, SubCollection, WeightedEntityStats};
use crate::weights::WeightTable;
use setdisc_util::{FxHashSet, Rng};
use std::sync::Arc;

/// One selection together with the evidence behind it — what a plan cache
/// persists per decision-tree node (see `setdisc-plan`).
///
/// `bound` is the strategy's own quality measure for the pick: the `LB_k`
/// value for the lookahead families, `0` for the greedy strategies (which
/// compute no tree bound). `informative` / `evaluated` mirror
/// [`crate::lookahead::NodeStats`] when the strategy tracks pruning, and
/// are `0` otherwise.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SelectionDetail {
    /// The selected entity.
    pub entity: EntityId,
    /// The strategy's bound for this selection (scaled cost units; `0` when
    /// the strategy computes none).
    pub bound: Cost,
    /// Informative entities available at the node (`0` when untracked).
    pub informative: u32,
    /// Entities whose bound computation started (`0` when untracked).
    pub evaluated: u32,
}

/// Most ranked candidates a [`SelectionTrace`] retains verbatim; the tail
/// beyond the cap is summarized by the trace's aggregate counters.
pub const EXPLAIN_RANKED_CAP: usize = 16;

/// Why one candidate entity did or did not become the question — the
/// paper's Table-4 prune taxonomy, per candidate instead of aggregate.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CandidateOutcome {
    /// This candidate won the argmin and was selected.
    Selected,
    /// Its bound was fully computed; it lost to the selected entity.
    Evaluated,
    /// Its partition was content-identical to an earlier candidate's
    /// (membership-digest dedup) — bound skipped, outcome inherited.
    PrunedDuplicate,
    /// The ranked early exit cut it: its 1-step key already ruled out
    /// beating the incumbent bound, so lookahead never descended.
    PrunedBound,
}

impl CandidateOutcome {
    /// Stable wire name for provenance JSON.
    pub fn name(self) -> &'static str {
        match self {
            CandidateOutcome::Selected => "selected",
            CandidateOutcome::Evaluated => "evaluated",
            CandidateOutcome::PrunedDuplicate => "pruned_duplicate",
            CandidateOutcome::PrunedBound => "pruned_bound",
        }
    }
}

/// One candidate in the strategy's own ranked consideration order.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RankedCandidate {
    /// The candidate entity.
    pub entity: EntityId,
    /// Yes-side size of `partition(entity)` over the view.
    pub count: u32,
    /// Position in the strategy's ranking (0 = considered first).
    pub rank: u32,
    /// What happened to it.
    pub outcome: CandidateOutcome,
}

/// A per-question "why" record: the ranked candidates a strategy
/// considered and the Table-4 reason each non-winner was discarded.
/// Produced only on demand by [`SelectionStrategy::explain_last`] —
/// never on the selection hot path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SelectionTrace {
    /// Candidates in rank order, truncated at [`EXPLAIN_RANKED_CAP`].
    pub ranked: Vec<RankedCandidate>,
    /// Informative candidates at the node (Table 4 `|I|`).
    pub informative: u32,
    /// Candidates whose bound computation ran.
    pub evaluated: u32,
    /// Candidates discarded as duplicate partitions.
    pub pruned_duplicate: u32,
    /// Candidates cut by the ranked early exit before evaluation.
    pub pruned_bound: u32,
    /// The selection was served from the strategy's internal memo — the
    /// ranked reconstruction reflects the memoized node's frontier.
    pub memo_hit: bool,
}

/// Chooses the entity for the next membership question on a sub-collection.
///
/// Implementations may keep internal caches; `select` takes `&mut self`.
/// `excluded` supports the §6 "don't know" extension — entities the user
/// refused to answer about must not be asked again.
pub trait SelectionStrategy {
    /// Strategy name for reports (e.g. `"k-LP(k=2,AD)"`).
    fn name(&self) -> String;

    /// Selects an entity among the informative, non-excluded entities of
    /// `view`; `None` when no such entity exists (|view| ≤ 1, or everything
    /// informative is excluded).
    fn select_excluding(
        &mut self,
        view: &SubCollection<'_>,
        excluded: &FxHashSet<EntityId>,
    ) -> Option<EntityId>;

    /// Selects with no exclusions.
    fn select(&mut self, view: &SubCollection<'_>) -> Option<EntityId> {
        self.select_excluding(view, &FxHashSet::default())
    }

    /// Like [`Self::select_excluding`], but also reports the bound and
    /// prune statistics behind the pick — the record a plan cache stores.
    /// The selected entity MUST equal what [`Self::select_excluding`] would
    /// return on the same inputs (the default implementation guarantees it
    /// by delegation; [`crate::lookahead::KLp`] overrides with its native
    /// detail and property tests pin the agreement).
    fn select_with_detail(
        &mut self,
        view: &SubCollection<'_>,
        excluded: &FxHashSet<EntityId>,
    ) -> Option<SelectionDetail> {
        self.select_excluding(view, excluded)
            .map(|entity| SelectionDetail {
                entity,
                bound: 0,
                informative: 0,
                evaluated: 0,
            })
    }

    /// Reconstructs the "why" behind the selection `detail` describes:
    /// the ranked candidate list and the prune reason per discarded
    /// candidate, for the same `(view, excluded)` the selection ran on.
    ///
    /// **Purity contract:** implementations MUST NOT change any state
    /// that selection outcomes depend on — calling this any number of
    /// times leaves future selections bit-identical (pinned by the
    /// engine's explain-purity property suite). It may cost a fresh
    /// counting pass; it only runs when a caller asked "why".
    ///
    /// The default reports what the default `select_with_detail` knows:
    /// the winner alone, with the detail's aggregate counters.
    fn explain_last(
        &mut self,
        view: &SubCollection<'_>,
        excluded: &FxHashSet<EntityId>,
        detail: &SelectionDetail,
    ) -> SelectionTrace {
        let _ = (view, excluded);
        SelectionTrace {
            ranked: vec![RankedCandidate {
                entity: detail.entity,
                count: 0,
                rank: 0,
                outcome: CandidateOutcome::Selected,
            }],
            informative: detail.informative,
            evaluated: detail.evaluated,
            pruned_duplicate: 0,
            pruned_bound: 0,
            memo_hit: false,
        }
    }
}

/// Collects informative entities of `view` minus `excluded`, id-sorted.
fn informative_filtered(
    view: &SubCollection<'_>,
    excluded: &FxHashSet<EntityId>,
) -> Vec<EntityCount> {
    let mut inf = view.informative_entities();
    if !excluded.is_empty() {
        inf.retain(|ec| !excluded.contains(&ec.entity));
    }
    inf
}

/// Generic argmin over informative entities given a score function; ties are
/// broken by (score, imbalance, entity id). Works in the caller's reusable
/// `buf` (the ranking key is total, so the counting pass's first-touch order
/// never leaks into the result) — one selection allocates nothing in steady
/// state.
fn argmin_by_score<S: Ord + Copy>(
    view: &SubCollection<'_>,
    buf: &mut Vec<EntityCount>,
    excluded: &FxHashSet<EntityId>,
    mut score: impl FnMut(u64, u64) -> S,
) -> Option<EntityId> {
    let n = view.len() as u64;
    if n < 2 {
        return None;
    }
    view.informative_into(buf);
    buf.iter()
        .filter(|ec| excluded.is_empty() || !excluded.contains(&ec.entity))
        .map(|ec| {
            let n1 = ec.count as u64;
            (score(n, n1), imbalance(n, n1), ec.entity)
        })
        .min()
        .map(|(_, _, e)| e)
}

/// §4.2.1 — choose the entity that most evenly partitions the collection
/// (Adler & Heeringa's `(ln n + 1)`-approximation greedy).
#[derive(Default)]
pub struct MostEven {
    buf: Vec<EntityCount>,
}

impl MostEven {
    /// New instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SelectionStrategy for MostEven {
    fn name(&self) -> String {
        "MostEven".into()
    }

    fn select_excluding(
        &mut self,
        view: &SubCollection<'_>,
        excluded: &FxHashSet<EntityId>,
    ) -> Option<EntityId> {
        argmin_by_score(view, &mut self.buf, excluded, imbalance)
    }
}

/// §4.2.2 — information gain (eq. 9), the ID3/C4.5 heuristic.
///
/// Maximizing `InfoGain(C,e) = log₂|C| − (|C₁|log₂|C₁| + |C₂|log₂|C₂|)/|C|`
/// is minimizing `|C₁|log₂|C₁| + |C₂|log₂|C₂|`, computed in f64. The f64
/// score is quantized to a total order through `u64` bit tricks to keep the
/// deterministic tie-break chain intact.
#[derive(Default)]
pub struct InfoGain {
    buf: Vec<EntityCount>,
}

impl InfoGain {
    /// New instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// The information gain of splitting `n` sets into `n1` / `n - n1`.
    pub fn gain(n: u64, n1: u64) -> f64 {
        let n2 = n - n1;
        let xlx = |x: u64| {
            if x == 0 {
                0.0
            } else {
                let x = x as f64;
                x * x.log2()
            }
        };
        (n as f64).log2() - (xlx(n1) + xlx(n2)) / n as f64
    }
}

impl SelectionStrategy for InfoGain {
    fn name(&self) -> String {
        "InfoGain".into()
    }

    fn select_excluding(
        &mut self,
        view: &SubCollection<'_>,
        excluded: &FxHashSet<EntityId>,
    ) -> Option<EntityId> {
        argmin_by_score(view, &mut self.buf, excluded, |n, n1| {
            // Minimize the split entropy term; total_cmp-compatible key.
            let n2 = n - n1;
            let xlx = |x: u64| {
                let x = x as f64;
                x * x.log2()
            };
            let score = xlx(n1) + xlx(n2);
            // Non-negative finite f64s order identically to their bit patterns.
            debug_assert!(score >= 0.0 && score.is_finite());
            score.to_bits()
        })
    }
}

/// §4.2.3 — minimize indistinguishable pairs (eq. 10), the faceted-search
/// heuristic of Basu Roy et al.
#[derive(Default)]
pub struct IndistinguishablePairs {
    buf: Vec<EntityCount>,
}

impl IndistinguishablePairs {
    /// New instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of indistinguishable pairs after splitting `n` into `n1`/`n2`.
    pub fn indg(n: u64, n1: u64) -> u64 {
        let n2 = n - n1;
        (n1 * (n1 - 1) + n2 * n2.saturating_sub(1)) / 2
    }
}

impl SelectionStrategy for IndistinguishablePairs {
    fn name(&self) -> String {
        "IndistPairs".into()
    }

    fn select_excluding(
        &mut self,
        view: &SubCollection<'_>,
        excluded: &FxHashSet<EntityId>,
    ) -> Option<EntityId> {
        argmin_by_score(view, &mut self.buf, excluded, Self::indg)
    }
}

/// §4.2.4 — the 1-step cost lower bound `LB₁` for a chosen cost metric,
/// breaking lower-bound ties by most-even partition (as the paper
/// prescribes), then by entity id.
#[derive(Default)]
pub struct Lb1<M: CostModel> {
    buf: Vec<EntityCount>,
    _metric: std::marker::PhantomData<M>,
}

impl<M: CostModel> Lb1<M> {
    /// New instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<M: CostModel> SelectionStrategy for Lb1<M> {
    fn name(&self) -> String {
        format!("LB1({})", M::NAME)
    }

    fn select_excluding(
        &mut self,
        view: &SubCollection<'_>,
        excluded: &FxHashSet<EntityId>,
    ) -> Option<EntityId> {
        argmin_by_score(view, &mut self.buf, excluded, |n, n1| lb1::<M>(n, n1))
    }
}

/// §6 — most-even partitioning of prior *mass*: choose the entity whose
/// yes-side weight is closest to half the view's weight (the weighted
/// information-gain argmax, in exact integers). With a uniform table the
/// ranking key `(|2·W₁ − W|, imbalance, id)` degenerates to
/// `(imbalance, imbalance, id)` and the strategy selects exactly what
/// [`MostEven`] does — the property suite pins this bit-identity.
pub struct WeightedMostEven {
    weights: Arc<WeightTable>,
    buf: Vec<WeightedEntityStats>,
}

impl WeightedMostEven {
    /// Strategy over the given prior (indexed by the collection's set ids).
    pub fn new(weights: Arc<WeightTable>) -> Self {
        Self {
            weights,
            buf: Vec::new(),
        }
    }

    /// The prior this strategy selects under.
    pub fn weights(&self) -> &Arc<WeightTable> {
        &self.weights
    }
}

impl SelectionStrategy for WeightedMostEven {
    fn name(&self) -> String {
        format!("MostEven(w:{:016x})", self.weights.fp())
    }

    fn select_excluding(
        &mut self,
        view: &SubCollection<'_>,
        excluded: &FxHashSet<EntityId>,
    ) -> Option<EntityId> {
        let n = view.len() as u64;
        if n < 2 {
            return None;
        }
        let w = view.total_weight(&self.weights);
        view.informative_weighted(&mut self.buf, &self.weights);
        self.buf
            .iter()
            .filter(|s| excluded.is_empty() || !excluded.contains(&s.entity))
            .map(|s| {
                let mass_imbalance = (2 * s.wsum).abs_diff(w);
                (mass_imbalance, imbalance(n, s.count as u64), s.entity)
            })
            .min()
            .map(|(_, _, e)| e)
    }
}

/// A uniformly random informative entity — a deliberately weak baseline used
/// in ablation benches to show how much structure-aware selection buys.
pub struct RandomInformative {
    rng: Rng,
}

impl RandomInformative {
    /// New instance with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Rng::new(seed),
        }
    }
}

impl SelectionStrategy for RandomInformative {
    fn name(&self) -> String {
        "Random".into()
    }

    fn select_excluding(
        &mut self,
        view: &SubCollection<'_>,
        excluded: &FxHashSet<EntityId>,
    ) -> Option<EntityId> {
        if view.len() < 2 {
            return None;
        }
        let inf = informative_filtered(view, excluded);
        self.rng.choose(&inf).map(|ec| ec.entity)
    }
}

impl<T: SelectionStrategy + ?Sized> SelectionStrategy for Box<T> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn select_excluding(
        &mut self,
        view: &SubCollection<'_>,
        excluded: &FxHashSet<EntityId>,
    ) -> Option<EntityId> {
        (**self).select_excluding(view, excluded)
    }

    fn select_with_detail(
        &mut self,
        view: &SubCollection<'_>,
        excluded: &FxHashSet<EntityId>,
    ) -> Option<SelectionDetail> {
        (**self).select_with_detail(view, excluded)
    }

    fn explain_last(
        &mut self,
        view: &SubCollection<'_>,
        excluded: &FxHashSet<EntityId>,
        detail: &SelectionDetail,
    ) -> SelectionTrace {
        (**self).explain_last(view, excluded, detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::Collection;
    use crate::cost::{AvgDepth, Height};

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

    /// In Figure 1 the most even split is 3/4, achieved by c(=2) and d(=3);
    /// the deterministic tie-break on entity id selects c.
    #[test]
    fn all_greedy_strategies_pick_most_even_entity() {
        let c = figure1();
        let v = c.full_view();
        let expected = EntityId(2);
        assert_eq!(MostEven::new().select(&v), Some(expected));
        assert_eq!(InfoGain::new().select(&v), Some(expected));
        assert_eq!(IndistinguishablePairs::new().select(&v), Some(expected));
        assert_eq!(Lb1::<AvgDepth>::new().select(&v), Some(expected));
        assert_eq!(Lb1::<Height>::new().select(&v), Some(expected));
    }

    #[test]
    fn singleton_and_empty_views_yield_none() {
        let c = figure1();
        let v1 = crate::subcollection::SubCollection::from_ids(&c, vec![crate::entity::SetId(0)]);
        assert_eq!(MostEven::new().select(&v1), None);
        let v0 = crate::subcollection::SubCollection::from_ids(&c, vec![]);
        assert_eq!(InfoGain::new().select(&v0), None);
    }

    #[test]
    fn exclusion_forces_second_best() {
        let c = figure1();
        let v = c.full_view();
        let mut excluded = FxHashSet::default();
        excluded.insert(EntityId(2));
        // With c excluded, d (also 3/4) is the next most-even entity.
        assert_eq!(
            MostEven::new().select_excluding(&v, &excluded),
            Some(EntityId(3))
        );
        excluded.insert(EntityId(3));
        let third = MostEven::new().select_excluding(&v, &excluded).unwrap();
        assert!(third != EntityId(2) && third != EntityId(3));
    }

    #[test]
    fn excluding_everything_informative_yields_none() {
        let c = Collection::from_raw_sets(vec![vec![0, 1], vec![0, 2]]).unwrap();
        let v = c.full_view();
        let mut excluded = FxHashSet::default();
        excluded.insert(EntityId(1));
        excluded.insert(EntityId(2));
        assert_eq!(MostEven::new().select_excluding(&v, &excluded), None);
    }

    #[test]
    fn info_gain_formula() {
        // Even split of 4: gain = log2(4) - (2*2*1)/4... xlx(2)=2 →
        // gain = 2 - (2+2)/4 = 1.0 (one full bit).
        assert!((InfoGain::gain(4, 2) - 1.0).abs() < 1e-12);
        // Degenerate "split" 4/0 would carry zero gain; informative
        // entities never produce it but the formula is total.
        assert!(InfoGain::gain(4, 4).abs() < 1e-12);
    }

    #[test]
    fn indg_formula() {
        // 7 sets split 3/4 → (3·2 + 4·3)/2 = 9 indistinguishable pairs.
        assert_eq!(IndistinguishablePairs::indg(7, 3), 9);
        // 2 sets split 1/1 → 0: fully distinguished.
        assert_eq!(IndistinguishablePairs::indg(2, 1), 0);
    }

    #[test]
    fn random_strategy_selects_informative() {
        let c = figure1();
        let v = c.full_view();
        let mut r = RandomInformative::new(7);
        for _ in 0..50 {
            let e = r.select(&v).unwrap();
            // Entity a=0 is uninformative and must never be chosen.
            assert_ne!(e, EntityId(0));
        }
    }

    /// Lemma 4.3 on a batch of structured collections: every strategy's pick
    /// achieves the minimal imbalance.
    #[test]
    fn lemma_4_3_equivalence_structured() {
        let collections = vec![
            figure1(),
            Collection::from_raw_sets(vec![
                vec![1, 2, 3],
                vec![2, 3, 4],
                vec![3, 4, 5],
                vec![4, 5, 6],
                vec![5, 6, 7],
            ])
            .unwrap(),
            Collection::from_raw_sets(vec![vec![1], vec![2], vec![3], vec![4]]).unwrap(),
        ];
        for c in &collections {
            let v = c.full_view();
            let n = v.len() as u64;
            let inf = v.informative_entities();
            let best_imb = inf
                .iter()
                .map(|ec| imbalance(n, ec.count as u64))
                .min()
                .unwrap();
            let imb_of = |e: EntityId| {
                let ec = inf.iter().find(|ec| ec.entity == e).unwrap();
                imbalance(n, ec.count as u64)
            };
            assert_eq!(imb_of(MostEven::new().select(&v).unwrap()), best_imb);
            assert_eq!(imb_of(InfoGain::new().select(&v).unwrap()), best_imb);
            assert_eq!(
                imb_of(IndistinguishablePairs::new().select(&v).unwrap()),
                best_imb
            );
            assert_eq!(imb_of(Lb1::<AvgDepth>::new().select(&v).unwrap()), best_imb);
        }
    }

    #[test]
    fn weighted_most_even_uniform_matches_most_even() {
        let c = figure1();
        let weights = Arc::new(WeightTable::uniform(7));
        let views = [
            c.full_view(),
            crate::subcollection::SubCollection::from_ids(
                &c,
                vec![
                    crate::entity::SetId(0),
                    crate::entity::SetId(3),
                    crate::entity::SetId(5),
                    crate::entity::SetId(6),
                ],
            ),
        ];
        for v in &views {
            let mut excluded = FxHashSet::default();
            loop {
                let plain = MostEven::new().select_excluding(v, &excluded);
                let weighted =
                    WeightedMostEven::new(Arc::clone(&weights)).select_excluding(v, &excluded);
                assert_eq!(plain, weighted);
                match plain {
                    Some(e) => excluded.insert(e),
                    None => break,
                };
            }
        }
    }

    #[test]
    fn weighted_most_even_balances_mass_not_cardinality() {
        // S2 = {a,d,e} carries 9/15 of the mass; e(=4) splits mass 9 vs 6
        // (imbalance 3) while c's 3/4 cardinality split leaves 11 vs 4
        // (imbalance 7) — the weighted pick must move toward the hot set.
        let c = figure1();
        let v = c.full_view();
        let weights = Arc::new(WeightTable::new(&[1, 9, 1, 1, 1, 1, 1]).unwrap());
        let pick = WeightedMostEven::new(Arc::clone(&weights))
            .select(&v)
            .unwrap();
        let (yes, no) = v.partition(pick);
        let w1 = yes.total_weight(&weights);
        let w2 = no.total_weight(&weights);
        assert!(w1.abs_diff(w2) <= 3, "pick {pick} splits mass {w1}/{w2}");
        assert_ne!(pick, MostEven::new().select(&v).unwrap());
    }

    #[test]
    fn weighted_most_even_respects_exclusions() {
        let c = figure1();
        let v = c.full_view();
        let weights = Arc::new(WeightTable::new(&[1, 9, 1, 1, 1, 1, 1]).unwrap());
        let mut s = WeightedMostEven::new(weights);
        let first = s.select(&v).unwrap();
        let mut excluded = FxHashSet::default();
        excluded.insert(first);
        let second = s.select_excluding(&v, &excluded).unwrap();
        assert_ne!(first, second);
        assert!(s.name().starts_with("MostEven(w:"));
    }

    #[test]
    fn boxed_strategy_is_a_strategy() {
        let c = figure1();
        let v = c.full_view();
        let mut boxed: Box<dyn SelectionStrategy> = Box::new(MostEven::new());
        assert_eq!(boxed.select(&v), Some(EntityId(2)));
        assert_eq!(boxed.name(), "MostEven");
    }
}
