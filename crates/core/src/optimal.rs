//! Exact optimal decision trees by memoized branch-and-bound.
//!
//! Optimal construction is NP-complete (Hyafil & Rivest; paper §4.2), so
//! this is only meant for small collections — ground truth for tests, and
//! the "InfoGain is ≈0.048 above optimal" measurement of §5.3.2. Two things
//! keep it practical well past brute force:
//!
//! * sub-collections are memoized by their 128-bit content fingerprint (plus
//!   length), so shared subproblems are solved once with O(1) probes and no
//!   boxed key per entry;
//! * distinct entities inducing the *same partition* (in either orientation)
//!   are deduplicated using membership fingerprints from the counting pass —
//!   before the partition is materialized — and candidate partitions are
//!   bounded with `LB₀` before recursing;
//! * all recursion state (candidate lists, yes/no id buffers) lives in the
//!   depth-indexed lookahead arena each search borrows from its thread, as
//!   k-LP's does, so steady-state search performs no heap allocation.

use crate::cost::{imbalance, Cost, CostModel, Lb0Table, UNBOUNDED};
use crate::entity::EntityId;
use crate::error::{Result, SetDiscError};
use crate::strategy::SelectionStrategy;
use crate::subcollection::{Candidate, LookaheadScratch, SubCollection};
use setdisc_util::{Fingerprint, FxHashMap, FxHashSet};
use std::mem;

/// Default guard against accidentally launching an exponential search.
pub const DEFAULT_MAX_SETS: usize = 64;

/// Memo key: `(view fingerprint, |view|)`.
type MemoKey = (Fingerprint, u32);

/// Exact optimal solver for a fixed cost metric.
pub struct OptimalSolver<M: CostModel> {
    memo: FxHashMap<MemoKey, (Cost, Option<EntityId>)>,
    memo_token: u64,
    lb0: Lb0Table<M>,
    max_sets: usize,
    _metric: std::marker::PhantomData<M>,
}

impl<M: CostModel> Default for OptimalSolver<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: CostModel> OptimalSolver<M> {
    /// Solver with the default size guard.
    pub fn new() -> Self {
        Self::with_max_sets(DEFAULT_MAX_SETS)
    }

    /// Solver refusing collections larger than `max_sets`.
    pub fn with_max_sets(max_sets: usize) -> Self {
        Self {
            memo: FxHashMap::default(),
            memo_token: 0,
            lb0: Lb0Table::new(),
            max_sets,
            _metric: std::marker::PhantomData,
        }
    }

    /// Drops the memo when the solver is reused on a different collection
    /// (fingerprint keys are only unique within one collection's id space).
    fn prepare_for(&mut self, view: &SubCollection<'_>) {
        let token = view.collection().token();
        if token != self.memo_token {
            self.memo.clear();
            self.memo_token = token;
        }
    }

    /// The optimal scaled cost of a tree over `view`.
    pub fn optimal_cost(&mut self, view: &SubCollection<'_>) -> Result<Cost> {
        if view.is_empty() {
            return Err(SetDiscError::EmptyCollection);
        }
        if view.len() > self.max_sets {
            return Err(SetDiscError::InvalidTree(format!(
                "optimal solver capped at {} sets, got {}",
                self.max_sets,
                view.len()
            )));
        }
        self.prepare_for(view);
        Ok(self.solve_top(view))
    }

    /// [`Self::solve`] at the root with no limit, in the thread's
    /// lookahead arena.
    fn solve_top(&mut self, view: &SubCollection<'_>) -> Cost {
        LookaheadScratch::with_thread(|arena| self.solve(arena, view, UNBOUNDED, 0))
    }

    /// Memoized branch-and-bound. Returns the exact optimum of the
    /// subproblem (the `limit` only prunes work, never changes the value
    /// when the true optimum is below it; when the optimum is `≥ limit` the
    /// returned value is some bound `≥ limit`, which the caller discards).
    fn solve(
        &mut self,
        arena: &mut LookaheadScratch,
        view: &SubCollection<'_>,
        limit: Cost,
        depth: usize,
    ) -> Cost {
        let n = view.len() as u64;
        if n <= 1 {
            return 0;
        }
        self.lb0.ensure(n);
        let key: MemoKey = (view.fingerprint(), view.len() as u32);
        if let Some(&(cost, _)) = self.memo.get(&key) {
            return cost;
        }
        let (cost, entity) = self.search(arena, view, limit, depth);
        if entity.is_some() {
            // Only exact results are memoized; limit-truncated searches are
            // not, since their value depends on the limit.
            self.memo.insert(key, (cost, entity));
        }
        cost
    }

    fn search(
        &mut self,
        arena: &mut LookaheadScratch,
        view: &SubCollection<'_>,
        limit: Cost,
        depth: usize,
    ) -> (Cost, Option<EntityId>) {
        let n = view.len() as u64;
        let mut level = arena.take_level(depth);
        view.informative_with_fp(&mut level.stats);
        for s in &level.stats {
            let n1 = s.count as u64;
            level.cand.push(Candidate {
                score: 0,
                imbalance: imbalance(n, n1),
                entity: s.entity,
                n1,
                fp: s.fp,
            });
        }
        level.cand.sort_unstable_by_key(|c| (c.imbalance, c.entity));

        let mut best = limit;
        let mut best_entity = None;
        let view_fp = view.fingerprint();

        for i in 0..level.cand.len() {
            let c = level.cand[i];
            let n1 = c.n1;
            let n2 = n - n1;
            // LB₀ bound before any recursion.
            let quick = M::combine(n, self.lb0.lb0(n1), self.lb0.lb0(n2));
            if quick >= best {
                continue;
            }
            // Canonical digest of the *unordered* partition — the smaller of
            // the two (side digest, side size) pairs; the complement side's
            // digest is derived by subtraction. Detects both same-side and
            // swapped-side duplicates without materializing the partition.
            let yes_key = (c.fp, n1);
            let no_key = (view_fp - c.fp, n2);
            if !level.seen.insert(yes_key.min(no_key)) {
                continue; // same split as an earlier entity
            }
            let Some(l_yes_limit) = M::ul_first(best, n, self.lb0.lb0(n2)) else {
                continue;
            };
            let (yes, no) = view.partition_into(
                c.entity,
                mem::take(&mut level.yes),
                mem::take(&mut level.no),
            );
            let total = {
                let l_yes = self.solve(arena, &yes, l_yes_limit, depth + 1);
                let partial = M::combine(n, l_yes, self.lb0.lb0(n2));
                if partial >= best {
                    None
                } else {
                    M::ul_second(best, n, l_yes).map(|l_no_limit| {
                        let l_no = self.solve(arena, &no, l_no_limit, depth + 1);
                        M::combine(n, l_yes, l_no)
                    })
                }
            };
            level.yes = yes.into_storage();
            level.no = no.into_storage();
            if let Some(total) = total {
                if total < best {
                    best = total;
                    best_entity = Some(c.entity);
                }
            }
        }
        arena.put_level(depth, level);
        (best, best_entity)
    }

    /// Builds an actual optimal tree by re-deriving argmins from the memo.
    pub fn optimal_tree(&mut self, view: &SubCollection<'_>) -> Result<crate::tree::DecisionTree> {
        // Populate the memo first.
        let _ = self.optimal_cost(view)?;
        let mut strategy = OptimalStrategy { solver: self };
        crate::builder::build_tree(view, &mut strategy)
    }

    /// Memoized entries (diagnostics).
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }
}

/// Adapter exposing the solver as a [`SelectionStrategy`] so Algorithm 3 can
/// build the optimal tree.
struct OptimalStrategy<'s, M: CostModel> {
    solver: &'s mut OptimalSolver<M>,
}

impl<M: CostModel> SelectionStrategy for OptimalStrategy<'_, M> {
    fn name(&self) -> String {
        format!("Optimal({})", M::NAME)
    }

    fn select_excluding(
        &mut self,
        view: &SubCollection<'_>,
        excluded: &FxHashSet<EntityId>,
    ) -> Option<EntityId> {
        if view.len() < 2 {
            return None;
        }
        assert!(
            excluded.is_empty(),
            "optimal strategy does not support exclusions"
        );
        // solve() memoizes (cost, argmin); rerun to ensure presence.
        self.solver.prepare_for(view);
        let _ = self.solver.solve_top(view);
        let key: MemoKey = (view.fingerprint(), view.len() as u32);
        self.solver.memo.get(&key).and_then(|&(_, e)| e)
    }
}

/// Convenience: the optimal scaled cost of `view` under metric `M`.
pub fn optimal_cost<M: CostModel>(view: &SubCollection<'_>) -> Result<Cost> {
    OptimalSolver::<M>::new().optimal_cost(view)
}

/// Convenience: an optimal tree over `view` under metric `M`.
pub fn optimal_tree<M: CostModel>(view: &SubCollection<'_>) -> Result<crate::tree::DecisionTree> {
    OptimalSolver::<M>::new().optimal_tree(view)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_tree;
    use crate::collection::Collection;
    use crate::cost::{AvgDepth, Height};
    use crate::lookahead::KLp;

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
    fn figure1_optimum_matches_paper() {
        let c = figure1();
        let v = c.full_view();
        // §3: the optimal AD is 20/7; Fig 2a is optimal.
        assert_eq!(optimal_cost::<AvgDepth>(&v).unwrap(), 20);
        assert_eq!(optimal_cost::<Height>(&v).unwrap(), 3);
    }

    #[test]
    fn optimal_tree_achieves_optimal_cost_and_validates() {
        let c = figure1();
        let v = c.full_view();
        let t = optimal_tree::<AvgDepth>(&v).unwrap();
        t.validate(&v).unwrap();
        assert_eq!(t.total_depth(), 20);
        let t = optimal_tree::<Height>(&v).unwrap();
        t.validate(&v).unwrap();
        assert_eq!(t.height(), 3);
    }

    #[test]
    fn optimum_never_below_lb0() {
        let c = figure1();
        let v = c.full_view();
        assert!(optimal_cost::<AvgDepth>(&v).unwrap() >= AvgDepth::lb0(7));
        assert!(optimal_cost::<Height>(&v).unwrap() >= Height::lb0(7));
    }

    #[test]
    fn disjoint_singletons_force_chain_costs() {
        // 5 disjoint singletons: every split is 1/(n-1) → chain tree.
        // Depths {1,2,3,4,4} → TD = 14, H = 4.
        let c =
            Collection::from_raw_sets(vec![vec![1], vec![2], vec![3], vec![4], vec![5]]).unwrap();
        let v = c.full_view();
        assert_eq!(optimal_cost::<AvgDepth>(&v).unwrap(), 14);
        assert_eq!(optimal_cost::<Height>(&v).unwrap(), 4);
    }

    #[test]
    fn bit_identified_sets_reach_lb0() {
        // 8 sets identified by 3 bit-entities → perfect tree = LB₀.
        let sets: Vec<Vec<u32>> = (0..8u32)
            .map(|i| {
                (0..3u32)
                    .filter(|b| i >> b & 1 == 1)
                    .map(|b| b + 1)
                    .chain([0])
                    .collect()
            })
            .collect();
        let c = Collection::from_raw_sets(sets).unwrap();
        let v = c.full_view();
        assert_eq!(optimal_cost::<AvgDepth>(&v).unwrap(), 24);
        assert_eq!(optimal_cost::<Height>(&v).unwrap(), 3);
    }

    #[test]
    fn klp_with_large_k_matches_optimal() {
        // §4.4.1: k ≥ optimal height → k-LP is optimal. Verify on several
        // small structured collections for both metrics.
        let collections = vec![
            figure1(),
            Collection::from_raw_sets(vec![
                vec![1, 2, 3],
                vec![2, 3, 4],
                vec![3, 4, 5],
                vec![1, 4],
                vec![2, 5],
                vec![1, 5, 6],
            ])
            .unwrap(),
            Collection::from_raw_sets(vec![vec![1], vec![2], vec![3], vec![4]]).unwrap(),
        ];
        for c in &collections {
            let v = c.full_view();
            // k = n bounds the height of every tree, so LB_k is the exact
            // optimal cost and greedy construction with it is optimal. (The
            // paper's sharper claim uses k ≥ height of an optimal tree; the
            // optimal *AD* tree may be taller than the optimal height, so
            // tests use the unconditional bound.)
            let k = c.len() as u32;
            let h_opt = optimal_cost::<Height>(&v).unwrap();
            let mut klp_h = KLp::<Height>::new(k);
            let t = build_tree(&v, &mut klp_h).unwrap();
            assert_eq!(t.height() as u64, h_opt, "height metric");
            let mut klp_ad = KLp::<AvgDepth>::new(k);
            let t = build_tree(&v, &mut klp_ad).unwrap();
            assert_eq!(
                t.total_depth(),
                optimal_cost::<AvgDepth>(&v).unwrap(),
                "AD metric"
            );
        }
    }

    #[test]
    fn greedy_can_be_suboptimal_but_never_below_optimal() {
        let c = figure1();
        let v = c.full_view();
        let opt = optimal_cost::<AvgDepth>(&v).unwrap();
        let mut greedy = crate::strategy::MostEven::new();
        let t = build_tree(&v, &mut greedy).unwrap();
        assert!(t.total_depth() >= opt);
    }

    #[test]
    fn size_guard_refuses_large_collections() {
        let sets: Vec<Vec<u32>> = (0..70u32).map(|i| vec![i]).collect();
        let c = Collection::from_raw_sets(sets).unwrap();
        let mut solver = OptimalSolver::<AvgDepth>::with_max_sets(32);
        assert!(solver.optimal_cost(&c.full_view()).is_err());
    }

    #[test]
    fn memo_is_shared_across_queries() {
        let c = figure1();
        let v = c.full_view();
        let mut solver = OptimalSolver::<AvgDepth>::new();
        let a = solver.optimal_cost(&v).unwrap();
        let entries = solver.memo_len();
        assert!(entries > 0);
        let b = solver.optimal_cost(&v).unwrap();
        assert_eq!(a, b);
        assert_eq!(solver.memo_len(), entries, "second query hits memo");
    }
}
