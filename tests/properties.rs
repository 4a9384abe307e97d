//! Property-based tests (proptest) over randomly generated collections:
//! the paper's lemmas and the structural invariants of the implementation.

use interactive_set_discovery::core::builder::build_tree;
use interactive_set_discovery::core::cost::{imbalance, AvgDepth, CostModel, Height};
use interactive_set_discovery::core::discovery::{Session, SimulatedOracle};
use interactive_set_discovery::core::lookahead::{GainK, KLp};
use interactive_set_discovery::core::optimal::optimal_cost;
use interactive_set_discovery::core::strategy::{
    IndistinguishablePairs, InfoGain, MostEven, SelectionStrategy,
};
use interactive_set_discovery::core::subcollection::SubStorage;
use interactive_set_discovery::core::Collection;
use interactive_set_discovery::core::EntityId;
use proptest::prelude::*;

/// Random small collections: up to `max_sets` sets over a universe of
/// `universe` entities, deduplicated by construction.
fn arb_collection(max_sets: usize, universe: u32) -> impl Strategy<Value = Collection> {
    prop::collection::vec(
        prop::collection::btree_set(0..universe, 1..=(universe as usize).min(12)),
        2..=max_sets,
    )
    .prop_filter_map("collections must have ≥2 unique sets", |sets| {
        let raw: Vec<Vec<u32>> = sets.into_iter().map(|s| s.into_iter().collect()).collect();
        match Collection::from_raw_sets(raw) {
            Ok(c) if c.len() >= 2 => Some(c),
            _ => None,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lemma 4.1: LB_k(C) is non-decreasing in k, for both metrics.
    #[test]
    fn lb_k_is_monotone_in_k(c in arb_collection(10, 16)) {
        let view = c.full_view();
        let mut prev_ad = 0u64;
        let mut prev_h = 0u64;
        for k in 1..=4u32 {
            let (_, ad) = KLp::<AvgDepth>::new(k).bound(&view).expect("informative");
            let (_, h) = KLp::<Height>::new(k).bound(&view).expect("informative");
            prop_assert!(ad >= prev_ad, "AD k={} {} < {}", k, ad, prev_ad);
            prop_assert!(h >= prev_h, "H k={} {} < {}", k, h, prev_h);
            prev_ad = ad;
            prev_h = h;
        }
    }

    /// Lemma 4.4 safety: pruning, fingerprint-keyed memoization, and
    /// counting-pass partition dedup never change the computed k-step bound
    /// *or* the selected argmin (k-LP vs the exhaustive gain-k reference,
    /// which deduplicates nothing), for k = 1..4 and both metrics.
    #[test]
    fn pruning_is_lossless(c in arb_collection(10, 14)) {
        let view = c.full_view();
        for k in 1..=4u32 {
            let klp = KLp::<AvgDepth>::new(k).bound(&view);
            let gk = GainK::<AvgDepth>::new(k).bound(&view);
            prop_assert_eq!(klp, gk, "AD k={}", k);
            let klp_h = KLp::<Height>::new(k).bound(&view);
            let gk_h = GainK::<Height>::new(k).bound(&view);
            prop_assert_eq!(klp_h, gk_h, "H k={}", k);
        }
    }

    /// Fingerprint-memo soundness: a solver reused across overlapping
    /// subviews (warm cache full of positive *and* negative entries keyed
    /// by `(fingerprint, len, k)`) answers every subview exactly like a
    /// cold solver. A fingerprint collision, or a negative entry that
    /// short-circuits outside its recorded bound, would diverge here.
    #[test]
    fn warm_memo_matches_cold_solver_on_subviews(c in arb_collection(9, 12), k in 2..=3u32) {
        let view = c.full_view();
        let mut warm = KLp::<AvgDepth>::new(k);
        warm.bound(&view);
        for e in 0..c.universe() {
            let entity = interactive_set_discovery::core::EntityId(e);
            let (yes, no) = view.partition(entity);
            for side in [yes, no] {
                if side.len() < 2 {
                    continue;
                }
                let warm_ans = warm.bound(&side);
                let cold_ans = KLp::<AvgDepth>::new(k).bound(&side);
                prop_assert_eq!(warm_ans, cold_ans, "entity {} k={}", e, k);
            }
        }
    }

    /// Lemma 4.3: InfoGain, indistinguishable pairs and most-even select
    /// entities with the same (optimal) partition imbalance.
    #[test]
    fn greedy_strategies_agree_on_imbalance(c in arb_collection(12, 16)) {
        let view = c.full_view();
        let n = view.len() as u64;
        let inf = view.informative_entities();
        prop_assume!(!inf.is_empty());
        let imb_of = |e| {
            let ec = inf.iter().find(|ec| ec.entity == e).expect("informative");
            imbalance(n, ec.count as u64)
        };
        let best = inf.iter().map(|ec| imbalance(n, ec.count as u64)).min().unwrap();
        prop_assert_eq!(imb_of(MostEven::new().select(&view).unwrap()), best);
        prop_assert_eq!(imb_of(InfoGain::new().select(&view).unwrap()), best);
        prop_assert_eq!(
            imb_of(IndistinguishablePairs::new().select(&view).unwrap()),
            best
        );
    }

    /// Every strategy builds a structurally valid full binary tree whose
    /// leaves are exactly the collection.
    #[test]
    fn trees_validate(c in arb_collection(12, 16), k in 1..=3u32) {
        let view = c.full_view();
        let tree = build_tree(&view, &mut KLp::<AvgDepth>::new(k)).expect("tree");
        tree.validate(&view).expect("valid");
        prop_assert_eq!(tree.n_leaves(), c.len());
        prop_assert_eq!(tree.n_internal(), c.len() - 1);
        // Tree costs can never beat the LB₀ bounds of §4.1.
        prop_assert!(tree.total_depth() >= AvgDepth::lb0(c.len() as u64));
        prop_assert!(u64::from(tree.height()) >= Height::lb0(c.len() as u64));
    }

    /// k = n lookahead reaches the exact DP optimum (the §4.4.1 claim in
    /// its unconditional form).
    #[test]
    fn full_lookahead_is_optimal(c in arb_collection(7, 10)) {
        let view = c.full_view();
        let k = c.len() as u32;
        let tree = build_tree(&view, &mut KLp::<AvgDepth>::new(k)).expect("tree");
        let opt = optimal_cost::<AvgDepth>(&view).expect("small");
        prop_assert_eq!(tree.total_depth(), opt);
        let tree_h = build_tree(&view, &mut KLp::<Height>::new(k)).expect("tree");
        let opt_h = optimal_cost::<Height>(&view).expect("small");
        prop_assert_eq!(u64::from(tree_h.height()), opt_h);
    }

    /// Discovery always terminates with exactly the target set, for every
    /// possible target, and never exceeds n − 1 questions.
    #[test]
    fn discovery_finds_every_target(c in arb_collection(10, 14)) {
        for (id, target) in c.iter() {
            let mut session = Session::over(c.full_view(), InfoGain::new());
            let outcome = session
                .run(&mut SimulatedOracle::new(target))
                .expect("truthful oracle");
            prop_assert_eq!(outcome.discovered(), Some(id));
            prop_assert!(outcome.questions < c.len());
        }
    }

    /// Tree text serialization round-trips.
    #[test]
    fn tree_text_roundtrip(c in arb_collection(10, 14)) {
        let view = c.full_view();
        let tree = build_tree(&view, &mut MostEven::new()).expect("tree");
        let text = tree.to_text();
        let back = interactive_set_discovery::core::tree::DecisionTree::from_text(&text)
            .expect("parses");
        prop_assert_eq!(back.to_text(), text);
        back.validate(&view).expect("still valid");
    }

    /// Partition splits the view exactly: sizes add up and membership is
    /// consistent with the inverted index.
    #[test]
    fn partition_is_exact(c in arb_collection(12, 16), e in 0..16u32) {
        let view = c.full_view();
        let entity = interactive_set_discovery::core::EntityId(e);
        let (yes, no) = view.partition(entity);
        prop_assert_eq!(yes.len() + no.len(), view.len());
        for &id in yes.ids() {
            prop_assert!(c.set(id).contains(entity));
        }
        for &id in no.ids() {
            prop_assert!(!c.set(id).contains(entity));
        }
    }

    /// The bitmap partition kernels agree exactly — ids, lengths, bitmaps,
    /// and fingerprints — with the id-vector merge reference, for every
    /// entity (including absent ones) on the full view and a random
    /// subview.
    #[test]
    fn bitmap_partition_agrees_with_merge_reference(
        c in arb_collection(12, 16),
        mask in 0u64..1 << 12,
    ) {
        let full = c.full_view();
        let sub = full.filter(|id| mask >> (id.0 % 12) & 1 == 1);
        for view in [&full, &sub] {
            for e in 0..=c.universe() {
                let entity = EntityId(e);
                let (y1, n1) = view.partition(entity);
                let (y2, n2) =
                    view.partition_into_merge(entity, SubStorage::new(), SubStorage::new());
                prop_assert_eq!(y1.len(), y2.len(), "yes len, entity {}", e);
                prop_assert_eq!(y1.ids(), y2.ids(), "yes ids, entity {}", e);
                prop_assert_eq!(n1.ids(), n2.ids(), "no ids, entity {}", e);
                prop_assert_eq!(y1.fingerprint(), y2.fingerprint());
                prop_assert_eq!(n1.fingerprint(), n2.fingerprint());
                prop_assert_eq!(y1.bitmap().words(), y2.bitmap().words());
                prop_assert_eq!(n1.bitmap().words(), n2.bitmap().words());
                prop_assert_eq!(y1.total_elements() + n1.total_elements(),
                    view.total_elements());
                prop_assert_eq!(view.membership_fp(entity), y1.fingerprint());
            }
        }
    }

    /// The postings-sweep counting kernel agrees exactly — entities,
    /// counts, membership fingerprints — with the element-pass reference
    /// on random collections and random subviews.
    #[test]
    fn postings_counting_agrees_with_element_pass(
        c in arb_collection(12, 16),
        mask in 0u64..1 << 12,
    ) {
        let full = c.full_view();
        let sub = full.filter(|id| mask >> (id.0 % 12) & 1 == 1);
        for view in [&full, &sub] {
            let mut elements = Vec::new();
            view.count_entities_with_fp_elements(&mut elements);
            elements.sort_unstable_by_key(|s| s.entity);
            let mut postings = Vec::new();
            view.count_entities_with_fp_postings(&mut postings);
            prop_assert_eq!(&elements, &postings, "view of {} sets", view.len());
            // The auto-dispatched informative pass must match the reference
            // filtered the same way.
            let mut informative = Vec::new();
            view.informative_with_fp(&mut informative);
            informative.sort_unstable_by_key(|s| s.entity);
            let expect: Vec<_> = elements
                .into_iter()
                .filter(|s| (s.count as usize) < view.len())
                .collect();
            prop_assert_eq!(informative, expect);
        }
    }
}

/// The kernels must also agree across the dense/sparse postings split,
/// which only exists past 64 sets — covered deterministically with a
/// copy-add collection too big for the random generator.
#[test]
fn bitmap_kernels_agree_on_large_mixed_density_collection() {
    use interactive_set_discovery::synth::copyadd::{generate_copy_add, CopyAddConfig};
    let c = generate_copy_add(&CopyAddConfig {
        n_sets: 220,
        size_range: (8, 14),
        overlap: 0.85,
        seed: 17,
    });
    assert!(
        c.postings().dense_entities() > 0 && c.postings().dense_entities() < c.universe() as usize,
        "fixture must exercise both representations"
    );
    let full = c.full_view();
    let sub = full.filter(|id| id.0 % 3 != 1);
    for view in [&full, &sub] {
        let mut elements = Vec::new();
        view.count_entities_with_fp_elements(&mut elements);
        elements.sort_unstable_by_key(|s| s.entity);
        let mut postings = Vec::new();
        view.count_entities_with_fp_postings(&mut postings);
        assert_eq!(elements, postings);
        for e in (0..c.universe()).step_by(7) {
            let entity = EntityId(e);
            let (y1, n1) = view.partition(entity);
            let (y2, n2) = view.partition_into_merge(entity, SubStorage::new(), SubStorage::new());
            assert_eq!(y1.ids(), y2.ids(), "entity {e}");
            assert_eq!(n1.ids(), n2.ids(), "entity {e}");
            assert_eq!(y1.fingerprint(), y2.fingerprint());
            assert_eq!(n1.fingerprint(), n2.fingerprint());
        }
    }
}
