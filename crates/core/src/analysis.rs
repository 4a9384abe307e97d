//! Collection analysis: the §5.3.4-style diagnostics that predict how an
//! exploration will behave before any tree is built.
//!
//! The paper shows that discovery cost is governed by overlap structure —
//! disjoint sets degenerate to `n − 1` questions, heavy overlap approaches
//! `log₂ n` (§1, §5.3.4). [`CollectionProfile`] surfaces exactly those
//! signals: entity frequency distribution, pairwise overlap estimates, the
//! `LB₀` floors, and how many entities are informative at the root.

use crate::collection::Collection;
use crate::cost::{AvgDepth, CostModel, Height};
use setdisc_util::Rng;

/// Structural profile of a collection.
#[derive(Clone, Debug)]
pub struct CollectionProfile {
    /// Number of sets.
    pub n_sets: usize,
    /// Distinct entities across all sets.
    pub distinct_entities: usize,
    /// Mean set size.
    pub avg_set_size: f64,
    /// Entities informative for the full collection (present in ≥1 set but
    /// not all).
    pub informative_entities: usize,
    /// Entities present in every set (each is a wasted question).
    pub universal_entities: usize,
    /// Mean entity frequency (sets containing an entity, over distinct
    /// entities).
    pub avg_entity_frequency: f64,
    /// Frequency of the most common entity.
    pub max_entity_frequency: usize,
    /// Mean Jaccard similarity over sampled set pairs.
    pub avg_pairwise_jaccard: f64,
    /// `LB_AD0`: floor on the expected number of questions.
    pub lb_avg_questions: f64,
    /// `LB_H0 = ⌈log₂ n⌉`: floor on the worst-case number of questions.
    pub lb_max_questions: u32,
    /// Worst-case questions if the collection were pairwise disjoint.
    pub worst_case_questions: usize,
}

impl CollectionProfile {
    /// Profiles `collection`, estimating pairwise overlap from at most
    /// `max_pairs` sampled pairs (deterministic from `seed`).
    pub fn new(collection: &Collection, max_pairs: usize, seed: u64) -> Self {
        let n = collection.len();
        let view = collection.full_view();
        let mut counts = Vec::new();
        view.count_entities(&mut counts);
        let distinct = counts.len();
        let informative = counts.iter().filter(|ec| (ec.count as usize) < n).count();
        let universal = distinct - informative;
        let freq_sum: u64 = counts.iter().map(|ec| ec.count as u64).sum();
        let max_freq = counts.iter().map(|ec| ec.count as usize).max().unwrap_or(0);

        let mut rng = Rng::new(seed);
        let mut jaccard_sum = 0.0;
        let mut pairs = 0usize;
        if n >= 2 {
            for _ in 0..max_pairs {
                let i = rng.gen_range(n as u64) as u32;
                let j = rng.gen_range(n as u64) as u32;
                if i == j {
                    continue;
                }
                jaccard_sum += collection
                    .set(crate::entity::SetId(i))
                    .jaccard(collection.set(crate::entity::SetId(j)));
                pairs += 1;
            }
        }

        Self {
            n_sets: n,
            distinct_entities: distinct,
            avg_set_size: collection.avg_set_size(),
            informative_entities: informative,
            universal_entities: universal,
            avg_entity_frequency: if distinct == 0 {
                0.0
            } else {
                freq_sum as f64 / distinct as f64
            },
            max_entity_frequency: max_freq,
            avg_pairwise_jaccard: if pairs == 0 {
                0.0
            } else {
                jaccard_sum / pairs as f64
            },
            lb_avg_questions: AvgDepth::display(AvgDepth::lb0(n as u64), n as u64),
            lb_max_questions: Height::lb0(n as u64) as u32,
            worst_case_questions: n.saturating_sub(1),
        }
    }

    /// A crude predictor of where between `log₂ n` and `n − 1` the expected
    /// question count will land: 0.0 = perfectly splittable, 1.0 = chain.
    ///
    /// Uses the best root split balance as a proxy (disjoint singleton
    /// collections have best balance 1/(n−1) → ≈1.0; bit-indexed
    /// collections have balance 1/2 → 0.0).
    pub fn chain_risk(collection: &Collection) -> f64 {
        let n = collection.len() as f64;
        if n < 2.0 {
            return 0.0;
        }
        let view = collection.full_view();
        let inf = view.informative_entities();
        let best_minority = inf
            .iter()
            .map(|ec| (ec.count as f64).min(n - ec.count as f64))
            .fold(0.0f64, f64::max);
        if best_minority == 0.0 {
            return 1.0;
        }
        // minority/n ∈ (0, 1/2]; rescale to [0, 1) with 1/2 ↦ 0.
        1.0 - 2.0 * best_minority / n
    }
}

/// Groups of sets that no sequence of membership questions can tell apart
/// (possible only when duplicates were inserted without the builder's
/// dedup). With unique sets the result is empty — the invariant behind
/// "tree construction always terminates".
pub fn indistinguishable_groups(collection: &Collection) -> Vec<Vec<crate::entity::SetId>> {
    let mut by_content: setdisc_util::FxHashMap<&crate::set::EntitySet, Vec<crate::entity::SetId>> =
        setdisc_util::FxHashMap::default();
    for (id, set) in collection.iter() {
        by_content.entry(set).or_default().push(id);
    }
    let mut groups: Vec<Vec<crate::entity::SetId>> =
        by_content.into_values().filter(|g| g.len() > 1).collect();
    groups.sort();
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn profile_of_figure1() {
        let p = CollectionProfile::new(&figure1(), 200, 1);
        assert_eq!(p.n_sets, 7);
        assert_eq!(p.distinct_entities, 11);
        assert_eq!(p.informative_entities, 10);
        assert_eq!(p.universal_entities, 1, "entity a is in every set");
        assert_eq!(p.max_entity_frequency, 7);
        assert!((p.lb_avg_questions - 20.0 / 7.0).abs() < 1e-12);
        assert_eq!(p.lb_max_questions, 3);
        assert_eq!(p.worst_case_questions, 6);
        assert!(p.avg_pairwise_jaccard > 0.0 && p.avg_pairwise_jaccard < 1.0);
    }

    #[test]
    fn chain_risk_extremes() {
        // Disjoint singletons: worst possible splits.
        let chain = Collection::from_raw_sets((0..16u32).map(|i| vec![i]).collect()).unwrap();
        assert!(CollectionProfile::chain_risk(&chain) > 0.8);
        // Bit-indexed sets: a perfect 50/50 split exists.
        let sets: Vec<Vec<u32>> = (0..16u32)
            .map(|i| {
                (0..4u32)
                    .filter(|b| i >> b & 1 == 1)
                    .map(|b| b + 1)
                    .chain([0])
                    .collect()
            })
            .collect();
        let balanced = Collection::from_raw_sets(sets).unwrap();
        assert!(CollectionProfile::chain_risk(&balanced) < 0.05);
    }

    #[test]
    fn chain_risk_predicts_question_counts() {
        use crate::builder::build_tree;
        use crate::strategy::MostEven;
        let chain = Collection::from_raw_sets((0..16u32).map(|i| vec![i]).collect()).unwrap();
        let sets: Vec<Vec<u32>> = (0..16u32)
            .map(|i| {
                (0..4u32)
                    .filter(|b| i >> b & 1 == 1)
                    .map(|b| b + 1)
                    .chain([0])
                    .collect()
            })
            .collect();
        let balanced = Collection::from_raw_sets(sets).unwrap();
        let t_chain = build_tree(&chain.full_view(), &mut MostEven::new()).unwrap();
        let t_bal = build_tree(&balanced.full_view(), &mut MostEven::new()).unwrap();
        assert!(t_chain.avg_depth() > t_bal.avg_depth() * 1.5);
    }

    #[test]
    fn unique_collections_have_no_indistinguishable_groups() {
        assert!(indistinguishable_groups(&figure1()).is_empty());
    }

    #[test]
    fn singleton_profile() {
        let c = Collection::from_raw_sets(vec![vec![1, 2]]).unwrap();
        let p = CollectionProfile::new(&c, 10, 0);
        assert_eq!(p.informative_entities, 0);
        assert_eq!(p.universal_entities, 2);
        assert_eq!(p.lb_max_questions, 0);
        assert_eq!(CollectionProfile::chain_risk(&c), 0.0);
    }
}
