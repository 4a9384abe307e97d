//! Collection preprocessing transforms.
//!
//! [`collapse_equivalent_entities`] merges entities that appear in exactly
//! the same sets into one representative. Two such entities induce the same
//! partition at *every* node of every search, so asking about either is the
//! same question — collapsing them shrinks the universe (often drastically
//! for query-output collections, where thousands of rows share a membership
//! pattern) without changing any question count. It composes with the
//! in-loop partition dedup of [`crate::lookahead`]: dedup removes repeat
//! work per node, collapsing removes it globally, including from counting
//! passes.

use crate::collection::{Collection, CollectionBuilder};
use crate::entity::EntityId;
use crate::set::EntitySet;
use setdisc_util::FxHashMap;

/// Result of entity collapsing.
pub struct CollapsedCollection {
    /// The rewritten collection over representative entities.
    pub collection: Collection,
    /// For each representative, the original entities it stands for
    /// (singleton classes included). Sorted by representative id.
    pub classes: Vec<(EntityId, Vec<EntityId>)>,
}

impl CollapsedCollection {
    /// Representative for an original entity, if it occurs in any set.
    pub fn representative_of(&self, original: EntityId) -> Option<EntityId> {
        self.classes
            .iter()
            .find(|(_, members)| members.contains(&original))
            .map(|&(rep, _)| rep)
    }

    /// Number of equivalence classes (= distinct entities after collapse).
    pub fn n_classes(&self) -> usize {
        self.classes.len()
    }
}

/// Collapses membership-equivalent entities. The representative of a class
/// is its smallest original entity id, preserving deterministic tie-break
/// behavior relative to the uncollapsed collection.
pub fn collapse_equivalent_entities(collection: &Collection) -> CollapsedCollection {
    // Signature of an entity = its membership `(fingerprint, count)` from
    // one counting pass over the full view — the same digest the lookahead
    // dedup uses, so grouping is O(1) per entity instead of hashing each
    // inverted list (collision odds are negligible; see
    // `setdisc_util::hash`). Entities in no set are never touched by the
    // pass and drop out naturally.
    let view = collection.full_view();
    let mut stats = Vec::new();
    view.count_entities_with_fp(&mut stats);
    let mut class_of: FxHashMap<(setdisc_util::Fingerprint, u32), Vec<EntityId>> =
        FxHashMap::default();
    for s in &stats {
        class_of.entry((s.fp, s.count)).or_default().push(s.entity);
    }
    let mut classes: Vec<(EntityId, Vec<EntityId>)> = class_of
        .into_values()
        .map(|mut members| {
            members.sort_unstable();
            (members[0], members)
        })
        .collect();
    classes.sort_unstable_by_key(|&(rep, _)| rep);

    // Rewrite sets keeping only representatives.
    let keep: setdisc_util::FxHashSet<EntityId> = classes.iter().map(|&(rep, _)| rep).collect();
    let mut builder = CollectionBuilder::new();
    for (_, set) in collection.iter() {
        builder.push(EntitySet::from_sorted_unchecked(
            set.iter().filter(|e| keep.contains(e)).collect(),
        ));
    }
    let built = builder.build().expect("same number of non-empty sets");
    assert_eq!(
        built.collection.len(),
        collection.len(),
        "collapsing must not merge distinct sets"
    );
    CollapsedCollection {
        collection: built.collection,
        classes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_tree;
    use crate::cost::AvgDepth;
    use crate::lookahead::KLp;

    #[test]
    fn collapses_duplicate_membership_patterns() {
        // Entities 1 and 2 always co-occur; 3 and 4 likewise.
        let c =
            Collection::from_raw_sets(vec![vec![1, 2, 3, 4], vec![1, 2], vec![3, 4, 5], vec![5]])
                .unwrap();
        let collapsed = collapse_equivalent_entities(&c);
        assert_eq!(collapsed.collection.len(), 4);
        // {1,2} → 1, {3,4} → 3, {5} → 5: three classes.
        assert_eq!(collapsed.n_classes(), 3);
        assert_eq!(collapsed.representative_of(EntityId(2)), Some(EntityId(1)));
        assert_eq!(collapsed.representative_of(EntityId(4)), Some(EntityId(3)));
        assert_eq!(collapsed.representative_of(EntityId(5)), Some(EntityId(5)));
        assert_eq!(collapsed.representative_of(EntityId(99)), None);
    }

    #[test]
    fn collapse_preserves_tree_costs() {
        // Build a collection with heavy entity duplication: each "column"
        // of bits is repeated three times.
        let sets: Vec<Vec<u32>> = (0..8u32)
            .map(|i| {
                (0..3u32)
                    .filter(|b| i >> b & 1 == 1)
                    .flat_map(|b| [b * 3, b * 3 + 1, b * 3 + 2])
                    .chain([100])
                    .collect()
            })
            .collect();
        let c = Collection::from_raw_sets(sets).unwrap();
        let collapsed = collapse_equivalent_entities(&c);
        assert!(collapsed.collection.distinct_entities() < c.distinct_entities());
        let t_orig = build_tree(&c.full_view(), &mut KLp::<AvgDepth>::new(2)).unwrap();
        let t_coll = build_tree(
            &collapsed.collection.full_view(),
            &mut KLp::<AvgDepth>::new(2),
        )
        .unwrap();
        assert_eq!(t_orig.total_depth(), t_coll.total_depth());
        assert_eq!(t_orig.height(), t_coll.height());
    }

    #[test]
    fn collapse_is_idempotent() {
        let c = Collection::from_raw_sets(vec![vec![1, 2], vec![2, 3], vec![1, 3]]).unwrap();
        let once = collapse_equivalent_entities(&c);
        let twice = collapse_equivalent_entities(&once.collection);
        assert_eq!(once.n_classes(), twice.n_classes());
        assert_eq!(
            once.collection.distinct_entities(),
            twice.collection.distinct_entities()
        );
    }

    #[test]
    fn no_equivalences_is_a_noop() {
        let c = Collection::from_raw_sets(vec![vec![1, 2], vec![2, 3], vec![3, 1]]).unwrap();
        let collapsed = collapse_equivalent_entities(&c);
        assert_eq!(collapsed.n_classes(), 3);
        assert_eq!(collapsed.collection.distinct_entities(), 3);
    }

    #[test]
    fn discovery_equivalent_after_collapse() {
        use crate::discovery::{Session, SimulatedOracle};
        use crate::strategy::MostEven;
        let c = Collection::from_raw_sets(vec![
            vec![1, 2, 7],
            vec![1, 2, 8],
            vec![3, 4, 7],
            vec![3, 4, 8],
        ])
        .unwrap();
        let collapsed = collapse_equivalent_entities(&c);
        for (id, target) in collapsed.collection.iter() {
            let mut session = Session::over(collapsed.collection.full_view(), MostEven::new());
            let outcome = session.run(&mut SimulatedOracle::new(target)).unwrap();
            assert_eq!(outcome.discovered(), Some(id));
        }
    }
}
