//! Known answers for k-LP selection (Algorithm 1).
//!
//! `selection_digest_is_pinned` builds decision trees over fixed seeded
//! collections across every lookahead depth, beam and metric, plus
//! weighted AD under a skewed prior and selections under exclusions, and
//! folds every selection's `(entity, bound, informative, evaluated)` and
//! every recorded Table-4 node into one order-sensitive digest. Any change
//! to a selected entity, a bound, or a prune counter changes the digest.
//!
//! `explain_last_agrees_with_the_selection` checks the provenance trace
//! against the selection it explains on random views.
//!
//! `interleaved_selections_equal_fresh_instances` checks that selections
//! sharing one thread's counting buffer and lookahead arena — two live
//! instances taking turns, across collections whose universes grow and
//! shrink — equal those of fresh instances on threads of their own.

use setdisc_core::builder::build_tree;
use setdisc_core::collection::Collection;
use setdisc_core::cost::{AvgDepth, CostModel, Height};
use setdisc_core::entity::{EntityId, SetId};
use setdisc_core::lookahead::{KLp, KLpBeam};
use setdisc_core::strategy::{CandidateOutcome, SelectionDetail, SelectionStrategy};
use setdisc_core::subcollection::SubCollection;
use setdisc_core::weights::WeightTable;
use setdisc_util::FxHashSet;
use std::sync::Arc;

/// Digest of every selection in [`selection_digest_is_pinned`]'s grid.
const PINNED_DIGEST: u64 = 0x7c27_c0e4_b5b7_38bc;

const BEAMS: [KLpBeam; 3] = [
    KLpBeam::Full,
    KLpBeam::Limited { q: 3 },
    KLpBeam::LimitedVariable { q: 3 },
];

/// splitmix64: the test's own generator, so the inputs never depend on
/// the workspace's RNG.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n_sets` random sets of 2–10 entities over `universe`, skewed toward
/// small ids (the smaller of two uniform draws). Entities `0..4` each have
/// a twin `universe + e` in exactly the same sets, so duplicate partitions
/// occur at every level.
fn collection(n_sets: usize, universe: u32, seed: u64) -> Collection {
    let mut state = seed;
    let sets = (0..n_sets)
        .map(|_| {
            let len = 2 + next(&mut state) % 9;
            let mut set: Vec<u32> = (0..len)
                .map(|_| {
                    let a = next(&mut state) % universe as u64;
                    let b = next(&mut state) % universe as u64;
                    a.min(b) as u32
                })
                .collect();
            let twins: Vec<u32> = set
                .iter()
                .filter(|&&e| e < 4)
                .map(|e| universe + e)
                .collect();
            set.extend(twins);
            set
        })
        .collect();
    Collection::from_raw_sets(sets).expect("non-empty collection")
}

fn collections() -> Vec<Collection> {
    vec![
        collection(40, 20, 1),
        collection(90, 36, 2),
        collection(60, 120, 3),
    ]
}

/// A prior with one heavy set in every seven and a spread of light ones.
fn skewed_prior(c: &Collection) -> Arc<WeightTable> {
    let raw: Vec<u64> = (0..c.len() as u64)
        .map(|i| if i % 7 == 3 { 60 } else { 1 + i % 5 })
        .collect();
    Arc::new(WeightTable::new(&raw).expect("positive weights"))
}

/// Order-sensitive FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn add_detail(&mut self, d: &SelectionDetail) {
        self.add(d.entity.0 as u64);
        self.add(d.bound);
        self.add(d.informative as u64);
        self.add(d.evaluated as u64);
    }
}

/// Routes every selection through `select_with_detail`, so a tree build
/// records the bound and counters behind each node it asks about.
struct Recorder<S> {
    inner: S,
    details: Vec<SelectionDetail>,
}

impl<S: SelectionStrategy> SelectionStrategy for Recorder<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn select_excluding(
        &mut self,
        view: &SubCollection<'_>,
        excluded: &FxHashSet<EntityId>,
    ) -> Option<EntityId> {
        let detail = self.inner.select_with_detail(view, excluded)?;
        self.details.push(detail);
        Some(detail.entity)
    }
}

/// Builds the whole tree over `view` and folds every selection and every
/// recorded node into `digest`.
fn digest_tree<M: CostModel>(digest: &mut Digest, view: &SubCollection<'_>, klp: KLp<M>) {
    let mut rec = Recorder {
        inner: klp.record_stats(true),
        details: Vec::new(),
    };
    let tree = build_tree(view, &mut rec).expect("unique sets always split");
    let nodes = &rec.inner.stats().nodes;
    // Each tree node is a distinct view, so no top-level selection is a
    // memo hit and every selection records exactly one node.
    assert_eq!(nodes.len(), rec.details.len(), "{}", rec.inner.name());
    assert_eq!(tree.n_leaves(), view.len());
    for (d, node) in rec.details.iter().zip(nodes) {
        assert_eq!(
            (node.informative, node.evaluated),
            (d.informative, d.evaluated),
            "{}",
            rec.inner.name()
        );
        digest.add_detail(d);
        digest.add(node.collection_size as u64);
    }
}

/// Selects on `view` under a growing exclusion set — each pick joins the
/// set before the next selection — and folds each detail into `digest`.
fn digest_exclusions<M: CostModel>(digest: &mut Digest, view: &SubCollection<'_>, mut klp: KLp<M>) {
    let mut excluded = FxHashSet::default();
    for _ in 0..3 {
        let Some(d) = klp.select_with_detail(view, &excluded) else {
            break;
        };
        assert!(!excluded.contains(&d.entity));
        digest.add_detail(&d);
        excluded.insert(d.entity);
    }
}

#[test]
fn selection_digest_is_pinned() {
    let mut digest = Digest::new();
    for c in &collections() {
        let full = c.full_view();
        let half = full.filter(|id: SetId| id.0.is_multiple_of(2));
        let prior = skewed_prior(c);
        for k in 1..=3u32 {
            for beam in BEAMS {
                digest_tree(&mut digest, &full, KLp::<AvgDepth>::with_beam(k, beam));
                digest_tree(&mut digest, &full, KLp::<Height>::with_beam(k, beam));
                digest_tree(
                    &mut digest,
                    &full,
                    KLp::<AvgDepth>::with_beam(k, beam).with_prior(Arc::clone(&prior)),
                );
                for view in [&full, &half] {
                    digest_exclusions(&mut digest, view, KLp::<AvgDepth>::with_beam(k, beam));
                    digest_exclusions(&mut digest, view, KLp::<Height>::with_beam(k, beam));
                    digest_exclusions(
                        &mut digest,
                        view,
                        KLp::<AvgDepth>::with_beam(k, beam).with_prior(Arc::clone(&prior)),
                    );
                }
            }
        }
    }
    assert_eq!(
        digest.0, PINNED_DIGEST,
        "k-LP selections changed: digest {:#018x}",
        digest.0
    );
}

/// Runs one selection on a fresh strategy (so it cannot be a memo hit)
/// and checks the trace `explain_last` gives for it.
fn check_explain<M: CostModel>(
    mut klp: KLp<M>,
    view: &SubCollection<'_>,
    excluded: &FxHashSet<EntityId>,
) {
    let name = klp.name();
    let Some(detail) = klp.select_with_detail(view, excluded) else {
        return;
    };
    let trace = klp.explain_last(view, excluded, &detail);
    assert!(!trace.memo_hit, "{name}");
    assert_eq!(trace.informative, detail.informative, "{name}");
    assert_eq!(trace.evaluated, detail.evaluated, "{name}");
    assert_eq!(
        trace.pruned_bound,
        detail.informative - detail.evaluated,
        "{name}"
    );
    let selected: Vec<_> = trace
        .ranked
        .iter()
        .filter(|r| r.outcome == CandidateOutcome::Selected)
        .collect();
    assert_eq!(selected.len(), 1, "{name}: one winner");
    assert_eq!(selected[0].entity, detail.entity, "{name}");
    assert!(
        selected[0].rank < detail.evaluated,
        "{name}: winner was scanned"
    );
    assert!(
        trace.ranked.windows(2).all(|w| w[0].rank < w[1].rank),
        "{name}: ranks strictly increase"
    );
    for r in &trace.ranked {
        assert!(
            !excluded.contains(&r.entity),
            "{name}: excluded entity ranked"
        );
        if r.rank >= detail.evaluated {
            assert_eq!(
                r.outcome,
                CandidateOutcome::PrunedBound,
                "{name}: rank {}",
                r.rank
            );
        }
    }
}

#[test]
fn explain_last_agrees_with_the_selection() {
    let mut state = 0x5EED_u64;
    for round in 0..12u64 {
        let c = collection(
            30 + (round as usize * 7) % 50,
            16 + (round as u32 * 5) % 40,
            round,
        );
        let prior = skewed_prior(&c);
        let mask = next(&mut state);
        let view = c.full_view().filter(|id| mask >> (id.0 % 64) & 1 == 1);
        if view.len() < 2 {
            continue;
        }
        let no_exclusions = FxHashSet::default();
        let mut some_excluded = FxHashSet::default();
        for e in 0..c.universe() {
            if next(&mut state).is_multiple_of(4) {
                some_excluded.insert(EntityId(e));
            }
        }
        for excluded in [&no_exclusions, &some_excluded] {
            for k in 1..=3u32 {
                for beam in BEAMS {
                    check_explain(KLp::<AvgDepth>::with_beam(k, beam), &view, excluded);
                    check_explain(KLp::<Height>::with_beam(k, beam), &view, excluded);
                    check_explain(
                        KLp::<AvgDepth>::with_beam(k, beam).with_prior(Arc::clone(&prior)),
                        &view,
                        excluded,
                    );
                }
            }
        }
    }
}

/// k-LP(2, AD) for `c`, under `c`'s skewed prior when `weighted`.
fn klp_for(c: &Collection, weighted: bool) -> KLp<AvgDepth> {
    let klp = KLp::<AvgDepth>::new(2);
    if weighted {
        klp.with_prior(skewed_prior(c))
    } else {
        klp
    }
}

/// The full view of `c` and seven distinct subviews of it.
fn distinct_views(c: &Collection) -> Vec<SubCollection<'_>> {
    let full = c.full_view();
    let mut views: Vec<_> = (2..9u32)
        .map(|m| full.filter(|id| !id.0.is_multiple_of(m)))
        .collect();
    views.push(full);
    views
}

#[test]
fn interleaved_selections_equal_fresh_instances() {
    let small = collection(40, 20, 1);
    let large = collection(120, 400, 9);
    assert!(large.universe() > 4 * small.universe());
    let phases = [&small, &large, &small];
    let none = FxHashSet::default();
    for weighted in [false, true] {
        // Each phase's expected details, from a fresh instance per
        // selection on a thread of its own, so no buffer state is shared
        // with the live instances below.
        let want: Vec<Vec<Option<SelectionDetail>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = phases
                .iter()
                .map(|&c| {
                    let none = &none;
                    scope.spawn(move || {
                        distinct_views(c)
                            .iter()
                            .map(|v| klp_for(c, weighted).select_with_detail(v, none))
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Two live instances take turns on this thread. Unweighted ones
        // stay alive across the collection changes (their memos reset on
        // the switch); a prior belongs to one collection, so weighted
        // instances are made per phase.
        let mut live: Option<[KLp<AvgDepth>; 2]> = None;
        for (phase, &c) in phases.iter().enumerate() {
            if weighted || live.is_none() {
                live = Some([klp_for(c, weighted), klp_for(c, weighted)]);
            }
            let pair = live.as_mut().unwrap();
            for (i, view) in distinct_views(c).iter().enumerate() {
                let got = pair[i % 2].select_with_detail(view, &none);
                assert_eq!(
                    got, want[phase][i],
                    "weighted={weighted} phase={phase} view={i}"
                );
                assert!(got.is_some());
            }
        }
    }
}
