//! Crash-safe plan saves under injected I/O faults (DESIGN.md §11).
//!
//! `util::faults` is process-global, and every plan test that saves passes
//! through the `plan.save.*` sites this test arms. It therefore runs in a
//! test binary of its own, where no sibling test can save while a fault is
//! armed.

use setdisc_core::collection::Collection;
use setdisc_core::entity::EntityId;
use setdisc_plan::{load_plan, save_plan, PlanCache, PlanKey, PlanNode, StrategyKey};
use setdisc_util::Fingerprint;

fn sample_cache() -> PlanCache {
    let c = Collection::from_raw_sets(vec![
        vec![0, 1, 2, 3],
        vec![0, 3, 4],
        vec![0, 1, 2, 3, 5],
        vec![0, 1, 2, 6, 7],
        vec![0, 1, 7, 8],
        vec![0, 1, 9, 10],
        vec![0, 1, 6],
    ])
    .unwrap();
    let cache = PlanCache::for_collection(&c, 1024);
    for i in 0..40u64 {
        cache.insert(
            PlanKey {
                strategy: StrategyKey {
                    family: (i % 3) as u8,
                    metric: (i % 2) as u8,
                    k: 2,
                    beam: 10,
                    weight_fp: if i % 5 == 0 { 0xfeed_beef | 1 } else { 0 },
                },
                fp: Fingerprint::of(i),
                len: 7,
            },
            PlanNode {
                entity: EntityId(i as u32),
                bound: i * 3,
                informative: 10,
                evaluated: 2,
                yes: (Fingerprint::of(i + 1), 3),
                no: (Fingerprint::of(i + 2), 4),
            },
        );
    }
    cache
}

#[test]
fn faulted_saves_never_touch_the_last_good_file() {
    let cache = sample_cache();
    let dir = std::env::temp_dir().join("setdisc_plan_test_atomic");
    let path = dir.join("x.plan");
    save_plan(&cache, &path).unwrap();
    let good = std::fs::read(&path).unwrap();

    for spec in [
        "seed=9,plan.save.write=err:1",
        "seed=9,plan.save.write.payload=short:1:13",
        "seed=9,plan.save.rename=err:1",
    ] {
        setdisc_util::faults::install_spec(spec).unwrap();
        let err = save_plan(&cache, &path).unwrap_err();
        assert!(err.to_string().contains("injected"), "{spec}: {err}");
        setdisc_util::faults::clear();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            good,
            "{spec}: last good file must be byte-identical"
        );
        load_plan(&path, 0).unwrap();
        // No temp litter after a failed save.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name() != "x.plan")
            .collect();
        assert!(stray.is_empty(), "{spec}: stray files {stray:?}");
    }
    // Disarmed again: saves succeed and replace atomically.
    save_plan(&cache, &path).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), good);
    std::fs::remove_dir_all(&dir).ok();
}
