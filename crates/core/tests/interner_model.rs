//! `EntityInterner` against a `HashMap<String, u32>` reference model: ids
//! are dense and in first-appearance order, and `get`, `name`, `display`
//! and `len` agree with the model. Names are 1–40 bytes of ASCII,
//! multi-byte UTF-8, or a shared 8-byte prefix plus a tail; codes are
//! drawn from a small range so names repeat within a case.

use proptest::prelude::*;
use setdisc_core::entity::{EntityId, EntityInterner};
use std::collections::HashMap;

const ASCII: &[char] = &['a', 'b', 'q', 'z', '0', '7', '_', '-'];
const WIDE: &[char] = &['z', 'é', 'ß', '€', '中', '𝄞'];
const PREFIX: &str = "colname_";

/// Decodes a code into a name: kind (3) × byte length (40) × seed (48).
fn name_of(code: u32) -> String {
    let kind = code % 3;
    let len = 1 + (code / 3 % 40) as usize;
    let mut state = u64::from(code / 120).wrapping_mul(0x9E37_79B9_7F4A_7C15) + len as u64;
    let mut next = |n: usize| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize % n
    };
    let mut name = String::new();
    match kind {
        0 => (0..len).for_each(|_| name.push(ASCII[next(ASCII.len())])),
        1 => {
            while name.len() < len {
                let room = len - name.len();
                let fits: Vec<char> = WIDE
                    .iter()
                    .copied()
                    .filter(|c| c.len_utf8() <= room)
                    .collect();
                name.push(fits[next(fits.len())]);
            }
        }
        _ => {
            name.push_str(PREFIX);
            let tail = 1 + len % 32;
            (0..tail).for_each(|_| name.push(ASCII[next(ASCII.len())]));
        }
    }
    name
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn interner_matches_a_hash_map_model(codes in prop::collection::vec(0u32..5_760, 1usize..400)) {
        let mut interner = EntityInterner::new();
        let mut model: HashMap<String, u32> = HashMap::new();
        for code in codes {
            let name = name_of(code);
            prop_assert!((1..=40).contains(&name.len()), "{name:?}");
            let next = model.len() as u32;
            let want = *model.entry(name.clone()).or_insert(next);
            prop_assert_eq!(interner.intern(&name), EntityId(want), "{:?}", name);
            prop_assert_eq!(interner.len(), model.len());
        }
        for (name, &id) in &model {
            prop_assert_eq!(interner.get(name), Some(EntityId(id)));
            prop_assert_eq!(interner.name(EntityId(id)), Some(name.as_str()));
            prop_assert_eq!(interner.display(EntityId(id)), name.clone());
        }
        let past = EntityId(model.len() as u32);
        prop_assert_eq!(interner.name(past), None);
        prop_assert_eq!(interner.display(past), format!("e{}", past.0));
        prop_assert_eq!(interner.get(&"x".repeat(41)), None);
        prop_assert_eq!(interner.get(PREFIX), None);
    }
}

#[test]
fn generated_names_cover_every_shape() {
    let names: Vec<String> = (0..5_760).map(name_of).collect();
    assert!(names.iter().any(|n| n.len() == 1));
    assert!(names.iter().any(|n| n.len() == 40));
    assert!(
        names.iter().any(|n| n.chars().count() < n.len()),
        "multi-byte"
    );
    assert!(names.iter().any(|n| n.contains('𝄞')), "four-byte chars");
    let prefixed = names.iter().filter(|n| n.starts_with(PREFIX)).count();
    assert!(prefixed > 1_000, "{prefixed} names share an 8-byte prefix");
}
