//! A string name table: dense `u32` ids for distinct names, assigned in
//! first-appearance order, with every name stored once.
//!
//! Layout: one `String` arena holds the names back to back, `ends[id]` is
//! the arena offset one past name `id`, and `slots` is an open-addressing
//! table of ids (`u32::MAX` marks a vacant slot) with linear probing. Its
//! capacity is a power of two kept at most half full, so a lookup hashes
//! the name once and compares the arena bytes of one or two ids on
//! average.
//!
//! The probe index is [`mix64`] over the [`FxHasher`] word hash of the
//! name's bytes, not the Fx hash itself: Fx's `finish` is the raw last
//! multiply, whose low bits — the ones a power-of-two table indexes by —
//! depend only on the low bits of the words hashed. For short `str` keys
//! that leaves mostly the first two bytes: `e0`…`e262143` take 289 of the
//! 2¹⁸ values of their low 18 bits, and interning them grows
//! quadratically. The splitmix finalizer makes every index bit depend on
//! every byte.

use crate::hash::{mix64, FxHasher};
use crate::mem::{vec_bytes, HeapSize};
use std::hash::Hasher as _;

/// Marks a vacant slot (never a valid id: [`NameTable::intern`] stops one
/// short of it).
const VACANT: u32 = u32::MAX;

/// Smallest non-empty slot table.
const MIN_SLOTS: usize = 16;

/// The probe hash of a name: every output bit depends on every byte.
#[inline]
fn hash_name(name: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(name.as_bytes());
    mix64(h.finish())
}

/// Distinct names ↔ dense `u32` ids in first-appearance order (see the
/// module docs for the layout).
#[derive(Clone, Default)]
pub struct NameTable {
    arena: String,
    ends: Vec<u32>,
    slots: Vec<u32>,
}

impl NameTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct names.
    #[inline]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no name has been interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Interns `name`, returning its id: the existing one, or the next
    /// dense id when the name is new.
    pub fn intern(&mut self, name: &str) -> u32 {
        if (self.ends.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let slot = match self.find(name) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let id = u32::try_from(self.ends.len())
            .ok()
            .filter(|&id| id != VACANT)
            .expect("name table exceeds u32 ids");
        self.arena.push_str(name);
        self.ends
            .push(u32::try_from(self.arena.len()).expect("name arena exceeds u32 offsets"));
        self.slots[slot] = id;
        id
    }

    /// The id of an interned name.
    pub fn get(&self, name: &str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.find(name).ok()
    }

    /// The name with id `id`, if one was interned.
    #[inline]
    pub fn name(&self, id: u32) -> Option<&str> {
        let id = id as usize;
        let end = *self.ends.get(id)? as usize;
        let start = match id {
            0 => 0,
            _ => self.ends[id - 1] as usize,
        };
        Some(&self.arena[start..end])
    }

    /// `Ok(id)` when `name` is present, else `Err` of the vacant slot that
    /// ends its probe path. The slot table must not be empty.
    fn find(&self, name: &str) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = hash_name(name) as usize & mask;
        loop {
            match self.slots[i] {
                VACANT => return Err(i),
                id if self.name(id) == Some(name) => return Ok(id),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Doubles the slot table and re-places every id. Names are distinct,
    /// so each one's probe ends at a vacant slot.
    fn grow(&mut self) {
        self.slots = vec![VACANT; (self.slots.len() * 2).max(MIN_SLOTS)];
        for id in 0..self.ends.len() as u32 {
            if let Err(slot) = self.find(self.name(id).expect("id below len")) {
                self.slots[slot] = id;
            }
        }
    }
}

impl HeapSize for NameTable {
    fn heap_bytes(&self) -> usize {
        self.arena.capacity() + vec_bytes(&self.ends) + vec_bytes(&self.slots)
    }
}

impl std::fmt::Debug for NameTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries((0..self.len() as u32).filter_map(|id| self.name(id)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_in_first_appearance_order() {
        let mut t = NameTable::new();
        assert!(t.is_empty());
        assert_eq!(t.get("a"), None);
        assert_eq!(t.intern("beta"), 0);
        assert_eq!(t.intern("alpha"), 1);
        assert_eq!(t.intern("beta"), 0);
        assert_eq!(t.intern(""), 2, "the empty name is a name");
        assert_eq!(t.len(), 3);
        assert_eq!(t.get("alpha"), Some(1));
        assert_eq!(t.name(0), Some("beta"));
        assert_eq!(t.name(2), Some(""));
        assert_eq!(t.name(3), None);
        assert_eq!(format!("{t:?}"), r#"["beta", "alpha", ""]"#);
    }

    #[test]
    fn growth_keeps_every_id_and_the_table_half_empty() {
        let mut t = NameTable::new();
        for i in 0..10_000u32 {
            assert_eq!(t.intern(&format!("name{i}")), i);
            assert!(t.slots.len() >= 2 * t.len(), "load above one half");
        }
        for i in 0..10_000u32 {
            assert_eq!(t.get(&format!("name{i}")), Some(i));
            assert_eq!(t.name(i), Some(format!("name{i}").as_str()));
        }
        assert_eq!(t.get("name10000"), None);
    }

    #[test]
    fn heap_accounting_stores_each_name_once() {
        let mut t = NameTable::new();
        for name in ["x", "yy", "x", "zzz"] {
            t.intern(name);
        }
        let arena = t.arena.capacity();
        assert!(arena >= 6, "{arena}");
        assert_eq!(
            t.heap_bytes(),
            arena + 4 * t.ends.capacity() + 4 * t.slots.len()
        );
    }

    /// The index bits of a 2¹⁸-slot table over `e0`…`e262143` must take at
    /// least half of their 2¹⁸ values (a uniform hash takes about 63%). The
    /// raw [`FxHasher`] on `str` takes 289 of them.
    #[test]
    fn probe_index_bits_spread_over_sequential_names() {
        const BITS: u32 = 18;
        let mask = (1usize << BITS) - 1;
        let mut hit = vec![false; 1 << BITS];
        for i in 0..1u32 << BITS {
            hit[hash_name(&format!("e{i}")) as usize & mask] = true;
        }
        let distinct = hit.iter().filter(|&&h| h).count();
        assert!(distinct >= 1 << (BITS - 1), "{distinct} of {}", 1 << BITS);
    }
}
