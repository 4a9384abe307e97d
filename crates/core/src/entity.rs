//! Entity and set identifiers, plus a string interner for named entities.
//!
//! The algorithms operate purely on dense `u32` ids; names only matter at the
//! edges (loading data, rendering questions to a user), so the interner is a
//! thin optional companion rather than something the hot path touches.

use setdisc_util::intern::NameTable;

/// Identifier of an entity (an element of the universe) — dense from 0.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct EntityId(pub u32);

/// Identifier of a set within a [`crate::Collection`] — dense from 0.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SetId(pub u32);

impl std::fmt::Display for EntityId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl std::fmt::Display for SetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Bidirectional mapping between entity names and dense [`EntityId`]s,
/// assigned in first-appearance order. A typed view of one
/// [`NameTable`], which stores each name once.
#[derive(Default, Clone, Debug)]
pub struct EntityInterner {
    names: NameTable,
}

impl EntityInterner {
    /// Empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, name: &str) -> EntityId {
        EntityId(self.names.intern(name))
    }

    /// Looks up an already-interned name.
    pub fn get(&self, name: &str) -> Option<EntityId> {
        self.names.get(name).map(EntityId)
    }

    /// The name for `id`, if it was interned here.
    pub fn name(&self, id: EntityId) -> Option<&str> {
        self.names.name(id.0)
    }

    /// Renders `id` as its name, falling back to `e<id>`.
    pub fn display(&self, id: EntityId) -> String {
        self.name(id).map_or_else(|| id.to_string(), str::to_string)
    }

    /// Number of interned entities.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

impl setdisc_util::mem::HeapSize for EntityInterner {
    fn heap_bytes(&self) -> usize {
        self.names.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut i = EntityInterner::new();
        let a = i.intern("alpha");
        let b = i.intern("beta");
        assert_eq!(a, EntityId(0));
        assert_eq!(b, EntityId(1));
        assert_eq!(i.intern("alpha"), a);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn lookup_both_directions() {
        let mut i = EntityInterner::new();
        let a = i.intern("x");
        assert_eq!(i.get("x"), Some(a));
        assert_eq!(i.get("y"), None);
        assert_eq!(i.name(a), Some("x"));
        assert_eq!(i.name(EntityId(9)), None);
    }

    #[test]
    fn display_falls_back_to_id() {
        let mut i = EntityInterner::new();
        let a = i.intern("named");
        assert_eq!(i.display(a), "named");
        assert_eq!(i.display(EntityId(42)), "e42");
    }

    #[test]
    fn id_display() {
        assert_eq!(EntityId(3).to_string(), "e3");
        assert_eq!(SetId(7).to_string(), "S7");
    }
}
