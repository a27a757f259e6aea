//! Typed entity identifiers and dense entity-indexed maps.
//!
//! Every IR object (variable, block, instruction, resource) is referred to
//! by a small, `Copy`, typed index. Typed ids prevent mixing, say, a block
//! index with a variable index, and make dense side-tables cheap.

use std::fmt;
use std::marker::PhantomData;

macro_rules! entity_id {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl $name {
            /// Creates an id from a dense index.
            ///
            /// # Panics
            /// Panics if `index` exceeds `u32::MAX`.
            #[inline]
            pub fn new(index: usize) -> Self {
                assert!(index <= u32::MAX as usize, "entity index overflow");
                Self(index as u32)
            }

            /// Returns the dense index of this id.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl EntityId for $name {
            fn from_index(index: usize) -> Self {
                Self::new(index)
            }
            fn index(self) -> usize {
                self.0 as usize
            }
        }
    };
}

/// Common interface of typed entity ids, used by [`EntityVec`].
pub trait EntityId: Copy + Eq {
    /// Creates an id from a dense index.
    fn from_index(index: usize) -> Self;
    /// Returns the dense index.
    fn index(self) -> usize;
}

entity_id!(
    /// A virtual register (an SSA variable, or a plain variable outside SSA).
    Var,
    "v"
);
entity_id!(
    /// A basic block of the control flow graph.
    Block,
    "bb"
);
entity_id!(
    /// An instruction, stored in the per-function instruction arena.
    Inst,
    "i"
);
entity_id!(
    /// A renaming resource: a physical register or a virtual register
    /// acting as a coalescing target (see the paper, §2.1).
    Resource,
    "res"
);

/// A dense, growable map from an entity id to a value.
///
/// This is a thin typed wrapper around `Vec<V>`; pushing returns the id of
/// the new entry and indexing uses the typed id.
#[derive(Clone, PartialEq, Eq)]
pub struct EntityVec<K: EntityId, V> {
    items: Vec<V>,
    _marker: PhantomData<K>,
}

impl<K: EntityId, V> EntityVec<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self {
            items: Vec::new(),
            _marker: PhantomData,
        }
    }

    /// Creates a map pre-filled with `len` clones of `value`.
    pub fn filled(len: usize, value: V) -> Self
    where
        V: Clone,
    {
        Self {
            items: vec![value; len],
            _marker: PhantomData,
        }
    }

    /// Appends a value and returns its id.
    pub fn push(&mut self, value: V) -> K {
        let id = K::from_index(self.items.len());
        self.items.push(value);
        id
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over `(id, &value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.items
            .iter()
            .enumerate()
            .map(|(i, v)| (K::from_index(i), v))
    }

    /// Iterates over all ids.
    pub fn keys(&self) -> impl Iterator<Item = K> + use<K, V> {
        (0..self.items.len()).map(K::from_index)
    }

    /// Iterates over all values.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.items.iter()
    }

    /// Returns a reference to the entry, if in bounds.
    pub fn get(&self, key: K) -> Option<&V> {
        self.items.get(key.index())
    }

    /// Consumes the map, yielding values in id order.
    pub fn into_values(self) -> impl Iterator<Item = V> {
        self.items.into_iter()
    }

    /// Grows the map to cover `key`, filling with `default`.
    pub fn grow_to(&mut self, len: usize, default: V)
    where
        V: Clone,
    {
        if self.items.len() < len {
            self.items.resize(len, default);
        }
    }
}

impl<K: EntityId, V> Default for EntityVec<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: EntityId, V> std::ops::Index<K> for EntityVec<K, V> {
    type Output = V;
    fn index(&self, key: K) -> &V {
        &self.items[key.index()]
    }
}

impl<K: EntityId, V> std::ops::IndexMut<K> for EntityVec<K, V> {
    fn index_mut(&mut self, key: K) -> &mut V {
        &mut self.items[key.index()]
    }
}

impl<K: EntityId, V: fmt::Debug> fmt::Debug for EntityVec<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.items.iter()).finish()
    }
}

/// Groups `(key, value)` pairs by key with a stable counting sort, into
/// compressed sparse row form. Returns `(start, values)`: the values of
/// key `k` are `values[start[k]..start[k + 1]]`, in input order. Every
/// key must be below `n`.
pub fn group_by_key<T: Copy>(n: usize, pairs: &[(u32, T)]) -> (Vec<u32>, Vec<T>) {
    let mut start = vec![0u32; n + 1];
    for &(k, _) in pairs {
        start[k as usize + 1] += 1;
    }
    for k in 0..n {
        start[k + 1] += start[k];
    }
    let Some(&(_, first)) = pairs.first() else {
        return (start, Vec::new());
    };
    let mut next = start.clone();
    let mut values = vec![first; pairs.len()];
    for &(k, v) in pairs {
        values[next[k as usize] as usize] = v;
        next[k as usize] += 1;
    }
    (start, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entity_ids_roundtrip() {
        let v = Var::new(7);
        assert_eq!(v.index(), 7);
        assert_eq!(format!("{v}"), "v7");
        assert_eq!(format!("{:?}", Block::new(3)), "bb3");
        assert_eq!(format!("{}", Inst::new(0)), "i0");
        assert_eq!(format!("{}", Resource::new(12)), "res12");
    }

    #[test]
    fn entity_ids_are_ordered_by_index() {
        assert!(Var::new(1) < Var::new(2));
        assert_eq!(Var::new(5), Var::new(5));
    }

    #[test]
    fn entity_vec_push_and_index() {
        let mut m: EntityVec<Var, &str> = EntityVec::new();
        let a = m.push("a");
        let b = m.push("b");
        assert_eq!(m[a], "a");
        assert_eq!(m[b], "b");
        assert_eq!(m.len(), 2);
        assert_eq!(m.keys().collect::<Vec<_>>(), vec![a, b]);
    }

    #[test]
    fn entity_vec_grow() {
        let mut m: EntityVec<Var, i32> = EntityVec::new();
        m.grow_to(3, 9);
        assert_eq!(m.len(), 3);
        assert_eq!(m[Var::new(2)], 9);
        m.grow_to(2, 0); // never shrinks
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn group_by_key_is_stable() {
        let (start, values) = group_by_key(4, &[(2, 'a'), (0, 'b'), (2, 'c'), (0, 'd')]);
        assert_eq!(start, vec![0, 2, 2, 4, 4]);
        assert_eq!(values, vec!['b', 'd', 'a', 'c']);
        let (start, values) = group_by_key::<char>(2, &[]);
        assert_eq!((start, values), (vec![0, 0, 0], vec![]));
    }
}
