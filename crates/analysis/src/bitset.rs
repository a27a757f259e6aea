//! Dense bit sets over entity ids. A [`BitSet`] owns its words; a
//! [`BitRow`] borrows one row of a `BitMatrix`, the flat store the
//! analyses keep their per-block and per-variable sets in: one buffer per
//! result however many rows it has, so computing an analysis costs a few
//! allocations rather than one per block or per definition.

use std::marker::PhantomData;
use tossa_ir::ids::EntityId;

/// A dense bit set indexed by a typed entity id.
#[derive(PartialEq, Eq)]
pub struct BitSet<K: EntityId> {
    words: Vec<u64>,
    _marker: PhantomData<K>,
}

impl<K: EntityId> Clone for BitSet<K> {
    fn clone(&self) -> Self {
        BitSet {
            words: self.words.clone(),
            _marker: PhantomData,
        }
    }

    /// Reuses `self`'s existing buffer when its capacity suffices, so
    /// `clone_from` in a loop allocates at most once.
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
    }
}

impl<K: EntityId> BitSet<K> {
    /// Creates an empty set with capacity for `len` entities.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            _marker: PhantomData,
        }
    }

    /// Inserts `k`; returns true if it was newly inserted.
    ///
    /// # Panics
    /// Panics if `k` exceeds the capacity.
    pub fn insert(&mut self, k: K) -> bool {
        let (w, b) = (k.index() / 64, k.index() % 64);
        let old = self.words[w];
        self.words[w] |= 1 << b;
        old & (1 << b) == 0
    }

    /// Removes `k`; returns true if it was present.
    pub fn remove(&mut self, k: K) -> bool {
        let (w, b) = (k.index() / 64, k.index() % 64);
        let old = self.words[w];
        self.words[w] &= !(1 << b);
        old & (1 << b) != 0
    }

    /// Membership test (false for an id beyond the capacity).
    pub fn contains(&self, k: K) -> bool {
        self.row().contains(k)
    }

    /// In-place union; returns true if `self` changed.
    pub fn union_with(&mut self, other: &BitSet<K>) -> bool {
        debug_assert_eq!(self.words.len(), other.words.len());
        let mut changed = false;
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            let new = *a | b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// In-place intersection (`self &= other`).
    pub fn intersect_with(&mut self, other: &BitSet<K>) {
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference (`self -= other`).
    pub fn subtract(&mut self, other: &BitSet<K>) {
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        self.row().count()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.row().is_empty()
    }

    /// Removes all members.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Iterates over members in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = K> + '_ {
        self.row().iter()
    }

    /// The set as a borrowed row.
    pub fn row(&self) -> BitRow<'_, K> {
        BitRow {
            words: &self.words,
            _marker: PhantomData,
        }
    }

    /// Makes `self` a copy of `row`, capacity included, reusing its
    /// buffer: the live cursor of a backward scan allocates at most once.
    pub fn copy_from(&mut self, row: BitRow<'_, K>) {
        self.words.clear();
        self.words.extend_from_slice(row.words);
    }
}

/// A borrowed, read-only bit set: a row of a `BitMatrix` or a whole
/// [`BitSet`]. An id beyond the row's capacity is not a member.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct BitRow<'a, K: EntityId> {
    words: &'a [u64],
    _marker: PhantomData<K>,
}

impl<'a, K: EntityId> BitRow<'a, K> {
    /// Membership test.
    pub fn contains(self, k: K) -> bool {
        let (w, b) = (k.index() / 64, k.index() % 64);
        self.words.get(w).is_some_and(|&word| word & (1 << b) != 0)
    }

    /// Number of members.
    pub fn count(self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the row is empty.
    pub fn is_empty(self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over members in increasing index order.
    pub fn iter(self) -> impl Iterator<Item = K> + 'a {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(K::from_index(wi * 64 + b))
            })
        })
    }
}

/// Equal-width bit rows over `K`, stored back to back in one buffer and
/// addressed by a dense row index (a block's or a variable's).
#[derive(Clone, Debug)]
pub(crate) struct BitMatrix<K: EntityId> {
    /// `u64` words per row.
    words: usize,
    bits: Vec<u64>,
    _marker: PhantomData<K>,
}

impl<K: EntityId> BitMatrix<K> {
    /// `rows` empty rows, each with capacity for `len` entities.
    pub(crate) fn new(rows: usize, len: usize) -> Self {
        let words = len.div_ceil(64);
        BitMatrix {
            words,
            bits: vec![0; rows * words],
            _marker: PhantomData,
        }
    }

    /// Row `r`.
    pub(crate) fn row(&self, r: usize) -> BitRow<'_, K> {
        BitRow {
            words: &self.bits[r * self.words..(r + 1) * self.words],
            _marker: PhantomData,
        }
    }

    fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.bits[r * self.words..(r + 1) * self.words]
    }

    /// Inserts `k` into row `r` (panics if `k` exceeds the row capacity).
    pub(crate) fn insert(&mut self, r: usize, k: K) {
        self.row_mut(r)[k.index() / 64] |= 1 << (k.index() % 64);
    }

    /// Overwrites row `r` with `src`, which must have the same width.
    pub(crate) fn copy_row(&mut self, r: usize, src: BitRow<'_, K>) {
        self.row_mut(r).copy_from_slice(src.words);
    }

    /// Row `r` `|= src \ minus`, in one word-level pass; returns true if
    /// the row changed. This is the inner step of the liveness worklist
    /// (`live_out(b) |= live_in(s) \ phi_defs(s)`), fused so the hot loop
    /// allocates nothing and touches each word once.
    pub(crate) fn union_minus(
        &mut self,
        r: usize,
        src: BitRow<'_, K>,
        minus: BitRow<'_, K>,
    ) -> bool {
        let mut changed = false;
        for ((a, &b), &m) in self.row_mut(r).iter_mut().zip(src.words).zip(minus.words) {
            let new = *a | (b & !m);
            changed |= new != *a;
            *a = new;
        }
        changed
    }
}

impl<K: EntityId> std::fmt::Debug for BitSet<K>
where
    K: std::fmt::Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.row().fmt(f)
    }
}

impl<K: EntityId + std::fmt::Debug> std::fmt::Debug for BitRow<'_, K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tossa_ir::ids::Var;

    #[test]
    fn insert_remove_contains() {
        let mut s: BitSet<Var> = BitSet::new(200);
        assert!(s.insert(Var::new(3)));
        assert!(!s.insert(Var::new(3)));
        assert!(s.insert(Var::new(150)));
        assert!(s.contains(Var::new(3)));
        assert!(!s.contains(Var::new(4)));
        assert!(s.remove(Var::new(3)));
        assert!(!s.remove(Var::new(3)));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn union_and_subtract() {
        let mut a: BitSet<Var> = BitSet::new(100);
        let mut b: BitSet<Var> = BitSet::new(100);
        a.insert(Var::new(1));
        b.insert(Var::new(2));
        b.insert(Var::new(1));
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.count(), 2);
        a.subtract(&b);
        assert!(a.is_empty());
    }

    #[test]
    fn iter_in_order() {
        let mut s: BitSet<Var> = BitSet::new(300);
        for i in [250, 3, 64, 65] {
            s.insert(Var::new(i));
        }
        let got: Vec<usize> = s.iter().map(|v| v.index()).collect();
        assert_eq!(got, vec![3, 64, 65, 250]);
    }

    #[test]
    fn out_of_range_contains_is_false() {
        let s: BitSet<Var> = BitSet::new(10);
        assert!(!s.contains(Var::new(1000)));
        let m: BitMatrix<Var> = BitMatrix::new(3, 10);
        assert!(!m.row(2).contains(Var::new(1000)));
    }

    #[test]
    fn clone_from_reuses_capacity() {
        let mut dst: BitSet<Var> = BitSet::new(200);
        let mut src: BitSet<Var> = BitSet::new(200);
        src.insert(Var::new(7));
        src.insert(Var::new(130));
        dst.clone_from(&src);
        assert_eq!(dst, src);
        let mut copy: BitSet<Var> = BitSet::new(0);
        copy.copy_from(src.row());
        assert_eq!(copy, src);
    }

    #[test]
    fn matrix_rows_are_independent_sets() {
        let mut m: BitMatrix<Var> = BitMatrix::new(3, 130);
        m.insert(0, Var::new(129));
        m.insert(1, Var::new(0));
        m.insert(1, Var::new(64));
        assert_eq!(m.row(0).iter().collect::<Vec<_>>(), [Var::new(129)]);
        assert_eq!(m.row(1).count(), 2);
        assert!(m.row(2).is_empty());
        assert_ne!(m.row(0), m.row(1));

        // row 2 |= row 1 \ row 0, then again with nothing new.
        let mut minus: BitSet<Var> = BitSet::new(130);
        minus.insert(Var::new(64));
        let src = m.clone();
        assert!(m.union_minus(2, src.row(1), minus.row()));
        assert!(!m.union_minus(2, src.row(1), minus.row()));
        assert_eq!(m.row(2).iter().collect::<Vec<_>>(), [Var::new(0)]);

        m.copy_row(0, src.row(1));
        assert_eq!(m.row(0), src.row(1));
    }
}
