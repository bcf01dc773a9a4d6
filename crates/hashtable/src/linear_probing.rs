//! Open-addressing hash table with linear probing.
//!
//! One flat allocation, sequential probe runs — the cache-friendly
//! counterpoint to [`crate::chaining`] in the molecule ablation (E9).

use crate::hash_fn::{HashFn, Murmur3Finalizer};
use crate::table::GroupTable;

/// Linear-probing table from `u32` keys to `V`.
pub struct LinearProbingTable<V, H: HashFn = Murmur3Finalizer> {
    slots: Vec<Option<(u32, V)>>,
    len: usize,
    hash: H,
    /// Grow when `len > slots * max_load`.
    max_load: f32,
}

impl<V> LinearProbingTable<V, Murmur3Finalizer> {
    /// A table with default capacity and the Murmur3 finaliser.
    pub fn new() -> Self {
        Self::with_capacity_and_hasher(16, Murmur3Finalizer)
    }

    /// Pre-size for an expected number of distinct keys.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_hasher(capacity, Murmur3Finalizer)
    }
}

impl<V> Default for LinearProbingTable<V, Murmur3Finalizer> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V, H: HashFn> LinearProbingTable<V, H> {
    /// A table with a chosen hash function.
    pub fn with_capacity_and_hasher(capacity: usize, hash: H) -> Self {
        // Size for the load factor so `capacity` inserts fit without growth.
        let slots = ((capacity as f32 / 0.7) as usize)
            .next_power_of_two()
            .max(16);
        LinearProbingTable {
            slots: (0..slots).map(|_| None).collect(),
            len: 0,
            hash,
            max_load: 0.7,
        }
    }

    #[inline(always)]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, (0..new_cap).map(|_| None).collect());
        for entry in old.into_iter().flatten() {
            let mut i = self.hash.slot(entry.0, new_cap - 1);
            while self.slots[i].is_some() {
                i = (i + 1) & (new_cap - 1);
            }
            self.slots[i] = Some(entry);
        }
    }

    /// Index of `key`'s slot, or of the empty slot where it would go.
    #[inline(always)]
    fn probe(&self, key: u32) -> usize {
        let mask = self.mask();
        let mut i = self.hash.slot(key, mask);
        loop {
            match &self.slots[i] {
                Some((k, _)) if *k == key => return i,
                Some(_) => i = (i + 1) & mask,
                None => return i,
            }
        }
    }
}

impl<V, H: HashFn> GroupTable<V> for LinearProbingTable<V, H> {
    fn upsert_with(&mut self, key: u32, init: impl FnOnce() -> V) -> &mut V {
        if (self.len + 1) as f32 > self.slots.len() as f32 * self.max_load {
            self.grow();
        }
        let i = self.probe(key);
        if self.slots[i].is_none() {
            self.slots[i] = Some((key, init()));
            self.len += 1;
        }
        &mut self.slots[i].as_mut().expect("filled above").1
    }

    fn get(&self, key: u32) -> Option<&V> {
        match &self.slots[self.probe(key)] {
            Some((k, v)) if *k == key => Some(v),
            _ => None,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn drain(self) -> Vec<(u32, V)> {
        self.slots.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_fn::Identity;

    #[test]
    fn upsert_and_get() {
        let mut t: LinearProbingTable<u64> = LinearProbingTable::new();
        for k in [9u32, 9, 7, 9] {
            *t.upsert_with(k, || 0) += 1;
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(9), Some(&3));
        assert_eq!(t.get(7), Some(&1));
        assert_eq!(t.get(8), None);
    }

    #[test]
    fn growth_preserves_entries() {
        let mut t: LinearProbingTable<u32> = LinearProbingTable::with_capacity(4);
        for k in 0..5_000u32 {
            t.upsert_with(k, || k + 1);
        }
        assert_eq!(t.len(), 5_000);
        for k in (0..5_000u32).step_by(313) {
            assert_eq!(t.get(k), Some(&(k + 1)));
        }
    }

    #[test]
    fn probe_run_with_identity_hash() {
        // Consecutive keys with identity hash form one probe run.
        let mut t: LinearProbingTable<u32, Identity> =
            LinearProbingTable::with_capacity_and_hasher(64, Identity);
        for k in 0..32u32 {
            t.upsert_with(k, || k);
        }
        for k in 0..32u32 {
            assert_eq!(t.get(k), Some(&k));
        }
    }

    #[test]
    fn drain_is_complete() {
        let mut t: LinearProbingTable<u32> = LinearProbingTable::new();
        for k in 100..200u32 {
            t.upsert_with(k, || k);
        }
        let mut d = t.drain();
        d.sort_unstable();
        assert_eq!(d.len(), 100);
        assert_eq!(d[0], (100, 100));
        assert_eq!(d[99], (199, 199));
    }

    #[test]
    fn empty_and_boundary() {
        let mut t: LinearProbingTable<u8> = LinearProbingTable::new();
        assert!(t.is_empty());
        t.upsert_with(u32::MAX, || 1);
        t.upsert_with(0, || 2);
        assert_eq!(t.get(u32::MAX), Some(&1));
        assert_eq!(t.get(0), Some(&2));
    }
}
