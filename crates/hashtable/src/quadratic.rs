//! Open-addressing hash table with quadratic probing.
//!
//! Probes at triangular-number offsets (`h, h+1, h+3, h+6, …`), which
//! visits every slot of a power-of-two table exactly once and breaks up
//! the primary clustering that linear probing suffers under weak hash
//! functions — yet another point in Richter et al.'s \[17\] molecule
//! space, between linear probing's locality and Robin-Hood's variance
//! bounds.

use crate::hash_fn::{HashFn, Murmur3Finalizer};
use crate::table::GroupTable;

/// Quadratic-probing table from `u32` keys to `V`.
pub struct QuadraticProbingTable<V, H: HashFn = Murmur3Finalizer> {
    slots: Vec<Option<(u32, V)>>,
    len: usize,
    hash: H,
    max_load: f32,
}

impl<V> QuadraticProbingTable<V, Murmur3Finalizer> {
    /// A table with default capacity and the Murmur3 finaliser.
    pub fn new() -> Self {
        Self::with_capacity_and_hasher(16, Murmur3Finalizer)
    }

    /// Pre-size for an expected number of distinct keys.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_hasher(capacity, Murmur3Finalizer)
    }
}

impl<V> Default for QuadraticProbingTable<V, Murmur3Finalizer> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V, H: HashFn> QuadraticProbingTable<V, H> {
    /// A table with a chosen hash function.
    pub fn with_capacity_and_hasher(capacity: usize, hash: H) -> Self {
        let slots = ((capacity as f32 / 0.7) as usize)
            .next_power_of_two()
            .max(16);
        QuadraticProbingTable {
            slots: (0..slots).map(|_| None).collect(),
            len: 0,
            hash,
            max_load: 0.7,
        }
    }

    /// Slot of `key`, or the empty slot where it belongs. Triangular
    /// probing over a power-of-two table is a complete cycle, so with the
    /// load factor < 1 this always terminates.
    #[inline(always)]
    fn probe(&self, key: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.hash.slot(key, mask);
        let mut step = 0usize;
        loop {
            match &self.slots[i] {
                Some((k, _)) if *k == key => return i,
                Some(_) => {
                    step += 1;
                    i = (i + step) & mask; // offsets 1, 3, 6, 10, … (triangular)
                }
                None => return i,
            }
        }
    }

    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, (0..new_cap).map(|_| None).collect());
        let prior_len = self.len;
        for (k, v) in old.into_iter().flatten() {
            let i = self.probe(k);
            debug_assert!(self.slots[i].is_none());
            self.slots[i] = Some((k, v));
        }
        self.len = prior_len;
    }
}

impl<V, H: HashFn> GroupTable<V> for QuadraticProbingTable<V, H> {
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
        let mut t: QuadraticProbingTable<u64> = QuadraticProbingTable::new();
        for k in [3u32, 3, 9, 3, 11] {
            *t.upsert_with(k, || 0) += 1;
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(3), Some(&3));
        assert_eq!(t.get(9), Some(&1));
        assert_eq!(t.get(11), Some(&1));
        assert_eq!(t.get(4), None);
    }

    #[test]
    fn triangular_probing_breaks_identity_clusters() {
        // Consecutive keys with identity hash: linear probing would form
        // one long run; quadratic scatters collisions.
        let mut t: QuadraticProbingTable<u32, Identity> =
            QuadraticProbingTable::with_capacity_and_hasher(64, Identity);
        for k in 0..40u32 {
            t.upsert_with(k, || k * 2);
        }
        for k in 0..40u32 {
            assert_eq!(t.get(k), Some(&(k * 2)));
        }
    }

    #[test]
    fn growth_preserves_entries() {
        let mut t: QuadraticProbingTable<u32> = QuadraticProbingTable::with_capacity(4);
        for k in 0..4_000u32 {
            t.upsert_with(k, || k + 7);
        }
        assert_eq!(t.len(), 4_000);
        for k in (0..4_000u32).step_by(211) {
            assert_eq!(t.get(k), Some(&(k + 7)));
        }
    }

    #[test]
    fn heavy_collisions_same_home_bucket() {
        // All keys map to bucket 0 under identity & mask-16 alignment.
        let mut t: QuadraticProbingTable<u32, Identity> =
            QuadraticProbingTable::with_capacity_and_hasher(16, Identity);
        let keys: Vec<u32> = (0..10).map(|i| i * 1024).collect();
        for (n, &k) in keys.iter().enumerate() {
            t.upsert_with(k, || n as u32);
        }
        for (n, &k) in keys.iter().enumerate() {
            assert_eq!(t.get(k), Some(&(n as u32)));
        }
    }

    #[test]
    fn drain_and_empty() {
        let t: QuadraticProbingTable<u8> = QuadraticProbingTable::new();
        assert!(t.is_empty());
        let mut t: QuadraticProbingTable<u8> = QuadraticProbingTable::new();
        t.upsert_with(1, || 1);
        t.upsert_with(2, || 2);
        let mut d = t.drain();
        d.sort_unstable();
        assert_eq!(d, vec![(1, 1), (2, 2)]);
    }
}
