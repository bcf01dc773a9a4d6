//! Open-addressing hash table with Robin-Hood displacement.
//!
//! Robin-Hood hashing bounds probe-length variance by stealing slots from
//! "richer" entries (those closer to their home bucket). It is one of the
//! seven dimensions of Richter et al. \[17\] the paper cites as dramatically
//! affecting performance — i.e. a molecule-level DQO alternative.

use crate::hash_fn::{HashFn, Murmur3Finalizer};
use crate::table::GroupTable;

struct Entry<V> {
    key: u32,
    value: V,
    /// Distance from the home bucket (DIB — distance to initial bucket).
    dib: u32,
}

/// Robin-Hood table from `u32` keys to `V`.
pub struct RobinHoodTable<V, H: HashFn = Murmur3Finalizer> {
    slots: Vec<Option<Entry<V>>>,
    len: usize,
    hash: H,
    max_load: f32,
}

impl<V> RobinHoodTable<V, Murmur3Finalizer> {
    /// A table with default capacity and the Murmur3 finaliser.
    pub fn new() -> Self {
        Self::with_capacity_and_hasher(16, Murmur3Finalizer)
    }

    /// Pre-size for an expected number of distinct keys.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_hasher(capacity, Murmur3Finalizer)
    }
}

impl<V> Default for RobinHoodTable<V, Murmur3Finalizer> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V, H: HashFn> RobinHoodTable<V, H> {
    /// A table with a chosen hash function.
    pub fn with_capacity_and_hasher(capacity: usize, hash: H) -> Self {
        let slots = ((capacity as f32 / 0.8) as usize)
            .next_power_of_two()
            .max(16);
        RobinHoodTable {
            slots: (0..slots).map(|_| None).collect(),
            len: 0,
            hash,
            max_load: 0.8,
        }
    }

    #[inline(always)]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    fn find(&self, key: u32) -> Option<usize> {
        let mask = self.mask();
        let mut i = self.hash.slot(key, mask);
        let mut dib = 0u32;
        loop {
            match &self.slots[i] {
                Some(e) if e.key == key => return Some(i),
                // Robin-Hood invariant: if we've probed further than the
                // occupant's DIB, the key cannot be in the table.
                Some(e) if e.dib < dib => return None,
                Some(_) => {
                    i = (i + 1) & mask;
                    dib += 1;
                }
                None => return None,
            }
        }
    }

    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, (0..new_cap).map(|_| None).collect());
        self.len = 0;
        for e in old.into_iter().flatten() {
            self.insert_entry(e.key, e.value);
        }
    }

    /// Insert a key known to be absent; returns its final slot index.
    fn insert_entry(&mut self, key: u32, value: V) -> usize {
        let mask = self.mask();
        let mut carry = Entry { key, value, dib: 0 };
        let mut i = self.hash.slot(carry.key, mask);
        let mut our_slot: Option<usize> = None;
        let our_key = key;
        loop {
            match &mut self.slots[i] {
                empty @ None => {
                    let is_ours = carry.key == our_key;
                    *empty = Some(carry);
                    self.len += 1;
                    let idx = i;
                    return if is_ours {
                        idx
                    } else {
                        our_slot.expect("our key was placed before the final displacement")
                    };
                }
                Some(occupant) => {
                    if occupant.dib < carry.dib {
                        // Steal from the rich: swap and keep inserting the
                        // displaced occupant.
                        std::mem::swap(occupant, &mut carry);
                        if occupant.key == our_key {
                            our_slot = Some(i);
                        }
                    }
                    carry.dib += 1;
                    i = (i + 1) & mask;
                }
            }
        }
    }
}

impl<V, H: HashFn> GroupTable<V> for RobinHoodTable<V, H> {
    fn upsert_with(&mut self, key: u32, init: impl FnOnce() -> V) -> &mut V {
        if let Some(i) = self.find(key) {
            return &mut self.slots[i].as_mut().expect("found").value;
        }
        if (self.len + 1) as f32 > self.slots.len() as f32 * self.max_load {
            self.grow();
        }
        let i = self.insert_entry(key, init());
        &mut self.slots[i].as_mut().expect("just inserted").value
    }

    fn get(&self, key: u32) -> Option<&V> {
        self.find(key)
            .map(|i| &self.slots[i].as_ref().expect("found").value)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn drain(self) -> Vec<(u32, V)> {
        self.slots
            .into_iter()
            .flatten()
            .map(|e| (e.key, e.value))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_fn::Identity;

    #[test]
    fn upsert_and_get() {
        let mut t: RobinHoodTable<u64> = RobinHoodTable::new();
        for k in [5u32, 5, 6, 5, 7] {
            *t.upsert_with(k, || 0) += 1;
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(5), Some(&3));
        assert_eq!(t.get(6), Some(&1));
        assert_eq!(t.get(7), Some(&1));
        assert_eq!(t.get(4), None);
    }

    #[test]
    fn displacement_with_identity_collisions() {
        // All keys hash to nearby buckets → lots of displacement.
        let mut t: RobinHoodTable<u32, Identity> =
            RobinHoodTable::with_capacity_and_hasher(64, Identity);
        let keys: Vec<u32> = (0..40).map(|i| i * 64).collect(); // same home bucket
        for (n, &k) in keys.iter().enumerate() {
            t.upsert_with(k, || n as u32);
        }
        for (n, &k) in keys.iter().enumerate() {
            assert_eq!(t.get(k), Some(&(n as u32)), "key {k}");
        }
        assert_eq!(t.len(), 40);
    }

    #[test]
    fn upsert_returns_stable_reference_after_displacement() {
        let mut t: RobinHoodTable<u32, Identity> =
            RobinHoodTable::with_capacity_and_hasher(64, Identity);
        // Fill a cluster, then insert a key whose placement displaces others.
        for k in [0u32, 64, 128, 192] {
            t.upsert_with(k, || k);
        }
        let v = t.upsert_with(256, || 999);
        assert_eq!(*v, 999);
        *v = 1000;
        assert_eq!(t.get(256), Some(&1000));
        // Displaced keys still reachable.
        for k in [0u32, 64, 128, 192] {
            assert_eq!(t.get(k), Some(&k));
        }
    }

    #[test]
    fn growth_preserves_entries() {
        let mut t: RobinHoodTable<u32> = RobinHoodTable::with_capacity(4);
        for k in 0..3_000u32 {
            t.upsert_with(k, || k ^ 0xFF);
        }
        assert_eq!(t.len(), 3_000);
        for k in (0..3_000u32).step_by(101) {
            assert_eq!(t.get(k), Some(&(k ^ 0xFF)));
        }
    }

    #[test]
    fn early_termination_miss() {
        let mut t: RobinHoodTable<u32, Identity> =
            RobinHoodTable::with_capacity_and_hasher(64, Identity);
        t.upsert_with(0, || 1);
        t.upsert_with(64, || 2); // displaced to dib 1
                                 // Key 1's home is bucket 1 (occupied by key 64 at dib 1);
                                 // probing for 1 at dib 0 < occupant dib 1 → keep probing; next is
                                 // empty → miss. Either way: None.
        assert_eq!(t.get(1), None);
    }

    #[test]
    fn drain_complete() {
        let mut t: RobinHoodTable<u32> = RobinHoodTable::new();
        for k in 0..100u32 {
            t.upsert_with(k, || k);
        }
        let mut d = t.drain();
        d.sort_unstable();
        assert_eq!(d, (0..100u32).map(|k| (k, k)).collect::<Vec<_>>());
    }
}
