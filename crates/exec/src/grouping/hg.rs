//! Hash-based Grouping (HG) — §4.1.
//!
//! *"We use `std::unordered_map` as the underlying hash table and the
//! Murmur3 finaliser as hash function. Every input element is inserted
//! individually into the hash table."*
//!
//! [`hash_grouping_chaining`] reproduces that configuration via
//! `dqo-hashtable`'s chained table (per-node allocations ⇒ the cache-miss
//! growth visible in Figure 4). [`hash_grouping`] is generic over any
//! [`GroupTable`] so the DQO molecule ablation (E9) can swap the table
//! implementation and hash function without touching the operator.
//! [`with_hash_molecules`] maps the optimiser's table/hash decision
//! ([`GroupingMolecules`]) to one of those tables; serial HG, parallel HG
//! and the deep-plan interpreter all dispatch through it.

use crate::aggregate::Aggregator;
use crate::grouping::GroupedResult;
use dqo_hashtable::{
    ChainingTable, Fibonacci, GroupTable, Identity, LinearProbingTable, Murmur3Finalizer,
    RobinHoodTable,
};
pub use dqo_plan::physical::GroupingMolecules;
use dqo_plan::{HashFnMolecule, TableMolecule};

/// Hash grouping over any key→state table — the operator is one loop; the
/// *table* is the DQO decision.
pub fn hash_grouping<A, T>(
    keys: &[u32],
    values: &[u32],
    agg: A,
    mut table: T,
) -> GroupedResult<A::State>
where
    A: Aggregator,
    T: GroupTable<A::State>,
{
    for (&k, &v) in keys.iter().zip(values) {
        let state = table.upsert_with(k, A::State::default);
        agg.update(state, v);
    }
    let sorted = table.output_sorted();
    let pairs = table.drain();
    let mut keys_out = Vec::with_capacity(pairs.len());
    let mut states = Vec::with_capacity(pairs.len());
    for (k, s) in pairs {
        keys_out.push(k);
        states.push(s);
    }
    GroupedResult {
        keys: keys_out,
        states,
        sorted_by_key: sorted,
    }
}

/// The paper's HG: chaining table + Murmur3 finaliser, individual inserts.
pub fn hash_grouping_chaining<A: Aggregator>(
    keys: &[u32],
    values: &[u32],
    agg: A,
    capacity: usize,
) -> GroupedResult<A::State> {
    hash_grouping(keys, values, agg, ChainingTable::with_capacity(capacity))
}

/// Initial capacity of every molecule-dispatched HG table; tables grow
/// from there.
const HG_TABLE_CAPACITY: usize = 1024;

/// A computation over one concrete [`GroupTable`] type — what
/// [`with_hash_molecules`] hands the chosen table's constructor to.
pub trait WithGroupTable<V> {
    /// The computation's result.
    type Output;

    /// Run with `new_table`, which creates an empty table of the chosen
    /// molecules each time it is called.
    fn run<T: GroupTable<V> + Send>(self, new_table: impl Fn() -> T + Sync) -> Self::Output;
}

/// The one HG molecule dispatch: run `f` over the table/hash pair the
/// optimiser picked, so what EXPLAIN prints is what serial HG, parallel
/// HG (`dqo-parallel`) and the deep-plan interpreter all execute.
/// Combinations without a table or hash decision fall back to the
/// paper's chaining + Murmur3 default.
pub fn with_hash_molecules<V: Send, F: WithGroupTable<V>>(
    molecules: GroupingMolecules,
    f: F,
) -> F::Output {
    use HashFnMolecule as H;
    use TableMolecule as T;
    let cap = HG_TABLE_CAPACITY;
    match (molecules.table, molecules.hash) {
        (Some(T::LinearProbing), Some(H::Identity)) => {
            f.run(|| LinearProbingTable::with_capacity_and_hasher(cap, Identity))
        }
        (Some(T::LinearProbing), Some(H::Fibonacci)) => {
            f.run(|| LinearProbingTable::with_capacity_and_hasher(cap, Fibonacci))
        }
        (Some(T::LinearProbing), Some(H::Murmur3)) => {
            f.run(|| LinearProbingTable::with_capacity_and_hasher(cap, Murmur3Finalizer))
        }
        (Some(T::RobinHood), Some(H::Identity)) => {
            f.run(|| RobinHoodTable::with_capacity_and_hasher(cap, Identity))
        }
        (Some(T::RobinHood), Some(H::Fibonacci)) => {
            f.run(|| RobinHoodTable::with_capacity_and_hasher(cap, Fibonacci))
        }
        (Some(T::RobinHood), Some(H::Murmur3)) => {
            f.run(|| RobinHoodTable::with_capacity_and_hasher(cap, Murmur3Finalizer))
        }
        (Some(T::Chaining), Some(H::Identity)) => {
            f.run(|| ChainingTable::with_capacity_and_hasher(cap, Identity))
        }
        (Some(T::Chaining), Some(H::Fibonacci)) => {
            f.run(|| ChainingTable::with_capacity_and_hasher(cap, Fibonacci))
        }
        _ => f.run(|| ChainingTable::with_capacity_and_hasher(cap, Murmur3Finalizer)),
    }
}

/// Serial HG on the given molecules: one table, every row upserted in
/// input order. The output order is the table's drain order (unsorted).
pub fn hash_grouping_with_molecules<A: Aggregator>(
    keys: &[u32],
    values: &[u32],
    agg: A,
    molecules: GroupingMolecules,
) -> GroupedResult<A::State> {
    struct Serial<'a, A> {
        keys: &'a [u32],
        values: &'a [u32],
        agg: A,
    }
    impl<A: Aggregator> WithGroupTable<A::State> for Serial<'_, A> {
        type Output = GroupedResult<A::State>;
        fn run<T: GroupTable<A::State> + Send>(
            self,
            new_table: impl Fn() -> T + Sync,
        ) -> Self::Output {
            hash_grouping(self.keys, self.values, self.agg, new_table())
        }
    }
    with_hash_molecules(molecules, Serial { keys, values, agg })
}

/// The paper's default molecule for HG, re-exported for plan rendering.
pub type DefaultHash = Murmur3Finalizer;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{CountSum, FullAgg};
    use dqo_hashtable::QuadraticProbingTable;

    fn sorted_triples(r: GroupedResult<crate::aggregate::CountSumState>) -> Vec<(u32, u64, u64)> {
        let mut r = r;
        r.sort_by_key();
        r.keys
            .iter()
            .zip(&r.states)
            .map(|(&k, s)| (k, s.count, s.sum))
            .collect()
    }

    #[test]
    fn counts_and_sums() {
        let keys = [5u32, 3, 5, 5, 3];
        let vals = [10u32, 20, 30, 40, 50];
        let r = hash_grouping_chaining(&keys, &vals, CountSum, 4);
        assert_eq!(sorted_triples(r), vec![(3, 2, 70), (5, 3, 80)]);
    }

    #[test]
    fn output_not_claimed_sorted() {
        let r = hash_grouping_chaining(&[2u32, 1], &[0, 0], CountSum, 2);
        assert!(!r.sorted_by_key);
    }

    #[test]
    fn empty_input() {
        let r = hash_grouping_chaining(&[], &[], CountSum, 0);
        assert!(r.is_empty());
    }

    #[test]
    fn single_group_many_rows() {
        let keys = vec![7u32; 10_000];
        let vals = vec![1u32; 10_000];
        let r = hash_grouping_chaining(&keys, &vals, CountSum, 1);
        assert_eq!(r.len(), 1);
        assert_eq!(r.states[0].count, 10_000);
        assert_eq!(r.states[0].sum, 10_000);
    }

    #[test]
    fn table_variants_agree() {
        let keys: Vec<u32> = (0..5_000).map(|i| (i * 7919) % 257).collect();
        let vals: Vec<u32> = (0..5_000).map(|i| i % 100).collect();
        let a = sorted_triples(hash_grouping_chaining(&keys, &vals, CountSum, 257));
        let b = sorted_triples(hash_grouping(
            &keys,
            &vals,
            CountSum,
            LinearProbingTable::with_capacity_and_hasher(257, Murmur3Finalizer),
        ));
        let c = sorted_triples(hash_grouping(
            &keys,
            &vals,
            CountSum,
            RobinHoodTable::with_capacity_and_hasher(257, Fibonacci),
        ));
        let d = sorted_triples(hash_grouping(
            &keys,
            &vals,
            CountSum,
            QuadraticProbingTable::with_capacity_and_hasher(257, Murmur3Finalizer),
        ));
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a, d);
    }

    #[test]
    fn every_molecule_dispatch_agrees_with_the_paper_hg() {
        let keys: Vec<u32> = (0..5_000u32).map(|i| (i % 3_001) << 12).collect();
        let vals: Vec<u32> = (0..5_000).map(|i| i % 100).collect();
        let paper = sorted_triples(hash_grouping_chaining(&keys, &vals, CountSum, 16));
        for table in [
            TableMolecule::LinearProbing,
            TableMolecule::RobinHood,
            TableMolecule::Chaining,
        ] {
            for hash in [
                None,
                Some(HashFnMolecule::Identity),
                Some(HashFnMolecule::Fibonacci),
                Some(HashFnMolecule::Murmur3),
            ] {
                let molecules = GroupingMolecules {
                    table: Some(table),
                    hash,
                    load_loop: None,
                };
                let r = hash_grouping_with_molecules(&keys, &vals, CountSum, molecules);
                assert_eq!(sorted_triples(r), paper, "{molecules:?}");
            }
        }
    }

    #[test]
    fn full_aggregate_via_hg() {
        let keys = [1u32, 1, 2];
        let vals = [4u32, 6, 9];
        let mut r = hash_grouping_chaining(&keys, &vals, FullAgg, 2);
        r.sort_by_key();
        let s1 = &r.states[0];
        assert_eq!((s1.count, s1.sum, s1.min, s1.max), (2, 10, 4, 6));
        assert_eq!(s1.avg(), Some(5.0));
    }
}
