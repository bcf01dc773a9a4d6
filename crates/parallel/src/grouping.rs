//! Parallel grouping: thread-local aggregation over morsels, then a
//! deterministic merge.
//!
//! Every worker folds the morsels it executes into one thread-local
//! structure — the same *molecule* the serial engine runs: for HG the
//! table/hash pair the optimiser chose ([`GroupingMolecules`], dispatched
//! by `dqo-exec`'s [`with_hash_molecules`], which serial HG shares), for
//! SPHG the dense SPH array — and the partial states are merged once at
//! the end.
//! Correctness rests on the aggregate being decomposable
//! ([`Aggregator::IS_DECOMPOSABLE`]): per-key partial states over a
//! disjoint row partition merge to the same final state regardless of how
//! work stealing split the morsels, so the output is **deterministic**
//! (and emitted in ascending key order) for any thread count.

use crate::morsel::{check_bounds, morsels_within, Morsel};
use crate::pool::ThreadPool;
use dqo_exec::aggregate::Aggregator;
use dqo_exec::grouping::hg::{with_hash_molecules, GroupingMolecules, WithGroupTable};
use dqo_exec::grouping::{check_lengths, GroupedResult};
use dqo_exec::pipeline::{Blocking, PipelineStats};
use dqo_exec::sort::radix_sort_pairs_by_key;
use dqo_exec::ExecError;
use dqo_hashtable::GroupTable;

/// Which thread-local structure each worker aggregates into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupingStrategy {
    /// One hash table per worker, of the table/hash molecules given
    /// (parallel HG); see [`with_hash_molecules`].
    Hash(GroupingMolecules),
    /// Dense array indexed by `key - min` per worker (parallel SPHG);
    /// requires the dense domain `[min, max]`.
    StaticPerfectHash {
        /// Smallest key of the dense domain.
        min: u32,
        /// Largest key of the dense domain.
        max: u32,
    },
}

/// Parallel grouping of `keys`/`values` under `agg`.
///
/// Morsels are cut within the segment `bounds` (see
/// [`crate::morsel::morsels_within`]), so no work unit mixes rows from
/// two partitions; an input that is not partitioned passes
/// `[0, keys.len()]`. Because the aggregate is decomposable and the merge
/// is key-ordered, the result is bit-identical for any valid bounds —
/// the segmentation only changes which rows travel together. Bounds that
/// do not span `0..keys.len()` are an [`ExecError::BadBounds`].
///
/// Returns the grouped result (ascending key order, [`GroupedResult::sorted_by_key`]
/// set) plus the pipeline accounting: the input pass is a full breaker
/// exactly like serial HG/SPHG, and the merge of per-worker partials is a
/// second breaker accounted at the merged group count.
pub fn parallel_grouping<A: Aggregator>(
    pool: &ThreadPool,
    keys: &[u32],
    values: &[u32],
    agg: A,
    strategy: GroupingStrategy,
    bounds: &[usize],
    morsel_rows: usize,
) -> Result<(GroupedResult<A::State>, PipelineStats), ExecError> {
    assert!(
        A::IS_DECOMPOSABLE,
        "parallel grouping requires a decomposable aggregate"
    );
    check_lengths(keys, values)?;
    check_bounds(bounds, keys.len())?;
    let ms = morsels_within(bounds, morsel_rows);
    let mut stats = PipelineStats::default();
    stats.record(Blocking::FullBreaker, keys.len() as u64);
    let result = match strategy {
        GroupingStrategy::Hash(molecules) => with_hash_molecules(
            molecules,
            PerWorkerTables {
                pool,
                keys,
                values,
                agg,
                ms: &ms,
            },
        )?,
        GroupingStrategy::StaticPerfectHash { min, max } => {
            sph_strategy(pool, keys, values, agg, min, max, &ms)?
        }
    };
    // The merge pass is a second breaker. It is accounted at the merged
    // group count (not the per-worker partial count, which depends on
    // the nondeterministic work-stealing split) so the stats honour the
    // same determinism contract as the results.
    stats.record(Blocking::FullBreaker, result.len() as u64);
    Ok((result, stats))
}

/// Parallel HG: each worker creates one table of the chosen molecules
/// and upserts the rows of every morsel it runs straight into it; the
/// drained worker partials are sorted by key once and adjacent equal
/// keys fold with [`Aggregator::merge`], giving ascending output. The
/// merge is exact and order-insensitive (decomposable aggregates), so
/// the output does not depend on how morsels were split or stolen.
struct PerWorkerTables<'a, A> {
    pool: &'a ThreadPool,
    keys: &'a [u32],
    values: &'a [u32],
    agg: A,
    ms: &'a [Morsel],
}

impl<A: Aggregator> WithGroupTable<A::State> for PerWorkerTables<'_, A> {
    type Output = Result<GroupedResult<A::State>, ExecError>;

    fn run<T: GroupTable<A::State> + Send>(self, new_table: impl Fn() -> T + Sync) -> Self::Output {
        let PerWorkerTables {
            pool,
            keys,
            values,
            agg,
            ms,
        } = self;
        let tables = pool.fold_morsel_list(ms, new_table, |table, m| {
            for (&k, &v) in m.of(keys).iter().zip(m.of(values)) {
                agg.update(table.upsert_with(k, A::State::default), v);
            }
        })?;
        let mut tables = tables.into_iter();
        let mut pairs = tables.next().map_or_else(Vec::new, GroupTable::drain);
        for table in tables {
            pairs.extend(table.drain());
        }
        // Sort (key, position) once — an LSB radix sort over four key
        // bytes at most, cheaper than moving the states — then move each
        // state out in key order.
        let mut order: Vec<(u32, u32)> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(k, _))| (k, u32::try_from(i).expect("at most one partial per row")))
            .collect();
        radix_sort_pairs_by_key(&mut order);
        let mut keys_out: Vec<u32> = Vec::with_capacity(order.len());
        let mut states: Vec<A::State> = Vec::with_capacity(order.len());
        for (k, i) in order {
            let s = std::mem::take(&mut pairs[i as usize].1);
            if keys_out.last() == Some(&k) {
                agg.merge(states.last_mut().expect("one state per key"), &s);
            } else {
                keys_out.push(k);
                states.push(s);
            }
        }
        Ok(GroupedResult {
            keys: keys_out,
            states,
            sorted_by_key: true,
        })
    }
}

/// Per-worker SPH state: the dense aggregate array plus occupancy.
struct SphPartial<S> {
    slots: Vec<S>,
    occupied: Vec<bool>,
    out_of_domain: Option<u32>,
}

/// Parallel SPHG: each worker owns a dense `[min, max]` array — the same
/// static-perfect-hash molecule as serial SPHG — and arrays merge
/// element-wise. Output order is the array order: ascending keys.
fn sph_strategy<A: Aggregator>(
    pool: &ThreadPool,
    keys: &[u32],
    values: &[u32],
    agg: A,
    min: u32,
    max: u32,
    ms: &[Morsel],
) -> Result<GroupedResult<A::State>, ExecError> {
    if max < min {
        return Err(ExecError::PreconditionViolated {
            algorithm: "parallel SPHG",
            detail: format!("empty domain: max ({max}) < min ({min})"),
        });
    }
    let domain = (u64::from(max) - u64::from(min) + 1) as usize;
    let partials = pool.fold_morsel_list(
        ms,
        || SphPartial {
            slots: vec![A::State::default(); domain],
            occupied: vec![false; domain],
            out_of_domain: None,
        },
        |p, m| {
            for (&k, &v) in m.of(keys).iter().zip(m.of(values)) {
                match k.checked_sub(min) {
                    Some(off) if (off as usize) < domain => {
                        p.occupied[off as usize] = true;
                        agg.update(&mut p.slots[off as usize], v);
                    }
                    _ => p.out_of_domain = Some(k),
                }
            }
        },
    )?;
    if let Some(k) = partials.iter().find_map(|p| p.out_of_domain) {
        return Err(ExecError::PreconditionViolated {
            algorithm: "parallel SPHG",
            detail: format!("key {k} outside dense domain [{min}, {max}]"),
        });
    }
    let mut slots: Vec<A::State> = vec![A::State::default(); domain];
    let mut occupied = vec![false; domain];
    for p in partials {
        for (off, seen) in p.occupied.into_iter().enumerate() {
            if seen {
                occupied[off] = true;
                agg.merge(&mut slots[off], &p.slots[off]);
            }
        }
    }
    let mut keys_out = Vec::new();
    let mut states = Vec::new();
    for (off, state) in slots.into_iter().enumerate() {
        if occupied[off] {
            keys_out.push(min + off as u32);
            states.push(state);
        }
    }
    Ok(GroupedResult {
        keys: keys_out,
        states,
        sorted_by_key: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morsel::DEFAULT_MORSEL_ROWS;
    use dqo_exec::aggregate::CountSum;
    use dqo_exec::grouping::hg::hash_grouping_with_molecules;
    use dqo_exec::grouping::{execute_grouping, GroupingAlgorithm, GroupingHints};
    use dqo_plan::{HashFnMolecule, TableMolecule};

    fn dataset(n: usize, groups: u32) -> (Vec<u32>, Vec<u32>) {
        let keys: Vec<u32> = (0..n)
            .map(|i| (i as u32).wrapping_mul(2_654_435_761) % groups)
            .collect();
        let vals: Vec<u32> = (0..n).map(|i| (i % 1000) as u32).collect();
        (keys, vals)
    }

    fn serial_sorted(
        keys: &[u32],
        vals: &[u32],
    ) -> GroupedResult<dqo_exec::aggregate::CountSumState> {
        let mut r = execute_grouping(
            GroupingAlgorithm::HashBased,
            keys,
            vals,
            CountSum,
            &GroupingHints::default(),
        )
        .unwrap();
        r.sort_by_key();
        r
    }

    #[test]
    fn hash_matches_serial_across_thread_counts() {
        let (keys, vals) = dataset(50_000, 97);
        let serial = serial_sorted(&keys, &vals);
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            let (r, stats) = parallel_grouping(
                &pool,
                &keys,
                &vals,
                CountSum,
                GroupingStrategy::Hash(GroupingMolecules::default()),
                &[0, keys.len()],
                1024,
            )
            .unwrap();
            assert_eq!(r, serial, "threads={threads}");
            assert!(stats.breakers >= 2);
        }
    }

    /// Every table/hash molecule the optimiser can emit, plus the
    /// undecided default.
    fn hg_molecules() -> Vec<GroupingMolecules> {
        let mut all = vec![GroupingMolecules::default()];
        for table in [
            TableMolecule::LinearProbing,
            TableMolecule::RobinHood,
            TableMolecule::Chaining,
        ] {
            for hash in [
                HashFnMolecule::Identity,
                HashFnMolecule::Fibonacci,
                HashFnMolecule::Murmur3,
            ] {
                all.push(GroupingMolecules {
                    table: Some(table),
                    hash: Some(hash),
                    load_loop: None,
                });
            }
        }
        all
    }

    #[test]
    fn hash_strategy_equals_the_shared_serial_dispatch_for_every_molecule() {
        // Keys spread over u32 with thousands of groups, so every table
        // grows past its initial capacity and probes collide.
        let keys: Vec<u32> = (0..40_000u32)
            .map(|i| (i % 5_003).wrapping_mul(2_654_435_761))
            .collect();
        let vals: Vec<u32> = (0..40_000u32).map(|i| i % 1000).collect();
        let pool = ThreadPool::new(2);
        for molecules in hg_molecules() {
            let mut serial = hash_grouping_with_molecules(&keys, &vals, CountSum, molecules);
            assert_eq!(serial.len(), 5_003);
            serial.sort_by_key();
            let (par, _) = parallel_grouping(
                &pool,
                &keys,
                &vals,
                CountSum,
                GroupingStrategy::Hash(molecules),
                &[0, keys.len()],
                1024,
            )
            .unwrap();
            assert_eq!(par, serial, "{molecules:?}");
        }
    }

    #[test]
    fn sph_matches_serial_and_is_sorted() {
        let (keys, vals) = dataset(30_000, 64);
        let serial = serial_sorted(&keys, &vals);
        let pool = ThreadPool::new(4);
        let (r, _) = parallel_grouping(
            &pool,
            &keys,
            &vals,
            CountSum,
            GroupingStrategy::StaticPerfectHash { min: 0, max: 63 },
            &[0, keys.len()],
            512,
        )
        .unwrap();
        assert!(r.sorted_by_key);
        assert_eq!(r, serial);
    }

    #[test]
    fn sph_rejects_out_of_domain_keys() {
        let pool = ThreadPool::new(2);
        let r = parallel_grouping(
            &pool,
            &[1, 2, 99],
            &[0, 0, 0],
            CountSum,
            GroupingStrategy::StaticPerfectHash { min: 0, max: 7 },
            &[0, 3],
            DEFAULT_MORSEL_ROWS,
        );
        assert!(matches!(r, Err(ExecError::PreconditionViolated { .. })));
    }

    #[test]
    fn empty_input() {
        let pool = ThreadPool::new(4);
        let (r, stats) = parallel_grouping(
            &pool,
            &[],
            &[],
            CountSum,
            GroupingStrategy::Hash(GroupingMolecules::default()),
            &[0, 0],
            64,
        )
        .unwrap();
        assert!(r.is_empty());
        assert!(r.sorted_by_key);
        assert_eq!(stats.materialised_rows, 0);
    }

    #[test]
    fn length_mismatch_is_an_error() {
        let pool = ThreadPool::new(2);
        assert!(matches!(
            parallel_grouping(
                &pool,
                &[1, 2],
                &[1],
                CountSum,
                GroupingStrategy::Hash(GroupingMolecules::default()),
                &[0, 2],
                64
            ),
            Err(ExecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn repeated_runs_are_identical() {
        let (keys, vals) = dataset(20_000, 31);
        let pool = ThreadPool::new(8);
        let (first, _) = parallel_grouping(
            &pool,
            &keys,
            &vals,
            CountSum,
            GroupingStrategy::Hash(GroupingMolecules::default()),
            &[0, keys.len()],
            256,
        )
        .unwrap();
        for _ in 0..5 {
            let (again, _) = parallel_grouping(
                &pool,
                &keys,
                &vals,
                CountSum,
                GroupingStrategy::Hash(GroupingMolecules::default()),
                &[0, keys.len()],
                256,
            )
            .unwrap();
            assert_eq!(again, first);
        }
    }
}
