//! Parallel grouping: thread-local aggregation over morsels, then a
//! deterministic merge.
//!
//! Every worker folds the morsels it executes into a thread-local
//! structure — the same *molecule* choice the serial engine makes
//! (chaining hash table for HG, dense SPH array for SPHG) — and the
//! partial states are merged once at the end. Correctness rests on the
//! aggregate being decomposable
//! ([`Aggregator::IS_DECOMPOSABLE`]): per-key partial states over a
//! disjoint row partition merge to the same final state regardless of how
//! work stealing split the morsels, so the output is **deterministic**
//! (and emitted in ascending key order) for any thread count.

use crate::morsel::{check_bounds, morsels_within, Morsel};
use crate::pool::ThreadPool;
use dqo_exec::aggregate::Aggregator;
use dqo_exec::grouping::{check_lengths, hg, GroupedResult};
use dqo_exec::pipeline::{Blocking, PipelineStats};
use dqo_exec::ExecError;
use std::collections::{BTreeMap, HashMap};

/// Which thread-local structure each worker aggregates into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupingStrategy {
    /// Chaining hash table per worker (parallel HG).
    Hash,
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
        GroupingStrategy::Hash => hash_strategy(pool, keys, values, agg, &ms)?,
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

/// Parallel HG: per morsel, run the serial chaining kernel (the molecule
/// the paper's HG names); fold its output into the worker's map; merge
/// worker maps into a sorted result.
fn hash_strategy<A: Aggregator>(
    pool: &ThreadPool,
    keys: &[u32],
    values: &[u32],
    agg: A,
    ms: &[Morsel],
) -> Result<GroupedResult<A::State>, ExecError> {
    let worker_maps = pool.fold_morsel_list(ms, HashMap::<u32, A::State>::new, |map, m| {
        let local = hg::hash_grouping_chaining(m.of(keys), m.of(values), agg, 64);
        for (k, s) in local.keys.into_iter().zip(local.states) {
            match map.entry(k) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    agg.merge(e.get_mut(), &s);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(s);
                }
            }
        }
    })?;
    let mut merged: BTreeMap<u32, A::State> = BTreeMap::new();
    for map in worker_maps {
        for (k, s) in map {
            match merged.entry(k) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    agg.merge(e.get_mut(), &s);
                }
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(s);
                }
            }
        }
    }
    let (keys_out, states): (Vec<u32>, Vec<A::State>) = merged.into_iter().unzip();
    Ok(GroupedResult {
        keys: keys_out,
        states,
        sorted_by_key: true,
    })
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
    use dqo_exec::grouping::{execute_grouping, GroupingAlgorithm, GroupingHints};

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
                GroupingStrategy::Hash,
                &[0, keys.len()],
                1024,
            )
            .unwrap();
            assert_eq!(r, serial, "threads={threads}");
            assert!(stats.breakers >= 2);
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
            GroupingStrategy::Hash,
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
                GroupingStrategy::Hash,
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
            GroupingStrategy::Hash,
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
                GroupingStrategy::Hash,
                &[0, keys.len()],
                256,
            )
            .unwrap();
            assert_eq!(again, first);
        }
    }
}
