//! # dqo-parallel — morsel-driven parallel execution for DQO
//!
//! The serial engine executes every plan on one thread, capping the
//! paper's molecule-level wins (SPHG/SPHJ, algorithmic views) at a single
//! core. This crate adds the missing parallel runtime in the
//! morsel-driven style (Leis et al., SIGMOD 2014), built for serving
//! many sessions at once:
//!
//! * [`morsel`] — cache-sized row ranges, the unit of parallel work, and
//!   the segment bounds every kernel takes (one segment per surviving
//!   partition range, or `[0, n]` for an input that is not partitioned),
//!   checked once by [`check_bounds`];
//! * [`persistent`] — the [`PersistentPool`]: long-lived workers parked
//!   on a condvar, a global injector plus per-worker deques that
//!   interleave jobs from multiple queries, batch handles with blocking
//!   join, panic capture, and graceful shutdown on drop;
//! * [`admission`] — the [`AdmissionController`]: bounded in-flight
//!   queries with a FIFO overflow queue and a per-query DOP clamp under
//!   load, so a shared pool degrades gracefully instead of
//!   oversubscribing;
//! * [`pool`] — the [`ThreadPool`] dispatch handle (a DOP plus a pool)
//!   with the morsel batch APIs; batch-internal scheduling is
//!   work-stealing over per-runner deques seeded with contiguous morsel
//!   blocks;
//! * [`grouping`] — parallel HG/SPHG: one thread-local table per worker
//!   of the serial molecules (the planned HG table/hash pair through the
//!   HG molecule dispatch serial HG shares, or the dense SPH array) and
//!   a deterministic sorted merge;
//! * [`join`] — the partitioned parallel hash join (parallel partition →
//!   per-partition build → parallel probe) and a parallel SPHJ probe;
//! * [`sort`] + [`merge_path`] — the parallel sort subsystem: per-worker
//!   run formation (pdqsort or LSB radix, the serial molecule decision)
//!   followed by a Merge Path multi-way merge whose per-worker output
//!   ranges are disjoint, contiguous and deterministic; parallel SOG
//!   (run aggregation with deterministic boundary stitching) and
//!   parallel SOJ (range-partitioned merge join) build on it, completing
//!   parallel coverage of the paper's sort-based operator family;
//! * [`select`] — parallel row materialisation: morsel-local
//!   mask → selection compaction concatenated in morsel order, and a
//!   range-partitioned gather into exact-size columns — the
//!   `Exchange`-dispatched Filter and the AV builds' sorted gathers;
//! * [`av_build`] — the partitioned bit-identical SPH-index CSR build,
//!   so `dqo-core` can materialise every AV kind through the shared
//!   pool.
//!
//! Everything is **deterministic by construction**: per-morsel outputs
//! are concatenated in morsel order and per-worker partials merge
//! through order-insensitive decomposable aggregates, so results are
//! identical across runs, thread counts, and admission-clamped DOPs.
//! Parallel operators return [`dqo_exec::pipeline::PipelineStats`] so
//! blocking behaviour stays measurable exactly as in the serial engine,
//! and every scheduling API returns `Result` — a worker panic is
//! captured and surfaced to the submitting query only.
//!
//! The optimiser decides *when* to parallelise: `dqo-core` extends the
//! Table 2 cost model with per-batch dispatch and merge terms (much
//! smaller than PR 1's per-spawn startup, now that workers are
//! persistent) and only wraps an operator in an `Exchange` plan node
//! when the input is large enough that the overhead pays for itself.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod admission;
pub mod av_build;
pub mod grouping;
pub mod join;
pub mod merge_path;
pub mod morsel;
pub mod persistent;
pub mod pool;
pub mod select;
pub mod sort;

pub use admission::{AdmissionController, AdmissionPermit};
pub use av_build::parallel_sph_index_build;
pub use grouping::{parallel_grouping, GroupingStrategy};
pub use join::{parallel_hash_join, parallel_sph_join};
pub use morsel::{check_bounds, morsels, morsels_within, Morsel, DEFAULT_MORSEL_ROWS};
pub use persistent::{default_threads, BatchHandle, PersistentPool};
pub use pool::{BatchObs, PoolError, ThreadPool};
pub use select::{parallel_filter, parallel_gather, parallel_select};
pub use sort::{
    parallel_argsort, parallel_sog, parallel_sort_index, parallel_sort_merge_join, RunSortMolecule,
};

#[cfg(test)]
mod tests {
    use super::*;
    use dqo_exec::aggregate::CountSum;
    use dqo_exec::ExecError;

    /// Every kernel that takes segment bounds rejects bounds that do not
    /// span its input, and accepts the full span and empty segments.
    #[test]
    fn every_kernel_checks_its_bounds() {
        let keys: Vec<u32> = (0..100u32).map(|i| i % 7).collect();
        let n = keys.len();
        let pool = ThreadPool::new(2);
        let m = RunSortMolecule::Comparison;
        let hash = GroupingStrategy::Hash(Default::default());
        let run = |b: &[usize]| -> Vec<Result<(), ExecError>> {
            vec![
                parallel_grouping(&pool, &keys, &keys, CountSum, hash, b, 16).map(drop),
                parallel_hash_join(&pool, &keys, &keys, b, 16).map(drop),
                parallel_sort_index(&pool, &keys, m, b).map(drop),
                parallel_argsort(&pool, &keys, m, b).map(drop),
                parallel_sog(&pool, &keys, &keys, CountSum, m, b).map(drop),
                parallel_sort_merge_join(&pool, &keys, &keys, m, b).map(drop),
                parallel_select(&pool, n, b, 16, |ms| Ok(vec![true; ms.len()])).map(drop),
            ]
        };
        for r in run(&[0, n / 2]) {
            assert_eq!(
                r,
                Err(ExecError::BadBounds {
                    rows: n,
                    bounds: vec![0, n / 2]
                })
            );
        }
        for ok in [vec![0, n], vec![0, 0, 30, 30, n, n]] {
            assert!(run(&ok).iter().all(Result::is_ok), "bounds {ok:?}");
        }
    }
}
