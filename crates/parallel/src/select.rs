//! Parallel row materialisation: the morsel-parallel twins of the storage
//! selection kernel ([`dqo_storage::select`]) and gather
//! ([`Relation::gather`]).
//!
//! * [`parallel_select`] — every morsel evaluates and counts its
//!   predicate mask in parallel; each mask is then compacted into its own
//!   slice, in morsel order, of one exact-size selection of global row
//!   ids, so the result equals the serial selection at any DOP or steal
//!   order.
//! * [`parallel_gather`] — a range-partitioned [`Relation::gather`]: the
//!   selection splits into one contiguous chunk per worker, and every
//!   chunk writes its rows into its own disjoint slice of an exact-size
//!   output column. The result equals the serial gather column for
//!   column, dictionaries included.
//! * [`parallel_filter`] — the two composed: the `Exchange`-dispatched
//!   Filter.

use crate::morsel::{check_bounds, morsels_within, Morsel};
use crate::pool::{PoolError, ThreadPool};
use dqo_exec::ExecError;
use dqo_storage::{count_selected, select_into, Column, Relation, StorageError};
use std::sync::{Arc, Mutex};

/// Smallest gather chunk worth a dedicated task.
pub const MIN_GATHER_CHUNK_ROWS: usize = 1 << 12;

/// The selection of the rows of an input of `rows` rows whose mask bit is
/// set, with `mask_of` evaluating the mask of one morsel (`mask[i]` is row
/// `morsel.start + i`). Morsels are cut from the segment `bounds`, which
/// must span `rows`.
///
/// Every morsel task evaluates and counts its mask in parallel. The counts
/// size one exact selection, and each mask is compacted with
/// [`select_into`] straight into its slice, in morsel order — no
/// morsel-local selection is allocated or concatenated, and the result
/// equals the serial [`dqo_storage::select`] at any DOP or steal order.
pub fn parallel_select<E, F>(
    pool: &ThreadPool,
    rows: usize,
    bounds: &[usize],
    morsel_rows: usize,
    mask_of: F,
) -> Result<Vec<u32>, E>
where
    E: From<ExecError> + Send,
    F: Fn(Morsel) -> Result<Vec<bool>, E> + Sync,
{
    check_bounds(bounds, rows)?;
    let ms = morsels_within(bounds, morsel_rows);
    let masks = pool
        .map_morsel_list(&ms, |m| {
            let mask = mask_of(m)?;
            if mask.len() != m.len() {
                let err = StorageError::ColumnLengthMismatch {
                    expected: m.len(),
                    found: mask.len(),
                };
                return Err(E::from(ExecError::from(err)));
            }
            let hits = count_selected(&mask);
            Ok((mask, hits))
        })
        .map_err(ExecError::from)?
        .into_iter()
        .collect::<Result<Vec<_>, E>>()?;
    let mut sel = vec![0; masks.iter().map(|(_, hits)| hits).sum()];
    let mut rest = sel.as_mut_slice();
    for ((mask, hits), m) in masks.iter().zip(&ms) {
        let (slot, tail) = std::mem::take(&mut rest).split_at_mut(*hits);
        select_into(mask, m.start as u32, slot);
        rest = tail;
    }
    Ok(sel)
}

/// Gather `sel` out of `rel` on the pool — equal to the serial
/// [`Relation::gather`] column for column (dictionaries included).
///
/// The selection splits into contiguous chunks; per column, each chunk
/// task writes its rows into its own slice of the exact-size output, so
/// the output is deterministic for any DOP or steal order and never
/// copied twice.
pub fn parallel_gather(
    pool: &ThreadPool,
    rel: &Relation,
    sel: &[u32],
) -> Result<Relation, PoolError> {
    let width = rel.schema().width();
    let chunks = pool
        .threads()
        .min(sel.len().div_ceil(MIN_GATHER_CHUNK_ROWS))
        .max(1);
    if chunks == 1 || width == 0 {
        return Ok(rel.gather(sel));
    }
    let b: Vec<usize> = (0..=chunks).map(|c| c * sel.len() / chunks).collect();
    let mut columns = Vec::with_capacity(width);
    for idx in 0..width {
        columns.push(match rel.column_at(idx).expect("column index in range") {
            Column::U32(v) => Column::U32(gather_chunked(pool, v, sel, &b)?),
            Column::U64(v) => Column::U64(gather_chunked(pool, v, sel, &b)?),
            Column::I64(v) => Column::I64(gather_chunked(pool, v, sel, &b)?),
            Column::F64(v) => Column::F64(gather_chunked(pool, v, sel, &b)?),
            Column::Bool(v) => Column::Bool(gather_chunked(pool, v, sel, &b)?),
            Column::Str(v) => Column::Str(gather_chunked(pool, v, sel, &b)?),
        });
    }
    let mut out = Relation::new(rel.schema().clone(), columns)
        .expect("gathered columns match the source schema");
    for idx in 0..width {
        if let Some(dict) = rel.dictionary_at(idx).expect("index in range") {
            out = out
                .with_dictionary_at(idx, Arc::clone(dict))
                .expect("the source column is a Str column");
        }
    }
    Ok(out)
}

/// `src` gathered at `sel`, one task per chunk `bounds[c]..bounds[c + 1]`
/// of the selection, each filling its own disjoint output slice.
fn gather_chunked<T: Copy + Default + Send + Sync>(
    pool: &ThreadPool,
    src: &[T],
    sel: &[u32],
    bounds: &[usize],
) -> Result<Vec<T>, PoolError> {
    let mut out = vec![T::default(); sel.len()];
    let mut rest = out.as_mut_slice();
    let mut slots = Vec::with_capacity(bounds.len() - 1);
    for w in bounds.windows(2) {
        let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(w[1] - w[0]);
        slots.push(Mutex::new(chunk));
        rest = tail;
    }
    pool.map_tasks(slots.len(), |c| {
        let mut dst = slots[c].lock().expect("one task per chunk");
        for (d, &i) in dst.iter_mut().zip(&sel[bounds[c]..bounds[c + 1]]) {
            *d = src[i as usize];
        }
    })?;
    drop(slots);
    Ok(out)
}

/// The `Exchange`-dispatched Filter: [`parallel_select`] over `rel`'s
/// rows, then [`parallel_gather`] of the selection. A filter that keeps
/// every row shares `rel`'s column buffers, like [`Relation::filter`].
pub fn parallel_filter<E, F>(
    pool: &ThreadPool,
    rel: &Relation,
    bounds: &[usize],
    morsel_rows: usize,
    mask_of: F,
) -> Result<Relation, E>
where
    E: From<ExecError> + Send,
    F: Fn(Morsel) -> Result<Vec<bool>, E> + Sync,
{
    let sel = parallel_select(pool, rel.rows(), bounds, morsel_rows, mask_of)?;
    if sel.len() == rel.rows() {
        return Ok(rel.clone());
    }
    Ok(parallel_gather(pool, rel, &sel).map_err(ExecError::from)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqo_storage::{DataType, Field, Schema};

    fn sample_relation(n: usize) -> Relation {
        let schema = Schema::new(vec![
            Field::new("k", DataType::U32),
            Field::new("v", DataType::U64),
            Field::new("f", DataType::Bool),
        ])
        .unwrap();
        Relation::new(
            schema,
            vec![
                Column::U32(
                    (0..n as u32)
                        .map(|i| i.wrapping_mul(2_654_435_761))
                        .collect(),
                ),
                Column::U64((0..n as u64).collect()),
                Column::Bool((0..n).map(|i| i % 3 == 0).collect()),
            ],
        )
        .unwrap()
    }

    fn assert_same(a: &Relation, b: &Relation, ctx: &str) {
        assert_eq!(a.rows(), b.rows(), "{ctx}");
        for c in 0..b.schema().width() {
            assert_eq!(
                format!("{:?}", a.column_at(c).unwrap()),
                format!("{:?}", b.column_at(c).unwrap()),
                "{ctx} column={c}"
            );
        }
    }

    #[test]
    fn gather_matches_serial_across_threads() {
        let rel = sample_relation(30_000);
        let sel: Vec<u32> = (0..30_000).rev().step_by(3).collect();
        let serial = rel.gather(&sel);
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            let par = parallel_gather(&pool, &rel, &sel).unwrap();
            assert_same(&par, &serial, &format!("threads={threads}"));
        }
    }

    #[test]
    fn gather_empty_and_tiny_selections() {
        let rel = sample_relation(100);
        let pool = ThreadPool::new(4);
        assert_eq!(parallel_gather(&pool, &rel, &[]).unwrap().rows(), 0);
        let one = parallel_gather(&pool, &rel, &[99]).unwrap();
        assert_same(&one, &rel.gather(&[99]), "one row");
    }

    #[test]
    fn select_rejects_a_mask_shorter_than_its_morsel() {
        let pool = ThreadPool::new(2);
        let short = |m: Morsel| Ok::<_, ExecError>(vec![true; m.len() - 1]);
        assert!(matches!(
            parallel_select(&pool, 10, &[0, 10], 4, short),
            Err(ExecError::Storage(
                StorageError::ColumnLengthMismatch { .. }
            ))
        ));
    }
}
