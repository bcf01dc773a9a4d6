//! Typed columns and the one way rows are materialised.
//!
//! A [`Column`] is a contiguous, fully materialised vector of one scalar
//! type. Hot operator code obtains the raw slice (e.g. [`Column::as_u32`])
//! and works on it directly; `Value`-based access exists for the API
//! boundary and tests.
//!
//! Every operator that picks rows out of its input materialises them the
//! same way, with X100-style selection vectors: a `u32` vector of row ids
//! and an exact-size typed [`Column::gather`]. A predicate mask becomes a
//! selection through the branch-free [`select`] kernel ([`select_into`]
//! when the output slot is already allocated); sort orders and join row
//! ids are selections already. Contiguous row ranges (surviving
//! partitions, a `LIMIT` prefix) copy with [`Column::gather_ranges`]
//! instead, one `extend_from_slice` per range.

use crate::error::StorageError;
use crate::value::{DataType, Value};
use crate::Result;
use serde::{Deserialize, Serialize};

/// Largest row count a relation may hold: every row id must fit the `u32`
/// of a selection vector.
pub const MAX_ROWS: usize = u32::MAX as usize;

/// Compact a predicate mask into a selection vector: the ids `base + i` of
/// the rows whose mask bit is set, in ascending order, allocated at its
/// exact size. `base + mask.len()` must not exceed [`MAX_ROWS`].
pub fn select(mask: &[bool], base: u32) -> Vec<u32> {
    let mut sel = vec![0; count_selected(mask)];
    select_into(mask, base, &mut sel);
    sel
}

/// Number of set bits in `mask`: the length of its selection.
pub fn count_selected(mask: &[bool]) -> usize {
    mask.iter().map(|&m| m as usize).sum()
}

/// The branch-free kernel behind [`select`]: compact `mask` into `out`,
/// which must hold exactly [`count_selected`]`(mask)` ids.
///
/// Every row up to the last selected one writes its id unconditionally and
/// the write cursor then advances by the mask bit, so the loop costs the
/// same at any selectivity. Stopping at the last selected row keeps every
/// write inside `out`.
pub fn select_into(mask: &[bool], base: u32, out: &mut [u32]) {
    let end = mask.iter().rposition(|&m| m).map_or(0, |last| last + 1);
    let mut n = 0;
    for (i, &m) in mask[..end].iter().enumerate() {
        out[n] = base + i as u32;
        n += m as usize;
    }
    assert_eq!(n, out.len(), "`out` must hold exactly the selected rows");
}

/// A typed, fully materialised column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Column {
    /// u32 data (grouping keys in the paper's experiments).
    U32(Vec<u32>),
    /// u64 data (counters).
    U64(Vec<u64>),
    /// i64 data.
    I64(Vec<i64>),
    /// f64 data.
    F64(Vec<f64>),
    /// bool data.
    Bool(Vec<bool>),
    /// Dictionary codes; the dictionary itself lives in the relation's
    /// schema-adjacent metadata (see [`crate::dictionary`]).
    Str(Vec<u32>),
}

impl Column {
    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::U32(_) => DataType::U32,
            Column::U64(_) => DataType::U64,
            Column::I64(_) => DataType::I64,
            Column::F64(_) => DataType::F64,
            Column::Bool(_) => DataType::Bool,
            Column::Str(_) => DataType::Str,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            Column::U32(v) | Column::Str(v) => v.len(),
            Column::U64(v) => v.len(),
            Column::I64(v) => v.len(),
            Column::F64(v) => v.len(),
            Column::Bool(v) => v.len(),
        }
    }

    /// True if the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An empty column of the given type.
    pub fn empty(dt: DataType) -> Self {
        match dt {
            DataType::U32 => Column::U32(Vec::new()),
            DataType::U64 => Column::U64(Vec::new()),
            DataType::I64 => Column::I64(Vec::new()),
            DataType::F64 => Column::F64(Vec::new()),
            DataType::Bool => Column::Bool(Vec::new()),
            DataType::Str => Column::Str(Vec::new()),
        }
    }

    /// Borrow as `&[u32]` (also accepts `Str`, whose physical layout is
    /// `u32` dictionary codes).
    pub fn as_u32(&self) -> Result<&[u32]> {
        match self {
            Column::U32(v) | Column::Str(v) => Ok(v),
            other => Err(StorageError::TypeMismatch {
                expected: DataType::U32,
                found: other.data_type(),
            }),
        }
    }

    /// Borrow as `&[u64]`.
    pub fn as_u64(&self) -> Result<&[u64]> {
        match self {
            Column::U64(v) => Ok(v),
            other => Err(StorageError::TypeMismatch {
                expected: DataType::U64,
                found: other.data_type(),
            }),
        }
    }

    /// Borrow as `&[i64]`.
    pub fn as_i64(&self) -> Result<&[i64]> {
        match self {
            Column::I64(v) => Ok(v),
            other => Err(StorageError::TypeMismatch {
                expected: DataType::I64,
                found: other.data_type(),
            }),
        }
    }

    /// Borrow as `&[f64]`.
    pub fn as_f64(&self) -> Result<&[f64]> {
        match self {
            Column::F64(v) => Ok(v),
            other => Err(StorageError::TypeMismatch {
                expected: DataType::F64,
                found: other.data_type(),
            }),
        }
    }

    /// Borrow as `&[bool]`.
    pub fn as_bool(&self) -> Result<&[bool]> {
        match self {
            Column::Bool(v) => Ok(v),
            other => Err(StorageError::TypeMismatch {
                expected: DataType::Bool,
                found: other.data_type(),
            }),
        }
    }

    /// Value at `idx` as a [`Value`] (slow path; for API boundary and tests).
    pub fn value_at(&self, idx: usize) -> Result<Value> {
        let len = self.len();
        if idx >= len {
            return Err(StorageError::RowIndexOutOfBounds {
                index: idx,
                rows: len,
            });
        }
        Ok(match self {
            Column::U32(v) => Value::U32(v[idx]),
            Column::U64(v) => Value::U64(v[idx]),
            Column::I64(v) => Value::I64(v[idx]),
            Column::F64(v) => Value::F64(v[idx]),
            Column::Bool(v) => Value::Bool(v[idx]),
            // `Str` surfaces the raw code; decoding needs the dictionary and
            // is done by `Relation::value_at`.
            Column::Str(v) => Value::U32(v[idx]),
        })
    }

    /// Build a new column from the rows at `sel`, in `sel` order (gather).
    /// The output is allocated at its exact size.
    ///
    /// An out-of-range row id is a corrupted selection and panics via
    /// slice indexing, in release builds too.
    pub fn gather(&self, sel: &[u32]) -> Column {
        fn pick<T: Copy>(v: &[T], sel: &[u32]) -> Vec<T> {
            sel.iter().map(|&i| v[i as usize]).collect()
        }
        match self {
            Column::U32(v) => Column::U32(pick(v, sel)),
            Column::U64(v) => Column::U64(pick(v, sel)),
            Column::I64(v) => Column::I64(pick(v, sel)),
            Column::F64(v) => Column::F64(pick(v, sel)),
            Column::Bool(v) => Column::Bool(pick(v, sel)),
            Column::Str(v) => Column::Str(pick(v, sel)),
        }
    }

    /// Build a new column from the half-open row `ranges`, in order: one
    /// `extend_from_slice` per range into an exact-size buffer.
    pub fn gather_ranges(&self, ranges: &[(usize, usize)]) -> Column {
        fn copy<T: Copy>(v: &[T], ranges: &[(usize, usize)]) -> Vec<T> {
            let mut out = Vec::with_capacity(ranges.iter().map(|(s, e)| e - s).sum());
            for &(s, e) in ranges {
                out.extend_from_slice(&v[s..e]);
            }
            out
        }
        match self {
            Column::U32(v) => Column::U32(copy(v, ranges)),
            Column::U64(v) => Column::U64(copy(v, ranges)),
            Column::I64(v) => Column::I64(copy(v, ranges)),
            Column::F64(v) => Column::F64(copy(v, ranges)),
            Column::Bool(v) => Column::Bool(copy(v, ranges)),
            Column::Str(v) => Column::Str(copy(v, ranges)),
        }
    }

    /// Concatenate another column of the same type onto this one.
    pub fn append(&mut self, other: &Column) -> Result<()> {
        match (self, other) {
            (Column::U32(a), Column::U32(b)) => a.extend_from_slice(b),
            (Column::U64(a), Column::U64(b)) => a.extend_from_slice(b),
            (Column::I64(a), Column::I64(b)) => a.extend_from_slice(b),
            (Column::F64(a), Column::F64(b)) => a.extend_from_slice(b),
            (Column::Bool(a), Column::Bool(b)) => a.extend_from_slice(b),
            (Column::Str(a), Column::Str(b)) => a.extend_from_slice(b),
            (me, other) => {
                return Err(StorageError::TypeMismatch {
                    expected: me.data_type(),
                    found: other.data_type(),
                })
            }
        }
        Ok(())
    }

    /// Approximate heap footprint in bytes (used by the AV catalog's budget
    /// accounting).
    pub fn byte_size(&self) -> usize {
        self.len() * self.data_type().byte_width()
    }

    /// Push one [`Value`], widening losslessly (`u32` into `u64`/`i64`
    /// columns, any numeric into `f64`). `Str` columns store dictionary
    /// codes, so pushing a decoded string here is a type error — encode it
    /// first (see `Relation::append_rows`).
    pub fn push_value(&mut self, v: &Value) -> Result<()> {
        let mismatch = |expected: DataType| StorageError::TypeMismatch {
            expected,
            found: v.data_type(),
        };
        match self {
            Column::U32(col) => col.push(v.as_u32().ok_or(mismatch(DataType::U32))?),
            Column::U64(col) => col.push(v.as_u64().ok_or(mismatch(DataType::U64))?),
            Column::I64(col) => col.push(v.as_i64().ok_or(mismatch(DataType::I64))?),
            Column::F64(col) => col.push(v.as_f64().ok_or(mismatch(DataType::F64))?),
            Column::Bool(col) => col.push(v.as_bool().ok_or(mismatch(DataType::Bool))?),
            Column::Str(_) => return Err(mismatch(DataType::Str)),
        }
        Ok(())
    }
}

impl From<Vec<u32>> for Column {
    fn from(v: Vec<u32>) -> Self {
        Column::U32(v)
    }
}

impl From<Vec<u64>> for Column {
    fn from(v: Vec<u64>) -> Self {
        Column::U64(v)
    }
}

impl From<Vec<i64>> for Column {
    fn from(v: Vec<i64>) -> Self {
        Column::I64(v)
    }
}

impl From<Vec<f64>> for Column {
    fn from(v: Vec<f64>) -> Self {
        Column::F64(v)
    }
}

impl From<Vec<bool>> for Column {
    fn from(v: Vec<bool>) -> Self {
        Column::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_and_type() {
        let c = Column::U32(vec![1, 2, 3]);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert_eq!(c.data_type(), DataType::U32);
        assert!(Column::empty(DataType::F64).is_empty());
    }

    #[test]
    fn typed_slice_access() {
        let c = Column::U32(vec![4, 5]);
        assert_eq!(c.as_u32().unwrap(), &[4, 5]);
        assert!(c.as_u64().is_err());
        assert!(c.as_f64().is_err());
    }

    #[test]
    fn str_column_exposes_codes_as_u32() {
        let c = Column::Str(vec![0, 1, 0]);
        assert_eq!(c.as_u32().unwrap(), &[0, 1, 0]);
        assert_eq!(c.data_type(), DataType::Str);
    }

    #[test]
    fn value_at_bounds() {
        let c = Column::I64(vec![-1, 9]);
        assert_eq!(c.value_at(1).unwrap(), Value::I64(9));
        assert!(matches!(
            c.value_at(2),
            Err(StorageError::RowIndexOutOfBounds { index: 2, rows: 2 })
        ));
    }

    #[test]
    fn gather_reorders() {
        let c = Column::U32(vec![10, 20, 30]);
        let g = c.gather(&[2, 0, 0]);
        assert_eq!(g.as_u32().unwrap(), &[30, 10, 10]);
    }

    #[test]
    fn select_compacts_mask_at_any_selectivity() {
        assert_eq!(select(&[true, false, true], 0), vec![0, 2]);
        assert_eq!(select(&[true, false, false], 0), vec![0]);
        assert_eq!(select(&[false, true, true, false], 10), vec![11, 12]);
        assert_eq!(select(&[true; 4], 0), vec![0, 1, 2, 3]);
        assert!(select(&[false; 4], 0).is_empty());
        assert!(select(&[], 7).is_empty());
    }

    #[test]
    #[should_panic(expected = "exactly the selected rows")]
    fn select_into_rejects_a_mis_sized_output() {
        select_into(&[true, false], 0, &mut [0, 0]);
    }

    #[test]
    fn gather_ranges_concatenates_in_order() {
        let c = Column::I64(vec![0, 1, 2, 3, 4, 5]);
        let g = c.gather_ranges(&[(4, 6), (0, 1), (2, 2)]);
        assert_eq!(g.as_i64().unwrap(), &[4, 5, 0]);
        assert!(c.gather_ranges(&[]).is_empty());
    }

    #[test]
    fn append_same_type() {
        let mut a = Column::U32(vec![1]);
        a.append(&Column::U32(vec![2, 3])).unwrap();
        assert_eq!(a.as_u32().unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn append_type_mismatch() {
        let mut a = Column::U32(vec![1]);
        assert!(a.append(&Column::U64(vec![2])).is_err());
    }

    #[test]
    fn byte_size() {
        assert_eq!(Column::U32(vec![0; 10]).byte_size(), 40);
        assert_eq!(Column::F64(vec![0.0; 10]).byte_size(), 80);
        assert_eq!(Column::Bool(vec![false; 10]).byte_size(), 10);
    }
}
