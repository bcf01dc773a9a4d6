//! Morsels: the unit of parallel work.
//!
//! A morsel is a contiguous run of rows small enough that one worker's
//! pass over it stays cache-resident (Leis et al., "Morsel-Driven
//! Parallelism", SIGMOD 2014 — the execution model this subsystem
//! adopts). DQO's sub-operator granules map naturally onto morsels: the
//! same per-tuple kernel the serial engine runs over a whole column runs
//! here over one morsel at a time, and workers steal morsels instead of
//! waiting on a partitioning decided up front.

use dqo_exec::ExecError;

/// Default morsel size in rows: 64Ki rows ≈ 256 KiB per `u32` column,
/// comfortably inside L2 while large enough to amortise scheduling.
pub const DEFAULT_MORSEL_ROWS: usize = 1 << 16;

/// A contiguous row range `[start, end)` of some column/relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// First row (inclusive).
    pub start: usize,
    /// One past the last row (exclusive).
    pub end: usize,
}

impl Morsel {
    /// Number of rows in the morsel.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True for the degenerate empty morsel.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Slice a column to this morsel's rows.
    pub fn of<'a, T>(&self, data: &'a [T]) -> &'a [T] {
        &data[self.start..self.end]
    }
}

/// Chop `rows` into morsels of at most `morsel_rows` rows, in row order.
pub fn morsels(rows: usize, morsel_rows: usize) -> Vec<Morsel> {
    let step = morsel_rows.max(1);
    (0..rows)
        .step_by(step)
        .map(|start| Morsel {
            start,
            end: (start + step).min(rows),
        })
        .collect()
}

/// Check that segment `bounds` cover `0..rows` exactly: they start at 0,
/// never decrease and end at `rows`. Every kernel that takes bounds
/// checks them here first, so rows outside the listed segments are
/// rejected with [`ExecError::BadBounds`] instead of silently dropped.
/// An input that is not partitioned passes `[0, rows]`.
pub fn check_bounds(bounds: &[usize], rows: usize) -> Result<(), ExecError> {
    let spans = bounds.first() == Some(&0)
        && bounds.last() == Some(&rows)
        && bounds.windows(2).all(|w| w[0] <= w[1]);
    if spans {
        Ok(())
    } else {
        Err(ExecError::BadBounds {
            rows,
            bounds: bounds.to_vec(),
        })
    }
}

/// Chop each segment `[bounds[i], bounds[i + 1])` into morsels of at most
/// `morsel_rows` rows, in row order, such that **no morsel crosses a
/// segment boundary**. `bounds` must pass [`check_bounds`] (empty
/// segments yield no morsels). With `bounds == [0, rows]` this is exactly
/// [`morsels`].
///
/// This is how partitioned scans seed partition-native parallel work:
/// one segment per surviving partition range, so per-morsel kernels
/// (filter masks, grouping partials, hash-join build scatter) never mix
/// rows from two partitions inside one work unit.
pub fn morsels_within(bounds: &[usize], morsel_rows: usize) -> Vec<Morsel> {
    let step = morsel_rows.max(1);
    let mut out = Vec::new();
    for w in bounds.windows(2) {
        let (seg_start, seg_end) = (w[0], w[1]);
        let mut start = seg_start;
        while start < seg_end {
            let end = (start + step).min(seg_end);
            out.push(Morsel { start, end });
            start = end;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_rows_exactly_once_in_order() {
        let ms = morsels(1000, 300);
        assert_eq!(ms.len(), 4);
        assert_eq!(ms[0], Morsel { start: 0, end: 300 });
        assert_eq!(
            ms[3],
            Morsel {
                start: 900,
                end: 1000
            }
        );
        let total: usize = ms.iter().map(Morsel::len).sum();
        assert_eq!(total, 1000);
        for w in ms.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(morsels(0, 100).is_empty());
        let ms = morsels(5, 100);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].len(), 5);
        // Degenerate morsel size is clamped to 1 rather than looping forever.
        assert_eq!(morsels(3, 0).len(), 3);
    }

    #[test]
    fn morsels_within_never_cross_segment_boundaries() {
        let ms = morsels_within(&[0, 250, 1000], 300);
        // Segment [0,250) → one morsel; [250,1000) → 300/300/150.
        assert_eq!(
            ms,
            vec![
                Morsel { start: 0, end: 250 },
                Morsel {
                    start: 250,
                    end: 550
                },
                Morsel {
                    start: 550,
                    end: 850
                },
                Morsel {
                    start: 850,
                    end: 1000
                },
            ]
        );
        let total: usize = ms.iter().map(Morsel::len).sum();
        assert_eq!(total, 1000);
        // Degenerate: one segment reduces to plain morsels; empty
        // segments contribute nothing.
        assert_eq!(morsels_within(&[0, 1000], 300), morsels(1000, 300));
        assert_eq!(morsels_within(&[0, 0, 5, 5, 5], 2).len(), 3);
        assert!(morsels_within(&[0], 64).is_empty());
        assert!(morsels_within(&[], 64).is_empty());
    }

    #[test]
    fn bounds_must_span_the_input() {
        assert!(check_bounds(&[0, 10], 10).is_ok());
        assert!(check_bounds(&[0, 0, 4, 4, 10], 10).is_ok());
        assert!(check_bounds(&[0], 0).is_ok());
        for bad in [&[][..], &[0, 5], &[1, 10], &[0, 6, 4, 10], &[0, 11]] {
            assert_eq!(
                check_bounds(bad, 10),
                Err(ExecError::BadBounds {
                    rows: 10,
                    bounds: bad.to_vec()
                })
            );
        }
    }

    #[test]
    fn morsel_slicing() {
        let data: Vec<u32> = (0..10).collect();
        let m = Morsel { start: 3, end: 7 };
        assert_eq!(m.of(&data), &[3, 4, 5, 6]);
        assert_eq!(m.len(), 4);
        assert!(!m.is_empty());
    }
}
