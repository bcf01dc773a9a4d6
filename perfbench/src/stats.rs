//! Sample statistics: the percentile rule, q-error, histogram quantiles,
//! registry deltas and the process memory high-water mark.

use dqo::obs::metrics::SampleValue;
use dqo::obs::MetricsSnapshot;

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; below that it is unsupported.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile could not be reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unsupported {
    /// Samples available.
    pub samples: usize,
    /// Samples the percentile needs.
    pub needed: usize,
}

/// Samples needed for percentile `p` (0–100) to leave [`MIN_BEYOND`]
/// samples above it: p50 needs 20, p99 needs 1,000, p99.9 needs 10,000.
pub fn samples_needed(p: f64) -> usize {
    let tail = (100.0 - p) / 100.0;
    ((MIN_BEYOND as f64 / tail) - 1e-9).ceil() as usize
}

/// Nearest-rank percentile `p` of ascending `sorted` samples, refused
/// when fewer than [`samples_needed`] samples back it.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, Unsupported> {
    let needed = samples_needed(p);
    if sorted.len() < needed || sorted.is_empty() {
        return Err(Unsupported {
            samples: sorted.len(),
            needed,
        });
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Ok(sorted[rank.min(sorted.len()) - 1])
}

/// A tail percentile that one burst cannot move: each caller's samples,
/// in the order they were taken, are cut into consecutive blocks that
/// each hold enough samples for `p`; the result is the median of the
/// blocks' percentiles. With no full block anywhere it falls back to the
/// pooled percentile. Returns the value and the number of blocks.
pub fn blocked_percentile(streams: &[&[f64]], p: f64) -> Result<(f64, usize), Unsupported> {
    let needed = samples_needed(p);
    let mut per_block = Vec::new();
    for s in streams {
        let k = s.len() / needed;
        for i in 0..k {
            let block = sorted(s[i * s.len() / k..(i + 1) * s.len() / k].to_vec());
            per_block.push(percentile(&block, p)?);
        }
    }
    match median(&per_block) {
        Some(m) => Ok((m, per_block.len())),
        None => {
            let all = sorted(streams.iter().flat_map(|s| s.iter().copied()).collect());
            percentile(&all, p).map(|v| (v, 1))
        }
    }
}

/// Sort samples ascending (they are finite durations).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of any non-empty sample set (mean of the middle pair).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let s = sorted(values.to_vec());
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// q-error of a cardinality estimate: `max(est/act, act/est)`, with both
/// sides floored at one row so an empty result stays finite (an estimate
/// of 0 or 1 for an empty result is exact).
pub fn q_error(est: u64, act: u64) -> f64 {
    let (e, a) = (est.max(1) as f64, act.max(1) as f64);
    (e / a).max(a / e)
}

/// Quantile `q` (0–1) of a bucketed histogram, interpolating linearly
/// inside the bucket that holds it. `counts` are per bucket with the
/// trailing `+Inf` bucket last; that bucket reports its lower bound.
pub fn histogram_quantile(bounds: &[f64], counts: &[u64], q: f64) -> Option<f64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let target = q * total as f64;
    let mut seen = 0.0;
    for (i, &c) in counts.iter().enumerate() {
        let lo = if i == 0 { 0.0 } else { bounds[i - 1] };
        if seen + c as f64 >= target && c > 0 {
            let Some(&hi) = bounds.get(i) else {
                return Some(lo);
            };
            return Some(lo + (hi - lo) * ((target - seen) / c as f64));
        }
        seen += c as f64;
    }
    bounds.last().copied()
}

/// Registry changes over one or more measured intervals, each bracketed
/// by a snapshot before and after (one interval per engine session).
#[derive(Debug, Default)]
pub struct Delta {
    intervals: Vec<(MetricsSnapshot, MetricsSnapshot)>,
}

impl Delta {
    /// The change from `before` to `after`.
    pub fn new(before: MetricsSnapshot, after: MetricsSnapshot) -> Self {
        Delta {
            intervals: vec![(before, after)],
        }
    }

    /// Add another interval.
    pub fn push(&mut self, before: MetricsSnapshot, after: MetricsSnapshot) {
        self.intervals.push((before, after));
    }

    /// Counter increase, summed over the intervals.
    pub fn counter(&self, name: &str) -> u64 {
        self.intervals
            .iter()
            .map(|(b, a)| {
                a.counter(name)
                    .unwrap_or(0)
                    .saturating_sub(b.counter(name).unwrap_or(0))
            })
            .sum()
    }

    /// Histogram increase summed over the intervals: bucket bounds,
    /// per-bucket counts, total observations and their sum.
    pub fn histogram(&self, name: &str) -> (Vec<f64>, Vec<u64>, u64, f64) {
        let get = |s: &MetricsSnapshot| {
            s.samples
                .iter()
                .find(|m| m.name == name)
                .and_then(|m| match &m.value {
                    SampleValue::Histogram {
                        bounds,
                        counts,
                        count,
                        sum,
                    } => Some((bounds.clone(), counts.clone(), *count, *sum)),
                    _ => None,
                })
        };
        let mut total: (Vec<f64>, Vec<u64>, u64, f64) = (Vec::new(), Vec::new(), 0, 0.0);
        for (b, a) in &self.intervals {
            let Some(a) = get(a) else { continue };
            let b = get(b).unwrap_or_else(|| (a.0.clone(), vec![0; a.1.len()], 0, 0.0));
            if total.1.is_empty() {
                total.0 = a.0.clone();
                total.1 = vec![0; a.1.len()];
            }
            for (t, (x, y)) in total.1.iter_mut().zip(a.1.iter().zip(&b.1)) {
                *t += x - y;
            }
            total.2 += a.2 - b.2;
            total.3 += a.3 - b.3;
        }
        total
    }
}

/// The process's resident-set high-water mark (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_is_refused_below_a_thousand_samples() {
        assert_eq!(samples_needed(99.0), 1_000);
        assert_eq!(samples_needed(50.0), 20);
        let err = percentile(&ramp(999), 99.0).unwrap_err();
        assert_eq!(
            err,
            Unsupported {
                samples: 999,
                needed: 1_000
            }
        );
        // At 1,000 samples exactly ten lie beyond the nearest-rank p99.
        let v = ramp(1_000);
        let p99 = percentile(&v, 99.0).unwrap();
        assert_eq!(p99, 990.0);
        assert_eq!(v.iter().filter(|&&x| x > p99).count(), MIN_BEYOND);
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn blocked_p99_ignores_one_bad_block() {
        let calm: Vec<f64> = (0..1_000).map(|i| (i % 100) as f64).collect();
        let mut burst = calm.clone();
        burst.iter_mut().skip(900).for_each(|x| *x += 1_000.0);
        let stream: Vec<f64> = [calm.clone(), burst, calm.clone()].concat();
        let (p99, blocks) = blocked_percentile(&[&stream], 99.0).unwrap();
        assert_eq!((p99, blocks), (98.0, 3));
        // The pooled p99 of the same samples lands in the burst.
        assert!(percentile(&sorted(stream.clone()), 99.0).unwrap() > 1_000.0);
        // Short streams fall back to the pooled rule, and refuse below it.
        let short: Vec<f64> = calm[..600].to_vec();
        assert_eq!(blocked_percentile(&[&short, &short], 99.0).unwrap().1, 1);
        assert!(blocked_percentile(&[&short], 99.0).is_err());
    }

    #[test]
    fn p50_and_median_agree_on_odd_counts() {
        let v = ramp(101);
        assert_eq!(percentile(&v, 50.0).unwrap(), 51.0);
        assert_eq!(median(&v), Some(51.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn q_error_on_zero_rows_is_finite() {
        assert_eq!(q_error(0, 0), 1.0);
        assert_eq!(q_error(1, 0), 1.0);
        assert_eq!(q_error(0, 5), 5.0);
        assert_eq!(q_error(100, 0), 100.0);
        assert_eq!(q_error(10, 40), 4.0);
        assert_eq!(q_error(40, 10), 4.0);
        assert!(q_error(u64::MAX, 0).is_finite());
    }

    #[test]
    fn histogram_quantile_interpolates_within_a_bucket() {
        let bounds = [1.0, 2.0, 4.0];
        // 10 obs in (0,1], 10 in (1,2], none above.
        let counts = [10, 10, 0, 0];
        assert_eq!(histogram_quantile(&bounds, &counts, 0.5), Some(1.0));
        assert_eq!(histogram_quantile(&bounds, &counts, 0.75), Some(1.5));
        assert_eq!(histogram_quantile(&bounds, &[0, 0, 0, 3], 0.5), Some(4.0));
        assert_eq!(histogram_quantile(&bounds, &[0, 0, 0, 0], 0.5), None);
    }
}
