//! Optimisation-latency harness: what one planning call costs on each of
//! the three serving tiers —
//!
//! 1. **cold** — a fresh memo per call (`optimize`), the price
//!    of the full rule-driven search;
//! 2. **memo** — a persistent session memo: every group exploration after
//!    the first call is a winner-table hit;
//! 3. **plan-cache** — the prepared-statement path: winner extraction is
//!    a shape lookup plus constant rebind, no search at all.
//!
//! Per tier the harness reports rep counts, p50/p99/mean latency and the
//! speedup over cold; for the memo tier it also reports the group and
//! retained-candidate population so trajectory tracking catches memo
//! bloat. The measured DOP follows `DQO_THREADS` like the rest of the
//! harness binaries, so CI's matrix legs produce different trajectories.

use crate::concurrency::percentile;
use crate::report::Table;
use dqo_core::catalog::Catalog;
use dqo_core::memo::{Memo, MemoOptimizer, MemoStamp};
use dqo_core::optimizer::{optimize, OptimizeRequest, OptimizerMode, PropertyModel};
use dqo_core::plan_cache::{plan_shape, PlanCache};
use dqo_obs::MetricsRegistry;
use dqo_plan::expr::{AggExpr, CmpOp, Predicate};
use dqo_plan::LogicalPlan;
use dqo_storage::datagen::{DatasetSpec, ForeignKeySpec};
use std::sync::Arc;
use std::time::Instant;

/// One measured tier of one query.
#[derive(Debug, Clone)]
pub struct TierResult {
    /// Query label.
    pub query: &'static str,
    /// Tier label: `cold`, `memo` or `plan-cache`.
    pub tier: &'static str,
    /// Measured repetitions.
    pub reps: usize,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Mean latency, microseconds.
    pub mean_us: f64,
    /// Memo groups after the run (memo tier only, else 0).
    pub memo_groups: usize,
    /// Retained candidates across winner tables (memo tier only, else 0).
    pub memo_candidates: usize,
}

fn corpus(rows: usize) -> (Catalog, Vec<(&'static str, Arc<LogicalPlan>)>) {
    let catalog = Catalog::new();
    let (r, s) = ForeignKeySpec {
        r_sorted: false,
        s_sorted: true,
        dense: true,
        ..Default::default()
    }
    .generate()
    .expect("spec");
    catalog.register("R", r);
    catalog.register("S", s);
    catalog.register(
        "t",
        DatasetSpec::new(rows, 512)
            .dense(true)
            .relation()
            .expect("spec"),
    );
    let queries = vec![
        ("join-group-4.3", dqo_plan::logical::example_query_4_3()),
        (
            "filter-group",
            LogicalPlan::group_by(
                LogicalPlan::filter(
                    LogicalPlan::scan("t"),
                    Predicate::cmp("key", CmpOp::Lt, 100u32),
                ),
                "key",
                vec![AggExpr::count_star("n")],
            ),
        ),
    ];
    (catalog, queries)
}

fn summarise(
    query: &'static str,
    tier: &'static str,
    samples_ns: &mut [f64],
    memo: Option<&Memo>,
) -> TierResult {
    samples_ns.sort_by(f64::total_cmp);
    let mean = samples_ns.iter().sum::<f64>() / samples_ns.len() as f64;
    TierResult {
        query,
        tier,
        reps: samples_ns.len(),
        p50_us: percentile(samples_ns, 50.0) / 1e3,
        p99_us: percentile(samples_ns, 99.0) / 1e3,
        mean_us: mean / 1e3,
        memo_groups: memo.map(Memo::group_count).unwrap_or(0),
        memo_candidates: memo.map(Memo::candidate_count).unwrap_or(0),
    }
}

/// Measure all tiers for every corpus query. `rows` sizes the single
/// table; `reps` is the measured repetition count per tier (a tenth of
/// that is spent warming).
pub fn run(rows: usize, reps: usize, dop: usize) -> Vec<TierResult> {
    let (catalog, queries) = corpus(rows);
    let warmup = (reps / 10).max(1);
    let mut out = Vec::new();
    let req = OptimizeRequest {
        pmodel: PropertyModel::AttributeStrict,
        dop,
        ..OptimizeRequest::new(&catalog, OptimizerMode::Deep)
    };
    for (name, q) in &queries {
        // Tier 1: cold — a fresh memo every call.
        let cold_once = || optimize(q, &req).expect("plans");
        for _ in 0..warmup {
            std::hint::black_box(cold_once());
        }
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t = Instant::now();
            std::hint::black_box(cold_once());
            samples.push(t.elapsed().as_nanos() as f64);
        }
        out.push(summarise(name, "cold", &mut samples, None));

        // Tier 2: persistent memo — winner-table hits after the first.
        let mut memo = Memo::new();
        memo.ensure_stamp(MemoStamp::current(&catalog, None, None));
        let memo_once = |memo: &mut Memo| {
            MemoOptimizer::new(memo, &req, None)
                .optimize(q)
                .expect("plans")
        };
        for _ in 0..warmup {
            std::hint::black_box(memo_once(&mut memo));
        }
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t = Instant::now();
            std::hint::black_box(memo_once(&mut memo));
            samples.push(t.elapsed().as_nanos() as f64);
        }
        out.push(summarise(name, "memo", &mut samples, Some(&memo)));

        // Tier 3: plan-cache hit — shape lookup + constant rebind.
        let registry = Arc::new(MetricsRegistry::new());
        let cache = PlanCache::new(8, &registry);
        let key = format!("{}#dop={dop}", plan_shape(q));
        let planned = cold_once();
        cache.insert(key.clone(), 0, &planned);
        for _ in 0..warmup {
            std::hint::black_box(cache.lookup(&key, 0, q, &catalog, true).expect("cached"));
        }
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t = Instant::now();
            std::hint::black_box(cache.lookup(&key, 0, q, &catalog, true).expect("cached"));
            samples.push(t.elapsed().as_nanos() as f64);
        }
        out.push(summarise(name, "plan-cache", &mut samples, None));
    }
    out
}

/// Render results as a report table (text/CSV/JSON via [`Table`]).
pub fn table(results: &[TierResult], dop: usize) -> Table {
    let mut t = Table::new(&[
        "query",
        "tier",
        "dop",
        "reps",
        "p50_us",
        "p99_us",
        "mean_us",
        "speedup_vs_cold",
        "memo_groups",
        "memo_candidates",
    ]);
    for r in results {
        let cold_mean = results
            .iter()
            .find(|c| c.query == r.query && c.tier == "cold")
            .map(|c| c.mean_us)
            .unwrap_or(r.mean_us);
        t.row(vec![
            r.query.to_owned(),
            r.tier.to_owned(),
            dop.to_string(),
            r.reps.to_string(),
            format!("{:.2}", r.p50_us),
            format!("{:.2}", r.p99_us),
            format!("{:.2}", r.mean_us),
            format!("{:.2}", cold_mean / r.mean_us.max(1e-9)),
            r.memo_groups.to_string(),
            r.memo_candidates.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_tiers_report_for_every_query() {
        let results = run(20_000, 5, 2);
        assert_eq!(results.len(), 6, "2 queries × 3 tiers");
        for r in &results {
            assert!(r.p50_us > 0.0 && r.p99_us >= r.p50_us, "{r:?}");
        }
        let memo_rows: Vec<_> = results.iter().filter(|r| r.tier == "memo").collect();
        assert!(memo_rows.iter().all(|r| r.memo_groups > 0));
        let rendered = table(&results, 2).to_json();
        assert!(rendered.contains("plan-cache"));
    }
}
