//! Figure 5 machinery: the §4.3 query optimised under SQO and DQO for
//! every input configuration, with estimated-cost factors and optional
//! measured execution.

use dqo_core::executor::sorted_rows;
use dqo_core::optimizer::{optimize, OptimizeRequest, OptimizerMode};
use dqo_core::{execute, Catalog, ExecContext};
use dqo_storage::datagen::ForeignKeySpec;
use std::time::Instant;

/// One cell of the Figure 5 grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Cell {
    /// R sorted?
    pub r_sorted: bool,
    /// S sorted?
    pub s_sorted: bool,
    /// Dense key domains?
    pub dense: bool,
    /// SQO plan signature.
    pub sqo_plan: Vec<&'static str>,
    /// DQO plan signature.
    pub dqo_plan: Vec<&'static str>,
    /// SQO estimated cost.
    pub sqo_cost: f64,
    /// DQO estimated cost.
    pub dqo_cost: f64,
    /// Measured SQO wall-clock (ms), when executed.
    pub sqo_ms: Option<f64>,
    /// Measured DQO wall-clock (ms), when executed.
    pub dqo_ms: Option<f64>,
}

impl Fig5Cell {
    /// Estimated-cost improvement factor (the number Figure 5 prints).
    pub fn factor(&self) -> f64 {
        self.sqo_cost / self.dqo_cost
    }

    /// Measured improvement factor, when executed.
    pub fn measured_factor(&self) -> Option<f64> {
        Some(self.sqo_ms? / self.dqo_ms?.max(1e-9))
    }

    /// Row label as in the paper's grid.
    pub fn label(&self) -> String {
        format!(
            "R{} S{}",
            if self.r_sorted { "sorted" } else { "unsorted" },
            if self.s_sorted { "sorted" } else { "unsorted" }
        )
    }
}

/// The paper's Figure 5 values for comparison in reports.
pub fn paper_factor(r_sorted: bool, s_sorted: bool, dense: bool) -> f64 {
    if !dense {
        return 1.0;
    }
    match (r_sorted, s_sorted) {
        (true, true) => 1.0,
        (true, false) => 4.0,
        (false, true) => 2.8,
        (false, false) => 4.0,
    }
}

/// Run the full grid at the paper's sizes (scaled by `scale`).
pub fn run(scale: f64, execute_plans: bool) -> Vec<Fig5Cell> {
    let mut out = Vec::new();
    for dense in [false, true] {
        for (r_sorted, s_sorted) in [(true, true), (true, false), (false, true), (false, false)] {
            out.push(run_cell(r_sorted, s_sorted, dense, scale, execute_plans));
        }
    }
    out
}

/// Run one cell.
pub fn run_cell(
    r_sorted: bool,
    s_sorted: bool,
    dense: bool,
    scale: f64,
    execute_plans: bool,
) -> Fig5Cell {
    let catalog = Catalog::new();
    let (r, s) = ForeignKeySpec {
        r_rows: (25_000.0 * scale) as usize,
        s_rows: (90_000.0 * scale) as usize,
        groups: (20_000.0 * scale) as usize,
        r_sorted,
        s_sorted,
        dense,
        ..Default::default()
    }
    .generate()
    .expect("valid spec");
    catalog.register("R", r);
    catalog.register("S", s);
    let q = dqo_plan::logical::example_query_4_3();
    let sqo = optimize(&q, &OptimizeRequest::new(&catalog, OptimizerMode::Shallow)).expect("plans");
    let dqo = optimize(&q, &OptimizeRequest::new(&catalog, OptimizerMode::Deep)).expect("plans");

    let (mut sqo_ms, mut dqo_ms) = (None, None);
    if execute_plans {
        let t = Instant::now();
        let a = execute(&sqo.plan, &ExecContext::new(&catalog)).expect("SQO executes");
        sqo_ms = Some(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let b = execute(&dqo.plan, &ExecContext::new(&catalog)).expect("DQO executes");
        dqo_ms = Some(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            sorted_rows(&a.relation),
            sorted_rows(&b.relation),
            "SQO and DQO plans must agree"
        );
    }
    Fig5Cell {
        r_sorted,
        s_sorted,
        dense,
        sqo_plan: sqo.plan.algo_signature(),
        dqo_plan: dqo.plan.algo_signature(),
        sqo_cost: sqo.est_cost,
        dqo_cost: dqo.est_cost,
        sqo_ms,
        dqo_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_reproduces_the_paper_exactly() {
        for cell in run(1.0, false) {
            let expected = paper_factor(cell.r_sorted, cell.s_sorted, cell.dense);
            let got = cell.factor();
            assert!(
                (got - expected).abs() < 0.03,
                "{} dense={}: paper {expected}, got {got:.2}",
                cell.label(),
                cell.dense
            );
        }
    }

    #[test]
    fn execution_mode_measures_and_verifies() {
        let cell = run_cell(false, false, true, 0.05, true);
        assert!(cell.sqo_ms.is_some());
        assert!(cell.dqo_ms.is_some());
        assert!(cell.measured_factor().unwrap() > 0.0);
    }

    #[test]
    fn paper_factors_table() {
        assert_eq!(paper_factor(true, true, true), 1.0);
        assert_eq!(paper_factor(true, false, true), 4.0);
        assert_eq!(paper_factor(false, true, true), 2.8);
        assert_eq!(paper_factor(false, false, false), 1.0);
    }
}
