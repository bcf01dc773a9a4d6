//! The §4.3 experiment end to end: the paper's example query
//! `SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A`
//! planned under shallow and deep optimisation for every combination of
//! input sortedness and density, with both estimated costs and actual
//! measured runtimes.
//!
//! Run with: `cargo run --release --example dqo_vs_sqo`

use dqo::core::optimizer::{optimize, OptimizeRequest, OptimizerMode};
use dqo::core::{execute, Catalog, ExecContext};
use dqo::storage::datagen::ForeignKeySpec;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Figure 5 configuration: |R| = 25,000, |S| = 90,000, 20,000 groups\n");
    println!(
        "{:<22} {:>8} {:>24} {:>12} {:>24} {:>12} {:>8}",
        "inputs", "density", "SQO plan", "SQO cost", "DQO plan", "DQO cost", "factor"
    );

    let query = dqo::plan::logical::example_query_4_3();
    for dense in [false, true] {
        for (r_sorted, s_sorted) in [(true, true), (true, false), (false, true), (false, false)] {
            let catalog = Catalog::new();
            let (r, s) = ForeignKeySpec {
                r_sorted,
                s_sorted,
                dense,
                ..Default::default()
            }
            .generate()?;
            catalog.register("R", r);
            catalog.register("S", s);

            // One optimiser, two property visibilities: SQO and DQO differ
            // only in the request's mode.
            let plan = |mode| optimize(&query, &OptimizeRequest::new(&catalog, mode));
            let sqo = plan(OptimizerMode::Shallow)?;
            let dqo = plan(OptimizerMode::Deep)?;
            let factor = sqo.est_cost / dqo.est_cost;
            println!(
                "{:<22} {:>8} {:>24} {:>12.0} {:>24} {:>12.0} {:>7.1}x",
                format!(
                    "R{} S{}",
                    if r_sorted { "sorted" } else { "unsorted" },
                    if s_sorted { "sorted" } else { "unsorted" }
                ),
                if dense { "dense" } else { "sparse" },
                format!("{:?}", sqo.plan.algo_signature()),
                sqo.est_cost,
                format!("{:?}", dqo.plan.algo_signature()),
                dqo.est_cost,
                factor
            );

            // Execute both plans and verify they agree (and report time).
            let ctx = ExecContext::new(&catalog);
            let t0 = Instant::now();
            let out_sqo = execute(&sqo.plan, &ctx)?;
            let t_sqo = t0.elapsed();
            let t0 = Instant::now();
            let out_dqo = execute(&dqo.plan, &ctx)?;
            let t_dqo = t0.elapsed();
            assert_eq!(
                dqo::core::executor::sorted_rows(&out_sqo.relation),
                dqo::core::executor::sorted_rows(&out_dqo.relation),
                "plans must agree on results"
            );
            println!(
                "{:<31} measured: SQO {:>10.3?}  DQO {:>10.3?}  ({:.1}x)   [{} groups, {} vs {} pipeline breakers]",
                "",
                t_sqo,
                t_dqo,
                t_sqo.as_secs_f64() / t_dqo.as_secs_f64().max(1e-9),
                out_dqo.relation.rows(),
                out_sqo.pipeline.breakers,
                out_dqo.pipeline.breakers,
            );
        }
        println!();
    }
    println!(
        "The paper's Figure 5 reports 1x for every sparse cell and for the\n\
         sorted/sorted dense cell, 2.8x for R-unsorted/S-sorted dense, and 4x\n\
         when S is unsorted and dense — the estimated-cost column reproduces\n\
         exactly that pattern."
    );
    Ok(())
}
