//! Criterion bench for **Figure 5** (E3): the DQO-enabled dynamic program
//! itself — optimisation time of the §4.3 query under SQO and DQO, plus
//! end-to-end (plan + execute) time for the dense/unsorted cell.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dqo_core::optimizer::{optimize, OptimizeRequest, OptimizerMode};
use dqo_core::{execute, Catalog, ExecContext};
use dqo_storage::datagen::ForeignKeySpec;
use std::hint::black_box;

fn catalog(r_sorted: bool, s_sorted: bool, dense: bool) -> Catalog {
    let catalog = Catalog::new();
    let (r, s) = ForeignKeySpec {
        r_sorted,
        s_sorted,
        dense,
        ..Default::default()
    }
    .generate()
    .expect("spec");
    catalog.register("R", r);
    catalog.register("S", s);
    catalog
}

fn optimisation_time(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5/optimise");
    let q = dqo_plan::logical::example_query_4_3();
    for (label, r_sorted, s_sorted) in [
        ("both_sorted", true, true),
        ("r_unsorted", false, true),
        ("both_unsorted", false, false),
    ] {
        let cat = catalog(r_sorted, s_sorted, true);
        for mode in [OptimizerMode::Shallow, OptimizerMode::Deep] {
            group.bench_with_input(
                BenchmarkId::new(format!("{mode}"), label),
                &mode,
                |b, &mode| {
                    b.iter(|| {
                        let planned = optimize(black_box(&q), &OptimizeRequest::new(&cat, mode))
                            .expect("plans");
                        black_box(planned.est_cost)
                    })
                },
            );
        }
    }
    group.finish();
}

fn execution_time(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5/execute_dense_unsorted");
    group.sample_size(10);
    let cat = catalog(false, false, true);
    let q = dqo_plan::logical::example_query_4_3();
    for mode in [OptimizerMode::Shallow, OptimizerMode::Deep] {
        let planned = optimize(&q, &OptimizeRequest::new(&cat, mode)).expect("plans");
        group.bench_function(format!("{mode}"), |b| {
            b.iter(|| {
                let out = execute(black_box(&planned.plan), &ExecContext::new(&cat)).expect("runs");
                black_box(out.relation.rows())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, optimisation_time, execution_time);
criterion_main!(benches);
