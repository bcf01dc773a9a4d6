//! Criterion bench for **optimisation time** (E8): SQO vs DQO planning
//! latency, with and without AVs in the catalog, plus the cost of
//! exhaustively unnesting a γ down to molecules (the Figure 3 space).

use criterion::{criterion_group, criterion_main, Criterion};
use dqo_core::av::{plan_av, AvCatalog, AvKind, AvSignature};
use dqo_core::optimizer::{optimize, OptimizeRequest, OptimizerMode};
use dqo_core::Catalog;
use dqo_plan::deep::enumerate_grouping_plans;
use dqo_storage::datagen::ForeignKeySpec;
use std::hint::black_box;

fn opt_time(c: &mut Criterion) {
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
    let q = dqo_plan::logical::example_query_4_3();

    let mut group = c.benchmark_group("opt_time");
    for mode in [OptimizerMode::Shallow, OptimizerMode::Deep] {
        group.bench_function(format!("{mode}/plain"), |b| {
            b.iter(|| {
                black_box(
                    optimize(black_box(&q), &OptimizeRequest::new(&catalog, mode))
                        .expect("plans")
                        .est_cost,
                )
            })
        });
    }

    // With AVs registered, the optimiser has extra leaf alternatives.
    let avs = AvCatalog::new();
    for kind in [AvKind::SortedProjection, AvKind::SphIndex] {
        avs.register(plan_av(&catalog, &AvSignature::new("R", "id", kind)).expect("plans"));
    }
    let req = OptimizeRequest {
        avs: Some(&avs),
        ..OptimizeRequest::new(&catalog, OptimizerMode::Deep)
    };
    group.bench_function("DQO/with_avs", |b| {
        b.iter(|| black_box(optimize(black_box(&q), &req).expect("plans").est_cost))
    });

    group.bench_function("unnest/full_gamma_space", |b| {
        b.iter(|| black_box(enumerate_grouping_plans().len()))
    });
    group.finish();
}

criterion_group!(benches, opt_time);
criterion_main!(benches);
