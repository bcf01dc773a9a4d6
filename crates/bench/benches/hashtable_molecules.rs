//! Criterion bench for the **molecule ablation** (E9): the same hash
//! grouping organelle over different table/hash-function molecules.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dqo_exec::aggregate::CountSum;
use dqo_exec::grouping::hg::{hash_grouping, hash_grouping_chaining};
use dqo_exec::grouping::sphg::sph_grouping;
use dqo_hashtable::hash_fn::{Fibonacci, Identity, Murmur3Finalizer};
use dqo_hashtable::{LinearProbingTable, RobinHoodTable};
use dqo_storage::datagen::DatasetSpec;
use std::hint::black_box;

const ROWS: usize = 1_000_000;
const GROUPS: usize = 10_000;

fn molecules(c: &mut Criterion) {
    let keys = DatasetSpec::new(ROWS, GROUPS)
        .sorted(false)
        .dense(true)
        .generate()
        .expect("spec");
    let mut group = c.benchmark_group("molecules/unsorted_dense_10k_groups");
    group.throughput(Throughput::Elements(ROWS as u64));
    group.sample_size(10);

    group.bench_function("chaining+murmur3 (paper HG)", |b| {
        b.iter(|| {
            black_box(hash_grouping_chaining(black_box(&keys), &keys, CountSum, GROUPS).len())
        })
    });
    group.bench_function("linear+murmur3", |b| {
        b.iter(|| {
            black_box(
                hash_grouping(
                    black_box(&keys),
                    &keys,
                    CountSum,
                    LinearProbingTable::with_capacity_and_hasher(GROUPS, Murmur3Finalizer),
                )
                .len(),
            )
        })
    });
    group.bench_function("linear+fibonacci", |b| {
        b.iter(|| {
            black_box(
                hash_grouping(
                    black_box(&keys),
                    &keys,
                    CountSum,
                    LinearProbingTable::with_capacity_and_hasher(GROUPS, Fibonacci),
                )
                .len(),
            )
        })
    });
    group.bench_function("linear+identity", |b| {
        b.iter(|| {
            black_box(
                hash_grouping(
                    black_box(&keys),
                    &keys,
                    CountSum,
                    LinearProbingTable::with_capacity_and_hasher(GROUPS, Identity),
                )
                .len(),
            )
        })
    });
    group.bench_function("robinhood+murmur3", |b| {
        b.iter(|| {
            black_box(
                hash_grouping(
                    black_box(&keys),
                    &keys,
                    CountSum,
                    RobinHoodTable::with_capacity_and_hasher(GROUPS, Murmur3Finalizer),
                )
                .len(),
            )
        })
    });
    group.bench_function("sph (structural)", |b| {
        b.iter(|| {
            black_box(
                sph_grouping(black_box(&keys), &keys, CountSum, 0, GROUPS as u32 - 1)
                    .expect("dense")
                    .len(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, molecules);
criterion_main!(benches);
