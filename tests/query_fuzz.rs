//! Randomised differential query harness over the widened SQL surface:
//! random schemas (u32 + dictionary-encoded `Str` columns), random tables,
//! and random queries mixing string predicates (`=`, `<`, `>`, prefix
//! `LIKE`) with single- and multi-column `GROUP BY`. Every query must
//! agree, bit-identically in sorted canonical form, across
//!
//! * the naive reference evaluator (`naive_eval`),
//! * the planned engine at DOP 1, 2 and 8,
//! * explicitly `Exchange`-wrapped physical plans at DOP 2 and 8 (so the
//!   parallel kernels run even below the optimiser's break-even), and
//! * an AV-backed engine (AVSP-selected views materialised first).
//!
//! Seeds are pinned: the proptest shim derives a deterministic per-test
//! RNG from the test name, so any failure reproduces exactly across runs
//! and machines (failing cases are printed as generated). The case count
//! is bounded and overridable via `QUERY_FUZZ_CASES` for the CI matrix.

use dqo::core::av::{AvKind, AvSignature};
use dqo::core::avsp::{Solver, WorkloadQuery};
use dqo::core::executor::{execute, naive_eval, sorted_rows, ExecContext};
use dqo::plan::PhysicalPlan;
use dqo::storage::{
    Column, DataType, Dictionary, Field, PartitionSpec, PartitionedRelation, Relation, Schema,
    Value,
};
use dqo::{Dqo, Engine};
use proptest::prelude::*;
use std::sync::Arc;

/// A compact word pool with heavy prefix sharing — the interesting shape
/// for dictionary predicates and prefix LIKE.
const WORDS: &[&str] = &[
    "alpha", "alps", "beta", "bravo", "brim", "charlie", "chart", "delta", "deep", "echo",
];

const PREFIXES: &[&str] = &["a", "al", "b", "br", "ch", "de", "e", "zzz", ""];

/// General LIKE shapes beyond the prefix fast path: contains, anchored
/// both ends, `_` single-char wildcards, and patterns that force the
/// matcher to backtrack over the shared-prefix word pool.
const LIKE_PATTERNS: &[&str] = &[
    "%a%", "a%a", "b_a%", "%t_", "_e%", "%lp%", "%o", "c_a%", "%e_%", "____",
];

fn fuzz_cases() -> u32 {
    std::env::var("QUERY_FUZZ_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(32)
}

/// Build a table t(k, v, s): `k` a small-domain u32 key, `v` a u32
/// payload, `s` a dictionary-encoded string. Both dictionary encodings
/// are exercised (first-occurrence and order-preserving).
fn build_table(raw: &[(u32, u32, u8)], k_groups: u32, sorted_dict: bool) -> Relation {
    let k: Vec<u32> = raw.iter().map(|(a, _, _)| a % k_groups).collect();
    let v: Vec<u32> = raw.iter().map(|(_, b, _)| b % 1_000).collect();
    let strings: Vec<&str> = raw
        .iter()
        .map(|(_, _, c)| WORDS[*c as usize % WORDS.len()])
        .collect();
    let (dict, codes) = if sorted_dict {
        Dictionary::encode_all_sorted(&strings)
    } else {
        Dictionary::encode_all(&strings)
    };
    Relation::new(
        Schema::new(vec![
            Field::new("k", DataType::U32),
            Field::new("v", DataType::U32),
            Field::new("s", DataType::Str),
        ])
        .unwrap(),
        vec![Column::U32(k), Column::U32(v), Column::Str(codes)],
    )
    .unwrap()
    .with_dictionary("s", Arc::new(dict))
    .unwrap()
}

/// Assemble a random query over t(k, v, s) from the generator's raw
/// draws. Aggregate aliases deliberately avoid the canonical
/// "count"/"sum" names so materialised-grouping AVs (whose artifacts
/// carry an extra column) never match — the AV leg then exercises the
/// schema-preserving kinds (sorted projections, SPH indexes).
fn build_query(shape: u8, preds: &[(u8, u8)], aggs_pick: u8, order: bool) -> String {
    let (keys, group): (&str, &str) = match shape % 7 {
        0 => ("k", "k"),
        1 => ("s", "s"),
        2 => ("s, k", "s, k"),
        3 => ("k, s", "k, s"),
        4 => ("k, s", ""),
        // SELECT a subset / reordering of the grouping keys: the binder
        // must project the grouped output down to the selected columns.
        5 => ("k", "s, k"),
        _ => ("s, k", "k, s"),
    };
    let mut sql = String::from("SELECT ");
    sql.push_str(keys);
    if !group.is_empty() {
        let agg_list: &str = match aggs_pick % 4 {
            0 => ", COUNT(*) AS n",
            1 => ", COUNT(*) AS n, SUM(v) AS t",
            2 => ", MIN(v) AS lo, MAX(v) AS hi, COUNT(*) AS n",
            _ => ", AVG(v) AS m, COUNT(*) AS n",
        };
        sql.push_str(agg_list);
    }
    sql.push_str(" FROM t");
    let mut conjuncts: Vec<String> = Vec::new();
    for &(kind, param) in preds {
        let word = WORDS[param as usize % WORDS.len()];
        match kind % 6 {
            0 => conjuncts.push(format!("k < {}", param % 40)),
            1 => conjuncts.push(format!("s = '{word}'")),
            2 => conjuncts.push(format!("s < '{word}'")),
            3 => conjuncts.push(format!("s > '{word}'")),
            4 => conjuncts.push(format!(
                "s LIKE '{}%'",
                PREFIXES[param as usize % PREFIXES.len()]
            )),
            _ => conjuncts.push(format!(
                "s LIKE '{}'",
                LIKE_PATTERNS[param as usize % LIKE_PATTERNS.len()]
            )),
        }
    }
    if !conjuncts.is_empty() {
        sql.push_str(" WHERE ");
        sql.push_str(&conjuncts.join(" AND "));
    }
    if !group.is_empty() {
        sql.push_str(" GROUP BY ");
        sql.push_str(group);
        if order {
            sql.push_str(" ORDER BY ");
            sql.push_str(group.split(',').next().unwrap().trim());
        }
    }
    sql
}

/// Recursively wrap every parallelisable operator in `Exchange{dop}` —
/// forcing the parallel twins to run regardless of the cost model's
/// break-even, which is what a differential harness wants on small
/// random tables.
fn parallelise(plan: &PhysicalPlan, dop: usize) -> PhysicalPlan {
    match plan {
        PhysicalPlan::Scan { .. } | PhysicalPlan::PartitionedScan { .. } => plan.clone(),
        PhysicalPlan::Filter { input, predicate } => PhysicalPlan::Exchange {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(parallelise(input, dop)),
                predicate: predicate.clone(),
            }),
            dop,
        },
        PhysicalPlan::Sort {
            input,
            key,
            molecule,
        } => PhysicalPlan::Exchange {
            input: Box::new(PhysicalPlan::Sort {
                input: Box::new(parallelise(input, dop)),
                key: key.clone(),
                molecule: *molecule,
            }),
            dop,
        },
        PhysicalPlan::GroupBy {
            input,
            keys,
            aggs,
            algo,
            molecules,
        } => PhysicalPlan::Exchange {
            input: Box::new(PhysicalPlan::GroupBy {
                input: Box::new(parallelise(input, dop)),
                keys: keys.clone(),
                aggs: aggs.clone(),
                algo: *algo,
                molecules: *molecules,
            }),
            dop,
        },
        PhysicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
            algo,
        } => PhysicalPlan::Exchange {
            input: Box::new(PhysicalPlan::Join {
                left: Box::new(parallelise(left, dop)),
                right: Box::new(parallelise(right, dop)),
                left_key: left_key.clone(),
                right_key: right_key.clone(),
                algo: *algo,
            }),
            dop,
        },
        PhysicalPlan::Project { input, columns } => PhysicalPlan::Project {
            input: Box::new(parallelise(input, dop)),
            columns: columns.clone(),
        },
        PhysicalPlan::Limit { input, n } => PhysicalPlan::Limit {
            input: Box::new(parallelise(input, dop)),
            n: *n,
        },
        PhysicalPlan::Exchange { input, .. } => parallelise(input, dop),
    }
}

fn check_differential(rel: Relation, sql: &str) -> std::result::Result<(), String> {
    // Reference: the naive evaluator over the bound logical plan.
    let reference_db = Dqo::with_engine(Engine::new().with_threads(1));
    reference_db.register_table("t", rel.clone());
    let logical = reference_db
        .compile(sql)
        .map_err(|e| format!("compile {sql}: {e}"))?;
    let naive = naive_eval(&logical, reference_db.engine().catalog())
        .map_err(|e| format!("naive {sql}: {e}"))?;
    let expect = sorted_rows(&naive);

    // Planned engine at DOP 1 / 2 / 8.
    for threads in [1usize, 2, 8] {
        let db = Dqo::with_engine(Engine::new().with_threads(threads));
        db.register_table("t", rel.clone());
        let out = db
            .sql(sql)
            .map_err(|e| format!("threads={threads} {sql}: {e}"))?;
        if sorted_rows(&out.output.relation) != expect {
            return Err(format!(
                "threads={threads} diverges from naive for {sql}\nplan:\n{}",
                out.planned.plan.explain()
            ));
        }
    }

    // Forced-parallel physical plans at DOP 2 / 8 (below break-even the
    // optimiser would stay serial; wrap its serial plan explicitly).
    let planned = reference_db
        .engine()
        .plan(&logical)
        .map_err(|e| format!("plan {sql}: {e}"))?;
    for dop in [2usize, 8] {
        let wrapped = parallelise(&planned.plan, dop);
        let out = execute(&wrapped, &ExecContext::new(reference_db.engine().catalog()))
            .map_err(|e| format!("forced dop={dop} {sql}: {e}"))?;
        if sorted_rows(&out.relation) != expect {
            return Err(format!(
                "forced Exchange dop={dop} diverges for {sql}\nplan:\n{}",
                wrapped.explain()
            ));
        }
    }

    // AV-backed: select + materialise views for this very query, then
    // re-run. Plans may now scan sorted projections / probe SPH indexes.
    let av_db = Dqo::with_engine(Engine::new().with_threads(2));
    av_db.register_table("t", rel);
    av_db
        .engine()
        .select_and_materialise_avs(
            &[WorkloadQuery::new(Arc::clone(&logical), 10.0)],
            usize::MAX,
            Solver::Greedy,
        )
        .map_err(|e| format!("avsp {sql}: {e}"))?;
    let out = av_db
        .sql(sql)
        .map_err(|e| format!("av-backed {sql}: {e}"))?;
    if sorted_rows(&out.output.relation) != expect {
        return Err(format!(
            "AV-backed plan diverges for {sql}\nplan:\n{}",
            out.planned.plan.explain()
        ));
    }
    Ok(())
}

/// One interleaved op: `(is_insert, rows, shape, preds, aggs_pick, order)`.
/// Inserts splice the raw draws through the same `(k, v, s)` mapping as
/// [`build_table`]; queries go through [`build_query`].
type RwOp = (bool, Vec<(u32, u32, u8)>, u8, Vec<(u8, u8)>, u8, bool);

/// Send one multi-row parameterised INSERT (u32 and Str `?` params) to
/// `db`, blocking on any background AV rebuild it triggered.
fn apply_insert(
    db: &Dqo,
    rows: &[(u32, u32, u8)],
    k_groups: u32,
) -> std::result::Result<(), String> {
    let mut sql = String::from("INSERT INTO t VALUES ");
    let mut params = Vec::with_capacity(rows.len() * 3);
    for (i, (a, b, c)) in rows.iter().enumerate() {
        if i > 0 {
            sql.push_str(", ");
        }
        sql.push_str("(?, ?, ?)");
        params.push(Value::U32(a % k_groups));
        params.push(Value::U32(b % 1_000));
        params.push(Value::Str(WORDS[*c as usize % WORDS.len()].to_string()));
    }
    let mut report = db
        .insert(&sql, &params)
        .map_err(|e| format!("{sql}: {e}"))?;
    report
        .wait_for_rebuilds()
        .map_err(|e| format!("rebuild after {sql}: {e}"))?;
    Ok(())
}

/// The mixed read/write differential: one identical insert/query op
/// sequence applied to the naive reference (DOP 1), the planned engine
/// at DOP 2 and 8, and an AV-backed engine whose views were
/// materialised *before* the writes — so every insert exercises the
/// delta maintenance of all three AV kinds mid-workload. Every query in
/// the interleaving must agree with the naive evaluator over the
/// reference engine's live catalog.
fn check_mixed_rw(
    raw: &[(u32, u32, u8)],
    k_groups: u32,
    sorted_dict: bool,
    ops: &[RwOp],
) -> std::result::Result<(), String> {
    let rel = build_table(raw, k_groups, sorted_dict);
    let reference_db = Dqo::with_engine(Engine::new().with_threads(1));
    reference_db.register_table("t", rel.clone());
    let parallel_dbs: Vec<(usize, Dqo)> = [2usize, 8]
        .into_iter()
        .map(|threads| {
            let db = Dqo::with_engine(Engine::new().with_threads(threads));
            db.register_table("t", rel.clone());
            (threads, db)
        })
        .collect();

    // AV-backed engine: all three kinds on `k`, built before any write.
    let av_db = Dqo::with_engine(Engine::new().with_threads(2));
    av_db.register_table("t", rel);
    let builder = av_db.engine().av_builder();
    for kind in [
        AvKind::SortedProjection,
        AvKind::SphIndex,
        AvKind::MaterialisedGrouping,
    ] {
        builder
            .build(&AvSignature::new("t", "k", kind))
            .map_err(|e| format!("AV build {kind}: {e}"))?;
    }

    for (op_idx, (is_insert, rows, shape, preds, aggs_pick, order)) in ops.iter().enumerate() {
        if *is_insert {
            apply_insert(&reference_db, rows, k_groups)?;
            for (_, db) in &parallel_dbs {
                apply_insert(db, rows, k_groups)?;
            }
            apply_insert(&av_db, rows, k_groups)?;
            continue;
        }
        let sql = build_query(*shape, preds, *aggs_pick, *order);
        let logical = reference_db
            .compile(&sql)
            .map_err(|e| format!("op {op_idx} compile {sql}: {e}"))?;
        let naive = naive_eval(&logical, reference_db.engine().catalog())
            .map_err(|e| format!("op {op_idx} naive {sql}: {e}"))?;
        let expect = sorted_rows(&naive);
        for (threads, db) in &parallel_dbs {
            let out = db
                .sql(&sql)
                .map_err(|e| format!("op {op_idx} threads={threads} {sql}: {e}"))?;
            if sorted_rows(&out.output.relation) != expect {
                return Err(format!(
                    "op {op_idx} threads={threads} diverges after writes for {sql}\nplan:\n{}",
                    out.planned.plan.explain()
                ));
            }
        }
        let out = av_db
            .sql(&sql)
            .map_err(|e| format!("op {op_idx} av-backed {sql}: {e}"))?;
        if sorted_rows(&out.output.relation) != expect {
            return Err(format!(
                "op {op_idx} AV-backed diverges after writes for {sql}\nplan:\n{}",
                out.planned.plan.explain()
            ));
        }
    }
    Ok(())
}

/// The partitioned arm: re-lay the same random table under a random
/// partitioning (range or hash, 1–16 parts, on the key or the payload
/// column) and require
///
/// * **naive agreement** — the partitioned engine matches the naive
///   evaluator over its own flat layout at DOP 1/2/8, and
/// * **pruning soundness** — an identically partitioned engine with
///   pruning disabled returns the same result: a partition may be
///   pruned only if scanning it anyway changes nothing. Queries without
///   a GROUP BY are compared byte-for-byte (scan/filter pipelines emit
///   flat row order); grouped queries in sorted canonical form.
fn check_partitioned(
    raw: &[(u32, u32, u8)],
    k_groups: u32,
    sorted_dict: bool,
    scheme_pick: u8,
    parts_pick: u8,
    on_v: bool,
    sql: &str,
) -> std::result::Result<(), String> {
    let rel = build_table(raw, k_groups, sorted_dict);
    let parts = [1usize, 2, 3, 5, 16][parts_pick as usize % 5];
    let (column, domain) = if on_v {
        ("v", 1_000u32)
    } else {
        ("k", k_groups)
    };
    let spec = if scheme_pick.is_multiple_of(2) {
        let mut bounds: Vec<u32> = (1..parts)
            .map(|i| (u64::from(domain) * i as u64 / parts as u64) as u32)
            .collect();
        bounds.dedup();
        PartitionSpec::range(column, bounds)
    } else {
        PartitionSpec::hash(column, parts)
    };
    let pr = PartitionedRelation::new(rel, spec.clone())
        .map_err(|e| format!("partition {spec:?}: {e}"))?;

    let flat_db = Dqo::with_engine(Engine::new().with_threads(1));
    flat_db.register_table("t", pr.flat().clone());
    let logical = flat_db
        .compile(sql)
        .map_err(|e| format!("compile {sql}: {e}"))?;
    let naive = naive_eval(&logical, flat_db.engine().catalog())
        .map_err(|e| format!("naive {sql}: {e}"))?;
    let expect = sorted_rows(&naive);

    let grouped = sql.contains("GROUP BY");
    for threads in [1usize, 2, 8] {
        let on = Dqo::with_engine(Engine::new().with_threads(threads));
        on.register_table_partitioned("t", pr.clone());
        let out_on = on
            .sql(sql)
            .map_err(|e| format!("threads={threads} {spec:?} {sql}: {e}"))?;
        if sorted_rows(&out_on.output.relation) != expect {
            return Err(format!(
                "partitioned threads={threads} {spec:?} diverges from naive for {sql}\nplan:\n{}",
                out_on.planned.plan.explain()
            ));
        }

        let off = Dqo::with_engine(Engine::new().with_threads(threads).with_pruning(false));
        off.register_table_partitioned("t", pr.clone());
        let out_off = off
            .sql(sql)
            .map_err(|e| format!("pruning-off threads={threads} {spec:?} {sql}: {e}"))?;
        let (a, b) = (&out_on.output.relation, &out_off.output.relation);
        let sound = if grouped {
            sorted_rows(a) == sorted_rows(b)
        } else {
            a.rows() == b.rows()
                && (0..a.schema().width()).all(|c| {
                    format!("{:?}", a.column_at(c).unwrap())
                        == format!("{:?}", b.column_at(c).unwrap())
                })
        };
        if !sound {
            return Err(format!(
                "pruning unsound at threads={threads} {spec:?} for {sql}\npruned plan:\n{}\nfull plan:\n{}",
                out_on.planned.plan.explain(),
                out_off.planned.plan.explain()
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    #[test]
    fn random_queries_agree_across_naive_parallel_and_av_plans(
        raw in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u8>()), 0..400),
        k_groups in 1u32..24,
        sorted_dict in any::<bool>(),
        shape in any::<u8>(),
        preds in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..3),
        aggs_pick in any::<u8>(),
        order in any::<bool>(),
    ) {
        let rel = build_table(&raw, k_groups, sorted_dict);
        let sql = build_query(shape, &preds, aggs_pick, order);
        check_differential(rel, &sql)?;
    }

    #[test]
    fn random_partitionings_agree_with_naive_and_prune_soundly(
        raw in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u8>()), 0..400),
        k_groups in 1u32..24,
        sorted_dict in any::<bool>(),
        scheme_pick in any::<u8>(),
        parts_pick in any::<u8>(),
        on_v in any::<bool>(),
        shape in any::<u8>(),
        preds in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..3),
        aggs_pick in any::<u8>(),
        order in any::<bool>(),
    ) {
        let sql = build_query(shape, &preds, aggs_pick, order);
        check_partitioned(&raw, k_groups, sorted_dict, scheme_pick, parts_pick, on_v, &sql)?;
    }

    #[test]
    fn random_insert_query_interleavings_agree(
        raw in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u8>()), 1..200),
        k_groups in 1u32..24,
        sorted_dict in any::<bool>(),
        ops in proptest::collection::vec(
            (
                any::<bool>(),
                proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u8>()), 1..12),
                any::<u8>(),
                proptest::collection::vec((any::<u8>(), any::<u8>()), 0..3),
                any::<u8>(),
                any::<bool>(),
            ),
            1..6,
        ),
    ) {
        check_mixed_rw(&raw, k_groups, sorted_dict, &ops)?;
    }
}

/// The acceptance-criteria query, pinned: a multi-column GROUP BY with a
/// string predicate runs parser → optimiser → `Exchange{dop}` and returns
/// identical results across serial, DOP {1,2,8} and AV-backed plans.
#[test]
fn acceptance_multi_column_group_by_with_string_predicate() {
    let raw: Vec<(u32, u32, u8)> = (0..120_000u32)
        .map(|i| {
            (
                i.wrapping_mul(2654435761),
                i.wrapping_mul(40503),
                (i % 251) as u8,
            )
        })
        .collect();
    let rel = build_table(&raw, 16, false);
    let sql = "SELECT s, k, COUNT(*) AS n, SUM(v) AS t FROM t \
               WHERE s LIKE 'b%' AND k < 12 GROUP BY s, k";

    let serial_db = Dqo::with_engine(Engine::new().with_threads(1));
    serial_db.register_table("t", rel.clone());
    let logical = serial_db.compile(sql).unwrap();
    let naive = sorted_rows(&naive_eval(&logical, serial_db.engine().catalog()).unwrap());
    let serial = serial_db.sql(sql).unwrap();
    assert_eq!(sorted_rows(&serial.output.relation), naive);
    assert!(!serial.planned.plan.explain().contains("Exchange"));

    for threads in [2usize, 8] {
        let db = Dqo::with_engine(Engine::new().with_threads(threads));
        db.register_table("t", rel.clone());
        let out = db.sql(sql).unwrap();
        assert!(
            out.planned.plan.explain().contains("Exchange"),
            "120k rows at dop {threads} must parallelise:\n{}",
            out.planned.plan.explain()
        );
        assert_eq!(
            sorted_rows(&out.output.relation),
            naive,
            "threads={threads}"
        );
        // The grouped output decodes its string keys.
        let first = out.output.relation.value_at(0, "s").unwrap();
        assert!(
            matches!(first, Value::Str(ref s) if s.starts_with('b')),
            "{first:?}"
        );
    }

    let av_db = Dqo::with_engine(Engine::new().with_threads(2));
    av_db.register_table("t", rel);
    av_db
        .engine()
        .select_and_materialise_avs(
            &[WorkloadQuery::new(Arc::clone(&logical), 10.0)],
            usize::MAX,
            Solver::Greedy,
        )
        .unwrap();
    let out = av_db.sql(sql).unwrap();
    assert_eq!(sorted_rows(&out.output.relation), naive, "AV-backed");
}

/// Composite materialised-grouping AVs answer the canonical
/// `(keys…, count, sum-of-first-key)` query shape by scan.
#[test]
fn composite_grouping_av_answers_canonical_shape() {
    let raw: Vec<(u32, u32, u8)> = (0..50_000u32)
        .map(|i| (i.wrapping_mul(48271), i, (i % 97) as u8))
        .collect();
    // Two u32 keys so SUM over the first key is expressible in SQL.
    let k: Vec<u32> = raw.iter().map(|(a, _, _)| a % 8).collect();
    let v: Vec<u32> = raw.iter().map(|(_, b, _)| b % 5).collect();
    let rel = Relation::new(
        Schema::new(vec![
            Field::new("a", DataType::U32),
            Field::new("b", DataType::U32),
        ])
        .unwrap(),
        vec![Column::U32(k), Column::U32(v)],
    )
    .unwrap();
    let sql = "SELECT a, b, COUNT(*) AS count, SUM(a) AS sum FROM t GROUP BY a, b";

    let plain = Dqo::with_engine(Engine::new().with_threads(1));
    plain.register_table("t", rel.clone());
    let logical = plain.compile(sql).unwrap();
    let expect = sorted_rows(&plain.sql(sql).unwrap().output.relation);

    let av_db = Dqo::with_engine(Engine::new().with_threads(1));
    av_db.register_table("t", rel);
    av_db
        .engine()
        .select_and_materialise_avs(
            &[WorkloadQuery::new(logical, 100.0)],
            usize::MAX,
            Solver::Greedy,
        )
        .unwrap();
    // The composite AV is registered under the canonical a+b name…
    assert!(av_db
        .engine()
        .avs()
        .lookup("t", "a+b", dqo::core::av::AvKind::MaterialisedGrouping)
        .is_some());
    // …the planner answers the query by scanning it…
    let out = av_db.sql(sql).unwrap();
    assert!(
        out.planned
            .plan
            .explain()
            .contains("__av::materialised-grouping::t::a+b"),
        "plan must scan the composite AV:\n{}",
        out.planned.plan.explain()
    );
    // …and the answers are identical.
    assert_eq!(sorted_rows(&out.output.relation), expect);
}
