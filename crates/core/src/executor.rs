//! Executes a [`PhysicalPlan`] on the `dqo-exec` engine.
//!
//! The executor is deliberately thin: every algorithmic decision was made
//! by the optimiser; this module maps plan vocabulary onto `dqo-exec`
//! implementations, moves columns around, and accounts for pipeline
//! breakers. A [`naive_eval`] reference evaluator (nested loops +
//! BTreeMap) provides the correctness oracle for integration tests.

use crate::av::{AvArtifact, AvCatalog, AvKind};
use crate::catalog::Catalog;
use crate::error::CoreError;
use crate::Result;
use dqo_exec::aggregate::{FullAgg, FullAggState};
use dqo_exec::composite::{rowwise_group, unpack_grouped, KeyPacker};
use dqo_exec::grouping::hg::hash_grouping_with_molecules;
use dqo_exec::grouping::{
    check_lengths, execute_grouping, GroupedResult, GroupingAlgorithm, GroupingHints,
};
use dqo_exec::join::{execute_join as run_join, JoinAlgorithm, JoinHints};
use dqo_exec::pipeline::{
    grouping_blocking, join_blocking, Blocking, OperatorMetrics, PipelineStats,
};
use dqo_exec::sort::{argsort, radix_sort_pairs_by_key};
use dqo_parallel::{BatchObs, GroupingStrategy, PersistentPool, ThreadPool, DEFAULT_MORSEL_ROWS};
use dqo_plan::expr::{AggExpr, AggFunc, Predicate};
use dqo_plan::{GroupingImpl, JoinImpl, LogicalPlan, PhysicalPlan};
use dqo_storage::{Column, DataType, Dictionary, Field, Relation, Schema, Value};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The result of executing a plan.
#[derive(Debug, Clone)]
pub struct ExecOutput {
    /// The result relation.
    pub relation: Relation,
    /// Pipeline-breaker accounting along the plan.
    pub pipeline: PipelineStats,
    /// One [`OperatorMetrics`] per plan node in pre-order (the numbering
    /// of [`PhysicalPlan::preorder`] and the `explain` line order) when
    /// [`ExecContext::collect_metrics`] is set; empty otherwise.
    pub operators: Vec<OperatorMetrics>,
}

/// Everything an execution reads besides the plan: the one
/// configuration [`execute`] takes.
#[derive(Clone, Copy)]
pub struct ExecContext<'a> {
    /// Tables the plan's scans read.
    pub catalog: &'a Catalog,
    /// Materialised Algorithmic Views the plan was optimised against:
    /// prebuilt SPH join indexes are probed instead of rebuilt
    /// (relation-shaped AVs are plain catalog tables already).
    pub avs: Option<&'a AvCatalog>,
    /// The pool `Exchange` nodes dispatch onto — the engine's
    /// shared-pool serving mode routes every session's batches through
    /// one pool. `None` resolves the process-wide shared pool lazily,
    /// so a plan with no `Exchange` never spawns pool workers.
    pub pool: Option<&'a Arc<PersistentPool>>,
    /// Collect per-operator [`OperatorMetrics`] into
    /// [`ExecOutput::operators`]: actual rows, inclusive wall time, the
    /// node's pipeline-stats contribution and, for `Exchange` nodes, the
    /// DOP, morsels dispatched and morsel steals. The relation produced
    /// is bit-identical either way: instrumentation only reads clocks and
    /// counters, never the data.
    pub collect_metrics: bool,
}

impl<'a> ExecContext<'a> {
    /// Execute against `catalog` alone: no AVs, the lazily resolved
    /// global pool, no per-operator metrics.
    pub fn new(catalog: &'a Catalog) -> Self {
        ExecContext {
            catalog,
            avs: None,
            pool: None,
            collect_metrics: false,
        }
    }

    /// The pool to dispatch an `Exchange` onto. Resolved only when the
    /// plan actually reaches one, so serial plans never force the
    /// process-global pool (and its parked worker threads) into
    /// existence.
    fn pool(&self) -> Arc<PersistentPool> {
        match self.pool {
            Some(pool) => Arc::clone(pool),
            None => PersistentPool::global(),
        }
    }
}

/// Execute a physical plan — the executor's one entry point.
pub fn execute(plan: &PhysicalPlan, ctx: &ExecContext<'_>) -> Result<ExecOutput> {
    let mut stats = PipelineStats::default();
    let mut obs = ctx.collect_metrics.then(|| OpCollector::new(plan));
    let relation = exec_node(plan, ctx, &mut stats, &mut obs)?;
    Ok(ExecOutput {
        relation,
        pipeline: stats,
        operators: obs.map(|c| c.nodes).unwrap_or_default(),
    })
}

/// Per-node metrics sink for an instrumented execution. Nodes are keyed
/// by address — the plan tree is borrowed immutably for the whole run, so
/// a node's address is a stable identity — and mapped to their pre-order
/// index so the metrics vector zips with the rendered plan.
struct OpCollector {
    ids: HashMap<usize, usize>,
    nodes: Vec<OperatorMetrics>,
}

impl OpCollector {
    fn new(root: &PhysicalPlan) -> Self {
        let pre = root.preorder();
        let ids = pre
            .iter()
            .enumerate()
            .map(|(i, p)| (*p as *const PhysicalPlan as usize, i))
            .collect();
        OpCollector {
            ids,
            nodes: vec![OperatorMetrics::default(); pre.len()],
        }
    }

    fn slot(&mut self, plan: &PhysicalPlan) -> Option<&mut OperatorMetrics> {
        let id = *self.ids.get(&(plan as *const PhysicalPlan as usize))?;
        Some(&mut self.nodes[id])
    }

    fn record(
        &mut self,
        plan: &PhysicalPlan,
        rows_out: u64,
        wall: std::time::Duration,
        stats: PipelineStats,
    ) {
        if let Some(m) = self.slot(plan) {
            m.rows_out = rows_out;
            m.wall = wall;
            m.stats = stats;
        }
    }
}

/// Execute one node, recording its [`OperatorMetrics`] when instrumented.
/// The untraced path short-circuits to [`exec_node_inner`] so disabled
/// observability costs one branch per node, not a clock read.
fn exec_node(
    plan: &PhysicalPlan,
    ctx: &ExecContext<'_>,
    stats: &mut PipelineStats,
    obs: &mut Option<OpCollector>,
) -> Result<Relation> {
    if obs.is_none() {
        return exec_node_inner(plan, ctx, stats, obs);
    }
    let began = Instant::now();
    let before = *stats;
    let rel = exec_node_inner(plan, ctx, stats, obs)?;
    if let Some(c) = obs.as_mut() {
        c.record(
            plan,
            rel.rows() as u64,
            began.elapsed(),
            stats.since(&before),
        );
    }
    Ok(rel)
}

fn exec_node_inner(
    plan: &PhysicalPlan,
    ctx: &ExecContext<'_>,
    stats: &mut PipelineStats,
    obs: &mut Option<OpCollector>,
) -> Result<Relation> {
    let catalog = ctx.catalog;
    match plan {
        PhysicalPlan::Scan { table } => {
            let rel = catalog.get(table)?.relation.as_ref().clone();
            stats.record(Blocking::Pipelined, rel.rows() as u64);
            Ok(rel)
        }
        PhysicalPlan::PartitionedScan { table, parts, .. } => {
            let entry = catalog.get(table)?;
            let rel = entry.relation.as_ref();
            // Surviving ranges are copied in flat row order, so a scan
            // of all partitions is bit-identical to the flat scan — and a
            // pruned scan is the flat scan minus the pruned rows, order
            // preserved. Without a partition map (spec dropped by a
            // re-register) the scan degrades to the full flat scan,
            // which is always sound.
            let rel = match &entry.partitioning {
                Some(p) if parts.len() < p.part_count() => {
                    rel.gather_ranges(&p.flat_order_ranges(parts))
                }
                _ => rel.clone(),
            };
            stats.record(Blocking::Pipelined, rel.rows() as u64);
            Ok(rel)
        }
        PhysicalPlan::Filter { input, predicate } => {
            let rel = exec_node(input, ctx, stats, obs)?;
            let mask = eval_predicate(&rel, predicate)?;
            stats.record(Blocking::Pipelined, rel.rows() as u64);
            Ok(rel.filter(&mask)?)
        }
        PhysicalPlan::Project { input, columns } => {
            let rel = exec_node(input, ctx, stats, obs)?;
            let names: Vec<&str> = columns.iter().map(String::as_str).collect();
            Ok(rel.project(&names)?)
        }
        PhysicalPlan::Sort {
            input,
            key,
            molecule,
        } => {
            let rel = exec_node(input, ctx, stats, obs)?;
            let keys = rel.column(key)?.as_u32()?;
            let order: Vec<u32> = match molecule {
                dqo_plan::SortMolecule::Comparison => argsort(keys),
                dqo_plan::SortMolecule::Radix => {
                    let mut pairs: Vec<(u32, u32)> = keys
                        .iter()
                        .enumerate()
                        .map(|(i, &k)| (k, i as u32))
                        .collect();
                    radix_sort_pairs_by_key(&mut pairs);
                    pairs.into_iter().map(|(_, i)| i).collect()
                }
            };
            stats.record(Blocking::FullBreaker, rel.rows() as u64);
            Ok(rel.gather(&order))
        }
        PhysicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
            algo,
        } => {
            // Prebuilt SPH index AV: probe it instead of rebuilding.
            let prebuilt = match (ctx.avs, *algo, left.as_ref()) {
                (Some(avs), JoinImpl::Sphj, PhysicalPlan::Scan { table }) => avs
                    .lookup(table, left_key, AvKind::SphIndex)
                    .and_then(|av| match &av.artifact {
                        Some(AvArtifact::SphIndex(idx)) => Some(idx.clone()),
                        _ => None,
                    }),
                _ => None,
            };
            let l = exec_node(left, ctx, stats, obs)?;
            let r = exec_node(right, ctx, stats, obs)?;
            if let Some(idx) = prebuilt {
                let rk = r.column(right_key)?.as_u32()?;
                let result = idx.probe(rk);
                stats.record(Blocking::Pipelined, rk.len() as u64);
                return assemble_join_output(&l, &r, &result);
            }
            exec_join(&l, &r, left_key, right_key, *algo, stats)
        }
        PhysicalPlan::GroupBy {
            input,
            keys,
            aggs,
            algo,
            molecules,
        } => {
            let rel = exec_node(input, ctx, stats, obs)?;
            let kernel = GroupKernel::Serial {
                algo: *algo,
                molecules: *molecules,
            };
            exec_group_by(&rel, keys, aggs, kernel, stats)
        }
        PhysicalPlan::Limit { input, n } => {
            let rel = exec_node(input, ctx, stats, obs)?;
            Ok(take_rows(&rel, *n))
        }
        PhysicalPlan::Exchange { input, dop } => {
            // A cheap handle: DOP for this Exchange, dispatch onto the
            // session's persistent pool. When instrumented, a per-batch
            // observation sink captures morsel and steal counts for this
            // subtree without touching the shared pool's registry.
            let mut tp = ThreadPool::with_pool(*dop, ctx.pool());
            let batch_obs = obs.as_ref().map(|_| Arc::new(BatchObs::default()));
            if let Some(b) = &batch_obs {
                tp = tp.with_obs(Arc::clone(b));
            }
            let began = Instant::now();
            let before = *stats;
            let rel = match input.as_ref() {
                PhysicalPlan::GroupBy {
                    input: child,
                    keys,
                    aggs,
                    algo,
                    molecules,
                } if matches!(
                    algo,
                    GroupingImpl::Hg | GroupingImpl::Sphg | GroupingImpl::Sog
                ) =>
                {
                    let rel = exec_node(child, ctx, stats, obs)?;
                    let bounds = partition_bounds(child, catalog, rel.rows());
                    let kernel = GroupKernel::Parallel {
                        algo: *algo,
                        molecules: *molecules,
                        pool: &tp,
                        bounds: &bounds,
                    };
                    exec_group_by(&rel, keys, aggs, kernel, stats)
                }
                PhysicalPlan::Join {
                    left,
                    right,
                    left_key,
                    right_key,
                    algo,
                } if matches!(algo, JoinImpl::Hj | JoinImpl::Sphj | JoinImpl::Soj) => {
                    let l = exec_node(left, ctx, stats, obs)?;
                    let r = exec_node(right, ctx, stats, obs)?;
                    // Partition-native seeding applies to the build side.
                    let bounds = partition_bounds(left, catalog, l.rows());
                    let lk = l.column(left_key)?.as_u32()?;
                    let rk = r.column(right_key)?.as_u32()?;
                    let (result, par_stats) = parallel_join(&tp, lk, rk, *algo, &bounds)?;
                    stats.merge(&par_stats);
                    assemble_join_output(&l, &r, &result)
                }
                PhysicalPlan::Sort {
                    input: child,
                    key,
                    molecule,
                } => {
                    let rel = exec_node(child, ctx, stats, obs)?;
                    let bounds = partition_bounds(child, catalog, rel.rows());
                    exec_sort_parallel(&rel, key, *molecule, &tp, &bounds, stats)
                }
                PhysicalPlan::Filter {
                    input: child,
                    predicate,
                } => {
                    let rel = exec_node(child, ctx, stats, obs)?;
                    let bounds = partition_bounds(child, catalog, rel.rows());
                    exec_filter_parallel(&rel, predicate, &tp, &bounds, stats)
                }
                // Anything the parallel runtime does not cover degrades
                // gracefully to the serial executor.
                other => exec_node(other, ctx, stats, obs),
            }?;
            if let Some(c) = obs.as_mut() {
                // The operator under the Exchange bypasses `exec_node` on
                // the parallel paths, so its metrics are recorded here
                // (inclusive of its children, like every other node).
                c.record(
                    input,
                    rel.rows() as u64,
                    began.elapsed(),
                    stats.since(&before),
                );
                if let Some(m) = c.slot(plan) {
                    m.dop = Some(*dop);
                    if let Some(b) = &batch_obs {
                        m.morsels = b.tasks();
                        m.steals = b.steals();
                    }
                }
            }
            Ok(rel)
        }
    }
}

/// Segment offsets, in the **output** row coordinates of `plan`, whose
/// `rows` rows a parallel operator reads. For a partitioned scan these are
/// its surviving ranges, `[0, l1, l1+l2, …, rows]` — one segment per
/// per-partition range in flat order — so parallel work over the scan
/// never crosses a partition boundary. Any other node (and a scan whose
/// partition map was dropped by a re-register) is one segment,
/// `[0, rows]`.
fn partition_bounds(plan: &PhysicalPlan, catalog: &Catalog, rows: usize) -> Vec<usize> {
    let partitioning = match plan {
        PhysicalPlan::PartitionedScan { table, parts, .. } => catalog
            .get(table)
            .ok()
            .and_then(|e| e.partitioning.clone())
            .map(|p| p.flat_order_segments(parts)),
        _ => None,
    };
    let Some(segments) = partitioning else {
        return vec![0, rows];
    };
    let mut bounds = vec![0usize];
    for (s, e) in segments {
        bounds.push(bounds.last().expect("non-empty") + (e - s));
    }
    bounds
}

/// First `n` rows of a relation: the input itself, column buffers
/// shared, when it has no more than `n` rows; else a copied prefix.
fn take_rows(rel: &Relation, n: u64) -> Relation {
    if rel.rows() as u64 <= n {
        return rel.clone();
    }
    rel.gather_ranges(&[(0, n as usize)])
}

/// Map plan vocabulary onto the execution engine.
fn to_exec_join(algo: JoinImpl) -> JoinAlgorithm {
    match algo {
        JoinImpl::Hj => JoinAlgorithm::HashBased,
        JoinImpl::Oj => JoinAlgorithm::OrderBased,
        JoinImpl::Soj => JoinAlgorithm::SortOrderBased,
        JoinImpl::Sphj => JoinAlgorithm::StaticPerfectHash,
        JoinImpl::Bsj => JoinAlgorithm::BinarySearch,
    }
}

fn to_exec_grouping(algo: GroupingImpl) -> GroupingAlgorithm {
    match algo {
        GroupingImpl::Hg => GroupingAlgorithm::HashBased,
        GroupingImpl::Sphg => GroupingAlgorithm::StaticPerfectHash,
        GroupingImpl::Og => GroupingAlgorithm::OrderBased,
        GroupingImpl::Sog => GroupingAlgorithm::SortOrderBased,
        GroupingImpl::Bsg => GroupingAlgorithm::BinarySearch,
    }
}

fn exec_join(
    l: &Relation,
    r: &Relation,
    left_key: &str,
    right_key: &str,
    algo: JoinImpl,
    stats: &mut PipelineStats,
) -> Result<Relation> {
    let lk = l.column(left_key)?.as_u32()?;
    let rk = r.column(right_key)?.as_u32()?;
    let hints = JoinHints {
        build_min: lk.iter().copied().min(),
        build_max: lk.iter().copied().max(),
        build_distinct: None,
    };
    let result = run_join(to_exec_join(algo), lk, rk, &hints)?;
    stats.record(
        join_blocking(to_exec_join(algo)),
        (lk.len() + rk.len()) as u64,
    );
    assemble_join_output(l, r, &result)
}

fn assemble_join_output(
    l: &Relation,
    r: &Relation,
    result: &dqo_exec::join::JoinResult,
) -> Result<Relation> {
    concat_columns(&l.gather(&result.left_rows), &r.gather(&result.right_rows))
}

/// Concatenate the columns of two equal-length relations under the
/// qualified join schema. The column buffers are shared, not copied, and
/// `Str` dictionaries carry across with them.
fn concat_columns(left: &Relation, right: &Relation) -> Result<Relation> {
    let schema = left.schema().join(right.schema(), "right")?;
    let mut columns = Vec::with_capacity(schema.width());
    let mut dictionaries = Vec::with_capacity(schema.width());
    for side in [left, right] {
        for i in 0..side.schema().width() {
            columns.push(side.column_arc_at(i)?);
            dictionaries.push(side.dictionary_at(i)?.cloned());
        }
    }
    let mut rel = Relation::from_arcs(schema, columns)?;
    for (i, dict) in dictionaries.into_iter().enumerate() {
        if let Some(dict) = dict {
            rel = rel.with_dictionary_at(i, dict)?;
        }
    }
    Ok(rel)
}

/// The output shape of one grouping key column: its field (name + type,
/// `U32` or `Str`) and, for dictionary-encoded columns, the dictionary to
/// re-attach so downstream consumers can decode the codes.
type KeyLayout = (Field, Option<Arc<Dictionary>>);

/// Resolve the output layout of the grouping key columns from the input
/// relation (names, types, dictionaries).
fn key_layouts(rel: &Relation, keys: &[String]) -> Result<Vec<KeyLayout>> {
    keys.iter()
        .map(|k| {
            let field = rel.schema().field(k)?.clone();
            let dict = rel.dictionary(k)?.cloned();
            Ok((field, dict))
        })
        .collect()
}

/// The grouping kernel a `GroupBy` runs on its key column — the raw
/// column for a single key, the packed codes for a composite one. Only
/// the kernel differs between serial and `Exchange`-dispatched grouping;
/// key layouts, packing, the row-wise fallback, unpacking and output
/// assembly are shared ([`exec_group_by`]).
enum GroupKernel<'a> {
    /// The serial organelle, with HG dispatched onto the optimiser-chosen
    /// table/hash molecules.
    Serial {
        algo: GroupingImpl,
        molecules: dqo_plan::physical::GroupingMolecules,
    },
    /// Morsel-parallel HG/SPHG through `dqo-parallel`'s thread-local
    /// aggregation (HG on the same table/hash molecules as serial), or
    /// SOG through the parallel sort subsystem, seeded by the input's
    /// segment `bounds`. Bit-identical to serial at any DOP: packing is
    /// deterministic and the parallel merges are.
    Parallel {
        algo: GroupingImpl,
        molecules: dqo_plan::physical::GroupingMolecules,
        pool: &'a ThreadPool,
        bounds: &'a [usize],
    },
}

impl GroupKernel<'_> {
    /// Group `values` by `data`, returning the grouped result plus the
    /// kernel's own pipeline accounting.
    fn run(
        &self,
        data: &[u32],
        values: &[u32],
    ) -> Result<(GroupedResult<FullAggState>, PipelineStats)> {
        // The kernels zip keys with values; a length mismatch would
        // silently truncate the input, so it is an error in every build.
        check_lengths(data, values)?;
        match *self {
            GroupKernel::Serial { algo, molecules } => {
                let exec_algo = to_exec_grouping(algo);
                let (min, max) = min_max(data);
                let hints = GroupingHints {
                    min: Some(min),
                    max: Some(max),
                    distinct: None,
                    known_keys: None,
                };
                // Molecule-aware dispatch for the hash organelle: the
                // optimiser's table/hash decision selects the concrete
                // implementation.
                let result = if algo == GroupingImpl::Hg {
                    hash_grouping_with_molecules(data, values, FullAgg, molecules)
                } else {
                    execute_grouping(exec_algo, data, values, FullAgg, &hints)?
                };
                let mut stats = PipelineStats::default();
                stats.record(grouping_blocking(exec_algo), data.len() as u64);
                Ok((result, stats))
            }
            GroupKernel::Parallel {
                algo,
                molecules,
                pool,
                bounds,
            } => Ok(if algo == GroupingImpl::Sog {
                let molecule = dqo_parallel::RunSortMolecule::Comparison;
                dqo_parallel::parallel_sog(pool, data, values, FullAgg, molecule, bounds)?
            } else {
                let strategy = match algo {
                    GroupingImpl::Sphg => {
                        let (min, max) = min_max(data);
                        GroupingStrategy::StaticPerfectHash { min, max }
                    }
                    _ => GroupingStrategy::Hash(molecules),
                };
                dqo_parallel::parallel_grouping(
                    pool,
                    data,
                    values,
                    FullAgg,
                    strategy,
                    bounds,
                    DEFAULT_MORSEL_ROWS,
                )?
            }),
        }
    }
}

/// Group `rel` by `keys` with `kernel`. A single key runs the kernel on
/// the raw column; a composite key is packed into the u32 code domain
/// where the per-column widths allow, runs the very same kernel on the
/// packed codes and is unpacked afterwards; an unpackable composite falls
/// back to the row-wise kernel.
fn exec_group_by(
    rel: &Relation,
    keys: &[String],
    aggs: &[AggExpr],
    kernel: GroupKernel<'_>,
    stats: &mut PipelineStats,
) -> Result<Relation> {
    let layouts = key_layouts(rel, keys)?;
    let key_cols: Vec<&[u32]> = keys
        .iter()
        .map(|k| Ok(rel.column(k)?.as_u32()?))
        .collect::<Result<_>>()?;
    let value_col = agg_input_column(aggs)?;
    let values: &[u32] = match value_col {
        Some(name) => rel.column(name)?.as_u32()?,
        None => key_cols[0],
    };

    let packed_storage;
    let (packer, data): (Option<KeyPacker>, &[u32]) = if keys.len() == 1 {
        (None, key_cols[0])
    } else {
        match KeyPacker::fit(&key_cols) {
            Some(p) => {
                packed_storage = p.pack(&key_cols);
                (Some(p), packed_storage.as_slice())
            }
            None => {
                let (cols, states) = rowwise_group(&key_cols, values, FullAgg);
                stats.record(Blocking::FullBreaker, key_cols[0].len() as u64);
                return grouped_to_relation(&layouts, cols, aggs, &states);
            }
        }
    };
    let (result, kernel_stats) = kernel.run(data, values)?;
    stats.merge(&kernel_stats);
    match packer {
        Some(packer) => {
            let (cols, states) = unpack_grouped(&packer, result);
            grouped_to_relation(&layouts, cols, aggs, &states)
        }
        None => grouped_to_relation(&layouts, vec![result.keys.clone()], aggs, &result.states),
    }
}

/// Assemble a grouping output relation: one column per grouping key (with
/// its original type and dictionary) + one column per aggregate.
fn grouped_to_relation(
    layouts: &[KeyLayout],
    key_columns: Vec<Vec<u32>>,
    aggs: &[AggExpr],
    states: &[FullAggState],
) -> Result<Relation> {
    debug_assert_eq!(layouts.len(), key_columns.len());
    let mut fields = Vec::with_capacity(layouts.len() + aggs.len());
    let mut columns = Vec::with_capacity(layouts.len() + aggs.len());
    for ((field, _), data) in layouts.iter().zip(key_columns) {
        fields.push(field.clone());
        columns.push(match field.data_type {
            DataType::Str => Column::Str(data),
            _ => Column::U32(data),
        });
    }
    for agg in aggs {
        let (field, column) = materialise_agg(agg, states)?;
        fields.push(field);
        columns.push(column);
    }
    let mut rel = Relation::new(Schema::new(fields)?, columns)?;
    for (idx, (_, dict)) in layouts.iter().enumerate() {
        if let Some(dict) = dict {
            rel = rel.with_dictionary_at(idx, Arc::clone(dict))?;
        }
    }
    Ok(rel)
}

/// The parallel run-sort molecule matching a plan-side [`dqo_plan::SortMolecule`].
fn to_run_molecule(molecule: dqo_plan::SortMolecule) -> dqo_parallel::RunSortMolecule {
    match molecule {
        dqo_plan::SortMolecule::Comparison => dqo_parallel::RunSortMolecule::Comparison,
        dqo_plan::SortMolecule::Radix => dqo_parallel::RunSortMolecule::Radix,
    }
}

/// Morsel-parallel sort enforcer (dispatched from an `Exchange` node):
/// parallel run formation + Merge Path merge produce the stable argsort
/// permutation, bit-identical to the serial enforcer at any DOP.
fn exec_sort_parallel(
    rel: &Relation,
    key: &str,
    molecule: dqo_plan::SortMolecule,
    pool: &ThreadPool,
    bounds: &[usize],
    stats: &mut PipelineStats,
) -> Result<Relation> {
    let keys = rel.column(key)?.as_u32()?;
    let (order, par_stats) =
        dqo_parallel::parallel_argsort(pool, keys, to_run_molecule(molecule), bounds)?;
    stats.merge(&par_stats);
    Ok(rel.gather(&order))
}

/// Morsel-parallel join kernels (dispatched from an `Exchange` node):
/// partitioned parallel HJ or parallel-sort SOJ seeded by the build
/// side's segment `bounds`, or a parallel-probe SPHJ.
fn parallel_join(
    pool: &ThreadPool,
    lk: &[u32],
    rk: &[u32],
    algo: JoinImpl,
    bounds: &[usize],
) -> Result<(dqo_exec::join::JoinResult, PipelineStats)> {
    Ok(match algo {
        JoinImpl::Soj => {
            let molecule = dqo_parallel::RunSortMolecule::Comparison;
            dqo_parallel::parallel_sort_merge_join(pool, lk, rk, molecule, bounds)?
        }
        JoinImpl::Sphj => match (lk.iter().copied().min(), lk.iter().copied().max()) {
            (Some(min), Some(max)) => {
                dqo_parallel::parallel_sph_join(pool, lk, rk, min, max, DEFAULT_MORSEL_ROWS)?
            }
            // Empty build side: no matches, nothing to build.
            _ => Default::default(),
        },
        _ => dqo_parallel::parallel_hash_join(pool, lk, rk, bounds, DEFAULT_MORSEL_ROWS)?,
    })
}

/// Morsel-parallel filter (dispatched from an `Exchange` node): every
/// morsel evaluates and counts its predicate mask in parallel, the masks
/// compact in morsel order into one selection of global row ids, and one
/// parallel gather materialises it.
fn exec_filter_parallel(
    rel: &Relation,
    predicate: &Predicate,
    pool: &ThreadPool,
    bounds: &[usize],
    stats: &mut PipelineStats,
) -> Result<Relation> {
    let out = dqo_parallel::parallel_filter(pool, rel, bounds, DEFAULT_MORSEL_ROWS, |m| {
        eval_predicate_range(rel, predicate, m.start, m.end)
    })?;
    stats.record(Blocking::Pipelined, rel.rows() as u64);
    Ok(out)
}

/// All aggregates must read the same input column (engine restriction,
/// enforced by the SQL binder as well).
fn agg_input_column(aggs: &[AggExpr]) -> Result<Option<&str>> {
    let mut col: Option<&str> = None;
    for a in aggs {
        if let Some(c) = &a.column {
            match col {
                None => col = Some(c),
                Some(existing) if existing == c => {}
                Some(existing) => {
                    return Err(CoreError::Unsupported(format!(
                        "aggregates over multiple columns ({existing}, {c}) in one GROUP BY"
                    )))
                }
            }
        }
    }
    Ok(col)
}

fn materialise_agg(agg: &AggExpr, states: &[FullAggState]) -> Result<(Field, Column)> {
    Ok(match agg.func {
        AggFunc::CountStar => (
            Field::new(&agg.alias, DataType::U64),
            Column::U64(states.iter().map(|s| s.count).collect()),
        ),
        AggFunc::Sum => (
            Field::new(&agg.alias, DataType::U64),
            Column::U64(states.iter().map(|s| s.sum).collect()),
        ),
        AggFunc::Min => (
            Field::new(&agg.alias, DataType::U32),
            Column::U32(states.iter().map(|s| s.min).collect()),
        ),
        AggFunc::Max => (
            Field::new(&agg.alias, DataType::U32),
            Column::U32(states.iter().map(|s| s.max).collect()),
        ),
        AggFunc::Avg => (
            Field::new(&agg.alias, DataType::F64),
            Column::F64(states.iter().map(|s| s.avg().unwrap_or(0.0)).collect()),
        ),
    })
}

fn min_max(keys: &[u32]) -> (u32, u32) {
    let mut lo = u32::MAX;
    let mut hi = 0;
    for &k in keys {
        lo = lo.min(k);
        hi = hi.max(k);
    }
    if keys.is_empty() {
        (0, 0)
    } else {
        (lo, hi)
    }
}

fn eval_predicate(rel: &Relation, pred: &Predicate) -> Result<Vec<bool>> {
    eval_predicate_range(rel, pred, 0, rel.rows())
}

/// Evaluate a predicate over the row range `[start, end)` — the morsel
/// granularity the parallel filter runs at (serial evaluation is simply
/// the full-range call).
fn eval_predicate_range(
    rel: &Relation,
    pred: &Predicate,
    start: usize,
    end: usize,
) -> Result<Vec<bool>> {
    let rows = end - start;
    match pred {
        Predicate::And(ps) => {
            let mut mask = vec![true; rows];
            for p in ps {
                let m = eval_predicate_range(rel, p, start, end)?;
                for (a, b) in mask.iter_mut().zip(m) {
                    *a &= b;
                }
            }
            Ok(mask)
        }
        Predicate::Compare { column, op, value } => {
            let col = rel.column(column)?;
            // Dictionary-encoded string column vs string literal: compare
            // once per *code* (under real string order, regardless of how
            // codes were assigned), then mask rows by table lookup.
            if col.data_type() == DataType::Str {
                let Value::Str(lit) = value else {
                    return Err(CoreError::Unsupported(format!(
                        "string column '{column}' compared to non-string literal {value}"
                    )));
                };
                let dict = str_dictionary(rel, column)?;
                let table = dict.match_table(|s| op.eval(s.cmp(lit.as_str())));
                return mask_by_code_table(col.as_u32()?, &table, start, end, column);
            }
            // Fast path for the dominant u32 case.
            if let (Ok(data), Some(v)) = (col.as_u32(), value.as_u32()) {
                return Ok(data[start..end]
                    .iter()
                    .map(|&x| op.eval(x.cmp(&v)))
                    .collect());
            }
            let mut mask = Vec::with_capacity(rows);
            for row in start..end {
                let cell = col.value_at(row)?;
                let ord = cell.total_cmp(value).ok_or_else(|| {
                    CoreError::Unsupported(format!("cross-type comparison {column} vs {value}"))
                })?;
                mask.push(op.eval(ord));
            }
            Ok(mask)
        }
        Predicate::Prefix { column, prefix } => {
            let col = rel.column(column)?;
            if col.data_type() != DataType::Str {
                return Err(CoreError::Unsupported(format!(
                    "LIKE on non-string column '{column}'"
                )));
            }
            let dict = str_dictionary(rel, column)?;
            let table = dict.match_table(|s| s.starts_with(prefix.as_str()));
            mask_by_code_table(col.as_u32()?, &table, start, end, column)
        }
        Predicate::Like { column, pattern } => {
            let col = rel.column(column)?;
            if col.data_type() != DataType::Str {
                return Err(CoreError::Unsupported(format!(
                    "LIKE on non-string column '{column}'"
                )));
            }
            let dict = str_dictionary(rel, column)?;
            let table = dict.match_table(|s| dqo_plan::like_match(pattern, s));
            mask_by_code_table(col.as_u32()?, &table, start, end, column)
        }
    }
}

/// The dictionary of a `Str` column, or a clear error when none is
/// attached (codes without a dictionary cannot be compared to strings).
fn str_dictionary<'a>(rel: &'a Relation, column: &str) -> Result<&'a Arc<Dictionary>> {
    rel.dictionary(column)?.ok_or_else(|| {
        CoreError::Unsupported(format!(
            "string column '{column}' has no dictionary attached"
        ))
    })
}

/// Apply a per-code boolean table to the code column over `[start, end)`.
/// The codes are validated first, so the mask is collected at its exact
/// size by an infallible lookup.
fn mask_by_code_table(
    codes: &[u32],
    table: &[bool],
    start: usize,
    end: usize,
    column: &str,
) -> Result<Vec<bool>> {
    let codes = &codes[start..end];
    if let Some(c) = codes.iter().find(|&&c| c as usize >= table.len()) {
        return Err(CoreError::Unsupported(format!(
            "code {c} of column '{column}' missing from its dictionary"
        )));
    }
    Ok(codes.iter().map(|&c| table[c as usize]).collect())
}

// ---------------------------------------------------------------------------
// Reference evaluator
// ---------------------------------------------------------------------------

/// Direct evaluation of a *logical* plan with naive algorithms — the
/// oracle for executor correctness tests. Group-by output is ordered by
/// key; joins are nested loops.
pub fn naive_eval(plan: &LogicalPlan, catalog: &Catalog) -> Result<Relation> {
    match plan {
        LogicalPlan::Scan { table } => Ok(catalog.get(table)?.relation.as_ref().clone()),
        LogicalPlan::Filter { input, predicate } => {
            let rel = naive_eval(input, catalog)?;
            let mask = eval_predicate(&rel, predicate)?;
            // The oracle selects with its own obvious loop rather than the
            // engine's `select` kernel, so a kernel bug cannot hide by also
            // corrupting the reference.
            let sel: Vec<u32> = (0..rel.rows())
                .filter(|&i| mask[i])
                .map(|i| i as u32)
                .collect();
            Ok(rel.gather(&sel))
        }
        LogicalPlan::Project { input, columns } => {
            let rel = naive_eval(input, catalog)?;
            let names: Vec<&str> = columns.iter().map(String::as_str).collect();
            Ok(rel.project(&names)?)
        }
        LogicalPlan::Sort { input, key } => {
            let rel = naive_eval(input, catalog)?;
            let keys = rel.column(key)?.as_u32()?;
            Ok(rel.gather(&argsort(keys)))
        }
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
        } => {
            let l = naive_eval(left, catalog)?;
            let r = naive_eval(right, catalog)?;
            let lk = l.column(left_key)?.as_u32()?;
            let rk = r.column(right_key)?.as_u32()?;
            let mut li = Vec::new();
            let mut ri = Vec::new();
            for (i, &a) in lk.iter().enumerate() {
                for (j, &b) in rk.iter().enumerate() {
                    if a == b {
                        li.push(i as u32);
                        ri.push(j as u32);
                    }
                }
            }
            concat_columns(&l.gather(&li), &r.gather(&ri))
        }
        LogicalPlan::Limit { input, n } => {
            let rel = naive_eval(input, catalog)?;
            Ok(take_rows(&rel, *n))
        }
        LogicalPlan::GroupBy { input, keys, aggs } => {
            let rel = naive_eval(input, catalog)?;
            let layouts = key_layouts(&rel, keys)?;
            let key_cols: Vec<&[u32]> = keys
                .iter()
                .map(|k| Ok(rel.column(k)?.as_u32()?))
                .collect::<Result<_>>()?;
            let value_col = agg_input_column(aggs)?;
            let values: &[u32] = match value_col {
                Some(name) => rel.column(name)?.as_u32()?,
                None => key_cols[0],
            };
            // The oracle groups with its own BTreeMap loop over the raw
            // key tuples — deliberately NOT the engine's kernels (packed
            // or `rowwise_group`), so a kernel bug cannot hide by also
            // corrupting the reference. Output in ascending tuple order.
            let rows = key_cols[0].len();
            let mut groups: std::collections::BTreeMap<Vec<u32>, FullAggState> =
                std::collections::BTreeMap::new();
            use dqo_exec::Aggregator;
            for row in 0..rows {
                let tuple: Vec<u32> = key_cols.iter().map(|c| c[row]).collect();
                FullAgg.update(groups.entry(tuple).or_default(), values[row]);
            }
            let mut cols = vec![Vec::with_capacity(groups.len()); keys.len()];
            let mut states = Vec::with_capacity(groups.len());
            for (tuple, state) in groups {
                for (col, v) in cols.iter_mut().zip(tuple) {
                    col.push(v);
                }
                states.push(state);
            }
            grouped_to_relation(&layouts, cols, aggs, &states)
        }
    }
}

/// All rows of a relation as `Value` vectors, sorted — result comparison
/// helper for tests (execution order is plan-dependent by design).
pub fn sorted_rows(rel: &Relation) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = (0..rel.rows())
        .map(|r| rel.row(r).expect("in bounds"))
        .collect();
    rows.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b) {
            match x.total_cmp(y) {
                Some(std::cmp::Ordering::Equal) | None => continue,
                Some(other) => return other,
            }
        }
        std::cmp::Ordering::Equal
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{optimize, OptimizeRequest, OptimizerMode};
    use dqo_plan::expr::CmpOp;
    use dqo_storage::datagen::{DatasetSpec, ForeignKeySpec};

    #[test]
    fn group_kernels_reject_mismatched_lengths_in_every_build() {
        let pool = ThreadPool::new(2);
        let kernels = [
            GroupKernel::Serial {
                algo: GroupingImpl::Hg,
                molecules: Default::default(),
            },
            GroupKernel::Parallel {
                algo: GroupingImpl::Sphg,
                molecules: Default::default(),
                pool: &pool,
                bounds: &[0, 2],
            },
        ];
        for kernel in kernels {
            assert_eq!(
                kernel.run(&[1, 2], &[1]).unwrap_err(),
                CoreError::Exec(dqo_exec::ExecError::LengthMismatch { keys: 2, values: 1 })
            );
        }
    }

    fn check_plan_matches_naive(logical: &LogicalPlan, catalog: &Catalog) {
        let naive = naive_eval(logical, catalog).unwrap();
        for mode in [OptimizerMode::Shallow, OptimizerMode::Deep] {
            let planned = optimize(logical, &OptimizeRequest::new(catalog, mode)).unwrap();
            let out = execute(&planned.plan, &ExecContext::new(catalog)).unwrap();
            assert_eq!(
                sorted_rows(&out.relation),
                sorted_rows(&naive),
                "{mode} plan {:?} disagrees with naive",
                planned.plan.algo_signature()
            );
        }
    }

    #[test]
    fn grouping_end_to_end_all_dataset_shapes() {
        for sorted in [true, false] {
            for dense in [true, false] {
                let cat = Catalog::new();
                cat.register(
                    "t",
                    DatasetSpec::new(3_000, 50)
                        .sorted(sorted)
                        .dense(dense)
                        .relation()
                        .unwrap(),
                );
                let q = LogicalPlan::group_by(
                    LogicalPlan::scan("t"),
                    "key",
                    vec![
                        AggExpr::count_star("n"),
                        AggExpr::on(AggFunc::Sum, "key", "total"),
                    ],
                );
                check_plan_matches_naive(&q, &cat);
            }
        }
    }

    #[test]
    fn figure5_query_end_to_end_all_shapes() {
        for r_sorted in [true, false] {
            for s_sorted in [true, false] {
                for dense in [true, false] {
                    let cat = Catalog::new();
                    let (r, s) = ForeignKeySpec {
                        r_rows: 500,
                        s_rows: 1_500,
                        groups: 80,
                        r_sorted,
                        s_sorted,
                        dense,
                        seed: 42,
                    }
                    .generate()
                    .unwrap();
                    cat.register("R", r);
                    cat.register("S", s);
                    let q = dqo_plan::logical::example_query_4_3();
                    check_plan_matches_naive(&q, &cat);
                }
            }
        }
    }

    #[test]
    fn filter_and_project_end_to_end() {
        let cat = Catalog::new();
        cat.register("t", DatasetSpec::new(2_000, 40).relation().unwrap());
        let q = LogicalPlan::group_by(
            LogicalPlan::filter(
                LogicalPlan::scan("t"),
                Predicate::cmp("key", CmpOp::Lt, 20u32),
            ),
            "key",
            vec![AggExpr::count_star("n")],
        );
        check_plan_matches_naive(&q, &cat);
        // And verify the filter actually filtered.
        let planned = optimize(&q, &OptimizeRequest::new(&cat, OptimizerMode::Deep)).unwrap();
        let out = execute(&planned.plan, &ExecContext::new(&cat)).unwrap();
        let keys = out.relation.column("key").unwrap().as_u32().unwrap();
        assert!(keys.iter().all(|&k| k < 20));
        assert_eq!(keys.len(), 20);
    }

    #[test]
    fn sort_node_end_to_end() {
        let cat = Catalog::new();
        cat.register("t", DatasetSpec::new(500, 30).relation().unwrap());
        let q = LogicalPlan::sort(LogicalPlan::scan("t"), "key");
        let planned = optimize(&q, &OptimizeRequest::new(&cat, OptimizerMode::Deep)).unwrap();
        let out = execute(&planned.plan, &ExecContext::new(&cat)).unwrap();
        let keys = out.relation.column("key").unwrap().as_u32().unwrap();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(out.pipeline.breakers, 1); // exactly the sort
    }

    #[test]
    fn aggregate_matrix_min_max_avg() {
        let cat = Catalog::new();
        let rel = Relation::new(
            Schema::new(vec![
                Field::new("g", DataType::U32),
                Field::new("v", DataType::U32),
            ])
            .unwrap(),
            vec![
                Column::U32(vec![1, 1, 2, 2, 2]),
                Column::U32(vec![10, 20, 5, 15, 25]),
            ],
        )
        .unwrap();
        cat.register("t", rel);
        let q = LogicalPlan::group_by(
            LogicalPlan::scan("t"),
            "g",
            vec![
                AggExpr::on(AggFunc::Min, "v", "lo"),
                AggExpr::on(AggFunc::Max, "v", "hi"),
                AggExpr::on(AggFunc::Avg, "v", "mean"),
                AggExpr::on(AggFunc::Sum, "v", "total"),
                AggExpr::count_star("n"),
            ],
        );
        let planned = optimize(&q, &OptimizeRequest::new(&cat, OptimizerMode::Deep)).unwrap();
        let out = execute(&planned.plan, &ExecContext::new(&cat)).unwrap();
        let rows = sorted_rows(&out.relation);
        assert_eq!(rows.len(), 2);
        // group 1: min 10, max 20, avg 15, sum 30, n 2
        assert_eq!(rows[0][1], Value::U32(10));
        assert_eq!(rows[0][2], Value::U32(20));
        assert_eq!(rows[0][3], Value::F64(15.0));
        assert_eq!(rows[0][4], Value::U64(30));
        assert_eq!(rows[0][5], Value::U64(2));
    }

    #[test]
    fn mixed_agg_columns_rejected() {
        let aggs = vec![
            AggExpr::on(AggFunc::Sum, "a", "x"),
            AggExpr::on(AggFunc::Min, "b", "y"),
        ];
        assert!(matches!(
            agg_input_column(&aggs),
            Err(CoreError::Unsupported(_))
        ));
    }

    #[test]
    fn exchange_nodes_execute_correctly_and_degrade_gracefully() {
        let cat = Catalog::new();
        cat.register(
            "t",
            DatasetSpec::new(4_000, 32)
                .sorted(false)
                .dense(true)
                .relation()
                .unwrap(),
        );
        let aggs = vec![
            AggExpr::count_star("n"),
            AggExpr::on(AggFunc::Sum, "key", "total"),
        ];
        let group_by = |algo| PhysicalPlan::GroupBy {
            input: Box::new(PhysicalPlan::Scan { table: "t".into() }),
            keys: vec!["key".into()],
            aggs: aggs.clone(),
            algo,
            molecules: dqo_plan::physical::GroupingMolecules::defaults_for(algo),
        };
        let serial = execute(&group_by(GroupingImpl::Sphg), &ExecContext::new(&cat)).unwrap();
        for algo in [GroupingImpl::Sphg, GroupingImpl::Hg] {
            for dop in [2, 4] {
                let plan = PhysicalPlan::Exchange {
                    input: Box::new(group_by(algo)),
                    dop,
                };
                let par = execute(&plan, &ExecContext::new(&cat)).unwrap();
                assert_eq!(
                    sorted_rows(&par.relation),
                    sorted_rows(&serial.relation),
                    "{algo:?} dop={dop}"
                );
                assert!(par.pipeline.breakers >= 2, "input pass + merge");
            }
        }
        // Exchange{Sort} dispatches the parallel sort subsystem — output
        // must be ascending (and, per the oracle tests, bit-identical to
        // the serial enforcer).
        let sort_plan = PhysicalPlan::Exchange {
            input: Box::new(PhysicalPlan::Sort {
                input: Box::new(PhysicalPlan::Scan { table: "t".into() }),
                key: "key".into(),
                molecule: dqo_plan::SortMolecule::Comparison,
            }),
            dop: 4,
        };
        let out = execute(&sort_plan, &ExecContext::new(&cat)).unwrap();
        let keys = out.relation.column("key").unwrap().as_u32().unwrap();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        // An Exchange around an operator the runtime genuinely does not
        // cover (BSG grouping has no parallel twin) must fall back to
        // serial execution, not fail.
        let bsg_plan = PhysicalPlan::Exchange {
            input: Box::new(group_by(GroupingImpl::Bsg)),
            dop: 4,
        };
        let fallback = execute(&bsg_plan, &ExecContext::new(&cat)).unwrap();
        assert_eq!(
            sorted_rows(&fallback.relation),
            sorted_rows(&serial.relation),
            "BSG fallback"
        );
    }

    #[test]
    fn parallel_join_exchange_matches_serial() {
        let cat = Catalog::new();
        let (r, s) = ForeignKeySpec {
            r_rows: 1_000,
            s_rows: 3_000,
            groups: 50,
            r_sorted: false,
            s_sorted: false,
            dense: true,
            seed: 9,
        }
        .generate()
        .unwrap();
        cat.register("R", r);
        cat.register("S", s);
        let join = |algo| PhysicalPlan::Join {
            left: Box::new(PhysicalPlan::Scan { table: "R".into() }),
            right: Box::new(PhysicalPlan::Scan { table: "S".into() }),
            left_key: "id".into(),
            right_key: "r_id".into(),
            algo,
        };
        let serial = execute(&join(JoinImpl::Hj), &ExecContext::new(&cat)).unwrap();
        for algo in [JoinImpl::Hj, JoinImpl::Sphj] {
            let plan = PhysicalPlan::Exchange {
                input: Box::new(join(algo)),
                dop: 4,
            };
            let par = execute(&plan, &ExecContext::new(&cat)).unwrap();
            assert_eq!(par.relation.rows(), 3_000);
            assert_eq!(
                sorted_rows(&par.relation),
                sorted_rows(&serial.relation),
                "{algo:?}"
            );
        }
    }

    #[test]
    fn parallel_filter_exchange_matches_serial() {
        let cat = Catalog::new();
        cat.register("t", DatasetSpec::new(5_000, 100).relation().unwrap());
        let filter = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Scan { table: "t".into() }),
            predicate: Predicate::cmp("key", CmpOp::Lt, 30u32),
        };
        let serial = execute(&filter, &ExecContext::new(&cat)).unwrap();
        let par = execute(
            &PhysicalPlan::Exchange {
                input: Box::new(filter),
                dop: 4,
            },
            &ExecContext::new(&cat),
        )
        .unwrap();
        // Masks concatenate in morsel order: row order is preserved, so
        // the outputs are identical, not merely equal as sets.
        assert_eq!(
            par.relation.column("key").unwrap().as_u32().unwrap(),
            serial.relation.column("key").unwrap().as_u32().unwrap()
        );
    }

    #[test]
    fn pipeline_stats_distinguish_plans() {
        let cat = Catalog::new();
        cat.register(
            "t",
            DatasetSpec::new(1_000, 10).sorted(true).relation().unwrap(),
        );
        let q = LogicalPlan::group_by(
            LogicalPlan::scan("t"),
            "key",
            vec![AggExpr::count_star("n")],
        );
        // Deep mode picks OG on sorted input → zero breakers.
        let deep = optimize(&q, &OptimizeRequest::new(&cat, OptimizerMode::Deep)).unwrap();
        let out = execute(&deep.plan, &ExecContext::new(&cat)).unwrap();
        assert_eq!(out.pipeline.breakers, 0, "OG must stream");
    }
}
