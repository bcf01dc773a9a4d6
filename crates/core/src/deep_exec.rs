//! Direct execution of *deep plans* — any complete point of the Figure 3
//! unnesting space runs, not just the five named §4.1 operators.
//!
//! This is the executable counterpart of `dqo_plan::deep`: a complete
//! [`DeepPlan`] for a grouping γ names a partitioning strategy
//! (index-based with a concrete table/hash/load-loop, sort-based with a
//! concrete sort molecule, or pass-through) and an aggregation loop
//! (serial or partition-parallel). [`execute_deep_grouping`] interprets
//! exactly those choices. The paper's claim that *"hash-based grouping is
//! just one of many special cases in a partition-based grouping
//! algorithm"* becomes a checkable statement: all 50 complete deep plans
//! must produce identical groups (see the equivalence tests).

use crate::error::CoreError;
use crate::Result;
use dqo_exec::aggregate::Aggregator;
use dqo_exec::bundle::{aggregate_bundle, aggregate_bundle_parallel, Bundle, GroupProducer};
use dqo_exec::grouping::hg::{with_hash_molecules, WithGroupTable};
use dqo_exec::grouping::GroupedResult;
use dqo_exec::sort::radix_sort_pairs_by_key;
use dqo_hashtable::{GroupTable, SortedArrayTable, StaticPerfectHash};
use dqo_plan::deep::{DeepPlan, Granule};
use dqo_plan::physical::GroupingMolecules;
use dqo_plan::{HashFnMolecule, LoopMolecule, SortMolecule, TableMolecule};

/// Execute a complete deep grouping plan over `(keys, values)`.
///
/// The plan must be complete ([`DeepPlan::is_complete`]) and rooted at an
/// aggregate-bundle granule (what unnesting a γ always produces).
pub fn execute_deep_grouping<A: Aggregator>(
    plan: &DeepPlan,
    keys: &[u32],
    values: &[u32],
    agg: A,
) -> Result<GroupedResult<A::State>> {
    if !plan.is_complete() {
        return Err(CoreError::Unsupported(format!(
            "deep plan has {} open decision(s); unnest it fully first",
            plan.open_decisions()
        )));
    }
    let Granule::AggregateBundle { agg_loop } = &plan.granule else {
        return Err(CoreError::Unsupported(
            "deep grouping plans are rooted at an aggregate-bundle granule".into(),
        ));
    };
    let partition = plan
        .children
        .first()
        .ok_or_else(|| CoreError::Unsupported("aggregate-bundle needs a producer".into()))?;
    let bundle = build_bundle(partition, keys)?;
    let result = match agg_loop.unwrap_or(LoopMolecule::Serial) {
        LoopMolecule::Serial => aggregate_bundle(&bundle, values, agg),
        LoopMolecule::Parallel => {
            let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
            aggregate_bundle_parallel(&bundle, values, agg, workers)
        }
    };
    Ok(result)
}

/// Materialise the partition bundle the plan's partitioning granule
/// describes (Figure 2's line 1, under each Figure 3 branch).
fn build_bundle(plan: &DeepPlan, keys: &[u32]) -> Result<Bundle> {
    match &plan.granule {
        // Index-based partitioning: scan over a bulkloaded index.
        Granule::IndexScan => {
            let build = plan
                .children
                .first()
                .ok_or_else(|| CoreError::Unsupported("index scan needs a build child".into()))?;
            let Granule::IndexBuild {
                table: Some(table),
                hash,
                load_loop: _,
            } = &build.granule
            else {
                return Err(CoreError::Unsupported(
                    "index scan must consume an index build".into(),
                ));
            };
            // The load loop molecule affects *how* the build runs; for
            // row-index tables a parallel load would need synchronisation,
            // so the interpreter builds serially and the loop choice shows
            // up in the aggregation phase (where independence is free).
            build_index_bundle(*table, *hash, keys)
        }
        // Sort-based partitioning.
        Granule::SortPartition {
            molecule: Some(molecule),
        } => Ok(sort_partition(keys, *molecule)),
        // Input already partitioned: one producer per run.
        Granule::PassThroughPartition => {
            let input = plan.children.first();
            if !matches!(input.map(|c| &c.granule), Some(Granule::Input)) {
                return Err(CoreError::Unsupported(
                    "pass-through partition must consume the input directly".into(),
                ));
            }
            pass_through_runs(keys)
        }
        other => Err(CoreError::Unsupported(format!(
            "granule {other:?} cannot produce a partition bundle"
        ))),
    }
}

fn build_index_bundle(
    table: TableMolecule,
    hash: Option<HashFnMolecule>,
    keys: &[u32],
) -> Result<Bundle> {
    fn load<T: GroupTable<Vec<u32>>>(mut t: T, keys: &[u32]) -> Bundle {
        for (row, &k) in keys.iter().enumerate() {
            t.upsert_with(k, Vec::new).push(row as u32);
        }
        let mut producers: Vec<GroupProducer> = t
            .drain()
            .into_iter()
            .map(|(key, rows)| GroupProducer { key, rows })
            .collect();
        // Bundle consumers expect key order (partition_by's contract).
        producers.sort_unstable_by_key(|p| p.key);
        Bundle { producers }
    }
    Ok(match (table, hash) {
        (
            TableMolecule::Chaining | TableMolecule::LinearProbing | TableMolecule::RobinHood,
            Some(_),
        ) => {
            struct Load<'a>(&'a [u32]);
            impl WithGroupTable<Vec<u32>> for Load<'_> {
                type Output = Bundle;
                fn run<T: GroupTable<Vec<u32>> + Send>(
                    self,
                    new_table: impl Fn() -> T + Sync,
                ) -> Bundle {
                    load(new_table(), self.0)
                }
            }
            let molecules = GroupingMolecules {
                table: Some(table),
                hash,
                load_loop: None,
            };
            with_hash_molecules(molecules, Load(keys))
        }
        (TableMolecule::StaticPerfectHash, _) => {
            let (min, max) = match (keys.iter().min(), keys.iter().max()) {
                (Some(&lo), Some(&hi)) => (lo, hi),
                _ => (0, 0),
            };
            let domain = (u64::from(max) - u64::from(min) + 1) as usize;
            load(StaticPerfectHash::new(min, domain.max(1)), keys)
        }
        (TableMolecule::SortedArray, _) => load(SortedArrayTable::new(), keys),
        (t, None) => {
            return Err(CoreError::Unsupported(format!(
                "table molecule {t} needs a hash function decision"
            )))
        }
    })
}

fn sort_partition(keys: &[u32], molecule: SortMolecule) -> Bundle {
    let mut tagged: Vec<(u32, u32)> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, i as u32))
        .collect();
    match molecule {
        SortMolecule::Comparison => tagged.sort_unstable_by_key(|&(k, _)| k),
        SortMolecule::Radix => radix_sort_pairs_by_key(&mut tagged),
    }
    let mut producers: Vec<GroupProducer> = Vec::new();
    for (k, row) in tagged {
        match producers.last_mut() {
            Some(p) if p.key == k => p.rows.push(row),
            _ => producers.push(GroupProducer {
                key: k,
                rows: vec![row],
            }),
        }
    }
    Bundle { producers }
}

fn pass_through_runs(keys: &[u32]) -> Result<Bundle> {
    let mut producers: Vec<GroupProducer> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut i = 0usize;
    while i < keys.len() {
        let k = keys[i];
        if !seen.insert(k) {
            return Err(CoreError::Exec(dqo_exec::ExecError::PreconditionViolated {
                algorithm: "pass-through partition",
                detail: format!("input not partitioned: key {k} reappears at row {i}"),
            }));
        }
        let mut rows = Vec::new();
        while i < keys.len() && keys[i] == k {
            rows.push(i as u32);
            i += 1;
        }
        producers.push(GroupProducer { key: k, rows });
    }
    producers.sort_unstable_by_key(|p| p.key);
    Ok(Bundle { producers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqo_exec::aggregate::CountSum;
    use dqo_plan::deep::enumerate_grouping_plans;
    use dqo_storage::datagen::DatasetSpec;

    fn reference(keys: &[u32], values: &[u32]) -> Vec<(u32, u64, u64)> {
        use std::collections::BTreeMap;
        let mut m: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for (&k, &v) in keys.iter().zip(values) {
            let e = m.entry(k).or_insert((0, 0));
            e.0 += 1;
            e.1 += u64::from(v);
        }
        m.into_iter().map(|(k, (c, s))| (k, c, s)).collect()
    }

    #[test]
    fn all_50_deep_plans_compute_identical_groups() {
        // Sorted + dense input satisfies every plan's precondition
        // (pass-through needs partitioned input; SPH needs density).
        let keys = DatasetSpec::new(3_000, 40)
            .sorted(true)
            .dense(true)
            .generate()
            .unwrap();
        let values = keys.clone();
        let expected = reference(&keys, &values);
        let plans = enumerate_grouping_plans();
        assert_eq!(plans.len(), 50);
        for plan in &plans {
            let mut r = execute_deep_grouping(plan, &keys, &values, CountSum)
                .unwrap_or_else(|e| panic!("plan failed: {e}\n{plan}"));
            r.sort_by_key();
            let got: Vec<(u32, u64, u64)> = r
                .keys
                .iter()
                .zip(&r.states)
                .map(|(&k, s)| (k, s.count, s.sum))
                .collect();
            assert_eq!(got, expected, "deep plan disagrees:\n{plan}");
        }
    }

    #[test]
    fn index_based_plans_work_on_unsorted_input() {
        let keys = DatasetSpec::new(2_000, 30)
            .sorted(false)
            .dense(true)
            .generate()
            .unwrap();
        let expected = reference(&keys, &keys);
        for plan in enumerate_grouping_plans() {
            // Skip the pass-through branch: its precondition needs
            // partitioned input.
            if format!("{plan}").contains("pass-through") {
                let err = execute_deep_grouping(&plan, &keys, &keys, CountSum).unwrap_err();
                assert!(err.to_string().contains("not partitioned"));
                continue;
            }
            let mut r = execute_deep_grouping(&plan, &keys, &keys, CountSum).unwrap();
            r.sort_by_key();
            let got: Vec<(u32, u64, u64)> = r
                .keys
                .iter()
                .zip(&r.states)
                .map(|(&k, s)| (k, s.count, s.sum))
                .collect();
            assert_eq!(got, expected, "{plan}");
        }
    }

    #[test]
    fn incomplete_plans_are_rejected() {
        let open = DeepPlan::logical_grouping();
        let err = execute_deep_grouping(&open, &[1], &[1], CountSum).unwrap_err();
        assert!(matches!(err, CoreError::Unsupported(_)));
    }

    #[test]
    fn empty_input_yields_empty_groups() {
        for plan in enumerate_grouping_plans() {
            let r = execute_deep_grouping(&plan, &[], &[], CountSum).unwrap();
            assert!(r.is_empty(), "{plan}");
        }
    }

    #[test]
    fn figure3d_matches_named_hg() {
        // The textbook plan (Figure 3(d)) must agree with the named HG
        // implementation — "just one of many special cases".
        let keys = DatasetSpec::new(1_000, 20).generate().unwrap();
        let plans = enumerate_grouping_plans();
        let fig3d = plans
            .iter()
            .find(|p| {
                format!("{p}").contains("chaining, hash=murmur3, load=serial")
                    && format!("{p}").contains("aggregate-bundle [serial loop]")
            })
            .unwrap();
        let mut deep = execute_deep_grouping(fig3d, &keys, &keys, CountSum).unwrap();
        deep.sort_by_key();
        let mut named = dqo_exec::grouping::hg::hash_grouping_chaining(&keys, &keys, CountSum, 20);
        named.sort_by_key();
        assert_eq!(deep.keys, named.keys);
        assert_eq!(
            deep.states.iter().map(|s| s.sum).collect::<Vec<_>>(),
            named.states.iter().map(|s| s.sum).collect::<Vec<_>>()
        );
    }
}
