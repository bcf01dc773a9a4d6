//! Order-based Grouping (OG) — §4.1.
//!
//! *"This implementation requires the input data to be partitioned by the
//! grouping key. We iterate sequentially over the input data, create a
//! group for the very first occurrence of a grouping key, and insert this
//! group at the first empty slot in the array. As long as the grouping key
//! remains the same, the corresponding aggregates are updated."*
//!
//! Note the precondition is *partitioned* (equal keys contiguous), not
//! *sorted* — a strictly weaker property, and itself a DQO plan property.
//! The violation check costs one hash-set probe per **run boundary** (≈ one
//! per group), so it adds nothing measurable to the per-tuple loop that
//! gives OG its flat Figure-4 profile.

use crate::aggregate::Aggregator;
use crate::error::ExecError;
use crate::grouping::GroupedResult;
use crate::Result;
use std::collections::HashSet;

/// Order-based grouping. Errors if the input is not partitioned by key.
pub fn order_grouping<A: Aggregator>(
    keys: &[u32],
    values: &[u32],
    agg: A,
) -> Result<GroupedResult<A::State>> {
    let mut keys_out: Vec<u32> = Vec::new();
    let mut states: Vec<A::State> = Vec::new();
    let mut seen: HashSet<u32> = HashSet::new();
    let mut ascending = true;

    let mut i = 0usize;
    while i < keys.len() {
        let run_key = keys[i];
        if !seen.insert(run_key) {
            return Err(ExecError::PreconditionViolated {
                algorithm: "OG",
                detail: format!(
                    "input not partitioned by grouping key: key {run_key} reappears at row {i}"
                ),
            });
        }
        if let Some(&prev) = keys_out.last() {
            ascending &= prev < run_key;
        }
        keys_out.push(run_key);
        let mut state = A::State::default();
        // Consume the whole run.
        while i < keys.len() && keys[i] == run_key {
            agg.update(&mut state, values[i]);
            i += 1;
        }
        states.push(state);
    }

    Ok(GroupedResult {
        sorted_by_key: ascending,
        keys: keys_out,
        states,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::CountSum;

    #[test]
    fn groups_sorted_input() {
        let keys = [1u32, 1, 3, 3, 3, 7];
        let vals = [10u32, 20, 1, 2, 3, 100];
        let r = order_grouping(&keys, &vals, CountSum).unwrap();
        assert!(r.sorted_by_key);
        assert_eq!(r.keys, vec![1, 3, 7]);
        assert_eq!(
            r.states
                .iter()
                .map(|s| (s.count, s.sum))
                .collect::<Vec<_>>(),
            vec![(2, 30), (3, 6), (1, 100)]
        );
    }

    #[test]
    fn partitioned_but_unsorted_is_accepted() {
        // Equal keys contiguous, but runs not ascending: valid OG input,
        // output not flagged sorted.
        let keys = [5u32, 5, 2, 2, 9];
        let vals = [1u32; 5];
        let r = order_grouping(&keys, &vals, CountSum).unwrap();
        assert!(!r.sorted_by_key);
        assert_eq!(r.keys, vec![5, 2, 9]);
    }

    #[test]
    fn unpartitioned_input_rejected() {
        let keys = [1u32, 2, 1];
        let vals = [0u32; 3];
        let r = order_grouping(&keys, &vals, CountSum);
        assert!(matches!(
            r,
            Err(ExecError::PreconditionViolated {
                algorithm: "OG",
                ..
            })
        ));
    }

    #[test]
    fn empty_input() {
        let r = order_grouping(&[], &[], CountSum).unwrap();
        assert!(r.is_empty());
        assert!(r.sorted_by_key); // vacuously ascending
    }

    #[test]
    fn single_run() {
        let keys = vec![4u32; 1000];
        let vals = vec![2u32; 1000];
        let r = order_grouping(&keys, &vals, CountSum).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.states[0].sum, 2000);
    }

    #[test]
    fn descending_runs_not_flagged_ascending() {
        let keys = [9u32, 9, 4, 1];
        let vals = [0u32; 4];
        let r = order_grouping(&keys, &vals, CountSum).unwrap();
        assert!(!r.sorted_by_key);
        assert_eq!(r.keys, vec![9, 4, 1]);
    }
}
