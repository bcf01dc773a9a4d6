//! Property tests for the storage substrate: statistics vs oracles,
//! generator guarantees, codec roundtrips, and the mask → selection →
//! gather materialisation path vs a plain `filter_map` reference.

use dqo_storage::datagen::DatasetSpec;
use dqo_storage::rowcodec::{decode_rows, encode_rows};
use dqo_storage::stats::ColumnStats;
use dqo_storage::{select, Column, DataType, Dictionary, Field, Relation, Schema};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A strategy-friendly pool of short strings: arbitrary bytes mapped onto
/// a compact alphabet so duplicates and shared prefixes are common (the
/// interesting cases for dictionaries and prefix predicates).
fn word(x: u32) -> String {
    let alphabet = ["ap", "ba", "ca", "do", "el", "fi", "go", "hu"];
    let a = alphabet[(x & 7) as usize];
    let b = alphabet[((x >> 3) & 7) as usize];
    let tail = (x >> 6) & 3;
    format!("{a}{b}{tail}")
}

proptest! {
    #[test]
    fn stats_match_btreeset_oracle(data in proptest::collection::vec(any::<u32>(), 0..2000)) {
        let s = ColumnStats::compute(&data);
        let set: BTreeSet<u32> = data.iter().copied().collect();
        prop_assert_eq!(s.distinct, set.len() as u64);
        prop_assert_eq!(s.rows, data.len() as u64);
        if let (Some(&lo), Some(&hi)) = (set.first(), set.last()) {
            prop_assert_eq!((s.min, s.max), (lo, hi));
        }
        let asc = data.windows(2).all(|w| w[0] <= w[1]);
        prop_assert_eq!(s.sortedness.is_sorted() && s.sortedness == dqo_storage::Sortedness::Ascending, asc || data.len() <= 1 && s.sortedness == dqo_storage::Sortedness::Ascending);
    }

    #[test]
    fn dataset_spec_guarantees(
        rows in 1usize..3000,
        groups in 1usize..200,
        sorted in any::<bool>(),
        dense in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let data = DatasetSpec::new(rows, groups)
            .sorted(sorted)
            .dense(dense)
            .seed(seed)
            .generate()
            .unwrap();
        prop_assert_eq!(data.len(), rows);
        let s = ColumnStats::compute(&data);
        // Exactly min(groups, rows) distinct values, always.
        prop_assert_eq!(s.distinct, groups.min(rows) as u64);
        if sorted {
            prop_assert!(s.sortedness.is_sorted());
        }
        if dense {
            prop_assert!(s.density().is_dense());
            prop_assert_eq!(s.min, 0);
        }
    }

    #[test]
    fn rowcodec_roundtrips_arbitrary_relations(
        keys in proptest::collection::vec(any::<u32>(), 0..300),
        floats in proptest::collection::vec(any::<f64>().prop_filter("finite", |f| f.is_finite()), 0..300),
    ) {
        let n = keys.len().min(floats.len());
        let schema = Schema::new(vec![
            Field::new("k", DataType::U32),
            Field::new("f", DataType::F64),
        ]).unwrap();
        let rel = Relation::new(
            schema,
            vec![
                Column::U32(keys[..n].to_vec()),
                Column::F64(floats[..n].to_vec()),
            ],
        ).unwrap();
        let back = decode_rows(rel.schema(), encode_rows(&rel)).unwrap();
        prop_assert_eq!(back.rows(), n);
        for r in 0..n {
            prop_assert_eq!(back.row(r).unwrap(), rel.row(r).unwrap());
        }
    }

    #[test]
    fn dictionary_roundtrips_and_stays_dense(raw in proptest::collection::vec(any::<u32>(), 0..600)) {
        let strings: Vec<String> = raw.iter().map(|&x| word(x)).collect();
        for sorted in [false, true] {
            let (dict, codes) = if sorted {
                Dictionary::encode_all_sorted(&strings)
            } else {
                Dictionary::encode_all(&strings)
            };
            // encode → decode identity, row by row.
            prop_assert_eq!(codes.len(), strings.len());
            for (code, s) in codes.iter().zip(&strings) {
                prop_assert_eq!(dict.decode(*code).unwrap(), s.as_str());
                prop_assert_eq!(dict.lookup(s), Some(*code));
            }
            // The code domain is dense over [0, n) for both encodings.
            let domain = dict.code_domain();
            prop_assert_eq!(domain.end as usize, dict.len());
            prop_assert!(codes.iter().all(|c| domain.contains(c)));
            let distinct: BTreeSet<&str> = strings.iter().map(String::as_str).collect();
            prop_assert_eq!(dict.len(), distinct.len());
        }
    }

    #[test]
    fn sorted_dictionary_code_order_is_string_order(raw in proptest::collection::vec(any::<u32>(), 1..600)) {
        let strings: Vec<String> = raw.iter().map(|&x| word(x)).collect();
        let (dict, codes) = Dictionary::encode_all_sorted(&strings);
        prop_assert!(dict.is_order_preserving());
        // code order == string order, for every pair of rows.
        for (i, &ci) in codes.iter().enumerate() {
            for (j, &cj) in codes.iter().enumerate() {
                prop_assert_eq!(
                    ci.cmp(&cj),
                    strings[i].cmp(&strings[j]),
                    "rows {} ('{}') vs {} ('{}')", i, &strings[i], j, &strings[j]
                );
            }
        }
        // match_table agrees with direct evaluation on every code.
        let table = dict.match_table(|s| s.starts_with("ap"));
        for &c in &codes {
            prop_assert_eq!(table[c as usize], dict.decode(c).unwrap().starts_with("ap"));
        }
    }

    #[test]
    fn gather_then_filter_consistency(
        data in proptest::collection::vec(any::<u32>(), 1..500),
        threshold in any::<u32>(),
    ) {
        let rel = Relation::single_u32("k", data.clone());
        let mask: Vec<bool> = data.iter().map(|&v| v < threshold).collect();
        let filtered = rel.filter(&mask).unwrap();
        let expected: Vec<u32> = data.iter().copied().filter(|&v| v < threshold).collect();
        prop_assert_eq!(filtered.column("k").unwrap().as_u32().unwrap(), &expected[..]);
        // gather with identity permutation is a no-op.
        let idx: Vec<u32> = (0..data.len() as u32).collect();
        let gathered = rel.gather(&idx);
        prop_assert_eq!(gathered.column("k").unwrap().as_u32().unwrap(), &data[..]);
    }
}

/// Lengths around the 2^16 boundary, plus the degenerate ones.
const LENGTHS: [usize; 5] = [0, 1, 65_535, 65_536, 65_537];

/// The reference: keep `v[i]` where `mask[i]`, by the obvious `filter_map`.
fn keep<T: Copy>(v: &[T], mask: &[bool]) -> Vec<T> {
    v.iter()
        .zip(mask)
        .filter_map(|(x, &m)| m.then_some(*x))
        .collect()
}

fn reference(col: &Column, mask: &[bool]) -> Column {
    match col {
        Column::U32(v) => Column::U32(keep(v, mask)),
        Column::U64(v) => Column::U64(keep(v, mask)),
        Column::I64(v) => Column::I64(keep(v, mask)),
        Column::F64(v) => Column::F64(keep(v, mask)),
        Column::Bool(v) => Column::Bool(keep(v, mask)),
        Column::Str(v) => Column::Str(keep(v, mask)),
    }
}

/// A relation with one column of every type, the `Str` one carrying a
/// dictionary, filled from a small xorshift stream seeded by `seed`.
fn every_type_relation(n: usize, seed: u64) -> Relation {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let raw: Vec<u64> = (0..n).map(|_| next()).collect();
    let words: Vec<String> = raw.iter().map(|&r| word(r as u32)).collect();
    let (dict, codes) = Dictionary::encode_all(&words);
    let schema = Schema::new(vec![
        Field::new("u32", DataType::U32),
        Field::new("u64", DataType::U64),
        Field::new("i64", DataType::I64),
        Field::new("f64", DataType::F64),
        Field::new("bool", DataType::Bool),
        Field::new("str", DataType::Str),
    ])
    .unwrap();
    Relation::new(
        schema,
        vec![
            Column::U32(raw.iter().map(|&r| r as u32).collect()),
            Column::U64(raw.clone()),
            Column::I64(raw.iter().map(|&r| r as i64).collect()),
            Column::F64(raw.iter().map(|&r| (r >> 11) as f64 / 3.0).collect()),
            Column::Bool(raw.iter().map(|&r| r & 1 == 1).collect()),
            Column::Str(codes),
        ],
    )
    .unwrap()
    .with_dictionary("str", Arc::new(dict))
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn mask_selection_gather_matches_filter_map(
        seed in any::<u64>(),
        percent in 0u64..101,
    ) {
        for n in LENGTHS {
            let rel = every_type_relation(n, seed);
            let mut x = seed.rotate_left(17) | 1;
            let random: Vec<bool> = (0..n)
                .map(|_| {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    (x >> 33) % 100 < percent
                })
                .collect();
            for mask in [vec![false; n], vec![true; n], random] {
                let sel = select(&mask, 0);
                let expected: Vec<u32> = (0..n as u32).filter(|&i| mask[i as usize]).collect();
                prop_assert_eq!(&sel, &expected);
                let hits = expected.len();
                for out in [rel.filter(&mask).unwrap(), rel.gather(&sel)] {
                    prop_assert_eq!(out.rows(), hits);
                    for c in 0..rel.schema().width() {
                        let col = rel.column_at(c).unwrap();
                        prop_assert_eq!(out.column_at(c).unwrap(), &reference(col, &mask));
                    }
                    // `Str` dictionaries carry over, shared.
                    prop_assert!(Arc::ptr_eq(
                        out.dictionary("str").unwrap().unwrap(),
                        rel.dictionary("str").unwrap().unwrap()
                    ));
                }
                // A zero-width relation keeps its row count.
                let bare = rel.project(&[]).unwrap();
                prop_assert_eq!(bare.rows(), n);
                prop_assert_eq!(bare.filter(&mask).unwrap().rows(), hits);
                prop_assert_eq!(bare.gather(&sel).rows(), hits);
            }
        }
    }
}
