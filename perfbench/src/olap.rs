//! `olap-mix`: ad-hoc analytical SQL through the in-process `Dqo::sql`
//! API, one caller, engine DOP 2.
//!
//! Every statement pays parse, bind and optimise (no plan cache) and then
//! runs the grouping, join, sort and filter kernels on the morsel
//! runtime. Statements rotate through ten templates in a seeded order;
//! four of them draw fresh constants per statement, which keeps growing
//! the session memo. Answers are checked against plain-Rust evaluation
//! over the generated columns.

use crate::common::{self, Config, OpRows, Outcome, QErrors, Tally, Window};
use crate::rng::Rng;
use crate::stats::Delta;
use crate::trace::{self, Tracer};
use dqo::obs::names;
use dqo::storage::datagen::{zipf_keys, DatasetSpec, ForeignKeySpec};
use dqo::storage::partition::{PartitionSpec, PartitionedRelation};
use dqo::storage::{Column, DataType, Dictionary, Field, Relation, Schema};
use dqo::{Dqo, Engine, MetricsRegistry};
use std::sync::Arc;
use std::time::Instant;

/// Rows of every single-table input (above the ~100k-row threshold where
/// the optimiser starts choosing parallel plans).
pub const ROWS: usize = 250_000;
/// Dense grouping domain of `dense` and `sorted`.
const DENSE_GROUPS: usize = 4_096;
/// Distinct keys of `sparse`, spread over the `u32` range.
const SPARSE_GROUPS: usize = 16_384;
/// Distinct keys of the Zipf table.
const ZIPF_GROUPS: usize = 4_096;
/// Key domain of the partitioned table.
const PART_DOMAIN: u32 = 8_192;
/// Range partitions of the partitioned table (equal widths).
const PARTS: u32 = 8;
/// `|R|` and `|S|` of the FK join; S references R.
const R_ROWS: usize = 125_000;
const S_ROWS: usize = 250_000;
/// Distinct `r.a` values.
const A_GROUPS: usize = 4_096;
/// Distinct `dense.city` values.
const CITIES: usize = 8;
/// `s.payload` lies in `0..PAYLOAD`.
const PAYLOAD: u32 = 1_000;

/// The statement templates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Template {
    /// Dense unsorted grouping (SPHG).
    Dense,
    /// Sparse unsorted grouping (HG).
    Sparse,
    /// Sorted grouping (OG/SPHG).
    Sorted,
    /// Zipf-skewed grouping.
    Zipf,
    /// Two-column grouping (composite key packing).
    TwoColumn,
    /// `key < ?` filter, grouping, ordered output (filter compaction).
    FilterOrdered,
    /// `key >= ?` then `ORDER BY key LIMIT 10` (sort).
    SortLimit,
    /// FK join R ⋈ S grouped by `r.a`.
    Join,
    /// The same join under `payload < ?`.
    JoinFiltered,
    /// Range-partitioned table under a pruning range predicate.
    Partitioned,
}

/// Every template, in declaration order.
pub const TEMPLATES: [Template; 10] = [
    Template::Dense,
    Template::Sparse,
    Template::Sorted,
    Template::Zipf,
    Template::TwoColumn,
    Template::FilterOrdered,
    Template::SortLimit,
    Template::Join,
    Template::JoinFiltered,
    Template::Partitioned,
];

/// One statement: a template and its constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stmt {
    /// Which template.
    pub template: Template,
    /// First constant (unused by constant-free templates).
    pub a: u32,
    /// Second constant (the partitioned range's upper end).
    pub b: u32,
}

impl Stmt {
    /// The SQL text.
    pub fn sql(&self) -> String {
        let (a, b) = (self.a, self.b);
        match self.template {
            Template::Dense => "SELECT key, COUNT(*) AS n FROM dense GROUP BY key".into(),
            Template::Sparse => "SELECT key, COUNT(*) AS n FROM sparse GROUP BY key".into(),
            Template::Sorted => "SELECT key, COUNT(*) AS n FROM sorted GROUP BY key".into(),
            Template::Zipf => "SELECT key, COUNT(*) AS n FROM zipf GROUP BY key".into(),
            Template::TwoColumn => {
                "SELECT key, city, COUNT(*) AS n FROM dense GROUP BY key, city".into()
            }
            Template::FilterOrdered => format!(
                "SELECT key, COUNT(*) AS n, SUM(v) AS s FROM dense WHERE key < {a} GROUP BY key ORDER BY key"
            ),
            Template::SortLimit => {
                format!("SELECT key FROM sparse WHERE key >= {a} ORDER BY key LIMIT 10")
            }
            Template::Join => {
                "SELECT a, COUNT(*) AS n FROM r JOIN s ON r.id = s.r_id GROUP BY a".into()
            }
            Template::JoinFiltered => format!(
                "SELECT a, COUNT(*) AS n, SUM(payload) AS p FROM r JOIN s ON r.id = s.r_id WHERE payload < {a} GROUP BY a"
            ),
            Template::Partitioned => format!(
                "SELECT key, COUNT(*) AS n FROM part WHERE key >= {a} AND key < {b} GROUP BY key ORDER BY key"
            ),
        }
    }
}

/// The seeded statement stream: rounds of all ten templates, each round
/// in a fresh seeded order, constants drawn per statement.
#[derive(Debug, Clone)]
pub struct Statements {
    rng: Rng,
    round: Vec<Template>,
}

impl Statements {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        Statements {
            rng: Rng::new(seed),
            round: Vec::new(),
        }
    }
}

impl Iterator for Statements {
    type Item = Stmt;

    fn next(&mut self) -> Option<Stmt> {
        if self.round.is_empty() {
            self.round = TEMPLATES.to_vec();
            self.rng.shuffle(&mut self.round);
        }
        let template = self.round.pop().expect("refilled above");
        let r = &mut self.rng;
        let (a, b) = match template {
            Template::FilterOrdered => (r.range_u32(1, DENSE_GROUPS as u32 + 1), 0),
            Template::SortLimit => (r.next_u64() as u32, 0),
            Template::JoinFiltered => (r.range_u32(1, PAYLOAD + 1), 0),
            Template::Partitioned => {
                let lo = r.range_u32(0, PART_DOMAIN - 512);
                (lo, lo + r.range_u32(512, 3_073).min(PART_DOMAIN - lo))
            }
            _ => (0, 0),
        };
        Some(Stmt { template, a, b })
    }
}

/// The generated tables.
pub struct Data {
    tables: Vec<(&'static str, Relation)>,
    part: PartitionedRelation,
    oracle: Oracle,
}

fn u32s(rel: &Relation, col: &str) -> Vec<u32> {
    rel.column(col)
        .expect("generated column")
        .as_u32()
        .expect("u32 column")
        .to_vec()
}

impl Data {
    /// Generate every table from `seed`, plus the oracle over them.
    pub fn generate(seed: u64) -> Data {
        let root = Rng::new(seed);
        let s = |k: u64| root.fork(k).next_u64();
        let dense_key = DatasetSpec::new(ROWS, DENSE_GROUPS)
            .seed(s(1))
            .generate()
            .expect("datagen");
        let mut rng = root.fork(2);
        let city: Vec<u32> = (0..ROWS).map(|_| rng.below(CITIES as u64) as u32).collect();
        let v: Vec<u32> = (0..ROWS).map(|_| rng.below(1_000) as u32).collect();
        let names: Vec<String> = city.iter().map(|c| format!("c{c}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let (dict, codes) = Dictionary::encode_all(&refs);
        let dense = Relation::new(
            Schema::new(vec![
                Field::new("key", DataType::U32),
                Field::new("city", DataType::Str),
                Field::new("v", DataType::U32),
            ])
            .expect("schema"),
            vec![
                Column::U32(dense_key.clone()),
                Column::Str(codes),
                Column::U32(v.clone()),
            ],
        )
        .expect("relation")
        .with_dictionary("city", Arc::new(dict))
        .expect("dictionary");
        let sparse = DatasetSpec::new(ROWS, SPARSE_GROUPS)
            .dense(false)
            .seed(s(3))
            .relation()
            .expect("datagen");
        let sorted = DatasetSpec::new(ROWS, DENSE_GROUPS)
            .sorted(true)
            .seed(s(4))
            .relation()
            .expect("datagen");
        let zipf = Relation::single_u32("key", zipf_keys(ROWS, ZIPF_GROUPS, 1.1, s(5)));
        let part_flat = DatasetSpec::new(ROWS, PART_DOMAIN as usize)
            .seed(s(6))
            .relation()
            .expect("datagen");
        let width = PART_DOMAIN / PARTS;
        let bounds = (1..PARTS).map(|i| i * width).collect();
        let part = PartitionedRelation::new(part_flat.clone(), PartitionSpec::range("key", bounds))
            .expect("partitioning");
        let (r, s_rel) = ForeignKeySpec {
            r_rows: R_ROWS,
            s_rows: S_ROWS,
            groups: A_GROUPS,
            r_sorted: false,
            s_sorted: false,
            dense: true,
            seed: s(7),
        }
        .generate()
        .expect("datagen");

        let oracle = Oracle::new(
            &dense_key,
            &city,
            &v,
            &u32s(&sparse, "key"),
            &u32s(&sorted, "key"),
            &u32s(&zipf, "key"),
            &u32s(&part_flat, "key"),
            (&u32s(&r, "id"), &u32s(&r, "a")),
            (&u32s(&s_rel, "r_id"), &u32s(&s_rel, "payload")),
        );
        Data {
            tables: vec![
                ("dense", dense),
                ("sparse", sparse),
                ("sorted", sorted),
                ("zipf", zipf),
                ("r", r),
                ("s", s_rel),
            ],
            part,
            oracle,
        }
    }
}

/// Plain-Rust answers over the generated columns, independent of any
/// plan the engine picks.
struct Oracle {
    dense: Vec<u64>,
    dense_vsum: Vec<u64>,
    /// Counts per `key * CITIES + city`.
    two_col: Vec<u64>,
    sparse_sorted: Vec<u32>,
    sparse_groups: Vec<(u32, u64)>,
    sorted: Vec<u64>,
    zipf: Vec<u64>,
    part: Vec<u64>,
    /// S rows grouped by `r.a`: CSR offsets, payloads ascending per
    /// group, and running payload sums.
    join_off: Vec<usize>,
    join_payload: Vec<u32>,
    join_prefix: Vec<u64>,
}

fn counts(keys: &[u32], domain: usize) -> Vec<u64> {
    let mut c = vec![0u64; domain];
    for &k in keys {
        c[k as usize] += 1;
    }
    c
}

impl Oracle {
    #[allow(clippy::too_many_arguments)]
    fn new(
        dense_key: &[u32],
        city: &[u32],
        v: &[u32],
        sparse: &[u32],
        sorted: &[u32],
        zipf: &[u32],
        part: &[u32],
        (r_id, r_a): (&[u32], &[u32]),
        (s_rid, s_payload): (&[u32], &[u32]),
    ) -> Self {
        let mut dense_vsum = vec![0u64; DENSE_GROUPS];
        let mut two_col = vec![0u64; DENSE_GROUPS * CITIES];
        for i in 0..dense_key.len() {
            let k = dense_key[i] as usize;
            dense_vsum[k] += u64::from(v[i]);
            two_col[k * CITIES + city[i] as usize] += 1;
        }
        let mut sparse_sorted = sparse.to_vec();
        sparse_sorted.sort_unstable();
        let mut sparse_groups: Vec<(u32, u64)> = Vec::new();
        for &k in &sparse_sorted {
            match sparse_groups.last_mut() {
                Some((last, n)) if *last == k => *n += 1,
                _ => sparse_groups.push((k, 1)),
            }
        }
        let mut a_of = vec![0u32; r_id.len()];
        for (&id, &a) in r_id.iter().zip(r_a) {
            a_of[id as usize] = a;
        }
        let mut by_a: Vec<(u32, u32)> = s_rid
            .iter()
            .zip(s_payload)
            .map(|(&rid, &p)| (a_of[rid as usize], p))
            .collect();
        by_a.sort_unstable();
        let mut join_off = vec![0usize; A_GROUPS + 1];
        for &(a, _) in &by_a {
            join_off[a as usize + 1] += 1;
        }
        for i in 0..A_GROUPS {
            join_off[i + 1] += join_off[i];
        }
        let join_payload: Vec<u32> = by_a.iter().map(|&(_, p)| p).collect();
        let mut join_prefix = Vec::with_capacity(join_payload.len() + 1);
        join_prefix.push(0u64);
        for &p in &join_payload {
            join_prefix.push(join_prefix.last().expect("seeded") + u64::from(p));
        }
        Oracle {
            dense: counts(dense_key, DENSE_GROUPS),
            dense_vsum,
            two_col,
            sparse_sorted,
            sparse_groups,
            sorted: counts(sorted, DENSE_GROUPS),
            zipf: counts(zipf, ZIPF_GROUPS),
            part: counts(part, PART_DOMAIN as usize),
            join_off,
            join_payload,
            join_prefix,
        }
    }

    /// Rows and (sum of payload) of group `a` with `payload < below`.
    fn join_group(&self, a: usize, below: u32) -> (u64, u64) {
        let (lo, hi) = (self.join_off[a], self.join_off[a + 1]);
        let cut = lo + self.join_payload[lo..hi].partition_point(|&p| p < below);
        (
            (cut - lo) as u64,
            self.join_prefix[cut] - self.join_prefix[lo],
        )
    }

    /// Check one result against the expected answer.
    fn check(&self, stmt: &Stmt, rel: &Relation) -> Result<(), String> {
        let dense_groups = |c: &[u64], lo: usize, hi: usize| -> Vec<(u32, u64, u64)> {
            (lo..hi)
                .filter(|&k| c[k] > 0)
                .map(|k| (k as u32, c[k], 0))
                .collect()
        };
        let (expected, ordered, sum_col) = match stmt.template {
            Template::Dense => (dense_groups(&self.dense, 0, DENSE_GROUPS), false, None),
            Template::Sorted => (dense_groups(&self.sorted, 0, DENSE_GROUPS), false, None),
            Template::Zipf => (dense_groups(&self.zipf, 0, ZIPF_GROUPS), false, None),
            Template::Sparse => (
                self.sparse_groups.iter().map(|&(k, n)| (k, n, 0)).collect(),
                false,
                None,
            ),
            Template::FilterOrdered => {
                let hi = (stmt.a as usize).min(DENSE_GROUPS);
                let mut g = dense_groups(&self.dense, 0, hi);
                for row in &mut g {
                    row.2 = self.dense_vsum[row.0 as usize];
                }
                (g, true, Some("s"))
            }
            Template::Partitioned => (
                dense_groups(
                    &self.part,
                    stmt.a as usize,
                    (stmt.b as usize).min(PART_DOMAIN as usize),
                ),
                true,
                None,
            ),
            Template::Join | Template::JoinFiltered => {
                let below = if stmt.template == Template::Join {
                    u32::MAX
                } else {
                    stmt.a
                };
                let sum = (stmt.template == Template::JoinFiltered).then_some("p");
                let g = (0..A_GROUPS)
                    .map(|a| (a as u32, self.join_group(a, below)))
                    .filter(|(_, (n, _))| *n > 0)
                    .map(|(a, (n, s))| (a, n, if sum.is_some() { s } else { 0 }))
                    .collect();
                (g, false, sum)
            }
            Template::TwoColumn => return self.check_two_column(rel),
            Template::SortLimit => return self.check_sort_limit(stmt.a, rel),
        };
        let key = if matches!(stmt.template, Template::Join | Template::JoinFiltered) {
            "a"
        } else {
            "key"
        };
        check_groups(rel, key, sum_col, &expected, ordered)
    }

    fn check_two_column(&self, rel: &Relation) -> Result<(), String> {
        let keys = col_u32(rel, "key")?;
        let cities = col_u32(rel, "city")?;
        let n = col_u64(rel, "n")?;
        let dict = rel
            .dictionary("city")
            .map_err(|e| e.to_string())?
            .ok_or("city has no dictionary")?;
        let expected_rows = self.two_col.iter().filter(|&&c| c > 0).count();
        if keys.len() != expected_rows {
            return Err(format!("{} groups, expected {expected_rows}", keys.len()));
        }
        let mut seen = vec![false; self.two_col.len()];
        for i in 0..keys.len() {
            let name = dict.decode(cities[i]).map_err(|e| e.to_string())?;
            let c: usize = name
                .strip_prefix('c')
                .and_then(|s| s.parse().ok())
                .filter(|&c| c < CITIES)
                .ok_or_else(|| format!("unknown city {name}"))?;
            let k = keys[i] as usize;
            if k >= DENSE_GROUPS {
                return Err(format!("key {k} out of domain"));
            }
            let slot = k * CITIES + c;
            if seen[slot] || self.two_col[slot] != n[i] {
                return Err(format!("group ({k}, {name}) wrong or repeated"));
            }
            seen[slot] = true;
        }
        Ok(())
    }

    fn check_sort_limit(&self, from: u32, rel: &Relation) -> Result<(), String> {
        let got = col_u32(rel, "key")?;
        let at = self.sparse_sorted.partition_point(|&k| k < from);
        let want = &self.sparse_sorted[at..(at + 10).min(self.sparse_sorted.len())];
        if got != want {
            return Err(format!(
                "first keys {:?}, expected {:?}",
                &got[..got.len().min(3)],
                &want[..want.len().min(3)]
            ));
        }
        Ok(())
    }
}

fn col_u32<'a>(rel: &'a Relation, name: &str) -> Result<&'a [u32], String> {
    rel.column(name)
        .map_err(|e| e.to_string())?
        .as_u32()
        .map_err(|e| format!("column {name}: {e}"))
}

fn col_u64<'a>(rel: &'a Relation, name: &str) -> Result<&'a [u64], String> {
    rel.column(name)
        .map_err(|e| e.to_string())?
        .as_u64()
        .map_err(|e| format!("column {name}: {e}"))
}

/// Compare a grouped result with `(key, count, sum)` rows ascending by
/// key. Unordered results are compared as sets of groups.
fn check_groups(
    rel: &Relation,
    key: &str,
    sum: Option<&str>,
    expected: &[(u32, u64, u64)],
    ordered: bool,
) -> Result<(), String> {
    let keys = col_u32(rel, key)?;
    let n = col_u64(rel, "n")?;
    let s = sum.map(|c| col_u64(rel, c)).transpose()?;
    if keys.len() != expected.len() {
        return Err(format!(
            "{} groups, expected {}",
            keys.len(),
            expected.len()
        ));
    }
    let mut rows: Vec<(u32, u64, u64)> = (0..keys.len())
        .map(|i| (keys[i], n[i], s.map_or(0, |s| s[i])))
        .collect();
    if ordered {
        if rows.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err("groups not in ascending key order".into());
        }
    } else {
        rows.sort_unstable();
    }
    match rows.iter().zip(expected).find(|(g, e)| g != e) {
        Some((g, e)) => Err(format!("group {g:?}, expected {e:?}")),
        None => Ok(()),
    }
}

/// One set-up: a fresh engine at the pinned settings, every table
/// registered, and a warm-up pass (each template twice) that fills the
/// memo and lets feedback settle. Warm-up answers are checked too.
fn setup(data: &Data, warm: &mut Statements) -> Result<Dqo, String> {
    let engine = Engine::new()
        .with_threads(common::DOP)
        .with_tracing(true)
        .with_pruning(true)
        .with_metrics_registry(Arc::new(MetricsRegistry::new()));
    let db = Dqo::with_engine(engine);
    for (name, rel) in &data.tables {
        db.register_table(*name, rel.clone());
    }
    db.register_table_partitioned("part", data.part.clone());
    for _ in 0..2 * TEMPLATES.len() {
        let stmt = warm.next().expect("endless stream");
        let result = db.sql(&stmt.sql()).map_err(|e| format!("warm-up: {e}"))?;
        data.oracle
            .check(&stmt, &result.output.relation)
            .map_err(|e| format!("warm-up {}: {e}", stmt.sql()))?;
    }
    Ok(db)
}

/// Run the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let data = Data::generate(cfg.seed);
    let mut out = Outcome::new();
    let mut warm = Statements::new(Rng::new(cfg.seed).fork(100).next_u64());
    let mut db = None;
    for _ in 0..common::SETUPS {
        drop(db.take());
        let began = Instant::now();
        db = Some(setup(&data, &mut warm)?);
        out.setup_s.push(began.elapsed().as_secs_f64());
    }
    let db = db.expect("at least one set-up");

    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, 0);
    let mut rows = OpRows::new();
    let mut qerr = QErrors::default();
    let mut tally = Tally::default();
    let (mut materialised, mut morsels, mut steals, mut traced_queries) = (0u64, 0u64, 0u64, 0u64);
    let mut stream = Statements::new(cfg.seed);
    let before = db.metrics();
    let window = Window::open(cfg);
    let mut request = 0u64;
    while !window.done(&[out.queries_ms.len()]) {
        let stmt = stream.next().expect("endless stream");
        let traced = window.traced_now();
        tracer.set_enabled(traced);
        request += 1;
        let iter_start = Instant::now();
        let sql = stmt.sql();
        let call = Instant::now();
        let result = db.sql(&sql);
        let done = Instant::now();
        if let Ok(r) = &result {
            out.queries_ms.push((done - call).as_secs_f64() * 1e3);
            if traced {
                let root = tracer.record_at("olap.request", None, request, call, done);
                let at = tracer.ns(call);
                let exec = trace::record_profile(&mut tracer, request, root, at, &r.profile);
                common::record_plan(
                    &mut tracer,
                    request,
                    exec,
                    &r.planned.plan,
                    &r.ops,
                    &mut rows,
                );
            }
        }
        let traced_end = Instant::now();
        // Answer checks and per-query bookkeeping stay out of the
        // throughput: the busy time stops here.
        tally.add(traced, 1, (traced_end - iter_start).as_secs_f64());
        let correct = match &result {
            Ok(r) => {
                if traced {
                    qerr.keep(&r.planned.plan, &r.ops);
                    traced_queries += 1;
                    materialised += r.output.pipeline.materialised_rows;
                    for m in r.ops.nodes.iter().filter(|m| m.dop.is_some()) {
                        morsels += m.morsels;
                        steals += m.steals;
                    }
                }
                let verdict = data.oracle.check(&stmt, &r.output.relation);
                if let Err(e) = &verdict {
                    out.notes.push(format!("MISMATCH {sql}: {e}"));
                }
                verdict.is_ok()
            }
            Err(e) => {
                out.notes.push(format!("ERROR {sql}: {e}"));
                false
            }
        };
        out.check(correct);
    }
    let after = db.metrics();
    out.tallies.push(tally);

    if cfg.trace {
        let spans = tracer.into_spans();
        let sheet = &mut out.layers;
        let d = Delta::new(before, after);
        for (metric, span) in [
            ("sql.parse_us", "sql.parse"),
            ("sql.bind_us", "sql.bind"),
            ("opt.optimise_us", "opt.optimise"),
        ] {
            sheet.set(metric, common::span_p50_us(&spans, span));
        }
        sheet.set(
            "exec.execute_ms",
            common::span_p50_us(&spans, "exec.execute").map(|us| us / 1e3),
        );
        let optimisations = d.histogram(names::OPTIMISE_SECONDS).2;
        sheet.set(
            "opt.winner_hit_ratio",
            (optimisations > 0)
                .then(|| d.counter(names::OPT_WINNER_HITS) as f64 / optimisations as f64),
        );
        sheet.note(
            "opt.winner_hit_ratio",
            format!("{optimisations} optimisations"),
        );
        sheet.set(
            "opt.feedback_corrections",
            Some(d.counter(names::OPT_FEEDBACK_CORRECTIONS) as f64),
        );
        sheet.set("opt.memo_groups", Some(db.engine().memo_stats().1 as f64));
        qerr.fill(sheet, db.engine().catalog(), db.engine().feedback());
        let per_query = |x: u64| Some(x as f64 / traced_queries.max(1) as f64);
        sheet.set("exec.materialised_rows", per_query(materialised));
        sheet.set("parallel.morsels", per_query(morsels));
        sheet.set("parallel.steals", per_query(steals));
        let queries = out.queries_ms.len().max(1) as f64;
        sheet.set(
            "parallel.parks",
            Some(d.counter(names::POOL_PARKS) as f64 / queries),
        );
        let total = d.counter(names::PART_TOTAL);
        sheet.set(
            "part.pruned_ratio",
            (total > 0).then(|| d.counter(names::PART_PRUNED) as f64 / total as f64),
        );
        sheet.note("part.pruned_ratio", format!("of {total} partitions"));
        common::operator_metrics(sheet, &spans, &rows);
        out.spans = spans;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_statement_stream() {
        let a: Vec<String> = Statements::new(9).take(200).map(|s| s.sql()).collect();
        let b: Vec<String> = Statements::new(9).take(200).map(|s| s.sql()).collect();
        assert_eq!(a, b);
        let c: Vec<String> = Statements::new(10).take(200).map(|s| s.sql()).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn every_round_runs_every_template_once() {
        let stmts: Vec<Stmt> = Statements::new(3).take(TEMPLATES.len() * 5).collect();
        for round in stmts.chunks(TEMPLATES.len()) {
            for t in TEMPLATES {
                assert_eq!(round.iter().filter(|s| s.template == t).count(), 1);
            }
        }
        for s in &stmts {
            if s.template == Template::Partitioned {
                assert!(s.a < s.b && s.b <= PART_DOMAIN);
            }
        }
    }
}
