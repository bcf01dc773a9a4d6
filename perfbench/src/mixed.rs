//! `mixed-rw`: one closed-loop connection to a `dqo-server` interleaving
//! 20% `INSERT`s (16 rows each) with 80% prepared `key < ?` reads, over a
//! 100k-row table whose three AV kinds — sorted projection, SPH index,
//! materialised grouping — are built at set-up, as in
//! `dqo_bench::mixed_rw`.
//!
//! The same catalog, AV and query layers as the read workloads, used the
//! other way round: a read-side gain that makes AV maintenance or
//! appends dearer shows here. Every read is checked against counts kept
//! in plain Rust from the acknowledged inserts; at the end the grouped
//! count must account for every acknowledged row and every maintained AV
//! must equal a from-scratch rebuild bit for bit.

use crate::common::{self, Config, Outcome, Tally, Window};
use crate::rng::Rng;
use crate::serving::{self, ProbeStmt, Rig, Schemas};
use crate::stats::{self, Delta};
use crate::trace::Tracer;
use dqo::core::av::{materialise_av, AvArtifact, AvKind, AvSignature};
use dqo::core::Catalog;
use dqo::obs::names;
use dqo::server::{WireData, WireResult};
use dqo::storage::datagen::DatasetSpec;
use dqo::storage::{Column, DataType, Dictionary, Field, Relation, Schema, Value};
use dqo::Engine;
use std::sync::Arc;
use std::time::Instant;

/// Seed rows in the table.
pub const ROWS: usize = 100_000;
/// Dense key domain.
const GROUPS: u32 = 64;
/// Distinct cities (`city = "c{key % CITIES}"`).
const CITIES: u32 = 8;
/// Percent of operations that insert.
pub const WRITE_PCT: u64 = 20;
/// Rows per INSERT.
pub const BATCH: usize = 16;

/// The read shape.
const READ_SQL: &str = "SELECT key, COUNT(*) AS n FROM t WHERE key < ? GROUP BY key ORDER BY key";
/// The end-of-run accounting query.
const COUNT_SQL: &str = "SELECT key, COUNT(*) AS n FROM t GROUP BY key ORDER BY key";

/// The AV kinds built at set-up.
const AV_KINDS: [AvKind; 3] = [
    AvKind::SortedProjection,
    AvKind::SphIndex,
    AvKind::MaterialisedGrouping,
];

fn insert_sql() -> String {
    format!("INSERT INTO t VALUES {}", vec!["(?, ?)"; BATCH].join(", "))
}

/// One operation of the stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Read `key < bound`.
    Read(u32),
    /// Insert these keys (cities follow from the keys).
    Insert(Vec<u32>),
}

impl Op {
    /// Wire parameters of the operation.
    pub fn params(&self) -> Vec<Value> {
        match self {
            Op::Read(b) => vec![Value::U32(*b)],
            Op::Insert(keys) => keys
                .iter()
                .flat_map(|&k| [Value::U32(k), Value::Str(format!("c{}", k % CITIES))])
                .collect(),
        }
    }
}

/// The seeded operation stream.
#[derive(Debug, Clone)]
pub struct Ops(Rng);

impl Ops {
    /// The stream for `seed` (sub-stream `stream`).
    pub fn new(seed: u64, stream: u64) -> Self {
        Ops(Rng::new(seed).fork(2_000 + stream))
    }
}

impl Iterator for Ops {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let r = &mut self.0;
        Some(if r.below(100) < WRITE_PCT {
            Op::Insert((0..BATCH).map(|_| r.range_u32(0, GROUPS)).collect())
        } else {
            Op::Read(r.range_u32(1, GROUPS + 1))
        })
    }
}

/// Row counts per key, kept from the seed table and every acknowledged
/// insert.
#[derive(Debug, Clone)]
struct Counts(Vec<u64>);

impl Counts {
    fn add(&mut self, keys: &[u32]) {
        for &k in keys {
            self.0[k as usize] += 1;
        }
    }

    fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Whether `got` is the answer to `key < bound`.
    fn matches(&self, bound: u32, got: &WireResult) -> bool {
        let (Some(WireData::U32(keys)), Some(WireData::U64(n))) =
            (got.column("key"), got.column("n"))
        else {
            return false;
        };
        let want: Vec<u32> = (0..bound.min(GROUPS))
            .filter(|&k| self.0[k as usize] > 0)
            .collect();
        *keys == want && keys.iter().zip(n).all(|(&k, &c)| self.0[k as usize] == c)
    }
}

fn table(seed: u64) -> (Relation, Counts) {
    let keys = DatasetSpec::new(ROWS, GROUPS as usize)
        .seed(Rng::new(seed).fork(1).next_u64())
        .generate()
        .expect("datagen");
    let mut counts = Counts(vec![0; GROUPS as usize]);
    counts.add(&keys);
    let names: Vec<String> = keys.iter().map(|k| format!("c{}", k % CITIES)).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let (dict, codes) = Dictionary::encode_all(&refs);
    let rel = Relation::new(
        Schema::new(vec![
            Field::new("key", DataType::U32),
            Field::new("city", DataType::Str),
        ])
        .expect("schema"),
        vec![Column::U32(keys), Column::Str(codes)],
    )
    .expect("relation")
    .with_dictionary("city", Arc::new(dict))
    .expect("dictionary");
    (rel, counts)
}

/// Every maintained AV equals a rebuild over the final table.
fn avs_match_rebuild(engine: &Engine) -> Result<(), String> {
    let table = engine.catalog().get("t").map_err(|e| e.to_string())?;
    let scratch = Catalog::new();
    scratch.register("t", (*table.relation).clone());
    for kind in AV_KINDS {
        let sig = AvSignature::new("t", "key", kind);
        let maintained = engine.avs().get(&sig).ok_or(format!("{kind:?} missing"))?;
        let fresh = materialise_av(&scratch, &sig).map_err(|e| e.to_string())?;
        let same = match (maintained.artifact.as_ref(), fresh.artifact.as_ref()) {
            (Some(AvArtifact::SortedProjection(m)), Some(AvArtifact::SortedProjection(f)))
            | (
                Some(AvArtifact::MaterialisedGrouping(m)),
                Some(AvArtifact::MaterialisedGrouping(f)),
            ) => {
                m.rows() == f.rows()
                    && (0..f.schema().width()).all(|c| m.column_at(c).ok() == f.column_at(c).ok())
            }
            (Some(AvArtifact::SphIndex(m)), Some(AvArtifact::SphIndex(f))) => m == f,
            _ => false,
        };
        if !same {
            return Err(format!("maintained {kind:?} differs from a rebuild"));
        }
    }
    Ok(())
}

struct Setup {
    rig: Rig,
    client: dqo::server::Client,
    read: dqo::server::StatementHandle,
    counts: Counts,
    av_build_s: f64,
}

/// One set-up: engine with the table, all three AVs built, the server,
/// one connection with the read prepared, and a warm-up of every read
/// bound plus one insert.
fn setup(base: &Relation, counts: &Counts, seed: u64) -> Result<Setup, String> {
    let engine = Rig::engine(&[("t", base.clone())]);
    let sigs: Vec<AvSignature> = AV_KINDS
        .iter()
        .map(|&k| AvSignature::new("t", "key", k))
        .collect();
    let t = Instant::now();
    engine
        .av_builder()
        .build_batch(&sigs)
        .map_err(|e| format!("AV build: {e}"))?;
    let av_build_s = t.elapsed().as_secs_f64();
    let rig = Rig::serve(engine)?;
    let (mut client, stmts) = rig.connect(&[READ_SQL])?;
    let mut counts = counts.clone();
    let keys: Vec<u32> = Ops::new(seed, 100)
        .find_map(|op| match op {
            Op::Insert(k) => Some(k),
            Op::Read(_) => None,
        })
        .expect("the stream inserts");
    client
        .insert(&insert_sql(), &Op::Insert(keys.clone()).params())
        .map_err(|e| format!("warm-up insert: {e}"))?;
    counts.add(&keys);
    for b in 1..=GROUPS {
        let got = client
            .execute(stmts[0], &[Value::U32(b)])
            .map_err(|e| format!("warm-up read: {e}"))?;
        if !counts.matches(b, &got) {
            return Err(format!("warm-up read key < {b} wrong"));
        }
    }
    Ok(Setup {
        rig,
        client,
        read: stmts[0],
        counts,
        av_build_s,
    })
}

/// Operations per round. Every round starts from a fresh set-up of the
/// seed table, so the table grows by the same amount in every round and
/// the insert path sees the same sizes however fast the build runs.
pub const ROUND_OPS: usize = 4_000;

/// One closed-loop round of `ROUND_OPS` operations on a fresh set-up,
/// then the end-of-round checks; hands the set-up back.
fn round(
    s: Setup,
    ops: &mut Ops,
    window: &Window,
    tracer: &mut Tracer,
    tally: &mut Tally,
    out: &mut Outcome,
    delta: &mut Delta,
) -> Setup {
    let Setup {
        rig,
        mut client,
        read,
        mut counts,
        av_build_s,
    } = s;
    let insert = insert_sql();
    let before = rig.engine.metrics();
    let round_no = out.setup_s.len() as u64;
    for i in 0..ROUND_OPS as u64 {
        let request = (round_no << 32) | i;
        let op = ops.next().expect("endless stream");
        let params = op.params();
        let traced = window.traced_now();
        tracer.set_enabled(traced);
        let t0 = Instant::now();
        let ok = match &op {
            Op::Read(bound) => {
                let got = client.execute(read, &params);
                let t1 = Instant::now();
                tracer.record_at("server.roundtrip", None, request, t0, t1);
                tally.add(traced, 1, t0.elapsed().as_secs_f64());
                if got.is_ok() {
                    out.queries_ms.push((t1 - t0).as_secs_f64() * 1e3);
                }
                got.is_ok_and(|w| counts.matches(*bound, &w))
            }
            Op::Insert(keys) => {
                let got = client.insert(&insert, &params);
                let t1 = Instant::now();
                tracer.record_at("server.insert_roundtrip", None, request, t0, t1);
                tally.add(traced, 1, t0.elapsed().as_secs_f64());
                match got {
                    Ok(n) => {
                        out.inserts_ms.push((t1 - t0).as_secs_f64() * 1e3);
                        counts.add(keys);
                        n == BATCH as u64
                    }
                    Err(_) => false,
                }
            }
        };
        out.check(ok);
    }
    delta.push(before, rig.engine.metrics());

    // End-of-round accounting over the wire, then the AV rebuild oracle.
    let total = client.query(COUNT_SQL).map(|w| match w.column("n") {
        Some(WireData::U64(n)) => n.iter().sum::<u64>(),
        _ => 0,
    });
    let count_ok = total.as_ref().is_ok_and(|&t| t == counts.total());
    out.check(count_ok);
    if !count_ok {
        out.notes.push(format!(
            "count check: {} rows over the wire, {} expected",
            total.map_or_else(|e| e.to_string(), |t| t.to_string()),
            counts.total()
        ));
    }
    let av = avs_match_rebuild(&rig.engine);
    out.check(av.is_ok());
    if let Err(e) = av {
        out.notes.push(format!("AV oracle: {e}"));
    }
    Setup {
        rig,
        client,
        read,
        counts,
        av_build_s,
    }
}

/// Run the workload: rounds until the time is up, every latency class
/// has its samples and there were at least `SETUPS` set-ups.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (base, base_counts) = table(cfg.seed);
    let mut out = Outcome::new();
    let (mut builds, mut backlog) = (Vec::new(), Vec::new());
    let mut delta = Delta::default();
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, 1);
    let mut tally = Tally::default();
    let mut ops = Ops::new(cfg.seed, 0);
    let window = Window::open(cfg);
    let last = loop {
        let began = Instant::now();
        let s = setup(&base, &base_counts, cfg.seed)?;
        out.setup_s.push(began.elapsed().as_secs_f64());
        builds.push(s.av_build_s);
        let s = round(
            s,
            &mut ops,
            &window,
            &mut tracer,
            &mut tally,
            &mut out,
            &mut delta,
        );
        backlog.push(
            s.rig
                .engine
                .metrics()
                .gauge(names::AV_DELTA_BACKLOG_ROWS)
                .unwrap_or(0) as f64,
        );
        if out.setup_s.len() >= common::SETUPS
            && window.done(&[out.queries_ms.len(), out.inserts_ms.len()])
        {
            break s;
        }
        let _ = s.client.close();
    };
    out.tallies.push(tally);
    let rounds = out.setup_s.len();
    out.notes.push(format!(
        "{rounds} rounds of {ROUND_OPS} operations; the count check and the AV oracle ran after each"
    ));
    if out.failed > 0 {
        out.notes
            .push(format!("{} operations or checks failed", out.failed));
    }

    let Setup {
        rig,
        mut client,
        read,
        counts,
        ..
    } = last;
    if cfg.trace {
        let spans = tracer.into_spans();
        let inserts = out.inserts_ms.len().max(1) as f64;
        let ops = out.queries_ms.len() + out.inserts_ms.len();
        serving::registry_layers(&mut out, &delta, ops);
        let sheet = &mut out.layers;
        sheet.set(
            "server.roundtrip_us",
            common::span_p50_us(&spans, "server.roundtrip"),
        );
        sheet.note("server.roundtrip_us", "reads, traced blocks");
        sheet.set(
            "av.maintain_us",
            Some(delta.histogram(names::AV_DELTA_SECONDS).3 * 1e6 / inserts),
        );
        for (metric, counter) in [
            ("av.delta_merges", names::AV_DELTA_MERGES),
            ("av.compactions", names::AV_DELTA_COMPACTIONS),
            ("av.rebuilds", names::AV_DELTA_REBUILDS),
        ] {
            sheet.set(metric, Some(delta.counter(counter) as f64 / inserts));
            sheet.note(metric, "per insert");
        }
        sheet.set("av.backlog_rows", stats::median(&backlog));
        sheet.note("av.backlog_rows", "median over rounds, at round end");
        sheet.set("av.build_s", stats::median(&builds));
        insert_probe(&rig.engine, &insert_sql(), cfg.seed, &mut out)?;
        let stmts = [ProbeStmt::new(&rig.engine, READ_SQL, read)?];
        let mut reads = Ops::new(cfg.seed, 300).filter_map(|op| match op {
            Op::Read(b) => Some(b),
            Op::Insert(_) => None,
        });
        serving::probe(
            &rig.engine,
            &mut client,
            &stmts,
            || (0, vec![Value::U32(reads.next().expect("endless stream"))]),
            |_, params, got| match params {
                [Value::U32(b)] => counts.matches(*b, got),
                _ => false,
            },
            &mut out,
            origin,
        );
        out.spans.extend(spans);
    }
    let _ = client.close();
    drop(rig);
    Ok(out)
}

/// Time the write path's front half in-process on the live table, without
/// applying anything: `bind_insert` of one batch, and
/// `Relation::append_rows` of the bound rows at the table's current size.
fn insert_probe(engine: &Engine, sql: &str, seed: u64, out: &mut Outcome) -> Result<(), String> {
    let stmt = match dqo::sql::parse_statement(sql).map_err(|e| e.to_string())? {
        dqo::sql::Statement::Insert(s) => s,
        dqo::sql::Statement::Select(_) => return Err("not an INSERT".into()),
    };
    let live = engine.catalog().get("t").map_err(|e| e.to_string())?;
    let (mut bind, mut append) = (Vec::new(), Vec::new());
    let batches = Ops::new(seed, 400).filter_map(|op| match op {
        Op::Insert(_) => Some(op.params()),
        Op::Read(_) => None,
    });
    for params in batches.take(100) {
        let t0 = Instant::now();
        let rows = dqo::sql::bind_insert(&stmt, &Schemas(engine.catalog()), &params);
        let t1 = Instant::now();
        let rows = rows.map_err(|e| e.to_string())?;
        let appended = live.relation.append_rows(&rows);
        let t2 = Instant::now();
        std::hint::black_box(appended.map_err(|e| e.to_string())?);
        bind.push((t1 - t0).as_secs_f64() * 1e6);
        append.push((t2 - t1).as_secs_f64() * 1e6);
    }
    let p50 = |v: Vec<f64>| stats::percentile(&stats::sorted(v), 50.0).ok();
    out.layers.set("sql.insert_bind_us", p50(bind));
    out.layers.set("storage.append_us", p50(append));
    out.layers.note(
        "storage.append_us",
        format!("{BATCH} rows onto {} live rows", live.relation.rows()),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_operation_stream() {
        let a: Vec<Op> = Ops::new(11, 0).take(500).collect();
        assert_eq!(a, Ops::new(11, 0).take(500).collect::<Vec<_>>());
        assert_ne!(a, Ops::new(12, 0).take(500).collect::<Vec<_>>());
        let writes = a.iter().filter(|o| matches!(o, Op::Insert(_))).count();
        assert!((60..140).contains(&writes), "{writes} of 500 are writes");
    }

    #[test]
    fn read_answers_follow_acknowledged_inserts() {
        let mut c = Counts(vec![0; GROUPS as usize]);
        c.add(&[1, 1, 3]);
        let w = |keys: Vec<u32>, n: Vec<u64>| WireResult {
            rows: keys.len() as u64,
            columns: vec![
                dqo::server::WireColumn {
                    name: "key".into(),
                    data: WireData::U32(keys),
                },
                dqo::server::WireColumn {
                    name: "n".into(),
                    data: WireData::U64(n),
                },
            ],
        };
        assert!(c.matches(4, &w(vec![1, 3], vec![2, 1])));
        assert!(c.matches(3, &w(vec![1], vec![2])));
        assert!(!c.matches(4, &w(vec![1], vec![2])));
        assert!(!c.matches(4, &w(vec![1, 3], vec![2, 2])));
    }
}
