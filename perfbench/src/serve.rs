//! `serve-prepared`: two closed-loop connections to a `dqo-server` over
//! loopback TCP, sending seeded EXECUTEs of two prepared shapes — the
//! `key < ?` grouped sum and the string-parameter `city = ?` count of
//! `dqo_bench::serving` — over a 100k-row table without AVs.
//!
//! Fixed per-request costs dominate here: codec, sockets, the connection
//! thread, admission, plan-cache lookup and rebind, `bind_params`. After
//! warm-up every execution is a plan-cache hit, so the optimiser idles.

use crate::common::{self, Config, Outcome, Tally, Window};
use crate::rng::Rng;
use crate::serving::{self, ProbeStmt, Rig};
use crate::stats::Delta;
use crate::trace::Tracer;
use dqo::server::{Client, StatementHandle, WireColumn, WireData, WireResult};
use dqo::storage::datagen::DatasetSpec;
use dqo::storage::{Column, DataType, Dictionary, Field, Relation, Schema, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Rows in the served table.
pub const ROWS: usize = 100_000;
/// Dense key domain.
const GROUPS: u32 = 64;
/// Distinct cities (`city = "c{key % CITIES}"`).
const CITIES: u32 = 8;
/// Closed-loop connections.
pub const CLIENTS: usize = 2;

/// The two prepared shapes.
pub const SQL: [&str; 2] = [
    "SELECT key, COUNT(*) AS n, SUM(key) AS s FROM t WHERE key < ? GROUP BY key ORDER BY key",
    "SELECT key, COUNT(*) AS n FROM t WHERE city = ? GROUP BY key ORDER BY key",
];

/// The seeded request stream of one connection: shapes alternate,
/// parameters are drawn per request.
#[derive(Debug, Clone)]
pub struct Requests {
    rng: Rng,
    i: u64,
}

impl Requests {
    /// Connection `client`'s stream for `seed`.
    pub fn new(seed: u64, client: u64) -> Self {
        Requests {
            rng: Rng::new(seed).fork(1_000 + client),
            i: 0,
        }
    }
}

impl Iterator for Requests {
    type Item = (usize, Vec<Value>);

    fn next(&mut self) -> Option<Self::Item> {
        self.i += 1;
        Some(if self.i % 2 == 1 {
            (0, vec![Value::U32(self.rng.range_u32(1, GROUPS + 1))])
        } else {
            let c = self.rng.below(u64::from(CITIES));
            (1, vec![Value::Str(format!("c{c}"))])
        })
    }
}

/// The table plus its expected answers, computed in plain Rust.
struct Data {
    table: Relation,
    by_bound: Vec<WireResult>,
    by_city: Vec<WireResult>,
}

fn grouped(keys: Vec<u32>, counts: &[u64], with_sum: bool) -> WireResult {
    let n: Vec<u64> = keys.iter().map(|&k| counts[k as usize]).collect();
    let mut columns = vec![
        WireColumn {
            name: "key".into(),
            data: WireData::U32(keys.clone()),
        },
        WireColumn {
            name: "n".into(),
            data: WireData::U64(n.clone()),
        },
    ];
    if with_sum {
        let s = keys
            .iter()
            .zip(&n)
            .map(|(&k, &c)| u64::from(k) * c)
            .collect();
        columns.push(WireColumn {
            name: "s".into(),
            data: WireData::U64(s),
        });
    }
    WireResult {
        rows: keys.len() as u64,
        columns,
    }
}

impl Data {
    fn generate(seed: u64) -> Data {
        let keys = DatasetSpec::new(ROWS, GROUPS as usize)
            .seed(Rng::new(seed).fork(1).next_u64())
            .generate()
            .expect("datagen");
        let mut counts = vec![0u64; GROUPS as usize];
        for &k in &keys {
            counts[k as usize] += 1;
        }
        let names: Vec<String> = keys.iter().map(|k| format!("c{}", k % CITIES)).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let (dict, codes) = Dictionary::encode_all(&refs);
        let table = Relation::new(
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
        let present = |f: &dyn Fn(u32) -> bool| -> Vec<u32> {
            (0..GROUPS)
                .filter(|&k| counts[k as usize] > 0 && f(k))
                .collect()
        };
        Data {
            table,
            by_bound: (0..=GROUPS)
                .map(|b| grouped(present(&|k| k < b), &counts, true))
                .collect(),
            by_city: (0..CITIES)
                .map(|c| grouped(present(&|k| k % CITIES == c), &counts, false))
                .collect(),
        }
    }

    fn expected(&self, shape: usize, params: &[Value]) -> Option<&WireResult> {
        match (shape, params) {
            (0, [Value::U32(b)]) => self.by_bound.get(*b as usize),
            (1, [Value::Str(c)]) => self
                .by_city
                .get(c.strip_prefix('c')?.parse::<usize>().ok()?),
            _ => None,
        }
    }
}

/// A connection with both shapes prepared on it.
type Conn = (Client, Vec<StatementHandle>);

/// One set-up: engine, server, connections with both shapes prepared,
/// and a concurrent warm-up that fills the plan cache at every DOP the
/// admission controller grants.
fn setup(data: &Data, seed: u64) -> Result<(Rig, Vec<Conn>), String> {
    let rig = Rig::serve(Rig::engine(&[("t", data.table.clone())]))?;
    let mut conns = (0..CLIENTS)
        .map(|_| rig.connect(&SQL))
        .collect::<Result<Vec<_>, _>>()?;
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, (client, stmts))| {
                scope.spawn(move || -> Result<(), String> {
                    for (shape, params) in Requests::new(seed, 100 + c as u64).take(40) {
                        let got = client
                            .execute(stmts[shape], &params)
                            .map_err(|e| format!("warm-up: {e}"))?;
                        if data.expected(shape, &params) != Some(&got) {
                            return Err(format!("warm-up answer wrong for {params:?}"));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("warm-up thread"))
    })?;
    Ok((rig, conns))
}

/// What one connection's loop measured.
struct ClientRun {
    client: Client,
    stmts: Vec<StatementHandle>,
    latencies: Vec<f64>,
    tally: Tally,
    ok: u64,
    bad: u64,
    tracer: Tracer,
}

/// Run the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let data = Data::generate(cfg.seed);
    let mut out = Outcome::new();
    let mut rig = None;
    for _ in 0..common::SETUPS {
        drop(rig.take());
        let began = Instant::now();
        rig = Some(setup(&data, cfg.seed)?);
        out.setup_s.push(began.elapsed().as_secs_f64());
    }
    let (rig, conns) = rig.expect("at least one set-up");

    let origin = Instant::now();
    let before = rig.engine.metrics();
    let window = Window::open(cfg);
    let samples = AtomicUsize::new(0);
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, (client, stmts))| {
                let (data, samples) = (&data, &samples);
                scope.spawn(move || {
                    let mut run = ClientRun {
                        client,
                        stmts,
                        latencies: Vec::new(),
                        tally: Tally::default(),
                        ok: 0,
                        bad: 0,
                        tracer: Tracer::new(origin, c as u64 + 1),
                    };
                    let mut requests = Requests::new(cfg.seed, c as u64);
                    let mut request = (c as u64 + 1) << 32;
                    while !window.done(&[samples.load(Ordering::Relaxed)]) {
                        let (shape, params) = requests.next().expect("endless stream");
                        let traced = window.traced_now();
                        run.tracer.set_enabled(traced);
                        request += 1;
                        let t0 = Instant::now();
                        let got = run.client.execute(run.stmts[shape], &params);
                        let t1 = Instant::now();
                        if got.is_ok() {
                            run.latencies.push((t1 - t0).as_secs_f64() * 1e3);
                            samples.fetch_add(1, Ordering::Relaxed);
                        }
                        run.tracer
                            .record_at("server.roundtrip", None, request, t0, t1);
                        run.tally.add(traced, 1, t0.elapsed().as_secs_f64());
                        let correct = got.is_ok_and(|w| data.expected(shape, &params) == Some(&w));
                        if correct {
                            run.ok += 1;
                        } else {
                            run.bad += 1;
                        }
                    }
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let after = rig.engine.metrics();

    let mut clients = Vec::new();
    let mut spans = Vec::new();
    let mut probe_client = None;
    for run in runs {
        out.query_callers.push(run.latencies.len());
        out.queries_ms.extend(run.latencies);
        out.tallies.push(run.tally);
        out.attempted += run.ok + run.bad;
        out.failed += run.bad;
        spans.extend(run.tracer.into_spans());
        if probe_client.is_none() {
            probe_client = Some((run.client, run.stmts));
        } else {
            clients.push(run.client);
        }
    }
    if out.failed > 0 {
        out.notes
            .push(format!("{} answers differed from the oracle", out.failed));
    }

    if cfg.trace {
        let ops = out.queries_ms.len();
        serving::registry_layers(&mut out, &Delta::new(before, after), ops);
        out.layers.set(
            "server.roundtrip_us",
            common::span_p50_us(&spans, "server.roundtrip"),
        );
        out.layers
            .note("server.roundtrip_us", "under load, traced blocks");
        let (mut client, handles) = probe_client.expect("a client");
        let stmts = SQL
            .iter()
            .zip(&handles)
            .map(|(sql, &h)| ProbeStmt::new(&rig.engine, sql, h))
            .collect::<Result<Vec<_>, _>>()?;
        let mut requests = Requests::new(cfg.seed, 200);
        serving::probe(
            &rig.engine,
            &mut client,
            &stmts,
            || requests.next().expect("endless stream"),
            |shape, params, got| data.expected(shape, params) == Some(got),
            &mut out,
            origin,
        );
        clients.push(client);
        out.spans.extend(spans);
    } else if let Some((client, _)) = probe_client {
        clients.push(client);
    }
    serving::close_all(clients);
    drop(rig);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_parameter_stream() {
        let a: Vec<_> = Requests::new(5, 0).take(100).collect();
        assert_eq!(a, Requests::new(5, 0).take(100).collect::<Vec<_>>());
        assert_ne!(a, Requests::new(5, 1).take(100).collect::<Vec<_>>());
        assert_ne!(a, Requests::new(6, 0).take(100).collect::<Vec<_>>());
        assert!(a.iter().step_by(2).all(|(s, _)| *s == 0));
    }
}
