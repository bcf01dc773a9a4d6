//! What the two server workloads share: a `dqo-server` over loopback TCP
//! in front of one engine session on a shared pool, the per-layer
//! readings taken from the engine's registry, and the traced run's
//! in-process probe.
//!
//! The probe replays requests after the timed loop, once through the
//! same public calls the server makes for an EXECUTE
//! (`PreparedQuery::bind_params`, `Engine::execute_prepared`,
//! `WireResult::from_relation`, `encode_server_frame`) plus the client's
//! `decode_server_frame`, and once over the socket. The difference
//! between the two is the serving overhead.

use crate::common::{self, OpRows, Outcome, QErrors};
use crate::stats::{self, Delta};
use crate::trace::{self, Tracer};
use dqo::core::{Catalog, PreparedPlan};
use dqo::obs::names;
use dqo::server::protocol::{decode_server_frame, encode_server_frame};
use dqo::server::Server;
use dqo::server::{Client, ServerFrame, ServerHandle, StatementHandle, WireResult};
use dqo::sql::{PreparedQuery, SchemaProvider};
use dqo::storage::{Relation, Value};
use dqo::{Engine, MetricsRegistry, PersistentPool};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// Workers in the shared pool behind the server.
pub const POOL_THREADS: usize = 2;
/// Admission bound on concurrently executing queries.
pub const MAX_INFLIGHT: usize = 2;
/// Requests replayed by the traced run's probe.
const PROBES: usize = 300;

/// Resolves table schemas against an engine catalog for the SQL binder.
pub struct Schemas<'a>(pub &'a Catalog);

impl SchemaProvider for Schemas<'_> {
    fn table_schema(&self, table: &str) -> Option<dqo::storage::Schema> {
        self.0.get(table).ok().map(|e| e.relation.schema().clone())
    }
}

/// A served engine.
pub struct Rig {
    /// The engine session every connection shares.
    pub engine: Arc<Engine>,
    /// The server's listening address.
    pub addr: SocketAddr,
    handle: Option<ServerHandle>,
}

impl Rig {
    /// An engine at the pinned settings on a fresh shared pool, with an
    /// isolated registry, holding `tables` — not yet served.
    pub fn engine(tables: &[(&str, Relation)]) -> Arc<Engine> {
        let pool = Arc::new(PersistentPool::with_admission(POOL_THREADS, MAX_INFLIGHT));
        let engine = Engine::with_shared_pool(pool)
            .with_threads(common::DOP)
            .with_tracing(true)
            .with_pruning(true)
            .with_metrics_registry(Arc::new(MetricsRegistry::new()));
        for (name, rel) in tables {
            engine.register_table(*name, rel.clone());
        }
        Arc::new(engine)
    }

    /// Serve `engine` on an ephemeral loopback port.
    pub fn serve(engine: Arc<Engine>) -> Result<Rig, String> {
        let handle = Server::start(Arc::clone(&engine), "127.0.0.1:0")
            .map_err(|e| format!("server start: {e}"))?;
        Ok(Rig {
            addr: handle.addr(),
            engine,
            handle: Some(handle),
        })
    }

    /// Connect a client and prepare `sqls` on it.
    pub fn connect(&self, sqls: &[&str]) -> Result<(Client, Vec<StatementHandle>), String> {
        let mut client = Client::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        let stmts = sqls
            .iter()
            .map(|s| client.prepare(s).map_err(|e| format!("prepare {s}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((client, stmts))
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
    }
}

/// Close clients, ignoring a server that already hung up.
pub fn close_all(clients: Vec<Client>) {
    for c in clients {
        let _ = c.close();
    }
}

/// Per-layer readings from the registry over the timed loop: plan cache,
/// memo and feedback, pool parks and admission waits.
pub fn registry_layers(out: &mut Outcome, d: &Delta, ops: usize) {
    let sheet = &mut out.layers;
    let (hits, misses) = (
        d.counter(names::PLAN_CACHE_HITS),
        d.counter(names::PLAN_CACHE_MISSES),
    );
    sheet.set(
        "plan_cache.hit_ratio",
        (hits + misses > 0).then(|| hits as f64 / (hits + misses) as f64),
    );
    sheet.note(
        "plan_cache.hit_ratio",
        format!("{hits} hits, {misses} misses"),
    );
    sheet.set(
        "plan_cache.evictions",
        Some(d.counter(names::PLAN_CACHE_EVICTIONS) as f64),
    );
    let optimisations = d.histogram(names::OPTIMISE_SECONDS).2;
    sheet.set(
        "opt.winner_hit_ratio",
        (optimisations > 0)
            .then(|| d.counter(names::OPT_WINNER_HITS) as f64 / optimisations as f64),
    );
    sheet.note(
        "opt.winner_hit_ratio",
        format!("{optimisations} optimise phases, cache hits included"),
    );
    sheet.set(
        "opt.feedback_corrections",
        Some(d.counter(names::OPT_FEEDBACK_CORRECTIONS) as f64),
    );
    sheet.set(
        "parallel.parks",
        Some(d.counter(names::POOL_PARKS) as f64 / ops.max(1) as f64),
    );
    let (bounds, counts, n, _) = d.histogram(names::ADMISSION_WAIT_SECONDS);
    let q = |p: f64| {
        (n as usize >= stats::samples_needed(p))
            .then(|| stats::histogram_quantile(&bounds, &counts, p / 100.0))
            .flatten()
            .map(|s| s * 1e6)
    };
    sheet.set("parallel.admission_wait_p50_us", q(50.0));
    sheet.set("parallel.admission_wait_p99_us", q(99.0));
    sheet.note(
        "parallel.admission_wait_p50_us",
        format!("{n} admissions, interpolated in dqo_admission_wait_seconds buckets"),
    );
}

/// A prepared statement as the probe replays it: the server-side handle
/// plus the in-process preparation the server keeps for it.
pub struct ProbeStmt {
    handle: StatementHandle,
    prepared: PreparedQuery,
    plan: PreparedPlan,
}

impl ProbeStmt {
    /// Prepare `sql` in-process against `engine`, paired with `handle`.
    pub fn new(engine: &Engine, sql: &str, handle: StatementHandle) -> Result<Self, String> {
        let prepared = PreparedQuery::prepare(sql, &Schemas(engine.catalog()))
            .map_err(|e| format!("prepare {sql}: {e}"))?;
        let plan = engine.prepare(prepared.template());
        Ok(ProbeStmt {
            handle,
            prepared,
            plan,
        })
    }
}

/// Replay `PROBES` requests drawn by `next` (statement index and
/// parameters), checking each answer with `check`, and fill the query-
/// and serving-side per-layer metrics from the probe's spans.
pub fn probe(
    engine: &Engine,
    client: &mut Client,
    stmts: &[ProbeStmt],
    mut next: impl FnMut() -> (usize, Vec<Value>),
    check: impl Fn(usize, &[Value], &WireResult) -> bool,
    out: &mut Outcome,
    origin: Instant,
) {
    let mut tracer = Tracer::new(origin, 0xFF);
    let mut rows = OpRows::new();
    let mut qerr = QErrors::default();
    let (mut materialised, mut morsels, mut steals, mut bytes) = (0u64, 0u64, 0u64, 0u64);
    let (mut roundtrip_us, mut in_process_us) = (Vec::new(), Vec::new());
    let mut executed = 0u64;
    for i in 0..PROBES {
        let request = (1 << 40) | i as u64;
        let (s, params) = next();
        let stmt = &stmts[s];
        let root = tracer.open("probe.request", None, request, Instant::now());
        let over_the_wire = |client: &mut Client, tracer: &mut Tracer| {
            let t0 = Instant::now();
            let got = client.execute(stmt.handle, &params);
            let t1 = Instant::now();
            tracer.record_at("server.roundtrip_idle", root, request, t0, t1);
            (got, (t1 - t0).as_secs_f64() * 1e6)
        };
        // Every other request goes over the wire first, so neither side
        // always finds the other's data warm in cache.
        let remote_first = (i % 2 == 1).then(|| over_the_wire(client, &mut tracer));
        let t0 = Instant::now();
        let logical = stmt.prepared.bind_params(&params);
        let t1 = Instant::now();
        tracer.record_at("sql.bind_params", root, request, t0, t1);
        let Ok(logical) = logical else {
            out.check(false);
            continue;
        };
        let result = engine.execute_prepared(&stmt.plan, &logical);
        let t2 = Instant::now();
        let Ok(result) = result else {
            out.check(false);
            continue;
        };
        let call = tracer.record_at("engine.execute_prepared", root, request, t1, t2);
        let at = tracer.ns(t1);
        let exec = trace::record_profile(&mut tracer, request, call, at, &result.profile);
        common::record_plan(
            &mut tracer,
            request,
            exec,
            &result.planned.plan,
            &result.ops,
            &mut rows,
        );
        qerr.keep(&result.planned.plan, &result.ops);
        executed += 1;
        materialised += result.output.pipeline.materialised_rows;
        for m in result.ops.nodes.iter().filter(|m| m.dop.is_some()) {
            morsels += m.morsels;
            steals += m.steals;
        }

        let t3 = Instant::now();
        let reply = ServerFrame::ResultSet(WireResult::from_relation(&result.output.relation));
        let frame = encode_server_frame(&reply);
        let t4 = Instant::now();
        let decoded = decode_server_frame(&frame[4..]);
        let t5 = Instant::now();
        tracer.record_at("server.encode", root, request, t3, t4);
        tracer.record_at("server.decode", root, request, t4, t5);
        bytes += frame.len() as u64;
        let ServerFrame::ResultSet(wire) = reply else {
            unreachable!("built as a result set above")
        };
        let in_process_ok = matches!(&decoded, Ok(ServerFrame::ResultSet(w)) if *w == wire)
            && check(s, &params, &wire);

        let (remote, wire_us) = remote_first.unwrap_or_else(|| over_the_wire(client, &mut tracer));
        tracer.close(root, Instant::now());
        roundtrip_us.push(wire_us);
        in_process_us.push((t2 - t0).as_secs_f64() * 1e6);
        out.check(in_process_ok && remote.is_ok_and(|w| w == wire));
    }

    let spans = tracer.into_spans();
    let sheet = &mut out.layers;
    sheet.set(
        "sql.bind_params_us",
        common::span_p50_us(&spans, "sql.bind_params"),
    );
    sheet.set(
        "opt.optimise_us",
        common::span_p50_us(&spans, "opt.optimise"),
    );
    sheet.set(
        "exec.execute_ms",
        common::span_p50_us(&spans, "exec.execute").map(|us| us / 1e3),
    );
    for name in ["sql.bind_params_us", "opt.optimise_us", "exec.execute_ms"] {
        sheet.note(name, format!("in-process probe, {executed} requests"));
    }
    sheet.set(
        "server.encode_us",
        common::span_p50_us(&spans, "server.encode"),
    );
    sheet.set(
        "server.decode_us",
        common::span_p50_us(&spans, "server.decode"),
    );
    sheet.set(
        "server.frame_bytes",
        Some(bytes as f64 / executed.max(1) as f64),
    );
    let p50 = |v: Vec<f64>| stats::percentile(&stats::sorted(v), 50.0).ok();
    sheet.set(
        "server.overhead_us",
        p50(roundtrip_us)
            .zip(p50(in_process_us))
            .map(|(w, p)| w - p),
    );
    sheet.note(
        "server.overhead_us",
        "p50 idle round trip minus p50 in-process bind_params + execute_prepared",
    );
    let per = |x: u64| Some(x as f64 / executed.max(1) as f64);
    sheet.set("exec.materialised_rows", per(materialised));
    sheet.set("parallel.morsels", per(morsels));
    sheet.set("parallel.steals", per(steals));
    sheet.set("opt.memo_groups", Some(engine.memo_stats().1 as f64));
    qerr.fill(sheet, engine.catalog(), engine.feedback());
    common::operator_metrics(sheet, &spans, &rows);
    out.spans.extend(spans);
}
