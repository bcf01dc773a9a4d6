//! End-to-end socket tests: real TCP connections against a served
//! engine, checked bit-identically against in-process execution.

use dqo_core::Engine;
use dqo_obs::{names, MetricsRegistry};
use dqo_parallel::PersistentPool;
use dqo_server::{
    Client, ClientError, ErrorCode, ProtocolError, Server, ServerHandle, WireData, WireResult,
};
use dqo_sql::SchemaProvider;
use dqo_storage::datagen::DatasetSpec;
use dqo_storage::{Relation, Value};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

struct CatalogSchemas<'a>(&'a dqo_core::Catalog);

impl SchemaProvider for CatalogSchemas<'_> {
    fn table_schema(&self, table: &str) -> Option<dqo_storage::Schema> {
        self.0.get(table).ok().map(|e| e.relation.schema().clone())
    }
}

fn table(rows: usize, groups: usize) -> Relation {
    DatasetSpec::new(rows, groups)
        .sorted(false)
        .dense(true)
        .seed(7)
        .relation()
        .expect("datagen")
}

/// A served engine on a shared pool with an isolated metrics registry.
fn serve(rows: usize, groups: usize) -> (Arc<Engine>, ServerHandle, Arc<MetricsRegistry>) {
    let registry = Arc::new(MetricsRegistry::new());
    let pool = Arc::new(PersistentPool::with_admission(2, 2));
    let engine =
        Arc::new(Engine::with_shared_pool(pool).with_metrics_registry(Arc::clone(&registry)));
    engine.register_table("t", table(rows, groups));
    let handle =
        Server::start_with_registry(Arc::clone(&engine), "127.0.0.1:0", Arc::clone(&registry))
            .expect("bind");
    (engine, handle, registry)
}

/// The in-process answer for `sql`, encoded exactly as the server
/// encodes it.
fn oracle(engine: &Engine, sql: &str) -> WireResult {
    let logical = dqo_sql::compile(sql, &CatalogSchemas(engine.catalog())).expect("compile");
    let result = engine.query(&logical).expect("oracle query");
    WireResult::from_relation(&result.output.relation)
}

#[test]
fn multi_client_queries_match_in_process_execution() {
    let (engine, handle, _) = serve(50_000, 64);
    let sql = "SELECT key, COUNT(*) AS n, SUM(key) AS s FROM t GROUP BY key ORDER BY key";
    let expected = oracle(&engine, sql);
    assert_eq!(expected.rows, 64);

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let addr = handle.addr();
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for _ in 0..5 {
                    let got = client.query(sql).expect("query");
                    assert_eq!(&got, expected, "socket result diverged from in-process");
                }
                client.close().expect("clean close");
            });
        }
    });
    handle.shutdown();
}

#[test]
fn prepared_statements_hit_the_plan_cache_and_match_cold_plans() {
    let (engine, handle, registry) = serve(50_000, 64);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let stmt = client
        .prepare("SELECT key, COUNT(*) AS n FROM t WHERE key < ? GROUP BY key ORDER BY key")
        .expect("prepare");
    assert_eq!(stmt.params, 1);

    for bound in [8u32, 16, 32, 64, 8, 16, 32, 64] {
        let got = client.execute(stmt, &[Value::U32(bound)]).expect("execute");
        let expected = oracle(
            &engine,
            &format!(
                "SELECT key, COUNT(*) AS n FROM t WHERE key < {bound} GROUP BY key ORDER BY key"
            ),
        );
        assert_eq!(got, expected, "bound={bound}");
    }

    let snap = registry.snapshot();
    let hits = snap.counter(names::PLAN_CACHE_HITS).unwrap_or(0);
    let misses = snap.counter(names::PLAN_CACHE_MISSES).unwrap_or(0);
    assert!(hits > 0, "repeated EXECUTEs must hit the plan cache");
    assert!(misses >= 1, "the first execution is a cold plan");
    client.close_statement(stmt).expect("close stmt");
    client.close().expect("clean close");
    handle.shutdown();
}

#[test]
fn reregistering_the_table_invalidates_cached_plans() {
    let (engine, handle, _) = serve(20_000, 32);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let stmt = client
        .prepare("SELECT key, COUNT(*) AS n FROM t WHERE key < ? GROUP BY key")
        .expect("prepare");

    let before = client.execute(stmt, &[Value::U32(32)]).expect("execute");
    assert_eq!(before.rows, 32);

    // Replace the table: 8 groups over half the rows. The catalog
    // generation bump must make the cached plan unreachable — a stale
    // plan would still answer with 32 groups of old data.
    engine.register_table("t", table(10_000, 8));
    let after = client.execute(stmt, &[Value::U32(32)]).expect("execute");
    assert_eq!(after.rows, 8, "stale cached plan served after DDL");
    match after.column("n") {
        Some(WireData::U64(counts)) => {
            assert_eq!(
                counts.iter().sum::<u64>(),
                10_000,
                "counts must cover the new data"
            )
        }
        other => panic!("count column missing or mistyped: {other:?}"),
    }
    client.close().expect("clean close");
    handle.shutdown();
}

/// The headline mutation criterion at the wire level: an INSERT frame
/// is visible to subsequent prepared executions *without* a plan-cache
/// flush — appends bump the data generation, not the DDL generation.
#[test]
fn insert_over_the_wire_is_visible_without_plan_cache_flush() {
    let (_engine, handle, registry) = serve(10_000, 8);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let stmt = client
        .prepare("SELECT key, COUNT(*) AS n FROM t WHERE key < ? GROUP BY key ORDER BY key")
        .expect("prepare");

    let count_sum = |result: &WireResult| match result.column("n") {
        Some(WireData::U64(counts)) => counts.iter().sum::<u64>(),
        other => panic!("count column missing or mistyped: {other:?}"),
    };

    // Warm the plan cache: first execution is the cold plan.
    let before = client.execute(stmt, &[Value::U32(8)]).expect("execute");
    assert_eq!(count_sum(&before), 10_000);
    let warm = registry.snapshot();
    let misses_before = warm.counter(names::PLAN_CACHE_MISSES).unwrap_or(0);

    // Two appended rows, one via a `?` placeholder.
    let rows = client
        .insert("INSERT INTO t VALUES (0), (?)", &[Value::U32(3)])
        .expect("insert");
    assert_eq!(rows, 2);

    // The cached plan sees the new rows on its next execution.
    let after = client.execute(stmt, &[Value::U32(8)]).expect("execute");
    assert_eq!(count_sum(&after), 10_002, "insert not visible");
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter(names::PLAN_CACHE_MISSES).unwrap_or(0),
        misses_before,
        "INSERT must not flush the plan cache"
    );
    assert!(snap.counter(names::PLAN_CACHE_HITS).unwrap_or(0) >= 1);

    // Bad inserts are typed, session-recoverable errors.
    match client.insert("INSERT INTO nope VALUES (1)", &[]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Sql),
        other => panic!("expected SQL error, got {other:?}"),
    }
    match client.insert("SELECT key FROM t", &[]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Sql),
        other => panic!("expected SQL error, got {other:?}"),
    }
    match client.insert("INSERT INTO t VALUES (1, 2)", &[]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Sql),
        other => panic!("expected SQL error, got {other:?}"),
    }
    // The session survived and still serves.
    let still = client.execute(stmt, &[Value::U32(8)]).expect("execute");
    assert_eq!(count_sum(&still), 10_002);
    client.close().expect("clean close");
    handle.shutdown();
}

#[test]
fn a_client_dying_mid_query_does_not_poison_the_server() {
    let (engine, handle, _) = serve(50_000, 64);
    let sql = "SELECT key, COUNT(*) AS n FROM t GROUP BY key";
    let expected = oracle(&engine, sql);

    // A raw connection that completes the handshake, fires a query and
    // hangs up without ever reading the result.
    {
        let mut raw = TcpStream::connect(handle.addr()).expect("connect");
        let hello = dqo_server::protocol::encode_client_frame(&dqo_server::ClientFrame::Hello {
            version: 1,
            client: "rude".into(),
        })
        .unwrap();
        raw.write_all(&hello).expect("hello");
        let query = dqo_server::protocol::encode_client_frame(&dqo_server::ClientFrame::Query {
            sql: sql.to_owned(),
        })
        .unwrap();
        raw.write_all(&query).expect("query");
        // Drop without reading WELCOME or the result.
    }

    // The pool and other sessions are unaffected.
    let mut client = Client::connect(handle.addr()).expect("connect after rude client");
    for _ in 0..3 {
        let got = client.query(sql).expect("query");
        assert_eq!(got, expected);
    }
    client.close().expect("clean close");
    handle.shutdown();
    assert_eq!(engine.pool().admission().inflight(), 0);
}

#[test]
fn error_codes_are_typed_and_sessions_survive_them() {
    let (_engine, handle, _) = serve(1_000, 8);
    let mut client = Client::connect(handle.addr()).expect("connect");

    // SQL error (code 2): unknown table.
    match client.query("SELECT key FROM nope") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Sql),
        other => panic!("expected SQL error, got {other:?}"),
    }
    // Unknown statement (code 4).
    match client.execute(
        dqo_server::StatementHandle {
            stmt_id: 999,
            params: 0,
        },
        &[],
    ) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownStatement),
        other => panic!("expected unknown-statement error, got {other:?}"),
    }
    // Param mismatch (code 5): wrong arity.
    let stmt = client
        .prepare("SELECT key, COUNT(*) AS n FROM t WHERE key < ? GROUP BY key")
        .expect("prepare");
    match client.execute(stmt, &[]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::ParamMismatch),
        other => panic!("expected param-mismatch error, got {other:?}"),
    }
    // Param mismatch (code 5): wrong type.
    match client.execute(stmt, &[Value::Str("oops".into())]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::ParamMismatch),
        other => panic!("expected param-type error, got {other:?}"),
    }
    // The session survived all four errors.
    let ok = client
        .execute(stmt, &[Value::U32(8)])
        .expect("still usable");
    assert_eq!(ok.rows, 8);
    client.close().expect("clean close");
    handle.shutdown();
}

#[test]
fn oversized_results_draw_err_resource_and_the_session_survives() {
    // 4.2M u32 keys encode to a RESULT_SET body just over MAX_FRAME.
    let (_engine, handle, _) = serve(4_200_000, 8);
    let mut client = Client::connect(handle.addr()).expect("connect");
    match client.query("SELECT key FROM t") {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Resource, "{message}");
            assert!(message.contains("MAX_FRAME"), "{message}");
        }
        other => panic!("expected a resource error, got {other:?}"),
    }
    let ok = client
        .query("SELECT key, COUNT(*) AS n FROM t GROUP BY key")
        .expect("still usable");
    assert_eq!(ok.rows, 8);
    client.close().expect("clean close");
    handle.shutdown();
}

#[test]
fn handshake_violations_are_rejected() {
    let (_engine, handle, registry) = serve(100, 4);

    // First frame not HELLO → protocol error, connection dropped.
    {
        let mut raw = TcpStream::connect(handle.addr()).expect("connect");
        let frame = dqo_server::protocol::encode_client_frame(&dqo_server::ClientFrame::Query {
            sql: "SELECT key FROM t".into(),
        })
        .unwrap();
        raw.write_all(&frame).expect("write");
        let body = dqo_server::protocol::read_frame(&mut raw)
            .expect("read")
            .expect("reply before hangup");
        match dqo_server::protocol::decode_server_frame(&body).expect("decode") {
            dqo_server::ServerFrame::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
            other => panic!("expected protocol error, got {other:?}"),
        }
    }
    // Version 0 → unsupported version.
    {
        let mut raw = TcpStream::connect(handle.addr()).expect("connect");
        let frame = dqo_server::protocol::encode_client_frame(&dqo_server::ClientFrame::Hello {
            version: 0,
            client: "old".into(),
        })
        .unwrap();
        raw.write_all(&frame).expect("write");
        let body = dqo_server::protocol::read_frame(&mut raw)
            .expect("read")
            .expect("reply before hangup");
        match dqo_server::protocol::decode_server_frame(&body).expect("decode") {
            dqo_server::ServerFrame::Error { code, .. } => {
                assert_eq!(code, ErrorCode::UnsupportedVersion)
            }
            other => panic!("expected version error, got {other:?}"),
        }
    }
    // A hostile length prefix → protocol error before allocation.
    {
        let mut raw = TcpStream::connect(handle.addr()).expect("connect");
        let hello = dqo_server::protocol::encode_client_frame(&dqo_server::ClientFrame::Hello {
            version: 1,
            client: "evil".into(),
        })
        .unwrap();
        raw.write_all(&hello).expect("hello");
        let _ = dqo_server::protocol::read_frame(&mut raw).expect("welcome");
        raw.write_all(&u32::MAX.to_le_bytes()).expect("write");
        let body = dqo_server::protocol::read_frame(&mut raw)
            .expect("read")
            .expect("reply before hangup");
        match dqo_server::protocol::decode_server_frame(&body).expect("decode") {
            dqo_server::ServerFrame::Error { code, message } => {
                assert_eq!(code, ErrorCode::Protocol);
                assert!(message.contains("length"), "{message}");
            }
            other => panic!("expected protocol error, got {other:?}"),
        }
    }
    handle.shutdown();
    let snap = registry.snapshot();
    assert!(snap.counter(names::SERVER_PROTOCOL_ERRORS).unwrap_or(0) >= 3);
    assert_eq!(snap.gauge(names::SERVER_ACTIVE_CONNECTIONS), Some(0));
}

#[test]
fn server_metrics_count_connections_and_queries() {
    let (_engine, handle, registry) = serve(1_000, 8);
    let sql = "SELECT key, COUNT(*) AS n FROM t GROUP BY key";
    for _ in 0..3 {
        let mut client = Client::connect(handle.addr()).expect("connect");
        client.query(sql).expect("query");
        client.close().expect("close");
    }
    handle.shutdown();
    let snap = registry.snapshot();
    assert_eq!(snap.counter(names::SERVER_CONNECTIONS), Some(3));
    assert_eq!(snap.counter(names::SERVER_QUERIES), Some(3));
    assert_eq!(snap.gauge(names::SERVER_ACTIVE_CONNECTIONS), Some(0));
    // The served queries flowed through the engine too.
    assert_eq!(snap.counter(names::ENGINE_QUERIES), Some(3));
}

/// `ProtocolError` is part of the public API; keep it constructible in
/// downstream tests.
#[test]
fn protocol_error_display_is_stable() {
    let e = ProtocolError::BadOpcode(0x7F);
    assert_eq!(e.to_string(), "unknown opcode 0x7f");
}
