//! Integration test for the serving-plane telemetry endpoint: serves a
//! batch through `Database::run`, stands up the `spacetime-obs` HTTP
//! endpoint on an ephemeral port, and asserts that what `/metrics` and
//! `/statusz` serve is *self-consistent* — the exposition's transaction
//! and outcome books equal the `SchedStats` the run returned, and the
//! queue-depth gauge has drained.
//!
//! The whole file is feature-gated: in the default build there is no
//! recorder and no HTTP module, and this binary compiles to nothing.
#![cfg(feature = "metrics")]

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;

use spacetime_bench::workload::{load_paper_data, mixed_workload, paper_schema_db};
use spacetime_ivm::Txn;
use spacetime_obs::http::ObsServer;
use spacetime_obs::names as metric;

/// One blocking HTTP/1.0 GET against the server; returns (status, body).
fn get(addr: &std::net::SocketAddr, path: &str) -> (String, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    write!(conn, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").expect("request");
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

/// The value of an unlabeled series in a Prometheus text exposition.
fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// The sum of every sample of a labeled family (`name{...} value`).
fn prom_labeled_sum(text: &str, name: &str) -> f64 {
    let prefix = format!("{name}{{");
    text.lines()
        .filter(|l| l.starts_with(&prefix))
        .filter_map(|l| l.split_whitespace().nth(1))
        .filter_map(|v| v.parse::<f64>().ok())
        .sum()
}

/// Pull `"key": <integer>` out of the status document (hand-rolled like
/// the exposition itself; the values asserted here are all unsigned).
fn json_u64(doc: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\": ");
    let at = doc.find(&needle)? + needle.len();
    let rest = &doc[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[test]
fn endpoint_serves_self_consistent_metrics_and_status() {
    // Serve far enough that every family moves.
    let mut db = paper_schema_db();
    load_paper_data(&mut db, 12, 4);
    db.execute_sql(
        "CREATE MATERIALIZED VIEW DeptProfile AS \
         SELECT DName, COUNT(*) AS Heads, MAX(Salary) AS TopSal \
         FROM Emp GROUP BY DName",
    )
    .expect("view DDL");
    let txns: Vec<Txn> = mixed_workload(12, 4, 40, 7)
        .into_iter()
        .map(|(table, delta)| vec![(table, delta)])
        .collect();
    let out = db.run(&txns);
    assert!(out.results.iter().all(|r| r.is_ok()));

    let status: spacetime_obs::http::StatusFn = Arc::new(|| "{ \"probe\": true }".to_string());
    let server = ObsServer::start_with_status("127.0.0.1:0", status).expect("bind");
    let addr = server.local_addr();

    let (status_line, health) = get(&addr, "/healthz");
    assert!(status_line.contains("200"), "healthz: {status_line}");
    assert_eq!(health, "ok\n");

    // /metrics: the exposition's books must equal the SchedStats of the
    // run (this test binary serves nothing else).
    let (status_line, text) = get(&addr, "/metrics");
    assert!(status_line.contains("200"), "metrics: {status_line}");
    let stats = &out.stats;
    assert_eq!(
        prom_value(&text, metric::SCHED_TXNS),
        Some(stats.txns as f64),
        "exposition disagrees with SchedStats on txns"
    );
    assert_eq!(
        prom_labeled_sum(&text, metric::SCHED_TXN_OUTCOMES),
        (stats.committed + stats.aborted) as f64,
        "outcome family does not sum to the decided txns"
    );
    // Every transaction was decided: the queue gauge reads zero.
    assert_eq!(prom_value(&text, metric::SCHED_QUEUE_DEPTH), Some(0.0));

    // /statusz: same books through the JSON route, plus liveness fields
    // and the caller-supplied serving section verbatim.
    let (status_line, doc) = get(&addr, "/statusz");
    assert!(status_line.contains("200"), "statusz: {status_line}");
    assert_eq!(json_u64(&doc, "txns"), Some(stats.txns));
    assert_eq!(json_u64(&doc, "committed"), Some(stats.committed));
    assert_eq!(json_u64(&doc, "aborted"), Some(stats.aborted));
    assert_eq!(json_u64(&doc, "queue_depth"), Some(0));
    assert!(json_u64(&doc, "uptime_ns").is_some_and(|ns| ns > 0));
    assert!(
        doc.contains("\"probe\": true"),
        "serving section missing: {doc}"
    );
    assert!(doc.contains("\"drift\""), "drift section missing");
    assert!(
        !doc.contains("shard"),
        "a shard field outlived the shards: {doc}"
    );

    // /debug/events: the flight recorder saw the admissions and commits.
    let (status_line, events) = get(&addr, "/debug/events");
    assert!(status_line.contains("200"), "events: {status_line}");
    assert!(
        events.contains("txn_admitted"),
        "no admissions recorded: {events}"
    );
    assert!(
        events.contains("txn_committed"),
        "no commits recorded: {events}"
    );

    // Unknown routes 404 without killing the server.
    let (status_line, _) = get(&addr, "/nope");
    assert!(status_line.contains("404"), "unknown route: {status_line}");
    let (status_line, _) = get(&addr, "/healthz");
    assert!(status_line.contains("200"), "server died after a 404");
}
