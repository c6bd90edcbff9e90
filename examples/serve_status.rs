//! Serving-plane telemetry end to end: a batch served through
//! [`Database::run`] with the `spacetime-obs` HTTP endpoint standing next
//! to it. Serves the batch, fetches its own `/statusz` and `/metrics`
//! over real TCP, prints the status document plus a rendered transaction
//! span, and dumps the flight recorder's tail.
//!
//! Requires the metrics feature (the default build compiles the whole
//! observability plane to nothing):
//!
//! ```text
//! cargo run --release --example serve_status --features metrics
//! ```

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;

use spacetime::ivm::{Database, Txn};
use spacetime::obs;
use spacetime_bench::workload::{load_paper_data, mixed_workload, paper_schema_db};

fn get(addr: &std::net::SocketAddr, path: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    write!(conn, "GET {path} HTTP/1.0\r\nHost: example\r\n\r\n").expect("request");
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("response");
    raw.split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or(raw)
}

fn main() {
    // The paper schema and data, one view.
    let mut db: Database = paper_schema_db();
    load_paper_data(&mut db, 24, 5);
    db.execute_sql(
        "CREATE MATERIALIZED VIEW DeptProfile AS \
         SELECT DName, COUNT(*) AS Heads, MAX(Salary) AS TopSal \
         FROM Emp GROUP BY DName",
    )
    .expect("view DDL");
    db.set_tracing(true);

    // A mixed workload plus one two-update transaction, whose span is
    // printed below.
    let mut txns: Vec<Txn> = mixed_workload(24, 5, 60, 42)
        .into_iter()
        .map(|(table, delta)| vec![(table, delta)])
        .collect();
    // Inserts only: a fresh hire has no preimage to go stale under the
    // workload ahead of it.
    let hire = |dept: usize| {
        let row = spacetime_storage::tuple![
            format!("newhire{dept:05}"),
            format!("dept{dept:05}"),
            90_i64
        ];
        ("Emp".to_string(), spacetime_delta::Delta::insert(row, 1))
    };
    txns.push(vec![hire(0), hire(3)]);

    let out = db.run(&txns);
    let ok = out.results.iter().filter(|r| r.is_ok()).count();
    println!("served {ok}/{} transactions\n", txns.len());

    // The endpoint, with the run's books as the serving section.
    let stats = out.stats;
    let status: obs::http::StatusFn = Arc::new(move || {
        format!(
            "{{ \"example\": \"serve_status\", \"committed\": {}, \"aborted\": {} }}",
            stats.committed, stats.aborted
        )
    });
    let server = obs::http::ObsServer::start_with_status("127.0.0.1:0", status).expect("bind");
    let addr = server.local_addr();
    println!("endpoint listening on http://{addr}\n");

    println!("--- GET /statusz ---");
    println!("{}", get(&addr, "/statusz"));

    println!("--- GET /metrics (transaction families) ---");
    for line in get(&addr, "/metrics").lines() {
        if line.contains("spacetime_sched_") {
            println!("{line}");
        }
    }

    // The two-update transaction's span: a `transaction` root with one
    // per-update propagation trace per update.
    println!("\n--- two-update transaction span ---");
    let trace = out
        .traces
        .last()
        .and_then(|t| t.as_ref())
        .expect("tracing was on and the two-update txn committed");
    println!("{}", trace.render_text());

    println!("--- flight recorder tail ---");
    let events = obs::flight::dump();
    for e in events.iter().rev().take(8).rev() {
        println!("#{:<6} {:<16} {}", e.seq, e.kind, e.detail);
    }
}
