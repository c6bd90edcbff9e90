//! Serving-plane telemetry end to end: a [`ShardedDatabase`] under a
//! multi-client workload with the `spacetime-obs` HTTP endpoint standing
//! next to it. Drives the scheduler, fetches its own `/statusz` and
//! `/metrics` over real TCP, prints the status document plus a rendered
//! cross-shard transaction span, and dumps the flight recorder's tail.
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

use spacetime::ivm::{PropagationMode, ShardedDatabase, Txn, TxnScheduler};
use spacetime::obs;
use spacetime_bench::workload::{load_paper_data, mixed_workload, paper_schema_db};
use spacetime_storage::ShardSpec;

fn get(addr: &std::net::SocketAddr, path: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    write!(conn, "GET {path} HTTP/1.0\r\nHost: example\r\n\r\n").expect("request");
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("response");
    raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or(raw)
}

fn main() {
    // The paper schema, sharded by department across four partitions.
    let mut template = paper_schema_db();
    template.set_propagation_mode(PropagationMode::Fused);
    load_paper_data(&mut template, 24, 5);
    template
        .execute_sql(
            "CREATE MATERIALIZED VIEW DeptProfile AS \
             SELECT DName, COUNT(*) AS Heads, MAX(Salary) AS TopSal \
             FROM Emp GROUP BY DName",
        )
        .expect("view DDL");
    let spec = ShardSpec::new().with("Emp", vec![1]).with("Dept", vec![0]);
    let mut sharded = ShardedDatabase::partition(&template, spec, 4).expect("partition");
    sharded.set_tracing(true);

    // A mixed workload plus one deliberately cross-shard transaction so
    // the 2PC span below has more than one participant.
    let mut txns: Vec<Txn> = mixed_workload(24, 5, 60, 42)
        .into_iter()
        .map(|(table, delta)| vec![(table, delta)])
        .collect();
    let cross: Txn = {
        let mut all = spacetime_delta::Delta::new();
        for dept in 0..4 {
            // Inserts only: a fresh hire per department has no preimage
            // to go stale under the workload ahead of it.
            all.merge(spacetime_delta::Delta::insert(
                spacetime_storage::tuple![
                    format!("newhire{dept:05}"),
                    format!("dept{dept:05}"),
                    90_i64
                ],
                1,
            ));
        }
        vec![("Emp".to_string(), all)]
    };
    txns.push(cross);

    let scheduler = TxnScheduler::new(&sharded, Arc::default());
    let out = scheduler.run(&txns).expect("scheduler run");
    let ok = out.results.iter().filter(|r| r.is_ok()).count();
    println!("served {ok}/{} transactions over 4 shards\n", txns.len());

    // The endpoint, with the scheduler's books as the serving section.
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

    println!("--- GET /metrics (scheduler families) ---");
    for line in get(&addr, "/metrics").lines() {
        if line.contains("spacetime_sched_") || line.contains("spacetime_shard_") {
            println!("{line}");
        }
    }

    // The cross-shard transaction's span: a `cross-shard commit` root
    // with one child per participating shard, each wrapping that shard's
    // ordinary per-update propagation trace.
    println!("\n--- cross-shard transaction span ---");
    let trace = out
        .traces
        .last()
        .and_then(|t| t.as_ref())
        .expect("tracing was on and the cross-shard txn committed");
    println!("{}", trace.render_text());

    println!("--- flight recorder tail ---");
    let events = obs::flight::dump();
    for e in events.iter().rev().take(8).rev() {
        println!("#{:<6} {:<16} {}", e.seq, e.kind, e.detail);
    }
}
