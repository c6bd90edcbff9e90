//! Minimal HTTP observability endpoint — the first externally reachable
//! surface of the engine (paving ROADMAP item 2's wire front end).
//!
//! Hand-rolled on `std::net::TcpListener` because `spacetime-obs` is
//! dependency-free by charter. One accept thread, one connection at a
//! time, HTTP/1.0 semantics (`Connection: close` on every response):
//! exactly enough protocol for `curl` and a Prometheus scraper, nothing
//! more. Routes:
//!
//! * `GET /metrics` — the live [`MetricsSnapshot`](crate::MetricsSnapshot)
//!   in the Prometheus text exposition format.
//! * `GET /healthz` — `ok` (liveness).
//! * `GET /statusz` — a JSON status page: uptime, scheduler counters,
//!   per-shard queue depths, WAL/checkpoint state, workload drift, and an
//!   application-supplied `serving` section (see
//!   [`ObsServer::start_with_status`]).
//! * `GET /debug/events` — the flight-recorder ring as JSON.
//!
//! This module only exists with the `metrics` feature on; default builds
//! carry no server, no route strings, and no socket code.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::metrics::json_escape;
use crate::names;

/// Application callback producing the `serving` section of `/statusz` as
/// a JSON value (object, array, or scalar — embedded verbatim).
pub type StatusFn = Arc<dyn Fn() -> String + Send + Sync>;

/// A running observability endpoint. Dropping it stops the accept loop
/// and joins the server thread.
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ObsServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serve
    /// the standard routes with a `null` serving section.
    pub fn start(addr: &str) -> std::io::Result<ObsServer> {
        ObsServer::start_with_status(addr, Arc::new(|| "null".to_string()))
    }

    /// Bind `addr` and serve the standard routes; `status` is invoked per
    /// `/statusz` request to fill the `serving` section.
    pub fn start_with_status(addr: &str, status: StatusFn) -> std::io::Result<ObsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("spacetime-obs-http".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        // One connection at a time: a scrape endpoint has
                        // no concurrency requirement and serial handling
                        // keeps the server trivially correct.
                        let _ = handle_conn(stream, &status);
                    }
                }
            })?;
        Ok(ObsServer { addr: local, stop, handle: Some(handle) })
    }

    /// The bound address (resolves the port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn handle_conn(mut stream: TcpStream, status: &StatusFn) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut buf = [0u8; 4096];
    let mut len = 0usize;
    // Read until the end of the request head; everything we route on is
    // in the request line, so a body (which GET has none of) is ignored.
    loop {
        if len == buf.len() {
            break;
        }
        let n = stream.read(&mut buf[len..])?;
        if n == 0 {
            break;
        }
        len += n;
        if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or(path);

    let (code, reason, ctype, body) = if method != "GET" {
        (405, "Method Not Allowed", "text/plain", "method not allowed\n".to_string())
    } else {
        match path {
            "/metrics" => (
                200,
                "OK",
                "text/plain; version=0.0.4",
                crate::metrics::snapshot().render_prometheus(),
            ),
            "/healthz" => (200, "OK", "text/plain", "ok\n".to_string()),
            "/statusz" => (200, "OK", "application/json", statusz_json(status)),
            "/debug/events" => (200, "OK", "application/json", crate::flight::dump_json()),
            _ => (404, "Not Found", "text/plain", "not found\n".to_string()),
        }
    };
    let resp = format!(
        "HTTP/1.0 {code} {reason}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(resp.as_bytes())?;
    stream.flush()
}

fn json_u64_map(map: &std::collections::BTreeMap<String, u64>) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": {}", json_escape(k), v));
    }
    out.push('}');
    out
}

fn json_f64_map(map: &std::collections::BTreeMap<String, f64>) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let v = if v.is_finite() { *v } else { 0.0 };
        out.push_str(&format!("\"{}\": {}", json_escape(k), v));
    }
    out.push('}');
    out
}

/// Render the `/statusz` JSON body. Public so tests and embedders can
/// produce the page without going through a socket.
pub fn statusz_json(status: &StatusFn) -> String {
    let snap = crate::metrics::snapshot();
    let uptime_ns = crate::flight::process_start().elapsed().as_nanos() as u64;
    let queue_depths = snap
        .labeled_gauges
        .get(names::SCHED_SHARD_QUEUE_DEPTH)
        .cloned()
        .unwrap_or_default();
    let shard_txns = snap
        .labeled_counters
        .get(names::SHARD_TXNS)
        .cloned()
        .unwrap_or_default();
    format!(
        concat!(
            "{{\n",
            "  \"uptime_ns\": {uptime},\n",
            "  \"sched\": {{\"txns\": {txns}, \"cross_shard_txns\": {cross}, ",
            "\"cross_shard_commits\": {xcommits}, \"cross_shard_aborts\": {xaborts}, ",
            "\"committed\": {committed}, \"aborted\": {aborted}}},\n",
            "  \"shards\": {{\"queue_depth\": {depths}, \"txns\": {stxns}}},\n",
            "  \"wal\": {{\"appends\": {wappends}, \"bytes\": {wbytes}, \"fsyncs\": {wfsyncs}, ",
            "\"checkpoints\": {wcps}, \"replayed_txns\": {wreplayed}, ",
            "\"checkpoint_age_txns\": {wage}, \"replay_lag_txns\": {wlag}}},\n",
            "  \"drift\": {{\"txn_mix\": {mix}, \"view_cost_ewma\": {ewma}}},\n",
            "  \"serving\": {serving}\n",
            "}}"
        ),
        uptime = uptime_ns,
        txns = snap.counter(names::SCHED_TXNS),
        cross = snap.counter(names::SCHED_CROSS_SHARD_TXNS),
        xcommits = snap.counter(names::SCHED_CROSS_SHARD_COMMITS),
        xaborts = snap.counter(names::SCHED_CROSS_SHARD_ABORTS),
        committed = snap.labeled_counter(names::SCHED_TXN_OUTCOMES, names::LABEL_OUTCOME_COMMITTED),
        aborted = snap.labeled_counter(names::SCHED_TXN_OUTCOMES, names::LABEL_OUTCOME_ABORTED),
        depths = json_f64_map(&queue_depths),
        stxns = json_u64_map(&shard_txns),
        wappends = snap.counter(names::WAL_APPENDS),
        wbytes = snap.counter(names::WAL_BYTES),
        wfsyncs = snap.counter(names::WAL_FSYNCS),
        wcps = snap.counter(names::WAL_CHECKPOINTS),
        wreplayed = snap.counter(names::WAL_RECOVERY_REPLAYED_TXNS),
        wage = {
            let v = snap.gauge(names::WAL_CHECKPOINT_AGE_TXNS);
            if v.is_finite() { v } else { 0.0 }
        },
        wlag = {
            let v = snap.gauge(names::WAL_REPLAY_LAG_TXNS);
            if v.is_finite() { v } else { 0.0 }
        },
        mix = json_u64_map(&snap.txn_mix),
        ewma = json_f64_map(&snap.view_cost_ewma),
        serving = status(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        let (head, body) = resp.split_once("\r\n\r\n").unwrap();
        let code: u16 = head.split_whitespace().nth(1).unwrap().parse().unwrap();
        (code, head.to_string(), body.to_string())
    }

    #[test]
    fn serves_all_routes() {
        crate::counter_add("spacetime_http_test_total", 1);
        let server = ObsServer::start_with_status(
            "127.0.0.1:0",
            Arc::new(|| "{\"mode\": \"test\"}".to_string()),
        )
        .unwrap();
        let addr = server.local_addr();

        let (code, _, body) = get(addr, "/healthz");
        assert_eq!(code, 200);
        assert_eq!(body, "ok\n");

        let (code, head, body) = get(addr, "/metrics");
        assert_eq!(code, 200);
        assert!(head.contains("text/plain"));
        assert!(body.contains("# TYPE spacetime_http_test_total counter"));
        assert!(body.contains("spacetime_http_test_total 1"));

        let (code, _, body) = get(addr, "/statusz");
        assert_eq!(code, 200);
        assert!(body.contains("\"uptime_ns\""));
        assert!(body.contains("\"sched\""));
        assert!(body.contains("\"wal\""));
        assert!(body.contains("\"serving\": {\"mode\": \"test\"}"));

        let (code, _, body) = get(addr, "/debug/events");
        assert_eq!(code, 200);
        assert!(body.starts_with('['));

        let (code, _, _) = get(addr, "/nope");
        assert_eq!(code, 404);
        drop(server);
    }

    #[test]
    fn content_length_matches_body() {
        let server = ObsServer::start("127.0.0.1:0").unwrap();
        let (_, head, body) = get(server.local_addr(), "/healthz");
        let clen: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(clen, body.len());
    }
}
