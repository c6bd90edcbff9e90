//! Minimal HTTP observability endpoint — the first externally reachable
//! surface of the engine (paving ROADMAP item 2's wire front end).
//!
//! Hand-rolled on `std::net::TcpListener` because `spacetime-obs` is
//! dependency-free by charter. One accept thread, one connection at a
//! time, HTTP/1.0 semantics (`Connection: close` on every response):
//! exactly enough protocol for `curl` and a Prometheus scraper, nothing
//! more. Because connections are served one at a time, each gets one
//! [`REQUEST_DEADLINE`] for its whole request head, however slowly it
//! sends it, so no client can hold the endpoint longer than that. Routes:
//!
//! * `GET /metrics` — the live [`MetricsSnapshot`](crate::MetricsSnapshot)
//!   in the Prometheus text exposition format.
//! * `GET /healthz` — `ok` (liveness).
//! * `GET /statusz` — a JSON status page: uptime, transaction counters,
//!   WAL/checkpoint state, workload drift, and an application-supplied
//!   `serving` section (see
//!   [`ObsServer::start_with_status`]).
//! * `GET /debug/events` — the flight-recorder ring as JSON.
//!
//! This module only exists with the `metrics` feature on; default builds
//! carry no server, no route strings, and no socket code.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::metrics::json_escape;
use crate::names;

/// How long one connection may take to deliver its request head, in
/// total; also the timeout for writing the response.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(2);
/// The longest request head served; a longer one is answered 431.
const MAX_HEAD: usize = 4096;

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

/// Status code, reason phrase, content type and body.
type Response = (u16, &'static str, &'static str, String);

/// A plain-text error response whose body is the reason phrase.
fn reject(code: u16, reason: &'static str) -> Response {
    (code, reason, "text/plain", format!("{}\n", reason.to_ascii_lowercase()))
}

/// Read a request head under one deadline for the whole head: the read
/// timeout is reset to what is left of it before every read. `Ok(len)`
/// when the head is complete (or the client stopped sending), else the
/// 4xx response to answer with.
fn read_head(stream: &mut TcpStream, buf: &mut [u8]) -> std::io::Result<Result<usize, Response>> {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let mut len = 0usize;
    while !buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
        if len == buf.len() {
            return Ok(Err(reject(431, "Request Header Fields Too Large")));
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Ok(Err(reject(408, "Request Timeout")));
        }
        stream.set_read_timeout(Some(left))?;
        match stream.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => len += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(Err(reject(408, "Request Timeout")))
            }
            Err(e) => return Err(e),
        }
    }
    Ok(Ok(len))
}

fn handle_conn(mut stream: TcpStream, status: &StatusFn) -> std::io::Result<()> {
    stream.set_write_timeout(Some(REQUEST_DEADLINE))?;
    let mut buf = [0u8; MAX_HEAD];
    let (code, reason, ctype, body) = match read_head(&mut stream, &mut buf)? {
        Ok(len) => route(&buf[..len], status),
        Err(rejected) => rejected,
    };
    let resp = format!(
        "HTTP/1.0 {code} {reason}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(resp.as_bytes())?;
    stream.flush()
}

/// Answer a complete request head; everything routed on is in the request
/// line, so a body (which GET has none of) is ignored.
fn route(head: &[u8], status: &StatusFn) -> Response {
    let head = String::from_utf8_lossy(head);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (method, path, version) = (parts.next(), parts.next(), parts.next());
    let (Some(method), Some(path), Some(version)) = (method, path, version) else {
        return reject(400, "Bad Request");
    };
    if !version.starts_with("HTTP/") || parts.next().is_some() {
        return reject(400, "Bad Request");
    }
    if method != "GET" {
        return reject(405, "Method Not Allowed");
    }
    match path.split('?').next().unwrap_or(path) {
        "/metrics" => (
            200,
            "OK",
            "text/plain; version=0.0.4",
            crate::metrics::snapshot().render_prometheus(),
        ),
        "/healthz" => (200, "OK", "text/plain", "ok\n".to_string()),
        "/statusz" => (200, "OK", "application/json", statusz_json(status)),
        "/debug/events" => (200, "OK", "application/json", crate::flight::dump_json()),
        _ => reject(404, "Not Found"),
    }
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

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn json_f64_map(map: &std::collections::BTreeMap<String, f64>) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": {}", json_escape(k), finite(*v)));
    }
    out.push('}');
    out
}

/// Render the `/statusz` JSON body. Public so tests and embedders can
/// produce the page without going through a socket.
pub fn statusz_json(status: &StatusFn) -> String {
    let snap = crate::metrics::snapshot();
    let uptime_ns = crate::flight::process_start().elapsed().as_nanos() as u64;
    format!(
        concat!(
            "{{\n",
            "  \"uptime_ns\": {uptime},\n",
            "  \"sched\": {{\"txns\": {txns}, \"committed\": {committed}, ",
            "\"aborted\": {aborted}, \"queue_depth\": {depth}}},\n",
            "  \"wal\": {{\"appends\": {wappends}, \"bytes\": {wbytes}, \"fsyncs\": {wfsyncs}, ",
            "\"checkpoints\": {wcps}, \"replayed_txns\": {wreplayed}, ",
            "\"checkpoint_age_txns\": {wage}, \"replay_lag_txns\": {wlag}}},\n",
            "  \"drift\": {{\"txn_mix\": {mix}, \"view_cost_ewma\": {ewma}}},\n",
            "  \"serving\": {serving}\n",
            "}}"
        ),
        uptime = uptime_ns,
        txns = snap.counter(names::SCHED_TXNS),
        committed = snap.labeled_counter(names::SCHED_TXN_OUTCOMES, names::LABEL_OUTCOME_COMMITTED),
        aborted = snap.labeled_counter(names::SCHED_TXN_OUTCOMES, names::LABEL_OUTCOME_ABORTED),
        depth = finite(snap.gauge(names::SCHED_QUEUE_DEPTH)),
        wappends = snap.counter(names::WAL_APPENDS),
        wbytes = snap.counter(names::WAL_BYTES),
        wfsyncs = snap.counter(names::WAL_FSYNCS),
        wcps = snap.counter(names::WAL_CHECKPOINTS),
        wreplayed = snap.counter(names::WAL_RECOVERY_REPLAYED_TXNS),
        wage = finite(snap.gauge(names::WAL_CHECKPOINT_AGE_TXNS)),
        wlag = finite(snap.gauge(names::WAL_REPLAY_LAG_TXNS)),
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

    /// Send `raw` as a whole request and read the status code back.
    fn send(addr: SocketAddr, raw: &[u8]) -> u16 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw).unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        resp.split_whitespace().nth(1).unwrap().parse().unwrap()
    }

    /// A client that trickles its request head one byte at a time, each
    /// byte inside any per-read timeout, is cut off at the one deadline of
    /// its connection: `/healthz` behind it is answered in about
    /// [`REQUEST_DEADLINE`], not after the trickle ends.
    #[test]
    fn a_trickling_client_does_not_hold_the_endpoint() {
        let server = ObsServer::start("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let trickle = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut slow = TcpStream::connect(addr).unwrap();
                // Up to ten seconds of one byte per 250 ms, never a full head.
                for _ in 0..40 {
                    if stop.load(Ordering::Relaxed) || slow.write_all(b"G").is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(250));
                }
            })
        };
        std::thread::sleep(Duration::from_millis(100));
        let t0 = Instant::now();
        let (code, _, body) = get(addr, "/healthz");
        let waited = t0.elapsed();
        stop.store(true, Ordering::Relaxed);
        trickle.join().unwrap();
        assert_eq!((code, body.as_str()), (200, "ok\n"));
        assert!(waited < Duration::from_secs(3), "/healthz waited {waited:?}");
    }

    /// An oversized request head is answered 431 and a garbage one 400;
    /// neither stops the server.
    #[test]
    fn oversized_or_garbage_heads_get_a_4xx() {
        let server = ObsServer::start("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        assert_eq!(send(addr, &[b'a'; MAX_HEAD]), 431);
        assert_eq!(send(addr, b"\x00\xff\r\n\r\n"), 400);
        assert_eq!(send(addr, b"GET /healthz\r\n\r\n"), 400);
        assert_eq!(send(addr, b"GET /healthz SMTP/1.0\r\n\r\n"), 400);
        assert_eq!(send(addr, b"POST /healthz HTTP/1.0\r\n\r\n"), 405);
        assert_eq!(get(addr, "/healthz").0, 200);
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
