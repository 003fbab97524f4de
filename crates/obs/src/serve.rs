//! Zero-dependency live-telemetry scrape server over
//! [`std::net::TcpListener`].
//!
//! Long-running commands (`airfinger fleet`, `airfinger monitor`) opt in
//! with `--serve-metrics <addr>`; the server runs on one background
//! thread and answers four read-only endpoints:
//!
//! - `GET /metrics` — the global registry in Prometheus text format
//!   (what [`crate::Snapshot::to_prometheus`] exports);
//! - `GET /health` — a JSON rollup: recording/profiling switches,
//!   process allocation pressure, every `fleet_*`/`health_state`/
//!   `engine_window_*`/`budget_*`/`burn_*` gauge, the global event
//!   journal's head/retention, and the bounded [`crate::timeseries`]
//!   history;
//! - `GET /profile` — the profiler's collapsed-stack text (empty until
//!   [`crate::profile::set_enabled`] is turned on); `?baseline=set`
//!   stores the current snapshot as the diff baseline, and `?diff=base`
//!   answers the signed collapsed diff against it (for differential
//!   flamegraphs; 400 when no baseline was stored);
//! - `GET /events` — the global [`crate::events`] journal tail as JSON;
//!   `?after=<seq>` resumes strictly after a previously seen sequence
//!   number and `?limit=<n>` caps the batch (default 256).
//!
//! Malformed input gets explicit errors instead of silence: unknown
//! paths get a 404 with a body naming the path, a truncated or
//! unparseable request line gets a 400, an oversized path gets a 400,
//! and non-GET methods get a 405 with an `Allow: GET` header — all
//! counted under `serve_requests_total{endpoint=...}`.
//!
//! **Security caveats** (documented in DESIGN.md §13): the server is
//! plain HTTP/1.0-style with no TLS, no authentication, and no request
//! body parsing — bind it to loopback (`127.0.0.1:0` picks a free port)
//! or a trusted interface only. It never mutates engine state; the only
//! registry write is the `serve_requests_total` counter, so scraping a
//! process does not perturb its deterministic pipeline metrics.
//!
//! The accept loop polls a nonblocking listener (~20 ms cadence) so
//! [`ScrapeServer::stop`]/drop can shut it down promptly without a
//! self-connect trick; each connection is handled synchronously with
//! short read/write timeouts, which is plenty for scrape traffic.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Poll cadence of the nonblocking accept loop.
const ACCEPT_POLL: Duration = Duration::from_millis(20);
/// Per-connection read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_millis(1000);
/// Maximum request head read before answering (headers are ignored).
const MAX_REQUEST: usize = 8 * 1024;
/// Maximum accepted request path (including query string).
const MAX_PATH: usize = 1024;
/// Default `/events` batch size when `?limit=` is absent.
const DEFAULT_EVENTS_LIMIT: usize = 256;

/// A running scrape server; stops (and joins its thread) on drop.
#[derive(Debug)]
pub struct ScrapeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ScrapeServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// serving on a background thread.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration failures from the listener.
    pub fn start<A: ToSocketAddrs>(addr: A) -> std::io::Result<ScrapeServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("obs-scrape".to_string())
            .spawn(move || accept_loop(&listener, &stop_flag))?;
        Ok(ScrapeServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal the accept loop to exit and join the thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, stop: &AtomicBool) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => handle_connection(stream),
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Outcome of parsing one request head.
enum Request {
    /// A syntactically acceptable `GET <path>` (query string attached).
    Get(String),
    /// Unparseable or over-limit input; answered with a 400 naming the
    /// problem.
    Bad(&'static str),
    /// A well-formed request with a non-GET method; answered with 405.
    MethodNotAllowed,
}

/// Read the request head and answer one routed response; I/O errors drop
/// the connection (a scraper will retry).
fn handle_connection(mut stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let Some(request) = read_request(&mut stream) else {
        return;
    };
    let (status, content_type, body, extra_header) = match request {
        Request::Get(path) => {
            let (status, content_type, body) = route(&path);
            (status, content_type, body, "")
        }
        Request::Bad(reason) => {
            crate::counter!("serve_requests_total", endpoint = "bad_request").inc();
            (
                "400 Bad Request",
                "text/plain; charset=utf-8",
                format!("400 bad request: {reason}\n"),
                "",
            )
        }
        Request::MethodNotAllowed => {
            crate::counter!("serve_requests_total", endpoint = "method_not_allowed").inc();
            (
                "405 Method Not Allowed",
                "text/plain; charset=utf-8",
                "405 method not allowed: this server only answers GET\n".to_string(),
                "Allow: GET\r\n",
            )
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{extra_header}Connection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// Parse `<method> <path> …` from the request head; tolerates any
/// headers and stops at the blank line or the size cap. Returns `None`
/// only when the peer sent nothing at all (connect-and-close probes);
/// everything else gets an explicit answer.
fn read_request(stream: &mut TcpStream) -> Option<Request> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= MAX_REQUEST {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    if buf.is_empty() {
        return None;
    }
    let head = String::from_utf8_lossy(&buf);
    let Some(first) = head.lines().next() else {
        return Some(Request::Bad("empty request line"));
    };
    let mut parts = first.split_whitespace();
    let Some(method) = parts.next() else {
        return Some(Request::Bad("empty request line"));
    };
    // A partial request line ("GET" alone, or a method fragment cut off
    // mid-write) has no path token.
    let Some(path) = parts.next() else {
        return Some(Request::Bad("truncated request line (no path)"));
    };
    if path.len() > MAX_PATH {
        return Some(Request::Bad("request path too long"));
    }
    if method != "GET" {
        return Some(Request::MethodNotAllowed);
    }
    Some(Request::Get(path.to_string()))
}

/// Route one request path (query string still attached) to
/// `(status, content type, body)`.
fn route(raw_path: &str) -> (&'static str, &'static str, String) {
    let (path, query) = match raw_path.split_once('?') {
        Some((path, query)) => (path, query),
        None => (raw_path, ""),
    };
    match path {
        "/metrics" => {
            crate::counter!("serve_requests_total", endpoint = "metrics").inc();
            let body = crate::global().snapshot().to_prometheus();
            ("200 OK", "text/plain; version=0.0.4; charset=utf-8", body)
        }
        "/health" => {
            crate::counter!("serve_requests_total", endpoint = "health").inc();
            ("200 OK", "application/json", health_json())
        }
        "/profile" => {
            crate::counter!("serve_requests_total", endpoint = "profile").inc();
            match profile_body(query) {
                Ok(body) => ("200 OK", "text/plain; charset=utf-8", body),
                Err(reason) => (
                    "400 Bad Request",
                    "text/plain; charset=utf-8",
                    format!("400 bad request: {reason}\n"),
                ),
            }
        }
        "/events" => {
            crate::counter!("serve_requests_total", endpoint = "events").inc();
            match events_json(query) {
                Ok(body) => ("200 OK", "application/json", body),
                Err(reason) => (
                    "400 Bad Request",
                    "text/plain; charset=utf-8",
                    format!("400 bad request: {reason}\n"),
                ),
            }
        }
        "/" => {
            crate::counter!("serve_requests_total", endpoint = "index").inc();
            (
                "200 OK",
                "text/plain; charset=utf-8",
                "airfinger live telemetry: /metrics /health /profile /events\n".to_string(),
            )
        }
        _ => {
            crate::counter!("serve_requests_total", endpoint = "other").inc();
            (
                "404 Not Found",
                "text/plain; charset=utf-8",
                format!(
                    "404 not found: {path}\nknown paths: / /metrics /health /profile /events\n"
                ),
            )
        }
    }
}

/// Serve the profiler's collapsed-stack text. Query parameters:
/// `baseline=set` stores the current [`crate::profile::snapshot`] as the
/// diff baseline ([`crate::profile::set_baseline`]) and confirms;
/// `diff=base` answers the *signed* collapsed diff of the live snapshot
/// against that stored baseline (400 when none was set). No query (or
/// unknown parameters, which are ignored) serves the plain collapsed
/// snapshot as before.
fn profile_body(query: &str) -> Result<String, &'static str> {
    let mut baseline_op = None;
    let mut diff_op = None;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "baseline" => baseline_op = Some(value.to_string()),
            "diff" => diff_op = Some(value.to_string()),
            _ => {}
        }
    }
    match (baseline_op.as_deref(), diff_op.as_deref()) {
        (Some("set"), None) => {
            let snap = crate::profile::snapshot();
            let paths = snap.paths.len();
            crate::profile::set_baseline(snap);
            Ok(format!("profile baseline set ({paths} paths)\n"))
        }
        (Some(_), _) => Err("`baseline` only accepts `set`"),
        (None, Some("base")) => match crate::profile::baseline() {
            Some(base) => Ok(crate::profile::snapshot().diff(&base).collapsed()),
            None => Err("no profile baseline set; GET /profile?baseline=set first"),
        },
        (None, Some(_)) => Err("`diff` only accepts `base`"),
        (None, None) => Ok(crate::profile::snapshot().collapsed()),
    }
}

/// Serve the global event journal's tail. Query parameters: `after`
/// (return events with `seq > after`; default 0 = from the oldest
/// retained) and `limit` (batch cap; default
/// [`DEFAULT_EVENTS_LIMIT`]). Unknown parameters are ignored; malformed
/// values are a 400.
fn events_json(query: &str) -> Result<String, &'static str> {
    let mut after = 0u64;
    let mut limit = DEFAULT_EVENTS_LIMIT;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "after" => {
                after = value
                    .parse()
                    .map_err(|_| "`after` must be a sequence number")?;
            }
            "limit" => {
                limit = value.parse().map_err(|_| "`limit` must be a count")?;
            }
            _ => {}
        }
    }
    Ok(crate::events::global().to_json_after(after, limit))
}

/// The `/health` JSON rollup (also usable without the server, e.g. for
/// tests): switches, allocation pressure, the event journal's head and
/// retention, the SLO/budget/burn gauges, and the bounded history.
#[must_use]
pub fn health_json() -> String {
    use crate::export::{json_number, json_string};
    let snapshot = crate::global().snapshot();
    let alloc = crate::alloc::process_stats();
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"airfinger-health-v1\",\n");
    out.push_str(&format!(
        "  \"recording\": {},\n  \"profiling\": {},\n",
        crate::recording(),
        crate::profile::enabled()
    ));
    out.push_str(&format!(
        "  \"alloc\": {{\"counting\": {}, \"count\": {}, \"bytes\": {}}},\n",
        crate::alloc::counting(),
        alloc.count,
        alloc.bytes
    ));
    let journal = crate::events::global();
    out.push_str(&format!(
        "  \"events\": {{\"head\": {}, \"retained\": {}, \"dropped\": {}, \"capacity\": {}}},\n",
        journal.head_seq(),
        journal.len(),
        journal.dropped(),
        journal.capacity()
    ));
    out.push_str("  \"gauges\": {");
    let mut first = true;
    for g in &snapshot.gauges {
        let identity = g.id.to_string();
        let relevant = identity.starts_with("fleet_")
            || identity.starts_with("engine_window_")
            || identity.starts_with("budget_")
            || identity.starts_with("burn_")
            || identity == "health_state";
        if !relevant {
            continue;
        }
        if !first {
            out.push_str(", ");
        }
        first = false;
        out.push_str(&format!(
            "{}: {}",
            json_string(&identity),
            json_number(g.value)
        ));
    }
    out.push_str("},\n");
    out.push_str(&format!(
        "  \"timeseries\": {}\n}}\n",
        crate::timeseries::to_json()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        response
    }

    #[test]
    fn serves_all_endpoints_and_404() {
        let server = ScrapeServer::start("127.0.0.1:0").expect("bind loopback");
        let addr = server.addr();
        crate::counter!("serve_test_total").inc();

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        if cfg!(feature = "obs") {
            assert!(metrics.contains("serve_test_total"), "{metrics}");
        }

        let health = get(addr, "/health");
        assert!(health.contains("airfinger-health-v1"), "{health}");
        assert!(health.contains("\"timeseries\""), "{health}");

        let profile = get(addr, "/profile");
        assert!(profile.starts_with("HTTP/1.1 200 OK"), "{profile}");

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        assert!(missing.contains("404 not found: /nope"), "{missing}");
        assert!(
            missing.contains("/events"),
            "404 lists endpoints: {missing}"
        );

        let index = get(addr, "/?q=1");
        assert!(
            index.contains("/metrics /health /profile /events"),
            "{index}"
        );
        server.stop();
    }

    /// Send raw (possibly malformed) bytes and return the response.
    fn raw(addr: SocketAddr, request: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request).expect("request");
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        response
    }

    #[test]
    fn non_get_gets_405_with_allow_header() {
        let server = ScrapeServer::start("127.0.0.1:0").expect("bind loopback");
        let response = raw(server.addr(), b"POST /metrics HTTP/1.1\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
        assert!(response.contains("Allow: GET"), "{response}");
        assert!(response.contains("only answers GET"), "{response}");
        server.stop();
    }

    #[test]
    fn truncated_request_line_gets_400() {
        let server = ScrapeServer::start("127.0.0.1:0").expect("bind loopback");
        let addr = server.addr();
        // A bare method with no path (writer cut off mid-line).
        let response = raw(addr, b"GET\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(response.contains("truncated request line"), "{response}");
        // Whitespace-only garbage.
        let response = raw(addr, b"   \r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        server.stop();
    }

    #[test]
    fn oversized_path_gets_400() {
        let server = ScrapeServer::start("127.0.0.1:0").expect("bind loopback");
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(2048));
        let response = raw(server.addr(), long.as_bytes());
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(response.contains("path too long"), "{response}");
        server.stop();
    }

    #[test]
    fn connect_and_close_is_silently_dropped() {
        let server = ScrapeServer::start("127.0.0.1:0").expect("bind loopback");
        let response = raw(server.addr(), b"");
        assert!(
            response.is_empty(),
            "empty probe gets no answer: {response}"
        );
        server.stop();
    }

    #[test]
    fn events_endpoint_serves_journal_tail_with_cursor() {
        use crate::events::{Event, EventKind};
        let server = ScrapeServer::start("127.0.0.1:0").expect("bind loopback");
        let addr = server.addr();

        // Beyond-the-tail cursors are empty, never an error — valid even
        // when other tests already published into the global journal.
        let head = crate::events::global().head_seq();
        let beyond = get(addr, &format!("/events?after={}", head + 1000));
        assert!(beyond.starts_with("HTTP/1.1 200"), "{beyond}");
        assert!(beyond.contains("\"events\": []"), "{beyond}");

        let seq = crate::events::global().publish(Event {
            seq: 0,
            session_seq: 0,
            sample: 123,
            session: Some(7),
            shard: Some(1),
            window: Some(2),
            kind: EventKind::Recognition { family: "detect" },
        });
        let tail = get(addr, &format!("/events?after={}", seq - 1));
        assert!(tail.starts_with("HTTP/1.1 200"), "{tail}");
        assert!(tail.contains("airfinger-events-v1"), "{tail}");
        assert!(tail.contains(&format!("\"seq\": {seq}")), "{tail}");
        assert!(tail.contains("\"family\": \"detect\""), "{tail}");

        // Malformed cursor values are a 400, not a crash or a silent 0.
        let bad = get(addr, "/events?after=banana");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
        let bad = get(addr, "/events?limit=-1");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
        server.stop();
    }

    #[cfg(feature = "obs")]
    #[test]
    fn metrics_endpoint_includes_latency_histograms() {
        let server = ScrapeServer::start("127.0.0.1:0").expect("bind loopback");
        crate::histogram!("serve_latency_test_seconds").record(7);
        let metrics = get(server.addr(), "/metrics");
        assert!(
            metrics.contains("serve_latency_test_seconds_bucket{le=\"0.000000007\"} 1"),
            "{metrics}"
        );
        assert!(!metrics.contains("_ns_bucket"), "{metrics}");
        server.stop();
    }

    #[test]
    fn profile_endpoint_handles_baseline_and_diff_queries() {
        let server = ScrapeServer::start("127.0.0.1:0").expect("bind loopback");
        let addr = server.addr();

        // Diffing before a baseline exists is an explicit 400.
        crate::profile::clear_baseline();
        let missing = get(addr, "/profile?diff=base");
        assert!(missing.starts_with("HTTP/1.1 400"), "{missing}");
        assert!(missing.contains("no profile baseline"), "{missing}");

        let set = get(addr, "/profile?baseline=set");
        assert!(set.starts_with("HTTP/1.1 200"), "{set}");
        assert!(set.contains("profile baseline set"), "{set}");

        // With an identical live snapshot the signed diff elides
        // zero-delta paths — the body may be empty, but it is a 200.
        let diff = get(addr, "/profile?diff=base");
        assert!(diff.starts_with("HTTP/1.1 200"), "{diff}");

        // Unknown parameter values are a 400, not silence.
        let bad = get(addr, "/profile?diff=banana");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
        let bad = get(addr, "/profile?baseline=clear");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
        crate::profile::clear_baseline();
        server.stop();
    }

    #[test]
    fn health_json_is_valid_shape() {
        let json = health_json();
        assert!(json.contains("\"alloc\""));
        assert!(json.contains("\"gauges\""));
        assert!(json.contains("\"events\""));
    }
}
