//! Zero-dependency HTTP/1.0 scrape server for the operations plane.
//!
//! The workspace has no async runtime and no HTTP library, so this is
//! a deliberately small hand-rolled server on `std::net::TcpListener`:
//! one accept thread, one short-lived thread per connection (at most
//! [`MAX_HANDLERS`] at once; the accept thread answers any connection
//! past the cap with `503` itself), bounded request reads (oversized or
//! slow requests are rejected, never buffered without limit),
//! `Connection: close` on every response.
//! It is the repo's first socket code — a stepping stone toward the
//! ROADMAP's socket ingestion front.
//!
//! Endpoints:
//!
//! - `/metrics` — Prometheus text exposition of the shared registry
//!   (wall histograms included; they carry `_ns` names and are
//!   excluded from deterministic dumps elsewhere).
//! - `/metrics.json` — the JSON render of the same registry.
//! - `/healthz` — `200 ok` normally, `503` once any attack-quarantine
//!   counter or the fleet's under-attack rollup is nonzero. Wall-time
//!   fields in the body are prefixed `wall_` per the quarantine
//!   convention.
//! - `/slo` — the attached [`SloEngine`](crate::slo::SloEngine)'s
//!   deterministic report.
//! - `/` — a plain-text index.
//!
//! Wall time is read only through the [`Clock`] seam handed to
//! [`OpsServer::bind`], so tests drive uptime with a
//! [`ManualClock`](crate::clock::ManualClock) and response bodies stay
//! reproducible.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crate::clock::Clock;
use crate::trace::Telemetry;

/// Largest request (line + headers) the server will buffer before
/// answering `431 Request Header Fields Too Large`.
pub const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Connection handler threads alive at once. A slow or idle peer pins
/// its handler for up to the I/O timeout, so without a cap a slowloris
/// client could pin unboundedly many threads.
pub const MAX_HANDLERS: usize = 16;

/// Per-connection socket timeout: a peer that stalls mid-request is
/// dropped instead of pinning a handler thread.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Shared state every connection handler reads.
struct Shared {
    telemetry: Telemetry,
    clock: Arc<dyn Clock>,
    start_ns: u64,
    scrapes: AtomicU64,
    rejected: AtomicU64,
    /// Handler threads holding a [`HandlerSlot`].
    handlers: AtomicUsize,
    shutdown: AtomicBool,
}

/// One of the [`MAX_HANDLERS`] slots, freed when the handler's closure
/// is dropped: after it returns, if it unwinds, or if the spawn fails.
struct HandlerSlot(Arc<Shared>);

impl Drop for HandlerSlot {
    fn drop(&mut self) {
        self.0.handlers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A running scrape server. Dropping (or calling
/// [`shutdown`](Self::shutdown)) stops the accept loop.
pub struct OpsServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for OpsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpsServer").field("addr", &self.addr).finish()
    }
}

impl OpsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving the shared registry and SLO report.
    ///
    /// # Errors
    ///
    /// Propagates bind/listen failures.
    pub fn bind(
        addr: &str,
        telemetry: Telemetry,
        clock: Arc<dyn Clock>,
    ) -> std::io::Result<OpsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            telemetry,
            start_ns: clock.now_ns(),
            clock,
            scrapes: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            handlers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        let worker = Arc::clone(&shared);
        let accept = thread::Builder::new()
            .name("fadewich-ops".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if worker.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    if worker.handlers.fetch_add(1, Ordering::SeqCst) >= MAX_HANDLERS {
                        worker.handlers.fetch_sub(1, Ordering::SeqCst);
                        worker.rejected.fetch_add(1, Ordering::SeqCst);
                        reject_busy(stream);
                        continue;
                    }
                    let slot = HandlerSlot(Arc::clone(&worker));
                    // Short-lived per-connection handlers; a failed
                    // spawn just drops the connection (and the slot).
                    let _ = thread::Builder::new()
                        .name("fadewich-ops-conn".to_string())
                        .spawn(move || handle_connection(stream, &slot.0));
                }
            })?;
        Ok(OpsServer { addr: local, shared, accept: Some(accept) })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests served so far.
    pub fn scrapes(&self) -> u64 {
        self.shared.scrapes.load(Ordering::SeqCst)
    }

    /// Stops the accept loop and joins the accept thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for OpsServer {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop();
        }
    }
}

/// Reads a bounded request head; `None` means oversized/garbled.
fn read_request_head(stream: &mut TcpStream) -> Option<String> {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.len() > MAX_REQUEST_BYTES {
                    return None;
                }
                if buf.windows(4).any(|w| w == b"\r\n\r\n")
                    || buf.windows(2).any(|w| w == b"\n\n")
                {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    Some(String::from_utf8_lossy(&buf).into_owned())
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let Some(head) = read_request_head(&mut stream) else {
        shared.rejected.fetch_add(1, Ordering::SeqCst);
        respond(
            &mut stream,
            431,
            "Request Header Fields Too Large",
            "text/plain",
            "request too large\n",
        );
        // Drain briefly so closing with unread bytes doesn't reset
        // the connection before the peer has read the 431.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
        let mut sink = [0u8; 1024];
        while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
        return;
    };
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (method, target) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method.is_empty() && target.is_empty() {
        // Shutdown self-connect or an empty probe: nothing to answer.
        return;
    }
    if method != "GET" {
        shared.rejected.fetch_add(1, Ordering::SeqCst);
        respond(&mut stream, 405, "Method Not Allowed", "text/plain", "GET only\n");
        return;
    }
    shared.scrapes.fetch_add(1, Ordering::SeqCst);
    let path = target.split('?').next().unwrap_or("");
    let (status, reason, ctype, body) = route(path, shared);
    respond(&mut stream, status, reason, ctype, &body);
}

/// Answers a connection past the handler cap with `503` without ever
/// blocking the accept thread: the socket is non-blocking, so a peer
/// that does not read just loses the response.
fn reject_busy(mut stream: TcpStream) {
    let _ = stream.set_nonblocking(true);
    respond(&mut stream, 503, "Service Unavailable", "text/plain", "busy\n");
    let _ = stream.shutdown(Shutdown::Write);
    // Drain what the peer already sent, so closing does not reset the
    // connection ahead of the 503.
    let mut sink = [0u8; 1024];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

/// Routes a GET to its body. Everything except `/healthz` and `/` is
/// a pure function of the registry/SLO state.
fn route(path: &str, shared: &Shared) -> (u16, &'static str, &'static str, String) {
    match path {
        "/metrics" => {
            let body = shared
                .telemetry
                .prometheus_text(true)
                .unwrap_or_else(|| "# telemetry disabled\n".to_string());
            (200, "OK", "text/plain; version=0.0.4", body)
        }
        "/metrics.json" => {
            let body = shared
                .telemetry
                .metrics_json(true)
                .unwrap_or_else(|| "{}".to_string());
            (200, "OK", "application/json", body + "\n")
        }
        "/healthz" => {
            let under_attack = shared
                .telemetry
                .with_registry(|r| {
                    r.counter("runtime_attack_quarantines") > 0
                        || r.counter("fleet_auth_attack_quarantines") > 0
                        || r.gauge("fleet_health_offices{state=\"under_attack\"}")
                            .unwrap_or(0.0)
                            > 0.0
                })
                .unwrap_or(false);
            let uptime = shared.clock.now_ns().saturating_sub(shared.start_ns);
            let tail = format!(
                "wall_uptime_ns {uptime}\nwall_scrapes {}\nwall_rejected {}\n",
                shared.scrapes.load(Ordering::SeqCst),
                shared.rejected.load(Ordering::SeqCst)
            );
            if under_attack {
                (503, "Service Unavailable", "text/plain", format!("attack-quarantine\n{tail}"))
            } else {
                (200, "OK", "text/plain", format!("ok\n{tail}"))
            }
        }
        "/slo" => match shared.telemetry.slo_text() {
            Some(body) => (200, "OK", "text/plain", body),
            None => (200, "OK", "text/plain", "no slo engine attached\n".to_string()),
        },
        "/" => (
            200,
            "OK",
            "text/plain",
            "fadewich ops plane\n/metrics\n/metrics.json\n/healthz\n/slo\n".to_string(),
        ),
        _ => (404, "Not Found", "text/plain", "not found\n".to_string()),
    }
}

fn respond(stream: &mut TcpStream, status: u16, reason: &str, ctype: &str, body: &str) {
    let head = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .and_then(|()| stream.flush());
}
