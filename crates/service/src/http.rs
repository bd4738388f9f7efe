//! The HTTP/1.1 front end, hand-rolled over [`std::net::TcpListener`].
//!
//! No async runtime: the vendor policy ships no tokio/hyper, and the
//! service's concurrency lives in the scheduler's worker pool anyway, so a
//! thread-per-connection acceptor over blocking sockets is the whole
//! server. Requests are `Connection: close`; bodies are bounded (16 KiB of
//! headers, 64 MiB of body — enough for an uploaded trace artifact);
//! every malformed request is answered with a typed JSON error and the
//! connection is dropped, never a panic.
//!
//! # Routes
//!
//! | Method & path          | Body               | Reply |
//! |------------------------|--------------------|-------|
//! | `GET /health`          | —                  | `{"ok": true}` |
//! | `GET /metrics`         | —                  | scheduler counters ([`crate::wire::metrics_to_json`]) |
//! | `GET /jobs`            | —                  | every job's status |
//! | `POST /jobs`           | submission JSON    | `{"job": id}` |
//! | `GET /jobs/{id}`       | —                  | one job's status |
//! | `GET /jobs/{id}/results` | —                | outcomes (202 + error body while the job runs; 410 when a result-cache entry the job needs is missing or damaged: resubmit) |
//! | `DELETE /jobs/{id}`    | —                  | cancels the job; its terminal status (409 once terminal) |
//! | `POST /traces`         | trace artifact     | `{"fingerprint": "0x…"}` |

use crate::json::Json;
use crate::{wire, ServiceError, SweepService};
use dvi_program::CapturedTrace;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Largest accepted header block.
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Largest accepted body (a trace artifact upload).
const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;
/// Per-connection socket timeout: a stalled peer cannot pin a handler
/// thread forever.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);

/// A running HTTP front end. Stop it with [`HttpServer::stop`]; dropping
/// without stopping leaves the acceptor running for the life of the
/// process.
#[derive(Debug)]
pub struct HttpServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral test port) and
    /// starts serving `service`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] when the address cannot be bound.
    pub fn serve(service: SweepService, addr: &str) -> Result<HttpServer, ServiceError> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| ServiceError::Io(format!("binding {addr}: {e}")))?;
        let local_addr =
            listener.local_addr().map_err(|e| ServiceError::Io(format!("local addr: {e}")))?;
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("dvi-service-http".into())
                .spawn(move || accept_loop(&listener, &service, &stop))
                .map_err(|e| ServiceError::Io(format!("spawning acceptor: {e}")))?
        };
        Ok(HttpServer { local_addr, stop, acceptor: Some(acceptor) })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting connections and joins the acceptor. In-flight
    /// handlers finish on their own threads. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor with one last connection to ourselves.
        TcpStream::connect(self.local_addr).ok();
        if let Some(handle) = self.acceptor.take() {
            handle.join().ok();
        }
    }

    /// Blocks until the server is stopped (the `serve` subcommand's
    /// foreground mode).
    pub fn join(&mut self) {
        if let Some(handle) = self.acceptor.take() {
            handle.join().ok();
        }
    }
}

fn accept_loop(listener: &TcpListener, service: &SweepService, stop: &AtomicBool) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else { continue };
        let service = service.clone();
        // Handler threads are detached: each is bounded by the socket
        // timeout, so they cannot accumulate past stalled-peer lifetime.
        std::thread::Builder::new()
            .name("dvi-service-conn".into())
            .spawn(move || handle_connection(stream, &service))
            .ok();
    }
}

fn handle_connection(stream: TcpStream, service: &SweepService) {
    stream.set_read_timeout(Some(SOCKET_TIMEOUT)).ok();
    stream.set_write_timeout(Some(SOCKET_TIMEOUT)).ok();
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let response = match read_request(&mut reader) {
        Ok((method, path, body)) => route(service, &method, &path, &body),
        Err(e) => Err(e),
    };
    let (status, body) = match response {
        Ok((status, json)) => (status, json),
        Err(e) => (e.http_status(), wire::error_to_json(&e)),
    };
    write_response(stream, status, &body).ok();
}

/// Reads one request: the request line, the headers (only
/// `Content-Length` matters) and exactly that many body bytes. Every line
/// of the header block is read through what is left of the
/// [`MAX_HEADER_BYTES`] budget, so a peer that streams bytes without a
/// newline is answered 400 once the budget is spent, not buffered.
fn read_request(
    reader: &mut BufReader<TcpStream>,
) -> Result<(String, String, Vec<u8>), ServiceError> {
    let bad = |msg: &str| ServiceError::InvalidRequest(format!("malformed HTTP request: {msg}"));
    let mut budget = MAX_HEADER_BYTES;
    let mut read_line = |what: &str| {
        let mut line = String::new();
        let n = (&mut *reader).take(budget as u64).read_line(&mut line).map_err(|e| {
            if e.kind() == std::io::ErrorKind::InvalidData {
                bad(&format!("{what} is not UTF-8"))
            } else {
                ServiceError::Io(format!("reading {what}: {e}"))
            }
        })?;
        budget -= n;
        if budget == 0 && !line.ends_with('\n') {
            return Err(bad("header block too large"));
        }
        Ok(line)
    };
    let line = read_line("request")?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line"))?.to_owned();
    let path = parts.next().ok_or_else(|| bad("request line has no path"))?.to_owned();
    match parts.next() {
        Some(version) if version.starts_with("HTTP/1.") => {}
        _ => return Err(bad("not an HTTP/1.x request")),
    }

    let mut content_length: usize = 0;
    loop {
        let header = read_line("headers")?;
        let trimmed = header.trim_end();
        if trimmed.is_empty() {
            if header.is_empty() {
                return Err(bad("connection closed inside headers"));
            }
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length =
                    value.trim().parse().map_err(|_| bad("Content-Length is not a number"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(bad("body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|_| bad("body shorter than Content-Length"))?;
    Ok((method, path, body))
}

/// Dispatches one request to the scheduler. Returns `(status, body)`.
fn route(
    service: &SweepService,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<(u16, Json), ServiceError> {
    match (method, path) {
        ("GET", "/health") => Ok((200, Json::obj([("ok", Json::Bool(true))]))),
        ("GET", "/metrics") => Ok((200, wire::metrics_to_json(&service.metrics()))),
        ("GET", "/jobs") => {
            let statuses = service.jobs().iter().map(wire::status_to_json).collect();
            Ok((200, Json::obj([("jobs", Json::Arr(statuses))])))
        }
        ("POST", "/jobs") => {
            let spec = wire::parse_submit(&parse_body(body)?)?;
            let id = service.submit(spec)?;
            Ok((200, Json::obj([("job", Json::UInt(id))])))
        }
        ("POST", "/traces") => {
            let trace = CapturedTrace::from_bytes(body)?;
            let fingerprint = service.register_trace(trace);
            Ok((
                200,
                Json::obj([("fingerprint", Json::Str(wire::format_fingerprint(fingerprint)))]),
            ))
        }
        ("DELETE", _) if path.starts_with("/jobs/") => {
            let id = parse_job_id(&path["/jobs/".len()..])?;
            Ok((200, wire::status_to_json(&service.cancel(id)?)))
        }
        ("GET", _) if path.starts_with("/jobs/") => {
            let rest = &path["/jobs/".len()..];
            if let Some(id_text) = rest.strip_suffix("/results") {
                let id = parse_job_id(id_text)?;
                match service.results(id) {
                    Ok(results) => Ok((200, wire::results_to_json(id, &results))),
                    // Not done yet: Accepted, poll again.
                    Err(e @ ServiceError::JobNotDone(_)) => Ok((202, wire::error_to_json(&e))),
                    Err(e) => Err(e),
                }
            } else {
                let id = parse_job_id(rest)?;
                Ok((200, wire::status_to_json(&service.status(id)?)))
            }
        }
        _ => {
            Ok((404, Json::obj([("error", Json::Str(format!("no such route: {method} {path}")))])))
        }
    }
}

fn parse_body(body: &[u8]) -> Result<Json, ServiceError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServiceError::InvalidRequest("body is not UTF-8".into()))?;
    Json::parse(text).map_err(|e| ServiceError::InvalidRequest(format!("body is not JSON: {e}")))
}

fn parse_job_id(text: &str) -> Result<u64, ServiceError> {
    text.parse().map_err(|_| ServiceError::InvalidRequest(format!("'{text}' is not a job id")))
}

/// Sends the whole response with one `write_all`: the socket is
/// unbuffered, so each separately written piece would be its own send.
fn write_response(mut stream: TcpStream, status: u16, body: &Json) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        410 => "Gone",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    };
    let payload = body.encode();
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len()
    );
    stream.write_all(response.as_bytes())
}

// --------------------------------------------------------------- client --

/// One blocking HTTP request against a service front end; returns the
/// status code and raw body. Used by the CLI's `--server` mode and the
/// integration tests.
///
/// # Errors
///
/// [`ServiceError::Io`] for socket failures,
/// [`ServiceError::InvalidRequest`] for an unparseable response.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    content_type: &str,
) -> Result<(u16, Vec<u8>), ServiceError> {
    let mut stream = TcpStream::connect(addr)
        .map_err(|e| ServiceError::Io(format!("connecting to {addr}: {e}")))?;
    stream.set_read_timeout(Some(SOCKET_TIMEOUT)).ok();
    stream.set_write_timeout(Some(SOCKET_TIMEOUT)).ok();
    // Header and body go out as one buffer in one `write_all`.
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let mut request = Vec::with_capacity(head.len() + body.len());
    request.extend_from_slice(head.as_bytes());
    request.extend_from_slice(body);
    stream.write_all(&request).map_err(|e| ServiceError::Io(format!("sending request: {e}")))?;

    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .map_err(|e| ServiceError::Io(format!("reading response: {e}")))?;
    let header_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| ServiceError::InvalidRequest("response has no header block".into()))?;
    let head = std::str::from_utf8(&response[..header_end])
        .map_err(|_| ServiceError::InvalidRequest("response headers are not UTF-8".into()))?;
    let status_line = head.lines().next().unwrap_or("");
    let status: u16 =
        status_line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
            ServiceError::InvalidRequest(format!("bad status line '{status_line}'"))
        })?;
    Ok((status, response[header_end + 4..].to_vec()))
}

/// [`http_request`] for JSON in and out: encodes `body`, decodes the
/// response, and maps every non-2xx status to [`ServiceError::Http`] with
/// the server's error message.
///
/// # Errors
///
/// As [`http_request`], plus [`ServiceError::Http`] for error statuses.
pub fn http_json(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&Json>,
) -> Result<Json, ServiceError> {
    let payload = body.map(Json::encode).unwrap_or_default();
    let (status, raw) = http_request(addr, method, path, payload.as_bytes(), "application/json")?;
    let text = std::str::from_utf8(&raw)
        .map_err(|_| ServiceError::InvalidRequest("response body is not UTF-8".into()))?;
    let json = Json::parse(text)
        .map_err(|e| ServiceError::InvalidRequest(format!("response is not JSON: {e}")))?;
    if (200..300).contains(&status) {
        Ok(json)
    } else {
        let message =
            json.get("error").and_then(Json::as_str).unwrap_or("unknown server error").to_owned();
        Err(ServiceError::Http { status, message })
    }
}
