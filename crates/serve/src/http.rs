//! A minimal thread-per-connection HTTP/1.1 server over [`std::net`].
//!
//! No async runtime, no external dependencies: an accept loop on a
//! nonblocking listener hands each connection to its own thread, which
//! serves keep-alive requests until the client leaves, the idle
//! timeout lapses, or the server shuts down.
//!
//! The parser sits on a network-facing trust boundary and is
//! deliberately paranoid: request heads are capped at 16 KiB and
//! bodies at 64 KiB, a body is framed by `Content-Length` alone
//! (ambiguous framing gets 400), unknown methods and paths are rejected
//! without dispatch, and the query payload is a single line handed to
//! [`Query::parse_wire`], which validates every token. Nothing from
//! the wire is ever interpolated into a filesystem path or command.
//!
//! Endpoints:
//!
//! * `GET /healthz` — liveness probe, plain `ok`.
//! * `GET /v1/stats` — dispatcher + memo-layer counters (wire format).
//! * `POST /v1/query` — body is one wire-format query line; the
//!   response body is the wire-format response. Malformed queries get
//!   HTTP 400 with a wire-format error line.

use crate::dispatch::Dispatcher;
use parallelism_core::query::{Query, QueryError, Response};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use interleave::sync::{lock_or_recover, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Upper bound on the request line + headers.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on a request body.
const MAX_BODY_BYTES: usize = 64 * 1024;

/// Socket-read poll interval; shutdown latency is bounded by it.
const POLL: Duration = Duration::from_millis(100);

/// Accept-loop poll interval: how long a new connection can wait to be
/// accepted.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Idle polls before a keep-alive connection is dropped (~10 s).
const IDLE_POLLS: u32 = 100;

/// A running server. Dropping it (or calling [`Server::stop`]) stops
/// the accept loop and joins every connection thread. Handles of
/// connection threads that have already finished are dropped on the
/// next accept, which releases their stacks, so a long-running daemon
/// holds one handle per live connection, not one per connection ever
/// served.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts accepting connections against `dispatcher`.
    ///
    /// # Errors
    /// [`io::Error`] when the address cannot be bound.
    pub fn start(addr: &str, dispatcher: Arc<Dispatcher>) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || {
                while !shutdown.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            // Responses are one small write; Nagle's
                            // algorithm would add ~40 ms to each.
                            let _ = stream.set_nodelay(true);
                            let dispatcher = Arc::clone(&dispatcher);
                            let shutdown = Arc::clone(&shutdown);
                            let handle = std::thread::spawn(move || {
                                serve_connection(stream, &dispatcher, &shutdown);
                            });
                            let mut conns = lock_or_recover(&conns);
                            conns.retain(|h| !h.is_finished());
                            conns.push(handle);
                        }
                        Err(_) => std::thread::sleep(ACCEPT_POLL),
                    }
                }
            })
        };

        Ok(Server {
            addr,
            shutdown,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (with the real port when `:0` was asked).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals shutdown and joins the accept loop and every connection
    /// thread. Idempotent.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let handles: Vec<_> = lock_or_recover(&self.conns).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One parsed request head.
#[derive(Debug)]
struct RequestHead {
    method: String,
    path: String,
    content_length: usize,
    keep_alive: bool,
}

/// Reads from `stream` until `buf` contains `\r\n\r\n` (returning the
/// offset just past it), the head cap is hit, or the peer goes away.
fn read_head(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    shutdown: &AtomicBool,
) -> Option<usize> {
    let mut idle = 0u32;
    loop {
        if let Some(pos) = find_blank_line(buf) {
            return Some(pos);
        }
        if buf.len() > MAX_HEAD_BYTES {
            return None;
        }
        let mut chunk = [0u8; 1024];
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                idle = 0;
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                idle += 1;
                if idle > IDLE_POLLS || shutdown.load(Ordering::SeqCst) {
                    return None;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
}

/// The offset just past the first `\r\n\r\n`, if present.
fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Parses the request line and the headers this server cares about.
/// The body must be framed by `Content-Length` alone (RFC 9112 §6.3):
/// a `Transfer-Encoding` header, or two `Content-Length` headers that
/// disagree, leave the body's end ambiguous and are rejected.
fn parse_head(head: &str) -> Result<RequestHead, String> {
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(format!("malformed request line {request_line:?}"));
    }
    let mut content_length: Option<usize> = None;
    let mut keep_alive = true;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            let len = value
                .parse()
                .map_err(|_| format!("bad content-length {value:?}"))?;
            if content_length.is_some_and(|prev| prev != len) {
                return Err("conflicting content-length headers".to_string());
            }
            content_length = Some(len);
        } else if name == "transfer-encoding" {
            return Err(format!("unsupported transfer-encoding {value:?}"));
        } else if name == "connection" && value.eq_ignore_ascii_case("close") {
            keep_alive = false;
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte cap"
        ));
    }
    Ok(RequestHead {
        method,
        path,
        content_length,
        keep_alive,
    })
}

/// Reads the request body (`len` bytes, some possibly already in
/// `buf`).
fn read_body(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    len: usize,
    shutdown: &AtomicBool,
) -> bool {
    let mut idle = 0u32;
    while buf.len() < len {
        let mut chunk = [0u8; 1024];
        match stream.read(&mut chunk) {
            Ok(0) => return false,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                idle = 0;
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                idle += 1;
                if idle > IDLE_POLLS || shutdown.load(Ordering::SeqCst) {
                    return false;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

/// Writes one HTTP/1.1 response.
fn write_response(stream: &mut TcpStream, status: u16, reason: &str, body: &str) -> bool {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: text/plain; charset=utf-8\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).is_ok() && stream.write_all(body.as_bytes()).is_ok()
}

/// Serves keep-alive requests on one connection until the peer leaves,
/// the idle budget lapses, or the server shuts down.
fn serve_connection(mut stream: TcpStream, dispatcher: &Dispatcher, shutdown: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(POLL));
    let mut buf: Vec<u8> = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        let Some(head_end) = read_head(&mut stream, &mut buf, shutdown) else {
            return;
        };
        let head_text = String::from_utf8_lossy(&buf[..head_end]).into_owned();
        let head = match parse_head(&head_text) {
            Ok(h) => h,
            Err(e) => {
                write_response(
                    &mut stream,
                    400,
                    "Bad Request",
                    &Response::render_wire_error(&QueryError::new(e)),
                );
                return;
            }
        };
        let mut body: Vec<u8> = buf[head_end..].to_vec();
        buf.clear();
        if !read_body(&mut stream, &mut body, head.content_length, shutdown) {
            return;
        }
        // Keep-alive pipelining is not supported: any bytes beyond the
        // declared body would belong to the next request, so keep them.
        let extra = body.split_off(head.content_length.min(body.len()));
        buf = extra;

        let ok = match (head.method.as_str(), head.path.as_str()) {
            ("GET", "/healthz") => write_response(&mut stream, 200, "OK", "ok\n"),
            ("GET", "/v1/stats") => match dispatcher.dispatch(&Query::Stats) {
                Ok(r) => write_response(&mut stream, 200, "OK", &r.render_wire()),
                Err(e) => write_response(
                    &mut stream,
                    500,
                    "Internal Server Error",
                    &Response::render_wire_error(&e),
                ),
            },
            ("POST", "/v1/query") => {
                let text = String::from_utf8_lossy(&body);
                let line = text.lines().next().unwrap_or("");
                match Query::parse_wire(line).and_then(|q| dispatcher.dispatch(&q)) {
                    Ok(r) => write_response(&mut stream, 200, "OK", &r.render_wire()),
                    Err(e) => write_response(
                        &mut stream,
                        400,
                        "Bad Request",
                        &Response::render_wire_error(&e),
                    ),
                }
            }
            _ => write_response(
                &mut stream,
                404,
                "Not Found",
                &Response::render_wire_error(&QueryError::new(format!(
                    "no such endpoint {} {}",
                    head.method, head.path
                ))),
            ),
        };
        if !ok || !head.keep_alive {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_parsing_extracts_what_the_server_needs() {
        let h = parse_head(
            "POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\nConnection: close\r\n",
        )
        .unwrap();
        assert_eq!(h.method, "POST");
        assert_eq!(h.path, "/v1/query");
        assert_eq!(h.content_length, 12);
        assert!(!h.keep_alive);
        assert!(parse_head("garbage\r\n").is_err());
        assert!(parse_head("GET / HTTP/1.1\r\nContent-Length: huge\r\n").is_err());
        assert!(
            parse_head(&format!("GET / HTTP/1.1\r\nContent-Length: {}\r\n", MAX_BODY_BYTES + 1))
                .is_err()
        );
        // Ambiguous framing (RFC 9112 §6.3): conflicting lengths and any
        // transfer coding are rejected; an identical duplicate is not.
        let conflict = "POST /v1/query HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 12\r\n";
        assert!(parse_head(conflict).unwrap_err().contains("conflicting"));
        let chunked = "POST /v1/query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n";
        assert!(parse_head(chunked).unwrap_err().contains("transfer-encoding"));
        let both = "POST /v1/query HTTP/1.1\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n";
        assert!(parse_head(both).is_err());
        let twice = "POST /v1/query HTTP/1.1\r\nContent-Length: 12\r\ncontent-length: 12\r\n";
        assert_eq!(parse_head(twice).unwrap().content_length, 12);
    }

    /// Sequential short-lived connections do not accumulate thread
    /// handles: finished ones are pruned on each accept.
    #[test]
    fn finished_connections_are_pruned() {
        let server = Server::start("127.0.0.1:0", Arc::new(Dispatcher::new())).unwrap();
        let addr = server.addr().to_string();
        let list = Query::Analyze(parallelism_core::query::AnalyzeMode::List).to_wire();
        let mut peak = 0;
        for _ in 0..500 {
            let mut client = crate::client::ServeClient::connect(&addr).unwrap();
            assert_eq!(client.query(&list).unwrap().0, 200);
            drop(client);
            peak = peak.max(lock_or_recover(&server.conns).len());
        }
        assert!(
            peak <= 8,
            "{peak} connection handles held after 500 closed connections"
        );
    }

    #[test]
    fn blank_line_detection() {
        assert_eq!(find_blank_line(b"a\r\n\r\nbody"), Some(5));
        assert_eq!(find_blank_line(b"partial\r\n"), None);
    }
}
