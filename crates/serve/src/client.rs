//! A tiny blocking HTTP/1.1 client for talking to the serve daemon —
//! used by `--self-test` (`scripts/check.sh`'s smoke test), the
//! conformance oracle and the perfbench `daemon` workload. One
//! connection per [`ServeClient`]; requests on it are serial keep-alive.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A keep-alive connection to a serve daemon.
pub struct ServeClient {
    stream: TcpStream,
}

impl ServeClient {
    /// Connects to `addr` (e.g. `127.0.0.1:4157`).
    ///
    /// # Errors
    /// [`io::Error`] when the daemon is unreachable.
    pub fn connect(addr: &str) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        // Requests are one small write each; don't let Nagle's
        // algorithm batch them against the delayed ACK.
        stream.set_nodelay(true)?;
        Ok(ServeClient { stream })
    }

    /// Sends one wire-format query line to `POST /v1/query` and
    /// returns `(http status, body)`.
    ///
    /// # Errors
    /// [`io::Error`] on a broken connection or malformed response.
    pub fn query(&mut self, wire_line: &str) -> io::Result<(u16, String)> {
        self.request("POST", "/v1/query", wire_line)
    }

    /// Fetches the dispatcher stats (`GET /v1/stats`).
    ///
    /// # Errors
    /// [`io::Error`] on a broken connection or malformed response.
    pub fn stats(&mut self) -> io::Result<(u16, String)> {
        self.request("GET", "/v1/stats", "")
    }

    /// Probes liveness (`GET /healthz`).
    ///
    /// # Errors
    /// [`io::Error`] on a broken connection or malformed response.
    pub fn healthz(&mut self) -> io::Result<(u16, String)> {
        self.request("GET", "/healthz", "")
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: llama3sim\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<(u16, String)> {
        let mut buf: Vec<u8> = Vec::new();
        let head_end = loop {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let mut chunk = [0u8; 1024];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let content_length: usize = head
            .split("\r\n")
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok())
            .unwrap_or(0);
        let mut body = buf[head_end..].to_vec();
        while body.len() < content_length {
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
            body.extend_from_slice(&chunk[..n]);
        }
        body.truncate(content_length);
        Ok((status, String::from_utf8_lossy(&body).into_owned()))
    }
}
