//! Minimal HTTP/1.1 over `std::net` with keep-alive: `Content-Length`
//! bodies only, persistent connections by default, `Connection: close`
//! honoured both ways.
//!
//! The workspace is registry-free (no axum/tokio/hyper), and the wire
//! protocol needs exactly this much HTTP: a request line, a handful of
//! headers, a JSON body each way. Both the server loop and the in-process
//! clients (smoke mode, integration tests, `bench_serve`) live here so
//! the two ends cannot drift.
//!
//! Two clients are provided: the one-shot [`request`] (one TCP connection
//! per call, `connection: close` — the historical behaviour, still what
//! the admission/cancellation tests want), and the persistent [`Client`]
//! that reuses one connection across requests and transparently
//! reconnects when the server hangs up (idle timeout or per-connection
//! request bound) — the path `bench_serve` and smoke mode measure.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Cap on the request line plus headers: a malformed or hostile client
/// must not balloon server memory. Each line is read against what is left
/// of it, so a line that never ends is cut off here too.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Cap on a request body.
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Seconds advertised in the `Retry-After` header of every 429 response:
/// shed submissions are retryable as soon as one in-flight run finishes,
/// which under the default budgets is on the order of a second.
pub const RETRY_AFTER_SECS: u32 = 1;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Path with no query handling (the API does not use queries).
    pub path: String,
    /// Body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the peer wants the connection kept open afterwards
    /// (HTTP/1.1 default unless it sent `connection: close`).
    pub keep_alive: bool,
}

/// Reads one request off a persistent reader. `Ok(None)` means the peer
/// closed (or went idle past a configured read timeout) between requests
/// — the clean end of a keep-alive session.
///
/// # Errors
/// Propagates socket errors; malformed framing surfaces as
/// [`io::ErrorKind::InvalidData`].
pub fn read_request<R: BufRead>(reader: &mut R) -> io::Result<Option<Request>> {
    let mut line = String::new();
    match read_header_line(reader, MAX_HEADER_BYTES, &mut line) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        // An idle read timeout between requests is a clean close, not an
        // error (WouldBlock on Unix, TimedOut on Windows).
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            return Ok(None)
        }
        Err(e) => return Err(e),
    }
    let mut parts = line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_ascii_uppercase(), p.to_string()),
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "malformed request line",
            ))
        }
    };
    let mut content_length = 0usize;
    let mut keep_alive = true;
    let mut header_bytes = line.len();
    loop {
        let mut header = String::new();
        if read_header_line(reader, MAX_HEADER_BYTES - header_bytes, &mut header)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "connection closed inside headers",
            ));
        }
        header_bytes += header.len();
        let trimmed = header.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                })?;
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.trim().eq_ignore_ascii_case("close");
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Some(Request {
        method,
        path,
        body,
        keep_alive,
    }))
}

/// Reads one line of the header block into `line`, reading at most
/// `budget` bytes. Without the bound a client that never sends a newline
/// grows the line without limit: the per-read idle timeout never fires
/// while bytes keep arriving.
///
/// # Errors
/// [`io::ErrorKind::InvalidData`] ("header block too large") when the
/// budget runs out before a newline; socket errors as [`BufRead::read_line`].
fn read_header_line<R: BufRead>(
    reader: &mut R,
    budget: usize,
    line: &mut String,
) -> io::Result<usize> {
    let n = reader.by_ref().take(budget as u64).read_line(line)?;
    if n == budget && !line.ends_with('\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "header block too large",
        ));
    }
    Ok(n)
}

/// Writes a complete response and flushes. The body is always JSON (the
/// protocol has no other content type). `keep_alive` selects the
/// `connection` header; every 429 additionally carries
/// `retry-after: `[`RETRY_AFTER_SECS`] (the whole protocol's only 429 is
/// the admission shed, which is retryable by construction).
///
/// # Errors
/// Propagates socket errors.
pub fn write_response<W: Write>(
    stream: &mut W,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let retry_after = if status == 429 {
        format!("retry-after: {RETRY_AFTER_SECS}\r\n")
    } else {
        String::new()
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n{retry_after}connection: {connection}\r\n\r\n",
        body.len()
    );
    // One write per response: on a keep-alive connection a split
    // head/body write is two small TCP segments, and Nagle + delayed ACK
    // turns that into a ~40 ms stall per message.
    let mut message = head.into_bytes();
    message.extend_from_slice(body.as_bytes());
    stream.write_all(&message)?;
    stream.flush()
}

/// One parsed response: status, headers (lower-cased names), body text.
pub type Response = (u16, Vec<(String, String)>, String);

fn read_response<R: BufRead>(reader: &mut R) -> io::Result<Response> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before status line",
        ));
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    let mut headers: Vec<(String, String)> = Vec::new();
    let mut content_length = None;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            break;
        }
        let trimmed = header.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse::<usize>().ok();
            }
            headers.push((name, value));
        }
    }
    let mut body = Vec::new();
    match content_length {
        Some(n) => {
            body.resize(n, 0);
            reader.read_exact(&mut body)?;
        }
        None => {
            reader.read_to_end(&mut body)?;
        }
    }
    String::from_utf8(body)
        .map(|text| (status, headers, text))
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response body"))
}

/// One-shot client: opens a fresh connection, sends one request with
/// `connection: close`, reads the full response, returns
/// `(status, body)`.
///
/// # Errors
/// Socket errors or a malformed status line.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    request_full(addr, method, path, body).map(|(status, _, body)| (status, body))
}

/// [`request`] but returning the response headers too (lower-cased
/// names) — what the `Retry-After` tests inspect.
///
/// # Errors
/// Socket errors or a malformed status line.
pub fn request_full(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let payload = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        payload.len()
    );
    let mut message = head.into_bytes();
    message.extend_from_slice(payload.as_bytes());
    stream.write_all(&message)?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    read_response(&mut reader)
}

/// A persistent keep-alive client: one TCP connection reused across
/// requests, transparently re-established when the server hangs up
/// (per-connection request bound, idle timeout, or restart). Tracks how
/// many TCP connects its requests cost, so callers can report the
/// connection-reuse rate keep-alive buys.
pub struct Client {
    addr: SocketAddr,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
    requests: usize,
    connects: usize,
}

impl Client {
    /// A client for `addr`; connects lazily on the first request.
    #[must_use]
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            requests: 0,
            connects: 0,
        }
    }

    /// Requests issued through this client.
    #[must_use]
    pub fn requests(&self) -> usize {
        self.requests
    }

    /// TCP connections those requests cost.
    #[must_use]
    pub fn connects(&self) -> usize {
        self.connects
    }

    /// Fraction of requests served on a reused connection (0.0 before the
    /// first request).
    #[must_use]
    pub fn reuse_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            1.0 - self.connects as f64 / self.requests as f64
        }
    }

    fn ensure_conn(&mut self) -> io::Result<&mut (TcpStream, BufReader<TcpStream>)> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            let reader = BufReader::new(stream.try_clone()?);
            self.connects += 1;
            self.conn = Some((stream, reader));
        }
        Ok(self.conn.as_mut().expect("connection just ensured"))
    }

    fn send_once(&mut self, method: &str, path: &str, payload: &str) -> io::Result<(u16, String)> {
        let addr = self.addr;
        let (stream, reader) = self.ensure_conn()?;
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n",
            payload.len()
        );
        let mut message = head.into_bytes();
        message.extend_from_slice(payload.as_bytes());
        stream.write_all(&message)?;
        stream.flush()?;
        let (status, headers, body) = read_response(reader)?;
        let server_closes = headers
            .iter()
            .any(|(name, value)| name == "connection" && value.eq_ignore_ascii_case("close"));
        if server_closes {
            self.conn = None;
        }
        Ok((status, body))
    }

    /// Sends one request on the persistent connection, reconnecting and
    /// retrying once if a **reused** connection turns out to be stale
    /// (the server closed it between requests).
    ///
    /// # Errors
    /// Socket errors on a fresh connection, or malformed responses.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        self.requests += 1;
        let payload = body.unwrap_or("").to_string();
        let reused = self.conn.is_some();
        match self.send_once(method, path, &payload) {
            Ok(reply) => Ok(reply),
            Err(_) if reused => {
                // The reused connection was stale; a fresh one gets
                // exactly one more try.
                self.conn = None;
                self.send_once(method, path, &payload)
            }
            Err(e) => Err(e),
        }
    }
}
