//! Minimal HTTP/1.1 over `TcpStream` — just enough for the serve API.
//!
//! Hand-rolled for the same reason as `belenos-json`: no registry
//! access, so hyper/axum are out of reach. The subset is deliberate:
//! one request per connection (`Connection: close` on every response),
//! `Content-Length` bodies only (no chunked requests), and hard caps on
//! header and body size — the parser sees untrusted network bytes, so
//! every limit violation is a clean 4xx, never unbounded memory.

use belenos_json::Json;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Header section cap: request line + headers must fit in 16 KiB.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed request: method, path (with any query string stripped),
/// lower-cased headers, and the raw body bytes.
#[derive(Debug)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, ...).
    pub method: String,
    /// Decoded path, query string removed.
    pub path: String,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A request that could not be read; maps to one error response.
#[derive(Debug)]
pub struct HttpError {
    /// Status code to answer with.
    pub status: u16,
    /// Human-readable description (becomes the JSON `error` field).
    pub message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> HttpError {
        HttpError {
            status,
            message: message.into(),
        }
    }
}

/// One `read` with whatever is left until `deadline` as its timeout, so
/// no schedule of small writes can hold the reader past it.
fn read_before(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Instant,
) -> Result<usize, HttpError> {
    let timed_out = || HttpError::new(408, "request did not arrive within its deadline");
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(timed_out());
    }
    stream
        .set_read_timeout(Some(left))
        .map_err(|e| HttpError::new(400, format!("read failed: {e}")))?;
    stream.read(buf).map_err(|e| match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => timed_out(),
        _ => HttpError::new(400, format!("read failed: {e}")),
    })
}

/// Reads and parses one request from `stream`, holding the body to
/// `max_body` bytes and the whole read — head and body — to `deadline`.
///
/// # Errors
///
/// An [`HttpError`] carrying the right status: 400 for malformed
/// framing, 408 when the deadline passes first, 413 for an oversized
/// body, 431 for an oversized header section, 501 for transfer
/// encodings we don't implement.
pub fn read_request(
    stream: &mut TcpStream,
    max_body: usize,
    deadline: Instant,
) -> Result<Request, HttpError> {
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    let split = loop {
        if let Some(i) = find_head_end(&head) {
            break i;
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(HttpError::new(431, "request header section too large"));
        }
        let n = read_before(stream, &mut buf, deadline)?;
        if n == 0 {
            return Err(HttpError::new(400, "connection closed mid-request"));
        }
        head.extend_from_slice(&buf[..n]);
    };
    let (head_bytes, rest) = head.split_at(split);
    let rest = &rest[4..]; // skip the \r\n\r\n
    let head_text = std::str::from_utf8(head_bytes)
        .map_err(|_| HttpError::new(400, "request head is not valid UTF-8"))?;
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::new(400, "malformed request line"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::new(
            400,
            format!("unsupported version {version}"),
        ));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::new(400, format!("malformed header `{line}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let request = Request {
        method: method.to_string(),
        path: target.split('?').next().unwrap_or(target).to_string(),
        headers,
        body: Vec::new(),
    };
    if request.header("transfer-encoding").is_some() {
        return Err(HttpError::new(
            501,
            "chunked request bodies are not supported",
        ));
    }
    let length = match request.header("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::new(400, format!("bad content-length `{v}`")))?,
    };
    if length > max_body {
        return Err(HttpError::new(
            413,
            format!("body of {length} bytes exceeds the {max_body}-byte limit"),
        ));
    }
    let mut body = rest.to_vec();
    if body.len() > length {
        return Err(HttpError::new(400, "body longer than content-length"));
    }
    let mut remaining = length - body.len();
    while remaining > 0 {
        let take = remaining.min(buf.len());
        let n = read_before(stream, &mut buf[..take], deadline)?;
        if n == 0 {
            return Err(HttpError::new(400, "connection closed mid-body"));
        }
        body.extend_from_slice(&buf[..n]);
        remaining -= n;
    }
    Ok(Request { body, ..request })
}

fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n")
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete JSON response (status, extra headers, body) and
/// leaves the connection to be closed by the caller.
///
/// # Errors
///
/// The underlying socket error (the client usually just went away).
pub fn respond_json(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, String)],
    body: &Json,
) -> std::io::Result<()> {
    // Stream the body into a buffer first: Content-Length framing keeps
    // curl-without-flags ergonomic for the quickstart.
    let mut payload = Vec::new();
    body.pretty_to(&mut payload)?;
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n",
        reason(status),
        payload.len()
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&payload)?;
    stream.flush()
}

/// Writes a structured JSON error: `{"error": ..., "field": ...?}`.
///
/// # Errors
///
/// The underlying socket error.
pub fn respond_error(
    stream: &mut TcpStream,
    status: u16,
    message: &str,
    field: Option<&str>,
    extra_headers: &[(&str, String)],
) -> std::io::Result<()> {
    let mut fields = vec![("error", Json::Str(message.to_string()))];
    if let Some(f) = field {
        fields.push(("field", Json::Str(f.to_string())));
    }
    respond_json(stream, status, extra_headers, &Json::obj(fields))
}

/// Starts a newline-delimited JSON stream: writes the response head and
/// returns; the caller then writes one line per event with
/// [`write_ndjson_line`] and closes the connection to end the stream.
///
/// # Errors
///
/// The underlying socket error.
pub fn start_ndjson(stream: &mut TcpStream) -> std::io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\ncontent-type: application/x-ndjson\r\nconnection: close\r\n\r\n",
    )?;
    stream.flush()
}

/// Writes one event line of an NDJSON stream and flushes it, so
/// watchers see progress as it happens rather than on close.
///
/// # Errors
///
/// The underlying socket error (the watcher hung up).
pub fn write_ndjson_line(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A connected loopback pair: (client end, server end).
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (client, server)
    }

    #[test]
    fn a_dribbling_client_hits_the_whole_request_deadline() {
        use std::sync::mpsc;
        use std::time::Duration;
        let (mut client, mut server) = socket_pair();
        // One byte every 50 ms, forever: no single read ever waits long,
        // so only a deadline over the whole request can end this.
        let (stop, stopped) = mpsc::channel::<()>();
        let writer = std::thread::spawn(move || {
            let endless = b"GET /v1/healthz HTTP/1.1\r\nx-padding: "
                .iter()
                .chain(std::iter::repeat(&b'a'));
            for byte in endless {
                if client.write_all(&[*byte]).is_err() {
                    break;
                }
                match stopped.recv_timeout(Duration::from_millis(50)) {
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    _ => break,
                }
            }
        });
        let started = Instant::now();
        let limit = Duration::from_secs(1);
        let outcome = read_request(&mut server, 1024, started + limit);
        let took = started.elapsed();
        drop(stop);
        writer.join().expect("writer thread");
        assert_eq!(
            outcome.expect_err("the request never completes").status,
            408
        );
        assert!(took >= limit && took < 5 * limit, "gave up after {took:?}");
    }

    #[test]
    fn a_prompt_request_reads_whole_and_408_has_a_reason() {
        use std::time::Duration;
        let (mut client, mut server) = socket_pair();
        client
            .write_all(b"POST /v1/campaigns?x=1 HTTP/1.1\r\ncontent-length: 4\r\n\r\nbody")
            .expect("write");
        let deadline = Instant::now() + Duration::from_secs(10);
        let request = read_request(&mut server, 1024, deadline).expect("complete request");
        assert_eq!(
            (
                request.method.as_str(),
                request.path.as_str(),
                &request.body[..]
            ),
            ("POST", "/v1/campaigns", &b"body"[..])
        );
        // A deadline already behind us: 408 without touching the socket.
        let late = read_request(&mut server, 1024, Instant::now()).expect_err("too late");
        assert_eq!((late.status, reason(late.status)), (408, "Request Timeout"));
    }

    #[test]
    fn find_head_end_locates_blank_line() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(14));
        assert_eq!(find_head_end(b"partial\r\n"), None);
    }
}
