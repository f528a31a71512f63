//! A deliberately minimal HTTP/1.1 layer over `std::net`.
//!
//! No chunked encoding, bodies bounded by a caller-supplied limit. The
//! server side is one incremental push parser, [`RequestParser`]: bytes go
//! in as they arrive from a non-blocking socket, complete requests come
//! out. The epoll reactor's per-connection state machines drive it.
//! Responses are built as [`Outcome`] values and rendered to bytes by
//! [`render_response`], with keep-alive decided per request. The client
//! side is [`roundtrip`] over a blocking stream.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ….
    pub method: String,
    /// Request target, e.g. `/v1/check`.
    pub path: String,
    /// Headers, lowercased names.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lowercase name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked for the connection to close after this
    /// request. HTTP/1.1 defaults to keep-alive, so only an explicit
    /// `Connection: close` returns `true`.
    #[must_use]
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// A response as a value: status, headers, body, plus the control effects
/// the transport layer must apply after writing it. Handlers build
/// `Outcome`s; the reactor renders them with [`render_response`].
#[derive(Debug)]
pub struct Outcome {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers emitted verbatim (e.g. `Retry-After`).
    pub extra_headers: Vec<(&'static str, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
    /// The handler initiated a drain (`POST /shutdown`): after this
    /// response is written the serving core must stop accepting and wind
    /// down.
    pub shutdown: bool,
    /// Close the connection after writing, regardless of what the request
    /// asked for (used for `429` rejections).
    pub close: bool,
}

impl Outcome {
    /// A plain `200`-style response.
    #[must_use]
    pub fn new(status: u16, content_type: &'static str, body: Vec<u8>) -> Outcome {
        Outcome {
            status,
            content_type,
            extra_headers: Vec::new(),
            body,
            shutdown: false,
            close: false,
        }
    }
}

/// The daemon's uniform error body, `{"error": message, "code": code}`, as
/// an [`Outcome`]. Every error path — handler and reactor loop — renders
/// through here so clients see one shape.
#[must_use]
pub fn error_outcome(status: u16, code: &str, message: &str) -> Outcome {
    let body = crate::json::Json::Obj(vec![
        ("error".into(), crate::json::Json::from(message)),
        ("code".into(), crate::json::Json::from(code)),
    ])
    .render();
    Outcome::new(status, "application/json", body.into_bytes())
}

/// An HTTP-layer error: either transport or malformed request.
#[derive(Debug)]
pub struct HttpError(pub String);

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError(format!("i/o: {e}"))
    }
}

/// Largest accepted request line or header line, in bytes. Without this
/// bound a client streaming an endless line (never sending `\n`) would make
/// the server buffer it all in memory.
const MAX_LINE: usize = 8 * 1024;

/// Parses a request line (`GET /path HTTP/1.1`).
fn parse_request_line(line: &str) -> Result<(String, String), HttpError> {
    let mut parts = line.split_whitespace();
    match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1") => {
            Ok((m.to_string(), p.to_string()))
        }
        _ => Err(HttpError(format!("bad request line `{}`", line.trim_end()))),
    }
}

/// Parses one `Name: value` header line into a lowercased pair.
fn parse_header_line(line: &str) -> Result<(String, String), HttpError> {
    let Some((name, value)) = line.split_once(':') else {
        return Err(HttpError(format!("bad header `{line}`")));
    };
    Ok((name.trim().to_ascii_lowercase(), value.trim().to_string()))
}

/// Extracts and validates the content length from parsed headers.
fn content_length_of(headers: &[(String, String)], max_body: usize) -> Result<usize, HttpError> {
    let mut content_length = 0usize;
    for (name, value) in headers {
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| HttpError(format!("bad content-length `{value}`")))?;
        }
    }
    if content_length > max_body {
        return Err(HttpError(format!(
            "body of {content_length} bytes exceeds the {max_body}-byte limit"
        )));
    }
    Ok(content_length)
}

/// A parsed-but-bodyless head waiting for its body bytes.
#[derive(Debug)]
struct PendingHead {
    method: String,
    path: String,
    headers: Vec<(String, String)>,
    content_length: usize,
}

/// An incremental HTTP/1.1 request parser: the per-connection state machine
/// of the epoll reactor. Push bytes in as the socket yields them, pull
/// complete [`Request`]s out. Lines are bounded by `MAX_LINE` and bodies by
/// the caller's limit, so a hostile connection cannot make the reactor
/// buffer an endless request line.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// Byte offset scanning resumes from (start of the first unparsed line).
    scan_from: usize,
    /// Parsed head lines of the request currently being assembled.
    lines: Vec<String>,
    head: Option<PendingHead>,
}

impl RequestParser {
    /// Creates an empty parser.
    #[must_use]
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Appends bytes received from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a returned request.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Tries to extract the next complete request.
    ///
    /// Returns `Ok(None)` when more bytes are needed. After an `Err` the
    /// parser is poisoned garbage and the connection must be closed (the
    /// reactor writes a `400` first).
    ///
    /// # Errors
    ///
    /// Fails on malformed or over-long request lines/headers and on bodies
    /// larger than `max_body`.
    pub fn next_request(&mut self, max_body: usize) -> Result<Option<Request>, HttpError> {
        if self.head.is_none() {
            // Consume complete lines until the blank line ends the head.
            loop {
                let rest = &self.buf[self.scan_from..];
                let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
                    // No newline yet: enforce the line bound on the fragment.
                    if rest.len() >= MAX_LINE {
                        let what = if self.lines.is_empty() {
                            "request line"
                        } else {
                            "header line"
                        };
                        return Err(HttpError(format!(
                            "{what} exceeds the {MAX_LINE}-byte limit"
                        )));
                    }
                    return Ok(None);
                };
                if nl >= MAX_LINE {
                    let what = if self.lines.is_empty() {
                        "request line"
                    } else {
                        "header line"
                    };
                    return Err(HttpError(format!(
                        "{what} exceeds the {MAX_LINE}-byte limit"
                    )));
                }
                let line = String::from_utf8_lossy(&rest[..nl]).into_owned();
                self.scan_from += nl + 1;
                let line = line.trim_end_matches('\r');
                if line.is_empty() {
                    if self.lines.is_empty() {
                        // Tolerate stray blank lines between requests.
                        continue;
                    }
                    // Head complete: parse it.
                    let (method, path) = parse_request_line(&self.lines[0])?;
                    let headers = self.lines[1..]
                        .iter()
                        .map(|l| parse_header_line(l))
                        .collect::<Result<Vec<_>, _>>()?;
                    let content_length = content_length_of(&headers, max_body)?;
                    self.lines.clear();
                    self.head = Some(PendingHead {
                        method,
                        path,
                        headers,
                        content_length,
                    });
                    break;
                }
                self.lines.push(line.to_string());
            }
        }
        let Some(head) = &self.head else {
            return Ok(None);
        };
        if self.buf.len() - self.scan_from < head.content_length {
            return Ok(None);
        }
        let Some(head) = self.head.take() else {
            return Ok(None);
        };
        let body = self.buf[self.scan_from..self.scan_from + head.content_length].to_vec();
        // Drop everything consumed; keep any pipelined bytes that follow.
        self.buf.drain(..self.scan_from + head.content_length);
        self.scan_from = 0;
        Ok(Some(Request {
            method: head.method,
            path: head.path,
            headers: head.headers,
            body,
        }))
    }
}

fn reason_of(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        504 => "Gateway Timeout",
        _ => "Status",
    }
}

/// Renders a full response (head + body) to bytes. `keep_alive` selects the
/// `Connection` header; the body always carries an explicit
/// `Content-Length`, so keep-alive clients know exactly where it ends.
#[must_use]
pub fn render_response(outcome: &Outcome, keep_alive: bool) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        outcome.status,
        reason_of(outcome.status),
        outcome.content_type,
        outcome.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &outcome.extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(&outcome.body);
    bytes
}

/// A response as seen by the client side.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers, lowercased names.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// First value of a header, by lowercase name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    #[must_use]
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Sends one request and reads the response (client side), asking the
/// server to close afterwards (`Connection: close`).
///
/// # Errors
///
/// Fails on transport errors or a malformed status line.
pub fn roundtrip(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<Response, HttpError> {
    roundtrip_with(stream, method, path, body, true)
}

/// [`roundtrip`] with an explicit connection mode. With `close = false` the
/// request advertises keep-alive and the response body must carry a
/// `Content-Length` (mfcsld always sends one), so the stream stays usable
/// for the next request.
///
/// # Errors
///
/// Fails on transport errors, a malformed status line, or a keep-alive
/// response without `Content-Length`.
pub fn roundtrip_with(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &[u8],
    close: bool,
) -> Result<Response, HttpError> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: mfcsld\r\nContent-Length: {}\r\n\
         Content-Type: application/json\r\nConnection: {}\r\n\r\n",
        body.len(),
        if close { "close" } else { "keep-alive" },
    );
    // One write for head + body: a split write behind Nagle stalls the
    // second (small) segment on the peer's delayed ACK — ~40ms added to
    // every keep-alive request.
    let mut request = Vec::with_capacity(head.len() + body.len());
    request.extend_from_slice(head.as_bytes());
    request.extend_from_slice(body);
    stream.write_all(&request)?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError(format!("bad status line `{}`", status_line.trim_end())))?;
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().ok();
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
        None if close => {
            reader.read_to_end(&mut body)?;
        }
        None => {
            return Err(HttpError(
                "keep-alive response without Content-Length".into(),
            ));
        }
    }
    Ok(Response {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Streams `payload` into a parser in 1 KiB deliveries, as a socket
    /// would yield it, until a request completes or the parser refuses.
    /// Returns the outcome and how many bytes had been pushed by then.
    fn parse_streamed(payload: &[u8]) -> (Result<Option<Request>, HttpError>, usize) {
        let mut parser = RequestParser::new();
        let mut pushed = 0;
        for chunk in payload.chunks(1024) {
            parser.push(chunk);
            pushed += chunk.len();
            match parser.next_request(1 << 20) {
                Ok(None) => {}
                done => return (done, pushed),
            }
        }
        (Ok(None), pushed)
    }

    #[test]
    fn parser_bounds_header_lines_while_streaming() {
        let mut payload = b"GET / HTTP/1.1\r\nx-junk: ".to_vec();
        payload.extend(std::iter::repeat_n(b'a', 16 * 1024));
        let (outcome, pushed) = parse_streamed(&payload);
        let err = outcome.unwrap_err();
        assert!(err.to_string().contains("header line exceeds"), "{err}");
        // Refused as soon as the line passed the bound, not at the end.
        assert!(pushed < payload.len(), "{pushed} of {}", payload.len());
    }

    #[test]
    fn parser_bounds_the_request_line_while_streaming() {
        let payload = vec![b'a'; 16 * 1024];
        let (outcome, pushed) = parse_streamed(&payload);
        let err = outcome.unwrap_err();
        assert!(err.to_string().contains("request line exceeds"), "{err}");
        assert!(pushed < payload.len(), "{pushed} of {}", payload.len());
    }

    #[test]
    fn parser_accepts_ordinary_requests() {
        let (outcome, _) =
            parse_streamed(b"POST /v1/check HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi");
        let request = outcome.unwrap().expect("complete request");
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/v1/check");
        assert_eq!(request.header("content-length"), Some("2"));
        assert_eq!(request.body, b"hi");
    }

    #[test]
    fn incremental_parser_handles_split_deliveries() {
        let wire =
            b"POST /v1/check HTTP/1.1\r\nContent-Length: 5\r\nConnection: keep-alive\r\n\r\nhello";
        let mut parser = RequestParser::new();
        // Feed one byte at a time: a request must only pop out at the end.
        for (i, b) in wire.iter().enumerate() {
            parser.push(std::slice::from_ref(b));
            let got = parser.next_request(1 << 20).unwrap();
            if i + 1 < wire.len() {
                assert!(got.is_none(), "request completed early at byte {i}");
            } else {
                let request = got.expect("complete request");
                assert_eq!(request.method, "POST");
                assert_eq!(request.path, "/v1/check");
                assert_eq!(request.body, b"hello");
                assert!(!request.wants_close());
            }
        }
        assert_eq!(parser.buffered(), 0);
    }

    #[test]
    fn incremental_parser_handles_pipelined_requests() {
        let mut parser = RequestParser::new();
        parser.push(
            b"GET /healthz HTTP/1.1\r\n\r\nPOST /v1/check HTTP/1.1\r\nContent-Length: 2\r\nConnection: close\r\n\r\nhi",
        );
        let first = parser.next_request(1 << 20).unwrap().expect("first");
        assert_eq!(first.path, "/healthz");
        assert!(first.body.is_empty());
        let second = parser.next_request(1 << 20).unwrap().expect("second");
        assert_eq!(second.path, "/v1/check");
        assert_eq!(second.body, b"hi");
        assert!(second.wants_close());
        assert!(parser.next_request(1 << 20).unwrap().is_none());
    }

    #[test]
    fn incremental_parser_bounds_lines_and_bodies() {
        let mut parser = RequestParser::new();
        parser.push(&vec![b'a'; 16 * 1024]);
        let err = parser.next_request(1 << 20).unwrap_err();
        assert!(err.to_string().contains("request line exceeds"), "{err}");

        let mut parser = RequestParser::new();
        parser.push(b"GET / HTTP/1.1\r\nx-junk: ");
        parser.push(&vec![b'a'; 16 * 1024]);
        let err = parser.next_request(1 << 20).unwrap_err();
        assert!(err.to_string().contains("header line exceeds"), "{err}");

        let mut parser = RequestParser::new();
        parser.push(b"POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\n");
        let err = parser.next_request(10).unwrap_err();
        assert!(
            err.to_string().contains("exceeds the 10-byte limit"),
            "{err}"
        );
    }

    #[test]
    fn render_response_picks_the_connection_header() {
        let outcome = Outcome::new(200, "text/plain", b"ok\n".to_vec());
        let keep = String::from_utf8(render_response(&outcome, true)).unwrap();
        assert!(keep.contains("Connection: keep-alive\r\n"), "{keep}");
        assert!(keep.contains("Content-Length: 3\r\n"), "{keep}");
        let close = String::from_utf8(render_response(&outcome, false)).unwrap();
        assert!(close.contains("Connection: close\r\n"), "{close}");
        assert!(close.ends_with("ok\n"), "{close}");
    }
}
