//! Minimal HTTP/1.1 framing over `std::io` streams.
//!
//! Supports exactly what the imputation service needs: request-line +
//! headers + `Content-Length` bodies, keep-alive connections, and plain
//! (non-chunked) responses. No external dependencies — the build
//! environment has no crates registry, so the wire protocol is hand-rolled
//! on `std` and covered by unit tests against in-memory streams.

use std::io::{BufRead, Write};
use std::time::Duration;

/// Hard cap on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Hard cap on a request body.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// The request header carrying the caller's remaining time budget in
/// whole milliseconds. Stamped by clients and re-stamped (with the
/// *remaining* budget) by the router on every forward.
pub const DEADLINE_HEADER: &str = "x-kamel-deadline-ms";

/// The response header marking a degraded (linear-interpolation) answer;
/// its value is the reason the fleet downgraded.
pub const DEGRADED_HEADER: &str = "x-kamel-degraded";

/// Largest accepted deadline budget (1 hour). Anything above it is a
/// client bug, not a plan — treated like any other unparseable value.
pub const MAX_DEADLINE_MS: u64 = 3_600_000;

/// Outcome of parsing an [`DEADLINE_HEADER`] value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineHeader {
    /// No header: use the server's default budget.
    Absent,
    /// A valid budget in `1..=MAX_DEADLINE_MS` milliseconds.
    Budget(Duration),
    /// Present but unusable (empty, zero, negative, non-numeric, or
    /// absurdly large). The caller falls back to the default budget —
    /// never to a 0ms insta-504 — and logs the carried reason once.
    Invalid(&'static str),
}

impl DeadlineHeader {
    /// The budget to use, with `default` covering absent/invalid values.
    pub fn budget_or(self, default: Duration) -> Duration {
        match self {
            DeadlineHeader::Budget(d) => d,
            DeadlineHeader::Absent | DeadlineHeader::Invalid(_) => default,
        }
    }
}

/// Parses an `x-kamel-deadline-ms` value. Total: every possible string
/// maps to one of the three variants; nothing panics and nothing yields a
/// zero budget.
pub fn parse_deadline_header(value: Option<&str>) -> DeadlineHeader {
    let Some(raw) = value else {
        return DeadlineHeader::Absent;
    };
    let raw = raw.trim();
    if raw.is_empty() {
        return DeadlineHeader::Invalid("empty deadline");
    }
    if raw.starts_with('-') {
        return DeadlineHeader::Invalid("negative deadline");
    }
    let Ok(ms) = raw.parse::<u64>() else {
        return DeadlineHeader::Invalid("non-numeric deadline");
    };
    if ms == 0 {
        return DeadlineHeader::Invalid("zero deadline");
    }
    if ms > MAX_DEADLINE_MS {
        return DeadlineHeader::Invalid("deadline beyond the 1h cap");
    }
    DeadlineHeader::Budget(Duration::from_millis(ms))
}

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`, …).
    pub method: String,
    /// Request target path (with query string, if any).
    pub path: String,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` was present).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// True when the client asked to close the connection after this
    /// exchange (HTTP/1.1 defaults to keep-alive).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be read.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadError {
    /// The peer closed the connection before sending a request line —
    /// the normal end of a keep-alive connection, not an error to report.
    ConnectionClosed,
    /// The request violated the protocol or a size cap; the response
    /// status and message to answer with before closing.
    Bad(u16, String),
    /// The underlying transport failed mid-request.
    Io(String),
}

/// Reads one request from `stream` — the canonical parser. Blocks until a
/// full request arrives, the peer closes, or the stream errors; the
/// reactor calls it through [`RequestParser`] over fully buffered bytes.
pub fn read_request(stream: &mut impl BufRead) -> Result<Request, ReadError> {
    let mut line = Vec::with_capacity(256);
    read_line_crlf(stream, &mut line, true)?;
    let request_line = String::from_utf8(line)
        .map_err(|_| ReadError::Bad(400, "request line is not UTF-8".into()))?;
    let mut parts = request_line.split_ascii_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m, p, v),
        _ => {
            return Err(ReadError::Bad(
                400,
                format!("malformed request line `{request_line}`"),
            ))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Bad(505, format!("unsupported version {version}")));
    }
    let mut headers = Vec::with_capacity(8);
    let mut head_bytes = request_line.len();
    loop {
        let mut line = Vec::with_capacity(64);
        read_line_crlf(stream, &mut line, false)?;
        if line.is_empty() {
            break;
        }
        head_bytes += line.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Err(ReadError::Bad(431, "request head too large".into()));
        }
        let text = String::from_utf8(line)
            .map_err(|_| ReadError::Bad(400, "header is not UTF-8".into()))?;
        let Some((name, value)) = text.split_once(':') else {
            return Err(ReadError::Bad(400, format!("malformed header `{text}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let mut request = Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body: Vec::new(),
    };
    if let Some(len) = request.header("content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| ReadError::Bad(400, format!("bad content-length `{len}`")))?;
        if len > MAX_BODY_BYTES {
            return Err(ReadError::Bad(413, "request body too large".into()));
        }
        let mut body = vec![0u8; len];
        stream
            .read_exact(&mut body)
            .map_err(|e| ReadError::Io(format!("reading body: {e}")))?;
        request.body = body;
    } else if request.header("transfer-encoding").is_some() {
        return Err(ReadError::Bad(501, "chunked bodies are not supported".into()));
    }
    Ok(request)
}

/// Reads one CRLF- (or bare-LF-) terminated line, excluding the
/// terminator. `at_start` distinguishes a clean connection close (no bytes
/// at all before EOF) from a truncated request.
fn read_line_crlf(
    stream: &mut impl BufRead,
    line: &mut Vec<u8>,
    at_start: bool,
) -> Result<(), ReadError> {
    loop {
        let mut byte = [0u8; 1];
        match stream.read(&mut byte) {
            Ok(0) => {
                return if at_start && line.is_empty() {
                    Err(ReadError::ConnectionClosed)
                } else {
                    Err(ReadError::Io("connection closed mid-request".into()))
                };
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return Ok(());
                }
                line.push(byte[0]);
                if line.len() > MAX_HEAD_BYTES {
                    return Err(ReadError::Bad(431, "request line too long".into()));
                }
            }
            Err(e) => return Err(ReadError::Io(e.to_string())),
        }
    }
}

/// An HTTP response under construction.
pub struct Response {
    /// Status code (200, 503, …).
    pub status: u16,
    /// Extra headers beyond `Content-Length`/`Content-Type`/`Connection`.
    pub headers: Vec<(String, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
}

impl Response {
    /// A response with the given status and plain-text body.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body: body.into().into_bytes(),
            content_type: "text/plain; charset=utf-8",
        }
    }

    /// A 200 response with a JSON body.
    pub fn json(body: Vec<u8>) -> Self {
        Self {
            status: 200,
            headers: Vec::new(),
            body,
            content_type: "application/json",
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Serializes and writes the response. `close` controls the
    /// `Connection` header (and must match what the caller then does with
    /// the socket).
    pub fn write_to(&self, stream: &mut impl Write, close: bool) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len(),
            if close { "close" } else { "keep-alive" },
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// Raw-byte cap on a buffered request head. The canonical parser caps
/// the *sum of line contents* at [`MAX_HEAD_BYTES`]; the raw wire form
/// adds at most a CRLF per line, so doubling the cap guarantees every
/// head the canonical parser would accept fits, while still bounding a
/// slow-loris client that never sends the blank line.
pub const MAX_HEAD_WIRE_BYTES: usize = 2 * MAX_HEAD_BYTES;

/// One step of incremental parsing ([`RequestParser::poll`]).
#[derive(Debug)]
pub enum Parsed {
    /// Not enough buffered bytes yet — feed more and poll again.
    Incomplete,
    /// A complete request. Pipelined bytes beyond it stay buffered; poll
    /// again (after the response is written) to parse the next request.
    Request(Request),
    /// Protocol or size-cap violation: answer with this status, then
    /// close. The parser is poisoned — no further polls succeed.
    Bad(u16, String),
}

/// An incremental, non-blocking HTTP/1.1 request parser for the
/// reactor. Bytes arrive in arbitrary fragments via
/// [`RequestParser::feed`]; [`RequestParser::poll`] yields a request as
/// soon as one is complete.
///
/// **Fragmentation invariance by construction**: this type only
/// *frames* — it finds the end of the head, extracts `Content-Length`,
/// and once `head + body` bytes are buffered it delegates the actual
/// parse to the canonical [`read_request`] over exactly those bytes. Any
/// byte sequence therefore produces the identical `Request` (or the
/// identical `Bad` status) however it was split into reads.
///
/// Buffering is bounded up front: a head that exceeds
/// [`MAX_HEAD_WIRE_BYTES`] without a terminating blank line is rejected
/// `431` before more is buffered, and a `Content-Length` beyond
/// [`MAX_BODY_BYTES`] is rejected `413` as soon as the head completes —
/// before a single body byte is buffered.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    scanned: usize,
    poisoned: bool,
}

impl RequestParser {
    /// An empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly-read bytes to the buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (head-in-progress + pipelined leftovers).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// True once the parser has reported [`Parsed::Bad`]; the connection
    /// must be closed after the error response.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Attempts to parse one request from the buffered bytes.
    pub fn poll(&mut self) -> Parsed {
        if self.poisoned {
            return Parsed::Incomplete;
        }
        let Some(head_end) = self.find_head_end() else {
            if self.buf.len() > MAX_HEAD_WIRE_BYTES {
                self.poisoned = true;
                return Parsed::Bad(431, "request head too large".into());
            }
            return Parsed::Incomplete;
        };
        // Unparseable length values read as 0 here and delegate to the
        // canonical parser below, which rejects them (400) without
        // needing any body bytes.
        let body_len = content_length(&self.buf[..head_end]).unwrap_or_default();
        if body_len > MAX_BODY_BYTES {
            self.poisoned = true;
            return Parsed::Bad(413, "request body too large".into());
        }
        let total = head_end + body_len;
        if self.buf.len() < total {
            return Parsed::Incomplete;
        }
        // Exactly head + declared body: the canonical parser consumes all
        // of it (or fails before the body).
        let outcome = read_request(&mut std::io::BufReader::new(&self.buf[..total]));
        match outcome {
            Ok(request) => {
                self.buf.drain(..total);
                self.scanned = 0;
                Parsed::Request(request)
            }
            Err(ReadError::Bad(status, message)) => {
                self.poisoned = true;
                Parsed::Bad(status, message)
            }
            // Unreachable with a complete head + body, but total anyway.
            Err(ReadError::ConnectionClosed) => Parsed::Incomplete,
            Err(ReadError::Io(e)) => {
                self.poisoned = true;
                Parsed::Bad(400, e)
            }
        }
    }

    /// Finds the offset one past the head-terminating blank line,
    /// tolerating bare-LF line endings exactly like [`read_request`].
    /// Scanning resumes where the last call left off, so repeated polls
    /// over a growing buffer stay O(bytes fed), not O(n²).
    fn find_head_end(&mut self) -> Option<usize> {
        let buf = &self.buf;
        // Degenerate first line: an immediate blank line is a complete
        // (malformed, 400) head of its own.
        if buf.first() == Some(&b'\n') {
            return Some(1);
        }
        if buf.starts_with(b"\r\n") {
            return Some(2);
        }
        let start = self.scanned.max(1);
        for i in start..buf.len() {
            if buf[i - 1] != b'\n' {
                continue;
            }
            if buf[i] == b'\n' {
                self.scanned = 0;
                return Some(i + 1);
            }
            if buf[i] == b'\r' && buf.get(i + 1) == Some(&b'\n') {
                self.scanned = 0;
                return Some(i + 2);
            }
        }
        // The last byte may start a terminator that completes next feed.
        self.scanned = buf.len().saturating_sub(1);
        None
    }
}

/// Extracts the first `Content-Length` from a raw head, mirroring the
/// canonical parser's first-header-wins lookup. `Err` means a value was
/// present but unparseable — the canonical parse will reject it.
fn content_length(head: &[u8]) -> Result<usize, ()> {
    for line in head.split(|&b| b == b'\n').skip(1) {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        if line.is_empty() {
            break;
        }
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            continue;
        };
        let name = line[..colon].trim_ascii();
        if !name.eq_ignore_ascii_case(b"content-length") {
            continue;
        }
        let value = String::from_utf8_lossy(&line[colon + 1..]);
        return value.trim().parse::<usize>().map_err(|_| ());
    }
    Ok(0)
}

/// Reason phrase for the status codes this server emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Request, ReadError> {
        read_request(&mut BufReader::new(raw))
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(
            b"POST /v1/impute HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/impute");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"hello");
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_a_get_without_body() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.body, b"");
        assert!(req.wants_close());
    }

    #[test]
    fn bare_lf_lines_are_tolerated() {
        let req = parse(b"GET / HTTP/1.1\nHost: x\n\n").unwrap();
        assert_eq!(req.header("host"), Some("x"));
    }

    #[test]
    fn clean_eof_is_connection_closed() {
        assert_eq!(parse(b"").unwrap_err(), ReadError::ConnectionClosed);
    }

    #[test]
    fn truncated_request_is_io_error() {
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").unwrap_err(),
            ReadError::Io(_)
        ));
    }

    #[test]
    fn garbage_and_bad_lengths_are_4xx() {
        assert!(matches!(parse(b"GARBAGE\r\n\r\n").unwrap_err(),
            ReadError::Bad(400, _)));
        assert!(matches!(
            parse(b"NOT A REQUEST\r\n\r\n").unwrap_err(),
            ReadError::Bad(505, _), // three tokens, but not HTTP/1.x
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n").unwrap_err(),
            ReadError::Bad(400, _)
        ));
        assert!(matches!(
            parse(b"GET / HTTP/2.0\r\n\r\n").unwrap_err(),
            ReadError::Bad(505, _)
        ));
    }

    #[test]
    fn oversized_body_is_rejected_up_front() {
        let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert!(matches!(
            parse(raw.as_bytes()).unwrap_err(),
            ReadError::Bad(413, _)
        ));
    }

    #[test]
    fn body_exactly_at_the_cap_is_accepted() {
        let mut raw =
            format!("POST / HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n").into_bytes();
        raw.resize(raw.len() + MAX_BODY_BYTES, b'x');
        let req = parse(&raw).unwrap();
        assert_eq!(req.body.len(), MAX_BODY_BYTES);
        assert!(req.body.iter().all(|&b| b == b'x'));
    }

    #[test]
    fn post_without_content_length_has_an_empty_body() {
        // A body may follow on the wire, but without Content-Length it is
        // not part of this request — it must not be consumed.
        let req = parse(b"POST /v1/impute HTTP/1.1\r\nHost: x\r\n\r\nleftover").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"");
    }

    #[test]
    fn response_roundtrips_through_the_parser() {
        let mut wire = Vec::new();
        Response::json(b"{\"ok\":true}".to_vec())
            .with_header("x-kamel-cache", "hit")
            .write_to(&mut wire, false)
            .unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 11\r\n"), "{text}");
        assert!(text.contains("x-kamel-cache: hit\r\n"), "{text}");
        assert!(text.contains("connection: keep-alive\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"), "{text}");
    }

    #[test]
    fn deadline_header_accepts_the_valid_range() {
        assert_eq!(
            parse_deadline_header(Some("1")),
            DeadlineHeader::Budget(Duration::from_millis(1))
        );
        assert_eq!(
            parse_deadline_header(Some("2500")),
            DeadlineHeader::Budget(Duration::from_millis(2500))
        );
        assert_eq!(
            parse_deadline_header(Some(&MAX_DEADLINE_MS.to_string())),
            DeadlineHeader::Budget(Duration::from_millis(MAX_DEADLINE_MS)),
            "the cap itself is inclusive"
        );
        // Surrounding whitespace survives header-trim idiosyncrasies.
        assert_eq!(
            parse_deadline_header(Some("  42  ")),
            DeadlineHeader::Budget(Duration::from_millis(42))
        );
    }

    #[test]
    fn deadline_header_rejects_every_garbage_shape_without_panicking() {
        assert_eq!(parse_deadline_header(None), DeadlineHeader::Absent);
        for bad in [
            "", " ", "0", "-1", "-99999", "nope", "1e3", "10.5", "٣",
            "18446744073709551616", // u64::MAX + 1
            "3600001",              // one past the cap
        ] {
            assert!(
                matches!(parse_deadline_header(Some(bad)), DeadlineHeader::Invalid(_)),
                "`{bad}` must be invalid"
            );
        }
        // u64::MAX does not overflow anything on the way to rejection.
        assert!(matches!(
            parse_deadline_header(Some(&u64::MAX.to_string())),
            DeadlineHeader::Invalid(_)
        ));
    }

    #[test]
    fn invalid_deadlines_fall_back_to_the_default_never_zero() {
        let default = Duration::from_secs(10);
        for v in [None, Some("0"), Some("-5"), Some("garbage"), Some("")] {
            let budget = parse_deadline_header(v).budget_or(default);
            assert_eq!(budget, default, "{v:?} must use the server default");
            assert!(!budget.is_zero(), "{v:?} must never produce an insta-504");
        }
        assert_eq!(
            parse_deadline_header(Some("250")).budget_or(default),
            Duration::from_millis(250)
        );
    }

    #[test]
    fn incremental_parser_matches_blocking_at_every_split_point() {
        // One split at every byte position covers every structural
        // boundary: mid-request-line, mid-header-name, between CR and LF,
        // at the blank line, and mid-body.
        let raw = b"POST /v1/impute HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let want = parse(raw).unwrap();
        for split in 0..=raw.len() {
            let mut parser = RequestParser::new();
            parser.feed(&raw[..split]);
            if split < raw.len() {
                assert!(
                    matches!(parser.poll(), Parsed::Incomplete),
                    "split {split}: request complete too early"
                );
                parser.feed(&raw[split..]);
            }
            match parser.poll() {
                Parsed::Request(got) => assert_eq!(got, want, "split {split}"),
                other => panic!("split {split}: {other:?}"),
            }
            assert_eq!(parser.buffered(), 0, "split {split}: leftover bytes");
        }
    }

    #[test]
    fn incremental_parser_byte_by_byte() {
        let raw = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
        let want = parse(raw).unwrap();
        let mut parser = RequestParser::new();
        for (i, byte) in raw.iter().enumerate() {
            parser.feed(&[*byte]);
            match parser.poll() {
                Parsed::Incomplete => assert!(i + 1 < raw.len(), "never completed"),
                Parsed::Request(got) => {
                    assert_eq!(i + 1, raw.len(), "complete early at byte {i}");
                    assert_eq!(got, want);
                    return;
                }
                other => panic!("byte {i}: {other:?}"),
            }
        }
        panic!("request never completed");
    }

    #[test]
    fn incremental_parser_preserves_pipelined_requests() {
        let first = b"POST /v1/impute HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc".as_slice();
        let second = b"GET /metrics HTTP/1.1\r\n\r\n".as_slice();
        // Split so the tail of request 1 and the head of request 2 arrive
        // in one fragment — the classic pipelining boundary.
        let wire = [first, second].concat();
        for split in 1..wire.len() {
            let mut parser = RequestParser::new();
            parser.feed(&wire[..split]);
            let mut got = Vec::new();
            loop {
                match parser.poll() {
                    Parsed::Request(r) => got.push(r),
                    Parsed::Incomplete => break,
                    other => panic!("split {split}: {other:?}"),
                }
            }
            parser.feed(&wire[split..]);
            loop {
                match parser.poll() {
                    Parsed::Request(r) => got.push(r),
                    Parsed::Incomplete => break,
                    other => panic!("split {split}: {other:?}"),
                }
            }
            assert_eq!(got.len(), 2, "split {split}");
            assert_eq!(got[0].path, "/v1/impute");
            assert_eq!(got[0].body, b"abc");
            assert_eq!(got[1].path, "/metrics");
            assert_eq!(parser.buffered(), 0, "split {split}");
        }
    }

    #[test]
    fn incremental_parser_rejects_oversized_body_before_buffering_it() {
        let mut parser = RequestParser::new();
        parser.feed(
            format!(
                "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            )
            .as_bytes(),
        );
        // Rejected on the head alone — no body bytes were needed.
        match parser.poll() {
            Parsed::Bad(413, _) => {}
            other => panic!("{other:?}"),
        }
        assert!(parser.is_poisoned());
        assert!(
            parser.buffered() < 1024,
            "body must not be buffered: {}",
            parser.buffered()
        );
    }

    #[test]
    fn incremental_parser_caps_an_endless_head() {
        let mut parser = RequestParser::new();
        parser.feed(b"GET / HTTP/1.1\r\n");
        let mut rejected = false;
        for i in 0..40_000 {
            parser.feed(b"x-h: y\r\n");
            if let Parsed::Bad(431, _) = parser.poll() {
                rejected = true;
                break;
            }
            assert!(
                parser.buffered() <= MAX_HEAD_WIRE_BYTES + 16,
                "unbounded buffering at header {i}"
            );
        }
        assert!(rejected, "slow-loris head never rejected");
    }

    #[test]
    fn incremental_parser_matches_blocking_on_bad_requests() {
        for raw in [
            b"GARBAGE\r\n\r\n".as_slice(),
            b"GET / HTTP/2.0\r\n\r\n".as_slice(),
            b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n".as_slice(),
            b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n".as_slice(),
        ] {
            let want = match parse(raw) {
                Err(ReadError::Bad(status, _)) => status,
                other => panic!("{other:?}"),
            };
            let mut parser = RequestParser::new();
            parser.feed(raw);
            match parser.poll() {
                Parsed::Bad(status, _) => assert_eq!(
                    status,
                    want,
                    "incremental and blocking disagree on {:?}",
                    String::from_utf8_lossy(raw)
                ),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn incremental_parser_handles_bare_lf_heads() {
        let raw = b"GET / HTTP/1.1\nHost: x\n\n";
        let want = parse(raw).unwrap();
        let mut parser = RequestParser::new();
        parser.feed(raw);
        match parser.poll() {
            Parsed::Request(got) => assert_eq!(got, want),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn retry_after_headers_render() {
        let mut wire = Vec::new();
        Response::text(503, "overloaded")
            .with_header("retry-after", "1")
            .write_to(&mut wire, true)
            .unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("connection: close\r\n"));
    }
}
