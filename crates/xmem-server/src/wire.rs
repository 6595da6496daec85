//! HTTP/1.1 wire protocol: an incremental request parser and a response
//! writer, dependency-free over byte buffers.
//!
//! The parser is **incremental** — feed it whatever `read` returned and
//! poll for complete requests — and **bounded**: the request head, any
//! single line, the header count and the declared body size all have hard
//! limits, each mapped to the conventional status code
//! ([`WireError::status`]: `431` for oversized heads/lines/header counts,
//! `413` for oversized bodies, `400` for anything malformed, `501` for
//! unimplemented transfer encodings). Malformed input of any shape is an
//! `Err`, never a panic: every byte of the buffer is treated as
//! adversarial.
//!
//! Pipelining falls out of the design: leftover buffered bytes after a
//! complete request are the start of the next one, so `poll` can be
//! called in a loop.

use std::fmt;

/// Hard limits on one request's wire footprint.
#[derive(Debug, Clone)]
pub struct WireLimits {
    /// Request line + all headers, including separators.
    pub max_head_bytes: usize,
    /// Any single line (request line or one header).
    pub max_line_bytes: usize,
    /// Number of header lines.
    pub max_headers: usize,
    /// Declared `Content-Length`.
    pub max_body_bytes: usize,
}

impl Default for WireLimits {
    /// 16 KiB heads, 8 KiB lines, 64 headers, 1 MiB bodies — generous for
    /// job-spec traffic, stingy for abuse.
    fn default() -> Self {
        WireLimits {
            max_head_bytes: 16 * 1024,
            max_line_bytes: 8 * 1024,
            max_headers: 64,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// A wire-level request failure, mapped to the status code the connection
/// should answer with before closing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The request head (or one of its lines, or the header count)
    /// exceeded a limit → `431 Request Header Fields Too Large`.
    HeadTooLarge(String),
    /// The declared body exceeds the body limit → `413 Content Too
    /// Large`.
    BodyTooLarge(u64),
    /// Anything else that is not HTTP/1.x → `400 Bad Request`.
    Malformed(String),
    /// A syntactically valid request using a transfer encoding this
    /// server does not speak → `501 Not Implemented`.
    Unsupported(String),
}

impl WireError {
    /// The status code and reason phrase this error answers with.
    #[must_use]
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            WireError::HeadTooLarge(_) => (431, "Request Header Fields Too Large"),
            WireError::BodyTooLarge(_) => (413, "Content Too Large"),
            WireError::Malformed(_) => (400, "Bad Request"),
            WireError::Unsupported(_) => (501, "Not Implemented"),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::HeadTooLarge(what) => write!(f, "request head too large: {what}"),
            WireError::BodyTooLarge(declared) => {
                write!(f, "declared body of {declared} bytes exceeds the limit")
            }
            WireError::Malformed(what) => write!(f, "malformed request: {what}"),
            WireError::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, as sent (case-sensitive per RFC 9110).
    pub method: String,
    /// Request target: path plus optional query, exactly as sent.
    pub target: String,
    /// Header `(name, value)` pairs, names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless a `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the request line said `HTTP/1.1` (vs `HTTP/1.0`).
    pub http11: bool,
}

impl Request {
    /// The first value of header `name` (ASCII case-insensitive).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The target's path component (the target without its query string).
    #[must_use]
    pub fn path(&self) -> &str {
        self.target
            .split_once('?')
            .map_or(self.target.as_str(), |(path, _)| path)
    }

    /// Whether the connection should stay open after this exchange:
    /// HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close, and an
    /// explicit `Connection` header overrides either way.
    #[must_use]
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// Incremental request parser: feed bytes, poll complete requests.
#[derive(Debug)]
pub struct RequestParser {
    limits: WireLimits,
    buf: Vec<u8>,
    /// How far `buf` has already been scanned for the head terminator —
    /// keeps head detection linear when a peer trickles bytes (each poll
    /// resumes where the last one stopped instead of rescanning from 0).
    head_scanned: usize,
    /// Parsed head of the request whose body is still arriving.
    pending: Option<(Request, usize)>,
    /// Set when a freshly parsed head carries `Expect: 100-continue` and
    /// its body has not fully arrived — the connection handler must send
    /// an interim `100 Continue` before blocking for more bytes, or
    /// expectation-honouring clients stall until the idle timeout.
    /// One-shot: cleared by [`take_continue`](Self::take_continue) and
    /// when the request completes.
    needs_continue: bool,
}

impl RequestParser {
    /// A parser enforcing `limits`.
    #[must_use]
    pub fn new(limits: WireLimits) -> Self {
        RequestParser {
            limits,
            buf: Vec::new(),
            head_scanned: 0,
            pending: None,
            needs_continue: false,
        }
    }

    /// Appends raw bytes from the connection.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether bytes of an incomplete request are buffered — i.e. the
    /// peer is mid-request. Used by graceful shutdown to decide whether a
    /// quiet connection can be closed or must be drained first.
    #[must_use]
    pub fn mid_request(&self) -> bool {
        self.pending.is_some() || !self.buf.is_empty()
    }

    /// Extracts the next complete request, if the buffer holds one.
    ///
    /// # Errors
    /// Any [`WireError`]; the connection should answer with
    /// [`WireError::status`] and close. The parser is not usable after an
    /// error.
    pub fn poll(&mut self) -> Result<Option<Request>, WireError> {
        if self.pending.is_none() {
            let Some(head_len) = self.find_head_end()? else {
                return Ok(None);
            };
            self.head_scanned = 0;
            let head: Vec<u8> = self.buf.drain(..head_len + 4).collect();
            let request = self.parse_head(&head[..head_len])?;
            let body_len = self.body_length(&request)?;
            self.needs_continue = self.buf.len() < body_len
                && request
                    .header("expect")
                    .is_some_and(|v| v.eq_ignore_ascii_case("100-continue"));
            self.pending = Some((request, body_len));
        }
        let (_, body_len) = self.pending.as_ref().expect("pending head");
        if self.buf.len() < *body_len {
            return Ok(None);
        }
        let (mut request, body_len) = self.pending.take().expect("pending head");
        self.needs_continue = false;
        request.body = self.buf.drain(..body_len).collect();
        Ok(Some(request))
    }

    /// Whether the pending request is owed an interim `100 Continue`,
    /// clearing the flag (the caller sends the interim response exactly
    /// once per request).
    #[must_use]
    pub fn take_continue(&mut self) -> bool {
        std::mem::take(&mut self.needs_continue)
    }

    /// Offset of the `\r\n\r\n` head terminator, or `None` if it has not
    /// arrived (checking the head-size limit either way). Resumes the
    /// scan just before where the previous call left off (the terminator
    /// can straddle the boundary by up to 3 bytes), so repeated polls
    /// over a trickling peer stay O(bytes), not O(bytes²).
    fn find_head_end(&mut self) -> Result<Option<usize>, WireError> {
        let start = self.head_scanned.saturating_sub(3);
        let end = self.buf[start..]
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map(|i| start + i);
        self.head_scanned = self.buf.len();
        match end {
            Some(i) if i + 4 > self.limits.max_head_bytes => {
                Err(WireError::HeadTooLarge(format!("{} byte head", i + 4)))
            }
            Some(i) => Ok(Some(i)),
            None if self.buf.len() > self.limits.max_head_bytes => {
                Err(WireError::HeadTooLarge(format!(
                    "more than {} bytes without a header terminator",
                    self.limits.max_head_bytes
                )))
            }
            None => Ok(None),
        }
    }

    fn parse_head(&self, head: &[u8]) -> Result<Request, WireError> {
        let head = std::str::from_utf8(head)
            .map_err(|_| WireError::Malformed("head is not UTF-8".to_string()))?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or("");
        if request_line.len() > self.limits.max_line_bytes {
            return Err(WireError::HeadTooLarge("request line".to_string()));
        }
        let mut parts = request_line.split(' ');
        let (method, target, version) =
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
                _ => {
                    return Err(WireError::Malformed(format!(
                        "bad request line `{request_line}`"
                    )))
                }
            };
        let http11 = match version {
            "HTTP/1.1" => true,
            "HTTP/1.0" => false,
            other => return Err(WireError::Malformed(format!("bad version `{other}`"))),
        };
        let mut headers = Vec::new();
        for line in lines {
            if line.len() > self.limits.max_line_bytes {
                return Err(WireError::HeadTooLarge("header line".to_string()));
            }
            if headers.len() >= self.limits.max_headers {
                return Err(WireError::HeadTooLarge(format!(
                    "more than {} headers",
                    self.limits.max_headers
                )));
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(WireError::Malformed(format!("bad header `{line}`")));
            };
            if name.is_empty() || name.contains(' ') || name.contains('\t') {
                return Err(WireError::Malformed(format!("bad header name `{name}`")));
            }
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
        Ok(Request {
            method: method.to_string(),
            target: target.to_string(),
            headers,
            body: Vec::new(),
            http11,
        })
    }

    /// The body length a parsed head declares, validated against the
    /// limits.
    fn body_length(&self, request: &Request) -> Result<usize, WireError> {
        if request.header("transfer-encoding").is_some() {
            return Err(WireError::Unsupported(
                "transfer-encoding (send a Content-Length body)".to_string(),
            ));
        }
        let mut declared: Option<u64> = None;
        for (name, value) in &request.headers {
            if name == "content-length" {
                let parsed: u64 = value
                    .parse()
                    .map_err(|_| WireError::Malformed(format!("bad content-length `{value}`")))?;
                if declared.is_some_and(|prior| prior != parsed) {
                    return Err(WireError::Malformed(
                        "conflicting content-length headers".to_string(),
                    ));
                }
                declared = Some(parsed);
            }
        }
        let declared = declared.unwrap_or(0);
        if declared > self.limits.max_body_bytes as u64 {
            return Err(WireError::BodyTooLarge(declared));
        }
        usize::try_from(declared).map_err(|_| WireError::BodyTooLarge(declared))
    }
}

/// The reason phrase for a status code this server emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Content Too Large",
        422 => "Unprocessable Content",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// A response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond the always-emitted `content-type`,
    /// `content-length` and `connection`.
    pub headers: Vec<(String, String)>,
    /// MIME type of the body.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    #[must_use]
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            headers: Vec::new(),
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    #[must_use]
    pub fn text(status: u16, body: String) -> Self {
        Response {
            status,
            headers: Vec::new(),
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
        }
    }

    /// Adds a header.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Serializes the response; `keep_alive` decides the `connection`
    /// header. Deliberately emits no `date` header, so a given payload's
    /// bytes are deterministic (the loopback tests compare them
    /// byte-for-byte against directly computed results).
    #[must_use]
    pub fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )
        .into_bytes();
        for (name, value) in &self.headers {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

/// The canned response (plus close) a [`WireError`] answers with.
#[must_use]
pub fn error_response(error: &WireError) -> Response {
    let (status, _) = error.status();
    let body = format!(
        "{{\"error\":{{\"kind\":\"wire\",\"message\":{}}}}}",
        json_string(&error.to_string())
    );
    Response::json(status, body)
}

/// `s` as a quoted JSON string literal (see [`push_json_string`]).
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_string(&mut out, s);
    out
}

/// Appends `s` to `out` as a quoted JSON string literal — the one
/// escaper behind every hand-written response body. Escapes `"`, `\`,
/// `\n`, `\r`, `\t` by name and every other control character as
/// `\u00XX` (lowercase hex); everything else, non-ASCII included, is
/// copied verbatim. The output is byte-identical to `serde_json`'s.
pub fn push_json_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut clean = 0;
    for (i, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[clean..i]);
        clean = i + 1;
        if escape.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(byte >> 4)]));
            out.push(char::from(HEX[usize::from(byte & 0xf)]));
        } else {
            out.push_str(escape);
        }
    }
    out.push_str(&s[clean..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(bytes: &[u8]) -> Result<Vec<Request>, WireError> {
        let mut parser = RequestParser::new(WireLimits::default());
        parser.feed(bytes);
        let mut out = Vec::new();
        while let Some(request) = parser.poll()? {
            out.push(request);
        }
        Ok(out)
    }

    #[test]
    fn parses_a_simple_get() {
        let requests = parse_all(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n").unwrap();
        assert_eq!(requests.len(), 1);
        assert_eq!(requests[0].method, "GET");
        assert_eq!(requests[0].path(), "/healthz");
        assert!(requests[0].wants_keep_alive());
        assert!(requests[0].body.is_empty());
    }

    #[test]
    fn parses_incrementally_across_arbitrary_splits() {
        let raw = b"POST /v1/estimate HTTP/1.1\r\ncontent-length: 4\r\n\r\nwxyz";
        for split in 0..raw.len() {
            let mut parser = RequestParser::new(WireLimits::default());
            parser.feed(&raw[..split]);
            // Whatever has arrived so far is at most a partial request.
            let early = parser.poll().unwrap();
            if let Some(r) = early {
                panic!("complete request after {split} bytes: {r:?}");
            }
            parser.feed(&raw[split..]);
            let request = parser.poll().unwrap().expect("complete");
            assert_eq!(request.body, b"wxyz");
            assert!(!parser.mid_request());
        }
    }

    #[test]
    fn byte_by_byte_trickle_still_parses_and_resumes_the_scan() {
        let raw = b"POST /v1/estimate HTTP/1.1\r\nx: y\r\ncontent-length: 3\r\n\r\nabcGET /next HTTP/1.1\r\n\r\n";
        let mut parser = RequestParser::new(WireLimits::default());
        let mut parsed = Vec::new();
        for &byte in raw.iter() {
            parser.feed(&[byte]);
            while let Some(request) = parser.poll().unwrap() {
                parsed.push(request);
            }
        }
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].body, b"abc");
        assert_eq!(parsed[1].target, "/next");
    }

    #[test]
    fn pipelined_requests_come_out_in_order() {
        let requests = parse_all(
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi\
              GET /c HTTP/1.1\r\nconnection: close\r\n\r\n",
        )
        .unwrap();
        assert_eq!(requests.len(), 3);
        assert_eq!(requests[0].target, "/a");
        assert_eq!(requests[1].body, b"hi");
        assert!(!requests[2].wants_keep_alive());
    }

    #[test]
    fn oversized_heads_and_bodies_are_bounded() {
        let huge_header = format!("GET / HTTP/1.1\r\nx: {}\r\n\r\n", "a".repeat(20_000));
        assert!(matches!(
            parse_all(huge_header.as_bytes()),
            Err(WireError::HeadTooLarge(_))
        ));
        // Head never terminates: the limit still trips.
        let mut parser = RequestParser::new(WireLimits::default());
        parser.feed("GET / HTTP/1.1\r\n".as_bytes());
        parser.feed("x: y\r\n".repeat(4000).as_bytes());
        assert!(matches!(parser.poll(), Err(WireError::HeadTooLarge(_))));
        // A huge declared body is refused before any of it arrives.
        assert!(matches!(
            parse_all(b"POST / HTTP/1.1\r\ncontent-length: 99999999999\r\n\r\n"),
            Err(WireError::BodyTooLarge(99_999_999_999))
        ));
    }

    #[test]
    fn header_count_limit_trips() {
        let mut head = String::from("GET / HTTP/1.1\r\n");
        for i in 0..100 {
            head.push_str(&format!("h{i}: v\r\n"));
        }
        head.push_str("\r\n");
        assert!(matches!(
            parse_all(head.as_bytes()),
            Err(WireError::HeadTooLarge(_))
        ));
    }

    #[test]
    fn garbage_is_an_error_not_a_panic() {
        for garbage in [
            &b"\x00\x01\x02\x03\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET / HTTP/2\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"GET / HTTP/1.1\r\nbad name: v\r\n\r\n",
            b"POST / HTTP/1.1\r\ncontent-length: banana\r\n\r\n",
            b"POST / HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 5\r\n\r\n",
            b"\xff\xfe / HTTP/1.1\r\n\r\n",
        ] {
            let result = parse_all(garbage);
            assert!(result.is_err(), "{garbage:?} parsed: {result:?}");
        }
    }

    #[test]
    fn transfer_encoding_is_unsupported_not_misread() {
        let err = parse_all(b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(err.status().0, 501);
    }

    #[test]
    fn zero_length_body_completes_immediately() {
        let requests =
            parse_all(b"POST /v1/estimate HTTP/1.1\r\ncontent-length: 0\r\n\r\n").unwrap();
        assert_eq!(requests.len(), 1);
        assert!(requests[0].body.is_empty());
    }

    #[test]
    fn response_bytes_are_deterministic_and_sized() {
        let response = Response::json(200, "{\"ok\":true}".to_string());
        let a = response.to_bytes(true);
        let b = response.to_bytes(true);
        assert_eq!(a, b);
        let text = String::from_utf8(a).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(!text.contains("date:"), "dates would break determinism");
    }

    #[test]
    fn http10_defaults_to_close() {
        let requests = parse_all(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!requests[0].wants_keep_alive());
        let requests = parse_all(b"GET / HTTP/1.0\r\nconnection: keep-alive\r\n\r\n").unwrap();
        assert!(requests[0].wants_keep_alive());
    }
}
