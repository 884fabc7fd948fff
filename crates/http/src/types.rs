//! HTTP message types: methods, versions, statuses, headers, requests and
//! responses. COPS-HTTP "only handles static Web page requests", so the
//! vocabulary is the HTTP/1.0–1.1 subset a static server needs.

use std::borrow::Cow;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use bytes::BytesMut;

/// Request method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// GET — fetch a resource.
    Get,
    /// HEAD — fetch headers only.
    Head,
}

impl Method {
    /// Parse from the request line token.
    pub fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "HEAD" => Some(Method::Head),
            _ => None,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Head => "HEAD",
        })
    }
}

/// Protocol version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    /// HTTP/1.0 — connections close by default.
    Http10,
    /// HTTP/1.1 — persistent connections by default.
    Http11,
}

impl Version {
    /// Parse from the request line token.
    pub fn parse(s: &str) -> Option<Version> {
        match s {
            "HTTP/1.0" => Some(Version::Http10),
            "HTTP/1.1" => Some(Version::Http11),
            _ => None,
        }
    }

    /// The token as it appears on the wire.
    pub fn as_str(self) -> &'static str {
        match self {
            Version::Http10 => "HTTP/1.0",
            Version::Http11 => "HTTP/1.1",
        }
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Response status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// 200.
    Ok,
    /// 400.
    BadRequest,
    /// 403.
    Forbidden,
    /// 404.
    NotFound,
    /// 405.
    MethodNotAllowed,
    /// 500.
    InternalError,
    /// 501.
    NotImplemented,
    /// 503.
    ServiceUnavailable,
}

impl Status {
    /// Numeric code and reason phrase.
    fn parts(self) -> (u16, &'static str) {
        match self {
            Status::Ok => (200, "OK"),
            Status::BadRequest => (400, "Bad Request"),
            Status::Forbidden => (403, "Forbidden"),
            Status::NotFound => (404, "Not Found"),
            Status::MethodNotAllowed => (405, "Method Not Allowed"),
            Status::InternalError => (500, "Internal Server Error"),
            Status::NotImplemented => (501, "Not Implemented"),
            Status::ServiceUnavailable => (503, "Service Unavailable"),
        }
    }

    /// Numeric code.
    pub fn code(self) -> u16 {
        self.parts().0
    }

    /// Reason phrase.
    pub fn reason(self) -> &'static str {
        self.parts().1
    }
}

/// `text.split("\r\n")` without the substring searcher that call sets
/// up: a bare CR or LF is not a separator, and text that ends in CRLF ends
/// in an empty line.
pub(crate) fn crlf_lines(text: &str) -> impl Iterator<Item = &str> {
    let mut rest = Some(text);
    std::iter::from_fn(move || {
        let text = rest?;
        let cut = text.as_bytes().windows(2).position(|w| w == b"\r\n");
        rest = cut.map(|i| &text[i + 2..]);
        Some(cut.map_or(text, |i| &text[..i]))
    })
}

/// Header text: a `&'static str` held as it is, or an owned `String`.
type Text = Cow<'static, str>;

/// What a `Connection` header asks for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Connection {
    /// No such header.
    #[default]
    Absent,
    /// `close`.
    Close,
    /// `keep-alive`.
    KeepAlive,
    /// Anything else: the version's default stands.
    Other,
}

impl Connection {
    /// Read a header value, trimmed as [`Headers::iter`] yields it.
    pub(crate) fn of(value: &str) -> Connection {
        if value.eq_ignore_ascii_case("close") {
            Connection::Close
        } else if value.eq_ignore_ascii_case("keep-alive") {
            Connection::KeepAlive
        } else {
            Connection::Other
        }
    }
}

/// The one header a cached file's 200 response carries, with the encoded
/// response heads every such response starts with: what
/// `encode_response_head` writes for `Content-Type: content_type` and a
/// body of `body_len` bytes, one per (version, keep-alive), each built by
/// that function the first time a response needs it. It is kept beside
/// the file's cache entry and dies with it.
#[derive(Debug)]
pub(crate) struct EntryHeads {
    content_type: &'static str,
    body_len: usize,
    encoded: [OnceLock<Arc<Vec<u8>>>; 4],
}

impl EntryHeads {
    pub(crate) fn new(content_type: &'static str, body_len: usize) -> Self {
        Self {
            content_type,
            body_len,
            encoded: Default::default(),
        }
    }
}

/// An ordered, case-insensitive header collection.
///
/// A parsed request's headers are the request head itself, kept as the
/// parser validated it and cut into names and values only when they are
/// looked up; headers pushed afterwards follow them. Equality compares
/// the ordered name/value pairs, however they are stored.
#[derive(Debug, Clone, Default)]
pub struct Headers {
    /// A request head the parser accepted (or [`Request::new`] wrote):
    /// UTF-8, its first non-empty line the request line, a colon in every
    /// non-empty line after it.
    pub(crate) head: BytesMut,
    /// What the first `Connection` header of `head` asks for, as the
    /// parser saw it on its way through.
    pub(crate) connection: Connection,
    /// A cached file's `Content-Type`, with its encoded heads.
    entry: Option<Arc<EntryHeads>>,
    pushed: Vec<(Text, Text)>,
}

impl Headers {
    /// Empty header set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The headers of a 200 response serving the cache entry `entry`
    /// belongs to: its `Content-Type`, held by reference.
    pub(crate) fn of_entry(entry: Arc<EntryHeads>) -> Self {
        Self {
            entry: Some(entry),
            ..Self::default()
        }
    }

    /// Append a header (duplicates allowed, as in HTTP). A `&'static str`
    /// is held as it is; a `String` is moved in.
    pub fn push(&mut self, name: impl Into<Text>, value: impl Into<Text>) {
        // Encoded heads are of the entry's one header: with another they
        // no longer apply, and the header moves to the list.
        if let Some(entry) = self.entry.take() {
            let content_type = Cow::Borrowed(entry.content_type);
            self.pushed
                .push((Cow::Borrowed("Content-Type"), content_type));
        }
        self.pushed.push((name.into(), value.into()));
    }

    /// First value of a header, case-insensitively.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    /// Number of headers.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// True when no headers are present.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// Iterate entries in order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        let head = std::str::from_utf8(&self.head).expect("the parser validated the head");
        let lines = crlf_lines(head).filter(|l| !l.is_empty()).skip(1);
        let parsed = lines.filter_map(|l| l.split_once(':'));
        let parsed = parsed.map(|(name, value)| (name.trim(), value.trim()));
        let entry = self.entry.iter().map(|e| ("Content-Type", e.content_type));
        let pushed = self.pushed.iter().map(|(n, v)| (&**n, &**v));
        parsed.chain(entry).chain(pushed)
    }
}

impl PartialEq for Headers {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Headers {}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Where the target lies in `headers.head`: on the request line.
    pub(crate) target: Range<usize>,
    /// Protocol version.
    pub version: Version,
    /// Request headers; their head holds the target, so headers replaced
    /// whole take it with them.
    pub headers: Headers,
}

/// Requests are equal when they say the same: method, target text,
/// version and headers, wherever their bytes lie.
impl PartialEq for Request {
    fn eq(&self, other: &Self) -> bool {
        let said = (self.method, self.target(), self.version, &self.headers);
        said == (other.method, other.target(), other.version, &other.headers)
    }
}

impl Eq for Request {}

impl Request {
    /// A request built rather than parsed: its request line is written
    /// into a head of its own, where [`Request::target`] reads it;
    /// headers are pushed onto `headers`.
    ///
    /// # Panics
    /// If `target` holds a CR or LF, which no request line can carry.
    pub fn new(method: Method, target: &str, version: Version) -> Self {
        assert!(!target.contains(['\r', '\n']), "target {target:?}");
        let line = format!("{method} {target} {version}\r\n");
        let start = line.find(' ').expect("a space follows the method") + 1;
        let mut headers = Headers::new();
        headers.head = BytesMut::from(line.as_bytes());
        Self {
            method,
            target: start..start + target.len(),
            version,
            headers,
        }
    }

    /// The request target (path and query), as the request line has it.
    pub fn target(&self) -> &str {
        let bytes = self.headers.head.get(self.target.clone());
        std::str::from_utf8(bytes.unwrap_or_default()).unwrap_or_default()
    }

    /// Whether the connection stays open after this exchange: HTTP/1.1
    /// defaults to keep-alive, HTTP/1.0 to close, both overridable by the
    /// `Connection` header.
    pub fn keep_alive(&self) -> bool {
        // The first `Connection` header decides: the head's, which the
        // parser has read, else one pushed since.
        let asked = match self.headers.connection {
            Connection::Absent => {
                let mut pushed = self.headers.pushed.iter();
                let pushed = pushed.find(|(n, _)| n.eq_ignore_ascii_case("connection"));
                pushed.map_or(Connection::Absent, |(_, v)| Connection::of(v))
            }
            seen => seen,
        };
        match asked {
            Connection::Close => false,
            Connection::KeepAlive => true,
            Connection::Absent | Connection::Other => self.version == Version::Http11,
        }
    }
}

/// A response to encode.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status line status.
    pub status: Status,
    /// Protocol version to answer with.
    pub version: Version,
    /// Response headers (Content-Length is added by the encoder).
    pub headers: Headers,
    /// Body bytes (shared: cached files are served without copying).
    pub body: Arc<Vec<u8>>,
    /// Suppress the body (HEAD requests).
    pub head_only: bool,
    /// Whether the server will keep the connection open.
    pub keep_alive: bool,
}

impl Response {
    /// A 200 response with the given body and content type.
    pub fn ok(body: Arc<Vec<u8>>, content_type: impl Into<Text>, version: Version) -> Self {
        let mut headers = Headers::new();
        headers.push("Content-Type", content_type);
        Self {
            status: Status::Ok,
            version,
            headers,
            body,
            head_only: false,
            keep_alive: true,
        }
    }

    /// [`Response::ok`] for a cached file: the same response, its
    /// `Content-Type` and encoded heads shared with every other response
    /// that serves the entry `heads` is kept beside.
    pub(crate) fn ok_cached(body: Arc<Vec<u8>>, heads: Arc<EntryHeads>, version: Version) -> Self {
        Self {
            status: Status::Ok,
            version,
            headers: Headers::of_entry(heads),
            body,
            head_only: false,
            keep_alive: true,
        }
    }

    /// The encoded head this response starts with, when it is one kept
    /// beside a cache entry: built by `encode` the first time a response
    /// of this version and keep-alive needs it. `None` for a response
    /// whose head is its own to encode — and for one that no longer says
    /// what the entry's heads say.
    pub(crate) fn shared_head(&self, encode: impl FnOnce() -> Vec<u8>) -> Option<Arc<Vec<u8>>> {
        let entry = self.headers.entry.as_ref()?;
        if self.status != Status::Ok || self.body.len() != entry.body_len {
            return None;
        }
        let variant =
            2 * usize::from(self.version == Version::Http11) + usize::from(self.keep_alive);
        Some(Arc::clone(
            entry.encoded[variant].get_or_init(|| Arc::new(encode())),
        ))
    }

    /// An error response with a small text body.
    pub fn error(status: Status, version: Version) -> Self {
        let body = format!("{} {}\n", status.code(), status.reason());
        let mut headers = Headers::new();
        headers.push("Content-Type", "text/plain");
        Self {
            status,
            version,
            headers,
            body: Arc::new(body.into_bytes()),
            head_only: false,
            keep_alive: true,
        }
    }

    /// Mark as a HEAD response (headers only).
    pub fn head(mut self) -> Self {
        self.head_only = true;
        self
    }

    /// Set the keep-alive decision.
    pub fn with_keep_alive(mut self, ka: bool) -> Self {
        self.keep_alive = ka;
        self
    }
}

/// Minimal content-type guess from a path extension.
pub fn mime_for(path: &str) -> &'static str {
    let ext = path.rsplit('.').next().unwrap_or("");
    match ext {
        "html" | "htm" => "text/html",
        "txt" => "text/plain",
        "css" => "text/css",
        "js" => "application/javascript",
        "png" => "image/png",
        "jpg" | "jpeg" => "image/jpeg",
        "gif" => "image/gif",
        _ => "application/octet-stream",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_and_version_parse() {
        assert_eq!(Method::parse("GET"), Some(Method::Get));
        assert_eq!(Method::parse("HEAD"), Some(Method::Head));
        assert_eq!(Method::parse("POST"), None);
        assert_eq!(Version::parse("HTTP/1.1"), Some(Version::Http11));
        assert_eq!(Version::parse("HTTP/2"), None);
    }

    #[test]
    fn status_codes_and_reasons() {
        assert_eq!(Status::Ok.code(), 200);
        assert_eq!(Status::NotFound.code(), 404);
        assert_eq!(Status::NotFound.reason(), "Not Found");
        assert_eq!(Status::ServiceUnavailable.code(), 503);
    }

    #[test]
    fn headers_case_insensitive_first_match() {
        let mut h = Headers::new();
        h.push("Content-Type", "text/html");
        h.push("X-Test", "1");
        h.push("x-test", "2");
        assert_eq!(h.get("content-type"), Some("text/html"));
        assert_eq!(h.get("X-TEST"), Some("1"));
        assert_eq!(h.len(), 3);
        assert!(h.get("missing").is_none());
    }

    #[test]
    fn keep_alive_defaults_by_version() {
        let mk = |version, conn: Option<&'static str>| {
            let mut req = Request::new(Method::Get, "/", version);
            if let Some(c) = conn {
                req.headers.push("Connection", c);
            }
            req
        };
        assert!(mk(Version::Http11, None).keep_alive());
        assert!(!mk(Version::Http10, None).keep_alive());
        assert!(!mk(Version::Http11, Some("close")).keep_alive());
        assert!(mk(Version::Http10, Some("keep-alive")).keep_alive());
        assert!(mk(Version::Http10, Some("Keep-Alive")).keep_alive());
    }

    #[test]
    fn response_constructors() {
        let r = Response::ok(Arc::new(b"hi".to_vec()), "text/plain", Version::Http11);
        assert_eq!(r.status, Status::Ok);
        assert!(!r.head_only);
        let e = Response::error(Status::NotFound, Version::Http10).head();
        assert!(e.head_only);
        assert!(String::from_utf8_lossy(&e.body).contains("404"));
    }

    #[test]
    fn mime_guesses() {
        assert_eq!(mime_for("/a/b/index.html"), "text/html");
        assert_eq!(mime_for("x.txt"), "text/plain");
        assert_eq!(mime_for("noext"), "application/octet-stream");
        assert_eq!(mime_for("pic.jpeg"), "image/jpeg");
    }
}
