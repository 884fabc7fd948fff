//! HTTP message types: methods, versions, statuses, headers, requests and
//! responses. COPS-HTTP "only handles static Web page requests", so the
//! vocabulary is the HTTP/1.0–1.1 subset a static server needs.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

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

/// An ordered, case-insensitive header collection.
///
/// A parsed request's headers are the request head itself, kept as the
/// parser validated it and cut into names and values only when they are
/// looked up; headers pushed afterwards follow them. Equality compares
/// the ordered name/value pairs, however they are stored.
#[derive(Debug, Clone, Default)]
pub struct Headers {
    /// A request head the parser accepted: UTF-8, its first non-empty line
    /// the request line, a colon in every non-empty line after it.
    pub(crate) head: BytesMut,
    pushed: Vec<(Text, Text)>,
}

impl Headers {
    /// Empty header set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a header (duplicates allowed, as in HTTP). A `&'static str`
    /// is held as it is; a `String` is moved in.
    pub fn push(&mut self, name: impl Into<Text>, value: impl Into<Text>) {
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
        parsed.chain(self.pushed.iter().map(|(n, v)| (&**n, &**v)))
    }
}

impl PartialEq for Headers {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Headers {}

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Request target (path).
    pub target: String,
    /// Protocol version.
    pub version: Version,
    /// Request headers.
    pub headers: Headers,
}

impl Request {
    /// Whether the connection stays open after this exchange: HTTP/1.1
    /// defaults to keep-alive, HTTP/1.0 to close, both overridable by the
    /// `Connection` header.
    pub fn keep_alive(&self) -> bool {
        match self.headers.get("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.version == Version::Http11,
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
            let mut headers = Headers::new();
            if let Some(c) = conn {
                headers.push("Connection", c);
            }
            Request {
                method: Method::Get,
                target: "/".into(),
                version,
                headers,
            }
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
