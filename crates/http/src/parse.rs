//! Incremental HTTP request parsing and response encoding — the protocol
//! library half of COPS-HTTP's handwritten code.

use bytes::BytesMut;

use crate::types::{Connection, Headers, Method, Request, Response, Version};

/// Result of a parse attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseOutcome {
    /// A complete request was consumed from the buffer.
    Complete(Request),
    /// More bytes are needed.
    Incomplete,
    /// The bytes are not a valid HTTP request.
    Invalid(String),
}

/// Hard cap on the request head (status line + headers) to bound memory.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Try to parse one request from the front of `buf`, consuming it on
/// success. Static servers accept no request bodies, so a request is
/// complete at its blank line.
pub fn parse_request(buf: &mut BytesMut) -> ParseOutcome {
    let mut scanned = 0;
    parse_request_hinted(buf, &mut scanned)
}

/// [`parse_request`] with a resumable scan position.
///
/// `scanned` is the prefix of `buf` already examined by a previous call
/// that returned [`ParseOutcome::Incomplete`]; the blank-line scan
/// resumes just before it instead of at offset 0. Without the hint a
/// sender dripping an N-byte head one byte at a time costs O(N²) total
/// scan work (the slow-loris pathology); with it each byte is scanned
/// once. The hint is updated in place: reset to 0 whenever bytes are
/// consumed or the request is rejected, advanced on `Incomplete`.
pub fn parse_request_hinted(buf: &mut BytesMut, scanned: &mut usize) -> ParseOutcome {
    let from = (*scanned).min(buf.len());
    let Some(blank) = buf[from..].windows(4).position(|w| w == b"\r\n\r\n") else {
        // Everything present has been scanned; keep 3 bytes of slack
        // so a "\r\n\r\n" straddling this call and the next is found.
        *scanned = buf.len().saturating_sub(3);
        return if buf.len() > MAX_HEAD_BYTES {
            *scanned = 0;
            ParseOutcome::Invalid("request head too large".into())
        } else {
            ParseOutcome::Incomplete
        };
    };
    // The head runs to the blank line (what is consumed); its text keeps
    // the last header line's CRLF.
    let end = from + blank + 4;
    *scanned = 0;
    // The cap applies to complete heads too: a head over the limit is
    // over the limit no matter how few reads delivered it.
    if end > MAX_HEAD_BYTES {
        return ParseOutcome::Invalid("request head too large".into());
    }
    let head = buf.split_to(end);
    let Ok(text) = std::str::from_utf8(&head[..end - 2]) else {
        return ParseOutcome::Invalid("request head is not UTF-8".into());
    };
    // One walk over the head: past the empty lines a client may send
    // first, the request line cut at its two spaces, then each header
    // line at its first colon. Lines end at CRLF; a bare CR or LF is part
    // of its line.
    let at = text.len() - text.trim_start_matches("\r\n").len();
    if at == text.len() {
        return ParseOutcome::Invalid("empty request".into());
    }
    let (end, [sp, sp2], spaces) = walk_line(text.as_bytes(), at, b' ');
    if spaces != 2 {
        let request_line = &text[at..end];
        return ParseOutcome::Invalid(format!("malformed request line: {request_line}"));
    }
    let (m, t, v) = (&text[at..sp], &text[sp + 1..sp2], &text[sp2 + 1..end]);
    let Some(method) = Method::parse(m) else {
        return ParseOutcome::Invalid(format!("unsupported method: {m}"));
    };
    let Some(version) = Version::parse(v) else {
        return ParseOutcome::Invalid(format!("unsupported version: {v}"));
    };
    if t.is_empty() || !t.starts_with('/') {
        return ParseOutcome::Invalid(format!("bad target: {t}"));
    }
    // The walk that finds every line's colon is the one that settles
    // `Connection`, so `Request::keep_alive` reads no line again.
    let (mut connection, mut from) = (Connection::Absent, end + 2);
    while from < text.len() {
        let (to, [colon, _], colons) = walk_line(text.as_bytes(), from, b':');
        let line = &text[from..to];
        if colons == 0 && !line.is_empty() {
            return ParseOutcome::Invalid(format!("malformed header: {line}"));
        }
        let name = &text[from..colon.max(from)];
        if connection == Connection::Absent && name.trim().eq_ignore_ascii_case("connection") {
            connection = Connection::of(text[colon + 1..to].trim());
        }
        from = to + 2;
    }
    // The head stays whole, as the request's one buffer: the target is a
    // range of it, and its header lines are cut into names and values
    // when they are looked up.
    let mut headers = Headers::new();
    headers.head = head;
    headers.connection = connection;
    let target = sp + 1..sp2;
    ParseOutcome::Complete(Request {
        method,
        target,
        version,
        headers,
    })
}

/// Walk the line of `head` that starts at `from` to its end — its CRLF,
/// or the end of `head` — and return that end, where the first two
/// `byte`s on the line lie, and how many there are.
fn walk_line(head: &[u8], from: usize, byte: u8) -> (usize, [usize; 2], usize) {
    let (mut marks, mut count) = ([0; 2], 0);
    for (i, &b) in (from..).zip(&head[from..]) {
        if b == b'\r' && head.get(i + 1) == Some(&b'\n') {
            return (i, marks, count);
        }
        if b == byte {
            if count < 2 {
                marks[count] = i;
            }
            count += 1;
        }
    }
    (head.len(), marks, count)
}

/// Encode just the response head (status line, headers, blank line) onto
/// `out`. The body travels separately — as a zero-copy shared segment on
/// the server hot path ([`crate::HttpCodec`]'s `encode_reply`).
pub fn encode_response_head(resp: &Response, out: &mut BytesMut) {
    // One growth: 100 bytes hold the status line, `Content-Length`,
    // `Connection` and the blank line at their longest.
    let headers = resp.headers.iter().map(|(n, v)| n.len() + v.len() + 4);
    out.reserve(100 + headers.sum::<usize>());
    out.extend_from_slice(resp.version.as_str().as_bytes());
    out.extend_from_slice(b" ");
    write_decimal(out, resp.status.code().into());
    out.extend_from_slice(b" ");
    out.extend_from_slice(resp.status.reason().as_bytes());
    out.extend_from_slice(b"\r\n");
    for (name, value) in resp.headers.iter() {
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"Content-Length: ");
    write_decimal(out, resp.body.len());
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(if resp.keep_alive {
        b"Connection: keep-alive\r\n" as &[u8]
    } else {
        b"Connection: close\r\n"
    });
    out.extend_from_slice(b"\r\n");
}

/// Append `n` in decimal.
fn write_decimal(out: &mut BytesMut, n: usize) {
    if n >= 10 {
        write_decimal(out, n / 10);
    }
    out.extend_from_slice(&[b'0' + (n % 10) as u8]);
}

/// Encode a response onto `out`, adding Content-Length and Connection
/// headers.
pub fn encode_response(resp: &Response, out: &mut BytesMut) {
    encode_response_head(resp, out);
    if !resp.head_only {
        out.extend_from_slice(&resp.body);
    }
}

/// Render a request as wire bytes (client side; used by tests and the
/// workload drivers).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = format!("{} {} {}\r\n", req.method, req.target(), req.version);
    for (name, value) in req.headers.iter() {
        out.push_str(name);
        out.push_str(": ");
        out.push_str(value);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    out.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn bm(s: &str) -> BytesMut {
        BytesMut::from(s.as_bytes())
    }

    #[test]
    fn parses_minimal_get() {
        let mut buf = bm("GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n");
        match parse_request(&mut buf) {
            ParseOutcome::Complete(req) => {
                assert_eq!(req.method, Method::Get);
                assert_eq!(req.target(), "/index.html");
                assert_eq!(req.version, Version::Http11);
                assert_eq!(req.headers.get("host"), Some("x"));
            }
            other => panic!("{other:?}"),
        }
        assert!(buf.is_empty(), "request consumed");
    }

    #[test]
    fn incomplete_until_blank_line() {
        let mut buf = bm("GET / HTTP/1.1\r\nHost: x\r\n");
        assert_eq!(parse_request(&mut buf), ParseOutcome::Incomplete);
        buf.extend_from_slice(b"\r\n");
        assert!(matches!(parse_request(&mut buf), ParseOutcome::Complete(_)));
    }

    #[test]
    fn pipelined_requests_parse_one_at_a_time() {
        let mut buf = bm("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        let first = parse_request(&mut buf);
        let second = parse_request(&mut buf);
        match (first, second) {
            (ParseOutcome::Complete(a), ParseOutcome::Complete(b)) => {
                assert_eq!(a.target(), "/a");
                assert_eq!(b.target(), "/b");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(parse_request(&mut buf), ParseOutcome::Incomplete);
    }

    #[test]
    fn rejects_bad_method_version_target() {
        for bad in [
            "POST / HTTP/1.1\r\n\r\n",
            "GET / HTTP/2\r\n\r\n",
            "GET index HTTP/1.1\r\n\r\n",
            "GET / HTTP/1.1 extra\r\n\r\n",
            "GARBAGE\r\n\r\n",
        ] {
            let mut buf = bm(bad);
            assert!(
                matches!(parse_request(&mut buf), ParseOutcome::Invalid(_)),
                "accepted: {bad}"
            );
        }
    }

    #[test]
    fn rejects_malformed_header() {
        let mut buf = bm("GET / HTTP/1.1\r\nNoColonHere\r\n\r\n");
        assert!(matches!(parse_request(&mut buf), ParseOutcome::Invalid(_)));
    }

    #[test]
    fn oversized_head_is_rejected() {
        let mut buf = BytesMut::new();
        buf.extend_from_slice(b"GET / HTTP/1.1\r\n");
        while buf.len() <= MAX_HEAD_BYTES {
            buf.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        assert!(matches!(parse_request(&mut buf), ParseOutcome::Invalid(_)));
    }

    #[test]
    fn oversized_head_is_rejected_even_when_complete() {
        // Regression: the cap used to fire only while the head was still
        // incomplete, so an arbitrarily large head delivered in one read
        // (blank line included) sailed through.
        let mut buf = BytesMut::new();
        buf.extend_from_slice(b"GET / HTTP/1.1\r\n");
        while buf.len() <= MAX_HEAD_BYTES {
            buf.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        buf.extend_from_slice(b"\r\n");
        assert!(
            matches!(parse_request(&mut buf), ParseOutcome::Invalid(_)),
            "complete head over MAX_HEAD_BYTES must be rejected"
        );
    }

    #[test]
    fn head_exactly_at_cap_is_accepted() {
        let mut buf = BytesMut::new();
        buf.extend_from_slice(b"GET / HTTP/1.1\r\n");
        let tail = b"\r\n";
        let pad_line = b"X-Pad: ";
        let fill = MAX_HEAD_BYTES - buf.len() - tail.len() - pad_line.len() - 2;
        buf.extend_from_slice(pad_line);
        buf.extend_from_slice(&vec![b'a'; fill]);
        buf.extend_from_slice(b"\r\n");
        buf.extend_from_slice(tail);
        assert_eq!(buf.len(), MAX_HEAD_BYTES);
        assert!(matches!(parse_request(&mut buf), ParseOutcome::Complete(_)));
    }

    #[test]
    fn hinted_parse_resumes_without_rescanning() {
        let wire = b"GET /dripped.html HTTP/1.1\r\nHost: slow\r\n\r\n";
        let mut buf = BytesMut::new();
        let mut scanned = 0;
        for (i, b) in wire.iter().enumerate() {
            buf.extend_from_slice(&[*b]);
            match parse_request_hinted(&mut buf, &mut scanned) {
                ParseOutcome::Incomplete => {
                    assert!(i + 1 < wire.len(), "last byte completes the head");
                    // The hint never runs past the buffer and trails it by
                    // the 3-byte straddle slack.
                    assert_eq!(scanned, buf.len().saturating_sub(3));
                }
                ParseOutcome::Complete(req) => {
                    assert_eq!(i + 1, wire.len());
                    assert_eq!(req.target(), "/dripped.html");
                    assert_eq!(scanned, 0, "hint resets once bytes are consumed");
                }
                other => panic!("{other:?}"),
            }
        }
        assert!(buf.is_empty());
    }

    #[test]
    fn encode_response_includes_length_and_connection() {
        let resp = Response::ok(Arc::new(b"hello".to_vec()), "text/plain", Version::Http11);
        let mut out = BytesMut::new();
        encode_response(&resp, &mut out);
        let text = String::from_utf8(out.to_vec()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 5\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\nhello"));
    }

    #[test]
    fn encode_head_response_has_no_body() {
        let resp = Response::ok(Arc::new(b"hello".to_vec()), "text/plain", Version::Http11)
            .head()
            .with_keep_alive(false);
        let mut out = BytesMut::new();
        encode_response(&resp, &mut out);
        let text = String::from_utf8(out.to_vec()).unwrap();
        assert!(text.contains("Content-Length: 5\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n"));
    }

    #[test]
    fn request_encode_parse_round_trip() {
        let mut req = Request::new(Method::Head, "/x/y.png", Version::Http10);
        req.headers.push("Host", "example");
        req.headers.push("Connection", "close");
        let mut buf = BytesMut::from(&encode_request(&req)[..]);
        match parse_request(&mut buf) {
            ParseOutcome::Complete(parsed) => assert_eq!(parsed, req),
            other => panic!("{other:?}"),
        }
    }
}
