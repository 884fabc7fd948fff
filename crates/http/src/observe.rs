//! Observable-event extraction for conformance checking: turn the raw
//! byte streams a trace tap recorded into protocol-level events.
//!
//! Two directions:
//!
//! * [`extract_requests`] mirrors the server's decode loop exactly — the
//!   same incremental parser ([`crate::parse::parse_request_hinted`]), the
//!   same stop conditions — so a conformance model can predict, from the
//!   bytes the server *actually read*, precisely which requests it
//!   decoded and where it stopped (clean, mid-request, or on a protocol
//!   error).
//! * [`split_responses`] is a tolerant response-stream splitter used for
//!   diagnostics: it structures the server's outbound bytes into status
//!   lines, headers and bodies, stopping at the first malformed byte or
//!   truncated tail.

use bytes::BytesMut;

use crate::parse::{parse_request_hinted, ParseOutcome};
use crate::types::{Request, Version};

/// How the request stream ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestStreamEnd {
    /// Every byte was consumed by complete requests.
    Clean,
    /// Trailing bytes form an incomplete request head (legal: the trace
    /// was cut mid-delivery).
    Incomplete(Vec<u8>),
    /// The parser rejected the head at this point; the server closes the
    /// connection here and everything after is never decoded.
    Invalid(String),
}

/// The decoded view of one connection's inbound bytes.
#[derive(Debug, Clone)]
pub struct RequestStream {
    /// Requests the server decoded, in order.
    pub complete: Vec<Request>,
    /// Why decoding stopped.
    pub end: RequestStreamEnd,
}

/// Replay the server's decode loop over `bytes` (the post-fault inbound
/// stream). This is deterministic: the server decodes the same requests
/// from the same bytes regardless of read chunking, because
/// [`ParseOutcome::Invalid`] verdicts only fire on complete heads or the
/// head-size cap, both functions of the byte prefix alone.
pub fn extract_requests(bytes: &[u8]) -> RequestStream {
    let mut buf = BytesMut::from(bytes);
    let mut scanned = 0usize;
    let mut complete = Vec::new();
    loop {
        match parse_request_hinted(&mut buf, &mut scanned) {
            ParseOutcome::Complete(req) => complete.push(req),
            ParseOutcome::Incomplete => {
                let end = if buf.is_empty() {
                    RequestStreamEnd::Clean
                } else {
                    RequestStreamEnd::Incomplete(buf.to_vec())
                };
                return RequestStream { complete, end };
            }
            ParseOutcome::Invalid(why) => {
                return RequestStream {
                    complete,
                    end: RequestStreamEnd::Invalid(why),
                };
            }
        }
    }
}

/// One structurally parsed response from the server's outbound stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservedResponse {
    /// Version from the status line.
    pub version: Version,
    /// Numeric status code.
    pub status: u16,
    /// Header (name, value) pairs in wire order.
    pub headers: Vec<(String, String)>,
    /// `Content-Length` value, when present and numeric.
    pub content_length: Option<usize>,
    /// True when a `Connection: close` header was sent.
    pub connection_close: bool,
    /// Body bytes consumed (empty for HEAD responses).
    pub body: Vec<u8>,
}

/// How the response stream ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseStreamEnd {
    /// Every byte was consumed by complete responses.
    Clean,
    /// Trailing bytes form an incomplete response (legal under
    /// truncation: reset, stall, or snapshot cut).
    Truncated(Vec<u8>),
    /// The stream is not parseable as HTTP responses at this offset.
    Malformed {
        /// Byte offset of the first unparseable response.
        offset: usize,
        /// What went wrong.
        why: String,
    },
}

/// The structured view of one connection's outbound bytes.
#[derive(Debug, Clone)]
pub struct ResponseStream {
    /// Responses fully delivered, in order.
    pub complete: Vec<ObservedResponse>,
    /// Why splitting stopped.
    pub end: ResponseStreamEnd,
}

/// Split `bytes` into responses. `head_only[i]` tells the splitter that
/// the `i`-th response answers a HEAD request, so its `Content-Length`
/// promises a body that never follows (HTTP/1.1 framing depends on the
/// request). Responses past the end of `head_only` are assumed to carry
/// their body.
pub fn split_responses(bytes: &[u8], head_only: &[bool]) -> ResponseStream {
    let mut complete = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        let Some(head_len) = find_blank_line(rest) else {
            return ResponseStream {
                complete,
                end: ResponseStreamEnd::Truncated(rest.to_vec()),
            };
        };
        let head = &rest[..head_len];
        let text = match std::str::from_utf8(head) {
            Ok(t) => t,
            Err(_) => {
                return ResponseStream {
                    complete,
                    end: ResponseStreamEnd::Malformed {
                        offset: pos,
                        why: "head is not UTF-8".into(),
                    },
                }
            }
        };
        let mut lines = text.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let mut parts = status_line.splitn(3, ' ');
        let (v, code) = match (parts.next(), parts.next()) {
            (Some(v), Some(c)) => (v, c),
            _ => {
                return ResponseStream {
                    complete,
                    end: ResponseStreamEnd::Malformed {
                        offset: pos,
                        why: format!("bad status line: {status_line}"),
                    },
                }
            }
        };
        let Some(version) = Version::parse(v) else {
            return ResponseStream {
                complete,
                end: ResponseStreamEnd::Malformed {
                    offset: pos,
                    why: format!("bad version in status line: {status_line}"),
                },
            };
        };
        let Ok(status) = code.parse::<u16>() else {
            return ResponseStream {
                complete,
                end: ResponseStreamEnd::Malformed {
                    offset: pos,
                    why: format!("bad status code: {status_line}"),
                },
            };
        };
        let mut headers = Vec::new();
        let mut content_length = None;
        let mut connection_close = false;
        for line in lines.filter(|l| !l.is_empty()) {
            let Some((name, value)) = line.split_once(':') else {
                return ResponseStream {
                    complete,
                    end: ResponseStreamEnd::Malformed {
                        offset: pos,
                        why: format!("malformed header: {line}"),
                    },
                };
            };
            let (name, value) = (name.trim().to_string(), value.trim().to_string());
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse::<usize>().ok();
            }
            if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
                connection_close = true;
            }
            headers.push((name, value));
        }
        let body_len = if head_only.get(complete.len()).copied().unwrap_or(false) {
            0
        } else {
            content_length.unwrap_or(0)
        };
        let body_start = pos + head_len + 4;
        let body_end = body_start + body_len;
        if body_end > bytes.len() {
            return ResponseStream {
                complete,
                end: ResponseStreamEnd::Truncated(bytes[pos..].to_vec()),
            };
        }
        complete.push(ObservedResponse {
            version,
            status,
            headers,
            content_length,
            connection_close,
            body: bytes[body_start..body_end].to_vec(),
        });
        pos = body_end;
    }
    ResponseStream {
        complete,
        end: ResponseStreamEnd::Clean,
    }
}

fn find_blank_line(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::encode_response;
    use crate::types::{Method, Response, Status};
    use std::sync::Arc;

    #[test]
    fn extracts_pipelined_requests_with_clean_end() {
        let s = extract_requests(b"GET /a HTTP/1.1\r\n\r\nHEAD /b HTTP/1.0\r\nHost: x\r\n\r\n");
        assert_eq!(s.complete.len(), 2);
        assert_eq!(s.complete[0].target(), "/a");
        assert_eq!(s.complete[1].method, Method::Head);
        assert_eq!(s.end, RequestStreamEnd::Clean);
    }

    #[test]
    fn truncated_tail_is_incomplete() {
        let s = extract_requests(b"GET /a HTTP/1.1\r\n\r\nGET /b HT");
        assert_eq!(s.complete.len(), 1);
        assert!(matches!(s.end, RequestStreamEnd::Incomplete(ref t) if t == b"GET /b HT"));
    }

    #[test]
    fn invalid_head_stops_extraction() {
        let s = extract_requests(
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\n\r\nGET /c HTTP/1.1\r\n\r\n",
        );
        assert_eq!(
            s.complete.len(),
            1,
            "nothing after the invalid request decodes"
        );
        assert!(matches!(s.end, RequestStreamEnd::Invalid(_)));
    }

    #[test]
    fn splits_responses_and_heads() {
        let mut wire = BytesMut::new();
        let r1 = Response::ok(Arc::new(b"hello".to_vec()), "text/plain", Version::Http11);
        encode_response(&r1, &mut wire);
        let r2 = Response::error(Status::NotFound, Version::Http11)
            .head()
            .with_keep_alive(false);
        encode_response(&r2, &mut wire);
        let s = split_responses(&wire, &[false, true]);
        assert_eq!(s.complete.len(), 2);
        assert_eq!(s.complete[0].status, 200);
        assert_eq!(s.complete[0].body, b"hello");
        assert_eq!(s.complete[1].status, 404);
        assert!(s.complete[1].body.is_empty());
        assert!(s.complete[1].connection_close);
        assert!(
            s.complete[1].content_length.unwrap() > 0,
            "HEAD promises a length"
        );
        assert_eq!(s.end, ResponseStreamEnd::Clean);
    }

    #[test]
    fn truncated_response_reports_tail() {
        let mut wire = BytesMut::new();
        let r = Response::ok(
            Arc::new(b"0123456789".to_vec()),
            "text/plain",
            Version::Http11,
        );
        encode_response(&r, &mut wire);
        let cut = wire.len() - 4;
        let s = split_responses(&wire[..cut], &[false]);
        assert!(s.complete.is_empty());
        assert!(matches!(s.end, ResponseStreamEnd::Truncated(_)));
    }

    #[test]
    fn garbage_is_malformed_with_offset() {
        let mut wire = BytesMut::new();
        let r = Response::ok(Arc::new(b"x".to_vec()), "text/plain", Version::Http11);
        encode_response(&r, &mut wire);
        let at = wire.len();
        wire.extend_from_slice(b"NONSENSE\r\n\r\n");
        let s = split_responses(&wire, &[false]);
        assert_eq!(s.complete.len(), 1);
        match s.end {
            ResponseStreamEnd::Malformed { offset, .. } => assert_eq!(offset, at),
            other => panic!("{other:?}"),
        }
    }
}
