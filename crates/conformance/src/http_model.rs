//! The executable HTTP model: the spec of COPS-HTTP's observable
//! behaviour as a pure function.
//!
//! For this protocol subset the server's outbound byte stream is fully
//! determined by (a) the decoded request stream — itself a deterministic
//! function of the post-fault inbound bytes — and (b) the content
//! fixture. The model therefore *computes the one legal response stream*
//! and accepts any observed trace that is a prefix of it: a fault (reset,
//! early close, snapshot cut) may truncate the stream at any byte, and
//! that prefix closure is exactly the nondeterminism of the acceptor.
//! Clean, fully-delivered connections are held to strict equality.
//!
//! The spec mirrored here, independent of the implementation source:
//! percent-escapes decode before any traversal check; `.`/`..` whole
//! segments, malformed escapes, NUL and non-rooted targets are 403; known
//! paths are 200 with the fixture body and guessed MIME; unknown paths
//! are 404; HEAD suppresses every body, error bodies included; the
//! `Connection` answer echoes the request's keep-alive decision and a
//! non-keep-alive exchange ends the stream (later pipelined requests are
//! never answered); an unparseable head closes with no error response.

use std::sync::Arc;

use bytes::BytesMut;
use nserver_core::tap::ConnTrace;
use nserver_http::observe::{extract_requests, split_responses, ResponseStreamEnd};
use nserver_http::parse::encode_response;
use nserver_http::types::{mime_for, Method, Response, Status};
use nserver_http::MemStore;

use crate::Violation;

/// The content set served in every conformance run, shared byte-for-byte
/// between the live server's store and the model.
#[derive(Debug, Clone)]
pub struct HttpFixture {
    files: Vec<(String, Vec<u8>)>,
}

impl Default for HttpFixture {
    fn default() -> Self {
        Self::standard()
    }
}

impl HttpFixture {
    /// The standard conformance content set.
    pub fn standard() -> Self {
        let big: Vec<u8> = (0..613u32).map(|i| (i * 31 % 251) as u8).collect();
        Self {
            files: vec![
                (
                    "/index.html".to_string(),
                    b"<html><body>conformance index</body></html>".to_vec(),
                ),
                ("/big.bin".to_string(), big),
                ("/hello world.txt".to_string(), b"hello, world".to_vec()),
            ],
        }
    }

    /// Store for the live server.
    pub fn store(&self) -> MemStore {
        let mut store = MemStore::new();
        for (path, data) in &self.files {
            store.insert(path.clone(), data.clone());
        }
        store
    }

    /// Model-side lookup.
    pub fn lookup(&self, path: &str) -> Option<&[u8]> {
        self.files
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, d)| d.as_slice())
    }
}

/// The spec's target validation: decode `%XX` escapes first, then reject
/// NUL, non-`/`-rooted paths, and whole `.`/`..` segments. Returns the
/// served path, or `None` for a 403.
pub fn model_sanitize(target: &str) -> Option<String> {
    let raw = target.split('?').next().unwrap_or(target);
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = |b: u8| match b {
                b'0'..=b'9' => Some(b - b'0'),
                b'a'..=b'f' => Some(b - b'a' + 10),
                b'A'..=b'F' => Some(b - b'A' + 10),
                _ => None,
            };
            let hi = hex(*bytes.get(i + 1)?)?;
            let lo = hex(*bytes.get(i + 2)?)?;
            out.push(hi << 4 | lo);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    let path = String::from_utf8(out).ok()?;
    if path.contains('\0') || !path.starts_with('/') {
        return None;
    }
    if path.split('/').any(|seg| seg == ".." || seg == ".") {
        return None;
    }
    Some(path)
}

/// The one legal outbound stream for `inbound`, plus the per-response
/// HEAD flags (needed to re-split observed bytes for diagnostics).
pub fn expected_outbound(fixture: &HttpFixture, inbound: &[u8]) -> (Vec<u8>, Vec<bool>) {
    let stream = extract_requests(inbound);
    let mut out = BytesMut::new();
    let mut heads = Vec::new();
    for req in &stream.complete {
        let ka = req.keep_alive();
        let head = req.method == Method::Head;
        let resp = match model_sanitize(req.target()) {
            None => Response::error(Status::Forbidden, req.version),
            Some(path) => match fixture.lookup(&path) {
                Some(data) => Response::ok(Arc::new(data.to_vec()), mime_for(&path), req.version),
                None => Response::error(Status::NotFound, req.version),
            },
        };
        let resp = if head { resp.head() } else { resp };
        encode_response(&resp.with_keep_alive(ka), &mut out);
        heads.push(head);
        if !ka {
            // The connection closes after this exchange; pipelined
            // requests already in the buffer are never answered.
            break;
        }
    }
    (out.to_vec(), heads)
}

/// Check one connection trace against the model. `strict` demands the
/// full expected stream was delivered (clean profile, no early close);
/// otherwise any prefix is accepted.
pub fn check_http(fixture: &HttpFixture, trace: &ConnTrace, strict: bool) -> Vec<Violation> {
    let mut violations = Vec::new();
    if let Some(v) = crate::event_order_violation(trace) {
        violations.push(v);
    }
    let observed = trace.outbound();
    let (expected, heads) = expected_outbound(fixture, &trace.inbound());
    let vio = |kind, detail| Violation {
        accept_index: trace.accept_index,
        profile: trace.profile.clone(),
        kind,
        detail,
    };
    if !expected.starts_with(&observed) {
        let at = observed
            .iter()
            .zip(&expected)
            .position(|(a, b)| a != b)
            .unwrap_or(expected.len().min(observed.len()));
        let split = split_responses(&observed, &heads);
        let context = match split.end {
            ResponseStreamEnd::Malformed { offset, ref why } => {
                format!(
                    "response {} unparseable at +{offset}: {why}",
                    split.complete.len()
                )
            }
            _ => format!("diverges inside response {}", split.complete.len()),
        };
        violations.push(vio(
            "byte-divergence",
            format!(
                "outbound differs from the model at offset {at} ({context}); \
                 observed {:?}…, expected {:?}…",
                String::from_utf8_lossy(
                    &observed[at.min(observed.len())..observed.len().min(at + 24)]
                ),
                String::from_utf8_lossy(
                    &expected[at.min(expected.len())..expected.len().min(at + 24)]
                ),
            ),
        ));
    } else if strict && observed.len() < expected.len() {
        violations.push(vio(
            "incomplete-delivery",
            format!(
                "clean connection delivered {} of {} expected bytes \
                 ({} of {} responses)",
                observed.len(),
                expected.len(),
                split_responses(&observed, &heads).complete.len(),
                heads.len(),
            ),
        ));
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use nserver_core::tap::TapEvent;

    fn trace_of(inbound: &[u8], outbound: &[u8]) -> ConnTrace {
        ConnTrace::synthetic(
            1,
            "peer-1",
            "Clean",
            vec![
                TapEvent::Read(inbound.to_vec()),
                TapEvent::Wrote(outbound.to_vec()),
            ],
        )
    }

    #[test]
    fn sanitize_matches_spec_cases() {
        assert_eq!(model_sanitize("/a.txt?q=1"), Some("/a.txt".into()));
        assert_eq!(
            model_sanitize("/hello%20world.txt"),
            Some("/hello world.txt".into())
        );
        assert_eq!(model_sanitize("/%2e%2e/etc"), None, "decoded traversal");
        assert_eq!(model_sanitize("/%zz"), None, "malformed escape");
        assert_eq!(model_sanitize("a.txt"), None, "not rooted");
        assert_eq!(model_sanitize("/a..b.txt"), Some("/a..b.txt".into()));
    }

    #[test]
    fn expected_stream_serves_pipelined_requests_in_order() {
        let f = HttpFixture::standard();
        let inbound =
            b"GET /index.html HTTP/1.1\r\n\r\nGET /missing HTTP/1.1\r\nConnection: close\r\n\r\n";
        let (out, heads) = expected_outbound(&f, inbound);
        assert_eq!(heads, vec![false, false]);
        let text = String::from_utf8_lossy(&out);
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("Connection: close\r\n"));
    }

    #[test]
    fn close_request_ends_the_expected_stream() {
        let f = HttpFixture::standard();
        let inbound = b"GET /index.html HTTP/1.0\r\n\r\nGET /index.html HTTP/1.1\r\n\r\n";
        let (out, heads) = expected_outbound(&f, inbound);
        assert_eq!(heads.len(), 1, "pipelined request after close is dead");
        assert!(String::from_utf8_lossy(&out).starts_with("HTTP/1.0 200"));
    }

    #[test]
    fn invalid_head_ends_the_stream_with_no_error_bytes() {
        let f = HttpFixture::standard();
        let (out, heads) = expected_outbound(&f, b"POST /x HTTP/1.1\r\n\r\n");
        assert!(out.is_empty(), "decode error closes silently");
        assert!(heads.is_empty());
    }

    #[test]
    fn head_request_expects_no_body_even_for_errors() {
        let f = HttpFixture::standard();
        let (out, heads) = expected_outbound(&f, b"HEAD /missing HTTP/1.1\r\n\r\n");
        assert_eq!(heads, vec![true]);
        let text = String::from_utf8_lossy(&out);
        assert!(text.starts_with("HTTP/1.1 404"));
        assert!(text.ends_with("\r\n\r\n"), "no body after the head: {text}");
    }

    #[test]
    fn conforming_prefix_passes_and_divergence_fails() {
        let f = HttpFixture::standard();
        let inbound = b"GET /index.html HTTP/1.1\r\n\r\n";
        let (expected, _) = expected_outbound(&f, inbound);
        let t = trace_of(inbound, &expected[..20]);
        assert!(check_http(&f, &t, false).is_empty(), "prefix is legal");
        assert_eq!(
            check_http(&f, &t, true)[0].kind,
            "incomplete-delivery",
            "strict demands full delivery"
        );
        let mut wrong = expected.clone();
        let last = wrong.len() - 1;
        wrong[last] ^= 0xFF;
        let t = trace_of(inbound, &wrong);
        assert_eq!(check_http(&f, &t, false)[0].kind, "byte-divergence");
    }
}
