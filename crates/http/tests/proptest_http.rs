//! Property-based tests of the HTTP protocol library: encode∘parse
//! round-trips, incremental-delivery equivalence, no-panic on arbitrary
//! input, and differential tests of the parser and the response encoder
//! against the implementations they replaced (kept below, as oracles).

use bytes::BytesMut;
use nserver_core::pipeline::{Codec, DecodeState, EncodedReply, Outbox};
use nserver_http::parse::MAX_HEAD_BYTES;
use nserver_http::parse::{encode_request, encode_response_head, parse_request_hinted};
use nserver_http::{
    encode_response, parse_request, Headers, HttpCodec, Method, ParseOutcome, Request, Response,
    Status, Version,
};
use proptest::prelude::*;
use std::io::IoSlice;
use std::sync::Arc;

/// The parser and the response-head encoder as they were before the hit
/// path got its budget (a `String` per header name and value, `format!`
/// for the status line and `Content-Length`), kept verbatim as oracles.
mod oracle {
    use super::{BytesMut, Method, Response, Version, MAX_HEAD_BYTES};

    #[derive(Debug, PartialEq, Eq)]
    pub struct Parsed {
        pub method: Method,
        pub target: String,
        pub version: Version,
        pub headers: Vec<(String, String)>,
    }

    #[derive(Debug, PartialEq, Eq)]
    pub enum Outcome {
        Complete(Parsed),
        Incomplete,
        Invalid(String),
    }

    pub fn parse_request_hinted(buf: &mut BytesMut, scanned: &mut usize) -> Outcome {
        let from = (*scanned).min(buf.len());
        let head_end = match find_head_end_from(buf, from) {
            Some(i) => i,
            None => {
                *scanned = buf.len().saturating_sub(3);
                return if buf.len() > MAX_HEAD_BYTES {
                    *scanned = 0;
                    Outcome::Invalid("request head too large".into())
                } else {
                    Outcome::Incomplete
                };
            }
        };
        *scanned = 0;
        if head_end.end > MAX_HEAD_BYTES {
            return Outcome::Invalid("request head too large".into());
        }
        let head = buf.split_to(head_end.end);
        let text = match std::str::from_utf8(&head[..head_end.start]) {
            Ok(t) => t,
            Err(_) => return Outcome::Invalid("request head is not UTF-8".into()),
        };
        let mut lines = text.split("\r\n").filter(|l| !l.is_empty());
        let request_line = match lines.next() {
            Some(l) => l,
            None => return Outcome::Invalid("empty request".into()),
        };
        let mut parts = request_line.split(' ');
        let (m, t, v) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(t), Some(v), None) => (m, t, v),
            _ => return Outcome::Invalid(format!("malformed request line: {request_line}")),
        };
        let method = match Method::parse(m) {
            Some(m) => m,
            None => return Outcome::Invalid(format!("unsupported method: {m}")),
        };
        let version = match Version::parse(v) {
            Some(v) => v,
            None => return Outcome::Invalid(format!("unsupported version: {v}")),
        };
        if t.is_empty() || !t.starts_with('/') {
            return Outcome::Invalid(format!("bad target: {t}"));
        }
        let mut headers = Vec::new();
        for line in lines {
            match line.split_once(':') {
                Some((name, value)) => {
                    headers.push((name.trim().to_string(), value.trim().to_string()))
                }
                None => return Outcome::Invalid(format!("malformed header: {line}")),
            }
        }
        Outcome::Complete(Parsed {
            method,
            target: t.to_string(),
            version,
            headers,
        })
    }

    struct HeadEnd {
        start: usize,
        end: usize,
    }

    fn find_head_end_from(buf: &BytesMut, from: usize) -> Option<HeadEnd> {
        buf[from..]
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map(|i| HeadEnd {
                start: from + i + 2,
                end: from + i + 4,
            })
    }

    pub fn encode_response_head(resp: &Response, out: &mut BytesMut) {
        let status_line = format!(
            "{} {} {}\r\n",
            resp.version,
            resp.status.code(),
            resp.status.reason()
        );
        out.extend_from_slice(status_line.as_bytes());
        for (name, value) in resp.headers.iter() {
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(value.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(format!("Content-Length: {}\r\n", resp.body.len()).as_bytes());
        out.extend_from_slice(if resp.keep_alive {
            b"Connection: keep-alive\r\n" as &[u8]
        } else {
            b"Connection: close\r\n"
        });
        out.extend_from_slice(b"\r\n");
    }
}

/// What the parser under test made of the bytes, in the oracle's terms.
fn in_oracle_terms(outcome: ParseOutcome) -> oracle::Outcome {
    match outcome {
        ParseOutcome::Complete(req) => oracle::Outcome::Complete(oracle::Parsed {
            method: req.method,
            version: req.version,
            headers: req
                .headers
                .iter()
                .map(|(n, v)| (n.to_string(), v.to_string()))
                .collect(),
            target: req.target,
        }),
        ParseOutcome::Incomplete => oracle::Outcome::Incomplete,
        ParseOutcome::Invalid(why) => oracle::Outcome::Invalid(why),
    }
}

/// Deliver `wire` to both parsers in the chunks `cuts` gives (then the
/// rest at once), the scan hint carried between calls, parsing on while
/// requests complete: every call must leave the same outcome, the same
/// bytes in the buffer and the same hint.
fn parse_differentially(wire: &[u8], cuts: &[usize]) -> Result<(), String> {
    let (mut ours, mut theirs) = (BytesMut::new(), BytesMut::new());
    let (mut our_hint, mut their_hint) = (0, 0);
    let mut pos = 0;
    let mut cuts = cuts.iter();
    while pos < wire.len() {
        let step = cuts
            .next()
            .map_or(wire.len(), |c| c + 1)
            .min(wire.len() - pos);
        ours.extend_from_slice(&wire[pos..pos + step]);
        theirs.extend_from_slice(&wire[pos..pos + step]);
        pos += step;
        loop {
            let got = in_oracle_terms(parse_request_hinted(&mut ours, &mut our_hint));
            let want = oracle::parse_request_hinted(&mut theirs, &mut their_hint);
            if got != want {
                return Err(format!("after {pos} bytes: {got:?}, the oracle {want:?}"));
            }
            if ours[..] != theirs[..] || our_hint != their_hint {
                return Err(format!(
                    "after {pos} bytes ({want:?}): buffers or hints differ"
                ));
            }
            match want {
                oracle::Outcome::Complete(_) => continue,
                oracle::Outcome::Incomplete => break,
                // The framework closes the connection here.
                oracle::Outcome::Invalid(_) => return Ok(()),
            }
        }
    }
    Ok(())
}

/// What request heads are made of, and what breaks them: bare CR and LF,
/// colons, spaces, escapes, NUL, and bytes that are not UTF-8.
fn head_piece() -> impl Strategy<Value = Vec<u8>> {
    let fixed: [&[u8]; 24] = [
        b"GET",
        b"HEAD",
        b"POST",
        b"HTTP/1.1",
        b"HTTP/1.0",
        b" ",
        b" ",
        b"/",
        b"/",
        b"/a%2e.html",
        b"Host",
        b"close",
        b":",
        b": ",
        b"%",
        b"\0",
        b"\xff",
        b"\xc3",
        b"\xc3\xa9",
        b"\xc2\xa0",
        b"\r",
        b"\n",
        b"\r\n",
        b"",
    ];
    prop_oneof![
        (0usize..fixed.len()).prop_map(move |i| fixed[i].to_vec()),
        (0usize..fixed.len()).prop_map(move |i| fixed[i].to_vec()),
        proptest::collection::vec(any::<u8>(), 0..3),
        "[a-zA-Z0-9 :/.-]{0,6}".prop_map(String::into_bytes),
    ]
}

/// Lines of pieces, mostly CRLF-separated, closed by a blank line: heads
/// that are nearly right, so the later checks get reached.
fn near_head() -> impl Strategy<Value = Vec<u8>> {
    let line = proptest::collection::vec(head_piece(), 0..6).prop_map(|pieces| pieces.concat());
    let separators: [&[u8]; 8] = [
        b"\r\n", b"\r\n", b"\r\n", b"\r\n", b"\n", b"\r", b"\n\n", b"\r\r\n",
    ];
    let separator = (0usize..separators.len()).prop_map(move |i| separators[i]);
    proptest::collection::vec((line, separator), 0..6).prop_map(|lines| {
        let mut head: Vec<u8> = lines
            .into_iter()
            .flat_map(|(l, s)| [&l[..], s].concat())
            .collect();
        head.extend_from_slice(b"\r\n\r\n");
        head
    })
}

/// A well-formed pipelined request, so that the bytes after a complete
/// head get parsed too.
fn well_formed() -> impl Strategy<Value = Vec<u8>> {
    request().prop_map(|req| encode_request(&req))
}

/// A well-formed request with one piece spliced in anywhere: everything
/// right but one thing.
fn spliced() -> impl Strategy<Value = Vec<u8>> {
    (well_formed(), head_piece(), any::<usize>()).prop_map(|(mut wire, piece, at)| {
        let at = at % (wire.len() + 1);
        wire.splice(at..at, piece);
        wire
    })
}

/// A request whose header names and values carry whitespace around them
/// (ASCII and not), which the parser trims.
fn padded() -> impl Strategy<Value = Vec<u8>> {
    let ows = || {
        prop_oneof![
            Just(""),
            Just(""),
            Just(" "),
            Just("\t"),
            Just("\u{a0}"),
            Just(" \t ")
        ]
    };
    let line = (ows(), token(), ows(), ows(), header_value(), ows())
        .prop_map(|(a, name, b, c, value, d)| format!("{a}{name}{b}:{c}{value}{d}\r\n"));
    (path(), proptest::collection::vec(line, 0..5)).prop_map(|(path, lines)| {
        format!("GET {path} HTTP/1.1\r\n{}\r\n", lines.concat()).into_bytes()
    })
}

/// A head of `len` bytes in all (blank line included), padded with one
/// long header.
fn head_of(len: usize) -> Vec<u8> {
    let mut head = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
    head.resize(len - 4, b'a');
    head.extend_from_slice(b"\r\n\r\n");
    head
}

#[test]
fn differential_parser_on_chosen_heads() {
    let at_cap = head_of(MAX_HEAD_BYTES);
    let over_cap = head_of(MAX_HEAD_BYTES + 1);
    let never_ends = vec![b'a'; MAX_HEAD_BYTES + 2];
    let cases: [&[u8]; 16] = [
        b"GET / HTTP/1.1\r\nHost: x\r\n\r\n",
        b"\r\nGET / HTTP/1.1\r\n\r\n",
        b"\r\n\r\n",
        b"GET / HTTP/1.1\nHost: x\n\nGET / HTTP/1.1\r\n\r\n",
        b"GET / HTTP/1.1\r\nA: 1\nB: 2\r\n\r\n",
        b"GET / HTTP/1.1\r\nA: 1\rB: 2\r\n\r\n",
        b"GET / HTTP/1.1\r\n: empty-name\r\nEmpty-Value:\r\n a : b : c \r\n\r\n",
        b"GET / HTTP/1.1\r\nNoColon\r\n\r\n",
        b"GET /a:b HTTP/1.1\r\n\r\n",
        b"GET  / HTTP/1.1\r\n\r\n",
        b"GET /\xc3\xa9 HTTP/1.1\r\nH: \xc2\xa0v\xc2\xa0\r\n\r\n",
        b"GET /\xff HTTP/1.1\r\n\r\n",
        b"HEAD /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\nGET /y HTTP/1.1\r\n\r\n",
        &at_cap,
        &over_cap,
        &never_ends,
    ];
    for wire in cases {
        for cuts in [&[][..], &[0; 64][..], &[6, 0, 13, 2][..]] {
            if let Err(why) = parse_differentially(wire, cuts) {
                panic!("{:?} cut at {cuts:?}: {why}", String::from_utf8_lossy(wire));
            }
        }
    }
}

#[test]
fn differential_encoder_matches_the_format_encoder() {
    let statuses = [
        Status::Ok,
        Status::BadRequest,
        Status::Forbidden,
        Status::NotFound,
        Status::MethodNotAllowed,
        Status::InternalError,
        Status::NotImplemented,
        Status::ServiceUnavailable,
    ];
    let bodies = [0, 1, 9, 10, 99, 100, 65_535, 1 << 20].map(|len| Arc::new(vec![b'b'; len]));
    let header_sets = (0..4).map(|count| {
        let mut headers = Headers::new();
        if count >= 1 {
            headers.push("Content-Type", "text/html");
        }
        if count >= 2 {
            headers.push(String::from("X-Owned"), format!("{count} of them"));
        }
        if count >= 3 {
            headers.push("X-Mixed", String::new());
        }
        headers
    });
    let codec = HttpCodec::new();
    for headers in header_sets {
        for (status, body) in statuses
            .iter()
            .flat_map(|s| bodies.iter().map(move |b| (s, b)))
        {
            for bits in 0..8 {
                let version = [Version::Http10, Version::Http11][bits & 1];
                let mut resp = Response::error(*status, version).with_keep_alive(bits & 2 > 0);
                resp.head_only = bits & 4 > 0;
                resp.headers = headers.clone();
                resp.body = Arc::clone(body);

                let mut want = BytesMut::new();
                oracle::encode_response_head(&resp, &mut want);
                let mut got = BytesMut::new();
                encode_response_head(&resp, &mut got);
                assert_eq!(&got[..], &want[..], "{status:?} {version:?} bits {bits}");

                if !resp.head_only {
                    want.extend_from_slice(body);
                }
                let mut flat = BytesMut::new();
                encode_response(&resp, &mut flat);
                assert_eq!(flat.len(), want.len());
                assert!(
                    flat[..] == want[..],
                    "flat image of {status:?}, bits {bits}"
                );
                let mut reply = EncodedReply::new();
                codec.encode_reply(&resp, &mut reply).expect("encodes");
                let mut outbox = Outbox::new();
                outbox.push_reply(reply);
                assert!(
                    outbox.to_vec() == want[..],
                    "segments of {status:?}, bits {bits}"
                );
            }
        }
    }
}

fn token() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9-]{0,15}".prop_map(|s| s)
}

fn header_value() -> impl Strategy<Value = String> {
    "[ -~&&[^:]]{0,30}".prop_map(|s| s.trim().to_string())
}

fn path() -> impl Strategy<Value = String> {
    "(/[A-Za-z0-9_.-]{1,12}){1,4}".prop_map(|s| s)
}

fn request() -> impl Strategy<Value = Request> {
    (
        prop_oneof![Just(Method::Get), Just(Method::Head)],
        path(),
        prop_oneof![Just(Version::Http10), Just(Version::Http11)],
        proptest::collection::vec((token(), header_value()), 0..8),
    )
        .prop_map(|(method, target, version, hdrs)| {
            let mut headers = Headers::new();
            for (n, v) in hdrs {
                headers.push(n, v);
            }
            Request {
                method,
                target,
                version,
                headers,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The parser and the one it replaced agree on arbitrary bytes heavy
    /// in what heads are made of and broken by, delivered whole and cut
    /// at arbitrary points: outcome, `Invalid` text, bytes left, scan
    /// hint, and the request down to its ordered header list.
    #[test]
    fn differential_parser_on_arbitrary_bytes(
        pieces in proptest::collection::vec(
            prop_oneof![near_head(), spliced(), padded(), head_piece(), well_formed()],
            0..8,
        ),
        cuts in proptest::collection::vec(0usize..60, 0..24),
    ) {
        let wire = pieces.concat();
        if let Err(why) = parse_differentially(&wire, &[]) {
            prop_assert!(false, "whole: {why}");
        }
        if let Err(why) = parse_differentially(&wire, &cuts) {
            prop_assert!(false, "cut at {cuts:?}: {why}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// encode_request ∘ parse_request is the identity on valid requests.
    #[test]
    fn request_round_trip(req in request()) {
        let wire = encode_request(&req);
        let mut buf = BytesMut::from(&wire[..]);
        match parse_request(&mut buf) {
            ParseOutcome::Complete(parsed) => {
                prop_assert_eq!(parsed.method, req.method);
                prop_assert_eq!(parsed.target, req.target);
                prop_assert_eq!(parsed.version, req.version);
                // Header count may shrink if generated values were empty
                // after trimming; compare pairs that survive.
                for ((n1, v1), (n2, v2)) in req.headers.iter().zip(parsed.headers.iter()) {
                    prop_assert_eq!(n1, n2);
                    prop_assert_eq!(v1.trim(), v2);
                }
                prop_assert!(buf.is_empty());
            }
            other => prop_assert!(false, "round trip failed: {other:?}"),
        }
    }

    /// Byte-at-a-time delivery parses identically to one-shot delivery.
    #[test]
    fn incremental_parse_equivalence(req in request()) {
        let wire = encode_request(&req);
        let mut oneshot = BytesMut::from(&wire[..]);
        let expected = parse_request(&mut oneshot);

        let mut buf = BytesMut::new();
        let mut result = ParseOutcome::Incomplete;
        for &b in &wire {
            buf.extend_from_slice(&[b]);
            result = parse_request(&mut buf);
            if !matches!(result, ParseOutcome::Incomplete) {
                break;
            }
        }
        prop_assert_eq!(result, expected);
    }

    /// The parser never panics on arbitrary bytes and always consumes a
    /// terminated head (complete or invalid, never stuck).
    #[test]
    fn parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let mut buf = BytesMut::from(&bytes[..]);
        let before = buf.len();
        let outcome = parse_request(&mut buf);
        match outcome {
            ParseOutcome::Complete(_) => prop_assert!(buf.len() < before),
            ParseOutcome::Incomplete => prop_assert_eq!(buf.len(), before),
            ParseOutcome::Invalid(_) => {}
        }
    }

    /// Byte-at-a-time delivery through the codec's stateful decode path
    /// (the one the framework drives) yields the identical request and
    /// consumed length as one-shot delivery — the incremental-scan state
    /// must never change what is parsed, only how often it is rescanned.
    #[test]
    fn codec_incremental_decode_equivalence(req in request()) {
        let codec = HttpCodec::new();
        let wire = encode_request(&req);

        let mut oneshot = BytesMut::from(&wire[..]);
        let expected = codec.decode(&mut oneshot).expect("valid").expect("complete");
        let expected_consumed = wire.len() - oneshot.len();

        let mut buf = BytesMut::new();
        let mut state = DecodeState::default();
        let mut got = None;
        let mut fed = 0;
        for &b in &wire {
            buf.extend_from_slice(&[b]);
            fed += 1;
            if let Some(r) = codec.decode_with(&mut buf, &mut state).expect("valid") {
                got = Some(r);
                break;
            }
        }
        let parsed = got.expect("drip-fed request completed");
        let consumed = fed - buf.len();
        prop_assert_eq!(parsed, expected);
        prop_assert_eq!(consumed, expected_consumed);
    }

    /// Arbitrary chunked delivery (not just single bytes) through
    /// `decode_with` also matches one-shot decode.
    #[test]
    fn codec_chunked_decode_equivalence(
        req in request(),
        cuts in proptest::collection::vec(1usize..64, 0..16),
    ) {
        let codec = HttpCodec::new();
        let wire = encode_request(&req);
        let mut oneshot = BytesMut::from(&wire[..]);
        let expected = codec.decode(&mut oneshot).expect("valid").expect("complete");

        let mut buf = BytesMut::new();
        let mut state = DecodeState::default();
        let mut pos = 0;
        let mut parsed = None;
        let mut cut_iter = cuts.into_iter();
        while pos < wire.len() {
            let step = cut_iter.next().unwrap_or(wire.len()).min(wire.len() - pos);
            buf.extend_from_slice(&wire[pos..pos + step]);
            pos += step;
            if let Some(r) = codec.decode_with(&mut buf, &mut state).expect("valid") {
                parsed = Some(r);
                break;
            }
        }
        prop_assert_eq!(parsed.expect("completed"), expected);
    }

    /// The segmented zero-copy encoding (`encode_reply` → outbox
    /// drained chunk-by-chunk, or gathered slice-wise as the dispatcher
    /// sends it) is byte-identical to the flat `encode_response` wire
    /// image, and the body segment aliases the response's `Arc` rather
    /// than copying it.
    #[test]
    fn segmented_encoding_matches_flat_wire_image(
        body in proptest::collection::vec(any::<u8>(), 0..4096),
        keep_alive in any::<bool>(),
        head_only in any::<bool>(),
        drain in 1usize..512,
        pipelined in 1usize..40,
    ) {
        let codec = HttpCodec::new();
        let mut resp = Response::ok(Arc::new(body), "text/plain", Version::Http11)
            .with_keep_alive(keep_alive);
        if head_only {
            resp = resp.head();
        }

        let mut flat = BytesMut::new();
        codec.encode(&resp, &mut flat).expect("flat encode");

        let mut reply = EncodedReply::new();
        codec.encode_reply(&resp, &mut reply).expect("segmented encode");
        prop_assert_eq!(reply.len(), flat.len());

        // Drain through the outbox in arbitrary chunk sizes, as the
        // dispatcher's flush loop would under partial writes.
        let mut outbox = Outbox::new();
        outbox.push_reply(reply);
        let mut wire = Vec::new();
        while let Some(chunk) = outbox.front_chunk() {
            let take = drain.min(chunk.len());
            wire.extend_from_slice(&chunk[..take]);
            outbox.advance(take);
        }
        prop_assert!(outbox.is_empty());
        prop_assert_eq!(&wire[..], &flat[..]);

        // The same response pipelined `pipelined` times and drained as
        // gathered writes that each stop after `drain` bytes — mid-slice,
        // mid-gather, or past the 64 slices one gather carries.
        let body_arc = Arc::clone(&resp.body);
        for _ in 0..pipelined {
            let mut reply = EncodedReply::new();
            codec.encode_reply(&resp, &mut reply).expect("segmented encode");
            outbox.push_reply(reply);
        }
        if !head_only && !resp.body.is_empty() {
            prop_assert_eq!(Arc::strong_count(&body_arc), 2 + pipelined, "bodies queued by reference");
        }
        let mut wire = Vec::new();
        while !outbox.is_empty() {
            let mut slices = [IoSlice::new(&[]); 64];
            let filled = outbox.fill_slices(&mut slices);
            prop_assert!(filled > 0);
            let mut room = drain;
            for s in &slices[..filled] {
                let take = room.min(s.len());
                wire.extend_from_slice(&s[..take]);
                room -= take;
            }
            outbox.advance(drain - room);
        }
        prop_assert_eq!(wire, flat.repeat(pipelined));
    }

    /// Responses always carry an accurate Content-Length and terminate
    /// the head properly.
    #[test]
    fn response_encoding_is_well_formed(
        body in proptest::collection::vec(any::<u8>(), 0..4096),
        keep_alive in any::<bool>(),
        head_only in any::<bool>(),
    ) {
        let mut resp = Response::ok(Arc::new(body.clone()), "text/plain", Version::Http11)
            .with_keep_alive(keep_alive);
        if head_only {
            resp = resp.head();
        }
        let mut out = BytesMut::new();
        encode_response(&resp, &mut out);
        let text = out.to_vec();
        let head_end = text.windows(4).position(|w| w == b"\r\n\r\n").expect("head end");
        let head = String::from_utf8_lossy(&text[..head_end]);
        prop_assert!(head.starts_with("HTTP/1.1 200 OK"));
        let want = format!("Content-Length: {}", body.len());
        prop_assert!(head.contains(&want), "missing {}", want);
        let wire_body = &text[head_end + 4..];
        if head_only {
            prop_assert!(wire_body.is_empty());
        } else {
            prop_assert_eq!(wire_body, &body[..]);
        }
    }
}
