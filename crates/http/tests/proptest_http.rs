//! Property-based tests of the HTTP protocol library: encode∘parse
//! round-trips, incremental-delivery equivalence, and no-panic on
//! arbitrary input.

use bytes::BytesMut;
use nserver_core::pipeline::{Codec, DecodeState, EncodedReply, Outbox};
use nserver_http::parse::encode_request;
use nserver_http::{
    encode_response, parse_request, Headers, HttpCodec, Method, ParseOutcome, Request, Response,
    Version,
};
use proptest::prelude::*;
use std::io::IoSlice;
use std::sync::Arc;

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
