//! The Decode Request / Encode Reply hooks for COPS-HTTP: a thin adapter
//! between the protocol library and the N-Server pipeline.

use std::sync::Arc;

use bytes::BytesMut;
use nserver_core::pipeline::{Codec, DecodeState, EncodedReply, ProtocolError};

use crate::parse::{encode_response, encode_response_head, parse_request_hinted, ParseOutcome};
use crate::types::{Request, Response};

/// HTTP codec: one [`Request`] in, one [`Response`] out.
///
/// An optional decode delay emulates CPU-heavy request parsing — the
/// paper's third experiment "force\[s\] each thread to sleep for 50
/// milliseconds when decoding an HTTP request" to make the workload
/// CPU-bound for the overload-control study.
#[derive(Debug, Default, Clone, Copy)]
pub struct HttpCodec {
    /// Artificial per-request decode delay in milliseconds (experiment 3).
    pub decode_delay_ms: u64,
}

impl HttpCodec {
    /// A production codec without artificial delay.
    pub fn new() -> Self {
        Self::default()
    }

    /// The overload-experiment codec (50 ms decode burn in the paper).
    pub fn with_decode_delay(ms: u64) -> Self {
        Self {
            decode_delay_ms: ms,
        }
    }
}

impl Codec for HttpCodec {
    type Request = Request;
    type Response = Response;

    fn decode(&self, buf: &mut BytesMut) -> Result<Option<Request>, ProtocolError> {
        let mut state = DecodeState::default();
        self.decode_with(buf, &mut state)
    }

    fn encode(&self, resp: &Response, out: &mut BytesMut) -> Result<(), ProtocolError> {
        encode_response(resp, out);
        Ok(())
    }

    /// Incremental decode: the per-connection [`DecodeState`] remembers
    /// how far the blank-line scan got, so a sender dripping the head one
    /// byte at a time (slow loris) costs O(n) total instead of O(n²).
    fn decode_with(
        &self,
        buf: &mut BytesMut,
        state: &mut DecodeState,
    ) -> Result<Option<Request>, ProtocolError> {
        match parse_request_hinted(buf, &mut state.scanned) {
            ParseOutcome::Complete(req) => {
                if self.decode_delay_ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(self.decode_delay_ms));
                }
                Ok(Some(req))
            }
            ParseOutcome::Incomplete => Ok(None),
            ParseOutcome::Invalid(why) => Err(ProtocolError(why)),
        }
    }

    /// Zero-copy encode: the body — shared with the file cache via its
    /// `Arc` — rides as a borrowed segment, so a cached file is never
    /// memcpy'd per response, and so does the head when it is one kept
    /// beside the file's cache entry; any other head is encoded into an
    /// owned segment. Either way the bytes are `encode_response_head`'s.
    fn encode_reply(&self, resp: &Response, out: &mut EncodedReply) -> Result<(), ProtocolError> {
        let encode = || {
            let mut head = BytesMut::new();
            encode_response_head(resp, &mut head);
            head
        };
        match resp.shared_head(|| encode().to_vec()) {
            Some(head) => out.push_shared_head(head),
            None => out.push_bytes(encode()),
        }
        if !resp.head_only {
            out.push_shared(Arc::clone(&resp.body));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Method, Status, Version};
    use std::sync::Arc;

    #[test]
    fn codec_decodes_and_encodes() {
        let c = HttpCodec::new();
        let mut buf = BytesMut::from(&b"GET /f HTTP/1.1\r\n\r\n"[..]);
        let req = c.decode(&mut buf).unwrap().unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.target(), "/f");

        let resp = Response::ok(Arc::new(b"abc".to_vec()), "text/plain", Version::Http11);
        let mut out = BytesMut::new();
        c.encode(&resp, &mut out).unwrap();
        assert!(out.starts_with(b"HTTP/1.1 200"));
    }

    #[test]
    fn codec_incomplete_returns_none() {
        let c = HttpCodec::new();
        let mut buf = BytesMut::from(&b"GET /f HT"[..]);
        assert!(c.decode(&mut buf).unwrap().is_none());
    }

    #[test]
    fn codec_invalid_is_protocol_error() {
        let c = HttpCodec::new();
        let mut buf = BytesMut::from(&b"NOPE / HTTP/1.1\r\n\r\n"[..]);
        assert!(c.decode(&mut buf).is_err());
    }

    #[test]
    fn decode_delay_burns_time() {
        let c = HttpCodec::with_decode_delay(20);
        let mut buf = BytesMut::from(&b"GET /f HTTP/1.1\r\n\r\n"[..]);
        let t0 = std::time::Instant::now();
        c.decode(&mut buf).unwrap().unwrap();
        assert!(t0.elapsed() >= std::time::Duration::from_millis(20));
    }

    #[test]
    fn error_responses_encode() {
        let c = HttpCodec::new();
        let mut out = BytesMut::new();
        c.encode(
            &Response::error(Status::NotFound, Version::Http10),
            &mut out,
        )
        .unwrap();
        assert!(out.starts_with(b"HTTP/1.0 404"));
    }
}
