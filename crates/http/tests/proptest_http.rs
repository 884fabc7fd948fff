//! Property-based tests of the HTTP protocol library: encode∘parse
//! round-trips, incremental-delivery equivalence, no-panic on arbitrary
//! input, and differential tests of the parser and the response encoder
//! against the implementations they replaced (kept below, as oracles).

use bytes::BytesMut;
use nserver_cache::{FileCache, PolicyKind, SharedFileCache};
use nserver_core::event::Priority;
use nserver_core::pipeline::{Action, Codec, ConnCtx, DecodeState, EncodedReply, Outbox, Service};
use nserver_http::parse::MAX_HEAD_BYTES;
use nserver_http::parse::{encode_request, encode_response_head, parse_request_hinted};
use nserver_http::types::mime_for;
use nserver_http::ContentStore;
use nserver_http::{
    encode_response, parse_request, Headers, HttpCodec, MemStore, Method, ParseOutcome, Request,
    Response, StaticFileService, Status, Version,
};
use propcheck::{check, Gen};
use std::borrow::Cow;
use std::io::IoSlice;
use std::sync::{Arc, Mutex};

/// The parser and the response-head encoder as they were before the hit
/// path got its budget (a `String` per header name and value, `format!`
/// for the status line and `Content-Length`), and `sanitize` as it was
/// before it walked the target once, kept verbatim as oracles.
mod oracle {
    use super::{BytesMut, Cow, Method, Response, Version, MAX_HEAD_BYTES};

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

    /// `StaticFileService::sanitize` before it read the target in one walk.
    pub fn sanitize(target: &str) -> Option<Cow<'_, str>> {
        // Strip a query string before decoding: a `?` inside the path
        // would otherwise need escaping anyway.
        let raw = target.split('?').next().unwrap_or(target);
        let path = percent_decode(raw)?;
        if path.contains('\0') {
            return None;
        }
        if !path.starts_with('/') {
            return None;
        }
        if path.split('/').any(|seg| seg == ".." || seg == ".") {
            return None;
        }
        Some(path)
    }

    /// Decode `%XX` escapes; `None` on malformed or non-UTF-8 sequences.
    fn percent_decode(s: &str) -> Option<Cow<'_, str>> {
        if !s.contains('%') {
            return Some(Cow::Borrowed(s));
        }
        let bytes = s.as_bytes();
        let mut out = Vec::with_capacity(bytes.len());
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'%' {
                let hi = hex_val(*bytes.get(i + 1)?)?;
                let lo = hex_val(*bytes.get(i + 2)?)?;
                out.push(hi << 4 | lo);
                i += 3;
            } else {
                out.push(bytes[i]);
                i += 1;
            }
        }
        String::from_utf8(out).ok().map(Cow::Owned)
    }

    fn hex_val(b: u8) -> Option<u8> {
        match b {
            b'0'..=b'9' => Some(b - b'0'),
            b'a'..=b'f' => Some(b - b'a' + 10),
            b'A'..=b'F' => Some(b - b'A' + 10),
            _ => None,
        }
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
            target: req.target().to_string(),
        }),
        ParseOutcome::Incomplete => oracle::Outcome::Incomplete,
        ParseOutcome::Invalid(why) => oracle::Outcome::Invalid(why),
    }
}

/// `Request::keep_alive` as it read before the parser settled
/// `Connection` on its way through the head: by looking the header up.
fn keep_alive_by_lookup(req: &Request) -> bool {
    match req.headers.get("connection") {
        Some(v) if v.eq_ignore_ascii_case("close") => false,
        Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
        _ => req.version == Version::Http11,
    }
}

/// The verdict the parser took is the lookup's — first `Connection` header
/// of several, any case, padded — and stays so when headers are pushed
/// onto the parsed request: one pushed later never overrides the head's,
/// and decides when the head has none.
fn check_keep_alive(mut req: Request) -> Result<(), String> {
    for pushed in ["", "Close", "KEEP-ALIVE", "upgrade"] {
        if !pushed.is_empty() {
            req.headers.push("X-Later", "1");
            req.headers.push("connection", pushed);
        }
        if req.keep_alive() != keep_alive_by_lookup(&req) {
            let headers: Vec<_> = req.headers.iter().collect();
            return Err(format!("keep_alive() is not the lookup's on {headers:?}"));
        }
    }
    Ok(())
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
            let got = parse_request_hinted(&mut ours, &mut our_hint);
            if let ParseOutcome::Complete(req) = &got {
                check_keep_alive(req.clone())?;
            }
            let got = in_oracle_terms(got);
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
fn head_piece(g: &mut Gen) -> Vec<u8> {
    let fixed: [&[u8]; 27] = [
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
        b"Connection",
        b"\r\nconnection: ",
        b"Keep-Alive",
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
    match g.range(0..4u8) {
        0 | 1 => g.pick(&fixed).to_vec(),
        2 => g.vec(0..3, Gen::any::<u8>),
        _ => g.string(&format!("{ALNUM} :/.-"), 0..=6).into_bytes(),
    }
}

/// Lines of pieces, mostly CRLF-separated, closed by a blank line: heads
/// that are nearly right, so the later checks get reached.
fn near_head(g: &mut Gen) -> Vec<u8> {
    let separators: [&[u8]; 8] = [
        b"\r\n", b"\r\n", b"\r\n", b"\r\n", b"\n", b"\r", b"\n\n", b"\r\r\n",
    ];
    let mut head = Vec::new();
    for _ in 0..g.len(0..6) {
        head.extend(g.vec(0..6, head_piece).concat());
        let separator = *g.pick(&separators);
        head.extend_from_slice(separator);
    }
    head.extend_from_slice(b"\r\n\r\n");
    head
}

/// A well-formed pipelined request, so that the bytes after a complete
/// head get parsed too.
fn well_formed(g: &mut Gen) -> Vec<u8> {
    encode_request(&request(g))
}

/// A well-formed request with one piece spliced in anywhere: everything
/// right but one thing.
fn spliced(g: &mut Gen) -> Vec<u8> {
    let mut wire = well_formed(g);
    let piece = head_piece(g);
    let at = g.range(0..=wire.len());
    wire.splice(at..at, piece);
    wire
}

/// A request whose header names and values carry whitespace around them
/// (ASCII and not), which the parser trims.
fn padded(g: &mut Gen) -> Vec<u8> {
    let ows = |g: &mut Gen| *g.pick(&["", "", " ", "\t", "\u{a0}", " \t "]);
    let path = path(g);
    let lines = g.vec(0..5, |g| {
        let (a, mut name, b) = (ows(g), token(g), ows(g));
        let (c, mut value, d) = (ows(g), header_value(g), ows(g));
        if g.range(0..3u8) == 0 {
            name = g
                .pick(&["Connection", "connection", "CONNECTION", "cOnNeCtIoN"])
                .to_string();
            let values = [
                "close",
                "Close",
                "keep-alive",
                "KEEP-alive",
                "upgrade",
                "close, te",
                "",
            ];
            value = g.pick(&values).to_string();
        }
        format!("{a}{name}{b}:{c}{value}{d}\r\n")
    });
    format!("GET {path} HTTP/1.1\r\n{}\r\n", lines.concat()).into_bytes()
}

/// A request as a careless client writes it: leading CRLFs, tabs and
/// doubled spaces, a bare CR or LF inside a line, non-ASCII UTF-8 in the
/// target and the values, and `Connection` more than once.
fn careless(g: &mut Gen) -> Vec<u8> {
    let odd = |g: &mut Gen| {
        let odd = [
            "",
            "",
            "",
            "\t",
            "  ",
            "\r",
            "\n",
            "\u{e9}",
            "\u{65e5}",
            "\u{a0}",
            "?q=\u{fc}",
        ];
        *g.pick(&odd)
    };
    let mut wire = "\r\n".repeat(g.range(0..3usize));
    let space = *g.pick(&[" ", " ", " ", "  ", "\t"]);
    let (a, b) = (odd(g), odd(g));
    wire += &format!("GET{space}{}{a}{b} HTTP/1.1\r\n", path(g));
    for _ in 0..g.len(0..5) {
        let name = match g.range(0..3u8) {
            0 => g
                .pick(&["Connection", "connection", " Connection\t"])
                .to_string(),
            _ => token(g),
        };
        let value = *g.pick(&["close", "keep-alive", "Keep-Alive", "upgrade", "x"]);
        let (a, b) = (odd(g), odd(g));
        wire += &format!("{name}:{a}{value}{b}\r\n");
    }
    wire += "\r\n";
    wire.into_bytes()
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
    let cases: [&[u8]; 22] = [
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
        b"\r\n\r\nGET / HTTP/1.1\r\n\r\n",
        b"\r\n\r\r\nGET / HTTP/1.1\r\n\r\n",
        b"GET\t/ HTTP/1.1\r\n\r\nGET /\ta HTTP/1.1\r\nX:\tv\t\r\n\r\n",
        b"GET / HTTP/1.1\r\nConnection: close\r\nconnection: keep-alive\r\n\r\n",
        b"GET / HTTP/1.0\r\nX: a\rConnection: close\r\nConnection:\nclose\r\n\r\n",
        b"GET /\xe6\x97\xa5?q=\xc3\xbc HTTP/1.1\r\nConnection : \xc2\xa0close\r\n\r\n",
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

/// What a warm `StaticFileService` and `HttpCodec::encode_reply` queue
/// for a cached file — a head kept beside the cache entry, shared by
/// every reply of its version and keep-alive, and the body — is, byte for
/// byte, `encode_response_head` of a fresh `Response::ok` and the body
/// (so, through `differential_encoder_matches_the_format_encoder`, what
/// the `format!` encoder wrote): for every extension `mime_for` knows and
/// one it does not, body lengths around each digit count, both versions,
/// both `Connection` verdicts, GET and HEAD, in any order on one entry.
#[test]
fn differential_hit_matches_the_encoder() {
    let ctx = ConnCtx {
        id: 1,
        peer: "hit".into(),
        priority: Priority::HIGHEST,
    };
    let codec = HttpCodec::new();
    check(48, |g| {
        let ext = *g.pick(&[
            "html", "htm", "txt", "css", "js", "png", "jpg", "jpeg", "gif", "bin", "",
        ]);
        let len = match g.range(0..3u8) {
            0 => g.range(0..70_000usize),
            _ => *g.pick(&[0, 1, 9, 10, 99, 999, 100_000]),
        };
        let path = format!("/{}.{ext}", g.string(ALNUM, 1..=12));
        let body = Arc::new(g.vec(len..=len, Gen::any::<u8>));
        let mut store = MemStore::new();
        store.insert(path.clone(), body.to_vec());
        let cache = SharedFileCache::new(FileCache::new(1 << 20, PolicyKind::Lru));
        let service = StaticFileService::new(store, Some(cache.clone()));
        let warm = format!("GET {path} HTTP/1.1\r\n\r\n");
        let warm = parse_request(&mut BytesMut::from(warm.as_bytes()));
        let ParseOutcome::Complete(warm) = warm else {
            panic!("{warm:?}")
        };
        match service.handle(&ctx, warm) {
            Action::Defer(load) => drop(load()),
            other => panic!("a cold cache defers: {other:?}"),
        }

        let mut heads_seen: Vec<(usize, *const u8)> = Vec::new();
        for bits in g.vec(8..24, |g| g.range(0..8usize)) {
            let version = [Version::Http10, Version::Http11][bits & 1];
            let keep_alive = bits & 2 > 0;
            let method = ["GET", "HEAD"][bits >> 2];
            let connection = ["close", "keep-alive"][usize::from(keep_alive)];
            let wire = format!("{method} {path} {version}\r\nConnection: {connection}\r\n\r\n");
            let ParseOutcome::Complete(req) = parse_request(&mut BytesMut::from(wire.as_bytes()))
            else {
                panic!("{wire:?} parses")
            };
            let resp = match service.handle(&ctx, req) {
                Action::Reply(resp) if keep_alive => resp,
                Action::ReplyClose(resp) if !keep_alive => resp,
                other => panic!("a hit replies at once, closing or not as asked: {other:?}"),
            };
            let mut reply = EncodedReply::new();
            codec.encode_reply(&resp, &mut reply).expect("encodes");
            let mut outbox = Outbox::new();
            outbox.push_reply(reply);

            let mut fresh = Response::ok(Arc::clone(&body), mime_for(&path), version)
                .with_keep_alive(keep_alive);
            if method == "HEAD" {
                fresh = fresh.head();
            }
            let mut want = BytesMut::new();
            encode_response_head(&fresh, &mut want);
            let head_len = want.len();
            if method == "GET" {
                want.extend_from_slice(&body);
            }
            assert!(outbox.to_vec() == want[..], "{wire:?} of {len} bytes");

            // The head is one allocation per (version, keep-alive), HEAD
            // sharing GET's; the body is the cache's own.
            let mut slices = [IoSlice::new(&[]); 4];
            let filled = outbox.fill_slices(&mut slices);
            assert_eq!(filled, 1 + usize::from(method == "GET" && len > 0));
            assert_eq!(slices[0].len(), head_len);
            match heads_seen.iter().find(|(variant, _)| *variant == bits & 3) {
                Some((_, first)) => assert_eq!(slices[0].as_ptr(), *first, "{wire:?}"),
                None => heads_seen.push((bits & 3, slices[0].as_ptr())),
            }
            if filled == 2 {
                assert_eq!(
                    slices[1].as_ptr(),
                    resp.body.as_ptr(),
                    "queued by reference"
                );
            }
        }
        let heads: std::collections::HashSet<_> = heads_seen.iter().map(|(_, p)| *p).collect();
        assert_eq!(heads.len(), heads_seen.len(), "one head per variant");
    });
}

const ALPHA: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
const ALNUM: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";

/// `[A-Za-z][A-Za-z0-9-]{0,15}`.
fn token(g: &mut Gen) -> String {
    g.string(ALPHA, 1..=1) + &g.string(&format!("{ALNUM}-"), 0..=15)
}

/// Up to 30 printable ASCII characters but `:`, trimmed.
fn header_value(g: &mut Gen) -> String {
    let printable: String = (' '..='~').filter(|&c| c != ':').collect();
    g.string(&printable, 0..=30).trim().to_string()
}

/// `(/[A-Za-z0-9_.-]{1,12}){1,4}`.
fn path(g: &mut Gen) -> String {
    let segment = |g: &mut Gen| format!("/{}", g.string(&format!("{ALNUM}_.-"), 1..=12));
    g.vec(1..=4, segment).concat()
}

fn request(g: &mut Gen) -> Request {
    let method = *g.pick(&[Method::Get, Method::Head]);
    let version = *g.pick(&[Version::Http10, Version::Http11]);
    let mut req = Request::new(method, &path(g), version);
    for _ in 0..g.len(0..8) {
        req.headers.push(token(g), header_value(g));
    }
    req
}

/// The parser and the one it replaced agree on arbitrary bytes heavy
/// in what heads are made of and broken by, delivered whole and cut
/// at arbitrary points: outcome, `Invalid` text, bytes left, scan
/// hint, and the request down to its ordered header list.
#[test]
fn differential_parser_on_arbitrary_bytes() {
    check(512, |g| {
        let pieces = g.vec(0..8, |g| match g.range(0..6u8) {
            0 => near_head(g),
            1 => spliced(g),
            2 => padded(g),
            3 => head_piece(g),
            4 => careless(g),
            _ => well_formed(g),
        });
        let cuts = g.vec(0..24, |g| g.range(0usize..60));
        let wire = pieces.concat();
        if let Err(why) = parse_differentially(&wire, &[]) {
            panic!("whole: {why}");
        }
        if let Err(why) = parse_differentially(&wire, &cuts) {
            panic!("cut at {cuts:?}: {why}");
        }
    });
}

/// encode_request ∘ parse_request is the identity on valid requests.
#[test]
fn request_round_trip() {
    check(128, |g| {
        let req = request(g);
        let wire = encode_request(&req);
        let mut buf = BytesMut::from(&wire[..]);
        match parse_request(&mut buf) {
            ParseOutcome::Complete(parsed) => {
                assert_eq!(parsed.method, req.method);
                assert_eq!(parsed.target(), req.target());
                assert_eq!(parsed.version, req.version);
                // Header count may shrink if generated values were empty
                // after trimming; compare pairs that survive.
                for ((n1, v1), (n2, v2)) in req.headers.iter().zip(parsed.headers.iter()) {
                    assert_eq!(n1, n2);
                    assert_eq!(v1.trim(), v2);
                }
                assert!(buf.is_empty());
            }
            other => panic!("round trip failed: {other:?}"),
        }
    });
}

/// A request built by `Request::new` reads back as the parser reads its
/// wire image: the same target (non-ASCII, escapes and queries included),
/// the same headers, the same `Connection` verdict.
#[test]
fn constructed_request_equals_its_parse() {
    check(256, |g| {
        let method = *g.pick(&[Method::Get, Method::Head]);
        let version = *g.pick(&[Version::Http10, Version::Http11]);
        let target = format!(
            "{}{}",
            path(g),
            g.pick(&["", "?a=1", "%2e", "\u{e9}", "/\u{65e5}"])
        );
        let mut built = Request::new(method, &target, version);
        for _ in 0..g.len(0..6) {
            let name = match g.range(0..4u8) {
                0 => "Connection".to_string(),
                _ => token(g),
            };
            let value = match g.range(0..3u8) {
                0 => g.pick(&["close", "keep-alive"]).to_string(),
                _ => header_value(g),
            };
            built.headers.push(name, value);
        }
        assert_eq!(built.target(), target);
        let wire = encode_request(&built);
        let ParseOutcome::Complete(parsed) = parse_request(&mut BytesMut::from(&wire[..])) else {
            panic!("{:?} parses", String::from_utf8_lossy(&wire))
        };
        assert_eq!(parsed.target(), built.target());
        assert!(parsed.headers.iter().eq(built.headers.iter()));
        assert_eq!(parsed.keep_alive(), built.keep_alive());
        assert_eq!(parsed, built);
    });
}

/// A store that records the path each load asks for.
struct Asked(Arc<Mutex<Vec<String>>>);

impl ContentStore for Asked {
    fn load(&self, path: &str) -> Option<Arc<Vec<u8>>> {
        self.0.lock().unwrap().push(path.to_string());
        None
    }
}

/// Targets heavy in what `sanitize` decides on: escapes (of dots, NUL,
/// slashes, UTF-8 and malformed ones), raw NULs, queries, `.` and `..`.
fn sanitize_target(g: &mut Gen) -> String {
    let pieces = [
        "/", "/", "/", ".", ".", "..", "%", "%2e", "%2E", "%2e%2e", "%00", "\0", "%2f", "%2F",
        "%zz", "%2", "%c3%a9", "%ff", "?", "?x=/../", "a", "b.c", "a..b", "\u{e9}", "%25",
    ];
    let mut target = match g.range(0..4u8) {
        0 => String::new(),
        _ => "/".to_string(),
    };
    for _ in 0..g.len(0..10) {
        match g.range(0..4u8) {
            0 => target += &g.string(ALNUM, 1..=4),
            _ => target += *g.pick(&pieces),
        }
    }
    target
}

/// `sanitize`'s one walk decides as the two-pass original did: the
/// service forbids exactly the targets the oracle rejects, and asks the
/// store for exactly the path the oracle serves.
#[test]
fn sanitize_walk_matches_the_oracle() {
    let ctx = ConnCtx {
        id: 1,
        peer: "sanitize".into(),
        priority: Priority::HIGHEST,
    };
    let asked = Arc::new(Mutex::new(Vec::new()));
    let service = StaticFileService::new(Asked(Arc::clone(&asked)), None);
    check(2048, |g| {
        let target = sanitize_target(g);
        let req = Request::new(Method::Get, &target, Version::Http11);
        let got = match service.handle(&ctx, req) {
            Action::Reply(resp) if resp.status == Status::Forbidden => None,
            Action::Defer(load) => {
                drop(load());
                asked.lock().unwrap().pop()
            }
            other => panic!("{target:?}: {other:?}"),
        };
        assert_eq!(
            got,
            oracle::sanitize(&target).map(Cow::into_owned),
            "{target:?}"
        );
    });
}

/// Byte-at-a-time delivery parses identically to one-shot delivery.
#[test]
fn incremental_parse_equivalence() {
    check(128, |g| {
        let req = request(g);
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
        assert_eq!(result, expected);
    });
}

/// The parser never panics on arbitrary bytes and always consumes a
/// terminated head (complete or invalid, never stuck).
#[test]
fn parser_never_panics() {
    check(128, |g| {
        let bytes = g.vec(0..2048, Gen::any::<u8>);
        let mut buf = BytesMut::from(&bytes[..]);
        let before = buf.len();
        let outcome = parse_request(&mut buf);
        match outcome {
            ParseOutcome::Complete(_) => assert!(buf.len() < before),
            ParseOutcome::Incomplete => assert_eq!(buf.len(), before),
            ParseOutcome::Invalid(_) => {}
        }
    });
}

/// Byte-at-a-time delivery through the codec's stateful decode path
/// (the one the framework drives) yields the identical request and
/// consumed length as one-shot delivery — the incremental-scan state
/// must never change what is parsed, only how often it is rescanned.
#[test]
fn codec_incremental_decode_equivalence() {
    check(128, |g| {
        let req = request(g);
        let codec = HttpCodec::new();
        let wire = encode_request(&req);

        let mut oneshot = BytesMut::from(&wire[..]);
        let expected = codec
            .decode(&mut oneshot)
            .expect("valid")
            .expect("complete");
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
        assert_eq!(parsed, expected);
        assert_eq!(consumed, expected_consumed);
    });
}

/// Arbitrary chunked delivery (not just single bytes) through
/// `decode_with` also matches one-shot decode.
#[test]
fn codec_chunked_decode_equivalence() {
    check(128, |g| {
        let req = request(g);
        let cuts = g.vec(0..16, |g| g.range(1usize..64));
        let codec = HttpCodec::new();
        let wire = encode_request(&req);
        let mut oneshot = BytesMut::from(&wire[..]);
        let expected = codec
            .decode(&mut oneshot)
            .expect("valid")
            .expect("complete");

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
        assert_eq!(parsed.expect("completed"), expected);
    });
}

/// The segmented zero-copy encoding (`encode_reply` → outbox
/// drained chunk-by-chunk, or gathered slice-wise as the dispatcher
/// sends it) is byte-identical to the flat `encode_response` wire
/// image, and the body segment aliases the response's `Arc` rather
/// than copying it.
#[test]
fn segmented_encoding_matches_flat_wire_image() {
    check(128, |g| {
        let body = g.vec(0..4096, Gen::any::<u8>);
        let keep_alive = g.bool();
        let head_only = g.bool();
        let drain = g.range(1usize..512);
        let pipelined = g.range(1usize..40);
        let codec = HttpCodec::new();
        let mut resp =
            Response::ok(Arc::new(body), "text/plain", Version::Http11).with_keep_alive(keep_alive);
        if head_only {
            resp = resp.head();
        }

        let mut flat = BytesMut::new();
        codec.encode(&resp, &mut flat).expect("flat encode");

        let mut reply = EncodedReply::new();
        codec
            .encode_reply(&resp, &mut reply)
            .expect("segmented encode");
        assert_eq!(reply.len(), flat.len());

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
        assert!(outbox.is_empty());
        assert_eq!(&wire[..], &flat[..]);

        // The same response pipelined `pipelined` times and drained as
        // gathered writes that each stop after `drain` bytes — mid-slice,
        // mid-gather, or past the 64 slices one gather carries.
        let body_arc = Arc::clone(&resp.body);
        for _ in 0..pipelined {
            let mut reply = EncodedReply::new();
            codec
                .encode_reply(&resp, &mut reply)
                .expect("segmented encode");
            outbox.push_reply(reply);
        }
        if !head_only && !resp.body.is_empty() {
            assert_eq!(
                Arc::strong_count(&body_arc),
                2 + pipelined,
                "bodies queued by reference"
            );
        }
        let mut wire = Vec::new();
        while !outbox.is_empty() {
            let mut slices = [IoSlice::new(&[]); 64];
            let filled = outbox.fill_slices(&mut slices);
            assert!(filled > 0);
            let mut room = drain;
            for s in &slices[..filled] {
                let take = room.min(s.len());
                wire.extend_from_slice(&s[..take]);
                room -= take;
            }
            outbox.advance(drain - room);
        }
        assert_eq!(wire, flat.repeat(pipelined));
    });
}

/// Responses always carry an accurate Content-Length and terminate
/// the head properly.
#[test]
fn response_encoding_is_well_formed() {
    check(128, |g| {
        let body = g.vec(0..4096, Gen::any::<u8>);
        let keep_alive = g.bool();
        let head_only = g.bool();
        let mut resp = Response::ok(Arc::new(body.clone()), "text/plain", Version::Http11)
            .with_keep_alive(keep_alive);
        if head_only {
            resp = resp.head();
        }
        let mut out = BytesMut::new();
        encode_response(&resp, &mut out);
        let text = out.to_vec();
        let head_end = text
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("head end");
        let head = String::from_utf8_lossy(&text[..head_end]);
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        let want = format!("Content-Length: {}", body.len());
        assert!(head.contains(&want), "missing {}", want);
        let wire_body = &text[head_end + 4..];
        if head_only {
            assert!(wire_body.is_empty());
        } else {
            assert_eq!(wire_body, &body[..]);
        }
    });
}
