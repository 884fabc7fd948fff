//! The Handle Request hook for COPS-HTTP: static file serving through the
//! transparent file cache.
//!
//! The flow mirrors the paper's generated server: a cache hit replies
//! immediately from memory; a miss issues an (emulated) non-blocking file
//! read via `Action::Defer`, which the framework routes to the Proactor
//! helper pool under O4 = Asynchronous. The cache itself is the O6
//! machinery from `nserver-cache`, with LRU enforced for COPS-HTTP.

use std::borrow::Cow;
use std::sync::Arc;

use nserver_cache::SharedFileCache;
use nserver_core::pipeline::{Action, ConnCtx, Service};

use crate::codec::HttpCodec;
use crate::types::{mime_for, EntryHeads, Method, Request, Response, Status};

/// Where file bytes come from on a cache miss.
pub trait ContentStore: Send + Sync + 'static {
    /// Load a file's bytes by URL path, or `None` if it does not exist.
    fn load(&self, path: &str) -> Option<Arc<Vec<u8>>>;
}

/// A directory-backed store (the production backend).
pub struct DiskStore {
    root: std::path::PathBuf,
}

impl DiskStore {
    /// Serve files under `root`.
    pub fn new(root: impl Into<std::path::PathBuf>) -> Self {
        Self { root: root.into() }
    }
}

impl ContentStore for DiskStore {
    fn load(&self, path: &str) -> Option<Arc<Vec<u8>>> {
        let rel = path.trim_start_matches('/');
        let full = self.root.join(rel);
        std::fs::read(full).ok().map(Arc::new)
    }
}

/// An in-memory store (tests and benchmarks).
#[derive(Default)]
pub struct MemStore {
    files: std::collections::HashMap<String, Arc<Vec<u8>>>,
}

impl MemStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a file.
    pub fn insert(&mut self, path: impl Into<String>, data: Vec<u8>) {
        self.files.insert(path.into(), Arc::new(data));
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

impl ContentStore for MemStore {
    fn load(&self, path: &str) -> Option<Arc<Vec<u8>>> {
        // Emulate disk latency? No — the Proactor pool provides the
        // blocking context; tests keep this instantaneous.
        self.files.get(path).cloned()
    }
}

/// The COPS-HTTP application service: static files with optional cache.
pub struct StaticFileService<St: ContentStore> {
    store: Arc<St>,
    cache: Option<SharedFileCache<String>>,
    /// Artificial per-miss disk latency (emulates slow disk in tests).
    miss_latency_ms: u64,
    /// Coalesce concurrent misses for one path into a single store load
    /// (single flight). On by default; benchmarks disable it to measure
    /// the thundering-herd baseline.
    coalesce_misses: bool,
}

impl<St: ContentStore> StaticFileService<St> {
    /// Serve from `store`, optionally through a cache (template option O6).
    pub fn new(store: St, cache: Option<SharedFileCache<String>>) -> Self {
        Self {
            store: Arc::new(store),
            cache,
            miss_latency_ms: 0,
            coalesce_misses: true,
        }
    }

    /// Add artificial latency to cache misses (testing aid).
    pub fn with_miss_latency_ms(mut self, ms: u64) -> Self {
        self.miss_latency_ms = ms;
        self
    }

    /// Disable single-flight miss coalescing: every concurrent miss does
    /// its own store load (the pre-coalescing behavior, kept for
    /// benchmark comparison).
    pub fn without_miss_coalescing(mut self) -> Self {
        self.coalesce_misses = false;
        self
    }

    /// The cache handle, if caching is enabled.
    pub fn cache(&self) -> Option<&SharedFileCache<String>> {
        self.cache.as_ref()
    }

    /// Validate and normalize a request target into a served path.
    ///
    /// Percent-escapes are decoded *before* any check, so `%2e%2e%2f`
    /// cannot smuggle a traversal past a textual `..` scan. Rejected:
    /// malformed escapes, embedded NUL, non-`/`-rooted targets, and any
    /// path *segment* equal to `.` or `..` — but only whole segments, so
    /// legitimate names like `/a..b.txt` are served. One walk finds the
    /// query string's `?` and whether an escape, a NUL or a dot segment
    /// comes before it: a rooted path with none of them is served as it
    /// is, borrowed; any other is decoded and checked in full.
    fn sanitize(target: &str) -> Option<Cow<'_, str>> {
        let (mut cut, mut segment, mut plain) = (target.len(), 0, true);
        for (i, b) in target.bytes().enumerate() {
            match b {
                // The query string is stripped before decoding: a `?`
                // inside the path would need escaping anyway.
                b'?' => {
                    cut = i;
                    break;
                }
                b'%' | b'\0' => plain = false,
                b'/' => {
                    plain &= !is_dot_segment(&target[segment..i]);
                    segment = i + 1;
                }
                _ => {}
            }
        }
        let raw = &target[..cut];
        if plain && !is_dot_segment(&raw[segment..]) && raw.starts_with('/') {
            return Some(Cow::Borrowed(raw));
        }
        let path = percent_decode(raw)?;
        if path.contains('\0') || !path.starts_with('/') {
            return None;
        }
        if path.split('/').any(is_dot_segment) {
            return None;
        }
        Some(path)
    }
}

/// A path segment that names the directory itself or its parent.
fn is_dot_segment(segment: &str) -> bool {
    segment == "." || segment == ".."
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

impl<St: ContentStore> Service<HttpCodec> for StaticFileService<St> {
    fn handle(&self, _ctx: &ConnCtx, req: Request) -> Action<Response> {
        let keep_alive = req.keep_alive();
        let head = req_is_head(&req);
        let version = req.version;
        let respond = move |resp: Response| {
            let resp = resp.with_keep_alive(keep_alive);
            let resp = if head { resp.head() } else { resp };
            if keep_alive {
                Action::Reply(resp)
            } else {
                Action::ReplyClose(resp)
            }
        };

        let path = match Self::sanitize(req.target()) {
            Some(p) => p,
            None => return respond(Response::error(Status::Forbidden, version)),
        };

        // Cache hit: reply without any blocking operation. The entry's
        // sidecar holds what every 200 for it has in common (see
        // `EntryHeads`), made on the entry's first hit.
        if let Some(cache) = &self.cache {
            let hit = cache.get_with(&*path, |data, sidecar| {
                if !sidecar.as_ref().is_some_and(|s| s.is::<Arc<EntryHeads>>()) {
                    let heads = EntryHeads::new(mime_for(&path), data.len());
                    *sidecar = Some(Box::new(Arc::new(heads)));
                }
                let heads = sidecar.as_ref().and_then(|s| s.downcast_ref());
                let heads: &Arc<EntryHeads> = heads.expect("just checked");
                Response::ok_cached(Arc::clone(data), Arc::clone(heads), version)
            });
            if let Some(resp) = hit {
                return respond(resp);
            }
        }

        // Cache miss (or no cache): the file read is a blocking operation —
        // defer it so the event loop never blocks (Proactor emulation).
        let store = Arc::clone(&self.store);
        let cache = self.cache.clone();
        let coalesce = self.coalesce_misses;
        let miss_latency = self.miss_latency_ms;
        let path2 = path.into_owned();
        let job = move || {
            let fetch = || {
                if miss_latency > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(miss_latency));
                }
                store.load(&path2)
            };
            // Single flight: when a thundering herd misses the same path,
            // the first helper thread does the disk read; the rest wait
            // on it and share the resulting `Arc`.
            let data = match &cache {
                Some(cache) if coalesce => cache.get_or_load(path2.clone(), fetch),
                Some(cache) => {
                    let data = fetch();
                    if let Some(data) = &data {
                        cache.insert(path2.clone(), Arc::clone(data));
                    }
                    data
                }
                None => fetch(),
            };
            let resp = match data {
                Some(data) => Response::ok(data, mime_for(&path2), version).with_keep_alive(true),
                // The 404 must honor HEAD too: promising a Content-Length
                // and then sending the error body desynchronizes a
                // pipelining client's framing.
                None => Response::error(Status::NotFound, version),
            };
            if head {
                resp.head()
            } else {
                resp
            }
        };
        // Keep-alive decision applies to deferred replies too.
        if keep_alive {
            Action::Defer(Box::new(move || job().with_keep_alive(true)))
        } else {
            Action::DeferClose(Box::new(move || job().with_keep_alive(false)))
        }
    }
}

fn req_is_head(req: &Request) -> bool {
    req.method == Method::Head
}

/// Adapt the O6 file cache into a feeder for
/// [`DiagHub::register`](nserver_core::diag::DiagHub::register): its
/// hit/miss/eviction/rejection counters, single-flight coalesced waits,
/// and byte occupancy appear in `/server-status` and every snapshot.
pub fn cache_stats_provider(
    cache: SharedFileCache<String>,
) -> impl Fn(&mut nserver_core::metrics::Sample) + Send + Sync + 'static {
    move |sample| {
        let s = cache.stats();
        sample.cache = Some(nserver_core::metrics::CacheSample {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            rejected: s.rejected,
            coalesced_waits: cache.coalesced_waits(),
            used_bytes: cache.used_bytes(),
            capacity_bytes: cache.capacity_bytes(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Version;
    use nserver_cache::{FileCache, PolicyKind};
    use nserver_core::event::Priority;

    fn ctx() -> ConnCtx {
        ConnCtx {
            id: 1,
            peer: "test".into(),
            priority: Priority::HIGHEST,
        }
    }

    fn get(target: &str) -> Request {
        Request::new(Method::Get, target, Version::Http11)
    }

    fn store() -> MemStore {
        let mut s = MemStore::new();
        s.insert("/index.html", b"<html>home</html>".to_vec());
        s.insert("/big.bin", vec![7u8; 4096]);
        s
    }

    fn run_action(action: Action<Response>) -> (Response, bool) {
        match action {
            Action::Reply(r) => (r, false),
            Action::ReplyClose(r) => (r, true),
            Action::Defer(job) => (job(), false),
            Action::DeferClose(job) => (job(), true),
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn serves_file_via_deferred_read_then_cache_hit() {
        // The sharded handle is the production configuration; aggregate
        // stats must look exactly like the single-lock cache's.
        let cache =
            SharedFileCache::sharded(1 << 20, PolicyKind::Lru, nserver_cache::DEFAULT_SHARDS);
        let svc = StaticFileService::new(store(), Some(cache.clone()));
        // First access: miss -> Defer.
        let action = svc.handle(&ctx(), get("/index.html"));
        assert!(matches!(action, Action::Defer(_)));
        let (resp, _) = run_action(action);
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(&**resp.body, b"<html>home</html>");
        // Second access: hit -> immediate Reply.
        let action = svc.handle(&ctx(), get("/index.html"));
        assert!(matches!(action, Action::Reply(_)));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn missing_file_is_404() {
        let svc = StaticFileService::new(store(), None);
        let (resp, _) = run_action(svc.handle(&ctx(), get("/nope.html")));
        assert_eq!(resp.status, Status::NotFound);
    }

    #[test]
    fn path_traversal_is_forbidden() {
        let svc = StaticFileService::new(store(), None);
        let (resp, _) = run_action(svc.handle(&ctx(), get("/../etc/passwd")));
        assert_eq!(resp.status, Status::Forbidden);
    }

    #[test]
    fn encoded_traversal_is_forbidden() {
        // Regression: the traversal check used to run on the raw target,
        // so percent-encoded dots and slashes sailed through to the store.
        let svc = StaticFileService::new(store(), None);
        for target in [
            "/%2e%2e/etc/passwd",
            "/%2E%2E/etc/passwd",
            "/a/%2e%2e/%2e%2e/etc/passwd",
            "/..%2fetc%2fpasswd",
            "/%2e%2e%2fetc%2fpasswd",
        ] {
            let (resp, _) = run_action(svc.handle(&ctx(), get(target)));
            assert_eq!(resp.status, Status::Forbidden, "accepted {target}");
        }
    }

    #[test]
    fn malformed_escapes_and_nul_are_forbidden() {
        let svc = StaticFileService::new(store(), None);
        for target in ["/%zz.html", "/%2", "/file%00.html", "/%ff%fe"] {
            let (resp, _) = run_action(svc.handle(&ctx(), get(target)));
            assert_eq!(resp.status, Status::Forbidden, "accepted {target}");
        }
    }

    #[test]
    fn dotted_filenames_are_served_not_forbidden() {
        // Regression: the substring `..` check 403'd any name containing
        // two dots; only whole `..` segments are traversal.
        let mut s = MemStore::new();
        s.insert("/a..b.txt", b"dots are fine".to_vec());
        let svc = StaticFileService::new(s, None);
        let (resp, _) = run_action(svc.handle(&ctx(), get("/a..b.txt")));
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(&**resp.body, b"dots are fine");
    }

    #[test]
    fn encoded_benign_names_decode_before_lookup() {
        let mut s = MemStore::new();
        s.insert("/hello world.txt", b"spaced".to_vec());
        let svc = StaticFileService::new(s, None);
        let (resp, _) = run_action(svc.handle(&ctx(), get("/hello%20world.txt")));
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(&**resp.body, b"spaced");
    }

    /// A store that counts every load (single-flight observability).
    struct CountingStore {
        inner: MemStore,
        loads: std::sync::atomic::AtomicUsize,
    }

    impl ContentStore for Arc<CountingStore> {
        fn load(&self, path: &str) -> Option<Arc<Vec<u8>>> {
            self.loads.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.inner.load(path)
        }
    }

    #[test]
    fn concurrent_misses_issue_exactly_one_store_load() {
        use std::sync::Barrier;
        use std::thread;

        let counting = Arc::new(CountingStore {
            inner: store(),
            loads: std::sync::atomic::AtomicUsize::new(0),
        });
        let cache =
            SharedFileCache::sharded(1 << 20, PolicyKind::Lru, nserver_cache::DEFAULT_SHARDS);
        let svc = Arc::new(
            StaticFileService::new(Arc::clone(&counting), Some(cache)).with_miss_latency_ms(20),
        );
        // All 8 workers observe the miss before any deferred job runs —
        // the thundering-herd shape the dispatcher produces.
        let jobs: Vec<_> = (0..8)
            .map(|_| match svc.handle(&ctx(), get("/big.bin")) {
                Action::Defer(job) => job,
                other => panic!("expected Defer, got {other:?}"),
            })
            .collect();
        let barrier = Arc::new(Barrier::new(jobs.len()));
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|job| {
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    barrier.wait();
                    job()
                })
            })
            .collect();
        let responses: Vec<Response> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(
            counting.loads.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "8 racing misses must coalesce into one store load"
        );
        for resp in &responses {
            assert_eq!(resp.status, Status::Ok);
            assert_eq!(resp.body.len(), 4096);
            assert!(
                Arc::ptr_eq(&resp.body, &responses[0].body),
                "the herd shares one body allocation"
            );
        }
    }

    #[test]
    fn without_coalescing_every_miss_loads() {
        let counting = Arc::new(CountingStore {
            inner: store(),
            loads: std::sync::atomic::AtomicUsize::new(0),
        });
        let cache =
            SharedFileCache::sharded(1 << 20, PolicyKind::Lru, nserver_cache::DEFAULT_SHARDS);
        let svc =
            StaticFileService::new(Arc::clone(&counting), Some(cache)).without_miss_coalescing();
        let jobs: Vec<_> = (0..4)
            .map(|_| match svc.handle(&ctx(), get("/big.bin")) {
                Action::Defer(job) => job,
                other => panic!("expected Defer, got {other:?}"),
            })
            .collect();
        for job in jobs {
            job();
        }
        assert_eq!(
            counting.loads.load(std::sync::atomic::Ordering::SeqCst),
            4,
            "the opt-out path preserves one load per miss"
        );
    }

    #[test]
    fn query_strings_are_stripped() {
        let svc = StaticFileService::new(store(), None);
        let (resp, _) = run_action(svc.handle(&ctx(), get("/index.html?v=2")));
        assert_eq!(resp.status, Status::Ok);
    }

    /// What a cached reply to `req` puts on the wire, and where its head
    /// lives.
    fn hit(svc: &StaticFileService<MemStore>, req: Request) -> (String, *const u8) {
        use nserver_core::pipeline::{Codec, EncodedReply, Outbox};
        let resp = match svc.handle(&ctx(), req) {
            Action::Reply(resp) | Action::ReplyClose(resp) => resp,
            other => panic!("not a hit: {other:?}"),
        };
        let mut reply = EncodedReply::new();
        HttpCodec::new().encode_reply(&resp, &mut reply).unwrap();
        let mut out = Outbox::new();
        out.push_reply(reply);
        let head = out.front_chunk().expect("a head").as_ptr();
        (String::from_utf8(out.to_vec()).unwrap(), head)
    }

    #[test]
    fn a_cached_head_dies_with_its_entry() {
        let cache = SharedFileCache::new(FileCache::new(5000, PolicyKind::Lru));
        let svc = StaticFileService::new(store(), Some(cache.clone()));
        let announces = |len: usize| {
            let (wire, _) = hit(&svc, get("/index.html"));
            let want = format!("\r\nContent-Length: {len}\r\n");
            assert!(wire.contains(&want), "{want:?} not in {wire:?}");
            assert_eq!(wire.len(), wire.find("\r\n\r\n").unwrap() + 4 + len);
        };
        run_action(svc.handle(&ctx(), get("/index.html"))); // miss, load
        announces(17);
        announces(17);
        // Replaced under the same key by a body of another length.
        cache.insert("/index.html".into(), Arc::new(vec![b'r'; 123]));
        announces(123);
        // Invalidated and loaded again.
        assert!(cache.invalidate("/index.html"));
        run_action(svc.handle(&ctx(), get("/index.html")));
        announces(17);
        // Evicted (big.bin's 4096 bytes leave no room for it; the file
        // that then moves in takes its slot) and loaded again.
        cache.insert("/index.html".into(), Arc::new(vec![b'e'; 1000]));
        announces(1000);
        run_action(svc.handle(&ctx(), get("/big.bin")));
        assert_eq!(cache.stats().evictions, 1);
        let (wire, _) = hit(&svc, get("/big.bin"));
        assert!(wire.contains("\r\nContent-Length: 4096\r\n"), "{wire:?}");
        assert!(wire.contains("\r\nContent-Type: application/octet-stream\r\n"));
        run_action(svc.handle(&ctx(), get("/index.html")));
        announces(17);
    }

    #[test]
    fn every_spelling_of_a_path_hits_the_same_entry_and_head() {
        let cache = SharedFileCache::new(FileCache::new(1 << 20, PolicyKind::Lru));
        let svc = StaticFileService::new(store(), Some(cache.clone()));
        run_action(svc.handle(&ctx(), get("/index.html")));
        let (plain, head) = hit(&svc, get("/index.html"));
        for target in ["/index.html?v=2", "/index%2Ehtml", "/%69ndex.html?a=%2e%2e"] {
            let (wire, its_head) = hit(&svc, get(target));
            assert_eq!(wire, plain, "{target}");
            assert_eq!(its_head, head, "{target}");
        }
        assert_eq!((cache.len(), cache.stats().hits), (1, 4));
    }

    #[test]
    fn each_version_and_connection_verdict_has_a_head_of_its_own() {
        let cache = SharedFileCache::new(FileCache::new(1 << 20, PolicyKind::Lru));
        let svc = StaticFileService::new(store(), Some(cache));
        run_action(svc.handle(&ctx(), get("/index.html")));
        let ask = |version, connection: Option<&'static str>, method| {
            let mut req = get("/index.html");
            (req.version, req.method) = (version, method);
            if let Some(connection) = connection {
                req.headers.push("Connection", connection);
            }
            hit(&svc, req)
        };
        let (default11, head11) = ask(Version::Http11, None, Method::Get);
        assert!(default11.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(default11.contains("\r\nConnection: keep-alive\r\n"));
        let (old_keeping, head10) = ask(Version::Http10, Some("keep-alive"), Method::Get);
        assert!(old_keeping.starts_with("HTTP/1.0 200 OK\r\n"));
        assert!(old_keeping.contains("\r\nConnection: keep-alive\r\n"));
        let (new_closing, closing11) = ask(Version::Http11, Some("close"), Method::Get);
        assert!(new_closing.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(new_closing.contains("\r\nConnection: close\r\n"));
        let (old_default, closing10) = ask(Version::Http10, None, Method::Get);
        assert!(old_default.starts_with("HTTP/1.0 200 OK\r\n"));
        assert!(old_default.contains("\r\nConnection: close\r\n"));
        let heads = [head11, head10, closing11, closing10];
        for (i, a) in heads.iter().enumerate() {
            assert!(
                heads[i + 1..].iter().all(|b| a != b),
                "variant {i} is shared"
            );
        }
        // Asked again, and by HEAD, each gets the head it got before.
        assert_eq!(
            ask(Version::Http10, Some("Keep-Alive"), Method::Get).1,
            head10
        );
        assert_eq!(
            ask(Version::Http11, Some("close"), Method::Head).1,
            closing11
        );
        let (head_only, _) = ask(Version::Http11, Some("close"), Method::Head);
        assert_eq!(
            Some(head_only.as_str()),
            new_closing.strip_suffix("<html>home</html>")
        );
    }

    #[test]
    fn connection_close_requests_reply_close() {
        let svc = StaticFileService::new(store(), None);
        let mut req = Request::new(Method::Get, "/index.html", Version::Http11);
        req.headers.push("Connection", "close");
        let action = svc.handle(&ctx(), req);
        let (resp, closed) = run_action(action);
        assert!(closed);
        assert!(!resp.keep_alive);
    }

    #[test]
    fn head_requests_mark_head_only() {
        let svc = StaticFileService::new(store(), None);
        let req = Request::new(Method::Head, "/index.html", Version::Http11);
        let (resp, _) = run_action(svc.handle(&ctx(), req));
        assert!(resp.head_only);
        assert_eq!(resp.status, Status::Ok);
    }

    #[test]
    fn head_for_missing_file_is_404_without_body() {
        // Regression: the deferred-miss path applied `.head()` only to the
        // 200 arm, so `HEAD /missing` answered 404 with the error body —
        // desynchronizing any pipelined request behind it.
        let svc = StaticFileService::new(store(), None);
        let req = Request::new(Method::Head, "/nope.html", Version::Http11);
        let (resp, _) = run_action(svc.handle(&ctx(), req));
        assert_eq!(resp.status, Status::NotFound);
        assert!(resp.head_only, "HEAD 404 must not carry a body");
    }

    #[test]
    fn mime_type_follows_extension() {
        let svc = StaticFileService::new(store(), None);
        let (resp, _) = run_action(svc.handle(&ctx(), get("/index.html")));
        assert_eq!(resp.headers.get("content-type"), Some("text/html"));
        let (resp, _) = run_action(svc.handle(&ctx(), get("/big.bin")));
        assert_eq!(
            resp.headers.get("content-type"),
            Some("application/octet-stream")
        );
    }

    #[test]
    fn disk_store_reads_real_files() {
        let dir = std::env::temp_dir().join(format!("nserver-http-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("f.txt"), b"disk bytes").unwrap();
        let store = DiskStore::new(&dir);
        assert_eq!(&**store.load("/f.txt").unwrap(), b"disk bytes");
        assert!(store.load("/missing").is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_stats_provider_reports_live_counters() {
        let cache =
            SharedFileCache::sharded(1 << 20, PolicyKind::Lru, nserver_cache::DEFAULT_SHARDS);
        let svc = StaticFileService::new(store(), Some(cache.clone()));
        let provider = cache_stats_provider(cache);
        let (_, _) = run_action(svc.handle(&ctx(), get("/index.html"))); // miss
        let (_, _) = run_action(svc.handle(&ctx(), get("/index.html"))); // hit
        let mut sample = nserver_core::metrics::Sample::default();
        provider(&mut sample);
        let sample = sample.cache.expect("fed");
        assert_eq!(sample.hits, 1);
        assert!(sample.misses >= 1);
        assert!(sample.used_bytes > 0);
        assert_eq!(sample.capacity_bytes, 1 << 20);
    }

    #[test]
    fn cache_capacity_limits_residency() {
        let cache = SharedFileCache::new(FileCache::new(4096, PolicyKind::Lru));
        let svc = StaticFileService::new(store(), Some(cache.clone()));
        let (_, _) = run_action(svc.handle(&ctx(), get("/big.bin"))); // 4096 bytes fills it
        let (_, _) = run_action(svc.handle(&ctx(), get("/index.html")));
        assert!(cache.used_bytes() <= 4096);
    }
}
