//! Dynamic content support — the paper's noted extension: "The same
//! pattern can be used to generate a server for dynamic content, except
//! that more application-dependent code would be required to support the
//! additional protocols."
//!
//! [`RoutedService`] front-ends the static file service with
//! prefix-matched dynamic handlers. A handler is a plain closure from
//! request to response; handlers marked *blocking* run through the
//! framework's Proactor path (`Action::Defer`) so a slow generator (a
//! database query, a CGI-like computation) never stalls the event loop.

use std::sync::Arc;

use nserver_core::diag::DiagHub;
use nserver_core::pipeline::{Action, ConnCtx, Service};

use crate::codec::HttpCodec;
use crate::service::{ContentStore, StaticFileService};
use crate::types::{Request, Response, Status};

/// A dynamic request handler.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

struct Route {
    prefix: String,
    handler: Handler,
    blocking: bool,
}

/// Static files plus prefix-routed dynamic handlers.
pub struct RoutedService<St: ContentStore> {
    routes: Vec<Route>,
    fallback: StaticFileService<St>,
}

impl<St: ContentStore> RoutedService<St> {
    /// Wrap a static file service.
    pub fn new(fallback: StaticFileService<St>) -> Self {
        Self {
            routes: Vec::new(),
            fallback,
        }
    }

    /// Mount a fast (non-blocking) handler at a path prefix. Longest
    /// prefix wins; ties go to the earliest mount.
    pub fn route(
        mut self,
        prefix: impl Into<String>,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> Self {
        self.routes.push(Route {
            prefix: prefix.into(),
            handler: Arc::new(handler),
            blocking: false,
        });
        self
    }

    /// Mount a blocking handler (database access, heavy generation): it
    /// runs off the event loop via the Proactor path.
    pub fn route_blocking(
        mut self,
        prefix: impl Into<String>,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> Self {
        self.routes.push(Route {
            prefix: prefix.into(),
            handler: Arc::new(handler),
            blocking: true,
        });
        self
    }

    /// Mount the built-in `/server-status` observability route: the
    /// hub's sample as Prometheus text — the server's counters, the O11
    /// per-stage latency histograms (p50/p99 per stage) and every group
    /// the hub is fed (cache, overload, worker gauges, trace drops,
    /// watchdog and syscall counters). Pass the hub given to
    /// [`ServerBuilder::diag`](nserver_core::server::ServerBuilder::diag)
    /// so the page reflects the live server.
    pub fn server_status(self, hub: DiagHub) -> Self {
        self.route(
            "/server-status",
            text_page(Status::Ok, move |_| hub.prometheus()),
        )
    }

    /// Mount the `/debug/snapshot` flight-recorder route. A plain GET
    /// captures a fresh diagnostic snapshot on demand and serves it as
    /// JSON; `GET /debug/snapshot?latest` serves the most recent stored
    /// capture instead (watchdog-triggered or on-demand), or `null` when
    /// none has been taken yet.
    pub fn debug_snapshot(self, hub: DiagHub) -> Self {
        self.route(
            "/debug/snapshot",
            json_page(move |req| {
                let query = req.target().split_once('?').map(|(_, q)| q).unwrap_or("");
                if query.split('&').any(|kv| kv == "latest") {
                    hub.latest()
                        .map(|s| s.to_json())
                        .unwrap_or_else(|| "null".into())
                } else {
                    hub.capture("http_on_demand").to_json()
                }
            }),
        )
    }

    /// Mount the `GET /debug/trace.json` timeline route: every trace
    /// ring wired into the hub — the server's own plus any tiers added
    /// with `DiagHub::add_tracer` — exported as Chrome/Perfetto
    /// trace-event JSON (load it at `ui.perfetto.dev` or
    /// `chrome://tracing`). Cross-tier connections linked at connect time
    /// render as one correlated process.
    pub fn debug_trace(self, hub: DiagHub) -> Self {
        self.route("/debug/trace.json", json_page(move |_| hub.perfetto_json()))
    }

    fn find(&self, target: &str) -> Option<&Route> {
        let path = target.split('?').next().unwrap_or(target);
        self.routes
            .iter()
            .filter(|r| path.starts_with(&r.prefix))
            .max_by_key(|r| r.prefix.len())
    }

    /// Number of mounted routes.
    pub fn routes_len(&self) -> usize {
        self.routes.len()
    }
}

impl<St: ContentStore> Service<HttpCodec> for RoutedService<St> {
    fn handle(&self, ctx: &ConnCtx, req: Request) -> Action<Response> {
        let Some(route) = self.find(req.target()) else {
            return self.fallback.handle(ctx, req);
        };
        let keep_alive = req.keep_alive();
        if route.blocking {
            let handler = Arc::clone(&route.handler);
            let job = move || {
                let resp = handler(&req).with_keep_alive(keep_alive);
                if req.method == crate::types::Method::Head {
                    resp.head()
                } else {
                    resp
                }
            };
            if keep_alive {
                Action::Defer(Box::new(job))
            } else {
                Action::DeferClose(Box::new(job))
            }
        } else {
            let resp = (route.handler)(&req).with_keep_alive(keep_alive);
            let resp = if req.method == crate::types::Method::Head {
                resp.head()
            } else {
                resp
            };
            if keep_alive {
                Action::Reply(resp)
            } else {
                Action::ReplyClose(resp)
            }
        }
    }
}

/// A ready-made JSON-ish status page handler exposing a closure's text.
pub fn text_page(
    status: Status,
    body: impl Fn(&Request) -> String + Send + Sync + 'static,
) -> impl Fn(&Request) -> Response + Send + Sync + 'static {
    move |req: &Request| {
        let text = body(req);
        let mut resp = Response::error(status, req.version);
        resp.body = Arc::new(text.into_bytes());
        resp.headers = crate::types::Headers::new();
        resp.headers.push("Content-Type", "text/plain");
        resp
    }
}

/// Like [`text_page`] but served as `application/json`.
pub fn json_page(
    body: impl Fn(&Request) -> String + Send + Sync + 'static,
) -> impl Fn(&Request) -> Response + Send + Sync + 'static {
    move |req: &Request| {
        let text = body(req);
        let mut resp = Response::error(Status::Ok, req.version);
        resp.body = Arc::new(text.into_bytes());
        resp.headers = crate::types::Headers::new();
        resp.headers.push("Content-Type", "application/json");
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::MemStore;
    use crate::types::{Method, Version};
    use nserver_core::event::Priority;
    use nserver_core::json::Json;
    use nserver_core::metrics::MetricsRegistry;
    use nserver_core::profiling::ServerStats;

    fn ctx() -> ConnCtx {
        ConnCtx {
            id: 1,
            peer: "t".into(),
            priority: Priority::HIGHEST,
        }
    }

    fn get(target: &str) -> Request {
        Request::new(Method::Get, target, Version::Http11)
    }

    fn service() -> RoutedService<MemStore> {
        let mut store = MemStore::new();
        store.insert("/static.txt", b"file bytes".to_vec());
        RoutedService::new(StaticFileService::new(store, None))
            .route("/api/hello", text_page(Status::Ok, |_| "hi there".into()))
            .route(
                "/api",
                text_page(Status::Ok, |r| format!("api root: {}", r.target())),
            )
            .route_blocking(
                "/api/slow",
                text_page(Status::Ok, |_| "computed slowly".into()),
            )
    }

    fn run(action: Action<Response>) -> Response {
        match action {
            Action::Reply(r) | Action::ReplyClose(r) => r,
            Action::Defer(job) | Action::DeferClose(job) => job(),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn longest_prefix_wins() {
        let svc = service();
        let r = run(svc.handle(&ctx(), get("/api/hello")));
        assert_eq!(String::from_utf8_lossy(&r.body), "hi there");
        let r = run(svc.handle(&ctx(), get("/api/other")));
        assert!(String::from_utf8_lossy(&r.body).starts_with("api root"));
    }

    #[test]
    fn blocking_routes_defer() {
        let svc = service();
        let action = svc.handle(&ctx(), get("/api/slow/compute"));
        assert!(matches!(action, Action::Defer(_)));
        let r = run(action);
        assert_eq!(String::from_utf8_lossy(&r.body), "computed slowly");
    }

    #[test]
    fn unrouted_paths_fall_back_to_static_files() {
        let svc = service();
        let r = run(svc.handle(&ctx(), get("/static.txt")));
        assert_eq!(String::from_utf8_lossy(&r.body), "file bytes");
        let r = run(svc.handle(&ctx(), get("/missing")));
        assert_eq!(r.status, Status::NotFound);
    }

    #[test]
    fn query_strings_do_not_break_routing() {
        let svc = service();
        let r = run(svc.handle(&ctx(), get("/api/hello?x=1")));
        assert_eq!(String::from_utf8_lossy(&r.body), "hi there");
    }

    #[test]
    fn dynamic_handlers_see_the_request() {
        let svc = service();
        let r = run(svc.handle(&ctx(), get("/api/echo-target")));
        assert!(String::from_utf8_lossy(&r.body).contains("/api/echo-target"));
    }

    #[test]
    fn connection_close_propagates_through_routes() {
        let svc = service();
        let mut req = Request::new(Method::Get, "/api/hello", Version::Http11);
        req.headers.push("Connection", "close");
        let action = svc.handle(&ctx(), req);
        assert!(matches!(action, Action::ReplyClose(_)));
    }

    #[test]
    fn head_requests_suppress_dynamic_bodies() {
        let svc = service();
        let req = Request::new(Method::Head, "/api/hello", Version::Http11);
        let r = run(svc.handle(&ctx(), req));
        assert!(r.head_only);
    }

    #[test]
    fn routes_len_counts_mounts() {
        assert_eq!(service().routes_len(), 3);
    }

    #[test]
    fn debug_snapshot_route_serves_json() {
        let hub = DiagHub::new(ServerStats::new_shared(), MetricsRegistry::enabled());
        let svc = RoutedService::new(StaticFileService::new(MemStore::new(), None))
            .debug_snapshot(hub.clone());
        // No capture yet: ?latest is null, a plain GET captures on demand.
        let r = run(svc.handle(&ctx(), get("/debug/snapshot?latest")));
        assert_eq!(String::from_utf8_lossy(&r.body), "null");
        let r = run(svc.handle(&ctx(), get("/debug/snapshot")));
        assert_eq!(r.headers.get("content-type"), Some("application/json"));
        let body = Json::parse(&String::from_utf8_lossy(&r.body)).expect("well-formed");
        assert_eq!(body["reason"].as_str(), Some("http_on_demand"));
        assert_eq!(body["counters"]["connections_accepted"].as_u64(), Some(0));
        // The on-demand capture is now the stored latest.
        let r = run(svc.handle(&ctx(), get("/debug/snapshot?latest")));
        let replay = Json::parse(&String::from_utf8_lossy(&r.body)).expect("well-formed");
        assert_eq!(replay, body);
        assert_eq!(hub.snapshots_captured(), 1);
    }

    #[test]
    fn debug_trace_route_serves_perfetto_json() {
        let hub = DiagHub::new(ServerStats::new_shared(), MetricsRegistry::enabled());
        let tracer = nserver_core::trace::DebugTracer::enabled(64);
        tracer.conn_open(1, "client:1");
        tracer.span(nserver_core::trace::SpanEvent::Accept, 1);
        tracer.span(nserver_core::trace::SpanEvent::Close, 1);
        hub.wire_tracer(tracer);
        let svc = RoutedService::new(StaticFileService::new(MemStore::new(), None))
            .debug_trace(hub.clone());
        let r = run(svc.handle(&ctx(), get("/debug/trace.json")));
        assert_eq!(r.headers.get("content-type"), Some("application/json"));
        let body = String::from_utf8_lossy(&r.body).into_owned();
        let doc = Json::parse(&body).expect("well-formed");
        let shape = nserver_core::trace::check_trace_events(&doc).expect("trace-event schema");
        assert!(shape.lanes[0].1.contains("client:1"), "{body}");
    }

    #[test]
    fn server_status_diag_includes_wired_families() {
        let hub = DiagHub::new(ServerStats::new_shared(), MetricsRegistry::enabled());
        let svc =
            RoutedService::new(StaticFileService::new(MemStore::new(), None)).server_status(hub);
        let r = run(svc.handle(&ctx(), get("/server-status")));
        let body = String::from_utf8_lossy(&r.body).into_owned();
        assert!(body.contains("nserver_watchdog_triggers 0"));
        assert!(body.contains("nserver_trace_dropped_spans 0"));
    }

    #[test]
    fn server_status_exposes_prometheus_text() {
        let hub = DiagHub::new(ServerStats::new_shared(), MetricsRegistry::enabled());
        let accepted = &hub.stats().connections_accepted;
        accepted.fetch_add(3, std::sync::atomic::Ordering::Relaxed);
        let handle = nserver_core::metrics::Stage::Handle;
        hub.metrics().record_stage(handle, 128);
        let svc = RoutedService::new(StaticFileService::new(MemStore::new(), None))
            .server_status(hub.clone());
        let r = run(svc.handle(&ctx(), get("/server-status")));
        let body = String::from_utf8_lossy(&r.body).into_owned();
        assert_eq!(r.status, Status::Ok);
        assert!(body.contains("nserver_connections_accepted 3"));
        assert!(body.contains("nserver_stage_latency_us_bucket{stage=\"handle\""));
        assert!(body.contains("quantile=\"0.99\""));
    }
}
