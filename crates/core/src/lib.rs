//! # nserver-core
//!
//! The **N-Server pattern template** runtime: a Rust implementation of the
//! generative design pattern for network server applications introduced in
//! *"Using Generative Design Patterns to Develop Network Server
//! Applications"* (Guo, Schaeffer, Szafron, Earl — IPPS 2005).
//!
//! The N-Server synthesizes four concurrent/networked design patterns:
//!
//! * **Reactor** — event demultiplexing and dispatching ([`reactor`]),
//!   extended with multiple event sources and an Event Processor so it
//!   scales across CPUs;
//! * **Proactor** — emulation of non-blocking operations via a helper
//!   thread pool ([`proactor`]);
//! * **Acceptor-Connector** — automated connection establishment
//!   ([`transport`], [`reactor`]);
//! * **Asynchronous Completion Tokens** — matching completions back to the
//!   requests that issued them ([`event`], [`pipeline`]).
//!
//! A server is configured through the twelve template options of the
//! paper's Table 1 ([`options::ServerOptions`]) and supplied with three
//! application-dependent hook objects: Decode and Encode (a
//! [`pipeline::Codec`]) and Handle (a [`pipeline::Service`]). Everything
//! else — the event loop, the thread pools, scheduling, overload control,
//! caching, idle shutdown, tracing, profiling — is framework code, which
//! in the generative path (`nserver-codegen`) is emitted as source and in
//! the runtime path is assembled by [`server::ServerBuilder`].
//!
//! ## Quick start
//!
//! ```
//! use nserver_core::prelude::*;
//! use bytes::BytesMut;
//!
//! struct Upper;
//! impl Codec for Upper {
//!     type Request = String;
//!     type Response = String;
//!     fn decode(&self, buf: &mut BytesMut) -> Result<Option<String>, ProtocolError> {
//!         match buf.iter().position(|&b| b == b'\n') {
//!             Some(i) => {
//!                 let line = buf.split_to(i + 1);
//!                 Ok(Some(String::from_utf8_lossy(&line[..i]).into_owned()))
//!             }
//!             None => Ok(None),
//!         }
//!     }
//!     fn encode(&self, r: &String, out: &mut BytesMut) -> Result<(), ProtocolError> {
//!         out.extend_from_slice(r.as_bytes());
//!         out.extend_from_slice(b"\n");
//!         Ok(())
//!     }
//! }
//!
//! struct UpperService;
//! impl Service<Upper> for UpperService {
//!     fn handle(&self, _ctx: &ConnCtx, req: String) -> Action<String> {
//!         Action::Reply(req.to_uppercase())
//!     }
//! }
//!
//! let server = ServerBuilder::new(ServerOptions::default(), Upper, UpperService)
//!     .unwrap()
//!     .serve(TcpListenerNb::bind("127.0.0.1:0").unwrap());
//! // ... connect clients to server.local_label() ...
//! server.shutdown();
//! ```

pub mod clock;
pub mod cluster;
pub mod diag;
pub mod event;
pub mod fault;
pub mod json;
pub mod layer;
pub mod metrics;
pub mod options;
pub mod overload;
pub mod pipeline;
pub mod proactor;
pub mod processor;
pub mod profiling;
pub mod queue;
pub mod reactor;
pub mod scheduler;
pub mod server;
mod stepped;
pub mod tap;
pub mod timer;
pub mod trace;
pub mod transport;

/// The commonly needed surface, importable as `use nserver_core::prelude::*`.
pub mod prelude {
    pub use crate::diag::{
        DiagHub, DiagSnapshot, Watchdog, WatchdogConfig, WorkerActivity, WorkerRole, WorkerSample,
        WorkerStateTable,
    };
    pub use crate::event::{CompletionToken, ConnId, Priority};
    pub use crate::fault::{FaultPlan, FaultProfile};
    pub use crate::metrics::{
        CacheSample, HistogramSnapshot, LatencySnapshot, MetricsRegistry, OverloadSample, Sample,
        Stage,
    };
    pub use crate::options::{
        CompletionMode, DispatcherThreads, EventScheduling, FileCacheOption, Mode, OverloadControl,
        ServerOptions, StageDeadlines, ThreadAllocation,
    };
    pub use crate::pipeline::{Action, Codec, ConnCtx, ProtocolError, RawCodec, Service};
    pub use crate::server::{ServerBuilder, ServerHandle};
    pub use crate::tap::{ConnTrace, TapEvent, TraceLog};
    pub use crate::trace::{DebugTracer, MemoryLogger, SpanEvent};
    pub use crate::transport::{Listener, StreamIo, TcpListenerNb, TcpStreamNb};
}

/// The buffer crate `Codec::decode` names (`BytesMut`), re-exported so a
/// generated framework reaches it through `nserver_core` and does not have
/// to know where it comes from.
pub use bytes;
pub use event::{CompletionToken, ConnId, Priority};
pub use options::ServerOptions;
pub use pipeline::{Action, Codec, ConnCtx, ProtocolError, Service};
pub use server::{ServerBuilder, ServerHandle};
