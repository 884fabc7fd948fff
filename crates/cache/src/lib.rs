//! # nserver-cache
//!
//! File cache substrate for the N-Server pattern template (template option
//! **O6** in the paper). Network servers frequently serve the same disk
//! files over and over; the N-Server can be configured to generate code that
//! transparently caches file contents in memory. The paper ships five
//! replacement policies — **LRU**, **LFU**, **LRU-MIN**, **LRU-Threshold**
//! and **Hyper-G** — plus a *Custom* hook for user-defined policies. This
//! crate implements all six.
//!
//! The cache is byte-capacity bounded (files have wildly different sizes, so
//! entry-count bounds are meaningless for a web cache) and keeps hit/miss
//! statistics that feed the performance-profiling option (**O11**).
//!
//! ```
//! use nserver_cache::{FileCache, PolicyKind};
//!
//! let mut cache = FileCache::new(1024, PolicyKind::Lru);
//! cache.insert("a.html".to_string(), vec![0u8; 400].into());
//! cache.insert("b.html".to_string(), vec![0u8; 400].into());
//! assert!(cache.get(&"a.html".to_string()).is_some());
//! // Inserting a third 400-byte file evicts the least recently used one.
//! cache.insert("c.html".to_string(), vec![0u8; 400].into());
//! assert!(cache.get(&"b.html".to_string()).is_none());
//! assert!(cache.used_bytes() <= 1024);
//! ```

pub mod cache;
pub mod policy;

mod hyper_g;
mod lfu;
mod lru;
mod lru_min;
mod lru_threshold;

pub use cache::{CacheStats, FileCache, SharedFileCache, Sidecar, DEFAULT_SHARDS};
pub use hyper_g::HyperG;
pub use lfu::Lfu;
pub use lru::Lru;
pub use lru_min::LruMin;
pub use lru_threshold::LruThreshold;
pub use policy::{CustomPolicy, EntryId, EntryMeta, PolicyKind, ReplacementPolicy};
