//! Performance profiling counters (template option O11), and the one
//! declaration every number the server reports goes through.
//!
//! The paper: "Important statistical information of the server application
//! can be automatically gathered … the number of connections accepted, the
//! number of bytes read, the number of bytes sent, the file cache hit
//! rate, etc." All counters are relaxed atomics — they are observability,
//! not synchronization.
//!
//! A number is described once, as a row of a `counters!` or `sample!`
//! table: its field, doc, snapshot key, kind and help text. The table
//! generates the struct (and, for counters, the atomic store it is copied
//! from) and the number's [`Scalar`] row; every operator surface —
//! Prometheus text, snapshot JSON, FTP `STAT`, [`StatsSnapshot::render`] —
//! walks rows and formats none of them by name. A new counter is one row.

/// What kind of number a [`Scalar`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Only ever goes up.
    Counter,
    /// A level that goes both ways.
    Gauge,
    /// A yes/no: `true`/`false` in JSON, a 0/1 gauge in Prometheus.
    Flag,
}

impl Kind {
    /// The Prometheus `# TYPE` of a number of this kind.
    pub fn prometheus(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge | Kind::Flag => "gauge",
        }
    }
}

/// One number as every surface sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scalar {
    /// The snapshot-JSON object the number sits in (`"counters"`, …).
    pub group: &'static str,
    /// Its key there; empty when the snapshot does not carry it.
    pub key: &'static str,
    /// Its Prometheus family; empty when the exposition does not carry it.
    pub family: &'static str,
    /// Counter, gauge or flag.
    pub kind: Kind,
    /// The family's `# HELP` text.
    pub help: &'static str,
    /// The value (a flag's is 0 or 1).
    pub value: u64,
}

impl Scalar {
    /// The key in words, as `STAT` and `render()` print it.
    pub fn label(&self) -> String {
        self.key.replace('_', " ")
    }
}

/// Declares a plain sample struct, one row per number — doc, field, type,
/// snapshot key, kind, help — under the snapshot group the numbers sit in
/// and the prefix that turns a key into a Prometheus family.
macro_rules! sample {
    (
        $(#[$meta:meta])* $Sample:ident in $group:literal as $prefix:literal;
        $( $(#[$doc:meta])* $field:ident: $ty:ty = $key:literal, $kind:ident, $help:literal; )*
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $Sample {
            $( $(#[$doc])* pub $field: $ty, )*
        }

        impl $Sample {
            /// Every number of the sample as a row, in declaration order.
            pub fn scalars(&self) -> impl Iterator<Item = $crate::profiling::Scalar> {
                [$( $crate::profiling::Scalar {
                    group: $group,
                    key: $key,
                    family: concat!($prefix, $key),
                    kind: $crate::profiling::Kind::$kind,
                    help: $help,
                    value: u64::from(self.$field),
                }, )*]
                .into_iter()
            }
        }
    };
}

/// Declares a set of lifetime counters, one row per counter — doc, field,
/// snapshot key, help: the relaxed-atomic store the server counts into,
/// its `sample!` snapshot and the snapshot's `since()`.
macro_rules! counters {
    (
        $(#[$smeta:meta])* $Store:ident =>
        $(#[$meta:meta])* $Snap:ident in $group:literal as $prefix:literal;
        $( $(#[$doc:meta])* $field:ident: $key:literal, $help:literal; )*
    ) => {
        $(#[$smeta])*
        #[derive(Debug, Default)]
        pub struct $Store {
            $( $(#[$doc])* pub $field: std::sync::atomic::AtomicU64, )*
        }

        impl $Store {
            /// A fresh shared counter set.
            pub fn new_shared() -> std::sync::Arc<Self> {
                std::sync::Arc::new(Self::default())
            }

            /// Point-in-time copy of every counter.
            pub fn snapshot(&self) -> $Snap {
                $Snap {
                    $( $field: self.$field.load(std::sync::atomic::Ordering::Relaxed), )*
                }
            }
        }

        $crate::profiling::sample! {
            $(#[$meta])* $Snap in $group as $prefix;
            $( $(#[$doc])* $field: u64 = $key, Counter, $help; )*
        }

        impl $Snap {
            /// Counter deltas since an earlier snapshot.
            pub fn since(&self, earlier: &Self) -> Self {
                Self {
                    $( $field: self.$field.saturating_sub(earlier.$field), )*
                }
            }
        }
    };
}

pub(crate) use {counters, sample};

use std::sync::atomic::{AtomicU64, Ordering};

counters! {
    /// Shared server statistics registry.
    ServerStats =>
    /// A consistent-enough point-in-time copy of the counters.
    StatsSnapshot in "counters" as "nserver_";
    /// Connections accepted over the lifetime.
    connections_accepted: "connections_accepted", "Lifetime count of connections accepted.";
    /// Connections closed (any reason).
    connections_closed: "connections_closed", "Lifetime count of connections closed.";
    /// Connections closed by the O7 idle sweep.
    connections_idle_closed: "idle_connections_closed",
        "Lifetime count of idle connections closed.";
    /// Raw bytes read from peers.
    bytes_read: "bytes_read", "Lifetime count of bytes read.";
    /// Raw bytes written to peers.
    bytes_sent: "bytes_sent", "Lifetime count of bytes sent.";
    /// Requests fully decoded.
    requests_decoded: "requests_decoded", "Lifetime count of requests decoded.";
    /// Responses sent.
    responses_sent: "responses_sent", "Lifetime count of responses sent.";
    /// Events dispatched through the Event Processor (or inline).
    events_dispatched: "events_dispatched", "Lifetime count of events dispatched.";
    /// Times a dispatcher returned from its poller wait (readiness,
    /// waker, or timeout). An idle server barely moves this counter —
    /// that property is what distinguishes demultiplexed dispatch from
    /// the scan-and-sleep loop it replaced.
    dispatcher_wakeups: "dispatcher_wakeups", "Lifetime count of dispatcher wakeups.";
    /// Blocking operations executed via the Proactor helper pool.
    blocking_ops: "blocking_operations", "Lifetime count of blocking operations.";
    /// Accept attempts refused by the overload controller.
    accepts_deferred: "accepts_deferred", "Lifetime count of accepts deferred.";
    /// Protocol errors that closed a connection.
    protocol_errors: "protocol_errors", "Lifetime count of protocol errors.";
    /// Connections torn down by an I/O error (peer reset, broken pipe).
    connections_reset: "connections_reset", "Lifetime count of connections reset.";
    /// Connections reaped by a per-stage deadline (header-read or
    /// write-drain) — slow-loris peers and stalled readers.
    connections_timed_out: "connections_timed_out", "Lifetime count of connections timed out.";
    /// Accept attempts that failed with an error (not overload gating).
    accept_errors: "accept_errors", "Lifetime count of accept errors.";
    /// Application-hook panics caught by the framework (the request fails
    /// and its connection closes; the worker pool survives).
    handler_panics: "handler_panics", "Lifetime count of handler panics.";
    /// Server-initiated closes that entered the lingering-close state:
    /// outbox drained, FIN sent, read side held open until peer FIN.
    connections_lingered: "connections_lingered", "Lifetime count of connections lingered.";
    /// Lingering closes reaped by the linger deadline instead of a peer
    /// FIN (the peer never acknowledged the close).
    linger_reaped: "linger_reaped", "Lifetime count of linger reaped.";
}

impl ServerStats {
    /// Convenience increment.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Convenience add.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

impl StatsSnapshot {
    /// Currently open connections implied by the counters.
    pub fn open_connections(&self) -> u64 {
        self.connections_accepted
            .saturating_sub(self.connections_closed)
    }

    /// Render as aligned `name value` lines (the profiling report).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for row in self.scalars() {
            out.push_str(&format!("{:<26} {}\n", row.label(), row.value));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn snapshot_reflects_counters() {
        let s = ServerStats::default();
        ServerStats::bump(&s.connections_accepted);
        ServerStats::add(&s.bytes_read, 100);
        let snap = s.snapshot();
        assert_eq!(snap.connections_accepted, 1);
        assert_eq!(snap.bytes_read, 100);
        assert_eq!(snap.open_connections(), 1);
    }

    #[test]
    fn open_connections_saturates() {
        let snap = StatsSnapshot {
            connections_accepted: 1,
            connections_closed: 5,
            ..Default::default()
        };
        assert_eq!(snap.open_connections(), 0);
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let s = ServerStats::new_shared();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&s);
            handles.push(thread::spawn(move || {
                for _ in 0..10_000 {
                    ServerStats::bump(&s.events_dispatched);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.snapshot().events_dispatched, 40_000);
    }

    #[test]
    fn render_includes_every_counter() {
        let snap = StatsSnapshot::default();
        let text = snap.render();
        assert_eq!(text.lines().count(), 18);
        assert!(text.contains("bytes sent"));
        assert!(text.contains("accepts deferred"));
        assert!(text.contains("dispatcher wakeups"));
        assert!(text.contains("connections reset"));
        assert!(text.contains("connections timed out"));
        assert!(text.contains("handler panics"));
        assert!(text.contains("connections lingered"));
        assert!(text.contains("linger reaped"));
    }
}
