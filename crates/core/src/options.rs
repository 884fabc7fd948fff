//! The N-Server template options (Table 1 of the paper).
//!
//! A [`ServerOptions`] value is the *pattern template configuration*: the
//! twelve options O1–O12 with their legal values. The same structure drives
//! both instantiation paths:
//!
//! * the **runtime path** — [`crate::server::ServerBuilder`] assembles a
//!   live framework from the options, and
//! * the **generative path** — `nserver-codegen` expands the options into
//!   standalone framework source, including or excluding code exactly as
//!   the paper's Table 2 crosscut matrix describes.
//!
//! Options interact; [`ServerOptions::validate`] rejects inconsistent
//! combinations with a precise error instead of producing a framework that
//! silently misbehaves.

use std::fmt;

use nserver_cache::PolicyKind;

/// O1: how many event-dispatcher threads the Reactor runs.
///
/// The paper's legal values are "1 or 2N": one dispatcher (the classic
/// Reactor) or a small multiple of the processor count, with connections
/// partitioned between dispatchers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatcherThreads {
    /// A single dispatcher thread (both COPS servers use this).
    Single,
    /// `n` dispatcher threads; connections are partitioned by id.
    Multi(u8),
}

impl DispatcherThreads {
    /// Thread count.
    pub fn count(self) -> usize {
        match self {
            DispatcherThreads::Single => 1,
            DispatcherThreads::Multi(n) => n.max(1) as usize,
        }
    }
}

/// O4: how completions of blocking operations are delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionMode {
    /// Blocking operations run on a Proactor-style helper pool; the result
    /// returns to the framework as a completion event carrying an
    /// asynchronous completion token (COPS-HTTP).
    Asynchronous,
    /// The handler blocks in place on the event-processing thread
    /// (COPS-FTP — acceptable because FTP holds few concurrent transfers).
    Synchronous,
}

/// O5: worker-thread allocation in the Event Processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadAllocation {
    /// A fixed pool of `threads` workers (COPS-HTTP).
    Static {
        /// Fixed worker count.
        threads: usize,
    },
    /// The pool grows and shrinks between `min` and `max` by the
    /// Processor Controller's rules: it grows where work is submitted, and
    /// a surplus worker retires after an idle keepalive (COPS-FTP).
    Dynamic {
        /// Lower bound kept alive even when idle.
        min: usize,
        /// Hard upper bound.
        max: usize,
        /// Idle time after which a surplus worker retires, in milliseconds.
        idle_keepalive_ms: u64,
    },
}

/// O6: the file-cache option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileCacheOption {
    /// No file cache is generated.
    No,
    /// Generate the cache with the given replacement policy and capacity.
    Yes {
        /// Replacement policy (LRU, LFU, LRU-MIN, LRU-Threshold, Hyper-G).
        policy: PolicyKind,
        /// Capacity in bytes (COPS-HTTP used 20 MB).
        capacity_bytes: u64,
    },
}

/// O8: event scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventScheduling {
    /// Plain FIFO event queue.
    No,
    /// Priority scheduling with per-level quotas: higher-priority events
    /// are processed first, but each priority level has a quota; when it is
    /// exhausted, lower levels get service, so starvation is avoided.
    Yes {
        /// `quotas[i]` is the number of events priority level `i` may
        /// consume before yielding to level `i+1`. Index 0 is the highest
        /// priority.
        quotas: Vec<u32>,
    },
}

/// O9: overload control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadControl {
    /// Accept every connection (event-driven servers are "extremely
    /// vulnerable to overload" in this mode, as the paper notes).
    No,
    /// Limit the number of simultaneous connections (the "trivial"
    /// mechanism).
    MaxConnections {
        /// Maximum simultaneous connections.
        limit: usize,
    },
    /// Watermark gating (the second, multi-bottleneck mechanism): when any
    /// watched event queue grows past `high`, new connections are postponed
    /// until it drains below `low`.
    Watermark {
        /// Queue length at which accepting pauses.
        high: usize,
        /// Queue length at which accepting resumes.
        low: usize,
    },
}

/// O10: generation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Internal events are not traced.
    Production,
    /// Every internal event is recorded in the debug trace for post-mortem
    /// inspection.
    Debug,
}

/// Per-stage pipeline deadlines (a hardening refinement of O7).
///
/// The O7 idle sweep measures time since *any* activity, so a slow-loris
/// peer that dribbles one byte per idle-limit keeps its connection pinned
/// forever. These deadlines bound two specific pipeline stages instead:
///
/// * `header_read_ms` — time from accept (or from the previous completed
///   reply) until the connection produces a complete request. Dribbled
///   bytes do **not** refresh it, so slow-loris connections are reaped.
/// * `write_drain_ms` — time a non-empty outbox may sit unflushed because
///   the peer stopped reading.
///
/// Expired connections close and count as `connections_timed_out`. `None`
/// disables the respective deadline (the default: both disabled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageDeadlines {
    /// Header-read (request-completion) deadline in milliseconds.
    pub header_read_ms: Option<u64>,
    /// Write-drain deadline in milliseconds.
    pub write_drain_ms: Option<u64>,
}

impl StageDeadlines {
    /// Both deadlines disabled.
    pub const NONE: StageDeadlines = StageDeadlines {
        header_read_ms: None,
        write_drain_ms: None,
    };

    /// True when at least one deadline is armed.
    pub fn any(&self) -> bool {
        self.header_read_ms.is_some() || self.write_drain_ms.is_some()
    }
}

/// The complete N-Server template option set (Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerOptions {
    /// O1: number of dispatcher threads.
    pub dispatcher_threads: DispatcherThreads,
    /// O2: whether event handling runs on a separate thread pool (the
    /// Event Processor) rather than on the dispatcher thread.
    pub separate_handler_pool: bool,
    /// O3: whether the application needs explicit Decode/Encode steps
    /// (Fig. 1's five-step pipeline) or not (Fig. 2's three-step variant).
    pub encode_decode: bool,
    /// O4: completion-event delivery for blocking operations.
    pub completion_mode: CompletionMode,
    /// O5: worker-thread allocation strategy.
    pub thread_allocation: ThreadAllocation,
    /// O6: file cache.
    pub file_cache: FileCacheOption,
    /// O7: shut down long-idle connections after this many milliseconds
    /// (`None` disables the sweep).
    pub idle_shutdown_ms: Option<u64>,
    /// O8: event scheduling.
    pub event_scheduling: EventScheduling,
    /// O9: overload control.
    pub overload_control: OverloadControl,
    /// O10: production or debug mode.
    pub mode: Mode,
    /// O11: performance profiling counters.
    pub profiling: bool,
    /// O12: access logging.
    pub logging: bool,
    /// Per-stage pipeline deadlines (hardening refinement of O7; not a
    /// Table 1 option of its own, so it has no `describe` row).
    pub stage_deadlines: StageDeadlines,
}

impl Default for ServerOptions {
    /// A conservative default: single dispatcher, separate 4-worker pool,
    /// five-step pipeline, synchronous completions, no optional features.
    fn default() -> Self {
        Self {
            dispatcher_threads: DispatcherThreads::Single,
            separate_handler_pool: true,
            encode_decode: true,
            completion_mode: CompletionMode::Synchronous,
            thread_allocation: ThreadAllocation::Static { threads: 4 },
            file_cache: FileCacheOption::No,
            idle_shutdown_ms: None,
            event_scheduling: EventScheduling::No,
            overload_control: OverloadControl::No,
            mode: Mode::Production,
            profiling: false,
            logging: false,
            stage_deadlines: StageDeadlines::NONE,
        }
    }
}

/// A rejected option combination, naming the options involved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptionsError(pub String);

impl fmt::Display for OptionsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid N-Server option combination: {}", self.0)
    }
}

impl std::error::Error for OptionsError {}

impl ServerOptions {
    /// Check option consistency. Returns the first violated rule.
    pub fn validate(&self) -> Result<(), OptionsError> {
        if let DispatcherThreads::Multi(n) = self.dispatcher_threads {
            if n == 0 {
                return Err(OptionsError(
                    "O1: dispatcher thread count must be ≥ 1".into(),
                ));
            }
        }
        match self.thread_allocation {
            ThreadAllocation::Static { threads: 0 } => {
                return Err(OptionsError("O5: static pool needs ≥ 1 thread".into()));
            }
            ThreadAllocation::Dynamic { min: 0, .. } => {
                return Err(OptionsError(
                    "O5: dynamic pool needs 1 \u{2264} min \u{2264} max".into(),
                ));
            }
            ThreadAllocation::Dynamic { min, max, .. } if max < min => {
                return Err(OptionsError("O5: dynamic pool needs 1 ≤ min ≤ max".into()));
            }
            _ => {}
        }
        if !self.separate_handler_pool {
            if let EventScheduling::Yes { .. } = self.event_scheduling {
                return Err(OptionsError(
                    "O8 requires O2=Yes: event scheduling reorders the Event \
                     Processor queue, which only exists with a separate pool"
                        .into(),
                ));
            }
            if let OverloadControl::Watermark { .. } = self.overload_control {
                return Err(OptionsError(
                    "O9 watermark mode requires O2=Yes: it watches Event \
                     Processor queue lengths"
                        .into(),
                ));
            }
            if matches!(self.thread_allocation, ThreadAllocation::Dynamic { .. }) {
                return Err(OptionsError(
                    "O5=Dynamic requires O2=Yes: there is no pool to resize \
                     when handlers run on the dispatcher"
                        .into(),
                ));
            }
        }
        if let EventScheduling::Yes { quotas } = &self.event_scheduling {
            if quotas.is_empty() {
                return Err(OptionsError("O8: at least one priority level".into()));
            }
            if quotas.contains(&0) {
                return Err(OptionsError(
                    "O8: every priority level needs a nonzero quota, or lower \
                     levels starve"
                        .into(),
                ));
            }
        }
        if let OverloadControl::Watermark { high, low } = self.overload_control {
            if low >= high {
                return Err(OptionsError(
                    "O9: low watermark must be below high watermark".into(),
                ));
            }
        }
        if let OverloadControl::MaxConnections { limit } = self.overload_control {
            if limit == 0 {
                return Err(OptionsError("O9: connection limit must be ≥ 1".into()));
            }
        }
        if let FileCacheOption::Yes { capacity_bytes, .. } = self.file_cache {
            if capacity_bytes == 0 {
                return Err(OptionsError("O6: cache capacity must be ≥ 1 byte".into()));
            }
        }
        if self.stage_deadlines.header_read_ms == Some(0)
            || self.stage_deadlines.write_drain_ms == Some(0)
        {
            return Err(OptionsError(
                "stage deadlines must be ≥ 1 ms (use None to disable)".into(),
            ));
        }
        Ok(())
    }

    /// Number of priority levels the configuration schedules (1 = FIFO).
    pub fn priority_levels(&self) -> usize {
        match &self.event_scheduling {
            EventScheduling::No => 1,
            EventScheduling::Yes { quotas } => quotas.len(),
        }
    }

    /// Render the configuration as a Table 1-style option listing.
    pub fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            (
                "O1: # of dispatcher threads",
                match self.dispatcher_threads {
                    DispatcherThreads::Single => "1".to_string(),
                    DispatcherThreads::Multi(n) => format!("{n}"),
                },
            ),
            (
                "O2: Separate thread pool for event handling",
                yesno(self.separate_handler_pool),
            ),
            ("O3: Encoding/Decoding required", yesno(self.encode_decode)),
            (
                "O4: Completion events",
                match self.completion_mode {
                    CompletionMode::Asynchronous => "Asynchronous".into(),
                    CompletionMode::Synchronous => "Synchronous".into(),
                },
            ),
            (
                "O5: Event thread allocation",
                match self.thread_allocation {
                    ThreadAllocation::Static { .. } => "Static".into(),
                    ThreadAllocation::Dynamic { .. } => "Dynamic".into(),
                },
            ),
            (
                "O6: File cache",
                match self.file_cache {
                    FileCacheOption::No => "No".into(),
                    FileCacheOption::Yes { policy, .. } => format!("Yes: {}", policy.name()),
                },
            ),
            (
                "O7: Shutdown long idle",
                yesno(self.idle_shutdown_ms.is_some()),
            ),
            (
                "O8: Event scheduling",
                yesno(matches!(self.event_scheduling, EventScheduling::Yes { .. })),
            ),
            (
                "O9: Overload control",
                yesno(!matches!(self.overload_control, OverloadControl::No)),
            ),
            (
                "O10: Mode",
                match self.mode {
                    Mode::Production => "Production".into(),
                    Mode::Debug => "Debug".into(),
                },
            ),
            ("O11: Performance profiling", yesno(self.profiling)),
            ("O12: Logging", yesno(self.logging)),
        ]
    }
}

fn yesno(b: bool) -> String {
    if b {
        "Yes".into()
    } else {
        "No".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_validate() {
        assert!(ServerOptions::default().validate().is_ok());
    }

    #[test]
    fn scheduling_without_pool_is_rejected() {
        let opts = ServerOptions {
            separate_handler_pool: false,
            thread_allocation: ThreadAllocation::Static { threads: 1 },
            event_scheduling: EventScheduling::Yes { quotas: vec![4, 1] },
            ..ServerOptions::default()
        };
        let err = opts.validate().unwrap_err();
        assert!(err.0.contains("O8"), "{err}");
    }

    #[test]
    fn watermark_without_pool_is_rejected() {
        let opts = ServerOptions {
            separate_handler_pool: false,
            thread_allocation: ThreadAllocation::Static { threads: 1 },
            overload_control: OverloadControl::Watermark { high: 20, low: 5 },
            ..ServerOptions::default()
        };
        assert!(opts.validate().unwrap_err().0.contains("O9"));
    }

    #[test]
    fn dynamic_pool_without_separate_pool_is_rejected() {
        let opts = ServerOptions {
            separate_handler_pool: false,
            thread_allocation: ThreadAllocation::Dynamic {
                min: 1,
                max: 4,
                idle_keepalive_ms: 100,
            },
            ..ServerOptions::default()
        };
        assert!(opts.validate().unwrap_err().0.contains("O5"));
    }

    #[test]
    fn inverted_watermarks_are_rejected() {
        let opts = ServerOptions {
            overload_control: OverloadControl::Watermark { high: 5, low: 20 },
            ..ServerOptions::default()
        };
        assert!(opts.validate().unwrap_err().0.contains("low watermark"));
    }

    #[test]
    fn zero_quota_is_rejected() {
        let opts = ServerOptions {
            event_scheduling: EventScheduling::Yes { quotas: vec![4, 0] },
            ..ServerOptions::default()
        };
        assert!(opts.validate().unwrap_err().0.contains("quota"));
    }

    #[test]
    fn empty_quota_list_is_rejected() {
        let opts = ServerOptions {
            event_scheduling: EventScheduling::Yes { quotas: vec![] },
            ..ServerOptions::default()
        };
        assert!(opts.validate().is_err());
    }

    #[test]
    fn degenerate_pools_rejected() {
        let zero_static = ServerOptions {
            thread_allocation: ThreadAllocation::Static { threads: 0 },
            ..ServerOptions::default()
        };
        assert!(zero_static.validate().is_err());
        let bad_dynamic = ServerOptions {
            thread_allocation: ThreadAllocation::Dynamic {
                min: 4,
                max: 2,
                idle_keepalive_ms: 10,
            },
            ..ServerOptions::default()
        };
        assert!(bad_dynamic.validate().is_err());
    }

    #[test]
    fn describe_covers_all_twelve_options() {
        let rows = ServerOptions::default().describe();
        assert_eq!(rows.len(), 12);
        for (i, (name, _)) in rows.iter().enumerate() {
            assert!(name.starts_with(&format!("O{}", i + 1)), "{name}");
        }
    }

    #[test]
    fn priority_levels() {
        assert_eq!(ServerOptions::default().priority_levels(), 1);
        let opts = ServerOptions {
            event_scheduling: EventScheduling::Yes {
                quotas: vec![8, 2, 1],
            },
            ..ServerOptions::default()
        };
        assert_eq!(opts.priority_levels(), 3);
    }

    #[test]
    fn zero_stage_deadline_is_rejected() {
        let opts = ServerOptions {
            stage_deadlines: StageDeadlines {
                header_read_ms: Some(0),
                write_drain_ms: None,
            },
            ..ServerOptions::default()
        };
        assert!(opts.validate().unwrap_err().0.contains("stage deadlines"));
        let opts = ServerOptions {
            stage_deadlines: StageDeadlines {
                header_read_ms: Some(100),
                write_drain_ms: Some(250),
            },
            ..ServerOptions::default()
        };
        assert!(opts.validate().is_ok());
        assert!(opts.stage_deadlines.any());
        assert!(!StageDeadlines::NONE.any());
    }

    #[test]
    fn dispatcher_thread_count() {
        assert_eq!(DispatcherThreads::Single.count(), 1);
        assert_eq!(DispatcherThreads::Multi(2).count(), 2);
        assert_eq!(DispatcherThreads::Multi(0).count(), 1);
    }
}
