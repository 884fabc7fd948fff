//! The fragment registry: every class the template can generate, with the
//! options that gate its existence (`O` in the paper's Table 2) and the
//! options whose values alter its generated body (`+`).
//!
//! This registry *is* Table 2, kept as data in one place: the crosscut
//! matrix is rendered from it, and the template consults it to decide
//! which modules to emit.

use nserver_core::options::{CompletionMode, FileCacheOption, ServerOptions, ThreadAllocation};

/// The twelve template options, in Table 1 order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum OptionId {
    O1,
    O2,
    O3,
    O4,
    O5,
    O6,
    O7,
    O8,
    O9,
    O10,
    O11,
    O12,
}

impl OptionId {
    /// All options in order.
    pub const ALL: [OptionId; 12] = [
        OptionId::O1,
        OptionId::O2,
        OptionId::O3,
        OptionId::O4,
        OptionId::O5,
        OptionId::O6,
        OptionId::O7,
        OptionId::O8,
        OptionId::O9,
        OptionId::O10,
        OptionId::O11,
        OptionId::O12,
    ];

    /// Column label ("O1" … "O12").
    pub fn label(self) -> &'static str {
        match self {
            OptionId::O1 => "O1",
            OptionId::O2 => "O2",
            OptionId::O3 => "O3",
            OptionId::O4 => "O4",
            OptionId::O5 => "O5",
            OptionId::O6 => "O6",
            OptionId::O7 => "O7",
            OptionId::O8 => "O8",
            OptionId::O9 => "O9",
            OptionId::O10 => "O10",
            OptionId::O11 => "O11",
            OptionId::O12 => "O12",
        }
    }
}

/// A condition deciding whether a class exists in the generated framework
/// (`O` markers in Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Exists only when O4 = Asynchronous (completion machinery).
    CompletionAsync,
    /// Exists only when O3 = Yes (decode/encode pipeline stages).
    EncodeDecode,
    /// Exists only when O5 = Dynamic (the Processor Controller).
    DynamicAllocation,
    /// Exists only when O6 = Yes (the file cache).
    FileCache,
}

impl Gate {
    /// Evaluate the gate against a configuration.
    pub fn admits(self, opts: &ServerOptions) -> bool {
        match self {
            Gate::CompletionAsync => opts.completion_mode == CompletionMode::Asynchronous,
            Gate::EncodeDecode => opts.encode_decode,
            Gate::DynamicAllocation => {
                matches!(opts.thread_allocation, ThreadAllocation::Dynamic { .. })
            }
            Gate::FileCache => matches!(opts.file_cache, FileCacheOption::Yes { .. }),
        }
    }

    /// The option this gate corresponds to (its `O` column).
    pub fn option(self) -> OptionId {
        match self {
            Gate::CompletionAsync => OptionId::O4,
            Gate::EncodeDecode => OptionId::O3,
            Gate::DynamicAllocation => OptionId::O5,
            Gate::FileCache => OptionId::O6,
        }
    }
}

/// One generatable framework class.
#[derive(Debug, Clone, Copy)]
pub struct ClassSpec {
    /// Class name as printed in Table 2.
    pub name: &'static str,
    /// Module (file) name in the generated crate.
    pub module: &'static str,
    /// Existence gate, if the class is optional.
    pub gate: Option<Gate>,
    /// Options whose values change the generated body (`+` markers).
    pub affected_by: &'static [OptionId],
}

impl ClassSpec {
    /// Whether this class appears under the given configuration.
    pub fn exists(&self, opts: &ServerOptions) -> bool {
        self.gate.is_none_or(|g| g.admits(opts))
    }

    /// Whether this class's code depends on the given option (either as a
    /// gate or as a body modifier).
    pub fn depends_on(&self, opt: OptionId) -> bool {
        self.gate.map(|g| g.option()) == Some(opt) || self.affected_by.contains(&opt)
    }
}

use OptionId::*;

/// The complete class registry, row-for-row the paper's Table 2.
pub fn registry() -> &'static [ClassSpec] {
    &[
        ClassSpec {
            name: "Event",
            module: "event",
            gate: None,
            affected_by: &[O4, O8],
        },
        ClassSpec {
            name: "Completion Event",
            module: "completion_event",
            gate: Some(Gate::CompletionAsync),
            affected_by: &[],
        },
        ClassSpec {
            name: "File Open Event",
            module: "file_open_event",
            gate: Some(Gate::CompletionAsync),
            affected_by: &[O6],
        },
        ClassSpec {
            name: "File Read Event",
            module: "file_read_event",
            gate: Some(Gate::CompletionAsync),
            affected_by: &[O6],
        },
        ClassSpec {
            name: "Handle",
            module: "handle",
            gate: None,
            affected_by: &[O1],
        },
        ClassSpec {
            name: "File Handle",
            module: "file_handle",
            gate: Some(Gate::CompletionAsync),
            affected_by: &[O6],
        },
        ClassSpec {
            name: "Read Request Event Handler",
            module: "read_request_handler",
            gate: None,
            affected_by: &[O7, O10, O11, O12],
        },
        ClassSpec {
            name: "Send Reply Event Handler",
            module: "send_reply_handler",
            gate: None,
            affected_by: &[O7, O10, O11, O12],
        },
        ClassSpec {
            name: "Decode Request Event Handler",
            module: "decode_request_handler",
            gate: Some(Gate::EncodeDecode),
            affected_by: &[O7, O8, O10, O12],
        },
        ClassSpec {
            name: "Encode Reply Event Handler",
            module: "encode_reply_handler",
            gate: Some(Gate::EncodeDecode),
            affected_by: &[O7, O8, O10, O12],
        },
        ClassSpec {
            name: "Compute Request Event Handler",
            module: "compute_request_handler",
            gate: None,
            affected_by: &[O3, O4, O7, O8, O10, O12],
        },
        ClassSpec {
            name: "Event Processor",
            module: "event_processor",
            gate: None,
            affected_by: &[O5, O8, O9, O10],
        },
        ClassSpec {
            name: "Processor Controller",
            module: "processor_controller",
            gate: Some(Gate::DynamicAllocation),
            affected_by: &[],
        },
        ClassSpec {
            name: "Event Dispatcher",
            module: "event_dispatcher",
            gate: None,
            affected_by: &[O2, O4, O9, O10, O11],
        },
        ClassSpec {
            name: "Cache",
            module: "cache",
            gate: Some(Gate::FileCache),
            affected_by: &[O11],
        },
        ClassSpec {
            name: "Reactor",
            module: "reactor",
            gate: None,
            affected_by: &[O1, O2, O4, O5, O6, O8, O9, O10, O11, O12],
        },
        ClassSpec {
            name: "Communicator Component",
            module: "communicator",
            gate: None,
            affected_by: &[O3, O7, O8, O11],
        },
        ClassSpec {
            name: "Server Component",
            module: "server_component",
            gate: None,
            affected_by: &[O3, O7, O10, O12],
        },
        ClassSpec {
            name: "Client Component",
            module: "client_component",
            gate: None,
            affected_by: &[O3, O7, O10, O12],
        },
        ClassSpec {
            name: "Server Event Handler",
            module: "server_event_handler",
            gate: None,
            affected_by: &[O7, O10, O11],
        },
        ClassSpec {
            name: "Connector Event Handler",
            module: "connector_handler",
            gate: None,
            affected_by: &[O3, O10, O11, O12],
        },
        ClassSpec {
            name: "Acceptor Event Handler",
            module: "acceptor_handler",
            gate: None,
            affected_by: &[O3, O9, O10, O11, O12],
        },
        ClassSpec {
            name: "Container Component",
            module: "container",
            gate: None,
            affected_by: &[O7, O10, O11, O12],
        },
        ClassSpec {
            name: "Application Event Handler",
            module: "application_handler",
            gate: None,
            affected_by: &[O7, O10, O11],
        },
        ClassSpec {
            name: "Client Configuration",
            module: "client_config",
            gate: None,
            affected_by: &[O3, O10],
        },
        ClassSpec {
            name: "Server Configuration",
            module: "server_config",
            gate: None,
            affected_by: &[O10],
        },
        ClassSpec {
            name: "Server",
            module: "server",
            gate: None,
            affected_by: &[O3],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use nserver_cache::PolicyKind;
    use nserver_core::options::{EventScheduling, OverloadControl};

    #[test]
    fn registry_has_the_paper_row_count() {
        assert_eq!(registry().len(), 27, "Table 2 lists 27 classes");
    }

    #[test]
    fn module_names_are_unique() {
        let mut mods: Vec<_> = registry().iter().map(|c| c.module).collect();
        mods.sort_unstable();
        let n = mods.len();
        mods.dedup();
        assert_eq!(mods.len(), n);
    }

    #[test]
    fn exactly_eight_gated_classes() {
        // Completion/FileOpen/FileRead Events, File Handle (O4); Decode and
        // Encode handlers (O3); Processor Controller (O5); Cache (O6) —
        // that's 8 `O` markers total across 8 classes.
        let gated: Vec<_> = registry().iter().filter(|c| c.gate.is_some()).collect();
        assert_eq!(gated.len(), 8);
    }

    #[test]
    fn reactor_is_affected_by_ten_options() {
        let reactor = registry().iter().find(|c| c.name == "Reactor").unwrap();
        assert_eq!(reactor.affected_by.len(), 10);
        assert!(!reactor.depends_on(OptionId::O3));
        assert!(!reactor.depends_on(OptionId::O7));
        assert!(reactor.depends_on(OptionId::O8));
    }

    #[test]
    fn gates_admit_per_option_values() {
        let base = ServerOptions::default();
        assert!(!Gate::CompletionAsync.admits(&base));
        assert!(Gate::EncodeDecode.admits(&base));
        assert!(!Gate::DynamicAllocation.admits(&base));
        assert!(!Gate::FileCache.admits(&base));

        let async_opts = ServerOptions {
            completion_mode: nserver_core::options::CompletionMode::Asynchronous,
            file_cache: nserver_core::options::FileCacheOption::Yes {
                policy: PolicyKind::Lru,
                capacity_bytes: 1024,
            },
            thread_allocation: nserver_core::options::ThreadAllocation::Dynamic {
                min: 1,
                max: 2,
                idle_keepalive_ms: 10,
            },
            encode_decode: false,
            ..base
        };
        assert!(Gate::CompletionAsync.admits(&async_opts));
        assert!(!Gate::EncodeDecode.admits(&async_opts));
        assert!(Gate::DynamicAllocation.admits(&async_opts));
        assert!(Gate::FileCache.admits(&async_opts));
    }

    #[test]
    fn class_existence_follows_gates() {
        let minimal = ServerOptions {
            encode_decode: false,
            ..ServerOptions::default()
        };
        let existing: Vec<_> = registry()
            .iter()
            .filter(|c| c.exists(&minimal))
            .map(|c| c.name)
            .collect();
        assert!(!existing.contains(&"Completion Event"));
        assert!(!existing.contains(&"Decode Request Event Handler"));
        assert!(!existing.contains(&"Cache"));
        assert!(existing.contains(&"Reactor"));
        assert_eq!(existing.len(), 27 - 8);
    }

    #[test]
    fn full_config_generates_every_class() {
        let full = ServerOptions {
            completion_mode: nserver_core::options::CompletionMode::Asynchronous,
            thread_allocation: nserver_core::options::ThreadAllocation::Dynamic {
                min: 1,
                max: 8,
                idle_keepalive_ms: 100,
            },
            file_cache: nserver_core::options::FileCacheOption::Yes {
                policy: PolicyKind::Lru,
                capacity_bytes: 20 << 20,
            },
            event_scheduling: EventScheduling::Yes { quotas: vec![4, 1] },
            overload_control: OverloadControl::Watermark { high: 20, low: 5 },
            idle_shutdown_ms: Some(30_000),
            profiling: true,
            logging: true,
            ..ServerOptions::default()
        };
        full.validate().unwrap();
        assert!(registry().iter().all(|c| c.exists(&full)));
    }
}
