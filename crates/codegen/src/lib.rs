//! # nserver-codegen
//!
//! The **generative** half of the N-Server pattern template: given a
//! [`nserver_core::ServerOptions`] configuration, this crate *generates a
//! custom framework as Rust source code* — the CO₂P₃S approach. From the
//! paper:
//!
//! > "The generative design pattern approach is more configurable than a
//! > static framework, since application code underlying each feature can
//! > be included or excluded at code generation time, based on the
//! > corresponding option settings. … Dynamic checks reduce application
//! > maintainability and add performance overheads."
//!
//! Three artifacts come out of this crate:
//!
//! * [`template::generate`] — the generated framework itself: one module
//!   per framework class, a `main.rs` that assembles the configuration,
//!   and stub hook files for the programmer's Decode/Handle/Encode code.
//!   Every class is guarded text in the class table ([`fragments`]),
//!   expanded by the one interpreter in [`template`].
//! * [`crosscut`] — the Table 2 matrix, read off that text: a class is
//!   gated (`O`) by its gate's option and affected (`+`) by every option
//!   its guards and splices name.
//! * [`ncss`] — the classes/methods/NCSS code metrics used in the paper's
//!   Tables 3 and 4 code-distribution studies.

pub mod crosscut;
pub mod fragments;
pub mod ncss;
pub mod template;

pub use crosscut::{render_matrix, CrosscutMatrix};
pub use fragments::{registry, ClassSpec, OptionId};
pub use ncss::{count_source, CodeStats};
pub use template::{generate, GeneratedFile, GeneratedFramework};
