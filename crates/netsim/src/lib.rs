//! # nserver-netsim
//!
//! Discrete-event simulation substrate standing in for the paper's hardware
//! testbed (two 4-CPU Sun E420R servers, sixteen Sun Ultra 10 clients, and a
//! switched Gigabit Ethernet whose effective bandwidth was limited to
//! "something slightly higher than 100 MBits/sec").
//!
//! The experiments in the paper need a thousand concurrent clients, a shared
//! network bottleneck, multi-CPU servers, a disk with an OS buffer cache, and
//! Solaris TCP SYN-retransmission behaviour — none of which can be produced
//! faithfully on a single development machine. This crate provides those
//! pieces as composable discrete-event components driven by **virtual
//! time**, so the figure-level experiments are deterministic and run in
//! seconds:
//!
//! * [`engine`] — the event heap, virtual clock and run loop.
//! * [`link`] — a shared-bandwidth FIFO link with 1500-byte MTU framing.
//! * [`cpu`] — an N-CPU FIFO service centre (the server host).
//! * [`disk`] — a single-server disk plus an OS buffer cache model.
//! * [`tcp`] — listen-queue overflow and exponential SYN retransmission
//!   backoff (capped at 60 s, the Solaris maximum the paper cites).
//! * [`stats`] — response-time statistics and the Jain fairness index.
//! * [`rng`] — a small deterministic RNG so runs are reproducible.

pub mod cpu;
pub mod disk;
pub mod engine;
pub mod link;
pub mod rng;
pub mod stats;
pub mod tcp;
pub mod time;

pub use cpu::CpuPool;
pub use disk::{BufferCache, Disk};
pub use engine::{Model, Scheduler};
pub use link::Link;
pub use rng::SimRng;
pub use stats::{jain_index, Histogram, OnlineStats};
pub use tcp::{ListenQueue, SynRetransmit};
pub use time::SimTime;
