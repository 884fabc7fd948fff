//! # conformance
//!
//! Model-based conformance harness: executable protocol specifications
//! driving schedule exploration against the real reactor.
//!
//! The paper's claim is that generated N-Server frameworks behave
//! identically across template option columns. This crate turns that claim
//! into a checkable artifact. It has three layers:
//!
//! * **Executable models** ([`http_model`], [`ftp_model`]) — pure
//!   functions from a connection's *post-fault inbound bytes* to the set
//!   of legal outbound observations. The HTTP model is byte-exact: the
//!   expected response stream is fully determined by the decoded request
//!   stream and the content fixture, and a conforming trace must be a
//!   prefix of it (prefix closure is what makes the acceptor
//!   nondeterministic — a fault may cut the stream anywhere). The FTP
//!   model accepts the control channel at the reply-code +
//!   multiline-flag level (because `STAT` bodies carry live counters)
//!   and the **data plane byte-exactly**: `PASV` transfers are modeled
//!   as outcome slots whose joined data-connection traces must carry the
//!   exact `LIST`/`RETR` payload computed from a replica VFS, whose
//!   `STOR` uploads commit back into the replica (write-back visibility
//!   on a later `RETR`), and whose `150`+`226` completion must be
//!   written only after the data socket closed — checked against the
//!   trace log's global event sequence.
//! * **Schedules** ([`schedule`]) — a seeded, serializable description of
//!   one adversarial run: a [`nserver_core::fault::FaultPlan`], per-client
//!   byte scripts split into segments, scripted data-connection ops
//!   (drain / upload / abort mid-transfer), and an interleaving order
//!   with pauses. Equal seeds generate equal schedules; the fingerprint
//!   hashes the serialized form so distinct-schedule coverage is
//!   countable.
//! * **The explorer** ([`explorer`]) — runs the real server over the
//!   in-memory transport under the fault layer and, outside it, the tap
//!   layer (`tap::layer(fault::layer(mem, plan), log)`), delivers
//!   the schedule (connecting each scripted data op to the data listener
//!   a `PASV` opens, as it opens), and checks every recorded [`ConnTrace`]
//!   against the model. The server is stepped on the explorer's thread
//!   on a virtual clock ([`nserver_core::server::Stepped`]): it runs
//!   until it is still at each scripted pause, and the pause advances
//!   its clock instead of being slept, so a run is a function of its
//!   schedule and stall-heavy schedules cost near-zero wall-clock. On
//!   violation the explorer shrinks the schedule greedily and panics
//!   with a replayable counterexample (seed + serialized schedule).
//! * **The relay differential** ([`relay`]) — runs one sanitized
//!   schedule against a direct backend and against a stepped
//!   [`nserver_core::cluster::ClusterFrontEnd`] in front of a fresh one
//!   (optionally with a label nobody listens on first, forcing
//!   retry-rotation), each arm one in-memory world on a virtual clock,
//!   and asserts the client-observable byte streams are equivalent.
//!
//! [`mutant`] provides deliberately broken services, transports and a
//! replaying relay ([`TransportMutation::Replay`]) used by the mutation
//! tests: each must be caught, which is the harness's own soundness
//! check. Nothing here opens a real socket or sleeps: every server,
//! relay and client is stepped over the in-memory transport.

pub mod explorer;
pub mod ftp_model;
pub mod http_model;
pub mod mutant;
pub mod relay;
pub mod schedule;

pub use explorer::{
    explore, run, run_ftp, run_ftp_lingerless, run_http, run_http_gather_drop, run_http_lingerless,
    run_http_off_thread_drop, run_http_on_thread_drop, run_http_with_options, seed_range, shrink,
    standard_ftp_service_over, standard_http_service, BaseListener, ExploreSummary, RunReport,
};
pub use ftp_model::{check_ftp, check_ftp_session, FtpDataCtx, FtpModel};
pub use http_model::HttpFixture;
pub use mutant::{
    truncated_retr_service, FtpMutation, HttpMutation, MutantFtp, MutantHttp, PrematureFtp,
    TransportMutation,
};
pub use relay::{relay_differential, replaying_relay_diverges, DiffReport};
pub use schedule::{
    enumerate_orders, generate, generate_stall_heavy, ConnScript, DataOp, DataOpKind, Proto,
    Schedule, Step,
};

use nserver_core::tap::{ConnTrace, TapEvent};

/// One conformance violation found in a connection trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// 1-based accept index of the offending connection.
    pub accept_index: u64,
    /// Fault profile the plan assigned to it.
    pub profile: String,
    /// Violation class (stable identifier for grepping).
    pub kind: &'static str,
    /// Human-readable diagnosis.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "conn #{} [{}] {}: {}",
            self.accept_index, self.profile, self.kind, self.detail
        )
    }
}

/// The protocol-independent event-legality rule: once a connection's
/// transport has failed hard (a `ReadError` or `WriteError`), its sink is
/// dead — any later `Wrote` or `WriteError` is a reply written to a reset
/// peer. Writing after `ReadEof` alone is legal: half-close only ends the
/// request stream, and pending responses must still drain.
pub fn event_order_violation(trace: &ConnTrace) -> Option<Violation> {
    let mut dead = false;
    for (i, ev) in trace.events.iter().enumerate() {
        match ev {
            TapEvent::Wrote(b) if dead => {
                return Some(Violation {
                    accept_index: trace.accept_index,
                    profile: trace.profile.clone(),
                    kind: "write-after-error",
                    detail: format!("event {i}: {} bytes written after the sink died", b.len()),
                });
            }
            TapEvent::WriteError(e) if dead => {
                return Some(Violation {
                    accept_index: trace.accept_index,
                    profile: trace.profile.clone(),
                    kind: "write-after-error",
                    detail: format!("event {i}: write retried on a dead sink ({e})"),
                });
            }
            TapEvent::ReadError(_) | TapEvent::WriteError(_) => dead = true,
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(events: Vec<TapEvent>) -> ConnTrace {
        ConnTrace::synthetic(1, "peer-1", "Clean", events)
    }

    #[test]
    fn writes_after_eof_are_legal() {
        let t = trace(vec![
            TapEvent::Read(b"GET".to_vec()),
            TapEvent::ReadEof,
            TapEvent::Wrote(b"HTTP/1.1 200".to_vec()),
        ]);
        assert!(event_order_violation(&t).is_none());
    }

    #[test]
    fn write_after_read_error_is_flagged() {
        let t = trace(vec![
            TapEvent::ReadError("reset".into()),
            TapEvent::Wrote(b"late".to_vec()),
        ]);
        let v = event_order_violation(&t).expect("violation");
        assert_eq!(v.kind, "write-after-error");
    }

    #[test]
    fn single_write_error_is_legal_but_a_second_is_not() {
        let ok = trace(vec![
            TapEvent::Wrote(b"partial".to_vec()),
            TapEvent::WriteError("reset".into()),
        ]);
        assert!(event_order_violation(&ok).is_none());
        let bad = trace(vec![
            TapEvent::WriteError("reset".into()),
            TapEvent::WriteError("reset".into()),
        ]);
        assert!(event_order_violation(&bad).is_some());
    }
}
