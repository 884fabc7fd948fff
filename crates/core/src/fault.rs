//! Deterministic fault injection for the transport layer.
//!
//! The paper evaluates the N-Server pattern under *load* (Figs. 4–6) but
//! never under *failure*: peer resets, `WouldBlock` storms, short
//! reads/writes, corrupted request bytes, accept-time errors and
//! slow-loris stalls. This module supplies those failures as one layer
//! ([`layer`]) of hooks over the [`Layered`] transport adapter, so the
//! same framework assembly the clean tests exercise can be driven
//! through a seeded *fault plan* — and the chaos suite in `tests/` can
//! assert the server survives, sheds load and returns to steady state.
//!
//! Everything is deterministic: a [`FaultPlan`] is a seed plus per-mille
//! incidence knobs, and the fault profile of the `k`-th accepted
//! connection is a pure function of `(seed, k)`. Two runs with the same
//! plan inject byte-identical fault schedules.
//!
//! The injection sits *below* the framework (between the reactor and the
//! real transport), so the hardened paths it exercises — error accounting
//! in the dispatcher, stage deadlines, accept-error recovery — are the
//! exact production code paths, not test doubles.

use std::collections::HashMap;
use std::io::{self, IoSlice};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::event::ConnId;
use crate::layer::{AcceptHook, ConnHook, Layered, PollHook};
use crate::transport::{Listener, PollEvent, Poller, ReadOutcome, StreamIo};

/// A seeded, declarative schedule of transport faults.
///
/// Each `*_per_mille` knob is the per-connection incidence (out of 1000)
/// of one fault family; the families are rolled in a fixed order, so the
/// knobs partition the probability space. `accept_fail_every` injects an
/// accept-time error on every `n`-th accept. `faulty_first` restricts all
/// injection to the first `n` accepted connections (0 = no restriction) —
/// the chaos suite uses it to assert recovery: connections accepted after
/// the fault window must be served cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for the deterministic profile derivation.
    pub seed: u64,
    /// Incidence of connection resets mid-stream (‰).
    pub reset_per_mille: u16,
    /// Incidence of `WouldBlock` storms (‰).
    pub storm_per_mille: u16,
    /// Incidence of short-read/short-write capping (‰).
    pub short_io_per_mille: u16,
    /// Incidence of inbound byte corruption (‰).
    pub corrupt_per_mille: u16,
    /// Incidence of slow-loris stalls (‰).
    pub stall_per_mille: u16,
    /// Fail every `n`-th accept with an error (0 = never).
    pub accept_fail_every: u32,
    /// Only the first `n` accepted connections draw faults (0 = all).
    pub faulty_first: u32,
}

impl FaultPlan {
    /// An all-quiet plan with the given seed; switch faults on by setting
    /// the incidence fields.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    fn in_window(&self, accept_index: u64) -> bool {
        self.faulty_first == 0 || accept_index <= self.faulty_first as u64
    }

    /// Whether the `accept_index`-th accept (1-based) fails.
    pub fn accept_fails(&self, accept_index: u64) -> bool {
        self.accept_fail_every > 0
            && self.in_window(accept_index)
            && accept_index.is_multiple_of(self.accept_fail_every as u64)
    }

    /// The fault profile of the `accept_index`-th accepted connection —
    /// a pure function of `(seed, accept_index)`.
    pub fn profile_for(&self, accept_index: u64) -> FaultProfile {
        if !self.in_window(accept_index) {
            return FaultProfile::Clean;
        }
        let mut rng = FaultRng::new(self.seed, accept_index);
        let roll = (rng.next() % 1000) as u16;
        let mut edge = self.reset_per_mille;
        if roll < edge {
            return FaultProfile::Reset {
                after_bytes: 1 + (rng.next() % 256) as usize,
            };
        }
        edge = edge.saturating_add(self.storm_per_mille);
        if roll < edge {
            return FaultProfile::Storm {
                calls: 3 + (rng.next() % 6) as u32,
            };
        }
        edge = edge.saturating_add(self.short_io_per_mille);
        if roll < edge {
            return FaultProfile::ShortIo {
                cap: 1 + (rng.next() % 7) as usize,
            };
        }
        edge = edge.saturating_add(self.corrupt_per_mille);
        if roll < edge {
            return FaultProfile::Corrupt {
                every: 2 + (rng.next() % 6) as usize,
            };
        }
        edge = edge.saturating_add(self.stall_per_mille);
        if roll < edge {
            return FaultProfile::Stall {
                after_bytes: (rng.next() % 16) as usize,
            };
        }
        FaultProfile::Clean
    }
}

/// The per-connection fault behaviour drawn from a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultProfile {
    /// No injected faults.
    Clean,
    /// After `after_bytes` total bytes (read + written), every I/O call
    /// fails with `ConnectionReset`.
    Reset {
        /// Traffic threshold that trips the reset.
        after_bytes: usize,
    },
    /// The first `calls` read attempts report `WouldBlock` even when data
    /// is queued; the swallowed readiness is redelivered synthetically by
    /// [`Redelivery`].
    Storm {
        /// Number of suppressed read attempts.
        calls: u32,
    },
    /// Reads and writes are capped at `cap` bytes, and every other write
    /// attempt reports would-block — forcing the caller to resume a
    /// partially written response from the correct offset.
    ShortIo {
        /// Per-call byte cap.
        cap: usize,
    },
    /// Every `every`-th inbound byte is bit-flipped — a malformed request
    /// the codec must reject.
    Corrupt {
        /// Corruption stride in bytes.
        every: usize,
    },
    /// Slow-loris: after `after_bytes` inbound bytes the connection goes
    /// silent forever (reads report `WouldBlock`, data is withheld), so
    /// only a stage deadline or idle sweep can reclaim it.
    Stall {
        /// Bytes delivered before the permanent stall.
        after_bytes: usize,
    },
}

/// SplitMix64 over `(seed, stream)` — local so `nserver-core` stays free
/// of a simulator dependency; `nserver-netsim` has the fuller [`SimRng`]
/// twin of this generator.
///
/// [`SimRng`]: https://docs.rs/
pub(crate) struct FaultRng(u64);

impl FaultRng {
    pub(crate) fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0x9E3779B97F4A7C15))
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

/// Mutable fault bookkeeping, shared between a connection's [`FaultConn`]
/// and the [`Redelivery`] hook of the poller watching it (the poller
/// needs to see swallowed readiness to redeliver it).
#[derive(Debug)]
struct FaultState {
    profile: FaultProfile,
    bytes_read: usize,
    bytes_written: usize,
    storm_left: u32,
    /// ShortIo: alternates "write allowed" / "would-block" per call.
    write_gate_open: bool,
    /// A readable event was swallowed (storm); the poller must re-report
    /// the token or the notification-based mem transport loses it forever.
    suppressed: bool,
}

/// The connection hook enacting one connection's [`FaultProfile`]:
/// `Layered::new(stream, FaultConn::new(profile))` is a faulted stream.
#[derive(Debug)]
pub struct FaultConn {
    state: Arc<Mutex<FaultState>>,
}

impl FaultConn {
    /// A connection running under `profile`.
    pub fn new(profile: FaultProfile) -> Self {
        let storm_left = match profile {
            FaultProfile::Storm { calls } => calls,
            _ => 0,
        };
        Self {
            state: Arc::new(Mutex::new(FaultState {
                profile,
                bytes_read: 0,
                bytes_written: 0,
                storm_left,
                write_gate_open: false,
                suppressed: false,
            })),
        }
    }

    /// The profile this connection runs under.
    pub fn profile(&self) -> FaultProfile {
        self.state.lock().profile
    }
}

fn injected_reset() -> io::Error {
    io::Error::new(io::ErrorKind::ConnectionReset, "injected reset")
}

/// Fault profiles shape data flow, not teardown: `shutdown` and
/// `shutdown_write` keep their forwarding defaults.
impl ConnHook for FaultConn {
    fn read<S: StreamIo>(&mut self, inner: &mut S, buf: &mut [u8]) -> io::Result<ReadOutcome> {
        if buf.is_empty() {
            return inner.try_read(buf);
        }
        let mut st = self.state.lock();
        let r = match st.profile {
            FaultProfile::Clean => inner.try_read(buf)?,
            FaultProfile::Reset { after_bytes } => {
                if st.bytes_read + st.bytes_written >= after_bytes {
                    return Err(injected_reset());
                }
                inner.try_read(buf)?
            }
            FaultProfile::Storm { .. } => {
                if st.storm_left > 0 {
                    st.storm_left -= 1;
                    st.suppressed = true;
                    return Ok(ReadOutcome::WouldBlock);
                }
                inner.try_read(buf)?
            }
            FaultProfile::ShortIo { cap } => {
                let cap = cap.clamp(1, buf.len());
                inner.try_read(&mut buf[..cap])?
            }
            FaultProfile::Corrupt { every } => {
                let r = inner.try_read(buf)?;
                if let ReadOutcome::Data(n) = r {
                    for (i, byte) in buf[..n].iter_mut().enumerate() {
                        if (st.bytes_read + i + 1).is_multiple_of(every) {
                            *byte ^= 0xFF;
                        }
                    }
                }
                r
            }
            FaultProfile::Stall { after_bytes } => {
                if st.bytes_read >= after_bytes {
                    // Gone silent: data (if any) is withheld and no
                    // synthetic redelivery is requested — only a deadline
                    // can reclaim this connection.
                    return Ok(ReadOutcome::WouldBlock);
                }
                let cap = (after_bytes - st.bytes_read).clamp(1, buf.len());
                inner.try_read(&mut buf[..cap])?
            }
        };
        if let ReadOutcome::Data(n) = r {
            st.bytes_read += n;
        }
        Ok(r)
    }

    /// Faults are decided per call on the gathered total: a reset counts
    /// every slice's bytes, and a `ShortIo` cap may cut inside a slice.
    fn write_vectored<S: StreamIo>(
        &mut self,
        inner: &mut S,
        bufs: &[IoSlice<'_>],
    ) -> io::Result<usize> {
        let mut st = self.state.lock();
        let n = match st.profile {
            FaultProfile::Reset { after_bytes }
                if st.bytes_read + st.bytes_written >= after_bytes =>
            {
                return Err(injected_reset());
            }
            FaultProfile::ShortIo { cap } if bufs.iter().any(|b| !b.is_empty()) => {
                // Alternate would-block and a capped write, so a response
                // is forced across multiple poll iterations and the caller
                // must resume from its offset bookkeeping.
                if !st.write_gate_open {
                    st.write_gate_open = true;
                    return Ok(0);
                }
                st.write_gate_open = false;
                inner.try_write_vectored(&cap_slices(bufs, cap.max(1)))?
            }
            _ => inner.try_write_vectored(bufs)?,
        };
        st.bytes_written += n;
        Ok(n)
    }
}

/// The longest prefix of `bufs` totalling at most `cap` bytes, the last
/// slice cut to fit.
fn cap_slices<'a>(bufs: &'a [IoSlice<'_>], mut cap: usize) -> Vec<IoSlice<'a>> {
    let mut capped = Vec::new();
    for b in bufs {
        if cap == 0 {
            break;
        }
        let take = b.len().min(cap);
        capped.push(IoSlice::new(&b[..take]));
        cap -= take;
    }
    capped
}

/// The poll hook that redelivers readiness swallowed by fault injection.
///
/// The in-memory transport is notification-based: if a `WouldBlock` storm
/// swallows a readable event, nothing will ever re-notify the token and
/// the connection wedges — a test artifact, not the failure under study.
/// The hook therefore re-reports any token whose connection suppressed a
/// readable event, capping the wait timeout so redelivery is prompt.
#[derive(Default)]
pub struct Redelivery {
    states: HashMap<u64, Arc<Mutex<FaultState>>>,
}

/// How quickly suppressed readiness is re-reported.
const REDELIVER_INTERVAL: Duration = Duration::from_millis(1);

impl PollHook for Redelivery {
    type Conn = FaultConn;

    fn registered(&mut self, token: u64, conn: &FaultConn) {
        self.states.insert(token, Arc::clone(&conn.state));
    }

    fn deregistered(&mut self, token: u64) {
        self.states.remove(&token);
    }

    fn around_wait<P: Poller>(
        &mut self,
        inner: &mut P,
        events: &mut Vec<PollEvent>,
        timeout: Option<Duration>,
    ) -> io::Result<()> {
        let mut capped = timeout;
        if self.states.values().any(|s| s.lock().suppressed) {
            capped = Some(capped.map_or(REDELIVER_INTERVAL, |t| t.min(REDELIVER_INTERVAL)));
        }
        inner.wait(events, capped)?;
        for (&token, state) in &self.states {
            let mut st = state.lock();
            if st.suppressed {
                st.suppressed = false;
                if !events.iter().any(|e| e.token == token && e.readable) {
                    events.push(PollEvent {
                        token,
                        readable: true,
                        writable: false,
                    });
                }
            }
        }
        Ok(())
    }
}

/// The plan is its own accept hook: it stamps the `ordinal`-th accepted
/// connection with its planned [`FaultProfile`] and injects the planned
/// accept-time failures.
impl AcceptHook for FaultPlan {
    type Conn = FaultConn;
    type Poll = Redelivery;

    fn accepted<S: StreamIo>(
        &mut self,
        ordinal: u64,
        stream: io::Result<&mut S>,
    ) -> io::Result<FaultConn> {
        let stream = stream?;
        if self.accept_fails(ordinal) {
            // The connection is consumed (and closed), not left queued:
            // an accept-time failure must not wedge the listener backlog.
            stream.shutdown();
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "injected accept failure",
            ));
        }
        Ok(FaultConn::new(self.profile_for(ordinal)))
    }

    /// A data socket runs under its control connection's profile — the
    /// server's `control`-th connection, which is the `control`-th
    /// accept this plan did not fail (a base transport that fails
    /// accepts itself shifts this). Stalls and storms run clean: a
    /// transfer job blocks on its own socket, so a stall would hold it
    /// until its 5 s data deadline and every swallowed read would cost
    /// a 1 ms [`Redelivery`] wait, time the wall clock takes and a
    /// stepped server cannot advance.
    fn data_accepted<S: StreamIo>(
        &mut self,
        control: ConnId,
        _: u32,
        _: &mut S,
    ) -> io::Result<FaultConn> {
        let accepted = (1..).filter(|&k| !self.accept_fails(k));
        let profile = match accepted.take(control as usize).last() {
            Some(k) => self.profile_for(k),
            None => FaultProfile::Clean,
        };
        Ok(FaultConn::new(match profile {
            FaultProfile::Stall { .. } | FaultProfile::Storm { .. } => FaultProfile::Clean,
            other => other,
        }))
    }

    /// A dialed socket runs clean: the plan numbers its profiles and
    /// failures by accept, and a dial is none.
    fn dialed<S: StreamIo>(&self, _: &str, _: &mut S) -> io::Result<FaultConn> {
        Ok(FaultConn::new(FaultProfile::Clean))
    }
}

/// `listener` under `plan`: the fault layer of a transport stack.
pub fn layer<L: Listener>(listener: L, plan: FaultPlan) -> Layered<L, FaultPlan> {
    Layered::new(listener, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{mem, Interest};
    use bytes::BytesMut;

    fn faulted<S: StreamIo>(stream: S, profile: FaultProfile) -> Layered<S, FaultConn> {
        Layered::new(stream, FaultConn::new(profile))
    }

    fn all_of(plan: &FaultPlan, n: u64) -> Vec<FaultProfile> {
        (1..=n).map(|i| plan.profile_for(i)).collect()
    }

    #[test]
    fn profiles_are_deterministic_per_seed() {
        let plan = FaultPlan {
            seed: 42,
            reset_per_mille: 200,
            storm_per_mille: 200,
            short_io_per_mille: 200,
            corrupt_per_mille: 200,
            stall_per_mille: 200,
            ..FaultPlan::default()
        };
        assert_eq!(all_of(&plan, 200), all_of(&plan, 200));
        let other = FaultPlan { seed: 43, ..plan };
        assert_ne!(all_of(&plan, 200), all_of(&other, 200));
        // Every family is actually drawn at these incidences.
        let drawn = all_of(&plan, 200);
        assert!(drawn
            .iter()
            .any(|p| matches!(p, FaultProfile::Reset { .. })));
        assert!(drawn
            .iter()
            .any(|p| matches!(p, FaultProfile::Storm { .. })));
        assert!(drawn
            .iter()
            .any(|p| matches!(p, FaultProfile::ShortIo { .. })));
        assert!(drawn
            .iter()
            .any(|p| matches!(p, FaultProfile::Corrupt { .. })));
        assert!(drawn
            .iter()
            .any(|p| matches!(p, FaultProfile::Stall { .. })));
    }

    #[test]
    fn saturated_incidence_always_faults_and_zero_never_does() {
        let always = FaultPlan {
            seed: 7,
            reset_per_mille: 1000,
            ..FaultPlan::default()
        };
        assert!(all_of(&always, 50)
            .iter()
            .all(|p| matches!(p, FaultProfile::Reset { .. })));
        let never = FaultPlan::new(7);
        assert!(all_of(&never, 50).iter().all(|p| *p == FaultProfile::Clean));
    }

    #[test]
    fn faulty_first_window_bounds_injection() {
        let plan = FaultPlan {
            seed: 1,
            reset_per_mille: 1000,
            accept_fail_every: 2,
            faulty_first: 10,
            ..FaultPlan::default()
        };
        assert!(matches!(plan.profile_for(10), FaultProfile::Reset { .. }));
        assert_eq!(plan.profile_for(11), FaultProfile::Clean);
        assert!(plan.accept_fails(10));
        assert!(!plan.accept_fails(12), "outside the fault window");
    }

    #[test]
    fn short_writes_resume_from_the_correct_offset() {
        // The satellite audit: a partial write mid-response must resume
        // from where it stopped, neither dropping nor re-sending bytes.
        // This drives the same BytesMut::split_to bookkeeping the
        // dispatcher's flush path uses.
        let (server_side, mut client) = mem::pair("srv", "cli");
        let mut faulty = faulted(server_side, FaultProfile::ShortIo { cap: 3 });

        let payload: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut outbox = BytesMut::from(&payload[..]);
        let mut would_blocks = 0;
        while !outbox.is_empty() {
            match faulty.try_write(&outbox).unwrap() {
                0 => would_blocks += 1,
                n => {
                    assert!(n <= 3, "cap respected");
                    let _ = outbox.split_to(n);
                }
            }
            assert!(would_blocks < 10_000, "no forward progress");
        }
        assert!(would_blocks > 0, "short-io must interleave would-blocks");

        let mut got = Vec::new();
        let mut buf = [0u8; 256];
        loop {
            match client.try_read(&mut buf).unwrap() {
                ReadOutcome::Data(n) => got.extend_from_slice(&buf[..n]),
                ReadOutcome::WouldBlock => break,
                ReadOutcome::Closed => break,
            }
        }
        assert_eq!(
            got, payload,
            "bytes dropped or duplicated across short writes"
        );
    }

    #[test]
    fn gathered_writes_take_one_fault_decision_over_the_total() {
        // ShortIo: the cap applies to the whole gather, so a write may
        // end inside any slice — here 5 bytes: all of "abc", then "de".
        let (server_side, mut client) = mem::pair("srv", "cli");
        let mut faulty = faulted(server_side, FaultProfile::ShortIo { cap: 5 });
        let gather = [IoSlice::new(b"abc"), IoSlice::new(b"defgh")];
        assert_eq!(faulty.try_write_vectored(&gather).unwrap(), 0, "gate");
        assert_eq!(faulty.try_write_vectored(&gather).unwrap(), 5);
        let mut buf = [0u8; 16];
        assert_eq!(client.try_read(&mut buf).unwrap(), ReadOutcome::Data(5));
        assert_eq!(&buf[..5], b"abcde");

        // Reset: the threshold counts every slice of a gather.
        let (server_side, _client) = mem::pair("srv", "cli");
        let mut faulty = faulted(server_side, FaultProfile::Reset { after_bytes: 8 });
        assert_eq!(faulty.try_write_vectored(&gather).unwrap(), 8);
        assert_eq!(
            faulty.try_write_vectored(&gather).unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
    }

    #[test]
    fn short_reads_are_capped_but_lossless() {
        let (mut writer, reader) = mem::pair("w", "r");
        writer.try_write(b"hello world").unwrap();
        let mut faulty = faulted(reader, FaultProfile::ShortIo { cap: 2 });
        let mut got = Vec::new();
        let mut buf = [0u8; 64];
        while let ReadOutcome::Data(n) = faulty.try_read(&mut buf).unwrap() {
            assert!(n <= 2);
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(got, b"hello world");
    }

    #[test]
    fn reset_trips_after_traffic_threshold() {
        let (mut writer, reader) = mem::pair("w", "r");
        writer.try_write(&[0u8; 64]).unwrap();
        let mut faulty = faulted(reader, FaultProfile::Reset { after_bytes: 10 });
        let mut buf = [0u8; 8];
        assert!(matches!(
            faulty.try_read(&mut buf).unwrap(),
            ReadOutcome::Data(8)
        ));
        assert!(matches!(
            faulty.try_read(&mut buf).unwrap(),
            ReadOutcome::Data(_)
        ));
        let err = faulty.try_read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(
            faulty.try_write(b"x").unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
    }

    #[test]
    fn corruption_flips_every_nth_inbound_byte() {
        let (mut writer, reader) = mem::pair("w", "r");
        writer.try_write(&[0u8; 12]).unwrap();
        let mut faulty = faulted(reader, FaultProfile::Corrupt { every: 4 });
        let mut buf = [0u8; 12];
        // Read in two chunks: the corruption stride must span calls.
        assert!(matches!(
            faulty.try_read(&mut buf[..6]).unwrap(),
            ReadOutcome::Data(6)
        ));
        let first = buf[..6].to_vec();
        assert!(matches!(
            faulty.try_read(&mut buf[..6]).unwrap(),
            ReadOutcome::Data(6)
        ));
        let mut got = first;
        got.extend_from_slice(&buf[..6]);
        let expect: Vec<u8> = (1..=12u8)
            .map(|i| if i % 4 == 0 { 0xFF } else { 0x00 })
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn storm_suppresses_then_delivers_and_flags_redelivery() {
        let (mut writer, reader) = mem::pair("w", "r");
        writer.try_write(b"abc").unwrap();
        let mut faulty = faulted(reader, FaultProfile::Storm { calls: 3 });
        let mut buf = [0u8; 8];
        for _ in 0..3 {
            assert!(matches!(
                faulty.try_read(&mut buf).unwrap(),
                ReadOutcome::WouldBlock
            ));
            assert!(faulty.hook().state.lock().suppressed);
        }
        assert!(matches!(
            faulty.try_read(&mut buf).unwrap(),
            ReadOutcome::Data(3)
        ));
    }

    #[test]
    fn stall_goes_permanently_silent_after_threshold() {
        let (mut writer, reader) = mem::pair("w", "r");
        writer.try_write(b"abcdef").unwrap();
        let mut faulty = faulted(reader, FaultProfile::Stall { after_bytes: 4 });
        let mut got = Vec::new();
        let mut buf = [0u8; 8];
        for _ in 0..4 {
            if let ReadOutcome::Data(n) = faulty.try_read(&mut buf).unwrap() {
                got.extend_from_slice(&buf[..n]);
            }
        }
        assert_eq!(got, b"abcd");
        for _ in 0..5 {
            assert!(matches!(
                faulty.try_read(&mut buf).unwrap(),
                ReadOutcome::WouldBlock
            ));
        }
        assert!(
            !faulty.hook().state.lock().suppressed,
            "stalls are not redelivered"
        );
    }

    #[test]
    fn accept_failure_consumes_and_closes_the_connection() {
        let (listener, connector) = mem::listener("chaos");
        let mut faulty = layer(
            listener,
            FaultPlan {
                seed: 3,
                accept_fail_every: 2,
                ..FaultPlan::default()
            },
        );
        let _c1 = connector.connect();
        let mut c2 = connector.connect();
        assert!(faulty.try_accept().unwrap().is_some());
        let err = faulty.try_accept().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted);
        assert_eq!(faulty.accepted(), 2);
        // The victim's client side observes the close.
        let mut buf = [0u8; 4];
        assert!(matches!(
            c2.try_read(&mut buf).unwrap(),
            ReadOutcome::Closed
        ));
        // The listener keeps accepting afterwards.
        let _c3 = connector.connect();
        assert!(faulty.try_accept().unwrap().is_some());
    }

    #[test]
    fn a_data_socket_runs_under_its_control_connections_profile() {
        let mut plan = FaultPlan {
            reset_per_mille: 400,
            stall_per_mille: 400,
            accept_fail_every: 2,
            ..FaultPlan::new(11)
        };
        let (mut stream, _peer) = mem::pair("data", "client");
        let mut stalls = 0;
        for control in 1..=12 {
            // Every second accept fails: connection n is accept 2n - 1.
            let control_profile = plan.profile_for(2 * control - 1);
            let conn = plan.data_accepted(control, 1, &mut stream).unwrap();
            if let FaultProfile::Stall { .. } = control_profile {
                stalls += 1;
                assert_eq!(conn.profile(), FaultProfile::Clean);
            } else {
                assert_eq!(conn.profile(), control_profile);
            }
        }
        assert!(stalls > 0 && stalls < 12, "{stalls} stalls");
    }

    #[test]
    fn faulty_poller_redelivers_suppressed_readiness() {
        let (listener, connector) = mem::listener("storm");
        let mut faulty_listener = layer(
            listener,
            FaultPlan {
                seed: 9,
                storm_per_mille: 1000,
                ..FaultPlan::default()
            },
        );
        let mut poller = Layered::<mem::MemListener, FaultPlan>::new_poller().expect("poller");
        let mut client = connector.connect();
        client.try_write(b"ping\n").unwrap();
        let mut server_stream = faulty_listener.try_accept().unwrap().unwrap();
        poller
            .register(7, &server_stream, Interest::READABLE)
            .unwrap();

        let mut events = Vec::new();
        let mut buf = [0u8; 16];
        let mut delivered = Vec::new();
        // Each wait → swallowed read → synthetic redelivery next wait,
        // until the storm is exhausted and the data arrives.
        for _ in 0..32 {
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap();
            if events.iter().any(|e| e.token == 7 && e.readable) {
                if let ReadOutcome::Data(n) = server_stream.try_read(&mut buf).unwrap() {
                    delivered.extend_from_slice(&buf[..n]);
                    break;
                }
            }
        }
        assert_eq!(delivered, b"ping\n", "storm starved the connection forever");
    }
}
