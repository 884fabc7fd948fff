//! The one transport interposer: [`Layered`] wraps a listener, a poller
//! or a stream and implements [`Listener`], [`Poller`] and [`StreamIo`]
//! **once**, forwarding every method to the wrapped value except where a
//! hook overrides it. A concern that sits between the reactor and the
//! transport — fault injection ([`crate::fault`]), the conformance trace
//! tap ([`crate::tap`]), the conformance crate's transport mutants — is a
//! set of hooks, not another `Listener`/`Poller`/`StreamIo` triple.
//!
//! **A new `StreamIo`/`Poller`/`Listener` method is forwarded here and
//! nowhere else.**
//!
//! Layers stack by nesting, outermost first: `tap::layer(fault::layer(
//! listener, plan), log)` has type `Layered<Layered<L, FaultPlan>,
//! TraceLog>`, so the type spells the order, and the outer layer observes
//! what the inner one did (the tap records post-fault bytes). Hooks are
//! generic methods, statically dispatched. Production stacks serve the
//! base transport directly and carry no layer.
//!
//! The **accept ordinal** is counted here, by the same few lines in every
//! layer of a stack: each `try_accept` that yields a connection *or an
//! error* is the next 1-based ordinal, and `Ok(None)` is none. An accept
//! hook maps a connection to a connection or an error and an error to an
//! error, so every layer of a stack numbers the same accept the same —
//! the tap's `accept_index` and the fault plan's profile index cannot
//! drift apart, whatever fails underneath. A data listener
//! ([`Listener::data_listener`]) numbers nothing: each layer's hook hears
//! its accepts as [`AcceptHook::data_accepted`], with the control
//! connection and ordinal the listener was opened for.

use std::fmt;
use std::io::{self, IoSlice};
use std::marker::PhantomData;
use std::time::Duration;

use crate::event::ConnId;
use crate::transport::{Interest, Listener, PollEvent, Poller, ReadOutcome, StreamIo, Waker};

/// Per-connection hooks; every default forwards to `inner`.
pub trait ConnHook: Send + 'static {
    /// Around [`StreamIo::try_read`].
    fn read<S: StreamIo>(&mut self, inner: &mut S, buf: &mut [u8]) -> io::Result<ReadOutcome> {
        inner.try_read(buf)
    }

    /// Around every write: [`StreamIo::try_write`] arrives here as a
    /// one-slice gather.
    fn write_vectored<S: StreamIo>(
        &mut self,
        inner: &mut S,
        bufs: &[IoSlice<'_>],
    ) -> io::Result<usize> {
        inner.try_write_vectored(bufs)
    }

    /// Around [`StreamIo::shutdown`].
    fn shutdown<S: StreamIo>(&mut self, inner: &mut S) {
        inner.shutdown();
    }

    /// Around [`StreamIo::shutdown_write`].
    fn shutdown_write<S: StreamIo>(&mut self, inner: &mut S) {
        inner.shutdown_write();
    }
}

/// Poller hooks; every default forwards. One is built per dispatcher by
/// `Default` ([`Listener::new_poller`] has no receiver to copy from).
pub trait PollHook: Default + Send + 'static {
    /// The connection hook of the streams this poller watches.
    type Conn: ConnHook;

    /// After the inner poller registered or re-registered `token`.
    fn registered(&mut self, _token: u64, _conn: &Self::Conn) {}

    /// Before the inner poller deregisters `token`.
    fn deregistered(&mut self, _token: u64) {}

    /// Around [`Poller::wait`].
    fn around_wait<P: Poller>(
        &mut self,
        inner: &mut P,
        events: &mut Vec<PollEvent>,
        timeout: Option<Duration>,
    ) -> io::Result<()> {
        inner.wait(events, timeout)
    }
}

/// The poll hook of a layer that has none.
pub type NoPoll<C> = PhantomData<fn(C)>;

impl<C: ConnHook> PollHook for NoPoll<C> {
    type Conn = C;
}

/// The listener hook: one per layer, it makes each accepted connection's
/// [`ConnHook`]. A data listener ([`Listener::data_listener`]) carries a
/// clone of its layer's hook.
pub trait AcceptHook: Clone + Send + 'static {
    /// Hook carried by each accepted stream.
    type Conn: ConnHook;
    /// Hook carried by each dispatcher's poller.
    type Poll: PollHook<Conn = Self::Conn>;

    /// The inner listener's `ordinal`-th accept (1-based, counted by
    /// [`Layered`]) yielded `stream`. Return the connection's hook, or an
    /// error to fail the accept — having closed `stream`, which is
    /// dropped. Given `Err`, return it (`let stream = stream?;` does);
    /// the layers outside then see the same failure at the same ordinal.
    fn accepted<S: StreamIo>(
        &mut self,
        ordinal: u64,
        stream: io::Result<&mut S>,
    ) -> io::Result<Self::Conn>;

    /// The `ordinal`-th data listener of control connection `control`
    /// accepted `stream`. Return the connection's hook, or an error to
    /// fail the accept. By default it is hooked as a primary accept
    /// numbered 0, which no primary accept is.
    fn data_accepted<S: StreamIo>(
        &mut self,
        control: ConnId,
        ordinal: u32,
        stream: &mut S,
    ) -> io::Result<Self::Conn> {
        let _ = (control, ordinal);
        self.accepted(0, Ok(stream))
    }
}

/// `inner` seen through the hooks of `H`: a listener when `H` is an
/// [`AcceptHook`], and the poller and streams that listener hands out.
#[derive(Clone)]
pub struct Layered<T, H> {
    inner: T,
    hook: H,
    /// Listener role: accepts numbered so far.
    accepts: u64,
    /// Data-listener role: the control connection and ordinal it serves.
    data: Option<(ConnId, u32)>,
}

impl<T, H> Layered<T, H> {
    /// Interpose `hook` on `inner`.
    pub fn new(inner: T, hook: H) -> Self {
        Self {
            inner,
            hook,
            accepts: 0,
            data: None,
        }
    }

    /// This layer's hook.
    pub fn hook(&self) -> &H {
        &self.hook
    }

    /// Listener role: the last accept ordinal handed out — connections
    /// and failed accepts alike.
    pub fn accepted(&self) -> u64 {
        self.accepts
    }
}

/// Prints the stack's type, which spells its layers outermost first.
impl<T, H> fmt::Debug for Layered<T, H> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(std::any::type_name::<Self>())
    }
}

impl<S: StreamIo, H: ConnHook> StreamIo for Layered<S, H> {
    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<ReadOutcome> {
        self.hook.read(&mut self.inner, buf)
    }

    fn try_write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.try_write_vectored(&[IoSlice::new(data)])
    }

    fn try_write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        self.hook.write_vectored(&mut self.inner, bufs)
    }

    fn peer_label(&self) -> String {
        self.inner.peer_label()
    }

    fn shutdown(&mut self) {
        self.hook.shutdown(&mut self.inner);
    }

    fn shutdown_write(&mut self) {
        self.hook.shutdown_write(&mut self.inner);
    }
}

impl<P: Poller, H: PollHook> Poller for Layered<P, H> {
    type Stream = Layered<P::Stream, H::Conn>;

    fn register(
        &mut self,
        token: u64,
        stream: &Self::Stream,
        interest: Interest,
    ) -> io::Result<()> {
        self.inner.register(token, &stream.inner, interest)?;
        self.hook.registered(token, &stream.hook);
        Ok(())
    }

    fn reregister(
        &mut self,
        token: u64,
        stream: &Self::Stream,
        interest: Interest,
    ) -> io::Result<()> {
        self.inner.reregister(token, &stream.inner, interest)?;
        self.hook.registered(token, &stream.hook);
        Ok(())
    }

    fn deregister(&mut self, token: u64, stream: &Self::Stream) -> io::Result<()> {
        self.hook.deregistered(token);
        self.inner.deregister(token, &stream.inner)
    }

    fn wait(&mut self, events: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<()> {
        self.hook.around_wait(&mut self.inner, events, timeout)
    }

    fn waker(&self) -> Waker {
        self.inner.waker()
    }
}

impl<L: Listener, H: AcceptHook> Listener for Layered<L, H> {
    type Stream = Layered<L::Stream, H::Conn>;
    type Poller = Layered<L::Poller, H::Poll>;

    fn try_accept(&mut self) -> io::Result<Option<Self::Stream>> {
        let Some(accepted) = self.inner.try_accept().transpose() else {
            return Ok(None);
        };
        self.accepts += 1;
        match (accepted, self.data) {
            (Ok(mut inner), None) => {
                let hook = self.hook.accepted(self.accepts, Ok(&mut inner))?;
                Ok(Some(Layered::new(inner, hook)))
            }
            (Ok(mut inner), Some((control, ordinal))) => {
                let hook = self.hook.data_accepted(control, ordinal, &mut inner)?;
                Ok(Some(Layered::new(inner, hook)))
            }
            (Err(e), None) => self
                .hook
                .accepted::<L::Stream>(self.accepts, Err(e))
                .map(|_| None),
            (Err(e), Some(_)) => Err(e),
        }
    }

    fn local_label(&self) -> String {
        self.inner.local_label()
    }

    fn new_poller() -> io::Result<Self::Poller> {
        Ok(Layered::new(L::new_poller()?, H::Poll::default()))
    }

    fn register_listener(&self, poller: &mut Self::Poller) -> io::Result<()> {
        self.inner.register_listener(&mut poller.inner)
    }

    fn deregister_listener(&self, poller: &mut Self::Poller) -> io::Result<()> {
        self.inner.deregister_listener(&mut poller.inner)
    }

    fn data_listener(&self, control: ConnId, ordinal: u32) -> io::Result<Self> {
        Ok(Self {
            data: Some((control, ordinal)),
            ..Layered::new(
                self.inner.data_listener(control, ordinal)?,
                self.hook.clone(),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{self, FaultPlan, FaultProfile, FaultRng};
    use crate::tap::{self, TraceLog};
    use crate::transport::mem::{self, MemConnector, MemPoller, MemStream};
    use std::collections::VecDeque;

    /// The no-op layer: every hook keeps its forwarding default.
    impl ConnHook for () {}
    impl PollHook for () {
        type Conn = ();
    }
    impl AcceptHook for () {
        type Conn = ();
        type Poll = ();
        fn accepted<S: StreamIo>(&mut self, _: u64, stream: io::Result<&mut S>) -> io::Result<()> {
            stream.map(|_| ())
        }
    }

    /// Drive a seeded script of accepts, reads, writes, gathered writes,
    /// half-closes, closes, (re/de)registrations and waits through
    /// `listener`, logging every observable result.
    fn run_script<L: Listener>(mut listener: L, connector: MemConnector, seed: u64) -> Vec<String> {
        let mut rng = FaultRng::new(seed, 0);
        let mut draw = move |n: u64| rng.next() % n;
        let mut poller = L::new_poller().unwrap();
        listener.register_listener(&mut poller).unwrap();
        let mut clients: Vec<MemStream> = Vec::new();
        let mut servers: Vec<L::Stream> = Vec::new();
        let mut log = vec![listener.local_label()];
        let mut events = Vec::new();
        let mut buf = [0u8; 32];
        connector.on_data(|_, _, data| drop(data.connect()));
        for step in 0..400 {
            let payload: Vec<u8> = (0..draw(24)).map(|i| (step + i) as u8).collect();
            let pick = draw(servers.len().max(1) as u64) as usize;
            let op = draw(15);
            let seen = match (op, servers.get_mut(pick)) {
                (0, _) => {
                    clients.push(connector.connect());
                    "connect".to_string()
                }
                (1, _) => match listener.try_accept().unwrap() {
                    Some(s) => {
                        let token = servers.len() as u64 + 1;
                        poller.register(token, &s, Interest::READABLE).unwrap();
                        let label = s.peer_label();
                        servers.push(s);
                        format!("accept {label}")
                    }
                    None => "accept none".to_string(),
                },
                (2, _) => {
                    poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
                    let mut ready: Vec<_> = events
                        .iter()
                        .map(|e| (e.token, e.readable, e.writable))
                        .collect();
                    ready.sort_unstable();
                    format!("wait {ready:?}")
                }
                (3, _) => {
                    listener.deregister_listener(&mut poller).unwrap();
                    listener.register_listener(&mut poller).unwrap();
                    "relisten".to_string()
                }
                (14, _) => {
                    let mut data = listener.data_listener(1, step as u32).unwrap();
                    let mut s = data.try_accept().unwrap().expect("connected on open");
                    let read = s.try_read(&mut buf).map_err(|e| e.kind());
                    format!("data {} {} {read:?}", data.local_label(), s.peer_label())
                }
                (_, None) => continue,
                (4 | 5, Some(_)) => format!(
                    "client write {:?}",
                    clients[pick].try_write(&payload).map_err(|e| e.kind())
                ),
                (6, Some(_)) => {
                    let read = clients[pick].try_read(&mut buf).map_err(|e| e.kind());
                    format!("client read {read:?} {:?}", read.map(|_| buf))
                }
                (7, Some(_)) => {
                    clients[pick].shutdown();
                    "client close".to_string()
                }
                (8, Some(s)) => {
                    let cap = 1 + draw(31) as usize;
                    let read = s.try_read(&mut buf[..cap]).map_err(|e| e.kind());
                    format!("read {read:?} {:?}", read.map(|_| buf))
                }
                (9, Some(s)) => format!("write {:?}", s.try_write(&payload).map_err(|e| e.kind())),
                (10, Some(s)) => {
                    let (a, b) = payload.split_at(payload.len() / 2);
                    let gather = [IoSlice::new(a), IoSlice::new(&[]), IoSlice::new(b)];
                    format!(
                        "gather {:?}",
                        s.try_write_vectored(&gather).map_err(|e| e.kind())
                    )
                }
                (11, Some(s)) => {
                    if draw(2) == 0 {
                        s.shutdown_write();
                        "half-close".to_string()
                    } else {
                        s.shutdown();
                        "close".to_string()
                    }
                }
                (12, Some(s)) => {
                    let interest = Interest {
                        readable: draw(2) == 0,
                        writable: draw(2) == 0,
                    };
                    poller.reregister(pick as u64 + 1, s, interest).unwrap();
                    format!("reregister {interest:?}")
                }
                (_, Some(s)) => {
                    poller.deregister(pick as u64 + 1, s).unwrap();
                    "deregister".to_string()
                }
            };
            log.push(format!("{step}: #{pick} {seen}"));
        }
        log
    }

    #[test]
    fn a_layer_with_no_hooks_is_transparent() {
        // Every method of the three traits, driven through bare `mem`,
        // through one no-op layer and through two: the observations must
        // be identical. This is the test that fails when a trait grows a
        // method that `Layered` does not forward.
        for seed in 1..=40 {
            let (bare, c0) = mem::listener("srv");
            let (inner1, c1) = mem::listener("srv");
            let (inner2, c2) = mem::listener("srv");
            let expect = run_script(bare, c0, seed);
            assert!(expect.iter().any(|l| l.contains("read Ok(Data(")));
            assert_eq!(run_script(Layered::new(inner1, ()), c1, seed), expect);
            let twice = Layered::new(Layered::new(inner2, ()), ());
            assert_eq!(run_script(twice, c2, seed), expect, "seed {seed}");
        }
    }

    #[test]
    fn the_outer_layer_observes_what_the_inner_layer_did() {
        let plan = FaultPlan {
            corrupt_per_mille: 1000,
            ..FaultPlan::new(1)
        };
        assert!(matches!(plan.profile_for(1), FaultProfile::Corrupt { .. }));
        // What the server reads and what the tap recorded, for "aaaa"
        // sent through `stack`.
        fn observe<L: Listener>(
            mut stack: L,
            connector: MemConnector,
            log: &TraceLog,
        ) -> [Vec<u8>; 2] {
            let mut client = connector.connect();
            let mut server_side = stack.try_accept().unwrap().unwrap();
            client.try_write(b"aaaa").unwrap();
            let mut buf = [0u8; 16];
            let ReadOutcome::Data(n) = server_side.try_read(&mut buf).unwrap() else {
                panic!("data was queued");
            };
            [buf[..n].to_vec(), log.snapshot()[0].inbound()]
        }

        // Tap outermost: it records the post-fault bytes the server saw.
        let (listener, connector) = mem::listener("tap-of-fault");
        let log = TraceLog::new();
        let stack = tap::layer(fault::layer(listener, plan), log.clone());
        let [read, recorded] = observe(stack, connector, &log);
        assert_ne!(read, b"aaaa");
        assert_eq!(recorded, read);

        // Fault outermost, same seed: the tap, now inside, records the
        // bytes as they came off the transport, before corruption.
        let (listener, connector) = mem::listener("fault-of-tap");
        let log = TraceLog::new();
        let stack = fault::layer(tap::layer(listener, log.clone()), plan);
        let [read_again, recorded] = observe(stack, connector, &log);
        assert_eq!(read_again, read, "same seed, same faults");
        assert_eq!(recorded, b"aaaa");
    }

    /// A base listener that replays a script of accept results.
    struct Scripted(VecDeque<io::Result<MemStream>>);

    impl Listener for Scripted {
        type Stream = MemStream;
        type Poller = MemPoller;

        fn try_accept(&mut self) -> io::Result<Option<MemStream>> {
            self.0.pop_front().transpose()
        }
        fn local_label(&self) -> String {
            "scripted".into()
        }
        fn new_poller() -> io::Result<MemPoller> {
            Ok(MemPoller::new())
        }
        fn register_listener(&self, _: &mut MemPoller) -> io::Result<()> {
            Ok(())
        }
        fn deregister_listener(&self, _: &mut MemPoller) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_layer_numbers_an_accept_the_same_across_a_real_accept_error() {
        // The base yields Ok, Err, Ok, Ok. Before `Layered` owned the
        // ordinal, the fault layer skipped the real error and the tap
        // counted it, so every later trace carried the next connection's
        // profile and index.
        let plan = FaultPlan {
            reset_per_mille: 500,
            corrupt_per_mille: 500,
            accept_fail_every: 4,
            ..FaultPlan::new(42)
        };
        let profiles: Vec<_> = (1..=4).map(|k| plan.profile_for(k)).collect();
        for (i, p) in profiles.iter().enumerate() {
            assert!(!profiles[..i].contains(p), "profiles must differ per index");
        }
        let server_end = || Ok(mem::pair("srv", "cli").0);
        let script = [
            server_end(),
            Err(io::Error::other("real accept failure")),
            server_end(),
            server_end(),
        ];
        let log = TraceLog::stamped(move |k| format!("{:?}", plan.profile_for(k)));
        let mut stack = tap::layer(fault::layer(Scripted(script.into()), plan), log.clone());

        let first = stack.try_accept().unwrap().unwrap();
        assert_eq!(
            stack.try_accept().unwrap_err().to_string(),
            "real accept failure"
        );
        let third = stack.try_accept().unwrap().unwrap();
        let fourth = stack.try_accept().unwrap_err();
        assert_eq!(
            fourth.kind(),
            io::ErrorKind::ConnectionAborted,
            "the plan's"
        );
        assert!(stack.try_accept().unwrap().is_none());
        assert_eq!((stack.accepted(), stack.inner.accepted()), (4, 4));

        // The profile each connection runs under is the one its trace is
        // stamped with, at the index both layers agree on.
        let traces = log.snapshot();
        assert_eq!(traces.len(), 2);
        for (stream, trace, k) in [(&first, &traces[0], 1), (&third, &traces[1], 3)] {
            assert_eq!(trace.accept_index, k);
            assert_eq!(stream.inner.hook().profile(), plan.profile_for(k));
            assert_eq!(trace.profile, format!("{:?}", plan.profile_for(k)));
        }
        // Failed ordinals: the real error's and the one the plan failed —
        // never an index a live connection carries.
        assert_eq!(log.accept_failures(), vec![2, 4]);
        assert!(plan.accept_fails(4) && !plan.accept_fails(2));
    }
}
