//! A server stepped on the calling thread, on a virtual clock.
//!
//! [`ServerBuilder::stepped`](crate::server::ServerBuilder::stepped) builds
//! the parts `serve` builds — engine, pools, dispatchers — and hands them
//! to a [`Stepped`] instead of to threads. Nothing runs until the caller
//! says so: [`Stepped::settle`] runs every dispatcher's pass (the body of
//! the Reactor loop) and every pool's queued jobs until none has work,
//! and [`Stepped::advance`] moves the clock the passes read. Between two
//! calls the server is still, so what it does depends only on what the
//! caller did in between.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use crate::pipeline::{Codec, Service};
use crate::reactor::Dispatcher;
use crate::server::ServerHandle;
use crate::transport::Listener;

/// A server assembled and not yet running: its handle and dispatchers.
pub(crate) type Parts<C, S, L> = (ServerHandle<C, S>, Vec<Dispatcher<C, S, L>>);

/// The rounds one [`Stepped::settle`] may take.
const ROUNDS: usize = 10_000;

/// A server whose dispatchers and pools run on the calling thread, only
/// when told to, and read a virtual clock: a base `Instant` plus an
/// offset. Its pools start no thread: a pool's queued jobs run, one at a
/// time and in queue order, on one scoped thread per round (so a job
/// still runs off the dispatcher's thread). No watchdog is started.
/// Dropping it closes every connection it holds, as a dispatcher does
/// when it stops.
pub struct Stepped<C: Codec, S: Service<C>, L: Listener> {
    server: ServerHandle<C, S>,
    dispatchers: Vec<Dispatcher<C, S, L>>,
    base: Instant,
    offset: Duration,
    /// What each dispatcher's last pass returned: the time left to its
    /// next deadline.
    sleeps: Vec<Option<Duration>>,
}

impl<C: Codec, S: Service<C>, L: Listener> Stepped<C, S, L> {
    pub(crate) fn new((server, mut dispatchers): Parts<C, S, L>) -> Self {
        for d in &mut dispatchers {
            d.attach();
        }
        Self {
            server,
            sleeps: vec![None; dispatchers.len()],
            dispatchers,
            base: Instant::now(),
            offset: Duration::ZERO,
        }
    }

    /// Run the server until it is still. A round is, for each dispatcher
    /// in index order, a wait that does not block and a pass at the
    /// clock's reading; then the pools run what is queued. Rounds repeat
    /// until one in which no wait reported readiness, no pass left a
    /// backlog, no job ran and nothing woke a dispatcher.
    ///
    /// # Panics
    ///
    /// When 10,000 rounds leave it with work: some pass or job makes work
    /// for the next round forever.
    pub fn settle(&mut self) {
        let now = self.base + self.offset;
        let (engine, processor) = (&self.server.engine, &self.server.processor);
        let woken = || engine.syscalls.wakes.load(Ordering::Relaxed);
        let mut last = (false, 0, 0);
        for _ in 0..ROUNDS {
            let (wakes, mut busy) = (woken(), false);
            for (d, sleep) in self.dispatchers.iter_mut().zip(&mut self.sleeps) {
                // The dispatchers share this thread: each one's notifies
                // about its own connections are dropped, as on its own.
                d.notifier.adopt_thread(d.index);
                busy |= d.wait(Some(Duration::ZERO));
                *sleep = d.pass(|| now);
                busy |= *sleep == Some(Duration::ZERO);
            }
            let jobs = processor.as_ref().map_or(0, |p| p.run_queued())
                + engine.helper.as_ref().map_or(0, |h| h.run_queued());
            last = (busy, jobs, woken() - wakes);
            if last == (false, 0, 0) {
                return;
            }
        }
        let (ready, jobs, wakes) = last;
        panic!(
            "a stepped server still had work after {ROUNDS} rounds; in the last one a source \
             was ready or a backlog left: {ready}, jobs run: {jobs}, dispatchers woken: {wakes}"
        );
    }

    /// Move the clock `by` forward, settling at each deadline on the way
    /// (the earliest time left the last passes returned) and at the end.
    pub fn advance(&mut self, by: Duration) {
        let until = self.offset + by;
        while let Some(&left) = self.sleeps.iter().flatten().min() {
            if self.offset + left >= until {
                break;
            }
            self.offset += left;
            self.settle();
        }
        self.offset = until;
        self.settle();
    }

    /// How far the clock has been advanced.
    pub fn elapsed(&self) -> Duration {
        self.offset
    }
}

impl<C: Codec, S: Service<C>, L: Listener> Drop for Stepped<C, S, L> {
    fn drop(&mut self) {
        for d in &mut self.dispatchers {
            d.notifier.adopt_thread(d.index);
            d.finish();
        }
        // The calling thread is no dispatcher's any more.
        self.server.notifier.adopt_thread(usize::MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{DispatcherThreads, ServerOptions};
    use crate::pipeline::{Action, ConnCtx, RawCodec};
    use crate::server::ServerBuilder;
    use crate::transport::{mem, ReadOutcome, StreamIo};

    struct Echo;

    impl Service<RawCodec> for Echo {
        fn handle(&self, _ctx: &ConnCtx, req: Vec<u8>) -> Action<Vec<u8>> {
            Action::Reply(req)
        }
    }

    /// Whatever the server sent, and whether its FIN followed.
    fn received(c: &mut mem::MemStream) -> (Vec<u8>, bool) {
        let (mut got, mut buf) = (Vec::new(), [0u8; 64]);
        loop {
            match c.try_read(&mut buf).unwrap() {
                ReadOutcome::Data(n) => got.extend_from_slice(&buf[..n]),
                ReadOutcome::WouldBlock => return (got, false),
                ReadOutcome::Closed => return (got, true),
            }
        }
    }

    /// Two dispatchers, every event on the pool: each connection is
    /// answered by one settle, and closed idle (O7) by the advance that
    /// passes its deadline, not by one that stops short of it.
    #[test]
    fn advance_settles_at_each_deadline_on_the_way() {
        let (listener, connector) = mem::listener("stepped-advance");
        let opts = ServerOptions {
            dispatcher_threads: DispatcherThreads::Multi(2),
            idle_shutdown_ms: Some(50),
            ..ServerOptions::default()
        };
        let mut server = ServerBuilder::new(opts, RawCodec, Echo)
            .unwrap()
            .stepped(listener);
        let mut clients = [connector.connect(), connector.connect()];
        for c in &mut clients {
            c.try_write(b"hi").unwrap();
        }
        server.settle();
        for c in &mut clients {
            assert_eq!(received(c), (b"hi".to_vec(), false));
        }
        server.advance(Duration::from_millis(49));
        assert!(clients.iter_mut().all(|c| !received(c).1), "closed early");
        server.advance(Duration::from_millis(100));
        assert!(
            clients.iter_mut().all(|c| received(c).1),
            "idle, not closed"
        );
        assert_eq!(server.elapsed(), Duration::from_millis(149));
    }
}
