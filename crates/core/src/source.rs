//! Event Sources — the Decorator-composed participant the N-Server adds
//! to the Reactor (paper §IV):
//!
//! > "events may arise from multiple sources, such as I/O ports, timers,
//! > or other application components. Different event sources have
//! > different characteristics, and therefore, they should be managed
//! > separately. Because it's not possible to anticipate and include all
//! > the event sources, there should be an effective mechanism for new
//! > event sources to be added. In view of these problems, an Event
//! > Source component that complies with the Decorator pattern is added."
//!
//! The network dispatcher in [`crate::reactor`] specialises this
//! machinery inline for sockets (the paper's deliberate
//! generality-for-efficiency trade). The generic form here is what the
//! pattern reduces to *without* the network specialisation — "a template
//! that instantiates the Reactor design pattern … used for many types of
//! applications, such as event-driven simulations and graphical user
//! interface frameworks" — and it powers the [`GenericReactor`] driver.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::event::Priority;

/// An application-level event produced by a source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceEvent<T> {
    /// Which registered source produced it.
    pub source: &'static str,
    /// Scheduling priority.
    pub priority: Priority,
    /// Payload.
    pub payload: T,
}

/// A pollable event source.
pub trait EventSource<T>: Send {
    /// Stable source name (used for registration and tracing).
    fn name(&self) -> &'static str;
    /// Collect the events that are ready right now.
    fn poll(&mut self, now: Instant) -> Vec<SourceEvent<T>>;
}

/// A source fed by other threads through a channel ("other application
/// components" in the paper's enumeration).
pub struct ChannelSource<T> {
    name: &'static str,
    priority: Priority,
    rx: Receiver<T>,
}

impl<T: Send> ChannelSource<T> {
    /// Create the source plus the sender handle producers use.
    pub fn new(name: &'static str, priority: Priority) -> (Self, Sender<T>) {
        let (tx, rx) = channel();
        (Self { name, priority, rx }, tx)
    }
}

impl<T: Send> EventSource<T> for ChannelSource<T> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn poll(&mut self, _now: Instant) -> Vec<SourceEvent<T>> {
        self.rx
            .try_iter()
            .map(|payload| SourceEvent {
                source: self.name,
                priority: self.priority,
                payload,
            })
            .collect()
    }
}

/// A periodic timer source.
pub struct TickSource<T: Clone> {
    name: &'static str,
    period: Duration,
    next: Instant,
    payload: T,
    priority: Priority,
}

impl<T: Clone + Send> TickSource<T> {
    /// Fire `payload` every `period`, starting one period from `now`.
    pub fn new(name: &'static str, period: Duration, payload: T, now: Instant) -> Self {
        Self {
            name,
            period,
            next: now + period,
            payload,
            priority: Priority::HIGHEST,
        }
    }
}

impl<T: Clone + Send> EventSource<T> for TickSource<T> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn poll(&mut self, now: Instant) -> Vec<SourceEvent<T>> {
        let mut out = Vec::new();
        while self.next <= now {
            out.push(SourceEvent {
                source: self.name,
                priority: self.priority,
                payload: self.payload.clone(),
            });
            self.next += self.period;
        }
        out
    }
}

/// The Decorator composition: a source that manages other sources —
/// registering, deregistering, and polling them in registration order.
pub struct CompositeSource<T> {
    sources: Vec<Box<dyn EventSource<T>>>,
}

impl<T> Default for CompositeSource<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CompositeSource<T> {
    /// An empty composite.
    pub fn new() -> Self {
        Self {
            sources: Vec::new(),
        }
    }

    /// Register a source (decorating the composite with one more layer).
    pub fn register(&mut self, source: Box<dyn EventSource<T>>) {
        self.sources.push(source);
    }

    /// Deregister by name; returns whether a source was removed.
    pub fn deregister(&mut self, name: &str) -> bool {
        let before = self.sources.len();
        self.sources.retain(|s| s.name() != name);
        self.sources.len() != before
    }

    /// Registered source count.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// True when no sources are registered.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }
}

impl<T: Send> EventSource<T> for CompositeSource<T> {
    fn name(&self) -> &'static str {
        "composite"
    }

    fn poll(&mut self, now: Instant) -> Vec<SourceEvent<T>> {
        let mut out = Vec::new();
        for s in &mut self.sources {
            out.extend(s.poll(now));
        }
        out
    }
}

/// A registered event handler.
pub type SourceHandler<T> = Arc<dyn Fn(SourceEvent<T>) + Send + Sync>;

/// Handler registry + dispatch loop over a composite source: the plain
/// Reactor the N-Server template degenerates to without its network
/// specialisation. Suitable for event-driven simulations, UI loops, etc.
pub struct GenericReactor<T> {
    source: CompositeSource<T>,
    handlers: HashMap<&'static str, SourceHandler<T>>,
    dispatched: u64,
}

impl<T: Send> Default for GenericReactor<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send> GenericReactor<T> {
    /// An empty reactor.
    pub fn new() -> Self {
        Self {
            source: CompositeSource::new(),
            handlers: HashMap::new(),
            dispatched: 0,
        }
    }

    /// Register a source together with the Event Handler for its events.
    pub fn register(
        &mut self,
        source: Box<dyn EventSource<T>>,
        handler: impl Fn(SourceEvent<T>) + Send + Sync + 'static,
    ) {
        self.handlers.insert(source.name(), Arc::new(handler));
        self.source.register(source);
    }

    /// Deregister a source and its handler.
    pub fn deregister(&mut self, name: &str) -> bool {
        self.handlers.remove(name);
        self.source.deregister(name)
    }

    /// One demultiplex-and-dispatch iteration; returns events dispatched.
    pub fn poll_once(&mut self, now: Instant) -> usize {
        let events = self.source.poll(now);
        let n = events.len();
        for ev in events {
            if let Some(h) = self.handlers.get(ev.source) {
                h(ev);
                self.dispatched += 1;
            }
        }
        n
    }

    /// Total events dispatched to handlers.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }
}

/// Shared collector used by tests/examples as a trivial handler target.
pub type Collected<T> = Arc<Mutex<Vec<T>>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_source_delivers_in_order() {
        let (mut src, tx) = ChannelSource::new("chan", Priority(1));
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let evs = src.poll(Instant::now());
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].payload, 1);
        assert_eq!(evs[1].payload, 2);
        assert_eq!(evs[0].priority, Priority(1));
        assert_eq!(evs[0].source, "chan");
        assert!(src.poll(Instant::now()).is_empty());
    }

    #[test]
    fn tick_source_fires_per_period() {
        let t0 = Instant::now();
        let mut src = TickSource::new("tick", Duration::from_millis(10), "t", t0);
        assert!(src.poll(t0).is_empty());
        assert_eq!(src.poll(t0 + Duration::from_millis(10)).len(), 1);
        // 35ms total elapsed -> ticks at 10,20,30 -> two more.
        assert_eq!(src.poll(t0 + Duration::from_millis(35)).len(), 2);
    }

    #[test]
    fn composite_polls_all_registered_sources() {
        let t0 = Instant::now();
        let (chan, tx) = ChannelSource::new("chan", Priority(0));
        let tick = TickSource::new("tick", Duration::from_millis(5), 99, t0);
        let mut composite = CompositeSource::new();
        composite.register(Box::new(chan));
        composite.register(Box::new(tick));
        assert_eq!(composite.len(), 2);
        tx.send(7).unwrap();
        let evs = composite.poll(t0 + Duration::from_millis(5));
        let names: Vec<&str> = evs.iter().map(|e| e.source).collect();
        assert_eq!(names, vec!["chan", "tick"]);
    }

    #[test]
    fn deregistering_removes_a_layer() {
        let (chan, tx) = ChannelSource::<u32>::new("chan", Priority(0));
        let mut composite = CompositeSource::new();
        composite.register(Box::new(chan));
        assert!(composite.deregister("chan"));
        assert!(!composite.deregister("chan"));
        assert!(composite.is_empty());
        // The receiver is gone with the source; sends now fail cleanly.
        assert!(tx.send(1).is_err());
        assert!(composite.poll(Instant::now()).is_empty());
    }

    #[test]
    fn generic_reactor_dispatches_to_matching_handlers() {
        let t0 = Instant::now();
        let mut reactor = GenericReactor::new();
        let seen: Collected<(String, u32)> = Arc::new(Mutex::new(Vec::new()));

        let (chan_a, tx_a) = ChannelSource::new("a", Priority(0));
        let (chan_b, tx_b) = ChannelSource::new("b", Priority(0));
        let s1 = Arc::clone(&seen);
        reactor.register(Box::new(chan_a), move |ev| {
            s1.lock().push(("a".into(), ev.payload));
        });
        let s2 = Arc::clone(&seen);
        reactor.register(Box::new(chan_b), move |ev| {
            s2.lock().push(("b".into(), ev.payload));
        });

        tx_a.send(1).unwrap();
        tx_b.send(2).unwrap();
        tx_a.send(3).unwrap();
        let n = reactor.poll_once(t0);
        assert_eq!(n, 3);
        assert_eq!(reactor.dispatched(), 3);
        let got = seen.lock().clone();
        assert!(got.contains(&("a".into(), 1)));
        assert!(got.contains(&("b".into(), 2)));
        assert!(got.contains(&("a".into(), 3)));
    }

    #[test]
    fn generic_reactor_deregistration_stops_dispatch() {
        let mut reactor = GenericReactor::new();
        let seen: Collected<u32> = Arc::new(Mutex::new(Vec::new()));
        let (chan, tx) = ChannelSource::new("c", Priority(0));
        let s = Arc::clone(&seen);
        reactor.register(Box::new(chan), move |ev| s.lock().push(ev.payload));
        tx.send(1).unwrap();
        reactor.poll_once(Instant::now());
        assert!(reactor.deregister("c"));
        let _ = tx.send(2); // receiver dropped with the source
        reactor.poll_once(Instant::now());
        assert_eq!(&*seen.lock(), &vec![1]);
    }

    #[test]
    fn events_without_handlers_are_counted_but_dropped() {
        let mut reactor = GenericReactor::new();
        let (chan, tx) = ChannelSource::<u32>::new("c", Priority(0));
        // Register source directly on the composite via register + then
        // deregister only the handler path: simulate by registering and
        // deregistering, then re-adding the bare source.
        reactor.register(Box::new(chan), |_| {});
        reactor.deregister("c");
        let _ = tx.send(5); // receiver dropped with the source
        let n = reactor.poll_once(Instant::now());
        assert_eq!(n, 0, "source removed entirely");
        assert_eq!(reactor.dispatched(), 0);
    }
}
