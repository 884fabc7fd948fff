//! The discrete-event engine: a time-ordered event heap and a run loop.
//!
//! Experiments define a [`Model`] with a single event enum; reusable
//! components ([`crate::Link`], [`crate::CpuPool`], …) are *passive* — they
//! compute completion times and the model schedules its own events at those
//! times. This keeps the engine free of trait objects and lifetimes while
//! still letting every experiment share the same substrate.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A simulation model: owns all world state and interprets events.
pub trait Model {
    /// The model's event type.
    type Ev;

    /// Handle one event at virtual time `now`, scheduling follow-ups.
    fn handle(&mut self, now: SimTime, ev: Self::Ev, sched: &mut Scheduler<Self::Ev>);
}

struct Scheduled<Ev> {
    time: SimTime,
    seq: u64,
    ev: Ev,
}

impl<Ev> PartialEq for Scheduled<Ev> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<Ev> Eq for Scheduled<Ev> {}
impl<Ev> PartialOrd for Scheduled<Ev> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<Ev> Ord for Scheduled<Ev> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        // Ties break by insertion sequence, making runs fully deterministic.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// The event queue plus virtual clock.
pub struct Scheduler<Ev> {
    heap: BinaryHeap<Scheduled<Ev>>,
    seq: u64,
    now: SimTime,
    processed: u64,
}

impl<Ev> Default for Scheduler<Ev> {
    fn default() -> Self {
        Self::new()
    }
}

impl<Ev> Scheduler<Ev> {
    /// Create an empty scheduler at time zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events dispatched so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Schedule `ev` at absolute time `t`. Scheduling in the past is a bug
    /// in the model; the event is clamped to `now` with a debug assertion.
    pub fn at(&mut self, t: SimTime, ev: Ev) {
        debug_assert!(t >= self.now, "scheduled event in the past");
        let time = t.max(self.now);
        self.heap.push(Scheduled {
            time,
            seq: self.seq,
            ev,
        });
        self.seq += 1;
    }

    /// Schedule `ev` after a relative `delay`.
    pub fn after(&mut self, delay: SimTime, ev: Ev) {
        let t = self.now + delay;
        self.at(t, ev);
    }

    fn pop(&mut self) -> Option<(SimTime, Ev)> {
        self.heap.pop().map(|s| (s.time, s.ev))
    }

    /// Run the model until the clock passes `end` or no events remain.
    /// Events scheduled exactly at `end` are still processed. Returns the
    /// number of events dispatched during this call.
    pub fn run_until<M: Model<Ev = Ev>>(&mut self, model: &mut M, end: SimTime) -> u64 {
        let start_count = self.processed;
        while let Some(&Scheduled { time, .. }) = self.heap.peek().map(|s| s as _) {
            if time > end {
                break;
            }
            let (time, ev) = self.pop().expect("peeked");
            debug_assert!(time >= self.now, "event heap delivered out of order");
            self.now = time;
            self.processed += 1;
            model.handle(time, ev, self);
        }
        self.now = self.now.max(end);
        self.processed - start_count
    }

    /// Run the model to event-queue exhaustion. Returns events dispatched.
    pub fn run_to_completion<M: Model<Ev = Ev>>(&mut self, model: &mut M) -> u64 {
        self.run_until(model, SimTime(u64::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that records the order in which events arrive.
    struct Recorder {
        seen: Vec<(u64, u32)>, // (time µs, tag)
    }

    enum Ev {
        Tag(u32),
        Chain(u32, u64), // tag, respawn delay µs
    }

    impl Model for Recorder {
        type Ev = Ev;
        fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
            match ev {
                Ev::Tag(t) => self.seen.push((now.as_micros(), t)),
                Ev::Chain(t, delay) => {
                    self.seen.push((now.as_micros(), t));
                    if t > 0 {
                        sched.after(SimTime::from_micros(delay), Ev::Chain(t - 1, delay));
                    }
                }
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut m = Recorder { seen: vec![] };
        let mut s = Scheduler::new();
        s.at(SimTime::from_micros(30), Ev::Tag(3));
        s.at(SimTime::from_micros(10), Ev::Tag(1));
        s.at(SimTime::from_micros(20), Ev::Tag(2));
        s.run_to_completion(&mut m);
        assert_eq!(m.seen, vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut m = Recorder { seen: vec![] };
        let mut s = Scheduler::new();
        s.at(SimTime::from_micros(5), Ev::Tag(1));
        s.at(SimTime::from_micros(5), Ev::Tag(2));
        s.at(SimTime::from_micros(5), Ev::Tag(3));
        s.run_to_completion(&mut m);
        assert_eq!(m.seen, vec![(5, 1), (5, 2), (5, 3)]);
    }

    #[test]
    fn chained_scheduling_advances_clock() {
        let mut m = Recorder { seen: vec![] };
        let mut s = Scheduler::new();
        s.at(SimTime::ZERO, Ev::Chain(3, 100));
        let n = s.run_to_completion(&mut m);
        assert_eq!(n, 4);
        assert_eq!(m.seen, vec![(0, 3), (100, 2), (200, 1), (300, 0)]);
        assert_eq!(s.processed(), 4);
    }

    #[test]
    fn run_until_stops_at_horizon_inclusive() {
        let mut m = Recorder { seen: vec![] };
        let mut s = Scheduler::new();
        s.at(SimTime::from_micros(10), Ev::Tag(1));
        s.at(SimTime::from_micros(20), Ev::Tag(2));
        s.at(SimTime::from_micros(21), Ev::Tag(3));
        let n = s.run_until(&mut m, SimTime::from_micros(20));
        assert_eq!(n, 2);
        assert_eq!(s.pending(), 1);
        assert_eq!(s.now(), SimTime::from_micros(20));
        // Resuming picks up the rest.
        s.run_to_completion(&mut m);
        assert_eq!(m.seen.len(), 3);
    }

    #[test]
    fn clock_is_monotone_even_with_empty_heap() {
        let mut m = Recorder { seen: vec![] };
        let mut s: Scheduler<Ev> = Scheduler::new();
        s.run_until(&mut m, SimTime::from_secs(5));
        assert_eq!(s.now(), SimTime::from_secs(5));
    }
}
