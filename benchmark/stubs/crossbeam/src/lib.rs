//! Stand-in for `crossbeam`: only `crossbeam::channel::unbounded`, as a
//! multi-producer multi-consumer queue under one mutex and condition
//! variable. The published crate's channel is lock-free; this one is
//! not, which is part of why the benchmark's numbers compare commits
//! and are not absolutes (see the benchmark README, "Build").

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        ready: Condvar,
    }

    impl<T> Shared<T> {
        // Every update keeps `State` valid at each step, so a poisoned
        // guard is safe to recover.
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// The value could not be sent: every receiver is gone.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// The channel is empty and every sender is gone.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    pub struct Sender<T>(Arc<Shared<T>>);
    pub struct Receiver<T>(Arc<Shared<T>>);

    /// A channel of unbounded capacity.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            ready: Condvar::new(),
        });
        (Sender(Arc::clone(&shared)), Receiver(shared))
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.0.lock();
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            st.queue.push_back(value);
            drop(st);
            self.0.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.0.lock();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                self.0.ready.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> Receiver<T> {
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.0.lock();
            match st.queue.pop_front() {
                Some(v) => Ok(v),
                None if st.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.0.lock();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self
                    .0
                    .ready
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Everything queued right now, without blocking.
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter(self)
        }
    }

    pub struct TryIter<'a, T>(&'a Receiver<T>);

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.0.try_recv().ok()
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.lock().receivers += 1;
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.0.lock();
            st.receivers -= 1;
            if st.receivers == 0 {
                // As the published crate does: undelivered messages die
                // with the last receiver, not with the last sender.
                let orphaned = std::mem::take(&mut st.queue);
                drop(st);
                drop(orphaned);
            }
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fifo_across_cloned_ends() {
            let (tx, rx) = unbounded();
            let tx2 = tx.clone();
            tx.send(1).unwrap();
            tx2.send(2).unwrap();
            let rx2 = rx.clone();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx2.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnects_are_seen_from_both_ends() {
            let (tx, rx) = unbounded::<u8>();
            drop(rx);
            assert_eq!(tx.send(1), Err(SendError(1)));

            let (tx, rx) = unbounded();
            tx.send(9u8).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(9), "queued values outlive the senders");
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn a_parked_receiver_is_woken_by_send_and_by_disconnect() {
            let (tx, rx) = unbounded();
            let t = std::thread::spawn(move || (rx.recv(), rx.recv()));
            tx.send(5).unwrap();
            drop(tx);
            assert_eq!(t.join().unwrap(), (Ok(5), Err(RecvError)));
        }
    }
}
