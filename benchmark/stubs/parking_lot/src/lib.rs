//! Stand-in for `parking_lot`: the subset the N-Server library crates
//! call (`Mutex`, `Condvar`, `RwLock`), over the standard library's
//! futex-based primitives. As in `parking_lot`, locks do not poison: a
//! guard recovered from a poisoned lock is handed out as is.

use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};
use std::time::{Duration, Instant};

/// Mutual exclusion without poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// RAII guard of [`Mutex`]. The inner guard is only ever absent while a
/// [`Condvar`] wait has it.
pub struct MutexGuard<'a, T: ?Sized>(Option<sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Self(sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard present outside a wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard present outside a wait")
    }
}

/// Whether a timed wait ran out of time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Condition variable taking the guard by `&mut`, as `parking_lot` does.
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    pub const fn new() -> Self {
        Self(sync::Condvar::new())
    }

    pub fn notify_one(&self) -> bool {
        self.0.notify_one();
        true
    }

    pub fn notify_all(&self) -> usize {
        self.0.notify_all();
        0
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard present outside a wait");
        guard.0 = Some(self.0.wait(inner).unwrap_or_else(PoisonError::into_inner));
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.0.take().expect("guard present outside a wait");
        let (inner, res) = self
            .0
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(inner);
        WaitTimeoutResult(res.timed_out())
    }

    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        self.wait_for(guard, deadline.saturating_duration_since(Instant::now()))
    }
}

/// Reader-writer lock without poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

pub type RwLockReadGuard<'a, T> = sync::RwLockReadGuard<'a, T>;
pub type RwLockWriteGuard<'a, T> = sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        Self(sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn condvar_hands_the_guard_back() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            *p2.0.lock() = true;
            p2.1.notify_all();
        });
        let mut g = pair.0.lock();
        while !*g {
            pair.1.wait(&mut g);
        }
        assert!(*g);
        drop(g);
        t.join().unwrap();
    }

    #[test]
    fn timed_wait_times_out_and_keeps_the_lock() {
        let m = Mutex::new(1u32);
        let cv = Condvar::new();
        let mut g = m.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(1)).timed_out());
        *g += 1;
        drop(g);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn a_panicking_holder_does_not_poison() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("holder dies");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }
}
