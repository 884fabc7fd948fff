//! Time-based framework behaviour, as two deadline trackers the
//! dispatcher loop sweeps (single consumer, so no locking is needed):
//! [`IdleTracker`] terminates long-idle connections (option O7:
//! "Long-idle connections may consume unnecessary resources and degrade
//! the performance of network server applications."), and
//! [`StageTracker`] enforces the per-stage deadlines (header read, reply
//! drain) that reclaim slow-loris and stalled-drain connections. Each
//! reports its `next_deadline`, which bounds the dispatcher's poll
//! timeout.

use std::time::{Duration, Instant};

/// Per-connection idle tracking for O7: records last activity and reports
/// which connections exceeded the idle limit on each sweep.
#[derive(Debug)]
pub struct IdleTracker {
    limit: Duration,
    last_activity: std::collections::HashMap<u64, Instant>,
}

impl IdleTracker {
    /// Track idleness against the given limit.
    pub fn new(limit: Duration) -> Self {
        Self {
            limit,
            last_activity: std::collections::HashMap::new(),
        }
    }

    /// Record activity (connect, read or write) on a connection.
    pub fn touch(&mut self, conn: u64, now: Instant) {
        self.last_activity.insert(conn, now);
    }

    /// Stop tracking a closed connection.
    pub fn forget(&mut self, conn: u64) {
        self.last_activity.remove(&conn);
    }

    /// Connections idle longer than the limit as of `now`. The returned
    /// connections are forgotten (the caller closes them).
    pub fn sweep(&mut self, now: Instant) -> Vec<u64> {
        let limit = self.limit;
        let expired: Vec<u64> = self
            .last_activity
            .iter()
            .filter(|(_, &t)| now.duration_since(t) > limit)
            .map(|(&c, _)| c)
            .collect();
        for c in &expired {
            self.last_activity.remove(c);
        }
        expired
    }

    /// The earliest instant at which some tracked connection becomes
    /// idle-expired, or `None` when nothing is tracked. The dispatcher
    /// uses this as its poll timeout so it sleeps exactly until the next
    /// sweep is due instead of waking on a fixed cadence.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.last_activity.values().min().map(|&t| t + self.limit)
    }

    /// Number of tracked connections.
    pub fn len(&self) -> usize {
        self.last_activity.len()
    }

    /// True when no connections are tracked.
    pub fn is_empty(&self) -> bool {
        self.last_activity.is_empty()
    }
}

/// Per-connection **stage** deadlines — the hardening companion to
/// [`IdleTracker`] driven by [`crate::options::StageDeadlines`].
///
/// The idle tracker is refreshed by *any* byte, so a slow-loris peer that
/// dribbles bytes keeps its connection alive forever. The stage tracker
/// instead bounds two specific pipeline stages:
///
/// * the **header-read window**: armed at accept and re-armed each time a
///   reply finishes flushing; it is *not* refreshed by partial reads, so a
///   connection that never completes a request expires;
/// * the **write-drain window**: armed while the outbox holds bytes the
///   peer refuses to read, cleared when the outbox drains.
///
/// Like the idle tracker it is dispatcher-local (single consumer, no
/// locking) and reports the earliest deadline so the dispatch loop can use
/// it as its poll timeout.
#[derive(Debug)]
pub struct StageTracker {
    header_limit: Option<Duration>,
    drain_limit: Option<Duration>,
    header: std::collections::HashMap<u64, Instant>,
    drain: std::collections::HashMap<u64, Instant>,
}

impl StageTracker {
    /// Track the given stage limits (`None` disables a stage).
    pub fn new(header_limit: Option<Duration>, drain_limit: Option<Duration>) -> Self {
        Self {
            header_limit,
            drain_limit,
            header: std::collections::HashMap::new(),
            drain: std::collections::HashMap::new(),
        }
    }

    /// Build from the options value; `None` when both stages are disabled.
    pub fn from_options(d: &crate::options::StageDeadlines) -> Option<Self> {
        if d.any() {
            Some(Self::new(
                d.header_read_ms.map(Duration::from_millis),
                d.write_drain_ms.map(Duration::from_millis),
            ))
        } else {
            None
        }
    }

    /// (Re-)arm the header-read window: the connection has until the
    /// deadline to deliver a complete request. Called at accept and after
    /// each completed reply.
    pub fn arm_header(&mut self, conn: u64, now: Instant) {
        if let Some(limit) = self.header_limit {
            self.header.insert(conn, now + limit);
        }
    }

    /// Disarm the header-read window (connection is closing or half-open).
    pub fn clear_header(&mut self, conn: u64) {
        self.header.remove(&conn);
    }

    /// Arm the write-drain window if not already armed: the peer has until
    /// the deadline to start consuming the queued reply bytes.
    pub fn arm_drain(&mut self, conn: u64, now: Instant) {
        if let Some(limit) = self.drain_limit {
            self.drain.entry(conn).or_insert(now + limit);
        }
    }

    /// The outbox drained: disarm the write-drain window.
    pub fn clear_drain(&mut self, conn: u64) {
        self.drain.remove(&conn);
    }

    /// Stop tracking a closed connection entirely.
    pub fn forget(&mut self, conn: u64) {
        self.header.remove(&conn);
        self.drain.remove(&conn);
    }

    /// Connections whose armed stage deadline has passed as of `now`. The
    /// returned connections are forgotten (the caller closes them).
    pub fn sweep(&mut self, now: Instant) -> Vec<u64> {
        let mut expired: Vec<u64> = self
            .header
            .iter()
            .chain(self.drain.iter())
            .filter(|(_, &d)| d <= now)
            .map(|(&c, _)| c)
            .collect();
        expired.sort_unstable();
        expired.dedup();
        for c in &expired {
            self.forget(*c);
        }
        expired
    }

    /// The earliest armed deadline across both stages, or `None` when
    /// nothing is armed.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.header
            .values()
            .chain(self.drain.values())
            .min()
            .copied()
    }

    /// Number of connections with at least one armed stage window.
    pub fn len(&self) -> usize {
        let mut ids: Vec<u64> = self
            .header
            .keys()
            .chain(self.drain.keys())
            .copied()
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// True when no stage window is armed.
    pub fn is_empty(&self) -> bool {
        self.header.is_empty() && self.drain.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_tracker_sweeps_only_expired() {
        let t0 = Instant::now();
        let mut it = IdleTracker::new(Duration::from_millis(100));
        it.touch(1, t0);
        it.touch(2, t0 + Duration::from_millis(80));
        let expired = it.sweep(t0 + Duration::from_millis(150));
        assert_eq!(expired, vec![1]);
        assert_eq!(it.len(), 1);
        // Touching resets idleness.
        it.touch(2, t0 + Duration::from_millis(160));
        assert!(it.sweep(t0 + Duration::from_millis(200)).is_empty());
        assert!(!it.is_empty());
    }

    #[test]
    fn idle_tracker_next_deadline_is_earliest_expiry() {
        let t0 = Instant::now();
        let mut it = IdleTracker::new(Duration::from_millis(100));
        assert!(it.next_deadline().is_none());
        it.touch(1, t0 + Duration::from_millis(50));
        it.touch(2, t0);
        assert_eq!(it.next_deadline(), Some(t0 + Duration::from_millis(100)));
        it.forget(2);
        assert_eq!(it.next_deadline(), Some(t0 + Duration::from_millis(150)));
    }

    #[test]
    fn idle_tracker_forget() {
        let t0 = Instant::now();
        let mut it = IdleTracker::new(Duration::from_millis(10));
        it.touch(1, t0);
        it.forget(1);
        assert!(it.sweep(t0 + Duration::from_secs(1)).is_empty());
    }

    #[test]
    fn stage_tracker_header_window_is_not_refreshed_by_partial_activity() {
        let t0 = Instant::now();
        let mut st = StageTracker::new(Some(Duration::from_millis(100)), None);
        st.arm_header(1, t0);
        // Unlike IdleTracker there is no touch-on-read: the window holds
        // from accept until a complete request, so a dribbling peer has no
        // way to extend it.
        assert!(st.sweep(t0 + Duration::from_millis(50)).is_empty());
        assert_eq!(st.sweep(t0 + Duration::from_millis(101)), vec![1]);
        assert!(st.is_empty());
    }

    #[test]
    fn stage_tracker_rearm_header_extends_the_window() {
        let t0 = Instant::now();
        let mut st = StageTracker::new(Some(Duration::from_millis(100)), None);
        st.arm_header(1, t0);
        // A completed reply re-arms the window for the next request.
        st.arm_header(1, t0 + Duration::from_millis(80));
        assert!(st.sweep(t0 + Duration::from_millis(120)).is_empty());
        assert_eq!(st.sweep(t0 + Duration::from_millis(181)), vec![1]);
    }

    #[test]
    fn stage_tracker_drain_window_arms_once_and_clears() {
        let t0 = Instant::now();
        let mut st = StageTracker::new(None, Some(Duration::from_millis(50)));
        st.arm_drain(2, t0);
        // Re-arming while already armed keeps the original deadline: a
        // stalled reader cannot extend its grace by accepting one byte.
        st.arm_drain(2, t0 + Duration::from_millis(40));
        assert_eq!(st.next_deadline(), Some(t0 + Duration::from_millis(50)));
        st.clear_drain(2);
        assert!(st.sweep(t0 + Duration::from_secs(1)).is_empty());
    }

    #[test]
    fn stage_tracker_next_deadline_spans_both_stages() {
        let t0 = Instant::now();
        let mut st = StageTracker::new(
            Some(Duration::from_millis(100)),
            Some(Duration::from_millis(30)),
        );
        st.arm_header(1, t0);
        st.arm_drain(2, t0);
        assert_eq!(st.next_deadline(), Some(t0 + Duration::from_millis(30)));
        assert_eq!(st.len(), 2);
        st.forget(2);
        assert_eq!(st.next_deadline(), Some(t0 + Duration::from_millis(100)));
        st.forget(1);
        assert!(st.next_deadline().is_none());
        assert!(st.is_empty());
    }

    #[test]
    fn stage_tracker_sweep_reports_a_connection_once() {
        let t0 = Instant::now();
        let mut st = StageTracker::new(
            Some(Duration::from_millis(10)),
            Some(Duration::from_millis(10)),
        );
        st.arm_header(3, t0);
        st.arm_drain(3, t0);
        assert_eq!(st.sweep(t0 + Duration::from_millis(20)), vec![3]);
        assert!(st.is_empty());
    }

    #[test]
    fn stage_tracker_from_options() {
        use crate::options::StageDeadlines;
        assert!(StageTracker::from_options(&StageDeadlines::NONE).is_none());
        let st = StageTracker::from_options(&StageDeadlines {
            header_read_ms: Some(5),
            write_drain_ms: None,
        })
        .unwrap();
        assert!(st.is_empty());
    }
}
