//! A shared-bandwidth FIFO link with MTU framing.
//!
//! Models the testbed's bottleneck: "a switched Gigabit Ethernet connects
//! the clients and servers. The maximal packet size of the Ethernet switch
//! is 1500 bytes … the actual network bandwidth is limited to something
//! slightly higher than 100 MBits/sec". The link is a fluid store-and-
//! forward pipe: each message is serialized at link rate behind everything
//! queued before it, so saturation produces realistic queueing delay growth.

use crate::rng::SimRng;
use crate::time::SimTime;

/// Seeded per-message fault injection on a link: drops (modelled as one
/// lost copy recovered by a retransmission timeout) and transient extra
/// delay. Deterministic — the same seed reproduces the same loss pattern.
#[derive(Debug, Clone)]
struct LinkFaults {
    rng: SimRng,
    drop_per_mille: u16,
    delay_per_mille: u16,
    extra_delay: SimTime,
    retransmit_timeout: SimTime,
}

/// Shared FIFO link.
#[derive(Debug, Clone)]
pub struct Link {
    bits_per_sec: u64,
    /// Per-packet protocol overhead in bytes (Ethernet + IP + TCP headers).
    header_bytes: u64,
    /// Maximum payload bytes per packet (MTU minus headers).
    payload_per_packet: u64,
    /// One-way propagation + switching latency added to every message.
    propagation: SimTime,
    busy_until: SimTime,
    busy_accum_us: u64,
    bytes_carried: u64,
    messages: u64,
    faults: Option<LinkFaults>,
    messages_dropped: u64,
    messages_delayed: u64,
}

impl Link {
    /// A link with the given line rate, 1500-byte MTU and 40-byte headers.
    pub fn new(bits_per_sec: u64) -> Self {
        Self::with_frame(bits_per_sec, 1500, 40, SimTime::from_micros(100))
    }

    /// Fully parameterised construction: `mtu` is the maximal packet size,
    /// `header_bytes` the per-packet overhead (payload per packet is
    /// `mtu - header_bytes`), `propagation` the one-way latency.
    pub fn with_frame(
        bits_per_sec: u64,
        mtu: u64,
        header_bytes: u64,
        propagation: SimTime,
    ) -> Self {
        assert!(bits_per_sec > 0, "link needs positive bandwidth");
        assert!(mtu > header_bytes, "MTU must exceed header size");
        Self {
            bits_per_sec,
            header_bytes,
            payload_per_packet: mtu - header_bytes,
            propagation,
            busy_until: SimTime::ZERO,
            busy_accum_us: 0,
            bytes_carried: 0,
            messages: 0,
            faults: None,
            messages_dropped: 0,
            messages_delayed: 0,
        }
    }

    /// Enable seeded fault injection: each message is independently
    /// dropped (losing one serialized copy and paying `retransmit_timeout`
    /// before the retransmission) with probability `drop_per_mille`/1000,
    /// or delayed by `extra_delay` with probability `delay_per_mille`/1000.
    /// With both incidences zero the link behaves identically to a
    /// fault-free one.
    pub fn with_faults(
        mut self,
        seed: u64,
        drop_per_mille: u16,
        delay_per_mille: u16,
        extra_delay: SimTime,
        retransmit_timeout: SimTime,
    ) -> Self {
        self.faults = Some(LinkFaults {
            rng: SimRng::new(seed),
            drop_per_mille,
            delay_per_mille,
            extra_delay,
            retransmit_timeout,
        });
        self
    }

    /// Bytes actually put on the wire for a payload of `payload` bytes,
    /// including per-packet headers (a zero-byte message still costs one
    /// packet — e.g. a bare ACK or SYN).
    pub fn wire_bytes(&self, payload: u64) -> u64 {
        let packets = payload.div_ceil(self.payload_per_packet).max(1);
        payload + packets * self.header_bytes
    }

    /// Transmission (serialization) time for a payload, excluding queueing
    /// and propagation.
    pub fn tx_time(&self, payload: u64) -> SimTime {
        let bits = self.wire_bytes(payload) * 8;
        SimTime::from_micros(bits * 1_000_000 / self.bits_per_sec)
    }

    /// Enqueue a message at `now`; returns its arrival time at the far end
    /// (queueing + serialization + propagation, plus any injected fault
    /// penalty: a dropped message serializes twice around a retransmission
    /// timeout, a delayed one arrives `extra_delay` late).
    pub fn send(&mut self, now: SimTime, payload: u64) -> SimTime {
        let start = self.busy_until.max(now);
        let tx = self.tx_time(payload);
        let mut occupancy = tx;
        let mut extra = SimTime::ZERO;
        if let Some(f) = &mut self.faults {
            let roll = f.rng.below(1000) as u16;
            if roll < f.drop_per_mille {
                // The lost copy occupied the wire too, and FIFO ordering
                // holds subsequent messages behind the retransmission.
                occupancy = occupancy + f.retransmit_timeout + tx;
                self.busy_accum_us += tx.as_micros();
                self.messages_dropped += 1;
            } else if roll < f.drop_per_mille.saturating_add(f.delay_per_mille) {
                extra = f.extra_delay;
                self.messages_delayed += 1;
            }
        }
        self.busy_until = start + occupancy;
        self.busy_accum_us += tx.as_micros();
        self.bytes_carried += payload;
        self.messages += 1;
        self.busy_until + self.propagation + extra
    }

    /// How long a message enqueued at `now` would wait before its first bit
    /// is transmitted.
    pub fn queue_delay(&self, now: SimTime) -> SimTime {
        self.busy_until.saturating_sub(now)
    }

    /// Fraction of `elapsed` time the link spent transmitting.
    pub fn utilization(&self, elapsed: SimTime) -> f64 {
        if elapsed == SimTime::ZERO {
            0.0
        } else {
            self.busy_accum_us as f64 / elapsed.as_micros() as f64
        }
    }

    /// Total payload bytes carried.
    pub fn bytes_carried(&self) -> u64 {
        self.bytes_carried
    }

    /// Total messages carried.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Messages that lost their first copy to injected faults.
    pub fn messages_dropped(&self) -> u64 {
        self.messages_dropped
    }

    /// Messages delivered late due to injected faults.
    pub fn messages_delayed(&self) -> u64 {
        self.messages_delayed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbit(n: u64) -> u64 {
        n * 1_000_000
    }

    #[test]
    fn wire_bytes_includes_per_packet_headers() {
        let l = Link::new(mbit(100));
        // 1460 payload = 1 packet = 1500 wire bytes.
        assert_eq!(l.wire_bytes(1460), 1500);
        // 1461 payload = 2 packets.
        assert_eq!(l.wire_bytes(1461), 1461 + 80);
        // Empty message still costs one header.
        assert_eq!(l.wire_bytes(0), 40);
    }

    #[test]
    fn tx_time_matches_line_rate() {
        let l = Link::new(mbit(100));
        // 1500 wire bytes at 100 Mbit/s = 120 µs.
        assert_eq!(l.tx_time(1460), SimTime::from_micros(120));
    }

    #[test]
    fn fifo_queueing_serializes_messages() {
        let mut l = Link::with_frame(mbit(100), 1500, 40, SimTime::ZERO);
        let t1 = l.send(SimTime::ZERO, 1460);
        let t2 = l.send(SimTime::ZERO, 1460);
        assert_eq!(t1, SimTime::from_micros(120));
        assert_eq!(t2, SimTime::from_micros(240));
        assert_eq!(l.queue_delay(SimTime::ZERO), SimTime::from_micros(240));
    }

    #[test]
    fn idle_link_has_no_queue_delay() {
        let mut l = Link::with_frame(mbit(100), 1500, 40, SimTime::ZERO);
        l.send(SimTime::ZERO, 1460);
        assert_eq!(l.queue_delay(SimTime::from_millis(5)), SimTime::ZERO);
        let t = l.send(SimTime::from_millis(5), 1460);
        assert_eq!(t, SimTime::from_micros(5120));
    }

    #[test]
    fn propagation_adds_to_arrival_not_occupancy() {
        let mut l = Link::with_frame(mbit(100), 1500, 40, SimTime::from_millis(1));
        let t1 = l.send(SimTime::ZERO, 1460);
        assert_eq!(t1, SimTime::from_micros(120) + SimTime::from_millis(1));
        // Second message queues behind serialization only, not propagation.
        let t2 = l.send(SimTime::ZERO, 1460);
        assert_eq!(t2, SimTime::from_micros(240) + SimTime::from_millis(1));
    }

    #[test]
    fn utilization_and_counters() {
        let mut l = Link::with_frame(mbit(100), 1500, 40, SimTime::ZERO);
        l.send(SimTime::ZERO, 1460);
        l.send(SimTime::ZERO, 1460);
        assert_eq!(l.bytes_carried(), 2920);
        assert_eq!(l.messages(), 2);
        let u = l.utilization(SimTime::from_micros(480));
        assert!((u - 0.5).abs() < 1e-9, "utilization {u}");
    }

    #[test]
    fn injected_drops_delay_arrival_and_are_deterministic() {
        let faulty = || {
            Link::with_frame(mbit(100), 1500, 40, SimTime::ZERO).with_faults(
                11,
                500,
                0,
                SimTime::ZERO,
                SimTime::from_millis(1),
            )
        };
        let run = |mut l: Link| {
            let mut arrivals = Vec::new();
            for i in 0..50 {
                arrivals.push(l.send(SimTime::from_micros(i * 500), 1460));
            }
            (arrivals, l.messages_dropped())
        };
        let (a1, d1) = run(faulty());
        let (a2, d2) = run(faulty());
        assert_eq!(a1, a2, "same seed must reproduce the same schedule");
        assert_eq!(d1, d2);
        assert!(d1 > 0, "50% drop incidence over 50 messages");

        // The same offered load over a clean link finishes earlier.
        let (clean, _) = run(Link::with_frame(mbit(100), 1500, 40, SimTime::ZERO));
        assert!(a1.last().unwrap() > clean.last().unwrap());
    }

    #[test]
    fn injected_delay_postpones_arrival_without_occupancy() {
        let mut l = Link::with_frame(mbit(100), 1500, 40, SimTime::ZERO).with_faults(
            5,
            0,
            1000,
            SimTime::from_millis(3),
            SimTime::ZERO,
        );
        let t = l.send(SimTime::ZERO, 1460);
        assert_eq!(t, SimTime::from_micros(120) + SimTime::from_millis(3));
        assert_eq!(l.messages_delayed(), 1);
        // Occupancy excludes the delay: the next message queues only
        // behind serialization.
        assert_eq!(l.queue_delay(SimTime::ZERO), SimTime::from_micros(120));
    }

    #[test]
    fn zero_incidence_faults_match_clean_link_exactly() {
        let mut clean = Link::with_frame(mbit(100), 1500, 40, SimTime::ZERO);
        let mut quiet = Link::with_frame(mbit(100), 1500, 40, SimTime::ZERO).with_faults(
            1,
            0,
            0,
            SimTime::ZERO,
            SimTime::ZERO,
        );
        for i in 0..20 {
            let now = SimTime::from_micros(i * 70);
            assert_eq!(clean.send(now, 1200), quiet.send(now, 1200));
        }
        assert_eq!(quiet.messages_dropped(), 0);
        assert_eq!(quiet.messages_delayed(), 0);
    }

    #[test]
    fn saturation_grows_queue_delay_linearly() {
        let mut l = Link::with_frame(mbit(100), 1500, 40, SimTime::ZERO);
        // Offer 2x capacity for a while.
        let mut last = SimTime::ZERO;
        for i in 0..100 {
            let now = SimTime::from_micros(i * 60); // every 60µs, 120µs each
            last = l.send(now, 1460);
        }
        // Arrival of last message far exceeds its enqueue time.
        assert!(last > SimTime::from_micros(100 * 60 + 120 * 10));
    }
}
