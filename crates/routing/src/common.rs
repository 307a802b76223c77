//! Shared routing building blocks.

use manet_netsim::telemetry::TelemetryEvent;
use manet_netsim::FxHashMap;
use manet_netsim::SimTime;
use manet_netsim::{Ctx, DropReason};
use manet_wire::{BroadcastId, DataPacket, NodeId};
use std::collections::VecDeque;

/// Record a routing-layer data-packet drop through the unified accounting:
/// bump the recorder's per-reason drop counter and, when telemetry is
/// enabled, emit a structured `drop` event (plus a provenance hop if this is
/// the traced packet).  The `conn` field is attached only when the packet
/// carries TCP payload — pure ACKs share the connection id but sit outside
/// the conservation ledger.
pub fn record_data_drop(ctx: &mut Ctx<'_>, me: NodeId, reason: DropReason, packet: &DataPacket) {
    let t = ctx.now().as_secs();
    let rec = ctx.recorder();
    rec.record_drop(reason);
    if !rec.telemetry.enabled() {
        return;
    }
    let conn = packet.segment.conn.0;
    let seq = packet.segment.seq;
    let shard = rec.telemetry.shard();
    rec.telemetry.emit(TelemetryEvent::Drop {
        t,
        shard,
        node: me.0,
        reason,
        kind: "DATA",
        conn: packet.carries_data().then_some(conn),
    });
    if rec.telemetry.traced(conn, seq, packet.carries_data()) {
        rec.telemetry.emit(TelemetryEvent::Provenance {
            t,
            shard,
            stage: "drop",
            node: me.0,
            conn,
            seq,
            kind: "DATA",
        });
    }
}

/// Duplicate-suppression table for flooded packets.
///
/// A route request is uniquely identified by `(source, destination,
/// broadcast_id)` (paper §III-B).  Entries expire after `ttl` so the table
/// stays small over a long run.
///
/// Expiry is amortised: the table keeps a lower bound on its oldest
/// timestamp and sweeps only once that bound has aged past the TTL.  Age is
/// monotone in the timestamp, so while the bound is young no entry can have
/// expired, and every call answers exactly as an eager sweep on each
/// `first_time` would.  The bound holds because simulated time never runs
/// backwards: `first_time` stores `now`, which is never below it.
#[derive(Debug)]
pub struct SeenTable {
    ttl_secs: f64,
    /// No stored timestamp is older than this.
    oldest: SimTime,
    entries: FxHashMap<(NodeId, NodeId, BroadcastId), SimTime>,
    #[cfg(test)]
    sweeps: u64,
}

impl SeenTable {
    /// Table whose entries live for `ttl_secs` seconds.  Panics unless the
    /// TTL is finite and positive.
    pub fn new(ttl_secs: f64) -> Self {
        assert!(
            ttl_secs.is_finite() && ttl_secs > 0.0,
            "seen-table TTL must be finite and positive, got {ttl_secs}"
        );
        SeenTable {
            ttl_secs,
            oldest: SimTime::ZERO,
            entries: FxHashMap::default(),
            #[cfg(test)]
            sweeps: 0,
        }
    }

    /// Record the flood identified by the triple; returns `true` if it was
    /// seen for the first time (i.e. the caller should process/forward it).
    pub fn first_time(
        &mut self,
        source: NodeId,
        destination: NodeId,
        id: BroadcastId,
        now: SimTime,
    ) -> bool {
        self.gc(now);
        self.entries
            .insert((source, destination, id), now)
            .is_none()
    }

    /// Has the flood been seen already? (does not record it)
    pub fn contains(&self, source: NodeId, destination: NodeId, id: BroadcastId) -> bool {
        self.entries.contains_key(&(source, destination, id))
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop expired entries, sweeping only when the oldest one may have
    /// expired; the bound is recomputed from the survivors.
    fn gc(&mut self, now: SimTime) {
        let ttl = self.ttl_secs;
        if now.saturating_since(self.oldest).as_secs() < ttl {
            return;
        }
        #[cfg(test)]
        {
            self.sweeps += 1;
        }
        let mut oldest = now;
        self.entries.retain(|_, &mut seen| {
            let keep = now.saturating_since(seen).as_secs() < ttl;
            if keep {
                oldest = oldest.min(seen);
            }
            keep
        });
        self.oldest = oldest;
    }
}

impl Default for SeenTable {
    fn default() -> Self {
        // RREQ floods are over well within 30 s of network traversal.
        SeenTable::new(30.0)
    }
}

/// Per-destination buffer of data packets awaiting a route.
///
/// On-demand protocols queue packets while a discovery is in flight; the
/// buffer is bounded (drop-oldest) and entries expire so that stale TCP
/// segments are not injected long after the transport has given up on them.
#[derive(Debug)]
pub struct PacketBuffer {
    capacity_per_dest: usize,
    max_age_secs: f64,
    queues: FxHashMap<NodeId, VecDeque<(DataPacket, SimTime)>>,
    dropped: u64,
}

impl PacketBuffer {
    /// Buffer holding at most `capacity_per_dest` packets per destination,
    /// each for at most `max_age_secs` seconds.
    pub fn new(capacity_per_dest: usize, max_age_secs: f64) -> Self {
        PacketBuffer {
            capacity_per_dest,
            max_age_secs,
            queues: FxHashMap::default(),
            dropped: 0,
        }
    }

    /// Queue a packet for `dest`.  When the per-destination queue is full the
    /// oldest packet is evicted and returned so the caller can account the
    /// drop.
    #[must_use = "the evicted packet (if any) must be accounted as a drop"]
    pub fn push(&mut self, dest: NodeId, packet: DataPacket, now: SimTime) -> Option<DataPacket> {
        let q = self.queues.entry(dest).or_default();
        let evicted = if q.len() >= self.capacity_per_dest {
            self.dropped += 1;
            q.pop_front().map(|(p, _)| p)
        } else {
            None
        };
        q.push_back((packet, now));
        evicted
    }

    /// Take everything buffered for `dest`, split into still-fresh packets
    /// (first element, for the caller to re-route) and expired ones (second
    /// element, for the caller to account as drops).
    #[must_use = "expired packets (the second element) must be accounted as drops"]
    pub fn drain(&mut self, dest: NodeId, now: SimTime) -> (Vec<DataPacket>, Vec<DataPacket>) {
        let max_age = self.max_age_secs;
        let (mut fresh, mut expired) = (Vec::new(), Vec::new());
        if let Some(q) = self.queues.remove(&dest) {
            for (p, queued_at) in q {
                if now.saturating_since(queued_at).as_secs() <= max_age {
                    fresh.push(p);
                } else {
                    expired.push(p);
                }
            }
        }
        self.dropped += expired.len() as u64;
        (fresh, expired)
    }

    /// Discard everything buffered for `dest`, returning the dropped packets.
    #[must_use = "discarded packets must be accounted as drops"]
    pub fn discard(&mut self, dest: NodeId) -> Vec<DataPacket> {
        let packets: Vec<DataPacket> = self
            .queues
            .remove(&dest)
            .map_or_else(Vec::new, |q| q.into_iter().map(|(p, _)| p).collect());
        self.dropped += packets.len() as u64;
        packets
    }

    /// Number of packets currently buffered for `dest`.
    pub fn len_for(&self, dest: NodeId) -> usize {
        self.queues.get(&dest).map_or(0, |q| q.len())
    }

    /// Total packets dropped from the buffer (overflow or discard).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// True if a discovery is already worthwhile (anything buffered).
    pub fn has_packets_for(&self, dest: NodeId) -> bool {
        self.len_for(dest) > 0
    }
}

impl Default for PacketBuffer {
    fn default() -> Self {
        PacketBuffer::new(64, 8.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_wire::{ConnectionId, PacketId, TcpSegment};
    use proptest::prelude::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn pkt(id: u64) -> DataPacket {
        DataPacket::new(
            PacketId(id),
            NodeId(0),
            NodeId(9),
            TcpSegment::data(ConnectionId(0), 0, 0, 100),
        )
    }

    #[test]
    fn seen_table_suppresses_duplicates() {
        let mut s = SeenTable::new(10.0);
        assert!(s.first_time(NodeId(1), NodeId(2), BroadcastId(5), t(0.0)));
        assert!(!s.first_time(NodeId(1), NodeId(2), BroadcastId(5), t(1.0)));
        assert!(s.first_time(NodeId(1), NodeId(2), BroadcastId(6), t(1.0)));
        assert!(s.contains(NodeId(1), NodeId(2), BroadcastId(5)));
        assert!(!s.contains(NodeId(3), NodeId(2), BroadcastId(5)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn seen_table_entries_expire() {
        let mut s = SeenTable::new(5.0);
        assert!(s.first_time(NodeId(1), NodeId(2), BroadcastId(1), t(0.0)));
        // After the TTL, the same triple counts as new again.
        assert!(s.first_time(NodeId(1), NodeId(2), BroadcastId(1), t(6.0)));
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn seen_table_rejects_a_nan_ttl() {
        SeenTable::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn seen_table_rejects_a_zero_ttl() {
        SeenTable::new(0.0);
    }

    #[test]
    fn seen_table_sweeps_are_amortised() {
        let mut s = SeenTable::new(30.0);
        for i in 0..10_000u32 {
            let now = t(f64::from(i) * 1e-3);
            s.first_time(NodeId((i % 50) as u16), NodeId(0), BroadcastId(i), now);
        }
        assert_eq!(s.len(), 10_000);
        assert_eq!(s.sweeps, 0);
    }

    /// The eager reference: sweep the whole table on every call.
    struct EagerSeen {
        ttl_secs: f64,
        entries: FxHashMap<(NodeId, NodeId, BroadcastId), SimTime>,
    }

    impl EagerSeen {
        fn first_time(&mut self, key: (NodeId, NodeId, BroadcastId), now: SimTime) -> bool {
            let ttl = self.ttl_secs;
            self.entries
                .retain(|_, &mut seen| now.saturating_since(seen).as_secs() < ttl);
            self.entries.insert(key, now).is_none()
        }
    }

    const TTL: f64 = 4.0;

    /// Gaps between calls: repeats, sub-TTL steps, and steps at, just under
    /// and just over the TTL.
    fn gap(kind: u8, frac: f64) -> f64 {
        match kind {
            0 => 0.0,
            1 => frac * TTL,
            2 => TTL - 1e-9,
            3 => TTL,
            4 => TTL + 1e-9,
            _ => TTL / 4.0,
        }
    }

    proptest! {
        #[test]
        fn amortised_expiry_matches_the_eager_sweep(
            calls in proptest::collection::vec((0u8..4, 0u32..3, 0u8..6, 0.0f64..1.0), 1..80)
        ) {
            let mut fast = SeenTable::new(TTL);
            let mut eager = EagerSeen { ttl_secs: TTL, entries: FxHashMap::default() };
            let mut now = 0.0;
            for (src, id, kind, frac) in calls {
                now += gap(kind, frac);
                let key = (NodeId(u16::from(src)), NodeId(9), BroadcastId(id));
                prop_assert_eq!(
                    fast.first_time(key.0, key.1, key.2, t(now)),
                    eager.first_time(key, t(now)),
                    "first_time at t={}", now
                );
                prop_assert_eq!(fast.len(), eager.entries.len());
                for s in 0..4 {
                    for i in 0..3 {
                        let k = (NodeId(s), NodeId(9), BroadcastId(i));
                        prop_assert_eq!(fast.contains(k.0, k.1, k.2), eager.entries.contains_key(&k));
                    }
                }
            }
        }
    }

    #[test]
    fn buffer_drain_splits_fresh_from_expired() {
        let mut b = PacketBuffer::new(10, 2.0);
        assert!(b.push(NodeId(9), pkt(1), t(0.0)).is_none());
        assert!(b.push(NodeId(9), pkt(2), t(3.0)).is_none());
        let (fresh, expired) = b.drain(NodeId(9), t(4.0));
        // Packet 1 is 4 s old (> 2 s max age) and expires; packet 2 survives.
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].id, PacketId(2));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].id, PacketId(1));
        assert_eq!(b.dropped(), 1);
        assert_eq!(b.len_for(NodeId(9)), 0);
    }

    #[test]
    fn buffer_bounds_capacity_returning_the_evicted_oldest() {
        let mut b = PacketBuffer::new(2, 100.0);
        assert!(b.push(NodeId(9), pkt(1), t(0.0)).is_none());
        assert!(b.push(NodeId(9), pkt(2), t(0.1)).is_none());
        let evicted = b.push(NodeId(9), pkt(3), t(0.2));
        assert_eq!(evicted.map(|p| p.id), Some(PacketId(1)));
        assert_eq!(b.len_for(NodeId(9)), 2);
        assert_eq!(b.dropped(), 1);
        let (fresh, expired) = b.drain(NodeId(9), t(0.3));
        assert_eq!(fresh.iter().map(|p| p.id.0).collect::<Vec<_>>(), vec![2, 3]);
        assert!(expired.is_empty());
    }

    #[test]
    fn buffer_discard_returns_the_dropped_packets() {
        let mut b = PacketBuffer::default();
        assert!(b.push(NodeId(4), pkt(1), t(0.0)).is_none());
        assert!(b.push(NodeId(4), pkt(2), t(0.0)).is_none());
        assert!(b.has_packets_for(NodeId(4)));
        let dropped = b.discard(NodeId(4));
        assert_eq!(
            dropped.iter().map(|p| p.id.0).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(b.dropped(), 2);
        assert!(!b.has_packets_for(NodeId(4)));
    }
}
