//! Per-Nucleus counters backing the experiment harness.
//!
//! These make the paper's qualitative claims measurable: how many circuit
//! establishments versus data sends (E5), how many address faults and
//! forwarding queries a reconfiguration causes (E7), how quickly TAdds are
//! purged (E1), and how deep the recursion goes (E8/E9).

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters maintained by one module's Nucleus.
#[derive(Debug, Default)]
pub struct NucleusMetrics {
    /// Data frames sent (application + control replies).
    pub sends: AtomicU64,
    /// Data frames delivered to the application.
    pub recvs: AtomicU64,
    /// Connectionless datagrams sent.
    pub casts: AtomicU64,
    /// Circuits established (LvcOpen acked), outbound.
    pub circuits_opened: AtomicU64,
    /// Circuits accepted, inbound.
    pub circuits_accepted: AtomicU64,
    /// ND-level open attempts, including retries.
    pub nd_open_attempts: AtomicU64,
    /// Address faults observed by the LCM layer (§3.5).
    pub address_faults: AtomicU64,
    /// Forwarding queries issued to the naming service.
    pub forward_queries: AtomicU64,
    /// Successful transparent reconnections after a fault.
    pub reconnects: AtomicU64,
    /// Requests re-issued because the circuit that carried them closed
    /// before the reply arrived.
    pub request_reissues: AtomicU64,
    /// TAdd table entries replaced by real UAdds (§3.4 purge).
    pub tadd_purges: AtomicU64,
    /// Naming-service lookups (UAdd → phys).
    pub ns_lookups: AtomicU64,
    /// Route queries (IP layer).
    pub route_queries: AtomicU64,
    /// Frames relayed (gateway role).
    pub relayed_frames: AtomicU64,
    /// Messages known dropped (send accepted but circuit died before/while
    /// transferring, during reconfiguration).
    pub dropped_messages: AtomicU64,
    /// Reliable-extension retransmissions.
    pub retransmissions: AtomicU64,
    /// Reliable-extension duplicates suppressed at the receiver.
    pub duplicates_suppressed: AtomicU64,
    /// Supervised retry attempts across all layers (ND opens, LCM
    /// reconnects, NSP query sweeps, gateway hop splices).
    pub retry_attempts: AtomicU64,
    /// Circuit breakers tripped open (including failed half-open probes).
    pub breaker_trips: AtomicU64,
    /// Tripped breakers that recovered via a successful half-open probe.
    pub breaker_recoveries: AtomicU64,
    /// Reliable messages surrendered to the dead-letter sink after all
    /// recovery was exhausted.
    pub dead_letters: AtomicU64,
    /// Sends that found the circuit's credit window empty and waited
    /// (or failed) for replenishment.
    pub flow_stalls: AtomicU64,
    /// Messages shed by flow control: dropped on an exhausted window
    /// under `ShedNewest`, or evicted from a full bounded inbox.
    pub flow_sheds: AtomicU64,
    /// Name-cache probes answered from a live lease (no NSP round trip).
    pub ns_cache_hits: AtomicU64,
    /// Name-cache probes that found nothing and went to the shard.
    pub ns_cache_misses: AtomicU64,
    /// Name-cache probes that found an expired lease and revalidated.
    pub ns_cache_stale: AtomicU64,
    /// Lease invalidations applied (pushed by a shard, or local on a
    /// forwarding address).
    pub ns_invalidations: AtomicU64,
    /// Substrate choices made at LVC open (adaptive ranking picked an
    /// endpoint, whatever it picked).
    pub substrate_selects: AtomicU64,
    /// Ranked candidates that refused the dial (e.g. SHM from off-machine)
    /// and fell through to the next substrate in the ranking.
    pub substrate_fallbacks: AtomicU64,
    /// Re-selections that changed substrate kind for an already-known peer
    /// (the drain-then-switch handoff after a relocation).
    pub substrate_handoffs: AtomicU64,
}

/// A point-in-time copy of [`NucleusMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct NucleusMetricsSnapshot {
    pub sends: u64,
    pub recvs: u64,
    pub casts: u64,
    pub circuits_opened: u64,
    pub circuits_accepted: u64,
    pub nd_open_attempts: u64,
    pub address_faults: u64,
    pub forward_queries: u64,
    pub reconnects: u64,
    pub request_reissues: u64,
    pub tadd_purges: u64,
    pub ns_lookups: u64,
    pub route_queries: u64,
    pub relayed_frames: u64,
    pub dropped_messages: u64,
    pub retransmissions: u64,
    pub duplicates_suppressed: u64,
    pub retry_attempts: u64,
    pub breaker_trips: u64,
    pub breaker_recoveries: u64,
    pub dead_letters: u64,
    pub flow_stalls: u64,
    pub flow_sheds: u64,
    pub ns_cache_hits: u64,
    pub ns_cache_misses: u64,
    pub ns_cache_stale: u64,
    pub ns_invalidations: u64,
    pub substrate_selects: u64,
    pub substrate_fallbacks: u64,
    pub substrate_handoffs: u64,
}

impl NucleusMetrics {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        NucleusMetrics::default()
    }

    /// Increments a counter by one.
    pub fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a snapshot of all counters.
    #[must_use]
    pub fn snapshot(&self) -> NucleusMetricsSnapshot {
        NucleusMetricsSnapshot {
            sends: self.sends.load(Ordering::Relaxed),
            recvs: self.recvs.load(Ordering::Relaxed),
            casts: self.casts.load(Ordering::Relaxed),
            circuits_opened: self.circuits_opened.load(Ordering::Relaxed),
            circuits_accepted: self.circuits_accepted.load(Ordering::Relaxed),
            nd_open_attempts: self.nd_open_attempts.load(Ordering::Relaxed),
            address_faults: self.address_faults.load(Ordering::Relaxed),
            forward_queries: self.forward_queries.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            request_reissues: self.request_reissues.load(Ordering::Relaxed),
            tadd_purges: self.tadd_purges.load(Ordering::Relaxed),
            ns_lookups: self.ns_lookups.load(Ordering::Relaxed),
            route_queries: self.route_queries.load(Ordering::Relaxed),
            relayed_frames: self.relayed_frames.load(Ordering::Relaxed),
            dropped_messages: self.dropped_messages.load(Ordering::Relaxed),
            retransmissions: self.retransmissions.load(Ordering::Relaxed),
            duplicates_suppressed: self.duplicates_suppressed.load(Ordering::Relaxed),
            retry_attempts: self.retry_attempts.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            breaker_recoveries: self.breaker_recoveries.load(Ordering::Relaxed),
            dead_letters: self.dead_letters.load(Ordering::Relaxed),
            flow_stalls: self.flow_stalls.load(Ordering::Relaxed),
            flow_sheds: self.flow_sheds.load(Ordering::Relaxed),
            ns_cache_hits: self.ns_cache_hits.load(Ordering::Relaxed),
            ns_cache_misses: self.ns_cache_misses.load(Ordering::Relaxed),
            ns_cache_stale: self.ns_cache_stale.load(Ordering::Relaxed),
            ns_invalidations: self.ns_invalidations.load(Ordering::Relaxed),
            substrate_selects: self.substrate_selects.load(Ordering::Relaxed),
            substrate_fallbacks: self.substrate_fallbacks.load(Ordering::Relaxed),
            substrate_handoffs: self.substrate_handoffs.load(Ordering::Relaxed),
        }
    }
}

impl NucleusMetricsSnapshot {
    /// All counters as `(name, value)` pairs, in declaration order — the
    /// single source of truth for metric export so a counter added here
    /// automatically appears in every observability report.
    #[must_use]
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("sends", self.sends),
            ("recvs", self.recvs),
            ("casts", self.casts),
            ("circuits_opened", self.circuits_opened),
            ("circuits_accepted", self.circuits_accepted),
            ("nd_open_attempts", self.nd_open_attempts),
            ("address_faults", self.address_faults),
            ("forward_queries", self.forward_queries),
            ("reconnects", self.reconnects),
            ("request_reissues", self.request_reissues),
            ("tadd_purges", self.tadd_purges),
            ("ns_lookups", self.ns_lookups),
            ("route_queries", self.route_queries),
            ("relayed_frames", self.relayed_frames),
            ("dropped_messages", self.dropped_messages),
            ("retransmissions", self.retransmissions),
            ("duplicates_suppressed", self.duplicates_suppressed),
            ("retry_attempts", self.retry_attempts),
            ("breaker_trips", self.breaker_trips),
            ("breaker_recoveries", self.breaker_recoveries),
            ("dead_letters", self.dead_letters),
            ("flow_stalls", self.flow_stalls),
            ("flow_sheds", self.flow_sheds),
            ("ns_cache_hits", self.ns_cache_hits),
            ("ns_cache_misses", self.ns_cache_misses),
            ("ns_cache_stale", self.ns_cache_stale),
            ("ns_invalidations", self.ns_invalidations),
            ("substrate_selects", self.substrate_selects),
            ("substrate_fallbacks", self.substrate_fallbacks),
            ("substrate_handoffs", self.substrate_handoffs),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let m = NucleusMetrics::new();
        m.bump(&m.sends);
        m.bump(&m.sends);
        m.bump(&m.tadd_purges);
        let s = m.snapshot();
        assert_eq!(s.sends, 2);
        assert_eq!(s.tadd_purges, 1);
        assert_eq!(s.recvs, 0);
    }
}
