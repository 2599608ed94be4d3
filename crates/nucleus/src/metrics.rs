//! Per-Nucleus counters backing the experiment harness.
//!
//! These make the paper's qualitative claims measurable: how many circuit
//! establishments versus data sends (E5), how many address faults and
//! forwarding queries a reconfiguration causes (E7), how quickly TAdds are
//! purged (E1), and how deep the recursion goes (E8/E9).

use std::sync::atomic::{AtomicU64, Ordering};

/// Declares every counter once: the live [`NucleusMetrics`], its
/// [`NucleusMetricsSnapshot`], and the export order of
/// [`NucleusMetricsSnapshot::counters`] all follow this list.
macro_rules! counters {
    ($($(#[doc = $doc:literal])* $name:ident,)*) => {
        /// Monotonic counters maintained by one module's Nucleus.
        #[derive(Debug, Default)]
        pub struct NucleusMetrics {
            $($(#[doc = $doc])* pub $name: AtomicU64,)*
        }

        /// A point-in-time copy of [`NucleusMetrics`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        #[allow(missing_docs)]
        pub struct NucleusMetricsSnapshot {
            $(pub $name: u64,)*
        }

        impl NucleusMetrics {
            /// Takes a snapshot of all counters.
            #[must_use]
            pub fn snapshot(&self) -> NucleusMetricsSnapshot {
                NucleusMetricsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }
        }

        impl NucleusMetricsSnapshot {
            /// All counters as `(name, value)` pairs, in declaration order —
            /// the single source of truth for metric export so a counter
            /// added here automatically appears in every observability
            /// report.
            #[must_use]
            pub fn counters(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)*]
            }
        }
    };
}

counters! {
    /// Data frames sent (application + control replies).
    sends,
    /// Data frames delivered to the application.
    recvs,
    /// Connectionless datagrams sent.
    casts,
    /// Circuits established (LvcOpen acked), outbound.
    circuits_opened,
    /// Circuits accepted, inbound.
    circuits_accepted,
    /// ND-level open attempts, including retries.
    nd_open_attempts,
    /// Address faults observed by the LCM layer (§3.5).
    address_faults,
    /// Forwarding queries issued to the naming service.
    forward_queries,
    /// Successful transparent reconnections after a fault.
    reconnects,
    /// Requests re-issued because the circuit that carried them closed
    /// before the reply arrived.
    request_reissues,
    /// TAdd table entries replaced by real UAdds (§3.4 purge).
    tadd_purges,
    /// Naming-service lookups (UAdd → phys).
    ns_lookups,
    /// Route queries (IP layer).
    route_queries,
    /// Frames relayed (gateway role).
    relayed_frames,
    /// Messages known dropped (send accepted but circuit died before/while
    /// transferring, during reconfiguration).
    dropped_messages,
    /// Reliable-extension retransmissions.
    retransmissions,
    /// Reliable-extension duplicates suppressed at the receiver.
    duplicates_suppressed,
    /// Supervised retry attempts across all layers (ND opens, LCM
    /// reconnects, NSP query sweeps, gateway hop splices).
    retry_attempts,
    /// Circuit breakers tripped open (including failed half-open probes).
    breaker_trips,
    /// Tripped breakers that recovered via a successful half-open probe.
    breaker_recoveries,
    /// Reliable messages surrendered to the dead-letter sink after all
    /// recovery was exhausted.
    dead_letters,
    /// Sends that found the circuit's credit window empty and waited
    /// (or failed) for replenishment.
    flow_stalls,
    /// Messages shed by flow control: dropped on an exhausted window
    /// under `ShedNewest`, or evicted from a full bounded inbox.
    flow_sheds,
    /// Name-cache probes answered from a live lease (no NSP round trip).
    ns_cache_hits,
    /// Name-cache probes that found nothing and went to the shard.
    ns_cache_misses,
    /// Name-cache probes that found an expired lease and revalidated.
    ns_cache_stale,
    /// Lease invalidations applied (pushed by a shard, or local on a
    /// forwarding address).
    ns_invalidations,
    /// Substrate choices made at LVC open (adaptive ranking picked an
    /// endpoint, whatever it picked).
    substrate_selects,
    /// Ranked candidates that refused the dial (e.g. SHM from off-machine)
    /// and fell through to the next substrate in the ranking.
    substrate_fallbacks,
    /// Re-selections that changed substrate kind for an already-known peer
    /// (the drain-then-switch handoff after a relocation).
    substrate_handoffs,
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
