//! Nucleus configuration, including the well-known address preload (§3.4)
//! and the §6.3 fault-handler patch toggle.

use std::time::Duration;

use ntcs_addr::{MachineId, PhysAddr, UAdd};
use ntcs_flow::FlowSettings;

use crate::proto::Hop;
use crate::retry::RetryPolicy;
use crate::supervisor::BreakerConfig;

/// Configuration for one module's Nucleus binding.
#[derive(Debug, Clone)]
pub struct NucleusConfig {
    /// The machine this module runs on.
    pub machine: MachineId,
    /// Module name for traces and listener hints (not the registered logical
    /// name — naming is the naming service's business).
    pub module_hint: String,
    /// Well-known addresses loaded into the address tables at initialization
    /// (§3.4): the Name Server and any prime gateways. Each entry maps a
    /// well-known UAdd to the physical addresses it listens on.
    pub well_known: Vec<(UAdd, Vec<PhysAddr>)>,
    /// Pre-configured gateway chain for reaching the Name Server from this
    /// machine's networks (empty when the Name Server is directly
    /// reachable). These are the "prime" gateways of §3.4.
    pub ns_route: Vec<Hop>,
    /// Whether the LCM address-fault handler applies the §6.3 patch
    /// (special-cases a broken Name-Server circuit instead of recursing into
    /// the naming service). `true` is the shipped behaviour; `false`
    /// reproduces the stack-overflow bug.
    pub ns_fault_patch: bool,
    /// Recursion depth at which the guard fires — the stand-in for the
    /// paper's literal stack overflow (§6.3).
    pub max_recursion_depth: u32,
    /// How many times the ND-Layer retries a failed channel open (§2.2:
    /// "except for retry on open").
    pub open_retries: u32,
    /// Timeout for circuit establishment (LvcOpen → ack).
    pub open_timeout: Duration,
    /// Default timeout for synchronous request/reply exchanges.
    pub request_timeout: Duration,
    /// Per-attempt timeout for one Name-Server exchange. Deliberately much
    /// smaller than `ns_retry.deadline`: a replica that stalls must not
    /// consume the whole supervision budget before the sweep can fail over
    /// to the next one (§7).
    pub ns_request_timeout: Duration,
    /// Maximum number of relocation attempts per send (§3.5: one forwarding
    /// query, then reconnect; bounded so a flapping destination cannot spin).
    pub max_relocations: u32,
    /// Retry policy for circuit establishment and re-establishment (ND-Layer
    /// opens, LCM reconnects, gateway hop splicing).
    pub retry: RetryPolicy,
    /// Retry policy for naming-service queries, including replica failover
    /// sweeps. Kept separate from [`NucleusConfig::retry`] because a naming
    /// outage must fail over quickly rather than camp on one replica.
    pub ns_retry: RetryPolicy,
    /// Retry policy pacing reliable-send retransmissions: each scheduled
    /// delay is the ack-wait window before the next retransmission.
    pub reliable_retry: RetryPolicy,
    /// Per-circuit breaker tuning (consecutive-failure trip threshold and
    /// half-open probe timer).
    pub breaker: BreakerConfig,
    /// Bound on reliable sends simultaneously awaiting acknowledgement;
    /// additional senders block (backpressure) until a slot frees.
    pub retransmit_queue_cap: usize,
    /// Receiver-side duplicate-suppression window for reliable sends: how
    /// many recently delivered `(source, msg_id)` keys are remembered. A
    /// duplicate arriving after its key was evicted is re-delivered, so the
    /// window bounds memory at the cost of exactly-once strength.
    pub dedupe_window: usize,
    /// Per-circuit credit flow-control settings (window sizes, replenish
    /// watermark, exhaustion policy). Disabled by default.
    pub flow: FlowSettings,
    /// Capacity of the LCM inbox (received-but-undrained messages). The
    /// inbox is bounded even when flow control is disabled: overflow
    /// sheds the oldest entry and counts `flow_sheds` rather than
    /// growing without limit.
    pub inbox_cap: usize,
    /// Flight-recorder tuning (ring-buffer capacity and hot-path
    /// sampling). On by default: the recorder is the always-available
    /// post-mortem, and its hot-path cost is bounded by sampling.
    pub recorder: RecorderSettings,
    /// Resolver-side name-cache tuning: TTL leases on UAdd → location
    /// entries, consulted before any NSP round trip. On by default — lease
    /// expiry (not cache absence) is what bounds staleness.
    pub name_cache: NameCacheSettings,
    /// Substrate-selection policy: how the ND layer ranks a peer's physical
    /// addresses at LVC open (SHM for co-located peers, UDP vs TCP by
    /// reliability class) and re-selects after relocation.
    pub substrate: SubstrateSettings,
}

/// Runtime transport-selection tuning. With `adaptive` on, the LCM ranks a
/// resolved peer's physical addresses instead of taking them in registry
/// order: shared-memory first (co-location fast path — a cross-machine dial
/// is refused by the world and falls through to the next candidate), then
/// UDP for connectionless sends under `udp_max_payload`, then connection-
/// oriented substrates (TCP/MBX). Every choice, fallback, and relocation
/// handoff is counted and flight-recorded.
#[derive(Debug, Clone, Copy)]
pub struct SubstrateSettings {
    /// Whether adaptive ranking runs at all. Off restores registry-order
    /// address selection (the pre-PR10 behaviour).
    pub adaptive: bool,
    /// Whether UDP endpoints may be chosen for connectionless traffic.
    /// Reliable conversations never select UDP regardless.
    pub allow_udp: bool,
    /// Largest payload routed over UDP; bigger messages prefer a
    /// connection-oriented substrate even when `allow_udp` is set.
    pub udp_max_payload: usize,
}

impl Default for SubstrateSettings {
    fn default() -> Self {
        SubstrateSettings {
            adaptive: true,
            allow_udp: true,
            udp_max_payload: 32 * 1024,
        }
    }
}

/// Resolver-side name-cache tuning (the shard extension's leased cache).
#[derive(Debug, Clone, Copy)]
pub struct NameCacheSettings {
    /// Whether lookups consult the lease cache at all. Disabling it makes
    /// every lookup an NSP round trip (the pre-shard behaviour).
    pub enabled: bool,
    /// Positive-entry lease: a cached location is served without
    /// revalidation for this long. Bounds worst-case staleness when an
    /// invalidation push is lost.
    pub ttl: Duration,
    /// Negative-entry lease: an `UnknownAddress` answer is remembered
    /// (and served) for this long. Kept shorter than `ttl` — a name being
    /// registered right now should become visible quickly.
    pub negative_ttl: Duration,
}

impl Default for NameCacheSettings {
    fn default() -> Self {
        NameCacheSettings {
            enabled: true,
            ttl: Duration::from_secs(2),
            negative_ttl: Duration::from_millis(500),
        }
    }
}

/// Flight-recorder tuning: the per-module event ring buffer that backs
/// snapshots and crash dumps.
#[derive(Debug, Clone, Copy)]
pub struct RecorderSettings {
    /// Whether the recorder captures events at all. Disabling it turns
    /// every `record` call into a single relaxed load.
    pub enabled: bool,
    /// Ring-buffer capacity in events. Older events are overwritten once
    /// the ring wraps; memory use is fixed at bind time.
    pub capacity: usize,
    /// Hot-path event kinds (sends, deliveries, credit grants) keep
    /// 1-in-2^shift events; failure kinds are always kept.
    /// `0` records everything.
    pub hot_sample_shift: u32,
}

impl Default for RecorderSettings {
    fn default() -> Self {
        RecorderSettings {
            enabled: true,
            capacity: 1024,
            hot_sample_shift: 2,
        }
    }
}

impl NucleusConfig {
    /// A sensible default configuration for a module on `machine`.
    #[must_use]
    pub fn new(machine: MachineId, module_hint: impl Into<String>) -> Self {
        NucleusConfig {
            machine,
            module_hint: module_hint.into(),
            well_known: Vec::new(),
            ns_route: Vec::new(),
            ns_fault_patch: true,
            max_recursion_depth: 64,
            open_retries: 2,
            open_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_secs(5),
            ns_request_timeout: Duration::from_millis(750),
            max_relocations: 2,
            retry: RetryPolicy {
                max_attempts: 4,
                base_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(200),
                jitter: 0.25,
                deadline: Duration::from_secs(5),
                seed: 0x4E54_4353, // "NTCS"
            },
            ns_retry: RetryPolicy {
                // Cumulative backoff (10+20+40+80+160 = 310 ms before the
                // sixth attempt, jitter only adds) deliberately exceeds the
                // breaker's half-open timer (250 ms), so a healed
                // Name-Server partition recovers within one supervised
                // query instead of surfacing a stale `CircuitBroken`.
                max_attempts: 8,
                base_backoff: Duration::from_millis(10),
                max_backoff: Duration::from_millis(200),
                jitter: 0.25,
                deadline: Duration::from_secs(3),
                seed: 0x4E53, // "NS"
            },
            reliable_retry: RetryPolicy {
                // Each delay doubles as the ack-wait window — the loss
                // detector, not a congestion backoff — so the curve is flat
                // (cap == base): growing it would let a short run of drops
                // open multi-second quiet gaps on an otherwise-live circuit.
                max_attempts: 16,
                base_backoff: Duration::from_millis(300),
                max_backoff: Duration::from_millis(300),
                jitter: 0.1,
                deadline: Duration::from_secs(5),
                seed: 0x52_454C, // "REL"
            },
            breaker: BreakerConfig::default(),
            retransmit_queue_cap: 64,
            dedupe_window: 4096,
            flow: FlowSettings::disabled(),
            inbox_cap: 8192,
            recorder: RecorderSettings::default(),
            name_cache: NameCacheSettings::default(),
            substrate: SubstrateSettings::default(),
        }
    }

    /// Disables adaptive substrate selection (builder style): peers are
    /// dialed in registry address order, as before PR10.
    #[must_use]
    pub fn without_adaptive_substrate(mut self) -> Self {
        self.substrate.adaptive = false;
        self
    }

    /// Forbids UDP endpoints even for connectionless traffic (builder
    /// style).
    #[must_use]
    pub fn without_udp(mut self) -> Self {
        self.substrate.allow_udp = false;
        self
    }

    /// Replaces the largest payload routed over UDP (builder style).
    #[must_use]
    pub fn with_udp_max_payload(mut self, bytes: usize) -> Self {
        self.substrate.udp_max_payload = bytes;
        self
    }

    /// Adds a well-known address entry (builder style).
    #[must_use]
    pub fn with_well_known(mut self, uadd: UAdd, addrs: Vec<PhysAddr>) -> Self {
        self.well_known.push((uadd, addrs));
        self
    }

    /// Sets the prime-gateway route to the Name Server (builder style).
    #[must_use]
    pub fn with_ns_route(mut self, route: Vec<Hop>) -> Self {
        self.ns_route = route;
        self
    }

    /// Disables the §6.3 fault-handler patch (builder style; test/experiment
    /// hook).
    #[must_use]
    pub fn without_ns_fault_patch(mut self) -> Self {
        self.ns_fault_patch = false;
        self
    }

    /// Replaces the circuit/reconnect retry policy (builder style).
    #[must_use]
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Replaces the breaker tuning (builder style).
    #[must_use]
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = breaker;
        self
    }

    /// Replaces the reliable-delivery dedupe window (builder style;
    /// test/experiment hook).
    #[must_use]
    pub fn with_dedupe_window(mut self, window: usize) -> Self {
        self.dedupe_window = window.max(1);
        self
    }

    /// Enables credit flow control with the given settings (builder
    /// style). `settings.enabled` is forced on.
    #[must_use]
    pub fn with_flow_control(mut self, mut settings: FlowSettings) -> Self {
        settings.enabled = true;
        self.flow = settings;
        self
    }

    /// Disables credit flow control (builder style; the default). Queues
    /// stay bounded regardless.
    #[must_use]
    pub fn without_flow_control(mut self) -> Self {
        self.flow.enabled = false;
        self
    }

    /// Replaces the LCM inbox capacity (builder style).
    #[must_use]
    pub fn with_inbox_cap(mut self, cap: usize) -> Self {
        self.inbox_cap = cap.max(1);
        self
    }

    /// Disables the flight recorder (builder style; bench/experiment
    /// hook — snapshots then carry no events).
    #[must_use]
    pub fn without_recorder(mut self) -> Self {
        self.recorder.enabled = false;
        self
    }

    /// Replaces the flight-recorder ring capacity (builder style).
    #[must_use]
    pub fn with_recorder_capacity(mut self, events: usize) -> Self {
        self.recorder.enabled = true;
        self.recorder.capacity = events.max(1);
        self
    }

    /// Replaces the hot-path sampling shift: hot event kinds keep
    /// 1-in-2^`shift` events (builder style). `0` records everything.
    #[must_use]
    pub fn with_recorder_sampling(mut self, shift: u32) -> Self {
        self.recorder.hot_sample_shift = shift;
        self
    }

    /// Sets the name-cache lease TTLs (builder style). Enables the cache.
    #[must_use]
    pub fn with_name_cache(mut self, ttl: Duration, negative_ttl: Duration) -> Self {
        self.name_cache = NameCacheSettings {
            enabled: true,
            ttl,
            negative_ttl,
        };
        self
    }

    /// Disables the resolver-side name cache (builder style): every lookup
    /// becomes an NSP round trip.
    #[must_use]
    pub fn without_name_cache(mut self) -> Self {
        self.name_cache.enabled = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substrate_builders_compose() {
        let c = NucleusConfig::new(MachineId(0), "m");
        assert!(c.substrate.adaptive, "adaptive selection is the default");
        assert!(c.substrate.allow_udp);
        let c = c.with_udp_max_payload(512).without_udp();
        assert!(!c.substrate.allow_udp);
        assert_eq!(c.substrate.udp_max_payload, 512);
        assert!(!c.without_adaptive_substrate().substrate.adaptive);
    }

    #[test]
    fn defaults_are_sane() {
        let c = NucleusConfig::new(MachineId(0), "mod");
        assert!(c.ns_fault_patch);
        assert!(c.max_recursion_depth >= 8);
        assert!(c.open_retries >= 1);
        assert!(c.well_known.is_empty());
        assert!(
            c.retry.max_attempts >= 2,
            "circuits must get at least one retry"
        );
        assert!(c.ns_retry.max_attempts >= 2);
        assert!(c.reliable_retry.base_backoff >= Duration::from_millis(50));
        assert!(c.breaker.trip_after >= 1);
        assert!(c.retransmit_queue_cap >= 1);
        assert!(c.dedupe_window >= 64, "dedupe window must be useful");
        assert!(!c.flow.enabled, "flow control must be opt-in");
        assert!(c.inbox_cap >= 64, "inbox must hold a useful backlog");
        assert!(c.recorder.enabled, "flight recorder must be on by default");
        assert!(c.recorder.capacity >= 64, "ring must hold a useful tail");
        assert!(c.name_cache.enabled, "name cache must be on by default");
        assert!(
            c.name_cache.negative_ttl < c.name_cache.ttl,
            "negative entries must expire faster than positive leases"
        );
    }

    #[test]
    fn name_cache_builders_compose() {
        let c = NucleusConfig::new(MachineId(0), "m")
            .with_name_cache(Duration::from_secs(1), Duration::from_millis(100));
        assert!(c.name_cache.enabled);
        assert_eq!(c.name_cache.ttl, Duration::from_secs(1));
        assert_eq!(c.name_cache.negative_ttl, Duration::from_millis(100));
        assert!(!c.without_name_cache().name_cache.enabled);
    }

    #[test]
    fn recorder_builders_compose() {
        let c = NucleusConfig::new(MachineId(0), "m")
            .with_recorder_capacity(256)
            .with_recorder_sampling(0);
        assert!(c.recorder.enabled);
        assert_eq!(c.recorder.capacity, 256);
        assert_eq!(c.recorder.hot_sample_shift, 0);
        assert!(!c.without_recorder().recorder.enabled);
    }

    #[test]
    fn flow_builders_compose() {
        let c = NucleusConfig::new(MachineId(0), "m")
            .with_flow_control(FlowSettings::enabled(8192, 32))
            .with_inbox_cap(16);
        assert!(c.flow.enabled);
        assert_eq!(c.flow.window_bytes, 8192);
        assert_eq!(c.inbox_cap, 16);
        assert!(!c.without_flow_control().flow.enabled);
    }

    #[test]
    fn builders_compose() {
        let c = NucleusConfig::new(MachineId(1), "m")
            .with_well_known(UAdd::NAME_SERVER, vec![])
            .without_ns_fault_patch()
            .with_dedupe_window(8);
        assert_eq!(c.well_known.len(), 1);
        assert!(!c.ns_fault_patch);
        assert_eq!(c.dedupe_window, 8);
    }
}
