//! End-to-end observability: causal trace ids, latency histograms, and
//! the unified metrics registry/export pipeline.
//!
//! The paper's own debugging story (§6.2) concludes that plain tracebacks
//! are inadequate for the recursive NTCS — you must know *why* and *who*,
//! with selectivity — and §6.3 warns that the better the recovery, the
//! less you know about how the system actually runs. This module is the
//! answer for the reproduction:
//!
//! * [`TraceId`] — stamped on every application send, carried in the wire
//!   frame header, and forwarded unchanged through gateway splices,
//!   reliable retransmissions, and address-fault re-establishment. Each
//!   hop casts a [`HopRecord`] to the DRTS monitor, which reassembles the
//!   message's full journey — recovery detours included.
//! * [`Histogram`] — fixed 64-bucket log₂ latency histogram with an
//!   allocation-free hot path, driven by the virtual [`ntcs_ipcs`] clock
//!   so results are deterministic in tests.
//! * [`MetricsRegistry`] — aggregates every module's counters, histograms,
//!   and breaker states into one [`ModuleReport`] stream, rendered either
//!   as Prometheus text-exposition format or a human table.
//! * [`ObsEvent`] — every occurrence the Nucleus, the NSP-Layer and the
//!   gateway observe, emitted once per site through [`Nucleus::emit`]. One
//!   `match` here maps it to its counters, histogram sample, flight-recorder
//!   slot and layer-trace line.

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

use ntcs_addr::{NtcsError, PhysAddr, UAdd};
use ntcs_ipcs::SimClock;
use ntcs_wire::ntcs_message;

use crate::metrics::NucleusMetrics;
use crate::nd::SubstrateBinding;
use crate::supervisor::CircuitHealth;
use crate::trace::{Layer, LayerTrace, RecursionGauge, Why};
use crate::Nucleus;

/// A causal trace identifier: one per *application-level journey* of a
/// message, preserved across every recovery detour. Zero is the null id
/// (untraced traffic, e.g. protocol-internal frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceId(u64);

impl TraceId {
    /// The null trace id: the frame is not part of any traced journey.
    pub const NULL: TraceId = TraceId(0);

    /// Wraps a raw wire value.
    #[must_use]
    pub fn from_raw(raw: u64) -> Self {
        TraceId(raw)
    }

    /// The raw wire value.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Whether this is the null (untraced) id.
    #[must_use]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Deterministic per-nucleus trace-id generator: ids mix the module's
/// address with a local counter (splitmix64 finalizer), so concurrently
/// tracing modules never collide and test runs are reproducible.
#[derive(Debug)]
pub struct TraceIdGen {
    base: u64,
    counter: AtomicU64,
}

impl TraceIdGen {
    /// A generator seeded from the owning module's identity.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        TraceIdGen {
            base: seed,
            counter: AtomicU64::new(0),
        }
    }

    /// The next trace id (never [`TraceId::NULL`]).
    pub fn next_id(&self) -> TraceId {
        loop {
            let n = self.counter.fetch_add(1, Ordering::Relaxed);
            let mixed = splitmix64(
                self.base
                    .wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            );
            if mixed != 0 {
                return TraceId(mixed);
            }
        }
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Number of buckets in a [`Histogram`]: bucket `i` counts values whose
/// bit length is `i` (upper bound `2^i − 1` µs); the last bucket is
/// unbounded (`+Inf`).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-size log₂-bucketed latency histogram (HDR-style), safe to
/// record into from the hot path: one atomic increment per bucket plus
/// sum/count/min/max updates, no allocation, no locks.
///
/// Values are microseconds on the testbed's *virtual* clock; negative
/// values (possible under skewed clocks before DRTS sync) clamp to 0.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index for a value: its bit length, i.e. `⌈log₂(v+1)⌉`.
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Inclusive upper bound of bucket `i` (`None` for the final `+Inf`
    /// bucket).
    #[must_use]
    pub fn bucket_upper_bound(i: usize) -> Option<u64> {
        if i + 1 >= HISTOGRAM_BUCKETS {
            None
        } else {
            Some((1u64 << i) - 1)
        }
    }

    /// Records one latency observation in microseconds; negative values
    /// clamp to 0.
    pub fn record_us(&self, value_us: i64) {
        let v = u64::try_from(value_us).unwrap_or(0);
        let idx = Self::bucket_index(v).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of all buckets and aggregates.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Copy)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`Histogram::bucket_index`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values, µs.
    pub sum: u64,
    /// Smallest observed value, µs (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observed value, µs.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean observed latency in microseconds (0 when empty).
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound (µs) of the bucket containing quantile `q` in `[0,1]`
    /// — an upper estimate with log₂ resolution; `None` when empty or
    /// when the quantile lands in the unbounded bucket.
    #[must_use]
    pub fn quantile_upper_us(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Histogram::bucket_upper_bound(i);
            }
        }
        None
    }
}

/// The per-nucleus latency histograms. All four are recorded by the LCM
/// layer against the machine's virtual [`ntcs_ipcs`] clock.
#[derive(Debug, Default)]
pub struct NucleusHistograms {
    /// Application send → receiver-side delivery (cross-machine; uses the
    /// sender's header timestamp against the receiver's corrected clock).
    pub send_to_deliver_us: Histogram,
    /// LVC/IVC circuit establishment time (open → ack).
    pub circuit_establish_us: Histogram,
    /// Naming-service lookup time (UAdd → phys).
    pub ns_lookup_us: Histogram,
    /// §3.5 address-fault recovery duration (fault detected → data
    /// flowing on the re-established circuit).
    pub fault_recovery_us: Histogram,
}

impl NucleusHistograms {
    /// Fresh (empty) histograms.
    #[must_use]
    pub fn new() -> Self {
        NucleusHistograms::default()
    }

    /// All histograms as `(name, snapshot)` pairs, in declaration order.
    #[must_use]
    pub fn snapshots(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        vec![
            ("send_to_deliver_us", self.send_to_deliver_us.snapshot()),
            ("circuit_establish_us", self.circuit_establish_us.snapshot()),
            ("ns_lookup_us", self.ns_lookup_us.snapshot()),
            ("fault_recovery_us", self.fault_recovery_us.snapshot()),
        ]
    }
}

/// Hop kinds carried in [`HopRecord::kind`].
pub mod hop_kind {
    /// The originating application send.
    pub const SEND: u32 = 1;
    /// A gateway spliced the circuit toward the next network.
    pub const SPLICE: u32 = 2;
    /// The sender's LCM detected an address fault (§3.5).
    pub const FAULT: u32 = 3;
    /// The sender transparently re-established toward the relocated peer.
    pub const RECONNECT: u32 = 4;
    /// The receiving module delivered the message to the application.
    pub const DELIVER: u32 = 5;
    /// A reliable-extension retransmission of the same message.
    pub const RETRANSMIT: u32 = 6;
    /// Recovery exhausted; the message went to the dead-letter sink.
    pub const DEAD_LETTER: u32 = 7;
    /// The send waited on an exhausted credit window before proceeding
    /// (flow-control backpressure).
    pub const STALL: u32 = 8;
    /// The sender's circuit changed substrate kind mid-conversation (the
    /// drain-then-switch relocation handoff, e.g. SHM → TCP).
    pub const HANDOFF: u32 = 9;

    /// Human name of a hop kind code.
    #[must_use]
    pub fn name(kind: u32) -> &'static str {
        match kind {
            SEND => "send",
            SPLICE => "splice",
            FAULT => "fault",
            RECONNECT => "reconnect",
            DELIVER => "deliver",
            RETRANSMIT => "retransmit",
            DEAD_LETTER => "dead-letter",
            STALL => "stall",
            HANDOFF => "handoff",
            _ => "unknown",
        }
    }
}

/// Event kinds carried in [`RecordedEvent::kind`] — the flight recorder's
/// taxonomy. Hot-path kinds (see [`event_kind::is_hot`]) are sampled; every
/// failure-path kind is always recorded.
pub mod event_kind {
    /// An application-level message send left the LCM.
    pub const SEND: u32 = 1;
    /// A message was delivered into the application inbox.
    pub const DELIVER: u32 = 2;
    /// A supervised operation retried (aux = attempt number).
    pub const RETRY: u32 = 3;
    /// A circuit breaker changed state (aux = 0 healthy, 1 degraded,
    /// 2 broken).
    pub const BREAKER: u32 = 4;
    /// A send stalled on an exhausted credit window (aux = bytes wanted).
    pub const CREDIT_STALL: u32 = 5;
    /// A credit grant replenished a window (aux = bytes granted).
    pub const CREDIT_GRANT: u32 = 6;
    /// The module relocated to another machine (aux = new machine id).
    pub const RELOCATION: u32 = 7;
    // Code 8 is retired (it named a frame-batch flush); it stays unused
    // so that no later kind is renumbered.
    /// Recovery exhausted; a message went to the dead-letter sink.
    pub const DEAD_LETTER: u32 = 9;
    /// A bounded queue shed a frame (aux = inbox depth at the shed).
    pub const SHED: u32 = 10;
    /// A virtual circuit was established (aux = 1 outbound, 0 inbound).
    pub const CIRCUIT_OPEN: u32 = 11;
    /// A virtual circuit closed or was torn down.
    pub const CIRCUIT_CLOSE: u32 = 12;
    /// A name-cache probe was served from a live lease (aux = 0).
    pub const CACHE_HIT: u32 = 13;
    /// A name-cache probe went to the naming service (aux = 0 cold miss,
    /// 1 expired lease revalidated).
    pub const CACHE_MISS: u32 = 14;
    /// A cached lease was invalidated (aux = 1 pushed by the shard,
    /// 0 local, e.g. on a forwarding address).
    pub const CACHE_INVALIDATE: u32 = 15;
    /// A substrate-selection decision. For a fresh choice or a fallback,
    /// aux is the chosen substrate code (1 shm, 2 mbx, 3 udp, 4 tcp); for
    /// a relocation handoff, aux = `0x100 | (old_code << 4) | new_code`.
    pub const SUBSTRATE: u32 = 16;
    /// A frame was discarded because the hop it was bound for was gone
    /// (aux = frame bytes), e.g. by a gateway relay whose splice is
    /// collapsing (§4.3).
    pub const DROP: u32 = 17;

    /// Number of distinct event kinds (for per-kind sampling counters).
    pub(crate) const COUNT: usize = 18;

    /// Whether a kind is hot-path (per-message) and therefore subject to
    /// 1-in-2^shift sampling. Failure-path kinds always record.
    #[must_use]
    pub fn is_hot(kind: u32) -> bool {
        matches!(kind, SEND | DELIVER | CREDIT_GRANT)
    }

    /// Human name of an event kind code.
    #[must_use]
    pub fn name(kind: u32) -> &'static str {
        match kind {
            SEND => "send",
            DELIVER => "deliver",
            RETRY => "retry",
            BREAKER => "breaker",
            CREDIT_STALL => "credit-stall",
            CREDIT_GRANT => "credit-grant",
            RELOCATION => "relocation",
            DEAD_LETTER => "dead-letter",
            SHED => "shed",
            CIRCUIT_OPEN => "circuit-open",
            CIRCUIT_CLOSE => "circuit-close",
            CACHE_HIT => "cache-hit",
            CACHE_MISS => "cache-miss",
            CACHE_INVALIDATE => "cache-invalidate",
            SUBSTRATE => "substrate",
            DROP => "drop",
            _ => "unknown",
        }
    }
}

/// One structured event read back from a [`FlightRecorder`] ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordedEvent {
    /// Global sequence number (monotone per recorder; gaps mean sampling
    /// or ring wrap, never loss of ordering).
    pub seq: u64,
    /// Event kind code (see [`event_kind`]).
    pub kind: u32,
    /// Corrected virtual timestamp of the event, µs.
    pub timestamp_us: i64,
    /// Peer UAdd involved (raw; 0 = none).
    pub peer: u64,
    /// Message id involved (0 = none).
    pub msg_id: u64,
    /// Kind-specific detail word (see the [`event_kind`] docs).
    pub aux: u64,
}

/// One ring slot, seqlock-versioned: `version = 2·ticket + 1` while a
/// writer owns it, `2·ticket + 2` once the payload is complete, 0 while
/// never written. Readers accept a slot only when they observe the same
/// even version before and after reading the payload.
#[derive(Debug)]
struct Slot {
    version: AtomicU64,
    kind: AtomicU64,
    timestamp_us: AtomicI64,
    peer: AtomicU64,
    msg_id: AtomicU64,
    aux: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            version: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            timestamp_us: AtomicI64::new(0),
            peer: AtomicU64::new(0),
            msg_id: AtomicU64::new(0),
            aux: AtomicU64::new(0),
        }
    }
}

/// The always-on flight recorder: a fixed-size, lock-free ring of
/// structured events, one per Nucleus/gateway. Writers claim a global
/// ticket and publish into `ticket % capacity` under a per-slot seqlock;
/// a writer that has been lapped a full ring by the time it claims its
/// slot drops its event instead of corrupting a newer one ([`Self::lost`]
/// counts those). Hot-path kinds are sampled 1-in-2^shift so steady-state
/// cost stays a handful of atomic stores; failure-path kinds always
/// record.
///
/// Timestamps come from the injected [`SimClock`], so same-seed simulation
/// runs produce byte-identical event streams.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    ticket: AtomicU64,
    lost: AtomicU64,
    seen: [AtomicU64; event_kind::COUNT],
    hot_shift: u32,
    clock: SimClock,
}

impl FlightRecorder {
    /// A recorder over `capacity` slots reading `clock`. `capacity == 0`
    /// disables recording entirely (every [`Self::record`] is a no-op).
    /// Hot-path kinds record 1 in `2^hot_sample_shift` events.
    #[must_use]
    pub fn new(clock: SimClock, capacity: usize, hot_sample_shift: u32) -> Self {
        FlightRecorder {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            ticket: AtomicU64::new(0),
            lost: AtomicU64::new(0),
            seen: std::array::from_fn(|_| AtomicU64::new(0)),
            hot_shift: hot_sample_shift.min(32),
            clock,
        }
    }

    /// Whether this recorder is active (nonzero capacity).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        !self.slots.is_empty()
    }

    /// The ring capacity in events.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events dropped because their writer was lapped mid-write (distinct
    /// from sampling and from ordinary ring wrap, both of which are
    /// by-design).
    #[must_use]
    pub fn lost(&self) -> u64 {
        self.lost.load(Ordering::Relaxed)
    }

    /// Total events offered for `kind`, before sampling.
    #[must_use]
    pub fn seen(&self, kind: u32) -> u64 {
        self.seen
            .get(kind as usize)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Records one event. Lock-free: one sampling check, one ticket
    /// fetch-add, one CAS and five stores on the recording path.
    pub fn record(&self, kind: u32, peer: u64, msg_id: u64, aux: u64) {
        if self.slots.is_empty() {
            return;
        }
        if let Some(c) = self.seen.get(kind as usize) {
            let n = c.fetch_add(1, Ordering::Relaxed);
            if event_kind::is_hot(kind)
                && self.hot_shift > 0
                && n & ((1u64 << self.hot_shift) - 1) != 0
            {
                return;
            }
        }
        let now = self.clock.now_us();
        let cap = self.slots.len() as u64;
        let ticket = self.ticket.fetch_add(1, Ordering::SeqCst);
        let slot = &self.slots[(ticket % cap) as usize];
        // The slot last completed ticket − cap (or was never written). A
        // failed claim means another writer already owns a *newer* lap of
        // this slot; losing our event is the corruption-free choice.
        let expected = if ticket >= cap {
            2 * (ticket - cap) + 2
        } else {
            0
        };
        if slot
            .version
            .compare_exchange(expected, 2 * ticket + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            self.lost.fetch_add(1, Ordering::Relaxed);
            return;
        }
        slot.kind.store(u64::from(kind), Ordering::SeqCst);
        slot.timestamp_us.store(now, Ordering::SeqCst);
        slot.peer.store(peer, Ordering::SeqCst);
        slot.msg_id.store(msg_id, Ordering::SeqCst);
        slot.aux.store(aux, Ordering::SeqCst);
        slot.version.store(2 * ticket + 2, Ordering::SeqCst);
    }

    /// The most recent `max` events in sequence order, skipping slots a
    /// concurrent writer holds torn. `max == usize::MAX` returns the whole
    /// readable ring.
    #[must_use]
    pub fn tail(&self, max: usize) -> Vec<RecordedEvent> {
        let mut events = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let v1 = slot.version.load(Ordering::SeqCst);
            if v1 == 0 || v1 % 2 == 1 {
                continue; // never written, or mid-write
            }
            let ev = RecordedEvent {
                seq: v1 / 2 - 1,
                kind: u32::try_from(slot.kind.load(Ordering::SeqCst)).unwrap_or(0),
                timestamp_us: slot.timestamp_us.load(Ordering::SeqCst),
                peer: slot.peer.load(Ordering::SeqCst),
                msg_id: slot.msg_id.load(Ordering::SeqCst),
                aux: slot.aux.load(Ordering::SeqCst),
            };
            let v2 = slot.version.load(Ordering::SeqCst);
            if v1 == v2 {
                events.push(ev);
            }
        }
        events.sort_by_key(|e| e.seq);
        if events.len() > max {
            events.drain(..events.len() - max);
        }
        events
    }

    /// Every readable event currently in the ring, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<RecordedEvent> {
        self.tail(usize::MAX)
    }
}

/// Flight-recorder ring capacity of every Nucleus, in events.
pub const RECORDER_CAPACITY: usize = 1024;

/// Hot-path recorder kinds keep 1 in 2^this events (1 in 4).
pub const RECORDER_HOT_SAMPLE_SHIFT: u32 = 2;

/// One observed occurrence, emitted once at its site through
/// [`Nucleus::emit`]. Per-message variants (`Send`, `Sent`, `Cast`,
/// `Recv`, `Deliver`, `CreditGrant`) carry only `Copy` data; failure
/// variants borrow their error, which is formatted only if the layer trace
/// records the line. Peers are UAdds; `trace` is the causal trace id of
/// the send the occurrence belongs to (0 = untraced).
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)]
pub enum ObsEvent<'a> {
    /// An LCM send toward `dst` begins (trace only).
    Send { dst: UAdd, msg_id: u64, trace: u64 },
    /// A data frame left on a circuit to `peer`.
    Sent { peer: UAdd, msg_id: u64 },
    /// A connectionless send was accepted.
    Cast,
    /// A connectionless send was lost in transport.
    CastDropped,
    /// The application took a message from the inbox.
    Recv,
    /// A data frame from `peer` entered the inbox; `sent_at_us` is the
    /// sender's header timestamp (0 = none).
    Deliver {
        peer: UAdd,
        msg_id: u64,
        span: u32,
        sent_at_us: i64,
        trace: u64,
    },
    /// A credit grant of `bytes` from `peer` replenished a window.
    CreditGrant { peer: UAdd, bytes: u64 },
    /// A request was re-issued (the `n`th time) after its circuit closed.
    Reissue { dst: UAdd, msg_id: u64, n: u32 },
    /// A reliable send retransmitted (`attempt` counts from 1).
    Retransmit {
        dst: UAdd,
        msg_id: u64,
        attempt: u32,
        trace: u64,
    },
    /// A reliable message went to the dead-letter sink.
    DeadLetter {
        dst: UAdd,
        msg_id: u64,
        attempts: u32,
        error: &'a NtcsError,
    },
    /// The breaker toward `peer` closed again.
    BreakerRecover { peer: UAdd },
    /// The breaker toward `peer` tripped open.
    BreakerTrip { peer: UAdd },
    /// A send reached `peer` after `faults` address faults, the first at
    /// `fault_at_us`.
    Reconnect {
        peer: UAdd,
        faults: u32,
        fault_at_us: i64,
        trace: u64,
    },
    /// A send to `peer` met an address fault (§3.5).
    AddressFault {
        peer: UAdd,
        error: &'a NtcsError,
        trace: u64,
    },
    /// A send to `peer` found its credit window exhausted.
    CreditStall {
        peer: UAdd,
        msg_id: u64,
        bytes: u64,
        trace: u64,
    },
    /// A send was shed on an exhausted window (`ShedNewest`).
    CreditShed,
    /// A full inbox shed its oldest message; `depth` is the inbox length.
    InboxShed { peer: UAdd, msg_id: u64, depth: u64 },
    /// The LCM asked the naming service who replaces `peer`.
    ForwardingQuery { peer: UAdd, cause: &'a NtcsError },
    /// A cached location of `peer` was dropped (`pushed` by a shard, or
    /// local on a forwarding address).
    CacheInvalidate { peer: UAdd, pushed: bool },
    /// A circuit to `peer` closed (0 for a gateway splice).
    CircuitClose { peer: UAdd },
    /// A reliable send left a UDP circuit to `peer`.
    SubstrateUpgrade { peer: UAdd },
    /// A name-cache probe for `peer` was served from a live lease.
    CacheHit { peer: UAdd },
    /// A name-cache probe for `peer` went to the naming service.
    CacheMiss { peer: UAdd, expired: bool },
    /// A naming-service lookup of `peer` begins.
    Lookup { peer: UAdd },
    /// A naming-service lookup begun at `started_us` answered.
    LookupDone { started_us: i64 },
    /// An LVC open toward `peer` chose substrate `code`.
    SubstrateSelect { peer: UAdd, code: u32 },
    /// `peer` moved from substrate `old` to `new`.
    SubstrateHandoff { peer: UAdd, old: u32, new: u32 },
    /// A substrate candidate refused the dial; the next is tried.
    SubstrateFallback {
        addr: &'a PhysAddr,
        error: &'a NtcsError,
    },
    /// The IP layer asked for a route to `dst`.
    RouteQuery { dst: UAdd },
    /// The ND layer opens an LVC to `addr`.
    NdOpen { addr: &'a PhysAddr, trace: u64 },
    /// The `n`th retry of an LVC open to `addr` for `peer`.
    NdRetry {
        peer: UAdd,
        addr: &'a PhysAddr,
        n: u32,
        error: &'a NtcsError,
    },
    /// An outbound circuit to `peer`, begun at `started_us`, was acked.
    CircuitOpen { peer: UAdd, started_us: i64 },
    /// An inbound circuit from `wire_peer` was accepted as `peer`.
    CircuitAccept { wire_peer: UAdd, peer: UAdd },
    /// A TAdd alias was replaced by the sender's real UAdd (§3.4).
    TaddPurge,
    /// A duplicate reliable frame was suppressed.
    DuplicateSuppressed,
    /// An inbound open for `dst` went to the gateway handler.
    Transit { dst: UAdd },
    /// The `n`th retry of a gateway's dial of the next hop `addr`.
    SpliceRetry {
        addr: &'a PhysAddr,
        n: u32,
        error: &'a NtcsError,
    },
    /// A gateway spliced `src`'s circuit toward `dst`.
    Splice { src: UAdd, msg_id: u64, dst: UAdd },
    /// A gateway refused `src`'s transit open.
    SpliceRefused {
        src: UAdd,
        msg_id: u64,
        error: &'a NtcsError,
    },
    /// A gateway relay dropped `bytes` because the next hop was gone.
    RelayDrop { bytes: u64 },
    /// The `n`th re-sweep of naming shard `shard`'s replicas.
    NsRetry {
        shard: usize,
        n: u32,
        error: &'a NtcsError,
    },
    /// The module relocated away from `old` to machine `machine`.
    Relocation { old: UAdd, machine: u32 },
}

/// One Nucleus's observability sinks — counters, histograms, flight
/// recorder and layer trace — fed only through [`Sinks::emit`].
pub(crate) struct Sinks {
    pub(crate) metrics: NucleusMetrics,
    pub(crate) hists: NucleusHistograms,
    pub(crate) recorder: FlightRecorder,
    pub(crate) trace: LayerTrace,
    pub(crate) clock: SimClock,
}

impl Sinks {
    /// Fresh sinks on `clock`; `recorder` off leaves the ring empty.
    pub(crate) fn new(clock: SimClock, recorder: bool) -> Self {
        let capacity = if recorder { RECORDER_CAPACITY } else { 0 };
        Sinks {
            metrics: NucleusMetrics::new(),
            hists: NucleusHistograms::new(),
            recorder: FlightRecorder::new(clock.clone(), capacity, RECORDER_HOT_SAMPLE_SHIFT),
            trace: LayerTrace::default(),
            clock,
        }
    }

    fn record(&self, kind: u32, peer: UAdd, msg_id: u64, aux: u64) {
        self.recorder.record(kind, peer.raw(), msg_id, aux);
    }

    fn line(
        &self,
        depth: u32,
        layer: Layer,
        action: &'static str,
        trace: u64,
        why: impl FnOnce() -> String,
    ) {
        self.trace
            .record(depth, layer, action, trace, || Why::Text(why()));
    }

    fn since(&self, hist: &Histogram, started_us: i64) {
        hist.record_us(self.clock.now_us() - started_us);
    }

    /// The one mapping from an occurrence to its sinks. Trace lines sit at
    /// the caller's recursion depth, except those recorded off the
    /// caller's stack (deliveries, accepts, transits), which sit at 0.
    pub(crate) fn emit(&self, gauge: &RecursionGauge, ev: ObsEvent<'_>) {
        use event_kind as k;
        use Layer::{Ip, Lcm, Nd, Nsp};
        use ObsEvent as E;
        let m = &self.metrics;
        let d = || gauge.depth();
        match ev {
            E::Send { dst, msg_id, trace } => {
                self.trace
                    .record(d(), Lcm, "send", trace, || Why::Send { dst, msg_id });
            }
            E::Sent { peer, msg_id } => {
                m.bump(&m.sends);
                self.record(k::SEND, peer, msg_id, 0);
            }
            E::Cast => m.bump(&m.casts),
            E::CastDropped => m.bump(&m.dropped_messages),
            E::Recv => m.bump(&m.recvs),
            E::Deliver {
                peer,
                msg_id,
                span,
                sent_at_us,
                trace,
            } => {
                self.record(k::DELIVER, peer, msg_id, 0);
                if sent_at_us != 0 {
                    // On the receiver's corrected clock; skew can make it
                    // negative, which the histogram clamps to 0.
                    self.since(&self.hists.send_to_deliver_us, sent_at_us);
                }
                if trace != 0 {
                    self.trace
                        .record(0, Lcm, "deliver", trace, || Why::Deliver {
                            peer,
                            msg_id,
                            span,
                        });
                }
            }
            E::CreditGrant { peer, bytes } => self.record(k::CREDIT_GRANT, peer, 0, bytes),
            E::Reissue { dst, msg_id, n } => {
                m.bump(&m.request_reissues);
                self.record(k::RETRY, dst, msg_id, n.into());
                self.line(d(), Lcm, "reissue", 0, || {
                    format!("{dst} msg {msg_id}: circuit closed before the reply (re-issue {n})")
                });
            }
            E::Retransmit {
                dst,
                msg_id,
                attempt,
                trace,
            } => {
                m.bump(&m.retransmissions);
                m.bump(&m.retry_attempts);
                if trace != 0 {
                    self.line(d(), Lcm, "retransmit", trace, || {
                        format!("{dst} msg {msg_id} attempt {attempt}")
                    });
                }
            }
            E::DeadLetter {
                dst,
                msg_id,
                attempts,
                error,
            } => {
                m.bump(&m.dead_letters);
                self.record(k::DEAD_LETTER, dst, msg_id, attempts.into());
                self.line(d(), Lcm, "dead-letter", 0, || {
                    format!("{dst} msg {msg_id} after {attempts} attempts: {error}")
                });
            }
            E::BreakerRecover { peer } => {
                m.bump(&m.breaker_recoveries);
                self.record(k::BREAKER, peer, 0, 0);
                self.line(d(), Lcm, "breaker-recover", 0, || {
                    format!("{peer} healthy again")
                });
            }
            E::BreakerTrip { peer } => {
                m.bump(&m.breaker_trips);
                self.record(k::BREAKER, peer, 0, 2);
                self.line(d(), Lcm, "breaker-trip", 0, || {
                    format!("circuit to {peer} broken")
                });
            }
            E::Reconnect {
                peer,
                faults,
                fault_at_us,
                trace,
            } => {
                m.bump(&m.reconnects);
                // §3.5 recovery: fault detected → data flowing again.
                self.since(&self.hists.fault_recovery_us, fault_at_us);
                self.line(d(), Lcm, "reconnect", trace, || {
                    format!("{peer} reachable again after {faults} fault(s)")
                });
            }
            E::AddressFault { peer, error, trace } => {
                m.bump(&m.address_faults);
                self.line(d(), Lcm, "address-fault", trace, || {
                    format!("{peer}: {error}")
                });
            }
            E::CreditStall {
                peer,
                msg_id,
                bytes,
                trace,
            } => {
                m.bump(&m.flow_stalls);
                self.record(k::CREDIT_STALL, peer, msg_id, bytes);
                if trace != 0 {
                    self.line(d(), Lcm, "flow-stall", trace, || {
                        format!("→ {peer} msg {msg_id} awaiting credit ({bytes} B)")
                    });
                }
            }
            E::CreditShed => m.bump(&m.flow_sheds),
            E::InboxShed {
                peer,
                msg_id,
                depth,
            } => {
                m.bump(&m.flow_sheds);
                self.record(k::SHED, peer, msg_id, depth);
            }
            E::ForwardingQuery { peer, cause } => {
                m.bump(&m.forward_queries);
                self.line(d(), Nsp, "forwarding-query", 0, || {
                    format!("who replaces {peer}? (fault: {cause})")
                });
            }
            E::CacheInvalidate { peer, pushed } => {
                m.bump(&m.ns_invalidations);
                self.record(k::CACHE_INVALIDATE, peer, 0, pushed.into());
            }
            E::CircuitClose { peer } => self.record(k::CIRCUIT_CLOSE, peer, 0, 0),
            E::SubstrateUpgrade { peer } => {
                self.line(d(), Lcm, "substrate-upgrade", 0, || {
                    format!("{peer}: reliable send leaves the udp circuit")
                });
            }
            E::CacheHit { peer } => {
                m.bump(&m.ns_cache_hits);
                self.record(k::CACHE_HIT, peer, 0, 0);
            }
            E::CacheMiss { peer, expired } => {
                m.bump(if expired {
                    &m.ns_cache_stale
                } else {
                    &m.ns_cache_misses
                });
                self.record(k::CACHE_MISS, peer, 0, expired.into());
            }
            E::Lookup { peer } => {
                m.bump(&m.ns_lookups);
                self.line(d(), Nsp, "lookup", 0, || format!("ND needs phys of {peer}"));
            }
            E::LookupDone { started_us } => self.since(&self.hists.ns_lookup_us, started_us),
            E::SubstrateSelect { peer, code } => {
                m.bump(&m.substrate_selects);
                self.record(k::SUBSTRATE, peer, 0, code.into());
            }
            E::SubstrateHandoff { peer, old, new } => {
                m.bump(&m.substrate_handoffs);
                self.record(k::SUBSTRATE, peer, 0, u64::from(0x100 | (old << 4) | new));
                let name = SubstrateBinding::code_name;
                self.line(d(), Nd, "substrate-handoff", 0, || {
                    format!("{peer}: {} → {}", name(old), name(new))
                });
            }
            E::SubstrateFallback { addr, error } => {
                m.bump(&m.substrate_fallbacks);
                self.line(d(), Nd, "substrate-fallback", 0, || {
                    format!("{addr}: {error}; trying next substrate")
                });
            }
            E::RouteQuery { dst } => {
                m.bump(&m.route_queries);
                self.line(d(), Ip, "route-query", 0, || {
                    format!("destination {dst} is on a foreign network")
                });
            }
            E::NdOpen { addr, trace } => {
                self.line(d(), Nd, "open", trace, || format!("LVC to {addr}"));
                m.bump(&m.nd_open_attempts);
            }
            E::NdRetry {
                peer,
                addr,
                n,
                error,
            } => {
                m.bump(&m.retry_attempts);
                self.record(k::RETRY, peer, 0, n.into());
                m.bump(&m.nd_open_attempts);
                self.line(d(), Nd, "retry", 0, || {
                    format!("open {addr} retry {n}: {error}")
                });
            }
            E::CircuitOpen { peer, started_us } => {
                m.bump(&m.circuits_opened);
                self.record(k::CIRCUIT_OPEN, peer, 0, 1);
                self.since(&self.hists.circuit_establish_us, started_us);
            }
            E::CircuitAccept { wire_peer, peer } => {
                m.bump(&m.circuits_accepted);
                self.record(k::CIRCUIT_OPEN, wire_peer, 0, 0);
                self.line(0, Nd, "accept", 0, || format!("from {wire_peer} as {peer}"));
            }
            E::TaddPurge => m.bump(&m.tadd_purges),
            E::DuplicateSuppressed => m.bump(&m.duplicates_suppressed),
            E::Transit { dst } => self.line(0, Ip, "transit", 0, || dst.to_string()),
            E::SpliceRetry { addr, n, error } => {
                m.bump(&m.retry_attempts);
                self.line(d(), Nd, "retry", 0, || {
                    format!("splice hop {addr} retry {n}: {error}")
                });
            }
            // aux names the final destination: a snapshot shows both ends.
            E::Splice { src, msg_id, dst } => self.record(k::CIRCUIT_OPEN, src, msg_id, dst.raw()),
            E::SpliceRefused { src, msg_id, error } => {
                self.record(k::SHED, src, msg_id, error.wire_code().into());
            }
            E::RelayDrop { bytes } => self.record(k::DROP, UAdd::from_raw(0), 0, bytes),
            E::NsRetry { shard, n, error } => {
                m.bump(&m.retry_attempts);
                self.line(d(), Nsp, "ns-retry", 0, || {
                    format!("shard {shard} replica sweep {n} failed: {error}")
                });
            }
            E::Relocation { old, machine } => self.record(k::RELOCATION, old, 0, machine.into()),
        }
    }
}

ntcs_message! {
    /// One leg of a traced message's journey, cast to the DRTS monitor by
    /// the module that performed it (type-id block 130-139).
    pub struct HopRecord: 130 {
        /// The journey this hop belongs to.
        pub trace_id: u64,
        /// Span counter at this hop (bumped per recovery leg).
        pub span: u32,
        /// Hop kind code (see [`hop_kind`]).
        pub kind: u32,
        /// Reporting module's UAdd (raw).
        pub module: u64,
        /// Reporting module's name hint.
        pub module_name: String,
        /// Peer UAdd involved in this hop (raw; 0 = none).
        pub peer: u64,
        /// Message id of the traced send (0 = unknown at this hop).
        pub msg_id: u64,
        /// Corrected virtual timestamp of the hop, µs.
        pub timestamp_us: i64,
        /// Free-form detail (e.g. the fault error, the splice's networks).
        pub detail: String,
    }

    /// Ask the monitor for one trace's reassembled hop chain.
    pub struct TraceQuery: 131 {
        /// The trace to reassemble.
        pub trace_id: u64,
    }

    /// The monitor's reply: hops in causal (timestamp, arrival) order.
    pub struct TraceReply: 132 {
        /// The reassembled chain.
        pub hops: Vec<HopRecord>,
    }

    /// Ask any module or gateway for a point-in-time snapshot of its
    /// flight-recorder tail, gauges, histograms, and breaker/flow state.
    /// Rides the control lane (type id ≤ `CONTROL_TYPE_MAX`), so a module
    /// wedged on credit still answers.
    pub struct ObsQuery: 140 {
        /// Maximum flight-recorder events to include (0 = all readable).
        pub max_events: u32,
    }

    /// A module's introspection snapshot, rendered at the source so the
    /// querier needs no schema knowledge: the machine-readable JSON
    /// document plus the human table.
    pub struct ObsReply: 141 {
        /// The answering module's display name.
        pub module: String,
        /// The snapshot as a JSON document (see DESIGN.md §7 schema).
        pub json: String,
        /// The snapshot as a human-readable table.
        pub table: String,
    }

    /// Ask the DRTS monitor to fan an [`ObsQuery`] out to `targets` and
    /// aggregate the answers into one cluster-wide snapshot document.
    pub struct ObsCollect: 142 {
        /// Raw UAdds to query.
        pub targets: Vec<u64>,
        /// Maximum flight-recorder events per target (0 = all readable).
        pub max_events: u32,
    }

    /// The monitor's aggregated cluster snapshot.
    pub struct ObsCollectReply: 143 {
        /// One JSON document embedding every target's snapshot (targets
        /// that failed to answer appear as `{"module":…,"error":…}`).
        pub json: String,
    }
}

impl HopRecord {
    /// A hop performed by the module bound to `nucleus`, stamped with that
    /// module's address, name and virtual clock — the one constructor the
    /// ALI's and the gateway's hop reports share.
    #[must_use]
    pub fn at_module(
        nucleus: &Nucleus,
        kind: u32,
        trace_id: u64,
        span: u32,
        peer: UAdd,
        msg_id: u64,
        detail: String,
    ) -> Self {
        HopRecord {
            trace_id,
            span,
            kind,
            module: nucleus.my_uadd().raw(),
            module_name: nucleus.config().module_hint.clone(),
            peer: peer.raw(),
            msg_id,
            timestamp_us: nucleus.clock().now_us(),
            detail,
        }
    }
}

impl fmt::Display for HopRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] span {} {:10} {} (peer {:#x}, msg {}) at {}µs {}",
            TraceId::from_raw(self.trace_id),
            self.span,
            hop_kind::name(self.kind),
            self.module_name,
            self.peer,
            self.msg_id,
            self.timestamp_us,
            self.detail,
        )
    }
}

/// One module's contribution to an observability report.
#[derive(Debug, Clone)]
pub struct ModuleReport {
    /// The module's display name (unique per testbed).
    pub module: String,
    /// Monotonic counters as `(name, value)`.
    pub counters: Vec<(&'static str, u64)>,
    /// Instantaneous gauges as `(name, value)`.
    pub gauges: Vec<(&'static str, u64)>,
    /// Latency histograms as `(name, snapshot)`.
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
    /// Per-peer circuit-breaker health as `(peer label, health)`.
    pub breakers: Vec<(String, CircuitHealth)>,
    /// Flight-recorder tail (oldest first; empty when the module has no
    /// recorder or it is disabled).
    pub events: Vec<RecordedEvent>,
}

/// Escapes a string for embedding inside a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn push_opt_us(out: &mut String, v: Option<u64>) {
    match v {
        Some(v) => out.push_str(&v.to_string()),
        None => out.push_str("null"),
    }
}

/// Renders one module's snapshot as a deterministic JSON document: keys in
/// declaration order, events in sequence order, no wall-clock fields — so
/// same-seed virtual-clock runs produce byte-identical documents. This is
/// the payload of [`ObsReply::json`] and of crash dumps under
/// `target/obs/`.
#[must_use]
pub fn render_module_snapshot_json(r: &ModuleReport) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"module\":\"");
    out.push_str(&json_escape(&r.module));
    out.push_str("\",\"counters\":{");
    for (i, (name, v)) in r.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{v}"));
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, v)) in r.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{v}"));
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in r.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let min = if h.count == 0 { 0 } else { h.min };
        out.push_str(&format!(
            "\"{name}\":{{\"count\":{},\"sum_us\":{},\"min_us\":{min},\"max_us\":{},\"mean_us\":{:.1},",
            h.count, h.sum, h.max, h.mean_us()
        ));
        out.push_str("\"p50_le_us\":");
        push_opt_us(&mut out, h.quantile_upper_us(0.5));
        out.push_str(",\"p90_le_us\":");
        push_opt_us(&mut out, h.quantile_upper_us(0.9));
        out.push_str(",\"p99_le_us\":");
        push_opt_us(&mut out, h.quantile_upper_us(0.99));
        out.push('}');
    }
    out.push_str("},\"breakers\":{");
    for (i, (peer, health)) in r.breakers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":\"{health}\"", json_escape(peer)));
    }
    out.push_str("},\"events\":[");
    for (i, e) in r.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"seq\":{},\"kind\":\"{}\",\"t_us\":{},\"peer\":{},\"msg_id\":{},\"aux\":{}}}",
            e.seq,
            event_kind::name(e.kind),
            e.timestamp_us,
            e.peer,
            e.msg_id,
            e.aux
        ));
    }
    out.push_str("]}");
    out
}

/// Wraps per-module snapshot documents (already-rendered JSON) into one
/// cluster-wide snapshot document. Used by [`MetricsRegistry`] locally and
/// by the DRTS monitor when aggregating remote [`ObsReply`] answers.
#[must_use]
pub fn cluster_snapshot_json<I>(docs: I) -> String
where
    I: IntoIterator<Item = String>,
{
    let mut out = String::from("{\"snapshot\":\"ntcs-cluster\",\"modules\":[");
    for (i, doc) in docs.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&doc);
    }
    out.push_str("]}");
    out
}

/// Renders one module's snapshot as a human-readable table section:
/// nonzero counters/gauges, histogram summaries, breaker states, and the
/// flight-recorder tail (newest 10 events).
#[must_use]
pub fn render_module_table(r: &ModuleReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("=== {} ===\n", r.module));
    for (name, v) in r.counters.iter().chain(r.gauges.iter()) {
        if *v != 0 {
            out.push_str(&format!("  {name:<24} {v}\n"));
        }
    }
    for (name, h) in &r.histograms {
        if h.count == 0 {
            continue;
        }
        let p99 = h
            .quantile_upper_us(0.99)
            .map_or_else(|| "inf".to_string(), |v| v.to_string());
        out.push_str(&format!(
            "  {name:<24} n={} mean={:.1}µs min={}µs max={}µs p99≤{}µs\n",
            h.count,
            h.mean_us(),
            h.min,
            h.max,
            p99
        ));
    }
    for (peer, health) in &r.breakers {
        out.push_str(&format!("  breaker {peer:<16} {health}\n"));
    }
    let skip = r.events.len().saturating_sub(10);
    for e in &r.events[skip..] {
        out.push_str(&format!(
            "  event #{:<6} {:14} peer={:#x} msg={} aux={} at {}µs\n",
            e.seq,
            event_kind::name(e.kind),
            e.peer,
            e.msg_id,
            e.aux,
            e.timestamp_us
        ));
    }
    out
}

/// Writes a snapshot JSON document to `target/obs/<name>.json` (or under
/// `$NTCS_OBS_DIR` when set), creating directories as needed. Returns the
/// written path, or `None` if the filesystem refused — dumps are
/// best-effort and never fail the caller.
pub fn dump_snapshot(name: &str, json: &str) -> Option<PathBuf> {
    let dir =
        std::env::var("NTCS_OBS_DIR").map_or_else(|_| PathBuf::from("target/obs"), PathBuf::from);
    std::fs::create_dir_all(&dir).ok()?;
    let safe: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '-'
            }
        })
        .collect();
    let path = dir.join(format!("{safe}.json"));
    std::fs::write(&path, json).ok()?;
    Some(path)
}

/// The distinct metric names across `reports`, in first-seen order.
fn family_names<T>(
    reports: &[ModuleReport],
    pick: impl Fn(&ModuleReport) -> &[(&'static str, T)],
) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = Vec::new();
    for r in reports {
        for (name, _) in pick(r) {
            if !names.contains(name) {
                names.push(name);
            }
        }
    }
    names
}

/// A callback producing a module's current [`ModuleReport`]; registered
/// once per module with the [`MetricsRegistry`].
pub type ReportSource = Box<dyn Fn() -> ModuleReport + Send + Sync>;

/// One-line help text for a metric family, emitted as the Prometheus
/// `# HELP` line. Unknown names get a generic description rather than no
/// HELP at all — the exposition format requires the metadata pair for
/// every family.
#[must_use]
pub fn help_for(name: &str) -> &'static str {
    match name {
        "sends" => "Application-level message sends.",
        "recvs" => "Messages received by the application.",
        "delivers" => "Messages delivered into the application inbox.",
        "retry_attempts" => "Supervised-operation retry attempts.",
        "dead_letters" => "Messages abandoned to the dead-letter sink.",
        "breaker_trips" => "Circuit-breaker trips to Broken.",
        "breaker_recoveries" => "Circuit-breaker recoveries to Healthy.",
        "dedupe_drops" => "Duplicate reliable sends dropped by the receiver.",
        "circuits_opened" => "Outbound virtual circuits established.",
        "circuits_accepted" => "Inbound virtual circuits accepted.",
        "address_faults" => "Address faults detected (peer relocated).",
        "reconnects" => "Transparent circuit re-establishments.",
        "request_reissues" => "Requests re-issued after their circuit closed unanswered.",
        "inbox_sheds" => "Messages shed from the bounded inbox.",
        "flow_stalls" => "Sends that stalled on an exhausted credit window.",
        "flow_sheds" => "Frames shed or dead-lettered by flow-control policy.",
        "recorder_lost" => "Flight-recorder events lost to writer lapping.",
        "gw_circuits_spliced" => "Circuits spliced through this gateway.",
        "gw_frames_relayed" => "Frames relayed through gateway splices.",
        "gw_frames_dropped" => "Frames a gateway splice could not pass on (hop gone).",
        "gw_teardowns" => "Gateway splice teardown cascades.",
        "gw_refusals" => "Transit opens refused by this gateway.",
        "retransmit_depth" => "Reliable sends awaiting acknowledgement.",
        "recursion_depth" => "Current nucleus-on-nucleus recursion depth.",
        "forwarding_entries" => "Forwarding entries left behind by relocations.",
        "flow_credits_available" => "Credit bytes available across open circuits.",
        "inbox_depth" => "Messages queued in the application inbox.",
        "pool_free_buffers" => "Free buffers in the shared BufferPool.",
        "pool_hits" => "BufferPool leases served from the freelist.",
        "pool_misses" => "BufferPool leases that had to allocate.",
        "pool_returns" => "Buffers returned to the BufferPool.",
        "pool_discards" => "Returned buffers the BufferPool discarded.",
        "substrate_selects" => "Substrate choices made at LVC open.",
        "substrate_fallbacks" => "Substrate candidates refused, next one tried.",
        "substrate_handoffs" => "Circuits that changed substrate after relocation.",
        "mbx_backlog_bytes" => "Bytes queued across MBX links right now.",
        "mbx_backlog_peak_bytes" => "Peak bytes queued on any MBX link.",
        "send_to_deliver_us" => "Application send to receiver-side delivery latency.",
        "circuit_establish_us" => "Virtual-circuit establishment latency.",
        "ns_lookup_us" => "Naming-service lookup latency.",
        "fault_recovery_us" => "Address-fault recovery duration.",
        "breaker_state" => "Circuit-breaker health (0 healthy, 1 degraded, 2 broken).",
        _ => "NTCS metric (see DESIGN.md, Observability).",
    }
}

/// The testbed-wide registry aggregating every module's report into one
/// export, in Prometheus text-exposition format or a human table.
#[derive(Default)]
pub struct MetricsRegistry {
    sources: Mutex<Vec<ReportSource>>,
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.sources.lock().map(|s| s.len()).unwrap_or(0);
        f.debug_struct("MetricsRegistry")
            .field("sources", &n)
            .finish()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers a module's report source.
    pub fn register(&self, source: ReportSource) {
        self.sources
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(source);
    }

    /// Collects a fresh report from every registered source.
    #[must_use]
    pub fn reports(&self) -> Vec<ModuleReport> {
        let sources = self.sources.lock().unwrap_or_else(|e| e.into_inner());
        sources.iter().map(|s| s()).collect()
    }

    /// Renders all reports in Prometheus text-exposition format: counters
    /// as `ntcs_<name>_total`, gauges as `ntcs_<name>`, histograms as the
    /// standard cumulative `_bucket{le=…}`/`_sum`/`_count` triple, and
    /// breaker health as `ntcs_breaker_state` (0 healthy, 1 degraded,
    /// 2 broken), all labelled by `module`.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let reports = self.reports();
        let mut out = String::new();

        // Each family grouped by metric name, so each # TYPE appears once.
        for name in family_names(&reports, |r| &r.counters) {
            out.push_str(&format!("# HELP ntcs_{name}_total {}\n", help_for(name)));
            out.push_str(&format!("# TYPE ntcs_{name}_total counter\n"));
            for r in &reports {
                if let Some((_, v)) = r.counters.iter().find(|(n, _)| *n == name) {
                    out.push_str(&format!(
                        "ntcs_{name}_total{{module=\"{}\"}} {v}\n",
                        r.module
                    ));
                }
            }
        }

        for name in family_names(&reports, |r| &r.gauges) {
            out.push_str(&format!("# HELP ntcs_{name} {}\n", help_for(name)));
            out.push_str(&format!("# TYPE ntcs_{name} gauge\n"));
            for r in &reports {
                if let Some((_, v)) = r.gauges.iter().find(|(n, _)| *n == name) {
                    out.push_str(&format!("ntcs_{name}{{module=\"{}\"}} {v}\n", r.module));
                }
            }
        }

        for name in family_names(&reports, |r| &r.histograms) {
            out.push_str(&format!("# HELP ntcs_{name} {}\n", help_for(name)));
            out.push_str(&format!("# TYPE ntcs_{name} histogram\n"));
            for r in &reports {
                let Some((_, h)) = r.histograms.iter().find(|(n, _)| *n == name) else {
                    continue;
                };
                let mut cumulative = 0u64;
                for (i, &c) in h.buckets.iter().enumerate() {
                    // Empty interior buckets are elided to keep the
                    // exposition small; +Inf is always emitted.
                    cumulative += c;
                    match Histogram::bucket_upper_bound(i) {
                        Some(le) if c > 0 => out.push_str(&format!(
                            "ntcs_{name}_bucket{{module=\"{}\",le=\"{le}\"}} {cumulative}\n",
                            r.module
                        )),
                        Some(_) => {}
                        None => out.push_str(&format!(
                            "ntcs_{name}_bucket{{module=\"{}\",le=\"+Inf\"}} {cumulative}\n",
                            r.module
                        )),
                    }
                }
                out.push_str(&format!(
                    "ntcs_{name}_sum{{module=\"{}\"}} {}\n",
                    r.module, h.sum
                ));
                out.push_str(&format!(
                    "ntcs_{name}_count{{module=\"{}\"}} {}\n",
                    r.module, h.count
                ));
            }
        }

        let any_breakers = reports.iter().any(|r| !r.breakers.is_empty());
        if any_breakers {
            out.push_str(&format!(
                "# HELP ntcs_breaker_state {}\n",
                help_for("breaker_state")
            ));
            out.push_str("# TYPE ntcs_breaker_state gauge\n");
            for r in &reports {
                for (peer, health) in &r.breakers {
                    let code = match health {
                        CircuitHealth::Healthy => 0,
                        CircuitHealth::Degraded => 1,
                        CircuitHealth::Broken => 2,
                    };
                    out.push_str(&format!(
                        "ntcs_breaker_state{{module=\"{}\",peer=\"{peer}\"}} {code}\n",
                        r.module
                    ));
                }
            }
        }
        out
    }

    /// Renders all reports as a human-readable table: one section per
    /// module, nonzero counters/gauges first, then histogram summaries
    /// and breaker states.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for r in self.reports() {
            out.push_str(&render_module_table(&r));
        }
        out
    }

    /// Renders every registered module's snapshot as one cluster-wide
    /// JSON document (the local counterpart of what the DRTS monitor
    /// assembles from remote [`ObsReply`] answers). Deterministic for
    /// same-seed virtual-clock runs: no wall-clock fields, stable
    /// registration order.
    #[must_use]
    pub fn render_snapshot_json(&self) -> String {
        cluster_snapshot_json(self.reports().iter().map(render_module_snapshot_json))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let g = TraceIdGen::new(0xABCD);
        let a = g.next_id();
        let b = g.next_id();
        assert!(!a.is_null());
        assert!(!b.is_null());
        assert_ne!(a, b);
        // Deterministic: a fresh generator with the same seed repeats.
        let g2 = TraceIdGen::new(0xABCD);
        assert_eq!(g2.next_id(), a);
        // Different seeds diverge.
        let g3 = TraceIdGen::new(0xABCE);
        assert_ne!(g3.next_id(), a);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64 - 1 + 1);
        assert_eq!(Histogram::bucket_upper_bound(0), Some(0));
        assert_eq!(Histogram::bucket_upper_bound(10), Some(1023));
        assert_eq!(Histogram::bucket_upper_bound(HISTOGRAM_BUCKETS - 1), None);
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::new();
        h.record_us(0);
        h.record_us(100);
        h.record_us(1000);
        h.record_us(-50); // clamps to 0
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 1100);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert_eq!(s.buckets[0], 2); // the two zeros
        assert_eq!(s.buckets[Histogram::bucket_index(100)], 1);
        assert_eq!(s.buckets[Histogram::bucket_index(1000)], 1);
        assert!(s.mean_us() > 0.0);
        // p50 of {0,0,100,1000} lands in bucket 0.
        assert_eq!(s.quantile_upper_us(0.5), Some(0));
        assert_eq!(s.quantile_upper_us(1.0), Some(1023));
    }

    #[test]
    fn huge_values_land_in_inf_bucket() {
        let h = Histogram::new();
        h.record_us(i64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(s.quantile_upper_us(1.0), None, "+Inf bucket");
    }

    #[test]
    fn hop_record_round_trips_on_the_wire() {
        use ntcs_addr::MachineType;
        use ntcs_wire::{encode_payload, ConvMode, InboundPayload, Message};
        let rec = HopRecord {
            trace_id: 0xFEED,
            span: 2,
            kind: hop_kind::SPLICE,
            module: 42,
            module_name: "gw-0-1".into(),
            peer: 7,
            msg_id: 99,
            timestamp_us: -12,
            detail: "net0->net1".into(),
        };
        let inbound = InboundPayload {
            type_id: HopRecord::TYPE_ID,
            mode: ConvMode::Packed,
            src_machine: MachineType::Vax,
            bytes: encode_payload(&rec, ConvMode::Packed, MachineType::Vax),
        };
        let got: HopRecord = inbound.decode(MachineType::Sun).unwrap();
        assert_eq!(got, rec);
        assert_eq!(HopRecord::TYPE_ID, 130);
        assert!(format!("{got}").contains("splice"));
    }

    fn sample_report(module: &str, sends: u64) -> ModuleReport {
        let h = Histogram::new();
        h.record_us(5);
        h.record_us(500);
        ModuleReport {
            module: module.to_string(),
            counters: vec![("sends", sends), ("recvs", 1)],
            gauges: vec![("retx_depth", 0)],
            histograms: vec![("send_to_deliver_us", h.snapshot())],
            breakers: vec![("0x200".to_string(), CircuitHealth::Degraded)],
            events: vec![RecordedEvent {
                seq: 0,
                kind: event_kind::SEND,
                timestamp_us: 7,
                peer: 0x200,
                msg_id: 1,
                aux: 0,
            }],
        }
    }

    #[test]
    fn registry_renders_prometheus_exposition() {
        let reg = MetricsRegistry::new();
        reg.register(Box::new(|| sample_report("alpha", 3)));
        reg.register(Box::new(|| sample_report("beta", 8)));
        let text = reg.render_prometheus();

        assert!(text.contains("# TYPE ntcs_sends_total counter"));
        assert_eq!(
            text.matches("# TYPE ntcs_sends_total counter").count(),
            1,
            "one TYPE line per metric"
        );
        assert!(text.contains("ntcs_sends_total{module=\"alpha\"} 3"));
        assert!(text.contains("ntcs_sends_total{module=\"beta\"} 8"));
        assert!(text.contains("# TYPE ntcs_retx_depth gauge"));
        assert!(text.contains("# TYPE ntcs_send_to_deliver_us histogram"));
        assert!(text.contains("ntcs_send_to_deliver_us_bucket{module=\"alpha\",le=\"+Inf\"} 2"));
        assert!(text.contains("ntcs_send_to_deliver_us_sum{module=\"alpha\"} 505"));
        assert!(text.contains("ntcs_send_to_deliver_us_count{module=\"alpha\"} 2"));
        assert!(text.contains("ntcs_breaker_state{module=\"beta\",peer=\"0x200\"} 1"));

        // Cumulative buckets must be monotone non-decreasing per module.
        let mut last = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with("ntcs_send_to_deliver_us_bucket{module=\"alpha\""))
        {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "cumulative buckets must not decrease");
            last = v;
        }

        let table = reg.render_table();
        assert!(table.contains("=== alpha ==="));
        assert!(table.contains("sends"));
        assert!(table.contains("breaker 0x200"));
        assert!(table.contains("event #0"), "table shows recorder tail");
    }

    /// Satellite: every exposed metric family must carry `# HELP` and
    /// `# TYPE` metadata, and the exposition must round-trip through a
    /// minimal text-format parser.
    #[test]
    fn prometheus_exposition_round_trips_with_help() {
        let reg = MetricsRegistry::new();
        reg.register(Box::new(|| sample_report("alpha", 3)));
        reg.register(Box::new(|| sample_report("beta", 8)));
        let text = reg.render_prometheus();

        // Parse: family -> (help seen, type seen, sample count), enforcing
        // that metadata precedes the samples of its family.
        use std::collections::HashMap;
        let mut meta: HashMap<String, (bool, bool)> = HashMap::new();
        let mut samples: HashMap<String, u64> = HashMap::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (fam, help) = rest.split_once(' ').expect("HELP has text");
                assert!(!help.is_empty(), "empty HELP for {fam}");
                meta.entry(fam.to_string()).or_insert((false, false)).0 = true;
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (fam, ty) = rest.split_once(' ').expect("TYPE has a type");
                assert!(
                    matches!(ty, "counter" | "gauge" | "histogram"),
                    "unknown type {ty}"
                );
                let e = meta.entry(fam.to_string()).or_insert((false, false));
                assert!(e.0, "HELP must precede TYPE for {fam}");
                e.1 = true;
            } else if !line.is_empty() {
                let name_end = line.find(['{', ' ']).expect("sample has a value");
                let name = &line[..name_end];
                let fam = name
                    .strip_suffix("_bucket")
                    .or_else(|| name.strip_suffix("_sum"))
                    .or_else(|| name.strip_suffix("_count"))
                    .unwrap_or(name);
                let (help, ty) = meta
                    .get(fam)
                    .unwrap_or_else(|| panic!("sample {name} before metadata"));
                assert!(*help && *ty, "family {fam} missing HELP or TYPE");
                let value = line.rsplit(' ').next().unwrap();
                value.parse::<f64>().expect("sample value parses");
                *samples.entry(fam.to_string()).or_insert(0) += 1;
            }
        }
        // Every family that declared metadata actually exposed samples.
        for fam in meta.keys() {
            assert!(
                samples.get(fam).copied().unwrap_or(0) > 0,
                "{fam} has no samples"
            );
        }
        // Two modules ⇒ two sends samples.
        assert_eq!(samples["ntcs_sends_total"], 2);
    }

    #[test]
    fn recorder_records_samples_and_wraps() {
        use ntcs_ipcs::VirtualTime;
        let vt = Arc::new(VirtualTime::new());
        let clock = SimClock::new_virtual(Arc::clone(&vt), 0, 0.0);
        let rec = FlightRecorder::new(clock, 8, 0);
        assert!(rec.is_enabled());
        vt.advance_us(5);
        for i in 0..20u64 {
            rec.record(event_kind::SEND, 0x100, i, 0);
        }
        let evs = rec.events();
        assert_eq!(evs.len(), 8, "ring holds exactly capacity");
        // Newest 8 of 20, in sequence order, all timestamped virtually.
        assert_eq!(evs[0].seq, 12);
        assert_eq!(evs[7].seq, 19);
        assert!(evs.iter().all(|e| e.timestamp_us == 5));
        assert!(evs.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(rec.seen(event_kind::SEND), 20);
        assert_eq!(rec.lost(), 0);
    }

    #[test]
    fn recorder_samples_hot_kinds_but_not_failures() {
        let clock = SimClock::new_virtual(Arc::new(ntcs_ipcs::VirtualTime::new()), 0, 0.0);
        let rec = FlightRecorder::new(clock, 64, 2); // hot kinds 1-in-4
        for i in 0..16u64 {
            rec.record(event_kind::SEND, 0, i, 0);
            rec.record(event_kind::CREDIT_STALL, 0, i, 0);
        }
        let evs = rec.events();
        let sends = evs.iter().filter(|e| e.kind == event_kind::SEND).count();
        let stalls = evs
            .iter()
            .filter(|e| e.kind == event_kind::CREDIT_STALL)
            .count();
        assert_eq!(sends, 4, "1-in-4 sampling on the hot path");
        assert_eq!(stalls, 16, "failure kinds always record");
    }

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let clock = SimClock::new_virtual(Arc::new(ntcs_ipcs::VirtualTime::new()), 0, 0.0);
        let rec = FlightRecorder::new(clock, 0, 0);
        assert!(!rec.is_enabled());
        rec.record(event_kind::DEAD_LETTER, 1, 2, 3);
        assert!(rec.events().is_empty());
    }

    #[test]
    fn snapshot_json_is_well_formed_and_deterministic() {
        let r = sample_report("alpha", 3);
        let a = render_module_snapshot_json(&r);
        let b = render_module_snapshot_json(&r);
        assert_eq!(a, b, "same report renders byte-identically");
        assert!(a.starts_with("{\"module\":\"alpha\""));
        assert!(a.contains("\"counters\":{\"sends\":3,\"recvs\":1}"));
        assert!(a.contains("\"kind\":\"send\""));
        assert!(a.contains("\"p99_le_us\":"));
        assert!(a.ends_with("]}"));

        let reg = MetricsRegistry::new();
        reg.register(Box::new(|| sample_report("alpha", 3)));
        let doc = reg.render_snapshot_json();
        assert!(doc.starts_with("{\"snapshot\":\"ntcs-cluster\",\"modules\":["));
        assert!(doc.contains("\"module\":\"alpha\""));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    /// What one event leaves in fresh sinks: each named counter bumped
    /// once, at most one recorder slot `(kind, peer, msg_id, aux)`, at most
    /// one histogram sample, and at most one trace line `(layer, action)`.
    /// The values are what the hand-written sites produced before the
    /// sites became `emit` calls.
    type Expect = (
        &'static [&'static str],
        Option<(u32, u64, u64, u64)>,
        Option<&'static str>,
        Option<(Layer, &'static str)>,
    );

    #[test]
    fn every_event_lands_in_exactly_its_sinks() {
        use event_kind as k;
        use Layer::{Ip, Lcm, Nd, Nsp};
        use ObsEvent as E;
        let (p, q) = (UAdd::from_raw(0x200), UAdd::from_raw(0x300));
        let error = &NtcsError::ConnectionClosed;
        let addr = &PhysAddr::Mbx {
            network: ntcs_addr::NetworkId(0),
            path: "/sys/mbx/x".into(),
        };
        let code = u64::from(error.wire_code());
        let cases: Vec<(ObsEvent<'_>, Expect)> = vec![
            (
                E::Send {
                    dst: p,
                    msg_id: 7,
                    trace: 9,
                },
                (&[], None, None, Some((Lcm, "send"))),
            ),
            (
                E::Sent { peer: p, msg_id: 7 },
                (&["sends"], Some((k::SEND, 0x200, 7, 0)), None, None),
            ),
            (E::Cast, (&["casts"], None, None, None)),
            (E::CastDropped, (&["dropped_messages"], None, None, None)),
            (E::Recv, (&["recvs"], None, None, None)),
            (
                E::Deliver {
                    peer: p,
                    msg_id: 7,
                    span: 1,
                    sent_at_us: 1,
                    trace: 9,
                },
                (
                    &[],
                    Some((k::DELIVER, 0x200, 7, 0)),
                    Some("send_to_deliver_us"),
                    Some((Lcm, "deliver")),
                ),
            ),
            (
                E::Deliver {
                    peer: p,
                    msg_id: 7,
                    span: 0,
                    sent_at_us: 0,
                    trace: 0,
                },
                (&[], Some((k::DELIVER, 0x200, 7, 0)), None, None),
            ),
            (
                E::CreditGrant {
                    peer: p,
                    bytes: 512,
                },
                (&[], Some((k::CREDIT_GRANT, 0x200, 0, 512)), None, None),
            ),
            (
                E::Reissue {
                    dst: p,
                    msg_id: 7,
                    n: 2,
                },
                (
                    &["request_reissues"],
                    Some((k::RETRY, 0x200, 7, 2)),
                    None,
                    Some((Lcm, "reissue")),
                ),
            ),
            (
                E::Retransmit {
                    dst: p,
                    msg_id: 7,
                    attempt: 2,
                    trace: 9,
                },
                (
                    &["retransmissions", "retry_attempts"],
                    None,
                    None,
                    Some((Lcm, "retransmit")),
                ),
            ),
            (
                E::Retransmit {
                    dst: p,
                    msg_id: 7,
                    attempt: 2,
                    trace: 0,
                },
                (&["retransmissions", "retry_attempts"], None, None, None),
            ),
            (
                E::DeadLetter {
                    dst: p,
                    msg_id: 7,
                    attempts: 3,
                    error,
                },
                (
                    &["dead_letters"],
                    Some((k::DEAD_LETTER, 0x200, 7, 3)),
                    None,
                    Some((Lcm, "dead-letter")),
                ),
            ),
            (
                E::BreakerRecover { peer: p },
                (
                    &["breaker_recoveries"],
                    Some((k::BREAKER, 0x200, 0, 0)),
                    None,
                    Some((Lcm, "breaker-recover")),
                ),
            ),
            (
                E::BreakerTrip { peer: p },
                (
                    &["breaker_trips"],
                    Some((k::BREAKER, 0x200, 0, 2)),
                    None,
                    Some((Lcm, "breaker-trip")),
                ),
            ),
            (
                E::Reconnect {
                    peer: p,
                    faults: 1,
                    fault_at_us: 0,
                    trace: 0,
                },
                (
                    &["reconnects"],
                    None,
                    Some("fault_recovery_us"),
                    Some((Lcm, "reconnect")),
                ),
            ),
            (
                E::AddressFault {
                    peer: p,
                    error,
                    trace: 0,
                },
                (
                    &["address_faults"],
                    None,
                    None,
                    Some((Lcm, "address-fault")),
                ),
            ),
            (
                E::CreditStall {
                    peer: p,
                    msg_id: 7,
                    bytes: 64,
                    trace: 9,
                },
                (
                    &["flow_stalls"],
                    Some((k::CREDIT_STALL, 0x200, 7, 64)),
                    None,
                    Some((Lcm, "flow-stall")),
                ),
            ),
            (
                E::CreditStall {
                    peer: p,
                    msg_id: 7,
                    bytes: 64,
                    trace: 0,
                },
                (
                    &["flow_stalls"],
                    Some((k::CREDIT_STALL, 0x200, 7, 64)),
                    None,
                    None,
                ),
            ),
            (E::CreditShed, (&["flow_sheds"], None, None, None)),
            (
                E::InboxShed {
                    peer: p,
                    msg_id: 7,
                    depth: 8,
                },
                (&["flow_sheds"], Some((k::SHED, 0x200, 7, 8)), None, None),
            ),
            (
                E::ForwardingQuery {
                    peer: p,
                    cause: error,
                },
                (
                    &["forward_queries"],
                    None,
                    None,
                    Some((Nsp, "forwarding-query")),
                ),
            ),
            (
                E::CacheInvalidate {
                    peer: p,
                    pushed: true,
                },
                (
                    &["ns_invalidations"],
                    Some((k::CACHE_INVALIDATE, 0x200, 0, 1)),
                    None,
                    None,
                ),
            ),
            (
                E::CacheInvalidate {
                    peer: p,
                    pushed: false,
                },
                (
                    &["ns_invalidations"],
                    Some((k::CACHE_INVALIDATE, 0x200, 0, 0)),
                    None,
                    None,
                ),
            ),
            (
                E::CircuitClose { peer: p },
                (&[], Some((k::CIRCUIT_CLOSE, 0x200, 0, 0)), None, None),
            ),
            (
                E::SubstrateUpgrade { peer: p },
                (&[], None, None, Some((Lcm, "substrate-upgrade"))),
            ),
            (
                E::CacheHit { peer: p },
                (
                    &["ns_cache_hits"],
                    Some((k::CACHE_HIT, 0x200, 0, 0)),
                    None,
                    None,
                ),
            ),
            (
                E::CacheMiss {
                    peer: p,
                    expired: false,
                },
                (
                    &["ns_cache_misses"],
                    Some((k::CACHE_MISS, 0x200, 0, 0)),
                    None,
                    None,
                ),
            ),
            (
                E::CacheMiss {
                    peer: p,
                    expired: true,
                },
                (
                    &["ns_cache_stale"],
                    Some((k::CACHE_MISS, 0x200, 0, 1)),
                    None,
                    None,
                ),
            ),
            (
                E::Lookup { peer: p },
                (&["ns_lookups"], None, None, Some((Nsp, "lookup"))),
            ),
            (
                E::LookupDone { started_us: 0 },
                (&[], None, Some("ns_lookup_us"), None),
            ),
            (
                E::SubstrateSelect { peer: p, code: 4 },
                (
                    &["substrate_selects"],
                    Some((k::SUBSTRATE, 0x200, 0, 4)),
                    None,
                    None,
                ),
            ),
            (
                E::SubstrateHandoff {
                    peer: p,
                    old: 1,
                    new: 4,
                },
                (
                    &["substrate_handoffs"],
                    Some((k::SUBSTRATE, 0x200, 0, 0x114)),
                    None,
                    Some((Nd, "substrate-handoff")),
                ),
            ),
            (
                E::SubstrateFallback { addr, error },
                (
                    &["substrate_fallbacks"],
                    None,
                    None,
                    Some((Nd, "substrate-fallback")),
                ),
            ),
            (
                E::RouteQuery { dst: p },
                (&["route_queries"], None, None, Some((Ip, "route-query"))),
            ),
            (
                E::NdOpen { addr, trace: 9 },
                (&["nd_open_attempts"], None, None, Some((Nd, "open"))),
            ),
            (
                E::NdRetry {
                    peer: p,
                    addr,
                    n: 2,
                    error,
                },
                (
                    &["nd_open_attempts", "retry_attempts"],
                    Some((k::RETRY, 0x200, 0, 2)),
                    None,
                    Some((Nd, "retry")),
                ),
            ),
            (
                E::CircuitOpen {
                    peer: p,
                    started_us: 0,
                },
                (
                    &["circuits_opened"],
                    Some((k::CIRCUIT_OPEN, 0x200, 0, 1)),
                    Some("circuit_establish_us"),
                    None,
                ),
            ),
            (
                E::CircuitAccept {
                    wire_peer: p,
                    peer: q,
                },
                (
                    &["circuits_accepted"],
                    Some((k::CIRCUIT_OPEN, 0x200, 0, 0)),
                    None,
                    Some((Nd, "accept")),
                ),
            ),
            (E::TaddPurge, (&["tadd_purges"], None, None, None)),
            (
                E::DuplicateSuppressed,
                (&["duplicates_suppressed"], None, None, None),
            ),
            (
                E::Transit { dst: p },
                (&[], None, None, Some((Ip, "transit"))),
            ),
            (
                E::SpliceRetry { addr, n: 2, error },
                (&["retry_attempts"], None, None, Some((Nd, "retry"))),
            ),
            (
                E::Splice {
                    src: p,
                    msg_id: 7,
                    dst: q,
                },
                (&[], Some((k::CIRCUIT_OPEN, 0x200, 7, 0x300)), None, None),
            ),
            (
                E::SpliceRefused {
                    src: p,
                    msg_id: 7,
                    error,
                },
                (&[], Some((k::SHED, 0x200, 7, code)), None, None),
            ),
            (
                E::RelayDrop { bytes: 64 },
                (&[], Some((k::DROP, 0, 0, 64)), None, None),
            ),
            (
                E::NsRetry {
                    shard: 1,
                    n: 2,
                    error,
                },
                (&["retry_attempts"], None, None, Some((Nsp, "ns-retry"))),
            ),
            (
                E::Relocation { old: p, machine: 3 },
                (&[], Some((k::RELOCATION, 0x200, 0, 3)), None, None),
            ),
        ];
        for (ev, (counters, recorded, hist, trace)) in cases {
            let clock = SimClock::new_virtual(Arc::new(ntcs_ipcs::VirtualTime::new()), 0, 0.0);
            let sinks = Sinks::new(clock, true);
            sinks.emit(&RecursionGauge::new(8), ev);
            let bumped: Vec<_> = sinks
                .metrics
                .snapshot()
                .counters()
                .into_iter()
                .filter(|&(_, v)| v != 0)
                .collect();
            let mut want: Vec<_> = counters.iter().map(|&c| (c, 1)).collect();
            want.sort_unstable();
            let mut got = bumped.clone();
            got.sort_unstable();
            assert_eq!(got, want, "{ev:?}: counters");
            let slots: Vec<_> = sinks
                .recorder
                .events()
                .iter()
                .map(|e| (e.kind, e.peer, e.msg_id, e.aux))
                .collect();
            assert_eq!(
                slots,
                recorded.into_iter().collect::<Vec<_>>(),
                "{ev:?}: recorder"
            );
            let sampled: Vec<_> = sinks
                .hists
                .snapshots()
                .into_iter()
                .filter(|(_, h)| h.count != 0)
                .map(|(name, h)| (name, h.count))
                .collect();
            assert_eq!(
                sampled,
                hist.map(|h| (h, 1)).into_iter().collect::<Vec<_>>(),
                "{ev:?}: histogram"
            );
            let lines: Vec<_> = sinks
                .trace
                .events()
                .iter()
                .map(|e| (e.layer, e.action))
                .collect();
            assert_eq!(
                lines,
                trace.into_iter().collect::<Vec<_>>(),
                "{ev:?}: trace"
            );
        }
    }

    #[test]
    fn trace_lines_render_the_parent_wording() {
        let clock = SimClock::new_virtual(Arc::new(ntcs_ipcs::VirtualTime::new()), 0, 0.0);
        let sinks = Sinks::new(clock, true);
        let gauge = RecursionGauge::new(8);
        let (p, error) = (UAdd::from_raw(0x200), &NtcsError::ConnectionClosed);
        let _depth = gauge.enter().unwrap();
        sinks.emit(
            &gauge,
            ObsEvent::Send {
                dst: p,
                msg_id: 7,
                trace: 0,
            },
        );
        sinks.emit(
            &gauge,
            ObsEvent::AddressFault {
                peer: p,
                error,
                trace: 9,
            },
        );
        sinks.emit(
            &gauge,
            ObsEvent::SubstrateHandoff {
                peer: p,
                old: 1,
                new: 4,
            },
        );
        sinks.emit(
            &gauge,
            ObsEvent::Deliver {
                peer: p,
                msg_id: 8,
                span: 2,
                sent_at_us: 0,
                trace: 9,
            },
        );
        let evs = sinks.trace.events();
        let whys: Vec<_> = evs
            .iter()
            .map(|e| (e.depth, e.why.as_str(), e.trace_id))
            .collect();
        assert_eq!(
            whys,
            [
                (1, format!("→ {p} (msg 7)").as_str(), 0),
                (1, format!("{p}: {error}").as_str(), 9),
                (1, format!("{p}: shm → tcp").as_str(), 0),
                (0, format!("from {p} (msg 8, span 2)").as_str(), 9),
            ]
        );
    }

    #[test]
    fn obs_messages_round_trip_on_the_wire() {
        use ntcs_addr::MachineType;
        use ntcs_wire::{encode_payload, ConvMode, InboundPayload, Message};
        let q = ObsCollect {
            targets: vec![0x200, 0x300],
            max_events: 32,
        };
        let inbound = InboundPayload {
            type_id: ObsCollect::TYPE_ID,
            mode: ConvMode::Packed,
            src_machine: MachineType::Vax,
            bytes: encode_payload(&q, ConvMode::Packed, MachineType::Vax),
        };
        let got: ObsCollect = inbound.decode(MachineType::Sun).unwrap();
        assert_eq!(got, q);
        assert_eq!(ObsQuery::TYPE_ID, 140);
        assert_eq!(ObsReply::TYPE_ID, 141);
        assert_eq!(ObsCollect::TYPE_ID, 142);
        assert_eq!(ObsCollectReply::TYPE_ID, 143);
    }
}
