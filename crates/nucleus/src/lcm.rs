//! The Logical Connection Maintenance layer and the assembled Nucleus.
//!
//! §2.2: "Support for dynamic reconfiguration is handled by the Logical
//! Connection Maintenance Layer … Its primary function is to relocate modules
//! which may have moved, and to recover from broken connections, though it
//! also provides a connectionless protocol. **No explicit open or close
//! primitives are provided at the Nucleus interface**; messages are simply
//! sent/received directly to/from the desired destinations, with the
//! underlying IVCs being established as needed."
//!
//! The address-fault path follows §3.5 exactly: a failed send surfaces as an
//! ND fault; the LCM checks its forwarding-address table, then queries the
//! naming service for a forwarding UAdd, installs it, and re-establishes the
//! circuit "in exactly the same manner as during an initial connection".
//! The §6.3 pathology (a broken *Name-Server* circuit making the fault
//! handler recurse into the naming service forever) is faithfully
//! reproducible: see [`NucleusConfig::ns_fault_patch`].
//!
//! Threading model: all protocol logic runs on the calling thread (the
//! Nucleus is passive, §2.1). Each established circuit has a lightweight
//! reader thread that only shuttles raw frames into the module's event
//! queue, and each listening endpoint has an acceptor thread; neither runs
//! protocol logic beyond the initial open/ack handshake.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam_channel::{unbounded, Receiver, Sender};
use ntcs_addr::{MachineType, NtcsError, PhysAddr, Result, TAddGenerator, UAdd};
use ntcs_flow::{BoundedDeque, CreditLedger, CreditWindow, Lane};
use ntcs_ipcs::{SimClock, World};
use ntcs_wire::{ConvMode, Frame, FrameHeader, FrameType, InboundPayload, Message};
use parking_lot::{Mutex, RwLock};

use crate::config::NucleusConfig;
use crate::metrics::NucleusMetrics;
use crate::nd::{Lvc, NdLayer, SubstrateBinding};
use crate::obs::{FlightRecorder, ModuleReport, ObsEvent, Sinks, TraceId, TraceIdGen};
use crate::proto::OpenPayload;
use crate::resolver::{LeaseProbe, NameResolver, ResolvedModule, StaticResolver};
use crate::supervisor::{
    BreakerRegistry, CircuitHealth, DeadLetter, DeadLetterSink, RetransmissionQueue,
};
use crate::trace::{LayerTrace, RecursionGauge};

/// The delivery class of one [`Nucleus::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Connectionless best-effort datagram (§2.2): no relocation recovery,
    /// no reply; transport losses after acceptance are absorbed and
    /// counted in `dropped_messages`, as on a wire.
    Cast,
    /// Connection-oriented send with §3.5 relocation recovery.
    Send {
        /// Whether the sender awaits a reply (a request).
        reply_expected: bool,
    },
    /// The reliable extension the paper declined to build (§3.5: "even if
    /// the NTCS could guarantee that no messages were lost due to itself
    /// (e.g., with a modified sliding window protocol), problems could
    /// still occur"): retransmitted with the same id until an LCM-level
    /// acknowledgement arrives or `timeout` passes; the receiver
    /// suppresses duplicates. Built so the paper's redundant-recovery
    /// argument can be measured (experiment E7 ablation).
    Reliable {
        /// How long to keep retransmitting before dead-lettering.
        timeout: Duration,
    },
}

/// How [`Nucleus::send`] sends: the delivery class and the causal trace id.
#[derive(Debug, Clone, Copy)]
pub struct SendOpts {
    /// The delivery class.
    pub delivery: Delivery,
    /// Causal trace id ([`TraceId::NULL`] = untraced). It travels in the
    /// frame header through every gateway splice, retransmission and
    /// address-fault re-establishment (recovery legs bump the span), so
    /// the DRTS monitor can reassemble the journey.
    pub trace: TraceId,
}

impl SendOpts {
    /// Untraced options for `delivery`.
    #[must_use]
    pub fn new(delivery: Delivery) -> Self {
        SendOpts {
            delivery,
            trace: TraceId::NULL,
        }
    }
}

/// What one [`Nucleus::send`] did on its way, returned with its result
/// (also when it failed). Counted by the send itself, so concurrent sends
/// on the same Nucleus never show up in each other's reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SendReport {
    /// Address faults (§3.5) the send met.
    pub address_faults: u32,
    /// Times the send found its circuit's credit window exhausted.
    pub credit_stalls: u32,
    /// Whether the send re-selected its circuit onto a different substrate
    /// kind (the relocation handoff, e.g. SHM → TCP).
    pub handoff: bool,
}

/// One data frame's identity and class: what every attempt of one send
/// shares, except `span`, which each recovery leg bumps.
#[derive(Clone, Copy)]
struct FrameSpec<'a> {
    msg_id: u64,
    reply_to: u64,
    delivery: Delivery,
    trace: u64,
    span: u32,
    /// Message type id (travels in the header's aux word).
    type_id: u32,
    /// Payload encoder for whatever conversion mode the circuit uses (not
    /// known until the circuit exists — §5's "decision to apply them is
    /// left to the lowest layers").
    encode: &'a dyn Fn(ConvMode, MachineType) -> Bytes,
}

impl FrameSpec<'_> {
    fn connectionless(&self) -> bool {
        self.delivery == Delivery::Cast
    }
}

/// The circuit a send went out on: what a waiting request watches for a
/// close that may have swallowed it.
struct Carrier {
    conn_id: u64,
    lvc: Lvc,
    /// The address the frame went to (after forwarding).
    peer: UAdd,
}

/// A message delivered by the Nucleus to the layer above.
#[derive(Debug, Clone)]
pub struct Received {
    /// The sender's address as currently known (a receiver-local TAdd alias
    /// during bootstrap, §3.4).
    pub src: UAdd,
    /// The sender's message id (quote as `reply_to` when replying).
    pub msg_id: u64,
    /// The message id this replies to (0 = unsolicited).
    pub reply_to: u64,
    /// Whether the sender expects a reply.
    pub reply_expected: bool,
    /// Whether this arrived via the connectionless protocol.
    pub connectionless: bool,
    /// Whether the sender used the reliable extension (the delivery ack is
    /// emitted when the application receives this message).
    pub reliable: bool,
    /// Causal trace id stamped by the originating sender (0 = untraced).
    pub trace_id: u64,
    /// Span counter of the delivering frame (recovery legs bump it).
    pub span: u32,
    /// The payload plus everything needed to decode it.
    pub payload: InboundPayload,
    /// Internal circuit id (used to route replies back to TAdd peers).
    pub conn_id: u64,
}

/// Callback owned by a Gateway module: receives transit circuits whose open
/// frame addresses some other module (§4).
pub trait GatewayHandler: Send + Sync {
    /// Takes ownership of a transit LVC and its decoded `LvcOpen` frame.
    fn transit(&self, lvc: Lvc, open: Frame);
}

/// Per-circuit credit flow-control state: the sender-side window our bulk
/// sends debit, and the receiver-side ledger that accumulates drained
/// bytes until a replenishing grant is due. Credit is end-to-end: the
/// `Credit` frames the ledger triggers relay opaquely through gateway
/// splices back to the origin sender, so the window bounds the bytes in
/// flight at every hop of a chained IVC.
#[derive(Debug)]
struct CircuitFlow {
    window: CreditWindow,
    ledger: CreditLedger,
}

/// Fresh credit state for a new circuit when flow control is enabled
/// (reconnects and relocations start over with a full window).
fn new_circuit_flow(config: &NucleusConfig) -> Option<Arc<CircuitFlow>> {
    let s = &config.flow;
    s.enabled.then(|| {
        Arc::new(CircuitFlow {
            window: CreditWindow::new(s.window_bytes, s.window_frames),
            ledger: CreditLedger::new(s.low_watermark_bytes, s.window_frames),
        })
    })
}

#[derive(Debug)]
struct ConnEntry {
    id: u64,
    lvc: Lvc,
    /// Peer address as keyed in `by_peer` (TAdd alias until upgraded).
    peer: UAdd,
    /// Peer address as it appears on the wire (their own TAdd during
    /// bootstrap — only meaningful to them, so we echo it in `dst`).
    wire_peer: UAdd,
    peer_machine: MachineType,
    mode: ConvMode,
    established: bool,
    /// Credit state when flow control is enabled (`None` otherwise).
    flow: Option<Arc<CircuitFlow>>,
    /// Which substrate this circuit rides, decided at LVC open (`None`
    /// for inbound circuits, whose substrate the acceptor chose).
    binding: Option<SubstrateBinding>,
}

#[derive(Debug)]
enum Event {
    Frame { conn_id: u64, frame: Frame },
    Closed { conn_id: u64 },
}

#[derive(Debug)]
struct LcmState {
    conns: HashMap<u64, ConnEntry>,
    by_peer: HashMap<UAdd, u64>,
    /// §3.5 forwarding-address table: old UAdd → replacement UAdd.
    forwarding: HashMap<UAdd, UAdd>,
    /// Received-but-undrained messages. Bounded: overflow sheds the
    /// oldest entry (counted as a `flow_shed`) instead of growing — a
    /// runaway sender degrades to message loss, never memory exhaustion.
    inbox: BoundedDeque<Received>,
    /// Pong arrivals by the ping's msg_id.
    pongs: HashMap<u64, ()>,
    /// LCM-level acknowledgements received, by the acked msg_id (reliable
    /// extension).
    acks: std::collections::HashSet<u64>,
    /// Recently seen reliable (peer, msg_id) pairs, for duplicate
    /// suppression; bounded FIFO.
    seen_reliable: std::collections::HashSet<(u64, u64)>,
    seen_reliable_order: VecDeque<(u64, u64)>,
    /// Last substrate code chosen per peer, so a re-selection that lands
    /// on a different substrate (the relocation handoff) is detected.
    /// Entries follow forwarding addresses when a peer relocates.
    last_substrate: HashMap<UAdd, u32>,
}

impl LcmState {
    fn new(inbox_cap: usize) -> Self {
        LcmState {
            conns: HashMap::new(),
            by_peer: HashMap::new(),
            forwarding: HashMap::new(),
            inbox: BoundedDeque::new(inbox_cap),
            pongs: HashMap::new(),
            acks: std::collections::HashSet::new(),
            seen_reliable: std::collections::HashSet::new(),
            seen_reliable_order: VecDeque::new(),
            last_substrate: HashMap::new(),
        }
    }
}

/// Message type id reserved for LCM-level acknowledgements (reliable
/// extension); never delivered to the application.
pub const RELIABLE_ACK_TYPE: u32 = u32::MAX;

/// Whether a lookup error means the naming service *could not be asked*
/// (transport), as opposed to an authoritative negative answer
/// (`UnknownAddress`, `AddressFault` on the target itself). Only the
/// former may be bridged by an expired lease.
fn resolver_unreachable(e: &NtcsError) -> bool {
    matches!(
        e,
        NtcsError::Timeout
            | NtcsError::DeadlineExceeded
            | NtcsError::ConnectionClosed
            | NtcsError::ConnectRefused(_)
            | NtcsError::Ipcs(_)
            | NtcsError::NameServerUnreachable
            | NtcsError::CircuitBroken(_)
    )
}

/// A control-plane message interceptor: consumes matching inbound frames
/// before they reach the application inbox (see
/// [`Nucleus::set_control_intercept`]).
pub type ControlIntercept = Arc<dyn Fn(&Received) + Send + Sync>;

struct Inner {
    config: NucleusConfig,
    nd: NdLayer,
    statics: StaticResolver,
    resolver: RwLock<Option<Arc<dyn NameResolver>>>,
    /// Control-plane intercepts by message type id: matching inbound
    /// frames are consumed by the hook instead of entering the inbox
    /// (the NSP-Layer registers its lease-invalidation handler here).
    intercepts: RwLock<HashMap<u32, ControlIntercept>>,
    gateway: RwLock<Option<Arc<dyn GatewayHandler>>>,
    my_uadd: RwLock<UAdd>,
    tadds: TAddGenerator,
    msg_seq: AtomicU64,
    conn_seq: AtomicU64,
    state: Mutex<LcmState>,
    events_tx: Sender<Event>,
    events_rx: Receiver<Event>,
    gauge: RecursionGauge,
    /// Counters, histograms, flight recorder and layer trace, fed only
    /// through [`Nucleus::emit`], and the machine's virtual clock they
    /// and the frame headers read (deterministic under the simulated
    /// world).
    obs: Sinks,
    /// Deterministic generator for causal trace ids.
    trace_ids: TraceIdGen,
    /// Per-peer circuit breakers (delivery supervisor).
    breakers: BreakerRegistry,
    /// Bounded set of reliable sends awaiting acknowledgement.
    retx: RetransmissionQueue,
    /// Sink receiving reliable messages whose recovery is exhausted.
    dead_letter: RwLock<Option<DeadLetterSink>>,
    shutdown: AtomicBool,
}

/// One module's Nucleus binding.
///
/// Cloning yields another handle to the same binding (the NSP-Layer holds
/// one, the ALI layer another).
#[derive(Clone)]
pub struct Nucleus {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Nucleus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Nucleus")
            .field("module", &self.inner.config.module_hint)
            .field("uadd", &*self.inner.my_uadd.read())
            .finish()
    }
}

impl Nucleus {
    /// Binds a Nucleus for one module: creates its ND-Layer endpoints,
    /// self-assigns an initial TAdd (§3.4: "each module assigns itself one
    /// initially"), preloads the well-known address table, and starts the
    /// acceptor threads.
    ///
    /// # Errors
    ///
    /// Fails if the ND-Layer cannot create its listening endpoints.
    pub fn bind(world: &World, config: NucleusConfig) -> Result<Self> {
        let nd = NdLayer::new(world, config.machine, &config.module_hint)?;
        let statics = StaticResolver::new();
        for (uadd, addrs) in &config.well_known {
            // Machine type of a well-known module is unknown until its ack;
            // assume ours (the handshake corrects the mode either way).
            statics.preload(*uadd, addrs.clone(), nd.machine_type());
        }
        // The events channel stays unbounded deliberately: frame dispatch
        // can emit re-acks while holding the state lock, so a bounded
        // channel here could deadlock against bounded substrate queues.
        // Inbound volume is bounded upstream (inbox, MBX).
        let (events_tx, events_rx) = unbounded();
        let inbox_cap = config.inbox_cap;
        let salt = (config.machine.0 as u16) ^ 0x1F;
        let clock = world.clock(config.machine)?;
        // Seed trace ids from the machine and module name so concurrent
        // modules never collide and test runs stay reproducible.
        let mut trace_seed = u64::from(config.machine.0);
        for b in config.module_hint.bytes() {
            trace_seed = trace_seed.wrapping_mul(0x100_0000_01B3) ^ u64::from(b);
        }
        let inner = Arc::new(Inner {
            gauge: RecursionGauge::new(config.max_recursion_depth),
            breakers: BreakerRegistry::new(config.breaker.clone(), clock.clone()),
            retx: RetransmissionQueue::new(config.retransmit_queue_cap),
            dead_letter: RwLock::new(None),
            obs: Sinks::new(clock, config.recorder),
            trace_ids: TraceIdGen::new(trace_seed),
            config,
            nd,
            statics,
            resolver: RwLock::new(None),
            intercepts: RwLock::new(HashMap::new()),
            gateway: RwLock::new(None),
            my_uadd: RwLock::new(UAdd::from_raw(0)),
            tadds: TAddGenerator::new(salt),
            msg_seq: AtomicU64::new(1),
            conn_seq: AtomicU64::new(1),
            state: Mutex::new(LcmState::new(inbox_cap)),
            events_tx,
            events_rx,
            shutdown: AtomicBool::new(false),
        });
        *inner.my_uadd.write() = inner.tadds.generate();
        let n = Nucleus { inner };
        n.spawn_acceptors();
        Ok(n)
    }

    fn spawn_acceptors(&self) {
        for (idx, ep) in self.inner.nd.endpoints().iter().enumerate() {
            let listener = Arc::clone(&ep.listener);
            let network = ep.network;
            let inner = Arc::clone(&self.inner);
            std::thread::Builder::new()
                .name(format!("ntcs-accept-{}-{idx}", inner.config.module_hint))
                .spawn(move || loop {
                    if inner.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    match listener.accept(Some(Duration::from_millis(200))) {
                        Ok(chan) => {
                            let lvc = inner.nd.wrap(Arc::from(chan), network);
                            let inner2 = Arc::clone(&inner);
                            std::thread::Builder::new()
                                .name("ntcs-greeter".into())
                                .spawn(move || greet_inbound(&inner2, lvc))
                                .expect("spawn greeter");
                        }
                        Err(NtcsError::Timeout | NtcsError::WouldBlock) => continue,
                        Err(_) => return, // listener shut down
                    }
                })
                .expect("spawn acceptor");
        }
    }

    // ------------------------------------------------------------------
    // Identity & wiring
    // ------------------------------------------------------------------

    /// This module's current address (a TAdd until registration completes).
    #[must_use]
    pub fn my_uadd(&self) -> UAdd {
        *self.inner.my_uadd.read()
    }

    /// Installs the real UAdd after registration; subsequent frames carry it
    /// so peers purge our TAdd from their tables (§3.4).
    pub fn set_my_uadd(&self, uadd: UAdd) {
        *self.inner.my_uadd.write() = uadd;
    }

    /// Installs the naming-service resolver (the NSP-Layer) — the point at
    /// which the Nucleus becomes recursive (§3.1).
    pub fn set_resolver(&self, resolver: Arc<dyn NameResolver>) {
        *self.inner.resolver.write() = Some(resolver);
    }

    /// Installs a gateway handler; inbound circuits addressed to other
    /// modules are handed to it instead of being refused (§4).
    pub fn set_gateway_handler(&self, handler: Arc<dyn GatewayHandler>) {
        *self.inner.gateway.write() = Some(handler);
    }

    /// Installs a control-plane intercept for message `type_id`: matching
    /// inbound frames are consumed by `hook` (invoked on the pump thread,
    /// outside the LCM state lock) instead of entering the application
    /// inbox. Intended for connectionless control casts on the credit-
    /// exempt lane — the NSP-Layer's lease-invalidation push. Intercepting
    /// a reliable type would starve its delivery ack; don't.
    pub fn set_control_intercept(&self, type_id: u32, hook: ControlIntercept) {
        self.inner.intercepts.write().insert(type_id, hook);
    }

    /// Removes a control-plane intercept.
    pub fn clear_control_intercept(&self, type_id: u32) {
        self.inner.intercepts.write().remove(&type_id);
    }

    /// This machine's corrected virtual time, µs, clamped non-negative
    /// (the timebase every lease expiry is measured on).
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.inner.obs.clock.now_us().max(0) as u64
    }

    /// Installs the dead-letter sink: invoked with each reliable message
    /// whose recovery budget (retries, reconnects, deadline) is exhausted,
    /// so delivery failure is surfaced rather than silently dropped.
    pub fn set_dead_letter_sink(&self, sink: DeadLetterSink) {
        *self.inner.dead_letter.write() = Some(sink);
    }

    /// Health of the supervised circuit toward `peer`
    /// (Healthy → Degraded → Broken).
    #[must_use]
    pub fn circuit_health(&self, peer: UAdd) -> CircuitHealth {
        self.inner.breakers.health(peer)
    }

    /// Number of reliable sends currently awaiting acknowledgement.
    #[must_use]
    pub fn retransmit_depth(&self) -> usize {
        self.inner.retx.depth()
    }

    /// Fault-matrix hook: *corrupts* the live circuit toward `peer` by
    /// severing its LVC underneath an LCM connection entry that still
    /// looks established. The next send down that circuit observes the
    /// corrupt state and must run the §3.5 recovery (reconnect via cached
    /// addresses, then re-resolve) — the "corrupted LCM circuit state"
    /// cell of the fault matrix. Returns `false` when no live circuit
    /// toward `peer` exists (nothing to corrupt).
    pub fn chaos_corrupt_circuit(&self, peer: UAdd) -> bool {
        let st = self.inner.state.lock();
        if let Some(&conn_id) = st.by_peer.get(&peer) {
            if let Some(e) = st.conns.get(&conn_id) {
                e.lvc.close();
                return true;
            }
        }
        false
    }

    /// This module's machine type.
    #[must_use]
    pub fn machine_type(&self) -> MachineType {
        self.inner.nd.machine_type()
    }

    /// The ND-Layer (used by gateway splicing and the testbed builder).
    #[must_use]
    pub fn nd(&self) -> &NdLayer {
        &self.inner.nd
    }

    /// Nucleus metrics.
    #[must_use]
    pub fn metrics(&self) -> &NucleusMetrics {
        &self.inner.obs.metrics
    }

    /// This machine's virtual clock (corrected µs).
    #[must_use]
    pub fn clock(&self) -> &SimClock {
        &self.inner.obs.clock
    }

    /// A fresh causal trace id for an application send (unique per module,
    /// deterministic per test run).
    #[must_use]
    pub fn next_trace_id(&self) -> TraceId {
        self.inner.trace_ids.next_id()
    }

    /// Health of every supervised peer circuit, sorted by peer address.
    #[must_use]
    pub fn breakers_health(&self) -> Vec<(UAdd, CircuitHealth)> {
        self.inner.breakers.all_health()
    }

    /// This module's flight recorder (structured event ring).
    #[must_use]
    pub fn recorder(&self) -> &FlightRecorder {
        &self.inner.obs.recorder
    }

    /// Emits one observed occurrence into this Nucleus's counters,
    /// histograms, flight recorder and layer trace — the one
    /// instrumentation call of every site (see [`ObsEvent`]).
    pub fn emit(&self, ev: ObsEvent<'_>) {
        self.inner.obs.emit(&self.inner.gauge, ev);
    }

    /// Failure-path crash dump: when `NTCS_OBS_DUMP` is set, writes this
    /// module's snapshot JSON to `target/obs/<reason>-<module>.json`.
    /// Best-effort and cheap when the variable is unset (one env probe).
    pub fn maybe_dump_snapshot(&self, reason: &str) -> Option<std::path::PathBuf> {
        std::env::var_os("NTCS_OBS_DUMP")?;
        let r = self.module_report();
        crate::obs::dump_snapshot(
            &format!("{reason}-{}", r.module),
            &crate::obs::render_module_snapshot_json(&r),
        )
    }

    /// This module's full observability report: every counter, the
    /// retransmit/recursion gauges, all four latency histograms, and the
    /// per-peer breaker states — the unit the [`crate::obs::MetricsRegistry`]
    /// aggregates.
    #[must_use]
    pub fn module_report(&self) -> ModuleReport {
        let obs = &self.inner.obs;
        let mut counters = obs.metrics.snapshot().counters();
        counters.push(("recorder_lost", obs.recorder.lost()));
        let (forwarding_entries, credits_available, inbox_depth) = {
            let st = self.inner.state.lock();
            let credits: u64 = st
                .conns
                .values()
                .filter_map(|e| e.flow.as_ref().map(|f| f.window.available_bytes()))
                .sum();
            (st.forwarding.len() as u64, credits, st.inbox.len() as u64)
        };
        ModuleReport {
            module: self.inner.config.module_hint.clone(),
            counters,
            gauges: vec![
                ("retransmit_depth", self.inner.retx.depth() as u64),
                ("recursion_depth", u64::from(self.inner.gauge.depth())),
                ("forwarding_entries", forwarding_entries),
                ("flow_credits_available", credits_available),
                ("inbox_depth", inbox_depth),
            ],
            histograms: obs.hists.snapshots(),
            breakers: self
                .inner
                .breakers
                .all_health()
                .into_iter()
                .map(|(peer, health)| (format!("{peer}"), health))
                .collect(),
            events: obs.recorder.events(),
        }
    }

    /// The configuration this Nucleus was bound with (read-only; the
    /// NSP-Layer and gateway read their retry policies from here).
    #[must_use]
    pub fn config(&self) -> &NucleusConfig {
        &self.inner.config
    }

    /// The layer trace (§6.2 debugging aid).
    #[must_use]
    pub fn trace(&self) -> &LayerTrace {
        &self.inner.obs.trace
    }

    /// The recursion gauge.
    #[must_use]
    pub fn gauge(&self) -> &RecursionGauge {
        &self.inner.gauge
    }

    /// The local phys-address cache / well-known table.
    #[must_use]
    pub fn statics(&self) -> &StaticResolver {
        &self.inner.statics
    }

    /// Resolves `target` to its routing record through the leased cache —
    /// the exact path every send takes, counting cache hits and misses
    /// the same way. Exposed so benches and introspection tooling can
    /// measure resolution cost without paying for a message.
    ///
    /// # Errors
    ///
    /// Naming-service transport failures, or an authoritative
    /// unknown-address answer.
    pub fn resolve(&self, target: UAdd) -> Result<ResolvedModule> {
        self.resolve_module(target)
    }

    /// Addresses currently present in the peer table (test hook for the
    /// §3.4 purge invariant).
    #[must_use]
    pub fn peer_table(&self) -> Vec<UAdd> {
        self.inner.state.lock().by_peer.keys().copied().collect()
    }

    /// Records an externally learned forwarding address (§3.5): drops the
    /// old UAdd's cached location and routes future sends to `new`. The
    /// NSP-Layer calls this when a shard's invalidation push already names
    /// the replacement, saving the address-fault round trip.
    pub fn note_forwarding(&self, old: UAdd, new: UAdd) {
        self.inner.statics.invalidate(old);
        self.inner.state.lock().forwarding.insert(old, new);
    }

    /// Installs a forwarding entry directly (test hook).
    #[doc(hidden)]
    pub fn test_insert_forwarding(&self, old: UAdd, new: UAdd) {
        self.inner.state.lock().forwarding.insert(old, new);
    }

    /// The forwarding-address table (test hook).
    #[must_use]
    pub fn forwarding_table(&self) -> Vec<(UAdd, UAdd)> {
        self.inner
            .state
            .lock()
            .forwarding
            .iter()
            .map(|(a, b)| (*a, *b))
            .collect()
    }

    /// Shuts the binding down: closes every circuit and listener. Idempotent.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.inner.nd.close_all();
        // Intercept hooks, the resolver (the NSP-Layer) and a gateway
        // handler each hold a clone of this Nucleus; dropping them here
        // breaks the reference cycles, so the binding — its ND endpoints
        // and their listeners included — is freed with its last handle.
        self.inner.intercepts.write().clear();
        *self.inner.resolver.write() = None;
        *self.inner.gateway.write() = None;
        let mut st = self.inner.state.lock();
        for (_, e) in st.conns.iter() {
            e.lvc.close();
        }
        st.conns.clear();
        st.by_peer.clear();
    }

    /// Whether the binding has been shut down.
    #[must_use]
    pub fn is_shut_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    // ------------------------------------------------------------------
    // The Nucleus interface: send / recv / request / reply / cast
    // ------------------------------------------------------------------

    /// Sends `msg` to `dst` under `opts` — the one send path of the
    /// Nucleus; [`Nucleus::cast_message`], [`Nucleus::request`] and
    /// [`Nucleus::reply_message`] are short forms over it. The underlying
    /// IVC is established or re-established as needed (no explicit opens
    /// — §2.2).
    ///
    /// Returns the message id, or the error that ended the send, together
    /// with the [`SendReport`] of what this send did on its way (also on
    /// failure).
    ///
    /// # Errors
    ///
    /// - [`Delivery::Send`]: unrecoverable faults — unknown addresses, no
    ///   route, no forwarding address after a relocation, recursion-limit
    ///   hits.
    /// - [`Delivery::Cast`]: argument and shutdown errors only; transport
    ///   losses are absorbed.
    /// - [`Delivery::Reliable`]: [`NtcsError::DeadlineExceeded`] if no
    ///   acknowledgement arrives in time, or any unrecoverable send error;
    ///   either way the message goes to the dead-letter sink.
    #[must_use = "the first element says whether the message was sent"]
    pub fn send<M: Message>(
        &self,
        dst: UAdd,
        msg: &M,
        opts: SendOpts,
    ) -> (Result<u64>, SendReport) {
        let encode = |mode, machine| ntcs_wire::encode_payload(msg, mode, machine);
        let spec = FrameSpec {
            msg_id: self.next_msg_id(),
            reply_to: 0,
            delivery: opts.delivery,
            trace: opts.trace.raw(),
            span: 0,
            type_id: M::TYPE_ID,
            encode: &encode,
        };
        let mut report = SendReport::default();
        let sent = match opts.delivery {
            Delivery::Send { .. } => self.deliver(dst, spec, &mut report).map(|_| ()),
            Delivery::Cast => self.cast(dst, spec, &mut report),
            Delivery::Reliable { timeout } => {
                self.deliver_reliably(dst, spec, timeout, &mut report)
            }
        };
        (sent.map(|()| spec.msg_id), report)
    }

    /// Connectionless send (§2.2): best-effort, no relocation recovery, no
    /// reply. Delivery failures after acceptance are silent, as on a wire.
    ///
    /// # Errors
    ///
    /// Only argument/shutdown errors; transport losses are absorbed.
    pub fn cast_message<M: Message>(&self, dst: UAdd, msg: &M) -> Result<()> {
        self.send(dst, msg, SendOpts::new(Delivery::Cast))
            .0
            .map(|_| ())
    }

    /// Synchronous request/reply: sends with `reply_expected` and waits for
    /// the correlated reply, leaving unrelated messages queued.
    ///
    /// If the circuit the request went out on closes before the reply
    /// arrives — its peer relocated or died, or a gateway tore the splice
    /// down (§4.3) — the request is re-issued under the same msg id
    /// through the §3.5 send loop (forwarding table, address fault,
    /// forwarding query, reconnect), at most `max_relocations` times, each
    /// within what is left of `timeout`. A request that reached the old
    /// incarnation before it closed may so run twice: like any
    /// [`Delivery::Send`], a request is not protected against duplicates.
    ///
    /// # Errors
    ///
    /// Send errors (of the first send or of a re-issue), or
    /// [`NtcsError::Timeout`] if no reply arrives in time.
    pub fn request<M: Message>(
        &self,
        dst: UAdd,
        msg: &M,
        timeout: Option<Duration>,
    ) -> Result<Received> {
        self.request_with(dst, msg, timeout, |_, _| {})
    }

    /// [`Nucleus::request`], calling `on_sent` once the first send is over
    /// — with the request's msg id if it went out — and before the wait
    /// for the reply begins (the ALI records its monitor event there).
    ///
    /// # Errors
    ///
    /// As for [`Nucleus::request`].
    pub fn request_with<M: Message>(
        &self,
        dst: UAdd,
        msg: &M,
        timeout: Option<Duration>,
        on_sent: impl FnOnce(Option<u64>, &SendReport),
    ) -> Result<Received> {
        let encode = |mode, machine| ntcs_wire::encode_payload(msg, mode, machine);
        let spec = FrameSpec {
            msg_id: self.next_msg_id(),
            reply_to: 0,
            delivery: Delivery::Send {
                reply_expected: true,
            },
            trace: 0,
            span: 0,
            type_id: M::TYPE_ID,
            encode: &encode,
        };
        let msg_id = spec.msg_id;
        let mut report = SendReport::default();
        let sent = self.deliver(dst, spec, &mut report);
        on_sent(sent.as_ref().ok().map(|_| msg_id), &report);
        let mut carrier = sent?;
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut reissues = 0;
        loop {
            if self.is_shut_down() {
                return Err(NtcsError::ShutDown);
            }
            if let Some(m) = self.take_queued(|m| m.reply_to == msg_id) {
                return Ok(m);
            }
            if reissues < self.inner.config.max_relocations
                && self.lost_with_circuit(&carrier, msg_id)
            {
                // The first send ran under the send path's own budgets,
                // like any send; a re-issue runs inside the caller's wait,
                // so it gets only what is left of `timeout`.
                remaining(deadline)?;
                reissues += 1;
                let n = reissues;
                self.emit(ObsEvent::Reissue { dst, msg_id, n });
                let leg = FrameSpec {
                    span: spec.span + report.address_faults + reissues,
                    ..spec
                };
                let closed = Some(carrier.peer);
                carrier = self.deliver_after(dst, leg, closed, deadline, &mut report)?;
                continue;
            }
            self.pump_once(remaining(deadline)?)?;
        }
    }

    /// Whether the request `msg_id`, sent on `carrier`, went down with it:
    /// the circuit's close has been dispatched and no reply is queued.
    ///
    /// The reader queues the close behind every frame the circuit carried,
    /// but another thread pumping the same Nucleus may still be inside the
    /// dispatch of such a frame when the close is dispatched. Both facts
    /// are therefore read under the one state lock under which a frame is
    /// queued: a data frame is queued only while its circuit is still in
    /// `conns`, so a reply dispatched before the close is seen here, and
    /// one dispatched after it is dropped — it can never surface beside
    /// the re-issue's reply.
    fn lost_with_circuit(&self, carrier: &Carrier, msg_id: u64) -> bool {
        if !carrier.lvc.is_closed() {
            return false;
        }
        let st = self.inner.state.lock();
        !st.conns.contains_key(&carrier.conn_id) && !st.inbox.iter().any(|m| m.reply_to == msg_id)
    }

    /// Replies to a received message, preferring the circuit it arrived on
    /// (which is the only way to reach a TAdd peer, §3.4). The reply joins
    /// the request's trace, so a traced round trip reads as one journey in
    /// the monitor.
    ///
    /// # Errors
    ///
    /// As for [`Delivery::Send`]; replying to a TAdd peer whose circuit
    /// died is impossible and yields [`NtcsError::UnknownAddress`].
    pub fn reply_message<M: Message>(&self, to: &Received, msg: &M) -> Result<u64> {
        let encode = |mode, machine| ntcs_wire::encode_payload(msg, mode, machine);
        let spec = FrameSpec {
            msg_id: self.next_msg_id(),
            reply_to: to.msg_id,
            delivery: Delivery::Send {
                reply_expected: false,
            },
            trace: to.trace_id,
            span: 0,
            type_id: M::TYPE_ID,
            encode: &encode,
        };
        // Try the arrival circuit first. Arrival-circuit replies are exempt
        // from the credit gate: they are solicited (flow-limited by the
        // requests themselves). The receiver's over-grant on drain is
        // harmless — replenish clamps at window capacity.
        let arrival = {
            let st = self.inner.state.lock();
            st.conns
                .get(&to.conn_id)
                .filter(|e| e.established)
                .map(|e| (e.lvc.clone(), e.mode, e.wire_peer, e.peer))
        };
        if let Some((lvc, mode, wire_peer, peer)) = arrival {
            if lvc
                .send_frame(&self.data_frame(mode, wire_peer, &spec))
                .is_ok()
            {
                let msg_id = spec.msg_id;
                self.emit(ObsEvent::Sent { peer, msg_id });
                return Ok(msg_id);
            }
            // Fall through to the address-based send.
        }
        if to.src.is_temporary() {
            return Err(NtcsError::UnknownAddress(to.src.raw()));
        }
        self.deliver(to.src, spec, &mut SendReport::default())?;
        Ok(spec.msg_id)
    }

    /// Receives the next message, pumping the passive Nucleus while waiting.
    ///
    /// # Errors
    ///
    /// [`NtcsError::Timeout`] if nothing arrives in time,
    /// [`NtcsError::ShutDown`] after shutdown.
    pub fn recv(&self, timeout: Option<Duration>) -> Result<Received> {
        self.take(|_| true, timeout)
    }

    /// Receives the next message of exactly `type_id`, leaving every other
    /// inbox entry untouched. Dedicated responder threads (the gateway's
    /// [`crate::obs::ObsQuery`] answerer) must use this rather than
    /// [`Nucleus::recv`]: the shared inbox also carries RPC replies that a
    /// concurrent [`Nucleus::request`] on another thread will claim by
    /// `reply_to`, and a FIFO pop would steal them.
    ///
    /// # Errors
    ///
    /// [`NtcsError::Timeout`] if nothing of that type arrives in time,
    /// [`NtcsError::ShutDown`] after shutdown.
    pub fn recv_of_type(&self, type_id: u32, timeout: Option<Duration>) -> Result<Received> {
        self.take(|m| m.payload.type_id == type_id, timeout)
    }

    /// The one inbox take: removes the first message matching `pred`,
    /// pumping while none is queued. Taking a message is delivering it, so
    /// this is where a reliable message's ack goes out (the ack means
    /// *delivered to the application*, not merely buffered — exactly the
    /// distinction §3.5 draws about internally buffered messages in failed
    /// modules) and where a bulk-lane message's bytes are credited back to
    /// its circuit's ledger, emitting a `Credit` grant to the peer once the
    /// low watermark is crossed.
    fn take(
        &self,
        pred: impl Fn(&Received) -> bool,
        timeout: Option<Duration>,
    ) -> Result<Received> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            if self.is_shut_down() {
                return Err(NtcsError::ShutDown);
            }
            if let Some(m) = self.take_queued(&pred) {
                return Ok(m);
            }
            self.pump_once(remaining(deadline)?)?;
        }
    }

    /// [`Nucleus::take`] without the wait: removes and delivers the first
    /// queued message matching `pred`, if there is one.
    fn take_queued(&self, pred: impl Fn(&Received) -> bool) -> Option<Received> {
        let (m, circuit) = {
            let mut st = self.inner.state.lock();
            let pos = st.inbox.iter().position(pred)?;
            let m = st.inbox.remove(pos)?;
            let bulk = Lane::classify(m.payload.type_id) == Lane::Bulk;
            let circuit = st.conns.get(&m.conn_id).and_then(|e| {
                let flow = e.flow.as_ref().filter(|_| bulk).cloned();
                (m.reliable || flow.is_some()).then(|| (e.lvc.clone(), e.wire_peer, flow))
            });
            (m, circuit)
        };
        self.emit(ObsEvent::Recv);
        if let Some((lvc, wire_peer, flow)) = circuit {
            if m.reliable {
                send_reliable_ack(&self.inner, &lvc, wire_peer, m.msg_id);
            }
            if let Some(grant) = flow.and_then(|f| f.ledger.on_drain(m.payload.bytes.len())) {
                send_credit(&self.inner, &lvc, wire_peer, grant.0, grant.1);
            }
        }
        Some(m)
    }

    /// Reliable delivery ([`Delivery::Reliable`]): retransmits `spec` with
    /// the same id, each attempt a bumped span, until the ack arrives or
    /// `timeout` passes.
    fn deliver_reliably(
        &self,
        dst: UAdd,
        spec: FrameSpec<'_>,
        timeout: Duration,
        report: &mut SendReport,
    ) -> Result<()> {
        let msg_id = spec.msg_id;
        let deadline = Instant::now() + timeout;
        // The policy paces retransmissions: each scheduled delay is the
        // ack-wait window before the next retransmit. Seeding with the
        // msg_id de-synchronises concurrent senders deterministically.
        let policy = self
            .inner
            .config
            .reliable_retry
            .clone()
            .with_deadline(timeout)
            .with_seed(self.inner.config.reliable_retry.seed ^ msg_id);
        let mut schedule = policy.schedule();
        // Claim a retransmission-queue slot (backpressure bound); freed on
        // every exit path by the RAII drop.
        let _slot = self
            .inner
            .retx
            .register(msg_id, timeout)
            .map_err(|e| self.dead_letter(dst, msg_id, spec.type_id, 0, e))?;
        let mut attempts: u32 = 0;
        loop {
            if Instant::now() >= deadline {
                let e = NtcsError::DeadlineExceeded;
                return Err(self.dead_letter(dst, msg_id, spec.type_id, attempts, e));
            }
            if attempts > 0 {
                let (attempt, trace) = (attempts + 1, spec.trace);
                self.emit(ObsEvent::Retransmit {
                    dst,
                    msg_id,
                    attempt,
                    trace,
                });
            }
            let attempt = FrameSpec {
                span: attempts,
                ..spec
            };
            attempts += 1;
            match self.deliver(dst, attempt, report) {
                Ok(_) => {}
                Err(e) if e.is_transient() => {
                    // Circuit down, breaker open, or establishment timed
                    // out: survive it — wait out this attempt's window
                    // (pumping, so re-establishment acks arrive) and
                    // retransmit with the same id.
                }
                Err(e) => {
                    return Err(self.dead_letter(dst, msg_id, spec.type_id, attempts, e));
                }
            }
            // Wait for the ack, retransmitting after the scheduled window.
            let window = schedule.next().unwrap_or(policy.base_backoff);
            let try_deadline = (Instant::now() + window).min(deadline);
            loop {
                if self.inner.state.lock().acks.remove(&msg_id) {
                    return Ok(());
                }
                let now = Instant::now();
                if now >= try_deadline {
                    break;
                }
                self.pump_once(Some((try_deadline - now).min(Duration::from_millis(20))))?;
            }
        }
    }

    /// A connectionless send ([`Delivery::Cast`]): counted as a cast, and
    /// any transport failure absorbed as a dropped message.
    fn cast(&self, dst: UAdd, spec: FrameSpec<'_>, report: &mut SendReport) -> Result<()> {
        if self.is_shut_down() {
            return Err(NtcsError::ShutDown);
        }
        self.emit(ObsEvent::Cast);
        match self.deliver(dst, spec, report) {
            Err(e @ (NtcsError::InvalidArgument(_) | NtcsError::ShutDown)) => Err(e),
            Err(_) => {
                self.emit(ObsEvent::CastDropped);
                Ok(())
            }
            Ok(_) => Ok(()),
        }
    }

    /// Records a reliable message whose recovery is exhausted: emits it,
    /// invokes the sink, and returns the error to propagate.
    fn dead_letter(
        &self,
        dst: UAdd,
        msg_id: u64,
        mtype: u32,
        attempts: u32,
        error: NtcsError,
    ) -> NtcsError {
        self.emit(ObsEvent::DeadLetter {
            dst,
            msg_id,
            attempts,
            error: &error,
        });
        self.maybe_dump_snapshot("dead-letter");
        let letter = DeadLetter {
            dst,
            msg_id,
            mtype,
            attempts,
            error: error.clone(),
        };
        if let Some(sink) = self.inner.dead_letter.read().clone() {
            sink(&letter);
        }
        error
    }

    /// Round-trip liveness probe over the (re)established circuit.
    ///
    /// # Errors
    ///
    /// Establishment errors, or [`NtcsError::Timeout`].
    pub fn ping(&self, dst: UAdd, timeout: Option<Duration>) -> Result<Duration> {
        let started = Instant::now();
        let msg_id = self.next_msg_id();
        let (conn_id, _) = self.ensure_conn(dst, false, 0, None)?;
        {
            let st = self.inner.state.lock();
            let e = st.conns.get(&conn_id).ok_or(NtcsError::ConnectionClosed)?;
            let mut h = FrameHeader::new(
                FrameType::Ping,
                self.my_uadd(),
                e.wire_peer,
                self.machine_type(),
            );
            h.msg_id = msg_id;
            e.lvc.send_frame(&Frame::control(h))?;
        }
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            if self.inner.state.lock().pongs.remove(&msg_id).is_some() {
                return Ok(started.elapsed());
            }
            self.pump_once(remaining(deadline)?)?;
        }
    }

    // ------------------------------------------------------------------
    // Send path (§3.5 fault handling)
    // ------------------------------------------------------------------

    fn next_msg_id(&self) -> u64 {
        self.inner.msg_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// The §3.5 send loop every delivery class runs: follow the forwarding
    /// table, pass the breaker gate, send once, and — for the
    /// connection-oriented classes — meet an address fault by asking for a
    /// forwarding address and trying again, up to `max_relocations` times.
    /// Hands back the circuit the frame went out on.
    fn deliver(&self, dst: UAdd, spec: FrameSpec<'_>, report: &mut SendReport) -> Result<Carrier> {
        self.deliver_after(dst, spec, None, None, report)
    }

    /// [`Nucleus::deliver`] for a request re-issued because the circuit
    /// that carried its previous copy to `closed` has closed since. If
    /// `dst` still leads there, that close is the address fault (§3.5),
    /// met before any send: the old address is not dialled again, which
    /// would meet the fault only after the open's retry schedule had
    /// waited out its refusals. No attempt starts after `deadline`, and
    /// no circuit open waits past it ([`NtcsError::Timeout`]).
    fn deliver_after(
        &self,
        dst: UAdd,
        spec: FrameSpec<'_>,
        mut closed: Option<UAdd>,
        deadline: Option<Instant>,
        report: &mut SendReport,
    ) -> Result<Carrier> {
        if self.is_shut_down() {
            return Err(NtcsError::ShutDown);
        }
        let _scope = self.inner.gauge.enter()?;
        let (msg_id, trace) = (spec.msg_id, spec.trace);
        self.emit(ObsEvent::Send { dst, msg_id, trace });
        let mut attempts = 0;
        let mut fault_at_us: Option<i64> = None;
        loop {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(NtcsError::Timeout);
            }
            let target = self.resolve_forwarded(dst)?;
            // Supervisor gate: an open breaker fails fast instead of
            // queueing behind a peer known to be down.
            self.inner.breakers.check(target)?;
            let leg = FrameSpec {
                span: spec.span + attempts,
                ..spec
            };
            let sent = if closed.take() == Some(target) {
                Err(NtcsError::ConnectionClosed)
            } else {
                self.try_send_once(target, leg, deadline, report)
            };
            match sent {
                Ok(carrier) => {
                    let peer = target;
                    if self.inner.breakers.record_success(peer) {
                        self.emit(ObsEvent::BreakerRecover { peer });
                    }
                    // Only an address fault sets the start, so this is a
                    // reconnect exactly when `attempts > 0`.
                    if let Some(fault_at_us) = fault_at_us {
                        let faults = attempts;
                        self.emit(ObsEvent::Reconnect {
                            peer,
                            faults,
                            fault_at_us,
                            trace,
                        });
                    }
                    self.emit(ObsEvent::Sent { peer, msg_id });
                    return Ok(carrier);
                }
                Err(e) if e.is_relocation_candidate() && !spec.connectionless() => {
                    report.address_faults += 1;
                    fault_at_us.get_or_insert_with(|| self.inner.obs.clock.now_us());
                    self.emit(ObsEvent::AddressFault {
                        peer: target,
                        error: &e,
                        trace,
                    });
                    attempts += 1;
                    if attempts > self.inner.config.max_relocations {
                        // The breaker counts failed *operations*, not the
                        // internal relocation retries (those are already
                        // supervised); record once, when the send gives up.
                        self.record_breaker_failure(target);
                        return Err(e);
                    }
                    self.handle_address_fault(target, &e)?;
                }
                Err(e) => {
                    if e.is_transient() && !matches!(e, NtcsError::CircuitBroken(_)) {
                        self.record_breaker_failure(target);
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Registers a delivery failure with the peer's breaker, emitting the
    /// trip when this one tripped it open.
    fn record_breaker_failure(&self, peer: UAdd) {
        if self.inner.breakers.record_failure(peer) {
            self.emit(ObsEvent::BreakerTrip { peer });
        }
    }

    /// Follows the forwarding-address table (§3.5) transitively, with cycle
    /// detection and path compression: after a long-lived module relocates
    /// many times, every stale alias points directly at the newest
    /// incarnation instead of walking the whole history.
    fn resolve_forwarded(&self, dst: UAdd) -> Result<UAdd> {
        let mut st = self.inner.state.lock();
        let mut cur = dst;
        let mut seen = vec![dst];
        while let Some(&next) = st.forwarding.get(&cur) {
            if next == cur || seen.contains(&next) {
                return Err(NtcsError::Protocol(format!(
                    "forwarding cycle detected from {dst}"
                )));
            }
            seen.push(next);
            cur = next;
        }
        if cur != dst {
            for &hop in &seen[..seen.len() - 1] {
                st.forwarding.insert(hop, cur);
            }
        }
        Ok(cur)
    }

    /// Builds the data frame for `spec` on a circuit running `mode` toward
    /// `wire_peer`. Called with the state lock released: the payload
    /// encoder does the per-byte work.
    fn data_frame(&self, mode: ConvMode, wire_peer: UAdd, spec: &FrameSpec<'_>) -> Frame {
        let payload = (spec.encode)(mode, self.machine_type());
        let connectionless = spec.connectionless();
        let mut h = FrameHeader::new(
            if connectionless {
                FrameType::Datagram
            } else {
                FrameType::Data
            },
            self.my_uadd(),
            wire_peer,
            self.machine_type(),
        );
        h.flags.set_conv_mode(mode);
        h.flags.reply_expected = spec.delivery
            == Delivery::Send {
                reply_expected: true,
            };
        h.flags.connectionless = connectionless;
        h.flags.reliable = matches!(spec.delivery, Delivery::Reliable { .. });
        h.msg_id = spec.msg_id;
        h.reply_to = spec.reply_to;
        h.aux = spec.type_id;
        h.trace_id = spec.trace;
        h.span = spec.span;
        h.sent_at_us = self.inner.obs.clock.now_us();
        Frame::new(h, payload)
    }

    fn try_send_once(
        &self,
        target: UAdd,
        spec: FrameSpec<'_>,
        deadline: Option<Instant>,
        report: &mut SendReport,
    ) -> Result<Carrier> {
        let (conn_id, handoff) =
            self.ensure_conn(target, spec.connectionless(), spec.trace, deadline)?;
        report.handoff |= handoff;
        let (lvc, mode, wire_peer, flow) = {
            let st = self.inner.state.lock();
            let e = st.conns.get(&conn_id).ok_or(NtcsError::ConnectionClosed)?;
            (e.lvc.clone(), e.mode, e.wire_peer, e.flow.clone())
        };
        let frame = self.data_frame(mode, wire_peer, &spec);
        // Credit gate: bulk-lane frames debit the circuit's window (the
        // control lane bypasses it, so naming/ack/observability traffic
        // can never be starved by bulk data). Runs with the state lock
        // dropped — a blocking acquisition must pump protocol events or
        // the very Credit frame it waits for would never be dispatched.
        if let Some(flow) = &flow {
            if Lane::classify(spec.type_id) == Lane::Bulk {
                self.acquire_credit(flow, frame.payload.len(), target, &spec, report)?;
            }
        }
        match lvc.send_frame(&frame) {
            Ok(()) => Ok(Carrier {
                conn_id,
                lvc,
                peer: target,
            }),
            Err(e) => {
                self.mark_conn_closed(conn_id);
                Err(e)
            }
        }
    }

    /// Debits `need` bytes and one frame from the circuit's credit
    /// window, applying the configured [`ntcs_flow::FlowPolicy`] when the
    /// window is still exhausted after one non-blocking drain of the
    /// queued events (which may hold the peer's grant): `Block` pumps
    /// events until the peer's grant arrives (or the stall timeout
    /// passes), `ShedNewest` fails the send immediately and counts a
    /// shed, `DeadLetter` hands it straight to the dead-letter sink.
    /// Reliable sends always surface the error so the caller's recovery
    /// loop dead-letters them — never a silent loss.
    fn acquire_credit(
        &self,
        flow: &CircuitFlow,
        need: usize,
        target: UAdd,
        spec: &FrameSpec<'_>,
        report: &mut SendReport,
    ) -> Result<()> {
        if flow.window.try_acquire(need) {
            return Ok(());
        }
        // The peer's grant may already be queued: a module that only sends
        // dispatches Credit frames only when something pumps, so drain the
        // queue once, without blocking, before calling the window spent.
        self.pump_once(None)?;
        if flow.window.try_acquire(need) {
            return Ok(());
        }
        report.credit_stalls += 1;
        let (msg_id, trace, bytes) = (spec.msg_id, spec.trace, need as u64);
        self.emit(ObsEvent::CreditStall {
            peer: target,
            msg_id,
            bytes,
            trace,
        });
        let reliable = matches!(spec.delivery, Delivery::Reliable { .. });
        match self.inner.config.flow.policy {
            ntcs_flow::FlowPolicy::Block => {
                let deadline = Instant::now() + self.inner.config.flow.stall_timeout;
                loop {
                    self.pump_once(Some(Duration::from_millis(5)))?;
                    if flow.window.try_acquire(need) {
                        return Ok(());
                    }
                    if Instant::now() >= deadline {
                        self.maybe_dump_snapshot("flow-stalled");
                        return Err(NtcsError::FlowStalled(target.raw()));
                    }
                }
            }
            ntcs_flow::FlowPolicy::ShedNewest => {
                if !reliable {
                    self.emit(ObsEvent::CreditShed);
                }
                Err(NtcsError::FlowStalled(target.raw()))
            }
            ntcs_flow::FlowPolicy::DeadLetter => {
                let e = NtcsError::FlowStalled(target.raw());
                if reliable {
                    // The reliable path dead-letters non-transient errors
                    // itself; erroring here avoids a double letter.
                    Err(e)
                } else {
                    Err(self.dead_letter(target, msg_id, spec.type_id, 0, e))
                }
            }
        }
    }

    /// §3.5: the LCM address-fault handler.
    ///
    /// The patched variant (shipped behaviour) special-cases a fault on the
    /// Name-Server circuit: it must *not* query the naming service about the
    /// naming service, so it simply retries direct re-establishment from the
    /// well-known table. The paper concedes this patch lives in a layer that
    /// "also should not know of the Name Server" (§6.3); we reproduce the
    /// concession. With the patch off, the handler recurses into the
    /// resolver even for the Name Server — the §6.3 runaway.
    fn handle_address_fault(&self, target: UAdd, cause: &NtcsError) -> Result<()> {
        // The circuit was already cleared by try_send_once / ensure_conn.
        if self.inner.config.ns_fault_patch && target.is_well_known() {
            // Patched (§6.3): never recurse into the naming service about a
            // well-known system module — the primary Name Server, a §7
            // replica, or a prime gateway. Their locations are static
            // configuration the naming service does not track (asking it
            // yields `UnknownAddress`, or worse, recursion onto the very
            // circuit that faulted); re-arm the well-known table and let
            // the retry loop re-open directly.
            for (u, addrs) in &self.inner.config.well_known {
                if *u == target {
                    self.inner
                        .statics
                        .preload(*u, addrs.clone(), self.machine_type());
                }
            }
            return Ok(());
        }
        // Check the forwarding table "to no avail since this just occurred"
        // (§3.5), then trap to the naming service. Without a naming service
        // there is no forwarding address; fall back to plain
        // re-establishment (§3.5 second case).
        let Some(resolver) = self.inner.resolver.read().clone() else {
            return Ok(());
        };
        self.emit(ObsEvent::ForwardingQuery {
            peer: target,
            cause,
        });
        match resolver.forwarding(target) {
            Ok(new_uadd) => {
                // The old address is dead for good; drop its cached location
                // and route future sends to the replacement.
                self.inner.statics.invalidate(target);
                self.emit(ObsEvent::CacheInvalidate {
                    peer: target,
                    pushed: false,
                });
                let mut st = self.inner.state.lock();
                st.forwarding.insert(target, new_uadd);
                // The substrate memory follows the peer to its new
                // identity, so the next open under the forwarded UAdd can
                // recognise a substrate change as a relocation handoff.
                if let Some(code) = st.last_substrate.remove(&target) {
                    st.last_substrate.insert(new_uadd, code);
                }
                Ok(())
            }
            Err(NtcsError::NoForwardingAddress(_)) => {
                // §3.5 second case: "the original module is still alive …
                // attempt to reestablish what appears to be a broken
                // communication link" — with the same cached address info.
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// The one close path: a send that failed, a peer that hung up (the
    /// reader's `Closed` event), a timed-out open or a substrate upgrade
    /// all retire the circuit here, once — closed, out of `conns` and
    /// `by_peer`, and recorded.
    fn mark_conn_closed(&self, conn_id: u64) {
        let mut st = self.inner.state.lock();
        if let Some(e) = st.conns.remove(&conn_id) {
            e.lvc.close();
            self.emit(ObsEvent::CircuitClose { peer: e.peer });
            if st.by_peer.get(&e.peer) == Some(&conn_id) {
                st.by_peer.remove(&e.peer);
            }
        }
    }

    // ------------------------------------------------------------------
    // Circuit establishment (IP layer, §4)
    // ------------------------------------------------------------------

    /// Returns the conn id of a live circuit to `target`, and whether
    /// opening it handed the peer off to a different substrate kind.
    ///
    /// `datagram` tells the selection policy the caller's reliability
    /// class: connectionless best-effort traffic may ride (and keep) a UDP
    /// circuit, while anything stronger forces a connection-oriented
    /// substrate. A reliable send arriving on a UDP-bound circuit closes it
    /// and re-opens on a substrate that can carry the stronger class.
    /// An open waits no longer than `deadline`, and carries `trace`, the
    /// trace id of the send that needs it.
    fn ensure_conn(
        &self,
        target: UAdd,
        datagram: bool,
        trace: u64,
        deadline: Option<Instant>,
    ) -> Result<(u64, bool)> {
        let mut upgrade = None;
        {
            let mut st = self.inner.state.lock();
            if let Some(&id) = st.by_peer.get(&target) {
                match st.conns.get(&id) {
                    Some(e) => {
                        let udp_bound = e.binding.is_some_and(|b| b.code == SubstrateBinding::UDP);
                        if udp_bound && !datagram && self.inner.config.substrate.adaptive {
                            upgrade = Some(id);
                        } else {
                            return Ok((id, false));
                        }
                    }
                    None => {
                        st.by_peer.remove(&target);
                    }
                }
            }
        }
        if let Some(id) = upgrade {
            // Reliability-class upgrade: drain-then-switch off the
            // datagram circuit before the connection-oriented open.
            self.emit(ObsEvent::SubstrateUpgrade { peer: target });
            self.mark_conn_closed(id);
        }
        if target.is_temporary() {
            // TAdds "are of no use in locating objects" (§3.4).
            return Err(NtcsError::UnknownAddress(target.raw()));
        }
        let resolved = self.resolve_module(target)?;
        self.open_circuit(&resolved, datagram, trace, deadline)
    }

    /// UAdd → location info: local cache / well-known table first, then the
    /// naming service (recursively).
    ///
    /// With the name cache enabled, the local table is lease-aware: a
    /// fresh lease is served without a round trip (`ns_cache_hits`), an
    /// expired one is revalidated (`ns_cache_stale`), and nothing cached
    /// goes to the shard cold (`ns_cache_misses`). A revalidation that
    /// fails on *transport* serves the expired entry (stale-if-error) —
    /// a dead naming service must not take warm conversations with it —
    /// but an authoritative "dead"/"unknown" answer is never overridden.
    fn resolve_module(&self, target: UAdd) -> Result<ResolvedModule> {
        if !self.inner.config.name_cache.enabled {
            if let Some(m) = self.inner.statics.get(target) {
                return Ok(m);
            }
            return self.resolve_via_ns(target, None);
        }
        let peer = target;
        match self.inner.statics.probe(target, self.now_us()) {
            LeaseProbe::Fresh(m) => {
                self.emit(ObsEvent::CacheHit { peer });
                Ok(m)
            }
            LeaseProbe::Stale(stale) => {
                self.emit(ObsEvent::CacheMiss {
                    peer,
                    expired: true,
                });
                self.resolve_via_ns(target, Some(stale))
            }
            LeaseProbe::Miss => {
                self.emit(ObsEvent::CacheMiss {
                    peer,
                    expired: false,
                });
                self.resolve_via_ns(target, None)
            }
        }
    }

    /// The naming-service leg of [`Nucleus::resolve_module`]: one recursive
    /// lookup, leased into the local table on success. `stale` carries an
    /// expired lease to fall back on when the service is unreachable.
    fn resolve_via_ns(
        &self,
        target: UAdd,
        stale: Option<ResolvedModule>,
    ) -> Result<ResolvedModule> {
        let Some(resolver) = self.inner.resolver.read().clone() else {
            return stale.ok_or(NtcsError::UnknownAddress(target.raw()));
        };
        let _scope = self.inner.gauge.enter()?;
        self.emit(ObsEvent::Lookup { peer: target });
        let started_us = self.inner.obs.clock.now_us();
        match resolver.lookup(target) {
            Ok(m) => {
                self.emit(ObsEvent::LookupDone { started_us });
                let cache = self.inner.config.name_cache;
                if cache.enabled {
                    let expires = self.now_us().saturating_add(cache.ttl.as_micros() as u64);
                    self.inner.statics.cache_leased(m.clone(), expires);
                } else {
                    self.inner.statics.cache(m.clone());
                }
                Ok(m)
            }
            Err(e) if stale.is_some() && resolver_unreachable(&e) => {
                // Stale-if-error: the service could not be asked at all, so
                // the expired lease is the best information available.
                Ok(stale.expect("checked above"))
            }
            Err(e) => Err(e),
        }
    }

    /// Ranks the peer's directly reachable physical addresses for an open.
    ///
    /// With adaptive selection off, this is the pre-PR10 behaviour: the
    /// first address on any locally attached network, in registry order.
    /// With it on, the endpoint-placement policy applies: shared memory
    /// first (the co-location fast path — a cross-machine SHM dial is
    /// refused by the substrate and falls through to the next candidate),
    /// then UDP for best-effort datagram traffic when allowed, then the
    /// connection-oriented substrates in registry order.
    fn ranked_direct_addrs(&self, resolved: &ResolvedModule, datagram: bool) -> Vec<PhysAddr> {
        let my_nets = self.inner.nd.networks();
        let mut addrs: Vec<PhysAddr> = resolved
            .addrs
            .iter()
            .filter(|a| my_nets.contains(&a.network()))
            .cloned()
            .collect();
        let sub = self.inner.config.substrate;
        if !sub.adaptive {
            addrs.truncate(1);
            return addrs;
        }
        addrs.sort_by_key(|a| match SubstrateBinding::for_addr(a).code {
            SubstrateBinding::SHM => 0u32,
            SubstrateBinding::UDP if datagram && sub.allow_udp => 1,
            SubstrateBinding::MBX => 2,
            SubstrateBinding::TCP => 3,
            // UDP for reliability classes it cannot honour ranks last: it
            // is still dialed when nothing better exists (the reliable
            // extension's retransmissions carry the loss).
            _ => 4,
        });
        addrs
    }

    /// Emits a substrate-selection decision, and detects the relocation
    /// handoff: a re-selection for a peer (under its current or forwarded
    /// UAdd) that lands on a different substrate kind. Returns whether
    /// this choice was such a handoff.
    fn note_substrate_choice(&self, peer: UAdd, addr: &PhysAddr) -> bool {
        let code = SubstrateBinding::for_addr(addr).code;
        self.emit(ObsEvent::SubstrateSelect { peer, code });
        let prev = self.inner.state.lock().last_substrate.insert(peer, code);
        match prev {
            Some(old) if old != code => {
                self.emit(ObsEvent::SubstrateHandoff {
                    peer,
                    old,
                    new: code,
                });
                true
            }
            _ => false,
        }
    }

    /// Establishes the IVC: a direct LVC when the destination shares a
    /// network, otherwise a chained circuit through the gateway route
    /// obtained from the naming service (§4.2). Returns the conn id and
    /// whether the open was a substrate handoff.
    fn open_circuit(
        &self,
        resolved: &ResolvedModule,
        datagram: bool,
        trace: u64,
        deadline: Option<Instant>,
    ) -> Result<(u64, bool)> {
        let my_nets = self.inner.nd.networks();
        let direct = self.ranked_direct_addrs(resolved, datagram);
        if !direct.is_empty() {
            // Try each candidate substrate in rank order. Non-final
            // candidates get a single quick attempt — their failure mode is
            // a placement refusal (SHM from off-machine, a dead port), not
            // a transient worth a supervised retry; the final candidate
            // runs under the full retry policy as before.
            let count = direct.len();
            let mut last = NtcsError::ConnectRefused("no substrate candidate".into());
            for (i, addr) in direct.into_iter().enumerate() {
                let quick = i + 1 < count;
                let payload = OpenPayload::direct();
                match self.open_circuit_at(resolved, &addr, payload, quick, trace, deadline) {
                    Ok(conn_id) => {
                        let handoff = self.note_substrate_choice(resolved.uadd, &addr);
                        return Ok((conn_id, handoff));
                    }
                    Err(e) => {
                        if quick {
                            self.emit(ObsEvent::SubstrateFallback {
                                addr: &addr,
                                error: &e,
                            });
                        }
                        last = e;
                    }
                }
            }
            return Err(last);
        }
        let (first_addr, payload) =
            if resolved.uadd == UAdd::NAME_SERVER && !self.inner.config.ns_route.is_empty() {
                // Prime-gateway route to the Name Server (§3.4).
                let hops = self.inner.config.ns_route.clone();
                let first = hops[0].entry.clone();
                let dst_phys = resolved
                    .addrs
                    .first()
                    .cloned()
                    .ok_or(NtcsError::UnknownAddress(resolved.uadd.raw()))?;
                (
                    first,
                    OpenPayload {
                        route: hops[1..].to_vec(),
                        dst_phys: Some(dst_phys),
                    },
                )
            } else {
                let resolver = self
                    .inner
                    .resolver
                    .read()
                    .clone()
                    .ok_or(NtcsError::NoRoute {
                        from: my_nets.first().map_or(0, |n| n.0),
                        to: resolved.addrs.first().map_or(u32::MAX, |a| a.network().0),
                    })?;
                let _scope = self.inner.gauge.enter()?;
                self.emit(ObsEvent::RouteQuery { dst: resolved.uadd });
                let route = resolver.route(&my_nets, resolved.uadd)?;
                if route.hops.is_empty() {
                    return Err(NtcsError::NoRoute {
                        from: my_nets.first().map_or(0, |n| n.0),
                        to: route.dst_phys.network().0,
                    });
                }
                let first = route.hops[0].entry.clone();
                (
                    first,
                    OpenPayload {
                        route: route.hops[1..].to_vec(),
                        dst_phys: Some(route.dst_phys),
                    },
                )
            };
        let conn_id =
            self.open_circuit_at(resolved, &first_addr, payload, false, trace, deadline)?;
        Ok((conn_id, false))
    }

    /// Opens one circuit over one concrete substrate endpoint: dials
    /// `first_addr`, sends the `LvcOpen`, registers the provisional
    /// [`ConnEntry`], and pumps until the ack. `quick` dials with a single
    /// attempt (the candidate-probing mode of the substrate-selection
    /// loop); otherwise the full retry policy supervises the open. Neither
    /// the retries nor the wait for the ack outlast `deadline`. The open
    /// frame carries `trace`.
    fn open_circuit_at(
        &self,
        resolved: &ResolvedModule,
        first_addr: &PhysAddr,
        payload: OpenPayload,
        quick: bool,
        trace: u64,
        deadline: Option<Instant>,
    ) -> Result<u64> {
        let started_us = self.inner.obs.clock.now_us();
        let (peer, addr) = (resolved.uadd, first_addr);
        self.emit(ObsEvent::NdOpen { addr, trace });
        let bounded;
        let retry = match deadline {
            Some(d) => {
                let left = d.saturating_duration_since(Instant::now());
                let policy = &self.inner.config.retry;
                bounded = policy.clone().with_deadline(policy.deadline.min(left));
                &bounded
            }
            None => &self.inner.config.retry,
        };
        let lvc = if quick {
            self.inner.nd.open(first_addr, 0)?
        } else {
            self.inner
                .nd
                .open_with_policy(first_addr, retry, |n, error| {
                    self.emit(ObsEvent::NdRetry {
                        peer,
                        addr,
                        n,
                        error,
                    });
                })?
        };

        let mut h = FrameHeader::new(
            FrameType::LvcOpen,
            self.my_uadd(),
            resolved.uadd,
            self.machine_type(),
        );
        h.msg_id = self.next_msg_id();
        // The open frame is the only thing a transit gateway parses, so it
        // carries the trace id of the send that needs the circuit: the
        // gateway reports its splice hop against it.
        h.trace_id = trace;
        h.sent_at_us = started_us;
        let open = Frame::new(h, Bytes::from(payload.to_packed()));
        lvc.send_frame(&open)?;

        let conn_id = self.inner.conn_seq.fetch_add(1, Ordering::Relaxed);
        {
            let mut st = self.inner.state.lock();
            st.conns.insert(
                conn_id,
                ConnEntry {
                    id: conn_id,
                    lvc: lvc.clone(),
                    peer: resolved.uadd,
                    wire_peer: resolved.uadd,
                    peer_machine: resolved.machine_type,
                    mode: ConvMode::Packed, // provisional until the ack
                    established: false,
                    flow: new_circuit_flow(&self.inner.config),
                    binding: Some(SubstrateBinding::for_addr(first_addr)),
                },
            );
            st.by_peer.insert(resolved.uadd, conn_id);
        }
        spawn_reader(&self.inner, conn_id, lvc);

        // Pump until the ack arrives (the passive Nucleus keeps working on
        // the caller's stack while waiting).
        let open_deadline = Instant::now() + self.inner.config.open_timeout;
        let deadline = deadline.map_or(open_deadline, |d| d.min(open_deadline));
        loop {
            {
                let st = self.inner.state.lock();
                match st.conns.get(&conn_id) {
                    Some(e) if e.established => break,
                    Some(_) => {}
                    None => return Err(NtcsError::ConnectionClosed),
                }
            }
            if Instant::now() >= deadline {
                self.mark_conn_closed(conn_id);
                return Err(NtcsError::Timeout);
            }
            self.pump_once(Some(Duration::from_millis(10)))?;
        }
        self.emit(ObsEvent::CircuitOpen { peer, started_us });
        Ok(conn_id)
    }

    // ------------------------------------------------------------------
    // The pump: the passive Nucleus's event processing
    // ------------------------------------------------------------------

    /// Processes queued events for up to `wait` ("the housekeeping which
    /// must occur every time the passive Nucleus is called", §6.2).
    fn pump_once(&self, wait: Option<Duration>) -> Result<()> {
        let first = match wait {
            Some(w) => match self.inner.events_rx.recv_timeout(w) {
                Ok(ev) => Some(ev),
                Err(crossbeam_channel::RecvTimeoutError::Timeout) => None,
                Err(crossbeam_channel::RecvTimeoutError::Disconnected) => {
                    return Err(NtcsError::ShutDown)
                }
            },
            None => None,
        };
        if let Some(ev) = first {
            self.dispatch(ev);
        }
        while let Ok(ev) = self.inner.events_rx.try_recv() {
            self.dispatch(ev);
        }
        Ok(())
    }

    fn dispatch(&self, ev: Event) {
        match ev {
            Event::Closed { conn_id } => self.mark_conn_closed(conn_id),
            Event::Frame { conn_id, frame } => self.dispatch_frame(conn_id, frame),
        }
    }

    fn dispatch_frame(&self, conn_id: u64, frame: Frame) {
        let h = &frame.header;
        match h.frame_type {
            FrameType::LvcOpenAck => {
                let mut st = self.inner.state.lock();
                if let Some(e) = st.conns.get_mut(&conn_id) {
                    e.established = true;
                    e.peer_machine = h.src_machine;
                    e.mode = ConvMode::select(self.machine_type(), h.src_machine);
                    // The peer may ack with a different (real) UAdd than the
                    // possibly-stale one we dialed; prefer what it says.
                    if h.src.is_permanent() && h.src != e.peer {
                        let old = e.peer;
                        e.peer = h.src;
                        e.wire_peer = h.src;
                        let id = e.id;
                        st.by_peer.remove(&old);
                        st.by_peer.insert(h.src, id);
                    }
                }
            }
            FrameType::Data if h.aux == RELIABLE_ACK_TYPE => {
                // An LCM-level acknowledgement (reliable extension): record
                // and swallow — the application never sees it.
                self.inner.state.lock().acks.insert(h.reply_to);
            }
            FrameType::Data | FrameType::Datagram => {
                let mut st = self.inner.state.lock();
                let Some(e) = st.conns.get_mut(&conn_id) else {
                    return;
                };
                // §3.4 purge: a frame from a permanent UAdd replaces any TAdd
                // alias in the local tables.
                if h.src.is_permanent() && e.peer.is_temporary() {
                    let old = e.peer;
                    e.peer = h.src;
                    e.wire_peer = h.src;
                    let id = e.id;
                    st.by_peer.remove(&old);
                    st.by_peer.insert(h.src, id);
                    self.emit(ObsEvent::TaddPurge);
                }
                let e = st.conns.get(&conn_id).expect("just updated");
                let peer = e.peer;
                let arrival_lvc = e.lvc.clone();
                let arrival_flow = e.flow.clone();
                let mut deliver = true;
                if h.flags.reliable {
                    // Reliable extension: suppress retransmitted duplicates.
                    // A duplicate means our delivery ack was lost — re-ack
                    // immediately so the sender's loop converges.
                    let key = (peer.raw(), h.msg_id);
                    if !st.seen_reliable.insert(key) {
                        deliver = false;
                        self.emit(ObsEvent::DuplicateSuppressed);
                        send_reliable_ack(&self.inner, &arrival_lvc, h.src, h.msg_id);
                        // The retransmission debited the sender's window
                        // but will never be drained from the inbox —
                        // credit it back so the window doesn't leak.
                        if let Some(flow) = &arrival_flow {
                            if Lane::classify(h.aux) == Lane::Bulk {
                                if let Some((bytes, frames)) =
                                    flow.ledger.on_drain(frame.payload.len())
                                {
                                    send_credit(&self.inner, &arrival_lvc, h.src, bytes, frames);
                                }
                            }
                        }
                    } else {
                        st.seen_reliable_order.push_back(key);
                        if st.seen_reliable_order.len() > self.inner.config.dedupe_window {
                            if let Some(old) = st.seen_reliable_order.pop_front() {
                                st.seen_reliable.remove(&old);
                            }
                        }
                    }
                }
                if deliver {
                    self.emit(ObsEvent::Deliver {
                        peer,
                        msg_id: h.msg_id,
                        span: h.span,
                        sent_at_us: h.sent_at_us,
                        trace: h.trace_id,
                    });
                    let received = Received {
                        src: peer,
                        msg_id: h.msg_id,
                        reply_to: h.reply_to,
                        reply_expected: h.flags.reply_expected,
                        connectionless: h.frame_type == FrameType::Datagram,
                        reliable: h.flags.reliable,
                        trace_id: h.trace_id,
                        span: h.span,
                        payload: InboundPayload {
                            type_id: h.aux,
                            mode: h.flags.conv_mode(),
                            src_machine: h.src_machine,
                            bytes: frame.payload.clone(),
                        },
                        conn_id,
                    };
                    // Control-plane intercept: a registered hook consumes
                    // the message instead of the inbox. Credit the frame
                    // back first if it debited a window (it will never be
                    // drained), then run the hook outside the state lock —
                    // it may re-enter the LCM (e.g. to invalidate caches).
                    let hook = self.inner.intercepts.read().get(&h.aux).cloned();
                    if let Some(hook) = hook {
                        if Lane::classify(h.aux) == Lane::Bulk {
                            if let Some(flow) = &arrival_flow {
                                if let Some((bytes, frames)) =
                                    flow.ledger.on_drain(frame.payload.len())
                                {
                                    send_credit(&self.inner, &arrival_lvc, h.src, bytes, frames);
                                }
                            }
                        }
                        drop(st);
                        hook(&received);
                        return;
                    }
                    if let Some(evicted) = st.inbox.push_back(received) {
                        // Inbox overflow: shed the oldest message rather
                        // than grow without bound, and credit its bytes
                        // back to the peer that sent it (it will never be
                        // drained by the application).
                        self.emit(ObsEvent::InboxShed {
                            peer: evicted.src,
                            msg_id: evicted.msg_id,
                            depth: st.inbox.len() as u64,
                        });
                        if Lane::classify(evicted.payload.type_id) == Lane::Bulk {
                            if let Some(src) = st.conns.get(&evicted.conn_id) {
                                if let Some(flow) = &src.flow {
                                    if let Some((bytes, frames)) =
                                        flow.ledger.on_drain(evicted.payload.bytes.len())
                                    {
                                        let (lvc, to) = (src.lvc.clone(), src.wire_peer);
                                        send_credit(&self.inner, &lvc, to, bytes, frames);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            FrameType::Close | FrameType::IvcAbort => {
                self.mark_conn_closed(conn_id);
            }
            FrameType::Ping => {
                let st = self.inner.state.lock();
                if let Some(e) = st.conns.get(&conn_id) {
                    let mut pong = FrameHeader::new(
                        FrameType::Pong,
                        self.my_uadd(),
                        e.wire_peer,
                        self.machine_type(),
                    );
                    pong.reply_to = h.msg_id;
                    let _ = e.lvc.send_frame(&Frame::control(pong));
                }
            }
            FrameType::Pong => {
                self.inner.state.lock().pongs.insert(h.reply_to, ());
            }
            FrameType::Credit => {
                // The peer's delta grant: bytes in `msg_id`, frames in
                // `aux`. Replenish clamps at the window's capacity, so a
                // duplicate or over-generous grant is harmless.
                let st = self.inner.state.lock();
                if let Some(e) = st.conns.get(&conn_id) {
                    if let Some(flow) = &e.flow {
                        flow.window.replenish(h.msg_id, h.aux);
                        self.emit(ObsEvent::CreditGrant {
                            peer: e.peer,
                            bytes: h.msg_id,
                        });
                    }
                }
            }
            FrameType::LvcOpen | FrameType::IvcOpen | FrameType::IvcOpenAck => {
                // Opens are handled by the greeter; seeing one here is a
                // protocol violation we simply drop.
            }
        }
    }
}

fn remaining(deadline: Option<Instant>) -> Result<Option<Duration>> {
    match deadline {
        None => Ok(Some(Duration::from_millis(50))),
        Some(d) => {
            let now = Instant::now();
            if now >= d {
                Err(NtcsError::Timeout)
            } else {
                Ok(Some((d - now).min(Duration::from_millis(50))))
            }
        }
    }
}

/// Emits a flow-control credit grant on a circuit: `bytes`/`frames` of
/// window the application has drained since the last grant. Header-only —
/// the granted bytes travel in `msg_id` and the granted frames in `aux`.
/// Best-effort like the reliable ack: a lost grant leaks window until the
/// sender's stall timeout surfaces it.
fn send_credit(inner: &Arc<Inner>, lvc: &Lvc, to: UAdd, bytes: u64, frames: u32) {
    let mut h = FrameHeader::new(
        FrameType::Credit,
        *inner.my_uadd.read(),
        to,
        inner.nd.machine_type(),
    );
    h.msg_id = bytes;
    h.aux = frames;
    let _ = lvc.send_frame(&Frame::control(h));
}

/// Emits a reliable-extension delivery acknowledgement on a circuit.
fn send_reliable_ack(inner: &Arc<Inner>, lvc: &Lvc, to: UAdd, acked_msg_id: u64) {
    let mut ack = FrameHeader::new(
        FrameType::Data,
        *inner.my_uadd.read(),
        to,
        inner.nd.machine_type(),
    );
    ack.aux = RELIABLE_ACK_TYPE;
    ack.reply_to = acked_msg_id;
    ack.msg_id = inner.msg_seq.fetch_add(1, Ordering::Relaxed);
    let _ = lvc.send_frame(&Frame::control(ack));
}

/// Reader thread: shuttles frames from one circuit into the event queue.
/// Runs no protocol logic (the Nucleus stays passive).
fn spawn_reader(inner: &Arc<Inner>, conn_id: u64, lvc: Lvc) {
    let inner = Arc::clone(inner);
    std::thread::Builder::new()
        .name("ntcs-reader".into())
        .spawn(move || read_frames(&inner, conn_id, &lvc))
        .expect("spawn reader");
}

/// The reader loop: queues each frame of the circuit until it closes
/// (queued as `Closed`) or the Nucleus shuts down.
fn read_frames(inner: &Inner, conn_id: u64, lvc: &Lvc) {
    while !inner.shutdown.load(Ordering::SeqCst) {
        let event = match lvc.recv_frame(Some(Duration::from_millis(500))) {
            Ok(frame) => Event::Frame { conn_id, frame },
            Err(NtcsError::Timeout) => continue,
            Err(_) => Event::Closed { conn_id },
        };
        let closed = matches!(event, Event::Closed { .. });
        if inner.events_tx.send(event).is_err() || closed {
            return;
        }
    }
}

/// Greeter: handles the first frame of an inbound circuit (the open
/// handshake), then becomes its reader thread.
fn greet_inbound(inner: &Arc<Inner>, lvc: Lvc) {
    let open = match lvc.recv_frame(Some(Duration::from_secs(5))) {
        Ok(f) => f,
        Err(_) => {
            lvc.close();
            return;
        }
    };
    if open.header.frame_type != FrameType::LvcOpen {
        lvc.close();
        return;
    }
    let my_uadd = *inner.my_uadd.read();
    let for_me = open.header.dst == my_uadd
        || (open.header.dst.is_permanent() && open.header.dst == UAdd::from_raw(0));
    if !for_me {
        // Transit circuit: hand to the gateway handler if present (§4),
        // otherwise refuse.
        let handler = inner.gateway.read().clone();
        if let Some(h) = handler {
            let dst = open.header.dst;
            inner.obs.emit(&inner.gauge, ObsEvent::Transit { dst });
            h.transit(lvc, open);
        } else {
            let mut close = FrameHeader::new(
                FrameType::Close,
                my_uadd,
                open.header.src,
                inner.nd.machine_type(),
            );
            close.error_code = NtcsError::UnknownAddress(open.header.dst.raw()).wire_code();
            let _ = lvc.send_frame(&Frame::control(close));
            lvc.close();
        }
        return;
    }

    // Register the circuit. A TAdd source gets a receiver-local alias, since
    // "the source TAdd is not unique to the receiver" (§3.4).
    let peer_on_wire = open.header.src;
    let peer_key = if peer_on_wire.is_temporary() {
        inner.tadds.generate()
    } else {
        peer_on_wire
    };
    let mode = ConvMode::select(inner.nd.machine_type(), open.header.src_machine);
    let conn_id = inner.conn_seq.fetch_add(1, Ordering::Relaxed);
    {
        let mut st = inner.state.lock();
        st.conns.insert(
            conn_id,
            ConnEntry {
                id: conn_id,
                lvc: lvc.clone(),
                peer: peer_key,
                wire_peer: peer_on_wire,
                peer_machine: open.header.src_machine,
                mode,
                established: true,
                flow: new_circuit_flow(&inner.config),
                binding: None,
            },
        );
        st.by_peer.insert(peer_key, conn_id);
    }
    let accept = ObsEvent::CircuitAccept {
        wire_peer: peer_on_wire,
        peer: peer_key,
    };
    inner.obs.emit(&inner.gauge, accept);

    let mut ack = FrameHeader::new(
        FrameType::LvcOpenAck,
        my_uadd,
        peer_on_wire,
        inner.nd.machine_type(),
    );
    ack.reply_to = open.header.msg_id;
    if lvc.send_frame(&Frame::control(ack)).is_err() {
        lvc.close();
        let mut st = inner.state.lock();
        st.conns.remove(&conn_id);
        st.by_peer.remove(&peer_key);
        return;
    }

    // Become the reader.
    read_frames(inner, conn_id, &lvc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::event_kind;
    use ntcs_addr::{MachineId, UAddGenerator};
    use ntcs_ipcs::NetKind;
    use ntcs_wire::ntcs_message;

    ntcs_message! {
        pub struct Greeting: 500 {
            pub text: String,
            pub n: u32,
        }
        pub struct Answer: 501 {
            pub ok: bool,
            pub echo: String,
        }
    }

    struct Rig {
        world: World,
        a: Nucleus,
        b: Nucleus,
        ua: UAdd,
        ub: UAdd,
    }

    /// Two modules that know each other through the well-known table (no
    /// naming service yet — this is the Nucleus in isolation).
    fn rig(kind: NetKind, ta: MachineType, tb: MachineType) -> Rig {
        let world = World::new();
        let net = world.add_network(kind, "lab");
        let ma = world.add_machine(ta, "ma", &[net]).unwrap();
        let mb = world.add_machine(tb, "mb", &[net]).unwrap();
        let gen = UAddGenerator::new(0);
        let ua = gen.generate();
        let ub = gen.generate();
        let a = Nucleus::bind(&world, NucleusConfig::new(ma, "a")).unwrap();
        let b = Nucleus::bind(&world, NucleusConfig::new(mb, "b")).unwrap();
        a.set_my_uadd(ua);
        b.set_my_uadd(ub);
        a.statics().preload(ub, b.nd().phys_addrs(), tb);
        b.statics().preload(ua, a.nd().phys_addrs(), ta);
        Rig {
            world,
            a,
            b,
            ua,
            ub,
        }
    }

    const T: Option<Duration> = Some(Duration::from_secs(5));

    fn send_msg<M: Message>(n: &Nucleus, dst: UAdd, msg: &M, reply_expected: bool) -> Result<u64> {
        n.send(dst, msg, SendOpts::new(Delivery::Send { reply_expected }))
            .0
    }

    #[test]
    fn send_recv_over_mbx() {
        let r = rig(NetKind::Mbx, MachineType::Vax, MachineType::Sun);
        let g = Greeting {
            text: "hello".into(),
            n: 7,
        };
        send_msg(&r.a, r.ub, &g, false).unwrap();
        let m = r.b.recv(T).unwrap();
        assert_eq!(m.src, r.ua);
        let got: Greeting = m.payload.decode(r.b.machine_type()).unwrap();
        assert_eq!(got, g);
    }

    #[test]
    fn send_recv_over_tcp() {
        let r = rig(NetKind::Tcp, MachineType::Sun, MachineType::Apollo);
        let g = Greeting {
            text: "tcp".into(),
            n: 1,
        };
        send_msg(&r.a, r.ub, &g, false).unwrap();
        let m = r.b.recv(T).unwrap();
        let got: Greeting = m.payload.decode(r.b.machine_type()).unwrap();
        assert_eq!(got, g);
    }

    #[test]
    fn mode_is_packed_between_unlike_machines() {
        let r = rig(NetKind::Mbx, MachineType::Vax, MachineType::Sun);
        send_msg(
            &r.a,
            r.ub,
            &Greeting {
                text: "x".into(),
                n: 0x0102_0304,
            },
            false,
        )
        .unwrap();
        let m = r.b.recv(T).unwrap();
        assert_eq!(m.payload.mode, ConvMode::Packed);
        let got: Greeting = m.payload.decode(r.b.machine_type()).unwrap();
        assert_eq!(got.n, 0x0102_0304);
    }

    #[test]
    fn mode_is_image_between_like_machines() {
        let r = rig(NetKind::Mbx, MachineType::Sun, MachineType::Apollo);
        send_msg(
            &r.a,
            r.ub,
            &Greeting {
                text: "img".into(),
                n: 42,
            },
            false,
        )
        .unwrap();
        let m = r.b.recv(T).unwrap();
        assert_eq!(m.payload.mode, ConvMode::Image);
        let got: Greeting = m.payload.decode(r.b.machine_type()).unwrap();
        assert_eq!(got.n, 42);
    }

    #[test]
    fn request_reply_round_trip() {
        let r = rig(NetKind::Mbx, MachineType::Vax, MachineType::Apollo);
        let b = r.b.clone();
        let server = std::thread::spawn(move || {
            let m = b.recv(T).unwrap();
            let q: Greeting = m.payload.decode(b.machine_type()).unwrap();
            b.reply_message(
                &m,
                &Answer {
                    ok: true,
                    echo: q.text,
                },
            )
            .unwrap();
        });
        let reply =
            r.a.request(
                r.ub,
                &Greeting {
                    text: "ask".into(),
                    n: 3,
                },
                T,
            )
            .unwrap();
        let ans: Answer = reply.payload.decode(r.a.machine_type()).unwrap();
        assert!(ans.ok);
        assert_eq!(ans.echo, "ask");
        server.join().unwrap();
    }

    #[test]
    fn second_send_reuses_circuit() {
        let r = rig(NetKind::Mbx, MachineType::Vax, MachineType::Vax);
        for i in 0..3 {
            send_msg(
                &r.a,
                r.ub,
                &Greeting {
                    text: "again".into(),
                    n: i,
                },
                false,
            )
            .unwrap();
        }
        for _ in 0..3 {
            r.b.recv(T).unwrap();
        }
        assert_eq!(r.a.metrics().snapshot().circuits_opened, 1);
        assert_eq!(r.b.metrics().snapshot().circuits_accepted, 1);
    }

    #[test]
    fn tadd_peer_gets_alias_and_reply_works() {
        let world = World::new();
        let net = world.add_network(NetKind::Mbx, "lab");
        let ma = world.add_machine(MachineType::Vax, "ma", &[net]).unwrap();
        let mb = world.add_machine(MachineType::Sun, "mb", &[net]).unwrap();
        let server = Nucleus::bind(&world, NucleusConfig::new(mb, "srv")).unwrap();
        let us = UAddGenerator::new(0).generate();
        server.set_my_uadd(us);
        // Client keeps its self-assigned TAdd (pre-registration state).
        let client = Nucleus::bind(&world, NucleusConfig::new(ma, "cli")).unwrap();
        assert!(client.my_uadd().is_temporary());
        client
            .statics()
            .preload(us, server.nd().phys_addrs(), MachineType::Sun);

        let asker = {
            let client = client.clone();
            std::thread::spawn(move || {
                client.request(
                    us,
                    &Greeting {
                        text: "from tadd".into(),
                        n: 1,
                    },
                    T,
                )
            })
        };
        let m = server.recv(T).unwrap();
        // The server keyed the client by a *local* alias TAdd.
        assert!(m.src.is_temporary());
        assert_ne!(m.src, client.my_uadd());
        // Reply flows back over the arrival circuit.
        server
            .reply_message(
                &m,
                &Answer {
                    ok: true,
                    echo: "hi".into(),
                },
            )
            .unwrap();
        let got = asker.join().unwrap().unwrap();
        assert_eq!(got.reply_to, m.msg_id);
        let a: Answer = got.payload.decode(client.machine_type()).unwrap();
        assert!(a.ok);
    }

    #[test]
    fn tadd_is_purged_after_registration() {
        let world = World::new();
        let net = world.add_network(NetKind::Mbx, "lab");
        let ma = world.add_machine(MachineType::Vax, "ma", &[net]).unwrap();
        let mb = world.add_machine(MachineType::Sun, "mb", &[net]).unwrap();
        let server = Nucleus::bind(&world, NucleusConfig::new(mb, "srv")).unwrap();
        let gen = UAddGenerator::new(0);
        let us = gen.generate();
        server.set_my_uadd(us);
        let client = Nucleus::bind(&world, NucleusConfig::new(ma, "cli")).unwrap();
        client
            .statics()
            .preload(us, server.nd().phys_addrs(), MachineType::Sun);

        // First communication: client still a TAdd.
        send_msg(
            &client,
            us,
            &Greeting {
                text: "1".into(),
                n: 1,
            },
            false,
        )
        .unwrap();
        let m1 = server.recv(T).unwrap();
        assert!(m1.src.is_temporary());
        assert!(server.peer_table().iter().any(|u| u.is_temporary()));

        // "Registration": the client learns its real UAdd.
        let real = gen.generate();
        client.set_my_uadd(real);

        // Second communication: the server's tables purge the TAdd.
        send_msg(
            &client,
            us,
            &Greeting {
                text: "2".into(),
                n: 2,
            },
            false,
        )
        .unwrap();
        let m2 = server.recv(T).unwrap();
        assert_eq!(m2.src, real);
        assert!(
            server.peer_table().iter().all(|u| u.is_permanent()),
            "TAdds must be purged within the first two communications (§3.4)"
        );
        assert_eq!(server.metrics().snapshot().tadd_purges, 1);
    }

    #[test]
    fn peer_crash_surfaces_after_relocation_attempts() {
        let r = rig(NetKind::Mbx, MachineType::Vax, MachineType::Sun);
        send_msg(&r.a, r.ub, &Greeting::default(), false).unwrap();
        r.b.recv(T).unwrap();
        // Crash B's machine: the circuit dies and no forwarding exists.
        r.world.crash(MachineId(1));
        std::thread::sleep(Duration::from_millis(50));
        let err = send_msg(&r.a, r.ub, &Greeting::default(), false).unwrap_err();
        assert!(err.is_relocation_candidate(), "{err}");
        assert!(r.a.metrics().snapshot().address_faults >= 1);
    }

    /// A caller `a` on machine 0 and a factory for incarnations of one
    /// peer module on machines 1 and 2, in turn: each binds under a fresh
    /// UAdd that `a` can locate through its well-known table.
    struct MovingPeer {
        world: World,
        a: Nucleus,
        gen: UAddGenerator,
        homes: [MachineId; 2],
        moves: usize,
    }

    impl MovingPeer {
        fn new() -> Self {
            let world = World::new();
            let net = world.add_network(NetKind::Mbx, "lab");
            let ma = world.add_machine(MachineType::Vax, "ma", &[net]).unwrap();
            let homes = [
                world.add_machine(MachineType::Sun, "h0", &[net]).unwrap(),
                world.add_machine(MachineType::Sun, "h1", &[net]).unwrap(),
            ];
            let gen = UAddGenerator::new(0);
            let a = Nucleus::bind(&world, NucleusConfig::new(ma, "a")).unwrap();
            a.set_my_uadd(gen.generate());
            MovingPeer {
                world,
                a,
                gen,
                homes,
                moves: 0,
            }
        }

        /// Binds the next incarnation of the peer.
        fn incarnate(&mut self) -> (Nucleus, UAdd) {
            let home = self.homes[self.moves % 2];
            let hint = format!("b{}", self.moves);
            self.moves += 1;
            let b = Nucleus::bind(&self.world, NucleusConfig::new(home, &hint)).unwrap();
            let ub = self.gen.generate();
            b.set_my_uadd(ub);
            self.a
                .statics()
                .preload(ub, b.nd().phys_addrs(), MachineType::Sun);
            (b, ub)
        }
    }

    #[test]
    fn circuits_closed_by_the_peer_leave_the_tables() {
        // One peer relocated 20 times under a caller that keeps sending to
        // its first address. Each old incarnation's circuit is closed from
        // the far end; the caller must retire it through the one close
        // path (one CIRCUIT_CLOSE each), not keep it until shutdown.
        let mut p = MovingPeer::new();
        let (mut b, mut ub) = p.incarnate();
        let first = ub;
        let g = Greeting {
            text: "hop".into(),
            n: 0,
        };
        for _ in 0..20 {
            send_msg(&p.a, first, &g, false).unwrap();
            b.recv(T).unwrap();
            let (next, next_u) = p.incarnate();
            p.a.note_forwarding(ub, next_u);
            b.shutdown();
            (b, ub) = (next, next_u);
        }
        send_msg(&p.a, first, &g, false).unwrap();
        b.recv(T).unwrap();
        // The last close may still be queued: pump until it is dispatched.
        let deadline = Instant::now() + Duration::from_secs(5);
        while p.a.recorder().seen(event_kind::CIRCUIT_CLOSE) < 20 && Instant::now() < deadline {
            let _ = p.a.recv(Some(Duration::from_millis(10)));
        }
        assert_eq!(p.a.recorder().seen(event_kind::CIRCUIT_CLOSE), 20);
        let st = p.a.inner.state.lock();
        assert_eq!(
            st.conns.len(),
            1,
            "one live circuit, to the newest incarnation"
        );
        assert_eq!(st.by_peer.keys().copied().collect::<Vec<_>>(), vec![ub]);
    }

    #[test]
    fn request_is_reissued_when_its_circuit_closes() {
        // The request reaches the old incarnation, which moves instead of
        // answering: the caller's wait sees the circuit close and re-issues
        // the request, same msg id, to the forwarded address.
        let mut p = MovingPeer::new();
        let (b, ub) = p.incarnate();
        let a = p.a.clone();
        let asker = std::thread::spawn(move || {
            a.request(
                ub,
                &Greeting {
                    text: "q".into(),
                    n: 1,
                },
                T,
            )
        });
        let held = b.recv(T).unwrap();
        let (b2, ub2) = p.incarnate();
        p.a.note_forwarding(ub, ub2);
        b.shutdown();
        let again = b2.recv(T).unwrap();
        assert_eq!(again.msg_id, held.msg_id, "re-issued under the same id");
        assert!(again.span > held.span, "the re-issue bumps the span");
        b2.reply_message(
            &again,
            &Answer {
                ok: true,
                echo: "moved".into(),
            },
        )
        .unwrap();
        let reply = asker.join().unwrap().unwrap();
        assert_eq!(reply.src, ub2);
        assert_eq!(reply.reply_to, held.msg_id);
        assert_eq!(p.a.metrics().snapshot().request_reissues, 1);
    }

    /// Sends a request from `r.a` to `r.b` the way [`Nucleus::request`]
    /// does, handing back its msg id and the circuit it went out on.
    fn send_request(r: &Rig) -> (u64, Carrier) {
        let g = Greeting::default();
        let encode = |mode, machine| ntcs_wire::encode_payload(&g, mode, machine);
        let spec = FrameSpec {
            msg_id: r.a.next_msg_id(),
            reply_to: 0,
            delivery: Delivery::Send {
                reply_expected: true,
            },
            trace: 0,
            span: 0,
            type_id: Greeting::TYPE_ID,
            encode: &encode,
        };
        let carrier = r.a.deliver(r.ub, spec, &mut SendReport::default());
        (spec.msg_id, carrier.unwrap())
    }

    #[test]
    fn a_reply_dispatched_before_the_close_is_not_reissued() {
        // The server answers and hangs up at once. A thread other than the
        // waiter may dispatch both the reply and the close between two
        // passes of the waiter's loop: the request must then count as
        // answered, never as lost with its circuit.
        let r = rig(NetKind::Mbx, MachineType::Vax, MachineType::Sun);
        let (msg_id, carrier) = send_request(&r);
        let m = r.b.recv(T).unwrap();
        r.b.reply_message(&m, &Answer::default()).unwrap();
        r.b.mark_conn_closed(m.conn_id);
        let deadline = Instant::now() + Duration::from_secs(5);
        while r.a.inner.state.lock().conns.contains_key(&carrier.conn_id) {
            assert!(Instant::now() < deadline, "the close was never dispatched");
            r.a.pump_once(Some(Duration::from_millis(10))).unwrap();
        }
        assert!(!r.a.lost_with_circuit(&carrier, msg_id), "reply is queued");
        assert!(r.a.take_queued(|m| m.reply_to == msg_id).is_some());
        // Had no reply come, the request would have gone down with it.
        assert!(r.a.lost_with_circuit(&carrier, msg_id));
    }

    #[test]
    fn a_second_pumping_thread_leaves_no_stray_reply() {
        // The server closes each circuit right after its reply, while a
        // second thread keeps pumping the caller's Nucleus. Every request
        // is answered in its one call, and no reply is left over for the
        // application: a re-issue happens only for a reply that was lost.
        let r = rig(NetKind::Mbx, MachineType::Vax, MachineType::Sun);
        let stop = Arc::new(AtomicBool::new(false));
        let server = {
            let (b, stop) = (r.b.clone(), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(m) = b.recv(Some(Duration::from_millis(10))) {
                        let _ = b.reply_message(&m, &Answer::default());
                        b.mark_conn_closed(m.conn_id);
                    }
                }
            })
        };
        let pumper = {
            let (a, stop) = (r.a.clone(), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _ = a.recv_of_type(u32::MAX, Some(Duration::from_millis(1)));
                }
            })
        };
        for n in 0..40 {
            let g = Greeting {
                text: String::new(),
                n,
            };
            let reply = r.a.request(r.ub, &g, T).unwrap();
            assert_eq!(reply.src, r.ub);
        }
        // A stray reply would trail the request whose re-issue caused it.
        std::thread::sleep(Duration::from_millis(100));
        stop.store(true, Ordering::Relaxed);
        server.join().unwrap();
        pumper.join().unwrap();
        let _ = r.a.recv_of_type(u32::MAX, Some(Duration::from_millis(10)));
        let st = r.a.inner.state.lock();
        assert!(st.inbox.iter().all(|m| m.reply_to == 0), "stray reply");
    }

    #[test]
    fn a_reissue_to_an_unreachable_peer_keeps_the_callers_timeout() {
        // The request reaches the server, then the network starts losing
        // every frame and the circuit closes. The re-issue's open gets no
        // ack; it must give up when the caller's time runs out, not after
        // the open timeout.
        let r = rig(NetKind::Mbx, MachineType::Vax, MachineType::Sun);
        let net = r.world.networks()[0].id;
        let a = r.a.clone();
        let ub = r.ub;
        let timeout = Duration::from_millis(500);
        let asker = std::thread::spawn(move || {
            let began = Instant::now();
            let res = a.request(ub, &Greeting::default(), Some(timeout));
            (res, began.elapsed())
        });
        let m = r.b.recv(T).unwrap();
        r.world.set_drop_permille(net, 1000).unwrap();
        r.b.mark_conn_closed(m.conn_id);
        let (res, took) = asker.join().unwrap();
        assert!(res.is_err(), "no reply can arrive");
        assert!(
            took < timeout + Duration::from_millis(300),
            "returned after {took:?}, past its {timeout:?} timeout"
        );
        assert_eq!(r.a.metrics().snapshot().request_reissues, 1);
    }

    #[test]
    fn ping_round_trip() {
        let r = rig(NetKind::Mbx, MachineType::Sun, MachineType::Sun);
        let b = r.b.clone();
        let t = std::thread::spawn(move || {
            // The server must be pumping for pings to be answered.
            let _ = b.recv(Some(Duration::from_millis(500)));
        });
        let rtt = r.a.ping(r.ub, T).unwrap();
        assert!(rtt < Duration::from_secs(1));
        t.join().unwrap();
    }

    #[test]
    fn recv_timeout_works() {
        let r = rig(NetKind::Mbx, MachineType::Vax, MachineType::Sun);
        let err = r.a.recv(Some(Duration::from_millis(50))).unwrap_err();
        assert!(matches!(err, NtcsError::Timeout));
    }

    #[test]
    fn shutdown_stops_everything() {
        let r = rig(NetKind::Mbx, MachineType::Vax, MachineType::Sun);
        send_msg(&r.a, r.ub, &Greeting::default(), false).unwrap();
        r.b.recv(T).unwrap();
        r.a.shutdown();
        assert!(r.a.is_shut_down());
        assert!(matches!(
            send_msg(&r.a, r.ub, &Greeting::default(), false),
            Err(NtcsError::ShutDown)
        ));
        assert!(matches!(r.a.recv(T), Err(NtcsError::ShutDown)));
    }

    #[test]
    fn forwarding_compression_keeps_chains_short() {
        let r = rig(NetKind::Mbx, MachineType::Vax, MachineType::Sun);
        // Simulate a long relocation history in the forwarding table.
        let gen = UAddGenerator::new(9);
        let chain: Vec<UAdd> = (0..20).map(|_| gen.generate()).collect();
        {
            let mut table = Vec::new();
            for w in chain.windows(2) {
                table.push((w[0], w[1]));
            }
            // Install via the public-ish surface: there is none, so go
            // through resolve by seeding the state directly with sends…
            // simplest: use the test-only accessor.
            for (old, new) in table {
                r.a.test_insert_forwarding(old, new);
            }
        }
        // Resolving the head compresses every hop to the tail.
        let tail = *chain.last().unwrap();
        assert_eq!(r.a.resolve_forwarded(chain[0]).unwrap(), tail);
        for (old, new) in r.a.forwarding_table() {
            if chain.contains(&old) {
                assert_eq!(new, tail, "path compression must flatten {old}");
            }
        }
        // A cycle is detected rather than looping.
        r.a.test_insert_forwarding(tail, chain[0]);
        assert!(matches!(
            r.a.resolve_forwarded(chain[0]),
            Err(NtcsError::Protocol(_))
        ));
    }

    /// Like [`rig`], but with credit-based flow control enabled on both
    /// endpoints (same machine types so conversion stays out of the way).
    fn flow_rig(settings: ntcs_flow::FlowSettings) -> Rig {
        let world = World::new();
        let net = world.add_network(NetKind::Mbx, "lab");
        let ma = world.add_machine(MachineType::Vax, "ma", &[net]).unwrap();
        let mb = world.add_machine(MachineType::Vax, "mb", &[net]).unwrap();
        let gen = UAddGenerator::new(0);
        let ua = gen.generate();
        let ub = gen.generate();
        let a = Nucleus::bind(
            &world,
            NucleusConfig::new(ma, "a").with_flow_control(settings),
        )
        .unwrap();
        let b = Nucleus::bind(
            &world,
            NucleusConfig::new(mb, "b").with_flow_control(settings),
        )
        .unwrap();
        a.set_my_uadd(ua);
        b.set_my_uadd(ub);
        a.statics()
            .preload(ub, b.nd().phys_addrs(), MachineType::Vax);
        b.statics()
            .preload(ua, a.nd().phys_addrs(), MachineType::Vax);
        Rig {
            world,
            a,
            b,
            ua,
            ub,
        }
    }

    #[test]
    fn flow_credits_replenish_under_sustained_load() {
        // A 4-frame window forces the sender to wait for credit grants
        // roughly every 4 messages; with a live consumer every send must
        // still complete well inside the stall timeout.
        let settings = ntcs_flow::FlowSettings::enabled(64 * 1024, 4)
            .with_stall_timeout(Duration::from_secs(5));
        let r = flow_rig(settings);
        let b = r.b.clone();
        let consumer = std::thread::spawn(move || {
            for _ in 0..40 {
                b.recv(T).unwrap();
            }
        });
        for i in 0..40 {
            send_msg(
                &r.a,
                r.ub,
                &Greeting {
                    text: "credit paced".into(),
                    n: i,
                },
                false,
            )
            .unwrap();
        }
        consumer.join().unwrap();
        let _ = r.ua;
        assert!(r.a.metrics().snapshot().sends >= 40);
    }

    #[test]
    fn shed_newest_drops_casts_when_window_exhausted() {
        // Nobody drains B, so after the 2-frame window fills every further
        // cast is shed (best-effort, absorbed as a dropped message).
        let settings = ntcs_flow::FlowSettings::enabled(64 * 1024, 2)
            .with_policy(ntcs_flow::FlowPolicy::ShedNewest);
        let r = flow_rig(settings);
        for i in 0..10 {
            r.a.cast_message(
                r.ub,
                &Greeting {
                    text: "burst".into(),
                    n: i,
                },
            )
            .unwrap();
        }
        let s = r.a.metrics().snapshot();
        assert!(s.flow_stalls >= 1, "flow_stalls = {}", s.flow_stalls);
        assert!(s.flow_sheds >= 1, "flow_sheds = {}", s.flow_sheds);
        assert!(s.dropped_messages >= 1);
        // The messages admitted before exhaustion are still deliverable.
        let m = r.b.recv(T).unwrap();
        let got: Greeting = m.payload.decode(r.b.machine_type()).unwrap();
        assert_eq!(got.n, 0);
    }

    #[test]
    fn non_blocking_policies_see_grants_already_received() {
        // A module that only sends never pumps on its own, so the peer's
        // Credit frames wait in the event queue. Before shedding or
        // dead-lettering, the send must dispatch them: with a consumer
        // draining continuously and sends paced 1 ms apart, the window is
        // never really exhausted.
        for policy in [
            ntcs_flow::FlowPolicy::ShedNewest,
            ntcs_flow::FlowPolicy::DeadLetter,
        ] {
            let settings = ntcs_flow::FlowSettings::enabled(64 * 1024, 4).with_policy(policy);
            let r = flow_rig(settings);
            let stop = Arc::new(AtomicBool::new(false));
            let (b, halt) = (r.b.clone(), Arc::clone(&stop));
            let consumer = std::thread::spawn(move || {
                while !halt.load(Ordering::Relaxed) {
                    let _ = b.recv(Some(Duration::from_millis(5)));
                }
            });
            let mut sent = 0;
            for i in 0..200 {
                let g = Greeting {
                    text: "paced".into(),
                    n: i,
                };
                if send_msg(&r.a, r.ub, &g, false).is_ok() {
                    sent += 1;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            stop.store(true, Ordering::Relaxed);
            consumer.join().unwrap();
            // Without the drain only the first window (4 sends) goes out;
            // with it nearly all do. Half leaves room for a loaded host.
            assert!(sent >= 100, "{policy:?}: only {sent} of 200 sends went out");
        }
    }

    #[test]
    fn blocked_sender_stalls_out_without_consumer() {
        let settings = ntcs_flow::FlowSettings::enabled(64 * 1024, 1)
            .with_stall_timeout(Duration::from_millis(150));
        let r = flow_rig(settings);
        // First message takes the only frame credit.
        send_msg(
            &r.a,
            r.ub,
            &Greeting {
                text: "one".into(),
                n: 1,
            },
            false,
        )
        .unwrap();
        // Second blocks until the stall timeout, then reports the stall.
        let err = send_msg(
            &r.a,
            r.ub,
            &Greeting {
                text: "two".into(),
                n: 2,
            },
            false,
        )
        .unwrap_err();
        assert!(matches!(err, NtcsError::FlowStalled(_)), "{err}");
        assert!(r.a.metrics().snapshot().flow_stalls >= 1);
        // Stalls must not poison the breaker: once B drains, sends recover.
        r.b.recv(T).unwrap();
        send_msg(
            &r.a,
            r.ub,
            &Greeting {
                text: "three".into(),
                n: 3,
            },
            false,
        )
        .unwrap();
        r.b.recv(T).unwrap();
    }

    #[test]
    fn flow_stall_dead_letters_reliable_sends() {
        let settings = ntcs_flow::FlowSettings::enabled(64 * 1024, 1)
            .with_policy(ntcs_flow::FlowPolicy::DeadLetter);
        let r = flow_rig(settings);
        let letters = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&letters);
        r.a.set_dead_letter_sink(Arc::new(move |l: &DeadLetter| {
            sink.lock().push(l.clone());
        }));
        send_msg(
            &r.a,
            r.ub,
            &Greeting {
                text: "fills window".into(),
                n: 0,
            },
            false,
        )
        .unwrap();
        let err =
            r.a.send(
                r.ub,
                &Greeting::default(),
                SendOpts::new(Delivery::Reliable {
                    timeout: Duration::from_secs(2),
                }),
            )
            .0
            .unwrap_err();
        assert!(matches!(err, NtcsError::FlowStalled(_)), "{err}");
        let s = r.a.metrics().snapshot();
        assert_eq!(s.dead_letters, 1, "exactly one letter per stalled send");
        assert_eq!(letters.lock().len(), 1);
        assert_eq!(letters.lock()[0].error, err);
    }

    #[test]
    fn inbound_to_wrong_uadd_is_refused_without_gateway() {
        let r = rig(NetKind::Mbx, MachineType::Vax, MachineType::Sun);
        // Tell A that some ghost UAdd lives at B's physical address.
        let ghost = UAddGenerator::new(3).generate();
        r.a.statics()
            .preload(ghost, r.b.nd().phys_addrs(), MachineType::Sun);
        let err = send_msg(&r.a, ghost, &Greeting::default(), false).unwrap_err();
        // B refuses the open (it is not a gateway), so establishment fails.
        assert!(
            matches!(err, NtcsError::ConnectionClosed | NtcsError::Timeout),
            "{err}"
        );
    }
}
