//! The ComMod and its Application Level Interface (ALI) layer.
//!
//! §2.1: "Each application process must bind with a passive communication
//! module (ComMod), which is the only aspect of the NTCS visible to the
//! application. To the application, the ComMod is the NTCS."
//!
//! §2.4: the ALI layer "simply provides the application interface primitives
//! from the Nucleus and NSP-Layer services, tailors the error returns, and
//! performs parameter checking. It may be better described as a thin
//! veneer." The interface has the paper's three primitive classes (§1.3):
//! basic communication ([`ComMod::send`], [`ComMod::receive`],
//! [`ComMod::send_receive`], [`ComMod::reply`], [`ComMod::cast`]), resource
//! location ([`ComMod::register`], [`ComMod::locate`], [`ComMod::list`]),
//! and utilities (metrics, traces, architecture introspection).

use std::sync::Arc;
use std::time::Duration;

use ntcs_addr::{
    AttrQuery, AttrSet, Generation, MachineId, MachineType, NetworkId, NtcsError, PhysAddr, Result,
    UAdd,
};
use ntcs_ipcs::World;
use ntcs_naming::{NspLayer, ShardMap};
use ntcs_nucleus::obs::{
    event_kind, hop_kind, render_module_snapshot_json, render_module_table, HopRecord,
    ModuleReport, ObsQuery, ObsReply, ReportSource, TraceId,
};
use ntcs_nucleus::{
    Delivery, Nucleus, NucleusConfig, NucleusMetricsSnapshot, Received, SendOpts, SendReport,
};
use ntcs_wire::Message;
use parking_lot::RwLock;

use crate::arch::ArchReport;
use crate::hooks::{DeadLetterHook, DrtsHooks, MonitorEvent, MonitorEventKind};

/// The delivery class of [`ComMod::send`]: connection-oriented, no reply
/// awaited.
const ONE_WAY: Delivery = Delivery::Send {
    reply_expected: false,
};

/// A message as delivered to the application, with decode sugar.
#[derive(Debug, Clone)]
pub struct Incoming {
    inner: Received,
    local_machine: MachineType,
}

impl Incoming {
    /// The sender's address.
    #[must_use]
    pub fn src(&self) -> UAdd {
        self.inner.src
    }

    /// The sender's message id (for manual correlation).
    #[must_use]
    pub fn msg_id(&self) -> u64 {
        self.inner.msg_id
    }

    /// The message id this replies to (0 = unsolicited).
    #[must_use]
    pub fn reply_to(&self) -> u64 {
        self.inner.reply_to
    }

    /// Whether the sender awaits a reply ([`ComMod::reply`]).
    #[must_use]
    pub fn reply_expected(&self) -> bool {
        self.inner.reply_expected
    }

    /// Whether this arrived via the connectionless protocol.
    #[must_use]
    pub fn connectionless(&self) -> bool {
        self.inner.connectionless
    }

    /// The causal trace id this message travelled under (0 = untraced).
    #[must_use]
    pub fn trace_id(&self) -> u64 {
        self.inner.trace_id
    }

    /// The trace span (recovery leg) this message arrived on.
    #[must_use]
    pub fn span(&self) -> u32 {
        self.inner.span
    }

    /// The message type id, for dispatching before decoding.
    #[must_use]
    pub fn type_id(&self) -> u32 {
        self.inner.payload.type_id
    }

    /// Whether the payload carries message type `M`.
    #[must_use]
    pub fn is<M: Message>(&self) -> bool {
        self.inner.payload.is::<M>()
    }

    /// Decodes the payload as `M` (image or packed mode resolved
    /// automatically).
    ///
    /// # Errors
    ///
    /// [`NtcsError::Protocol`] on a type mismatch or malformed payload.
    pub fn decode<M: Message>(&self) -> Result<M> {
        self.inner.payload.decode(self.local_machine)
    }

    /// The raw nucleus-level record (advanced use).
    #[must_use]
    pub fn raw(&self) -> &Received {
        &self.inner
    }
}

/// A failed relocation: the error, plus the original (still functional)
/// binding so the module can keep running where it was.
#[derive(Debug)]
pub struct RelocateError {
    /// What went wrong.
    pub error: NtcsError,
    /// The original binding, untouched.
    pub commod: ComMod,
}

impl std::fmt::Display for RelocateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "relocation failed: {}", self.error)
    }
}

/// The per-module communication module: the application's entire view of
/// the NTCS.
pub struct ComMod {
    world: World,
    machine: MachineId,
    name_hint: String,
    nucleus: Nucleus,
    nsp: Arc<NspLayer>,
    hooks: RwLock<Option<Arc<dyn DrtsHooks>>>,
    hop_monitor: Arc<RwLock<Option<UAdd>>>,
    registration: RwLock<Option<(AttrSet, UAdd, Generation)>>,
    /// The Nucleus that registry report sources read. Relocation swaps the
    /// new incarnation's Nucleus into this shared slot, so a
    /// [`ComMod::report_source`] handed out before the move keeps
    /// reporting live gauges instead of the abandoned circuits'.
    report_slot: Arc<RwLock<Nucleus>>,
    /// The Name-Service shard map (one group in the classic deployment),
    /// kept so relocation can rebuild an identically configured ComMod on
    /// another machine (the well-known preload travels inside the Nucleus
    /// config).
    shards: ShardMap,
}

impl std::fmt::Debug for ComMod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComMod")
            .field("module", &self.name_hint)
            .field("machine", &self.machine)
            .field("uadd", &self.my_uadd())
            .finish()
    }
}

impl ComMod {
    /// Binds a ComMod for a module on `machine`.
    ///
    /// `ns_well_known` preloads the Name Server (and prime gateway)
    /// addresses (§3.4); `ns_servers` lists Name-Server UAdds in failover
    /// order. Most callers use [`crate::Testbed::module`] instead.
    ///
    /// # Errors
    ///
    /// Fails if the Nucleus cannot bind its endpoints.
    pub fn bind(
        world: &World,
        machine: MachineId,
        name_hint: &str,
        ns_well_known: Vec<(UAdd, Vec<PhysAddr>)>,
        ns_servers: Vec<UAdd>,
    ) -> Result<ComMod> {
        let mut config = NucleusConfig::new(machine, name_hint);
        config.well_known = ns_well_known;
        Self::bind_with_config(world, config, ns_servers)
    }

    /// Binds a ComMod with a fully custom [`NucleusConfig`] — experiment
    /// hook (e.g. disabling the §6.3 fault-handler patch or changing the
    /// recursion limit). The well-known table comes from the config.
    ///
    /// # Errors
    ///
    /// Fails if the Nucleus cannot bind its endpoints.
    pub fn bind_with_config(
        world: &World,
        config: NucleusConfig,
        ns_servers: Vec<UAdd>,
    ) -> Result<ComMod> {
        Self::bind_sharded(world, config, ShardMap::single(ns_servers))
    }

    /// Binds a ComMod against a sharded Name Service: `shards` lists one
    /// replica group per shard; names and UAdds route to their
    /// authoritative group ([`ShardMap`]). The single-group map reproduces
    /// [`ComMod::bind_with_config`].
    ///
    /// # Errors
    ///
    /// Fails if the Nucleus cannot bind its endpoints.
    pub fn bind_sharded(world: &World, config: NucleusConfig, shards: ShardMap) -> Result<ComMod> {
        let machine = config.machine;
        let name_hint = config.module_hint.clone();
        let nucleus = Nucleus::bind(world, config)?;
        let nsp = NspLayer::new_sharded(nucleus.clone(), shards.clone());
        nucleus.set_resolver(nsp.clone());
        Ok(ComMod {
            world: world.clone(),
            machine,
            name_hint,
            report_slot: Arc::new(RwLock::new(nucleus.clone())),
            nucleus,
            nsp,
            hooks: RwLock::new(None),
            hop_monitor: Arc::new(RwLock::new(None)),
            registration: RwLock::new(None),
            shards,
        })
    }

    // ------------------------------------------------------------------
    // Resource location primitives
    // ------------------------------------------------------------------

    /// Registers this module under a plain logical name (§3.2); returns its
    /// newly assigned UAdd.
    ///
    /// # Errors
    ///
    /// Naming-service failures, or [`NtcsError::InvalidArgument`] for a bad
    /// name.
    pub fn register(&self, name: &str) -> Result<UAdd> {
        self.register_attrs(&AttrSet::named(name)?)
    }

    /// Registers this module under an attribute set (§7 naming extension).
    ///
    /// # Errors
    ///
    /// As for [`ComMod::register`].
    pub fn register_attrs(&self, attrs: &AttrSet) -> Result<UAdd> {
        let prev = self.registration.read().as_ref().map(|(_, u, _)| *u);
        let (uadd, generation) = self.nsp.register(attrs, false, &[], prev)?;
        *self.registration.write() = Some((attrs.clone(), uadd, generation));
        Ok(uadd)
    }

    /// Resolves a plain name to the newest live module (§3.3). An
    /// application "need only obtain an address once; module relocation will
    /// then occur as required, during all communication, transparent at
    /// this interface" (§1.3).
    ///
    /// # Errors
    ///
    /// [`NtcsError::NameNotFound`] when nothing matches.
    pub fn locate(&self, name: &str) -> Result<UAdd> {
        self.nsp.locate(&AttrQuery::by_name(name)?)
    }

    /// Resolves an attribute query.
    ///
    /// # Errors
    ///
    /// As for [`ComMod::locate`].
    pub fn locate_query(&self, query: &AttrQuery) -> Result<UAdd> {
        self.nsp.locate(query)
    }

    /// Lists all live modules matching a query.
    ///
    /// # Errors
    ///
    /// Naming-service transport failures.
    pub fn list(&self, query: &AttrQuery) -> Result<Vec<UAdd>> {
        self.nsp.list(query)
    }

    /// Deregisters this module (clean shutdown).
    ///
    /// # Errors
    ///
    /// Naming-service transport failures.
    pub fn deregister(&self) -> Result<()> {
        if let Some((_, uadd, _)) = self.registration.read().clone() {
            self.nsp.deregister(uadd)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Basic communication primitives
    // ------------------------------------------------------------------

    fn stamp(&self) -> i64 {
        self.hooks.read().as_ref().map_or(0, |h| h.timestamp_us())
    }

    fn monitor(&self, kind: MonitorEventKind, peer: UAdd, msg_id: u64, ts: i64) {
        if let Some(h) = self.hooks.read().clone() {
            h.monitor_event(MonitorEvent {
                module: self.my_uadd(),
                module_name: self.name_hint.clone(),
                kind,
                peer,
                msg_id,
                timestamp_us: ts,
            });
        }
    }

    /// Runs one outbound message between the ALI's time stamp and its
    /// monitor report. §6.1: "control passes to the LCM-layer, which
    /// generates a time stamp for monitor data" — possibly recursing into
    /// the time service — and "upon success, the LCM-layer sends data to
    /// the monitor". `send` gets the stamp and returns the id to report.
    fn monitored(&self, dst: UAdd, send: impl FnOnce(i64) -> Result<u64>) -> Result<u64> {
        let ts = self.stamp();
        let msg_id = send(ts)?;
        self.monitor(MonitorEventKind::Send, dst, msg_id, ts);
        Ok(msg_id)
    }

    /// Casts a [`HopRecord`] to the configured hop monitor (`detail` is
    /// rendered only when the hop is reported). Hop reports themselves
    /// travel untraced, so a monitor's own ComMod never recurses.
    fn hop(
        &self,
        kind: u32,
        trace: TraceId,
        span: u32,
        peer: UAdd,
        msg_id: u64,
        detail: impl FnOnce() -> String,
    ) {
        if trace.is_null() {
            return;
        }
        if let Some(monitor) = *self.hop_monitor.read() {
            let rec = HopRecord::at_module(
                &self.nucleus,
                kind,
                trace.raw(),
                span,
                peer,
                msg_id,
                detail(),
            );
            let _ = self.nucleus.cast_message(monitor, &rec);
        }
    }

    /// Hands a received message to the application: RECEIVE monitor event,
    /// DELIVER hop, decode sugar.
    fn delivered(&self, received: Received) -> Incoming {
        let ts = self.stamp();
        self.monitor(MonitorEventKind::Receive, received.src, received.msg_id, ts);
        self.hop(
            hop_kind::DELIVER,
            TraceId::from_raw(received.trace_id),
            received.span,
            received.src,
            received.msg_id,
            || format!("delivered to {}", self.name_hint),
        );
        Incoming {
            inner: received,
            local_machine: self.machine_type(),
        }
    }

    fn check_dst(dst: UAdd) -> Result<()> {
        if dst.raw() == 0 {
            return Err(NtcsError::InvalidArgument(
                "destination address is null".into(),
            ));
        }
        Ok(())
    }

    /// The one ALI send: parameter check, time stamp, SEND hop, the
    /// Nucleus send, and [`ComMod::sent`]'s hops and monitor event.
    /// `traced` draws a fresh trace id for the journey.
    fn send_as<M: Message>(
        &self,
        dst: UAdd,
        msg: &M,
        delivery: Delivery,
        traced: bool,
    ) -> Result<(u64, TraceId)> {
        Self::check_dst(dst)?;
        let trace = if traced {
            self.nucleus.next_trace_id()
        } else {
            TraceId::NULL
        };
        let ts = self.stamp();
        self.send_hop(dst, delivery, trace);
        let (sent, report) = self.nucleus.send(dst, msg, SendOpts { delivery, trace });
        self.sent(dst, delivery, trace, ts, sent.as_ref().ok(), &report);
        let msg_id = sent?;
        // A cast has no message id at this interface.
        let msg_id = if delivery == Delivery::Cast {
            0
        } else {
            msg_id
        };
        Ok((msg_id, trace))
    }

    /// The SEND hop that opens a journey.
    fn send_hop(&self, dst: UAdd, delivery: Delivery, trace: TraceId) {
        self.hop(hop_kind::SEND, trace, 0, dst, 0, || {
            let reliable = matches!(delivery, Delivery::Reliable { .. });
            let what = if reliable { "reliable send" } else { "send" };
            format!("{what} from {}", self.name_hint)
        });
    }

    /// The hops and the monitor event for what one Nucleus send reported:
    /// `msg_id` is the message's id if it went out, `ts` the stamp taken
    /// before the send.
    fn sent(
        &self,
        dst: UAdd,
        delivery: Delivery,
        trace: TraceId,
        ts: i64,
        msg_id: Option<&u64>,
        report: &SendReport,
    ) {
        // A STALL hop per credit-window stall, even when the send
        // failed — the reassembled journey must show where it waited.
        for _ in 0..report.credit_stalls {
            self.hop(hop_kind::STALL, trace, 0, dst, 0, || {
                "waited for credit: receiver window exhausted".into()
            });
        }
        let Some(&msg_id) = msg_id else {
            return;
        };
        // A one-way send's §3.5 recovery reads as a FAULT/RECONNECT
        // pair; a reliable send's recovery legs show as bumped spans.
        if report.address_faults > 0 && delivery == ONE_WAY {
            self.monitor(MonitorEventKind::Reconnect, dst, msg_id, ts);
            self.hop(hop_kind::FAULT, trace, 0, dst, msg_id, || {
                "address fault: destination relocated".into()
            });
            self.hop(hop_kind::RECONNECT, trace, 1, dst, msg_id, || {
                "re-established on the forwarded address".into()
            });
        }
        if report.handoff {
            self.hop(hop_kind::HANDOFF, trace, 2, dst, msg_id, || {
                "circuit re-selected onto a different substrate".into()
            });
        }
        // A cast has no message id at this interface.
        let monitored_id = if delivery == Delivery::Cast {
            0
        } else {
            msg_id
        };
        self.monitor(MonitorEventKind::Send, dst, monitored_id, ts);
    }

    /// Asynchronous send: queues the message toward `dst`, transparently
    /// establishing or re-establishing circuits (§2.2, §3.5).
    ///
    /// Returns the message id for later reply correlation.
    ///
    /// # Errors
    ///
    /// Unrecoverable faults only; relocation of the destination is handled
    /// transparently.
    pub fn send<M: Message>(&self, dst: UAdd, msg: &M) -> Result<u64> {
        Ok(self.send_as(dst, msg, ONE_WAY, false)?.0)
    }

    /// [`ComMod::send`] under a fresh causal trace id: every hop of the
    /// journey (send, gateway splices, address-fault recovery, delivery) is
    /// reported to the hop monitor ([`ComMod::set_hop_monitor`]) so the DRTS
    /// monitor can reassemble the full path.
    ///
    /// Returns the message id and the trace id it travels under.
    ///
    /// # Errors
    ///
    /// As for [`ComMod::send`].
    pub fn send_traced<M: Message>(&self, dst: UAdd, msg: &M) -> Result<(u64, TraceId)> {
        self.send_as(dst, msg, ONE_WAY, true)
    }

    /// Blocking receive with optional timeout.
    ///
    /// # Errors
    ///
    /// [`NtcsError::Timeout`] if nothing arrives.
    pub fn receive(&self, timeout: Option<Duration>) -> Result<Incoming> {
        let deadline = timeout.map(|t| std::time::Instant::now() + t);
        loop {
            let remaining =
                deadline.map(|d| d.saturating_duration_since(std::time::Instant::now()));
            let received = self.nucleus.recv(remaining)?;
            // Introspection queries are answered by the ALI itself, never
            // surfaced to the application: any ComMod can be asked for its
            // flight-recorder snapshot without cooperating code.
            if received.payload.type_id == ObsQuery::TYPE_ID && received.reply_expected {
                self.answer_obs_query(&received);
                continue;
            }
            return Ok(self.delivered(received));
        }
    }

    /// Answers a wire [`ObsQuery`] with this module's point-in-time
    /// snapshot (JSON + human table), trimming the event tail as asked.
    fn answer_obs_query(&self, received: &Received) {
        let max_events = received
            .payload
            .decode::<ObsQuery>(self.machine_type())
            .map_or(usize::MAX, |q| q.max_events as usize);
        let mut report = self.nucleus.module_report();
        if report.events.len() > max_events {
            let skip = report.events.len() - max_events;
            report.events.drain(..skip);
        }
        let reply = ObsReply {
            module: report.module.clone(),
            json: render_module_snapshot_json(&report),
            table: render_module_table(&report),
        };
        let _ = self.nucleus.reply_message(received, &reply);
    }

    /// Queries a remote module's (or gateway's) flight-recorder snapshot
    /// over the wire — the live-introspection half of the observability
    /// plane, riding the same circuits it reports on.
    ///
    /// # Errors
    ///
    /// Send/establishment errors, [`NtcsError::Timeout`] if the peer never
    /// answers, or [`NtcsError::Protocol`] on a malformed reply.
    pub fn query_snapshot(
        &self,
        dst: UAdd,
        max_events: u32,
        timeout: Option<Duration>,
    ) -> Result<ObsReply> {
        let query = ObsQuery { max_events };
        self.send_receive(dst, &query, timeout)?.decode()
    }

    /// Synchronous send/receive/reply exchange (§1.3): sends and waits for
    /// the correlated reply. If the destination relocates while the
    /// request is in flight, the request is re-issued under the same id to
    /// the new incarnation ([`Nucleus::request`]); the destination may then
    /// see it twice.
    ///
    /// # Errors
    ///
    /// Send errors, or [`NtcsError::Timeout`] if no reply arrives.
    pub fn send_receive<M: Message>(
        &self,
        dst: UAdd,
        msg: &M,
        timeout: Option<Duration>,
    ) -> Result<Incoming> {
        const REQUEST: Delivery = Delivery::Send {
            reply_expected: true,
        };
        Self::check_dst(dst)?;
        // Untraced, so no hop is reported; `sent` records the monitor event.
        let ts = self.stamp();
        let received = self
            .nucleus
            .request_with(dst, msg, timeout, |msg_id, report| {
                self.sent(dst, REQUEST, TraceId::NULL, ts, msg_id.as_ref(), report);
            })?;
        Ok(self.delivered(received))
    }

    /// Replies to a received message.
    ///
    /// # Errors
    ///
    /// As for [`ComMod::send`].
    pub fn reply<M: Message>(&self, to: &Incoming, msg: &M) -> Result<u64> {
        self.monitored(to.src(), |_| self.nucleus.reply_message(&to.inner, msg))
    }

    /// Reliable send — the §3.5 "modified sliding window protocol"
    /// counterfactual, built as an optional extension: retransmits until an
    /// LCM-level acknowledgement arrives (duplicates suppressed at the
    /// receiver), surviving relocations and transient faults within the
    /// deadline. The paper argues this layer is largely redundant under a
    /// transaction manager; experiment E7's ablation quantifies the trade.
    ///
    /// # Errors
    ///
    /// [`NtcsError::DeadlineExceeded`] if no acknowledgement arrives within
    /// `timeout` — in which case the message is also handed to the
    /// dead-letter hook ([`ComMod::set_dead_letter_hook`]).
    pub fn send_reliable<M: Message>(&self, dst: UAdd, msg: &M, timeout: Duration) -> Result<u64> {
        Ok(self
            .send_as(dst, msg, Delivery::Reliable { timeout }, false)?
            .0)
    }

    /// [`ComMod::send_reliable`] under a fresh causal trace id (see
    /// [`ComMod::send_traced`]); retransmissions reuse the trace id with a
    /// bumped span, so the monitor sees every recovery leg.
    ///
    /// # Errors
    ///
    /// As for [`ComMod::send_reliable`].
    pub fn send_reliable_traced<M: Message>(
        &self,
        dst: UAdd,
        msg: &M,
        timeout: Duration,
    ) -> Result<(u64, TraceId)> {
        self.send_as(dst, msg, Delivery::Reliable { timeout }, true)
    }

    /// Connectionless best-effort send (§2.2).
    ///
    /// # Errors
    ///
    /// Argument/shutdown errors only; transport losses are silent.
    pub fn cast<M: Message>(&self, dst: UAdd, msg: &M) -> Result<()> {
        self.send_as(dst, msg, Delivery::Cast, false).map(|_| ())
    }

    /// Liveness probe round-trip time.
    ///
    /// # Errors
    ///
    /// Establishment errors or [`NtcsError::Timeout`].
    pub fn ping(&self, dst: UAdd, timeout: Option<Duration>) -> Result<Duration> {
        Self::check_dst(dst)?;
        self.nucleus.ping(dst, timeout)
    }

    // ------------------------------------------------------------------
    // Dynamic reconfiguration
    // ------------------------------------------------------------------

    /// Relocates this module to another machine (§3.5): binds a fresh ComMod
    /// there, re-registers under the same attributes (advancing the
    /// generation and marking this incarnation dead), and shuts this binding
    /// down. A peer's next send to the old UAdd faults, obtains the
    /// forwarding UAdd and reconnects, transparently at its interface. A
    /// peer's request still awaiting its reply when the old circuit closes
    /// is re-issued to the new incarnation under the same id
    /// ([`Nucleus::request`]), so it may be served twice. What this binding
    /// holds is not carried over: its undrained inbox is lost, and so are
    /// casts and one-way sends that were in flight toward it.
    ///
    /// # Errors
    ///
    /// Fails if the module never registered, or if binding/registration on
    /// the target machine fails. On failure the original binding is handed
    /// back intact inside the [`RelocateError`].
    #[allow(clippy::result_large_err)]
    pub fn relocate_to(self, machine: MachineId) -> Result<ComMod, RelocateError> {
        let Some((attrs, old_uadd, _)) = self.registration.read().clone() else {
            return Err(RelocateError {
                error: NtcsError::NotRegistered,
                commod: self,
            });
        };
        // The new binding keeps the old Nucleus configuration — flow
        // control, retry policy — so relocation never silently changes
        // a module's communication behaviour (a flow-enabled peer would
        // otherwise starve against a relocated module that stopped
        // granting credit).
        let mut config = self.nucleus.config().clone();
        config.machine = machine;
        let new = match ComMod::bind_sharded(&self.world, config, self.shards.clone()) {
            Ok(n) => n,
            Err(error) => {
                return Err(RelocateError {
                    error,
                    commod: self,
                })
            }
        };
        match new.nsp.register(&attrs, false, &[], Some(old_uadd)) {
            Ok((uadd, generation)) => {
                *new.registration.write() = Some((attrs, uadd, generation));
            }
            Err(error) => {
                new.shutdown();
                return Err(RelocateError {
                    error,
                    commod: self,
                });
            }
        }
        *new.hooks.write() = self.hooks.read().clone();
        *new.hop_monitor.write() = *self.hop_monitor.read();
        // Swap the new incarnation into the shared report slot — and hand
        // the slot itself across — so report sources installed against the
        // old binding read the live circuits' gauges, not the abandoned
        // ones' (their dead credit windows would otherwise be reported
        // until the registry was rebuilt).
        new.nucleus.recorder().record(
            event_kind::RELOCATION,
            old_uadd.raw(),
            0,
            u64::from(machine.0),
        );
        *self.report_slot.write() = new.nucleus.clone();
        let new = ComMod {
            report_slot: Arc::clone(&self.report_slot),
            ..new
        };
        self.nucleus.shutdown();
        Ok(new)
    }

    /// Shuts the binding down without deregistering (a crash, from the
    /// naming service's point of view).
    pub fn shutdown(&self) {
        self.nucleus.shutdown();
    }

    // ------------------------------------------------------------------
    // Utilities
    // ------------------------------------------------------------------

    /// This module's current UAdd (a TAdd before registration, §3.4).
    #[must_use]
    pub fn my_uadd(&self) -> UAdd {
        self.nucleus.my_uadd()
    }

    /// The machine this binding runs on.
    #[must_use]
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// The machine's representation type.
    #[must_use]
    pub fn machine_type(&self) -> MachineType {
        self.nucleus.machine_type()
    }

    /// Networks directly reachable from this module.
    #[must_use]
    pub fn networks(&self) -> Vec<NetworkId> {
        self.nucleus.nd().networks()
    }

    /// The module's name hint (traces; not its registered name).
    #[must_use]
    pub fn name_hint(&self) -> &str {
        &self.name_hint
    }

    /// The registered attribute set, if registered.
    #[must_use]
    pub fn registered_attrs(&self) -> Option<AttrSet> {
        self.registration.read().as_ref().map(|(a, _, _)| a.clone())
    }

    /// Installs the DRTS hooks (time service + monitor).
    pub fn set_hooks(&self, hooks: Arc<dyn DrtsHooks>) {
        *self.hooks.write() = Some(hooks);
    }

    /// Directs per-hop trace reports ([`HopRecord`]) for traced sends and
    /// deliveries to the DRTS monitor at `monitor`.
    pub fn set_hop_monitor(&self, monitor: UAdd) {
        *self.hop_monitor.write() = Some(monitor);
    }

    /// Stops hop reporting.
    pub fn clear_hop_monitor(&self) {
        *self.hop_monitor.write() = None;
    }

    /// Removes the DRTS hooks (used by the DRTS services' own ComMods to
    /// break the obvious infinite recursion, §6.1).
    pub fn clear_hooks(&self) {
        *self.hooks.write() = None;
    }

    /// Installs the dead-letter hook: invoked with each reliable message
    /// whose recovery is exhausted, alongside a
    /// [`MonitorEventKind::DeadLetter`] report to the DRTS monitor. The
    /// DRTS hooks are captured at install time — call
    /// [`ComMod::set_hooks`] first when using both.
    pub fn set_dead_letter_hook(&self, hook: Arc<dyn DeadLetterHook>) {
        let hooks = self.hooks.read().clone();
        let module_name = self.name_hint.clone();
        let nucleus = self.nucleus.clone();
        self.nucleus.set_dead_letter_sink(Arc::new(move |letter| {
            hook.dead_letter(letter);
            if let Some(h) = hooks.clone() {
                let ts = h.timestamp_us();
                h.monitor_event(MonitorEvent {
                    module: nucleus.my_uadd(),
                    module_name: module_name.clone(),
                    kind: MonitorEventKind::DeadLetter,
                    peer: letter.dst,
                    msg_id: letter.msg_id,
                    timestamp_us: ts,
                });
            }
        }));
    }

    /// Health of the supervised circuit toward `dst`
    /// (Healthy → Degraded → Broken).
    #[must_use]
    pub fn circuit_health(&self, dst: UAdd) -> ntcs_nucleus::CircuitHealth {
        self.nucleus.circuit_health(dst)
    }

    /// Fault-matrix hook: corrupts the live LCM circuit toward `dst` (the
    /// LVC is severed underneath a connection entry that still looks
    /// established), forcing the next send to run the §3.5 recovery.
    /// Returns `false` when no live circuit toward `dst` exists.
    pub fn chaos_corrupt_circuit(&self, dst: UAdd) -> bool {
        self.nucleus.chaos_corrupt_circuit(dst)
    }

    /// The Nucleus configuration this binding runs with — flow control,
    /// retry policy. Relocation carries it to the new machine.
    #[must_use]
    pub fn nucleus_config(&self) -> &NucleusConfig {
        self.nucleus.config()
    }

    /// Nucleus counters.
    #[must_use]
    pub fn metrics(&self) -> NucleusMetricsSnapshot {
        self.nucleus.metrics().snapshot()
    }

    /// A full observability report for this module: counters, gauges,
    /// latency histograms, and circuit-breaker health.
    #[must_use]
    pub fn module_report(&self) -> ModuleReport {
        self.nucleus.module_report()
    }

    /// A live report source for the
    /// [`ntcs_nucleus::obs::MetricsRegistry`].
    #[must_use]
    pub fn report_source(&self) -> ReportSource {
        let slot = Arc::clone(&self.report_slot);
        Box::new(move || slot.read().module_report())
    }

    /// The §6.2 selective layer trace.
    #[must_use]
    pub fn trace(&self) -> &ntcs_nucleus::LayerTrace {
        self.nucleus.trace()
    }

    /// The live architecture report (paper Figs. 2-1 … 2-4).
    #[must_use]
    pub fn architecture(&self) -> ArchReport {
        ArchReport::for_commod(self)
    }

    /// The underlying Nucleus (advanced use, experiments).
    #[must_use]
    pub fn nucleus(&self) -> &Nucleus {
        &self.nucleus
    }

    /// The NSP layer (advanced use, experiments).
    #[must_use]
    pub fn nsp(&self) -> &Arc<NspLayer> {
        &self.nsp
    }

    /// The world this module lives in.
    #[must_use]
    pub fn world(&self) -> &World {
        &self.world
    }
}
