//! The portable Gateway module (paper §4).
//!
//! "The IP-Layer, in conjunction with one or more Gateway modules, provides
//! (IVCs) across disjoint networks, either as a single LVC on the local
//! network, or as a chained set of LVCs linked through one or more Gateways.
//! … the Gateway and IP-layers are both entirely portable. This not only
//! simplified their design, but allows the *same* Gateway module to be used
//! for all networks and machines."
//!
//! A [`Gateway`] is an ordinary module: its Nucleus binds one ND endpoint
//! per attached network (the paper's "independent ComMods with which it
//! binds"), and it registers with the naming service like any application
//! module, advertising its connected networks (§4.1). Circuit splicing is
//! pure pass-through — the gateway pops the next hop from the open payload,
//! dials it, forwards the open frame, and then relays raw blocks in both
//! directions without ever parsing payloads. **No inter-gateway protocol
//! exists** (§4.2). On a downstream failure the splice collapses hop by hop
//! back toward the originator (§4.3).
//!
//! # Backpressure across splices
//!
//! Flow control needs no gateway cooperation, in keeping with §4.2's "no
//! inter-gateway protocol":
//!
//! * **End-to-end credit** — `FrameType::Credit` grants emitted by the
//!   terminal receiver's LCM are ordinary blocks to a relay; they travel
//!   the reverse splice untouched and land in the *originating* sender's
//!   credit window. The sender therefore never has more un-drained bytes
//!   in flight than one window, at any hop of the chain.
//! * **Hop-by-hop blocking** — each relay copies blocks with a blocking
//!   `send_raw`. When a transit link's bounded queue fills, the relay
//!   thread stalls, stops reading *its* upstream, and the stall propagates
//!   link by link back to the origin. A slow terminal consumer thus
//!   throttles the sender instead of ballooning transit queues.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ntcs_addr::{AttrSet, MachineId, NetworkId, NtcsError, PhysAddr, Result, UAdd};
use ntcs_ipcs::World;
use ntcs_naming::NspLayer;
use ntcs_nucleus::obs::{
    hop_kind, render_module_snapshot_json, render_module_table, HopRecord, ModuleReport, ObsEvent,
    ObsQuery, ObsReply, ReportSource,
};
use ntcs_nucleus::proto::OpenPayload;
use ntcs_nucleus::{GatewayHandler, Lvc, Nucleus, NucleusConfig, CIRCUIT_RETRY};
use ntcs_wire::{Frame, FrameHeader, FrameType, Message};
use parking_lot::RwLock;

/// Counters maintained by one gateway.
#[derive(Debug, Default)]
pub struct GatewayMetrics {
    /// Transit circuits spliced.
    pub circuits_spliced: AtomicU64,
    /// Raw blocks relayed (both directions).
    pub frames_relayed: AtomicU64,
    /// Raw blocks read from one side of a splice that the other side no
    /// longer accepted (its hop was gone); the splice tears down after.
    pub frames_dropped: AtomicU64,
    /// Splices torn down after a failure on either side.
    pub teardowns: AtomicU64,
    /// Transit opens refused (bad route, unreachable next hop).
    pub refusals: AtomicU64,
}

/// A point-in-time copy of [`GatewayMetrics`].
#[derive(Debug, Clone, Copy, Default)]
#[allow(missing_docs)]
pub struct GatewayMetricsSnapshot {
    pub circuits_spliced: u64,
    pub frames_relayed: u64,
    pub frames_dropped: u64,
    pub teardowns: u64,
    pub refusals: u64,
}

struct Splicer {
    nucleus: Nucleus,
    metrics: Arc<GatewayMetrics>,
    /// When set, every traced splice is reported to this DRTS monitor as a
    /// [`HopRecord`] — the gateway's contribution to end-to-end tracing.
    hop_monitor: Arc<RwLock<Option<UAdd>>>,
}

impl GatewayHandler for Splicer {
    fn transit(&self, lvc: Lvc, open: Frame) {
        let payload = match OpenPayload::from_packed(&open.payload) {
            Ok(p) => p,
            Err(_) => {
                self.refuse(&lvc, &open, NtcsError::Protocol("bad open payload".into()));
                return;
            }
        };
        let (next_addr, rest) = match payload.advance() {
            Ok(x) => x,
            Err(e) => {
                self.refuse(&lvc, &open, e);
                return;
            }
        };
        // Each ComMod is bound with an ND-Layer designed for one of the
        // networks; the gateway itself never sees network-dependent issues
        // (§4.1) — it just asks its ND-Layer to dial the next hop, under the
        // same supervised retry policy every other layer uses.
        let addr = &next_addr;
        let dial = self
            .nucleus
            .nd()
            .open_with_policy(addr, &CIRCUIT_RETRY, |n, error| {
                self.nucleus.emit(ObsEvent::SpliceRetry { addr, n, error });
            });
        let next = match dial {
            Ok(l) => l,
            Err(e) => {
                self.refuse(&lvc, &open, e);
                return;
            }
        };
        // Forward the open with the remaining route; header (origin UAdd,
        // machine type, final destination) passes through unchanged so the
        // conversion-mode decision stays end-to-end (§5).
        let fwd = Frame::new(open.header.clone(), bytes::Bytes::from(rest.to_packed()));
        if next.send_frame(&fwd).is_err() {
            self.refuse(&lvc, &open, NtcsError::ConnectionClosed);
            next.close();
            return;
        }
        self.metrics
            .circuits_spliced
            .fetch_add(1, Ordering::Relaxed);
        self.nucleus.emit(ObsEvent::Splice {
            src: open.header.src,
            msg_id: open.header.msg_id,
            dst: open.header.dst,
        });
        // Only the open frame's header is visible to a gateway (relays are
        // raw pass-through), so the splice hop reports against the trace id
        // stamped on the open by the originating LCM.
        if open.header.trace_id != 0 {
            if let Some(monitor) = *self.hop_monitor.read() {
                let rec = HopRecord::at_module(
                    &self.nucleus,
                    hop_kind::SPLICE,
                    open.header.trace_id,
                    open.header.span,
                    open.header.src,
                    open.header.msg_id,
                    format!("spliced toward {next_addr} for {}", open.header.dst),
                );
                let _ = self.nucleus.cast_message(monitor, &rec);
            }
        }
        // Splice: two relay threads, raw pass-through.
        spawn_relay(
            lvc.clone(),
            next.clone(),
            Arc::clone(&self.metrics),
            self.nucleus.clone(),
        );
        spawn_relay(next, lvc, Arc::clone(&self.metrics), self.nucleus.clone());
    }
}

impl Splicer {
    fn refuse(&self, lvc: &Lvc, open: &Frame, cause: NtcsError) {
        self.metrics.refusals.fetch_add(1, Ordering::Relaxed);
        self.nucleus.emit(ObsEvent::SpliceRefused {
            src: open.header.src,
            msg_id: open.header.msg_id,
            error: &cause,
        });
        let mut h = FrameHeader::new(
            FrameType::IvcAbort,
            self.nucleus.my_uadd(),
            open.header.src,
            self.nucleus.machine_type(),
        );
        h.error_code = cause.wire_code();
        let _ = lvc.send_frame(&Frame::control(h));
        lvc.close();
    }
}

fn spawn_relay(from: Lvc, to: Lvc, metrics: Arc<GatewayMetrics>, nucleus: Nucleus) {
    std::thread::Builder::new()
        .name("ntcs-gateway-relay".into())
        .spawn(move || {
            loop {
                match from.recv_raw(Some(Duration::from_millis(500))) {
                    Ok(block) => {
                        // send_raw blocks while the downstream link is at
                        // capacity — the hop-by-hop backpressure path: a
                        // stalled relay stops reading upstream, which fills
                        // *that* link, and so on back to the origin.
                        let bytes = block.len() as u64;
                        if to.send_raw(block).is_err() {
                            metrics.frames_dropped.fetch_add(1, Ordering::Relaxed);
                            nucleus.emit(ObsEvent::RelayDrop { bytes });
                            break;
                        }
                        metrics.frames_relayed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(NtcsError::Timeout) => {
                        if from.is_closed() || to.is_closed() {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
            // §4.3 teardown cascade: closing our side makes the next ND-layer
            // detect the death and continue the collapse toward the
            // originator.
            from.close();
            to.close();
            metrics.teardowns.fetch_add(1, Ordering::Relaxed);
            nucleus.emit(ObsEvent::CircuitClose {
                peer: UAdd::from_raw(0),
            });
        })
        .expect("spawn relay");
}

/// The gateway Nucleus's full report with the splice counters appended.
fn gateway_report(nucleus: &Nucleus, metrics: &GatewayMetrics) -> ModuleReport {
    let mut report = nucleus.module_report();
    report.counters.extend([
        (
            "gw_circuits_spliced",
            metrics.circuits_spliced.load(Ordering::Relaxed),
        ),
        (
            "gw_frames_relayed",
            metrics.frames_relayed.load(Ordering::Relaxed),
        ),
        (
            "gw_frames_dropped",
            metrics.frames_dropped.load(Ordering::Relaxed),
        ),
        ("gw_teardowns", metrics.teardowns.load(Ordering::Relaxed)),
        ("gw_refusals", metrics.refusals.load(Ordering::Relaxed)),
    ]);
    report
}

/// Answers [`ObsQuery`] probes aimed at the gateway with a point-in-time
/// snapshot. The responder pulls ONLY `ObsQuery` messages out of the
/// shared inbox (`recv_of_type`): the gateway's own NSP layer parks RPC
/// replies there for its `request` to claim, and a FIFO drain would steal
/// them mid-splice. Everything else keeps the pre-responder behaviour
/// (a bounded inbox that sheds when full). Exits when the Nucleus shuts
/// down.
fn spawn_obs_responder(nucleus: Nucleus, metrics: Arc<GatewayMetrics>) {
    std::thread::Builder::new()
        .name("ntcs-gateway-obs".into())
        .spawn(move || loop {
            match nucleus.recv_of_type(ObsQuery::TYPE_ID, Some(Duration::from_millis(200))) {
                Ok(m) if m.reply_expected => {
                    let max = m
                        .payload
                        .decode::<ObsQuery>(nucleus.machine_type())
                        .map_or(usize::MAX, |q| q.max_events as usize);
                    let mut report = gateway_report(&nucleus, &metrics);
                    if report.events.len() > max {
                        let skip = report.events.len() - max;
                        report.events.drain(..skip);
                    }
                    let reply = ObsReply {
                        module: report.module.clone(),
                        json: render_module_snapshot_json(&report),
                        table: render_module_table(&report),
                    };
                    let _ = nucleus.reply_message(&m, &reply);
                }
                // A cast ObsQuery (no reply expected) has nowhere to send
                // the snapshot; drop it.
                Ok(_) | Err(NtcsError::Timeout) => {}
                Err(_) => break,
            }
        })
        .expect("spawn gateway obs responder");
}

/// A running Gateway module.
#[derive(Debug)]
pub struct Gateway {
    nucleus: Nucleus,
    nsp: Arc<NspLayer>,
    uadd: UAdd,
    metrics: Arc<GatewayMetrics>,
    hop_monitor: Arc<RwLock<Option<UAdd>>>,
}

impl Gateway {
    /// Spawns a gateway on `machine`, which must be attached to two or more
    /// networks. The gateway registers itself with the naming service as
    /// `name`, advertising its networks (§4.1); `ns_phys` is the well-known
    /// Name-Server address preload (§3.4).
    ///
    /// # Errors
    ///
    /// Fails if the machine joins fewer than two networks, the Nucleus
    /// cannot bind, or registration fails.
    pub fn spawn(
        world: &World,
        machine: MachineId,
        name: &str,
        ns_phys: Vec<PhysAddr>,
    ) -> Result<Gateway> {
        Self::spawn_with_route(world, machine, name, ns_phys, Vec::new())
    }

    /// Like [`Gateway::spawn`], but with a preconfigured prime-gateway route
    /// to the Name Server (§3.4) for gateways whose machine cannot reach the
    /// Name Server directly.
    ///
    /// # Errors
    ///
    /// As for [`Gateway::spawn`].
    pub fn spawn_with_route(
        world: &World,
        machine: MachineId,
        name: &str,
        ns_phys: Vec<PhysAddr>,
        ns_route: Vec<ntcs_nucleus::proto::Hop>,
    ) -> Result<Gateway> {
        let config = NucleusConfig::new(machine, name)
            .with_well_known(UAdd::NAME_SERVER, ns_phys)
            .with_ns_route(ns_route);
        let nucleus = Nucleus::bind(world, config)?;
        if nucleus.nd().networks().len() < 2 {
            nucleus.shutdown();
            return Err(NtcsError::InvalidArgument(format!(
                "gateway machine {machine} joins fewer than two networks"
            )));
        }
        let nsp = NspLayer::new(nucleus.clone(), vec![UAdd::NAME_SERVER]);
        nucleus.set_resolver(nsp.clone());
        let metrics = Arc::new(GatewayMetrics::default());
        let hop_monitor = Arc::new(RwLock::new(None));
        nucleus.set_gateway_handler(Arc::new(Splicer {
            nucleus: nucleus.clone(),
            metrics: Arc::clone(&metrics),
            hop_monitor: Arc::clone(&hop_monitor),
        }));
        let attrs = AttrSet::named(name)?;
        let networks = nucleus.nd().networks();
        let (uadd, _gen) = nsp.register(&attrs, true, &networks, None)?;
        spawn_obs_responder(nucleus.clone(), Arc::clone(&metrics));
        Ok(Gateway {
            nucleus,
            nsp,
            uadd,
            metrics,
            hop_monitor,
        })
    }

    /// The gateway's registered UAdd.
    #[must_use]
    pub fn uadd(&self) -> UAdd {
        self.uadd
    }

    /// Networks the gateway joins.
    #[must_use]
    pub fn networks(&self) -> Vec<NetworkId> {
        self.nucleus.nd().networks()
    }

    /// The gateway's physical addresses (for prime-gateway preloads, §3.4).
    #[must_use]
    pub fn phys_addrs(&self) -> Vec<PhysAddr> {
        self.nucleus.nd().phys_addrs()
    }

    /// The gateway's entry address on one network, if attached.
    #[must_use]
    pub fn entry_on(&self, network: NetworkId) -> Option<PhysAddr> {
        self.nucleus
            .nd()
            .phys_addrs()
            .into_iter()
            .find(|a| a.network() == network)
    }

    /// Splice metrics.
    #[must_use]
    pub fn metrics(&self) -> GatewayMetricsSnapshot {
        GatewayMetricsSnapshot {
            circuits_spliced: self.metrics.circuits_spliced.load(Ordering::Relaxed),
            frames_relayed: self.metrics.frames_relayed.load(Ordering::Relaxed),
            frames_dropped: self.metrics.frames_dropped.load(Ordering::Relaxed),
            teardowns: self.metrics.teardowns.load(Ordering::Relaxed),
            refusals: self.metrics.refusals.load(Ordering::Relaxed),
        }
    }

    /// Starts reporting every traced splice to the DRTS monitor at
    /// `monitor` as a [`HopRecord`]; pass via [`Gateway::disable_hop_reports`]
    /// to stop.
    pub fn enable_hop_reports(&self, monitor: UAdd) {
        *self.hop_monitor.write() = Some(monitor);
    }

    /// Stops splice hop reporting.
    pub fn disable_hop_reports(&self) {
        *self.hop_monitor.write() = None;
    }

    /// A report source for the [`ntcs_nucleus::obs::MetricsRegistry`]: the
    /// gateway Nucleus's full report with the splice counters appended.
    #[must_use]
    pub fn report_source(&self) -> ReportSource {
        let nucleus = self.nucleus.clone();
        let metrics = Arc::clone(&self.metrics);
        Box::new(move || gateway_report(&nucleus, &metrics))
    }

    /// The gateway's point-in-time observability report (Nucleus report
    /// plus splice counters) — what remote [`ObsQuery`] askers receive.
    #[must_use]
    pub fn module_report(&self) -> ModuleReport {
        gateway_report(&self.nucleus, &self.metrics)
    }

    /// The gateway's NSP layer (deregistration, test hooks).
    #[must_use]
    pub fn nsp(&self) -> &Arc<NspLayer> {
        &self.nsp
    }

    /// The gateway's Nucleus (metrics/trace inspection).
    #[must_use]
    pub fn nucleus(&self) -> &Nucleus {
        &self.nucleus
    }

    /// Deregisters and shuts the gateway down.
    pub fn shutdown(&self) {
        let _ = self.nsp.deregister(self.uadd);
        self.nucleus.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntcs_addr::{AttrQuery, MachineType};
    use ntcs_ipcs::NetKind;
    use ntcs_naming::{NameServer, NameServerConfig};
    use ntcs_nucleus::obs::event_kind;
    use ntcs_nucleus::{Delivery, SendOpts};
    use ntcs_wire::ntcs_message;

    ntcs_message! {
        pub struct Packet: 700 {
            pub seq: u32,
            pub body: String,
        }
    }

    fn send_msg(n: &Nucleus, dst: UAdd, p: &Packet) -> Result<u64> {
        let opts = SendOpts::new(Delivery::Send {
            reply_expected: false,
        });
        n.send(dst, p, opts).0
    }

    const T: Option<Duration> = Some(Duration::from_secs(10));

    struct InternetLab {
        world: World,
        _ns: NameServer,
        ns_phys: Vec<PhysAddr>,
        nets: Vec<NetworkId>,
    }

    /// N disjoint networks in a line; the Name Server's machine joins all of
    /// them (so bootstrap is direct), but ordinary modules join exactly one.
    fn internet(n_nets: usize, kind: NetKind) -> InternetLab {
        let world = World::new();
        let nets: Vec<NetworkId> = (0..n_nets)
            .map(|i| world.add_network(kind, &format!("net{i}")))
            .collect();
        let ns_machine = world
            .add_machine(MachineType::Sun, "ns-host", &nets)
            .unwrap();
        let ns = NameServer::spawn(&world, NameServerConfig::primary(ns_machine)).unwrap();
        let ns_phys = ns.phys_addrs();
        InternetLab {
            world,
            _ns: ns,
            ns_phys,
            nets,
        }
    }

    fn module(
        lab: &InternetLab,
        mt: MachineType,
        name: &str,
        nets: &[NetworkId],
    ) -> (Nucleus, Arc<NspLayer>, UAdd) {
        let m = lab.world.add_machine(mt, name, nets).unwrap();
        let cfg =
            NucleusConfig::new(m, name).with_well_known(UAdd::NAME_SERVER, lab.ns_phys.clone());
        let nucleus = Nucleus::bind(&lab.world, cfg).unwrap();
        let nsp = NspLayer::new(nucleus.clone(), vec![UAdd::NAME_SERVER]);
        nucleus.set_resolver(nsp.clone());
        let (u, _) = nsp
            .register(&AttrSet::named(name).unwrap(), false, &[], None)
            .unwrap();
        (nucleus, nsp, u)
    }

    fn gateway(lab: &InternetLab, name: &str, nets: &[NetworkId]) -> Gateway {
        let m = lab
            .world
            .add_machine(MachineType::Apollo, name, nets)
            .unwrap();
        Gateway::spawn(&lab.world, m, name, lab.ns_phys.clone()).unwrap()
    }

    #[test]
    fn one_hop_internet_circuit() {
        let lab = internet(2, NetKind::Mbx);
        let gw = gateway(&lab, "gw-0-1", &[lab.nets[0], lab.nets[1]]);
        let (na, nsp_a, _ua) = module(&lab, MachineType::Vax, "alpha", &[lab.nets[0]]);
        let (nb, _nsp_b, ub) = module(&lab, MachineType::Sun, "beta", &[lab.nets[1]]);

        let found = nsp_a.locate(&AttrQuery::by_name("beta").unwrap()).unwrap();
        assert_eq!(found, ub);
        send_msg(
            &na,
            ub,
            &Packet {
                seq: 1,
                body: "across".into(),
            },
        )
        .unwrap();
        let m = nb.recv(T).unwrap();
        let p: Packet = m.payload.decode(nb.machine_type()).unwrap();
        assert_eq!(p.body, "across");
        assert!(gw.metrics().circuits_spliced >= 1);
        assert!(gw.metrics().frames_relayed >= 1);
        assert_eq!(na.metrics().snapshot().route_queries, 1);
    }

    #[test]
    fn two_hop_chain_and_reply() {
        let lab = internet(3, NetKind::Mbx);
        let g1 = gateway(&lab, "gw-0-1", &[lab.nets[0], lab.nets[1]]);
        let g2 = gateway(&lab, "gw-1-2", &[lab.nets[1], lab.nets[2]]);
        let (na, nsp_a, _) = module(&lab, MachineType::Vax, "near", &[lab.nets[0]]);
        let (nb, _, _) = module(&lab, MachineType::Sun, "far", &[lab.nets[2]]);

        let ub = nsp_a.locate(&AttrQuery::by_name("far").unwrap()).unwrap();
        let server = {
            let nb = nb.clone();
            std::thread::spawn(move || {
                let m = nb.recv(T).unwrap();
                let p: Packet = m.payload.decode(nb.machine_type()).unwrap();
                nb.reply_message(
                    &m,
                    &Packet {
                        seq: p.seq + 1,
                        body: "echo".into(),
                    },
                )
                .unwrap();
            })
        };
        let reply = na
            .request(
                ub,
                &Packet {
                    seq: 10,
                    body: "ping".into(),
                },
                T,
            )
            .unwrap();
        let p: Packet = reply.payload.decode(na.machine_type()).unwrap();
        assert_eq!(p.seq, 11);
        server.join().unwrap();
        assert!(g1.metrics().circuits_spliced >= 1);
        assert!(g2.metrics().circuits_spliced >= 1);
    }

    #[test]
    fn conversion_mode_is_end_to_end_through_gateways() {
        // VAX → (Apollo gateway) → VAX: like endpoints, so image mode even
        // though the gateway machine is big-endian.
        let lab = internet(2, NetKind::Mbx);
        let _gw = gateway(&lab, "gw", &[lab.nets[0], lab.nets[1]]);
        let (na, nsp_a, _) = module(&lab, MachineType::Vax, "v1", &[lab.nets[0]]);
        let (nb, _, _) = module(&lab, MachineType::Vax, "v2", &[lab.nets[1]]);
        let ub = nsp_a.locate(&AttrQuery::by_name("v2").unwrap()).unwrap();
        send_msg(
            &na,
            ub,
            &Packet {
                seq: 0x01020304,
                body: "e2e".into(),
            },
        )
        .unwrap();
        let m = nb.recv(T).unwrap();
        assert_eq!(m.payload.mode, ntcs_wire::ConvMode::Image);
        let p: Packet = m.payload.decode(nb.machine_type()).unwrap();
        assert_eq!(p.seq, 0x01020304);
    }

    #[test]
    fn credit_grants_cross_a_splice_end_to_end() {
        // Flow control is end-to-end: Credit frames from the terminal
        // receiver relay through the gateway as opaque blocks and land in
        // the originating sender's window. With a 4-frame window, 30
        // messages can only complete if grants make it back across the
        // splice.
        let lab = internet(2, NetKind::Mbx);
        let _gw = gateway(&lab, "gw-flow", &[lab.nets[0], lab.nets[1]]);
        let flow = ntcs_nucleus::FlowSettings::enabled(64 * 1024, 4)
            .with_stall_timeout(Duration::from_secs(5));
        let mk = |name: &str, net| {
            let m = lab
                .world
                .add_machine(MachineType::Vax, name, &[net])
                .unwrap();
            let cfg = NucleusConfig::new(m, name)
                .with_well_known(UAdd::NAME_SERVER, lab.ns_phys.clone())
                .with_flow_control(flow);
            let nucleus = Nucleus::bind(&lab.world, cfg).unwrap();
            let nsp = NspLayer::new(nucleus.clone(), vec![UAdd::NAME_SERVER]);
            nucleus.set_resolver(nsp.clone());
            nsp.register(&AttrSet::named(name).unwrap(), false, &[], None)
                .unwrap();
            (nucleus, nsp)
        };
        let (na, nsp_a) = mk("flow-src", lab.nets[0]);
        let (nb, _nsp_b) = mk("flow-dst", lab.nets[1]);
        let ub = nsp_a
            .locate(&AttrQuery::by_name("flow-dst").unwrap())
            .unwrap();
        let consumer = {
            let nb = nb.clone();
            std::thread::spawn(move || {
                for _ in 0..30 {
                    nb.recv(T).unwrap();
                }
            })
        };
        for seq in 0..30 {
            send_msg(
                &na,
                ub,
                &Packet {
                    seq,
                    body: "windowed".into(),
                },
            )
            .unwrap();
        }
        consumer.join().unwrap();
    }

    #[test]
    fn no_route_without_gateway() {
        let lab = internet(2, NetKind::Mbx);
        let (na, nsp_a, _) = module(&lab, MachineType::Vax, "lonely", &[lab.nets[0]]);
        let (_nb, _, ub) = module(&lab, MachineType::Sun, "island", &[lab.nets[1]]);
        let _ = nsp_a;
        let err = send_msg(&na, ub, &Packet::default()).unwrap_err();
        assert!(matches!(err, NtcsError::NoRoute { .. }), "{err}");
    }

    #[test]
    fn teardown_cascades_when_destination_dies() {
        let lab = internet(2, NetKind::Mbx);
        let gw = gateway(&lab, "gw", &[lab.nets[0], lab.nets[1]]);
        let (na, nsp_a, _) = module(&lab, MachineType::Vax, "src", &[lab.nets[0]]);
        let (nb, _, _) = module(&lab, MachineType::Sun, "dst", &[lab.nets[1]]);
        let ub = nsp_a.locate(&AttrQuery::by_name("dst").unwrap()).unwrap();
        send_msg(
            &na,
            ub,
            &Packet {
                seq: 1,
                body: "up".into(),
            },
        )
        .unwrap();
        nb.recv(T).unwrap();
        // A frame goes into the chain just before the destination dies. The
        // source network's latency holds it inside the relay while the
        // splice collapses, so it reaches the dead hop: it must be refused
        // at the source or counted as dropped by the relay, never vanish.
        lab.world
            .set_latency(lab.nets[0], Duration::from_millis(300))
            .unwrap();
        let doomed = send_msg(
            &na,
            ub,
            &Packet {
                seq: 2,
                body: "doomed".into(),
            },
        );
        std::thread::sleep(Duration::from_millis(50));
        // Kill the destination: "module death is detected by the ND-layer in
        // any connected module … This process continues until the originating
        // module is eventually reached" (§4.3).
        let dst_machine = lab
            .world
            .machines()
            .iter()
            .find(|m| m.name == "dst")
            .unwrap()
            .id;
        lab.world.crash(dst_machine);
        lab.world.set_latency(lab.nets[0], Duration::ZERO).unwrap();
        std::thread::sleep(Duration::from_millis(700));
        assert!(gw.metrics().teardowns >= 1);
        let dropped = gw.metrics().frames_dropped;
        assert!(
            doomed.is_err() || dropped == 1,
            "frame sent into the collapsing chain neither refused nor counted: {doomed:?}, {dropped} dropped"
        );
        let report = gw.module_report();
        assert!(report.counters.contains(&("gw_frames_dropped", dropped)));
        assert!(report.events.iter().any(|e| e.kind == event_kind::DROP));
        let err = send_msg(
            &na,
            ub,
            &Packet {
                seq: 3,
                body: "down".into(),
            },
        )
        .unwrap_err();
        assert!(
            err.is_relocation_candidate() || matches!(err, NtcsError::NoForwardingAddress(_)),
            "{err}"
        );
    }

    #[test]
    fn gateway_requires_two_networks() {
        let lab = internet(2, NetKind::Mbx);
        let m = lab
            .world
            .add_machine(MachineType::Apollo, "半", &[lab.nets[0]])
            .unwrap();
        assert!(Gateway::spawn(&lab.world, m, "bad-gw", lab.ns_phys.clone()).is_err());
    }

    #[test]
    fn internet_over_real_tcp() {
        let lab = internet(2, NetKind::Tcp);
        let _gw = gateway(&lab, "gw-tcp", &[lab.nets[0], lab.nets[1]]);
        let (na, nsp_a, _) = module(&lab, MachineType::Vax, "t-src", &[lab.nets[0]]);
        let (nb, _, _) = module(&lab, MachineType::Sun, "t-dst", &[lab.nets[1]]);
        let ub = nsp_a.locate(&AttrQuery::by_name("t-dst").unwrap()).unwrap();
        send_msg(
            &na,
            ub,
            &Packet {
                seq: 5,
                body: "tcp hop".into(),
            },
        )
        .unwrap();
        let m = nb.recv(T).unwrap();
        let p: Packet = m.payload.decode(nb.machine_type()).unwrap();
        assert_eq!(p.body, "tcp hop");
    }
}
