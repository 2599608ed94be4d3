//! The Name Service Protocol layer (NSP-Layer).
//!
//! §2.4: "The NSP-Layer is the single naming service access point for all
//! layers within the ComMod. Its purpose is to fully isolate the ComMod from
//! the naming service implementation." It talks to the Name Server(s) using
//! the very Nucleus it serves — the recursion of §3.1 — and fails over
//! between replicated servers (§7 extension) without anything above or
//! below noticing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use ntcs_addr::{
    attrs::NAME_ATTR, AttrQuery, AttrSet, Generation, MachineType, NetworkId, NtcsError, Result,
    UAdd,
};
use ntcs_nucleus::proto::Hop;
use ntcs_nucleus::{
    NameResolver, Nucleus, ObsEvent, ResolvedModule, RetryPolicy, RouteInfo, BREAKER,
};
use ntcs_wire::Message;

use crate::cache::ShardMap;
use crate::protocol::{
    phys_from_blobs, phys_to_blobs, NsAck, NsDeregister, NsForward, NsForwardReply, NsInvalidate,
    NsList, NsListReply, NsLookup, NsLookupReply, NsRegister, NsRegisterReply, NsResolve,
    NsResolveReply, NsRoute, NsRouteReply,
};

/// Per-attempt timeout for one Name-Server exchange. Deliberately much
/// smaller than `NS_RETRY.deadline`: a replica that stalls must not
/// consume the whole supervision budget before the sweep can fail over
/// to the next one (§7).
const NS_REQUEST_TIMEOUT: Duration = Duration::from_millis(750);

/// Retry policy for naming-service queries, including replica failover
/// sweeps. Separate from [`ntcs_nucleus::CIRCUIT_RETRY`] because a naming
/// outage must fail over quickly rather than camp on one replica.
const NS_RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 8,
    base_backoff: Duration::from_millis(10),
    max_backoff: Duration::from_millis(200),
    jitter: 0.25,
    deadline: Duration::from_secs(3),
    seed: 0x4E53, // "NS"
};

// The cumulative backoff before the sixth attempt (10+20+40+80+160 =
// 310 ms; jitter only adds) exceeds the breaker's half-open timer, so a
// healed Name-Server partition recovers within one supervised query
// instead of surfacing a stale `CircuitBroken`.
const _: () = {
    let (mut sum_us, mut i) = (0, 0);
    while i < 5 {
        let step = NS_RETRY.base_backoff.as_micros() << i;
        let cap = NS_RETRY.max_backoff.as_micros();
        sum_us += if step < cap { step } else { cap };
        i += 1;
    }
    assert!(sum_us > BREAKER.half_open_after.as_micros());
};

/// The NSP-Layer bound to one module's ComMod.
#[derive(Debug)]
pub struct NspLayer {
    nucleus: Nucleus,
    /// Replica groups by shard; the classic deployment is one group.
    shards: ShardMap,
    /// Completed Name-Server exchanges (experiment E1 counts these).
    comms: AtomicU64,
}

fn is_transport(e: &NtcsError) -> bool {
    matches!(
        e,
        NtcsError::Timeout
            | NtcsError::ConnectionClosed
            | NtcsError::ConnectRefused(_)
            | NtcsError::AddressFault(_)
            | NtcsError::Ipcs(_)
            | NtcsError::NameServerUnreachable
            | NtcsError::CircuitBroken(_)
    )
}

impl NspLayer {
    /// Creates the NSP-Layer over a module's Nucleus.
    ///
    /// `servers` lists the well-known Name-Server UAdds in preference order;
    /// their physical addresses must already be in the Nucleus's well-known
    /// table (§3.4). Single-shard: for a sharded service use
    /// [`NspLayer::new_sharded`].
    #[must_use]
    pub fn new(nucleus: Nucleus, servers: Vec<UAdd>) -> Arc<Self> {
        NspLayer::new_sharded(nucleus, ShardMap::single(servers))
    }

    /// Creates the NSP-Layer over a sharded Name Service: one replica
    /// group per shard, placement by [`ShardMap`]. Registers the
    /// lease-invalidation intercept on the Nucleus.
    #[must_use]
    pub fn new_sharded(nucleus: Nucleus, shards: ShardMap) -> Arc<Self> {
        let layer = Arc::new(NspLayer {
            nucleus,
            shards,
            comms: AtomicU64::new(0),
        });
        layer.arm_invalidation_intercept();
        layer
    }

    /// Wires the [`NsInvalidate`] control push into the Nucleus: the frame
    /// is consumed on the pump thread, kills the lease, and (when the push
    /// names a replacement) installs the §3.5 forwarding entry without
    /// waiting for an address fault. Pushes are handled while this layer
    /// lives.
    fn arm_invalidation_intercept(self: &Arc<Self>) {
        let weak: Weak<NspLayer> = Arc::downgrade(self);
        let nucleus = self.nucleus.clone();
        nucleus.clone().set_control_intercept(
            NsInvalidate::TYPE_ID,
            Arc::new(move |received| {
                if weak.strong_count() == 0 {
                    return;
                }
                let Ok(inv) = received
                    .payload
                    .decode::<NsInvalidate>(nucleus.machine_type())
                else {
                    return;
                };
                let uadd = UAdd::from_raw(inv.uadd);
                if uadd.is_well_known() {
                    // Well-known locations are static configuration; no
                    // push (buggy or malicious) may evict them.
                    return;
                }
                if inv.replacement != 0 {
                    nucleus.note_forwarding(uadd, UAdd::from_raw(inv.replacement));
                } else {
                    nucleus.statics().invalidate(uadd);
                }
                nucleus.emit(ObsEvent::CacheInvalidate {
                    peer: uadd,
                    pushed: true,
                });
            }),
        );
    }

    /// Completed Name-Server exchanges so far (E1 metric).
    #[must_use]
    pub fn comms(&self) -> u64 {
        self.comms.load(Ordering::Relaxed)
    }

    /// The underlying Nucleus.
    #[must_use]
    pub fn nucleus(&self) -> &Nucleus {
        &self.nucleus
    }

    /// The shard map this layer routes by.
    #[must_use]
    pub fn shards(&self) -> &ShardMap {
        &self.shards
    }

    /// One exchange with shard `shard`'s replica group, supervised: each
    /// attempt sweeps the group in preference order (§7 failover); when a
    /// whole sweep fails on transport, the `NS_RETRY` policy backs off and
    /// re-sweeps until its attempt or deadline budget runs out.
    fn rpc<Req: Message, Rep: Message>(&self, shard: usize, req: &Req) -> Result<Rep> {
        NS_RETRY.run(
            |n, error| self.nucleus.emit(ObsEvent::NsRetry { shard, n, error }),
            |_| self.sweep(self.shards.group(shard), req),
        )
    }

    /// One pass over a replica group: returns the first replica's answer,
    /// failing over on transport errors.
    fn sweep<Req: Message, Rep: Message>(&self, servers: &[UAdd], req: &Req) -> Result<Rep> {
        let mut last = NtcsError::NameServerUnreachable;
        for &server in servers {
            match self.nucleus.request(server, req, Some(NS_REQUEST_TIMEOUT)) {
                Ok(received) => {
                    let rep = received.payload.decode::<Rep>(self.nucleus.machine_type());
                    match rep {
                        Ok(rep) => {
                            self.comms.fetch_add(1, Ordering::Relaxed);
                            return Ok(rep);
                        }
                        Err(_) if received.payload.type_id == NsAck::TYPE_ID => {
                            // The server rejected the request outright.
                            return Err(NtcsError::Protocol(
                                "name server rejected the request".into(),
                            ));
                        }
                        Err(e) => return Err(e),
                    }
                }
                Err(e) if is_transport(&e) => {
                    last = e;
                    continue; // fail over to the next replica (§7)
                }
                Err(e) => return Err(e),
            }
        }
        Err(match last {
            NtcsError::NameServerUnreachable => NtcsError::NameServerUnreachable,
            other => other,
        })
    }

    // ------------------------------------------------------------------
    // Shard placement
    // ------------------------------------------------------------------

    /// The shard authoritative for a query: a `name=`-pinned query hashes
    /// to exactly one group; an unpinned one has no single authority
    /// (callers fan out).
    fn shard_for_query(&self, query: &AttrQuery) -> Option<usize> {
        query
            .equals_value(NAME_ATTR)
            .map(|name| self.shards.shard_for_name(name))
    }

    // ------------------------------------------------------------------
    // Application-facing resource location primitives (via the ALI layer)
    // ------------------------------------------------------------------

    /// Registers this module (§3.2): sends its attributes, physical
    /// addresses and machine type; installs the assigned UAdd into the
    /// Nucleus so subsequent frames purge our TAdd from peers (§3.4).
    /// Routed to the shard owning the `name` attribute, so a relocation's
    /// re-registration (and thus the forwarding chain) stays on the shard
    /// that issued the predecessor's UAdd.
    ///
    /// # Errors
    ///
    /// Naming-service transport failures, or a rejection.
    pub fn register(
        &self,
        attrs: &AttrSet,
        is_gateway: bool,
        gateway_networks: &[NetworkId],
        prev_uadd: Option<UAdd>,
    ) -> Result<(UAdd, Generation)> {
        let shard = attrs
            .name()
            .map_or(0, |name| self.shards.shard_for_name(name));
        let req = NsRegister {
            attrs_wire: attrs.to_wire(),
            phys: phys_to_blobs(&self.nucleus.nd().phys_addrs()),
            machine_type: self.nucleus.machine_type().wire_code(),
            is_gateway,
            gateway_networks: gateway_networks.iter().map(|n| n.0).collect(),
            prev_uadd: prev_uadd.map_or(0, UAdd::raw),
        };
        let rep: NsRegisterReply = self.rpc(shard, &req)?;
        let uadd = UAdd::from_raw(rep.uadd);
        self.nucleus.set_my_uadd(uadd);
        Ok((uadd, Generation(rep.generation)))
    }

    /// Resolves a query to the newest live matching module (§3.3 first
    /// mapping). A `name=`-pinned query asks its one authoritative shard;
    /// an unpinned query sweeps the shards in order and returns the first
    /// match.
    ///
    /// # Errors
    ///
    /// [`NtcsError::NameNotFound`] when nothing matches.
    pub fn locate(&self, query: &AttrQuery) -> Result<UAdd> {
        let req = NsResolve {
            query_wire: query.to_wire(),
        };
        let shards: Vec<usize> = match self.shard_for_query(query) {
            Some(s) => vec![s],
            None => (0..self.shards.shard_count()).collect(),
        };
        for shard in shards {
            let rep: NsResolveReply = self.rpc(shard, &req)?;
            if rep.found {
                return Ok(UAdd::from_raw(rep.uadd));
            }
        }
        Err(NtcsError::NameNotFound(query.to_wire()))
    }

    /// Lists all live matching modules — a fan-out across every shard,
    /// merged in shard order.
    ///
    /// # Errors
    ///
    /// Naming-service transport failures.
    pub fn list(&self, query: &AttrQuery) -> Result<Vec<UAdd>> {
        let req = NsList {
            query_wire: query.to_wire(),
        };
        let mut all = Vec::new();
        for shard in 0..self.shards.shard_count() {
            let rep: NsListReply = self.rpc(shard, &req)?;
            all.extend(rep.uadds.into_iter().map(UAdd::from_raw));
        }
        all.dedup();
        Ok(all)
    }

    /// Deregisters a module (clean shutdown or relocation epilogue),
    /// routed to the shard that issued the UAdd.
    ///
    /// # Errors
    ///
    /// Naming-service transport failures.
    pub fn deregister(&self, uadd: UAdd) -> Result<bool> {
        let shard = self.shards.shard_for_uadd(uadd);
        let rep: NsAck = self.rpc(shard, &NsDeregister { uadd: uadd.raw() })?;
        Ok(rep.ok)
    }
}

impl NameResolver for NspLayer {
    fn lookup(&self, uadd: UAdd) -> Result<ResolvedModule> {
        let shard = self.shards.shard_for_uadd(uadd);
        let rep: NsLookupReply = self.rpc(shard, &NsLookup { uadd: uadd.raw() })?;
        if !rep.found {
            return Err(NtcsError::UnknownAddress(uadd.raw()));
        }
        if !rep.alive {
            // A dead module's location is useless; the caller will take the
            // forwarding path, which leases the successor instead.
            return Err(NtcsError::AddressFault(uadd.raw()));
        }
        Ok(ResolvedModule {
            uadd,
            machine_type: MachineType::from_wire_code(rep.machine_type)?,
            addrs: phys_from_blobs(&rep.phys)?,
        })
    }

    fn forwarding(&self, old: UAdd) -> Result<UAdd> {
        let shard = self.shards.shard_for_uadd(old);
        let rep: NsForwardReply = self.rpc(shard, &NsForward { old: old.raw() })?;
        if rep.found {
            Ok(UAdd::from_raw(rep.new_uadd))
        } else if rep.known {
            Err(NtcsError::NoForwardingAddress(old.raw()))
        } else {
            Err(NtcsError::UnknownAddress(old.raw()))
        }
    }

    fn route(&self, from_networks: &[NetworkId], dst: UAdd) -> Result<RouteInfo> {
        let shard = self.shards.shard_for_uadd(dst);
        let rep: NsRouteReply = self.rpc(
            shard,
            &NsRoute {
                from_networks: from_networks.iter().map(|n| n.0).collect(),
                dst: dst.raw(),
            },
        )?;
        if !rep.found {
            return Err(NtcsError::NoRoute {
                from: from_networks.first().map_or(0, |n| n.0),
                to: u32::MAX,
            });
        }
        if rep.hops_gateway.len() != rep.hops_phys.len() {
            return Err(NtcsError::Protocol(
                "route reply hop arrays disagree".into(),
            ));
        }
        let mut hops = Vec::with_capacity(rep.hops_gateway.len());
        for (g, p) in rep.hops_gateway.iter().zip(&rep.hops_phys) {
            hops.push(Hop {
                gateway: UAdd::from_raw(*g),
                entry: ntcs_addr::PhysAddr::from_opaque(&p.0)?,
            });
        }
        Ok(RouteInfo {
            hops,
            dst_phys: ntcs_addr::PhysAddr::from_opaque(&rep.dst_phys.0)?,
            dst_machine: MachineType::from_wire_code(rep.dst_machine)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{NameServer, NameServerConfig};
    use ntcs_addr::MachineId;
    use ntcs_ipcs::{NetKind, World};
    use ntcs_nucleus::{Delivery, NucleusConfig, SendOpts};
    use ntcs_wire::ntcs_message;

    ntcs_message! {
        pub struct AppMsg: 600 {
            pub body: String,
        }
    }

    fn send_msg(n: &Nucleus, dst: UAdd, m: &AppMsg) -> Result<u64> {
        let opts = SendOpts::new(Delivery::Send {
            reply_expected: false,
        });
        n.send(dst, m, opts).0
    }

    struct Lab {
        world: World,
        ns: NameServer,
    }

    fn lab() -> Lab {
        let world = World::new();
        let net = world.add_network(NetKind::Mbx, "lab");
        let m0 = world
            .add_machine(MachineType::Sun, "ns-host", &[net])
            .unwrap();
        let _m1 = world
            .add_machine(MachineType::Vax, "host-a", &[net])
            .unwrap();
        let _m2 = world
            .add_machine(MachineType::Apollo, "host-b", &[net])
            .unwrap();
        let ns = NameServer::spawn(&world, NameServerConfig::primary(m0)).unwrap();
        Lab { world, ns }
    }

    fn module(lab: &Lab, machine: u32, hint: &str) -> (Nucleus, Arc<NspLayer>) {
        let cfg = NucleusConfig::new(MachineId(machine), hint)
            .with_well_known(UAdd::NAME_SERVER, lab.ns.phys_addrs());
        let nucleus = Nucleus::bind(&lab.world, cfg).unwrap();
        let nsp = NspLayer::new(nucleus.clone(), vec![UAdd::NAME_SERVER]);
        nucleus.set_resolver(nsp.clone());
        (nucleus, nsp)
    }

    const T: Option<Duration> = Some(Duration::from_secs(5));

    #[test]
    fn register_purges_tadd_and_locates() {
        let lab = lab();
        let (nucleus, nsp) = module(&lab, 1, "worker");
        assert!(nucleus.my_uadd().is_temporary());
        let attrs = AttrSet::named("worker").unwrap();
        let (u, g) = nsp.register(&attrs, false, &[], None).unwrap();
        assert!(u.is_permanent());
        assert_eq!(g, Generation(0));
        assert_eq!(nucleus.my_uadd(), u);
        // Second exchange: locate ourselves; afterwards the *server's*
        // tables must hold no TAdds (§3.4: purged within two exchanges).
        let found = nsp.locate(&AttrQuery::by_name("worker").unwrap()).unwrap();
        assert_eq!(found, u);
        assert!(nsp.comms() >= 2);
        assert!(
            lab.ns
                .nucleus()
                .peer_table()
                .iter()
                .all(|p| p.is_permanent()),
            "name server still holds TAdds: {:?}",
            lab.ns.nucleus().peer_table()
        );
    }

    #[test]
    fn full_recursive_resolution_between_modules() {
        let lab = lab();
        let (na, nsp_a) = module(&lab, 1, "alpha");
        let (nb, nsp_b) = module(&lab, 2, "beta");
        nsp_a
            .register(&AttrSet::named("alpha").unwrap(), false, &[], None)
            .unwrap();
        nsp_b
            .register(&AttrSet::named("beta").unwrap(), false, &[], None)
            .unwrap();

        // Alpha locates beta by name, then sends — the send recursively uses
        // the NSP layer for the UAdd→phys mapping (§6.1's scenario, minus
        // DRTS).
        let ub = nsp_a.locate(&AttrQuery::by_name("beta").unwrap()).unwrap();
        send_msg(
            &na,
            ub,
            &AppMsg {
                body: "hello".into(),
            },
        )
        .unwrap();
        let m = nb.recv(T).unwrap();
        let got: AppMsg = m.payload.decode(nb.machine_type()).unwrap();
        assert_eq!(got.body, "hello");
        assert!(na.metrics().snapshot().ns_lookups >= 1);
    }

    #[test]
    fn locate_unknown_name_fails() {
        let lab = lab();
        let (_n, nsp) = module(&lab, 1, "x");
        let err = nsp
            .locate(&AttrQuery::by_name("missing").unwrap())
            .unwrap_err();
        assert!(matches!(err, NtcsError::NameNotFound(_)));
    }

    #[test]
    fn list_by_attribute() {
        let lab = lab();
        let (_na, nsp_a) = module(&lab, 1, "s1");
        let (_nb, nsp_b) = module(&lab, 2, "s2");
        let mut a1 = AttrSet::named("s1").unwrap();
        a1.set("role", "search").unwrap();
        let mut a2 = AttrSet::named("s2").unwrap();
        a2.set("role", "search").unwrap();
        let (u1, _) = nsp_a.register(&a1, false, &[], None).unwrap();
        let (u2, _) = nsp_b.register(&a2, false, &[], None).unwrap();
        let q = AttrQuery::any().and_equals("role", "search").unwrap();
        let found = nsp_a.list(&q).unwrap();
        assert!(found.contains(&u1) && found.contains(&u2));
    }

    #[test]
    fn deregister_hides_module() {
        let lab = lab();
        let (_n, nsp) = module(&lab, 1, "gone");
        let (u, _) = nsp
            .register(&AttrSet::named("gone").unwrap(), false, &[], None)
            .unwrap();
        assert!(nsp.deregister(u).unwrap());
        assert!(nsp.locate(&AttrQuery::by_name("gone").unwrap()).is_err());
        // lookup of a dead module reports an address fault.
        let err = nsp.lookup(u).unwrap_err();
        assert!(matches!(err, NtcsError::AddressFault(_)));
    }

    #[test]
    fn name_server_unreachable_without_well_known() {
        let lab = lab();
        // A module with an *empty* well-known table cannot bootstrap.
        let cfg = NucleusConfig::new(MachineId(1), "lost");
        let nucleus = Nucleus::bind(&lab.world, cfg).unwrap();
        let nsp = NspLayer::new(nucleus.clone(), vec![UAdd::NAME_SERVER]);
        let err = nsp
            .register(&AttrSet::named("lost").unwrap(), false, &[], None)
            .unwrap_err();
        assert!(
            matches!(
                err,
                NtcsError::UnknownAddress(_) | NtcsError::NameServerUnreachable
            ),
            "{err}"
        );
    }
}
