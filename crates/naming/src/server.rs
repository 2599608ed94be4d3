//! The Name Server module.
//!
//! "In the current implementation, the NSP-Layer communicates with a single
//! Name Server module, which maintains the name/address database" (§3). The
//! server is an ordinary module with its own Nucleus binding — "nothing more
//! than an application built on the Nucleus" (§3.1) — whose UAdd and
//! physical addresses are well-known (§3.4).
//!
//! §7's replicated implementation is available: a primary pushes every
//! mutation to replica servers (also at well-known addresses), and the
//! NSP-Layer fails over between them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ntcs_addr::{
    AttrQuery, AttrSet, Generation, MachineId, MachineType, NetworkId, NtcsError, PhysAddr, Result,
    UAdd,
};
use ntcs_ipcs::World;
use ntcs_nucleus::{Nucleus, NucleusConfig, Received, NAME_LEASE_TTL};
use ntcs_wire::Message;
use parking_lot::{Mutex, RwLock};

use crate::cache::{
    shard_primary_server_id, shard_primary_uadd, shard_replica_server_id, shard_replica_uadd,
};
use crate::db::{NameDb, NameRecord};
use crate::protocol::{
    phys_from_blobs, phys_to_blobs, record_to_wire, NsAck, NsDeregister, NsForward, NsForwardReply,
    NsInvalidate, NsList, NsListReply, NsLookup, NsLookupReply, NsRecordWire, NsRegister,
    NsRegisterReply, NsReplicate, NsResolve, NsResolveReply, NsRoute, NsRouteReply,
    NsSnapshotReply, NsSnapshotRequest,
};

/// Configuration for one Name Server instance.
#[derive(Debug, Clone)]
pub struct NameServerConfig {
    /// Machine to run on.
    pub machine: MachineId,
    /// The instance's well-known UAdd ([`UAdd::NAME_SERVER`] for the
    /// primary; replicas use other well-known values).
    pub uadd: UAdd,
    /// Server id appended to generated UAdds (§3.2).
    pub server_id: u16,
    /// Peer servers to replicate mutations to: their well-known UAdds and
    /// physical addresses. In a sharded deployment these are the shard's
    /// own replicas.
    pub peers: Vec<(UAdd, Vec<PhysAddr>)>,
    /// Primaries of *other* shards. Gateway records are replicated to them
    /// as well, so any shard can compute §4 routes from its own database.
    pub cross_shard: Vec<(UAdd, Vec<PhysAddr>)>,
    /// A server to pull a full snapshot from at startup (a replica joining
    /// late, or a primary rebuilt after a crash). `None` = start empty.
    pub sync_from: Option<(UAdd, Vec<PhysAddr>)>,
    /// How long a lookup reply's client lease lasts. Invalidation pushes go
    /// only to clients whose lease is still running; must be ≥ the clients'
    /// [`NucleusConfig::name_lease_ttl`] or a relocation push can miss a
    /// client still serving from cache.
    pub lease_ttl: Duration,
}

impl NameServerConfig {
    /// A standalone primary on `machine`.
    #[must_use]
    pub fn primary(machine: MachineId) -> Self {
        NameServerConfig {
            machine,
            uadd: UAdd::NAME_SERVER,
            server_id: 0,
            peers: Vec::new(),
            cross_shard: Vec::new(),
            sync_from: None,
            lease_ttl: NAME_LEASE_TTL,
        }
    }

    /// Shard `shard`'s primary on `machine` (shard 0 is the classic
    /// primary).
    #[must_use]
    pub fn shard_primary(machine: MachineId, shard: usize) -> Self {
        NameServerConfig {
            uadd: shard_primary_uadd(shard),
            server_id: shard_primary_server_id(shard),
            ..NameServerConfig::primary(machine)
        }
    }

    /// Replica `replica` (0-based) of shard `shard` on `machine`.
    #[must_use]
    pub fn shard_replica(machine: MachineId, shard: usize, replica: usize) -> Self {
        NameServerConfig {
            uadd: shard_replica_uadd(shard, replica),
            server_id: shard_replica_server_id(shard, replica),
            ..NameServerConfig::primary(machine)
        }
    }
}

/// A running Name Server.
#[derive(Debug)]
pub struct NameServer {
    nucleus: Nucleus,
    db: Arc<Mutex<NameDb>>,
    uadd: UAdd,
    ctx: Arc<ServeCtx>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl NameServer {
    /// Spawns a Name Server on its machine and starts serving.
    ///
    /// # Errors
    ///
    /// Fails if the Nucleus cannot bind.
    pub fn spawn(world: &World, config: NameServerConfig) -> Result<NameServer> {
        let mut ncfg =
            NucleusConfig::new(config.machine, format!("name-server-{}", config.server_id));
        for (u, addrs) in config.peers.iter().chain(&config.cross_shard) {
            ncfg.well_known.push((*u, addrs.clone()));
        }
        if let Some((u, addrs)) = &config.sync_from {
            ncfg.well_known.push((*u, addrs.clone()));
        }
        let nucleus = Nucleus::bind(world, ncfg)?;
        nucleus.set_my_uadd(config.uadd);
        let machine_type = nucleus.machine_type();

        let mut db = NameDb::new(config.server_id);
        // The server registers itself so it is resolvable and routable like
        // any module (useful when reached through gateways).
        db.insert_record(NameRecord {
            uadd: config.uadd,
            attrs: AttrSet::named("name-server").expect("static name"),
            machine_type,
            phys: nucleus.nd().phys_addrs(),
            generation: Generation(0),
            alive: true,
            is_gateway: false,
            gateway_networks: Vec::new(),
        });
        // Snapshot catch-up: a late-joining replica (or rebuilt primary)
        // pulls the whole database before serving, so the §7 replication
        // extension tolerates replicas that were not present from the start.
        if let Some((source, _)) = &config.sync_from {
            let reply = nucleus.request(
                *source,
                &NsSnapshotRequest::default(),
                Some(Duration::from_secs(5)),
            )?;
            let snap: NsSnapshotReply = reply
                .payload
                .decode(machine_type)
                .map_err(|_| ntcs_addr::NtcsError::Protocol("bad snapshot reply".into()))?;
            for rec in &snap.records {
                if let Ok(r) = record_from_wire(rec) {
                    // Keep our own self-record authoritative.
                    if r.uadd != config.uadd {
                        db.insert_record(r);
                    }
                }
            }
        }
        let db = Arc::new(Mutex::new(db));

        let stop = Arc::new(AtomicBool::new(false));
        let ctx = Arc::new(ServeCtx {
            peers: config.peers.iter().map(|(u, _)| *u).collect(),
            cross_shard: RwLock::new(config.cross_shard.iter().map(|(u, _)| *u).collect()),
            lease_ttl_us: u64::try_from(config.lease_ttl.as_micros()).unwrap_or(u64::MAX),
            leases: Mutex::new(HashMap::new()),
        });
        let thread = {
            let nucleus = nucleus.clone();
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name(format!("name-server-{}", config.server_id))
                .spawn(move || serve(&nucleus, &db, &stop, &ctx))
                .expect("spawn name server")
        };
        Ok(NameServer {
            nucleus,
            db,
            uadd: config.uadd,
            ctx,
            stop,
            thread: Some(thread),
        })
    }

    /// Adds another shard's primary as a cross-shard replication target
    /// after spawn — how a deployment wires primaries together when their
    /// physical addresses only exist once every shard is up.
    pub fn add_cross_shard_peer(
        &self,
        uadd: UAdd,
        machine_type: MachineType,
        addrs: Vec<PhysAddr>,
    ) {
        self.nucleus.statics().preload(uadd, addrs, machine_type);
        let mut cross = self.ctx.cross_shard.write();
        if !cross.contains(&uadd) {
            cross.push(uadd);
        }
    }

    /// The server's well-known UAdd.
    #[must_use]
    pub fn uadd(&self) -> UAdd {
        self.uadd
    }

    /// The server's physical addresses (to preload into module configs,
    /// §3.4).
    #[must_use]
    pub fn phys_addrs(&self) -> Vec<PhysAddr> {
        self.nucleus.nd().phys_addrs()
    }

    /// Direct database access (tests, experiments, DRTS process control).
    #[must_use]
    pub fn db(&self) -> Arc<Mutex<NameDb>> {
        Arc::clone(&self.db)
    }

    /// The server's Nucleus (metrics/trace inspection).
    #[must_use]
    pub fn nucleus(&self) -> &Nucleus {
        &self.nucleus
    }

    /// Stops serving and closes the binding. "The Name Server can be
    /// removed with no consequence" once caches are warm (§3.3) — this is
    /// how experiments remove it.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.nucleus.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for NameServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Per-serve-loop state: replication targets plus the client-lease registry
/// backing [`NsInvalidate`] pushes.
#[derive(Debug)]
struct ServeCtx {
    peers: Vec<UAdd>,
    /// Other shards' primaries (gateway records mirror there). Behind a
    /// lock because shard primaries spawn one at a time — each learns the
    /// later ones via [`NameServer::add_cross_shard_peer`].
    cross_shard: RwLock<Vec<UAdd>>,
    lease_ttl_us: u64,
    /// Target UAdd → clients granted a lookup lease on it, with lease
    /// expiry. Pushes go only to unexpired holders; the registry is the
    /// server-side mirror of the clients' name leases.
    leases: Mutex<HashMap<UAdd, Vec<(UAdd, u64)>>>,
}

impl ServeCtx {
    /// Records that `client` was served `target`'s location at `now_us`.
    fn grant(&self, target: UAdd, client: UAdd, now_us: u64) {
        if client.is_temporary() {
            // A TAdd client has no registered return path once it renames
            // itself (§3.4); it relies on lease expiry alone.
            return;
        }
        let mut leases = self.leases.lock();
        let holders = leases.entry(target).or_default();
        let expires = now_us.saturating_add(self.lease_ttl_us);
        if let Some(h) = holders.iter_mut().find(|(c, _)| *c == client) {
            h.1 = expires;
        } else {
            holders.push((client, expires));
        }
    }

    /// Takes the unexpired lease holders for `target`, dropping the
    /// registry entry (a push is one-shot: the next lookup re-grants).
    fn take_holders(&self, target: UAdd, now_us: u64) -> Vec<UAdd> {
        self.leases.lock().remove(&target).map_or(Vec::new(), |hs| {
            hs.into_iter()
                .filter(|&(_, exp)| now_us < exp)
                .map(|(c, _)| c)
                .collect()
        })
    }
}

fn serve(nucleus: &Nucleus, db: &Mutex<NameDb>, stop: &AtomicBool, ctx: &ServeCtx) {
    while !stop.load(Ordering::SeqCst) {
        let msg = match nucleus.recv(Some(Duration::from_millis(100))) {
            Ok(m) => m,
            Err(NtcsError::Timeout) => continue,
            Err(_) => return,
        };
        handle(nucleus, db, ctx, &msg);
    }
}

fn replicate(nucleus: &Nucleus, peers: &[UAdd], record: NsRecordWire) {
    for &peer in peers {
        // Best-effort: a down replica catches up via snapshot on restart.
        let _ = nucleus.cast_message(
            peer,
            &NsReplicate {
                record: record.clone(),
            },
        );
    }
}

/// Pushes [`NsInvalidate`] to every unexpired lease holder of `target`.
/// Best-effort casts on the credit-exempt control lane: a dropped push is
/// bounded by the client's lease TTL.
fn push_invalidation(
    nucleus: &Nucleus,
    ctx: &ServeCtx,
    target: UAdd,
    replacement: Option<UAdd>,
    generation: Generation,
) {
    let inv = NsInvalidate {
        uadd: target.raw(),
        replacement: replacement.map_or(0, UAdd::raw),
        generation: generation.0,
    };
    for client in ctx.take_holders(target, nucleus.now_us()) {
        let _ = nucleus.cast_message(client, &inv);
    }
}

fn wire_of(rec: &NameRecord) -> NsRecordWire {
    record_to_wire(
        rec.uadd,
        &rec.attrs,
        rec.machine_type,
        &rec.phys,
        rec.generation,
        rec.alive,
        rec.is_gateway,
        &rec.gateway_networks,
    )
    .expect("record serialization is infallible")
}

fn record_from_wire(w: &NsRecordWire) -> Result<NameRecord> {
    Ok(NameRecord {
        uadd: UAdd::from_raw(w.uadd),
        attrs: AttrSet::from_wire(&w.attrs_wire)?,
        machine_type: MachineType::from_wire_code(w.machine_type)?,
        phys: phys_from_blobs(&w.phys)?,
        generation: Generation(w.generation),
        alive: w.alive,
        is_gateway: w.is_gateway,
        gateway_networks: w.gateway_networks.iter().map(|&n| NetworkId(n)).collect(),
    })
}

#[allow(clippy::too_many_lines)]
fn handle(nucleus: &Nucleus, db: &Mutex<NameDb>, ctx: &ServeCtx, msg: &Received) {
    let peers: &[UAdd] = &ctx.peers;
    let mt = nucleus.machine_type();
    let p = &msg.payload;
    // Every arm decodes, consults the database, and replies; decode failures
    // are answered with a negative ack so clients fail fast.
    macro_rules! decode_or_nack {
        ($ty:ty) => {
            match p.decode::<$ty>(mt) {
                Ok(v) => v,
                Err(_) => {
                    let _ = nucleus.reply_message(msg, &NsAck { ok: false });
                    return;
                }
            }
        };
    }
    match p.type_id {
        NsRegister::TYPE_ID => {
            let req = decode_or_nack!(NsRegister);
            let attrs = match AttrSet::from_wire(&req.attrs_wire) {
                Ok(a) => a,
                Err(_) => {
                    let _ = nucleus.reply_message(msg, &NsAck { ok: false });
                    return;
                }
            };
            let phys = match phys_from_blobs(&req.phys) {
                Ok(p) => p,
                Err(_) => {
                    let _ = nucleus.reply_message(msg, &NsAck { ok: false });
                    return;
                }
            };
            let machine_type = match MachineType::from_wire_code(req.machine_type) {
                Ok(m) => m,
                Err(_) => {
                    let _ = nucleus.reply_message(msg, &NsAck { ok: false });
                    return;
                }
            };
            let prev = if req.prev_uadd == 0 {
                None
            } else {
                Some(UAdd::from_raw(req.prev_uadd))
            };
            let (uadd, generation) = db.lock().register(
                attrs,
                machine_type,
                phys,
                req.is_gateway,
                req.gateway_networks.iter().map(|&n| NetworkId(n)).collect(),
                prev,
            );
            let _ = nucleus.reply_message(
                msg,
                &NsRegisterReply {
                    uadd: uadd.raw(),
                    generation: generation.0,
                },
            );
            let rec = db.lock().lookup(uadd).map(wire_of);
            if let Some(rec) = rec {
                if req.is_gateway {
                    // Gateways are route infrastructure: every shard needs
                    // them, so mirror the record to the other primaries.
                    let cross = ctx.cross_shard.read().clone();
                    replicate(nucleus, &cross, rec.clone());
                }
                replicate(nucleus, peers, rec);
            }
            if let Some(prev) = prev {
                let old = db.lock().lookup(prev).map(wire_of);
                if let Some(old) = old {
                    replicate(nucleus, peers, old);
                }
                // Relocation: clients still holding a lease on the old
                // incarnation learn the successor eagerly instead of riding
                // an address fault (§3.5).
                push_invalidation(nucleus, ctx, prev, Some(uadd), generation);
            }
        }
        NsResolve::TYPE_ID => {
            let req = decode_or_nack!(NsResolve);
            let reply = match AttrQuery::from_wire(&req.query_wire) {
                Ok(q) => {
                    let found = db.lock().resolve(&q);
                    NsResolveReply {
                        found: found.is_some(),
                        uadd: found.map_or(0, UAdd::raw),
                    }
                }
                Err(_) => NsResolveReply {
                    found: false,
                    uadd: 0,
                },
            };
            let _ = nucleus.reply_message(msg, &reply);
        }
        NsLookup::TYPE_ID => {
            let req = decode_or_nack!(NsLookup);
            let target = UAdd::from_raw(req.uadd);
            let reply = {
                let dbl = db.lock();
                match dbl.lookup(target) {
                    Some(r) => NsLookupReply {
                        found: true,
                        alive: r.alive,
                        machine_type: r.machine_type.wire_code(),
                        phys: phys_to_blobs(&r.phys),
                    },
                    None => NsLookupReply {
                        found: false,
                        alive: false,
                        machine_type: MachineType::Vax.wire_code(),
                        phys: Vec::new(),
                    },
                }
            };
            if reply.found && reply.alive {
                // The requester will cache this answer; remember its lease
                // so a relocation or deregistration can push an
                // invalidation before the lease runs out.
                ctx.grant(target, msg.src, nucleus.now_us());
            }
            let _ = nucleus.reply_message(msg, &reply);
        }
        NsForward::TYPE_ID => {
            let req = decode_or_nack!(NsForward);
            let reply = match db.lock().forwarding(UAdd::from_raw(req.old)) {
                Ok(new) => NsForwardReply {
                    known: true,
                    found: true,
                    new_uadd: new.raw(),
                },
                Err(NtcsError::NoForwardingAddress(_)) => NsForwardReply {
                    known: true,
                    found: false,
                    new_uadd: 0,
                },
                Err(_) => NsForwardReply {
                    known: false,
                    found: false,
                    new_uadd: 0,
                },
            };
            let _ = nucleus.reply_message(msg, &reply);
        }
        NsRoute::TYPE_ID => {
            let req = decode_or_nack!(NsRoute);
            let from: Vec<NetworkId> = req.from_networks.iter().map(|&n| NetworkId(n)).collect();
            let reply = match db.lock().route(&from, UAdd::from_raw(req.dst)) {
                Ok((hops, dst_phys, dst_machine)) => NsRouteReply {
                    found: true,
                    hops_gateway: hops.iter().map(|h| h.gateway.raw()).collect(),
                    hops_phys: hops
                        .iter()
                        .map(|h| ntcs_wire::pack::Blob(h.entry.to_opaque()))
                        .collect(),
                    dst_phys: ntcs_wire::pack::Blob(dst_phys.to_opaque()),
                    dst_machine: dst_machine.wire_code(),
                },
                Err(_) => NsRouteReply {
                    found: false,
                    hops_gateway: Vec::new(),
                    hops_phys: Vec::new(),
                    dst_phys: ntcs_wire::pack::Blob(Vec::new()),
                    dst_machine: MachineType::Vax.wire_code(),
                },
            };
            let _ = nucleus.reply_message(msg, &reply);
        }
        NsDeregister::TYPE_ID => {
            let req = decode_or_nack!(NsDeregister);
            let uadd = UAdd::from_raw(req.uadd);
            let ok = db.lock().deregister(uadd);
            let _ = nucleus.reply_message(msg, &NsAck { ok });
            let rec = db.lock().lookup(uadd).map(wire_of);
            if let Some(rec) = rec {
                let generation = Generation(rec.generation);
                replicate(nucleus, peers, rec);
                if ok {
                    // No successor: lease holders drop straight to negative
                    // caching instead of retrying a dead address.
                    push_invalidation(nucleus, ctx, uadd, None, generation);
                }
            }
        }
        NsList::TYPE_ID => {
            let req = decode_or_nack!(NsList);
            let uadds = match AttrQuery::from_wire(&req.query_wire) {
                Ok(q) => db.lock().list(&q).iter().map(|u| u.raw()).collect(),
                Err(_) => Vec::new(),
            };
            let _ = nucleus.reply_message(msg, &NsListReply { uadds });
        }
        NsReplicate::TYPE_ID => {
            let req = decode_or_nack!(NsReplicate);
            if let Ok(rec) = record_from_wire(&req.record) {
                db.lock().insert_record(rec);
            }
            // Replication is one-way; no reply (it arrives as a datagram).
        }
        NsSnapshotRequest::TYPE_ID => {
            let records: Vec<NsRecordWire> = db.lock().records().map(wire_of).collect();
            let _ = nucleus.reply_message(msg, &NsSnapshotReply { records });
        }
        _ => {
            let _ = nucleus.reply_message(msg, &NsAck { ok: false });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntcs_ipcs::NetKind;

    #[test]
    fn server_answers_lookup_about_itself() {
        let world = World::new();
        let net = world.add_network(NetKind::Mbx, "lab");
        let m0 = world.add_machine(MachineType::Sun, "ns", &[net]).unwrap();
        let m1 = world.add_machine(MachineType::Vax, "cli", &[net]).unwrap();
        let ns = NameServer::spawn(&world, NameServerConfig::primary(m0)).unwrap();

        let cfg = NucleusConfig::new(m1, "cli").with_well_known(UAdd::NAME_SERVER, ns.phys_addrs());
        let cli = Nucleus::bind(&world, cfg).unwrap();
        let reply = cli
            .request(
                UAdd::NAME_SERVER,
                &NsLookup {
                    uadd: UAdd::NAME_SERVER.raw(),
                },
                Some(Duration::from_secs(5)),
            )
            .unwrap();
        let rep: NsLookupReply = reply.payload.decode(cli.machine_type()).unwrap();
        assert!(rep.found);
        assert!(rep.alive);
        assert_eq!(phys_from_blobs(&rep.phys).unwrap(), ns.phys_addrs());
    }

    #[test]
    fn malformed_request_gets_negative_ack() {
        let world = World::new();
        let net = world.add_network(NetKind::Mbx, "lab");
        let m0 = world.add_machine(MachineType::Sun, "ns", &[net]).unwrap();
        let m1 = world.add_machine(MachineType::Vax, "cli", &[net]).unwrap();
        let ns = NameServer::spawn(&world, NameServerConfig::primary(m0)).unwrap();
        let cfg = NucleusConfig::new(m1, "cli").with_well_known(UAdd::NAME_SERVER, ns.phys_addrs());
        let cli = Nucleus::bind(&world, cfg).unwrap();
        // NsRegister with a bogus machine-type code.
        let reply = cli
            .request(
                UAdd::NAME_SERVER,
                &NsRegister {
                    attrs_wire: "name=x".into(),
                    phys: vec![],
                    machine_type: 99,
                    is_gateway: false,
                    gateway_networks: vec![],
                    prev_uadd: 0,
                },
                Some(Duration::from_secs(5)),
            )
            .unwrap();
        let ack: NsAck = reply.payload.decode(cli.machine_type()).unwrap();
        assert!(!ack.ok);
    }
}
