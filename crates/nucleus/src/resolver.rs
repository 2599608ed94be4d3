//! The Nucleus-side view of the naming service.
//!
//! §3: the naming service is built *on top of* the Nucleus yet is used *by*
//! the layers below — "the ND-Layer to resolve logical to physical
//! addresses, the IP-Layer to determine destination networks, the LCM-layer
//! to determine forwarding addresses". To keep the compile-time dependency
//! graph acyclic while preserving that runtime recursion, the Nucleus
//! consumes this [`NameResolver`] trait; the NSP-Layer in `ntcs-naming`
//! implements it *using the same Nucleus it serves*.
//!
//! [`StaticResolver`] covers bootstrap: the well-known addresses of §3.4,
//! consulted before (and without) the real naming service.

use std::collections::HashMap;
use std::sync::Arc;

use ntcs_addr::{MachineType, NetworkId, NtcsError, PhysAddr, Result, UAdd};
use parking_lot::RwLock;

use crate::proto::Hop;

/// What the naming service knows about a module, as needed for circuit
/// establishment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedModule {
    /// The module's unique address.
    pub uadd: UAdd,
    /// The machine type it currently runs on (for conversion-mode selection
    /// at the lowest layer, §5).
    pub machine_type: MachineType,
    /// Physical addresses, one per network it listens on. Stored
    /// uninterpreted in the naming service; only ND-Layer drivers look
    /// inside.
    pub addrs: Vec<PhysAddr>,
}

impl ResolvedModule {
    /// The physical address on a specific network, if any.
    #[must_use]
    pub fn addr_on(&self, network: NetworkId) -> Option<&PhysAddr> {
        self.addrs.iter().find(|a| a.network() == network)
    }

    /// The physical address on any of the given networks, if any.
    #[must_use]
    pub fn addr_on_any(&self, networks: &[NetworkId]) -> Option<&PhysAddr> {
        self.addrs.iter().find(|a| networks.contains(&a.network()))
    }
}

/// A gateway route to a destination on a foreign network (§4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteInfo {
    /// The gateway chain, in traversal order.
    pub hops: Vec<Hop>,
    /// The destination's physical address on its own network.
    pub dst_phys: PhysAddr,
    /// The destination's machine type.
    pub dst_machine: MachineType,
}

/// The naming-service operations the Nucleus layers invoke (recursively).
pub trait NameResolver: Send + Sync {
    /// UAdd → current location information (§3.3 second mapping).
    ///
    /// # Errors
    ///
    /// [`NtcsError::UnknownAddress`] if the naming service has no entry,
    /// or a transport error if the naming service is unreachable.
    fn lookup(&self, uadd: UAdd) -> Result<ResolvedModule>;

    /// Old UAdd → forwarding UAdd after a suspected relocation (§3.5).
    ///
    /// # Errors
    ///
    /// [`NtcsError::NoForwardingAddress`] if no replacement module was
    /// located or the original is still alive.
    fn forwarding(&self, old: UAdd) -> Result<UAdd>;

    /// Computes a gateway route from any of `from_networks` to the module
    /// `dst` (§4.2: topology centralized in the naming service).
    ///
    /// # Errors
    ///
    /// [`NtcsError::NoRoute`] if the networks are not connected,
    /// [`NtcsError::UnknownAddress`] if `dst` is unknown.
    fn route(&self, from_networks: &[NetworkId], dst: UAdd) -> Result<RouteInfo>;
}

/// What a leased probe of the [`StaticResolver`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseProbe {
    /// A preloaded or still-leased entry: serve it.
    Fresh(ResolvedModule),
    /// A cached entry whose lease expired — the value is retained for
    /// stale-if-error fallback, but the caller must revalidate first.
    Stale(ResolvedModule),
    /// No entry at all.
    Miss,
}

#[derive(Debug, Clone)]
struct LeasedEntry {
    module: ResolvedModule,
    /// Lease expiry in Nucleus virtual µs; `None` = never expires
    /// (preloaded well-known entries).
    expires_us: Option<u64>,
}

/// The preloaded well-known address table (§3.4) plus the local cache of
/// §3.3 ("this information is then locally cached for future
/// reference"), consulted before the real resolver. It never answers
/// forwarding or routing queries beyond the preconfigured Name-Server
/// route.
///
/// Cached (non-preloaded) entries carry a TTL lease (the shard
/// extension): [`StaticResolver::probe`] refuses to report an entry as
/// fresh past its lease, which is what bounds staleness when an
/// invalidation push is lost.
#[derive(Debug, Default)]
pub struct StaticResolver {
    entries: RwLock<HashMap<UAdd, LeasedEntry>>,
}

impl StaticResolver {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        StaticResolver::default()
    }

    /// Preloads a well-known module whose machine type is not yet known
    /// (it is learned from the open handshake; until then assume the local
    /// type — the mode will be corrected by the ack). Preloaded entries
    /// never expire.
    pub fn preload(&self, uadd: UAdd, addrs: Vec<PhysAddr>, machine_type: MachineType) {
        self.entries.write().insert(
            uadd,
            LeasedEntry {
                module: ResolvedModule {
                    uadd,
                    machine_type,
                    addrs,
                },
                expires_us: None,
            },
        );
    }

    /// Lease-aware probe at `now_us`: a cached entry past its expiry is
    /// reported [`LeaseProbe::Stale`], never fresh.
    #[must_use]
    pub fn probe(&self, uadd: UAdd, now_us: u64) -> LeaseProbe {
        match self.entries.read().get(&uadd) {
            Some(e) => match e.expires_us {
                Some(exp) if now_us >= exp => LeaseProbe::Stale(e.module.clone()),
                _ => LeaseProbe::Fresh(e.module.clone()),
            },
            None => LeaseProbe::Miss,
        }
    }

    /// Caches a resolved entry under a lease expiring at `expires_us`.
    /// Never demotes a preloaded (non-expiring) entry to a leased one —
    /// well-known addresses stay permanent.
    pub fn cache_leased(&self, module: ResolvedModule, expires_us: u64) {
        let mut entries = self.entries.write();
        if let Some(existing) = entries.get(&module.uadd) {
            if existing.expires_us.is_none() {
                entries.insert(
                    module.uadd,
                    LeasedEntry {
                        module,
                        expires_us: None,
                    },
                );
                return;
            }
        }
        entries.insert(
            module.uadd,
            LeasedEntry {
                module,
                expires_us: Some(expires_us),
            },
        );
    }

    /// Drops a cached entry (after an address fault).
    pub fn invalidate(&self, uadd: UAdd) {
        self.entries.write().remove(&uadd);
    }

    /// Number of cached entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }
}

/// A resolver that always fails, for modules that must work with only
/// well-known addresses (e.g. the Name Server itself).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoResolver;

impl NameResolver for NoResolver {
    fn lookup(&self, uadd: UAdd) -> Result<ResolvedModule> {
        Err(NtcsError::UnknownAddress(uadd.raw()))
    }
    fn forwarding(&self, old: UAdd) -> Result<UAdd> {
        Err(NtcsError::NoForwardingAddress(old.raw()))
    }
    fn route(&self, from_networks: &[NetworkId], _dst: UAdd) -> Result<RouteInfo> {
        Err(NtcsError::NoRoute {
            from: from_networks.first().map_or(0, |n| n.0),
            to: u32::MAX,
        })
    }
}

/// Shared resolver slot, set after the NSP-Layer comes up.
pub type ResolverSlot = Arc<RwLock<Arc<dyn NameResolver>>>;

#[cfg(test)]
mod tests {
    use super::*;

    fn phys(n: u32) -> PhysAddr {
        PhysAddr::Mbx {
            network: NetworkId(n),
            path: format!("/m{n}"),
        }
    }

    fn fresh(r: &StaticResolver, uadd: UAdd) -> ResolvedModule {
        match r.probe(uadd, u64::MAX) {
            LeaseProbe::Fresh(m) => m,
            other => panic!("{uadd} not fresh: {other:?}"),
        }
    }

    #[test]
    fn static_resolver_preload_and_probe() {
        let r = StaticResolver::new();
        assert!(r.is_empty());
        let u = UAdd::NAME_SERVER;
        r.preload(u, vec![phys(0), phys(1)], MachineType::Vax);
        let m = fresh(&r, u);
        assert_eq!(m.addrs.len(), 2);
        assert_eq!(m.addr_on(NetworkId(1)), Some(&phys(1)));
        assert_eq!(m.addr_on(NetworkId(9)), None);
        assert_eq!(m.addr_on_any(&[NetworkId(9), NetworkId(0)]), Some(&phys(0)));
    }

    #[test]
    fn cache_and_invalidate() {
        let r = StaticResolver::new();
        let m = ResolvedModule {
            uadd: UAdd::from_raw(0x1000),
            machine_type: MachineType::Sun,
            addrs: vec![phys(2)],
        };
        r.cache_leased(m.clone(), 1_000);
        assert_eq!(r.len(), 1);
        assert_eq!(r.probe(m.uadd, 0), LeaseProbe::Fresh(m.clone()));
        r.invalidate(m.uadd);
        assert_eq!(r.probe(m.uadd, 0), LeaseProbe::Miss);
    }

    #[test]
    fn leases_expire_but_preloads_do_not() {
        let r = StaticResolver::new();
        let wk = UAdd::NAME_SERVER;
        r.preload(wk, vec![phys(0)], MachineType::Sun);
        let leased = ResolvedModule {
            uadd: UAdd::from_raw(0x2000),
            machine_type: MachineType::Vax,
            addrs: vec![phys(1)],
        };
        r.cache_leased(leased.clone(), 1_000);
        let preloaded = fresh(&r, wk);
        assert_eq!(r.probe(leased.uadd, 999), LeaseProbe::Fresh(leased.clone()));
        assert_eq!(
            r.probe(leased.uadd, 1_000),
            LeaseProbe::Stale(leased.clone())
        );
        assert_eq!(r.probe(UAdd::from_raw(0x9999), 0), LeaseProbe::Miss);
        // A leased write never demotes a preload.
        r.cache_leased(preloaded.clone(), 1);
        assert_eq!(r.probe(wk, u64::MAX), LeaseProbe::Fresh(preloaded));
    }

    #[test]
    fn no_resolver_always_fails() {
        let r = NoResolver;
        assert!(r.lookup(UAdd::from_raw(5)).is_err());
        assert!(r.forwarding(UAdd::from_raw(5)).is_err());
        assert!(r.route(&[NetworkId(0)], UAdd::from_raw(5)).is_err());
    }
}
