//! The testbed world: machines, networks, fault injection, and the uniform
//! face of the native IPCSs.
//!
//! A [`World`] is the moral equivalent of the paper's machine room: a set of
//! machines of various [`MachineType`]s attached to disjoint networks, each
//! network backed by one native IPCS (mailboxes or TCP). The ND-Layer
//! drivers above call [`World::create_listener`] and [`World::connect`];
//! tests and experiments call the fault-injection methods.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ntcs_addr::{MachineId, MachineType, NetworkId, NtcsError, PhysAddr, Result};
use parking_lot::{Mutex, RwLock};

use crate::channel::{IpcsChannel, IpcsListener};
use crate::clock::{SimClock, VirtualTime};
use crate::mbx::{self, LinkCloseHandle, LinkConditions, MbxIpcs};
use crate::pool::BufferPool;
use crate::shm::{self, ShmIpcs, ShmLinkHandle};
use crate::tcp::{tcp_connect, TcpIpcsListener, TcpShared};
use crate::udp::{udp_connect, UdpIpcsListener, UdpShared};

/// The native IPCS kind backing a network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetKind {
    /// Apollo-MBX-style mailboxes (in-process).
    Mbx,
    /// Real TCP over loopback.
    Tcp,
    /// Shared-memory rings, reachable only within one machine (the
    /// co-location fast path).
    Shm,
    /// Real UDP datagrams over loopback (connectionless, best-effort).
    Udp,
}

impl std::fmt::Display for NetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            NetKind::Mbx => "mbx",
            NetKind::Tcp => "tcp",
            NetKind::Shm => "shm",
            NetKind::Udp => "udp",
        })
    }
}

/// Immutable description of a network.
#[derive(Debug, Clone)]
pub struct NetworkInfo {
    /// The network's id.
    pub id: NetworkId,
    /// The backing IPCS kind.
    pub kind: NetKind,
    /// Human-readable name.
    pub name: String,
}

/// Immutable description of a machine.
#[derive(Debug, Clone)]
pub struct MachineInfo {
    /// The machine's id.
    pub id: MachineId,
    /// Its CPU/representation type.
    pub machine_type: MachineType,
    /// Human-readable name.
    pub name: String,
    /// Networks it is attached to.
    pub networks: Vec<NetworkId>,
}

struct NetworkState {
    info: NetworkInfo,
    conditions: Arc<LinkConditions>,
}

struct MachineState {
    info: MachineInfo,
    alive: AtomicBool,
    clock: SimClock,
    mbx_links: Mutex<Vec<LinkCloseHandle>>,
    tcp_links: Mutex<Vec<Arc<TcpShared>>>,
    shm_links: Mutex<Vec<ShmLinkHandle>>,
    udp_links: Mutex<Vec<Arc<UdpShared>>>,
    listeners: Mutex<Vec<Arc<dyn IpcsListener>>>,
    tcp_listeners: Mutex<Vec<Arc<TcpIpcsListener>>>,
    udp_listeners: Mutex<Vec<Arc<UdpIpcsListener>>>,
}

struct WorldInner {
    epoch: Instant,
    /// When set, every machine clock reads this shared timebase instead of
    /// wall time — the deterministic-simulation mode.
    virtual_time: Option<Arc<VirtualTime>>,
    networks: RwLock<Vec<NetworkState>>,
    machines: RwLock<Vec<Arc<MachineState>>>,
    mbx: MbxIpcs,
    shm: ShmIpcs,
    /// Normalized (low, high) machine pairs currently partitioned.
    partitions: RwLock<std::collections::HashSet<(u32, u32)>>,
    /// TCP port → (owner machine, network), so connects can be validated and
    /// refused fast after a crash.
    tcp_ports: RwLock<HashMap<u16, (MachineId, NetworkId)>>,
    /// UDP port → (owner machine, network); same role as `tcp_ports`.
    udp_ports: RwLock<HashMap<u16, (MachineId, NetworkId)>>,
    mbx_counter: AtomicU64,
    seed: AtomicU64,
    pool: BufferPool,
}

/// The simulated distributed environment.
///
/// Cloning yields another handle to the same world.
#[derive(Clone)]
pub struct World {
    inner: Arc<WorldInner>,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("machines", &self.inner.machines.read().len())
            .field("networks", &self.inner.networks.read().len())
            .finish()
    }
}

impl Default for World {
    fn default() -> Self {
        Self::new()
    }
}

fn norm_pair(a: MachineId, b: MachineId) -> (u32, u32) {
    if a.0 <= b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

impl World {
    /// Creates an empty world.
    #[must_use]
    pub fn new() -> Self {
        Self::build(None)
    }

    /// Creates an empty world on a shared [`VirtualTime`] timebase: every
    /// machine clock added to it reads simulated microseconds that advance
    /// only when the simulation driver says so. Timestamps recorded under
    /// this world (hop records, breaker transitions, histograms) are a
    /// pure function of the driver's schedule — the substrate for
    /// same-seed replays.
    #[must_use]
    pub fn new_virtual() -> Self {
        Self::build(Some(Arc::new(VirtualTime::new())))
    }

    fn build(virtual_time: Option<Arc<VirtualTime>>) -> Self {
        World {
            inner: Arc::new(WorldInner {
                epoch: Instant::now(),
                virtual_time,
                networks: RwLock::new(Vec::new()),
                machines: RwLock::new(Vec::new()),
                mbx: MbxIpcs::new(),
                shm: ShmIpcs::new(),
                partitions: RwLock::new(std::collections::HashSet::new()),
                tcp_ports: RwLock::new(HashMap::new()),
                udp_ports: RwLock::new(HashMap::new()),
                mbx_counter: AtomicU64::new(0),
                seed: AtomicU64::new(0x5EED),
                pool: BufferPool::new(),
            }),
        }
    }

    /// The shared testbed epoch all clocks measure from.
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.inner.epoch
    }

    /// The shared virtual timebase, when this is a [`World::new_virtual`]
    /// world (`None` for wall-clock worlds).
    #[must_use]
    pub fn virtual_time(&self) -> Option<Arc<VirtualTime>> {
        self.inner.virtual_time.clone()
    }

    /// Adds a network backed by the given IPCS kind.
    pub fn add_network(&self, kind: NetKind, name: &str) -> NetworkId {
        let mut nets = self.inner.networks.write();
        let id = NetworkId(nets.len() as u32);
        let seed = self.inner.seed.fetch_add(1, Ordering::Relaxed);
        nets.push(NetworkState {
            info: NetworkInfo {
                id,
                kind,
                name: name.to_owned(),
            },
            conditions: Arc::new(LinkConditions::new(seed)),
        });
        id
    }

    /// Adds a machine with a perfect clock.
    ///
    /// # Errors
    ///
    /// Returns [`NtcsError::InvalidArgument`] if a network id is unknown or
    /// the machine is attached to no network.
    pub fn add_machine(
        &self,
        machine_type: MachineType,
        name: &str,
        networks: &[NetworkId],
    ) -> Result<MachineId> {
        self.add_machine_with_skew(machine_type, name, networks, 0, 0.0)
    }

    /// Adds a machine whose clock is skewed by `offset_us` microseconds and
    /// drifts by `drift_ppm` parts-per-million.
    ///
    /// # Errors
    ///
    /// Returns [`NtcsError::InvalidArgument`] if a network id is unknown or
    /// the machine is attached to no network.
    pub fn add_machine_with_skew(
        &self,
        machine_type: MachineType,
        name: &str,
        networks: &[NetworkId],
        offset_us: i64,
        drift_ppm: f64,
    ) -> Result<MachineId> {
        if networks.is_empty() {
            return Err(NtcsError::InvalidArgument(format!(
                "machine {name:?} must attach to at least one network"
            )));
        }
        {
            let nets = self.inner.networks.read();
            for n in networks {
                if n.0 as usize >= nets.len() {
                    return Err(NtcsError::InvalidArgument(format!("unknown network {n}")));
                }
            }
        }
        let mut machines = self.inner.machines.write();
        let id = MachineId(machines.len() as u32);
        machines.push(Arc::new(MachineState {
            info: MachineInfo {
                id,
                machine_type,
                name: name.to_owned(),
                networks: networks.to_vec(),
            },
            alive: AtomicBool::new(true),
            clock: match &self.inner.virtual_time {
                Some(t) => SimClock::new_virtual(Arc::clone(t), offset_us, drift_ppm),
                None => SimClock::new(self.inner.epoch, offset_us, drift_ppm),
            },
            mbx_links: Mutex::new(Vec::new()),
            tcp_links: Mutex::new(Vec::new()),
            shm_links: Mutex::new(Vec::new()),
            udp_links: Mutex::new(Vec::new()),
            listeners: Mutex::new(Vec::new()),
            tcp_listeners: Mutex::new(Vec::new()),
            udp_listeners: Mutex::new(Vec::new()),
        }));
        Ok(id)
    }

    fn machine(&self, m: MachineId) -> Result<Arc<MachineState>> {
        self.inner
            .machines
            .read()
            .get(m.0 as usize)
            .cloned()
            .ok_or_else(|| NtcsError::InvalidArgument(format!("unknown machine {m}")))
    }

    fn network_state(&self, n: NetworkId) -> Result<(NetworkInfo, Arc<LinkConditions>)> {
        let nets = self.inner.networks.read();
        let s = nets
            .get(n.0 as usize)
            .ok_or_else(|| NtcsError::InvalidArgument(format!("unknown network {n}")))?;
        Ok((s.info.clone(), Arc::clone(&s.conditions)))
    }

    /// Info about a machine.
    ///
    /// # Errors
    ///
    /// Returns [`NtcsError::InvalidArgument`] for an unknown id.
    pub fn machine_info(&self, m: MachineId) -> Result<MachineInfo> {
        Ok(self.machine(m)?.info.clone())
    }

    /// Info about a network.
    ///
    /// # Errors
    ///
    /// Returns [`NtcsError::InvalidArgument`] for an unknown id.
    pub fn network_info(&self, n: NetworkId) -> Result<NetworkInfo> {
        Ok(self.network_state(n)?.0)
    }

    /// All networks, in id order.
    #[must_use]
    pub fn networks(&self) -> Vec<NetworkInfo> {
        self.inner
            .networks
            .read()
            .iter()
            .map(|s| s.info.clone())
            .collect()
    }

    /// All machines, in id order.
    #[must_use]
    pub fn machines(&self) -> Vec<MachineInfo> {
        self.inner
            .machines
            .read()
            .iter()
            .map(|s| s.info.clone())
            .collect()
    }

    /// The machine's representation type.
    ///
    /// # Errors
    ///
    /// Returns [`NtcsError::InvalidArgument`] for an unknown id.
    pub fn machine_type(&self, m: MachineId) -> Result<MachineType> {
        Ok(self.machine(m)?.info.machine_type)
    }

    /// The machine's clock.
    ///
    /// # Errors
    ///
    /// Returns [`NtcsError::InvalidArgument`] for an unknown id.
    pub fn clock(&self, m: MachineId) -> Result<SimClock> {
        Ok(self.machine(m)?.clock.clone())
    }

    /// Whether the machine is alive.
    #[must_use]
    pub fn is_alive(&self, m: MachineId) -> bool {
        self.machine(m)
            .map(|s| s.alive.load(Ordering::SeqCst))
            .unwrap_or(false)
    }

    /// The in-process mailbox IPCS (test hook).
    #[must_use]
    pub fn mbx(&self) -> &MbxIpcs {
        &self.inner.mbx
    }

    /// The world-wide frame buffer pool. All channels and the Nucleus data
    /// plane lease encode and receive blocks from here.
    #[must_use]
    pub fn buffer_pool(&self) -> BufferPool {
        self.inner.pool.clone()
    }

    fn check_attached(&self, state: &MachineState, n: NetworkId) -> Result<()> {
        if state.info.networks.contains(&n) {
            Ok(())
        } else {
            Err(NtcsError::Unsupported(format!(
                "machine {} is not attached to {n}",
                state.info.name
            )))
        }
    }

    /// Drops `state`'s closed listeners and their port entries: a module
    /// that relocates or shuts down closes its listeners, and the machine
    /// keeps only live ones once it registers its next. A closed TCP/UDP
    /// listener stays while a channel it accepted is still open, since
    /// crash and partition injection reach the channel through it.
    fn forget_closed_listeners(&self, state: &MachineState) {
        state.listeners.lock().retain(|l| !l.is_closed());
        let mut ports = self.inner.tcp_ports.write();
        state.tcp_listeners.lock().retain(|l| {
            let keep = !l.is_closed() || l.accepted.lock().iter().any(|c| !c.is_closed());
            if !keep {
                // The bound port; only unreadable if the socket is broken.
                if let Ok(port) = l.port() {
                    ports.remove(&port);
                }
            }
            keep
        });
        drop(ports);
        let mut ports = self.inner.udp_ports.write();
        state.udp_listeners.lock().retain(|l| {
            let keep = !l.is_closed() || l.accepted.lock().iter().any(|c| !c.is_closed());
            if !keep {
                ports.remove(&l.port());
            }
            keep
        });
    }

    /// Whether `owner`'s TCP listener on `port` has been closed.
    fn tcp_listener_closed(&self, owner: MachineId, port: u16) -> bool {
        self.machine(owner).is_ok_and(|state| {
            state
                .tcp_listeners
                .lock()
                .iter()
                .any(|l| l.is_closed() && l.port().ok() == Some(port))
        })
    }

    /// Creates a listening communication resource for `machine` on
    /// `network` — an MBX server mailbox or a bound TCP port (§3.2: "the
    /// module creates any necessary communication resources").
    ///
    /// Returns the physical address peers dial, and the listener.
    ///
    /// # Errors
    ///
    /// Fails if the machine is dead, unknown, or not attached to `network`,
    /// or if the substrate cannot allocate the resource.
    pub fn create_listener(
        &self,
        machine: MachineId,
        network: NetworkId,
        hint: &str,
    ) -> Result<(PhysAddr, Arc<dyn IpcsListener>)> {
        let state = self.machine(machine)?;
        if !state.alive.load(Ordering::SeqCst) {
            return Err(NtcsError::ShutDown);
        }
        self.check_attached(&state, network)?;
        self.forget_closed_listeners(&state);
        let (info, conditions) = self.network_state(network)?;
        match info.kind {
            NetKind::Mbx => {
                let n = self.inner.mbx_counter.fetch_add(1, Ordering::Relaxed);
                let path = format!("/sys/mbx/{hint}-{n}");
                let listener = Arc::new(self.inner.mbx.create_mailbox(network, &path, machine)?);
                state.listeners.lock().push(listener.clone());
                Ok((PhysAddr::Mbx { network, path }, listener))
            }
            NetKind::Tcp => {
                let listener = Arc::new(TcpIpcsListener::bind(
                    network,
                    machine,
                    conditions,
                    self.inner.pool.clone(),
                )?);
                let port = listener.port()?;
                self.inner
                    .tcp_ports
                    .write()
                    .insert(port, (machine, network));
                state.tcp_listeners.lock().push(listener.clone());
                state.listeners.lock().push(listener.clone());
                Ok((
                    PhysAddr::Tcp {
                        network,
                        host: "127.0.0.1".into(),
                        port,
                    },
                    listener,
                ))
            }
            NetKind::Shm => {
                let n = self.inner.mbx_counter.fetch_add(1, Ordering::Relaxed);
                let path = format!("/sys/shm/{hint}-{n}");
                let listener = Arc::new(self.inner.shm.create_ring(network, &path, machine)?);
                state.listeners.lock().push(listener.clone());
                Ok((PhysAddr::Shm { network, path }, listener))
            }
            NetKind::Udp => {
                let listener = Arc::new(UdpIpcsListener::bind(
                    network,
                    machine,
                    conditions,
                    self.inner.pool.clone(),
                )?);
                let port = listener.port();
                self.inner
                    .udp_ports
                    .write()
                    .insert(port, (machine, network));
                state.udp_listeners.lock().push(listener.clone());
                state.listeners.lock().push(listener.clone());
                Ok((
                    PhysAddr::Udp {
                        network,
                        host: "127.0.0.1".into(),
                        port,
                    },
                    listener,
                ))
            }
        }
    }

    /// Opens a channel from `from` to the resource at `addr`.
    ///
    /// # Errors
    ///
    /// Fails if the caller is dead or not attached to the address's network,
    /// if the target is dead, partitioned from the caller, or not listening.
    pub fn connect(&self, from: MachineId, addr: &PhysAddr) -> Result<Box<dyn IpcsChannel>> {
        let state = self.machine(from)?;
        if !state.alive.load(Ordering::SeqCst) {
            return Err(NtcsError::ShutDown);
        }
        let network = addr.network();
        self.check_attached(&state, network)?;
        let (info, conditions) = self.network_state(network)?;
        match (info.kind, addr) {
            (NetKind::Mbx, PhysAddr::Mbx { path, .. }) => {
                let chan = self.inner.mbx.connect(network, path, from, conditions)?;
                let (a, b) = chan.machines();
                if self.is_partitioned(a, b) {
                    chan.close();
                    return Err(NtcsError::ConnectRefused(format!(
                        "{a} and {b} are partitioned"
                    )));
                }
                if !self.is_alive(b) {
                    chan.close();
                    return Err(NtcsError::ConnectRefused(format!("{b} is down")));
                }
                let handle = chan.shared_close_handle();
                self.register_mbx_link(a, handle.clone());
                self.register_mbx_link(b, handle);
                Ok(Box::new(chan))
            }
            (NetKind::Tcp, PhysAddr::Tcp { host, port, .. }) => {
                let (owner, owner_net) =
                    *self.inner.tcp_ports.read().get(port).ok_or_else(|| {
                        NtcsError::ConnectRefused(format!("nothing listening on port {port}"))
                    })?;
                if owner_net != network {
                    return Err(NtcsError::ConnectRefused(format!(
                        "port {port} belongs to {owner_net}, not {network}"
                    )));
                }
                if self.is_partitioned(from, owner) {
                    return Err(NtcsError::ConnectRefused(format!(
                        "{from} and {owner} are partitioned"
                    )));
                }
                if !self.is_alive(owner) {
                    return Err(NtcsError::ConnectRefused(format!("{owner} is down")));
                }
                // A closed listener keeps its port bound while circuits it
                // accepted live on; the kernel would still queue the dial,
                // and the handshake would wait out its timeout.
                if self.tcp_listener_closed(owner, *port) {
                    return Err(NtcsError::ConnectRefused(format!(
                        "listener on port {port} is closed"
                    )));
                }
                let chan = tcp_connect(
                    host,
                    *port,
                    network,
                    from,
                    owner,
                    conditions,
                    self.inner.pool.clone(),
                )?;
                {
                    let mut links = state.tcp_links.lock();
                    links.retain(|l| !l.is_closed());
                    links.push(chan.shared_handle());
                }
                Ok(Box::new(chan))
            }
            (NetKind::Shm, PhysAddr::Shm { path, .. }) => {
                // `ShmIpcs::connect` refuses any dial from a machine other
                // than the ring's owner — shared memory does not cross
                // machine boundaries, and the ND layer leans on that refusal
                // to fall back to a network substrate.
                let chan = self.inner.shm.connect(
                    network,
                    path,
                    from,
                    conditions,
                    self.inner.pool.clone(),
                )?;
                self.register_shm_link(from, chan.shared_close_handle());
                Ok(Box::new(chan))
            }
            (NetKind::Udp, PhysAddr::Udp { host, port, .. }) => {
                let (owner, owner_net) =
                    *self.inner.udp_ports.read().get(port).ok_or_else(|| {
                        NtcsError::ConnectRefused(format!("nothing listening on udp port {port}"))
                    })?;
                if owner_net != network {
                    return Err(NtcsError::ConnectRefused(format!(
                        "udp port {port} belongs to {owner_net}, not {network}"
                    )));
                }
                if self.is_partitioned(from, owner) {
                    return Err(NtcsError::ConnectRefused(format!(
                        "{from} and {owner} are partitioned"
                    )));
                }
                if !self.is_alive(owner) {
                    return Err(NtcsError::ConnectRefused(format!("{owner} is down")));
                }
                let chan = udp_connect(
                    host,
                    *port,
                    network,
                    from,
                    owner,
                    conditions,
                    self.inner.pool.clone(),
                )?;
                {
                    let mut links = state.udp_links.lock();
                    links.retain(|l| !l.is_closed());
                    links.push(chan.shared_handle());
                }
                Ok(Box::new(chan))
            }
            _ => Err(NtcsError::InvalidArgument(format!(
                "address {addr} does not match network kind {}",
                info.kind
            ))),
        }
    }

    /// Per-link queue depths for every live MBX link, as
    /// `((machine_a, machine_b), queued_bytes, peak_bytes)` — the
    /// flow-control experiments assert the peak stays under the credit
    /// window at every hop. Links are deduplicated (each is registered on
    /// both endpoint machines).
    #[must_use]
    pub fn mbx_link_backlogs(&self) -> Vec<((MachineId, MachineId), u64, u64)> {
        let mut seen: Vec<LinkCloseHandle> = Vec::new();
        let mut out = Vec::new();
        for state in self.inner.machines.read().iter() {
            for l in state.mbx_links.lock().iter() {
                if seen.iter().any(|s| Arc::ptr_eq(s, l)) {
                    continue;
                }
                seen.push(Arc::clone(l));
                out.push((
                    mbx::link_machines(l),
                    mbx::link_queued_bytes(l),
                    mbx::link_peak_bytes(l),
                ));
            }
        }
        out
    }

    fn register_mbx_link(&self, m: MachineId, h: LinkCloseHandle) {
        if let Ok(state) = self.machine(m) {
            let mut links = state.mbx_links.lock();
            links.retain(|l| !mbx::link_is_closed(l));
            links.push(h);
        }
    }

    fn register_shm_link(&self, m: MachineId, h: ShmLinkHandle) {
        if let Ok(state) = self.machine(m) {
            let mut links = state.shm_links.lock();
            links.retain(|l| !shm::shm_link_is_closed(l));
            links.push(h);
        }
    }

    /// Whether `a` and `b` are currently partitioned.
    #[must_use]
    pub fn is_partitioned(&self, a: MachineId, b: MachineId) -> bool {
        self.inner.partitions.read().contains(&norm_pair(a, b))
    }

    /// Installs or heals a pairwise partition. Installing one severs every
    /// existing link between the pair.
    pub fn set_partition(&self, a: MachineId, b: MachineId, partitioned: bool) {
        let pair = norm_pair(a, b);
        if partitioned {
            self.inner.partitions.write().insert(pair);
            for m in [a, b] {
                if let Ok(state) = self.machine(m) {
                    for l in state.mbx_links.lock().iter() {
                        let (x, y) = mbx::link_machines(l);
                        if norm_pair(x, y) == pair {
                            mbx::close_link(l);
                        }
                    }
                    for l in state.tcp_links.lock().iter() {
                        if norm_pair(l.machines.0, l.machines.1) == pair {
                            l.force_close();
                        }
                    }
                    for listener in state.tcp_listeners.lock().iter() {
                        for l in listener.accepted.lock().iter() {
                            if norm_pair(l.machines.0, l.machines.1) == pair {
                                l.force_close();
                            }
                        }
                    }
                    // SHM links never span machines, so a partition cannot
                    // match one; UDP links and accepted server ends can.
                    for l in state.udp_links.lock().iter() {
                        if norm_pair(l.machines.0, l.machines.1) == pair {
                            l.force_close();
                        }
                    }
                    for listener in state.udp_listeners.lock().iter() {
                        for l in listener.accepted.lock().iter() {
                            if norm_pair(l.machines.0, l.machines.1) == pair {
                                l.force_close();
                            }
                        }
                    }
                }
            }
        } else {
            self.inner.partitions.write().remove(&pair);
        }
    }

    /// Installs a *group* partition — the split-brain generalisation of
    /// [`World::set_partition`]. Machines in different groups are
    /// pairwise partitioned (existing links severed, new connections
    /// refused); machines in the same group still talk. Machines in no
    /// group are untouched. Installing a group partition replaces nothing:
    /// it composes with any pairwise partitions already in force.
    ///
    /// `set_partition_groups(&[&[a, b], &[c, d]])` yields {A,B} vs {C,D}:
    /// a↮c, a↮d, b↮c, b↮d, while a↔b and c↔d keep flowing.
    pub fn set_partition_groups(&self, groups: &[&[MachineId]]) {
        for (i, ga) in groups.iter().enumerate() {
            for gb in &groups[i + 1..] {
                for &a in ga.iter() {
                    for &b in gb.iter() {
                        self.set_partition(a, b, true);
                    }
                }
            }
        }
    }

    /// Heals *every* partition currently in force — pairwise or
    /// group-installed.
    pub fn heal_all_partitions(&self) {
        let pairs: Vec<(u32, u32)> = self.inner.partitions.read().iter().copied().collect();
        for (a, b) in pairs {
            self.set_partition(MachineId(a), MachineId(b), false);
        }
    }

    /// The partitioned machine pairs currently in force (normalized, in
    /// no particular order) — a chaos-harness observability hook.
    #[must_use]
    pub fn partitioned_pairs(&self) -> Vec<(MachineId, MachineId)> {
        self.inner
            .partitions
            .read()
            .iter()
            .map(|&(a, b)| (MachineId(a), MachineId(b)))
            .collect()
    }

    /// Crashes a machine: all its listeners and links fail, and new
    /// connections to or from it are refused. This is the paper's "module
    /// death … detected by the ND-layer in any connected module" (§4.3),
    /// applied to a whole machine.
    pub fn crash(&self, m: MachineId) {
        let Ok(state) = self.machine(m) else { return };
        if !state.alive.swap(false, Ordering::SeqCst) {
            return;
        }
        for l in state.listeners.lock().drain(..) {
            l.close();
        }
        {
            let mut ports = self.inner.tcp_ports.write();
            ports.retain(|_, (owner, _)| *owner != m);
        }
        {
            let mut ports = self.inner.udp_ports.write();
            ports.retain(|_, (owner, _)| *owner != m);
        }
        for l in state.mbx_links.lock().drain(..) {
            mbx::close_link(&l);
        }
        for l in state.tcp_links.lock().drain(..) {
            l.force_close();
        }
        for l in state.shm_links.lock().drain(..) {
            shm::close_shm_link(&l);
        }
        for l in state.udp_links.lock().drain(..) {
            l.force_close();
        }
        for listener in state.tcp_listeners.lock().drain(..) {
            for l in listener.accepted.lock().drain(..) {
                l.force_close();
            }
        }
        for listener in state.udp_listeners.lock().drain(..) {
            listener.force_close_accepted();
        }
        // UDP is connectionless: a dead peer produces silence, not a socket
        // teardown, so the world severs the surviving end of each link too.
        for other in self.inner.machines.read().iter() {
            for l in other.udp_links.lock().iter() {
                if l.machines.0 == m || l.machines.1 == m {
                    l.force_close();
                }
            }
        }
    }

    /// Marks a crashed machine alive again (its old resources stay dead; the
    /// DRTS process controller restarts modules on it).
    pub fn revive(&self, m: MachineId) {
        if let Ok(state) = self.machine(m) {
            state.alive.store(true, Ordering::SeqCst);
        }
    }

    /// Sets one-way latency for every link on a network.
    ///
    /// # Errors
    ///
    /// Returns [`NtcsError::InvalidArgument`] for an unknown network.
    pub fn set_latency(&self, n: NetworkId, latency: Duration) -> Result<()> {
        let (_, c) = self.network_state(n)?;
        c.latency_us
            .store(latency.as_micros() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Sets the frame-drop probability for a network, in per-mille
    /// (0–1000 ‰; values above 1000 clamp to total loss).
    ///
    /// # Errors
    ///
    /// Returns [`NtcsError::InvalidArgument`] for an unknown network.
    pub fn set_drop_permille(&self, n: NetworkId, permille: u32) -> Result<()> {
        let (_, c) = self.network_state(n)?;
        c.drop_permille.store(permille.min(1000), Ordering::Relaxed);
        Ok(())
    }

    /// Arms deterministic loss on a network: the next `count` frames sent on
    /// it (any link, either direction) vanish silently, bypassing the
    /// probabilistic roll. Chaos/test hook for dropping one specific frame —
    /// e.g. exactly the delivery acknowledgement of a reliable send.
    ///
    /// # Errors
    ///
    /// Returns [`NtcsError::InvalidArgument`] for an unknown network.
    pub fn drop_next_frames(&self, n: NetworkId, count: u32) -> Result<()> {
        let (_, c) = self.network_state(n)?;
        c.drop_next.store(count, Ordering::Relaxed);
        Ok(())
    }

    /// Arms deterministic *duplication* on an MBX network: each of the next
    /// `count` frames sent on it is delivered twice, back to back — the
    /// fault-matrix probe for duplicated control frames (credit grants,
    /// delivery acks) whose handlers must be idempotent.
    ///
    /// # Errors
    ///
    /// Returns [`NtcsError::InvalidArgument`] for an unknown network.
    pub fn dup_next_frames(&self, n: NetworkId, count: u32) -> Result<()> {
        let (_, c) = self.network_state(n)?;
        c.dup_next.store(count, Ordering::Relaxed);
        Ok(())
    }

    /// Arms deterministic *reordering* on an MBX network: `count` times, a
    /// frame is held back and delivered after its successor on the same
    /// link — adjacent-pair swaps, the fault-matrix probe for control
    /// frames arriving out of order. A held frame with no successor is
    /// lost when its link closes, like any frame in flight at close.
    ///
    /// # Errors
    ///
    /// Returns [`NtcsError::InvalidArgument`] for an unknown network.
    pub fn reorder_next_frames(&self, n: NetworkId, count: u32) -> Result<()> {
        let (_, c) = self.network_state(n)?;
        c.reorder_next.store(count, Ordering::Relaxed);
        Ok(())
    }

    /// Arms deterministic *corruption* on a network: each of the next
    /// `count` frames sent on it has one byte flipped in flight. Substrates
    /// with per-frame integrity checks (UDP checksums) discard the frame —
    /// indistinguishable from loss — while raw in-memory substrates deliver
    /// the garbled bytes to the codec layer above.
    ///
    /// # Errors
    ///
    /// Returns [`NtcsError::InvalidArgument`] for an unknown network.
    pub fn corrupt_next_frames(&self, n: NetworkId, count: u32) -> Result<()> {
        let (_, c) = self.network_state(n)?;
        c.corrupt_next.store(count, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn two_machine_world(kind: NetKind) -> (World, MachineId, MachineId, NetworkId) {
        let w = World::new();
        let net = w.add_network(kind, "lab");
        let a = w.add_machine(MachineType::Vax, "vax1", &[net]).unwrap();
        let b = w.add_machine(MachineType::Sun, "sun1", &[net]).unwrap();
        (w, a, b, net)
    }

    fn ping(w: &World, from: MachineId, to: MachineId, net: NetworkId) -> Result<()> {
        let (addr, listener) = w.create_listener(to, net, "svc")?;
        let w2 = w.clone();
        let t = std::thread::spawn(move || -> Result<Bytes> {
            let chan = w2.connect(from, &addr)?;
            chan.send(Bytes::from_static(b"hi"))?;
            chan.recv(Some(Duration::from_secs(2)))
        });
        let server = listener.accept(Some(Duration::from_secs(2)))?;
        let m = server.recv(Some(Duration::from_secs(2)))?;
        server.send(m)?;
        let got = t.join().unwrap()?;
        assert_eq!(got, Bytes::from_static(b"hi"));
        Ok(())
    }

    #[test]
    fn mbx_end_to_end() {
        let (w, a, b, net) = two_machine_world(NetKind::Mbx);
        ping(&w, a, b, net).unwrap();
    }

    #[test]
    fn tcp_end_to_end() {
        let (w, a, b, net) = two_machine_world(NetKind::Tcp);
        ping(&w, a, b, net).unwrap();
    }

    #[test]
    fn shm_end_to_end_colocated() {
        // Shared memory only spans one machine: dial the ring from its owner.
        let (w, _a, b, net) = two_machine_world(NetKind::Shm);
        ping(&w, b, b, net).unwrap();
    }

    #[test]
    fn shm_cross_machine_connect_is_refused() {
        let (w, a, b, net) = two_machine_world(NetKind::Shm);
        let (addr, _l) = w.create_listener(b, net, "svc").unwrap();
        let err = w.connect(a, &addr).unwrap_err();
        assert!(matches!(err, NtcsError::ConnectRefused(_)), "{err}");
    }

    #[test]
    fn udp_end_to_end() {
        let (w, a, b, net) = two_machine_world(NetKind::Udp);
        ping(&w, a, b, net).unwrap();
    }

    #[test]
    fn udp_crash_refuses_and_severs() {
        let (w, a, b, net) = two_machine_world(NetKind::Udp);
        let (addr, listener) = w.create_listener(b, net, "svc").unwrap();
        let w2 = w.clone();
        let addr2 = addr.clone();
        let t = std::thread::spawn(move || w2.connect(a, &addr2).unwrap());
        let server = listener.accept(Some(Duration::from_secs(2))).unwrap();
        let chan = t.join().unwrap();
        chan.send(Bytes::from_static(b"pre")).unwrap();
        assert_eq!(
            server.recv(Some(Duration::from_secs(2))).unwrap(),
            Bytes::from_static(b"pre")
        );
        w.crash(b);
        let got = chan.recv(Some(Duration::from_secs(2)));
        assert!(matches!(got, Err(NtcsError::ConnectionClosed)), "{got:?}");
        let err = w.connect(a, &addr).unwrap_err();
        assert!(matches!(err, NtcsError::ConnectRefused(_)), "{err}");
    }

    #[test]
    fn udp_partition_severs_existing_links() {
        let (w, a, b, net) = two_machine_world(NetKind::Udp);
        let (addr, listener) = w.create_listener(b, net, "svc").unwrap();
        let w2 = w.clone();
        let t = std::thread::spawn(move || w2.connect(a, &addr).unwrap());
        let server = listener.accept(Some(Duration::from_secs(2))).unwrap();
        let chan = t.join().unwrap();
        w.set_partition(a, b, true);
        drop(server);
        assert!(matches!(
            chan.recv(Some(Duration::from_secs(2))),
            Err(NtcsError::ConnectionClosed)
        ));
    }

    #[test]
    fn corrupt_next_frames_loses_checksummed_udp_message() {
        let (w, a, b, net) = two_machine_world(NetKind::Udp);
        let (addr, listener) = w.create_listener(b, net, "svc").unwrap();
        let w2 = w.clone();
        let t = std::thread::spawn(move || w2.connect(a, &addr).unwrap());
        let server = listener.accept(Some(Duration::from_secs(2))).unwrap();
        let chan = t.join().unwrap();
        w.corrupt_next_frames(net, 1).unwrap();
        chan.send(Bytes::from_static(b"garbled")).unwrap();
        chan.send(Bytes::from_static(b"clean")).unwrap();
        // The corrupted datagram fails its checksum and is discarded; the
        // next message flows through untouched.
        assert_eq!(
            server.recv(Some(Duration::from_secs(2))).unwrap(),
            Bytes::from_static(b"clean")
        );
        assert!(w.corrupt_next_frames(NetworkId(77), 1).is_err());
    }

    #[test]
    fn machine_must_attach_to_some_network() {
        let w = World::new();
        assert!(w.add_machine(MachineType::Vax, "lonely", &[]).is_err());
        assert!(w
            .add_machine(MachineType::Vax, "ghostnet", &[NetworkId(9)])
            .is_err());
    }

    #[test]
    fn cannot_use_unattached_network() {
        let w = World::new();
        let n1 = w.add_network(NetKind::Mbx, "n1");
        let n2 = w.add_network(NetKind::Mbx, "n2");
        let a = w.add_machine(MachineType::Vax, "a", &[n1]).unwrap();
        let b = w.add_machine(MachineType::Sun, "b", &[n2]).unwrap();
        assert!(w.create_listener(a, n2, "x").is_err());
        let (addr, _l) = w.create_listener(b, n2, "svc").unwrap();
        assert!(w.connect(a, &addr).is_err());
    }

    #[test]
    fn crash_refuses_new_connections() {
        let (w, a, b, net) = two_machine_world(NetKind::Mbx);
        let (addr, _l) = w.create_listener(b, net, "svc").unwrap();
        w.crash(b);
        assert!(!w.is_alive(b));
        let err = w.connect(a, &addr).unwrap_err();
        assert!(matches!(err, NtcsError::ConnectRefused(_)), "{err}");
    }

    #[test]
    fn crash_severs_existing_mbx_links() {
        let (w, a, b, net) = two_machine_world(NetKind::Mbx);
        let (addr, listener) = w.create_listener(b, net, "svc").unwrap();
        let chan = w.connect(a, &addr).unwrap();
        let _server = listener.accept(Some(Duration::from_secs(1))).unwrap();
        w.crash(b);
        let got = chan.recv(Some(Duration::from_secs(1)));
        assert!(matches!(got, Err(NtcsError::ConnectionClosed)), "{got:?}");
    }

    #[test]
    fn crash_severs_existing_tcp_links() {
        let (w, a, b, net) = two_machine_world(NetKind::Tcp);
        let (addr, listener) = w.create_listener(b, net, "svc").unwrap();
        let w2 = w.clone();
        let t = std::thread::spawn(move || w2.connect(a, &addr).unwrap());
        let server = listener.accept(Some(Duration::from_secs(2))).unwrap();
        let chan = t.join().unwrap();
        w.crash(b);
        drop(server);
        let got = chan.recv(Some(Duration::from_secs(2)));
        assert!(matches!(got, Err(NtcsError::ConnectionClosed)), "{got:?}");
    }

    #[test]
    fn closed_tcp_and_udp_links_are_not_retained() {
        const CYCLES: usize = 200;
        let open_fds = || std::fs::read_dir("/proc/self/fd").ok().map(Iterator::count);
        for kind in [NetKind::Tcp, NetKind::Udp] {
            let (w, a, b, net) = two_machine_world(kind);
            let (addr, listener) = w.create_listener(b, net, "svc").unwrap();
            let cycle = || {
                let (w2, addr2) = (w.clone(), addr.clone());
                let t = std::thread::spawn(move || w2.connect(a, &addr2).unwrap());
                let server = listener.accept(Some(Duration::from_secs(2))).unwrap();
                let client = t.join().unwrap();
                client.close();
                server.close();
            };
            cycle();
            let before = open_fds();
            for _ in 0..CYCLES {
                cycle();
            }
            let after = open_fds();
            let (ma, mb) = (w.machine(a).unwrap(), w.machine(b).unwrap());
            let retained = ma.tcp_links.lock().len()
                + ma.udp_links.lock().len()
                + mb.tcp_listeners
                    .lock()
                    .iter()
                    .map(|l| l.accepted.lock().len())
                    .sum::<usize>()
                + mb.udp_listeners
                    .lock()
                    .iter()
                    .map(|l| l.accepted.lock().len())
                    .sum::<usize>();
            assert!(retained <= 2, "{kind}: {retained} handles retained");
            // Other tests in this process open sockets too, so allow slack,
            // but far less than the one descriptor per cycle a leak costs.
            if let (Some(before), Some(after)) = (before, after) {
                assert!(
                    after < before + CYCLES / 4,
                    "{kind}: open fds {before} -> {after} over {CYCLES} cycles"
                );
            }
        }
    }

    #[test]
    fn closed_listeners_are_not_retained() {
        const CYCLES: usize = 100;
        let open_fds = || std::fs::read_dir("/proc/self/fd").ok().map(Iterator::count);
        for kind in [NetKind::Tcp, NetKind::Udp, NetKind::Mbx, NetKind::Shm] {
            let (w, _, b, net) = two_machine_world(kind);
            let cycle = || w.create_listener(b, net, "svc").unwrap().1.close();
            cycle();
            let before = open_fds();
            for _ in 0..CYCLES {
                cycle();
            }
            let after = open_fds();
            let mb = w.machine(b).unwrap();
            let retained = mb.listeners.lock().len();
            let typed = mb.tcp_listeners.lock().len() + mb.udp_listeners.lock().len();
            assert!(retained <= 2, "{kind}: {retained} listeners retained");
            assert!(typed <= 2, "{kind}: {typed} TCP/UDP listeners retained");
            let ports = w.inner.tcp_ports.read().len() + w.inner.udp_ports.read().len();
            assert!(ports <= 2, "{kind}: {ports} port entries retained");
            if let (Some(before), Some(after)) = (before, after) {
                assert!(
                    after < before + 10,
                    "{kind}: open fds {before} -> {after} over {CYCLES} cycles"
                );
            }
        }
    }

    #[test]
    fn dial_to_a_closed_tcp_listener_is_refused() {
        // A closed listener stays bound until the machine next creates
        // one; a dial in that window must be refused at once rather than
        // queue in the kernel and wait out the handshake timeout.
        let (w, a, b, net) = two_machine_world(NetKind::Tcp);
        let (addr, listener) = w.create_listener(b, net, "svc").unwrap();
        listener.close();
        let began = Instant::now();
        let dialed = w.connect(a, &addr);
        assert!(matches!(dialed, Err(NtcsError::ConnectRefused(_))));
        assert!(began.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn partition_blocks_and_heals() {
        let (w, a, b, net) = two_machine_world(NetKind::Mbx);
        let (addr, _l) = w.create_listener(b, net, "svc").unwrap();
        w.set_partition(a, b, true);
        assert!(w.is_partitioned(a, b));
        assert!(w.connect(a, &addr).is_err());
        w.set_partition(a, b, false);
        assert!(w.connect(a, &addr).is_ok());
    }

    #[test]
    fn partition_severs_existing_links() {
        let (w, a, b, net) = two_machine_world(NetKind::Mbx);
        let (addr, listener) = w.create_listener(b, net, "svc").unwrap();
        let chan = w.connect(a, &addr).unwrap();
        let _srv = listener.accept(Some(Duration::from_secs(1))).unwrap();
        w.set_partition(a, b, true);
        assert!(matches!(
            chan.recv(Some(Duration::from_secs(1))),
            Err(NtcsError::ConnectionClosed)
        ));
    }

    #[test]
    fn revive_allows_new_listeners() {
        let (w, _a, b, net) = two_machine_world(NetKind::Mbx);
        w.crash(b);
        assert!(w.create_listener(b, net, "svc").is_err());
        w.revive(b);
        assert!(w.create_listener(b, net, "svc").is_ok());
    }

    #[test]
    fn clock_accessors() {
        let w = World::new();
        let net = w.add_network(NetKind::Mbx, "n");
        let m = w
            .add_machine_with_skew(MachineType::Apollo, "ap", &[net], 5_000, 0.0)
            .unwrap();
        let c = w.clock(m).unwrap();
        assert!((c.raw_us() - c.true_us() - 5_000).abs() < 2_000);
        assert_eq!(w.machine_type(m).unwrap(), MachineType::Apollo);
    }

    #[test]
    fn info_queries() {
        let (w, a, _b, net) = two_machine_world(NetKind::Tcp);
        assert_eq!(w.machines().len(), 2);
        assert_eq!(w.networks().len(), 1);
        let mi = w.machine_info(a).unwrap();
        assert_eq!(mi.name, "vax1");
        assert_eq!(mi.networks, vec![net]);
        let ni = w.network_info(net).unwrap();
        assert_eq!(ni.kind, NetKind::Tcp);
    }

    #[test]
    fn tcp_port_reuse_after_crash_is_refused() {
        let (w, a, b, net) = two_machine_world(NetKind::Tcp);
        let (addr, _l) = w.create_listener(b, net, "svc").unwrap();
        w.crash(b);
        let err = w.connect(a, &addr).unwrap_err();
        assert!(matches!(err, NtcsError::ConnectRefused(_)));
    }

    #[test]
    fn total_drop_permille_loses_frames_silently() {
        let (w, a, b, net) = two_machine_world(NetKind::Mbx);
        w.set_drop_permille(net, 1000).unwrap();
        // Total loss: the frame vanishes, the channel stays healthy.
        let (addr, listener) = w.create_listener(b, net, "svc").unwrap();
        let chan = w.connect(a, &addr).unwrap();
        let server = listener.accept(Some(Duration::from_secs(2))).unwrap();
        chan.send(Bytes::from_static(b"gone")).unwrap();
        assert!(matches!(
            server.recv(Some(Duration::from_millis(50))),
            Err(NtcsError::Timeout)
        ));
        w.set_drop_permille(net, 0).unwrap();
        chan.send(Bytes::from_static(b"through")).unwrap();
        assert_eq!(
            server.recv(Some(Duration::from_secs(2))).unwrap(),
            Bytes::from_static(b"through")
        );
    }

    #[test]
    fn drop_next_frames_is_deterministic_and_self_disarming() {
        let (w, a, b, net) = two_machine_world(NetKind::Mbx);
        let (addr, listener) = w.create_listener(b, net, "svc").unwrap();
        let chan = w.connect(a, &addr).unwrap();
        let server = listener.accept(Some(Duration::from_secs(2))).unwrap();
        w.drop_next_frames(net, 2).unwrap();
        chan.send(Bytes::from_static(b"one")).unwrap();
        chan.send(Bytes::from_static(b"two")).unwrap();
        chan.send(Bytes::from_static(b"three")).unwrap();
        // Exactly the first two vanished; the hook disarmed itself.
        assert_eq!(
            server.recv(Some(Duration::from_secs(2))).unwrap(),
            Bytes::from_static(b"three")
        );
        assert!(matches!(
            server.recv(Some(Duration::from_millis(50))),
            Err(NtcsError::Timeout)
        ));
        assert!(w.drop_next_frames(NetworkId(77), 1).is_err());
    }

    #[test]
    fn dup_next_frames_delivers_twice_then_disarms() {
        let (w, a, b, net) = two_machine_world(NetKind::Mbx);
        let (addr, listener) = w.create_listener(b, net, "svc").unwrap();
        let chan = w.connect(a, &addr).unwrap();
        let server = listener.accept(Some(Duration::from_secs(2))).unwrap();
        w.dup_next_frames(net, 1).unwrap();
        chan.send(Bytes::from_static(b"dup")).unwrap();
        chan.send(Bytes::from_static(b"tail")).unwrap();
        let t = Some(Duration::from_secs(2));
        assert_eq!(server.recv(t).unwrap(), Bytes::from_static(b"dup"));
        assert_eq!(server.recv(t).unwrap(), Bytes::from_static(b"dup"));
        assert_eq!(server.recv(t).unwrap(), Bytes::from_static(b"tail"));
        assert!(matches!(
            server.recv(Some(Duration::from_millis(50))),
            Err(NtcsError::Timeout)
        ));
    }

    #[test]
    fn reorder_next_frames_swaps_adjacent_pair() {
        let (w, a, b, net) = two_machine_world(NetKind::Mbx);
        let (addr, listener) = w.create_listener(b, net, "svc").unwrap();
        let chan = w.connect(a, &addr).unwrap();
        let server = listener.accept(Some(Duration::from_secs(2))).unwrap();
        w.reorder_next_frames(net, 1).unwrap();
        chan.send(Bytes::from_static(b"first")).unwrap();
        chan.send(Bytes::from_static(b"second")).unwrap();
        chan.send(Bytes::from_static(b"third")).unwrap();
        let t = Some(Duration::from_secs(2));
        // The armed swap holds "first" until "second" passes it.
        assert_eq!(server.recv(t).unwrap(), Bytes::from_static(b"second"));
        assert_eq!(server.recv(t).unwrap(), Bytes::from_static(b"first"));
        assert_eq!(server.recv(t).unwrap(), Bytes::from_static(b"third"));
    }

    #[test]
    fn partition_groups_split_brain_and_heal_all() {
        let w = World::new();
        let net = w.add_network(NetKind::Mbx, "lab");
        let a = w.add_machine(MachineType::Vax, "a", &[net]).unwrap();
        let b = w.add_machine(MachineType::Sun, "b", &[net]).unwrap();
        let c = w.add_machine(MachineType::Apollo, "c", &[net]).unwrap();
        let d = w.add_machine(MachineType::Vax, "d", &[net]).unwrap();
        w.set_partition_groups(&[&[a, b], &[c, d]]);
        // Cross-group pairs are severed...
        for (x, y) in [(a, c), (a, d), (b, c), (b, d)] {
            assert!(w.is_partitioned(x, y), "{x} vs {y} should be cut");
        }
        // ...intra-group pairs still flow.
        assert!(!w.is_partitioned(a, b));
        assert!(!w.is_partitioned(c, d));
        ping(&w, a, b, net).unwrap();
        ping(&w, c, d, net).unwrap();
        let (addr, _l) = w.create_listener(c, net, "far").unwrap();
        assert!(w.connect(a, &addr).is_err());
        assert_eq!(w.partitioned_pairs().len(), 4);
        w.heal_all_partitions();
        assert!(w.partitioned_pairs().is_empty());
        ping(&w, a, c, net).unwrap();
    }

    #[test]
    fn virtual_world_clocks_share_the_timebase() {
        let w = World::new_virtual();
        let net = w.add_network(NetKind::Mbx, "lab");
        let a = w.add_machine(MachineType::Vax, "a", &[net]).unwrap();
        let b = w
            .add_machine_with_skew(MachineType::Sun, "b", &[net], 7_000, 0.0)
            .unwrap();
        let vt = w
            .virtual_time()
            .expect("virtual world exposes its timebase");
        assert_eq!(w.clock(a).unwrap().true_us(), 0);
        vt.advance_us(1_000_000);
        assert_eq!(w.clock(a).unwrap().true_us(), 1_000_000);
        assert_eq!(w.clock(b).unwrap().raw_us(), 1_007_000);
        // A real-time world exposes no virtual timebase.
        assert!(World::new().virtual_time().is_none());
    }
}
