//! The testbed: wires a [`World`] (machines, networks), the Name Server
//! (plus optional replicas), gateways, and application modules into a
//! running NTCS deployment.
//!
//! This is the reproduction of the paper's URSA-style deployment procedure:
//! decide the machine/network topology, start the Name Server at its
//! well-known address (§3.4), start the gateways (which register their
//! connected networks, §4.1), then bring modules up and let them register
//! and locate each other.

use std::fmt;
use std::sync::Arc;

use ntcs_addr::{MachineId, MachineType, NetworkId, NtcsError, PhysAddr, Result, UAdd};
use ntcs_gateway::Gateway;
use ntcs_ipcs::{NetKind, World};
use ntcs_naming::{NameServer, NameServerConfig, ShardMap};
use ntcs_nucleus::{FlowSettings, MetricsRegistry, NucleusConfig};
use parking_lot::RwLock;

use crate::commod::ComMod;

/// Builder for a [`Testbed`].
#[derive(Debug)]
pub struct TestbedBuilder {
    world: World,
    ns_machine: Option<MachineId>,
    replica_machines: Vec<MachineId>,
    /// Additional Name-Service shards: primary machine plus replica
    /// machines, in shard order starting at shard 1 (shard 0 is the
    /// classic primary + `replica_machines`).
    extra_shards: Vec<(MachineId, Vec<MachineId>)>,
}

impl Default for TestbedBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TestbedBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        TestbedBuilder {
            world: World::new(),
            ns_machine: None,
            replica_machines: Vec::new(),
            extra_shards: Vec::new(),
        }
    }

    /// Creates an empty builder over a *virtual-time* world: machine
    /// clocks read a shared [`ntcs_ipcs::VirtualTime`] that only the
    /// simulation driver advances. The deterministic-simulation entry
    /// point (`ntcs-sim`).
    #[must_use]
    pub fn new_virtual() -> Self {
        TestbedBuilder {
            world: World::new_virtual(),
            ns_machine: None,
            replica_machines: Vec::new(),
            extra_shards: Vec::new(),
        }
    }

    /// Adds a (disjoint) network backed by the given native IPCS.
    pub fn add_network(&mut self, kind: NetKind, name: &str) -> NetworkId {
        self.world.add_network(kind, name)
    }

    /// Adds a machine attached to the given networks.
    ///
    /// # Errors
    ///
    /// [`NtcsError::InvalidArgument`] for unknown networks or an empty list.
    pub fn add_machine(
        &mut self,
        machine_type: MachineType,
        name: &str,
        networks: &[NetworkId],
    ) -> Result<MachineId> {
        self.world.add_machine(machine_type, name, networks)
    }

    /// Adds a machine that carries its own private shared-memory network
    /// (the co-location fast path) in addition to `networks`, returning
    /// the machine and its SHM network. Modules on the machine listen on
    /// every attached network, so adaptive substrate selection rides
    /// memory-speed rings between co-located modules and falls back to
    /// the wire when a peer lives (or relocates) elsewhere.
    ///
    /// # Errors
    ///
    /// As for [`TestbedBuilder::add_machine`].
    pub fn add_colocated_machine(
        &mut self,
        machine_type: MachineType,
        name: &str,
        networks: &[NetworkId],
    ) -> Result<(MachineId, NetworkId)> {
        let shm_net = self.add_network(NetKind::Shm, &format!("{name}-shm"));
        let mut nets = vec![shm_net];
        nets.extend_from_slice(networks);
        let machine = self.add_machine(machine_type, name, &nets)?;
        Ok((machine, shm_net))
    }

    /// Adds a machine whose clock is skewed (grist for the DRTS time
    /// corrector).
    ///
    /// # Errors
    ///
    /// As for [`TestbedBuilder::add_machine`].
    pub fn add_machine_with_skew(
        &mut self,
        machine_type: MachineType,
        name: &str,
        networks: &[NetworkId],
        offset_us: i64,
        drift_ppm: f64,
    ) -> Result<MachineId> {
        self.world
            .add_machine_with_skew(machine_type, name, networks, offset_us, drift_ppm)
    }

    /// Places the primary Name Server on a machine.
    pub fn name_server_on(&mut self, machine: MachineId) -> &mut Self {
        self.ns_machine = Some(machine);
        self
    }

    /// Adds a replica Name Server on a machine (§7 replication extension).
    pub fn replica_on(&mut self, machine: MachineId) -> &mut Self {
        self.replica_machines.push(machine);
        self
    }

    /// Adds another Name-Service shard with its primary on `machine` and
    /// returns the new shard's index (shard 0 is the classic primary from
    /// [`TestbedBuilder::name_server_on`]). Names and UAdds route to their
    /// authoritative shard; modules bound by this testbed get the matching
    /// [`ShardMap`].
    pub fn ns_shard_on(&mut self, machine: MachineId) -> usize {
        self.extra_shards.push((machine, Vec::new()));
        self.extra_shards.len()
    }

    /// Adds a replica to shard `shard` (0 = the classic primary's group).
    ///
    /// # Panics
    ///
    /// Panics if `shard` has not been declared yet.
    pub fn shard_replica_on(&mut self, shard: usize, machine: MachineId) -> &mut Self {
        if shard == 0 {
            self.replica_machines.push(machine);
        } else {
            self.extra_shards[shard - 1].1.push(machine);
        }
        self
    }

    /// The world under construction (for advanced wiring).
    #[must_use]
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Starts the naming service and returns the running testbed.
    ///
    /// # Errors
    ///
    /// [`NtcsError::InvalidArgument`] if no Name-Server machine was chosen,
    /// or any spawn failure.
    pub fn start(self) -> Result<Testbed> {
        let ns_machine = self.ns_machine.ok_or_else(|| {
            NtcsError::InvalidArgument("testbed has no name-server machine".into())
        })?;
        // Replicas first (the primary replicates to them).
        let mut replicas = Vec::new();
        for (i, &m) in self.replica_machines.iter().enumerate() {
            replicas.push(NameServer::spawn(
                &self.world,
                NameServerConfig::shard_replica(m, 0, i),
            )?);
        }
        let peer_info: Vec<(UAdd, Vec<PhysAddr>)> = replicas
            .iter()
            .map(|r| (r.uadd(), r.phys_addrs()))
            .collect();
        let primary = NameServer::spawn(
            &self.world,
            NameServerConfig {
                peers: peer_info.clone(),
                ..NameServerConfig::primary(ns_machine)
            },
        )?;
        // Additional shards, each a replica group of its own.
        let mut extra_shards: Vec<(Option<NameServer>, Vec<NameServer>)> = Vec::new();
        for (idx, (pm, rms)) in self.extra_shards.iter().enumerate() {
            let shard = idx + 1;
            let mut reps = Vec::new();
            for (i, &m) in rms.iter().enumerate() {
                reps.push(NameServer::spawn(
                    &self.world,
                    NameServerConfig::shard_replica(m, shard, i),
                )?);
            }
            let peers: Vec<(UAdd, Vec<PhysAddr>)> =
                reps.iter().map(|r| (r.uadd(), r.phys_addrs())).collect();
            let p = NameServer::spawn(
                &self.world,
                NameServerConfig {
                    peers,
                    ..NameServerConfig::shard_primary(*pm, shard)
                },
            )?;
            extra_shards.push((Some(p), reps));
        }
        // Cross-shard wiring: every primary learns every other primary, so
        // gateway records replicate service-wide (§4 routes need them on
        // every shard).
        {
            let mut prims: Vec<&NameServer> = vec![&primary];
            prims.extend(extra_shards.iter().filter_map(|(p, _)| p.as_ref()));
            for a in &prims {
                for b in &prims {
                    if a.uadd() != b.uadd() {
                        a.add_cross_shard_peer(
                            b.uadd(),
                            b.nucleus().machine_type(),
                            b.phys_addrs(),
                        );
                    }
                }
            }
        }
        let mut ns_well_known = vec![(UAdd::NAME_SERVER, primary.phys_addrs())];
        ns_well_known.extend(peer_info);
        let mut ns_servers = vec![UAdd::NAME_SERVER];
        ns_servers.extend(replicas.iter().map(NameServer::uadd));
        let mut shard_groups = vec![ns_servers.clone()];
        for (p, reps) in &extra_shards {
            let p = p.as_ref().expect("just spawned");
            ns_well_known.push((p.uadd(), p.phys_addrs()));
            ns_well_known.extend(reps.iter().map(|r| (r.uadd(), r.phys_addrs())));
            let mut group = vec![p.uadd()];
            group.extend(reps.iter().map(NameServer::uadd));
            shard_groups.push(group);
        }
        let registry = Arc::new(MetricsRegistry::new());
        registry.register(world_report_source(&self.world));
        Ok(Testbed {
            world: self.world,
            primary: Some(primary),
            replicas,
            extra_shards,
            shard_groups,
            ns_well_known,
            ns_servers,
            registry,
            flow: RwLock::new(None),
            config_hook: ConfigHookCell(RwLock::new(None)),
        })
    }
}

/// A registry report source for world-level (substrate) state: shared
/// BufferPool occupancy and per-link MBX backlogs — the gauges below every
/// module that the per-module reports cannot see.
fn world_report_source(world: &World) -> ntcs_nucleus::obs::ReportSource {
    let world = world.clone();
    Box::new(move || {
        let pool = world.buffer_pool();
        let stats = pool.stats();
        let links = world.mbx_link_backlogs();
        let queued: u64 = links.iter().map(|(_, q, _)| q).sum();
        let peak = links.iter().map(|(_, _, p)| *p).max().unwrap_or(0);
        ntcs_nucleus::obs::ModuleReport {
            module: "world".into(),
            counters: vec![
                ("pool_hits", stats.hits),
                ("pool_misses", stats.misses),
                ("pool_returns", stats.returns),
                ("pool_discards", stats.discards),
            ],
            gauges: vec![
                ("pool_free_buffers", pool.free_buffers() as u64),
                ("mbx_backlog_bytes", queued),
                ("mbx_backlog_peak_bytes", peak),
                ("mbx_links", links.len() as u64),
            ],
            histograms: Vec::new(),
            breakers: Vec::new(),
            events: Vec::new(),
        }
    })
}

/// Per-module [`NucleusConfig`] transform applied by [`Testbed::commod`]
/// just before binding — how a simulation harness installs short retry
/// budgets, tight breaker timers, or small flow windows on *every* module
/// without threading knobs through each call site.
pub type ConfigHook = Arc<dyn Fn(NucleusConfig) -> NucleusConfig + Send + Sync>;

struct ConfigHookCell(RwLock<Option<ConfigHook>>);

impl fmt::Debug for ConfigHookCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.read().is_some() {
            "ConfigHookCell(set)"
        } else {
            "ConfigHookCell(unset)"
        })
    }
}

/// A running NTCS deployment.
#[derive(Debug)]
pub struct Testbed {
    world: World,
    primary: Option<NameServer>,
    replicas: Vec<NameServer>,
    /// Shards 1..: primary (removable, like shard 0's) plus replicas.
    extra_shards: Vec<(Option<NameServer>, Vec<NameServer>)>,
    /// Per-shard server preference lists, shard order — the modules'
    /// [`ShardMap`].
    shard_groups: Vec<Vec<UAdd>>,
    ns_well_known: Vec<(UAdd, Vec<PhysAddr>)>,
    ns_servers: Vec<UAdd>,
    registry: Arc<MetricsRegistry>,
    /// Credit-based flow control applied to modules bound after
    /// [`Testbed::enable_flow_control`] (`None` = off, the default).
    flow: RwLock<Option<FlowSettings>>,
    /// Final config transform applied to modules bound after
    /// [`Testbed::set_config_hook`] (`None` = identity, the default).
    config_hook: ConfigHookCell,
}

impl Testbed {
    /// Starts building a testbed.
    #[must_use]
    pub fn builder() -> TestbedBuilder {
        TestbedBuilder::new()
    }

    /// The world (machines, networks, fault injection).
    #[must_use]
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The well-known address preload handed to every module (§3.4).
    #[must_use]
    pub fn ns_well_known(&self) -> Vec<(UAdd, Vec<PhysAddr>)> {
        self.ns_well_known.clone()
    }

    /// Name-Server UAdds in failover order.
    #[must_use]
    pub fn ns_servers(&self) -> Vec<UAdd> {
        self.ns_servers.clone()
    }

    /// The primary Name Server, if still present.
    #[must_use]
    pub fn name_server(&self) -> Option<&NameServer> {
        self.primary.as_ref()
    }

    /// The replica Name Servers (shard 0).
    #[must_use]
    pub fn replicas(&self) -> &[NameServer] {
        &self.replicas
    }

    /// Number of Name-Service shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shard_groups.len()
    }

    /// The shard map handed to every module this testbed binds.
    #[must_use]
    pub fn shard_map(&self) -> ShardMap {
        ShardMap::new(self.shard_groups.clone())
    }

    /// Shard `shard`'s primary, if still running.
    #[must_use]
    pub fn shard_primary(&self, shard: usize) -> Option<&NameServer> {
        if shard == 0 {
            self.primary.as_ref()
        } else {
            self.extra_shards
                .get(shard - 1)
                .and_then(|(p, _)| p.as_ref())
        }
    }

    /// Shard `shard`'s replicas.
    #[must_use]
    pub fn shard_replicas(&self, shard: usize) -> &[NameServer] {
        if shard == 0 {
            &self.replicas
        } else {
            self.extra_shards
                .get(shard - 1)
                .map_or(&[], |(_, reps)| reps.as_slice())
        }
    }

    /// Removes shard `shard`'s primary (generalizing
    /// [`Testbed::remove_name_server`]); the shard's replicas keep
    /// answering. Returns whether one was running.
    pub fn remove_shard_primary(&mut self, shard: usize) -> bool {
        let slot = if shard == 0 {
            &mut self.primary
        } else {
            match self.extra_shards.get_mut(shard - 1) {
                Some((p, _)) => p,
                None => return false,
            }
        };
        match slot.take() {
            Some(mut ns) => {
                ns.shutdown();
                true
            }
            None => false,
        }
    }

    /// Live records per shard (primary's database, falling back to the
    /// first replica when the primary is gone) — the balance invariant the
    /// scale suite asserts.
    #[must_use]
    pub fn shard_record_counts(&self) -> Vec<usize> {
        (0..self.shard_count())
            .map(|s| {
                self.shard_primary(s)
                    .or_else(|| self.shard_replicas(s).first())
                    .map_or(0, |ns| ns.db().lock().len())
            })
            .collect()
    }

    /// Binds a ComMod on `machine` *without* registering it.
    ///
    /// # Errors
    ///
    /// Binding failures.
    pub fn commod(&self, machine: MachineId, hint: &str) -> Result<ComMod> {
        let mut config = NucleusConfig::new(machine, hint);
        config.well_known = self.ns_well_known.clone();
        if let Some(settings) = *self.flow.read() {
            config = config.with_flow_control(settings);
        }
        if let Some(hook) = self.config_hook.0.read().as_ref() {
            config = hook(config);
        }
        let commod = ComMod::bind_sharded(&self.world, config, self.shard_map())?;
        self.registry.register(commod.report_source());
        Ok(commod)
    }

    /// Turns on credit-based flow control for every module bound *after*
    /// this call: each circuit endpoint grants its peer a byte+frame
    /// window, replenished as the application drains its inbox, and bulk
    /// sends block (or shed, per [`FlowSettings::with_policy`]) against
    /// it. Modules bound earlier are untouched — and grant nothing, so a
    /// flow-enabled module sending bulk data to a legacy one stalls once
    /// its initial window is spent. Enable flow control before binding
    /// any module that will exchange bulk traffic.
    pub fn enable_flow_control(&self, settings: FlowSettings) {
        *self.flow.write() = Some(settings);
    }

    /// Installs (or clears) the [`ConfigHook`] applied as the *last*
    /// transform to every module bound after this call — after the
    /// flow-control override, so a simulation harness has
    /// the final word on retry budgets, breaker timers, and windows.
    pub fn set_config_hook(&self, hook: Option<ConfigHook>) {
        *self.config_hook.0.write() = hook;
    }

    /// Binds a ComMod and registers it under `name` — the normal way a
    /// module comes on-line (§3.2).
    ///
    /// # Errors
    ///
    /// Binding or registration failures.
    pub fn module(&self, machine: MachineId, name: &str) -> Result<ComMod> {
        let commod = self.commod(machine, name)?;
        commod.register(name)?;
        Ok(commod)
    }

    /// Spawns a gateway on `machine` (which must join ≥ 2 networks).
    ///
    /// # Errors
    ///
    /// Spawn or registration failures.
    pub fn gateway(&self, machine: MachineId, name: &str) -> Result<Gateway> {
        let ns_phys = self
            .ns_well_known
            .first()
            .map(|(_, p)| p.clone())
            .unwrap_or_default();
        let gw = Gateway::spawn(&self.world, machine, name, ns_phys)?;
        self.registry.register(gw.report_source());
        Ok(gw)
    }

    /// The unified metrics registry every [`Testbed::commod`],
    /// [`Testbed::module`], and [`Testbed::gateway`] is registered in.
    #[must_use]
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Renders the whole deployment's live observability state in the
    /// Prometheus text exposition format: per-module counters, gauges,
    /// latency histograms, and circuit-breaker health.
    #[must_use]
    pub fn observability_report(&self) -> String {
        self.registry.render_prometheus()
    }

    /// The human-readable counterpart of
    /// [`Testbed::observability_report`].
    #[must_use]
    pub fn observability_table(&self) -> String {
        self.registry.render_table()
    }

    /// Removes the (primary) Name Server — experiment E2's "the Name Server
    /// can be removed with no consequence" (§3.3). Returns whether one was
    /// running.
    pub fn remove_name_server(&mut self) -> bool {
        match self.primary.take() {
            Some(mut ns) => {
                ns.shutdown();
                true
            }
            None => false,
        }
    }

    /// Restarts the primary Name Server on a machine (after removal). The
    /// database restarts empty: modules must re-register, exactly as in the
    /// paper's testbed when the system is reconfigured.
    ///
    /// # Errors
    ///
    /// Spawn failures, or [`NtcsError::InvalidArgument`] if one is running.
    pub fn restart_name_server(&mut self, machine: MachineId) -> Result<()> {
        if self.primary.is_some() {
            return Err(NtcsError::InvalidArgument(
                "a name server is already running".into(),
            ));
        }
        let peers: Vec<(UAdd, Vec<PhysAddr>)> = self
            .replicas
            .iter()
            .map(|r| (r.uadd(), r.phys_addrs()))
            .collect();
        let ns = NameServer::spawn(
            &self.world,
            NameServerConfig {
                peers,
                // A rebuilt primary catches up from the first replica, if
                // any (the §7 failure-resiliency path).
                sync_from: self.replicas.first().map(|r| (r.uadd(), r.phys_addrs())),
                ..NameServerConfig::primary(machine)
            },
        )?;
        // The new instance listens at new physical addresses; refresh the
        // preload used for *future* modules.
        self.ns_well_known[0] = (UAdd::NAME_SERVER, ns.phys_addrs());
        self.primary = Some(ns);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntcs_wire::ntcs_message;
    use std::time::Duration;

    ntcs_message! {
        pub struct Note: 800 { pub text: String }
    }

    const T: Option<Duration> = Some(Duration::from_secs(5));

    #[test]
    fn builder_requires_name_server() {
        let mut tb = Testbed::builder();
        let net = tb.add_network(NetKind::Mbx, "n");
        let _m = tb.add_machine(MachineType::Vax, "m", &[net]).unwrap();
        assert!(tb.start().is_err());
    }

    #[test]
    fn module_round_trip() {
        let mut tb = Testbed::builder();
        let net = tb.add_network(NetKind::Mbx, "lab");
        let m0 = tb.add_machine(MachineType::Sun, "h0", &[net]).unwrap();
        let m1 = tb.add_machine(MachineType::Vax, "h1", &[net]).unwrap();
        tb.name_server_on(m0);
        let testbed = tb.start().unwrap();

        let server = testbed.module(m0, "echo").unwrap();
        let client = testbed.module(m1, "cli").unwrap();
        let dst = client.locate("echo").unwrap();
        let t = std::thread::spawn(move || {
            let m = server.receive(T).unwrap();
            let n: Note = m.decode().unwrap();
            server
                .reply(
                    &m,
                    &Note {
                        text: n.text.to_uppercase(),
                    },
                )
                .unwrap();
        });
        let reply = client
            .send_receive(
                dst,
                &Note {
                    text: "quiet".into(),
                },
                T,
            )
            .unwrap();
        let n: Note = reply.decode().unwrap();
        assert_eq!(n.text, "QUIET");
        t.join().unwrap();
    }

    #[test]
    fn relocation_is_transparent_to_peers() {
        let mut tb = Testbed::builder();
        let net = tb.add_network(NetKind::Mbx, "lab");
        let m0 = tb.add_machine(MachineType::Sun, "h0", &[net]).unwrap();
        let m1 = tb.add_machine(MachineType::Vax, "h1", &[net]).unwrap();
        let m2 = tb.add_machine(MachineType::Apollo, "h2", &[net]).unwrap();
        tb.name_server_on(m0);
        let testbed = tb.start().unwrap();

        let server = testbed.module(m1, "svc").unwrap();
        let client = testbed.module(m0, "cli").unwrap();
        let dst = client.locate("svc").unwrap();
        client.send(dst, &Note { text: "one".into() }).unwrap();
        let got = server.receive(T).unwrap();
        assert_eq!(got.decode::<Note>().unwrap().text, "one");

        // Relocate the server from the VAX to the Apollo.
        let server = server.relocate_to(m2).unwrap();
        assert_eq!(server.machine(), m2);

        // The client keeps using the OLD UAdd; the LCM layer faults,
        // forwards, reconnects (§3.5) — transparent at this interface.
        client.send(dst, &Note { text: "two".into() }).unwrap();
        let got = server.receive(T).unwrap();
        assert_eq!(got.decode::<Note>().unwrap().text, "two");
        let m = client.metrics();
        assert!(m.address_faults >= 1, "expected an address fault");
        assert!(m.forward_queries >= 1, "expected a forwarding query");
        assert!(m.reconnects >= 1, "expected a transparent reconnect");
    }

    #[test]
    fn name_server_removal_after_warmup() {
        let mut tb = Testbed::builder();
        let net = tb.add_network(NetKind::Mbx, "lab");
        let m0 = tb.add_machine(MachineType::Sun, "h0", &[net]).unwrap();
        let m1 = tb.add_machine(MachineType::Vax, "h1", &[net]).unwrap();
        tb.name_server_on(m0);
        let mut testbed = tb.start().unwrap();

        let server = testbed.module(m0, "svc").unwrap();
        let client = testbed.module(m1, "cli").unwrap();
        let dst = client.locate("svc").unwrap();
        client
            .send(
                dst,
                &Note {
                    text: "warm".into(),
                },
            )
            .unwrap();
        server.receive(T).unwrap();

        // §3.3: "once all necessary addresses have been resolved … the Name
        // Server can be removed with no consequence, unless the system is
        // reconfigured."
        assert!(testbed.remove_name_server());
        for i in 0..5 {
            client
                .send(
                    dst,
                    &Note {
                        text: format!("post-ns-{i}"),
                    },
                )
                .unwrap();
            server.receive(T).unwrap();
        }
        // But *new* resolution now fails.
        assert!(client.locate("svc").is_err());
    }

    #[test]
    fn replica_failover() {
        let mut tb = Testbed::builder();
        let net = tb.add_network(NetKind::Mbx, "lab");
        let m0 = tb.add_machine(MachineType::Sun, "h0", &[net]).unwrap();
        let m1 = tb.add_machine(MachineType::Vax, "h1", &[net]).unwrap();
        let m2 = tb.add_machine(MachineType::Apollo, "h2", &[net]).unwrap();
        tb.name_server_on(m0);
        tb.replica_on(m2);
        let mut testbed = tb.start().unwrap();

        let _server = testbed.module(m0, "svc").unwrap();
        let client = testbed.module(m1, "cli").unwrap();
        // Let replication drain.
        std::thread::sleep(Duration::from_millis(200));
        assert!(testbed.remove_name_server());
        // The NSP layer fails over to the replica (§7).
        let dst = client.locate("svc").unwrap();
        assert!(dst.is_permanent());
    }

    #[test]
    fn commod_without_registration_has_tadd() {
        let mut tb = Testbed::builder();
        let net = tb.add_network(NetKind::Mbx, "lab");
        let m0 = tb.add_machine(MachineType::Sun, "h0", &[net]).unwrap();
        tb.name_server_on(m0);
        let testbed = tb.start().unwrap();
        let c = testbed.commod(m0, "anon").unwrap();
        assert!(c.my_uadd().is_temporary());
        let u = c.register("anon").unwrap();
        assert!(u.is_permanent());
        assert_eq!(c.my_uadd(), u);
    }
}
