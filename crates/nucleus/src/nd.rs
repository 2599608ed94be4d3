//! The Network Dependent Layer (ND-Layer) and its STD-IF (paper §2.2).
//!
//! "The lowest layer in the NTCS is the Network Dependent Layer … All machine
//! and network communication dependencies are localized here, providing a
//! uniform virtual circuit interface (STD-IF) for the remainder of the NTCS.
//! … These ND-Layer *local virtual circuits* (LVCs) are limited to
//! destinations supported directly by the local IPCS … There is no automatic
//! relocation or recovery from failed channels (except for retry on open);
//! notification is simply passed upward."
//!
//! [`NdLayer`] owns one listening endpoint per network its machine attaches
//! to, opens [`Lvc`]s to physical addresses, and frames every transfer as an
//! [`ntcs_wire::Frame`] (shift-mode header + payload byte stream). Nothing
//! above it ever sees an [`ntcs_ipcs::IpcsChannel`].

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use ntcs_addr::{MachineId, MachineType, NetworkId, NtcsError, PhysAddr, Result};
use ntcs_ipcs::{BufferPool, IpcsChannel, IpcsListener, World};
use ntcs_wire::Frame;

/// A local virtual circuit: one framed, duplex channel on a single network.
#[derive(Debug, Clone)]
pub struct Lvc {
    chan: Arc<dyn IpcsChannel>,
    network: NetworkId,
    pool: BufferPool,
}

impl Lvc {
    /// Wraps an accepted or dialed IPCS channel.
    #[must_use]
    pub fn new(chan: Arc<dyn IpcsChannel>, network: NetworkId) -> Self {
        Lvc {
            chan,
            network,
            pool: BufferPool::new(),
        }
    }

    /// The network this circuit crosses.
    #[must_use]
    pub fn network(&self) -> NetworkId {
        self.network
    }

    /// Sends one frame as one substrate write.
    ///
    /// # Errors
    ///
    /// Passes substrate failures upward unchanged (§2.2).
    pub fn send_frame(&self, frame: &Frame) -> Result<()> {
        let mut buf = self.pool.take(frame.encoded_len());
        frame.encode_into(&mut buf);
        self.chan.send(Bytes::from(buf))
    }

    /// Receives and decodes one frame.
    ///
    /// # Errors
    ///
    /// [`NtcsError::Timeout`] on timeout, [`NtcsError::ConnectionClosed`]
    /// once the circuit dies, [`NtcsError::Protocol`] on a garbled frame.
    pub fn recv_frame(&self, timeout: Option<Duration>) -> Result<Frame> {
        Frame::decode_shared(&self.chan.recv(timeout)?)
    }

    /// Sends a pre-encoded block unchanged (gateway relay fast path — the
    /// splice never re-parses payloads).
    ///
    /// # Errors
    ///
    /// As for [`Lvc::send_frame`].
    pub fn send_raw(&self, block: bytes::Bytes) -> Result<()> {
        self.chan.send(block)
    }

    /// Receives a raw block without decoding (gateway relay fast path).
    ///
    /// # Errors
    ///
    /// As for [`Lvc::recv_frame`], minus protocol decoding.
    pub fn recv_raw(&self, timeout: Option<Duration>) -> Result<bytes::Bytes> {
        self.chan.recv(timeout)
    }

    /// Closes the circuit (idempotent).
    pub fn close(&self) {
        self.chan.close();
    }

    /// Whether the circuit is known dead.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.chan.is_closed()
    }

    /// Peer description for traces.
    #[must_use]
    pub fn peer_label(&self) -> String {
        self.chan.peer_label()
    }
}

/// Which substrate a circuit is bound to, decided at LVC open and recorded
/// per circuit. The LCM compares the binding chosen by a re-selection with
/// the one it replaces to detect a relocation handoff (e.g. SHM → TCP when
/// a peer moves off-machine); observers read it back through metrics and
/// flight-recorder `SUBSTRATE` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubstrateBinding {
    /// Substrate code — [`SubstrateBinding::SHM`] … [`SubstrateBinding::TCP`].
    pub code: u32,
    /// The network of the bound endpoint.
    pub network: NetworkId,
}

impl SubstrateBinding {
    /// Shared-memory ring (co-located peers; the speed ceiling).
    pub const SHM: u32 = 1;
    /// In-process mailbox.
    pub const MBX: u32 = 2;
    /// Connectionless datagrams.
    pub const UDP: u32 = 3;
    /// Connection-oriented byte stream.
    pub const TCP: u32 = 4;

    /// The binding a physical address implies.
    #[must_use]
    pub fn for_addr(addr: &PhysAddr) -> Self {
        let code = match addr {
            PhysAddr::Shm { .. } => Self::SHM,
            PhysAddr::Mbx { .. } => Self::MBX,
            PhysAddr::Udp { .. } => Self::UDP,
            PhysAddr::Tcp { .. } => Self::TCP,
        };
        SubstrateBinding {
            code,
            network: addr.network(),
        }
    }

    /// Human name of a substrate code.
    #[must_use]
    pub fn code_name(code: u32) -> &'static str {
        match code {
            Self::SHM => "shm",
            Self::MBX => "mbx",
            Self::UDP => "udp",
            Self::TCP => "tcp",
            _ => "unknown",
        }
    }

    /// Human name of this binding's substrate.
    #[must_use]
    pub fn name(&self) -> &'static str {
        Self::code_name(self.code)
    }
}

/// One listening endpoint of the ND-Layer.
#[derive(Debug)]
pub struct NdEndpoint {
    /// The network it listens on.
    pub network: NetworkId,
    /// The physical address peers dial.
    pub phys: PhysAddr,
    /// The substrate listener.
    pub listener: Arc<dyn IpcsListener>,
}

/// The Network Dependent Layer bound to one module.
#[derive(Debug)]
pub struct NdLayer {
    world: World,
    machine: MachineId,
    machine_type: MachineType,
    endpoints: Vec<NdEndpoint>,
    pool: BufferPool,
}

impl NdLayer {
    /// Creates the ND-Layer for a module on `machine`, opening one listening
    /// communication resource per attached network (§3.2).
    ///
    /// # Errors
    ///
    /// Fails if the machine is unknown/dead or a listener cannot be created.
    pub fn new(world: &World, machine: MachineId, hint: &str) -> Result<Self> {
        let info = world.machine_info(machine)?;
        let mut endpoints = Vec::with_capacity(info.networks.len());
        for &net in &info.networks {
            let (phys, listener) = world.create_listener(machine, net, hint)?;
            endpoints.push(NdEndpoint {
                network: net,
                phys,
                listener,
            });
        }
        Ok(NdLayer {
            world: world.clone(),
            machine,
            machine_type: info.machine_type,
            endpoints,
            pool: world.buffer_pool(),
        })
    }

    /// The frame buffer pool this layer's LVCs lease from.
    #[must_use]
    pub fn buffer_pool(&self) -> BufferPool {
        self.pool.clone()
    }

    /// Wraps an accepted substrate channel as an LVC leasing from this
    /// layer's pool (the acceptor-side sibling of [`NdLayer::open`]).
    #[must_use]
    pub fn wrap(&self, chan: Arc<dyn IpcsChannel>, network: NetworkId) -> Lvc {
        Lvc {
            chan,
            network,
            pool: self.pool.clone(),
        }
    }

    /// The machine this layer is bound to.
    #[must_use]
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// The local machine's representation type (visible only at this lowest
    /// layer, which is why the conversion-mode decision lives here, §5).
    #[must_use]
    pub fn machine_type(&self) -> MachineType {
        self.machine_type
    }

    /// Networks this module can reach directly.
    #[must_use]
    pub fn networks(&self) -> Vec<NetworkId> {
        self.endpoints.iter().map(|e| e.network).collect()
    }

    /// The module's physical addresses, one per attached network.
    #[must_use]
    pub fn phys_addrs(&self) -> Vec<PhysAddr> {
        self.endpoints.iter().map(|e| e.phys.clone()).collect()
    }

    /// The listening endpoints (consumed by the Nucleus acceptor threads).
    #[must_use]
    pub fn endpoints(&self) -> &[NdEndpoint] {
        &self.endpoints
    }

    /// Opens an LVC to a physical address, retrying the open up to
    /// `retries` additional times (§2.2's only recovery).
    ///
    /// # Errors
    ///
    /// Returns the last substrate error if every attempt fails, or
    /// [`NtcsError::Unsupported`] if the address is on a network this
    /// machine does not attach to ("the ND-Layer is not capable of
    /// communicating between machines on networks which are not supported
    /// directly by the endpoint IPCSs").
    pub fn open(&self, addr: &PhysAddr, retries: u32) -> Result<Lvc> {
        let network = addr.network();
        if !self.endpoints.iter().any(|e| e.network == network) {
            return Err(NtcsError::Unsupported(format!(
                "network {network} is not directly reachable from this machine"
            )));
        }
        let mut last = NtcsError::ConnectRefused("no attempt made".into());
        for attempt in 0..=retries {
            match self.world.connect(self.machine, addr) {
                Ok(chan) => return Ok(self.wrap(Arc::from(chan), network)),
                Err(e) => {
                    last = e;
                    if attempt < retries {
                        std::thread::sleep(Duration::from_millis(2 << attempt));
                    }
                }
            }
        }
        Err(last)
    }

    /// Opens an LVC under a [`RetryPolicy`](crate::RetryPolicy) — the supervised form of
    /// [`NdLayer::open`]. Transient connect errors are retried on the
    /// policy's backoff schedule; `on_retry` fires before each backoff
    /// sleep with the 0-based retry number and the error (the caller's
    /// metrics/trace hook).
    ///
    /// # Errors
    ///
    /// The last connect error when the attempt budget runs out,
    /// [`NtcsError::DeadlineExceeded`] when the policy deadline expires
    /// first, or [`NtcsError::Unsupported`] if the address is on a network
    /// this machine does not attach to.
    pub fn open_with_policy(
        &self,
        addr: &PhysAddr,
        policy: &crate::retry::RetryPolicy,
        on_retry: impl FnMut(u32, &NtcsError),
    ) -> Result<Lvc> {
        let network = addr.network();
        if !self.endpoints.iter().any(|e| e.network == network) {
            return Err(NtcsError::Unsupported(format!(
                "network {network} is not directly reachable from this machine"
            )));
        }
        policy.run(on_retry, |_| {
            self.world
                .connect(self.machine, addr)
                .map(|chan| self.wrap(Arc::from(chan), network))
        })
    }

    /// Total open attempts implied by a call to [`NdLayer::open`] is at most
    /// `1 + retries`; exposed for the metrics layer.
    #[must_use]
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Closes every listening endpoint (module shutdown or relocation).
    pub fn close_all(&self) {
        for e in &self.endpoints {
            e.listener.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntcs_addr::{MachineType, UAdd};
    use ntcs_ipcs::NetKind;
    use ntcs_wire::{FrameHeader, FrameType};

    fn world_two() -> (World, MachineId, MachineId, NetworkId) {
        let w = World::new();
        let n = w.add_network(NetKind::Mbx, "lab");
        let a = w.add_machine(MachineType::Vax, "a", &[n]).unwrap();
        let b = w.add_machine(MachineType::Sun, "b", &[n]).unwrap();
        (w, a, b, n)
    }

    fn frame() -> Frame {
        Frame::new(
            FrameHeader::new(
                FrameType::Data,
                UAdd::from_raw(1),
                UAdd::from_raw(2),
                MachineType::Vax,
            ),
            bytes::Bytes::from_static(b"payload"),
        )
    }

    #[test]
    fn open_and_exchange_frames() {
        let (w, a, b, _n) = world_two();
        let nd_a = NdLayer::new(&w, a, "alpha").unwrap();
        let nd_b = NdLayer::new(&w, b, "beta").unwrap();
        assert_eq!(nd_a.machine_type(), MachineType::Vax);
        assert_eq!(nd_b.phys_addrs().len(), 1);

        let target = nd_b.phys_addrs()[0].clone();
        let lvc = nd_a.open(&target, 0).unwrap();
        lvc.send_frame(&frame()).unwrap();

        let accepted = nd_b.endpoints()[0]
            .listener
            .accept(Some(Duration::from_secs(2)))
            .unwrap();
        let server = Lvc::new(Arc::from(accepted), lvc.network());
        let got = server.recv_frame(Some(Duration::from_secs(2))).unwrap();
        assert_eq!(got, frame());
    }

    #[test]
    fn open_unattached_network_unsupported() {
        let w = World::new();
        let n1 = w.add_network(NetKind::Mbx, "n1");
        let n2 = w.add_network(NetKind::Mbx, "n2");
        let a = w.add_machine(MachineType::Vax, "a", &[n1]).unwrap();
        let b = w.add_machine(MachineType::Sun, "b", &[n2]).unwrap();
        let nd_a = NdLayer::new(&w, a, "a").unwrap();
        let nd_b = NdLayer::new(&w, b, "b").unwrap();
        let err = nd_a.open(&nd_b.phys_addrs()[0], 0).unwrap_err();
        assert!(matches!(err, NtcsError::Unsupported(_)));
    }

    #[test]
    fn open_retries_then_reports_failure() {
        let (w, a, b, n) = world_two();
        let nd_a = NdLayer::new(&w, a, "a").unwrap();
        let addr = PhysAddr::Mbx {
            network: n,
            path: "/sys/mbx/ghost".into(),
        };
        let _ = b;
        let err = nd_a.open(&addr, 2).unwrap_err();
        assert!(matches!(err, NtcsError::ConnectRefused(_)));
    }

    #[test]
    fn endpoint_per_network() {
        let w = World::new();
        let n1 = w.add_network(NetKind::Mbx, "n1");
        let n2 = w.add_network(NetKind::Tcp, "n2");
        let m = w.add_machine(MachineType::Apollo, "gw", &[n1, n2]).unwrap();
        let nd = NdLayer::new(&w, m, "gw").unwrap();
        assert_eq!(nd.networks(), vec![n1, n2]);
        assert_eq!(nd.phys_addrs().len(), 2);
        assert_eq!(nd.phys_addrs()[0].network(), n1);
        assert_eq!(nd.phys_addrs()[1].network(), n2);
    }

    #[test]
    fn garbled_frame_is_protocol_error() {
        let (w, a, b, _n) = world_two();
        let nd_a = NdLayer::new(&w, a, "a").unwrap();
        let nd_b = NdLayer::new(&w, b, "b").unwrap();
        let lvc = nd_a.open(&nd_b.phys_addrs()[0], 0).unwrap();
        lvc.send_raw(bytes::Bytes::from_static(b"not a frame"))
            .unwrap();
        let accepted = nd_b.endpoints()[0]
            .listener
            .accept(Some(Duration::from_secs(2)))
            .unwrap();
        let server = Lvc::new(Arc::from(accepted), lvc.network());
        let got = server.recv_frame(Some(Duration::from_secs(2)));
        assert!(matches!(got, Err(NtcsError::Protocol(_))));
    }

    #[test]
    fn close_all_stops_accepting() {
        let (w, a, b, _n) = world_two();
        let nd_a = NdLayer::new(&w, a, "a").unwrap();
        let nd_b = NdLayer::new(&w, b, "b").unwrap();
        nd_b.close_all();
        let err = nd_a.open(&nd_b.phys_addrs()[0], 0).unwrap_err();
        assert!(matches!(err, NtcsError::ConnectRefused(_)));
    }
}
