//! The shared-memory ring substrate: the co-location fast path.
//!
//! §2.3 keeps physical addresses network-dependent precisely so a driver
//! like this one can exist: when two modules share an address space there
//! is no reason to pay a kernel boundary per message. This substrate moves
//! frames through a lock-minimal SPSC ring ([`ShmRing`]); frame blocks are
//! leased from the shared [`BufferPool`] by the layers
//! above and travel through the ring *by reference* — a zero-copy hand-off
//! that is the hardware speed ceiling the PR10 bench sweeps against.
//!
//! Unlike MBX and TCP, a shared ring is only reachable from the machine
//! that owns it: [`ShmIpcs::connect`] refuses cross-machine dials with
//! [`NtcsError::ConnectRefused`]. That refusal is what triggers the ND
//! layer's substrate re-selection when a peer relocates off-machine.
//!
//! Faults are injected through the same per-network
//! [`LinkConditions`] as the other substrates,
//! so `World::set_drop_permille` and friends apply uniformly. A full ring
//! with a dead reader never hangs the writer: after a bounded wait the
//! send fails with [`NtcsError::FlowStalled`], which the LCM surfaces or
//! dead-letters.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam_channel::{unbounded, Receiver, Sender};
use ntcs_addr::{MachineId, NetworkId, NtcsError, Result};
use parking_lot::Mutex;

use crate::channel::{IpcsChannel, IpcsListener};
use crate::mbx::LinkConditions;
use crate::BufferPool;

/// Slots per ring direction. Power of two; the backpressure bound for one
/// direction of a co-located link.
pub const SHM_RING_CAP: usize = 1024;

/// How long a writer blocked on a full ring sleeps between capacity polls.
const SHM_FULL_POLL: Duration = Duration::from_micros(200);

/// How long a writer tolerates a full ring before giving up with
/// [`NtcsError::FlowStalled`]. A wedged reader (crashed co-located module)
/// must surface as a typed error, never a hung sender.
const SHM_STALL_WAIT: Duration = Duration::from_secs(2);

/// Idle-consumer poll interval once the initial spin is exhausted.
const SHM_IDLE_POLL: Duration = Duration::from_micros(50);

/// Consumer spin iterations before sleeping between polls.
const SHM_SPIN: usize = 64;

/// A lock-minimal single-producer single-consumer ring.
///
/// The producer owns `tail`, the consumer owns `head`; each slot is
/// guarded by its own (uncontended in SPSC use) mutex so the ring stays
/// within safe Rust while the hot path costs two atomics and one
/// uncontested lock per operation. Capacity is rounded up to a power of
/// two.
///
/// The SPSC contract is the caller's: [`ShmChannel`] serialises each
/// direction behind a send-side lock. Violating it cannot corrupt memory
/// (safe Rust), only forfeit FIFO ordering.
#[derive(Debug)]
pub struct ShmRing<T> {
    mask: usize,
    /// Next slot to pop (consumer-owned).
    head: AtomicUsize,
    /// Next slot to push (producer-owned).
    tail: AtomicUsize,
    slots: Box<[Mutex<Option<T>>]>,
}

impl<T> ShmRing<T> {
    /// Creates a ring with at least `capacity` slots (rounded up to a
    /// power of two, minimum 2).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots = (0..cap).map(|_| Mutex::new(None)).collect::<Vec<_>>();
        ShmRing {
            mask: cap - 1,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            slots: slots.into_boxed_slice(),
        }
    }

    /// Number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Occupied slots at this instant.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tail
            .load(Ordering::Acquire)
            .wrapping_sub(self.head.load(Ordering::Acquire))
    }

    /// Whether the ring is empty at this instant.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pushes a value, or returns it when the ring is full.
    ///
    /// # Errors
    ///
    /// Returns `Err(value)` when all slots are occupied.
    pub fn try_push(&self, value: T) -> std::result::Result<(), T> {
        let tail = self.tail.load(Ordering::Relaxed);
        if tail.wrapping_sub(self.head.load(Ordering::Acquire)) > self.mask {
            return Err(value);
        }
        *self.slots[tail & self.mask].lock() = Some(value);
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Pops the oldest value, if any.
    pub fn try_pop(&self) -> Option<T> {
        let head = self.head.load(Ordering::Relaxed);
        if head == self.tail.load(Ordering::Acquire) {
            return None;
        }
        let value = self.slots[head & self.mask].lock().take();
        self.head.store(head.wrapping_add(1), Ordering::Release);
        value
    }
}

#[derive(Debug)]
struct TimedFrame {
    deliver_at: Instant,
    data: Bytes,
}

/// State shared by both endpoints of one shared-ring link. Opaque outside
/// this crate; the [`crate::World`] holds it to sever links on faults.
#[derive(Debug)]
pub(crate) struct ShmShared {
    closed: AtomicBool,
    conditions: Arc<LinkConditions>,
    /// The owning machine (both endpoints are co-located on it).
    machine: MachineId,
    network: NetworkId,
    /// Payload bytes currently queued on the link (both directions).
    queued_bytes: AtomicU64,
    peak_bytes: AtomicU64,
}

impl ShmShared {
    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }
}

/// One endpoint of a shared-ring duplex channel.
pub struct ShmChannel {
    tx: Arc<ShmRing<TimedFrame>>,
    rx: Arc<ShmRing<TimedFrame>>,
    shared: Arc<ShmShared>,
    pool: BufferPool,
    label: String,
    /// Serialises producers on `tx`: the ring is SPSC, the channel trait
    /// allows concurrent senders.
    send_lock: Mutex<()>,
    /// Serialises consumers on `rx`.
    recv_lock: Mutex<()>,
    /// Reorder-injection hold-back slot (adjacent-pair swap, as in MBX).
    held: Mutex<Option<TimedFrame>>,
}

impl std::fmt::Debug for ShmChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShmChannel")
            .field("label", &self.label)
            .field("closed", &self.shared.closed.load(Ordering::Relaxed))
            .finish()
    }
}

impl ShmChannel {
    /// The machine both endpoints live on.
    #[must_use]
    pub fn machine(&self) -> MachineId {
        self.shared.machine
    }

    /// The network this channel belongs to.
    #[must_use]
    pub fn network(&self) -> NetworkId {
        self.shared.network
    }

    pub(crate) fn shared_close_handle(&self) -> Arc<ShmShared> {
        Arc::clone(&self.shared)
    }

    /// Pushes one frame, polling while the ring is full but bounding the
    /// wait: a wedged reader surfaces as [`NtcsError::FlowStalled`].
    fn enqueue(&self, mut pending: TimedFrame) -> Result<()> {
        let n = pending.data.len() as u64;
        let queued = self.shared.queued_bytes.fetch_add(n, Ordering::Relaxed) + n;
        self.shared.peak_bytes.fetch_max(queued, Ordering::Relaxed);
        let give_up = Instant::now() + SHM_STALL_WAIT;
        let _guard = self.send_lock.lock();
        loop {
            match self.tx.try_push(pending) {
                Ok(()) => return Ok(()),
                Err(back) => {
                    if self.shared.closed.load(Ordering::SeqCst) {
                        self.shared.queued_bytes.fetch_sub(n, Ordering::Relaxed);
                        return Err(NtcsError::ConnectionClosed);
                    }
                    if Instant::now() >= give_up {
                        self.shared.queued_bytes.fetch_sub(n, Ordering::Relaxed);
                        return Err(NtcsError::FlowStalled(0));
                    }
                    pending = back;
                    std::thread::sleep(SHM_FULL_POLL);
                }
            }
        }
    }
}

impl IpcsChannel for ShmChannel {
    fn send(&self, frame: Bytes) -> Result<()> {
        if self.shared.closed.load(Ordering::SeqCst) {
            return Err(NtcsError::ConnectionClosed);
        }
        if self.shared.conditions.should_drop() {
            self.pool.reclaim(frame);
            return Ok(());
        }
        // Corruption injection: memory got scribbled on — copy the block
        // (through the pool) and flip one byte. The garbled frame is
        // delivered; the layers above must reject it, not crash.
        let data = if self.shared.conditions.should_corrupt() && !frame.is_empty() {
            let mut buf = self.pool.take(frame.len());
            buf.extend_from_slice(&frame);
            let mid = buf.len() / 2;
            buf[mid] ^= 0xFF;
            self.pool.reclaim(frame);
            Bytes::from(buf)
        } else {
            frame
        };
        let latency =
            Duration::from_micros(self.shared.conditions.latency_us.load(Ordering::Relaxed));
        let pending = TimedFrame {
            deliver_at: Instant::now() + latency,
            data,
        };
        let dup = self.shared.conditions.should_dup();
        if !dup && self.shared.conditions.should_hold() {
            let mut held = self.held.lock();
            if held.is_none() {
                *held = Some(pending);
                return Ok(());
            }
        }
        let copy = dup.then(|| TimedFrame {
            deliver_at: pending.deliver_at,
            data: pending.data.clone(),
        });
        self.enqueue(pending)?;
        if let Some(copy) = copy {
            self.enqueue(copy)?;
        }
        if let Some(held) = self.held.lock().take() {
            self.enqueue(held)?;
        }
        Ok(())
    }

    fn recv(&self, timeout: Option<Duration>) -> Result<Bytes> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let _guard = self.recv_lock.lock();
        let mut spins = 0usize;
        loop {
            if self.shared.closed.load(Ordering::SeqCst) {
                // In-flight frames die with the circuit (§3.5), as on MBX.
                return Err(NtcsError::ConnectionClosed);
            }
            if let Some(frame) = self.rx.try_pop() {
                self.shared
                    .queued_bytes
                    .fetch_sub(frame.data.len() as u64, Ordering::Relaxed);
                let now = Instant::now();
                if frame.deliver_at > now {
                    std::thread::sleep(frame.deliver_at - now);
                }
                return Ok(frame.data);
            }
            if let Some(deadline) = deadline {
                if Instant::now() >= deadline {
                    return Err(NtcsError::Timeout);
                }
            }
            // Spin briefly (the producer is a few cache lines away), then
            // back off to a sleep poll.
            spins += 1;
            if spins < SHM_SPIN {
                std::hint::spin_loop();
            } else {
                std::thread::sleep(SHM_IDLE_POLL);
            }
        }
    }

    fn close(&self) {
        self.shared.close();
    }

    fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::SeqCst)
    }

    fn peer_label(&self) -> String {
        self.label.clone()
    }
}

struct PendingConn {
    channel: ShmChannel,
}

struct ServerEntry {
    accept_tx: Sender<PendingConn>,
    owner: MachineId,
    closed: Arc<AtomicBool>,
}

/// A server ring endpoint: accepts inbound channels opened against its
/// pathname.
pub struct ShmListener {
    accept_rx: Receiver<PendingConn>,
    closed: Arc<AtomicBool>,
    registry: Arc<Mutex<Registry>>,
    key: (NetworkId, String),
}

impl std::fmt::Debug for ShmListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShmListener")
            .field("path", &self.key.1)
            .field("network", &self.key.0)
            .finish()
    }
}

impl IpcsListener for ShmListener {
    fn accept(&self, timeout: Option<Duration>) -> Result<Box<dyn IpcsChannel>> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(NtcsError::ShutDown);
        }
        let pending = match timeout {
            Some(t) if t.is_zero() => self
                .accept_rx
                .try_recv()
                .map_err(|_| NtcsError::WouldBlock)?,
            Some(t) => self.accept_rx.recv_timeout(t).map_err(|_| {
                if self.closed.load(Ordering::SeqCst) {
                    NtcsError::ShutDown
                } else {
                    NtcsError::Timeout
                }
            })?,
            None => self.accept_rx.recv().map_err(|_| NtcsError::ShutDown)?,
        };
        Ok(Box::new(pending.channel))
    }

    fn close(&self) {
        if !self.closed.swap(true, Ordering::SeqCst) {
            self.registry.lock().servers.remove(&self.key);
        }
    }

    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }
}

impl Drop for ShmListener {
    fn drop(&mut self) {
        self.close();
    }
}

#[derive(Default)]
struct Registry {
    servers: std::collections::HashMap<(NetworkId, String), ServerEntry>,
}

/// The in-process shared-ring IPC system, shared by all machines attached
/// to shared-memory networks.
pub struct ShmIpcs {
    registry: Arc<Mutex<Registry>>,
}

impl std::fmt::Debug for ShmIpcs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ShmIpcs({} rings)", self.registry.lock().servers.len())
    }
}

impl Default for ShmIpcs {
    fn default() -> Self {
        Self::new()
    }
}

impl ShmIpcs {
    /// Creates an empty ring registry.
    #[must_use]
    pub fn new() -> Self {
        ShmIpcs {
            registry: Arc::new(Mutex::new(Registry::default())),
        }
    }

    /// Creates a server ring at `path` on `network`, owned by `owner`.
    ///
    /// # Errors
    ///
    /// Returns [`NtcsError::Ipcs`] if the pathname is already in use.
    pub fn create_ring(
        &self,
        network: NetworkId,
        path: &str,
        owner: MachineId,
    ) -> Result<ShmListener> {
        let mut reg = self.registry.lock();
        let key = (network, path.to_owned());
        if reg.servers.contains_key(&key) {
            return Err(NtcsError::Ipcs(format!(
                "shm ring {path:?} already exists on {network}"
            )));
        }
        let (accept_tx, accept_rx) = unbounded();
        let closed = Arc::new(AtomicBool::new(false));
        reg.servers.insert(
            key.clone(),
            ServerEntry {
                accept_tx,
                owner,
                closed: Arc::clone(&closed),
            },
        );
        Ok(ShmListener {
            accept_rx,
            closed,
            registry: Arc::clone(&self.registry),
            key,
        })
    }

    /// Opens a duplex channel to the ring at `path` on `network`.
    ///
    /// Shared memory does not cross machine boundaries: a dial from any
    /// machine other than the ring's owner is refused. The ND layer relies
    /// on that refusal to fall back to a network substrate when a peer is
    /// (or has relocated) off-machine.
    ///
    /// # Errors
    ///
    /// Returns [`NtcsError::ConnectRefused`] if no such ring exists, the
    /// owner stopped accepting, or `from` is not the owning machine.
    pub fn connect(
        &self,
        network: NetworkId,
        path: &str,
        from: MachineId,
        conditions: Arc<LinkConditions>,
        pool: BufferPool,
    ) -> Result<ShmChannel> {
        let reg = self.registry.lock();
        let entry = reg
            .servers
            .get(&(network, path.to_owned()))
            .ok_or_else(|| {
                NtcsError::ConnectRefused(format!("no shm ring {path:?} on {network}"))
            })?;
        if entry.closed.load(Ordering::SeqCst) {
            return Err(NtcsError::ConnectRefused(format!(
                "shm ring {path:?} is closed"
            )));
        }
        if entry.owner != from {
            return Err(NtcsError::ConnectRefused(format!(
                "shm ring {path:?} is on {owner}, not reachable from {from}",
                owner = entry.owner
            )));
        }
        let a = Arc::new(ShmRing::new(SHM_RING_CAP));
        let b = Arc::new(ShmRing::new(SHM_RING_CAP));
        let shared = Arc::new(ShmShared {
            closed: AtomicBool::new(false),
            conditions,
            machine: entry.owner,
            network,
            queued_bytes: AtomicU64::new(0),
            peak_bytes: AtomicU64::new(0),
        });
        let client = ShmChannel {
            tx: Arc::clone(&a),
            rx: Arc::clone(&b),
            shared: Arc::clone(&shared),
            pool: pool.clone(),
            label: format!("shm:{network}:{path}"),
            send_lock: Mutex::new(()),
            recv_lock: Mutex::new(()),
            held: Mutex::new(None),
        };
        let server = ShmChannel {
            tx: b,
            rx: a,
            shared,
            pool,
            label: format!("shm:{network}:client@{from}"),
            send_lock: Mutex::new(()),
            recv_lock: Mutex::new(()),
            held: Mutex::new(None),
        };
        entry
            .accept_tx
            .send(PendingConn { channel: server })
            .map_err(|_| {
                NtcsError::ConnectRefused(format!("shm ring {path:?} stopped accepting"))
            })?;
        Ok(client)
    }

    /// Whether a ring exists (test hook).
    #[must_use]
    pub fn ring_exists(&self, network: NetworkId, path: &str) -> bool {
        self.registry
            .lock()
            .servers
            .contains_key(&(network, path.to_owned()))
    }
}

/// Handle kept by the [`crate::World`] so faults can forcibly close links.
pub(crate) type ShmLinkHandle = Arc<ShmShared>;

pub(crate) fn close_shm_link(h: &ShmLinkHandle) {
    h.close();
}

pub(crate) fn shm_link_is_closed(h: &ShmLinkHandle) -> bool {
    h.closed.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond() -> Arc<LinkConditions> {
        Arc::new(LinkConditions::new(7))
    }

    fn pair(ipcs: &ShmIpcs) -> (ShmChannel, Box<dyn IpcsChannel>) {
        let net = NetworkId(1);
        let listener = ipcs.create_ring(net, "/shm/srv", MachineId(3)).unwrap();
        let client = ipcs
            .connect(net, "/shm/srv", MachineId(3), cond(), BufferPool::new())
            .unwrap();
        let server = listener.accept(Some(Duration::from_secs(1))).unwrap();
        (client, server)
    }

    #[test]
    fn ring_fifo_and_wraparound() {
        let ring = ShmRing::new(4);
        assert_eq!(ring.capacity(), 4);
        for round in 0..10 {
            for i in 0..4 {
                ring.try_push(round * 10 + i).unwrap();
            }
            assert!(ring.try_push(99).is_err());
            for i in 0..4 {
                assert_eq!(ring.try_pop(), Some(round * 10 + i));
            }
            assert_eq!(ring.try_pop(), None);
        }
    }

    #[test]
    fn round_trip() {
        let ipcs = ShmIpcs::new();
        let (client, server) = pair(&ipcs);
        client.send(Bytes::from_static(b"ping")).unwrap();
        assert_eq!(
            server.recv(Some(Duration::from_secs(1))).unwrap(),
            Bytes::from_static(b"ping")
        );
        server.send(Bytes::from_static(b"pong")).unwrap();
        assert_eq!(
            client.recv(Some(Duration::from_secs(1))).unwrap(),
            Bytes::from_static(b"pong")
        );
    }

    #[test]
    fn cross_machine_connect_is_refused() {
        let ipcs = ShmIpcs::new();
        let net = NetworkId(0);
        let _l = ipcs.create_ring(net, "/r", MachineId(1)).unwrap();
        let err = ipcs
            .connect(net, "/r", MachineId(2), cond(), BufferPool::new())
            .unwrap_err();
        assert!(matches!(err, NtcsError::ConnectRefused(_)), "{err}");
    }

    #[test]
    fn wedged_ring_surfaces_flow_stalled_not_hang() {
        let ipcs = ShmIpcs::new();
        let (client, _server) = pair(&ipcs);
        // Never drain the server side: the client's sends must fill the
        // ring and then fail typed, within the bounded stall wait.
        let started = Instant::now();
        let mut stalled = false;
        for i in 0..=SHM_RING_CAP {
            match client.send(Bytes::from(vec![0u8; 8])) {
                Ok(()) => {}
                Err(NtcsError::FlowStalled(_)) => {
                    stalled = true;
                    break;
                }
                Err(e) => panic!("unexpected error at frame {i}: {e}"),
            }
        }
        assert!(stalled, "a full ring with a dead reader must stall");
        assert!(started.elapsed() < SHM_STALL_WAIT + Duration::from_secs(2));
    }

    #[test]
    fn corruption_garbles_exactly_one_armed_frame() {
        let ipcs = ShmIpcs::new();
        let (client, server) = pair(&ipcs);
        client
            .shared
            .conditions
            .corrupt_next
            .store(1, Ordering::SeqCst);
        client.send(Bytes::from(vec![0u8; 16])).unwrap();
        client.send(Bytes::from(vec![0u8; 16])).unwrap();
        let first = server.recv(Some(Duration::from_secs(1))).unwrap();
        let second = server.recv(Some(Duration::from_secs(1))).unwrap();
        assert_ne!(&first[..], &[0u8; 16][..], "armed frame must be garbled");
        assert_eq!(&second[..], &[0u8; 16][..]);
    }

    #[test]
    fn close_unblocks_receiver() {
        let ipcs = ShmIpcs::new();
        let (client, server) = pair(&ipcs);
        let t = std::thread::spawn(move || server.recv(Some(Duration::from_secs(10))));
        std::thread::sleep(Duration::from_millis(20));
        client.close();
        assert!(matches!(
            t.join().unwrap(),
            Err(NtcsError::ConnectionClosed)
        ));
    }
}
