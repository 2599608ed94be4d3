//! An Apollo-MBX-style mailbox IPCS.
//!
//! Apollo DOMAIN's MBX facility addressed server mailboxes by *pathname*;
//! clients opened a pathname and obtained a duplex channel to the owner
//! (§2.3 mentions "Apollo MBX pathnames" as one physical address form, §3.2
//! "an Apollo MBX server mailbox" as a communication resource). This module
//! reproduces those semantics in-process: a registry of `(network, path)`
//! server mailboxes with accept queues, and duplex framed channels built on
//! crossbeam channels.
//!
//! Network conditions (latency, frame drop) and machine faults are injected
//! through shared [`LinkConditions`] / close flags so the ND-Layer above
//! observes realistic failures.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam_channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use ntcs_addr::{MachineId, NetworkId, NtcsError, Result};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::channel::{IpcsChannel, IpcsListener};

/// Mutable per-network conditions shared by all links on that network.
#[derive(Debug)]
pub struct LinkConditions {
    /// One-way latency applied to every frame, in microseconds.
    pub latency_us: AtomicU64,
    /// Probability of silently dropping a frame, in per-mille (0–1000 ‰).
    pub drop_permille: AtomicU32,
    /// Deterministic loss injection: this many upcoming frames are dropped
    /// unconditionally, before the probabilistic check.
    pub drop_next: AtomicU32,
    /// Deterministic duplication: this many upcoming frames are delivered
    /// twice, back to back.
    pub dup_next: AtomicU32,
    /// Deterministic reordering: this many times, a frame is held back and
    /// delivered after its successor on the same link direction.
    pub reorder_next: AtomicU32,
    /// Deterministic corruption: this many upcoming frames have one byte
    /// flipped in flight (substrates with integrity checks discard them;
    /// raw substrates deliver the garbled bytes).
    pub corrupt_next: AtomicU32,
    rng: Mutex<SmallRng>,
}

/// Atomically consumes one unit of an armed counter; `false` once spent.
fn take_armed(counter: &AtomicU32) -> bool {
    loop {
        let n = counter.load(Ordering::Relaxed);
        if n == 0 {
            return false;
        }
        if counter
            .compare_exchange(n, n - 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            return true;
        }
    }
}

impl LinkConditions {
    /// Creates pristine conditions (no latency, no loss).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        LinkConditions {
            latency_us: AtomicU64::new(0),
            drop_permille: AtomicU32::new(0),
            drop_next: AtomicU32::new(0),
            dup_next: AtomicU32::new(0),
            reorder_next: AtomicU32::new(0),
            corrupt_next: AtomicU32::new(0),
            rng: Mutex::new(SmallRng::seed_from_u64(seed)),
        }
    }

    /// Whether the frame about to be sent should vanish: consumes one armed
    /// deterministic drop if any, else rolls against the loss probability.
    pub(crate) fn should_drop(&self) -> bool {
        if take_armed(&self.drop_next) {
            return true;
        }
        let d = self.drop_permille.load(Ordering::Relaxed);
        d != 0 && self.rng.lock().gen_range(0..1000) < d
    }

    /// Consumes one armed duplication, if any.
    pub(crate) fn should_dup(&self) -> bool {
        take_armed(&self.dup_next)
    }

    /// Consumes one armed hold-back (reordering), if any.
    pub(crate) fn should_hold(&self) -> bool {
        take_armed(&self.reorder_next)
    }

    /// Consumes one armed corruption, if any.
    pub(crate) fn should_corrupt(&self) -> bool {
        take_armed(&self.corrupt_next)
    }

    fn latency(&self) -> Duration {
        Duration::from_micros(self.latency_us.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct TimedFrame {
    deliver_at: Instant,
    data: Bytes,
}

/// Frames one direction of a link may hold before senders block — the
/// hop-by-hop backpressure bound. A full queue stops the writer (a relay's
/// pump thread included), which stops it reading *its* upstream, and so on
/// back to the origin; transit machines can no longer buffer unboundedly.
const MBX_LINK_CAP: usize = 4096;

/// How long a blocked sender sleeps between capacity polls. Polling (rather
/// than parking in `send`) lets the sender observe a link close promptly.
const MBX_FULL_POLL: Duration = Duration::from_micros(200);

/// State shared by both endpoints of one mailbox link. Opaque outside this
/// crate; the [`crate::World`] holds it to sever links on faults.
#[derive(Debug)]
pub(crate) struct LinkShared {
    closed: AtomicBool,
    close_sig_tx: Sender<()>,
    close_sig_rx: Receiver<()>,
    conditions: Arc<LinkConditions>,
    /// The two machines this link joins (for partition injection).
    machines: (MachineId, MachineId),
    network: NetworkId,
    /// Payload bytes currently queued on the link (both directions).
    queued_bytes: AtomicU64,
    /// High-water mark of `queued_bytes` over the link's lifetime — the
    /// flow-control experiments assert this stays under the credit window.
    peak_bytes: AtomicU64,
}

impl LinkShared {
    fn close(&self) {
        if !self.closed.swap(true, Ordering::SeqCst) {
            // Wake both endpoints, if blocked in recv/accept.
            let _ = self.close_sig_tx.send(());
            let _ = self.close_sig_tx.send(());
        }
    }
}

/// One endpoint of an MBX duplex channel.
pub struct MbxChannel {
    tx: Sender<TimedFrame>,
    rx: Receiver<TimedFrame>,
    shared: Arc<LinkShared>,
    label: String,
    /// Reorder-injection hold-back slot: an armed `reorder_next` stashes a
    /// frame here so its successor overtakes it (adjacent-pair swap). A held
    /// frame with no successor is lost when the link closes, like any frame
    /// in flight at close.
    held: Mutex<Option<TimedFrame>>,
}

impl std::fmt::Debug for MbxChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MbxChannel")
            .field("label", &self.label)
            .field("closed", &self.shared.closed.load(Ordering::Relaxed))
            .finish()
    }
}

impl MbxChannel {
    /// The machines this channel joins.
    #[must_use]
    pub fn machines(&self) -> (MachineId, MachineId) {
        self.shared.machines
    }

    /// The network this channel crosses.
    #[must_use]
    pub fn network(&self) -> NetworkId {
        self.shared.network
    }

    pub(crate) fn shared_close_handle(&self) -> Arc<LinkShared> {
        Arc::clone(&self.shared)
    }

    /// Queues one frame on this direction's bounded lane, blocking while
    /// full but observing the close flag so a severed link frees the writer
    /// instead of stranding it.
    fn enqueue(&self, mut pending: TimedFrame) -> Result<()> {
        let n = pending.data.len() as u64;
        // Account before enqueueing: the receiver may pop the frame (and
        // decrement) the instant it lands, so incrementing afterwards would
        // race the counter below zero. A frame a blocked sender holds is
        // still resident at this hop, so counting it early is also the
        // honest reading.
        let queued = self.shared.queued_bytes.fetch_add(n, Ordering::Relaxed) + n;
        self.shared.peak_bytes.fetch_max(queued, Ordering::Relaxed);
        loop {
            match self.tx.try_send(pending) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Full(f)) => {
                    if self.shared.closed.load(Ordering::SeqCst) {
                        break;
                    }
                    pending = f;
                    std::thread::sleep(MBX_FULL_POLL);
                }
                Err(TrySendError::Disconnected(_)) => break,
            }
        }
        self.shared.queued_bytes.fetch_sub(n, Ordering::Relaxed);
        Err(NtcsError::ConnectionClosed)
    }
}

impl IpcsChannel for MbxChannel {
    fn send(&self, frame: Bytes) -> Result<()> {
        if self.shared.closed.load(Ordering::SeqCst) {
            return Err(NtcsError::ConnectionClosed);
        }
        if self.shared.conditions.should_drop() {
            // Silent loss, as on a flaky wire.
            return Ok(());
        }
        // Corruption injection: one byte flipped in flight. MBX frames carry
        // no integrity check, so the garbled bytes reach the layer above.
        let frame = if self.shared.conditions.should_corrupt() && !frame.is_empty() {
            let mut buf = frame.as_ref().to_vec();
            let mid = buf.len() / 2;
            buf[mid] ^= 0xFF;
            Bytes::from(buf)
        } else {
            frame
        };
        let pending = TimedFrame {
            deliver_at: Instant::now() + self.shared.conditions.latency(),
            data: frame,
        };
        // Reorder injection: hold this frame back so the *next* frame on
        // this direction overtakes it (adjacent-pair swap, the classic
        // datagram reordering). Only armed when the hold slot is free.
        let dup = self.shared.conditions.should_dup();
        if !dup && self.shared.conditions.should_hold() {
            let mut held = self.held.lock();
            if held.is_none() {
                *held = Some(pending);
                return Ok(());
            }
        }
        // Duplication injection: the wire delivers the frame twice.
        let copy = dup.then(|| TimedFrame {
            deliver_at: pending.deliver_at,
            data: pending.data.clone(),
        });
        self.enqueue(pending)?;
        if let Some(copy) = copy {
            self.enqueue(copy)?;
        }
        // Release a previously held frame *after* its successor: the swap.
        if let Some(held) = self.held.lock().take() {
            self.enqueue(held)?;
        }
        Ok(())
    }

    fn recv(&self, timeout: Option<Duration>) -> Result<Bytes> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            if self.shared.closed.load(Ordering::SeqCst) {
                // Deliver frames already queued before the close? The paper's
                // circuits drop in-flight data on failure (§3.5); we match.
                return Err(NtcsError::ConnectionClosed);
            }
            let frame = if let Some(deadline) = deadline {
                let now = Instant::now();
                if now >= deadline {
                    return Err(NtcsError::Timeout);
                }
                crossbeam_channel::select! {
                    recv(self.rx) -> f => f.map_err(|_| NtcsError::ConnectionClosed)?,
                    recv(self.shared.close_sig_rx) -> _ => continue,
                    default(deadline - now) => return Err(NtcsError::Timeout),
                }
            } else {
                crossbeam_channel::select! {
                    recv(self.rx) -> f => f.map_err(|_| NtcsError::ConnectionClosed)?,
                    recv(self.shared.close_sig_rx) -> _ => continue,
                }
            };
            self.shared
                .queued_bytes
                .fetch_sub(frame.data.len() as u64, Ordering::Relaxed);
            let now = Instant::now();
            if frame.deliver_at > now {
                std::thread::sleep(frame.deliver_at - now);
            }
            return Ok(frame.data);
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
    channel: MbxChannel,
}

struct ServerEntry {
    accept_tx: Sender<PendingConn>,
    owner: MachineId,
    closed: Arc<AtomicBool>,
}

/// A server mailbox: accepts inbound channels opened against its pathname.
pub struct MbxListener {
    accept_rx: Receiver<PendingConn>,
    closed: Arc<AtomicBool>,
    registry: Arc<Mutex<Registry>>,
    key: (NetworkId, String),
}

impl std::fmt::Debug for MbxListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MbxListener")
            .field("path", &self.key.1)
            .field("network", &self.key.0)
            .finish()
    }
}

impl IpcsListener for MbxListener {
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

impl Drop for MbxListener {
    fn drop(&mut self) {
        self.close();
    }
}

#[derive(Default)]
struct Registry {
    servers: std::collections::HashMap<(NetworkId, String), ServerEntry>,
}

/// The in-process mailbox IPC system, shared by all machines attached to
/// mailbox networks.
pub struct MbxIpcs {
    registry: Arc<Mutex<Registry>>,
}

impl std::fmt::Debug for MbxIpcs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MbxIpcs({} mailboxes)",
            self.registry.lock().servers.len()
        )
    }
}

impl Default for MbxIpcs {
    fn default() -> Self {
        Self::new()
    }
}

impl MbxIpcs {
    /// Creates an empty mailbox registry.
    #[must_use]
    pub fn new() -> Self {
        MbxIpcs {
            registry: Arc::new(Mutex::new(Registry::default())),
        }
    }

    /// Creates a server mailbox at `path` on `network`, owned by `owner`.
    ///
    /// # Errors
    ///
    /// Returns [`NtcsError::Ipcs`] if the pathname is already in use.
    pub fn create_mailbox(
        &self,
        network: NetworkId,
        path: &str,
        owner: MachineId,
    ) -> Result<MbxListener> {
        let mut reg = self.registry.lock();
        let key = (network, path.to_owned());
        if reg.servers.contains_key(&key) {
            return Err(NtcsError::Ipcs(format!(
                "mailbox {path:?} already exists on {network}"
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
        Ok(MbxListener {
            accept_rx,
            closed,
            registry: Arc::clone(&self.registry),
            key,
        })
    }

    /// Opens a duplex channel to the mailbox at `path` on `network`.
    ///
    /// Returns the client endpoint; the server side is queued on the owner's
    /// accept queue.
    ///
    /// # Errors
    ///
    /// Returns [`NtcsError::ConnectRefused`] if no such mailbox exists or the
    /// owner stopped accepting.
    pub fn connect(
        &self,
        network: NetworkId,
        path: &str,
        from: MachineId,
        conditions: Arc<LinkConditions>,
    ) -> Result<MbxChannel> {
        let reg = self.registry.lock();
        let entry = reg
            .servers
            .get(&(network, path.to_owned()))
            .ok_or_else(|| {
                NtcsError::ConnectRefused(format!("no mailbox {path:?} on {network}"))
            })?;
        if entry.closed.load(Ordering::SeqCst) {
            return Err(NtcsError::ConnectRefused(format!(
                "mailbox {path:?} is closed"
            )));
        }
        let (a_tx, a_rx) = bounded(MBX_LINK_CAP);
        let (b_tx, b_rx) = bounded(MBX_LINK_CAP);
        let (close_sig_tx, close_sig_rx) = bounded(2);
        let shared = Arc::new(LinkShared {
            closed: AtomicBool::new(false),
            close_sig_tx,
            close_sig_rx,
            conditions,
            machines: (from, entry.owner),
            network,
            queued_bytes: AtomicU64::new(0),
            peak_bytes: AtomicU64::new(0),
        });
        let client = MbxChannel {
            tx: a_tx,
            rx: b_rx,
            shared: Arc::clone(&shared),
            label: format!("mbx:{network}:{path}"),
            held: Mutex::new(None),
        };
        let server = MbxChannel {
            tx: b_tx,
            rx: a_rx,
            shared,
            label: format!("mbx:{network}:client@{from}"),
            held: Mutex::new(None),
        };
        entry
            .accept_tx
            .send(PendingConn { channel: server })
            .map_err(|_| {
                NtcsError::ConnectRefused(format!("mailbox {path:?} stopped accepting"))
            })?;
        Ok(client)
    }

    /// Whether a mailbox exists (test hook).
    #[must_use]
    pub fn mailbox_exists(&self, network: NetworkId, path: &str) -> bool {
        self.registry
            .lock()
            .servers
            .contains_key(&(network, path.to_owned()))
    }
}

/// Handle kept by the [`crate::World`] so faults can forcibly close links.
pub(crate) type LinkCloseHandle = Arc<LinkShared>;

pub(crate) fn link_machines(h: &LinkCloseHandle) -> (MachineId, MachineId) {
    h.machines
}

pub(crate) fn close_link(h: &LinkCloseHandle) {
    h.close();
}

pub(crate) fn link_is_closed(h: &LinkCloseHandle) -> bool {
    h.closed.load(Ordering::SeqCst)
}

pub(crate) fn link_queued_bytes(h: &LinkCloseHandle) -> u64 {
    h.queued_bytes.load(Ordering::Relaxed)
}

pub(crate) fn link_peak_bytes(h: &LinkCloseHandle) -> u64 {
    h.peak_bytes.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond() -> Arc<LinkConditions> {
        Arc::new(LinkConditions::new(42))
    }

    fn pair(ipcs: &MbxIpcs) -> (MbxChannel, Box<dyn IpcsChannel>) {
        let net = NetworkId(1);
        let listener = ipcs.create_mailbox(net, "/mbx/srv", MachineId(2)).unwrap();
        let client = ipcs.connect(net, "/mbx/srv", MachineId(1), cond()).unwrap();
        let server = listener.accept(Some(Duration::from_secs(1))).unwrap();
        (client, server)
    }

    #[test]
    fn round_trip() {
        let ipcs = MbxIpcs::new();
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
    fn duplicate_mailbox_rejected() {
        let ipcs = MbxIpcs::new();
        let _l = ipcs
            .create_mailbox(NetworkId(1), "/m", MachineId(0))
            .unwrap();
        assert!(ipcs
            .create_mailbox(NetworkId(1), "/m", MachineId(0))
            .is_err());
        // Same path on a different network is a different mailbox.
        assert!(ipcs
            .create_mailbox(NetworkId(2), "/m", MachineId(0))
            .is_ok());
    }

    #[test]
    fn connect_to_missing_mailbox_refused() {
        let ipcs = MbxIpcs::new();
        let err = ipcs
            .connect(NetworkId(1), "/nope", MachineId(0), cond())
            .unwrap_err();
        assert!(matches!(err, NtcsError::ConnectRefused(_)));
    }

    #[test]
    fn close_wakes_blocked_receiver() {
        let ipcs = MbxIpcs::new();
        let (client, server) = pair(&ipcs);
        let t = std::thread::spawn(move || server.recv(Some(Duration::from_secs(5))));
        std::thread::sleep(Duration::from_millis(20));
        client.close();
        assert!(matches!(
            t.join().unwrap(),
            Err(NtcsError::ConnectionClosed)
        ));
        assert!(client.is_closed());
    }

    #[test]
    fn send_after_close_fails() {
        let ipcs = MbxIpcs::new();
        let (client, server) = pair(&ipcs);
        server.close();
        assert!(matches!(
            client.send(Bytes::new()),
            Err(NtcsError::ConnectionClosed)
        ));
    }

    #[test]
    fn recv_timeout() {
        let ipcs = MbxIpcs::new();
        let (client, _server) = pair(&ipcs);
        let start = Instant::now();
        assert!(matches!(
            client.recv(Some(Duration::from_millis(30))),
            Err(NtcsError::Timeout)
        ));
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn listener_close_removes_mailbox_and_refuses() {
        let ipcs = MbxIpcs::new();
        let l = ipcs
            .create_mailbox(NetworkId(1), "/m", MachineId(0))
            .unwrap();
        assert!(ipcs.mailbox_exists(NetworkId(1), "/m"));
        l.close();
        assert!(!ipcs.mailbox_exists(NetworkId(1), "/m"));
        assert!(ipcs
            .connect(NetworkId(1), "/m", MachineId(1), cond())
            .is_err());
        assert!(matches!(
            l.accept(Some(Duration::ZERO)),
            Err(NtcsError::ShutDown)
        ));
    }

    #[test]
    fn zero_timeout_accept_polls() {
        let ipcs = MbxIpcs::new();
        let l = ipcs
            .create_mailbox(NetworkId(1), "/m", MachineId(0))
            .unwrap();
        assert!(matches!(
            l.accept(Some(Duration::ZERO)),
            Err(NtcsError::WouldBlock)
        ));
    }

    #[test]
    fn latency_delays_delivery() {
        let ipcs = MbxIpcs::new();
        let net = NetworkId(1);
        let conditions = cond();
        conditions.latency_us.store(50_000, Ordering::Relaxed);
        let listener = ipcs.create_mailbox(net, "/slow", MachineId(2)).unwrap();
        let client = ipcs
            .connect(net, "/slow", MachineId(1), Arc::clone(&conditions))
            .unwrap();
        let server = listener.accept(Some(Duration::from_secs(1))).unwrap();
        let start = Instant::now();
        client.send(Bytes::from_static(b"x")).unwrap();
        server.recv(Some(Duration::from_secs(1))).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(45));
    }

    #[test]
    fn full_drop_rate_loses_frames() {
        let ipcs = MbxIpcs::new();
        let net = NetworkId(1);
        let conditions = cond();
        conditions.drop_permille.store(1000, Ordering::Relaxed);
        let listener = ipcs.create_mailbox(net, "/lossy", MachineId(2)).unwrap();
        let client = ipcs
            .connect(net, "/lossy", MachineId(1), Arc::clone(&conditions))
            .unwrap();
        let server = listener.accept(Some(Duration::from_secs(1))).unwrap();
        client.send(Bytes::from_static(b"gone")).unwrap();
        assert!(matches!(
            server.recv(Some(Duration::from_millis(50))),
            Err(NtcsError::Timeout)
        ));
    }

    #[test]
    fn link_tracks_queued_and_peak_bytes() {
        let ipcs = MbxIpcs::new();
        let (client, server) = pair(&ipcs);
        for _ in 0..4 {
            client.send(Bytes::from_static(b"12345678")).unwrap();
        }
        let h = client.shared_close_handle();
        assert_eq!(link_queued_bytes(&h), 32);
        assert_eq!(link_peak_bytes(&h), 32);
        for _ in 0..4 {
            server.recv(Some(Duration::from_secs(1))).unwrap();
        }
        assert_eq!(link_queued_bytes(&h), 0);
        assert_eq!(link_peak_bytes(&h), 32, "peak is a high-water mark");
    }

    #[test]
    fn full_link_blocks_sender_until_close() {
        let ipcs = MbxIpcs::new();
        let (client, server) = pair(&ipcs);
        for _ in 0..MBX_LINK_CAP {
            client.send(Bytes::from_static(b"x")).unwrap();
        }
        // The queue is full: the next send blocks (backpressure), and a
        // close must release it rather than strand it forever.
        let t = std::thread::spawn(move || client.send(Bytes::from_static(b"overflow")));
        std::thread::sleep(Duration::from_millis(20));
        assert!(!t.is_finished(), "sender must block on a full link");
        server.close();
        assert!(matches!(
            t.join().unwrap(),
            Err(NtcsError::ConnectionClosed)
        ));
    }

    #[test]
    fn many_concurrent_channels() {
        let ipcs = Arc::new(MbxIpcs::new());
        let net = NetworkId(1);
        let listener = Arc::new(ipcs.create_mailbox(net, "/many", MachineId(0)).unwrap());
        let mut joins = Vec::new();
        for i in 0..16u32 {
            let ipcs = Arc::clone(&ipcs);
            joins.push(std::thread::spawn(move || {
                let c = ipcs
                    .connect(net, "/many", MachineId(i + 1), cond())
                    .unwrap();
                c.send(Bytes::from(i.to_string().into_bytes())).unwrap();
                c.recv(Some(Duration::from_secs(5))).unwrap()
            }));
        }
        for _ in 0..16 {
            let s = listener.accept(Some(Duration::from_secs(5))).unwrap();
            let m = s.recv(Some(Duration::from_secs(5))).unwrap();
            s.send(m).unwrap();
        }
        for j in joins {
            let _ = j.join().unwrap().len();
        }
    }
}
