//! The UDP datagram substrate: connectionless, best-effort transport for
//! the unreliable-cast path.
//!
//! Real `std::net::UdpSocket`s on loopback, one per channel endpoint. A
//! frame larger than one datagram is fragmented ([`UDP_MAX_FRAGMENT`]);
//! each fragment carries a fixed 20-byte header with an FNV-1a checksum,
//! and the receiver reassembles by message sequence number. Anything
//! malformed — truncated, bit-flipped, alien magic — is silently dropped
//! by [`decode_datagram`], never a panic: datagram loss is this
//! substrate's contract (§2.2's connectionless service), and the layers
//! above either tolerate it (casts) or recover it (the reliable
//! extension's retransmission).
//!
//! Fault injection consumes the same per-network
//! [`LinkConditions`] as MBX/TCP/SHM: armed
//! drops discard whole messages, corruption flips a bit in one in-flight
//! datagram (the receiver's checksum rejects it), duplication re-sends
//! the datagrams, reordering swaps adjacent messages.

use std::collections::HashMap;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use ntcs_addr::{MachineId, NetworkId, NtcsError, Result};
use parking_lot::Mutex;

use crate::channel::{IpcsChannel, IpcsListener};
use crate::mbx::LinkConditions;
use crate::BufferPool;

/// Magic word opening every data datagram (`"NUDP"`).
pub const UDP_MAGIC: u32 = 0x4E55_4450;

/// Magic word of the connect handshake hello (`"NUHL"`).
const HELLO_MAGIC: u32 = 0x4E55_484C;

/// Magic word of the handshake accept reply (`"NUAC"`).
const ACCEPT_MAGIC: u32 = 0x4E55_4143;

/// Largest fragment payload per datagram. Header + fragment stays well
/// under the 65 507-byte UDP maximum.
pub const UDP_MAX_FRAGMENT: usize = 32 * 1024;

/// Bytes of fragment header preceding each payload.
pub const UDP_HEADER_LEN: usize = 20;

/// Largest frame the substrate will fragment (bounds reassembly memory).
pub const UDP_MAX_FRAME: usize = 16 * 1024 * 1024;

/// Reassembly buffers kept per channel; the oldest partial message is
/// evicted beyond this (its fragments are counted as lost).
const UDP_MAX_PARTIALS: usize = 8;

/// Socket read-timeout slice while polling for datagrams, so a close is
/// observed promptly.
const UDP_POLL: Duration = Duration::from_millis(20);

fn io_err(e: &std::io::Error) -> NtcsError {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => NtcsError::Timeout,
        ErrorKind::UnexpectedEof
        | ErrorKind::ConnectionReset
        | ErrorKind::ConnectionAborted
        | ErrorKind::BrokenPipe
        | ErrorKind::NotConnected => NtcsError::ConnectionClosed,
        ErrorKind::ConnectionRefused => NtcsError::ConnectRefused("udp refused".into()),
        _ => NtcsError::Ipcs(format!("udp io error: {e}")),
    }
}

/// FNV-1a over a byte slice — the per-fragment integrity check.
#[must_use]
pub fn udp_checksum(data: &[u8]) -> u32 {
    let mut hash: u32 = 0x811C_9DC5;
    for &b in data {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn get_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_be_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]])
}

/// One decoded, checksum-verified fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpFragment {
    /// Message sequence number all fragments of one frame share.
    pub seq: u32,
    /// This fragment's index, `0 ≤ index < total`.
    pub index: u16,
    /// Total fragments in the message.
    pub total: u16,
    /// The fragment payload.
    pub payload: Vec<u8>,
}

/// Splits one frame into wire datagrams under sequence number `seq`.
/// Always yields at least one datagram (an empty frame travels as a
/// single empty fragment).
#[must_use]
pub fn encode_datagrams(seq: u32, frame: &[u8]) -> Vec<Vec<u8>> {
    let chunks: Vec<&[u8]> = if frame.is_empty() {
        vec![&[][..]]
    } else {
        frame.chunks(UDP_MAX_FRAGMENT).collect()
    };
    let total = chunks.len() as u16;
    chunks
        .iter()
        .enumerate()
        .map(|(ix, chunk)| {
            let mut d = Vec::with_capacity(UDP_HEADER_LEN + chunk.len());
            put_u32(&mut d, UDP_MAGIC);
            put_u32(&mut d, seq);
            d.extend_from_slice(&(ix as u16).to_be_bytes());
            d.extend_from_slice(&total.to_be_bytes());
            put_u32(&mut d, chunk.len() as u32);
            put_u32(&mut d, udp_checksum(chunk));
            d.extend_from_slice(chunk);
            d
        })
        .collect()
}

/// Decodes and verifies one datagram. Returns `None` — never panics — for
/// anything malformed: short header, wrong magic, length mismatch,
/// inconsistent fragment counts, or a checksum miss (bit flips).
#[must_use]
pub fn decode_datagram(datagram: &[u8]) -> Option<UdpFragment> {
    if datagram.len() < UDP_HEADER_LEN {
        return None;
    }
    if get_u32(datagram, 0) != UDP_MAGIC {
        return None;
    }
    let seq = get_u32(datagram, 4);
    let index = u16::from_be_bytes([datagram[8], datagram[9]]);
    let total = u16::from_be_bytes([datagram[10], datagram[11]]);
    let len = get_u32(datagram, 12) as usize;
    let checksum = get_u32(datagram, 16);
    if total == 0 || index >= total {
        return None;
    }
    let payload = &datagram[UDP_HEADER_LEN..];
    if payload.len() != len || len > UDP_MAX_FRAGMENT {
        return None;
    }
    if udp_checksum(payload) != checksum {
        return None;
    }
    Some(UdpFragment {
        seq,
        index,
        total,
        payload: payload.to_vec(),
    })
}

#[derive(Debug)]
struct Partial {
    total: u16,
    got: u16,
    chunks: Vec<Option<Vec<u8>>>,
    first_seen: Instant,
}

/// Reassembles verified fragments into whole frames. Bounded: at most
/// [`UDP_MAX_PARTIALS`] messages in flight, oldest evicted.
#[derive(Debug, Default)]
struct Reassembler {
    partials: HashMap<u32, Partial>,
}

impl Reassembler {
    /// Feeds one fragment; returns the whole frame when complete.
    fn feed(&mut self, frag: UdpFragment) -> Option<Vec<u8>> {
        let p = self.partials.entry(frag.seq).or_insert_with(|| Partial {
            total: frag.total,
            got: 0,
            chunks: vec![None; frag.total as usize],
            first_seen: Instant::now(),
        });
        if p.total != frag.total || frag.index >= p.total {
            // Inconsistent with the first fragment seen: drop the message.
            self.partials.remove(&frag.seq);
            return None;
        }
        let slot = &mut p.chunks[frag.index as usize];
        if slot.is_none() {
            *slot = Some(frag.payload);
            p.got += 1;
        }
        if p.got == p.total {
            let p = self.partials.remove(&frag.seq)?;
            let mut frame = Vec::new();
            for c in p.chunks {
                frame.extend_from_slice(&c?);
            }
            return Some(frame);
        }
        if self.partials.len() > UDP_MAX_PARTIALS {
            if let Some((&oldest, _)) = self.partials.iter().min_by_key(|(_, p)| p.first_seen) {
                self.partials.remove(&oldest);
            }
        }
        None
    }
}

/// State shared by a channel endpoint and the [`crate::World`] (to sever
/// the link on crash/partition).
#[derive(Debug)]
pub(crate) struct UdpShared {
    closed: AtomicBool,
    pub(crate) machines: (MachineId, MachineId),
    network: NetworkId,
}

impl UdpShared {
    pub(crate) fn force_close(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }
}

/// One endpoint of a UDP duplex channel (a connected socket pair).
pub struct UdpChannel {
    socket: UdpSocket,
    shared: Arc<UdpShared>,
    conditions: Arc<LinkConditions>,
    pool: BufferPool,
    label: String,
    seq: AtomicU32,
    /// Reorder-injection hold-back: a whole encoded message stashed until
    /// its successor has gone out (adjacent-pair swap).
    held: Mutex<Option<Vec<Vec<u8>>>>,
    reassembly: Mutex<Reassembler>,
    recv_buf: Mutex<Vec<u8>>,
}

impl std::fmt::Debug for UdpChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdpChannel")
            .field("label", &self.label)
            .field("closed", &self.shared.is_closed())
            .finish()
    }
}

impl UdpChannel {
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

    pub(crate) fn shared_handle(&self) -> Arc<UdpShared> {
        Arc::clone(&self.shared)
    }

    fn blast(&self, datagrams: &[Vec<u8>]) -> Result<()> {
        for d in datagrams {
            self.socket.send(d).map_err(|e| io_err(&e))?;
        }
        Ok(())
    }
}

impl IpcsChannel for UdpChannel {
    fn send(&self, frame: Bytes) -> Result<()> {
        if self.shared.is_closed() {
            return Err(NtcsError::ConnectionClosed);
        }
        if frame.len() > UDP_MAX_FRAME {
            return Err(NtcsError::InvalidArgument(format!(
                "frame of {} bytes exceeds the udp substrate maximum",
                frame.len()
            )));
        }
        if self.conditions.should_drop() {
            // Whole-message loss, the native failure mode of datagrams.
            self.pool.reclaim(frame);
            return Ok(());
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut datagrams = encode_datagrams(seq, &frame);
        self.pool.reclaim(frame);
        if self.conditions.should_corrupt() {
            // Flip one payload bit in one datagram: the receiver's
            // checksum rejects the fragment, losing the message.
            if let Some(d) = datagrams.first_mut() {
                let at = d.len() - 1;
                d[at] ^= 0x01;
            }
        }
        let dup = self.conditions.should_dup();
        if !dup && self.conditions.should_hold() {
            let mut held = self.held.lock();
            if held.is_none() {
                *held = Some(datagrams);
                return Ok(());
            }
        }
        self.blast(&datagrams)?;
        if dup {
            self.blast(&datagrams)?;
        }
        if let Some(held) = self.held.lock().take() {
            self.blast(&held)?;
        }
        Ok(())
    }

    fn recv(&self, timeout: Option<Duration>) -> Result<Bytes> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut buf = self.recv_buf.lock();
        loop {
            if self.shared.is_closed() {
                return Err(NtcsError::ConnectionClosed);
            }
            let wait = match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Err(NtcsError::Timeout);
                    }
                    (d - now).min(UDP_POLL)
                }
                None => UDP_POLL,
            };
            self.socket
                .set_read_timeout(Some(wait))
                .map_err(|e| io_err(&e))?;
            match self.socket.recv(&mut buf) {
                Ok(n) => {
                    let Some(frag) = decode_datagram(&buf[..n]) else {
                        continue; // malformed or corrupted: datagram loss
                    };
                    if let Some(frame) = self.reassembly.lock().feed(frag) {
                        let latency_us = self.conditions.latency_us.load(Ordering::Relaxed);
                        if latency_us > 0 {
                            std::thread::sleep(Duration::from_micros(latency_us));
                        }
                        return Ok(Bytes::from(frame));
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(e) => {
                    // A connected UDP socket surfaces ICMP refusals as
                    // ConnectionRefused; treat any hard error as a closed
                    // peer.
                    let mapped = io_err(&e);
                    if matches!(mapped, NtcsError::ConnectRefused(_)) {
                        continue; // transient: peer socket not up yet
                    }
                    self.shared.force_close();
                    return Err(NtcsError::ConnectionClosed);
                }
            }
        }
    }

    fn close(&self) {
        self.shared.force_close();
    }

    fn is_closed(&self) -> bool {
        self.shared.is_closed()
    }

    fn peer_label(&self) -> String {
        self.label.clone()
    }
}

/// A UDP listener: owns the advertised rendezvous socket and mints one
/// connected socket pair per inbound hello.
pub struct UdpIpcsListener {
    socket: UdpSocket,
    port: u16,
    network: NetworkId,
    machine: MachineId,
    conditions: Arc<LinkConditions>,
    pool: BufferPool,
    closed: AtomicBool,
    /// Channels accepted here, so the world can sever them on faults.
    pub(crate) accepted: Mutex<Vec<Arc<UdpShared>>>,
}

impl std::fmt::Debug for UdpIpcsListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdpIpcsListener")
            .field("port", &self.port)
            .field("network", &self.network)
            .finish()
    }
}

impl UdpIpcsListener {
    /// Binds a rendezvous socket on an ephemeral loopback port.
    ///
    /// # Errors
    ///
    /// Returns [`NtcsError::Ipcs`] if the bind fails.
    pub fn bind(
        network: NetworkId,
        machine: MachineId,
        conditions: Arc<LinkConditions>,
        pool: BufferPool,
    ) -> Result<Self> {
        let socket = UdpSocket::bind(("127.0.0.1", 0)).map_err(|e| io_err(&e))?;
        let port = socket.local_addr().map_err(|e| io_err(&e))?.port();
        Ok(UdpIpcsListener {
            socket,
            port,
            network,
            machine,
            conditions,
            pool,
            closed: AtomicBool::new(false),
            accepted: Mutex::new(Vec::new()),
        })
    }

    /// The bound port.
    #[must_use]
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Accepts one inbound hello, minting a connected channel for it.
    ///
    /// # Errors
    ///
    /// [`NtcsError::Timeout`]/[`NtcsError::WouldBlock`] as for the trait;
    /// [`NtcsError::ShutDown`] once closed.
    pub fn accept_udp(&self, timeout: Option<Duration>) -> Result<UdpChannel> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut buf = [0u8; 64];
        loop {
            if self.closed.load(Ordering::SeqCst) {
                return Err(NtcsError::ShutDown);
            }
            let wait = match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Err(if timeout == Some(Duration::ZERO) {
                            NtcsError::WouldBlock
                        } else {
                            NtcsError::Timeout
                        });
                    }
                    (d - now).min(UDP_POLL)
                }
                None => UDP_POLL,
            };
            self.socket
                .set_read_timeout(Some(wait.max(Duration::from_millis(1))))
                .map_err(|e| io_err(&e))?;
            match self.socket.recv_from(&mut buf) {
                Ok((n, from_addr)) => {
                    if n < 12 || get_u32(&buf, 0) != HELLO_MAGIC {
                        continue;
                    }
                    let net = get_u32(&buf, 4);
                    let from_machine = MachineId(get_u32(&buf, 8));
                    if net != self.network.0 {
                        continue; // wrong simulated network: ignore
                    }
                    // Mint the per-connection socket and tell the dialer
                    // where it lives (the reply's source address).
                    let conn = UdpSocket::bind(("127.0.0.1", 0)).map_err(|e| io_err(&e))?;
                    conn.connect(from_addr).map_err(|e| io_err(&e))?;
                    let mut ack = Vec::with_capacity(8);
                    put_u32(&mut ack, ACCEPT_MAGIC);
                    put_u32(&mut ack, self.network.0);
                    conn.send(&ack).map_err(|e| io_err(&e))?;
                    let shared = Arc::new(UdpShared {
                        closed: AtomicBool::new(false),
                        machines: (from_machine, self.machine),
                        network: self.network,
                    });
                    {
                        let mut accepted = self.accepted.lock();
                        accepted.retain(|l| !l.is_closed());
                        accepted.push(Arc::clone(&shared));
                    }
                    return Ok(UdpChannel {
                        socket: conn,
                        shared,
                        conditions: Arc::clone(&self.conditions),
                        pool: self.pool.clone(),
                        label: format!("udp:{}:client@{}", self.network, from_machine),
                        seq: AtomicU32::new(0),
                        held: Mutex::new(None),
                        reassembly: Mutex::new(Reassembler::default()),
                        recv_buf: Mutex::new(vec![0u8; UDP_HEADER_LEN + UDP_MAX_FRAGMENT]),
                    });
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if timeout == Some(Duration::ZERO) {
                        return Err(NtcsError::WouldBlock);
                    }
                }
                Err(e) => return Err(io_err(&e)),
            }
        }
    }

    /// Forcibly closes every channel accepted here (crash injection).
    pub(crate) fn force_close_accepted(&self) {
        for shared in self.accepted.lock().drain(..) {
            shared.force_close();
        }
    }

    /// Stops accepting.
    pub fn shut_down(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }
}

impl IpcsListener for UdpIpcsListener {
    fn accept(&self, timeout: Option<Duration>) -> Result<Box<dyn IpcsChannel>> {
        Ok(Box::new(self.accept_udp(timeout)?))
    }

    fn close(&self) {
        self.shut_down();
    }

    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }
}

/// Dials the rendezvous port and completes the socket-pair handshake.
///
/// # Errors
///
/// [`NtcsError::ConnectRefused`] if no accept reply arrives (no listener,
/// or a dead one), transport errors otherwise.
pub fn udp_connect(
    host: &str,
    port: u16,
    network: NetworkId,
    from: MachineId,
    to: MachineId,
    conditions: Arc<LinkConditions>,
    pool: BufferPool,
) -> Result<UdpChannel> {
    let socket = UdpSocket::bind(("127.0.0.1", 0)).map_err(|e| io_err(&e))?;
    let mut hello = Vec::with_capacity(12);
    put_u32(&mut hello, HELLO_MAGIC);
    put_u32(&mut hello, network.0);
    put_u32(&mut hello, from.0);
    socket
        .set_read_timeout(Some(Duration::from_millis(250)))
        .map_err(|e| io_err(&e))?;
    let mut buf = [0u8; 64];
    // Datagrams may be lost even on loopback under load: re-hello a few
    // times before declaring the listener gone.
    for _ in 0..8 {
        socket
            .send_to(&hello, (host, port))
            .map_err(|e| io_err(&e))?;
        match socket.recv_from(&mut buf) {
            Ok((n, conn_addr)) => {
                if n >= 8 && get_u32(&buf, 0) == ACCEPT_MAGIC && get_u32(&buf, 4) == network.0 {
                    socket.connect(conn_addr).map_err(|e| io_err(&e))?;
                    return Ok(UdpChannel {
                        socket,
                        shared: Arc::new(UdpShared {
                            closed: AtomicBool::new(false),
                            machines: (from, to),
                            network,
                        }),
                        conditions,
                        pool,
                        label: format!("udp:{network}:{host}:{port}"),
                        seq: AtomicU32::new(0),
                        held: Mutex::new(None),
                        reassembly: Mutex::new(Reassembler::default()),
                        recv_buf: Mutex::new(vec![0u8; UDP_HEADER_LEN + UDP_MAX_FRAGMENT]),
                    });
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::ConnectionRefused => {}
            Err(e) => return Err(io_err(&e)),
        }
    }
    Err(NtcsError::ConnectRefused(format!(
        "no udp accept reply from {host}:{port}"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond() -> Arc<LinkConditions> {
        Arc::new(LinkConditions::new(11))
    }

    fn pair() -> (UdpChannel, UdpChannel, Arc<UdpIpcsListener>) {
        let listener = Arc::new(
            UdpIpcsListener::bind(NetworkId(0), MachineId(2), cond(), BufferPool::new()).unwrap(),
        );
        let l2 = Arc::clone(&listener);
        let server =
            std::thread::spawn(move || l2.accept_udp(Some(Duration::from_secs(2))).unwrap());
        let client = udp_connect(
            "127.0.0.1",
            listener.port(),
            NetworkId(0),
            MachineId(1),
            MachineId(2),
            cond(),
            BufferPool::new(),
        )
        .unwrap();
        (client, server.join().unwrap(), listener)
    }

    #[test]
    fn codec_round_trips_multi_fragment() {
        let frame: Vec<u8> = (0..UDP_MAX_FRAGMENT * 2 + 17)
            .map(|i| (i % 251) as u8)
            .collect();
        let datagrams = encode_datagrams(42, &frame);
        assert_eq!(datagrams.len(), 3);
        let mut r = Reassembler::default();
        let mut out = None;
        for d in &datagrams {
            let frag = decode_datagram(d).expect("valid datagram");
            assert_eq!(frag.seq, 42);
            if let Some(f) = r.feed(frag) {
                out = Some(f);
            }
        }
        assert_eq!(out.unwrap(), frame);
    }

    #[test]
    fn codec_rejects_garbage_without_panicking() {
        assert_eq!(decode_datagram(&[]), None);
        assert_eq!(decode_datagram(&[0u8; 10]), None);
        assert_eq!(decode_datagram(&[0xFFu8; 40]), None);
        let mut good = encode_datagrams(1, b"hello").remove(0);
        // Truncations at every length never panic.
        for cut in 0..good.len() {
            let _ = decode_datagram(&good[..cut]);
        }
        // A bit flip anywhere must never panic...
        let len = good.len();
        for at in 0..len {
            good[at] ^= 0x10;
            let _ = decode_datagram(&good);
            good[at] ^= 0x10;
        }
        // ...and flips in the magic, length, checksum, or payload are
        // rejected outright (the checksum covers the payload).
        for at in (0..4).chain(12..len) {
            good[at] ^= 0x10;
            assert_eq!(decode_datagram(&good), None, "flip at {at} accepted");
            good[at] ^= 0x10;
        }
        assert!(decode_datagram(&good).is_some());
    }

    #[test]
    fn round_trip_and_fragmented_frame() {
        let (client, server, _l) = pair();
        client.send(Bytes::from_static(b"cast")).unwrap();
        assert_eq!(
            server.recv(Some(Duration::from_secs(2))).unwrap(),
            Bytes::from_static(b"cast")
        );
        let big = vec![7u8; UDP_MAX_FRAGMENT + 100];
        server.send(Bytes::from(big.clone())).unwrap();
        assert_eq!(
            &client.recv(Some(Duration::from_secs(2))).unwrap()[..],
            &big[..]
        );
    }

    #[test]
    fn armed_corruption_loses_the_message() {
        let (client, server, _l) = pair();
        client.conditions.corrupt_next.store(1, Ordering::SeqCst);
        client.send(Bytes::from_static(b"garbled")).unwrap();
        client.send(Bytes::from_static(b"clean")).unwrap();
        // The corrupted message's fragment fails its checksum and the
        // whole message vanishes; the next one arrives.
        assert_eq!(
            server.recv(Some(Duration::from_secs(2))).unwrap(),
            Bytes::from_static(b"clean")
        );
    }

    #[test]
    fn force_close_unblocks_receiver() {
        let (_client, server, _l) = pair();
        let handle = server.shared_handle();
        let t = std::thread::spawn(move || server.recv(Some(Duration::from_secs(10))));
        std::thread::sleep(Duration::from_millis(30));
        // Closing a UDP channel is local state only (connectionless
        // transport): the World severs each end's shared handle.
        handle.force_close();
        assert!(matches!(
            t.join().unwrap(),
            Err(NtcsError::ConnectionClosed)
        ));
    }
}
