//! A real-TCP IPCS over the loopback interface.
//!
//! The paper's Unix machines used TCP as the native IPCS (§1: "currently
//! runs under both Unix TCP and Apollo MBX communication support"). This
//! driver uses genuine `std::net` sockets on `127.0.0.1` with length-prefixed
//! frames, so the NTCS above it exercises real kernel buffering, real EOF
//! semantics, and real connection-reset failures.
//!
//! Simulated networks remain *disjoint* even though every socket shares the
//! loopback interface: the connection handshake carries the logical
//! [`NetworkId`], and a listener refuses peers from a different logical
//! network.

use std::io::{IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use ntcs_addr::{MachineId, NetworkId, NtcsError, Result};
use parking_lot::Mutex;

use crate::channel::{IpcsChannel, IpcsListener};
use crate::mbx::LinkConditions;
use crate::pool::BufferPool;

const HANDSHAKE_MAGIC: u32 = 0x4E54_4350; // "NTCP"
const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Size of each channel's receive buffer. One `read` fills as much of it
/// as the socket holds, so a burst of small frames costs one syscall.
const READ_BUF: usize = 16 * 1024;

/// Bodies of at least this many bytes bypass the receive buffer and are
/// read straight into their pooled block. Smaller ones are copied out of
/// the buffer; a frame below the threshold always fits in it whole.
const DIRECT_BODY: usize = 4 * 1024;
// A buffered frame must fit whole, or `recv` would read into an empty slice.
const _: () = assert!(4 + DIRECT_BODY <= READ_BUF);

/// The socket's read timeout is re-armed only when the wanted timeout
/// differs from the armed one by more than this, so a reader polling at a
/// fixed period arms it once rather than before every read.
const TIMEOUT_SLACK: Duration = Duration::from_millis(1);

fn io_err(e: &std::io::Error) -> NtcsError {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => NtcsError::Timeout,
        ErrorKind::UnexpectedEof
        | ErrorKind::ConnectionReset
        | ErrorKind::ConnectionAborted
        | ErrorKind::BrokenPipe
        | ErrorKind::NotConnected => NtcsError::ConnectionClosed,
        ErrorKind::ConnectionRefused => NtcsError::ConnectRefused("tcp refused".into()),
        _ => NtcsError::Ipcs(format!("tcp: {e}")),
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.push((v >> 24) as u8);
    buf.push((v >> 16) as u8);
    buf.push((v >> 8) as u8);
    buf.push(v as u8);
}

fn read_u32_exact(stream: &mut TcpStream) -> std::io::Result<u32> {
    let mut b = [0u8; 4];
    stream.read_exact(&mut b)?;
    Ok(
        (u32::from(b[0]) << 24)
            | (u32::from(b[1]) << 16)
            | (u32::from(b[2]) << 8)
            | u32::from(b[3]),
    )
}

/// Writes `[len][body]` as one vectored write where the kernel takes it
/// whole, looping over short writes otherwise.
fn write_frame(mut stream: &TcpStream, body: &[u8]) -> std::io::Result<()> {
    let prefix = (body.len() as u32).to_be_bytes();
    let mut slices = [IoSlice::new(&prefix), IoSlice::new(body)];
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match stream.write_vectored(rest) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Shared state of one TCP channel endpoint, kept so the [`crate::World`]
/// can sever it on a machine crash. It owns the endpoint's only socket
/// descriptor; the channel reads and writes through `&TcpStream`.
#[derive(Debug)]
pub(crate) struct TcpShared {
    stream: TcpStream,
    closed: AtomicBool,
    pub(crate) machines: (MachineId, MachineId),
}

impl TcpShared {
    pub(crate) fn force_close(&self) {
        if !self.closed.swap(true, Ordering::SeqCst) {
            let _ = self.stream.shutdown(std::net::Shutdown::Both);
        }
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }
}

/// Receive-side frame reassembly. Everything here survives a timed-out
/// `recv`, so a timeout never corrupts the stream: buffered bytes and a
/// partly read large body are kept for the next call.
#[derive(Debug)]
struct ReadState {
    /// Bytes read from the socket; `buf[start..end]` are not parsed yet.
    buf: Box<[u8]>,
    start: usize,
    end: usize,
    /// A large body being read straight into its block: (length, block).
    /// Set only while the body is incomplete.
    body: Option<(usize, Vec<u8>)>,
    /// The read timeout armed on the socket; `None` until first armed.
    armed: Option<Option<Duration>>,
}

impl ReadState {
    fn new() -> Self {
        ReadState {
            buf: vec![0u8; READ_BUF].into_boxed_slice(),
            start: 0,
            end: 0,
            body: None,
            armed: None,
        }
    }

    /// Takes the next whole frame out of the buffered bytes. Returns `None`
    /// when more bytes are needed; for a large body that is not all here
    /// yet, it first moves the buffered part into `self.body`, which the
    /// caller completes straight from the socket.
    fn next_frame(&mut self, pool: &BufferPool) -> Result<Option<Bytes>> {
        let avail = &self.buf[self.start..self.end];
        let Some((prefix, rest)) = avail.split_first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_be_bytes(*prefix) as usize;
        if len > MAX_FRAME {
            return Err(NtcsError::Protocol(format!(
                "tcp frame length {len} exceeds maximum"
            )));
        }
        if rest.len() >= len {
            // The filled block is handed upward as the frame, so lease it
            // from the pool rather than allocating per frame.
            let mut block = pool.take(len.max(4));
            block.extend_from_slice(&rest[..len]);
            self.start += 4 + len;
            return Ok(Some(Bytes::from(block)));
        }
        if len >= DIRECT_BODY {
            let mut block = pool.take(len);
            block.extend_from_slice(rest);
            self.start = self.end;
            self.body = Some((len, block));
        }
        Ok(None)
    }
}

/// Arms the socket's read timeout for `want`, skipping the syscall when
/// the `armed` one is within [`TIMEOUT_SLACK`] of it.
fn arm_timeout(
    stream: &TcpStream,
    armed: &mut Option<Option<Duration>>,
    want: Option<Duration>,
) -> Result<()> {
    let close_enough = match (*armed, want) {
        (Some(None), None) => true,
        (Some(Some(armed)), Some(want)) => armed.abs_diff(want) <= TIMEOUT_SLACK,
        _ => false,
    };
    if !close_enough {
        stream
            .set_read_timeout(want)
            .map_err(|e| NtcsError::Ipcs(format!("set_read_timeout: {e}")))?;
        *armed = Some(want);
    }
    Ok(())
}

/// One endpoint of a TCP channel.
pub struct TcpChannel {
    shared: Arc<TcpShared>,
    read: Mutex<ReadState>,
    /// Serialises writers so frames never interleave on the stream.
    write: Mutex<()>,
    conditions: Arc<LinkConditions>,
    pool: BufferPool,
    label: String,
}

impl std::fmt::Debug for TcpChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpChannel")
            .field("label", &self.label)
            .field("closed", &self.shared.is_closed())
            .finish()
    }
}

impl TcpChannel {
    fn from_stream(
        stream: TcpStream,
        machines: (MachineId, MachineId),
        conditions: Arc<LinkConditions>,
        pool: BufferPool,
        label: String,
    ) -> Result<Self> {
        stream
            .set_nodelay(true)
            .map_err(|e| NtcsError::Ipcs(format!("set_nodelay: {e}")))?;
        Ok(TcpChannel {
            shared: Arc::new(TcpShared {
                stream,
                closed: AtomicBool::new(false),
                machines,
            }),
            read: Mutex::new(ReadState::new()),
            write: Mutex::new(()),
            conditions,
            pool,
            label,
        })
    }

    pub(crate) fn shared_handle(&self) -> Arc<TcpShared> {
        Arc::clone(&self.shared)
    }

    /// Maps a socket error, closing the channel if the peer is gone.
    fn read_failed(&self, e: &std::io::Error) -> NtcsError {
        let err = io_err(e);
        if matches!(err, NtcsError::ConnectionClosed) {
            self.shared.force_close();
        }
        err
    }

    fn deliver(&self, frame: Bytes) -> Bytes {
        let lat = self.conditions.latency_us.load(Ordering::Relaxed);
        if lat > 0 {
            std::thread::sleep(Duration::from_micros(lat));
        }
        frame
    }
}

/// Time left before `deadline`, or `Timeout` once it has passed.
fn remaining(deadline: Option<Instant>) -> Result<Option<Duration>> {
    match deadline {
        Some(d) => {
            let now = Instant::now();
            if now >= d {
                return Err(NtcsError::Timeout);
            }
            Ok(Some(d - now))
        }
        None => Ok(None),
    }
}

impl IpcsChannel for TcpChannel {
    fn send(&self, frame: Bytes) -> Result<()> {
        if self.shared.is_closed() {
            return Err(NtcsError::ConnectionClosed);
        }
        if frame.len() > MAX_FRAME {
            return Err(NtcsError::InvalidArgument(format!(
                "frame of {} bytes exceeds tcp maximum",
                frame.len()
            )));
        }
        if self.conditions.should_drop() {
            // Silent loss, as on a flaky wire.
            self.pool.reclaim(frame);
            return Ok(());
        }
        // Corruption injection: flip one body byte (never the length
        // prefix — a garbled body, not a desynced stream). TCP framing has
        // no checksum, so the garbled bytes reach the layer above.
        let corrupted = (!frame.is_empty() && self.conditions.should_corrupt()).then(|| {
            let mut copy = frame.to_vec();
            copy[frame.len() / 2] ^= 0xFF;
            copy
        });
        let result = {
            let _w = self.write.lock();
            write_frame(&self.shared.stream, corrupted.as_deref().unwrap_or(&frame))
        };
        result.map_err(|e| {
            self.shared.force_close();
            io_err(&e)
        })?;
        // The bytes are on the wire; if we held the only reference to the
        // frame's allocation, recycle it for the next encode.
        self.pool.reclaim(frame);
        Ok(())
    }

    fn recv(&self, timeout: Option<Duration>) -> Result<Bytes> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut stream = &self.shared.stream;
        let mut guard = self.read.lock();
        let st = &mut *guard;
        loop {
            if self.shared.is_closed() {
                return Err(NtcsError::ConnectionClosed);
            }
            if let Some((len, block)) = &mut st.body {
                arm_timeout(stream, &mut st.armed, remaining(deadline)?)?;
                let missing = (*len - block.len()) as u64;
                // `read_to_end` fills spare capacity without zeroing it and
                // keeps what it read if the timeout strikes.
                if let Err(e) = stream.take(missing).read_to_end(block) {
                    return Err(self.read_failed(&e));
                }
                if block.len() < *len {
                    self.shared.force_close();
                    return Err(NtcsError::ConnectionClosed);
                }
                let block = std::mem::take(block);
                st.body = None;
                return Ok(self.deliver(Bytes::from(block)));
            }
            match st.next_frame(&self.pool) {
                Ok(Some(frame)) => return Ok(self.deliver(frame)),
                Ok(None) if st.body.is_some() => continue,
                Ok(None) => {}
                Err(e) => {
                    self.shared.force_close();
                    return Err(e);
                }
            }
            // Need more bytes: keep the unparsed tail at the front, then
            // read as much as the socket holds behind it.
            st.buf.copy_within(st.start..st.end, 0);
            st.end -= st.start;
            st.start = 0;
            arm_timeout(stream, &mut st.armed, remaining(deadline)?)?;
            match stream.read(&mut st.buf[st.end..]) {
                Ok(0) => {
                    self.shared.force_close();
                    return Err(NtcsError::ConnectionClosed);
                }
                Ok(n) => st.end += n,
                Err(e) => return Err(self.read_failed(&e)),
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

/// A TCP listening endpoint bound to an ephemeral loopback port.
pub struct TcpIpcsListener {
    listener: TcpListener,
    network: NetworkId,
    owner: MachineId,
    closed: AtomicBool,
    conditions: Arc<LinkConditions>,
    pool: BufferPool,
    pub(crate) accepted: Mutex<Vec<Arc<TcpShared>>>,
}

impl std::fmt::Debug for TcpIpcsListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpIpcsListener")
            .field("addr", &self.listener.local_addr().ok())
            .field("network", &self.network)
            .finish()
    }
}

impl TcpIpcsListener {
    /// Binds a new listener for `owner` on logical `network`.
    ///
    /// # Errors
    ///
    /// Returns [`NtcsError::Ipcs`] if the bind fails.
    pub fn bind(
        network: NetworkId,
        owner: MachineId,
        conditions: Arc<LinkConditions>,
        pool: BufferPool,
    ) -> Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))
            .map_err(|e| NtcsError::Ipcs(format!("bind: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| NtcsError::Ipcs(format!("set_nonblocking: {e}")))?;
        Ok(TcpIpcsListener {
            listener,
            network,
            owner,
            closed: AtomicBool::new(false),
            conditions,
            pool,
            accepted: Mutex::new(Vec::new()),
        })
    }

    /// The bound port.
    ///
    /// # Errors
    ///
    /// Returns [`NtcsError::Ipcs`] if the socket address is unavailable.
    pub fn port(&self) -> Result<u16> {
        Ok(self
            .listener
            .local_addr()
            .map_err(|e| NtcsError::Ipcs(format!("local_addr: {e}")))?
            .port())
    }

    fn handshake_server(&self, mut stream: TcpStream) -> Result<TcpChannel> {
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .map_err(|e| NtcsError::Ipcs(format!("set_read_timeout: {e}")))?;
        let magic = read_u32_exact(&mut stream).map_err(|e| io_err(&e))?;
        if magic != HANDSHAKE_MAGIC {
            return Err(NtcsError::Protocol(format!(
                "bad tcp handshake magic {magic:#x}"
            )));
        }
        let net = read_u32_exact(&mut stream).map_err(|e| io_err(&e))?;
        let client_machine = read_u32_exact(&mut stream).map_err(|e| io_err(&e))?;
        let ok = net == self.network.0;
        let mut reply = Vec::new();
        put_u32(&mut reply, u32::from(ok));
        stream.write_all(&reply).map_err(|e| io_err(&e))?;
        if !ok {
            return Err(NtcsError::ConnectRefused(format!(
                "peer on net{} tried to join net{}",
                net, self.network.0
            )));
        }
        TcpChannel::from_stream(
            stream,
            (self.owner, MachineId(client_machine)),
            Arc::clone(&self.conditions),
            self.pool.clone(),
            format!("tcp:{}:client@m{}", self.network, client_machine),
        )
    }
}

impl IpcsListener for TcpIpcsListener {
    fn accept(&self, timeout: Option<Duration>) -> Result<Box<dyn IpcsChannel>> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            if self.closed.load(Ordering::SeqCst) {
                return Err(NtcsError::ShutDown);
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => match self.handshake_server(stream) {
                    Ok(chan) => {
                        {
                            let mut accepted = self.accepted.lock();
                            accepted.retain(|l| !l.is_closed());
                            accepted.push(chan.shared_handle());
                        }
                        return Ok(Box::new(chan));
                    }
                    // A refused or garbled handshake is not fatal to the
                    // listener; keep accepting.
                    Err(_) => continue,
                },
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if let Some(d) = deadline {
                        if Instant::now() >= d {
                            return Err(if timeout == Some(Duration::ZERO) {
                                NtcsError::WouldBlock
                            } else {
                                NtcsError::Timeout
                            });
                        }
                    }
                    std::thread::sleep(Duration::from_micros(500));
                }
                Err(e) => return Err(io_err(&e)),
            }
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }
}

/// Dials a TCP endpoint on logical `network`, performing the NTCS handshake.
///
/// # Errors
///
/// Returns [`NtcsError::ConnectRefused`] if nothing is listening or the
/// logical network does not match; other substrate failures map to
/// [`NtcsError::Ipcs`].
pub fn tcp_connect(
    host: &str,
    port: u16,
    network: NetworkId,
    from: MachineId,
    to: MachineId,
    conditions: Arc<LinkConditions>,
    pool: BufferPool,
) -> Result<TcpChannel> {
    let addr: SocketAddr = format!("{host}:{port}")
        .parse()
        .map_err(|_| NtcsError::InvalidArgument(format!("bad tcp address {host}:{port}")))?;
    let mut stream =
        TcpStream::connect_timeout(&addr, Duration::from_secs(2)).map_err(|e| io_err(&e))?;
    let mut hello = Vec::new();
    put_u32(&mut hello, HANDSHAKE_MAGIC);
    put_u32(&mut hello, network.0);
    put_u32(&mut hello, from.0);
    stream.write_all(&hello).map_err(|e| io_err(&e))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .map_err(|e| NtcsError::Ipcs(format!("set_read_timeout: {e}")))?;
    let ok = read_u32_exact(&mut stream).map_err(|e| io_err(&e))?;
    if ok != 1 {
        return Err(NtcsError::ConnectRefused(format!(
            "listener rejected logical network {network}"
        )));
    }
    TcpChannel::from_stream(
        stream,
        (from, to),
        conditions,
        pool,
        format!("tcp:{network}:{host}:{port}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond() -> Arc<LinkConditions> {
        Arc::new(LinkConditions::new(7))
    }

    fn pair() -> (TcpChannel, Box<dyn IpcsChannel>) {
        let listener =
            TcpIpcsListener::bind(NetworkId(1), MachineId(0), cond(), BufferPool::new()).unwrap();
        let port = listener.port().unwrap();
        let t = std::thread::spawn(move || {
            let c = listener.accept(Some(Duration::from_secs(5))).unwrap();
            (listener, c)
        });
        let client = tcp_connect(
            "127.0.0.1",
            port,
            NetworkId(1),
            MachineId(1),
            MachineId(0),
            cond(),
            BufferPool::new(),
        )
        .unwrap();
        let (_listener, server) = t.join().unwrap();
        (client, server)
    }

    #[test]
    fn round_trip() {
        let (client, server) = pair();
        client.send(Bytes::from_static(b"over real tcp")).unwrap();
        assert_eq!(
            server.recv(Some(Duration::from_secs(2))).unwrap(),
            Bytes::from_static(b"over real tcp")
        );
        server.send(Bytes::from_static(b"back")).unwrap();
        assert_eq!(
            client.recv(Some(Duration::from_secs(2))).unwrap(),
            Bytes::from_static(b"back")
        );
    }

    #[test]
    fn large_frame_round_trip() {
        let (client, server) = pair();
        let big = Bytes::from(vec![0xAB; 1_000_000]);
        client.send(big.clone()).unwrap();
        assert_eq!(server.recv(Some(Duration::from_secs(5))).unwrap(), big);
    }

    #[test]
    fn wrong_logical_network_refused() {
        let listener =
            TcpIpcsListener::bind(NetworkId(1), MachineId(0), cond(), BufferPool::new()).unwrap();
        let port = listener.port().unwrap();
        let t = std::thread::spawn(move || {
            // Listener keeps running after refusing; give it a short window.
            let _ = listener.accept(Some(Duration::from_millis(300)));
        });
        let err = tcp_connect(
            "127.0.0.1",
            port,
            NetworkId(2),
            MachineId(1),
            MachineId(0),
            cond(),
            BufferPool::new(),
        )
        .unwrap_err();
        assert!(matches!(err, NtcsError::ConnectRefused(_)), "{err}");
        t.join().unwrap();
    }

    #[test]
    fn connect_to_dead_port_refused() {
        // Bind-then-drop to obtain a port that is very likely closed.
        let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let port = l.local_addr().unwrap().port();
        drop(l);
        let err = tcp_connect(
            "127.0.0.1",
            port,
            NetworkId(1),
            MachineId(1),
            MachineId(0),
            cond(),
            BufferPool::new(),
        )
        .unwrap_err();
        assert!(
            matches!(err, NtcsError::ConnectRefused(_) | NtcsError::Ipcs(_)),
            "{err}"
        );
    }

    #[test]
    fn peer_close_yields_connection_closed() {
        let (client, server) = pair();
        server.close();
        // Client may need a read to observe EOF.
        let got = client.recv(Some(Duration::from_secs(2)));
        assert!(matches!(got, Err(NtcsError::ConnectionClosed)), "{got:?}");
    }

    #[test]
    fn recv_timeout_preserves_stream_integrity() {
        let (client, server) = pair();
        assert!(matches!(
            server.recv(Some(Duration::from_millis(30))),
            Err(NtcsError::Timeout)
        ));
        client.send(Bytes::from_static(b"after timeout")).unwrap();
        assert_eq!(
            server.recv(Some(Duration::from_secs(2))).unwrap(),
            Bytes::from_static(b"after timeout")
        );
    }

    #[test]
    fn force_close_wakes_receiver() {
        let (client, _server) = pair();
        let shared = client.shared_handle();
        let t = std::thread::spawn(move || client.recv(Some(Duration::from_secs(5))));
        std::thread::sleep(Duration::from_millis(20));
        shared.force_close();
        assert!(matches!(
            t.join().unwrap(),
            Err(NtcsError::ConnectionClosed)
        ));
    }

    #[test]
    fn many_frames_in_order() {
        let (client, server) = pair();
        for i in 0..200u32 {
            client
                .send(Bytes::from(i.to_string().into_bytes()))
                .unwrap();
        }
        for i in 0..200u32 {
            let f = server.recv(Some(Duration::from_secs(2))).unwrap();
            assert_eq!(f, Bytes::from(i.to_string().into_bytes()));
        }
    }

    /// Deterministic contents for a frame of `len` bytes, distinct per `salt`.
    fn pattern(len: usize, salt: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31) ^ salt)
            .collect()
    }

    /// A channel whose peer is a raw socket that has done the client side
    /// of the handshake by hand.
    fn raw_client() -> (TcpStream, Box<dyn IpcsChannel>) {
        let listener =
            TcpIpcsListener::bind(NetworkId(1), MachineId(0), cond(), BufferPool::new()).unwrap();
        let port = listener.port().unwrap();
        let t = std::thread::spawn(move || listener.accept(Some(Duration::from_secs(5))).unwrap());
        let mut raw = TcpStream::connect(("127.0.0.1", port)).unwrap();
        raw.set_nodelay(true).unwrap();
        let mut hello = Vec::new();
        for word in [HANDSHAKE_MAGIC, 1, 1] {
            put_u32(&mut hello, word);
        }
        raw.write_all(&hello).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(read_u32_exact(&mut raw).unwrap(), 1);
        (raw, t.join().unwrap())
    }

    /// A channel dialled to a raw socket that has done the server side of
    /// the handshake by hand, with the channel's link conditions.
    fn raw_server() -> (TcpChannel, TcpStream, Arc<LinkConditions>) {
        let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let port = l.local_addr().unwrap().port();
        let t = std::thread::spawn(move || {
            let (mut raw, _) = l.accept().unwrap();
            let mut hello = [0u8; 12];
            raw.read_exact(&mut hello).unwrap();
            raw.write_all(&1u32.to_be_bytes()).unwrap();
            raw
        });
        let conditions = cond();
        let chan = tcp_connect(
            "127.0.0.1",
            port,
            NetworkId(1),
            MachineId(1),
            MachineId(0),
            Arc::clone(&conditions),
            BufferPool::new(),
        )
        .unwrap();
        let raw = t.join().unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        (chan, raw, conditions)
    }

    #[test]
    fn mixed_sizes_in_one_burst_arrive_intact_and_in_order() {
        let (client, server) = pair();
        let sizes = [
            0,
            1,
            DIRECT_BODY - 1,
            DIRECT_BODY,
            DIRECT_BODY + 1,
            READ_BUF - 1,
            READ_BUF,
            READ_BUF + 1,
            64 * 1024 + 100,
            1_000_000,
            2,
        ];
        let frames: Vec<Bytes> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| Bytes::from(pattern(n, i as u8)))
            .collect();
        let sent = frames.clone();
        // The burst outgrows the socket buffers, so send from a thread.
        let t = std::thread::spawn(move || {
            for f in sent {
                client.send(f).unwrap();
            }
            client
        });
        for (i, want) in frames.iter().enumerate() {
            let got = server.recv(Some(Duration::from_secs(5))).unwrap();
            assert_eq!(got.len(), want.len(), "frame {i}");
            assert!(got == *want, "frame {i} of {} bytes garbled", want.len());
        }
        let _client = t.join().unwrap();
    }

    #[test]
    fn frame_trickled_a_byte_at_a_time_is_reassembled() {
        let (mut raw, server) = raw_client();
        let body = pattern(300, 9);
        let mut wire = (body.len() as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(&body);
        let t = std::thread::spawn(move || {
            // Separate writes with pauses, so the receiver sees the prefix
            // and the body split across many reads.
            for b in wire {
                raw.write_all(&[b]).unwrap();
                std::thread::sleep(Duration::from_micros(200));
            }
            raw
        });
        let got = server.recv(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(got, Bytes::from(body));
        let _raw = t.join().unwrap();
    }

    #[test]
    fn timeout_mid_body_keeps_the_partial_frame() {
        let (mut raw, server) = raw_client();
        // A small body (buffered path), a large one (direct-to-block path),
        // and a prefix cut in half.
        for (len, cut) in [(100, 4 + 40), (100_000, 4 + 50_000), (10, 2)] {
            let body = pattern(len, 3);
            let mut wire = (len as u32).to_be_bytes().to_vec();
            wire.extend_from_slice(&body);
            raw.write_all(&wire[..cut]).unwrap();
            assert!(
                matches!(
                    server.recv(Some(Duration::from_millis(50))),
                    Err(NtcsError::Timeout)
                ),
                "{len}-byte body cut at {cut} must time out"
            );
            assert!(!server.is_closed());
            raw.write_all(&wire[cut..]).unwrap();
            let got = server.recv(Some(Duration::from_secs(5))).unwrap();
            assert!(got[..] == body[..], "{len}-byte body garbled");
        }
    }

    #[test]
    fn length_above_max_frame_is_rejected_and_closes_the_channel() {
        let (mut raw, server) = raw_client();
        raw.write_all(&(MAX_FRAME as u32 + 1).to_be_bytes())
            .unwrap();
        let got = server.recv(Some(Duration::from_secs(5)));
        assert!(matches!(got, Err(NtcsError::Protocol(_))), "{got:?}");
        assert!(server.is_closed());
        assert!(matches!(
            server.recv(Some(Duration::from_secs(1))),
            Err(NtcsError::ConnectionClosed)
        ));
        // The peer sees the stream end.
        let mut rest = Vec::new();
        raw.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
    }

    #[test]
    fn corruption_flips_exactly_one_body_byte_never_the_prefix() {
        let (client, mut raw, conditions) = raw_server();
        conditions.corrupt_next.store(1, Ordering::Relaxed);
        // An empty frame takes no corruption draw, so the armed flip lands
        // on the next non-empty frame; the frame after that is clean.
        let body = pattern(11, 5);
        let clean = pattern(7, 6);
        client.send(Bytes::new()).unwrap();
        client.send(Bytes::from(body.clone())).unwrap();
        client.send(Bytes::from(clean.clone())).unwrap();
        let mut wire = vec![0u8; 4 + 4 + body.len() + 4 + clean.len()];
        raw.read_exact(&mut wire).unwrap();
        assert_eq!(wire[..4], 0u32.to_be_bytes());
        assert_eq!(wire[4..8], (body.len() as u32).to_be_bytes());
        let got = &wire[8..8 + body.len()];
        let flipped: Vec<usize> = (0..body.len()).filter(|&i| got[i] != body[i]).collect();
        assert_eq!(flipped, vec![body.len() / 2]);
        assert_eq!(got[body.len() / 2], body[body.len() / 2] ^ 0xFF);
        let tail = &wire[8 + body.len()..];
        assert_eq!(tail[..4], (clean.len() as u32).to_be_bytes());
        assert_eq!(tail[4..], clean[..]);
        assert_eq!(conditions.corrupt_next.load(Ordering::Relaxed), 0);
    }
}
