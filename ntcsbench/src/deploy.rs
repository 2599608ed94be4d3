//! Deployments the workloads run on, the echo service, and the messages
//! they exchange. Everything goes through the public `Testbed` / `ComMod`
//! / `Nucleus` / `Gateway` APIs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ntcs::{
    ntcs_message, ComMod, FlowSettings, Gateway, Incoming, MachineId, MachineType, Message,
    NetKind, NetworkId, NtcsError, Testbed, UAdd,
};
use ntcs_nucleus::obs::event_kind;
use ntcs_nucleus::{Received, SubstrateBinding};
use ntcs_wire::pack::Blob;

ntcs_message! {
    /// A request: the echo answers with the same sequence number and payload.
    pub struct Req: 7301 { pub seq: u64, pub data: Blob }
    /// The echo's answer. `copies` counts the times the echo has received
    /// this sequence number (retries resend it); `casts_seen` /
    /// `cast_errors` report the cast stream since the last reset, so a
    /// request also fences casts.
    pub struct Resp: 7302 {
        pub seq: u64,
        pub copies: u32,
        pub casts_seen: u64,
        pub cast_errors: u64,
        pub data: Blob,
    }
    /// A one-way cast; the echo checks that sequence numbers arrive
    /// exactly once and in order.
    pub struct Note: 7303 { pub seq: u64, pub data: Blob }
    /// Control request to the echo (see the `CTL_*` codes).
    pub struct Ctl: 7304 { pub op: u32, pub arg: u32 }
}

/// Reset the cast counters.
pub const CTL_RESET: u32 = 1;
/// Relocate to machine `arg` (sent as a cast: an answer queued just before
/// the echo's old binding shuts down is not guaranteed to leave it).
pub const CTL_MOVE: u32 = 2;
/// Stop (sent as a cast, like `CTL_MOVE`).
pub const CTL_STOP: u32 = 3;
/// Serve through the Nucleus (`arg` = 1) or through the ComMod (`arg` = 0).
pub const CTL_LCM: u32 = 4;

/// Generous timeout for operations that must not fail.
pub const T: Option<Duration> = Some(Duration::from_secs(10));

/// The topologies the workloads run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topo {
    /// Two Sun machines sharing one TCP network (plus a spare machine the
    /// echo can move to).
    TcpDirect,
    /// One machine with a private shared-memory network: caller, echo and
    /// Name Server co-located.
    ShmColo,
    /// Three TCP networks in a line, two gateways between the caller and
    /// the echo.
    TcpGw2,
}

/// Where the raw-channel rung of the ladder runs: two machines and the
/// network between them, on the caller's substrate.
#[derive(Debug, Clone, Copy)]
pub struct ChannelPair {
    pub from: MachineId,
    pub to: MachineId,
    pub net: NetworkId,
}

/// What the echo thread reports after a relocation: when `relocate_to`
/// returned, how long it took, and the echo's new address.
pub type MoveReport = Result<(Instant, Duration, UAdd), String>;

/// A running echo service.
pub struct Echo {
    stop: Arc<AtomicBool>,
    moved: mpsc::Receiver<MoveReport>,
    thread: Option<JoinHandle<()>>,
}

impl Echo {
    /// Waits for the report of a relocation the echo was told to make.
    pub fn wait_moved(&self) -> MoveReport {
        self.moved
            .recv_timeout(Duration::from_secs(30))
            .map_err(|e| format!("echo never reported its move: {e}"))?
    }
}

/// A stood-up deployment: testbed, gateways, caller and echo.
pub struct Deployment {
    pub testbed: Testbed,
    pub gateways: Vec<Gateway>,
    pub client: ComMod,
    pub dst: UAdd,
    pub echo: Echo,
    /// The echo's two homes: where it starts and where it may move.
    pub homes: [MachineId; 2],
    pub pair: ChannelPair,
    /// Modules, gateways and Name Servers started (for per-module counts).
    pub modules: u64,
    /// Gateway spawn plus the first spliced request, when there are gateways.
    pub splice: Option<Duration>,
}

fn reply_for(req: Req, copies: u32, seen: u64, errors: u64) -> Resp {
    Resp {
        seq: req.seq,
        copies,
        casts_seen: seen,
        cast_errors: errors,
        data: req.data,
    }
}

/// A message as the echo received it, through the ComMod or the Nucleus.
enum Got {
    Ali(Incoming),
    Lcm(Received),
}

/// The echo's receive loop. It serves through the ComMod (ALI) by default
/// and through the bare Nucleus (LCM) when told to.
fn echo_loop(
    mut cm: ComMod,
    stop: &AtomicBool,
    moved: &mpsc::Sender<MoveReport>,
) -> Result<(), NtcsError> {
    // The last request's sequence number and how often it arrived.
    let (mut last_seq, mut copies) = (0u64, 0u32);
    let mut next_cast = 0u64;
    let mut seen = 0u64;
    let mut errors = 0u64;
    let mut lcm = false;
    let wait = Some(Duration::from_millis(200));
    while !stop.load(Ordering::Relaxed) {
        let got = if lcm {
            cm.nucleus().recv(wait).map(Got::Lcm)
        } else {
            cm.receive(wait).map(Got::Ali)
        };
        let got = match got {
            Ok(g) => g,
            Err(NtcsError::Timeout) => continue,
            Err(e) => return Err(e),
        };
        let raw = match &got {
            Got::Ali(m) => m.raw(),
            Got::Lcm(r) => r,
        };
        let local = cm.machine_type();
        macro_rules! answer {
            ($msg:expr) => {
                match &got {
                    Got::Ali(m) => cm.reply(m, $msg).map(|_| ()),
                    Got::Lcm(r) => cm.nucleus().reply_message(r, $msg).map(|_| ()),
                }
            };
        }
        match raw.payload.type_id {
            Note::TYPE_ID => {
                let n: Note = raw.payload.decode(local)?;
                if n.seq == next_cast {
                    seen += 1;
                } else {
                    errors += 1;
                }
                next_cast = n.seq + 1;
            }
            Req::TYPE_ID => {
                let r: Req = raw.payload.decode(local)?;
                if r.seq == last_seq {
                    copies += 1;
                } else {
                    (last_seq, copies) = (r.seq, 1);
                }
                answer!(&reply_for(r, copies, seen, errors))?;
            }
            Ctl::TYPE_ID => {
                let c: Ctl = raw.payload.decode(local)?;
                if raw.reply_expected {
                    let empty = Req {
                        seq: 0,
                        data: Blob(Vec::new()),
                    };
                    answer!(&reply_for(empty, 0, seen, errors))?;
                }
                match c.op {
                    CTL_RESET => {
                        next_cast = 0;
                        seen = 0;
                        errors = 0;
                    }
                    CTL_LCM => lcm = c.arg == 1,
                    CTL_STOP => break,
                    CTL_MOVE => {
                        let began = Instant::now();
                        match cm.relocate_to(MachineId(c.arg)) {
                            Ok(new) => {
                                let took = began.elapsed();
                                cm = new;
                                let _ = moved.send(Ok((Instant::now(), took, cm.my_uadd())));
                            }
                            Err(e) => {
                                let _ = moved.send(Err(e.to_string()));
                                cm = e.commod;
                            }
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
    cm.shutdown();
    Ok(())
}

fn spawn_echo(cm: ComMod) -> Echo {
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel();
    let thread = {
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("echo".into())
            .spawn(move || {
                if let Err(e) = echo_loop(cm, &stop, &tx) {
                    let _ = tx.send(Err(format!("echo stopped: {e}")));
                }
            })
            .expect("spawn echo thread")
    };
    Echo {
        stop,
        moved: rx,
        thread: Some(thread),
    }
}

/// Sends a control request to the echo and waits for its acknowledgement.
pub fn control(d: &Deployment, op: u32, arg: u32) -> Result<Resp, String> {
    let reply = d
        .client
        .send_receive(d.dst, &Ctl { op, arg }, T)
        .map_err(|e| format!("control {op}: {e}"))?;
    reply.decode::<Resp>().map_err(|e| e.to_string())
}

/// Casts a control message to the echo; it is not answered.
pub fn signal(d: &Deployment, op: u32, arg: u32) -> Result<(), String> {
    d.client
        .cast(d.dst, &Ctl { op, arg })
        .map_err(|e| format!("control {op}: {e}"))
}

fn machine(tb: &mut ntcs::TestbedBuilder, name: &str, nets: &[NetworkId]) -> MachineId {
    tb.add_machine(MachineType::Sun, name, nets)
        .expect("add machine")
}

/// A configuration change applied to every module of a stand-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tweak {
    /// The default `NucleusConfig`.
    None,
    /// Flight recorder off.
    NoRecorder,
    /// Credit-based flow control on with the given byte window.
    Credits(u64),
}

/// Stands a deployment up from an empty world to the caller's first reply,
/// returning it with the wall time that took.
pub fn stand_up(topo: Topo, tweak: Tweak) -> Result<(Deployment, Duration), String> {
    let began = Instant::now();
    let mut tb = Testbed::builder();
    let (ns, client_m, homes, pair, gw_hosts) = match topo {
        Topo::TcpDirect => {
            let lan = tb.add_network(NetKind::Tcp, "lan");
            let m0 = machine(&mut tb, "host0", &[lan]);
            let m1 = machine(&mut tb, "host1", &[lan]);
            let m2 = machine(&mut tb, "host2", &[lan]);
            let pair = ChannelPair {
                from: m0,
                to: m1,
                net: lan,
            };
            (m0, m0, [m1, m2], pair, Vec::new())
        }
        Topo::ShmColo => {
            let (m, shm) = tb
                .add_colocated_machine(MachineType::Sun, "colo", &[])
                .map_err(|e| e.to_string())?;
            let pair = ChannelPair {
                from: m,
                to: m,
                net: shm,
            };
            (m, m, [m, m], pair, Vec::new())
        }
        Topo::TcpGw2 => {
            let nets: Vec<NetworkId> = (0..3)
                .map(|i| tb.add_network(NetKind::Tcp, &format!("net{i}")))
                .collect();
            let ns = machine(&mut tb, "ns-host", &nets);
            let src = machine(&mut tb, "edge0", &[nets[0]]);
            let dst = machine(&mut tb, "edge2", &[nets[2]]);
            let alt = machine(&mut tb, "edge2b", &[nets[2]]);
            let g0 = machine(&mut tb, "gw-host0", &[nets[0], nets[1]]);
            let g1 = machine(&mut tb, "gw-host1", &[nets[1], nets[2]]);
            let pair = ChannelPair {
                from: src,
                to: g0,
                net: nets[0],
            };
            (ns, src, [dst, alt], pair, vec![g0, g1])
        }
    };
    tb.name_server_on(ns);
    let testbed = tb.start().map_err(|e| format!("testbed start: {e}"))?;
    match tweak {
        Tweak::None => {}
        Tweak::NoRecorder => testbed.set_config_hook(Some(Arc::new(|c| c.without_recorder()))),
        Tweak::Credits(bytes) => testbed.enable_flow_control(FlowSettings::enabled(bytes, 1 << 16)),
    }
    let gw_began = Instant::now();
    let gateways = gw_hosts
        .iter()
        .enumerate()
        .map(|(i, &g)| testbed.gateway(g, &format!("gw{i}")))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("gateway spawn: {e}"))?;
    let echo_cm = testbed
        .module(homes[0], "echo")
        .map_err(|e| format!("echo bind: {e}"))?;
    let echo = spawn_echo(echo_cm);
    let client = testbed
        .module(client_m, "caller")
        .map_err(|e| format!("caller bind: {e}"))?;
    let dst = client.locate("echo").map_err(|e| format!("locate: {e}"))?;
    let gw_spawned = gw_began.elapsed();
    let modules = 3 + gateways.len() as u64;
    let mut d = Deployment {
        testbed,
        gateways,
        client,
        dst,
        echo,
        homes,
        pair,
        modules,
        splice: None,
    };
    let first_began = Instant::now();
    let first = d
        .client
        .send_receive(
            d.dst,
            &Req {
                seq: u64::MAX,
                data: Blob(vec![7; 16]),
            },
            T,
        )
        .map_err(|e| format!("first request: {e}"))?;
    let took = began.elapsed();
    if !d.gateways.is_empty() {
        d.splice = Some(gw_spawned + first_began.elapsed());
    }
    let r: Resp = first.decode().map_err(|e| e.to_string())?;
    if r.seq != u64::MAX || r.data.0 != [7; 16] {
        return Err("first reply does not echo its request".into());
    }
    // The check reads the flight recorder, so it needs the recorder on.
    if topo == Topo::ShmColo && tweak != Tweak::NoRecorder && !on_shm(&d.client) {
        return Err("adaptive selection did not pick the SHM ring".into());
    }
    Ok((d, took))
}

/// Whether the caller's latest substrate choice was the SHM ring.
fn on_shm(client: &ComMod) -> bool {
    client
        .nucleus()
        .recorder()
        .events()
        .iter()
        .rev()
        .find(|e| e.kind == event_kind::SUBSTRATE)
        .is_some_and(|e| e.aux & 0xF == u64::from(SubstrateBinding::SHM))
}

impl Deployment {
    /// Stops the echo, the caller, the gateways and the Name Server,
    /// joining the echo thread.
    pub fn tear_down(mut self) {
        self.echo.stop.store(true, Ordering::Relaxed);
        let _ = signal(&self, CTL_STOP, 0);
        if let Some(t) = self.echo.thread.take() {
            let _ = t.join();
        }
        self.client.shutdown();
        for g in &self.gateways {
            g.shutdown();
        }
        drop(self.testbed);
    }
}
