//! The workloads and their timed phases: closed-loop RPCs, fenced one-way
//! casts, and relocations of the echo.

use std::time::{Duration, Instant};

use ntcs::{NtcsError, UAdd};
use ntcs_wire::pack::Blob;

use crate::deploy::{control, signal, Deployment, Note, Req, Resp, Topo, CTL_MOVE, CTL_RESET};
use crate::probe;
use crate::stats::{Outcome, Rng};
use crate::trace::Spans;

/// Per-attempt timeout of a request that follows a relocation. A request
/// counts as failed only when all of its attempts fail.
pub const ATTEMPT_TIMEOUT: Duration = Duration::from_millis(5);
/// Attempts per request after a relocation.
pub const MAX_ATTEMPTS: u32 = 200;
/// Requests on the re-established circuit after each relocation of the
/// recovery phase.
const SETTLE_RPCS: usize = 4;
/// Distinct seeded payloads per run (requests rotate through them).
const POOL: usize = 16;
/// A CPU-accounting chunk of RPCs closes after this much wall time.
const CHUNK: Duration = Duration::from_millis(20);

/// One workload: a topology and a payload size.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub topo: Topo,
    pub payload: usize,
    /// Casts between two fences.
    pub cast_window: u64,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "rpc64_tcp_direct",
        topo: Topo::TcpDirect,
        payload: 64,
        cast_window: 1000,
    },
    Workload {
        name: "bulk64k_tcp_gw2",
        topo: Topo::TcpGw2,
        payload: 65536,
        cast_window: 32,
    },
];

/// Which layer the caller drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Api {
    /// `ComMod::send_receive` / `ComMod::cast`.
    Ali,
    /// `Nucleus::request` / `Nucleus::cast_message`.
    Lcm,
}

/// Seeded request and cast messages.
struct Loads {
    reqs: Vec<Req>,
    notes: Vec<Note>,
}

impl Loads {
    fn new(seed: u64, payload: usize) -> Self {
        let mut rng = Rng::new(seed);
        let reqs = (0..POOL)
            .map(|_| Req {
                seq: 0,
                data: Blob(rng.bytes(payload)),
            })
            .collect();
        let notes = (0..POOL)
            .map(|_| Note {
                seq: 0,
                data: Blob(rng.bytes(payload)),
            })
            .collect();
        Loads { reqs, notes }
    }
}

/// One request through the chosen layer: the reply and who sent it.
pub fn request(
    d: &Deployment,
    api: Api,
    req: &Req,
    timeout: Option<Duration>,
) -> Result<(Resp, UAdd), NtcsError> {
    let got = match api {
        Api::Ali => d.client.send_receive(d.dst, req, timeout)?.raw().clone(),
        Api::Lcm => d.client.nucleus().request(d.dst, req, timeout)?,
    };
    Ok((got.payload.decode(d.client.machine_type())?, got.src))
}

fn cast(d: &Deployment, api: Api, note: &Note) -> Result<(), NtcsError> {
    match api {
        Api::Ali => d.client.cast(d.dst, note),
        Api::Lcm => d.client.nucleus().cast_message(d.dst, note),
    }
}

/// Whether a reply echoes its request's sequence number and payload.
fn echoes(req: &Req, resp: &Resp) -> bool {
    resp.seq == req.seq && resp.data == req.data
}

/// One relocation and the caller's recovery from it.
#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    /// `relocate_to` returning → the caller's first reply.
    pub ms: f64,
    /// Whether the first attempt went unanswered within [`ATTEMPT_TIMEOUT`].
    pub retried: bool,
    /// Whether an attempt never reached the echo: the answered attempt's
    /// reply counts fewer copies of the request than were sent.
    pub lost: bool,
    /// How long `relocate_to` took.
    pub relocate_us: f64,
}

/// What an RPC phase measured.
#[derive(Debug, Default)]
pub struct RpcPhase {
    /// Round trips, µs, in completion order.
    pub lat_us: Vec<f64>,
    /// CPU µs per RPC, one value per chunk.
    pub cpu_us: Vec<f64>,
}

/// What a cast phase measured.
#[derive(Debug, Default)]
pub struct CastPhase {
    /// Delivered casts per second, one value per fenced window.
    pub rates: Vec<f64>,
    /// CPU µs per cast, one value per window.
    pub cpu_us: Vec<f64>,
    pub sent: u64,
}

/// Mutable run state shared by the phases of one deployment.
pub struct Runner<'a> {
    pub d: &'a Deployment,
    pub api: Api,
    loads: Loads,
    /// Last request sequence number used.
    seq: u64,
    /// Which of the echo's homes it lives in now.
    at: usize,
    /// The echo's current address.
    echo: UAdd,
    pub spans: Option<&'a mut Spans>,
}

impl<'a> Runner<'a> {
    pub fn new(d: &'a Deployment, w: &Workload, seed: u64) -> Self {
        Runner {
            d,
            api: Api::Ali,
            loads: Loads::new(seed, w.payload),
            seq: 0,
            at: 0,
            echo: d.dst,
            spans: None,
        }
    }

    /// Stamps the next sequence number on a pooled request; returns its slot.
    fn next_req(&mut self) -> usize {
        self.seq += 1;
        let slot = (self.seq % POOL as u64) as usize;
        self.loads.reqs[slot].seq = self.seq;
        slot
    }

    /// One closed-loop request; returns its round trip in µs.
    fn one_rpc(&mut self, out: &mut Outcome) -> Option<f64> {
        let api = self.api;
        let d = self.d;
        let slot = self.next_req();
        let req = &self.loads.reqs[slot];
        let began = Instant::now();
        let got = request(d, api, req, crate::deploy::T);
        let ended = Instant::now();
        let ok = match &got {
            Ok((resp, _)) => echoes(req, resp),
            Err(_) => false,
        };
        let seq = req.seq;
        if let Some(spans) = self.spans.as_deref_mut() {
            let name = if api == Api::Ali {
                "ali.send_receive"
            } else {
                "lcm.request"
            };
            spans.record(seq, 0, name, began, ended);
        }
        out.ops(1, u64::from(!ok));
        match got {
            Ok(_) if ok => Some((ended - began).as_secs_f64() * 1e6),
            Ok(_) => {
                out.gate(false, || format!("reply to request {seq} does not echo it"));
                None
            }
            Err(e) => {
                out.gate(false, || format!("request {seq} failed: {e}"));
                None
            }
        }
    }

    /// Moves the echo to its other home and measures the caller's recovery:
    /// the first request after the move is retried at [`ATTEMPT_TIMEOUT`]
    /// and must be answered from the echo's new address.
    pub fn relocate(&mut self, out: &mut Outcome) -> Option<Recovery> {
        let to = self.d.homes[1 - self.at];
        let moved = signal(self.d, CTL_MOVE, to.0).and_then(|()| self.d.echo.wait_moved());
        let (returned, took, new_echo) = match moved {
            Ok(m) => m,
            Err(e) => {
                out.ops(1, 1);
                out.gate(false, || format!("relocation failed: {e}"));
                return None;
            }
        };
        self.at = 1 - self.at;
        let old_echo = std::mem::replace(&mut self.echo, new_echo);
        let d = self.d;
        let api = self.api;
        let slot = self.next_req();
        let req = &self.loads.reqs[slot];
        let seq = req.seq;
        let parent = self
            .spans
            .as_deref_mut()
            .map_or(0, |sp| sp.reserve(seq, "recovery"));
        let mut answered = None;
        for attempt in 1..=MAX_ATTEMPTS {
            let began = Instant::now();
            let got = request(d, api, req, Some(ATTEMPT_TIMEOUT));
            if let Some(spans) = self.spans.as_deref_mut() {
                spans.record(seq, parent, "recovery.attempt", began, Instant::now());
            }
            match got {
                Ok((resp, src)) => {
                    answered = Some((Instant::now(), attempt, resp, src));
                    break;
                }
                // Each attempt owns a full slot, so an early error waits
                // out the rest of it before the retry.
                Err(_) => std::thread::sleep(ATTEMPT_TIMEOUT.saturating_sub(began.elapsed())),
            }
        }
        let Some((at, attempts, resp, src)) = answered else {
            out.ops(1, 1);
            out.gate(false, || format!("request {seq} unanswered after the move"));
            return None;
        };
        let right = echoes(req, &resp) && src == new_echo && src != old_echo;
        out.ops(1, u64::from(!right));
        out.gate(right, || {
            format!("request {seq} after the move not answered from the echo's new address")
        });
        if let Some(spans) = self.spans.as_deref_mut() {
            spans.fill(parent, returned, at);
            spans.record(seq, 0, "relocate_to", returned - took, returned);
        }
        Some(Recovery {
            ms: (at - returned).as_secs_f64() * 1e3,
            retried: attempts > 1,
            lost: resp.copies < attempts,
            relocate_us: took.as_secs_f64() * 1e6,
        })
    }

    /// Closed-loop RPCs for `dur`.
    pub fn rpc_phase(&mut self, dur: Duration, out: &mut Outcome) -> RpcPhase {
        let mut ph = RpcPhase::default();
        let began = Instant::now();
        let (mut chunk_start, mut chunk_cpu, mut chunk_n) =
            (Instant::now(), probe::cpu_time(), 0u64);
        while began.elapsed() < dur {
            if let Some(us) = self.one_rpc(out) {
                ph.lat_us.push(us);
            }
            chunk_n += 1;
            if chunk_start.elapsed() >= CHUNK {
                ph.cpu_us
                    .push((probe::cpu_time() - chunk_cpu).as_secs_f64() * 1e6 / chunk_n as f64);
                (chunk_start, chunk_cpu, chunk_n) = (Instant::now(), probe::cpu_time(), 0);
            }
        }
        if chunk_n > 0 {
            ph.cpu_us
                .push((probe::cpu_time() - chunk_cpu).as_secs_f64() * 1e6 / chunk_n as f64);
        }
        ph
    }

    /// Relocations of the echo for `dur`, each followed by a few settling
    /// requests on the re-established circuit.
    pub fn recovery_phase(&mut self, dur: Duration, out: &mut Outcome) -> Vec<Recovery> {
        let mut rec = Vec::new();
        let began = Instant::now();
        while began.elapsed() < dur {
            match self.relocate(out) {
                Some(r) => rec.push(r),
                None => break,
            }
            for _ in 0..SETTLE_RPCS {
                self.one_rpc(out);
            }
        }
        rec
    }

    /// Fenced windows of `window` casts for `dur`. Each fence is a request
    /// on the same circuit whose reply reports the casts the echo has seen;
    /// every cast must arrive exactly once and in order.
    pub fn cast_phase(&mut self, dur: Duration, window: u64, out: &mut Outcome) -> CastPhase {
        let mut ph = CastPhase::default();
        if let Err(e) = control(self.d, CTL_RESET, 0) {
            out.gate(false, || format!("cast reset failed: {e}"));
            return ph;
        }
        let began = Instant::now();
        let mut cast_seq = 0u64;
        while began.elapsed() < dur {
            let (w_start, w_cpu) = (Instant::now(), probe::cpu_time());
            let mut failed = 0;
            for _ in 0..window {
                let slot = (cast_seq % POOL as u64) as usize;
                self.loads.notes[slot].seq = cast_seq;
                if cast(self.d, self.api, &self.loads.notes[slot]).is_err() {
                    failed += 1;
                }
                cast_seq += 1;
            }
            let api = self.api;
            let d = self.d;
            let slot = self.next_req();
            let req = &self.loads.reqs[slot];
            let fence = request(d, api, req, crate::deploy::T);
            let elapsed = w_start.elapsed();
            let cpu = probe::cpu_time() - w_cpu;
            if let Some(spans) = self.spans.as_deref_mut() {
                spans.record(req.seq, 0, "cast.window", w_start, w_start + elapsed);
            }
            let fence_failed = fence.is_err();
            let seen = match fence {
                Ok((ref r, _)) if echoes(req, r) => {
                    out.gate(r.cast_errors == 0, || {
                        format!("{} casts out of order or duplicated", r.cast_errors)
                    });
                    r.casts_seen
                }
                Ok(_) => {
                    out.gate(false, || "fence reply does not echo its request".into());
                    0
                }
                Err(e) => {
                    out.gate(false, || format!("fence failed: {e}"));
                    0
                }
            };
            let lost = cast_seq.saturating_sub(seen);
            out.ops(window + 1, failed.max(lost) + u64::from(fence_failed));
            out.gate(seen == cast_seq, || {
                format!("{seen} of {cast_seq} casts delivered")
            });
            if seen != cast_seq {
                break;
            }
            ph.rates.push(window as f64 / elapsed.as_secs_f64());
            ph.cpu_us.push(cpu.as_secs_f64() * 1e6 / window as f64);
            ph.sent += window;
        }
        ph
    }
}
