//! The traced run: the workload's payload on the workload's topology
//! through each rung — raw IPCS channel, ND `Lvc`, LCM `Nucleus`, ALI
//! `ComMod` — plus wire, naming, relocation, gateway, recorder and
//! credit probes. Spans are kept in memory and written out at the end;
//! counters are read at the same phase boundaries.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use ntcs::{ConvMode, InboundPayload, MachineType, NtcsError};
use ntcs_ipcs::IpcsChannel;
use ntcs_nucleus::{Lvc, NdLayer, NucleusMetricsSnapshot};

use crate::deploy::{control, stand_up, Deployment, Req, Topo, Tweak, CTL_LCM};
use crate::e2e::{Api, Runner, Workload};
use crate::probe;
use crate::stats::{median, percentile, Outcome, Rng};
use crate::trace::Spans;

/// Opcodes in byte 0 of a raw-rung frame.
const OP_ECHO: u8 = 0;
const OP_COUNT: u8 = 1;
const OP_FENCE: u8 = 2;
/// Opens / registrations / locates timed per probe.
const PROBES: usize = 30;
/// Byte window for the credits-on probe.
const CREDIT_WINDOW: u64 = 1 << 20;

/// The two lowest rungs behind one interface.
trait Pipe: Send + Sync {
    fn put(&self, b: Bytes) -> Result<(), NtcsError>;
    fn get(&self, t: Option<Duration>) -> Result<Bytes, NtcsError>;
    fn shut(&self);
}

impl Pipe for Arc<dyn IpcsChannel> {
    fn put(&self, b: Bytes) -> Result<(), NtcsError> {
        self.send(b)
    }
    fn get(&self, t: Option<Duration>) -> Result<Bytes, NtcsError> {
        self.recv(t)
    }
    fn shut(&self) {
        self.close();
    }
}

impl Pipe for Lvc {
    fn put(&self, b: Bytes) -> Result<(), NtcsError> {
        self.send_raw(b)
    }
    fn get(&self, t: Option<Duration>) -> Result<Bytes, NtcsError> {
        self.recv_raw(t)
    }
    fn shut(&self) {
        self.close();
    }
}

/// Serves one raw-rung connection: echoes, counts, answers fences.
fn serve_pipe(p: &dyn Pipe, stop: &AtomicBool) {
    let mut counted = 0u64;
    while !stop.load(Ordering::Relaxed) {
        match p.get(Some(Duration::from_millis(100))) {
            Ok(b) => {
                let answer = match b.first() {
                    Some(&OP_ECHO) => Some(b),
                    Some(&OP_COUNT) => {
                        counted += 1;
                        None
                    }
                    Some(&OP_FENCE) => {
                        let mut r = vec![OP_FENCE];
                        r.extend_from_slice(&counted.to_be_bytes());
                        Some(Bytes::from(r))
                    }
                    _ => None,
                };
                if answer.is_some_and(|a| p.put(a).is_err()) {
                    return;
                }
            }
            Err(NtcsError::Timeout) => {}
            Err(_) => return,
        }
    }
}

/// What one raw rung measured.
struct RungStats {
    rtt_us: Vec<f64>,
    rates: Vec<f64>,
    sent: u64,
}

/// Ping-pong for `dur`, then fenced streaming windows for `dur`.
fn drive_pipe(
    p: &dyn Pipe,
    payload: &[u8],
    window: u64,
    dur: Duration,
    name: &'static str,
    spans: &mut Spans,
    out: &mut Outcome,
) -> RungStats {
    let frame = |op: u8| {
        let mut v = payload.to_vec();
        v[0] = op;
        Bytes::from(v)
    };
    let (echo, count, fence) = (frame(OP_ECHO), frame(OP_COUNT), Bytes::from(vec![OP_FENCE]));
    let mut st = RungStats {
        rtt_us: Vec::new(),
        rates: Vec::new(),
        sent: 0,
    };
    let began = Instant::now();
    let mut n = 0u64;
    while began.elapsed() < dur {
        n += 1;
        let t0 = Instant::now();
        let got = p.put(echo.clone()).and_then(|()| p.get(crate::deploy::T));
        let t1 = Instant::now();
        let ok = got.as_ref().is_ok_and(|b| *b == echo);
        out.ops(1, u64::from(!ok));
        out.gate(ok, || format!("{name}: echo {n} does not match its frame"));
        if !ok {
            return st;
        }
        spans.record(n, 0, name, t0, t1);
        st.rtt_us.push((t1 - t0).as_secs_f64() * 1e6);
    }
    let began = Instant::now();
    while began.elapsed() < dur {
        let t0 = Instant::now();
        let mut failed = 0;
        for _ in 0..window {
            failed += u64::from(p.put(count.clone()).is_err());
        }
        let reply = p.put(fence.clone()).and_then(|()| p.get(crate::deploy::T));
        let elapsed = t0.elapsed();
        st.sent += window;
        let seen = reply.ok().filter(|b| b.len() == 9).map_or(0, |b| {
            u64::from_be_bytes(b[1..9].try_into().expect("8 bytes"))
        });
        out.ops(window + 1, failed);
        out.gate(seen == st.sent, || {
            format!("{name}: {seen} of {} frames delivered", st.sent)
        });
        if seen != st.sent {
            break;
        }
        st.rates.push(window as f64 / elapsed.as_secs_f64());
    }
    st
}

/// Runs the raw-channel and LVC rungs between the deployment's channel
/// pair. Returns (ipcs, nd).
fn raw_rungs(
    d: &Deployment,
    payload: &[u8],
    window: u64,
    dur: Duration,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<(RungStats, RungStats), String> {
    let world = d.testbed.world();
    let pair = d.pair;
    let mut results = Vec::new();
    for lvc in [false, true] {
        let (addr, listener) = world
            .create_listener(pair.to, pair.net, "ladder")
            .map_err(|e| format!("ladder listener: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let server = {
            let stop = Arc::clone(&stop);
            let net = pair.net;
            std::thread::Builder::new()
                .name("ladder-server".into())
                .spawn(move || {
                    let Ok(chan) = listener.accept(Some(Duration::from_secs(10))) else {
                        return;
                    };
                    let chan: Arc<dyn IpcsChannel> = Arc::from(chan);
                    if lvc {
                        let p = Lvc::new(chan, net);
                        serve_pipe(&p, &stop);
                        p.shut();
                    } else {
                        serve_pipe(&chan, &stop);
                        chan.shut();
                    }
                    listener.close();
                })
                .map_err(|e| e.to_string())?
        };
        let chan: Arc<dyn IpcsChannel> = Arc::from(
            world
                .connect(pair.from, &addr)
                .map_err(|e| format!("ladder connect: {e}"))?,
        );
        let st = if lvc {
            let p = Lvc::new(chan, pair.net);
            let st = drive_pipe(&p, payload, window, dur, "nd.lvc", spans, out);
            p.shut();
            st
        } else {
            let st = drive_pipe(&chan, payload, window, dur, "ipcs.chan", spans, out);
            chan.shut();
            st
        };
        stop.store(true, Ordering::Relaxed);
        let _ = server.join();
        results.push(st);
    }
    let nd = results.pop().expect("two rungs");
    let ipcs = results.pop().expect("two rungs");
    Ok((ipcs, nd))
}

/// Median time of `nd.open` to a listener on the channel pair.
fn nd_open_us(d: &Deployment, spans: &mut Spans) -> Result<f64, String> {
    let world = d.testbed.world();
    let pair = d.pair;
    let (addr, listener) = world
        .create_listener(pair.to, pair.net, "ladder-open")
        .map_err(|e| format!("open listener: {e}"))?;
    let acceptor = {
        let listener = Arc::clone(&listener);
        std::thread::spawn(move || {
            let mut held = Vec::new();
            while let Ok(c) = listener.accept(Some(Duration::from_secs(2))) {
                held.push(c);
                if held.len() == PROBES {
                    break;
                }
            }
            for c in held {
                c.close();
            }
        })
    };
    let mut times = Vec::new();
    let opened = NdLayer::new(world, pair.from, "ladder-nd").and_then(|nd| {
        let mut run = || {
            for i in 0..PROBES {
                let t0 = Instant::now();
                let lvc = nd.open(&addr, 0)?;
                let t1 = Instant::now();
                spans.record(i as u64, 0, "nd.open", t0, t1);
                times.push((t1 - t0).as_secs_f64() * 1e6);
                lvc.close();
            }
            Ok(())
        };
        let opened = run();
        nd.close_all();
        opened
    });
    listener.close();
    let _ = acceptor.join();
    opened.map_err(|e| format!("nd open: {e}"))?;
    Ok(median(&times))
}

/// Median µs of `register` (fresh modules) and of `locate` (cold names).
fn naming_probes(d: &Deployment, spans: &mut Spans) -> Result<(f64, f64), String> {
    let machine = d.homes[0];
    let mut reg = Vec::new();
    let mut modules = Vec::new();
    for i in 0..PROBES {
        let cm = d
            .testbed
            .commod(machine, "probe")
            .map_err(|e| e.to_string())?;
        let name = format!("probe-{i}");
        let t0 = Instant::now();
        cm.register(&name).map_err(|e| format!("register: {e}"))?;
        let t1 = Instant::now();
        spans.record(i as u64, 0, "nsp.register", t0, t1);
        reg.push((t1 - t0).as_secs_f64() * 1e6);
        modules.push(cm);
    }
    let mut loc = Vec::new();
    for (i, module) in modules.iter().enumerate() {
        let t0 = Instant::now();
        let u = d
            .client
            .locate(&format!("probe-{i}"))
            .map_err(|e| format!("locate: {e}"))?;
        let t1 = Instant::now();
        if u != module.my_uadd() {
            return Err(format!("locate probe-{i} found the wrong module"));
        }
        spans.record(i as u64, 0, "nsp.locate", t0, t1);
        loc.push((t1 - t0).as_secs_f64() * 1e6);
    }
    for cm in modules {
        cm.shutdown();
    }
    Ok((median(&reg), median(&loc)))
}

/// Median µs to encode and decode the workload's request in image mode.
fn wire_probes(
    payload: usize,
    seed: u64,
    dur: Duration,
    spans: &mut Spans,
) -> Result<(f64, f64, u64), String> {
    let req = Req {
        seq: 1,
        data: ntcs_wire::pack::Blob(Rng::new(seed).bytes(payload)),
    };
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let began = Instant::now();
    let mut i = 0u64;
    while began.elapsed() < dur || i < 16 {
        i += 1;
        let t0 = Instant::now();
        let bytes = ntcs_wire::encode_payload(&req, ConvMode::Image, MachineType::Sun);
        let t1 = Instant::now();
        let inbound = InboundPayload {
            type_id: <Req as ntcs::Message>::TYPE_ID,
            mode: ConvMode::Image,
            src_machine: MachineType::Sun,
            bytes,
        };
        let t2 = Instant::now();
        let back: Req = inbound
            .decode(MachineType::Sun)
            .map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        if back != req {
            return Err("wire round trip changed the message".into());
        }
        spans.record(i, 0, "wire.encode", t0, t1);
        spans.record(i, 0, "wire.decode", t2, t3);
        enc.push((t1 - t0).as_secs_f64() * 1e6);
        dec.push((t3 - t2).as_secs_f64() * 1e6);
    }
    Ok((median(&enc), median(&dec), i))
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Counter readings taken at a phase boundary.
#[derive(Clone, Copy)]
struct Reading {
    m: NucleusMetricsSnapshot,
    allocs: (u64, u64),
    cpu: Duration,
    pool: (u64, u64),
    relayed: u64,
}

fn read(d: &Deployment) -> Reading {
    let pool = d.testbed.world().buffer_pool().stats();
    Reading {
        m: d.client.metrics(),
        allocs: probe::allocs(),
        cpu: probe::cpu_time(),
        pool: (pool.hits, pool.misses),
        relayed: d.gateways.iter().map(|g| g.metrics().frames_relayed).sum(),
    }
}

fn mark(spans: &mut Spans, name: &str, r: &Reading) {
    spans.mark(
        name,
        vec![
            ("sends", r.m.sends as f64),
            ("recvs", r.m.recvs as f64),
            ("casts", r.m.casts as f64),
            ("allocs", r.allocs.0 as f64),
            ("alloc_bytes", r.allocs.1 as f64),
            ("cpu_us", r.cpu.as_secs_f64() * 1e6),
            ("pool_hits", r.pool.0 as f64),
            ("pool_misses", r.pool.1 as f64),
            ("gateway_relayed", r.relayed as f64),
        ],
    );
}

/// A short ALI run on a side deployment.
struct Side {
    d: Deployment,
    /// Round trips, µs, ascending.
    lat: Vec<f64>,
    /// Median cast rate over windows.
    rate: f64,
    casts: u64,
    /// Counters around the cast slice.
    before: Reading,
    after: Reading,
}

fn side_run(
    topo: Topo,
    tweak: Tweak,
    w: &Workload,
    seed: u64,
    dur: Duration,
    out: &mut Outcome,
) -> Result<Side, String> {
    let (d, _) = stand_up(topo, tweak)?;
    let mut r = Runner::new(&d, w, seed);
    r.rpc_phase(dur / 4, out);
    let lat = sorted(&r.rpc_phase(dur, out).lat_us);
    let before = read(&d);
    let c = r.cast_phase(dur, w.cast_window, out);
    let after = read(&d);
    drop(r);
    Ok(Side {
        d,
        lat,
        rate: median(&c.rates),
        casts: c.sent,
        before,
        after,
    })
}

/// The traced run. `seconds` sizes each phase; the whole run takes a few
/// times that.
pub fn run_traced(w: &Workload, seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let unit = Duration::from_secs_f64((seconds / 10.0).max(0.1));
    let mut spans = Spans::new(Instant::now());
    let payload = Rng::new(seed).bytes(w.payload.max(2));

    // Stand-up, with thread and descriptor counts around it.
    let (threads0, fds0) = (probe::threads(), probe::fds());
    let (d, setup) = stand_up(w.topo, Tweak::None)?;
    let (threads1, fds1) = (probe::threads(), probe::fds());
    out.metric("testbed.setup_ms", setup.as_secs_f64() * 1e3, "ms", 1);
    out.metric(
        "testbed.threads_per_module",
        (threads1 - threads0) as f64 / d.modules as f64,
        "count",
        d.modules,
    );
    out.metric(
        "testbed.fds_per_standup",
        fds1 as f64 - fds0 as f64,
        "count",
        1,
    );
    let r0 = read(&d);
    mark(&mut spans, "standup", &r0);

    // Rungs 1-2: raw channel and LVC.
    let (ipcs, nd) = raw_rungs(&d, &payload, w.cast_window, unit, &mut spans, out)?;
    let ipcs_p50 = percentile(&sorted(&ipcs.rtt_us), 0.5);
    let nd_p50 = percentile(&sorted(&nd.rtt_us), 0.5);
    out.metric("ipcs.chan_rtt_us", ipcs_p50, "us", ipcs.rtt_us.len() as u64);
    out.metric(
        "ipcs.chan_msgs_per_s",
        median(&ipcs.rates),
        "1/s",
        ipcs.sent,
    );
    out.metric("nd.lvc_rtt_us", nd_p50, "us", nd.rtt_us.len() as u64);
    out.metric("nd.lvc_msgs_per_s", median(&nd.rates), "1/s", nd.sent);
    out.metric(
        "nd.added_us",
        nd_p50 - ipcs_p50,
        "us",
        nd.rtt_us.len() as u64,
    );
    out.metric(
        "nd.open_us",
        nd_open_us(&d, &mut spans)?,
        "us",
        PROBES as u64,
    );
    mark(&mut spans, "raw_rungs", &read(&d));

    // Rung 3: the LCM, on both ends.
    let mut r = Runner::new(&d, w, seed);
    r.spans = Some(&mut spans);
    control(&d, CTL_LCM, 1)?;
    r.api = Api::Lcm;
    r.rpc_phase(unit / 4, out);
    let lcm = r.rpc_phase(unit, out);
    let lcm_cast = r.cast_phase(unit, w.cast_window, out);
    r.api = Api::Ali;
    control(&d, CTL_LCM, 0)?;
    let lcm_p50 = percentile(&sorted(&lcm.lat_us), 0.5);
    out.metric("lcm.rpc_rtt_us", lcm_p50, "us", lcm.lat_us.len() as u64);
    out.metric(
        "lcm.added_us",
        lcm_p50 - nd_p50,
        "us",
        lcm.lat_us.len() as u64,
    );
    out.metric(
        "lcm.cast_msgs_per_s",
        median(&lcm_cast.rates),
        "1/s",
        lcm_cast.sent,
    );

    // Rung 4: the ALI, untraced then traced (spans plus allocation
    // counting), for the tracing overhead.
    let spans_ref = r.spans.take();
    r.rpc_phase(unit / 4, out);
    let ali = r.rpc_phase(unit * 2, out);
    r.spans = spans_ref;
    let a0 = read(r.d);
    probe::count_allocs(true);
    let ali_traced = r.rpc_phase(unit * 2, out);
    let a1 = read(r.d);
    let ali_cast = r.cast_phase(unit, w.cast_window, out);
    probe::count_allocs(false);
    let a2 = read(r.d);
    let ali_lat = sorted(&ali.lat_us);
    let ali_p50 = percentile(&ali_lat, 0.5);
    let n_ali = ali.lat_us.len() as u64;
    out.metric("ali.added_us", ali_p50 - lcm_p50, "us", n_ali);
    out.metric("ali.rpc_p99_us", percentile(&ali_lat, 0.99), "us", n_ali);
    out.metric(
        "obs.trace_overhead_x",
        percentile(&sorted(&ali_traced.lat_us), 0.5) / ali_p50,
        "x",
        ali_traced.lat_us.len() as u64,
    );
    let rpcs = ali_traced.lat_us.len().max(1) as f64;
    let casts = ali_cast.sent.max(1) as f64;
    out.metric(
        "ali.allocs_per_rpc",
        (a1.allocs.0 - a0.allocs.0) as f64 / rpcs,
        "count",
        rpcs as u64,
    );
    out.metric(
        "ali.allocs_per_cast",
        (a2.allocs.0 - a1.allocs.0) as f64 / casts,
        "count",
        casts as u64,
    );
    out.metric(
        "ali.alloc_bytes_per_cast",
        (a2.allocs.1 - a1.allocs.1) as f64 / casts,
        "B",
        casts as u64,
    );
    let hits = (a2.pool.0 - a0.pool.0) as f64;
    let misses = (a2.pool.1 - a0.pool.1) as f64;
    out.metric(
        "ipcs.pool_hit_share",
        hits / (hits + misses).max(1.0),
        "share",
        (hits + misses) as u64,
    );
    if let Some(sp) = r.spans.as_deref_mut() {
        mark(sp, "ali_rpc", &a1);
        mark(sp, "ali_cast", &a2);
    }

    // Relocations on the workload's own topology.
    let m0 = d.client.metrics();
    let rec = r.recovery_phase(unit * 2, out);
    let m1 = d.client.metrics();
    drop(r);
    let n_rec = rec.len().max(1) as f64;
    out.metric(
        "lcm.reloc_retry_share",
        rec.iter().filter(|x| x.retried).count() as f64 / n_rec,
        "share",
        rec.len() as u64,
    );
    out.metric(
        "lcm.reloc_loss_share",
        rec.iter().filter(|x| x.lost).count() as f64 / n_rec,
        "share",
        rec.len() as u64,
    );
    out.metric(
        "lcm.address_faults_per_reloc",
        (m1.address_faults - m0.address_faults) as f64 / n_rec,
        "count",
        rec.len() as u64,
    );
    out.metric(
        "lcm.reconnects_per_reloc",
        (m1.reconnects - m0.reconnects) as f64 / n_rec,
        "count",
        rec.len() as u64,
    );
    out.metric(
        "lcm.dropped_per_reloc",
        (m1.dropped_messages - m0.dropped_messages) as f64 / n_rec,
        "count",
        rec.len() as u64,
    );
    out.metric(
        "nsp.relocate_us",
        median(&rec.iter().map(|x| x.relocate_us).collect::<Vec<_>>()),
        "us",
        rec.len() as u64,
    );
    let (hits, misses) = (
        m1.ns_cache_hits - r0.m.ns_cache_hits,
        m1.ns_cache_misses - r0.m.ns_cache_misses,
    );
    out.metric(
        "naming.cache_hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
        "share",
        hits + misses,
    );
    mark(&mut spans, "relocations", &read(&d));

    // Naming and wire probes.
    let (register_us, locate_us) = naming_probes(&d, &mut spans)?;
    out.metric("nsp.register_us", register_us, "us", PROBES as u64);
    out.metric("nsp.locate_us", locate_us, "us", PROBES as u64);
    let (enc, dec, n) = wire_probes(w.payload, seed, unit / 2, &mut spans)?;
    out.metric("wire.encode_us", enc, "us", n);
    out.metric("wire.decode_us", dec, "us", n);

    // Teardown, with the counts it leaves behind.
    let t0 = Instant::now();
    d.tear_down();
    let teardown = t0.elapsed();
    spans.record(0, 0, "testbed.teardown", t0, t0 + teardown);
    out.metric("testbed.teardown_ms", teardown.as_secs_f64() * 1e3, "ms", 1);
    out.metric(
        "testbed.threads_leaked",
        probe::threads() as f64 - threads0 as f64,
        "count",
        1,
    );
    out.metric(
        "testbed.fds_leaked",
        probe::fds() as f64 - fds0 as f64,
        "count",
        1,
    );

    // Side deployments: recorder off, credits on, and the gateway chain
    // against a direct circuit at the workload's payload.
    let off = side_run(w.topo, Tweak::NoRecorder, w, seed, unit, out)?;
    off.d.tear_down();
    out.metric(
        "obs.recorder_on_off_x",
        percentile(&off.lat, 0.5) / ali_p50,
        "x",
        n_ali,
    );
    let on = side_run(w.topo, Tweak::Credits(CREDIT_WINDOW), w, seed, unit, out)?;
    on.d.tear_down();
    out.metric(
        "flow.on_off_x",
        on.rate / median(&ali_cast.rates),
        "x",
        on.casts,
    );
    out.metric(
        "flow.stalls_per_msg",
        (on.after.m.flow_stalls - on.before.m.flow_stalls) as f64 / on.casts.max(1) as f64,
        "count",
        on.casts,
    );
    let chain = side_run(Topo::TcpGw2, Tweak::None, w, seed, unit, out)?;
    let splice = chain.d.splice.map_or(f64::NAN, |s| s.as_secs_f64() * 1e3);
    out.metric("gateway.splice_ms", splice, "ms", 1);
    out.metric(
        "gateway.relayed_frames_per_msg",
        (chain.after.relayed - chain.before.relayed) as f64 / chain.casts.max(1) as f64,
        "count",
        chain.casts,
    );
    chain.d.tear_down();
    let direct = side_run(Topo::TcpDirect, Tweak::None, w, seed, unit, out)?;
    direct.d.tear_down();
    out.metric(
        "gateway.chain_over_direct_x",
        percentile(&direct.lat, 0.5) / percentile(&chain.lat, 0.5),
        "x",
        chain.lat.len() as u64,
    );

    // The co-located SHM path at the workload's payload: raw ring channel
    // and ALI. Its wait/wake path is a sleep-poll whose timer behaviour
    // drifts with the host, so it is reported here rather than gated.
    let colo = side_run(Topo::ShmColo, Tweak::None, w, seed, unit, out)?;
    let (shm_chan, _) = raw_rungs(&colo.d, &payload, w.cast_window, unit / 2, &mut spans, out)?;
    colo.d.tear_down();
    let n_colo = colo.lat.len() as u64;
    out.metric(
        "shm.chan_rtt_us",
        percentile(&sorted(&shm_chan.rtt_us), 0.5),
        "us",
        shm_chan.rtt_us.len() as u64,
    );
    out.metric("shm.rpc_p50_us", percentile(&colo.lat, 0.5), "us", n_colo);
    out.metric("shm.rpc_p90_us", percentile(&colo.lat, 0.9), "us", n_colo);
    out.metric("shm.cast_msgs_per_s", colo.rate, "1/s", colo.casts);

    let path = write_spans(w, seed, &spans)?;
    out.context("span_file", crate::stats::json_str(&path));
    out.context("spans", spans.list.len().to_string());
    Ok(())
}

/// Writes the span file under `ntcsbench/out/` in the working directory.
fn write_spans(w: &Workload, seed: u64, spans: &Spans) -> Result<String, String> {
    let dir = std::path::Path::new("ntcsbench").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("span dir: {e}"))?;
    let path = dir.join(format!("spans-{}-{seed}.json", w.name));
    std::fs::write(&path, spans.to_json()).map_err(|e| format!("span file: {e}"))?;
    Ok(path.display().to_string())
}
