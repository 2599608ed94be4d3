//! Seed-parameterized chaos scenarios for the delivery supervisor —
//! partition/heal cycles, Name-Server replica kills, frame-drop storms on a
//! gateway hop, slow-consumer backpressure — each asserting the
//! supervisor's contract under its fault schedule: every reliable message
//! is either acknowledged and delivered exactly once, or surfaced as a
//! typed dead letter; never silently lost, never delivered twice; and
//! tripped circuit breakers recover once the fault heals.
//!
//! Every schedule is a pure function of its seed (the `RetryPolicy` jitter
//! is seeded too), so a failing seed replays its fault timeline exactly.
//! The scenarios live in the library (rather than a test file) so both the
//! classic per-seed tests *and* the wide `seed_sweep` harness drive the
//! same code — see `ntcs_sim::sweep`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ntcs::{
    hop_kind, CircuitHealth, ComMod, FlowSettings, MachineType, NetKind, NtcsError,
    NucleusMetricsSnapshot, Testbed,
};
use ntcs_drts::MonitorService;
use ntcs_sim::SimRng;
use parking_lot::Mutex;

use crate::messages::Ask;
use crate::scenarios::{line_internet, single_net};

/// The classic hand-picked chaos seeds (the sweep harness extends them —
/// `ntcs_sim::sweep::seed_list`).
pub const SEEDS: [u64; 3] = ntcs_sim::CLASSIC_SEEDS;

/// Chaos scenarios are wall-clock sensitive (retry deadlines, breaker
/// half-open timers); running several at once starves their threads and
/// turns timing assertions into noise. Every scenario takes this lock, so
/// they serialize no matter which harness drives them.
pub static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Pumps `receiver` until `stop` is set and the wire has gone quiet,
/// tallying how many times each sequence number reached the application.
pub fn spawn_counter(
    receiver: ComMod,
    stop: Arc<AtomicBool>,
    delivered: Arc<Mutex<HashMap<u32, u32>>>,
) -> std::thread::JoinHandle<ComMod> {
    std::thread::spawn(move || loop {
        match receiver.receive(Some(Duration::from_millis(200))) {
            Ok(m) => {
                if let Ok(a) = m.decode::<Ask>() {
                    *delivered.lock().entry(a.n).or_insert(0) += 1;
                }
            }
            Err(NtcsError::Timeout) => {
                if stop.load(Ordering::SeqCst) {
                    return receiver;
                }
            }
            Err(_) => return receiver,
        }
    })
}

/// Like [`spawn_counter`], but dawdles after every delivery — the paper's
/// "slow consumer" that forces the credit window shut.
pub fn spawn_slow_counter(
    receiver: ComMod,
    stop: Arc<AtomicBool>,
    delivered: Arc<Mutex<HashMap<u32, u32>>>,
    drain_pause: Duration,
) -> std::thread::JoinHandle<ComMod> {
    std::thread::spawn(move || loop {
        match receiver.receive(Some(Duration::from_millis(200))) {
            Ok(m) => {
                if let Ok(a) = m.decode::<Ask>() {
                    *delivered.lock().entry(a.n).or_insert(0) += 1;
                }
                std::thread::sleep(drain_pause);
            }
            Err(NtcsError::Timeout) => {
                if stop.load(Ordering::SeqCst) {
                    return receiver;
                }
            }
            Err(_) => return receiver,
        }
    })
}

/// The supervisor's contract, checked after a chaos run: exactly-once for
/// every acknowledged message, at-most-once for dead-lettered ones, nothing
/// delivered that was never sent.
pub fn assert_exactly_once_or_dead_letter(
    delivered: &HashMap<u32, u32>,
    acked: &[u32],
    dead: &[u32],
) {
    for (n, count) in delivered {
        assert_eq!(
            *count, 1,
            "message {n} reached the application {count} times"
        );
        assert!(
            acked.contains(n) || dead.contains(n),
            "message {n} delivered but never sent"
        );
    }
    for n in acked {
        assert_eq!(
            delivered.get(n),
            Some(&1),
            "acknowledged message {n} must have been delivered exactly once"
        );
    }
}

/// Counter invariants checked after each chaos run, on every seed: the
/// metrics must account for every reliable send. `base` is the receiver's
/// snapshot before the run (registration traffic also bumps `recvs`).
pub fn assert_counter_invariants(
    s: &NucleusMetricsSnapshot,
    r: &NucleusMetricsSnapshot,
    base: &NucleusMetricsSnapshot,
    acked: &[u32],
    dead: &[u32],
) {
    let delivered = r.recvs - base.recvs;
    let total = (acked.len() + dead.len()) as u64;
    assert!(
        delivered >= acked.len() as u64,
        "every acknowledged send must reach the application: {delivered} recvs < {} acks",
        acked.len()
    );
    assert!(
        delivered <= total,
        "recvs plus never-delivered dead letters must account for every \
         reliable send exactly once: {delivered} recvs > {total} sends"
    );
    assert_eq!(
        s.dead_letters,
        dead.len() as u64,
        "every exhausted send must surface as exactly one dead letter"
    );
    assert!(
        r.duplicates_suppressed - base.duplicates_suppressed <= s.retransmissions,
        "a suppressed duplicate can only stem from a retransmission \
         ({} suppressed, {} retransmitted)",
        r.duplicates_suppressed - base.duplicates_suppressed,
        s.retransmissions
    );
    assert!(
        s.breaker_recoveries <= s.breaker_trips,
        "a breaker can only recover after tripping ({} recoveries, {} trips)",
        s.breaker_recoveries,
        s.breaker_trips
    );
}

/// Checks that `text` is well-formed Prometheus exposition: every line is
/// a comment or `name{labels} value` with a parseable value.
pub fn assert_valid_prometheus(text: &str) {
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample line has no value: {line:?}"));
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "unparseable sample value in {line:?}"
        );
        let name = series.split('{').next().unwrap();
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name in {line:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Scenario 1: partition/heal cycles between sender and receiver
// ---------------------------------------------------------------------

/// Partition/heal cycles between sender and receiver on one LAN: a long
/// opening partition trips the breaker, seed-driven flapping (short
/// partitions, drop storms, latency spikes) follows, then everything
/// heals. Panics on any contract violation.
pub fn partition_heal_chaos(seed: u64) {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let lab = single_net(3, NetKind::Mbx).unwrap();
    let receiver = lab.testbed.module(lab.machines[2], "chaos-sink").unwrap();
    let sender = lab.testbed.module(lab.machines[1], "chaos-src").unwrap();
    let dst = sender.locate("chaos-sink").unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let delivered = Arc::new(Mutex::new(HashMap::new()));
    let receiver_base = receiver.metrics();
    let counter = spawn_counter(receiver, Arc::clone(&stop), Arc::clone(&delivered));

    let world = lab.testbed.world().clone();
    let (m_a, m_b) = (lab.machines[1], lab.machines[2]);
    let net = lab.net;
    let chaos = std::thread::spawn(move || {
        let mut rng = SimRng::new(seed);
        // One long opening partition guarantees enough consecutive delivery
        // failures to trip the sender's breaker on every seed.
        std::thread::sleep(Duration::from_millis(150));
        world.set_partition(m_a, m_b, true);
        std::thread::sleep(Duration::from_millis(1800));
        world.set_partition(m_a, m_b, false);
        // Then seed-driven flapping: short partitions, drop storms, latency.
        for _ in 0..rng.range(2, 5) {
            match rng.next_u64() % 3 {
                0 => {
                    world.set_partition(m_a, m_b, true);
                    std::thread::sleep(Duration::from_millis(rng.range(100, 400)));
                    world.set_partition(m_a, m_b, false);
                }
                1 => {
                    world
                        .set_drop_permille(net, rng.range(100, 500) as u32)
                        .unwrap();
                    std::thread::sleep(Duration::from_millis(rng.range(150, 400)));
                    world.set_drop_permille(net, 0).unwrap();
                }
                _ => {
                    world
                        .set_latency(net, Duration::from_millis(rng.range(2, 15)))
                        .unwrap();
                    std::thread::sleep(Duration::from_millis(rng.range(100, 300)));
                    world.set_latency(net, Duration::ZERO).unwrap();
                }
            }
            std::thread::sleep(Duration::from_millis(rng.range(50, 250)));
        }
        // Heal everything.
        world.set_partition(m_a, m_b, false);
        world.set_drop_permille(net, 0).unwrap();
        world.set_latency(net, Duration::ZERO).unwrap();
    });

    let mut pace = SimRng::new(seed ^ 0x0050_ACE0);
    let (mut acked, mut dead) = (Vec::new(), Vec::new());
    for i in 0..12u32 {
        match sender.send_reliable(
            dst,
            &Ask {
                n: i,
                body: String::new(),
            },
            Duration::from_secs(4),
        ) {
            Ok(_) => acked.push(i),
            Err(e) => {
                assert!(
                    matches!(e, NtcsError::DeadlineExceeded),
                    "exhausted recovery must surface as the typed deadline error, got {e}"
                );
                dead.push(i);
            }
        }
        std::thread::sleep(Duration::from_millis(pace.range(0, 60)));
    }
    chaos.join().unwrap();

    // Post-heal: delivery works again and the breaker closes.
    sender
        .send_reliable(
            dst,
            &Ask {
                n: 100,
                body: String::new(),
            },
            Duration::from_secs(10),
        )
        .unwrap();
    acked.push(100);
    assert_eq!(sender.circuit_health(dst), CircuitHealth::Healthy);

    // Let stragglers (retransmits of dead-lettered messages) drain, then
    // stop the counter.
    std::thread::sleep(Duration::from_millis(600));
    stop.store(true, Ordering::SeqCst);
    let receiver = counter.join().unwrap();

    assert_exactly_once_or_dead_letter(&delivered.lock(), &acked, &dead);
    let m = sender.metrics();
    assert_counter_invariants(&m, &receiver.metrics(), &receiver_base, &acked, &dead);
    assert_eq!(m.dead_letters, dead.len() as u64);
    assert!(
        m.breaker_trips >= 1,
        "the long partition must trip the breaker"
    );
    assert!(
        m.breaker_recoveries >= 1,
        "healing must close the breaker again"
    );
    assert!(m.retry_attempts >= 1, "supervised retries were exercised");
    assert!(
        m.retransmissions >= 1,
        "the partition forced retransmissions"
    );
    let dups = receiver.metrics().duplicates_suppressed;
    println!(
        "seed {seed:#x}: acked={}, dead={}, retransmissions={}, trips={}, \
         recoveries={}, duplicates_suppressed={dups}",
        acked.len(),
        dead.len(),
        m.retransmissions,
        m.breaker_trips,
        m.breaker_recoveries,
    );
}

// ---------------------------------------------------------------------
// Scenario 2: Name-Server replica kill mid-run (§7 failover under noise)
// ---------------------------------------------------------------------

/// Name-Server replica kill mid-run: background loss while both servers
/// live, then the primary crashes outright; naming queries must fail over
/// to the replica (every failure along the way typed), and the located
/// module must be genuinely reachable. Panics on any contract violation.
pub fn ns_replica_kill(seed: u64) {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut rng = SimRng::new(seed);
    let mut tb = Testbed::builder();
    let net = tb.add_network(NetKind::Mbx, "lan");
    let m: Vec<_> = (0..4)
        .map(|i| {
            tb.add_machine(MachineType::Sun, &format!("host{i}"), &[net])
                .unwrap()
        })
        .collect();
    tb.name_server_on(m[0]);
    tb.replica_on(m[1]);
    let testbed = tb.start().unwrap();
    // Register while both servers live (the primary replicates to m[1]).
    let svc = testbed.module(m[2], "chaos-svc").unwrap();
    let client = testbed.module(m[3], "chaos-client").unwrap();

    // Noise phase: seed-derived background loss while both servers live.
    // A single dropped frame stalls a naming exchange on its 750 ms per-replica
    // timeout, which legitimately exhausts the 3 s `NS_RETRY` budget — so
    // under loss a query must either answer correctly or fail with a
    // *typed* transient/deadline error, never anything else.
    testbed
        .world()
        .set_drop_permille(net, rng.range(60, 250) as u32)
        .unwrap();
    let mut noisy_hits = 0;
    for _ in 0..rng.range(3, 6) {
        match client.locate("chaos-svc") {
            Ok(u) => {
                assert_eq!(u, svc.my_uadd());
                noisy_hits += 1;
            }
            Err(e) => assert!(
                matches!(
                    e,
                    NtcsError::DeadlineExceeded
                        | NtcsError::Timeout
                        | NtcsError::NameServerUnreachable
                        | NtcsError::CircuitBroken(_)
                        | NtcsError::ConnectionClosed
                ),
                "noisy locate must fail with a typed transient error, got {e}"
            ),
        }
        std::thread::sleep(Duration::from_millis(rng.range(10, 80)));
    }
    println!("seed {seed:#x}: {noisy_hits} noisy locates answered");

    // Heal the wire, then kill the primary outright.
    testbed.world().set_drop_permille(net, 0).unwrap();
    testbed.world().crash(m[0]);
    std::thread::sleep(Duration::from_millis(100));

    // The naming query must fail over to the replica and still answer.
    // Under load one supervised query can exhaust its deadline budget on
    // the dead primary's open retries, so allow a couple of application
    // retries — every failure along the way must still be typed.
    let mut found = None;
    for _ in 0..3 {
        match client.locate("chaos-svc") {
            Ok(u) => {
                found = Some(u);
                break;
            }
            Err(e) => assert!(
                matches!(
                    e,
                    NtcsError::DeadlineExceeded
                        | NtcsError::Timeout
                        | NtcsError::NameServerUnreachable
                        | NtcsError::CircuitBroken(_)
                ),
                "failover locate failed with an untyped error: {e}"
            ),
        }
    }
    let found = found.expect("locate must fail over to the surviving replica");
    assert_eq!(found, svc.my_uadd());

    // And the located module is genuinely reachable (m[3] ↔ m[2] traffic
    // never depended on the dead machine). The receiver pumps concurrently:
    // delivery acks only flow when the application actually receives.
    testbed.world().set_drop_permille(net, 0).unwrap();
    let svc_thread = std::thread::spawn(move || {
        let got = svc.receive(Some(Duration::from_secs(10))).unwrap();
        got.decode::<Ask>().unwrap().n
    });
    client
        .send_reliable(
            found,
            &Ask {
                n: 1,
                body: String::new(),
            },
            Duration::from_secs(10),
        )
        .unwrap();
    assert_eq!(svc_thread.join().unwrap(), 1);
    assert_eq!(client.circuit_health(found), CircuitHealth::Healthy);
}

// ---------------------------------------------------------------------
// Scenario 3: drop storms on the middle network of a gateway chain
// ---------------------------------------------------------------------

/// Drop storms on the middle network of a three-network gateway chain:
/// reliable sends cross two splices while the hop both gateways relay
/// across sheds up to 70% of its frames. Panics on any contract violation.
pub fn gateway_drop_chaos(seed: u64) {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let lab = line_internet(3, NetKind::Mbx).unwrap();
    let server = lab
        .testbed
        .module(lab.edge_machines[2], "far-sink")
        .unwrap();
    let client = lab.testbed.module(lab.edge_machines[0], "far-src").unwrap();
    let dst = client.locate("far-sink").unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let delivered = Arc::new(Mutex::new(HashMap::new()));
    let server_base = server.metrics();
    let counter = spawn_counter(server, Arc::clone(&stop), Arc::clone(&delivered));

    let world = lab.testbed.world().clone();
    let mid = lab.nets[1];
    let chaos = std::thread::spawn(move || {
        let mut rng = SimRng::new(seed);
        std::thread::sleep(Duration::from_millis(100));
        for _ in 0..rng.range(3, 6) {
            // A drop storm on the hop both gateways relay across.
            world
                .set_drop_permille(mid, rng.range(250, 700) as u32)
                .unwrap();
            std::thread::sleep(Duration::from_millis(rng.range(200, 500)));
            world.set_drop_permille(mid, 0).unwrap();
            std::thread::sleep(Duration::from_millis(rng.range(100, 300)));
        }
        world.set_drop_permille(mid, 0).unwrap();
    });

    let mut pace = SimRng::new(seed ^ 0x6A7E);
    let (mut acked, mut dead) = (Vec::new(), Vec::new());
    for i in 0..10u32 {
        match client.send_reliable(
            dst,
            &Ask {
                n: i,
                body: String::new(),
            },
            Duration::from_secs(5),
        ) {
            Ok(_) => acked.push(i),
            Err(e) => {
                assert!(matches!(e, NtcsError::DeadlineExceeded), "{e}");
                dead.push(i);
            }
        }
        std::thread::sleep(Duration::from_millis(pace.range(0, 40)));
    }
    chaos.join().unwrap();

    // Post-storm, the spliced route still works end to end.
    client
        .send_reliable(
            dst,
            &Ask {
                n: 100,
                body: String::new(),
            },
            Duration::from_secs(10),
        )
        .unwrap();
    acked.push(100);

    std::thread::sleep(Duration::from_millis(600));
    stop.store(true, Ordering::SeqCst);
    let server = counter.join().unwrap();

    assert_exactly_once_or_dead_letter(&delivered.lock(), &acked, &dead);
    let m = client.metrics();
    assert_counter_invariants(&m, &server.metrics(), &server_base, &acked, &dead);
    assert_eq!(m.dead_letters, dead.len() as u64);
    println!(
        "seed {seed:#x}: acked={}, dead={}, retransmissions={}, duplicates_suppressed={}",
        acked.len(),
        dead.len(),
        m.retransmissions,
        server.metrics().duplicates_suppressed,
    );
}

// ---------------------------------------------------------------------
// Scenario 4: slow consumer behind a two-gateway chain
// ---------------------------------------------------------------------

/// The credit window for the backpressure scenario: small enough that a
/// slow consumer exhausts it within the first few dozen messages.
pub const FLOW_WINDOW_BYTES: u64 = 8192;
/// Frame half of the credit window.
pub const FLOW_WINDOW_FRAMES: u32 = 32;

/// Headroom over the window allowed in any one transit queue: frame
/// headers, plus the control-lane traffic (acks, credit grants, naming)
/// that rides outside the credit window by design.
pub const FLOW_PEAK_SLACK: u64 = 4096;

/// Slow consumer behind a two-gateway chain: credit-based flow control
/// must bound every transit queue to roughly one credit window even though
/// the receiver drains at a tenth of the sender's pace; reliable sends
/// must still be delivered-or-dead-lettered; and the monitor's STALL hop
/// records must agree with the `flow_stalls` counter. Panics on any
/// contract violation.
pub fn slow_consumer_backpressure(seed: u64) {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut rng = SimRng::new(seed);
    let lab = line_internet(3, NetKind::Mbx).unwrap();
    lab.testbed
        .enable_flow_control(FlowSettings::enabled(FLOW_WINDOW_BYTES, FLOW_WINDOW_FRAMES));
    // The monitor shares the sender's machine so STALL hop casts stay local.
    let monitor = MonitorService::spawn(&lab.testbed, lab.edge_machines[0]).unwrap();
    let sink = lab
        .testbed
        .module(lab.edge_machines[2], "flow-sink")
        .unwrap();
    let src = lab
        .testbed
        .module(lab.edge_machines[0], "flow-src")
        .unwrap();
    src.set_hop_monitor(monitor.uadd());
    let dst = src.locate("flow-sink").unwrap();

    // Seeded pacing: the sender runs flat out (a send costs tens of µs)
    // while the receiver dawdles for milliseconds per delivery — well under
    // a tenth of the sender's pace — so without flow control the transit
    // queues would accumulate nearly everything sent.
    let drain_pause = Duration::from_micros(rng.range(800, 1600));
    let stop = Arc::new(AtomicBool::new(false));
    let delivered = Arc::new(Mutex::new(HashMap::new()));
    let base = src.metrics();
    let counter = spawn_slow_counter(sink, Arc::clone(&stop), Arc::clone(&delivered), drain_pause);

    let body = "m".repeat(200);
    let n_msgs: u32 = 400;
    let mut traces = Vec::new();
    let (mut acked, mut dead, mut shed) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..n_msgs {
        let msg = Ask {
            n: i,
            body: body.clone(),
        };
        // A reliable send is a rendezvous — it blocks on the ack, which the
        // slow consumer only produces once it catches up — so spacing them
        // wider than the 32-frame window keeps credit, not the ack wait,
        // as what paces the unreliable bursts in between.
        let reliable = i % 50 == 49;
        let sent = if reliable {
            src.send_reliable_traced(dst, &msg, Duration::from_secs(5))
        } else {
            src.send_traced(dst, &msg)
        };
        match sent {
            Ok((_, trace)) => {
                traces.push(trace);
                acked.push(i);
            }
            Err(e) => {
                assert!(
                    matches!(e, NtcsError::FlowStalled(_) | NtcsError::DeadlineExceeded),
                    "a flow-limited send may only fail with a typed stall or \
                     deadline error, got {e}"
                );
                if reliable {
                    dead.push(i);
                } else {
                    shed.push(i);
                }
            }
        }
    }
    let stalls = src.metrics().flow_stalls - base.flow_stalls;

    // Let the slow consumer finish draining everything that was accepted.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while delivered.lock().len() < acked.len() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(25));
    }
    stop.store(true, Ordering::SeqCst);
    let _sink = counter.join().unwrap();

    // (1) Backpressure bound: no transit queue on any mailbox link — the
    // sender's uplink, either inter-gateway hop, or the sink's downlink —
    // ever held more than one credit window of resident bytes.
    for ((a, b), queued, peak) in lab.testbed.world().mbx_link_backlogs() {
        assert!(
            peak <= FLOW_WINDOW_BYTES + FLOW_PEAK_SLACK,
            "link {a:?}<->{b:?}: peak {peak} B resident exceeds the credit \
             window ({} B + {} B slack); {queued} B still queued",
            FLOW_WINDOW_BYTES,
            FLOW_PEAK_SLACK
        );
    }

    // (2) The supervisor's contract under credit starvation: everything
    // accepted was delivered exactly once, every failed reliable send is
    // exactly one dead letter, and a stalled-out best-effort send was
    // never transmitted at all.
    assert_exactly_once_or_dead_letter(&delivered.lock(), &acked, &dead);
    let m = src.metrics();
    assert_eq!(
        m.dead_letters,
        dead.len() as u64,
        "every exhausted reliable send must surface as exactly one dead letter"
    );

    // (3) The slow consumer genuinely exhausted the window.
    assert!(
        stalls >= 1,
        "a receiver at 1/10 pace must stall the sender at least once"
    );

    // (4) The reassembled traces agree with the counter: one STALL hop per
    // flow_stalls bump. Hop casts are asynchronous; poll until they land.
    let stall_hops = |traces: &[ntcs::TraceId]| -> u64 {
        traces
            .iter()
            .map(|t| {
                monitor
                    .trace_chain(t.raw())
                    .iter()
                    .filter(|h| h.kind == hop_kind::STALL)
                    .count() as u64
            })
            .sum()
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut seen = stall_hops(&traces);
    while seen != stalls && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(25));
        seen = stall_hops(&traces);
    }
    if dead.is_empty() && shed.is_empty() {
        assert_eq!(
            seen, stalls,
            "the monitor must hold exactly one STALL hop per flow_stalls bump"
        );
    } else {
        // A failed send's trace id was never returned to us, so its STALL
        // hops are invisible here — the known traces can only undercount.
        assert!(
            seen <= stalls,
            "STALL hops over known traces ({seen}) exceed flow_stalls ({stalls})"
        );
    }

    // (5) The flow counters and gauges reach the testbed-wide export.
    let prom = lab.testbed.observability_report();
    assert_valid_prometheus(&prom);
    assert!(prom.contains("# TYPE ntcs_flow_stalls_total counter"));
    assert!(prom.contains("ntcs_flow_credits_available"));

    println!(
        "seed {seed:#x}: sent={}, dead={}, shed={}, stalls={stalls}, peak_link_bytes={}",
        acked.len(),
        dead.len(),
        shed.len(),
        lab.testbed
            .world()
            .mbx_link_backlogs()
            .iter()
            .map(|(_, _, p)| *p)
            .max()
            .unwrap_or(0),
    );
    monitor.stop();
}
