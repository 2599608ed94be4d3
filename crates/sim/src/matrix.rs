//! The fault × layer matrix: every injected channel fault, at every layer
//! it can strike, asserts one of three typed verdicts — the system
//! **recovered**, the message was **dead-lettered**, or the call **cleanly
//! errored** with a typed error. A cell that hangs is a bug by definition:
//! each cell body runs on a watchdog thread with a wall-clock budget, and
//! exceeding the budget is the fourth (never-acceptable) verdict,
//! [`Verdict::Hung`].
//!
//! Cells are small, self-contained deployments (a LAN pair, a two-network
//! gateway chain) driven on the real clock — the matrix checks *liveness
//! and typing* of recovery, not byte-identical replay (that is the
//! [`crate::runner`]'s job). A `seed` parameter varies fault intensity and
//! pacing so sweeps explore the schedule space.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use ntcs::{
    dump_snapshot, ntcs_message, ComMod, FlowSettings, MachineId, MachineType, MetricsRegistry,
    NetKind, NetworkId, NtcsError, Result, Testbed, UAdd, World,
};
use ntcs_naming::protocol::NS_INVALIDATE_TYPE;
use ntcs_naming::ShardMap;
use ntcs_nucleus::LeaseProbe;
use parking_lot::Mutex;

use crate::rng::SimRng;

ntcs_message! {
    /// The matrix's probe message.
    pub struct Probe: 7100 {
        /// Sequence number (delivery is tallied per `n`).
        pub n: u32,
        /// Padding so flow-control cells can exhaust byte windows.
        pub pad: String,
    }
}

/// A fault the matrix knows how to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// The LCM's circuit state for a peer is corrupted out from under it
    /// (the underlying virtual circuit is force-closed).
    CorruptCircuit,
    /// The receiver stops draining its inbox entirely.
    WedgedInbox,
    /// A send's data frame is dropped after the circuit is up — the send
    /// half-completed on the wire.
    HalfCompletedSend,
    /// Control frames (acks, credit grants) and data are duplicated.
    DupControlFrames,
    /// Adjacent frames are reordered on the wire.
    ReorderControlFrames,
    /// The receiver's credit window is exhausted and never replenished.
    StuckCreditWindow,
    /// The machine hosting the splicing gateway crashes mid-conversation.
    CrashDuringSplice,
    /// A Name-Service shard's primary crashes while clients are mid-lookup;
    /// resolution must fail over to the shard's replica.
    ShardReplicaCrash,
    /// The lease-invalidation push for a relocated module never reaches the
    /// client; the cache's lease TTL must bound the staleness window.
    DroppedInvalidation,
    /// A client's lookup loop races the destination's relocation.
    LookupRacesRelocation,
    /// One shard group is partitioned away: its names must error typed (the
    /// hash routing leaves no second authority to diverge), the others must
    /// keep resolving.
    ShardSplitBrain,
    /// A reliable send races the relocation that forces its circuit off the
    /// co-location SHM ring onto the wire (substrate handoff
    /// mid-conversation).
    SendRacesHandoff,
    /// A co-located SHM ring fills while its reader is wedged: the producer
    /// must surface a typed stall, never hang.
    WedgedShmRing,
    /// A request is in flight while its destination relocates: its circuit
    /// closes under it, and the waiter must re-issue it to the new
    /// incarnation.
    SendRacesRelocation,
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Fault::CorruptCircuit => "corrupt-circuit",
            Fault::WedgedInbox => "wedged-inbox",
            Fault::HalfCompletedSend => "half-completed-send",
            Fault::DupControlFrames => "dup-control-frames",
            Fault::ReorderControlFrames => "reorder-control-frames",
            Fault::StuckCreditWindow => "stuck-credit-window",
            Fault::CrashDuringSplice => "crash-during-splice",
            Fault::ShardReplicaCrash => "shard-replica-crash",
            Fault::DroppedInvalidation => "dropped-invalidation",
            Fault::LookupRacesRelocation => "lookup-races-relocation",
            Fault::ShardSplitBrain => "shard-split-brain",
            Fault::SendRacesHandoff => "send-races-handoff",
            Fault::WedgedShmRing => "wedged-shm-ring",
            Fault::SendRacesRelocation => "send-races-relocation",
        };
        f.write_str(s)
    }
}

/// The layer a fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatrixLayer {
    /// The Logical Channel Module's reliable-delivery path on one network.
    Lcm,
    /// The credit-based flow-control subsystem.
    Flow,
    /// A cross-network conversation spliced through a gateway.
    Gateway,
    /// The relocation path: the fault lands while the destination module
    /// is moving machines.
    Relocation,
    /// The sharded Name Service and the leased client-side name cache.
    Naming,
    /// The substrate-selection plane: SHM/UDP/TCP choice, fallback, and
    /// the relocation handoff between substrates.
    Substrate,
}

impl std::fmt::Display for MatrixLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MatrixLayer::Lcm => "lcm",
            MatrixLayer::Flow => "flow",
            MatrixLayer::Gateway => "gateway",
            MatrixLayer::Relocation => "relocation",
            MatrixLayer::Naming => "naming",
            MatrixLayer::Substrate => "substrate",
        };
        f.write_str(s)
    }
}

/// What a cell concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The system absorbed the fault: delivery completed (exactly once).
    Recovered,
    /// The reliable send failed with a typed error after a bounded budget
    /// and the message was dead-lettered; it was delivered at most once.
    DeadLettered,
    /// The call returned the *specific* typed error the fault demands
    /// (e.g. [`NtcsError::FlowStalled`]) without delivering.
    CleanlyErrored,
    /// The cell exceeded its wall-clock budget. Never acceptable.
    Hung,
    /// An invariant was violated (duplicate delivery, wrong error type,
    /// harness failure). Never acceptable.
    Failed,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Verdict::Recovered => "recovered",
            Verdict::DeadLettered => "dead-lettered",
            Verdict::CleanlyErrored => "cleanly-errored",
            Verdict::Hung => "HUNG",
            Verdict::Failed => "FAILED",
        };
        f.write_str(s)
    }
}

/// The outcome of one cell run.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The injected fault.
    pub fault: Fault,
    /// The layer it struck.
    pub layer: MatrixLayer,
    /// The seed the cell ran at.
    pub seed: u64,
    /// The verdict.
    pub verdict: Verdict,
    /// Human-readable detail (error types seen, tallies).
    pub detail: String,
    /// Path of the flight-recorder snapshot dumped for this run, if one
    /// was written (unacceptable verdicts dump automatically; see
    /// [`run_cell_with_options`]).
    pub dump: Option<std::path::PathBuf>,
}

impl CellOutcome {
    /// Whether the verdict is in the cell's acceptable set.
    #[must_use]
    pub fn acceptable(&self) -> bool {
        expected(self.fault, self.layer).contains(&self.verdict)
    }
}

/// Every (fault, layer) cell the matrix covers.
#[must_use]
pub fn cells() -> Vec<(Fault, MatrixLayer)> {
    vec![
        (Fault::CorruptCircuit, MatrixLayer::Lcm),
        (Fault::WedgedInbox, MatrixLayer::Lcm),
        (Fault::HalfCompletedSend, MatrixLayer::Lcm),
        (Fault::DupControlFrames, MatrixLayer::Lcm),
        (Fault::ReorderControlFrames, MatrixLayer::Lcm),
        (Fault::StuckCreditWindow, MatrixLayer::Flow),
        (Fault::DupControlFrames, MatrixLayer::Flow),
        (Fault::CorruptCircuit, MatrixLayer::Gateway),
        (Fault::CrashDuringSplice, MatrixLayer::Gateway),
        (Fault::HalfCompletedSend, MatrixLayer::Relocation),
        (Fault::SendRacesRelocation, MatrixLayer::Relocation),
        (Fault::ShardReplicaCrash, MatrixLayer::Naming),
        (Fault::DroppedInvalidation, MatrixLayer::Naming),
        (Fault::LookupRacesRelocation, MatrixLayer::Naming),
        (Fault::ShardSplitBrain, MatrixLayer::Naming),
        (Fault::SendRacesHandoff, MatrixLayer::Substrate),
        (Fault::WedgedShmRing, MatrixLayer::Substrate),
    ]
}

/// The acceptable verdicts for a cell. [`Verdict::Hung`] and
/// [`Verdict::Failed`] are never acceptable anywhere.
#[must_use]
pub fn expected(fault: Fault, layer: MatrixLayer) -> &'static [Verdict] {
    use MatrixLayer as L;
    use Verdict::{CleanlyErrored, DeadLettered, Recovered};
    match (fault, layer) {
        // §3.5: a corrupted circuit is an address fault; reconnect recovers.
        (Fault::CorruptCircuit, _) => &[Recovered],
        // A wedged inbox either converges through the dedupe re-ack path or
        // dead-letters within the deadline — both typed, neither hangs.
        (Fault::WedgedInbox, L::Lcm) => &[Recovered, DeadLettered],
        // A dropped data frame on a warm circuit is what retransmission is
        // for; during relocation the dead-letter escape hatch is also legal.
        (Fault::HalfCompletedSend, L::Lcm) => &[Recovered],
        (Fault::HalfCompletedSend, L::Relocation) => &[Recovered, DeadLettered],
        // Duplicated / reordered control frames are absorbed by dedupe and
        // idempotent credit grants.
        (Fault::DupControlFrames, _) => &[Recovered],
        (Fault::ReorderControlFrames, _) => &[Recovered],
        // A stuck credit window must surface FlowStalled — not a hang, not
        // a breaker trip.
        (Fault::StuckCreditWindow, _) => &[CleanlyErrored],
        // Losing the gateway mid-splice: recovery through a respawned
        // gateway, or a typed dead-letter if re-routing loses the race.
        (Fault::CrashDuringSplice, _) => &[Recovered, DeadLettered],
        // A crashed shard primary fails lookups over to the replica; if the
        // replication race loses, the typed NS error is the legal escape.
        (Fault::ShardReplicaCrash, _) => &[Recovered, CleanlyErrored],
        // A lost invalidation may serve staleness only inside the lease
        // TTL; past it the re-resolve must recover end to end.
        (Fault::DroppedInvalidation, _) => &[Recovered],
        // A lookup racing a relocation sees the old or the new incarnation
        // — never a third — and converges once the move commits.
        (Fault::LookupRacesRelocation, _) => &[Recovered],
        // A partitioned shard group must surface typed errors for its
        // names: hash routing admits no second authority to diverge to.
        (Fault::ShardSplitBrain, _) => &[CleanlyErrored],
        // A send racing the SHM→TCP handoff: drain-then-switch either lands
        // it exactly once or dead-letters typed within the deadline.
        (Fault::SendRacesHandoff, _) => &[Recovered, DeadLettered],
        // A full ring with a dead reader must surface the typed stall
        // (`FlowStalled`) — never a hang, never silent loss.
        (Fault::WedgedShmRing, _) => &[CleanlyErrored],
        _ => &[Recovered],
    }
}

/// The registry of the most recently deployed cell testbed. Cells are run
/// serially (they are wall-clock sensitive and the matrix tests hold a
/// serialization lock), so one slot suffices; it lets the watchdog dump a
/// flight-recorder snapshot of a cell that hung or failed — the leaked
/// cell thread keeps the testbed, and thus every report source, alive.
static LAST_CELL_REGISTRY: std::sync::Mutex<Option<Arc<MetricsRegistry>>> =
    std::sync::Mutex::new(None);

fn note_cell_registry(testbed: &Testbed) {
    *LAST_CELL_REGISTRY.lock().unwrap() = Some(Arc::clone(testbed.registry()));
}

/// Renders the last deployed cell's cluster snapshot on a helper thread —
/// a hung cell may be wedged inside the very locks a report source needs,
/// so the render itself runs under a watchdog.
fn render_last_cell_snapshot(budget: Duration) -> Option<String> {
    let registry = LAST_CELL_REGISTRY.lock().unwrap().clone()?;
    let (tx, rx) = mpsc::channel();
    thread::Builder::new()
        .name("cell-snapshot-dump".into())
        .spawn(move || {
            let _ = tx.send(registry.render_snapshot_json());
        })
        .ok()?;
    rx.recv_timeout(budget).ok()
}

/// Runs one cell at `seed` under a wall-clock `budget`. The cell body runs
/// on its own thread; if it has not produced a verdict within the budget
/// the outcome is [`Verdict::Hung`] (the thread is leaked — a hung cell is
/// already a failed run). A run whose verdict is not in the cell's
/// acceptable set dumps the deployment's flight-recorder snapshot to
/// `target/obs/` (override with `NTCS_OBS_DIR`).
#[must_use]
pub fn run_cell(fault: Fault, layer: MatrixLayer, seed: u64, budget: Duration) -> CellOutcome {
    run_cell_with_options(fault, layer, seed, budget, false)
}

/// [`run_cell`] with an explicit dump policy: `force_dump` writes the
/// snapshot even for acceptable verdicts (how the acceptance tests inspect
/// what a wedged cell's dump names).
#[must_use]
pub fn run_cell_with_options(
    fault: Fault,
    layer: MatrixLayer,
    seed: u64,
    budget: Duration,
    force_dump: bool,
) -> CellOutcome {
    let (tx, rx) = mpsc::channel();
    let spawned = thread::Builder::new()
        .name(format!("cell-{fault}-{layer}"))
        .spawn(move || {
            let res = catch_unwind(AssertUnwindSafe(|| cell_body(fault, layer, seed)));
            let _ = tx.send(res);
        });
    if spawned.is_err() {
        return CellOutcome {
            fault,
            layer,
            seed,
            verdict: Verdict::Failed,
            detail: "could not spawn cell thread".into(),
            dump: None,
        };
    }
    let (verdict, detail) = match rx.recv_timeout(budget) {
        Ok(Ok((verdict, detail))) => (verdict, detail),
        Ok(Err(panic)) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "non-string panic".into());
            (Verdict::Failed, format!("panicked: {msg}"))
        }
        Err(_) => (
            Verdict::Hung,
            format!("no verdict within {budget:?} (watchdog fired)"),
        ),
    };
    let mut outcome = CellOutcome {
        fault,
        layer,
        seed,
        verdict,
        detail,
        dump: None,
    };
    if force_dump || !outcome.acceptable() {
        if let Some(json) = render_last_cell_snapshot(Duration::from_secs(2)) {
            outcome.dump = dump_snapshot(&format!("cell-{fault}-{layer}-{seed:#018x}"), &json);
        }
    }
    outcome
}

// ---------------------------------------------------------------------------
// Deployments
// ---------------------------------------------------------------------------

const TYPE_CYCLE: [MachineType; 4] = [
    MachineType::Sun,
    MachineType::Vax,
    MachineType::Apollo,
    MachineType::M68k,
];

fn single_net(n: usize) -> Result<(Testbed, NetworkId, Vec<MachineId>)> {
    let mut tb = Testbed::builder();
    let net = tb.add_network(NetKind::Mbx, "cell-lan");
    let mut machines = Vec::with_capacity(n);
    for i in 0..n {
        machines.push(tb.add_machine(
            TYPE_CYCLE[i % TYPE_CYCLE.len()],
            &format!("m{i}"),
            &[net],
        )?);
    }
    tb.name_server_on(machines[0]);
    let testbed = tb.start()?;
    note_cell_registry(&testbed);
    Ok((testbed, net, machines))
}

struct GatewayChain {
    testbed: Testbed,
    gw_machine: MachineId,
    client_machine: MachineId,
    server_machine: MachineId,
}

fn gateway_chain() -> Result<GatewayChain> {
    let mut tb = Testbed::builder();
    let n0 = tb.add_network(NetKind::Mbx, "net0");
    let n1 = tb.add_network(NetKind::Mbx, "net1");
    let ns_machine = tb.add_machine(MachineType::Sun, "ns-host", &[n0, n1])?;
    let client_machine = tb.add_machine(MachineType::Vax, "edge0", &[n0])?;
    let server_machine = tb.add_machine(MachineType::M68k, "edge1", &[n1])?;
    let gw_machine = tb.add_machine(MachineType::Apollo, "gw-host", &[n0, n1])?;
    tb.name_server_on(ns_machine);
    let testbed = tb.start()?;
    note_cell_registry(&testbed);
    let _gw = testbed.gateway(gw_machine, "cell-gw")?;
    Ok(GatewayChain {
        testbed,
        gw_machine,
        client_machine,
        server_machine,
    })
}

type Tally = Arc<Mutex<HashMap<u32, u32>>>;

/// Drains `server` into a per-`n` tally until `stop` is raised.
fn spawn_pump(server: ComMod, stop: Arc<AtomicBool>) -> (Tally, thread::JoinHandle<()>) {
    let tally: Tally = Arc::new(Mutex::new(HashMap::new()));
    let t = Arc::clone(&tally);
    let handle = thread::spawn(move || {
        while !stop.load(Ordering::Relaxed) {
            if let Ok(inc) = server.receive(Some(Duration::from_millis(25))) {
                if let Ok(p) = inc.decode::<Probe>() {
                    *t.lock().entry(p.n).or_insert(0) += 1;
                }
            }
        }
    });
    (tally, handle)
}

fn probe(n: u32) -> Probe {
    Probe {
        n,
        pad: String::new(),
    }
}

fn count(tally: &Tally, n: u32) -> u32 {
    tally.lock().get(&n).copied().unwrap_or(0)
}

/// Polls until `tally[n] >= 1` or ~2s elapse.
fn await_delivery(tally: &Tally, n: u32) -> u32 {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let c = count(tally, n);
        if c >= 1 || Instant::now() >= deadline {
            return c;
        }
        thread::sleep(Duration::from_millis(5));
    }
}

struct PairCell {
    testbed: Testbed,
    net: NetworkId,
    client: ComMod,
    dst: UAdd,
    tally: Tally,
    stop: Arc<AtomicBool>,
    pump: Option<thread::JoinHandle<()>>,
}

impl PairCell {
    /// A warmed LAN pair: circuit established, pump draining the sink.
    fn up() -> PairCell {
        let (testbed, net, ms) = single_net(3).expect("cell deployment");
        let server = testbed.module(ms[1], "cell-sink").expect("sink module");
        let client = testbed.commod(ms[2], "cell-src").expect("src commod");
        let dst = client.locate("cell-sink").expect("locate sink");
        let stop = Arc::new(AtomicBool::new(false));
        let (tally, pump) = spawn_pump(server, Arc::clone(&stop));
        client
            .send_reliable(dst, &probe(0), Duration::from_secs(3))
            .expect("warm-up send");
        assert_eq!(await_delivery(&tally, 0), 1, "warm-up not delivered");
        PairCell {
            testbed,
            net,
            client,
            dst,
            tally,
            stop,
            pump: Some(pump),
        }
    }

    fn finish(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(p) = self.pump.take() {
            let _ = p.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Cell bodies
// ---------------------------------------------------------------------------

/// Maps a reliable-send result to (verdict, detail), asserting the
/// exactly-once-or-dead-letter contract against `tally[n]`.
fn reliable_verdict(res: Result<u64>, tally: &Tally, n: u32) -> (Verdict, String) {
    match res {
        Ok(_) => {
            let c = await_delivery(tally, n);
            assert_eq!(c, 1, "send ok but delivered {c} times (exactly-once)");
            (Verdict::Recovered, format!("msg {n} acked, delivered once"))
        }
        Err(e) => {
            // Dead-lettered: give straggler retransmissions a moment, then
            // the at-most-once half of the contract must hold.
            thread::sleep(Duration::from_millis(300));
            let c = count(tally, n);
            assert!(c <= 1, "dead-lettered msg {n} delivered {c} times");
            (
                Verdict::DeadLettered,
                format!("msg {n} failed typed ({e:?}), delivered {c} time(s)"),
            )
        }
    }
}

fn cell_body(fault: Fault, layer: MatrixLayer, seed: u64) -> (Verdict, String) {
    let mut rng = SimRng::new(seed).fork(&format!("cell/{fault}/{layer}"));
    match (fault, layer) {
        (Fault::CorruptCircuit, MatrixLayer::Lcm) => corrupt_circuit_lcm(),
        (Fault::WedgedInbox, MatrixLayer::Lcm) => wedged_inbox_lcm(),
        (Fault::HalfCompletedSend, MatrixLayer::Lcm) => half_completed_send_lcm(&mut rng),
        (Fault::DupControlFrames, MatrixLayer::Lcm) => dup_control_frames_lcm(&mut rng),
        (Fault::ReorderControlFrames, MatrixLayer::Lcm) => reorder_control_frames_lcm(&mut rng),
        (Fault::StuckCreditWindow, MatrixLayer::Flow) => stuck_credit_window_flow(),
        (Fault::DupControlFrames, MatrixLayer::Flow) => dup_control_frames_flow(&mut rng),
        (Fault::CorruptCircuit, MatrixLayer::Gateway) => corrupt_circuit_gateway(),
        (Fault::CrashDuringSplice, MatrixLayer::Gateway) => crash_during_splice_gateway(),
        (Fault::HalfCompletedSend, MatrixLayer::Relocation) => {
            half_completed_send_relocation(&mut rng)
        }
        (Fault::SendRacesRelocation, MatrixLayer::Relocation) => send_races_relocation(&mut rng),
        (Fault::ShardReplicaCrash, MatrixLayer::Naming) => shard_replica_crash_naming(&mut rng),
        (Fault::DroppedInvalidation, MatrixLayer::Naming) => dropped_invalidation_naming(&mut rng),
        (Fault::LookupRacesRelocation, MatrixLayer::Naming) => {
            lookup_races_relocation_naming(&mut rng)
        }
        (Fault::ShardSplitBrain, MatrixLayer::Naming) => shard_split_brain_naming(),
        (Fault::SendRacesHandoff, MatrixLayer::Substrate) => send_races_handoff_substrate(&mut rng),
        (Fault::WedgedShmRing, MatrixLayer::Substrate) => wedged_shm_ring_substrate(&mut rng),
        other => panic!("no cell body for {other:?}"),
    }
}

fn corrupt_circuit_lcm() -> (Verdict, String) {
    let cell = PairCell::up();
    assert!(
        cell.client.chaos_corrupt_circuit(cell.dst),
        "no circuit to corrupt after warm-up"
    );
    let res = cell
        .client
        .send_reliable(cell.dst, &probe(1), Duration::from_secs(3));
    let out = reliable_verdict(res, &cell.tally, 1);
    cell.finish();
    out
}

/// Warms a circuit without a standing pump. The reliable ack only fires on
/// application `recv()`, so the receive must run concurrently with the
/// send — doing them sequentially on one thread deadlocks by design.
fn warm_direct(client: &ComMod, dst: UAdd, server: &ComMod) {
    thread::scope(|s| {
        let rx = s.spawn(|| server.receive(Some(Duration::from_secs(3))));
        client
            .send_reliable(dst, &probe(0), Duration::from_secs(3))
            .expect("warm-up send");
        let inc = rx.join().expect("warm recv thread").expect("warm-up recv");
        assert_eq!(inc.decode::<Probe>().expect("probe").n, 0, "warm-up probe");
    });
}

fn wedged_inbox_lcm() -> (Verdict, String) {
    // No pump: warm the circuit, then the sink stops draining entirely.
    let (testbed, _net, ms) = single_net(3).expect("cell deployment");
    let server = testbed.module(ms[1], "cell-sink").expect("sink module");
    let client = testbed.commod(ms[2], "cell-src").expect("src commod");
    let dst = client.locate("cell-sink").expect("locate sink");
    warm_direct(&client, dst, &server);

    // Inbox now wedged. The send must converge or dead-letter — never hang.
    let res = client.send_reliable(dst, &probe(1), Duration::from_millis(1500));
    let (verdict, why) = match res {
        Ok(_) => (Verdict::Recovered, "acked despite wedged inbox".to_string()),
        Err(
            e @ (NtcsError::DeadlineExceeded | NtcsError::Timeout | NtcsError::CircuitBroken(_)),
        ) => (Verdict::DeadLettered, format!("typed failure: {e:?}")),
        Err(e) => panic!("untyped failure from wedged inbox: {e:?}"),
    };
    // Unwedge and drain: at most one copy may surface.
    let mut seen = 0;
    while let Ok(inc) = server.receive(Some(Duration::from_millis(200))) {
        if inc.decode::<Probe>().map(|p| p.n) == Ok(1) {
            seen += 1;
        }
    }
    assert!(seen <= 1, "wedged msg surfaced {seen} times after drain");
    if verdict == Verdict::Recovered {
        assert_eq!(seen, 1, "acked but never surfaced after drain");
    }
    (verdict, format!("{why}; drained {seen} cop(ies)"))
}

fn half_completed_send_lcm(rng: &mut SimRng) -> (Verdict, String) {
    let cell = PairCell::up();
    let drops = 1 + (rng.next_u64() % 2) as u32;
    cell.testbed
        .world()
        .drop_next_frames(cell.net, drops)
        .expect("arm drop");
    let res = cell
        .client
        .send_reliable(cell.dst, &probe(1), Duration::from_secs(3));
    let (v, d) = reliable_verdict(res, &cell.tally, 1);
    cell.finish();
    (v, format!("{d} (after {drops} dropped frame(s))"))
}

fn dup_control_frames_lcm(rng: &mut SimRng) -> (Verdict, String) {
    let cell = PairCell::up();
    let dups = 2 + (rng.next_u64() % 3) as u32;
    cell.testbed
        .world()
        .dup_next_frames(cell.net, dups)
        .expect("arm dup");
    for n in 1..=3 {
        let res = cell
            .client
            .send_reliable(cell.dst, &probe(n), Duration::from_secs(3));
        let (v, d) = reliable_verdict(res, &cell.tally, n);
        if v != Verdict::Recovered {
            cell.finish();
            return (v, d);
        }
    }
    thread::sleep(Duration::from_millis(200));
    for n in 1..=3 {
        let c = count(&cell.tally, n);
        assert_eq!(c, 1, "msg {n} delivered {c} times under duplication");
    }
    cell.finish();
    (
        Verdict::Recovered,
        format!("3 msgs delivered exactly once under {dups} duplicated frames"),
    )
}

fn reorder_control_frames_lcm(rng: &mut SimRng) -> (Verdict, String) {
    let cell = PairCell::up();
    let swaps = 1 + (rng.next_u64() % 2) as u32;
    cell.testbed
        .world()
        .reorder_next_frames(cell.net, swaps)
        .expect("arm reorder");
    for n in 1..=4 {
        let res = cell
            .client
            .send_reliable(cell.dst, &probe(n), Duration::from_secs(3));
        let (v, d) = reliable_verdict(res, &cell.tally, n);
        if v != Verdict::Recovered {
            cell.finish();
            return (v, d);
        }
    }
    thread::sleep(Duration::from_millis(200));
    for n in 1..=4 {
        let c = count(&cell.tally, n);
        assert_eq!(c, 1, "msg {n} delivered {c} times under reordering");
    }
    cell.finish();
    (
        Verdict::Recovered,
        format!("4 msgs delivered exactly once under {swaps} swapped pair(s)"),
    )
}

fn stuck_credit_window_flow() -> (Verdict, String) {
    let (testbed, _net, ms) = single_net(3).expect("cell deployment");
    testbed.enable_flow_control(
        FlowSettings::enabled(2048, 8).with_stall_timeout(Duration::from_millis(300)),
    );
    let _server = testbed.module(ms[1], "cell-sink").expect("sink module");
    let client = testbed.commod(ms[2], "cell-src").expect("src commod");
    let dst = client.locate("cell-sink").expect("locate sink");
    // The sink never drains, so its window never replenishes. Each send is
    // bounded by the stall timeout; the window must exhaust well before the
    // send budget does.
    let payload = "x".repeat(300);
    for i in 0..64u32 {
        match client.send(
            dst,
            &Probe {
                n: i,
                pad: payload.clone(),
            },
        ) {
            Ok(_) => {}
            Err(NtcsError::FlowStalled(_)) => {
                return (
                    Verdict::CleanlyErrored,
                    format!("FlowStalled surfaced after {i} sends into a stuck window"),
                );
            }
            Err(e) => panic!("stuck window surfaced wrong error type: {e:?}"),
        }
    }
    panic!("64 sends never exhausted a 2 KiB / 8-frame window");
}

fn dup_control_frames_flow(rng: &mut SimRng) -> (Verdict, String) {
    let (testbed, net, ms) = single_net(3).expect("cell deployment");
    testbed.enable_flow_control(
        FlowSettings::enabled(4096, 16).with_stall_timeout(Duration::from_millis(500)),
    );
    let server = testbed.module(ms[1], "cell-sink").expect("sink module");
    let client = testbed.commod(ms[2], "cell-src").expect("src commod");
    let dst = client.locate("cell-sink").expect("locate sink");
    let stop = Arc::new(AtomicBool::new(false));
    let (tally, pump) = spawn_pump(server, Arc::clone(&stop));
    // Duplicate a burst of frames mid-stream: data frames and the credit
    // grants flowing back. Grant accounting must stay sane (no stall, no
    // over-delivery).
    let dups = 3 + (rng.next_u64() % 4) as u32;
    let payload = "y".repeat(200);
    let total = 12u32;
    for n in 1..=total {
        if n == 4 {
            testbed.world().dup_next_frames(net, dups).expect("arm dup");
        }
        client
            .send_reliable(
                dst,
                &Probe {
                    n,
                    pad: payload.clone(),
                },
                Duration::from_secs(3),
            )
            .unwrap_or_else(|e| panic!("send {n} failed under duplicated grants: {e:?}"));
    }
    for n in 1..=total {
        let c = await_delivery(&tally, n);
        assert_eq!(c, 1, "msg {n} delivered {c} times under duplicated grants");
    }
    stop.store(true, Ordering::Relaxed);
    let _ = pump.join();
    (
        Verdict::Recovered,
        format!("{total} flow-controlled msgs exactly-once under {dups} duplicated frames"),
    )
}

fn corrupt_circuit_gateway() -> (Verdict, String) {
    let chain = gateway_chain().expect("cell deployment");
    let server = chain
        .testbed
        .module(chain.server_machine, "cell-sink")
        .expect("sink module");
    let client = chain
        .testbed
        .commod(chain.client_machine, "cell-src")
        .expect("src commod");
    let dst = client.locate("cell-sink").expect("locate sink");
    let stop = Arc::new(AtomicBool::new(false));
    let (tally, pump) = spawn_pump(server, Arc::clone(&stop));
    client
        .send_reliable(dst, &probe(0), Duration::from_secs(4))
        .expect("warm-up through gateway");
    assert_eq!(await_delivery(&tally, 0), 1);
    assert!(
        client.chaos_corrupt_circuit(dst),
        "no spliced circuit to corrupt"
    );
    let res = client.send_reliable(dst, &probe(1), Duration::from_secs(4));
    let out = reliable_verdict(res, &tally, 1);
    stop.store(true, Ordering::Relaxed);
    let _ = pump.join();
    out
}

fn crash_during_splice_gateway() -> (Verdict, String) {
    let chain = gateway_chain().expect("cell deployment");
    let server = chain
        .testbed
        .module(chain.server_machine, "cell-sink")
        .expect("sink module");
    let client = chain
        .testbed
        .commod(chain.client_machine, "cell-src")
        .expect("src commod");
    let dst = client.locate("cell-sink").expect("locate sink");
    let stop = Arc::new(AtomicBool::new(false));
    let (tally, pump) = spawn_pump(server, Arc::clone(&stop));
    client
        .send_reliable(dst, &probe(0), Duration::from_secs(4))
        .expect("warm-up through gateway");
    assert_eq!(await_delivery(&tally, 0), 1);

    // Kill the only gateway mid-conversation: the next send must fail with
    // a typed error within its deadline, never hang.
    chain.testbed.world().crash(chain.gw_machine);
    let mid = client.send_reliable(dst, &probe(1), Duration::from_millis(1500));
    let mid_desc = match mid {
        Ok(_) => "mid-crash send unexpectedly acked".to_string(),
        Err(e) => {
            assert!(
                matches!(
                    e,
                    NtcsError::DeadlineExceeded
                        | NtcsError::Timeout
                        | NtcsError::CircuitBroken(_)
                        | NtcsError::ConnectionClosed
                        | NtcsError::AddressFault(_)
                        | NtcsError::NoRoute { .. }
                ),
                "untyped mid-crash failure: {e:?}"
            );
            format!("mid-crash send failed typed ({e:?})")
        }
    };

    // Revive the machine and respawn a gateway on it; the conversation must
    // re-splice (or dead-letter typed — never hang).
    chain.testbed.world().revive(chain.gw_machine);
    let _gw2 = chain
        .testbed
        .gateway(chain.gw_machine, "cell-gw-reborn")
        .expect("respawn gateway");
    thread::sleep(Duration::from_millis(100));
    let res = client.send_reliable(dst, &probe(2), Duration::from_secs(5));
    let (v, d) = reliable_verdict(res, &tally, 2);
    stop.store(true, Ordering::Relaxed);
    let _ = pump.join();
    (v, format!("{mid_desc}; post-restart: {d}"))
}

fn half_completed_send_relocation(rng: &mut SimRng) -> (Verdict, String) {
    let (testbed, net, ms) = single_net(4).expect("cell deployment");
    let server = testbed.module(ms[1], "cell-sink").expect("sink module");
    let client = testbed.commod(ms[2], "cell-src").expect("src commod");
    let dst = client.locate("cell-sink").expect("locate sink");
    warm_direct(&client, dst, &server);

    // Drop the send's data frame while the destination relocates under it.
    let drops = 1 + (rng.next_u64() % 2) as u32;
    testbed
        .world()
        .drop_next_frames(net, drops)
        .expect("arm drop");
    let pace = Duration::from_millis(2 + rng.next_u64() % 6);
    let sender = thread::spawn(move || {
        let res = client.send_reliable(dst, &probe(7), Duration::from_secs(3));
        (client, res)
    });
    thread::sleep(pace);
    // The armed drop can just as well eat the relocation handshake as the
    // data frame — a typed relocation failure hands the original, still
    // live binding back, and the exactly-once contract must hold either
    // way. Untyped failures are cell failures.
    let relocated = match server.relocate_to(ms[3]) {
        Ok(c) => c,
        Err(e)
            if matches!(
                e.error,
                NtcsError::DeadlineExceeded
                    | NtcsError::Timeout
                    | NtcsError::CircuitBroken(_)
                    | NtcsError::ConnectionClosed
            ) =>
        {
            e.commod
        }
        Err(e) => panic!("untyped relocation failure: {:?}", e.error),
    };
    let stop = Arc::new(AtomicBool::new(false));
    let (tally, pump) = spawn_pump(relocated, Arc::clone(&stop));
    let (_client, res) = sender.join().expect("sender thread");
    let (v, d) = reliable_verdict(res, &tally, 7);
    stop.store(true, Ordering::Relaxed);
    let _ = pump.join();
    (
        v,
        format!("{d} ({drops} dropped frame(s) racing a relocation)"),
    )
}

fn send_races_relocation(rng: &mut SimRng) -> (Verdict, String) {
    let (testbed, _net, ms) = single_net(4).expect("cell deployment");
    let server = testbed.module(ms[1], "cell-echo").expect("echo module");
    let client = testbed.commod(ms[2], "cell-src").expect("src commod");
    let dst = client.locate("cell-echo").expect("locate echo");
    warm_direct(&client, dst, &server);

    // Half the seeds hold the request at the old incarnation, which moves
    // instead of answering; the other half start the move a seeded pace
    // after the request leaves, so it lands before, during or after it.
    let held = rng.next_u64().is_multiple_of(2);
    let pace = Duration::from_micros(rng.next_u64() % 4000);
    let caller = thread::spawn(move || {
        let res = client.send_receive(dst, &probe(7), Some(Duration::from_secs(2)));
        (client, res)
    });
    if held {
        let inc = server
            .receive(Some(Duration::from_secs(2)))
            .expect("request reached the old incarnation");
        assert_eq!(inc.decode::<Probe>().expect("probe").n, 7);
    } else {
        thread::sleep(pace);
    }
    let moved = match server.relocate_to(ms[3]) {
        Ok(c) => c,
        Err(e) => panic!("relocation failed: {:?}", e.error),
    };
    // Answer the request at the new address (a copy the old incarnation
    // held is gone with it).
    let new_uadd = moved.my_uadd();
    loop {
        let inc = moved
            .receive(Some(Duration::from_secs(3)))
            .expect("request reached the new incarnation");
        if inc.decode::<Probe>().is_ok_and(|p| p.n == 7) {
            moved.reply(&inc, &probe(8)).expect("reply");
            break;
        }
    }
    let (client, res) = caller.join().expect("caller thread");
    let reply = match res {
        Ok(r) => r,
        Err(e) => panic!("request lost across the relocation: {e:?}"),
    };
    assert_eq!(reply.decode::<Probe>().expect("reply probe").n, 8);
    assert_eq!(reply.src(), new_uadd, "answered by the wrong incarnation");
    let reissues = client.metrics().request_reissues;
    let how = if held {
        "held by the old incarnation".to_string()
    } else {
        format!("move {pace:?} after the send")
    };
    (
        Verdict::Recovered,
        format!("request {how}: answered from the new address ({reissues} re-issue(s))"),
    )
}

/// A co-location pair: `host` carries a private SHM network plus a TCP
/// wire shared with `remote`; the Name Server on `host`.
fn colocated_cell() -> Result<(Testbed, MachineId, MachineId)> {
    let mut tb = Testbed::builder();
    let wire = tb.add_network(NetKind::Tcp, "cell-wire");
    let (host, _shm) = tb.add_colocated_machine(MachineType::Sun, "cell-host", &[wire])?;
    let remote = tb.add_machine(MachineType::Vax, "cell-remote", &[wire])?;
    tb.name_server_on(host);
    let testbed = tb.start()?;
    note_cell_registry(&testbed);
    Ok((testbed, host, remote))
}

fn send_races_handoff_substrate(rng: &mut SimRng) -> (Verdict, String) {
    let (testbed, host, remote) = colocated_cell().expect("cell deployment");
    let server = testbed.module(host, "cell-sink").expect("sink module");
    let client = testbed.commod(host, "cell-src").expect("src commod");
    let dst = client.locate("cell-sink").expect("locate sink");
    warm_direct(&client, dst, &server);
    assert!(
        client.metrics().substrate_selects >= 1,
        "warm circuit made no substrate choice"
    );

    // Fire a reliable send while the destination leaves the machine — the
    // circuit must come off the SHM ring onto the wire under it.
    let pace = Duration::from_millis(1 + rng.next_u64() % 8);
    let sender = thread::spawn(move || {
        let res = client.send_reliable(dst, &probe(7), Duration::from_secs(4));
        (client, res)
    });
    thread::sleep(pace);
    let (relocated, moved) = match server.relocate_to(remote) {
        Ok(c) => (c, true),
        Err(e)
            if matches!(
                e.error,
                NtcsError::DeadlineExceeded
                    | NtcsError::Timeout
                    | NtcsError::CircuitBroken(_)
                    | NtcsError::ConnectionClosed
            ) =>
        {
            // Typed relocation failure hands the original, still-live (and
            // still co-located) binding back — no handoff to observe.
            (e.commod, false)
        }
        Err(e) => panic!("untyped relocation failure: {:?}", e.error),
    };
    let stop = Arc::new(AtomicBool::new(false));
    let (tally, pump) = spawn_pump(relocated, Arc::clone(&stop));
    let (client, res) = sender.join().expect("sender thread");
    let (v, d) = reliable_verdict(res, &tally, 7);
    // A follow-up send must converge on the post-move substrate.
    let (v2, d2) = if v == Verdict::Recovered {
        reliable_verdict(
            client.send_reliable(dst, &probe(8), Duration::from_secs(4)),
            &tally,
            8,
        )
    } else {
        (v, "follow-up skipped after dead-letter".to_string())
    };
    let handoffs = client.metrics().substrate_handoffs;
    if moved && v == Verdict::Recovered && v2 == Verdict::Recovered {
        assert!(
            handoffs >= 1,
            "peer left the machine but the circuit never changed substrate"
        );
    }
    stop.store(true, Ordering::Relaxed);
    let _ = pump.join();
    let worst = if v2 == Verdict::Recovered { v } else { v2 };
    (
        worst,
        format!("{d}; {d2} (moved={moved}, substrate handoffs: {handoffs})"),
    )
}

fn wedged_shm_ring_substrate(rng: &mut SimRng) -> (Verdict, String) {
    // Raw IPCS level by design: the LCM's reader thread always drains its
    // channel, so a truly wedged reader can only be staged below it — a
    // ring whose consumer never runs at all.
    let world = World::new();
    let net = world.add_network(NetKind::Shm, "cell-colo");
    let m = world
        .add_machine(MachineType::Sun, "cell-host", &[net])
        .expect("machine");
    let (addr, _listener) = world.create_listener(m, net, "wedged").expect("listener");
    let chan = world.connect(m, &addr).expect("connect");
    // Fill the ring past capacity with nobody draining. The producer must
    // surface the typed stall; the cell watchdog catches a hang.
    let payload = vec![0xA5u8; 16 + (rng.next_u64() % 48) as usize];
    let attempts = ntcs_ipcs::SHM_RING_CAP * 2;
    for i in 0..attempts {
        match chan.send(ntcs_ipcs::Bytes::from(payload.clone())) {
            Ok(()) => {}
            Err(NtcsError::FlowStalled(_)) => {
                return (
                    Verdict::CleanlyErrored,
                    format!("FlowStalled surfaced after {i} sends into a wedged ring"),
                );
            }
            Err(e) => panic!("wedged ring surfaced wrong error type: {e:?}"),
        }
    }
    panic!("{attempts} sends never filled a wedged ring");
}

/// A two-shard Name Service across four machines: shard 0's primary on
/// m0, shard 1's on m1; with `replicas` each shard gets one replica
/// (shard 0's on m2, shard 1's on m3).
fn sharded_net(replicas: bool) -> Result<(Testbed, Vec<MachineId>)> {
    let mut tb = Testbed::builder();
    let net = tb.add_network(NetKind::Mbx, "cell-lan");
    let mut machines = Vec::with_capacity(4);
    for i in 0..4 {
        machines.push(tb.add_machine(
            TYPE_CYCLE[i % TYPE_CYCLE.len()],
            &format!("m{i}"),
            &[net],
        )?);
    }
    tb.name_server_on(machines[0]);
    let s1 = tb.ns_shard_on(machines[1]);
    if replicas {
        tb.shard_replica_on(0, machines[2]);
        tb.shard_replica_on(s1, machines[3]);
    }
    let testbed = tb.start()?;
    note_cell_registry(&testbed);
    Ok((testbed, machines))
}

/// The first `"{stem}-{i}"` that hashes to `shard`.
fn name_on_shard(map: &ShardMap, shard: usize, stem: &str) -> String {
    (0u32..64)
        .map(|i| format!("{stem}-{i}"))
        .find(|n| map.shard_for_name(n) == shard)
        .expect("64 candidate names never hit the shard")
}

/// Whether a resolution error is one the naming layer is allowed to
/// surface while its servers are unreachable.
fn typed_naming_error(e: &NtcsError) -> bool {
    matches!(
        e,
        NtcsError::Timeout
            | NtcsError::DeadlineExceeded
            | NtcsError::NameServerUnreachable
            | NtcsError::ConnectionClosed
            | NtcsError::ConnectRefused(_)
            | NtcsError::CircuitBroken(_)
            | NtcsError::UnknownAddress(_)
            | NtcsError::AddressFault(_)
    )
}

fn shard_replica_crash_naming(rng: &mut SimRng) -> (Verdict, String) {
    let (testbed, ms) = sharded_net(true).expect("cell deployment");
    let map = testbed.shard_map();
    let shard = (rng.next_u64() % 2) as usize;
    let name = name_on_shard(&map, shard, "cell-sink");
    let server = testbed.module(ms[2], &name).expect("sink module");
    let live = server.my_uadd();
    let client = testbed.module(ms[3], "cell-src").expect("src module");
    assert_eq!(client.locate(&name).expect("warm locate"), live);
    thread::sleep(Duration::from_millis(300)); // replication drains

    // A lookup loop is mid-flight when the shard's primary machine dies.
    let stop = Arc::new(AtomicBool::new(false));
    let errs = Arc::new(Mutex::new(Vec::new()));
    let looper = {
        let stop = Arc::clone(&stop);
        let errs = Arc::clone(&errs);
        let client = testbed.module(ms[3], "cell-looker").expect("looker");
        let name = name.clone();
        thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                match client.locate(&name) {
                    Ok(u) => assert_eq!(u, live, "lookup resolved a dead incarnation"),
                    Err(e) => {
                        assert!(typed_naming_error(&e), "untyped mid-crash lookup: {e:?}");
                        errs.lock().push(format!("{e:?}"));
                    }
                }
                thread::sleep(Duration::from_millis(2));
            }
        })
    };
    thread::sleep(Duration::from_millis(5 + rng.next_u64() % 20));
    testbed.world().crash(ms[shard]);

    // Post-crash, resolution must settle on the replica within a bounded
    // budget — or keep failing typed (replication lost the race).
    let deadline = Instant::now() + Duration::from_secs(6);
    let mut last_err = String::new();
    let verdict = loop {
        match client.locate(&name) {
            Ok(u) => {
                assert_eq!(u, live, "failover resolved a dead incarnation");
                break Verdict::Recovered;
            }
            Err(e) => {
                assert!(typed_naming_error(&e), "untyped post-crash lookup: {e:?}");
                last_err = format!("{e:?}");
            }
        }
        if Instant::now() >= deadline {
            break Verdict::CleanlyErrored;
        }
        thread::sleep(Duration::from_millis(50));
    };
    stop.store(true, Ordering::Relaxed);
    let _ = looper.join();
    let mid_errs = errs.lock().len();
    let detail = match verdict {
        Verdict::Recovered => format!(
            "shard {shard} primary crashed; replica answered ({mid_errs} typed mid-crash errors)"
        ),
        _ => format!("failover never settled; last typed error {last_err}"),
    };
    (verdict, detail)
}

fn dropped_invalidation_naming(rng: &mut SimRng) -> (Verdict, String) {
    let (testbed, ms) = sharded_net(false).expect("cell deployment");
    // Seed-varied (but short) lease so the staleness window fits a cell.
    let ttl = Duration::from_millis(300 + rng.next_u64() % 300);
    testbed.set_config_hook(Some(Arc::new(move |c: ntcs::NucleusConfig| {
        c.with_name_lease_ttl(ttl)
    })));
    let server = testbed.module(ms[2], "cell-sink").expect("sink module");
    let client = testbed.module(ms[3], "cell-src").expect("src module");
    let dst = client.locate("cell-sink").expect("locate sink");
    warm_direct(&client, dst, &server);
    let leased_at = client.nucleus().now_us();

    // The fault: the client never decodes the invalidation push — exactly
    // what a dropped NsInvalidate frame looks like from its side.
    client.nucleus().clear_control_intercept(NS_INVALIDATE_TYPE);
    let relocated = server.relocate_to(ms[1]).expect("relocate sink");
    let statics = client.nucleus().statics();
    let still_cached = matches!(
        statics.probe(dst, client.nucleus().now_us()),
        LeaseProbe::Fresh(_) | LeaseProbe::Stale(_)
    );

    // The staleness bound: once the lease TTL has elapsed, the lease must
    // not be served as fresh (the next resolve revalidates it).
    let ttl_us = u64::try_from(ttl.as_micros()).unwrap_or(u64::MAX);
    loop {
        let now = client.nucleus().now_us();
        if now.saturating_sub(leased_at) > ttl_us + 150_000 {
            break;
        }
        thread::sleep(Duration::from_millis(25));
    }
    let now = client.nucleus().now_us();
    assert!(
        !matches!(statics.probe(dst, now), LeaseProbe::Fresh(_)),
        "lease served as fresh past its TTL with the invalidation lost"
    );

    // End to end: the next send re-resolves and lands on the relocated
    // incarnation, exactly once.
    let stop = Arc::new(AtomicBool::new(false));
    let (tally, pump) = spawn_pump(relocated, Arc::clone(&stop));
    let res = client.send_reliable(dst, &probe(1), Duration::from_secs(5));
    let (v, d) = reliable_verdict(res, &tally, 1);
    stop.store(true, Ordering::Relaxed);
    let _ = pump.join();
    (
        v,
        format!("{d} (lease {ttl:?}, entry survived the lost push: {still_cached})"),
    )
}

fn lookup_races_relocation_naming(rng: &mut SimRng) -> (Verdict, String) {
    let (testbed, ms) = sharded_net(false).expect("cell deployment");
    let server = testbed.module(ms[2], "cell-sink").expect("sink module");
    let old = server.my_uadd();
    let client = testbed.module(ms[3], "cell-src").expect("src module");
    assert_eq!(client.locate("cell-sink").expect("warm locate"), old);

    // Lookups hammer the name while the module moves under them. Each may
    // see the old or the new incarnation — never a third, and never the
    // old again once the new one has been observed.
    let stop = Arc::new(AtomicBool::new(false));
    let seen = Arc::new(Mutex::new(Vec::<UAdd>::new()));
    let looper = {
        let stop = Arc::clone(&stop);
        let seen = Arc::clone(&seen);
        let client = testbed.module(ms[3], "cell-looker").expect("looker");
        thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                match client.locate("cell-sink") {
                    Ok(u) => seen.lock().push(u),
                    Err(e) => assert!(typed_naming_error(&e), "untyped racing lookup: {e:?}"),
                }
            }
        })
    };
    thread::sleep(Duration::from_millis(1 + rng.next_u64() % 8));
    // The armed race can also eat the relocation handshake; a typed
    // failure hands the original binding back and the race assertions
    // still apply to it.
    let relocated = match server.relocate_to(ms[1]) {
        Ok(c) => c,
        Err(e) if typed_naming_error(&e.error) => e.commod,
        Err(e) => panic!("untyped relocation failure: {:?}", e.error),
    };
    let live = relocated.my_uadd();
    thread::sleep(Duration::from_millis(30));
    stop.store(true, Ordering::Relaxed);
    let _ = looper.join();

    let observed = seen.lock().clone();
    let mut saw_live = false;
    for u in &observed {
        assert!(
            *u == old || *u == live,
            "racing lookup resolved a third incarnation {u:?}"
        );
        if *u == live {
            saw_live = true;
        }
        assert!(
            !(saw_live && *u == old),
            "lookup went back in time: old incarnation after new"
        );
    }

    // Converged: resolution lands on the live incarnation and a reliable
    // send delivers to it exactly once.
    let deadline = Instant::now() + Duration::from_secs(4);
    loop {
        match client.locate("cell-sink") {
            Ok(u) if u == live => break,
            Ok(u) => assert_eq!(u, live, "settled lookup returned a dead incarnation"),
            Err(e) => assert!(typed_naming_error(&e), "untyped settled lookup: {e:?}"),
        }
        assert!(
            Instant::now() < deadline,
            "lookup never settled on the live incarnation"
        );
        thread::sleep(Duration::from_millis(25));
    }
    let stop2 = Arc::new(AtomicBool::new(false));
    let (tally, pump) = spawn_pump(relocated, Arc::clone(&stop2));
    let res = client.send_reliable(live, &probe(9), Duration::from_secs(5));
    let (v, d) = reliable_verdict(res, &tally, 9);
    stop2.store(true, Ordering::Relaxed);
    let _ = pump.join();
    (
        v,
        format!(
            "{d} ({} raced lookups, live incarnation observed: {saw_live})",
            observed.len()
        ),
    )
}

fn shard_split_brain_naming() -> (Verdict, String) {
    let (testbed, ms) = sharded_net(false).expect("cell deployment");
    let map = testbed.shard_map();
    let name0 = name_on_shard(&map, 0, "cell-a");
    let name1 = name_on_shard(&map, 1, "cell-b");
    let s0 = testbed.module(ms[2], &name0).expect("shard-0 module");
    let s1 = testbed.module(ms[2], &name1).expect("shard-1 module");
    let client = testbed.module(ms[3], "cell-src").expect("src module");
    assert_eq!(client.locate(&name0).expect("warm locate 0"), s0.my_uadd());
    let dst1 = client.locate(&name1).expect("warm locate 1");
    assert_eq!(dst1, s1.my_uadd());
    warm_direct(&client, dst1, &s1);

    // Partition shard 1's group away.
    testbed.world().crash(ms[1]);

    // The surviving shard keeps resolving.
    assert_eq!(
        client.locate(&name0).expect("reachable shard must resolve"),
        s0.my_uadd()
    );
    // The partitioned shard's names error typed — and so do registrations
    // for them: the hash routing admits no second authority, so a split
    // brain cannot mint a conflicting record.
    let e = client
        .locate(&name1)
        .expect_err("resolved through a partitioned shard");
    assert!(typed_naming_error(&e), "untyped partitioned lookup: {e:?}");
    let usurper = testbed
        .commod(ms[3], "cell-usurper")
        .expect("usurper commod");
    let reg = usurper
        .register(&name1)
        .expect_err("registered into a partitioned shard");
    assert!(
        typed_naming_error(&reg),
        "untyped partitioned register: {reg:?}"
    );
    // Already-leased bindings keep working across the partition: the
    // warmed circuit to the shard-1 module still delivers.
    thread::scope(|scope| {
        let rx = scope.spawn(|| s1.receive(Some(Duration::from_secs(3))));
        client
            .send_reliable(dst1, &probe(4), Duration::from_secs(3))
            .expect("cached binding must ride out the partition");
        let inc = rx.join().expect("recv thread").expect("partition recv");
        assert_eq!(inc.decode::<Probe>().expect("probe").n, 4);
    });
    (
        Verdict::CleanlyErrored,
        format!(
            "partitioned shard errored typed ({e:?}); survivor shard and leased bindings stayed live"
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_sets_never_allow_hangs_or_failures() {
        for (f, l) in cells() {
            let exp = expected(f, l);
            assert!(!exp.is_empty());
            assert!(!exp.contains(&Verdict::Hung), "{f}/{l} allows Hung");
            assert!(!exp.contains(&Verdict::Failed), "{f}/{l} allows Failed");
        }
    }

    #[test]
    fn watchdog_converts_timeout_to_hung() {
        // A cell body that sleeps past the budget must come back as Hung,
        // not block the caller. Use the real entry point with a tiny budget
        // against the slowest cell setup — the budget fires during setup.
        let out = run_cell(
            Fault::CorruptCircuit,
            MatrixLayer::Lcm,
            1,
            Duration::from_micros(1),
        );
        assert_eq!(out.verdict, Verdict::Hung);
        assert!(!out.acceptable());
    }

    #[test]
    fn one_cell_end_to_end() {
        let out = run_cell(
            Fault::HalfCompletedSend,
            MatrixLayer::Lcm,
            0x5EED_0001,
            Duration::from_secs(20),
        );
        assert!(out.acceptable(), "{out:?}");
    }
}
