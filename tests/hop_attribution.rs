//! Hop attribution under concurrency: a traced send's hop chain shows what
//! that send did, and nothing another thread did meanwhile. Thread A makes
//! traced sends to a live peer while thread B, on the same ComMod, sends
//! into a peer that keeps relocating (address faults, reconnects) and into
//! one that never drains its credit window (flow stalls). Every chain
//! from A must hold only its SEND and DELIVER hops. Across a gateway, a
//! later untraced circuit open must not report a splice against an
//! earlier traced send.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ntcs::{hop_kind, FlowSettings, HopRecord, NetKind, TraceId};
use ntcs_drts::{MonitorService, ServiceHost};
use ntcs_repro::messages::Ask;
use ntcs_repro::scenarios::{line_internet, single_net};

const A_SENDS: u32 = 200;
const WINDOW_FRAMES: u32 = 256;

#[test]
fn concurrent_faults_and_stalls_stay_off_other_traces() {
    let lab = single_net(4, NetKind::Mbx).unwrap();
    // A 256-frame window: thread A's 200 sends can never exhaust it, so
    // any STALL on A's chains belongs to someone else. Thread B's sends
    // into the starved peer's full window stall (and pump) for 5 ms each,
    // then fail.
    lab.testbed.enable_flow_control(
        FlowSettings::enabled(64 * 1024, WINDOW_FRAMES)
            .with_stall_timeout(Duration::from_millis(5)),
    );
    let monitor = MonitorService::spawn(&lab.testbed, lab.machines[0]).unwrap();
    let stop = Arc::new(AtomicBool::new(false));

    let live = lab.testbed.module(lab.machines[1], "hop-live").unwrap();
    live.set_hop_monitor(monitor.uadd());
    let live_stop = Arc::clone(&stop);
    let live_thread = std::thread::spawn(move || {
        while !live_stop.load(Ordering::SeqCst) {
            let _ = live.receive(Some(Duration::from_millis(20)));
        }
    });
    // Registered, never receives: thread B empties its window at once.
    let _starved = lab.testbed.module(lab.machines[2], "hop-starved").unwrap();
    let mover = ServiceHost::spawn(
        &lab.testbed,
        lab.machines[3],
        "hop-mover",
        Box::new(|_, _| {}),
    )
    .unwrap();

    let src = Arc::new(lab.testbed.module(lab.machines[0], "hop-src").unwrap());
    src.set_hop_monitor(monitor.uadd());
    let live_u = src.locate("hop-live").unwrap();
    let starved_u = src.locate("hop-starved").unwrap();
    let mover_u = src.locate("hop-mover").unwrap();
    let msg = Ask {
        n: 0,
        body: "hop".into(),
    };
    // Spend the starved peer's whole window up front.
    for _ in 0..WINDOW_FRAMES {
        src.send(starved_u, &msg).unwrap();
    }

    let b_src = Arc::clone(&src);
    let b_stop = Arc::clone(&stop);
    let b_msg = msg.clone();
    let b = std::thread::spawn(move || {
        let homes = [lab.machines[3], lab.machines[1]];
        let mut moves = 0usize;
        let mut i = 0u32;
        while !b_stop.load(Ordering::SeqCst) {
            let _ = b_src.send(starved_u, &b_msg);
            if i.is_multiple_of(20) {
                moves += 1;
                mover.relocate(homes[moves % 2]).unwrap();
                let _ = b_src.send(mover_u, &b_msg);
            }
            i += 1;
        }
        mover.stop();
        lab
    });

    let mut traces = Vec::new();
    for n in 0..A_SENDS {
        let ask = Ask { n, ..msg.clone() };
        if let Ok((_, trace)) = src.send_traced(live_u, &ask) {
            traces.push(trace);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    stop.store(true, Ordering::SeqCst);
    let lab = b.join().unwrap();
    live_thread.join().unwrap();
    let s = src.metrics();
    assert!(
        s.flow_stalls > 0 && s.address_faults > 0,
        "thread B did no damage"
    );
    assert!(
        traces.len() >= 150,
        "only {} traced sends went out",
        traces.len()
    );

    // Hop casts are asynchronous: wait until every chain holds its DELIVER.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut chains = Vec::new();
    for t in &traces {
        let mut chain = monitor.trace_chain(t.raw());
        while !chain.iter().any(|h| h.kind == hop_kind::DELIVER) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
            chain = monitor.trace_chain(t.raw());
        }
        chains.push(chain);
    }
    let blamed: Vec<String> = chains
        .iter()
        .filter(|c| {
            c.iter()
                .any(|h| h.kind != hop_kind::SEND && h.kind != hop_kind::DELIVER)
        })
        .map(|c| {
            c.iter()
                .map(|h| hop_kind::name(h.kind))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    assert!(
        blamed.is_empty(),
        "{} of {} chains from thread A carry hops of thread B's sends, e.g. [{}]",
        blamed.len(),
        chains.len(),
        blamed[0]
    );
    for c in &chains {
        let kinds: Vec<u32> = c.iter().map(|h| h.kind).collect();
        assert_eq!(kinds, [hop_kind::SEND, hop_kind::DELIVER], "{kinds:?}");
    }
    monitor.stop();
    drop(lab);
}

/// Polls the monitor until `trace`'s chain holds `kind`, for up to 10 s.
fn chain_with(monitor: &MonitorService, trace: TraceId, kind: u32) -> Vec<HopRecord> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let chain = monitor.trace_chain(trace.raw());
        if chain.iter().any(|h| h.kind == kind) || Instant::now() >= deadline {
            return chain;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn untraced_open_through_a_gateway_adds_no_splice_to_an_earlier_trace() {
    let lab = line_internet(2, NetKind::Mbx).unwrap();
    let (near, far) = (lab.edge_machines[0], lab.edge_machines[1]);
    let monitor = MonitorService::spawn(&lab.testbed, near).unwrap();
    lab.gateways[0].enable_hop_reports(monitor.uadd());
    let names = ["gw-first", "gw-second", "gw-fence"];
    let peers: Vec<_> = names
        .iter()
        .map(|name| lab.testbed.module(far, name).unwrap())
        .collect();
    let src = lab.testbed.module(near, "gw-src").unwrap();
    src.set_hop_monitor(monitor.uadd());
    peers[0].set_hop_monitor(monitor.uadd());
    let dsts: Vec<_> = names.iter().map(|name| src.locate(name).unwrap()).collect();
    let ask = Ask {
        n: 0,
        body: "across".into(),
    };
    let receive = |i: usize| peers[i].receive(Some(Duration::from_secs(5))).unwrap();

    // A traced send opens the first circuit through the gateway.
    let (_, first) = src.send_traced(dsts[0], &ask).unwrap();
    receive(0);
    assert!(chain_with(&monitor, first, hop_kind::DELIVER)
        .iter()
        .any(|h| h.kind == hop_kind::SPLICE));
    // An untraced send opens a second circuit through the same gateway.
    src.send(dsts[1], &ask).unwrap();
    receive(1);
    // A traced fence opens a third. The gateway casts its splice hops in
    // splice order on one circuit, so once the fence's splice has landed,
    // any splice reported for the second open has landed too.
    let (_, fence) = src.send_traced(dsts[2], &ask).unwrap();
    receive(2);
    let fenced = chain_with(&monitor, fence, hop_kind::SPLICE);
    assert!(fenced.iter().any(|h| h.kind == hop_kind::SPLICE));

    let chain = monitor.trace_chain(first.raw());
    let splices = chain.iter().filter(|h| h.kind == hop_kind::SPLICE).count();
    assert_eq!(splices, 1, "the first trace's chain: {chain:#?}");
    monitor.stop();
}
