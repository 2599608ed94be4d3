//! Chaos suite for the delivery supervisor. The seed-parameterized
//! scenarios live in `ntcs_repro::chaos` so this file (three classic seeds
//! per scenario, always-on in tier-1 CI) and the wide `seed_sweep` harness
//! (hundreds of seeds, scaled by environment) drive the same code; see
//! `tests/seed_sweep.rs` for the sweep.

use std::time::Duration;

use ntcs::{hop_kind, NetKind};
use ntcs_drts::MonitorService;
use ntcs_repro::chaos::{
    assert_valid_prometheus, gateway_drop_chaos, ns_replica_kill, partition_heal_chaos,
    slow_consumer_backpressure, SEEDS, SERIAL,
};
use ntcs_repro::messages::Ask;
use ntcs_repro::scenarios::line_internet;

#[test]
fn partition_heal_cycles_seed_a() {
    partition_heal_chaos(SEEDS[0]);
}

#[test]
fn partition_heal_cycles_seed_b() {
    partition_heal_chaos(SEEDS[1]);
}

#[test]
fn partition_heal_cycles_seed_c() {
    partition_heal_chaos(SEEDS[2]);
}

#[test]
fn ns_replica_kill_seed_a() {
    ns_replica_kill(SEEDS[0]);
}

#[test]
fn ns_replica_kill_seed_b() {
    ns_replica_kill(SEEDS[1]);
}

#[test]
fn ns_replica_kill_seed_c() {
    ns_replica_kill(SEEDS[2]);
}

#[test]
fn gateway_drop_storms_seed_a() {
    gateway_drop_chaos(SEEDS[0]);
}

#[test]
fn gateway_drop_storms_seed_b() {
    gateway_drop_chaos(SEEDS[1]);
}

#[test]
fn gateway_drop_storms_seed_c() {
    gateway_drop_chaos(SEEDS[2]);
}

#[test]
fn slow_consumer_backpressure_seed_a() {
    slow_consumer_backpressure(SEEDS[0]);
}

#[test]
fn slow_consumer_backpressure_seed_b() {
    slow_consumer_backpressure(SEEDS[1]);
}

#[test]
fn slow_consumer_backpressure_seed_c() {
    slow_consumer_backpressure(SEEDS[2]);
}

// ---------------------------------------------------------------------
// Causal-trace reconstruction. One traced message whose journey crosses a
// gateway splice AND an address-fault reconnection must be reassembled,
// hop by hop, from monitor records alone — and the testbed-wide
// observability report must expose the run in valid Prometheus text
// format. (Not seed-parameterized: the journey is fully deterministic.)
// ---------------------------------------------------------------------

#[test]
fn traced_journey_reconstructed_from_monitor_records() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let lab = line_internet(2, NetKind::Mbx).unwrap();
    // The monitor lives on net1's edge machine; the client's hop reports
    // cross the gateway, the relocated server's stay machine-local.
    let monitor = MonitorService::spawn(&lab.testbed, lab.edge_machines[1]).unwrap();
    let server = lab
        .testbed
        .module(lab.edge_machines[0], "trace-sink")
        .unwrap();
    let client = lab
        .testbed
        .module(lab.edge_machines[0], "trace-src")
        .unwrap();
    client.set_hop_monitor(monitor.uadd());
    server.set_hop_monitor(monitor.uadd());
    lab.gateways[0].enable_hop_reports(monitor.uadd());

    // Warm up an untraced circuit on the server's ORIGINAL machine, so the
    // traced send below must take the §3.5 fault/forward/reconnect detour.
    let dst = client.locate("trace-sink").unwrap();
    client
        .send(
            dst,
            &Ask {
                n: 0,
                body: String::new(),
            },
        )
        .unwrap();
    let warm = server.receive(Some(Duration::from_secs(5))).unwrap();
    assert_eq!(warm.trace_id(), 0, "untraced sends must stay untraced");

    // The sharded NS pushes a lease invalidation naming the successor as
    // soon as the server re-registers — which would hand the client the
    // new route up front and skip the detour this scenario exists to
    // trace. Ignore the push: the traced send must discover the move the
    // §3.5 way, as it would if the push were lost. (Push-covered recovery
    // is exercised by tests/naming_scale.rs.)
    client
        .nucleus()
        .clear_control_intercept(ntcs_naming::protocol::NS_INVALIDATE_TYPE);

    // Relocate the server across the gateway, then send ONE traced message
    // to the stale UAdd: its journey is send → fault → reconnect → splice
    // → deliver, all under one trace id.
    let server = server.relocate_to(lab.edge_machines[1]).unwrap();
    let (msg_id, trace) = client
        .send_traced(
            dst,
            &Ask {
                n: 7,
                body: String::new(),
            },
        )
        .unwrap();
    assert_ne!(trace.raw(), 0);
    let got = server.receive(Some(Duration::from_secs(5))).unwrap();
    assert_eq!(got.decode::<Ask>().unwrap().n, 7);
    assert_eq!(
        got.trace_id(),
        trace.raw(),
        "trace id must survive the wire"
    );
    assert!(
        got.span() >= 1,
        "the reconnection leg must bump the span, got {}",
        got.span()
    );

    // The monitor reassembles the journey from cast records alone. Hop
    // casts are asynchronous — the cross-gateway casts may trail the
    // machine-local DELIVER — so poll until the whole five-hop journey has
    // landed, not just its tail.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let chain = loop {
        let chain = monitor.trace_chain(trace.raw());
        let complete = chain.len() >= 5 && chain.iter().any(|h| h.kind == hop_kind::DELIVER);
        if complete || std::time::Instant::now() > deadline {
            break chain;
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    let kinds: Vec<u32> = chain.iter().map(|h| h.kind).collect();
    assert_eq!(
        kinds,
        vec![
            hop_kind::SEND,
            hop_kind::SPLICE,
            hop_kind::FAULT,
            hop_kind::RECONNECT,
            hop_kind::DELIVER,
        ],
        "full journey: {chain:#?}"
    );
    assert!(chain.iter().all(|h| h.trace_id == trace.raw()));
    let deliver = chain.last().unwrap();
    assert_eq!(deliver.msg_id, msg_id);
    assert!(
        chain
            .windows(2)
            .all(|w| w[0].timestamp_us <= w[1].timestamp_us),
        "hop timestamps must be monotone in journey order"
    );
    // The splice was reported by the gateway itself, not an endpoint.
    let splice = &chain[1];
    assert!(
        splice.module_name.starts_with("gw-"),
        "splice hop must come from the gateway, got {:?}",
        splice.module_name
    );
    // No leakage into other trace ids.
    assert!(monitor.trace_chain(trace.raw() ^ 1).is_empty());

    // The same reconstruction works remotely, over the NTCS itself.
    let remote = MonitorService::query_trace(&client, monitor.uadd(), trace.raw()).unwrap();
    assert_eq!(remote.len(), chain.len());
    assert_eq!(
        remote.iter().map(|h| h.kind).collect::<Vec<_>>(),
        kinds,
        "remote query must reconstruct the same journey"
    );

    // Testbed-wide export: valid Prometheus text, counters plus at least
    // four populated histograms.
    let prom = lab.testbed.observability_report();
    assert_valid_prometheus(&prom);
    assert!(prom.contains("# TYPE ntcs_sends_total counter"));
    for hist in [
        "ntcs_send_to_deliver_us",
        "ntcs_circuit_establish_us",
        "ntcs_ns_lookup_us",
        "ntcs_fault_recovery_us",
    ] {
        assert!(
            prom.contains(&format!("# TYPE {hist} histogram")),
            "missing histogram {hist}"
        );
        let populated = prom.lines().any(|l| {
            l.starts_with(&format!("{hist}_count"))
                && l.rsplit_once(' ').is_some_and(|(_, v)| v != "0")
        });
        assert!(populated, "histogram {hist} recorded no samples:\n{prom}");
    }
    // The human-readable rendering covers the same modules.
    let table = lab.testbed.observability_table();
    assert!(table.contains("trace-src"));

    monitor.stop();
    server.shutdown();
    client.shutdown();
}
