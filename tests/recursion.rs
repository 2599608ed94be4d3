//! Experiments E8 and E9 (§6): recursion in the NTCS.
//!
//! E8 reproduces the §6.1 first-send scenario and measures its message
//! amplification and recursion depth. E9 reproduces the §6.3 pathology: a
//! broken Name-Server circuit makes the unpatched LCM address-fault handler
//! recurse through the NSP layer "until either the stack overflows, or the
//! connection can be reestablished" — and shows the shipped patch bounding
//! it.

use std::sync::Arc;
use std::time::Duration;

use ntcs::{ComMod, Layer, NetKind, NtcsError, NucleusConfig, UAdd};
use ntcs_drts::{DrtsRuntime, MonitorService, TimeService};
use ntcs_repro::messages::{Answer, Ask};
use ntcs_repro::scenarios::{single_net, SingleNet};

const T: Option<Duration> = Some(Duration::from_secs(10));

#[test]
fn first_send_triggers_recursive_layer_activity() {
    let lab = single_net(3, NetKind::Mbx).unwrap();
    let ts = TimeService::spawn(&lab.testbed, lab.machines[0]).unwrap();
    let monitor = MonitorService::spawn(&lab.testbed, lab.machines[0]).unwrap();
    let server = lab.testbed.module(lab.machines[2], "echo").unwrap();
    let server_thread = std::thread::spawn(move || {
        let m = server.receive(T).unwrap();
        let a: Ask = m.decode().unwrap();
        server
            .reply(
                &m,
                &Answer {
                    n: a.n,
                    body: String::new(),
                },
            )
            .unwrap();
    });

    let client = Arc::new(lab.testbed.module(lab.machines[1], "instrumented").unwrap());
    let _rt = DrtsRuntime::attach(
        &client,
        Some(ts.uadd()),
        Some(monitor.uadd()),
        Duration::from_secs(3600),
    );
    client.trace().clear();

    let dst = client.locate("echo").unwrap();
    let reply = client
        .send_receive(
            dst,
            &Ask {
                n: 5,
                body: String::new(),
            },
            T,
        )
        .unwrap();
    assert_eq!(reply.decode::<Answer>().unwrap().n, 5);
    server_thread.join().unwrap();

    // The trace shows the §6.1 shape: LCM sends nested with NSP lookups.
    let events = client.trace().events();
    let lcm_sends = events
        .iter()
        .filter(|e| e.layer == Layer::Lcm && e.action == "send")
        .count();
    let nsp_lookups = events
        .iter()
        .filter(|e| e.layer == Layer::Nsp && e.action == "lookup")
        .count();
    assert!(
        lcm_sends >= 3,
        "time + payload + monitor sends, saw {lcm_sends}"
    );
    assert!(nsp_lookups >= 1, "resolution recursed through NSP");
    // Depth really exceeded 1: some send happened while another was live.
    let max_depth = events.iter().map(|e| e.depth).max().unwrap_or(0);
    assert!(max_depth >= 2, "max recursion depth {max_depth}");
    assert!(client.nucleus().gauge().max_seen() >= 2);
    monitor.stop();
    ts.stop();
}

/// Builds a module whose Nucleus has a tight recursion budget and an
/// optional §6.3 patch, bound to `lab` machine 1.
fn fault_prone_module(lab: &SingleNet, patched: bool) -> ComMod {
    let mut config = NucleusConfig::new(lab.machines[1], "fragile");
    config.well_known = lab.testbed.ns_well_known();
    config.max_recursion_depth = 16;
    config.ns_fault_patch = patched;
    ComMod::bind_with_config(lab.testbed.world(), config, lab.testbed.ns_servers()).unwrap()
}

#[test]
fn unpatched_ns_fault_recurses_to_the_guard() {
    // §6.3 verbatim: the circuit to the Name Server breaks; the next naming
    // exchange faults; the (unpatched) fault handler queries the NSP layer
    // about the Name Server's own UAdd, which talks to the Name Server, …
    let lab = single_net(2, NetKind::Mbx).unwrap();
    let module = fault_prone_module(&lab, false);
    module.register("fragile").unwrap();

    // Break the Name-Server circuit: partition the module from the server's
    // machine. (The paper's trigger was exactly a broken NS virtual
    // circuit.)
    lab.testbed
        .world()
        .set_partition(lab.machines[0], lab.machines[1], true);
    std::thread::sleep(Duration::from_millis(100));

    let err = module.locate("fragile").unwrap_err();
    assert!(
        matches!(err, NtcsError::RecursionLimit { .. }),
        "expected the stack-overflow stand-in, got: {err}"
    );
    assert!(
        module.nucleus().gauge().max_seen() >= 15,
        "recursion should have climbed to the limit, max {}",
        module.nucleus().gauge().max_seen()
    );
}

#[test]
fn patched_ns_fault_stays_shallow_and_recovers() {
    let lab = single_net(2, NetKind::Mbx).unwrap();
    let module = fault_prone_module(&lab, true);
    module.register("fragile").unwrap();
    module.nucleus().gauge().reset_max();

    lab.testbed
        .world()
        .set_partition(lab.machines[0], lab.machines[1], true);
    std::thread::sleep(Duration::from_millis(100));

    // Bounded failure, no runaway.
    let err = module.locate("fragile").unwrap_err();
    assert!(
        !matches!(err, NtcsError::RecursionLimit { .. }),
        "the patch must prevent the runaway, got: {err}"
    );
    assert!(
        module.nucleus().gauge().max_seen() <= 4,
        "patched fault handling stayed shallow, max {}",
        module.nucleus().gauge().max_seen()
    );

    // Heal the partition: "until … the connection can be reestablished."
    lab.testbed
        .world()
        .set_partition(lab.machines[0], lab.machines[1], false);
    let found = module.locate("fragile").unwrap();
    assert_eq!(found, module.my_uadd());
}

#[test]
fn recursion_guard_reports_depth() {
    // Direct unit-style check of the guard through the public API.
    let lab = single_net(2, NetKind::Mbx).unwrap();
    let module = lab.testbed.module(lab.machines[1], "gauge").unwrap();
    let before = module.nucleus().gauge().max_seen();
    let _ = module.locate("gauge").unwrap();
    assert!(module.nucleus().gauge().max_seen() >= before);
    assert_eq!(module.nucleus().gauge().depth(), 0, "all scopes unwound");
}

#[test]
fn trace_selectivity_silences_chosen_layers() {
    // §6.2: "adequate selectivity in observing this information is equally
    // important."
    let lab = single_net(2, NetKind::Mbx).unwrap();
    let module = lab.testbed.module(lab.machines[1], "selective").unwrap();
    module.trace().clear();
    module.trace().set_layer_enabled(Layer::Nd, false);
    let _ = module.locate("selective").unwrap();
    let events = module.trace().events();
    assert!(events.iter().all(|e| e.layer != Layer::Nd));
    assert!(events.iter().any(|e| e.layer == Layer::Lcm));
    // Re-enable and observe ND events again.
    module.trace().set_layer_enabled(Layer::Nd, true);
    module.trace().clear();
    let peer = lab.testbed.module(lab.machines[0], "peer").unwrap();
    let dst = module.locate("peer").unwrap();
    module
        .send(
            dst,
            &Ask {
                n: 0,
                body: String::new(),
            },
        )
        .unwrap();
    peer.receive(T).unwrap();
    assert!(module.trace().events().iter().any(|e| e.layer == Layer::Nd));
}

#[test]
fn name_server_address_is_protocol_constant() {
    assert_eq!(UAdd::NAME_SERVER.raw(), 1);
}
