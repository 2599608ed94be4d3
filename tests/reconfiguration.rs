//! Experiment E7 (§3.5, §4.3): dynamic reconfiguration.
//!
//! "This ability allows the system to be dynamically reconfigured, with the
//! communication automatically reaching the correct destination." Messages
//! *may* be dropped across a reconfiguration — the paper accepts that and
//! delegates stronger guarantees to transaction management; we measure the
//! loss instead of hiding it.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ntcs::{Gateway, MachineId, MachineType, NetKind, NtcsError, Testbed};
use ntcs_drts::host::Handler;
use ntcs_drts::ServiceHost;
use ntcs_repro::messages::{Answer, Ask};
use ntcs_repro::scenarios::{line_internet, single_net};
use ntcs_sim::{seed_list_from, SimRng};

const T: Option<Duration> = Some(Duration::from_secs(10));

#[test]
fn relocation_mid_conversation_recovers_transparently() {
    let lab = single_net(3, NetKind::Mbx).unwrap();
    let received = Arc::new(AtomicU32::new(0));
    let rc = Arc::clone(&received);
    let handler: Handler = Box::new(move |commod, msg| {
        if let Ok(a) = msg.decode::<Ask>() {
            rc.fetch_add(1, Ordering::Relaxed);
            let _ = commod.reply(
                &msg,
                &Answer {
                    n: a.n,
                    body: String::new(),
                },
            );
        }
    });
    let host = ServiceHost::spawn(&lab.testbed, lab.machines[1], "mover", handler).unwrap();
    let client = lab.testbed.module(lab.machines[0], "talker").unwrap();
    let dst = client.locate("mover").unwrap();

    let mut answered = 0u32;
    let mut dropped = 0u32;
    for i in 0..30u32 {
        if i == 10 {
            host.relocate(lab.machines[2]).unwrap();
        }
        if i == 20 {
            host.relocate(lab.machines[1]).unwrap();
        }
        // Synchronous exchanges: each either completes or (rarely, if the
        // request raced the teardown) times out — never errors out, because
        // the LCM layer reconnects transparently.
        match client.send_receive(
            dst,
            &Ask {
                n: i,
                body: String::new(),
            },
            Some(Duration::from_secs(2)),
        ) {
            Ok(reply) => {
                assert_eq!(reply.decode::<Answer>().unwrap().n, i);
                answered += 1;
            }
            Err(NtcsError::Timeout) => dropped += 1,
            Err(e) => panic!("send {i} failed hard: {e}"),
        }
    }
    assert!(answered >= 27, "answered {answered}, dropped {dropped}");
    assert!(
        dropped <= 3,
        "dropped {dropped} exceeds the reconfiguration budget"
    );
    let m = client.metrics();
    assert!(
        m.address_faults >= 2,
        "two relocations ⇒ ≥2 faults, saw {}",
        m.address_faults
    );
    assert!(m.forward_queries >= 2);
    assert!(m.reconnects >= 2);
    host.stop();
}

#[test]
fn no_messages_lost_in_static_configuration() {
    // §3.5: "the NTCS can not lose messages in a static environment."
    let lab = single_net(2, NetKind::Mbx).unwrap();
    let server = lab.testbed.module(lab.machines[1], "sink").unwrap();
    let client = lab.testbed.module(lab.machines[0], "hose").unwrap();
    let dst = client.locate("sink").unwrap();
    const N: u32 = 500;
    for i in 0..N {
        client
            .send(
                dst,
                &Ask {
                    n: i,
                    body: String::new(),
                },
            )
            .unwrap();
    }
    for i in 0..N {
        let m = server.receive(T).unwrap();
        assert_eq!(m.decode::<Ask>().unwrap().n, i, "order preserved too");
    }
}

#[test]
fn chained_relocations_follow_forwarding_chain() {
    let lab = single_net(4, NetKind::Mbx).unwrap();
    let handler: Handler = Box::new(|commod, msg| {
        if msg.decode::<Ask>().is_ok() {
            let _ = commod.reply(
                &msg,
                &Answer {
                    n: 0,
                    body: "here".into(),
                },
            );
        }
    });
    let host = ServiceHost::spawn(&lab.testbed, lab.machines[1], "nomad", handler).unwrap();
    let client = lab.testbed.module(lab.machines[0], "seeker").unwrap();
    let dst = client.locate("nomad").unwrap();
    // First contact, then two silent moves before the next send.
    client
        .send_receive(
            dst,
            &Ask {
                n: 0,
                body: String::new(),
            },
            T,
        )
        .unwrap();
    host.relocate(lab.machines[2]).unwrap();
    host.relocate(lab.machines[3]).unwrap();
    // The old UAdd is now two generations stale; the forwarding query finds
    // the newest incarnation directly (§3.5's "newer module").
    let reply = client
        .send_receive(
            dst,
            &Ask {
                n: 1,
                body: String::new(),
            },
            T,
        )
        .unwrap();
    assert_eq!(reply.decode::<Answer>().unwrap().body, "here");
    host.stop();
}

#[test]
fn relocation_across_networks_through_gateways() {
    // A module moves to a machine on a DIFFERENT network: the reconnect path
    // must obtain a gateway route it never needed before.
    let lab = line_internet(2, NetKind::Mbx).unwrap();
    let handler: Handler = Box::new(|commod, msg| {
        if let Ok(a) = msg.decode::<Ask>() {
            let _ = commod.reply(
                &msg,
                &Answer {
                    n: a.n + 100,
                    body: String::new(),
                },
            );
        }
    });
    // Server starts on the client's own network…
    let host = ServiceHost::spawn(&lab.testbed, lab.edge_machines[0], "roamer", handler).unwrap();
    let client = lab.testbed.module(lab.edge_machines[0], "caller").unwrap();
    let dst = client.locate("roamer").unwrap();
    let r = client
        .send_receive(
            dst,
            &Ask {
                n: 1,
                body: String::new(),
            },
            T,
        )
        .unwrap();
    assert_eq!(r.decode::<Answer>().unwrap().n, 101);
    assert_eq!(client.metrics().route_queries, 0);

    // …then moves to the far network.
    host.relocate(lab.edge_machines[1]).unwrap();
    let r = client
        .send_receive(
            dst,
            &Ask {
                n: 2,
                body: String::new(),
            },
            T,
        )
        .unwrap();
    assert_eq!(r.decode::<Answer>().unwrap().n, 102);
    assert!(
        client.metrics().route_queries >= 1,
        "reconnect crossed a gateway"
    );
    assert!(lab.gateways[0].metrics().circuits_spliced >= 1);
    host.stop();
}

#[test]
fn sender_relocation_keeps_conversations_alive() {
    // The *client* relocates: its UAdd changes; the server replies to
    // whatever address the next request carries. Conversations survive.
    let lab = single_net(3, NetKind::Mbx).unwrap();
    let server = lab.testbed.module(lab.machines[1], "fixed").unwrap();
    let server_thread = std::thread::spawn(move || {
        for _ in 0..2 {
            let m = server.receive(Some(Duration::from_secs(10))).unwrap();
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
        }
    });
    let client = lab.testbed.module(lab.machines[0], "mobile-cli").unwrap();
    let dst = client.locate("fixed").unwrap();
    let r = client
        .send_receive(
            dst,
            &Ask {
                n: 1,
                body: String::new(),
            },
            T,
        )
        .unwrap();
    assert_eq!(r.decode::<Answer>().unwrap().n, 1);

    let client = client.relocate_to(lab.machines[2]).unwrap();
    let r = client
        .send_receive(
            dst,
            &Ask {
                n: 2,
                body: String::new(),
            },
            T,
        )
        .unwrap();
    assert_eq!(r.decode::<Answer>().unwrap().n, 2);
    server_thread.join().unwrap();
}

#[test]
fn unregistered_module_cannot_relocate() {
    let lab = single_net(2, NetKind::Mbx).unwrap();
    let c = lab.testbed.commod(lab.machines[0], "anon").unwrap();
    let err = c.relocate_to(lab.machines[1]).unwrap_err();
    assert!(matches!(err.error, NtcsError::NotRegistered));
    // The binding came back intact.
    assert!(err.commod.my_uadd().is_temporary());
}

#[test]
fn crash_without_replacement_returns_error() {
    // §3.5 first case: "no replacement module was located. … the call will
    // simply return with an error."
    let lab = single_net(2, NetKind::Mbx).unwrap();
    let server = lab.testbed.module(lab.machines[1], "doomed").unwrap();
    let client = lab.testbed.module(lab.machines[0], "witness").unwrap();
    let dst = client.locate("doomed").unwrap();
    client
        .send(
            dst,
            &Ask {
                n: 0,
                body: String::new(),
            },
        )
        .unwrap();
    server.receive(T).unwrap();
    lab.testbed.world().crash(lab.machines[1]);
    std::thread::sleep(Duration::from_millis(100));
    let err = client
        .send(
            dst,
            &Ask {
                n: 1,
                body: String::new(),
            },
        )
        .unwrap_err();
    assert!(
        err.is_relocation_candidate() || matches!(err, NtcsError::NoForwardingAddress(_)),
        "{err}"
    );
}

/// Regression: the metrics registry's report source must follow a module
/// across relocation. Before the fix, the source registered at bind time
/// captured the original Nucleus; after `relocate_to` the exported
/// `flow_credits_available` gauge froze at the dead incarnation's reading
/// (zero once its circuits closed) while the live module's window was
/// invisible to operators.
#[test]
fn registry_gauges_follow_module_across_relocation() {
    use ntcs::FlowSettings;

    let lab = single_net(3, NetKind::Mbx).unwrap();
    lab.testbed
        .enable_flow_control(FlowSettings::enabled(1024, 2));
    let server = lab.testbed.module(lab.machines[1], "gauge-fixed").unwrap();
    let client = lab.testbed.module(lab.machines[0], "gauge-src").unwrap();
    let dst = client.locate("gauge-fixed").unwrap();

    let credits_for = |name: &str| -> u64 {
        lab.testbed
            .registry()
            .reports()
            .into_iter()
            .find(|r| r.module == name)
            .and_then(|r| {
                r.gauges
                    .iter()
                    .find(|(g, _)| *g == "flow_credits_available")
                    .map(|&(_, v)| v)
            })
            .expect("gauge-src must stay in the registry with its flow gauge")
    };

    client
        .send(
            dst,
            &Ask {
                n: 0,
                body: String::new(),
            },
        )
        .unwrap();
    server.receive(T).unwrap();
    assert!(
        credits_for("gauge-src") > 0,
        "a live flow-enabled circuit must expose its window"
    );

    let client = client
        .relocate_to(lab.machines[2])
        .map_err(|e| e.error)
        .unwrap();
    client
        .send(
            dst,
            &Ask {
                n: 1,
                body: String::new(),
            },
        )
        .unwrap();
    server.receive(T).unwrap();

    assert!(
        credits_for("gauge-src") > 0,
        "gauge went stale: the report source still reads the pre-relocation incarnation"
    );
}

/// A relocated module must keep its Nucleus configuration — in particular
/// credit-based flow control. Before the fix, `relocate_to` rebound with a
/// default config: the relocated receiver granted no credit, so a
/// flow-enabled sender starved against it once the initial window spent.
#[test]
fn relocation_preserves_flow_control() {
    use ntcs::FlowSettings;

    let lab = single_net(3, NetKind::Mbx).unwrap();
    lab.testbed
        .enable_flow_control(FlowSettings::enabled(1024, 2));
    let server = lab.testbed.module(lab.machines[1], "flow-reloc").unwrap();
    let client = lab.testbed.module(lab.machines[2], "flow-src").unwrap();
    let dst = client.locate("flow-reloc").unwrap();

    client
        .send(
            dst,
            &Ask {
                n: 0,
                body: String::new(),
            },
        )
        .unwrap();
    server.receive(T).unwrap();
    let server = server
        .relocate_to(lab.machines[0])
        .map_err(|e| e.error)
        .unwrap();
    assert!(
        server.nucleus_config().flow.enabled,
        "relocation must carry flow control to the new binding"
    );

    // Far more traffic than the 2-frame window: progress now depends on
    // the relocated receiver granting credit as it drains.
    let drainer = std::thread::spawn(move || {
        let mut got = 0u32;
        while server.receive(Some(Duration::from_millis(500))).is_ok() {
            got += 1;
        }
        got
    });
    let body = "x".repeat(200);
    for i in 1..=20u32 {
        client
            .send(
                dst,
                &Ask {
                    n: i,
                    body: body.clone(),
                },
            )
            .unwrap();
    }
    assert_eq!(drainer.join().unwrap(), 20);
}

/// A caller and an echo with two homes to move between, all on one TCP
/// network, or with the echo's homes three TCP networks and two gateways
/// away from the caller.
struct RaceLab {
    testbed: Testbed,
    _gateways: Vec<Gateway>,
    caller: MachineId,
    homes: [MachineId; 2],
}

fn race_lab(via_gateways: bool) -> RaceLab {
    let mut tb = Testbed::builder();
    let (caller, homes, gw_hosts) = if via_gateways {
        let nets: Vec<_> = (0..3)
            .map(|i| tb.add_network(NetKind::Tcp, &format!("net{i}")))
            .collect();
        let ns = tb.add_machine(MachineType::Sun, "ns-host", &nets).unwrap();
        tb.name_server_on(ns);
        let caller = tb
            .add_machine(MachineType::Sun, "edge0", &[nets[0]])
            .unwrap();
        let homes = [
            tb.add_machine(MachineType::Sun, "edge2", &[nets[2]])
                .unwrap(),
            tb.add_machine(MachineType::Sun, "edge2b", &[nets[2]])
                .unwrap(),
        ];
        let gws = vec![
            tb.add_machine(MachineType::Apollo, "gw-host0", &[nets[0], nets[1]])
                .unwrap(),
            tb.add_machine(MachineType::Apollo, "gw-host1", &[nets[1], nets[2]])
                .unwrap(),
        ];
        (caller, homes, gws)
    } else {
        let lan = tb.add_network(NetKind::Tcp, "lan");
        let caller = tb.add_machine(MachineType::Sun, "host0", &[lan]).unwrap();
        tb.name_server_on(caller);
        let homes = [
            tb.add_machine(MachineType::Sun, "host1", &[lan]).unwrap(),
            tb.add_machine(MachineType::Sun, "host2", &[lan]).unwrap(),
        ];
        (caller, homes, Vec::new())
    };
    let testbed = tb.start().unwrap();
    let _gateways = gw_hosts
        .iter()
        .enumerate()
        .map(|(i, &m)| testbed.gateway(m, &format!("gw{i}")).unwrap())
        .collect();
    RaceLab {
        testbed,
        _gateways,
        caller,
        homes,
    }
}

/// §3.5 recovery without the lost first request: a request issued the
/// moment the echo's `relocate_to` returns — when the caller's circuit to
/// the old incarnation is closing but may still accept a write — must be
/// answered from the echo's new address within that one call. Each seed
/// draws the request's size, 64 B to 64 KiB.
fn first_request_after_a_move_is_answered(via_gateways: bool) {
    let echo: fn() -> Handler = || {
        Box::new(|commod, msg| {
            if let Ok(a) = msg.decode::<Ask>() {
                let _ = commod.reply(
                    &msg,
                    &Answer {
                        n: a.n,
                        body: a.body,
                    },
                );
            }
        })
    };
    let seeds = seed_list_from(32, None);
    let mut failed = Vec::new();
    for &seed in &seeds {
        let lab = race_lab(via_gateways);
        let host = ServiceHost::spawn(&lab.testbed, lab.homes[0], "echo", echo()).unwrap();
        let client = lab.testbed.module(lab.caller, "caller").unwrap();
        let dst = client.locate("echo").unwrap();
        let warm = Ask {
            n: 0,
            body: String::new(),
        };
        client.send_receive(dst, &warm, T).unwrap();
        host.relocate(lab.homes[1]).unwrap();
        let size = 64 + SimRng::new(seed).next_u64() % (64 * 1024 - 63);
        let ask = Ask {
            n: 1,
            body: "r".repeat(usize::try_from(size).unwrap()),
        };
        match client.send_receive(dst, &ask, Some(Duration::from_secs(2))) {
            Ok(r) if r.src() != host.uadd() => {
                failed.push(format!("{seed:#x}: answered by {}", r.src()));
            }
            Ok(r) => {
                let a: Answer = r.decode().unwrap();
                assert_eq!((a.n, a.body.len()), (1, ask.body.len()), "seed {seed:#x}");
            }
            Err(e) => failed.push(format!("{seed:#x}: {e}")),
        }
        host.stop();
    }
    assert!(
        failed.is_empty(),
        "{} of {} seeds lost the first request after the move: {failed:?}",
        failed.len(),
        seeds.len()
    );
}

#[test]
fn first_request_after_a_move_is_answered_over_direct_tcp() {
    first_request_after_a_move_is_answered(false);
}

#[test]
fn first_request_after_a_move_is_answered_across_two_gateways() {
    first_request_after_a_move_is_answered(true);
}
