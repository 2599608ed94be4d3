//! Experiment E22: shared-memory + UDP substrates and runtime-adaptive
//! transport selection.
//!
//! Co-located modules should ride the memory-speed SHM ring; datagram
//! (`cast`) traffic should prefer UDP when available; reliable traffic on
//! a UDP-bound circuit should upgrade to a connection-oriented substrate;
//! and a relocation off-machine should trigger an SHM→TCP handoff with no
//! message lost or reordered.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::Duration;

use ntcs::{MachineType, NetKind, SubstrateBinding, Testbed};
use ntcs_drts::host::Handler;
use ntcs_drts::ServiceHost;
use ntcs_nucleus::event_kind;
use ntcs_repro::messages::{Answer, Ask};
use ntcs_repro::scenarios::colocated;

fn echo_handler(received: &Arc<AtomicU32>) -> Handler {
    let rc = Arc::clone(received);
    Box::new(move |commod, msg| {
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
    })
}

/// Two modules on the co-location host converse over the SHM ring: the
/// selection plane records a fresh choice with the SHM substrate code.
#[test]
fn colocated_modules_select_shm() {
    let lab = colocated(NetKind::Tcp).unwrap();
    let received = Arc::new(AtomicU32::new(0));
    let _host =
        ServiceHost::spawn(&lab.testbed, lab.host, "colo-srv", echo_handler(&received)).unwrap();
    let client = lab.testbed.module(lab.host, "colo-cli").unwrap();
    let dst = client.locate("colo-srv").unwrap();

    for i in 0..5u32 {
        let reply = client
            .send_receive(
                dst,
                &Ask {
                    n: i,
                    body: String::new(),
                },
                Some(Duration::from_secs(5)),
            )
            .unwrap();
        assert_eq!(reply.decode::<Answer>().unwrap().n, i);
    }

    let m = client.metrics();
    assert!(m.substrate_selects >= 1, "no substrate choice recorded");
    assert_eq!(m.substrate_handoffs, 0, "no relocation happened");
    let report = client.module_report();
    let chose_shm = report
        .events
        .iter()
        .any(|e| e.kind == event_kind::SUBSTRATE && e.aux == u64::from(SubstrateBinding::SHM));
    assert!(
        chose_shm,
        "expected a SUBSTRATE event with the SHM code; events: {:?}",
        report
            .events
            .iter()
            .filter(|e| e.kind == event_kind::SUBSTRATE)
            .collect::<Vec<_>>()
    );
}

/// A server relocating off the co-location host forces the circuit from
/// the SHM ring onto TCP mid-conversation. Reliable traffic across the
/// handoff arrives exactly once and in order.
#[test]
fn relocation_hands_off_shm_to_tcp_without_loss() {
    let lab = colocated(NetKind::Tcp).unwrap();
    let seen: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    let sc = Arc::clone(&seen);
    let handler: Handler = Box::new(move |commod, msg| {
        if let Ok(a) = msg.decode::<Ask>() {
            sc.lock().unwrap().push(a.n);
            let _ = commod.reply(
                &msg,
                &Answer {
                    n: a.n,
                    body: String::new(),
                },
            );
        }
    });
    let host = ServiceHost::spawn(&lab.testbed, lab.host, "mover", handler).unwrap();
    let client = lab.testbed.module(lab.host, "talker").unwrap();
    let dst = client.locate("mover").unwrap();

    for i in 0..20u32 {
        if i == 8 {
            host.relocate(lab.remote).unwrap();
        }
        client
            .send_reliable(
                dst,
                &Ask {
                    n: i,
                    body: String::new(),
                },
                Duration::from_secs(10),
            )
            .unwrap();
    }

    // The ack flows when the host's `receive` returns, before its handler
    // records the message: join the host so the last handler has run.
    host.stop();
    let got = seen.lock().unwrap().clone();
    assert_eq!(
        got,
        (0..20u32).collect::<Vec<_>>(),
        "messages lost, duplicated, or reordered across the handoff"
    );
    let m = client.metrics();
    assert!(
        m.substrate_handoffs >= 1,
        "relocation off-machine must re-select the substrate (selects={}, handoffs={})",
        m.substrate_selects,
        m.substrate_handoffs
    );
    let report = client.module_report();
    assert!(
        report
            .events
            .iter()
            .any(|e| e.kind == event_kind::SUBSTRATE && e.aux >= 0x100),
        "expected a handoff-encoded SUBSTRATE event (aux = 0x100 | old<<4 | new)"
    );
}

/// On a machine homed on both a UDP and a TCP network, datagram traffic
/// (`cast`) picks UDP; a later reliable send to the same peer upgrades
/// the circuit onto TCP (drain-then-switch), counted as a handoff.
#[test]
fn datagram_prefers_udp_and_reliable_upgrades() {
    let mut tb = Testbed::builder();
    let net_u = tb.add_network(NetKind::Udp, "dgram");
    let net_t = tb.add_network(NetKind::Tcp, "wire");
    let m0 = tb
        .add_machine(MachineType::Sun, "left", &[net_u, net_t])
        .unwrap();
    let m1 = tb
        .add_machine(MachineType::Vax, "right", &[net_u, net_t])
        .unwrap();
    tb.name_server_on(m0);
    let testbed = tb.start().unwrap();

    let received = Arc::new(AtomicU32::new(0));
    let _srv = ServiceHost::spawn(&testbed, m1, "udp-srv", echo_handler(&received)).unwrap();
    let client = testbed.module(m0, "udp-cli").unwrap();
    let dst = client.locate("udp-srv").unwrap();

    client
        .cast(
            dst,
            &Ask {
                n: 1,
                body: String::new(),
            },
        )
        .unwrap();
    // The cast is fire-and-forget; wait until the server has it so the
    // UDP binding is definitely established before the upgrade probe.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while received.load(Ordering::Relaxed) == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let after_cast = client.metrics();
    assert!(after_cast.substrate_selects >= 1);
    let report = client.module_report();
    assert!(
        report.events.iter().any(|e| {
            e.kind == event_kind::SUBSTRATE && e.aux == u64::from(SubstrateBinding::UDP)
        }),
        "datagram traffic should have selected UDP"
    );

    let reply = client
        .send_receive(
            dst,
            &Ask {
                n: 2,
                body: String::new(),
            },
            Some(Duration::from_secs(5)),
        )
        .unwrap();
    assert_eq!(reply.decode::<Answer>().unwrap().n, 2);
    let after_reliable = client.metrics();
    assert!(
        after_reliable.substrate_selects > after_cast.substrate_selects,
        "reliable send on a UDP-bound circuit must re-select"
    );
    let report = client.module_report();
    assert!(
        report.events.iter().any(|e| {
            e.kind == event_kind::SUBSTRATE && e.aux == u64::from(SubstrateBinding::TCP)
        }),
        "reliable traffic should have upgraded onto TCP"
    );
}

/// A gateway splices an internet virtual circuit whose two legs ride
/// different substrates: client —UDP→ gateway —TCP→ server.
#[test]
fn gateway_splices_across_substrates() {
    let mut tb = Testbed::builder();
    let net_u = tb.add_network(NetKind::Udp, "dgram");
    let net_t = tb.add_network(NetKind::Tcp, "wire");
    let m0 = tb
        .add_machine(MachineType::Sun, "edge-u", &[net_u])
        .unwrap();
    let gw_m = tb
        .add_machine(MachineType::Apollo, "gw-host", &[net_u, net_t])
        .unwrap();
    let m1 = tb
        .add_machine(MachineType::Vax, "edge-t", &[net_t])
        .unwrap();
    tb.name_server_on(gw_m);
    let testbed = tb.start().unwrap();
    let gateway = testbed.gateway(gw_m, "gw").unwrap();

    let received = Arc::new(AtomicU32::new(0));
    let _srv = ServiceHost::spawn(&testbed, m1, "far-srv", echo_handler(&received)).unwrap();
    let client = testbed.module(m0, "near-cli").unwrap();
    let dst = client.locate("far-srv").unwrap();

    for i in 0..3u32 {
        let reply = client
            .send_receive(
                dst,
                &Ask {
                    n: i,
                    body: String::new(),
                },
                Some(Duration::from_secs(10)),
            )
            .unwrap();
        assert_eq!(reply.decode::<Answer>().unwrap().n, i);
    }
    assert!(
        gateway.metrics().circuits_spliced >= 1,
        "the UDP→TCP circuit must have been spliced at the gateway"
    );
}
