//! Characterisation fence for the send path: every delivery class (cast,
//! send, reliable) against every kind of destination (a live peer, a peer
//! that relocated and is reached through the §3.5 forwarding table, a UAdd
//! nobody registered, and any destination after the sender's own shutdown).
//! Each cell pins the returned error and the exact deltas of the sender's
//! `sends`, `casts`, `dropped_messages`, `address_faults`, `reconnects` and
//! `dead_letters` counters. Sends that reach the naming service count in
//! `sends` too (a lookup or forwarding query is a request), so the deltas
//! also pin how much naming traffic each cell costs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ntcs::{NetKind, NtcsError, NucleusMetricsSnapshot};
use ntcs_addr::UAddGenerator;
use ntcs_drts::host::Handler;
use ntcs_drts::ServiceHost;
use ntcs_repro::messages::Ask;
use ntcs_repro::scenarios::single_net;
use parking_lot::Mutex;

#[derive(Clone, Copy, Debug)]
enum Class {
    Cast,
    Send,
    Reliable,
}

#[derive(Clone, Copy, Debug)]
enum Dest {
    Live,
    Relocated,
    Unknown,
    AfterShutdown,
}

/// How a cell's send returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Outcome {
    Ok,
    UnknownAddress,
    ShutDown,
}

/// Sender counter deltas across one send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Deltas {
    sends: u64,
    casts: u64,
    dropped: u64,
    faults: u64,
    reconnects: u64,
    dead_letters: u64,
}

const fn d(
    sends: u64,
    casts: u64,
    dropped: u64,
    faults: u64,
    reconnects: u64,
    dead_letters: u64,
) -> Deltas {
    Deltas {
        sends,
        casts,
        dropped,
        faults,
        reconnects,
        dead_letters,
    }
}

fn deltas(before: &NucleusMetricsSnapshot, after: &NucleusMetricsSnapshot) -> Deltas {
    Deltas {
        sends: after.sends - before.sends,
        casts: after.casts - before.casts,
        dropped: after.dropped_messages - before.dropped_messages,
        faults: after.address_faults - before.address_faults,
        reconnects: after.reconnects - before.reconnects,
        dead_letters: after.dead_letters - before.dead_letters,
    }
}

/// What the peer's application saw: (connectionless, reliable, msg id).
type Seen = Arc<Mutex<Vec<(bool, bool, u64)>>>;

fn wait_for(seen: &Seen, n: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while seen.lock().len() < n {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

/// Runs one cell on a fresh three-machine lab: checks what the peer's
/// application saw and returns the sender's outcome and counter deltas.
fn cell(class: Class, dest: Dest) -> (Outcome, Deltas) {
    let lab = single_net(3, NetKind::Mbx).unwrap();
    let seen: Seen = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&seen);
    let handler: Handler = Box::new(move |_, msg| {
        let raw = msg.raw();
        log.lock()
            .push((raw.connectionless, raw.reliable, raw.msg_id));
    });
    let host = ServiceHost::spawn(&lab.testbed, lab.machines[1], "fence-peer", handler).unwrap();
    let client = lab.testbed.module(lab.machines[0], "fence-src").unwrap();
    let peer = client.locate("fence-peer").unwrap();
    // Warm up: the circuit to the peer exists and the peer has drained the
    // warm-up message before the measured send.
    client
        .send(
            peer,
            &Ask {
                n: 0,
                body: String::new(),
            },
        )
        .unwrap();
    assert!(wait_for(&seen, 1), "warm-up never delivered");

    let dst = match dest {
        Dest::Live => peer,
        Dest::Relocated => {
            // The sender is not pumped between the move and the send, so
            // the send itself meets the dead circuit (§3.5 address fault).
            host.relocate(lab.machines[2]).unwrap();
            peer
        }
        Dest::Unknown => UAddGenerator::new(77).generate(),
        Dest::AfterShutdown => {
            client.shutdown();
            peer
        }
    };
    let msg = Ask {
        n: 1,
        body: "fence".into(),
    };
    let before = client.metrics();
    let result: Result<u64, NtcsError> = match class {
        Class::Cast => client.cast(dst, &msg).map(|()| 0),
        Class::Send => client.send(dst, &msg),
        Class::Reliable => client.send_reliable(dst, &msg, Duration::from_secs(5)),
    };
    let after = client.metrics();
    let got = match &result {
        Ok(_) => Outcome::Ok,
        Err(NtcsError::UnknownAddress(_)) => Outcome::UnknownAddress,
        Err(NtcsError::ShutDown) => Outcome::ShutDown,
        Err(e) => panic!("{class:?} → {dest:?}: unexpected error {e}"),
    };
    match dest {
        Dest::Live | Dest::Relocated if got == Outcome::Ok && !matches!(class, Class::Cast) => {
            // Delivered exactly once, with the class's header flags.
            assert!(wait_for(&seen, 2), "{class:?} → {dest:?}: never delivered");
            let (connectionless, reliable, id) = seen.lock()[1];
            assert!(!connectionless);
            assert_eq!(reliable, matches!(class, Class::Reliable));
            assert_eq!(Ok(id), result.clone().map_err(|_| ()));
        }
        Dest::Live => {
            // A cast to a live peer arrives on the connectionless protocol.
            assert!(wait_for(&seen, 2), "cast → live peer never delivered");
            assert!(seen.lock()[1].0, "a cast must arrive connectionless");
        }
        _ => {}
    }
    if matches!((class, dest), (Class::Reliable, Dest::Live)) {
        // Acked on first delivery: no retransmission was needed.
        assert_eq!(client.metrics().retransmissions, before.retransmissions);
    }
    // Nothing else reached the peer's application.
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        seen.lock().len() <= 2,
        "{class:?} → {dest:?}: extra deliveries"
    );
    host.stop();
    (got, deltas(&before, &after))
}

#[test]
fn delivery_class_by_destination_table() {
    use Class::{Cast, Reliable, Send};
    use Dest::{AfterShutdown, Live, Relocated, Unknown};
    use Outcome::{Ok, ShutDown, UnknownAddress};
    #[rustfmt::skip]
    let table: [(Class, Dest, Outcome, Deltas); 12] = [
        //                                         sends casts drop flt rec dead
        (Cast,     Live,          Ok,             d(1,   1,    0,   0,  0,  0)),
        (Send,     Live,          Ok,             d(1,   0,    0,   0,  0,  0)),
        (Reliable, Live,          Ok,             d(1,   0,    0,   0,  0,  0)),
        (Cast,     Relocated,     Ok,             d(0,   1,    1,   0,  0,  0)),
        (Send,     Relocated,     Ok,             d(3,   0,    0,   1,  1,  0)),
        (Reliable, Relocated,     Ok,             d(3,   0,    0,   1,  1,  0)),
        (Cast,     Unknown,       Ok,             d(1,   1,    1,   0,  0,  0)),
        (Send,     Unknown,       UnknownAddress, d(1,   0,    0,   0,  0,  0)),
        (Reliable, Unknown,       UnknownAddress, d(1,   0,    0,   0,  0,  1)),
        (Cast,     AfterShutdown, ShutDown,       d(0,   0,    0,   0,  0,  0)),
        (Send,     AfterShutdown, ShutDown,       d(0,   0,    0,   0,  0,  0)),
        (Reliable, AfterShutdown, ShutDown,       d(0,   0,    0,   0,  0,  1)),
    ];
    let mut wrong = Vec::new();
    for (class, dest, want, want_deltas) in table {
        let got = cell(class, dest);
        if got != (want, want_deltas) {
            wrong.push(format!(
                "{class:?} → {dest:?}: got {got:?}, want {:?}",
                (want, want_deltas)
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "cells off the table:\n{}",
        wrong.join("\n")
    );
}
