//! Observability tour: causal tracing, latency histograms, and the
//! unified metrics export.
//!
//! A client sends one traced message whose journey crosses a gateway
//! splice and a §3.5 address-fault reconnection. The DRTS monitor
//! reassembles the full hop-by-hop path from records cast by each hop,
//! and the testbed renders its live state as Prometheus text and as a
//! human-readable table.
//!
//! Run with: `cargo run --example observability_tour`

use std::time::Duration;

use ntcs::{hop_kind, FlowSettings, NetKind, SubstrateBinding};
use ntcs_drts::{MonitorService, ServiceHost};
use ntcs_nucleus::event_kind;
use ntcs_repro::messages::Ask;
use ntcs_repro::scenarios::{colocated, line_internet};

fn main() -> ntcs::Result<()> {
    // Two disjoint networks joined by one gateway; the Name Server's
    // machine is multi-homed for bootstrap.
    let lab = line_internet(2, NetKind::Mbx)?;
    // A deliberately tiny credit window (1 KiB / 2 frames per circuit), so
    // the tour can show the STALL hop a credit-starved send records.
    lab.testbed
        .enable_flow_control(FlowSettings::enabled(1024, 2));
    let monitor = MonitorService::spawn(&lab.testbed, lab.edge_machines[1])?;

    let server = lab.testbed.module(lab.edge_machines[0], "sink")?;
    let client = lab.testbed.module(lab.edge_machines[0], "source")?;
    client.set_hop_monitor(monitor.uadd());
    server.set_hop_monitor(monitor.uadd());
    lab.gateways[0].enable_hop_reports(monitor.uadd());

    // Warm up an untraced circuit while the server is still local.
    let dst = client.locate("sink")?;
    client.send(
        dst,
        &Ask {
            n: 0,
            body: String::new(),
        },
    )?;
    server.receive(Some(Duration::from_secs(5)))?;

    // Relocate the server across the gateway. The client keeps the stale
    // UAdd: its next send faults, queries forwarding, and reconnects —
    // and, traced, every detour is reported to the monitor.
    let server = server
        .relocate_to(lab.edge_machines[1])
        .map_err(|e| e.error)?;
    println!("server relocated across the gateway\n");

    let (msg_id, trace) = client.send_traced(
        dst,
        &Ask {
            n: 7,
            body: "traced".into(),
        },
    )?;
    let got = server.receive(Some(Duration::from_secs(5)))?;
    println!(
        "delivered msg {} under trace {trace} (span {}, i.e. {} recovery leg)\n",
        msg_id,
        got.span(),
        got.span()
    );

    // Let the asynchronous hop casts drain, then reassemble the journey.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let chain = loop {
        let chain = monitor.trace_chain(trace.raw());
        if chain.iter().any(|h| h.kind == hop_kind::DELIVER) || std::time::Instant::now() > deadline
        {
            break chain;
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    println!("-- the journey, from monitor records alone --");
    for hop in &chain {
        println!("  {hop}");
    }

    // The same reconstruction works remotely, over the NTCS itself.
    let remote = MonitorService::query_trace(&client, monitor.uadd(), trace.raw())?;
    println!("\nremote TraceQuery returned {} hops\n", remote.len());

    // -- flow control: a dawdling receiver shuts the credit window --
    // The server drains nothing for 300 ms; a bulk send that finds the
    // 2-frame window empty blocks for credit and records a STALL hop on
    // its trace before delivery finally goes through. Which of the four
    // sends stalls depends on when the first grants come back, so the
    // tour shows whichever chain holds the stall.
    println!("-- a credit-starved send, reassembled --");
    let drainer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        let mut got = 0u32;
        while server.receive(Some(Duration::from_millis(500))).is_ok() {
            got += 1;
        }
        got
    });
    let body = "bulk".repeat(64);
    let mut traces = Vec::new();
    for i in 0..4u32 {
        let (_, t) = client.send_traced(
            dst,
            &Ask {
                n: 100 + i,
                body: body.clone(),
            },
        )?;
        traces.push(t);
    }
    let drained = drainer.join().expect("drainer thread");
    println!("receiver woke up and drained {drained} messages");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let chain = loop {
        let stalled = traces
            .iter()
            .map(|t| monitor.trace_chain(t.raw()))
            .find(|c| {
                c.iter().any(|h| h.kind == hop_kind::STALL)
                    && c.iter().any(|h| h.kind == hop_kind::DELIVER)
            });
        match stalled {
            Some(chain) => break chain,
            None if std::time::Instant::now() > deadline => break Vec::new(),
            None => std::thread::sleep(Duration::from_millis(25)),
        }
    };
    for hop in &chain {
        println!("  {hop}");
    }

    // -- live introspection: ask a REMOTE gateway for its flight recorder --
    // ObsQuery rides the same wire as application traffic (control lane,
    // credit-exempt): any ComMod or Gateway answers with a point-in-time
    // snapshot — JSON for machines, a table for humans — so an operator can
    // inspect a box they have no shell on.
    println!("-- remote gateway snapshot (ObsQuery over the NTCS) --");
    let snap = client.query_snapshot(
        lab.gateways[0].uadd(),
        16, // newest 16 flight-recorder events are plenty for a tour
        Some(Duration::from_secs(5)),
    )?;
    println!("{}", snap.table);

    // The monitor aggregates the same per-module answers cluster-wide: one
    // ObsCollect fans out ObsQuery to every target and returns one document.
    let cluster =
        MonitorService::query_obs(&client, monitor.uadd(), &[lab.gateways[0].uadd()], 16)?;
    println!(
        "cluster snapshot: {} bytes of aggregated JSON\n",
        cluster.len()
    );

    // -- substrate selection: the co-location fast path and its handoff --
    // A second, two-machine lab where the server starts co-located with
    // the client: the ND layer binds their circuit to the SHM ring, and a
    // relocation onto the wire-only machine forces a live SHM→TCP handoff
    // (drain-then-switch) mid-conversation — all of it visible in the
    // substrate counters and SUBSTRATE flight-recorder events.
    println!("\n-- substrate selection: SHM fast path, then a live SHM→TCP handoff --");
    let colo = colocated(NetKind::Tcp)?;
    let sink = ServiceHost::spawn(
        &colo.testbed,
        colo.host,
        "colo-sink",
        Box::new(|_, msg| {
            let _ = msg.decode::<Ask>();
        }),
    )?;
    let src = colo.testbed.module(colo.host, "colo-source")?;
    let colo_dst = src.locate("colo-sink")?;
    for n in 0..6 {
        if n == 3 {
            // Mid-conversation, the sink leaves the co-location host.
            sink.relocate(colo.remote)?;
        }
        src.send_reliable(
            colo_dst,
            &Ask {
                n,
                body: String::new(),
            },
            Duration::from_secs(10),
        )?;
    }
    let sub = src.metrics();
    println!(
        "client substrate counters: selects={} fallbacks={} handoffs={}",
        sub.substrate_selects, sub.substrate_fallbacks, sub.substrate_handoffs
    );
    for e in src
        .module_report()
        .events
        .iter()
        .filter(|e| e.kind == event_kind::SUBSTRATE)
    {
        if e.aux >= 0x100 {
            println!(
                "  substrate event: handoff {} -> {}",
                SubstrateBinding::code_name(((e.aux >> 4) & 0xF) as u32),
                SubstrateBinding::code_name((e.aux & 0xF) as u32)
            );
        } else {
            println!(
                "  substrate event: selected {}",
                SubstrateBinding::code_name(e.aux as u32)
            );
        }
    }

    println!("\n-- Prometheus text exposition (excerpt) --");
    let prom = lab.testbed.observability_report();
    for line in prom.lines().filter(|l| {
        l.contains("fault_recovery") || l.contains("ntcs_reconnects") || l.contains("ntcs_flow")
    }) {
        println!("  {line}");
    }

    println!("\n-- human-readable table --");
    println!("{}", lab.testbed.observability_table());

    monitor.stop();
    Ok(())
}
