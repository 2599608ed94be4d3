//! DRTS end-to-end tests: the §6.1 recursion scenario, time correction on
//! skewed clocks, process control, and the error log.

use std::sync::Arc;
use std::time::Duration;

use ntcs::{MachineType, NetKind, Testbed};
use ntcs_wire::ntcs_message;

use crate::errlog::{log_error, ErrorLogService};
use crate::host::{Handler, ProcessController, ServiceHost};
use crate::monitor::MonitorService;
use crate::protocol::{CtlList, CtlRelocate, CtlReply};
use crate::runtime::DrtsRuntime;
use crate::time::TimeService;

ntcs_message! {
    pub struct Work: 900 { pub n: u32 }
    pub struct Done: 901 { pub n: u32 }
}

const T: Option<Duration> = Some(Duration::from_secs(10));

struct Lab {
    testbed: Testbed,
    machines: Vec<ntcs::MachineId>,
}

fn lab(skews_us: &[i64]) -> Lab {
    let mut tb = Testbed::builder();
    let net = tb.add_network(NetKind::Mbx, "lab");
    let mut machines = Vec::new();
    for (i, &skew) in skews_us.iter().enumerate() {
        let mt = [MachineType::Sun, MachineType::Vax, MachineType::Apollo][i % 3];
        machines.push(
            tb.add_machine_with_skew(mt, &format!("h{i}"), &[net], skew, 0.0)
                .unwrap(),
        );
    }
    tb.name_server_on(machines[0]);
    Lab {
        testbed: tb.start().unwrap(),
        machines,
    }
}

#[test]
fn time_sync_corrects_skewed_clock() {
    // h0 (reference, zero skew) hosts the time service; h1 is 80 ms off.
    let lab = lab(&[0, 80_000]);
    let ts = TimeService::spawn(&lab.testbed, lab.machines[0]).unwrap();
    let client = lab.testbed.module(lab.machines[1], "skewed").unwrap();
    let clock = lab.testbed.world().clock(lab.machines[1]).unwrap();
    assert!(clock.error_us() > 50_000, "precondition: clock is skewed");
    let stats = TimeService::sync(&client, &clock, ts.uadd(), 5).unwrap();
    assert!(
        stats.residual_error_us < 20_000,
        "correction left {} µs of error (rtt {} µs)",
        stats.residual_error_us,
        stats.best_rtt_us
    );
    ts.stop();
}

#[test]
fn first_send_recursion_scenario() {
    // The §6.1 scenario: first send with monitoring and time correction
    // enabled triggers naming + time + monitor traffic; steady-state sends
    // do not.
    let lab = lab(&[0, 30_000, 0]);
    let ts = TimeService::spawn(&lab.testbed, lab.machines[0]).unwrap();
    let monitor = MonitorService::spawn(&lab.testbed, lab.machines[2]).unwrap();

    // A plain echo server (no hooks).
    let echo_handler: Handler = Box::new(|commod, msg| {
        if let Ok(w) = msg.decode::<Work>() {
            let _ = commod.reply(&msg, &Done { n: w.n });
        }
    });
    let _echo = ServiceHost::spawn(&lab.testbed, lab.machines[0], "echo", echo_handler).unwrap();

    // The instrumented client, with both DRTS services wired in.
    let client = Arc::new(lab.testbed.module(lab.machines[1], "client").unwrap());
    let rt = DrtsRuntime::attach(
        &client,
        Some(ts.uadd()),
        Some(monitor.uadd()),
        Duration::from_secs(3600), // sync once, then cached
    );

    let dst = client.locate("echo").unwrap();
    let before = client.metrics();
    let reply = client.send_receive(dst, &Work { n: 1 }, T).unwrap();
    assert_eq!(reply.decode::<Done>().unwrap().n, 1);
    let after_first = client.metrics();

    // First send: a time exchange happened, monitor records were cast, and
    // the naming service was consulted — message amplification.
    assert!(rt.time_exchanges.load(std::sync::atomic::Ordering::Relaxed) >= 1);
    assert!(rt.monitor_casts.load(std::sync::atomic::Ordering::Relaxed) >= 1);
    assert!(after_first.ns_lookups > before.ns_lookups);
    let first_cost = after_first.sends - before.sends;

    // Steady state: no naming, no time exchange; only the payload + monitor.
    let reply = client.send_receive(dst, &Work { n: 2 }, T).unwrap();
    assert_eq!(reply.decode::<Done>().unwrap().n, 2);
    let after_second = client.metrics();
    let second_cost = after_second.sends - after_first.sends;
    assert!(
        second_cost < first_cost,
        "first send cost {first_cost} messages, second {second_cost}"
    );
    assert_eq!(after_second.ns_lookups, after_first.ns_lookups);

    // The monitor really did observe the client's traffic (recursively,
    // over the NTCS itself).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let stats = monitor.stats(client.my_uadd().raw());
        if stats.sends >= 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "monitor never saw the client's sends: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    monitor.stop();
    ts.stop();
}

#[test]
fn process_controller_relocates_service_over_the_ntcs() {
    let lab = lab(&[0, 0, 0]);
    let ctl = ProcessController::spawn(&lab.testbed, lab.machines[0]).unwrap();

    let worker_handler: Handler = Box::new(|commod, msg| {
        if let Ok(w) = msg.decode::<Work>() {
            let _ = commod.reply(&msg, &Done { n: w.n * 10 });
        }
    });
    let worker =
        ServiceHost::spawn(&lab.testbed, lab.machines[1], "worker", worker_handler).unwrap();
    let worker_uadd_before = worker.uadd();
    ctl.manage(worker);

    let operator = lab.testbed.module(lab.machines[2], "operator").unwrap();
    let worker_addr = operator.locate("worker").unwrap();
    let reply = operator
        .send_receive(worker_addr, &Work { n: 3 }, T)
        .unwrap();
    assert_eq!(reply.decode::<Done>().unwrap().n, 30);

    // Ask the controller — over the NTCS — to move the worker to machine 2.
    let reply = operator
        .send_receive(
            ctl.uadd(),
            &CtlRelocate {
                service: "worker".into(),
                target_machine: lab.machines[2].0,
            },
            T,
        )
        .unwrap();
    let ctl_reply: CtlReply = reply.decode().unwrap();
    assert!(ctl_reply.ok, "{}", ctl_reply.detail);

    // The operator keeps using the OLD address; transparency does the rest.
    // It learns the move either from the Name Server's invalidation push
    // (which names the replacement, so the send never faults) or from a
    // §3.5 address fault and forwarding query; both count an invalidation.
    let reply = operator
        .send_receive(worker_addr, &Work { n: 4 }, T)
        .unwrap();
    assert_eq!(reply.decode::<Done>().unwrap().n, 40);
    let worker_uadd_after = operator.locate("worker").unwrap();
    assert_ne!(worker_uadd_after, worker_uadd_before);
    assert_eq!(reply.src(), worker_uadd_after, "reply from the new home");
    assert!(operator.metrics().ns_invalidations >= 1);

    // Listing shows the new placement.
    let reply = operator
        .send_receive(ctl.uadd(), &CtlList::default(), T)
        .unwrap();
    let listing: CtlReply = reply.decode().unwrap();
    assert!(listing.detail.contains("worker"));
    assert!(listing.detail.contains(&lab.machines[2].to_string()));
    ctl.stop();
}

#[test]
fn error_log_collects_reports() {
    let lab = lab(&[0, 0]);
    let errlog = ErrorLogService::spawn(&lab.testbed, lab.machines[0]).unwrap();
    let module = lab.testbed.module(lab.machines[1], "reporter").unwrap();
    let log_addr = module.locate(crate::errlog::ERROR_LOG_NAME).unwrap();
    assert_eq!(log_addr, errlog.uadd());
    for i in 0..3 {
        log_error(
            &module,
            log_addr,
            "LCM",
            &ntcs::NtcsError::ConnectionClosed,
            &format!("probe {i}"),
            i,
        )
        .unwrap();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if errlog.tail(10).len() >= 3 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "records never arrived"
        );
        std::thread::sleep(Duration::from_millis(30));
    }
    let remote = ErrorLogService::query(&module, log_addr, 2).unwrap();
    assert_eq!(remote.len(), 2);
    assert_eq!(remote[1].detail, "probe 2");
    assert_eq!(remote[1].layer, "LCM");
    errlog.stop();
}

#[test]
fn monitor_remote_query() {
    let lab = lab(&[0, 0]);
    let monitor = MonitorService::spawn(&lab.testbed, lab.machines[0]).unwrap();
    let client = Arc::new(lab.testbed.module(lab.machines[1], "probe").unwrap());
    let _rt = DrtsRuntime::attach(&client, None, Some(monitor.uadd()), Duration::from_secs(1));
    // Generate an event, then query over the NTCS.
    let self_addr = client.locate("probe").unwrap();
    let _ = client.ping(self_addr, T);
    let _ = client.cast(monitor.uadd(), &Work { n: 0 }); // ignored kind
    std::thread::sleep(Duration::from_millis(100));
    let stats = MonitorService::query(&client, monitor.uadd(), 0).unwrap();
    assert!(stats.total >= 1, "{stats:?}");
    monitor.stop();
}
