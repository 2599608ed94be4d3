//! The §6.1 recursion scenario, narrated live: a first send with time
//! correction and monitoring enabled, traced layer by layer — and the §6.3
//! Name-Server-circuit pathology, both unpatched (runaway) and patched.
//!
//! Run with: `cargo run --example recursion_trace`

use std::sync::Arc;
use std::time::Duration;

use ntcs::{ComMod, NetKind, NucleusConfig};
use ntcs_drts::host::Handler;
use ntcs_drts::{DrtsRuntime, MonitorService, ServiceHost, TimeService};
use ntcs_repro::messages::{Answer, Ask};
use ntcs_repro::scenarios::single_net;

fn main() -> ntcs::Result<()> {
    let lab = single_net(3, NetKind::Mbx)?;
    let ts = TimeService::spawn(&lab.testbed, lab.machines[0])?;
    let monitor = MonitorService::spawn(&lab.testbed, lab.machines[0])?;
    let echo: Handler = Box::new(|commod, msg| {
        if let Ok(a) = msg.decode::<Ask>() {
            let _ = commod.reply(
                &msg,
                &Answer {
                    n: a.n,
                    body: String::new(),
                },
            );
        }
    });
    let _echo = ServiceHost::spawn(&lab.testbed, lab.machines[2], "echo", echo)?;

    let client = Arc::new(lab.testbed.module(lab.machines[1], "traced-client")?);
    let _rt = DrtsRuntime::attach(
        &client,
        Some(ts.uadd()),
        Some(monitor.uadd()),
        Duration::from_secs(3600),
    );
    client.trace().clear();

    println!("=== §6.1: the first send (time + naming + monitor recursion) ===\n");
    let dst = client.locate("echo")?;
    client.send_receive(
        dst,
        &Ask {
            n: 1,
            body: String::new(),
        },
        Some(Duration::from_secs(5)),
    )?;
    println!("{}", client.trace().render());
    println!(
        "max recursion depth observed: {}\n",
        client.nucleus().gauge().max_seen()
    );

    println!("=== §6.3: broken Name-Server circuit ===\n");
    for patched in [false, true] {
        let mut config = NucleusConfig::new(lab.machines[1], "fragile");
        config.well_known = lab.testbed.ns_well_known();
        config.max_recursion_depth = 12;
        config.ns_fault_patch = patched;
        let module =
            ComMod::bind_with_config(lab.testbed.world(), config, lab.testbed.ns_servers())?;
        module.register(if patched { "fragile-p" } else { "fragile-u" })?;

        lab.testbed
            .world()
            .set_partition(lab.machines[0], lab.machines[1], true);
        std::thread::sleep(Duration::from_millis(50));
        let err = module.locate("anything").unwrap_err();
        println!(
            "{} fault handler: error = {err}, max recursion depth = {}",
            if patched { "PATCHED  " } else { "UNPATCHED" },
            module.nucleus().gauge().max_seen()
        );
        lab.testbed
            .world()
            .set_partition(lab.machines[0], lab.machines[1], false);
        module.shutdown();
    }
    println!(
        "\nthe unpatched handler recursed to the guard (the paper saw a literal\n\
         stack overflow); the patch bounds it by special-casing the Name Server\n\
         in the LCM layer — which, as the paper admits, 'should not know of the\n\
         Name Server' at all."
    );
    monitor.stop();
    ts.stop();
    Ok(())
}
