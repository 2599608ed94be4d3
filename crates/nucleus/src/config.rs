//! Nucleus configuration, including the well-known address preload (§3.4)
//! and the §6.3 fault-handler patch toggle.
//!
//! Only values that some caller sets are fields here. Budgets that every
//! module runs with the same value (open and Name-Server timeouts, the
//! retry policies, the breaker, queue capacities) are constants beside
//! their one reader: `lcm.rs` and the NSP layer.

use std::time::Duration;

use ntcs_addr::{MachineId, PhysAddr, UAdd};
use ntcs_flow::FlowSettings;

use crate::proto::Hop;

/// Default lease on a resolved UAdd → location entry in the
/// [`crate::StaticResolver`]; the Name Server's lease registry defaults
/// from it too, so it pushes invalidations to every client still
/// holding a lease.
pub const NAME_LEASE_TTL: Duration = Duration::from_secs(2);

/// Configuration for one module's Nucleus binding.
#[derive(Debug, Clone)]
pub struct NucleusConfig {
    /// The machine this module runs on. Set by every binder (`Testbed`,
    /// `ComMod::bind*`, and relocation, which re-binds on the new host).
    pub machine: MachineId,
    /// Module name for traces and listener hints (not the registered logical
    /// name — naming is the naming service's business). Set by every binder.
    pub module_hint: String,
    /// Well-known addresses loaded into the address tables at initialization
    /// (§3.4): the Name Server and any prime gateways. Each entry maps a
    /// well-known UAdd to the physical addresses it listens on. Set by the
    /// `Testbed` and the gateway from the deployment.
    pub well_known: Vec<(UAdd, Vec<PhysAddr>)>,
    /// Pre-configured gateway chain for reaching the Name Server from this
    /// machine's networks (empty when the Name Server is directly
    /// reachable). These are the "prime" gateways of §3.4. Set by the
    /// gateway and the multi-network scenarios.
    pub ns_route: Vec<Hop>,
    /// Whether the LCM address-fault handler applies the §6.3 patch
    /// (special-cases a broken Name-Server circuit instead of recursing into
    /// the naming service). `true` is the shipped behaviour; `false`
    /// reproduces the stack-overflow bug, which `tests/recursion.rs` and
    /// `examples/recursion_trace.rs` do.
    pub ns_fault_patch: bool,
    /// Recursion depth at which the guard fires — the stand-in for the
    /// paper's literal stack overflow (§6.3). The recursion test and
    /// example lower it so the unpatched run overflows quickly.
    pub max_recursion_depth: u32,
    /// Receiver-side duplicate-suppression window for reliable sends: how
    /// many recently delivered `(source, msg_id)` keys are remembered. A
    /// duplicate arriving after its key was evicted is re-delivered, so the
    /// window bounds memory at the cost of exactly-once strength.
    /// `tests/reliable.rs` shrinks it to 4 to check that constant eviction
    /// never lets a current retransmit through twice nor dead-letters a
    /// healthy send.
    pub dedupe_window: usize,
    /// Per-circuit credit flow-control settings (window sizes, replenish
    /// watermark, exhaustion policy). Set through
    /// `Testbed::enable_flow_control` by the slow-consumer chaos scenario,
    /// the fault matrix and `ntcsbench`'s credits run. Off by default:
    /// `flow.on_off_x` read 1.06 / 1.03 at the last anchor, and its spread
    /// across runs is unresolved, so credits have not shown a win.
    pub flow: FlowSettings,
    /// Whether the flight recorder captures events. On by default: the
    /// recorder is the always-available post-mortem, and its hot-path cost
    /// is bounded by sampling (ring size and sampling rate are
    /// [`crate::obs::RECORDER_CAPACITY`] and
    /// [`crate::obs::RECORDER_HOT_SAMPLE_SHIFT`]). `ntcsbench` switches it
    /// off to measure that cost (`obs.recorder_on_off_x`).
    pub recorder: bool,
    /// Lease on a resolved UAdd → location entry: the local table serves it
    /// without a naming round trip for this long, then revalidates. Bounds
    /// worst-case staleness when an invalidation push is lost; the fault
    /// matrix's dropped-invalidation cell shortens it to check that bound.
    pub name_lease_ttl: Duration,
}

impl NucleusConfig {
    /// A sensible default configuration for a module on `machine`.
    #[must_use]
    pub fn new(machine: MachineId, module_hint: impl Into<String>) -> Self {
        NucleusConfig {
            machine,
            module_hint: module_hint.into(),
            well_known: Vec::new(),
            ns_route: Vec::new(),
            ns_fault_patch: true,
            max_recursion_depth: 64,
            dedupe_window: 4096,
            flow: FlowSettings::disabled(),
            recorder: true,
            name_lease_ttl: NAME_LEASE_TTL,
        }
    }

    /// Adds a well-known address entry (builder style).
    #[must_use]
    pub fn with_well_known(mut self, uadd: UAdd, addrs: Vec<PhysAddr>) -> Self {
        self.well_known.push((uadd, addrs));
        self
    }

    /// Sets the prime-gateway route to the Name Server (builder style).
    #[must_use]
    pub fn with_ns_route(mut self, route: Vec<Hop>) -> Self {
        self.ns_route = route;
        self
    }

    /// Replaces the reliable-delivery dedupe window (builder style;
    /// test/experiment hook).
    #[must_use]
    pub fn with_dedupe_window(mut self, window: usize) -> Self {
        self.dedupe_window = window.max(1);
        self
    }

    /// Enables credit flow control with the given settings (builder
    /// style). `settings.enabled` is forced on.
    #[must_use]
    pub fn with_flow_control(mut self, mut settings: FlowSettings) -> Self {
        settings.enabled = true;
        self.flow = settings;
        self
    }

    /// Disables the flight recorder (builder style; bench/experiment
    /// hook — snapshots then carry no events).
    #[must_use]
    pub fn without_recorder(mut self) -> Self {
        self.recorder = false;
        self
    }

    /// Replaces the name-lease TTL (builder style).
    #[must_use]
    pub fn with_name_lease_ttl(mut self, ttl: Duration) -> Self {
        self.name_lease_ttl = ttl;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = NucleusConfig::new(MachineId(0), "mod");
        assert!(c.ns_fault_patch);
        assert!(c.max_recursion_depth >= 8);
        assert!(c.well_known.is_empty());
        assert!(c.dedupe_window >= 64, "dedupe window must be useful");
        assert!(!c.flow.enabled, "flow control must be opt-in");
        assert!(c.recorder, "flight recorder must be on by default");
        assert_eq!(c.name_lease_ttl, NAME_LEASE_TTL);
    }

    #[test]
    fn recorder_switches_off() {
        assert!(
            !NucleusConfig::new(MachineId(0), "m")
                .without_recorder()
                .recorder
        );
    }

    #[test]
    fn builders_compose() {
        let c = NucleusConfig::new(MachineId(1), "m")
            .with_well_known(UAdd::NAME_SERVER, vec![])
            .with_dedupe_window(8)
            .with_flow_control(FlowSettings::enabled(8192, 32))
            .with_name_lease_ttl(Duration::from_millis(300));
        assert_eq!(c.well_known.len(), 1);
        assert_eq!(c.dedupe_window, 8);
        assert!(c.flow.enabled);
        assert_eq!(c.flow.window_bytes, 8192);
        assert_eq!(c.name_lease_ttl, Duration::from_millis(300));
    }
}
