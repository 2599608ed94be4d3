//! The NTCS communication **Nucleus** (paper §2.2).
//!
//! "Internally, the NTCS is designed around a single communication Nucleus,
//! which provides a fundamental set of protocols and access points supporting
//! all NTCS functions. The Nucleus is bound with every NTCS module … and
//! \[is\] completely passive."
//!
//! Layering, bottom-up:
//!
//! * **ND-Layer** ([`nd`]) — adapts each native IPCS to the uniform STD-IF,
//!   providing *local virtual circuits* (LVCs). All machine/network
//!   dependencies live below this interface. No relocation or recovery here:
//!   "notification is simply passed upward", with only a retry on open.
//! * **IP-Layer** ([`proto`], plus the establishment logic in [`lcm`]) —
//!   *internet virtual circuits* (IVCs): a single LVC on the local network,
//!   or a chain of LVCs spliced through Gateways. The route is obtained from
//!   the naming service (centralized topology) and embedded in the open
//!   frame, so circuit establishment is fully decentralized and **no
//!   inter-gateway protocol exists** (§4.2).
//! * **LCM-Layer** ([`lcm`]) — Logical Connection Maintenance: UAdd-addressed
//!   send/receive with *no explicit open/close*, a forwarding-address table,
//!   the address-fault handler that relocates peers after dynamic
//!   reconfiguration (§3.5), and a connectionless protocol.
//!
//! The naming service is **not** here: it is an application built on this
//! Nucleus (crate `ntcs-naming`), injected back in through the
//! [`NameResolver`] trait — which is what makes the Nucleus recursive (§3.1).
//! The recursion instrumentation the paper wished for (§6.2) lives in
//! [`trace`], and the §6.3 broken-Name-Server-circuit recursion is
//! reproducible via [`NucleusConfig::ns_fault_patch`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod lcm;
pub mod metrics;
pub mod nd;
pub mod obs;
pub mod proto;
pub mod resolver;
pub mod retry;
pub mod supervisor;
pub mod trace;

pub use config::{NameCacheSettings, NucleusConfig, SubstrateSettings};
pub use lcm::{
    ControlIntercept, Delivery, GatewayHandler, Nucleus, Received, SendOpts, SendReport,
};
pub use metrics::{NucleusMetrics, NucleusMetricsSnapshot};
pub use nd::{Lvc, NdLayer, SubstrateBinding};
pub use ntcs_flow::{FlowPolicy, FlowSettings, Lane, CONTROL_TYPE_MAX};
pub use obs::{
    cluster_snapshot_json, dump_snapshot, event_kind, hop_kind, json_escape,
    render_module_snapshot_json, render_module_table, FlightRecorder, Histogram, HistogramSnapshot,
    HopRecord, MetricsRegistry, ModuleReport, NucleusHistograms, ObsCollect, ObsCollectReply,
    ObsEvent, ObsQuery, ObsReply, RecordedEvent, ReportSource, TraceId, TraceIdGen, TraceQuery,
    TraceReply, HISTOGRAM_BUCKETS,
};
pub use proto::{Hop, OpenPayload};
pub use resolver::{LeaseProbe, NameResolver, ResolvedModule, RouteInfo, StaticResolver};
pub use retry::{BackoffSchedule, RetryPolicy};
pub use supervisor::{
    BreakerConfig, BreakerRegistry, CircuitBreaker, CircuitHealth, DeadLetter, DeadLetterSink,
    RetransmissionQueue,
};
pub use trace::{Layer, LayerTrace, TraceEvent};
