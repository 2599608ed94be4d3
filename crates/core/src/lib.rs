//! **NTCS** — a portable, network-transparent communication system for
//! message-based applications.
//!
//! This crate is the public face of a from-scratch reproduction of
//! M. P. Zeleznik's NTCS (*Proc. 6th ICDCS*, 1986): layered middleware that
//! lets large-grain, loosely-coupled application modules exchange messages
//! by **logical name**, while the system handles physical location,
//! underlying communication details, internetting across disjoint networks,
//! inter-machine data conversion, and **dynamic reconfiguration** (modules
//! relocating between machines while the system runs).
//!
//! # Quick start
//!
//! ```
//! use ntcs::{Testbed, MachineType, NetKind, ntcs_message};
//! use std::time::Duration;
//!
//! ntcs_message! {
//!     /// The application defines its messages; pack/unpack is generated.
//!     pub struct Hello: 4001 { pub text: String }
//! }
//!
//! # fn main() -> ntcs::Result<()> {
//! // Build a world: one mailbox network, a VAX and a Sun, a Name Server.
//! let mut tb = Testbed::builder();
//! let net = tb.add_network(NetKind::Mbx, "lab");
//! let ns_host = tb.add_machine(MachineType::Sun, "ns-host", &[net])?;
//! let vax = tb.add_machine(MachineType::Vax, "vax1", &[net])?;
//! tb.name_server_on(ns_host);
//! let testbed = tb.start()?;
//!
//! // Two modules: a server that registers a name, a client that locates it.
//! let server = testbed.module(ns_host, "greeter")?;
//! let client = testbed.module(vax, "caller")?;
//!
//! let dst = client.locate("greeter")?;
//! client.send(dst, &Hello { text: "hi over the NTCS".into() })?;
//! let msg = server.receive(Some(Duration::from_secs(5)))?;
//! let hello: Hello = msg.decode()?;
//! assert_eq!(hello.text, "hi over the NTCS");
//! # Ok(())
//! # }
//! ```
//!
//! # Architecture (paper Figs. 2-1 … 2-4)
//!
//! Every application module binds a [`ComMod`]; "to the application, the
//! ComMod *is* the NTCS". Internally the ComMod stacks the **ALI** layer
//! (this crate) over the **NSP** layer (`ntcs-naming`) over the
//! communication **Nucleus** (`ntcs-nucleus`: LCM / IP / ND layers) over the
//! native IPCSs (`ntcs-ipcs`: Apollo-style mailboxes and real TCP).
//! [`ComMod::architecture`] returns that stack as live data and renders the
//! paper's figures from the running system.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod commod;
pub mod hooks;
pub mod testbed;

pub use arch::{ArchReport, LayerInfo};
pub use commod::{ComMod, Incoming, RelocateError};
pub use hooks::{DeadLetterHook, DrtsHooks, MonitorEvent, MonitorEventKind};
pub use testbed::{ConfigHook, Testbed, TestbedBuilder};

// The vocabulary a downstream user needs, re-exported at the root.
pub use ntcs_addr::{
    AttrQuery, AttrSet, Endianness, Generation, LogicalName, MachineId, MachineType, NetworkId,
    NtcsError, PhysAddr, Result, UAdd,
};
pub use ntcs_gateway::Gateway;
pub use ntcs_ipcs::{NetKind, SimClock, World};
pub use ntcs_naming::{NameServer, NspLayer};
pub use ntcs_nucleus::{
    cluster_snapshot_json, dump_snapshot, event_kind, hop_kind, json_escape,
    render_module_snapshot_json, render_module_table, BreakerConfig, CircuitHealth, DeadLetter,
    FlightRecorder, FlowPolicy, FlowSettings, Histogram, HistogramSnapshot, HopRecord, Lane, Layer,
    LayerTrace, MetricsRegistry, ModuleReport, Nucleus, NucleusConfig, NucleusMetricsSnapshot,
    ObsCollect, ObsCollectReply, ObsQuery, ObsReply, RecordedEvent, RetryPolicy, SubstrateBinding,
    SubstrateSettings, TraceEvent, TraceId, TraceQuery, TraceReply, CONTROL_TYPE_MAX,
};
pub use ntcs_wire::{ntcs_message, ConvMode, InboundPayload, Message, Packable};
