//! The NTCS dynamic naming service (paper §3).
//!
//! "A single dynamic naming service supporting all name and address
//! resolution within the NTCS, is built **entirely on top of the Nucleus**.
//! As such it is used by the internal Nucleus layers below, as well as by
//! the application modules above. … For all practical purposes, the naming
//! service is nothing more than an application built on the Nucleus;
//! however, it is also used by the Nucleus, forcing the Nucleus to operate
//! recursively."
//!
//! Components:
//!
//! * [`NameDb`] — the name/address database: attribute sets
//!   (the §7 attribute-value naming extension; plain string names are the
//!   `name=` attribute), UAdd generation (§3.2), forwarding resolution
//!   (§3.5), and gateway-topology routes (§4.2).
//! * [`NameServer`] — the Name Server module: an
//!   ordinary module with its own Nucleus binding, serving the protocol in
//!   [`protocol`]. It can run as a primary or as a replica (§7's replicated
//!   implementation extension).
//! * [`NspLayer`] — the Name Service Protocol layer: "the
//!   single naming service access point for all layers within the ComMod",
//!   isolating the service's implementation. It implements
//!   [`ntcs_nucleus::NameResolver`], closing the recursion loop, and fails
//!   over between replicas.
//! * [`ShardMap`] — the shard extension's name/UAdd → replica-group
//!   placement function. The client's leased location cache is the
//!   Nucleus's [`ntcs_nucleus::StaticResolver`]; the NSP-Layer drops its
//!   entries on a pushed invalidation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod db;
pub mod nsp;
pub mod protocol;
pub mod server;

pub use cache::ShardMap;
pub use db::{NameDb, NameRecord};
pub use nsp::NspLayer;
pub use server::{NameServer, NameServerConfig};
