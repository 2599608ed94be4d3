//! The uniform channel/listener interface every native IPCS exposes.
//!
//! This is *below* the STD-IF: the ND-Layer driver for each IPCS consumes
//! these traits and presents the portable STD-IF above. The interface is
//! message-framed and duplex, matching what both Apollo MBX and a
//! length-prefixed TCP stream naturally provide.

use std::time::Duration;

use bytes::Bytes;
use ntcs_addr::Result;

/// One endpoint of an established duplex IPC channel.
///
/// Implementations are internally synchronized: `send` and `recv` may be
/// called concurrently from different threads (the Nucleus sends from the
/// caller's thread while a reader thread drains inbound frames).
pub trait IpcsChannel: Send + Sync + std::fmt::Debug {
    /// Sends one framed message.
    ///
    /// # Errors
    ///
    /// Returns [`ntcs_addr::NtcsError::ConnectionClosed`] if the channel is
    /// closed, or [`ntcs_addr::NtcsError::Ipcs`] on substrate failure.
    fn send(&self, frame: Bytes) -> Result<()>;

    /// Receives one framed message, waiting up to `timeout` (or forever if
    /// `None`).
    ///
    /// # Errors
    ///
    /// Returns [`ntcs_addr::NtcsError::Timeout`] on timeout and
    /// [`ntcs_addr::NtcsError::ConnectionClosed`] once the peer closes or
    /// its machine crashes.
    fn recv(&self, timeout: Option<Duration>) -> Result<Bytes>;

    /// Closes the channel; both endpoints observe
    /// [`ntcs_addr::NtcsError::ConnectionClosed`] afterwards. Idempotent.
    fn close(&self);

    /// Whether the channel has been closed (locally or by the peer).
    fn is_closed(&self) -> bool;

    /// Human-readable peer description, for traces and the monitor.
    fn peer_label(&self) -> String;
}

/// A listening endpoint that accepts inbound channels.
pub trait IpcsListener: Send + Sync + std::fmt::Debug {
    /// Accepts one inbound channel, waiting up to `timeout` (or forever if
    /// `None`).
    ///
    /// # Errors
    ///
    /// Returns [`ntcs_addr::NtcsError::Timeout`] on timeout,
    /// [`ntcs_addr::NtcsError::WouldBlock`] for a zero-timeout poll with
    /// nothing pending, and [`ntcs_addr::NtcsError::ShutDown`] once closed.
    fn accept(&self, timeout: Option<Duration>) -> Result<Box<dyn IpcsChannel>>;

    /// Stops accepting and releases the listening resource. Idempotent.
    fn close(&self);

    /// Whether [`IpcsListener::close`] has run.
    fn is_closed(&self) -> bool;
}
