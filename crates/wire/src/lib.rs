//! Data conversion and wire formats for the NTCS (paper §5).
//!
//! The paper's inter-machine data-conversion scheme has three pieces:
//!
//! * **Shift mode** (§5.2) — internal message *headers* are built from 4-byte
//!   integers and moved into the byte stream by explicit high-level
//!   shift/mask operations, making them endianness-proof and fixed-length.
//!   See [`shift`].
//! * **Packed mode** (§5.1) — application messages between *incompatible*
//!   machines are converted at each end by application-supplied pack/unpack
//!   routines into a character-representation byte-stream transport format
//!   (the paper's `sprintf`/`sscanf` analogy). See [`pack`].
//! * **Image mode** (§5.1) — messages between *identical* machines are
//!   byte-copied memory images, with no conversion at all. We model a
//!   machine's native memory image faithfully (integer byte order follows the
//!   simulated machine type), so an image sent between incompatible machines
//!   is *really* garbled — exactly the failure the mode decision exists to
//!   prevent. See [`image`].
//!
//! The decision of which mode to apply is made by the lowest layer, where the
//! destination machine type is visible ([`ConvMode::select`]); the
//! application only supplies the conversion routines (the [`Message`] trait,
//! typically generated by [`ntcs_message!`], mirroring the URSA project's
//! automatic pack/unpack generator).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod header;
pub mod image;
pub mod message;
pub mod mode;
pub mod pack;
pub mod shift;

pub use bytes;
pub use frame::Frame;
pub use header::{FrameHeader, FrameType, HeaderFlags, HEADER_LEN};
pub use image::{ImageReader, NativeLayout};
pub use message::{encode_payload, InboundPayload, Message};
pub use mode::ConvMode;
pub use pack::{PackReader, PackWriter, Packable};
pub use shift::{ShiftReader, ShiftWriter};
