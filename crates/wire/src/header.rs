//! The internal NTCS message header, carried in shift mode (paper §5.2).
//!
//! "For internal message headers, a mode efficient enough to be used for all
//! transfers, regardless of destination, was desired. … In shift mode, all
//! message headers are built with structures of four byte integers, which can
//! be bit field divided as required."
//!
//! [`FrameHeader`] is that structure: twenty-one 32-bit integers (84 bytes),
//! fixed length on every machine, encoded with [`crate::ShiftWriter`]. The
//! header precedes every frame the Nucleus sends; the payload that follows is
//! in packed or image mode (application data) or packed mode (NTCS control
//! data fields, which the paper notes are rare enough that the conversion
//! overhead "is not bothersome").
//!
//! For experiment E4 the header also has a character-format encoding
//! ([`FrameHeader::to_packed`]) used *only* as the baseline the paper argued
//! against ("character conversion was viewed as excessive overhead, and
//! results in undesirable variable length … messages").

use ntcs_addr::{MachineType, NtcsError, Result, UAdd};

use crate::mode::ConvMode;
use crate::pack::{PackReader, PackWriter};
use crate::shift::{ShiftReader, ShiftWriter};

/// Length in bytes of the fixed shift-mode header.
pub const HEADER_LEN: usize = 21 * 4;

/// Magic number opening every NTCS frame (`"NTCS"` in ASCII).
pub const MAGIC: u32 = 0x4E54_4353;

/// Protocol version carried in every header. Version 2 appended the causal
/// tracing words (`trace_id`, `span`, `sent_at_us`).
pub const VERSION: u32 = 2;

/// The kind of frame, interpreted by the Nucleus layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameType {
    /// ND/LCM: open a local virtual circuit (carries endpoint info payload).
    LvcOpen,
    /// Acknowledges an `LvcOpen` (carries responder endpoint info payload).
    LvcOpenAck,
    /// IP: open an internet virtual circuit through a gateway chain (carries
    /// the remaining route as payload).
    IvcOpen,
    /// Acknowledges end-to-end IVC establishment.
    IvcOpenAck,
    /// Application data on an established circuit.
    Data,
    /// Orderly close of the circuit.
    Close,
    /// LCM connectionless datagram (§2.2: "it also provides a connectionless
    /// protocol").
    Datagram,
    /// Liveness probe.
    Ping,
    /// Liveness reply.
    Pong,
    /// IP/gateway: abort an IVC after a downstream failure (§4.3 teardown
    /// cascade).
    IvcAbort,
    /// Flow control: a receiver's delta grant of inbox capacity back to
    /// the sender. Header-only: `msg_id` carries the granted bytes and
    /// `aux` the granted frames. Gateways relay it opaquely, so a grant
    /// crosses a spliced IVC chain end-to-end unchanged.
    Credit,
}

impl FrameType {
    /// Wire code of this frame type.
    #[must_use]
    pub fn wire_code(self) -> u32 {
        match self {
            FrameType::LvcOpen => 1,
            FrameType::LvcOpenAck => 2,
            FrameType::IvcOpen => 3,
            FrameType::IvcOpenAck => 4,
            FrameType::Data => 5,
            FrameType::Close => 6,
            FrameType::Datagram => 7,
            FrameType::Ping => 8,
            FrameType::Pong => 9,
            FrameType::IvcAbort => 10,
            FrameType::Credit => 12,
        }
    }

    /// Inverse of [`FrameType::wire_code`].
    ///
    /// # Errors
    ///
    /// Returns [`NtcsError::Protocol`] for an unknown code.
    pub fn from_wire_code(code: u32) -> Result<Self> {
        Ok(match code {
            1 => FrameType::LvcOpen,
            2 => FrameType::LvcOpenAck,
            3 => FrameType::IvcOpen,
            4 => FrameType::IvcOpenAck,
            5 => FrameType::Data,
            6 => FrameType::Close,
            7 => FrameType::Datagram,
            8 => FrameType::Ping,
            9 => FrameType::Pong,
            10 => FrameType::IvcAbort,
            12 => FrameType::Credit,
            other => {
                return Err(NtcsError::Protocol(format!(
                    "unknown frame type code {other}"
                )))
            }
        })
    }
}

/// Bit-field flags word of the header ("bit field divided as required").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeaderFlags {
    /// Payload conversion mode (bit 0).
    pub mode: u32,
    /// The sender expects a reply correlated via `msg_id` (bit 1).
    pub reply_expected: bool,
    /// This frame is connectionless (bit 2).
    pub connectionless: bool,
    /// The sender wants an LCM-level acknowledgement and may retransmit
    /// (bit 3) — the optional reliable-delivery extension the paper
    /// declined to build (§3.5's "modified sliding window protocol").
    pub reliable: bool,
}

impl HeaderFlags {
    fn to_word(self) -> u32 {
        (self.mode & 1)
            | (u32::from(self.reply_expected) << 1)
            | (u32::from(self.connectionless) << 2)
            | (u32::from(self.reliable) << 3)
    }

    fn from_word(w: u32) -> Self {
        HeaderFlags {
            mode: w & 1,
            reply_expected: w & 0b10 != 0,
            connectionless: w & 0b100 != 0,
            reliable: w & 0b1000 != 0,
        }
    }

    /// The payload conversion mode encoded in these flags.
    #[must_use]
    pub fn conv_mode(self) -> ConvMode {
        ConvMode::from_wire_bit(self.mode)
    }

    /// Sets the payload conversion mode.
    pub fn set_conv_mode(&mut self, mode: ConvMode) {
        self.mode = mode.wire_bit();
    }
}

/// The fixed-size internal message header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameHeader {
    /// Frame kind.
    pub frame_type: FrameType,
    /// Flag bits.
    pub flags: HeaderFlags,
    /// Source module address (may be a TAdd during bootstrap, §3.4).
    pub src: UAdd,
    /// Destination module address.
    pub dst: UAdd,
    /// Per-sender message id, used for reply correlation.
    pub msg_id: u64,
    /// The `msg_id` this frame replies to (0 if none).
    pub reply_to: u64,
    /// Machine type of the *originating* endpoint (forwarded unchanged
    /// through gateways so the far end can select the conversion mode).
    pub src_machine: MachineType,
    /// Error code for fault-carrying frames (0 = none).
    pub error_code: u32,
    /// Multipurpose word: message type id on `Data`/`Datagram` frames, hop
    /// index on `IvcOpen`, otherwise 0.
    pub aux: u32,
    /// Payload length in bytes.
    pub payload_len: u32,
    /// Causal trace id stamped on the originating application send (0 =
    /// untraced). Forwarded unchanged through gateways, retransmissions,
    /// and address-fault re-establishment so every hop can report against
    /// the same journey.
    pub trace_id: u64,
    /// Span counter within a trace: bumped per recovery leg (relocation
    /// retry, retransmission) so detours are distinguishable in hop chains.
    pub span: u32,
    /// Originating send timestamp in corrected virtual microseconds (0 =
    /// unknown); lets the receiving LCM compute send→deliver latency.
    pub sent_at_us: i64,
}

impl FrameHeader {
    /// Creates a header with the given type and endpoints; remaining fields
    /// default to zero/none.
    #[must_use]
    pub fn new(frame_type: FrameType, src: UAdd, dst: UAdd, src_machine: MachineType) -> Self {
        FrameHeader {
            frame_type,
            flags: HeaderFlags::default(),
            src,
            dst,
            msg_id: 0,
            reply_to: 0,
            src_machine,
            error_code: 0,
            aux: 0,
            payload_len: 0,
            trace_id: 0,
            span: 0,
            sent_at_us: 0,
        }
    }

    /// Encodes the header in shift mode (fixed [`HEADER_LEN`] bytes).
    #[must_use]
    pub fn to_shift(&self) -> Vec<u8> {
        let mut w = ShiftWriter::with_capacity_words(21);
        self.write_shift(&mut w);
        w.into_bytes()
    }

    /// Appends the shift-mode encoding to an existing writer, so a frame
    /// can be serialized into one pre-sized buffer with no intermediate
    /// header allocation.
    pub fn write_shift(&self, w: &mut ShiftWriter) {
        w.put_u32(MAGIC)
            .put_u32(VERSION)
            .put_u32(self.frame_type.wire_code())
            .put_u32(self.flags.to_word())
            .put_u64(self.src.raw())
            .put_u64(self.dst.raw())
            .put_u64(self.msg_id)
            .put_u64(self.reply_to)
            .put_u32(self.src_machine.wire_code())
            .put_u32(self.error_code)
            .put_u32(self.aux)
            .put_u32(self.payload_len)
            .put_u64(self.trace_id)
            .put_u32(self.span)
            .put_u64(self.sent_at_us as u64);
    }

    /// Decodes a shift-mode header.
    ///
    /// # Errors
    ///
    /// Returns [`NtcsError::Protocol`] on bad magic, unsupported version,
    /// unknown frame type, or truncation.
    pub fn from_shift(bytes: &[u8]) -> Result<Self> {
        let mut r = ShiftReader::new(bytes);
        let magic = r.get_u32()?;
        if magic != MAGIC {
            return Err(NtcsError::Protocol(format!("bad frame magic {magic:#x}")));
        }
        let version = r.get_u32()?;
        if version != VERSION {
            return Err(NtcsError::Protocol(format!(
                "unsupported protocol version {version}"
            )));
        }
        let frame_type = FrameType::from_wire_code(r.get_u32()?)?;
        let flags = HeaderFlags::from_word(r.get_u32()?);
        let src = UAdd::from_raw(r.get_u64()?);
        let dst = UAdd::from_raw(r.get_u64()?);
        let msg_id = r.get_u64()?;
        let reply_to = r.get_u64()?;
        let src_machine = MachineType::from_wire_code(r.get_u32()?)?;
        let error_code = r.get_u32()?;
        let aux = r.get_u32()?;
        let payload_len = r.get_u32()?;
        let trace_id = r.get_u64()?;
        let span = r.get_u32()?;
        let sent_at_us = r.get_u64()? as i64;
        Ok(FrameHeader {
            frame_type,
            flags,
            src,
            dst,
            msg_id,
            reply_to,
            src_machine,
            error_code,
            aux,
            payload_len,
            trace_id,
            span,
            sent_at_us,
        })
    }

    /// Encodes the header in the character format — the rejected §5.2
    /// baseline, retained for experiment E4 only.
    #[must_use]
    pub fn to_packed(&self) -> Vec<u8> {
        let mut w = PackWriter::new();
        w.put_unsigned(u64::from(MAGIC))
            .put_unsigned(u64::from(VERSION))
            .put_unsigned(u64::from(self.frame_type.wire_code()))
            .put_unsigned(u64::from(self.flags.to_word()))
            .put_unsigned(self.src.raw())
            .put_unsigned(self.dst.raw())
            .put_unsigned(self.msg_id)
            .put_unsigned(self.reply_to)
            .put_unsigned(u64::from(self.src_machine.wire_code()))
            .put_unsigned(u64::from(self.error_code))
            .put_unsigned(u64::from(self.aux))
            .put_unsigned(u64::from(self.payload_len))
            .put_unsigned(self.trace_id)
            .put_unsigned(u64::from(self.span))
            .put_unsigned(self.sent_at_us as u64);
        w.into_bytes()
    }

    /// Decodes a character-format header (experiment E4 baseline).
    ///
    /// # Errors
    ///
    /// Returns [`NtcsError::Protocol`] on malformed input.
    pub fn from_packed(bytes: &[u8]) -> Result<Self> {
        let mut r = PackReader::new(bytes);
        let magic = r.get_unsigned()? as u32;
        if magic != MAGIC {
            return Err(NtcsError::Protocol(format!("bad frame magic {magic:#x}")));
        }
        let version = r.get_unsigned()? as u32;
        if version != VERSION {
            return Err(NtcsError::Protocol(format!(
                "unsupported protocol version {version}"
            )));
        }
        let frame_type = FrameType::from_wire_code(r.get_unsigned()? as u32)?;
        let flags = HeaderFlags::from_word(r.get_unsigned()? as u32);
        let src = UAdd::from_raw(r.get_unsigned()?);
        let dst = UAdd::from_raw(r.get_unsigned()?);
        let msg_id = r.get_unsigned()?;
        let reply_to = r.get_unsigned()?;
        let src_machine = MachineType::from_wire_code(r.get_unsigned()? as u32)?;
        let error_code = r.get_unsigned()? as u32;
        let aux = r.get_unsigned()? as u32;
        let payload_len = r.get_unsigned()? as u32;
        let trace_id = r.get_unsigned()?;
        let span = r.get_unsigned()? as u32;
        let sent_at_us = r.get_unsigned()? as i64;
        Ok(FrameHeader {
            frame_type,
            flags,
            src,
            dst,
            msg_id,
            reply_to,
            src_machine,
            error_code,
            aux,
            payload_len,
            trace_id,
            span,
            sent_at_us,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntcs_addr::TAddGenerator;

    fn sample() -> FrameHeader {
        let mut h = FrameHeader::new(
            FrameType::Data,
            UAdd::from_raw(0x100),
            UAdd::from_raw(0x200),
            MachineType::Vax,
        );
        h.flags.set_conv_mode(ConvMode::Packed);
        h.flags.reply_expected = true;
        h.msg_id = 77;
        h.reply_to = 33;
        h.error_code = 0;
        h.aux = 9;
        h.payload_len = 1234;
        h.trace_id = 0xDEAD_BEEF_CAFE_F00D;
        h.span = 3;
        h.sent_at_us = -250; // negative exercises the u64 cast round trip
        h
    }

    #[test]
    fn shift_round_trip() {
        let h = sample();
        let bytes = h.to_shift();
        assert_eq!(bytes.len(), HEADER_LEN);
        assert_eq!(FrameHeader::from_shift(&bytes).unwrap(), h);
    }

    #[test]
    fn shift_header_is_always_fixed_length() {
        for ft in [
            FrameType::LvcOpen,
            FrameType::Data,
            FrameType::Close,
            FrameType::Datagram,
        ] {
            let h = FrameHeader::new(
                ft,
                UAdd::from_raw(u64::MAX / 2),
                UAdd::NAME_SERVER,
                MachineType::Sun,
            );
            assert_eq!(h.to_shift().len(), HEADER_LEN);
        }
    }

    #[test]
    fn packed_baseline_round_trip_and_variable_length() {
        let small = FrameHeader::new(
            FrameType::Ping,
            UAdd::from_raw(1),
            UAdd::from_raw(2),
            MachineType::Sun,
        );
        let mut large = sample();
        large.msg_id = u64::MAX;
        large.reply_to = u64::MAX - 1;
        let sb = small.to_packed();
        let lb = large.to_packed();
        assert_eq!(FrameHeader::from_packed(&sb).unwrap(), small);
        assert_eq!(FrameHeader::from_packed(&lb).unwrap(), large);
        // §5.2's complaint: character conversion yields variable length.
        assert_ne!(sb.len(), lb.len());
    }

    #[test]
    fn tadd_survives_header_round_trip() {
        let tg = TAddGenerator::new(3);
        let t = tg.generate();
        let h = FrameHeader::new(
            FrameType::LvcOpen,
            t,
            UAdd::NAME_SERVER,
            MachineType::Apollo,
        );
        let got = FrameHeader::from_shift(&h.to_shift()).unwrap();
        assert!(got.src.is_temporary());
        assert_eq!(got.src, t);
    }

    #[test]
    fn bad_magic_version_type_rejected() {
        let h = sample();
        let mut bytes = h.to_shift();
        bytes[0] = 0;
        assert!(FrameHeader::from_shift(&bytes).is_err());

        let mut bytes = h.to_shift();
        bytes[7] = 99; // version low byte
        assert!(FrameHeader::from_shift(&bytes).is_err());

        let mut bytes = h.to_shift();
        bytes[11] = 99; // frame type low byte
        assert!(FrameHeader::from_shift(&bytes).is_err());

        assert!(FrameHeader::from_shift(&bytes[..10]).is_err());
    }

    #[test]
    fn trace_words_default_zero_and_round_trip() {
        let h = FrameHeader::new(
            FrameType::Data,
            UAdd::from_raw(1),
            UAdd::from_raw(2),
            MachineType::Sun,
        );
        assert_eq!((h.trace_id, h.span, h.sent_at_us), (0, 0, 0));
        let mut traced = h.clone();
        traced.trace_id = u64::MAX;
        traced.span = u32::MAX;
        traced.sent_at_us = i64::MIN;
        let got = FrameHeader::from_shift(&traced.to_shift()).unwrap();
        assert_eq!(got, traced);
        let got = FrameHeader::from_packed(&traced.to_packed()).unwrap();
        assert_eq!(got, traced);
    }

    #[test]
    fn frame_type_codes_round_trip() {
        for ft in [
            FrameType::LvcOpen,
            FrameType::LvcOpenAck,
            FrameType::IvcOpen,
            FrameType::IvcOpenAck,
            FrameType::Data,
            FrameType::Close,
            FrameType::Datagram,
            FrameType::Ping,
            FrameType::Pong,
            FrameType::IvcAbort,
            FrameType::Credit,
        ] {
            assert_eq!(FrameType::from_wire_code(ft.wire_code()).unwrap(), ft);
        }
        assert!(FrameType::from_wire_code(0).is_err());
        // Code 11 belonged to a retired frame type; it is unknown now.
        assert!(FrameType::from_wire_code(11).is_err());
        assert!(FrameType::from_wire_code(999).is_err());
    }

    #[test]
    fn flags_round_trip() {
        let mut f = HeaderFlags::default();
        f.set_conv_mode(ConvMode::Packed);
        f.reply_expected = true;
        f.connectionless = true;
        f.reliable = true;
        let w = f.to_word();
        assert_eq!(HeaderFlags::from_word(w), f);
        assert_eq!(f.conv_mode(), ConvMode::Packed);
        // Each flag occupies its own bit.
        for (mask, get) in [
            (0b0001u32, f.mode == 1),
            (0b0010, f.reply_expected),
            (0b0100, f.connectionless),
            (0b1000, f.reliable),
        ] {
            assert_eq!(w & mask != 0, get);
        }
    }
}
