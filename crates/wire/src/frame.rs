//! A complete NTCS frame: shift-mode header + payload byte stream.
//!
//! "The remainder of the message, in packed or image format, is transferred
//! directly as a byte stream" (§5.2). The frame is what the ND-Layer hands to
//! the underlying IPCS as one contiguous block (§5.1: messages must be
//! contiguous).

use bytes::Bytes;
use ntcs_addr::{NtcsError, Result};

use crate::header::{FrameHeader, HEADER_LEN};
use crate::shift::ShiftWriter;

/// A header plus payload, the unit the Nucleus sends and receives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The shift-mode header.
    pub header: FrameHeader,
    /// The payload byte stream (packed or image mode; empty for pure control
    /// frames).
    pub payload: Bytes,
}

impl Frame {
    /// Creates a frame, fixing up `header.payload_len`.
    #[must_use]
    pub fn new(mut header: FrameHeader, payload: Bytes) -> Self {
        header.payload_len = payload.len() as u32;
        Frame { header, payload }
    }

    /// Creates a payload-less control frame.
    #[must_use]
    pub fn control(header: FrameHeader) -> Self {
        Frame::new(header, Bytes::new())
    }

    /// Encodes the frame into one contiguous block: header and payload are
    /// written once into a single pre-sized buffer (no intermediate header
    /// allocation, no re-copy into the final block).
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        Bytes::from(out)
    }

    /// Appends the frame's wire encoding to `out` (e.g. a pooled buffer).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.encoded_len());
        let mut w = ShiftWriter::wrap(std::mem::take(out));
        self.header.write_shift(&mut w);
        *out = w.into_bytes();
        out.extend_from_slice(&self.payload);
    }

    /// Decodes a frame from one contiguous block.
    ///
    /// # Errors
    ///
    /// Returns [`NtcsError::Protocol`] on truncation, bad header, or a
    /// payload length disagreeing with the block size.
    pub fn decode(block: &[u8]) -> Result<Frame> {
        let header = Self::decode_header(block)?;
        Ok(Frame {
            header,
            payload: Bytes::copy_from_slice(&block[HEADER_LEN..]),
        })
    }

    /// Decodes a frame from a shared block, slicing the payload out of the
    /// block's allocation instead of copying it — the receive-side half of
    /// the zero-copy data plane.
    ///
    /// # Errors
    ///
    /// As for [`Frame::decode`].
    pub fn decode_shared(block: &Bytes) -> Result<Frame> {
        let header = Self::decode_header(block)?;
        Ok(Frame {
            header,
            payload: block.slice(HEADER_LEN..block.len()),
        })
    }

    fn decode_header(block: &[u8]) -> Result<FrameHeader> {
        if block.len() < HEADER_LEN {
            return Err(NtcsError::Protocol(format!(
                "frame shorter than header: {} bytes",
                block.len()
            )));
        }
        let header = FrameHeader::from_shift(&block[..HEADER_LEN])?;
        let payload_len = block.len() - HEADER_LEN;
        if payload_len != header.payload_len as usize {
            return Err(NtcsError::Protocol(format!(
                "payload length mismatch: header says {}, frame carries {}",
                header.payload_len, payload_len
            )));
        }
        Ok(header)
    }

    /// Total encoded size in bytes.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::FrameType;
    use ntcs_addr::{MachineType, UAdd};

    fn header() -> FrameHeader {
        FrameHeader::new(
            FrameType::Data,
            UAdd::from_raw(5),
            UAdd::from_raw(6),
            MachineType::Sun,
        )
    }

    #[test]
    fn encode_decode_round_trip() {
        let f = Frame::new(header(), Bytes::from_static(b"payload bytes"));
        let block = f.encode();
        assert_eq!(block.len(), f.encoded_len());
        let got = Frame::decode(&block).unwrap();
        assert_eq!(got, f);
    }

    #[test]
    fn control_frame_has_no_payload() {
        let f = Frame::control(header());
        assert_eq!(f.header.payload_len, 0);
        let got = Frame::decode(&f.encode()).unwrap();
        assert!(got.payload.is_empty());
    }

    #[test]
    fn payload_len_is_fixed_up() {
        let mut h = header();
        h.payload_len = 999;
        let f = Frame::new(h, Bytes::from_static(b"abc"));
        assert_eq!(f.header.payload_len, 3);
    }

    #[test]
    fn short_block_rejected() {
        assert!(Frame::decode(&[0u8; 10]).is_err());
    }

    #[test]
    fn single_pass_encode_matches_header_plus_payload_concat() {
        // The pre-optimization encoding was literally to_shift() followed by
        // the payload; the single-pass encode must be byte-identical.
        for payload in [&b""[..], b"x", b"payload bytes", &[0xA5; 4096]] {
            let mut h = header();
            h.msg_id = 42;
            h.trace_id = 0x1234_5678_9ABC_DEF0;
            h.sent_at_us = -77;
            let f = Frame::new(h, Bytes::copy_from_slice(payload));
            let mut reference = f.header.to_shift();
            reference.extend_from_slice(&f.payload);
            assert_eq!(&f.encode()[..], &reference[..]);
        }
    }

    #[test]
    fn decode_shared_is_zero_copy_and_equivalent() {
        let f = Frame::new(header(), Bytes::from(vec![7u8; 256]));
        let block = f.encode();
        let copied = Frame::decode(&block).unwrap();
        let shared = Frame::decode_shared(&block).unwrap();
        assert_eq!(copied, shared);
        // The shared payload aliases the block's allocation.
        assert!(std::ptr::eq(&block[HEADER_LEN], &shared.payload[0]));
    }

    #[test]
    fn encode_into_appends_after_existing_content() {
        let f = Frame::new(header(), Bytes::from_static(b"tail"));
        let mut buf = vec![0xEE, 0xFF];
        f.encode_into(&mut buf);
        assert_eq!(&buf[..2], &[0xEE, 0xFF]);
        assert_eq!(Frame::decode(&buf[2..]).unwrap(), f);
    }

    #[test]
    fn length_mismatch_rejected() {
        let f = Frame::new(header(), Bytes::from_static(b"abcdef"));
        let mut block = f.encode().to_vec();
        block.truncate(block.len() - 2);
        assert!(Frame::decode(&block).is_err());
    }
}
