//! Credit-based, per-circuit flow control for the NTCS reproduction.
//!
//! The paper's virtual circuits (§2.2, §4) assume the ND-layer "handles
//! flow control" without specifying a mechanism. This crate supplies the
//! missing discipline as a small, dependency-free library the Nucleus
//! layers compose:
//!
//! * [`CreditWindow`] — the **sender-side** account of how many bytes and
//!   frames the peer has granted on one circuit. Bulk sends debit it; a
//!   `Credit` control frame from the peer replenishes it.
//! * [`CreditLedger`] — the **receiver-side** account of how many bytes
//!   the application has drained from its inbox since the last grant.
//!   Once the drained total passes a low watermark it emits a delta
//!   grant for the sender's window.
//! * [`BoundedDeque`] — a capacity-checked queue that sheds its oldest
//!   entry on overflow instead of growing without bound. Used for the
//!   LCM inbox even when credit flow control is disabled, so a runaway
//!   sender degrades to message loss rather than memory exhaustion.
//! * [`Lane`] — the priority-lane split: NTCS control traffic (naming,
//!   DRTS, observability, LCM acks) bypasses credit accounting so bulk
//!   data can never starve the protocols that keep circuits alive.
//!
//! End-to-end semantics: credit is managed between the *origin* sender's
//! LCM and the *terminal* receiver's LCM. Gateways relay `Credit` frames
//! opaquely like any other non-open frame, so a grant travels back across
//! a spliced IVC chain unchanged and the window bounds the bytes in
//! flight at **every** hop — transit queues can never hold more than the
//! terminal receiver has promised to absorb.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::vec_deque;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Duration;

/// Highest `type_id` reserved for NTCS-internal control messages.
///
/// The repo's message-id blocks are: naming protocol 1–18, DRTS and
/// observability 100–136, observability control 140–143, naming
/// invalidation push 144, URSA and applications 200+. Everything at or
/// below this boundary rides the [`Lane::Control`] lane and bypasses
/// credit accounting; everything above is [`Lane::Bulk`] and debits the
/// circuit's window. Both endpoints classify by the same constant, so
/// sender debits and receiver grants always agree.
pub const CONTROL_TYPE_MAX: u32 = 199;

/// Which priority lane a message occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// NTCS-internal control traffic: exempt from credit accounting so
    /// bulk data cannot starve naming, acks, or observability.
    Control,
    /// Application data: debits the circuit's credit window.
    Bulk,
}

impl Lane {
    /// Classifies a message `type_id` into its lane.
    ///
    /// `u32::MAX` (the LCM reliable-ack sentinel) is control; ids at or
    /// below [`CONTROL_TYPE_MAX`] are control; the rest are bulk.
    #[must_use]
    pub fn classify(type_id: u32) -> Self {
        if type_id <= CONTROL_TYPE_MAX || type_id == u32::MAX {
            Lane::Control
        } else {
            Lane::Bulk
        }
    }
}

/// What a sender does when the circuit's credit window is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowPolicy {
    /// Wait (pumping protocol events) until the peer grants credit or
    /// the stall timeout elapses; on timeout the send fails with a
    /// transient error.
    Block,
    /// Drop the new message immediately and count a shed. Reliable
    /// sends are never silently lost: they fall through to the
    /// dead-letter path instead.
    ShedNewest,
    /// Hand the message to the PR-1 dead-letter hook immediately.
    DeadLetter,
}

/// Per-Nucleus flow-control settings, carried in `NucleusConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSettings {
    /// Master switch. When `false` no credit state is created and sends
    /// are never throttled (queues stay bounded regardless).
    pub enabled: bool,
    /// Bytes of bulk payload the peer may have in flight per circuit.
    pub window_bytes: u64,
    /// Frames of bulk payload the peer may have in flight per circuit.
    pub window_frames: u32,
    /// The receiver emits a replenishing grant once it has drained at
    /// least this many ungranted bytes from its inbox.
    pub low_watermark_bytes: u64,
    /// Policy applied when a send finds the window empty.
    pub policy: FlowPolicy,
    /// How long a [`FlowPolicy::Block`] send waits for credit before
    /// failing with a transient error.
    pub stall_timeout: Duration,
}

impl FlowSettings {
    /// Flow control disabled (the default): unlimited sending, bounded
    /// queues only.
    #[must_use]
    pub fn disabled() -> Self {
        FlowSettings {
            enabled: false,
            window_bytes: 256 * 1024,
            window_frames: 1024,
            low_watermark_bytes: 64 * 1024,
            policy: FlowPolicy::Block,
            stall_timeout: Duration::from_secs(5),
        }
    }

    /// Flow control enabled with the given per-circuit window; the low
    /// watermark defaults to a quarter of the byte window.
    #[must_use]
    pub fn enabled(window_bytes: u64, window_frames: u32) -> Self {
        FlowSettings {
            enabled: true,
            window_bytes: window_bytes.max(1),
            window_frames: window_frames.max(1),
            low_watermark_bytes: (window_bytes / 4).max(1),
            policy: FlowPolicy::Block,
            stall_timeout: Duration::from_secs(5),
        }
    }

    /// Sets the overflow policy.
    #[must_use]
    pub fn with_policy(mut self, policy: FlowPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the replenish low watermark in bytes.
    #[must_use]
    pub fn with_low_watermark(mut self, bytes: u64) -> Self {
        self.low_watermark_bytes = bytes.max(1);
        self
    }

    /// Sets how long a blocking send waits for credit.
    #[must_use]
    pub fn with_stall_timeout(mut self, timeout: Duration) -> Self {
        self.stall_timeout = timeout;
        self
    }
}

impl Default for FlowSettings {
    fn default() -> Self {
        FlowSettings::disabled()
    }
}

#[derive(Debug)]
struct WindowState {
    bytes: i64,
    frames: i64,
}

/// Sender-side credit account for one circuit.
///
/// Balances are signed: an oversized message sent against an *idle*
/// (full) window is allowed through and drives the balance negative, so
/// a message larger than the whole window can still make progress — the
/// window simply stays closed until the receiver has drained it all.
#[derive(Debug)]
pub struct CreditWindow {
    cap_bytes: i64,
    cap_frames: i64,
    state: Mutex<WindowState>,
}

impl CreditWindow {
    /// A window holding its full initial grant.
    #[must_use]
    pub fn new(window_bytes: u64, window_frames: u32) -> Self {
        let cap_bytes = i64::try_from(window_bytes.max(1)).unwrap_or(i64::MAX);
        let cap_frames = i64::from(window_frames.max(1));
        CreditWindow {
            cap_bytes,
            cap_frames,
            state: Mutex::new(WindowState {
                bytes: cap_bytes,
                frames: cap_frames,
            }),
        }
    }

    /// Tries to debit one frame of `payload_bytes`. Returns `true` on
    /// success. Succeeds when a frame credit is available and either the
    /// byte balance covers the payload or the window is idle at full
    /// capacity (the oversized-message escape hatch).
    #[must_use]
    pub fn try_acquire(&self, payload_bytes: usize) -> bool {
        let need = i64::try_from(payload_bytes).unwrap_or(i64::MAX);
        let mut st = self.state.lock().expect("credit window lock");
        if st.frames < 1 {
            return false;
        }
        if st.bytes < need && st.bytes < self.cap_bytes {
            return false;
        }
        st.bytes -= need;
        st.frames -= 1;
        true
    }

    /// Credits a grant of `bytes`/`frames` back, clamping at capacity.
    pub fn replenish(&self, bytes: u64, frames: u32) {
        let mut st = self.state.lock().expect("credit window lock");
        st.bytes = st
            .bytes
            .saturating_add(i64::try_from(bytes).unwrap_or(i64::MAX))
            .min(self.cap_bytes);
        st.frames = st
            .frames
            .saturating_add(i64::from(frames))
            .min(self.cap_frames);
    }

    /// Currently available byte credit (0 when overdrawn).
    #[must_use]
    pub fn available_bytes(&self) -> u64 {
        let st = self.state.lock().expect("credit window lock");
        u64::try_from(st.bytes.max(0)).unwrap_or(0)
    }

    /// Currently available frame credit (0 when overdrawn).
    #[must_use]
    pub fn available_frames(&self) -> u32 {
        let st = self.state.lock().expect("credit window lock");
        u32::try_from(st.frames.max(0)).unwrap_or(u32::MAX)
    }
}

#[derive(Debug, Default)]
struct LedgerState {
    drained_bytes: u64,
    drained_frames: u32,
}

/// Receiver-side drain account for one circuit: accumulates bytes the
/// application has consumed and decides when to emit a delta grant.
#[derive(Debug)]
pub struct CreditLedger {
    low_watermark_bytes: u64,
    grant_frame_trigger: u32,
    state: Mutex<LedgerState>,
}

impl CreditLedger {
    /// A ledger that grants once `low_watermark_bytes` have been drained
    /// (or half the frame window, whichever trips first).
    #[must_use]
    pub fn new(low_watermark_bytes: u64, window_frames: u32) -> Self {
        CreditLedger {
            low_watermark_bytes: low_watermark_bytes.max(1),
            grant_frame_trigger: (window_frames / 2).max(1),
            state: Mutex::new(LedgerState::default()),
        }
    }

    /// Records `payload_bytes` drained from the inbox. Returns
    /// `Some((bytes, frames))` when the accumulated drain crosses the
    /// watermark — the caller sends that delta to the peer as a `Credit`
    /// frame and the account resets.
    #[must_use]
    pub fn on_drain(&self, payload_bytes: usize) -> Option<(u64, u32)> {
        let mut st = self.state.lock().expect("credit ledger lock");
        st.drained_bytes = st
            .drained_bytes
            .saturating_add(u64::try_from(payload_bytes).unwrap_or(u64::MAX));
        st.drained_frames = st.drained_frames.saturating_add(1);
        if st.drained_bytes >= self.low_watermark_bytes
            || st.drained_frames >= self.grant_frame_trigger
        {
            let grant = (st.drained_bytes, st.drained_frames);
            st.drained_bytes = 0;
            st.drained_frames = 0;
            Some(grant)
        } else {
            None
        }
    }
}

/// A `VecDeque` with a hard capacity: pushing past it evicts the oldest
/// entry (returned to the caller for accounting) instead of growing.
#[derive(Debug)]
pub struct BoundedDeque<T> {
    items: VecDeque<T>,
    cap: usize,
}

impl<T> BoundedDeque<T> {
    /// An empty queue holding at most `cap` items (minimum 1).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        BoundedDeque {
            items: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    /// Appends `item`; if the queue was full, the evicted oldest entry
    /// is returned so the caller can count the shed.
    pub fn push_back(&mut self, item: T) -> Option<T> {
        let evicted = if self.items.len() >= self.cap {
            self.items.pop_front()
        } else {
            None
        };
        self.items.push_back(item);
        evicted
    }

    /// Removes and returns the oldest entry.
    pub fn pop_front(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Removes and returns the entry at `index`.
    pub fn remove(&mut self, index: usize) -> Option<T> {
        self.items.remove(index)
    }

    /// Number of queued entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates oldest-to-newest without consuming.
    pub fn iter(&self) -> vec_deque::Iter<'_, T> {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_split_control_from_bulk() {
        assert_eq!(Lane::classify(1), Lane::Control); // naming
        assert_eq!(Lane::classify(130), Lane::Control); // obs HopRecord
        assert_eq!(Lane::classify(144), Lane::Control); // NsInvalidate push
        assert_eq!(Lane::classify(CONTROL_TYPE_MAX), Lane::Control);
        assert_eq!(Lane::classify(u32::MAX), Lane::Control); // reliable ack
        assert_eq!(Lane::classify(200), Lane::Bulk); // ursa
        assert_eq!(Lane::classify(3000), Lane::Bulk); // app messages
    }

    #[test]
    fn window_debits_and_replenishes() {
        let w = CreditWindow::new(100, 3);
        assert!(w.try_acquire(60));
        assert_eq!(w.available_bytes(), 40);
        assert!(!w.try_acquire(60), "insufficient bytes");
        assert!(w.try_acquire(40));
        assert!(!w.try_acquire(1), "byte window closed");
        // One frame credit survived (failed byte-acquires do not debit), so
        // a 1-frame grant brings the balance to two.
        w.replenish(100, 1);
        assert_eq!(w.available_bytes(), 100);
        assert!(w.try_acquire(10));
        assert!(w.try_acquire(10));
        assert!(!w.try_acquire(10), "frame credit exhausted");
        w.replenish(20, 1);
        assert!(w.try_acquire(10));
    }

    #[test]
    fn idle_window_admits_oversized_message() {
        let w = CreditWindow::new(100, 4);
        assert!(w.try_acquire(500), "oversized send allowed when idle");
        assert_eq!(w.available_bytes(), 0, "balance clamped at zero view");
        assert!(!w.try_acquire(1), "window overdrawn");
        w.replenish(400, 1);
        assert!(
            !w.try_acquire(1),
            "still overdrawn by 0 after partial drain"
        );
        w.replenish(200, 1);
        assert_eq!(w.available_bytes(), 100, "clamped at capacity");
        assert!(w.try_acquire(100));
    }

    #[test]
    fn replenish_clamps_at_capacity() {
        let w = CreditWindow::new(50, 2);
        w.replenish(1_000_000, 100);
        assert_eq!(w.available_bytes(), 50);
        assert_eq!(w.available_frames(), 2);
    }

    #[test]
    fn ledger_grants_at_watermark() {
        let l = CreditLedger::new(100, 1000);
        assert_eq!(l.on_drain(40), None);
        assert_eq!(l.on_drain(40), None);
        assert_eq!(l.on_drain(40), Some((120, 3)));
        assert_eq!(l.on_drain(40), None, "account reset after grant");
    }

    #[test]
    fn ledger_grants_at_half_frame_window() {
        let l = CreditLedger::new(u64::MAX, 4);
        assert_eq!(l.on_drain(1), None);
        assert_eq!(l.on_drain(1), Some((2, 2)), "frame trigger at window/2");
    }

    #[test]
    fn bounded_deque_sheds_oldest() {
        let mut q = BoundedDeque::new(2);
        assert!(q.push_back(1).is_none());
        assert!(q.push_back(2).is_none());
        assert_eq!(q.push_back(3), Some(1), "oldest evicted");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_front(), Some(2));
        assert_eq!(q.pop_front(), Some(3));
        assert!(q.is_empty());
    }

    #[test]
    fn bounded_deque_positional_remove() {
        let mut q = BoundedDeque::new(8);
        for i in 0..4 {
            assert!(q.push_back(i).is_none());
        }
        let pos = q.iter().position(|&x| x == 2).expect("present");
        assert_eq!(q.remove(pos), Some(2));
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn settings_builders_compose() {
        let s = FlowSettings::enabled(8192, 32)
            .with_policy(FlowPolicy::ShedNewest)
            .with_low_watermark(1024)
            .with_stall_timeout(Duration::from_millis(250));
        assert!(s.enabled);
        assert_eq!(s.window_bytes, 8192);
        assert_eq!(s.window_frames, 32);
        assert_eq!(s.low_watermark_bytes, 1024);
        assert_eq!(s.policy, FlowPolicy::ShedNewest);
        assert_eq!(s.stall_timeout, Duration::from_millis(250));
        assert!(!FlowSettings::default().enabled);
    }
}
