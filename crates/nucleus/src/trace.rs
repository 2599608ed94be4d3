//! Layer tracing and recursion instrumentation.
//!
//! §6.2, on debugging the recursive NTCS: "simple tracebacks are largely
//! inadequate. One must also know *why* a layer is being called, and *who*
//! is calling it. However, adequate *selectivity* in observing this
//! information is equally important. We have not yet devised an adequate
//! mechanism for dealing with this problem."
//!
//! This module is that mechanism, built as the paper's future work: every
//! layer entry records *(layer, action, why, depth)* into a bounded ring
//! buffer with per-layer filters, and a guard tracks the live recursion
//! depth so the §6.3 runaway can be detected instead of overflowing the
//! stack.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use ntcs_addr::{NtcsError, Result, UAdd};
use parking_lot::Mutex;

/// The NTCS layers, for trace attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// Application Level Interface (topmost ComMod layer).
    Ali,
    /// Name Service Protocol layer.
    Nsp,
    /// Logical Connection Maintenance layer.
    Lcm,
    /// Internet Protocol layer.
    Ip,
    /// Network Dependent layer.
    Nd,
    /// Distributed run-time support services (monitor, time, …).
    Drts,
}

impl Layer {
    /// All layers, top to bottom.
    pub const ALL: [Layer; 6] = [
        Layer::Ali,
        Layer::Nsp,
        Layer::Lcm,
        Layer::Ip,
        Layer::Nd,
        Layer::Drts,
    ];
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Layer::Ali => "ALI",
            Layer::Nsp => "NSP",
            Layer::Lcm => "LCM",
            Layer::Ip => "IP",
            Layer::Nd => "ND",
            Layer::Drts => "DRTS",
        })
    }
}

/// One trace record: who entered which layer, why, and at what recursion
/// depth.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Sequence number (monotonic per trace).
    pub seq: u64,
    /// Recursion depth at the time (0 = outermost application call).
    pub depth: u32,
    /// The layer entered.
    pub layer: Layer,
    /// What the layer is doing ("send", "open", "address-fault", …).
    pub action: &'static str,
    /// Who is calling and why — the context the paper found missing.
    pub why: String,
    /// The causal trace id of the send, delivery or circuit open that
    /// recorded the event (0 = untraced or none), joining this local ring
    /// to the testbed-wide hop chains.
    pub trace_id: u64,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{:<5} {:indent$}{} {} ({})",
            self.seq,
            "",
            self.layer,
            self.action,
            self.why,
            indent = (self.depth as usize) * 2
        )?;
        if self.trace_id != 0 {
            write!(f, " [trace {:016x}]", self.trace_id)?;
        }
        Ok(())
    }
}

/// The `why` of a buffered record. Per-message reasons stay typed until
/// the ring is read, so recording one allocates nothing; the rest are
/// formatted when recorded.
pub(crate) enum Why {
    /// An LCM send toward `dst`.
    Send { dst: UAdd, msg_id: u64 },
    /// A traced delivery from `peer`.
    Deliver { peer: UAdd, msg_id: u64, span: u32 },
    /// Formatted at record time.
    Text(String),
}

impl fmt::Display for Why {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Why::Send { dst, msg_id } => write!(f, "→ {dst} (msg {msg_id})"),
            Why::Deliver { peer, msg_id, span } => {
                write!(f, "from {peer} (msg {msg_id}, span {span})")
            }
            Why::Text(s) => f.write_str(s),
        }
    }
}

/// A buffered record: a [`TraceEvent`] whose `why` is not yet rendered.
struct Entry {
    seq: u64,
    depth: u32,
    layer: Layer,
    action: &'static str,
    why: Why,
    trace_id: u64,
}

/// A bounded, selective layer-trace ring buffer, one per module's
/// Nucleus binding.
pub struct LayerTrace {
    ring: Mutex<VecDeque<Entry>>,
    seq: AtomicU64,
    enabled: AtomicBool,
    /// Per-layer selectivity filters.
    layer_enabled: [AtomicBool; 6],
    capacity: usize,
}

impl fmt::Debug for LayerTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LayerTrace")
            .field("events", &self.ring.lock().len())
            .field("enabled", &self.enabled.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for LayerTrace {
    fn default() -> Self {
        Self::new(1024)
    }
}

impl LayerTrace {
    /// Creates a trace buffer holding up to `capacity` events (clamped to
    /// at least 1 — a zero-capacity ring would otherwise grow unbounded
    /// after its single eviction check).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        LayerTrace {
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
            seq: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
            layer_enabled: Default::default(),
            capacity,
        }
    }

    /// Globally enables or disables tracing.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Enables or disables one layer's events (the selectivity §6.2 calls
    /// for). All layers start enabled.
    pub fn set_layer_enabled(&self, layer: Layer, on: bool) {
        // Stored inverted so the default (false) means "enabled".
        self.layer_enabled[layer as usize].store(!on, Ordering::Relaxed);
    }

    fn layer_on(&self, layer: Layer) -> bool {
        !self.layer_enabled[layer as usize].load(Ordering::Relaxed)
    }

    /// Records a layer entry; `why` runs only if the layer is traced.
    pub(crate) fn record(
        &self,
        depth: u32,
        layer: Layer,
        action: &'static str,
        trace_id: u64,
        why: impl FnOnce() -> Why,
    ) {
        if !self.enabled.load(Ordering::Relaxed) || !self.layer_on(layer) {
            return;
        }
        let why = why();
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock();
        if ring.len() >= self.capacity {
            ring.pop_front();
        }
        ring.push_back(Entry {
            seq,
            depth,
            layer,
            action,
            why,
            trace_id,
        });
    }

    /// Snapshots the buffered events (oldest first).
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        let ring = self.ring.lock();
        ring.iter()
            .map(|e| TraceEvent {
                seq: e.seq,
                depth: e.depth,
                layer: e.layer,
                action: e.action,
                why: e.why.to_string(),
                trace_id: e.trace_id,
            })
            .collect()
    }

    /// Clears the buffer.
    pub fn clear(&self) {
        self.ring.lock().clear();
    }

    /// Renders the buffered events as an indented call trace.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

/// Tracks the live recursion depth of one module's Nucleus and fires at the
/// configured limit — the detectable stand-in for §6.3's stack overflow.
#[derive(Debug)]
pub struct RecursionGauge {
    depth: AtomicU32,
    max_seen: AtomicU32,
    limit: u32,
}

impl RecursionGauge {
    /// Creates a gauge with the given limit.
    #[must_use]
    pub fn new(limit: u32) -> Self {
        RecursionGauge {
            depth: AtomicU32::new(0),
            max_seen: AtomicU32::new(0),
            limit,
        }
    }

    /// Enters one recursion level.
    ///
    /// # Errors
    ///
    /// Returns [`NtcsError::RecursionLimit`] when the limit is reached — the
    /// caller must treat it like the stack overflow it stands in for.
    pub fn enter(&self) -> Result<RecursionScope<'_>> {
        let d = self.depth.fetch_add(1, Ordering::SeqCst) + 1;
        if d > self.limit {
            self.depth.fetch_sub(1, Ordering::SeqCst);
            return Err(NtcsError::RecursionLimit { depth: d });
        }
        self.max_seen.fetch_max(d, Ordering::SeqCst);
        Ok(RecursionScope { gauge: self })
    }

    /// Current depth.
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.depth.load(Ordering::SeqCst)
    }

    /// Highest depth observed since creation (experiment E8 metric).
    #[must_use]
    pub fn max_seen(&self) -> u32 {
        self.max_seen.load(Ordering::SeqCst)
    }

    /// Resets the high-water mark.
    pub fn reset_max(&self) {
        self.max_seen.store(0, Ordering::SeqCst);
    }
}

/// RAII scope for one recursion level.
#[derive(Debug)]
pub struct RecursionScope<'a> {
    gauge: &'a RecursionGauge,
}

impl Drop for RecursionScope<'_> {
    fn drop(&mut self) {
        self.gauge.depth.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(s: impl Into<String>) -> impl FnOnce() -> Why {
        let s = s.into();
        move || Why::Text(s)
    }

    #[test]
    fn records_and_renders() {
        let t = LayerTrace::new(16);
        t.record(0, Layer::Ali, "send", 0, text("app → index-server"));
        t.record(1, Layer::Lcm, "send", 0, text("from ALI"));
        t.record(
            2,
            Layer::Nsp,
            "lookup",
            0,
            text("LCM needs phys of UAdd(0x100)"),
        );
        let evs = t.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].layer, Layer::Ali);
        let rendered = t.render();
        assert!(rendered.contains("LCM send"));
        assert!(rendered.contains("NSP lookup"));
    }

    #[test]
    fn ring_is_bounded() {
        let t = LayerTrace::new(4);
        for i in 0..10 {
            t.record(0, Layer::Nd, "open", 0, text(format!("n{i}")));
        }
        let evs = t.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].why, "n6");
    }

    #[test]
    fn zero_capacity_is_clamped_and_stays_bounded() {
        // Regression: capacity 0 used to make the `len == capacity`
        // eviction check true only once, after which the ring grew
        // without bound.
        let t = LayerTrace::new(0);
        for i in 0..100 {
            t.record(0, Layer::Lcm, "send", 0, text(format!("n{i}")));
        }
        let evs = t.events();
        assert_eq!(evs.len(), 1, "clamped to capacity 1");
        assert_eq!(evs[0].why, "n99");
    }

    #[test]
    fn events_carry_their_own_trace_id_and_render_why_when_read() {
        let t = LayerTrace::new(8);
        let dst = UAdd::from_raw(0x100);
        t.record(0, Layer::Lcm, "send", 0, || Why::Send { dst, msg_id: 3 });
        t.record(0, Layer::Lcm, "send", 0xABCD, || Why::Send {
            dst,
            msg_id: 4,
        });
        t.record(0, Layer::Nd, "open", 0, text("untraced again"));
        let evs = t.events();
        assert_eq!(evs[0].trace_id, 0);
        assert_eq!(evs[0].why, format!("→ {dst} (msg 3)"));
        assert_eq!(evs[1].trace_id, 0xABCD);
        assert_eq!(evs[2].trace_id, 0);
        assert!(evs[1].to_string().contains("000000000000abcd"));
    }

    #[test]
    fn filtered_layers_never_build_their_why() {
        let t = LayerTrace::new(8);
        t.set_layer_enabled(Layer::Nd, false);
        t.record(0, Layer::Nd, "open", 0, || unreachable!("filtered layer"));
        t.set_enabled(false);
        t.record(0, Layer::Lcm, "send", 0, || unreachable!("tracing off"));
        assert!(t.events().is_empty());
    }

    #[test]
    fn selectivity_filters_layers() {
        let t = LayerTrace::new(16);
        t.set_layer_enabled(Layer::Nd, false);
        t.record(0, Layer::Nd, "open", 0, text("hidden"));
        t.record(0, Layer::Lcm, "send", 0, text("visible"));
        let evs = t.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].layer, Layer::Lcm);
        t.set_layer_enabled(Layer::Nd, true);
        t.record(0, Layer::Nd, "open", 0, text("now visible"));
        assert_eq!(t.events().len(), 2);
    }

    #[test]
    fn global_disable() {
        let t = LayerTrace::new(16);
        t.set_enabled(false);
        t.record(0, Layer::Ali, "send", 0, text("x"));
        assert!(t.events().is_empty());
    }

    #[test]
    fn gauge_tracks_depth_and_fires() {
        let g = RecursionGauge::new(3);
        let a = g.enter().unwrap();
        let b = g.enter().unwrap();
        assert_eq!(g.depth(), 2);
        let c = g.enter().unwrap();
        assert!(matches!(
            g.enter(),
            Err(NtcsError::RecursionLimit { depth: 4 })
        ));
        drop(c);
        drop(b);
        drop(a);
        assert_eq!(g.depth(), 0);
        assert_eq!(g.max_seen(), 3);
        g.reset_max();
        assert_eq!(g.max_seen(), 0);
    }
}
