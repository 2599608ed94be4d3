//! In-memory spans for the traced run, written out as one JSON file at
//! the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::{json_num, json_str};

/// Spans kept per name; later calls are counted, not stored, so the span
/// file stays a few megabytes.
pub const PER_NAME: u64 = 4000;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    /// Shared by every span of one request (its sequence number, or a
    /// probe-specific id).
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Counter readings taken at a phase boundary.
#[derive(Debug)]
struct Mark {
    name: String,
    at_ns: u64,
    counters: Vec<(&'static str, f64)>,
}

/// The span store.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    pub list: Vec<Span>,
    /// Calls seen per span name, recorded or not.
    seen: BTreeMap<&'static str, u64>,
    /// Counter readings at phase boundaries.
    marks: Vec<Mark>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            list: Vec::with_capacity(1 << 16),
            seen: BTreeMap::new(),
            marks: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span and returns its id (ids start at 1; parent 0 = root).
    /// Past [`PER_NAME`] spans of one name, calls are only counted and 0
    /// is returned.
    pub fn record(
        &mut self,
        trace: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let seen = self.seen.entry(name).or_insert(0);
        *seen += 1;
        if *seen > PER_NAME {
            return 0;
        }
        let id = self.list.len() as u64 + 1;
        let span = Span {
            id,
            parent,
            trace,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.list.push(span);
        id
    }

    /// Reserves a span id for a parent whose end is not known yet; fill
    /// it with [`Spans::fill`].
    pub fn reserve(&mut self, trace: u64, name: &'static str) -> u64 {
        let now = Instant::now();
        self.record(trace, 0, name, now, now)
    }

    /// Sets the times of a reserved span.
    pub fn fill(&mut self, id: u64, start: Instant, end: Instant) {
        let (s, e) = (self.ns(start), self.ns(end));
        if let Some(sp) = self.list.get_mut((id as usize).wrapping_sub(1)) {
            sp.start_ns = s;
            sp.end_ns = e;
        }
    }

    /// Records counter readings at a phase boundary.
    pub fn mark(&mut self, name: &str, counters: Vec<(&'static str, f64)>) {
        let at_ns = self.ns(Instant::now());
        self.marks.push(Mark {
            name: name.to_string(),
            at_ns,
            counters,
        });
    }

    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"spans\": [\n");
        for (i, sp) in self.list.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"id\": {}, \"parent\": {}, \"trace\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                if i == 0 { "" } else { ",\n" },
                sp.id,
                sp.parent,
                sp.trace,
                json_str(sp.name),
                sp.start_ns,
                sp.end_ns
            );
        }
        s.push_str("\n], \"calls\": {");
        for (i, (name, n)) in self.seen.iter().enumerate() {
            let _ = write!(
                s,
                "{}{}: {n}",
                if i == 0 { "" } else { ", " },
                json_str(name)
            );
        }
        s.push_str("}, \"boundaries\": [\n");
        for (i, m) in self.marks.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"name\": {}, \"at_ns\": {}",
                if i == 0 { "" } else { ",\n" },
                json_str(&m.name),
                m.at_ns
            );
            for (k, v) in &m.counters {
                let _ = write!(s, ", \"{k}\": {}", json_num(*v));
            }
            s.push('}');
        }
        s.push_str("\n]}\n");
        s
    }
}
