//! The harness-side trace: a span around every call the harness makes into
//! a layer's public functions, kept in memory and written out at exit.
//!
//! Spans marked `derived` were not clocked by the harness: their durations
//! come from books the product already keeps (`Database::phase_totals`,
//! `SchedOutcome::latencies_ns`) and they are laid out from their parent's
//! start. Tracing inside the program is a later issue.

use std::fmt::Write as _;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

pub struct Span {
    name: u16,
    parent: u32,
    /// The transaction (engine workloads) or round (serve workloads).
    txn: u64,
    start_ns: u64,
    end_ns: u64,
    derived: bool,
}

pub struct Tracer {
    epoch: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::with_capacity(0)
    }

    pub fn with_capacity(spans: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::with_capacity(spans),
        }
    }

    fn name_id(&mut self, name: &'static str) -> u16 {
        // Callers pass literals, so the pointers almost always settle it.
        match self
            .names
            .iter()
            .position(|n| std::ptr::eq(*n, name) || *n == name)
        {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: u32, txn: u64) -> u32 {
        let name = self.name_id(name);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            txn,
            start_ns,
            end_ns: start_ns,
            derived: false,
        });
        (self.spans.len() - 1) as u32
    }

    /// Close a span; returns its duration.
    pub fn end(&mut self, id: u32) -> u64 {
        let now = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = now;
        now - s.start_ns
    }

    /// Record a child whose duration the product reported, starting
    /// `offset_ns` into its parent.
    pub fn derived(&mut self, name: &'static str, parent: u32, offset_ns: u64, dur_ns: u64) {
        let name = self.name_id(name);
        let p = &self.spans[parent as usize];
        let (txn, start_ns) = (p.txn, p.start_ns + offset_ns);
        self.spans.push(Span {
            name,
            parent,
            txn,
            start_ns,
            end_ns: start_ns + dur_ns,
            derived: true,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: `(count, total ns, self ns)`, self time being the
    /// span minus its children.
    pub fn summary(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut rows: Vec<(u64, u64, u64)> = vec![(0, 0, 0); self.names.len()];
        let mut child_ns: Vec<u64> = vec![0; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let r = &mut rows[s.name as usize];
            r.0 += 1;
            r.1 += dur;
            r.2 += dur.saturating_sub(child_ns[i]);
        }
        self.names
            .iter()
            .zip(rows)
            .map(|(n, (c, t, s))| (*n, c, t, s))
            .collect()
    }

    /// `(count, total ns, self ns)` of every span called `name`.
    pub fn of(&self, name: &str) -> (u64, u64, u64) {
        self.summary()
            .iter()
            .find(|r| r.0 == name)
            .map(|r| (r.1, r.2, r.3))
            .unwrap_or((0, 0, 0))
    }

    /// `{"names": [...], "spans": [[name, parent, txn, start_ns, end_ns, derived], ...]}`
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 40 + 256);
        out.push_str("{\"columns\":[\"name\",\"parent\",\"txn\",\"start_ns\",\"end_ns\",\"derived\"],\"names\":[");
        for (i, n) in self.names.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{n}\"");
        }
        out.push_str("],\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            let _ = write!(
                out,
                "[{},{},{},{},{},{}]",
                s.name, parent, s.txn, s.start_ns, s.end_ns, s.derived as u8
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut t = Tracer::new();
        let p = t.begin("parent", NO_PARENT, 1);
        t.spans[p as usize].end_ns = t.spans[p as usize].start_ns + 1000;
        t.derived("child", p, 0, 300);
        t.derived("child", p, 300, 500);
        let s = t.summary();
        assert_eq!(s[0], ("parent", 1, 1000, 200));
        assert_eq!(s[1], ("child", 2, 800, 800));
        assert!(t.to_json().contains("\"names\":[\"parent\",\"child\"]"));
    }
}
