//! Span-style trace trees rendered as `EXPLAIN ANALYZE`-like text or JSON.
//!
//! A [`TraceNode`] separates *structural* content (label, ordered
//! key/value fields, children) from *non-structural* annotations
//! (wall-clock durations, advisory notes such as phase timings).
//! Structural content must not depend on how the work was scheduled — the
//! concurrent-run-vs-serial-replay property tests compare
//! [`TraceNode::structure_json`], which omits the non-structural parts.

use std::time::Duration;

use crate::metrics::json_escape;

/// One span in a trace tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceNode {
    /// Span label, e.g. `"update Emp"` or `"N5 Select"`.
    pub label: String,
    /// Ordered structural key/value fields.
    pub fields: Vec<(String, String)>,
    /// Non-structural annotations (e.g. `"serial replay"`).
    pub notes: Vec<String>,
    /// Non-structural wall-clock duration of the span, if measured.
    pub wall_ns: Option<u64>,
    /// Child spans, in deterministic order.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// New node with the given label and no fields or children.
    pub fn new(label: impl Into<String>) -> Self {
        TraceNode {
            label: label.into(),
            ..TraceNode::default()
        }
    }

    /// Append a structural field (builder style).
    pub fn with_field(mut self, key: &str, value: impl ToString) -> Self {
        self.push_field(key, value);
        self
    }

    /// Append a structural field.
    pub fn push_field(&mut self, key: &str, value: impl ToString) {
        self.fields.push((key.to_string(), value.to_string()));
    }

    /// Append a non-structural note.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Record the span's wall-clock duration (non-structural).
    pub fn set_wall(&mut self, wall: Duration) {
        self.wall_ns = Some(wall.as_nanos() as u64);
    }

    /// Append a child span.
    pub fn push_child(&mut self, child: TraceNode) {
        self.children.push(child);
    }

    /// Structural field value, if present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Total number of spans in this subtree (including self).
    pub fn span_count(&self) -> usize {
        1 + self.children.iter().map(TraceNode::span_count).sum::<usize>()
    }

    /// Render as an `EXPLAIN ANALYZE`-style text tree.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        self.render_line(&mut out, "", "", "");
        out
    }

    fn render_line(&self, out: &mut String, lead: &str, here: &str, below: &str) {
        out.push_str(lead);
        out.push_str(here);
        out.push_str(&self.label);
        for (k, v) in &self.fields {
            out.push_str(&format!("  {k}={v}"));
        }
        for n in &self.notes {
            out.push_str(&format!("  [{n}]"));
        }
        if let Some(ns) = self.wall_ns {
            out.push_str(&format!("  ({})", fmt_ns(ns)));
        }
        out.push('\n');
        let child_lead = format!("{lead}{below}");
        for (i, c) in self.children.iter().enumerate() {
            let last = i + 1 == self.children.len();
            let (h, b) = if last { ("└─ ", "   ") } else { ("├─ ", "│  ") };
            c.render_line(out, &child_lead, h, b);
        }
    }

    /// Render the full tree (including durations and notes) as JSON.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        self.render_json_into(&mut out, true);
        out
    }

    /// Render only the structural content (label, fields, children) as
    /// JSON — the canonical form compared by trace-determinism tests.
    pub fn structure_json(&self) -> String {
        let mut out = String::new();
        self.render_json_into(&mut out, false);
        out
    }

    /// True when two trees agree on all structural content.
    pub fn structural_eq(&self, other: &TraceNode) -> bool {
        self.structure_json() == other.structure_json()
    }

    fn render_json_into(&self, out: &mut String, full: bool) {
        out.push_str(&format!("{{\"label\": \"{}\"", json_escape(&self.label)));
        out.push_str(", \"fields\": [");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "[\"{}\", \"{}\"]",
                json_escape(k),
                json_escape(v)
            ));
        }
        out.push(']');
        if full {
            if let Some(ns) = self.wall_ns {
                out.push_str(&format!(", \"wall_ns\": {ns}"));
            }
            if !self.notes.is_empty() {
                out.push_str(", \"notes\": [");
                for (i, n) in self.notes.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("\"{}\"", json_escape(n)));
                }
                out.push(']');
            }
        }
        if !self.children.is_empty() {
            out.push_str(", \"children\": [");
            for (i, c) in self.children.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                c.render_json_into(out, full);
            }
            out.push(']');
        }
        out.push('}');
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1_000_000.0)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1_000.0)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceNode {
        let mut root = TraceNode::new("update Emp").with_field("rows", 2);
        root.set_wall(Duration::from_micros(1500));
        let mut lvl = TraceNode::new("level 1");
        let mut g = TraceNode::new("N5 Select")
            .with_field("Δin", 2)
            .with_field("Δout", 1);
        g.push_note("serial replay");
        lvl.push_child(g);
        root.push_child(lvl);
        root
    }

    #[test]
    fn text_rendering_draws_a_tree() {
        let text = sample().render_text();
        assert!(text.starts_with("update Emp  rows=2  (1.50 ms)"));
        assert!(text.contains("└─ level 1"));
        assert!(text.contains("   └─ N5 Select  Δin=2  Δout=1  [serial replay]"));
    }

    #[test]
    fn structure_omits_walls_and_notes() {
        let a = sample();
        let mut b = sample();
        b.wall_ns = None;
        b.children[0].children[0].notes.clear();
        assert!(a.structural_eq(&b));
        assert_ne!(a.render_json(), b.render_json());

        let mut c = sample();
        c.children[0].children[0].fields[1].1 = "9".into();
        assert!(!a.structural_eq(&c));
    }

    #[test]
    fn json_contains_wall_only_in_full_render() {
        let t = sample();
        assert!(t.render_json().contains("\"wall_ns\": 1500000"));
        assert!(!t.structure_json().contains("wall_ns"));
        assert!(t.structure_json().contains("\"label\": \"update Emp\""));
    }

    #[test]
    fn field_lookup_and_span_count() {
        let t = sample();
        assert_eq!(t.field("rows"), Some("2"));
        assert_eq!(t.field("missing"), None);
        assert_eq!(t.span_count(), 3);
    }
}
