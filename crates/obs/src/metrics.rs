//! Lock-cheap metrics registry with feature-gated zero-overhead default.
//!
//! Call sites use the free functions ([`counter_add`], [`gauge_set`],
//! [`gauge_add`], [`observe_ns`], [`stopwatch`]) unconditionally. With the
//! `metrics` feature off they are `#[inline(always)]` empty bodies, so the
//! call and its `&'static str` name argument vanish from optimized builds
//! — the same contract `spacetime_storage::fault` gives for failpoints.
//! With the feature on they route through the installed [`Recorder`]
//! (default: a process-global [`Registry`]).
//!
//! The registry itself is lock-cheap: each series is an `Arc` of atomics
//! resolved through a sharded-free `RwLock<BTreeMap>` that is only write-
//! locked the first time a name is seen. Steady-state cost per event is
//! one read-lock acquisition plus one atomic RMW.

use std::collections::BTreeMap;

/// Whether the metrics recorder was compiled into this build.
///
/// `const` so benches can embed it in their JSON output and CI can assert
/// the default build reports `false`.
pub const fn compiled() -> bool {
    cfg!(feature = "metrics")
}

/// Sink for instrumentation events. The default recorder is the global
/// [`Registry`]; tests can install their own with [`set_recorder`] before
/// the first event.
pub trait Recorder: Send + Sync {
    /// Add `v` to the monotone counter `name`.
    fn counter_add(&self, name: &'static str, v: u64);
    /// Set gauge `name` to `v`.
    fn gauge_set(&self, name: &'static str, v: f64);
    /// Add `v` (possibly negative) to gauge `name`.
    fn gauge_add(&self, name: &'static str, v: f64);
    /// Record one observation of `nanos` in histogram `name`.
    fn observe_ns(&self, name: &'static str, nanos: u64);
    /// Materialize a point-in-time snapshot of every series.
    fn snapshot(&self) -> MetricsSnapshot;

    /// Add `v` to the `label` series of the labeled counter `name`.
    ///
    /// `label` is a full `key="value"` pair (see `names::shard_label` and
    /// friends) with fixed small cardinality, so recorders can key on the
    /// `(name, label)` pointer pair with zero allocation. Default: drop
    /// the event, so pre-existing custom recorders keep compiling (they
    /// simply don't see labeled series).
    fn counter_add_labeled(&self, _name: &'static str, _label: &'static str, _v: u64) {}
    /// Add `v` (possibly negative) to the `label` series of the labeled
    /// gauge `name`. Default: drop the event (see
    /// [`counter_add_labeled`](Recorder::counter_add_labeled)).
    fn gauge_add_labeled(&self, _name: &'static str, _label: &'static str, _v: f64) {}
}

/// Recorder that drops every event — the conceptual default when the
/// `metrics` feature is off (in that build it is never even called; the
/// free functions short-circuit first).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn counter_add(&self, _name: &'static str, _v: u64) {}
    fn gauge_set(&self, _name: &'static str, _v: f64) {}
    fn gauge_add(&self, _name: &'static str, _v: f64) {}
    fn observe_ns(&self, _name: &'static str, _nanos: u64) {}
    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::default()
    }
}

/// Histogram bucket upper bounds in nanoseconds, shared by every
/// histogram in the registry (fixed buckets keep observation O(buckets)
/// with zero allocation). Spans 1 µs – 10 s, roughly logarithmic.
pub const BUCKET_BOUNDS_NS: [u64; 16] = [
    1_000,
    2_500,
    5_000,
    10_000,
    25_000,
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// Point-in-time copy of a fixed-bucket histogram.
///
/// `counts` has one entry per bound in `bounds` plus a final overflow
/// bucket (`+Inf`), so `counts.len() == bounds.len() + 1`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds, in nanoseconds, ascending.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts; last entry is the overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all observed values, in nanoseconds.
    pub sum: u64,
    /// Total number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (0.0..=1.0) as the upper bound of the
    /// bucket containing that rank; overflow-bucket ranks report the
    /// largest finite bound. Returns 0 for an empty histogram.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    *self.bounds.last().unwrap_or(&0)
                };
            }
        }
        *self.bounds.last().unwrap_or(&0)
    }

    /// Mean observation in nanoseconds (0 for an empty histogram).
    pub fn mean_ns(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// Point-in-time copy of every registered series. Always compiled; empty
/// in default builds so downstream code can consume it unconditionally.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotone counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Labeled counters: name → (`key="value"` label → value).
    pub labeled_counters: BTreeMap<String, BTreeMap<String, u64>>,
    /// Labeled gauges: name → (`key="value"` label → value).
    pub labeled_gauges: BTreeMap<String, BTreeMap<String, f64>>,
    /// Workload drift: sliding-window transaction counts per updated base
    /// table (see the `drift` module). Empty unless drift events fired.
    pub txn_mix: BTreeMap<String, u64>,
    /// Workload drift: per-view maintenance-cost EWMA in I/O units.
    pub view_cost_ewma: BTreeMap<String, f64>,
}

impl MetricsSnapshot {
    /// Counter value, 0 if the series was never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, 0.0 if the series was never touched.
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Histogram snapshot, if the series was ever observed.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Labeled counter value for one `key="value"` label, 0 if untouched.
    pub fn labeled_counter(&self, name: &str, label: &str) -> u64 {
        self.labeled_counters
            .get(name)
            .and_then(|m| m.get(label))
            .copied()
            .unwrap_or(0)
    }

    /// Sum of a labeled counter across every label, 0 if untouched.
    pub fn labeled_counter_sum(&self, name: &str) -> u64 {
        self.labeled_counters
            .get(name)
            .map(|m| m.values().sum())
            .unwrap_or(0)
    }

    /// Labeled gauge value for one `key="value"` label, 0.0 if untouched.
    pub fn labeled_gauge(&self, name: &str, label: &str) -> f64 {
        self.labeled_gauges
            .get(name)
            .and_then(|m| m.get(label))
            .copied()
            .unwrap_or(0.0)
    }

    /// Sum of a labeled gauge across every label, 0.0 if untouched.
    pub fn labeled_gauge_sum(&self, name: &str) -> f64 {
        self.labeled_gauges
            .get(name)
            .map(|m| m.values().sum())
            .unwrap_or(0.0)
    }

    /// True when no series exist (always true in default builds).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.labeled_counters.is_empty()
            && self.labeled_gauges.is_empty()
            && self.txn_mix.is_empty()
            && self.view_cost_ewma.is_empty()
    }

    /// Render in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (name, series) in &self.labeled_counters {
            out.push_str(&format!("# TYPE {name} counter\n"));
            for (label, v) in series {
                out.push_str(&format!("{name}{{{label}}} {v}\n"));
            }
        }
        for (name, series) in &self.labeled_gauges {
            out.push_str(&format!("# TYPE {name} gauge\n"));
            for (label, v) in series {
                out.push_str(&format!("{name}{{{label}}} {v}\n"));
            }
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cum = 0u64;
            for (i, &c) in h.counts.iter().enumerate() {
                cum += c;
                let le = if i < h.bounds.len() {
                    format!("{}", h.bounds[i])
                } else {
                    "+Inf".to_string()
                };
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
            }
            out.push_str(&format!("{name}_sum {}\n{name}_count {}\n", h.sum, h.count));
        }
        out
    }

    /// Render as a JSON object with `counters`, `gauges`, and
    /// `histograms` maps (histograms carry bounds/counts/sum/count).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", json_escape(name), v));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", json_escape(name), fmt_f64(*v)));
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum_ns\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}}}",
                json_escape(name),
                h.count,
                h.sum,
                h.quantile_ns(0.50),
                h.quantile_ns(0.95),
                h.quantile_ns(0.99),
            ));
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"labeled_counters\": {");
        for (i, (name, series)) in self.labeled_counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {{", json_escape(name)));
            for (j, (label, v)) in series.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\": {}", json_escape(label), v));
            }
            out.push('}');
        }
        if !self.labeled_counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"labeled_gauges\": {");
        for (i, (name, series)) in self.labeled_gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {{", json_escape(name)));
            for (j, (label, v)) in series.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\": {}", json_escape(label), fmt_f64(*v)));
            }
            out.push('}');
        }
        if !self.labeled_gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"txn_mix\": {");
        for (i, (name, v)) in self.txn_mix.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", json_escape(name), v));
        }
        if !self.txn_mix.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"view_cost_ewma\": {");
        for (i, (name, v)) in self.view_cost_ewma.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", json_escape(name), fmt_f64(*v)));
        }
        if !self.view_cost_ewma.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}");
        out
    }
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(feature = "metrics")]
mod imp {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, OnceLock, RwLock};

    struct Histogram {
        counts: [AtomicU64; BUCKET_BOUNDS_NS.len() + 1],
        sum: AtomicU64,
        count: AtomicU64,
    }

    impl Histogram {
        fn new() -> Self {
            Histogram {
                counts: std::array::from_fn(|_| AtomicU64::new(0)),
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }
        }

        fn observe(&self, v: u64) {
            let idx = BUCKET_BOUNDS_NS
                .iter()
                .position(|&b| v <= b)
                .unwrap_or(BUCKET_BOUNDS_NS.len());
            self.counts[idx].fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
        }

        fn snapshot(&self) -> HistogramSnapshot {
            HistogramSnapshot {
                bounds: BUCKET_BOUNDS_NS.to_vec(),
                counts: self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
                sum: self.sum.load(Ordering::Relaxed),
                count: self.count.load(Ordering::Relaxed),
            }
        }
    }

    /// The default [`Recorder`]: a process-global map from metric name to
    /// atomic storage. Gauges store `f64` bits in an `AtomicU64` and
    /// update via CAS so concurrent `gauge_add` never loses increments.
    #[derive(Default)]
    pub struct Registry {
        counters: RwLock<BTreeMap<&'static str, Arc<AtomicU64>>>,
        gauges: RwLock<BTreeMap<&'static str, Arc<AtomicU64>>>,
        histograms: RwLock<BTreeMap<&'static str, Arc<Histogram>>>,
        labeled_counters: RwLock<BTreeMap<(&'static str, &'static str), Arc<AtomicU64>>>,
        labeled_gauges: RwLock<BTreeMap<(&'static str, &'static str), Arc<AtomicU64>>>,
    }

    impl Registry {
        pub fn new() -> Self {
            Self::default()
        }

        fn counter(&self, name: &'static str) -> Arc<AtomicU64> {
            if let Some(c) = self.counters.read().unwrap().get(name) {
                return Arc::clone(c);
            }
            Arc::clone(self.counters.write().unwrap().entry(name).or_default())
        }

        fn gauge(&self, name: &'static str) -> Arc<AtomicU64> {
            if let Some(g) = self.gauges.read().unwrap().get(name) {
                return Arc::clone(g);
            }
            Arc::clone(self.gauges.write().unwrap().entry(name).or_default())
        }

        fn histogram(&self, name: &'static str) -> Arc<Histogram> {
            if let Some(h) = self.histograms.read().unwrap().get(name) {
                return Arc::clone(h);
            }
            Arc::clone(
                self.histograms
                    .write()
                    .unwrap()
                    .entry(name)
                    .or_insert_with(|| Arc::new(Histogram::new())),
            )
        }

        fn labeled_counter(&self, name: &'static str, label: &'static str) -> Arc<AtomicU64> {
            if let Some(c) = self.labeled_counters.read().unwrap().get(&(name, label)) {
                return Arc::clone(c);
            }
            Arc::clone(self.labeled_counters.write().unwrap().entry((name, label)).or_default())
        }

        fn labeled_gauge(&self, name: &'static str, label: &'static str) -> Arc<AtomicU64> {
            if let Some(g) = self.labeled_gauges.read().unwrap().get(&(name, label)) {
                return Arc::clone(g);
            }
            Arc::clone(self.labeled_gauges.write().unwrap().entry((name, label)).or_default())
        }
    }

    impl Recorder for Registry {
        fn counter_add(&self, name: &'static str, v: u64) {
            self.counter(name).fetch_add(v, Ordering::Relaxed);
        }

        fn gauge_set(&self, name: &'static str, v: f64) {
            self.gauge(name).store(v.to_bits(), Ordering::Relaxed);
        }

        fn gauge_add(&self, name: &'static str, v: f64) {
            let g = self.gauge(name);
            let mut cur = g.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + v).to_bits();
                match g.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => return,
                    Err(seen) => cur = seen,
                }
            }
        }

        fn observe_ns(&self, name: &'static str, nanos: u64) {
            self.histogram(name).observe(nanos);
        }

        fn counter_add_labeled(&self, name: &'static str, label: &'static str, v: u64) {
            self.labeled_counter(name, label).fetch_add(v, Ordering::Relaxed);
        }

        fn gauge_add_labeled(&self, name: &'static str, label: &'static str, v: f64) {
            let g = self.labeled_gauge(name, label);
            let mut cur = g.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + v).to_bits();
                match g.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => return,
                    Err(seen) => cur = seen,
                }
            }
        }

        fn snapshot(&self) -> MetricsSnapshot {
            MetricsSnapshot {
                counters: self
                    .counters
                    .read()
                    .unwrap()
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.load(Ordering::Relaxed)))
                    .collect(),
                gauges: self
                    .gauges
                    .read()
                    .unwrap()
                    .iter()
                    .map(|(k, v)| (k.to_string(), f64::from_bits(v.load(Ordering::Relaxed))))
                    .collect(),
                histograms: self
                    .histograms
                    .read()
                    .unwrap()
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.snapshot()))
                    .collect(),
                labeled_counters: {
                    let mut out: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
                    for ((name, label), v) in self.labeled_counters.read().unwrap().iter() {
                        out.entry(name.to_string())
                            .or_default()
                            .insert(label.to_string(), v.load(Ordering::Relaxed));
                    }
                    out
                },
                labeled_gauges: {
                    let mut out: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
                    for ((name, label), v) in self.labeled_gauges.read().unwrap().iter() {
                        out.entry(name.to_string()).or_default().insert(
                            label.to_string(),
                            f64::from_bits(v.load(Ordering::Relaxed)),
                        );
                    }
                    out
                },
                // Drift accounting lives outside the recorder (it is keyed
                // by dynamic table/view names); the free `snapshot()`
                // function merges it in.
                txn_mix: BTreeMap::new(),
                view_cost_ewma: BTreeMap::new(),
            }
        }
    }

    static RECORDER: OnceLock<Box<dyn Recorder>> = OnceLock::new();

    /// Install a custom recorder. Fails (returning it back) if any event
    /// or snapshot already forced the default registry into place.
    pub fn set_recorder(r: Box<dyn Recorder>) -> Result<(), Box<dyn Recorder>> {
        RECORDER.set(r)
    }

    pub(super) fn recorder() -> &'static dyn Recorder {
        RECORDER.get_or_init(|| Box::new(Registry::new())).as_ref()
    }
}

#[cfg(feature = "metrics")]
pub use imp::{set_recorder, Registry};

#[cfg(feature = "metrics")]
mod api {
    use super::*;
    use std::time::Instant;

    /// Add `v` to counter `name`.
    #[inline]
    pub fn counter_add(name: &'static str, v: u64) {
        imp::recorder().counter_add(name, v);
    }

    /// Set gauge `name` to `v`.
    #[inline]
    pub fn gauge_set(name: &'static str, v: f64) {
        imp::recorder().gauge_set(name, v);
    }

    /// Add `v` (possibly negative) to gauge `name`.
    #[inline]
    pub fn gauge_add(name: &'static str, v: f64) {
        imp::recorder().gauge_add(name, v);
    }

    /// Record one `nanos` observation in histogram `name`.
    #[inline]
    pub fn observe_ns(name: &'static str, nanos: u64) {
        imp::recorder().observe_ns(name, nanos);
    }

    /// Add `v` to the `label` series of the labeled counter `name`.
    #[inline]
    pub fn counter_add_labeled(name: &'static str, label: &'static str, v: u64) {
        imp::recorder().counter_add_labeled(name, label, v);
    }

    /// Add `v` (possibly negative) to the `label` series of the labeled
    /// gauge `name`.
    #[inline]
    pub fn gauge_add_labeled(name: &'static str, label: &'static str, v: f64) {
        imp::recorder().gauge_add_labeled(name, label, v);
    }

    /// Snapshot every series of the active recorder, with the workload
    /// drift accounting (`txn_mix`, `view_cost_ewma`) merged in.
    pub fn snapshot() -> MetricsSnapshot {
        let mut s = imp::recorder().snapshot();
        s.txn_mix = crate::drift::txn_mix();
        s.view_cost_ewma = crate::drift::view_cost_ewma();
        s
    }

    /// Running timer; see [`stopwatch`].
    pub struct StopWatch(Instant);

    /// Start a timer. Costs an `Instant::now()` only in `metrics` builds;
    /// the default build's `StopWatch` is a zero-sized no-op.
    #[inline]
    pub fn stopwatch() -> StopWatch {
        StopWatch(Instant::now())
    }

    impl StopWatch {
        /// Record the elapsed time in histogram `name`.
        #[inline]
        pub fn observe(self, name: &'static str) {
            observe_ns(name, self.0.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(not(feature = "metrics"))]
mod api {
    use super::MetricsSnapshot;

    #[inline(always)]
    pub fn counter_add(_name: &'static str, _v: u64) {}

    #[inline(always)]
    pub fn gauge_set(_name: &'static str, _v: f64) {}

    #[inline(always)]
    pub fn gauge_add(_name: &'static str, _v: f64) {}

    #[inline(always)]
    pub fn observe_ns(_name: &'static str, _nanos: u64) {}

    #[inline(always)]
    pub fn counter_add_labeled(_name: &'static str, _label: &'static str, _v: u64) {}

    #[inline(always)]
    pub fn gauge_add_labeled(_name: &'static str, _label: &'static str, _v: f64) {}

    /// Empty snapshot: no recorder is compiled in.
    #[inline]
    pub fn snapshot() -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// Zero-sized stand-in; every method is an inlined no-op.
    #[derive(Clone, Copy)]
    pub struct StopWatch;

    #[inline(always)]
    pub fn stopwatch() -> StopWatch {
        StopWatch
    }

    impl StopWatch {
        #[inline(always)]
        pub fn observe(self, _name: &'static str) {}
    }
}

pub use api::{
    counter_add, counter_add_labeled, gauge_add, gauge_add_labeled, gauge_set, observe_ns,
    snapshot, stopwatch, StopWatch,
};

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        s.counters.insert("spacetime_test_total".into(), 7);
        s.gauges.insert("spacetime_test_depth".into(), 2.5);
        s.histograms.insert(
            "spacetime_test_ns".into(),
            HistogramSnapshot {
                bounds: vec![10, 100, 1000],
                counts: vec![1, 2, 1, 0],
                sum: 500,
                count: 4,
            },
        );
        s
    }

    #[test]
    fn histogram_quantiles_use_bucket_bounds() {
        let h = HistogramSnapshot {
            bounds: vec![10, 100, 1000],
            counts: vec![5, 4, 1, 0],
            sum: 700,
            count: 10,
        };
        assert_eq!(h.quantile_ns(0.50), 10);
        assert_eq!(h.quantile_ns(0.90), 100);
        assert_eq!(h.quantile_ns(0.99), 1000);
        assert_eq!(h.mean_ns(), 70);
        assert_eq!(HistogramSnapshot::default().quantile_ns(0.5), 0);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = sample_snapshot().render_prometheus();
        assert!(text.contains("# TYPE spacetime_test_total counter"));
        assert!(text.contains("spacetime_test_total 7"));
        assert!(text.contains("# TYPE spacetime_test_depth gauge"));
        assert!(text.contains("spacetime_test_ns_bucket{le=\"10\"} 1"));
        assert!(text.contains("spacetime_test_ns_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("spacetime_test_ns_sum 500"));
        assert!(text.contains("spacetime_test_ns_count 4"));
    }

    #[test]
    fn json_snapshot_shape() {
        let json = sample_snapshot().render_json();
        assert!(json.contains("\"spacetime_test_total\": 7"));
        assert!(json.contains("\"spacetime_test_depth\": 2.5"));
        assert!(json.contains("\"count\": 4"));
        let empty = MetricsSnapshot::default().render_json();
        assert!(empty.contains("\"counters\": {}"));
    }

    #[test]
    fn noop_recorder_snapshot_is_empty() {
        let r = NoopRecorder;
        r.counter_add("x", 1);
        assert!(r.snapshot().is_empty());
    }

    #[cfg(not(feature = "metrics"))]
    #[test]
    fn default_build_compiles_out() {
        assert!(!compiled());
        counter_add("spacetime_never_recorded_total", 1);
        observe_ns("spacetime_never_recorded_ns", 5);
        counter_add_labeled("spacetime_never_recorded_total", "shard=\"s0\"", 1);
        gauge_add_labeled("spacetime_never_recorded_depth", "shard=\"s0\"", 1.0);
        stopwatch().observe("spacetime_never_recorded_ns");
        assert!(snapshot().is_empty());
    }

    #[test]
    fn labeled_series_render_shapes() {
        let mut s = MetricsSnapshot::default();
        s.labeled_counters
            .entry("spacetime_test_labeled_total".into())
            .or_default()
            .insert("shard=\"s0\"".into(), 3);
        s.labeled_counters
            .get_mut("spacetime_test_labeled_total")
            .unwrap()
            .insert("shard=\"s1\"".into(), 4);
        s.labeled_gauges
            .entry("spacetime_test_labeled_depth".into())
            .or_default()
            .insert("shard=\"s0\"".into(), 1.5);
        assert!(!s.is_empty());
        assert_eq!(s.labeled_counter("spacetime_test_labeled_total", "shard=\"s0\""), 3);
        assert_eq!(s.labeled_counter_sum("spacetime_test_labeled_total"), 7);
        assert_eq!(s.labeled_gauge("spacetime_test_labeled_depth", "shard=\"s0\""), 1.5);
        let text = s.render_prometheus();
        assert!(text.contains("# TYPE spacetime_test_labeled_total counter"));
        assert!(text.contains("spacetime_test_labeled_total{shard=\"s0\"} 3"));
        assert!(text.contains("spacetime_test_labeled_total{shard=\"s1\"} 4"));
        assert!(text.contains("spacetime_test_labeled_depth{shard=\"s0\"} 1.5"));
        let json = s.render_json();
        assert!(json.contains("\"spacetime_test_labeled_total\""));
        assert!(json.contains("\"shard=\\\"s0\\\"\": 3"));
    }

    #[test]
    fn drift_maps_render_in_json() {
        let mut s = MetricsSnapshot::default();
        s.txn_mix.insert("Emp".into(), 12);
        s.view_cost_ewma.insert("EmpDept".into(), 34.5);
        assert!(!s.is_empty());
        let json = s.render_json();
        assert!(json.contains("\"txn_mix\": {"));
        assert!(json.contains("\"Emp\": 12"));
        assert!(json.contains("\"EmpDept\": 34.5"));
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn registry_records_all_series_kinds() {
        assert!(compiled());
        let r = Registry::new();
        r.counter_add("c", 2);
        r.counter_add("c", 3);
        r.gauge_set("g", 4.0);
        r.gauge_add("g", -1.5);
        r.observe_ns("h", 1_500);
        r.observe_ns("h", 2_000_000);
        let s = r.snapshot();
        assert_eq!(s.counter("c"), 5);
        assert!((s.gauge("g") - 2.5).abs() < 1e-9);
        let h = s.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 2_001_500);
        assert_eq!(h.quantile_ns(0.5), 2_500);
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn registry_records_labeled_series() {
        let r = Registry::new();
        r.counter_add_labeled("lc", "shard=\"s0\"", 2);
        r.counter_add_labeled("lc", "shard=\"s0\"", 3);
        r.counter_add_labeled("lc", "shard=\"s1\"", 1);
        r.gauge_add_labeled("lg", "shard=\"s0\"", 2.0);
        r.gauge_add_labeled("lg", "shard=\"s0\"", -0.5);
        let s = r.snapshot();
        assert_eq!(s.labeled_counter("lc", "shard=\"s0\""), 5);
        assert_eq!(s.labeled_counter("lc", "shard=\"s1\""), 1);
        assert_eq!(s.labeled_counter_sum("lc"), 6);
        assert!((s.labeled_gauge("lg", "shard=\"s0\"") - 1.5).abs() < 1e-9);
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn registry_gauge_add_is_lossless_under_contention() {
        use std::sync::Arc;
        let r = Arc::new(Registry::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        r.gauge_add("depth", 1.0);
                        r.gauge_add("depth", -1.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.snapshot().gauge("depth"), 0.0);
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn global_free_functions_hit_the_registry() {
        counter_add("spacetime_global_smoke_total", 1);
        gauge_add("spacetime_global_smoke_depth", 2.0);
        observe_ns("spacetime_global_smoke_ns", 10);
        let s = snapshot();
        assert_eq!(s.counter("spacetime_global_smoke_total"), 1);
        assert_eq!(s.gauge("spacetime_global_smoke_depth"), 2.0);
        assert_eq!(s.histogram("spacetime_global_smoke_ns").unwrap().count, 1);
    }
}
