//! Flight recorder: a fixed-size ring of recent serving-plane events,
//! dumped when something goes wrong.
//!
//! The ring keeps the last [`RING_CAPACITY`] events (transaction
//! admissions/commits/aborts, failpoint fires, WAL fsyncs, integrity
//! failures). Recording is wait-free on the ring index
//! — a single `fetch_add` claims a slot — with a tiny per-slot mutex to
//! publish the payload (writers contend on a slot only after a full lap
//! of the ring). Consumers: [`dump`] / [`dump_json`] for programmatic
//! access (also served at `/debug/events` by the HTTP endpoint),
//! [`dump_to_stderr`] for crash paths, and [`install_panic_hook`] to dump
//! automatically when a thread panics.
//!
//! With the `metrics` feature off everything is an inlined no-op; the
//! `detail` closure passed to [`record`] is never invoked, so call sites
//! pay nothing for formatting in default builds.

/// Number of events the ring retains.
pub const RING_CAPACITY: usize = 256;

/// One recorded event, as seen by [`dump`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventSnapshot {
    /// Global sequence number (monotone across the whole process).
    pub seq: u64,
    /// Nanoseconds since the first use of the observability plane.
    pub at_ns: u64,
    /// Event kind, e.g. `txn_committed`, `wal_fsync`, `failpoint`.
    pub kind: &'static str,
    /// Free-form detail string rendered at record time.
    pub detail: String,
}

/// Render a slice of events as a JSON array (used by `/debug/events`).
pub fn events_json(events: &[EventSnapshot]) -> String {
    let mut out = String::from("[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"seq\": {}, \"at_ns\": {}, \"kind\": \"{}\", \"detail\": \"{}\"}}",
            e.seq,
            e.at_ns,
            crate::metrics::json_escape(e.kind),
            crate::metrics::json_escape(&e.detail),
        ));
    }
    if !events.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

#[cfg(feature = "metrics")]
mod imp {
    use super::{EventSnapshot, RING_CAPACITY};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, Once, OnceLock};
    use std::time::Instant;

    struct Slot {
        seq: u64,
        at_ns: u64,
        kind: &'static str,
        detail: String,
    }

    struct Ring {
        head: AtomicU64,
        slots: Vec<Mutex<Option<Slot>>>,
    }

    fn ring() -> &'static Ring {
        static RING: OnceLock<Ring> = OnceLock::new();
        RING.get_or_init(|| Ring {
            head: AtomicU64::new(0),
            slots: (0..RING_CAPACITY).map(|_| Mutex::new(None)).collect(),
        })
    }

    /// Process-relative clock shared with the HTTP endpoint's uptime.
    pub fn process_start() -> Instant {
        static START: OnceLock<Instant> = OnceLock::new();
        *START.get_or_init(Instant::now)
    }

    pub fn record(kind: &'static str, detail: impl FnOnce() -> String) {
        let at_ns = process_start().elapsed().as_nanos() as u64;
        let r = ring();
        let seq = r.head.fetch_add(1, Ordering::Relaxed);
        let slot = &r.slots[(seq as usize) % RING_CAPACITY];
        *slot.lock().unwrap() = Some(Slot { seq, at_ns, kind, detail: detail() });
    }

    pub fn dump() -> Vec<EventSnapshot> {
        let r = ring();
        let mut out: Vec<EventSnapshot> = r
            .slots
            .iter()
            .filter_map(|s| {
                s.lock().unwrap().as_ref().map(|slot| EventSnapshot {
                    seq: slot.seq,
                    at_ns: slot.at_ns,
                    kind: slot.kind,
                    detail: slot.detail.clone(),
                })
            })
            .collect();
        out.sort_by_key(|e| e.seq);
        out
    }

    pub fn dump_json() -> String {
        super::events_json(&dump())
    }

    pub fn dump_to_stderr(reason: &str) {
        let events = dump();
        eprintln!("--- flight recorder dump ({reason}): {} events ---", events.len());
        for e in &events {
            eprintln!("  [{:>6}] +{:>12}ns {:<16} {}", e.seq, e.at_ns, e.kind, e.detail);
        }
        eprintln!("--- end flight recorder dump ---");
    }

    pub fn install_panic_hook() {
        static HOOK: Once = Once::new();
        HOOK.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                dump_to_stderr("panic");
                prev(info);
            }));
        });
    }
}

#[cfg(feature = "metrics")]
pub use imp::{dump, dump_json, dump_to_stderr, install_panic_hook, record};
#[cfg(feature = "metrics")]
pub(crate) use imp::process_start;

#[cfg(not(feature = "metrics"))]
mod noop {
    use super::EventSnapshot;

    /// No-op: the flight recorder is compiled out. The `detail` closure
    /// is never invoked.
    #[inline(always)]
    pub fn record(_kind: &'static str, _detail: impl FnOnce() -> String) {}

    /// Always empty: the flight recorder is compiled out.
    #[inline]
    pub fn dump() -> Vec<EventSnapshot> {
        Vec::new()
    }

    /// Always the empty array: the flight recorder is compiled out.
    #[inline]
    pub fn dump_json() -> String {
        "[]".to_string()
    }

    /// No-op: the flight recorder is compiled out.
    #[inline(always)]
    pub fn dump_to_stderr(_reason: &str) {}

    /// No-op: the flight recorder is compiled out.
    #[inline(always)]
    pub fn install_panic_hook() {}
}

#[cfg(not(feature = "metrics"))]
pub use noop::{dump, dump_json, dump_to_stderr, install_panic_hook, record};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_json_shape() {
        let events = vec![EventSnapshot {
            seq: 3,
            at_ns: 42,
            kind: "txn_committed",
            detail: "slot 1".to_string(),
        }];
        let json = events_json(&events);
        assert!(json.contains("\"seq\": 3"));
        assert!(json.contains("\"kind\": \"txn_committed\""));
        assert_eq!(events_json(&[]), "[]");
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn ring_retains_recent_events_in_order() {
        for i in 0..(RING_CAPACITY + 10) {
            record("flight_test", move || format!("event {i}"));
        }
        let events = dump();
        assert!(events.len() <= RING_CAPACITY);
        // Sequence numbers are strictly increasing after the sort.
        for w in events.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
        // The most recent event of this test survived the wrap. Other
        // tests may interleave, but this binary records far fewer than
        // RING_CAPACITY events elsewhere.
        assert!(events
            .iter()
            .any(|e| e.kind == "flight_test" && e.detail == format!("event {}", RING_CAPACITY + 9)));
        assert!(dump_json().contains("flight_test"));
    }

    #[cfg(not(feature = "metrics"))]
    #[test]
    fn default_build_never_runs_the_detail_closure() {
        record("flight_test", || unreachable!("detail closure must not run"));
        assert!(dump().is_empty());
        assert_eq!(dump_json(), "[]");
    }
}
