//! Deterministic fault injection (failpoints).
//!
//! The transactional guarantees of the system — "failure anywhere in the
//! maintenance pipeline means the transaction never happened" — are only
//! trustworthy if failures can be *produced on demand* at every point
//! where the commit protocol could be interrupted. This module provides
//! named failpoint **sites** threaded through the storage/delta/ivm
//! runtime; a test installs a [`FaultPlan`] mapping a site to an action
//! (typed error or panic) that fires on the Nth hit of that site.
//!
//! Zero cost when disabled: without the `failpoints` cargo feature,
//! [`fire`] and [`fire_panic`] are `#[inline(always)]` no-ops and none of
//! the plan machinery is compiled, so the default build's hot path is
//! byte-for-byte the unfaulted one.
//!
//! With the feature on but no plan installed, each hit is one mutex lock
//! on an empty `Option` — negligible, and only test builds enable it.
//!
//! Plans are process-global (every thread observes them), so tests that
//! install plans must serialize; [`serial_guard`] provides the lock.

use crate::error::StorageResult;

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Return a typed [`StorageError::FaultInjected`].
    Error,
    /// Panic with a recognizable message (`"injected panic at <site>"`).
    Panic,
}

/// One failpoint site in the catalog: its name and which actions the
/// surrounding code can absorb while keeping the all-or-nothing contract.
///
/// Panic-capable sites are those whose unwind the commit survives: the
/// journal replays before the panic resumes on the caller's thread, and
/// the scheduler's pool turns it into a typed error. The sweeps do not
/// inject panics at error-only sites.
#[derive(Debug, Clone, Copy)]
pub struct Site {
    /// The site's name, as passed to [`fire`].
    pub name: &'static str,
    /// Whether [`FaultAction::Error`] injection keeps the catalog whole.
    pub supports_error: bool,
    /// Whether the fault sweeps inject [`FaultAction::Panic`] here.
    pub supports_panic: bool,
}

/// The failpoint site catalog (DESIGN.md §12). Sweeping tests iterate
/// this; adding a site here automatically adds it to the fault sweep.
pub const SITES: &[Site] = &[
    // The commit gate: fired by the database's commit once per table the
    // update wrote, after every write of the update is in place — the
    // whole update must then be undone.
    Site {
        name: "storage::restore_table",
        supports_error: true,
        supports_panic: false,
    },
    // Fired by `apply_to_relation_undo` before touching the relation —
    // the innermost write of the commit (views, auxiliaries, base).
    Site {
        name: "delta::apply_to",
        supports_error: true,
        supports_panic: true,
    },
    // Fired by the engine's commit once per view delta — the Nth hit
    // interrupts the commit with N-1 views of the update already applied.
    Site {
        name: "ivm::commit_view",
        supports_error: true,
        supports_panic: true,
    },
    // Fired by the transaction scheduler once per transaction, before any
    // shard is touched and inside that transaction's own `catch_unwind`
    // (the name predates the scheduler's one drain loop; there is no
    // pool). Panic-only: the unwind is caught and surfaced as that
    // transaction's `IvmError::TaskPanicked`.
    Site {
        name: "ivm::pool_dispatch",
        supports_error: false,
        supports_panic: true,
    },
    // Fired by `WalWriter::append` before any bytes are framed — a
    // durable-commit append that errors must leave memory and disk
    // agreeing (the durability layer aborts its open transaction scope).
    // Only reachable in `durability` builds; the fault sweep tolerates
    // sites that never fire.
    Site {
        name: "wal::append",
        supports_error: true,
        supports_panic: false,
    },
    // Fired immediately before the cross-shard global commit record is
    // appended — the 2PC decision point. An error here must abort the
    // whole transaction (presumed abort: prepared-but-uncommitted
    // participants roll back at recovery).
    Site {
        name: "wal::global_commit",
        supports_error: true,
        supports_panic: false,
    },
];

/// Whether this build compiled the failpoint machinery in.
pub const fn compiled() -> bool {
    cfg!(feature = "failpoints")
}

#[cfg(feature = "failpoints")]
mod imp {
    use super::{FaultAction, StorageResult, SITES};
    use crate::error::StorageError;
    use std::collections::BTreeMap;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// A named site armed to fire on its Nth hit.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct FaultSpec {
        /// Fire when the site's hit counter reaches this value (1-based).
        pub on_hit: u64,
        /// What firing does.
        pub action: FaultAction,
    }

    /// A deterministic fault schedule: site name → armed spec.
    ///
    /// The plan is deterministic: *which site fires, on which hit, with
    /// which action* is fixed up front, and the scheduler runs
    /// transactions one at a time in admission order, so the hit that
    /// reaches the threshold is the same one on every run.
    #[derive(Debug, Clone, Default)]
    pub struct FaultPlan {
        specs: BTreeMap<&'static str, FaultSpec>,
    }

    impl FaultPlan {
        /// An empty plan (no site armed).
        pub fn new() -> Self {
            FaultPlan::default()
        }

        /// Arm `site` to return an injected error on its `on_hit`th hit.
        pub fn error_at(mut self, site: &'static str, on_hit: u64) -> Self {
            self.specs.insert(
                site,
                FaultSpec {
                    on_hit,
                    action: FaultAction::Error,
                },
            );
            self
        }

        /// Arm `site` to panic on its `on_hit`th hit.
        pub fn panic_at(mut self, site: &'static str, on_hit: u64) -> Self {
            self.specs.insert(
                site,
                FaultSpec {
                    on_hit,
                    action: FaultAction::Panic,
                },
            );
            self
        }

        /// A single-site plan derived deterministically from a seed:
        /// splitmix64 picks one catalog site, a hit number in `1..=3`,
        /// and (among the actions that site supports) an action. Property
        /// harnesses use this to turn a proptest seed into a fault.
        pub fn seeded(seed: u64) -> Self {
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let site = SITES[(next() % SITES.len() as u64) as usize];
            let on_hit = 1 + next() % 3;
            let action = match (site.supports_error, site.supports_panic) {
                (true, true) => {
                    if next() % 2 == 0 {
                        FaultAction::Error
                    } else {
                        FaultAction::Panic
                    }
                }
                (false, true) => FaultAction::Panic,
                _ => FaultAction::Error,
            };
            match action {
                FaultAction::Error => FaultPlan::new().error_at(site.name, on_hit),
                FaultAction::Panic => FaultPlan::new().panic_at(site.name, on_hit),
            }
        }
    }

    #[derive(Debug, Default)]
    struct Active {
        plan: FaultPlan,
        hits: BTreeMap<&'static str, u64>,
        /// Sites whose spec already fired (fire exactly once per install).
        fired: BTreeMap<&'static str, bool>,
    }

    fn active() -> &'static Mutex<Option<Active>> {
        static ACTIVE: OnceLock<Mutex<Option<Active>>> = OnceLock::new();
        ACTIVE.get_or_init(|| Mutex::new(None))
    }

    fn serial() -> &'static Mutex<()> {
        static SERIAL: OnceLock<Mutex<()>> = OnceLock::new();
        SERIAL.get_or_init(|| Mutex::new(()))
    }

    fn lock_active() -> MutexGuard<'static, Option<Active>> {
        // A panic injected *while the lock is held* is impossible (firing
        // happens after the guard drops), but a thread panicking elsewhere
        // must not poison the plan for the rest of the harness.
        active().lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Serialize fault-harness tests: plans are process-global, so tests
    /// that install plans (or that must run unfaulted) hold this lock.
    pub fn serial_guard() -> MutexGuard<'static, ()> {
        serial().lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Install a plan for the lifetime of the returned guard. The caller
    /// is responsible for serialization (see [`serial_guard`]); installing
    /// over an existing plan replaces it.
    pub fn install(plan: FaultPlan) -> FaultGuard {
        *lock_active() = Some(Active {
            plan,
            hits: BTreeMap::new(),
            fired: BTreeMap::new(),
        });
        FaultGuard { _private: () }
    }

    /// Uninstalls the plan on drop.
    #[derive(Debug)]
    pub struct FaultGuard {
        _private: (),
    }

    impl FaultGuard {
        /// Hits recorded for `site` since install.
        pub fn hits(&self, site: &str) -> u64 {
            lock_active()
                .as_ref()
                .and_then(|a| a.hits.get(site).copied())
                .unwrap_or(0)
        }

        /// Whether the armed spec for `site` has fired.
        pub fn fired(&self, site: &str) -> bool {
            lock_active()
                .as_ref()
                .and_then(|a| a.fired.get(site).copied())
                .unwrap_or(false)
        }

        /// Disarm every site (hit counting continues; nothing fires). The
        /// "retry after clearing the fault" step of the sweep.
        pub fn clear(&self) {
            if let Some(a) = lock_active().as_mut() {
                a.plan = FaultPlan::new();
            }
        }
    }

    impl Drop for FaultGuard {
        fn drop(&mut self) {
            *lock_active() = None;
        }
    }

    /// Record a hit at `site`; fire the armed action if its threshold is
    /// reached. Sites must pass a name from [`SITES`].
    pub fn fire(site: &'static str) -> StorageResult<()> {
        let action = {
            let mut guard = lock_active();
            let Some(a) = guard.as_mut() else {
                return Ok(());
            };
            let hits = a.hits.entry(site).or_insert(0);
            *hits += 1;
            let Some(spec) = a.plan.specs.get(site) else {
                return Ok(());
            };
            if *hits != spec.on_hit || a.fired.get(site).copied().unwrap_or(false) {
                return Ok(());
            }
            a.fired.insert(site, true);
            spec.action
            // Guard drops here: panicking below must not poison the plan.
        };
        spacetime_obs::counter_add(spacetime_obs::names::FAILPOINTS_FIRED, 1);
        spacetime_obs::flight::record("failpoint", || format!("{site} fired {action:?}"));
        match action {
            FaultAction::Error => Err(StorageError::FaultInjected {
                site: site.to_string(),
            }),
            FaultAction::Panic => panic!("injected panic at {site}"),
        }
    }

    /// [`fire`] for sites with no error channel (panic-only): an armed
    /// `Error` action at such a site is ignored.
    pub fn fire_panic(site: &'static str) {
        match fire(site) {
            Ok(()) | Err(_) => {}
        }
    }
}

#[cfg(feature = "failpoints")]
pub use imp::{fire, fire_panic, install, serial_guard, FaultGuard, FaultPlan, FaultSpec};

/// No-op stand-ins when the `failpoints` feature is off: calls compile to
/// nothing, so the default build pays zero cost for the instrumentation.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn fire(_site: &'static str) -> StorageResult<()> {
    Ok(())
}

/// See the feature-gated [`fire`]; no-op without `failpoints`.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn fire_panic(_site: &'static str) {}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;
    use crate::error::StorageError;

    #[test]
    fn fires_on_nth_hit_exactly_once() {
        let _serial = serial_guard();
        let guard = install(FaultPlan::new().error_at("delta::apply_to", 3));
        assert!(fire("delta::apply_to").is_ok());
        assert!(fire("delta::apply_to").is_ok());
        let err = fire("delta::apply_to").unwrap_err();
        assert!(matches!(err, StorageError::FaultInjected { ref site } if site == "delta::apply_to"));
        // Subsequent hits pass (the spec fires once per install).
        assert!(fire("delta::apply_to").is_ok());
        assert_eq!(guard.hits("delta::apply_to"), 4);
        assert!(guard.fired("delta::apply_to"));
        // Other sites are counted but never fire.
        assert!(fire("storage::restore_table").is_ok());
        assert_eq!(guard.hits("storage::restore_table"), 1);
    }

    #[test]
    fn clear_disarms_but_keeps_counting() {
        let _serial = serial_guard();
        let guard = install(FaultPlan::new().error_at("storage::restore_table", 1));
        guard.clear();
        assert!(fire("storage::restore_table").is_ok());
        assert_eq!(guard.hits("storage::restore_table"), 1);
        assert!(!guard.fired("storage::restore_table"));
    }

    #[test]
    fn uninstalled_is_silent() {
        let _serial = serial_guard();
        assert!(fire("delta::apply_to").is_ok());
    }

    #[test]
    fn seeded_plans_are_deterministic_and_supported() {
        let _serial = serial_guard();
        for seed in 0..64u64 {
            let a = format!("{:?}", FaultPlan::seeded(seed));
            let b = format!("{:?}", FaultPlan::seeded(seed));
            assert_eq!(a, b, "seed {seed} not deterministic");
        }
    }

    #[test]
    fn catalog_is_consistent() {
        for s in SITES {
            assert!(
                s.supports_error || s.supports_panic,
                "site {} supports nothing",
                s.name
            );
        }
    }
}
