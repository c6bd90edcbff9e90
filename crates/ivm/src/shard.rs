//! Sharded serving: N shard domains, each owning a full [`Database`].
//!
//! [`ShardedDatabase::partition`] splits a prototype database's base
//! relations across N shards by a declared
//! [`spacetime_storage::ShardSpec`] (the same fixed-seed router that
//! places tuples into storage shards), then rebuilds every engine's
//! materialized views *per shard* from the shard's own base data. Each
//! shard is a complete, independently-consistent [`Database`]: its
//! engines, assertions, and commit protocol are untouched — sharding
//! composes with everything below it.
//!
//! **Shard-locality contract.** Partitioned serving is sound for view
//! sets whose joins and groupings are keyed by the declared shard keys
//! (e.g. every Emp/Dept view here joins or groups on `DName`, the shard
//! key of both relations). Then each view's global contents are exactly
//! the disjoint union of the per-shard contents — matching tuples always
//! co-locate, and a per-table delta routed by [`Delta::split_by`] reaches
//! every shard whose views it affects. The property tests cross-check the
//! contract by comparing the shard union against an unsharded control.
//!
//! Shards are a layout, not a throughput setting: per-shard logs,
//! checkpoints and recovery (`crate::durability`) follow it, but the
//! scheduler ([`crate::sched`]) runs one transaction at a time whatever
//! the shard count.

use std::sync::{Mutex, MutexGuard};

use spacetime_delta::Delta;
use spacetime_storage::{Bag, ShardSpec};

use crate::database::Database;
use crate::{IvmError, IvmResult};

/// A database partitioned into shard domains.
pub struct ShardedDatabase {
    spec: ShardSpec,
    /// One full database per shard, behind a mutex so a shared
    /// `&ShardedDatabase` can serve; the scheduler runs one transaction at
    /// a time, so a lock is always free when it takes it.
    shards: Vec<Mutex<Database>>,
}

impl ShardedDatabase {
    /// Partition `template` into `n_shards` domains.
    ///
    /// Every *base* relation of the template must have a declared shard
    /// key. Per shard: the template is cloned (cheap — the catalog is
    /// `Arc`-backed), each base relation is reloaded with only the tuples
    /// routing to that shard, and every engine's materialized tables
    /// (root views and auxiliaries alike) are recomputed from the shard's
    /// base data — the same recompute the verification oracle uses, so a
    /// fresh shard starts provably consistent.
    pub fn partition(
        template: &Database,
        spec: ShardSpec,
        n_shards: usize,
    ) -> IvmResult<ShardedDatabase> {
        if n_shards == 0 {
            return Err(IvmError::Unsupported("cannot partition into 0 shards".into()));
        }
        // Validate the spec against the template before cloning anything:
        // every base relation declared, every declared table present with
        // key columns in range.
        for (name, table) in template.catalog.iter() {
            if table.is_base && spec.key_cols(name).is_none() {
                return Err(IvmError::Unsupported(format!(
                    "base relation `{name}` has no declared shard key"
                )));
            }
        }
        for (name, cols) in spec.tables() {
            let table = template.catalog.table(name)?;
            let arity = table.schema().arity();
            if let Some(&bad) = cols.iter().find(|&&c| c >= arity) {
                return Err(IvmError::Unsupported(format!(
                    "shard-key column {bad} out of range for `{name}` (arity {arity})"
                )));
            }
        }
        let base_tables: Vec<String> = template
            .catalog
            .iter()
            .filter(|(_, t)| t.is_base)
            .map(|(n, _)| n.to_string())
            .collect();
        let mut shards = Vec::with_capacity(n_shards);
        for s in 0..n_shards {
            let mut db = template.clone();
            // Keep only this shard's slice of every base relation.
            for name in &base_tables {
                let mut local = Bag::new();
                {
                    let data = db.catalog.table(name)?.relation.data();
                    for (t, c) in data.iter() {
                        if spec.route(name, t, n_shards)? == s {
                            local.insert(t.clone(), c);
                        }
                    }
                }
                let table = db.catalog.table_mut(name)?;
                table.relation.load(local)?;
                table.analyze();
            }
            // Recompute every materialization from the shard's base data.
            let recomputes: Vec<(String, spacetime_algebra::ExprTree)> = db
                .engines()
                .iter()
                .flat_map(|e| {
                    e.materialized
                        .iter()
                        .map(|(&g, name)| (name.clone(), e.memo.extract_one(g)))
                        .collect::<Vec<_>>()
                })
                .collect();
            for (name, tree) in recomputes {
                let contents = spacetime_algebra::eval_uncharged(&tree, &db.catalog)?;
                let table = db.catalog.table_mut(&name)?;
                table.relation.load(contents)?;
                table.analyze();
            }
            shards.push(Mutex::new(db));
        }
        Ok(ShardedDatabase { spec, shards })
    }

    /// Reassemble a sharded database from recovered shard cells (crash
    /// recovery restores each shard independently; see
    /// `crate::durability`).
    #[cfg(feature = "durability")]
    pub(crate) fn from_parts(spec: ShardSpec, shards: Vec<Mutex<Database>>) -> ShardedDatabase {
        ShardedDatabase { spec, shards }
    }

    /// The shard count.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The declared shard keys.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Lock shard `i` for direct inspection or mutation. Poison-tolerant:
    /// a panic contained by a previous transaction never bricks a shard
    /// (its commit protocol already restored pre-transaction state).
    pub fn shard(&self, i: usize) -> MutexGuard<'_, Database> {
        self.shards[i].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The shard cells (for the scheduler's commit protocol).
    pub(crate) fn cells(&self) -> &[Mutex<Database>] {
        &self.shards
    }

    /// Route one table's delta across the shards: the non-empty
    /// sub-deltas in ascending shard order. A modification whose old and
    /// new tuples route to different shards degrades to a cross-shard
    /// delete+insert pair (see [`Delta::split_by`]).
    pub fn route_delta(&self, table: &str, delta: &Delta) -> IvmResult<Vec<(usize, Delta)>> {
        let n = self.shards.len();
        let parts = delta.split_by(n, |t| self.spec.route(table, t, n))?;
        Ok(parts
            .into_iter()
            .enumerate()
            .filter(|(_, d)| !d.is_empty())
            .collect())
    }

    /// The union of a table's contents across all shards (tests and
    /// cross-checks against an unsharded control).
    pub fn union_table(&self, name: &str) -> IvmResult<Bag> {
        let mut out = Bag::new();
        for cell in &self.shards {
            let db = cell.lock().unwrap_or_else(|e| e.into_inner());
            for (t, c) in db.catalog.table(name)?.relation.data().iter() {
                out.insert(t.clone(), c);
            }
        }
        Ok(out)
    }

    /// Run the recompute oracle on every shard; returns all mismatches.
    pub fn verify_all_shards(&self) -> IvmResult<Vec<crate::verify::Mismatch>> {
        let mut out = Vec::new();
        for cell in &self.shards {
            let db = cell.lock().unwrap_or_else(|e| e.into_inner());
            out.extend(crate::verify::verify_all_views(&db)?);
        }
        Ok(out)
    }

    /// Set the propagation data plane on every shard.
    pub fn set_propagation_mode(&mut self, mode: crate::engine::PropagationMode) {
        for cell in &self.shards {
            cell.lock().unwrap_or_else(|e| e.into_inner()).set_propagation_mode(mode);
        }
    }

    /// Enable or disable propagation-trace recording on every shard. The
    /// scheduler assembles the per-shard transaction traces into
    /// cross-shard spans (see [`crate::sched::SchedOutcome::traces`]).
    pub fn set_tracing(&mut self, on: bool) {
        for cell in &self.shards {
            cell.lock().unwrap_or_else(|e| e.into_inner()).set_tracing(on);
        }
    }

    /// Whether trace recording is enabled (true iff enabled on shard 0;
    /// [`ShardedDatabase::set_tracing`] keeps all shards in lockstep).
    pub fn tracing(&self) -> bool {
        self.shards
            .first()
            .map(|c| c.lock().unwrap_or_else(|e| e.into_inner()).tracing())
            .unwrap_or(false)
    }
}
