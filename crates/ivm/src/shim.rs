//! Compile shims for the frozen benchmark harness (`benchmark/src/sut.rs`),
//! which still serves through the sharded API. There are no shards: every
//! item here forwards to the one [`Database`]. The benchmark PR removes
//! the calls, then this module.

use std::sync::{Arc, Mutex, MutexGuard};

use spacetime_delta::Delta;
use spacetime_storage::{Bag, ShardSpec};

use crate::database::Database;
use crate::sched::{SchedOutcome, Txn};
use crate::verify::Mismatch;
use crate::IvmResult;

/// The one log's file name. The frozen harness sizes the log by this name
/// (`Serve::log_bytes`); the benchmark PR renames it.
pub(crate) const LOG_FILE: &str = "global.log";
/// The one checkpoint's path. The frozen harness sizes the checkpoint by
/// this path (`Serve::checkpoint_bytes`); the benchmark PR renames it.
pub(crate) const CHECKPOINT_FILE: &str = "shard-000/checkpoint.ckpt";

/// The one execution mode. The frozen harness names it; the benchmark PR
/// deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    #[default]
    Sequential,
}

/// The one propagation data plane. The frozen harness names it; the
/// benchmark PR deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PropagationMode {
    #[default]
    Fused,
}

impl Database {
    /// Does nothing. The frozen harness calls it; the benchmark PR deletes
    /// it.
    #[doc(hidden)]
    pub fn set_execution_mode(&mut self, _exec: ExecutionMode) {}

    /// Does nothing. The frozen harness calls it; the benchmark PR deletes
    /// it.
    #[doc(hidden)]
    pub fn set_propagation_mode(&mut self, _mode: PropagationMode) {}
}

/// A pool nothing runs on. The frozen harness constructs one; the
/// benchmark PR deletes it.
#[derive(Debug, Default)]
pub struct PipelinePool;

impl PipelinePool {
    pub fn new(_width: usize) -> Self {
        PipelinePool
    }
}

/// The one database behind a lock, as "shard 0" of one. The frozen
/// harness calls it; the benchmark PR deletes it.
pub struct ShardedDatabase {
    db: Mutex<Database>,
}

impl ShardedDatabase {
    /// A copy-on-write clone of `template`, which is already consistent:
    /// nothing is reloaded or recomputed. The spec and the shard count are
    /// ignored.
    pub fn partition(
        template: &Database,
        _spec: ShardSpec,
        _n_shards: usize,
    ) -> IvmResult<ShardedDatabase> {
        Ok(ShardedDatabase::of(template.clone()))
    }

    fn of(db: Database) -> ShardedDatabase {
        ShardedDatabase { db: Mutex::new(db) }
    }

    pub fn n_shards(&self) -> usize {
        1
    }

    /// Lock the one database. Poison-tolerant: a panic contained by a
    /// run already rolled its transaction back.
    pub fn shard(&self, _i: usize) -> MutexGuard<'_, Database> {
        self.db.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The whole delta on shard 0 (nothing for an empty delta).
    pub fn route_delta(&self, _table: &str, delta: &Delta) -> IvmResult<Vec<(usize, Delta)>> {
        Ok(if delta.is_empty() {
            Vec::new()
        } else {
            vec![(0, delta.clone())]
        })
    }

    /// The table's contents.
    pub fn union_table(&self, name: &str) -> IvmResult<Bag> {
        Ok(self.shard(0).catalog.table(name)?.relation.data().clone())
    }

    /// [`crate::verify_all_views`].
    pub fn verify_all_shards(&self) -> IvmResult<Vec<Mismatch>> {
        crate::verify::verify_all_views(&self.shard(0))
    }
}

/// Locks the database and calls [`Database::run`]. The frozen harness
/// calls it; the benchmark PR deletes it.
pub struct TxnScheduler<'a> {
    db: &'a ShardedDatabase,
}

impl<'a> TxnScheduler<'a> {
    pub fn new(db: &'a ShardedDatabase, _pool: Arc<PipelinePool>) -> Self {
        TxnScheduler { db }
    }

    /// A durable database logs through its own door, so the log argument
    /// is only [`DurableSharded::wals`]'s unit token.
    pub fn with_wals(db: &'a ShardedDatabase, _pool: Arc<PipelinePool>, _wal: ()) -> Self {
        TxnScheduler { db }
    }

    /// [`Database::run`]; always `Ok`.
    pub fn run(&self, txns: &[Txn]) -> IvmResult<SchedOutcome> {
        Ok(self.db.shard(0).run(txns))
    }
}

pub use durable::DurableSharded;

pub mod durable {
    use std::path::{Path, PathBuf};

    use spacetime_storage::ShardSpec;

    use super::ShardedDatabase;
    use crate::database::Database;
    use crate::durability::{DurabilityOptions, RecoveryStats};
    use crate::IvmResult;

    /// A durable [`Database`] as a [`ShardedDatabase`]. The frozen harness
    /// calls it; the benchmark PR deletes it.
    pub struct DurableSharded {
        db: ShardedDatabase,
        dir: PathBuf,
    }

    impl DurableSharded {
        /// A clone of `template` made durable in `dir`
        /// ([`Database::make_durable`]); the spec and the shard count are
        /// ignored.
        pub fn create(
            template: &Database,
            _spec: ShardSpec,
            _n_shards: usize,
            dir: &Path,
            opts: DurabilityOptions,
        ) -> IvmResult<Self> {
            let mut db = template.clone();
            db.make_durable(dir, opts)?;
            Ok(DurableSharded {
                db: ShardedDatabase::of(db),
                dir: dir.to_path_buf(),
            })
        }

        /// [`Database::open`]; the shard count is ignored.
        pub fn open_with(
            dir: &Path,
            _n_shards: usize,
            opts: DurabilityOptions,
        ) -> IvmResult<(Self, RecoveryStats)> {
            let (db, stats) = Database::open(dir, opts)?;
            let db = ShardedDatabase::of(db);
            Ok((
                DurableSharded {
                    db,
                    dir: dir.to_path_buf(),
                },
                stats,
            ))
        }

        pub fn db(&self) -> &ShardedDatabase {
            &self.db
        }

        /// The unit token [`super::TxnScheduler::with_wals`] takes.
        pub fn wals(&self) {}

        pub fn dir(&self) -> &Path {
            &self.dir
        }

        /// [`Database::checkpoint`].
        pub fn checkpoint(&mut self) -> IvmResult<()> {
            self.db
                .db
                .get_mut()
                .unwrap_or_else(|e| e.into_inner())
                .checkpoint()
        }
    }
}
