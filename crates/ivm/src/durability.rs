//! Durable commits: one write-ahead log, per-shard checkpoints, and
//! crash recovery (DESIGN.md §17).
//!
//! The paper's traded space — every materialization — is recomputable,
//! but recomputing it after a crash costs exactly the query time the
//! space was traded to avoid. This module makes the trade durable:
//!
//! * [`DurableSharded`] — the one durable handle — wraps a
//!   [`ShardedDatabase`] with one WAL; an unsharded durable database is
//!   the `n_shards = 1` case. Transactions go through
//!   [`crate::sched::TxnScheduler::with_wals`]: a transaction appends
//!   one `begin` and its deltas, as submitted, before any shard touches
//!   memory, and one `commit` record after the last shard applied — the
//!   commit point for single-shard and cross-shard transactions alike.
//!   So the log never claims a transaction the memory state rejected,
//!   and recovery never replays a transaction the log does not prove
//!   committed.
//! * On disk a durable directory is `META` (shard count and spec — its
//!   presence is what makes the directory a database, so it is written
//!   last), the log `global.log`, and one `shard-NNN/checkpoint.ckpt`
//!   per shard.
//! * Checkpoints snapshot the whole catalog — base relations *and*
//!   materializations — plus each engine's creation trees. Recovery
//!   restores the snapshot, replays the creation trees through
//!   `Memo::insert_tree` + `explore` (deterministic, so the memo is
//!   bit-identical and no group id is ever trusted from disk), re-pins
//!   the restored materialization tables, and then replays the log's
//!   committed transactions, each routed by the META spec into every
//!   shard whose checkpoint does not already cover it.
//!
//! Recovery is proven bit-identical by `prop_wal.rs`: every crash site
//! × shard count × propagation mode recovers to exactly the committed
//! prefix, cross-checked against the recompute oracle.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use spacetime_memo::{explore, Memo};
use spacetime_obs::{self as obs, names as metric};
use spacetime_optimizer::ViewSet;
use spacetime_storage::{Bag, Catalog, Column, Schema, ShardSpec};
use spacetime_wal::codec::{self, crc32, Cur};
use spacetime_wal::{
    read_checkpoint, scan_log, write_checkpoint, CheckpointDoc, CheckpointPolicy, EngineDump,
    RawCheckpoint, Record, SyncPolicy, TableDump, WalError, WalSession,
};

use crate::constraints::Assertion;
use crate::database::Database;
use crate::engine::{IvmEngine, PropagationMode};
use crate::sched::Txn;
use crate::shard::ShardedDatabase;
use crate::{IvmError, IvmResult};

/// File names inside a durable directory.
const CHECKPOINT_FILE: &str = "checkpoint.ckpt";
/// The one log. It keeps the name the cross-shard commit log had because
/// the frozen benchmark harness sizes the log by this name
/// (`Serve::log_bytes`); the file and that call are renamed together.
const LOG_FILE: &str = "global.log";
const META_FILE: &str = "META";
/// `STWALMET` was the per-shard-log layout; a directory written with it
/// fails `open` with [`IvmError::Unsupported`].
const META_MAGIC: &[u8; 8] = b"STWALME2";

/// Convert a wal-layer error into the IVM error space.
pub(crate) fn wal_err(e: WalError) -> IvmError {
    IvmError::Internal(format!("wal: {e}"))
}

/// Durability configuration: when appended frames hit disk and when
/// checkpoints are taken automatically.
#[derive(Debug, Clone, Copy, Default)]
pub struct DurabilityOptions {
    /// When commits become durable (default: flush to the OS, which
    /// survives process death but not power loss).
    pub sync: SyncPolicy,
    /// When to checkpoint automatically (default: never — callers
    /// invoke [`DurableSharded::checkpoint`] explicitly).
    pub checkpoint: CheckpointPolicy,
}

/// What recovery did: how much was replayed, how much was discarded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Every shard's restored checkpoint covered every txn with id <= this.
    pub checkpoint_last_txn: u64,
    /// Committed transactions replayed from the log into at least one
    /// shard (a transaction counts once, however many shards it touches).
    pub replayed_txns: u64,
    /// Transactions in the log without a commit record — discarded as
    /// aborted.
    pub skipped_txns: u64,
    /// Torn / corrupt suffix bytes truncated from the log.
    pub discarded_bytes: u64,
}

fn prop_mode_to_u8(m: PropagationMode) -> u8 {
    match m {
        PropagationMode::PerKey => 0,
        PropagationMode::Fused => 2,
    }
}

/// Tag 1 was `Batched`, which `Fused` replaced with identical contents
/// and reports; checkpoints written with it still open.
fn prop_mode_from_u8(b: u8) -> IvmResult<PropagationMode> {
    match b {
        0 => Ok(PropagationMode::PerKey),
        1 | 2 => Ok(PropagationMode::Fused),
        _ => Err(IvmError::Internal(format!("bad propagation mode tag {b}"))),
    }
}

/// The `STWALCK1` execution-mode byte: written as 0 to keep the format,
/// where 1 was the deleted `Parallel` (identical contents and reports).
/// Nothing is restored from it; unknown tags are still a bad checkpoint.
fn check_exec_mode_tag(b: u8) -> IvmResult<()> {
    match b {
        0 | 1 => Ok(()),
        _ => Err(IvmError::Internal(format!("bad execution mode tag {b}"))),
    }
}

/// Snapshot `db` into a checkpoint document covering txns `<= last_txn`.
///
/// Every engine must carry its creation recipe (engines built through
/// [`Database::create_materialized_view`] / `create_view_group` do);
/// directly-constructed engines cannot be made durable.
fn build_checkpoint_doc(db: &Database, last_txn: u64) -> IvmResult<CheckpointDoc> {
    let mut tables = Vec::new();
    for (name, t) in db.catalog.iter() {
        tables.push(TableDump {
            name: name.to_string(),
            is_base: t.is_base,
            columns: t
                .schema()
                .columns()
                .iter()
                .map(|c| (c.qualifier.clone(), c.name.clone(), c.dtype))
                .collect(),
            keys: t.keys.clone(),
            index_defs: t.relation.index_defs(),
            relation_tuples_per_page: t.relation.tuples_per_page(),
            stats_tuples_per_page: t.stats.tuples_per_page,
            rows: t.relation.data().sorted(),
        });
    }
    let mut engines = Vec::new();
    for e in db.engines() {
        if e.creation.is_empty() {
            return Err(IvmError::Internal(format!(
                "engine `{}` has no creation recipe; only database-created engines are durable",
                e.name
            )));
        }
        engines.push(EngineDump {
            name: e.name.clone(),
            creation: e.creation.clone(),
            pins: e
                .materialized
                .iter()
                .map(|(&g, table)| (table.clone(), e.memo.extract_one(g)))
                .collect(),
        });
    }
    Ok(CheckpointDoc {
        last_txn,
        propagation_mode: prop_mode_to_u8(db.propagation_mode()),
        execution_mode: 0,
        tables,
        assertions: db
            .assertions()
            .iter()
            .map(|a| (a.name.clone(), a.view.clone()))
            .collect(),
        engines,
    })
}

/// Rebuild one engine from its dump against the restored catalog.
///
/// The creation trees replay through `Memo::insert_tree` + `explore` —
/// deterministic structural rewriting, so the memo (and every group id
/// in it) is reproduced bit-identically without trusting ids from
/// disk. Pinned materializations resolve their groups by re-inserting
/// the pinned tree (hash-consing finds the existing group) and attach
/// to the already-restored backing tables instead of recomputing them.
fn rebuild_engine(catalog: &mut Catalog, dump: &EngineDump) -> IvmResult<IvmEngine> {
    if dump.creation.is_empty() {
        return Err(IvmError::Internal(format!(
            "checkpointed engine `{}` has no creation trees",
            dump.name
        )));
    }
    let mut memo = Memo::new();
    let mut named_roots: Vec<(String, spacetime_memo::GroupId)> = Vec::new();
    for (name, tree) in &dump.creation {
        let g = memo.insert_tree(tree);
        named_roots.push((name.clone(), g));
    }
    memo.set_root(named_roots[0].1);
    explore(&mut memo, catalog).map_err(IvmError::Storage)?;
    let named_roots: Vec<(String, spacetime_memo::GroupId)> = named_roots
        .into_iter()
        .map(|(n, g)| (n, memo.find(g)))
        .collect();
    let mut view_set: ViewSet = named_roots.iter().map(|&(_, g)| g).collect();
    let mut pins = BTreeMap::new();
    for (table, tree) in &dump.pins {
        let inserted = memo.insert_tree(tree);
        let g = memo.find(inserted);
        view_set.insert(g);
        if let Some(prev) = pins.insert(g, table.clone()) {
            return Err(IvmError::Internal(format!(
                "checkpointed engine `{}` pins tables `{prev}` and `{table}` to one group",
                dump.name
            )));
        }
    }
    let mut engine = IvmEngine::rebuild_pinned(named_roots, memo, view_set, catalog, &pins)?;
    engine.creation = dump.creation.clone();
    Ok(engine)
}

/// Restore a full [`Database`] from a checkpoint: tables first (so the
/// engine trees can re-derive schemas), then engines, assertions, and
/// the configured modes.
fn restore_database(raw: &RawCheckpoint) -> IvmResult<Database> {
    let mut db = Database::new();
    for t in &raw.tables {
        let cols: Vec<Column> = t
            .columns
            .iter()
            .map(|(q, name, dt)| Column {
                qualifier: q.clone(),
                name: name.clone(),
                dtype: *dt,
            })
            .collect();
        let schema = Schema::new(cols);
        if t.is_base {
            db.catalog.create_table(&t.name, schema).map_err(IvmError::Storage)?;
        } else {
            db.catalog
                .create_materialized(&t.name, schema)
                .map_err(IvmError::Storage)?;
        }
        let table = db.catalog.table_mut(&t.name).map_err(IvmError::Storage)?;
        table.keys = t.keys.clone();
        table.relation.set_tuples_per_page(t.relation_tuples_per_page);
        for def in &t.index_defs {
            table.relation.create_index(def.clone()).map_err(IvmError::Storage)?;
        }
        let mut bag = Bag::new();
        for (tuple, n) in &t.rows {
            bag.insert(tuple.clone(), *n);
        }
        table.relation.load(bag).map_err(IvmError::Storage)?;
        table.stats.tuples_per_page = t.stats_tuples_per_page;
        table.analyze();
    }
    let dumps = raw.decode_engines(&db.catalog).map_err(wal_err)?;
    for dump in &dumps {
        let engine = rebuild_engine(&mut db.catalog, dump)?;
        db.install_engine(engine);
    }
    for (name, view) in &raw.assertions {
        db.install_assertion(Assertion {
            name: name.clone(),
            view: view.clone(),
        });
    }
    db.set_propagation_mode(prop_mode_from_u8(raw.propagation_mode)?);
    check_exec_mode_tag(raw.execution_mode)?;
    Ok(db)
}

/// What one log replay did.
#[derive(Debug, Default, Clone, Copy)]
struct ReplaySummary {
    replayed: u64,
    skipped: u64,
    /// Highest txn id seen anywhere in the log (committed or not) —
    /// the reopened session allocates above it.
    max_txn: u64,
}

/// Replay the log's committed transactions through the normal
/// propagation engines, in log order — the original apply order, because
/// the scheduler runs transactions one at a time in admission order.
/// Each is routed with the scheduler's router and applied to every shard
/// whose checkpoint (`covered[s]`, its `last_txn`) does not include it:
/// a crash between two shard checkpoints leaves one shard ahead of
/// another, and each replays exactly what it lacks.
fn replay_log(
    db: &ShardedDatabase,
    records: &[Record],
    covered: &[u64],
) -> IvmResult<ReplaySummary> {
    let mut open: BTreeMap<u64, Txn> = BTreeMap::new();
    let mut sum = ReplaySummary::default();
    for rec in records {
        match rec {
            Record::Checkpoint { last_txn } => sum.max_txn = sum.max_txn.max(*last_txn),
            Record::TxnBegin { txn_id, .. } => {
                sum.max_txn = sum.max_txn.max(*txn_id);
                open.insert(*txn_id, Txn::new());
            }
            Record::Delta {
                txn_id,
                table,
                delta,
            } => {
                if let Some(t) = open.get_mut(txn_id) {
                    t.push((table.clone(), delta.clone()));
                }
            }
            Record::TxnCommit { txn_id } => {
                let Some(txn) = open.remove(txn_id) else { continue };
                let mut applied = false;
                for (s, part) in db.route_txn(&txn)? {
                    if covered[s] < *txn_id {
                        db.shard(s).apply_transaction(part)?;
                        applied = true;
                    }
                }
                sum.replayed += u64::from(applied);
            }
        }
    }
    // Everything still open lacks a commit record: aborted.
    sum.skipped = open.len() as u64;
    obs::counter_add(metric::WAL_RECOVERY_REPLAYED_TXNS, sum.replayed);
    Ok(sum)
}

/// The one log, shared with the scheduler (`TxnScheduler::with_wals`).
/// The scheduler runs one transaction at a time, so the lock is always
/// free when it takes it.
pub(crate) type Wal = Mutex<WalSession>;

fn lock(wal: &Wal) -> MutexGuard<'_, WalSession> {
    wal.lock().unwrap_or_else(|e| e.into_inner())
}

/// Log a transaction as submitted: its begin and unrouted deltas.
/// Returns its id in the log.
pub(crate) fn log_begin(wal: &Wal, txn: &Txn) -> IvmResult<u64> {
    lock(wal).begin(txn).map_err(wal_err)
}

/// Append a logged transaction's commit record — its commit point — and
/// make it durable per the sync policy.
pub(crate) fn log_commit(wal: &Wal, txn_id: u64) -> IvmResult<()> {
    lock(wal).commit(txn_id).map_err(wal_err)
}

fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:03}"))
}

fn write_meta(dir: &Path, n_shards: usize, spec: &ShardSpec) -> IvmResult<()> {
    let mut body = Vec::new();
    codec::put_u32(&mut body, n_shards as u32);
    let tables: Vec<(&str, &[usize])> = spec.tables().collect();
    codec::put_u32(&mut body, tables.len() as u32);
    for (name, cols) in tables {
        codec::put_str(&mut body, name);
        codec::put_usize_vec(&mut body, cols);
    }
    let mut bytes = Vec::with_capacity(body.len() + 12);
    bytes.extend_from_slice(META_MAGIC);
    codec::put_u32(&mut bytes, crc32(&body));
    bytes.extend_from_slice(&body);
    let tmp = dir.join(format!("{META_FILE}.tmp"));
    std::fs::write(&tmp, &bytes).map_err(|e| wal_err(e.into()))?;
    std::fs::rename(&tmp, dir.join(META_FILE)).map_err(|e| wal_err(e.into()))?;
    Ok(())
}

fn read_meta(dir: &Path) -> IvmResult<(usize, ShardSpec)> {
    let path = dir.join(META_FILE);
    let bytes = std::fs::read(&path).map_err(|e| wal_err(e.into()))?;
    if bytes.len() < 12 || &bytes[..8] != META_MAGIC {
        return Err(IvmError::Unsupported(format!(
            "{} is not a one-log durable directory (unknown META magic)",
            path.display()
        )));
    }
    let want = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let body = &bytes[12..];
    if crc32(body) != want {
        return Err(IvmError::Internal(format!("META crc mismatch at {}", path.display())));
    }
    let mut cur = Cur::new(body);
    let mut read = || -> Result<(usize, ShardSpec), WalError> {
        let n_shards = cur.u32()? as usize;
        let ntables = cur.u32()? as usize;
        let mut spec = ShardSpec::new();
        for _ in 0..ntables {
            let name = cur.str()?;
            let cols = cur.usize_vec()?;
            spec.declare(name, cols);
        }
        Ok((n_shards, spec))
    };
    read().map_err(wal_err)
}

/// A [`ShardedDatabase`] with one write-ahead log. Construct a durable
/// scheduler over it with [`crate::sched::TxnScheduler::with_wals`].
pub struct DurableSharded {
    db: ShardedDatabase,
    wal: Arc<Wal>,
    dir: PathBuf,
}

impl DurableSharded {
    /// Partition `template` across `n_shards` (exactly like
    /// [`ShardedDatabase::partition`]) and attach durability: per-shard
    /// initial checkpoints, the log holding only a checkpoint marker,
    /// and a META file recording the shard count and spec. META goes
    /// last, by rename: it is the commit point of creation, so a `create`
    /// that failed part-way leaves a directory the next `create`
    /// overwrites file by file instead of refusing. Errors if `dir`
    /// already holds a durable database — use [`DurableSharded::open`].
    pub fn create(
        template: &Database,
        spec: ShardSpec,
        n_shards: usize,
        dir: &Path,
        opts: DurabilityOptions,
    ) -> IvmResult<Self> {
        std::fs::create_dir_all(dir).map_err(|e| wal_err(e.into()))?;
        if dir.join(META_FILE).exists() {
            return Err(IvmError::Internal(format!(
                "durable directory {} is already initialized; use open()",
                dir.display()
            )));
        }
        let db = ShardedDatabase::partition(template, spec, n_shards)?;
        for s in 0..n_shards {
            let sdir = shard_dir(dir, s);
            std::fs::create_dir_all(&sdir).map_err(|e| wal_err(e.into()))?;
            let doc = build_checkpoint_doc(&db.shard(s), 0)?;
            write_checkpoint(&sdir.join(CHECKPOINT_FILE), &doc).map_err(wal_err)?;
        }
        let mut wal = WalSession::open(&dir.join(LOG_FILE), 0, 1, opts.sync, opts.checkpoint)
            .map_err(wal_err)?;
        wal.after_checkpoint(0).map_err(wal_err)?;
        write_meta(dir, n_shards, db.spec())?;
        Ok(DurableSharded {
            db,
            wal: Arc::new(Mutex::new(wal)),
            dir: dir.to_path_buf(),
        })
    }

    /// Recover from `dir` with default options.
    pub fn open(dir: &Path, n_shards: usize) -> IvmResult<(Self, RecoveryStats)> {
        Self::open_with(dir, n_shards, DurabilityOptions::default())
    }

    /// Recover from `dir`: every shard restores its checkpoint, the log's
    /// valid prefix replays into the shards that lack it (see
    /// `replay_log`), and the log reopens for appending.
    pub fn open_with(
        dir: &Path,
        n_shards: usize,
        opts: DurabilityOptions,
    ) -> IvmResult<(Self, RecoveryStats)> {
        let (meta_shards, spec) = read_meta(dir)?;
        if meta_shards != n_shards {
            return Err(IvmError::Unsupported(format!(
                "directory {} holds {meta_shards} shards, not {n_shards}",
                dir.display()
            )));
        }
        let mut shards = Vec::with_capacity(n_shards);
        let mut covered = Vec::with_capacity(n_shards);
        for s in 0..n_shards {
            let ckpt = shard_dir(dir, s).join(CHECKPOINT_FILE);
            let raw = read_checkpoint(&ckpt).map_err(wal_err)?.ok_or_else(|| {
                IvmError::Internal(format!("no checkpoint at {}", ckpt.display()))
            })?;
            shards.push(Mutex::new(restore_database(&raw)?));
            covered.push(raw.last_txn);
        }
        let db = ShardedDatabase::from_parts(spec, shards);
        let log = dir.join(LOG_FILE);
        let scan = scan_log(&log).map_err(wal_err)?;
        let sum = replay_log(&db, &scan.records, &covered)?;
        let stats = RecoveryStats {
            checkpoint_last_txn: covered.iter().copied().min().unwrap_or(0),
            replayed_txns: sum.replayed,
            skipped_txns: sum.skipped,
            discarded_bytes: scan.discarded_bytes,
        };
        let next_txn = covered.iter().copied().fold(sum.max_txn, u64::max) + 1;
        let wal = WalSession::open(&log, scan.valid_len, next_txn, opts.sync, opts.checkpoint)
            .map_err(wal_err)?;
        obs::gauge_set(metric::WAL_REPLAY_LAG_TXNS, stats.replayed_txns as f64);
        obs::flight::record("recovery", || {
            format!(
                "{} ({n_shards} shards): replayed {} skipped {} discarded {}B",
                dir.display(),
                stats.replayed_txns,
                stats.skipped_txns,
                stats.discarded_bytes
            )
        });
        let wal = Arc::new(Mutex::new(wal));
        Ok((DurableSharded { db, wal, dir: dir.to_path_buf() }, stats))
    }

    /// The wrapped sharded database.
    pub fn db(&self) -> &ShardedDatabase {
        &self.db
    }

    /// Mutable access (e.g. [`ShardedDatabase::set_propagation_mode`]).
    pub fn db_mut(&mut self) -> &mut ShardedDatabase {
        &mut self.db
    }

    /// The one log, for [`crate::sched::TxnScheduler::with_wals`].
    pub fn wals(&self) -> Arc<Mutex<WalSession>> {
        Arc::clone(&self.wal)
    }

    /// The durable directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Checkpoint every shard at one `last_txn`, then truncate the log
    /// down to one checkpoint marker.
    ///
    /// Must not run concurrently with a scheduler run (`&mut self`
    /// guarantees it). A crash between two shard checkpoints is safe:
    /// the log is truncated only after the last one, and replay is
    /// filtered per shard, so a shard whose new checkpoint landed skips
    /// what it covers and the others replay it.
    pub fn checkpoint(&mut self) -> IvmResult<()> {
        let mut wal = lock(&self.wal);
        let last_txn = wal.next_txn_id().saturating_sub(1);
        for s in 0..self.db.n_shards() {
            let doc = build_checkpoint_doc(&self.db.shard(s), last_txn)?;
            write_checkpoint(&shard_dir(&self.dir, s).join(CHECKPOINT_FILE), &doc)
                .map_err(wal_err)?;
        }
        wal.after_checkpoint(last_txn).map_err(wal_err)
    }

    /// Checkpoint if the policy calls for it.
    pub fn maybe_checkpoint(&mut self) -> IvmResult<bool> {
        let due = lock(&self.wal).should_checkpoint();
        if due {
            self.checkpoint()?;
        }
        Ok(due)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::TxnScheduler;
    use spacetime_delta::Delta;
    use spacetime_storage::tuple;

    /// A one-shard durable database over `db`, whose only base table is
    /// `T`, keyed on its first column.
    fn create(db: &Database, dir: &Path) -> DurableSharded {
        let spec = ShardSpec::new().with("T", vec![0]);
        DurableSharded::create(db, spec, 1, dir, DurabilityOptions::default()).unwrap()
    }

    /// Insert `a` into `T` durably.
    fn insert(dur: &DurableSharded, a: i64) {
        let txn = vec![("T".to_string(), Delta::insert(tuple![a], 1))];
        let out = TxnScheduler::with_wals(dur.db(), Arc::default(), dur.wals())
            .run(&[txn])
            .unwrap();
        assert!(out.results[0].is_ok(), "{:?}", out.results[0]);
    }

    fn one_column_db() -> Database {
        use spacetime_storage::DataType;
        let mut db = Database::new();
        db.catalog
            .create_table("T", Schema::new(vec![Column::new("T", "a", DataType::Int)]))
            .unwrap();
        db
    }

    /// `STWALCK1` outlives the modes it named: a checkpoint written with
    /// the retired `Batched` / `Parallel` tags (1, 1) opens as `Fused` and
    /// replays its tail; a tag nobody ever wrote is still a typed error.
    #[test]
    fn checkpoints_with_retired_mode_tags_still_open() {
        let dir = spacetime_wal::test_dir("durability_retired_tags");
        let mut db = Database::new();
        db.execute_sql(
            "CREATE TABLE T (a INTEGER PRIMARY KEY);
             CREATE MATERIALIZED VIEW Big AS SELECT a FROM T WHERE a > 1",
        )
        .unwrap();
        let dur = create(&db, &dir);
        insert(&dur, 5);
        drop(dur);

        let rewrite = |prop: u8, exec: u8| {
            let mut doc = build_checkpoint_doc(&db, 0).unwrap();
            doc.propagation_mode = prop;
            doc.execution_mode = exec;
            write_checkpoint(&shard_dir(&dir, 0).join(CHECKPOINT_FILE), &doc).unwrap();
        };
        rewrite(1, 1);
        let (recovered, stats) = DurableSharded::open(&dir, 1).unwrap();
        assert_eq!(stats.replayed_txns, 1);
        {
            let shard = recovered.db().shard(0);
            assert_eq!(shard.propagation_mode(), PropagationMode::Fused);
            for table in ["T", "Big"] {
                let rel = &shard.catalog.table(table).unwrap().relation;
                assert!(rel.data().contains(&tuple![5_i64]), "{table} lost the replayed row");
            }
        }
        drop(recovered);

        for (prop, exec) in [(3, 0), (2, 2)] {
            rewrite(prop, exec);
            let err = DurableSharded::open(&dir, 1).err().expect("unknown tag must not open");
            assert!(
                matches!(&err, IvmError::Internal(m) if m.contains("mode tag")),
                "({prop}, {exec}): {err}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A directory of the per-shard-log layout (META magic `STWALMET`)
    /// does not open: the error is typed, not a panic or a misread.
    #[test]
    fn old_layout_meta_fails_open_with_a_typed_error() {
        let dir = spacetime_wal::test_dir("durability_old_meta");
        drop(create(&one_column_db(), &dir));
        let mut meta = std::fs::read(dir.join(META_FILE)).unwrap();
        meta[..8].copy_from_slice(b"STWALMET");
        std::fs::write(dir.join(META_FILE), meta).unwrap();
        let err = DurableSharded::open(&dir, 1).err().expect("the old layout must not open");
        assert!(matches!(err, IvmError::Unsupported(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The acceptance hook for tail-only replay: recovery reports exactly
    /// the transactions the log proved committed past the checkpoint and
    /// advances the `recovery_replayed_txns` counter by them. The counter
    /// is process-global and the neighbouring test recovers too, so it is
    /// bounded from below only.
    #[cfg(feature = "metrics")]
    #[test]
    fn recovery_bumps_the_replayed_txns_counter() {
        let dir = spacetime_wal::test_dir("durability_metric");
        let dur = create(&one_column_db(), &dir);
        for i in 0..3 {
            insert(&dur, i);
        }
        drop(dur);

        let before = obs::snapshot().counter(metric::WAL_RECOVERY_REPLAYED_TXNS);
        let (_, stats) = DurableSharded::open(&dir, 1).unwrap();
        assert_eq!(stats.replayed_txns, 3);
        assert!(
            obs::snapshot().counter(metric::WAL_RECOVERY_REPLAYED_TXNS) >= before + 3,
            "recovery must count the replayed tail"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The labeled WAL family moves per record kind, the checkpoint-age
    /// gauge tracks uncheckpointed commits, and recovery publishes its
    /// replay lag. Lower-bound assertions only: lib tests share the
    /// process-global registry across threads, so the exact equality
    /// books live in a test binary of their own
    /// (`crates/bench/tests/metrics_books.rs`).
    #[cfg(feature = "metrics")]
    #[test]
    fn wal_record_kinds_and_age_gauges_move() {
        let dir = spacetime_wal::test_dir("durability_labeled_metric");
        let before = obs::snapshot();
        let dur = create(&one_column_db(), &dir);
        for i in 0..4 {
            insert(&dur, i);
        }
        drop(dur);
        let snap = obs::snapshot();
        for kind in [
            metric::LABEL_WAL_BEGIN,
            metric::LABEL_WAL_DELTA,
            metric::LABEL_WAL_COMMIT,
        ] {
            assert!(
                snap.labeled_counter(metric::WAL_RECORDS, kind)
                    >= before.labeled_counter(metric::WAL_RECORDS, kind) + 4,
                "WAL record family did not move for {kind}"
            );
        }
        // `create` installs the initial checkpoint marker.
        assert!(
            snap.labeled_counter(metric::WAL_RECORDS, metric::LABEL_WAL_CHECKPOINT)
                > before.labeled_counter(metric::WAL_RECORDS, metric::LABEL_WAL_CHECKPOINT),
            "checkpoint marker was not counted"
        );
        // Four commits, no checkpoint since: the session left its age
        // behind on the process-wide gauge.
        assert!(
            snap.gauge(metric::WAL_CHECKPOINT_AGE_TXNS)
                >= before.gauge(metric::WAL_CHECKPOINT_AGE_TXNS) + 4.0,
            "checkpoint-age gauge did not accumulate the commits"
        );

        let (_, stats) = DurableSharded::open(&dir, 1).unwrap();
        assert_eq!(stats.replayed_txns, 4);
        assert!(
            obs::snapshot().gauge(metric::WAL_REPLAY_LAG_TXNS) > 0.0,
            "recovery must publish its replay lag"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
