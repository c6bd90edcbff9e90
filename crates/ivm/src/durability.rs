//! Durable commits: one write-ahead log, one checkpoint, and crash
//! recovery (DESIGN.md §17).
//!
//! The paper's traded space — every materialization — is recomputable,
//! but recomputing it after a crash costs exactly the query time the
//! space was traded to avoid. This module makes the trade durable, on
//! the one [`Database`]:
//!
//! * [`Database::make_durable`] turns a built database durable over an
//!   empty directory; [`Database::open`] recovers one. From then on the
//!   database owns its log: the one transaction door
//!   ([`Database::apply_transaction`], [`Database::run`], and
//!   `apply_delta` as a one-update transaction) appends a `begin` and the
//!   deltas, as submitted, before anything applies, and one `commit`
//!   record at the decision point. So the log never claims a transaction
//!   the memory state rejected, and recovery never replays a transaction
//!   the log does not prove committed. A clone of a durable database is
//!   an in-memory copy that never writes the original's log.
//! * On disk a durable directory is `META` (its presence is what makes
//!   the directory a database, so it is written last), the log, the
//!   checkpoint and, while a checkpoint installs, the sealed log segment.
//!   The log and checkpoint names (`crate::shim`) are kept because the
//!   frozen benchmark harness sizes both files by path.
//! * A checkpoint ([`Database::checkpoint`]) snapshots the whole catalog —
//!   base relations *and* materializations — plus each engine's creation
//!   trees, on the serving thread in O(tables), and seals the log. One
//!   writer thread sorts, streams, fsyncs and installs the snapshot, and
//!   only then deletes the sealed segment. Recovery restores the
//!   checkpoint, replays the creation trees through `Memo::insert_tree` +
//!   `explore` (deterministic, so the memo is bit-identical and no group
//!   id is ever trusted from disk), re-pins the restored materialization
//!   tables, and then replays the committed transactions the checkpoint
//!   does not cover — the sealed segment's, then the live log's — through
//!   [`Database::apply_transaction`].
//!
//! Recovery is proven bit-identical by `prop_wal.rs`: every crash site
//! recovers to exactly the committed prefix, cross-checked against the
//! recompute oracle.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

use spacetime_delta::Delta;
use spacetime_obs::{self as obs, names as metric};
use spacetime_optimizer::ViewSet;
use spacetime_storage::{Bag, Catalog, Column, Schema};
use spacetime_wal::{
    read_checkpoint, scan_log, write_checkpoint, CheckpointDoc, EngineDump, RawCheckpoint, Record,
    SyncPolicy, TableDump, WalError, WalSession,
};

use crate::database::{explore_views, Database};
use crate::engine::IvmEngine;
use crate::sched::Txn;
use crate::shim::{CHECKPOINT_FILE, LOG_FILE};
use crate::{IvmError, IvmResult};

// The frozen benchmark harness imports the durable shim from here.
#[doc(hidden)]
pub use crate::shim::durable::*;

const META_FILE: &str = "META";
/// The sealed log segment: the log as it stood when the last checkpoint
/// was taken, kept until that checkpoint is installed.
const SEALED_FILE: &str = "global.log.sealed";
/// `STWALMET` was the per-shard-log layout and `STWALME2` the sharded
/// one-log layout; a directory written with either fails `open` with
/// [`IvmError::Unsupported`].
const META_MAGIC: &[u8; 8] = b"STWALME3";

/// Convert a wal-layer error into the IVM error space.
fn wal_err(e: WalError) -> IvmError {
    IvmError::Internal(format!("wal: {e}"))
}

fn io_err(e: std::io::Error) -> IvmError {
    wal_err(e.into())
}

/// Durability configuration. Checkpoints are taken by calling
/// [`Database::checkpoint`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DurabilityOptions {
    /// When commits become durable (default: flush to the OS, which
    /// survives process death but not power loss).
    pub sync: SyncPolicy,
}

/// What recovery did: how much was replayed, how much was discarded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// The restored checkpoint covered every txn with id <= this.
    pub checkpoint_last_txn: u64,
    /// Committed transactions replayed from the log.
    pub replayed_txns: u64,
    /// Transactions in the log without a commit record — discarded as
    /// aborted.
    pub skipped_txns: u64,
    /// Torn / corrupt suffix bytes truncated from the log.
    pub discarded_bytes: u64,
}

/// The `STWALCK1` propagation-mode byte, kept for the format: always
/// written as 2 (the one data plane's tag). Nothing is restored from it.
const PROPAGATION_MODE_TAG: u8 = 2;

/// Check a checkpoint's two mode bytes, which restore nothing. The
/// propagation byte may be 2 or 0: the retired per-key mode wrote 0 under
/// this same `STWALME3` layout, and its checkpoints restore the same
/// state. The execution byte is always 0. Any other tag (1 was the
/// retired `Batched` or `Parallel`, which no `STWALME3` layout ever
/// wrote) is a bad checkpoint.
fn check_mode_tags(propagation: u8, execution: u8) -> IvmResult<()> {
    match (propagation, execution) {
        (0 | PROPAGATION_MODE_TAG, 0) => Ok(()),
        (0 | PROPAGATION_MODE_TAG, b) => {
            Err(IvmError::Internal(format!("bad execution mode tag {b}")))
        }
        (b, _) => Err(IvmError::Internal(format!("bad propagation mode tag {b}"))),
    }
}

/// What a checkpoint freezes on the serving thread: each table's metadata
/// and rows, each engine's recipe and the assertions (written from the
/// engines' flags). Nothing
/// here is sorted or encoded — the writer thread does that
/// ([`Snapshot::into_doc`]).
///
/// A table's rows are a clone of its [`Bag`], one `Arc` bump per shard, so
/// a write while the snapshot is alive copies only the row shard it lands
/// in. The snapshot shares nothing else with the live catalog: sharing
/// the whole table (a `Catalog::clone`) would also share its indexes, and
/// the first write to an index shard would copy every bucket in it.
struct Snapshot {
    last_txn: u64,
    /// Every table's dump with its rows still to sort, beside its rows.
    tables: Vec<(TableDump, Bag)>,
    engines: Vec<EngineDump>,
    assertions: Vec<(String, String)>,
}

/// Snapshot `db` as a checkpoint covering txns `<= last_txn`.
///
/// Every engine must carry its creation recipe (engines built through
/// [`Database::create_materialized_view`] / `create_view_group` do);
/// directly-constructed engines cannot be made durable.
fn snapshot(db: &Database, last_txn: u64) -> IvmResult<Snapshot> {
    let tables = db
        .catalog
        .iter()
        .map(|(name, t)| {
            let dump = TableDump {
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
                rows: Vec::new(),
            };
            (dump, t.relation.data().clone())
        })
        .collect();
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
    Ok(Snapshot {
        last_txn,
        tables,
        engines,
        assertions: db
            .engines()
            .iter()
            .filter_map(|e| Some((e.assertion.clone()?, e.name.clone())))
            .collect(),
    })
}

impl Snapshot {
    /// The checkpoint document, every table's rows in `Bag::sorted` order.
    fn into_doc(self) -> CheckpointDoc {
        let tables = self
            .tables
            .into_iter()
            .map(|(dump, rows)| TableDump {
                rows: rows.sorted(),
                ..dump
            })
            .collect();
        CheckpointDoc {
            last_txn: self.last_txn,
            propagation_mode: PROPAGATION_MODE_TAG,
            execution_mode: 0,
            tables,
            assertions: self.assertions,
            engines: self.engines,
        }
    }
}

/// Install a snapshot as the checkpoint of `dir`: sort and stream it into
/// the checkpoint file (fsync, rename, directory fsync), and only then
/// delete the sealed log segment it supersedes. The one writer function:
/// `make_durable` calls it inline, `checkpoint` on the writer thread.
fn install(snap: Snapshot, dir: &Path) -> IvmResult<()> {
    let t0 = Instant::now();
    let last_txn = snap.last_txn;
    write_checkpoint(&dir.join(CHECKPOINT_FILE), &snap.into_doc()).map_err(wal_err)?;
    match std::fs::remove_file(dir.join(SEALED_FILE)) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(io_err(e)),
        _ => {}
    }
    obs::flight::record("checkpoint_installed", || {
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        format!("{}: last_txn {last_txn} in {ms:.1} ms", dir.display())
    });
    Ok(())
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
    let (mut memo, named_roots) = explore_views(&dump.creation, catalog)?;
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
    IvmEngine::rebuild_pinned(named_roots, memo, view_set, catalog, &pins)
}

/// Restore a full [`Database`] from a checkpoint: tables first (so the
/// engine trees can re-derive schemas), then engines — each flagged with
/// the assertion that names its view, if one does — and the configured
/// modes. An assertion that names no restored view is an
/// [`IvmError::Integrity`] error.
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
            db.catalog
                .create_table(&t.name, schema)
                .map_err(IvmError::Storage)?;
        } else {
            db.catalog
                .create_materialized(&t.name, schema)
                .map_err(IvmError::Storage)?;
        }
        let table = db.catalog.table_mut(&t.name).map_err(IvmError::Storage)?;
        table.keys = t.keys.clone();
        table
            .relation
            .set_tuples_per_page(t.relation_tuples_per_page);
        for def in &t.index_defs {
            table
                .relation
                .create_index(def.clone())
                .map_err(IvmError::Storage)?;
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
    let mut engines = Vec::with_capacity(dumps.len());
    for dump in &dumps {
        engines.push(rebuild_engine(&mut db.catalog, dump)?);
    }
    for (name, view) in &raw.assertions {
        match engines.iter_mut().find(|e| &e.name == view) {
            Some(e) if e.assertion.is_none() => e.assertion = Some(name.clone()),
            _ => {
                return Err(IvmError::Integrity(format!(
                    "checkpointed assertion `{name}` names view `{view}`, which is no \
                     restored engine's view or backs another assertion"
                )))
            }
        }
    }
    for (engine, dump) in engines.into_iter().zip(&dumps) {
        db.register(engine, dump.creation.clone());
    }
    check_mode_tags(raw.propagation_mode, raw.execution_mode)?;
    Ok(db)
}

/// What one log replay did.
#[derive(Debug, Default, Clone, Copy)]
struct ReplaySummary {
    replayed: u64,
    skipped: u64,
    /// Highest txn id seen anywhere in the log (committed or not) —
    /// the reopened log allocates above it.
    max_txn: u64,
}

/// Replay the log's committed transactions through
/// [`Database::apply_transaction`], in log order — the original apply
/// order, the sealed segment before the live log. A transaction the
/// checkpoint covers (`id <= last_txn`) is skipped: a crash between
/// installing a checkpoint and deleting the sealed segment leaves it in
/// both.
fn replay_log<'r>(
    db: &mut Database,
    records: impl IntoIterator<Item = &'r Record>,
    last_txn: u64,
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
                let Some(txn) = open.remove(txn_id) else {
                    continue;
                };
                if *txn_id > last_txn {
                    db.apply_transaction(txn)?;
                    sum.replayed += 1;
                }
            }
        }
    }
    // Everything still open lacks a commit record: aborted.
    sum.skipped = open.len() as u64;
    obs::counter_add(metric::WAL_RECOVERY_REPLAYED_TXNS, sum.replayed);
    Ok(sum)
}

/// A durable database's log and directory; off for an in-memory one.
/// Cloning yields an empty slot, so a clone of a durable database is an
/// in-memory copy that can never append to the original's log.
#[derive(Default)]
pub(crate) struct Log(Option<Box<Durable>>);

struct Durable {
    wal: WalSession,
    dir: PathBuf,
    /// The checkpoint install running on the writer thread, if any.
    install: Option<JoinHandle<IvmResult<()>>>,
}

impl Durable {
    /// Wait for the in-flight install, if any, and return its result. A
    /// panic on the writer thread comes back as an error, never as an
    /// unwind.
    fn finish(&mut self) -> IvmResult<()> {
        let Some(handle) = self.install.take() else {
            return Ok(());
        };
        let result = handle.join().unwrap_or_else(|payload| {
            let message = crate::sched::panic_message(payload.as_ref());
            Err(IvmError::Internal(format!(
                "checkpoint writer panicked: {message}"
            )))
        });
        if let Err(e) = &result {
            obs::flight::record("checkpoint_failed", || e.to_string());
        }
        result
    }
}

/// Dropping a durable database waits for its checkpoint install; a
/// failure there is left to the flight recorder.
impl Drop for Durable {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

impl Clone for Log {
    fn clone(&self) -> Self {
        Log(None)
    }
}

impl Log {
    fn durable(wal: WalSession, dir: &Path) -> Log {
        Log(Some(Box::new(Durable {
            wal,
            dir: dir.to_path_buf(),
            install: None,
        })))
    }

    pub(crate) fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Log a transaction as submitted — its begin and deltas — and return
    /// its id in the log (`None` when the database is in memory).
    pub(crate) fn begin<T: AsRef<str>>(&mut self, txn: &[(T, Delta)]) -> IvmResult<Option<u64>> {
        match &mut self.0 {
            Some(d) => d.wal.begin(txn).map(Some).map_err(wal_err),
            None => Ok(None),
        }
    }

    /// Append a logged transaction's commit record — its commit point —
    /// and make it durable per the sync policy.
    pub(crate) fn commit(&mut self, logged: Option<u64>) -> IvmResult<()> {
        match (&mut self.0, logged) {
            (Some(d), Some(id)) => d.wal.commit(id).map_err(wal_err),
            _ => Ok(()),
        }
    }
}

fn write_meta(dir: &Path) -> IvmResult<()> {
    let tmp = dir.join(format!("{META_FILE}.tmp"));
    std::fs::write(&tmp, META_MAGIC).map_err(io_err)?;
    std::fs::rename(&tmp, dir.join(META_FILE)).map_err(io_err)
}

fn check_meta(dir: &Path) -> IvmResult<()> {
    let path = dir.join(META_FILE);
    if std::fs::read(&path).map_err(io_err)? != META_MAGIC {
        return Err(IvmError::Unsupported(format!(
            "{} is not a one-database durable directory (unknown META magic)",
            path.display()
        )));
    }
    Ok(())
}

impl Database {
    /// Make this database durable in `dir`: the initial checkpoint
    /// (written inline), the log holding only a checkpoint marker, and
    /// `META` last, by rename. `META` is the commit point of creation, so
    /// a call that failed part-way leaves a directory the next call
    /// overwrites file by file instead of refusing. Errors if `dir`
    /// already holds a durable database (use [`Database::open`]) or this
    /// one is already durable; on error the database stays in memory.
    ///
    /// Schema and view changes made afterwards are durable from the next
    /// [`Database::checkpoint`] on.
    pub fn make_durable(&mut self, dir: &Path, opts: DurabilityOptions) -> IvmResult<()> {
        if self.log.is_on() {
            return Err(IvmError::Unsupported(
                "the database is already durable".into(),
            ));
        }
        if dir.join(META_FILE).exists() {
            return Err(IvmError::Internal(format!(
                "durable directory {} is already initialized; use open()",
                dir.display()
            )));
        }
        let ckpt = dir.join(CHECKPOINT_FILE);
        std::fs::create_dir_all(ckpt.parent().unwrap_or(dir)).map_err(io_err)?;
        install(snapshot(self, 0)?, dir)?;
        let mut wal = WalSession::open(&dir.join(LOG_FILE), 0, 1, opts.sync).map_err(wal_err)?;
        wal.mark_checkpoint(0).map_err(wal_err)?;
        write_meta(dir)?;
        self.log = Log::durable(wal, dir);
        Ok(())
    }

    /// Recover the durable database in `dir`: restore its checkpoint,
    /// replay the committed transactions it does not cover from the
    /// sealed log segment, if one is left, and then from the live log's
    /// valid prefix, and reopen the live log for appending. Only the live
    /// log may end in a torn tail; a torn or corrupt sealed segment is an
    /// error.
    pub fn open(dir: &Path, opts: DurabilityOptions) -> IvmResult<(Database, RecoveryStats)> {
        check_meta(dir)?;
        let ckpt = dir.join(CHECKPOINT_FILE);
        let raw = read_checkpoint(&ckpt)
            .map_err(wal_err)?
            .ok_or_else(|| IvmError::Internal(format!("no checkpoint at {}", ckpt.display())))?;
        let mut db = restore_database(&raw)?;
        let sealed = scan_log(&dir.join(SEALED_FILE)).map_err(wal_err)?;
        if let Some(why) = sealed.torn {
            let why = format!("sealed log segment {SEALED_FILE}: {why}");
            return Err(wal_err(WalError::Corrupt(why)));
        }
        let log = dir.join(LOG_FILE);
        let scan = scan_log(&log).map_err(wal_err)?;
        let sum = replay_log(
            &mut db,
            sealed.records.iter().chain(&scan.records),
            raw.last_txn,
        )?;
        let stats = RecoveryStats {
            checkpoint_last_txn: raw.last_txn,
            replayed_txns: sum.replayed,
            skipped_txns: sum.skipped,
            discarded_bytes: scan.discarded_bytes,
        };
        let next_txn = sum.max_txn.max(raw.last_txn) + 1;
        let wal = WalSession::open(&log, scan.valid_len, next_txn, opts.sync).map_err(wal_err)?;
        db.log = Log::durable(wal, dir);
        obs::gauge_set(metric::WAL_REPLAY_LAG_TXNS, stats.replayed_txns as f64);
        obs::flight::record("recovery", || {
            format!(
                "{}: replayed {} skipped {} discarded {}B",
                dir.display(),
                stats.replayed_txns,
                stats.skipped_txns,
                stats.discarded_bytes
            )
        });
        Ok((db, stats))
    }

    /// Checkpoint every committed transaction, off the serving thread.
    /// This call waits for the previous install and returns its error if
    /// it failed; otherwise it snapshots the database, seals the log — the
    /// live log becomes the sealed segment and a fresh one starts with the
    /// checkpoint marker — and starts the install on the writer thread
    /// ([`Database::finish_checkpoint`] waits for it). While a sealed
    /// segment from a failed install is left, the log is not sealed again:
    /// the next install covers both segments. Errors on an in-memory
    /// database.
    pub fn checkpoint(&mut self) -> IvmResult<()> {
        let Some(d) = self.log.0.as_mut() else {
            return Err(IvmError::Unsupported(
                "checkpoint of an in-memory database".into(),
            ));
        };
        d.finish()?;
        let last_txn = d.wal.next_txn_id() - 1;
        let snap = snapshot(self, last_txn)?;
        let d = self.log.0.as_mut().expect("checked durable above");
        let sealed = d.dir.join(SEALED_FILE);
        if !sealed.exists() {
            d.wal.seal(&sealed, last_txn).map_err(wal_err)?;
            obs::flight::record("checkpoint_sealed", || {
                format!("{}: last_txn {last_txn}", d.dir.display())
            });
        }
        let dir = d.dir.clone();
        let writer = std::thread::Builder::new()
            .name("checkpoint-writer".into())
            .spawn(move || install(snap, &dir))
            .map_err(io_err)?;
        d.install = Some(writer);
        Ok(())
    }

    /// Wait for the checkpoint install [`Database::checkpoint`] started,
    /// if one is in flight, and return its result.
    pub fn finish_checkpoint(&mut self) -> IvmResult<()> {
        self.log.0.as_mut().map_or(Ok(()), |d| d.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacetime_storage::tuple;

    /// A durable copy of `db` in `dir`.
    fn create(db: &Database, dir: &Path) -> Database {
        let mut db = db.clone();
        db.make_durable(dir, DurabilityOptions::default()).unwrap();
        db
    }

    /// Insert `a` into `T`.
    fn insert(db: &mut Database, a: i64) {
        let txn = vec![("T".to_string(), Delta::insert(tuple![a], 1))];
        db.apply_transaction(txn).unwrap();
    }

    fn one_column_db() -> Database {
        use spacetime_storage::DataType;
        let mut db = Database::new();
        db.catalog
            .create_table("T", Schema::new(vec![Column::new("T", "a", DataType::Int)]))
            .unwrap();
        db
    }

    fn rows(db: &Database) -> Bag {
        db.catalog.table("T").unwrap().relation.data().clone()
    }

    /// A checkpoint opens only with the mode tags this layout writes
    /// (propagation 0 or 2, execution 0): the retired `Batched` /
    /// `Parallel` tags (1, 0) and (2, 1) fail as a tag nobody ever wrote
    /// does, with a typed error.
    #[test]
    fn only_the_mode_tags_this_layout_writes_open() {
        let dir = spacetime_wal::test_dir("durability_mode_tags");
        let mut db = Database::new();
        db.execute_sql(
            "CREATE TABLE T (a INTEGER PRIMARY KEY);
             CREATE MATERIALIZED VIEW Big AS SELECT a FROM T WHERE a > 1",
        )
        .unwrap();
        let mut dur = create(&db, &dir);
        insert(&mut dur, 5);
        drop(dur);

        let rewrite = |prop: u8, exec: u8| {
            let mut doc = snapshot(&db, 0).unwrap().into_doc();
            doc.propagation_mode = prop;
            doc.execution_mode = exec;
            write_checkpoint(&dir.join(CHECKPOINT_FILE), &doc).unwrap();
        };
        rewrite(0, 0);
        let (recovered, stats) = Database::open(&dir, DurabilityOptions::default()).unwrap();
        assert_eq!(stats.replayed_txns, 1);
        for table in ["T", "Big"] {
            let rel = &recovered.catalog.table(table).unwrap().relation;
            assert!(
                rel.data().contains(&tuple![5_i64]),
                "{table} lost the replayed row"
            );
        }
        drop(recovered);

        for (prop, exec) in [(1, 0), (2, 1), (3, 0), (2, 2)] {
            rewrite(prop, exec);
            let err = Database::open(&dir, DurabilityOptions::default())
                .err()
                .expect("a tag this layout never writes must not open");
            assert!(
                matches!(&err, IvmError::Internal(m) if m.contains("mode tag")),
                "({prop}, {exec}): {err}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Assertions are flags on restored engines: a checkpoint whose
    /// assertion names a view no restored engine has does not open, and
    /// one that names a real view comes back flagged and enforced.
    #[test]
    fn a_checkpointed_assertion_must_name_a_restored_view() {
        let dir = spacetime_wal::test_dir("durability_assertion_views");
        let mut db = Database::new();
        db.execute_sql(
            "CREATE TABLE T (a INTEGER PRIMARY KEY);
             CREATE ASSERTION Small CHECK (NOT EXISTS (SELECT a FROM T WHERE a > 9))",
        )
        .unwrap();
        drop(create(&db, &dir));
        let (mut recovered, _) = Database::open(&dir, DurabilityOptions::default()).unwrap();
        let flags: Vec<_> = recovered
            .engines()
            .iter()
            .map(|e| e.assertion.clone())
            .collect();
        assert_eq!(flags, [Some("Small".to_string())]);
        let err = recovered
            .apply_delta("T", Delta::insert(tuple![10_i64], 1))
            .unwrap_err();
        assert!(matches!(err, IvmError::AssertionViolated { .. }), "{err}");
        drop(recovered);

        let mut doc = snapshot(&db, 0).unwrap().into_doc();
        doc.assertions
            .push(("Ghost".into(), "__assert_Ghost".into()));
        write_checkpoint(&dir.join(CHECKPOINT_FILE), &doc).unwrap();
        let err = Database::open(&dir, DurabilityOptions::default())
            .err()
            .expect("an assertion without its view must not open");
        assert!(
            matches!(&err, IvmError::Integrity(m) if m.contains("__assert_Ghost")),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A directory of an older layout — per-shard logs (`STWALMET`) or the
    /// sharded one-log layout (`STWALME2`) — does not open: the error is
    /// typed, not a panic or a misread.
    #[test]
    fn old_layout_meta_fails_open_with_a_typed_error() {
        let dir = spacetime_wal::test_dir("durability_old_meta");
        drop(create(&one_column_db(), &dir));
        for magic in [b"STWALMET", b"STWALME2"] {
            std::fs::write(dir.join(META_FILE), magic).unwrap();
            let err = Database::open(&dir, DurabilityOptions::default())
                .err()
                .expect("an old layout must not open");
            assert!(matches!(err, IvmError::Unsupported(_)), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A clone of a durable database is an in-memory copy: it commits
    /// without touching the original's log, and it cannot checkpoint.
    #[test]
    fn a_clone_of_a_durable_database_never_writes_its_log() {
        let dir = spacetime_wal::test_dir("durability_clone");
        let mut dur = create(&one_column_db(), &dir);
        insert(&mut dur, 1);
        let log = || std::fs::read(dir.join(LOG_FILE)).unwrap();
        let before = log();
        let mut copy = dur.clone();
        insert(&mut copy, 2);
        copy.apply_delta("T", Delta::insert(tuple![3_i64], 1))
            .unwrap();
        assert!(matches!(copy.checkpoint(), Err(IvmError::Unsupported(_))));
        assert_eq!(log(), before, "the clone wrote the original's log");
        drop((dur, copy));
        let (rec, stats) = Database::open(&dir, DurabilityOptions::default()).unwrap();
        assert_eq!(stats.replayed_txns, 1);
        assert_eq!(rows(&rec), Bag::from_tuples([tuple![1_i64]]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// No committing entry point of a durable database skips the log:
    /// `apply_delta`, SQL DML, `apply_transaction` and `run` all recover.
    #[test]
    fn every_committing_entry_point_is_logged() {
        let dir = spacetime_wal::test_dir("durability_entry_points");
        let mut dur = create(&one_column_db(), &dir);
        dur.apply_delta("T", Delta::insert(tuple![1_i64], 1))
            .unwrap();
        dur.execute_sql("INSERT INTO T VALUES (2)").unwrap();
        insert(&mut dur, 3);
        let txn = vec![("T".to_string(), Delta::insert(tuple![4_i64], 1))];
        assert!(dur.run(&[txn]).results[0].is_ok());
        let want = rows(&dur);
        drop(dur);
        let (rec, stats) = Database::open(&dir, DurabilityOptions::default()).unwrap();
        assert_eq!(stats.replayed_txns, 4);
        assert_eq!(rows(&rec), want);
        assert_eq!(want.len(), 4);
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
        let mut dur = create(&one_column_db(), &dir);
        for i in 0..3 {
            insert(&mut dur, i);
        }
        drop(dur);

        let before = obs::snapshot().counter(metric::WAL_RECOVERY_REPLAYED_TXNS);
        let (_, stats) = Database::open(&dir, DurabilityOptions::default()).unwrap();
        assert_eq!(stats.replayed_txns, 3);
        assert!(
            obs::snapshot().counter(metric::WAL_RECOVERY_REPLAYED_TXNS) >= before + 3,
            "recovery must count the replayed tail"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpoint leaves its seal and its install on the flight
    /// recorder, each naming the directory and the snapshot's last
    /// transaction.
    #[cfg(feature = "metrics")]
    #[test]
    fn checkpoint_seal_and_install_reach_the_flight_recorder() {
        let dir = spacetime_wal::test_dir("durability_flight");
        let mut dur = create(&one_column_db(), &dir);
        insert(&mut dur, 1);
        dur.checkpoint().unwrap();
        dur.finish_checkpoint().unwrap();
        let events = obs::flight::dump();
        for kind in ["checkpoint_sealed", "checkpoint_installed"] {
            let want = format!("{}: last_txn 1", dir.display());
            assert!(
                events
                    .iter()
                    .any(|e| e.kind == kind && e.detail.starts_with(&want)),
                "no {kind} event for {want}"
            );
        }
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
        let mut dur = create(&one_column_db(), &dir);
        for i in 0..4 {
            insert(&mut dur, i);
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
        // `make_durable` installs the initial checkpoint marker.
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

        let (_, stats) = Database::open(&dir, DurabilityOptions::default()).unwrap();
        assert_eq!(stats.replayed_txns, 4);
        assert!(
            obs::snapshot().gauge(metric::WAL_REPLAY_LAG_TXNS) > 0.0,
            "recovery publishes its replay lag"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
