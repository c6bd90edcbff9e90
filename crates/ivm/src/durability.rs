//! Durable commits: per-shard write-ahead logging, checkpointing, and
//! crash recovery (DESIGN.md §17).
//!
//! The paper's traded space — every materialization — is recomputable,
//! but recomputing it after a crash costs exactly the query time the
//! space was traded to avoid. This module makes the trade durable:
//!
//! * [`DurableSharded`] — the one durable handle — wraps a
//!   [`ShardedDatabase`] with one WAL per shard plus a global commit
//!   log; an unsharded durable database is the `n_shards = 1` case.
//!   Transactions go through [`crate::sched::TxnScheduler::with_wals`]:
//!   every participant appends `begin + deltas` before touching memory
//!   and a `commit` record after the in-memory apply succeeds, so the
//!   log never claims a transaction the memory state rejected, and
//!   recovery never replays a transaction the log does not prove
//!   committed. Cross-shard transactions use a two-phase protocol: each
//!   participant logs `begin + deltas + prepared`, and after every shard
//!   applied in memory the coordinator flushes the participants and
//!   appends a single commit record for the transaction's *global id* to
//!   `global.log` — the atomic commit point. Recovery resolves prepared
//!   participants by presence (committed) or absence (presumed abort) of
//!   that record.
//! * On disk a durable directory is `META` (shard count and spec — its
//!   presence is what makes the directory a database, so it is written
//!   last), `global.log`, and one `shard-NNN/` per shard holding
//!   `checkpoint.ckpt` and `wal.log`.
//! * Checkpoints snapshot the whole catalog — base relations *and*
//!   materializations — plus each engine's creation trees. Recovery
//!   restores the snapshot, replays the creation trees through
//!   `Memo::insert_tree` + `explore` (deterministic, so the memo is
//!   bit-identical and no group id is ever trusted from disk), re-pins
//!   the restored materialization tables, and then replays only the
//!   post-checkpoint log tail through the normal propagation engines.
//!
//! Recovery is proven bit-identical by `prop_wal.rs`: every crash site
//! × shard count × propagation mode recovers to exactly the committed
//! prefix, cross-checked against the recompute oracle.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use spacetime_memo::{explore, Memo};
use spacetime_obs::{self as obs, names as metric};
use spacetime_optimizer::ViewSet;
use spacetime_storage::{Bag, Catalog, Column, Schema, ShardSpec};
use spacetime_wal::codec::{self, crc32, Cur};
use spacetime_wal::{
    read_checkpoint, scan_log, write_checkpoint, CheckpointDoc, CheckpointPolicy, EngineDump,
    RawCheckpoint, Record, SyncPolicy, TableDump, WalError, WalSession, WalWriter,
};

use crate::constraints::Assertion;
use crate::database::Database;
use crate::engine::{IvmEngine, PropagationMode};
use crate::sched::Txn;
use crate::shard::ShardedDatabase;
use crate::{IvmError, IvmResult};

/// File names inside a durable directory.
const CHECKPOINT_FILE: &str = "checkpoint.ckpt";
const WAL_FILE: &str = "wal.log";
const GLOBAL_LOG_FILE: &str = "global.log";
const META_FILE: &str = "META";
const META_MAGIC: &[u8; 8] = b"STWALMET";

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
    /// The restored checkpoint covered every txn with id <= this.
    pub checkpoint_last_txn: u64,
    /// Committed transactions replayed from the log tail.
    pub replayed_txns: u64,
    /// Transactions in the log without a commit decision (begun but
    /// never committed, or prepared participants whose global commit
    /// record is absent) — discarded as aborted.
    pub skipped_txns: u64,
    /// Torn / corrupt suffix bytes truncated from the log(s).
    pub discarded_bytes: u64,
}

impl RecoveryStats {
    /// Fold another shard's recovery into these (`checkpoint_last_txn`
    /// keeps the maximum).
    pub fn absorb(&mut self, other: &RecoveryStats) {
        self.checkpoint_last_txn = self.checkpoint_last_txn.max(other.checkpoint_last_txn);
        self.replayed_txns += other.replayed_txns;
        self.skipped_txns += other.skipped_txns;
        self.discarded_bytes += other.discarded_bytes;
    }
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

/// Replay a scanned log tail through the normal propagation engines.
///
/// Transactions apply at their commit decision, in log order — which is
/// the original apply order, because the scheduler runs transactions
/// one at a time in admission order. A `Prepared` participant
/// commits iff its global id is in `global_committed`.
fn replay_records(
    db: &mut Database,
    records: &[Record],
    global_committed: &BTreeSet<u64>,
) -> IvmResult<ReplaySummary> {
    struct Pending {
        updates: Txn,
        global: Option<u64>,
    }
    let mut open: BTreeMap<u64, Pending> = BTreeMap::new();
    let mut sum = ReplaySummary::default();
    for rec in records {
        match rec {
            Record::Checkpoint { last_txn } => {
                sum.max_txn = sum.max_txn.max(*last_txn);
            }
            Record::TxnBegin { txn_id, global } => {
                sum.max_txn = sum.max_txn.max(*txn_id);
                open.insert(
                    *txn_id,
                    Pending {
                        updates: Txn::new(),
                        global: *global,
                    },
                );
            }
            Record::Delta {
                txn_id,
                table,
                delta,
            } => {
                if let Some(p) = open.get_mut(txn_id) {
                    p.updates.push((table.clone(), delta.clone()));
                }
            }
            Record::TxnCommit { txn_id } => {
                if let Some(p) = open.remove(txn_id) {
                    db.apply_transaction(p.updates)?;
                    sum.replayed += 1;
                }
            }
            Record::Prepared { txn_id } => {
                if let Some(p) = open.remove(txn_id) {
                    if p.global.is_some_and(|g| global_committed.contains(&g)) {
                        db.apply_transaction(p.updates)?;
                        sum.replayed += 1;
                    } else {
                        sum.skipped += 1;
                    }
                }
            }
        }
    }
    // Everything still open lacks a commit decision: aborted.
    sum.skipped += open.len() as u64;
    obs::counter_add(metric::WAL_RECOVERY_REPLAYED_TXNS, sum.replayed);
    Ok(sum)
}

/// The per-shard WAL sessions plus the global commit log, shared with
/// the scheduler (`TxnScheduler::with_wals`). The mutexes follow the
/// shard-cell discipline: the scheduler runs one transaction at a time,
/// so a session lock is always free when it takes it; the global log is
/// taken only by cross-shard commits.
pub struct ShardWals {
    sessions: Vec<Mutex<WalSession>>,
    global: Mutex<WalWriter>,
    next_gid: AtomicU64,
    sync: SyncPolicy,
}

impl ShardWals {
    fn session(&self, shard: usize) -> std::sync::MutexGuard<'_, WalSession> {
        self.sessions[shard].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The shard count.
    pub fn n_shards(&self) -> usize {
        self.sessions.len()
    }

    /// Allocate a global transaction id for a cross-shard commit.
    pub(crate) fn alloc_gid(&self) -> u64 {
        self.next_gid.fetch_add(1, Ordering::SeqCst)
    }

    /// Log a participant's `begin + deltas` (plus `prepared` when part
    /// of a cross-shard transaction) on its shard's log. Returns the
    /// shard-local txn id.
    pub(crate) fn begin_shard(
        &self,
        shard: usize,
        global: Option<u64>,
        updates: &Txn,
    ) -> IvmResult<u64> {
        let mut s = self.session(shard);
        let txn_id = s.begin(global, updates).map_err(wal_err)?;
        if global.is_some() {
            s.prepared(txn_id).map_err(wal_err)?;
        }
        Ok(txn_id)
    }

    /// Log a single-shard transaction's commit record and make it
    /// durable per the sync policy.
    pub(crate) fn commit_shard(&self, shard: usize, txn_id: u64) -> IvmResult<()> {
        self.session(shard).commit(txn_id).map_err(wal_err)
    }

    /// The cross-shard commit point: flush every participant's log (so
    /// their prepared records are durable first), then append the
    /// global commit record. A crash before the global record is
    /// durable aborts the transaction at recovery; after, it commits —
    /// exactly the 2PC presence/absence rule.
    pub(crate) fn commit_global(&self, gid: u64, shards: &[usize]) -> IvmResult<()> {
        for &s in shards {
            self.session(s)
                .writer()
                .commit_durable(self.sync)
                .map_err(wal_err)?;
        }
        spacetime_storage::fault::fire("wal::global_commit")
            .map_err(IvmError::Storage)?;
        let mut g = self.global.lock().unwrap_or_else(|e| e.into_inner());
        g.append(&Record::TxnCommit { txn_id: gid }).map_err(wal_err)?;
        g.commit_durable(self.sync).map_err(wal_err)
    }

    /// Does any shard's policy call for a checkpoint?
    pub fn should_checkpoint(&self) -> bool {
        (0..self.sessions.len()).any(|s| self.session(s).should_checkpoint())
    }
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
        return Err(IvmError::Internal(format!("bad META magic at {}", path.display())));
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

/// A [`ShardedDatabase`] with one WAL per shard plus the global commit
/// log. Construct a durable scheduler over it with
/// [`crate::sched::TxnScheduler::with_wals`].
pub struct DurableSharded {
    db: ShardedDatabase,
    wals: Arc<ShardWals>,
    dir: PathBuf,
}

impl DurableSharded {
    /// Partition `template` across `n_shards` (exactly like
    /// [`ShardedDatabase::partition`]) and attach durability: per-shard
    /// initial checkpoints, empty per-shard logs, an empty global log,
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
        let mut sessions = Vec::with_capacity(n_shards);
        for s in 0..n_shards {
            let sdir = shard_dir(dir, s);
            std::fs::create_dir_all(&sdir).map_err(|e| wal_err(e.into()))?;
            let doc = build_checkpoint_doc(&db.shard(s), 0)?;
            write_checkpoint(&sdir.join(CHECKPOINT_FILE), &doc).map_err(wal_err)?;
            let mut session =
                WalSession::open(&sdir.join(WAL_FILE), 0, 1, opts.sync, opts.checkpoint)
                    .map_err(wal_err)?;
            session.after_checkpoint(0).map_err(wal_err)?;
            sessions.push(Mutex::new(session));
        }
        let global = WalWriter::open(&dir.join(GLOBAL_LOG_FILE), 0).map_err(wal_err)?;
        write_meta(dir, n_shards, db.spec())?;
        Ok(DurableSharded {
            db,
            wals: Arc::new(ShardWals {
                sessions,
                global: Mutex::new(global),
                next_gid: AtomicU64::new(1),
                sync: opts.sync,
            }),
            dir: dir.to_path_buf(),
        })
    }

    /// Recover from `dir` with default options.
    pub fn open(dir: &Path, n_shards: usize) -> IvmResult<(Self, RecoveryStats)> {
        Self::open_with(dir, n_shards, DurabilityOptions::default())
    }

    /// Recover every shard from `dir`: the global log's valid prefix
    /// decides which prepared cross-shard participants committed, each
    /// shard restores its checkpoint and replays its committed tail,
    /// and the logs reopen for appending.
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
        // The global commit decisions first: they gate every shard's
        // prepared participants.
        let gscan = scan_log(&dir.join(GLOBAL_LOG_FILE)).map_err(wal_err)?;
        let mut committed_gids: BTreeSet<u64> = BTreeSet::new();
        let mut max_gid = 0u64;
        for rec in &gscan.records {
            if let Record::TxnCommit { txn_id } = rec {
                committed_gids.insert(*txn_id);
                max_gid = max_gid.max(*txn_id);
            }
        }
        let mut stats = RecoveryStats {
            discarded_bytes: gscan.discarded_bytes,
            ..RecoveryStats::default()
        };
        let mut shards = Vec::with_capacity(n_shards);
        let mut sessions = Vec::with_capacity(n_shards);
        for s in 0..n_shards {
            let sdir = shard_dir(dir, s);
            let ckpt = sdir.join(CHECKPOINT_FILE);
            let raw = read_checkpoint(&ckpt).map_err(wal_err)?.ok_or_else(|| {
                IvmError::Internal(format!("no checkpoint at {}", ckpt.display()))
            })?;
            let mut db = restore_database(&raw)?;
            let scan = scan_log(&sdir.join(WAL_FILE)).map_err(wal_err)?;
            let sum = replay_records(&mut db, &scan.records, &committed_gids)?;
            for rec in &scan.records {
                if let Record::TxnBegin {
                    global: Some(g), ..
                } = rec
                {
                    max_gid = max_gid.max(*g);
                }
            }
            stats.absorb(&RecoveryStats {
                checkpoint_last_txn: raw.last_txn,
                replayed_txns: sum.replayed,
                skipped_txns: sum.skipped,
                discarded_bytes: scan.discarded_bytes,
            });
            let session = WalSession::open(
                &sdir.join(WAL_FILE),
                scan.valid_len,
                sum.max_txn.max(raw.last_txn) + 1,
                opts.sync,
                opts.checkpoint,
            )
            .map_err(wal_err)?;
            sessions.push(Mutex::new(session));
            shards.push(Mutex::new(db));
        }
        let global = WalWriter::open(&dir.join(GLOBAL_LOG_FILE), gscan.valid_len)
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
        Ok((
            DurableSharded {
                db: ShardedDatabase::from_parts(spec, shards),
                wals: Arc::new(ShardWals {
                    sessions,
                    global: Mutex::new(global),
                    next_gid: AtomicU64::new(max_gid + 1),
                    sync: opts.sync,
                }),
                dir: dir.to_path_buf(),
            },
            stats,
        ))
    }

    /// The wrapped sharded database.
    pub fn db(&self) -> &ShardedDatabase {
        &self.db
    }

    /// Mutable access (e.g. [`ShardedDatabase::set_propagation_mode`]).
    pub fn db_mut(&mut self) -> &mut ShardedDatabase {
        &mut self.db
    }

    /// The shared WAL handles, for [`crate::sched::TxnScheduler::with_wals`].
    pub fn wals(&self) -> Arc<ShardWals> {
        Arc::clone(&self.wals)
    }

    /// The durable directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Checkpoint every shard, then truncate the global log.
    ///
    /// Must not run concurrently with a scheduler run (`&mut self`
    /// guarantees it). The ordering is crash-safe: each shard's
    /// checkpoint truncates that shard's log (removing its prepared
    /// records) *before* the global log is truncated, so a crash
    /// mid-checkpoint never strands a prepared participant without its
    /// commit decision.
    pub fn checkpoint(&mut self) -> IvmResult<()> {
        for s in 0..self.db.n_shards() {
            let last_txn = {
                let session = self.wals.session(s);
                session.next_txn_id().saturating_sub(1)
            };
            let doc = build_checkpoint_doc(&self.db.shard(s), last_txn)?;
            write_checkpoint(&shard_dir(&self.dir, s).join(CHECKPOINT_FILE), &doc)
                .map_err(wal_err)?;
            self.wals
                .session(s)
                .after_checkpoint(last_txn)
                .map_err(wal_err)?;
        }
        let mut g = self.wals.global.lock().unwrap_or_else(|e| e.into_inner());
        g.truncate().map_err(wal_err)?;
        Ok(())
    }

    /// Checkpoint if any shard's policy calls for it.
    pub fn maybe_checkpoint(&mut self) -> IvmResult<bool> {
        if self.wals.should_checkpoint() {
            self.checkpoint()?;
            Ok(true)
        } else {
            Ok(false)
        }
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

    #[cfg(feature = "metrics")]
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
