//! # spacetime-wal — durability for the traded space
//!
//! The paper's materialized views trade space for time, but until this
//! crate every byte of that traded space was volatile. `spacetime-wal`
//! provides the three durability primitives the IVM layer composes
//! into crash recovery (see `spacetime-ivm`'s `durability` module and
//! DESIGN.md §17):
//!
//! * **Write-ahead log** ([`log`]): CRC32-framed, length-prefixed
//!   records (txn-begin, per-relation delta payload, txn-commit,
//!   checkpoint marker) in one log per database: a transaction is one
//!   begin, its deltas and one commit record, the commit point. Readers
//!   accept the longest valid prefix; torn or corrupted crash suffixes
//!   are discarded and truncated.
//! * **Checkpoints** ([`checkpoint`]): a full catalog snapshot (base
//!   relations *and* chosen materializations) streamed to a temp file,
//!   fsynced, and atomically renamed over the previous checkpoint, so
//!   a crash mid-checkpoint always leaves a valid one. Taking one seals
//!   the log ([`WalSession::seal`]): the frames it covers move to a
//!   sealed segment, deleted once the checkpoint is installed.
//! * **Crash surgery** ([`crash`]): deterministic frame-boundary file
//!   mutilation (torn tail, truncated segment, corrupted CRC, dropped
//!   commit frame) used by the recovery property suites.
//!
//! The codec ([`codec`]) is hand-rolled — including the CRC32 — because
//! the workspace builds offline with no registry access.

use std::path::{Path, PathBuf};

pub mod checkpoint;
pub mod codec;
pub mod crash;
pub mod log;

pub use checkpoint::{read_checkpoint, write_checkpoint, CheckpointDoc, EngineDump, RawCheckpoint, TableDump};
pub use log::{frame_spans, scan_log, LogScan, Record, WalWriter};

/// Errors from the durability layer.
#[derive(Debug)]
pub enum WalError {
    /// The log or checkpoint bytes are not a valid encoding. During
    /// recovery this is expected at the crash frontier and handled by
    /// discarding the suffix; anywhere else it is fatal.
    Corrupt(String),
    /// An I/O error from the filesystem.
    Io(std::io::Error),
    /// A storage-layer error surfaced while re-deriving schemas or
    /// firing a failpoint.
    Storage(spacetime_storage::StorageError),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Corrupt(m) => write!(f, "corrupt wal data: {m}"),
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Storage(e) => write!(f, "wal storage error: {e}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<spacetime_storage::StorageError> for WalError {
    fn from(e: spacetime_storage::StorageError) -> Self {
        WalError::Storage(e)
    }
}

pub type WalResult<T> = Result<T, WalError>;

/// When appended frames become durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Flush to the OS at every commit: survives process death
    /// (`kill -9`) but not power loss. The default — keeps WAL-on
    /// serve throughput close to the in-memory baseline.
    #[default]
    Flush,
    /// fsync at every commit: survives power loss.
    Always,
}

/// A database's one live WAL handle: the writer plus txn-id allocation
/// and checkpoint-age accounting. The IVM layer drives it; this type
/// only knows about records and bytes.
#[derive(Debug)]
pub struct WalSession {
    writer: WalWriter,
    pub sync: SyncPolicy,
    next_txn: u64,
    txns_since_checkpoint: u64,
}

impl WalSession {
    /// Open a session over `path`, truncating to `valid_len` (from a
    /// prior [`scan_log`]) and allocating txn ids from `next_txn` up.
    pub fn open(path: &Path, valid_len: u64, next_txn: u64, sync: SyncPolicy) -> WalResult<Self> {
        Ok(WalSession {
            writer: WalWriter::open(path, valid_len)?,
            sync,
            next_txn,
            txns_since_checkpoint: 0,
        })
    }

    pub fn next_txn_id(&self) -> u64 {
        self.next_txn
    }

    /// Allocate a txn id and append its begin + delta records
    /// (buffered). The commit point is [`WalSession::commit`].
    pub fn begin<T: AsRef<str>>(
        &mut self,
        updates: &[(T, spacetime_delta::Delta)],
    ) -> WalResult<u64> {
        let txn_id = self.next_txn;
        self.next_txn += 1;
        let begin = Record::TxnBegin {
            txn_id,
            global: None,
        };
        self.writer.append(&begin)?;
        for (table, delta) in updates {
            self.writer.append(&Record::Delta {
                txn_id,
                table: table.as_ref().to_string(),
                delta: delta.clone(),
            })?;
        }
        Ok(txn_id)
    }

    /// Append a transaction's commit record — its commit point — and make
    /// it durable per the sync policy.
    pub fn commit(&mut self, txn_id: u64) -> WalResult<()> {
        self.writer.append(&Record::TxnCommit { txn_id })?;
        self.writer.commit_durable(self.sync)?;
        self.txns_since_checkpoint += 1;
        spacetime_obs::gauge_add(spacetime_obs::names::WAL_CHECKPOINT_AGE_TXNS, 1.0);
        Ok(())
    }

    /// Append the marker of a checkpoint covering every txn through
    /// `last_txn` and make it durable per the sync policy.
    pub fn mark_checkpoint(&mut self, last_txn: u64) -> WalResult<()> {
        self.writer.append(&Record::Checkpoint { last_txn })?;
        self.writer.commit_durable(self.sync)
    }

    /// Seal the log for a checkpoint covering every txn through
    /// `last_txn`: rename it to `sealed`, where its frames stay readable
    /// until that checkpoint is installed, and go on in a fresh log at
    /// the old path that holds only the checkpoint marker. Resets the
    /// checkpoint age.
    pub fn seal(&mut self, sealed: &Path, last_txn: u64) -> WalResult<()> {
        self.writer.flush()?;
        let path = self.writer.path().to_path_buf();
        std::fs::rename(&path, sealed)?;
        self.writer = WalWriter::open(&path, 0).inspect_err(|_| {
            // Appends must never go on into the sealed segment.
            let _ = std::fs::rename(sealed, &path);
        })?;
        self.mark_checkpoint(last_txn)?;
        if self.sync == SyncPolicy::Always {
            if let Some(dir) = path.parent() {
                sync_dir(dir)?;
            }
        }
        // Drop this session's contribution to the process-wide
        // checkpoint-age gauge (other live sessions keep theirs).
        spacetime_obs::gauge_add(
            spacetime_obs::names::WAL_CHECKPOINT_AGE_TXNS,
            -(self.txns_since_checkpoint as f64),
        );
        self.txns_since_checkpoint = 0;
        Ok(())
    }
}

/// fsync `dir`, making the renames and creations inside it durable. A
/// platform that cannot open a directory cannot fsync one, so that is
/// not an error; a failed fsync is, on Unix.
pub fn sync_dir(dir: &Path) -> WalResult<()> {
    let Ok(d) = std::fs::File::open(dir) else {
        return Ok(());
    };
    match d.sync_all() {
        Err(e) if cfg!(unix) => Err(e.into()),
        _ => Ok(()),
    }
}

/// A unique, freshly-created scratch directory under the system temp
/// dir (the workspace has no tempfile crate). Callers remove it.
pub fn test_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "spacetime_wal_{}_{}_{tag}",
        std::process::id(),
        n
    ));
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}
