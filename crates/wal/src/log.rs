//! Framed append-only log files.
//!
//! Every record is one frame: `[len: u32][crc32(payload): u32][payload]`
//! with `payload = [kind: u8][fields...]`. A reader accepts the longest
//! valid prefix and stops at the first frame whose length runs past the
//! end of the file or whose CRC disagrees — everything after that point
//! is a torn or corrupted crash suffix and is discarded (and truncated
//! away before the log is appended to again).

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use spacetime_delta::Delta;
use spacetime_obs::flight;
use spacetime_obs::metrics as obs;
use spacetime_obs::names;
use spacetime_storage::fault;

use crate::codec::{self, crc32, Cur};
use crate::{SyncPolicy, WalError, WalResult};

/// Maximum sane frame payload (64 MiB); larger lengths are treated as
/// corruption rather than honored as allocations.
const MAX_FRAME: u32 = 64 << 20;

/// The `kind="…"` metrics label for a record (the
/// `spacetime_wal_records_total` labeled counter; its per-kind series sum
/// to `spacetime_wal_appends_total`).
fn record_kind_label(rec: &Record) -> &'static str {
    match rec {
        Record::TxnBegin { .. } => names::LABEL_WAL_BEGIN,
        Record::Delta { .. } => names::LABEL_WAL_DELTA,
        Record::TxnCommit { .. } => names::LABEL_WAL_COMMIT,
        Record::Checkpoint { .. } => names::LABEL_WAL_CHECKPOINT,
    }
}

/// One durable log record. Kind 4 belonged to the deleted two-phase
/// commit's prepared vote and now decodes as corruption.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A transaction starts. The product always writes `global: None`;
    /// the field stays only because the frozen benchmark harness
    /// constructs this record.
    TxnBegin { txn_id: u64, global: Option<u64> },
    /// One relation's delta within the surrounding transaction.
    Delta {
        txn_id: u64,
        table: String,
        delta: Delta,
    },
    /// The transaction's durable commit point.
    TxnCommit { txn_id: u64 },
    /// The log was sealed here for a checkpoint covering every txn up to
    /// and including `last_txn`: it opens the fresh log, and the frames
    /// before it went to the sealed segment that checkpoint supersedes.
    Checkpoint { last_txn: u64 },
}

impl Record {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Record::TxnBegin { txn_id, global } => {
                codec::put_u8(&mut buf, 1);
                codec::put_u64(&mut buf, *txn_id);
                match global {
                    None => codec::put_u8(&mut buf, 0),
                    Some(g) => {
                        codec::put_u8(&mut buf, 1);
                        codec::put_u64(&mut buf, *g);
                    }
                }
            }
            Record::Delta {
                txn_id,
                table,
                delta,
            } => {
                codec::put_u8(&mut buf, 2);
                codec::put_u64(&mut buf, *txn_id);
                codec::put_str(&mut buf, table);
                codec::put_delta(&mut buf, delta);
            }
            Record::TxnCommit { txn_id } => {
                codec::put_u8(&mut buf, 3);
                codec::put_u64(&mut buf, *txn_id);
            }
            Record::Checkpoint { last_txn } => {
                codec::put_u8(&mut buf, 5);
                codec::put_u64(&mut buf, *last_txn);
            }
        }
        buf
    }

    fn decode(payload: &[u8]) -> WalResult<Record> {
        let mut cur = Cur::new(payload);
        let rec = match cur.u8()? {
            1 => {
                let txn_id = cur.u64()?;
                let global = match cur.u8()? {
                    0 => None,
                    1 => Some(cur.u64()?),
                    b => return Err(WalError::Corrupt(format!("invalid option byte {b}"))),
                };
                Record::TxnBegin { txn_id, global }
            }
            2 => {
                let txn_id = cur.u64()?;
                let table = cur.str()?;
                let delta = codec::get_delta(&mut cur)?;
                Record::Delta {
                    txn_id,
                    table,
                    delta,
                }
            }
            3 => Record::TxnCommit { txn_id: cur.u64()? },
            5 => Record::Checkpoint { last_txn: cur.u64()? },
            t => return Err(WalError::Corrupt(format!("invalid record kind {t}"))),
        };
        if !cur.is_empty() {
            return Err(WalError::Corrupt(format!(
                "{} trailing bytes after record",
                cur.remaining()
            )));
        }
        Ok(rec)
    }
}

/// Append handle over one log file.
#[derive(Debug)]
pub struct WalWriter {
    file: BufWriter<File>,
    path: PathBuf,
    /// Bytes of valid frames on disk (including buffered, unflushed ones).
    len: u64,
}

impl WalWriter {
    /// Open `path` for appending, truncating it to `valid_len` first so
    /// a torn crash suffix can never sit between old and new frames.
    pub fn open(path: &Path, valid_len: u64) -> WalResult<Self> {
        // Not `truncate(true)`: the valid-prefix truncation is the
        // explicit `set_len` below.
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .read(true)
            .open(path)?;
        file.set_len(valid_len)?;
        let mut file = file;
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(WalWriter {
            file: BufWriter::new(file),
            path: path.to_path_buf(),
            len: valid_len,
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total bytes appended (valid prefix at open + frames since).
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one record frame (buffered; see [`WalWriter::flush`] /
    /// [`WalWriter::sync`] for the durability point). Returns the frame
    /// size in bytes.
    pub fn append(&mut self, rec: &Record) -> WalResult<u64> {
        fault::fire("wal::append").map_err(WalError::Storage)?;
        let payload = rec.encode();
        let mut frame = Vec::with_capacity(payload.len() + 8);
        codec::put_u32(&mut frame, payload.len() as u32);
        codec::put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame)?;
        self.len += frame.len() as u64;
        obs::counter_add(names::WAL_APPENDS, 1);
        obs::counter_add(names::WAL_BYTES, frame.len() as u64);
        obs::counter_add_labeled(names::WAL_RECORDS, record_kind_label(rec), 1);
        Ok(frame.len() as u64)
    }

    /// Push buffered frames to the OS. Survives process death (e.g.
    /// `kill -9`) but not power loss.
    pub fn flush(&mut self) -> WalResult<()> {
        self.file.flush()?;
        Ok(())
    }

    /// Flush and fsync: survives power loss.
    pub fn sync(&mut self) -> WalResult<()> {
        self.file.flush()?;
        self.file.get_ref().sync_data()?;
        obs::counter_add(names::WAL_FSYNCS, 1);
        flight::record("wal_fsync", || format!("{} bytes on log", self.len));
        Ok(())
    }

    /// Make buffered frames durable according to `policy`.
    pub fn commit_durable(&mut self, policy: SyncPolicy) -> WalResult<()> {
        match policy {
            SyncPolicy::Flush => self.flush(),
            SyncPolicy::Always => self.sync(),
        }
    }
}

/// Result of scanning a log file: the decoded valid prefix plus how
/// much trailing garbage (torn frame, bad CRC) was discarded.
#[derive(Debug, Default)]
pub struct LogScan {
    pub records: Vec<Record>,
    /// Byte length of the valid prefix ([`WalWriter::open`] truncates here).
    pub valid_len: u64,
    /// Bytes past the valid prefix that were discarded.
    pub discarded_bytes: u64,
    /// Why the scan stopped early, if it did.
    pub torn: Option<String>,
}

/// Scan `path`, accepting the longest valid frame prefix. A missing
/// file reads as an empty log.
pub fn scan_log(path: &Path) -> WalResult<LogScan> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    let mut out = LogScan::default();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let stop = |why: String, out: &mut LogScan| {
            out.torn = Some(why);
        };
        if bytes.len() - pos < 8 {
            stop(format!("torn frame header at {pos}"), &mut out);
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_FRAME {
            stop(format!("implausible frame length {len} at {pos}"), &mut out);
            break;
        }
        let body_start = pos + 8;
        let body_end = body_start + len as usize;
        if body_end > bytes.len() {
            stop(format!("torn frame payload at {pos}"), &mut out);
            break;
        }
        let payload = &bytes[body_start..body_end];
        if crc32(payload) != crc {
            stop(format!("crc mismatch at {pos}"), &mut out);
            break;
        }
        match Record::decode(payload) {
            Ok(rec) => out.records.push(rec),
            Err(e) => {
                stop(format!("undecodable record at {pos}: {e}"), &mut out);
                break;
            }
        }
        pos = body_end;
    }
    out.valid_len = pos as u64;
    out.discarded_bytes = (bytes.len() - pos) as u64;
    Ok(out)
}

/// Byte ranges `[start, end)` of every complete, CRC-valid frame in
/// `path`, in file order. Used by the crash-surgery helpers to cut the
/// file at deterministic frame boundaries.
pub fn frame_spans(path: &Path) -> WalResult<Vec<(u64, u64)>> {
    let bytes = std::fs::read(path)?;
    let mut spans = Vec::new();
    let mut pos = 0usize;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_FRAME {
            break;
        }
        let body_end = pos + 8 + len as usize;
        if body_end > bytes.len() {
            break;
        }
        if crc32(&bytes[pos + 8..body_end]) != crc {
            break;
        }
        spans.push((pos as u64, body_end as u64));
        pos = body_end;
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;
    use spacetime_storage::{Tuple, Value};

    fn sample_records() -> Vec<Record> {
        let mut d = Delta::default();
        d.inserts.insert(Tuple::new(vec![Value::Int(1), Value::str("x")]), 1);
        vec![
            Record::TxnBegin {
                txn_id: 1,
                global: None,
            },
            Record::Delta {
                txn_id: 1,
                table: "Emp".into(),
                delta: d,
            },
            Record::TxnCommit { txn_id: 1 },
            Record::TxnBegin {
                txn_id: 2,
                global: Some(7),
            },
            Record::Checkpoint { last_txn: 2 },
        ]
    }

    #[test]
    fn append_scan_round_trip() {
        let dir = test_dir("log_roundtrip");
        let path = dir.join("wal.log");
        let recs = sample_records();
        let mut w = WalWriter::open(&path, 0).unwrap();
        for r in &recs {
            w.append(r).unwrap();
        }
        w.flush().unwrap();
        let scan = scan_log(&path).unwrap();
        assert_eq!(scan.records, recs);
        assert_eq!(scan.valid_len, w.len());
        assert_eq!(scan.discarded_bytes, 0);
        assert!(scan.torn.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_discarded_and_truncated_on_reopen() {
        let dir = test_dir("log_torn");
        let path = dir.join("wal.log");
        let recs = sample_records();
        let mut w = WalWriter::open(&path, 0).unwrap();
        for r in &recs {
            w.append(r).unwrap();
        }
        w.flush().unwrap();
        drop(w);
        // Tear the final frame in half.
        let spans = frame_spans(&path).unwrap();
        let (last_start, last_end) = *spans.last().unwrap();
        let cut = last_start + (last_end - last_start) / 2;
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        let scan = scan_log(&path).unwrap();
        assert_eq!(scan.records, recs[..recs.len() - 1]);
        assert_eq!(scan.valid_len, last_start);
        assert!(scan.torn.is_some());
        assert_eq!(scan.discarded_bytes, cut - last_start);

        // Reopen at the valid prefix and append again: the log must be
        // clean (no garbage between old and new frames).
        let mut w = WalWriter::open(&path, scan.valid_len).unwrap();
        w.append(&Record::TxnCommit { txn_id: 99 }).unwrap();
        w.flush().unwrap();
        let scan2 = scan_log(&path).unwrap();
        assert!(scan2.torn.is_none());
        assert_eq!(scan2.records.len(), recs.len());
        assert_eq!(
            scan2.records.last().unwrap(),
            &Record::TxnCommit { txn_id: 99 }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_crc_stops_the_scan() {
        let dir = test_dir("log_crc");
        let path = dir.join("wal.log");
        let recs = sample_records();
        let mut w = WalWriter::open(&path, 0).unwrap();
        for r in &recs {
            w.append(r).unwrap();
        }
        w.flush().unwrap();
        drop(w);
        let spans = frame_spans(&path).unwrap();
        let (start, _) = spans[2];
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[start as usize + 8] ^= 0xFF; // flip a payload byte
        std::fs::write(&path, &bytes).unwrap();

        let scan = scan_log(&path).unwrap();
        assert_eq!(scan.records, recs[..2]);
        assert_eq!(scan.valid_len, start);
        assert!(scan.torn.unwrap().contains("crc mismatch"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_reads_as_empty() {
        let dir = test_dir("log_missing");
        let scan = scan_log(&dir.join("nope.log")).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
