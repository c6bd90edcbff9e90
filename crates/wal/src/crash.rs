//! Deterministic crash-site surgery on log files.
//!
//! Each helper mutilates the log file exactly the way a specific crash
//! would: a torn final append, a truncated segment, a corrupted frame,
//! or a missing commit record — the one commit point of a transaction.
//! All cuts land on frame boundaries
//! computed by [`frame_spans`], so a test knows precisely which
//! transactions survive — that's what makes recovery-equals-control
//! assertable bit-for-bit rather than statistically.

use std::fs::OpenOptions;
use std::path::Path;

use crate::log::frame_spans;
use crate::{WalError, WalResult};

/// Crash mid-append: the final frame's payload is cut in half, leaving
/// a frame header that promises more bytes than the file holds.
pub fn torn_tail(path: &Path) -> WalResult<()> {
    let spans = frame_spans(path)?;
    let (start, end) = *spans
        .last()
        .ok_or_else(|| WalError::Corrupt("torn_tail: log has no frames".into()))?;
    let cut = start + (end - start) / 2;
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(cut)?;
    Ok(())
}

/// Crash that loses the tail of the segment: the last `k` complete
/// frames vanish entirely (e.g. OS page writeback stopping short).
/// Returns how many frames were actually removed (≤ `k` on short logs).
pub fn truncate_frames(path: &Path, k: usize) -> WalResult<usize> {
    let spans = frame_spans(path)?;
    let removed = k.min(spans.len());
    let cut = if removed == spans.len() {
        0
    } else {
        spans[spans.len() - removed].0
    };
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(cut)?;
    Ok(removed)
}

/// Media corruption: flip one payload byte in the last complete frame.
/// The file length is unchanged but the CRC no longer matches, so the
/// scan discards the frame (and everything after it).
pub fn corrupt_last_frame(path: &Path) -> WalResult<()> {
    let spans = frame_spans(path)?;
    let (start, _) = *spans
        .last()
        .ok_or_else(|| WalError::Corrupt("corrupt_last_frame: log has no frames".into()))?;
    let mut bytes = std::fs::read(path)?;
    // First payload byte sits after the 8-byte frame header.
    bytes[start as usize + 8] ^= 0xFF;
    std::fs::write(path, &bytes)?;
    Ok(())
}

/// Crash at the commit point: the last complete frame — a log ending in
/// a transaction, that transaction's one commit record — never hit the
/// disk.
pub fn drop_last_frame(path: &Path) -> WalResult<()> {
    let removed = truncate_frames(path, 1)?;
    if removed == 0 {
        return Err(WalError::Corrupt("drop_last_frame: log has no frames".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{scan_log, Record, WalWriter};
    use crate::test_dir;

    fn write_n_commits(path: &Path, n: u64) {
        let mut w = WalWriter::open(path, 0).unwrap();
        for i in 0..n {
            w.append(&Record::TxnBegin {
                txn_id: i,
                global: None,
            })
            .unwrap();
            w.append(&Record::TxnCommit { txn_id: i }).unwrap();
        }
        w.flush().unwrap();
    }

    #[test]
    fn surgery_is_deterministic_at_frame_boundaries() {
        let dir = test_dir("crash_surgery");
        let path = dir.join("wal.log");

        write_n_commits(&path, 3); // 6 frames
        torn_tail(&path).unwrap();
        let scan = scan_log(&path).unwrap();
        assert_eq!(scan.records.len(), 5);
        assert!(scan.torn.is_some());

        write_n_commits(&path, 3);
        assert_eq!(truncate_frames(&path, 2).unwrap(), 2);
        let scan = scan_log(&path).unwrap();
        assert_eq!(scan.records.len(), 4);
        assert!(scan.torn.is_none()); // clean cut, no garbage left

        write_n_commits(&path, 3);
        corrupt_last_frame(&path).unwrap();
        let scan = scan_log(&path).unwrap();
        assert_eq!(scan.records.len(), 5);
        assert!(scan.torn.unwrap().contains("crc mismatch"));

        write_n_commits(&path, 3);
        drop_last_frame(&path).unwrap();
        let scan = scan_log(&path).unwrap();
        assert_eq!(scan.records.len(), 5);
        assert_eq!(scan.records.last().unwrap(), &Record::TxnBegin { txn_id: 2, global: None });

        std::fs::remove_dir_all(&dir).ok();
    }
}
