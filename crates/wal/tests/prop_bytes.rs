//! No panic reachable from bytes on disk. Arbitrary bytes, arbitrary
//! payloads behind valid frames, and a real log or checkpoint with random
//! truncations and bit flips go into `scan_log` and `read_checkpoint`:
//! neither may panic, and `scan_log` must return a frame prefix of what
//! it was given.

use std::path::Path;

use proptest::prelude::*;
use spacetime_delta::Delta;
use spacetime_storage::{Tuple, Value};
use spacetime_wal::codec::{crc32, put_u32};
use spacetime_wal::{read_checkpoint, scan_log, test_dir, write_checkpoint, CheckpointDoc};
use spacetime_wal::{Record, WalWriter};

/// Scan `bytes` as a log, checking the scan is a frame prefix: the valid
/// length and the discarded bytes make up the file, and the valid prefix
/// alone scans to the same records with nothing torn.
fn scan_prefix(path: &Path, bytes: &[u8]) -> Vec<Record> {
    std::fs::write(path, bytes).unwrap();
    let scan = scan_log(path).unwrap();
    assert_eq!(scan.valid_len + scan.discarded_bytes, bytes.len() as u64);
    std::fs::write(path, &bytes[..scan.valid_len as usize]).unwrap();
    let again = scan_log(path).unwrap();
    assert_eq!((&again.records, again.torn), (&scan.records, None));
    scan.records
}

/// `bytes` cut at `cut` (modulo its length + 1), then each `(at, mask)`
/// byte flip applied.
fn mutilate(mut bytes: Vec<u8>, cut: u64, flips: &[(u64, u8)]) -> Vec<u8> {
    bytes.truncate((cut % (bytes.len() as u64 + 1)) as usize);
    for &(at, mask) in flips {
        let n = bytes.len() as u64;
        if n > 0 {
            bytes[(at % n) as usize] ^= mask;
        }
    }
    bytes
}

/// A crc-framed record: `[len][crc32][payload]`, as `WalWriter` writes it.
fn framed(payload: Vec<u8>) -> Vec<u8> {
    let mut f = Vec::new();
    put_u32(&mut f, payload.len() as u32);
    put_u32(&mut f, crc32(&payload));
    [f, payload].concat()
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let dir = test_dir("prop_bytes_arbitrary");
        scan_prefix(&dir.join("log"), &bytes);
        // Behind the magic and a valid CRC, the body decoder sees them too.
        let mut ckpt = b"STWALCK1".to_vec();
        put_u32(&mut ckpt, crc32(&bytes));
        for b in [&bytes, &[ckpt, bytes.clone()].concat()] {
            std::fs::write(dir.join("ckpt"), b).unwrap();
            let _ = read_checkpoint(&dir.join("ckpt"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn arbitrary_payloads_in_valid_frames_never_panic(
        payloads in prop::collection::vec((0u8..6, prop::collection::vec(any::<u8>(), 0..40)), 0..6)
    ) {
        let dir = test_dir("prop_bytes_frames");
        let frames = payloads.iter().flat_map(|(k, t)| framed([&[*k], &t[..]].concat()));
        let bytes: Vec<u8> = frames.collect();
        prop_assert!(scan_prefix(&dir.join("log"), &bytes).len() <= payloads.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_mutilated_log_scans_to_a_record_prefix(
        cut in any::<u64>(),
        flips in prop::collection::vec((any::<u64>(), 1u8..=255), 0..3)
    ) {
        let dir = test_dir("prop_bytes_log");
        let path = dir.join("log");
        let delta = Delta::insert(Tuple::new(vec![Value::Int(1), Value::str("x")]), 2);
        let recs = [
            Record::TxnBegin { txn_id: 1, global: None },
            Record::Delta { txn_id: 1, table: "Emp".into(), delta },
            Record::TxnCommit { txn_id: 1 },
            Record::Checkpoint { last_txn: 1 },
        ];
        let mut w = WalWriter::open(&path, 0).unwrap();
        recs.iter().for_each(|r| assert!(w.append(r).is_ok()));
        w.flush().unwrap();
        let scanned = scan_prefix(&path, &mutilate(std::fs::read(&path).unwrap(), cut, &flips));
        prop_assert!(recs.starts_with(&scanned), "{scanned:?} is not a prefix of the log");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_mutilated_checkpoint_is_an_error_not_a_panic(
        cut in any::<u64>(),
        flips in prop::collection::vec((any::<u64>(), 1u8..=255), 0..3)
    ) {
        let dir = test_dir("prop_bytes_ckpt");
        let path = dir.join("checkpoint.ckpt");
        let doc = CheckpointDoc {
            last_txn: 3,
            propagation_mode: 2,
            execution_mode: 0,
            tables: Vec::new(),
            assertions: vec![("a".into(), "v".into())],
            engines: Vec::new(),
        };
        write_checkpoint(&path, &doc).unwrap();
        let good = std::fs::read(&path).unwrap();
        let bytes = mutilate(good.clone(), cut, &flips);
        std::fs::write(&path, &bytes).unwrap();
        prop_assert_eq!(read_checkpoint(&path).is_ok(), bytes == good);
        std::fs::remove_dir_all(&dir).ok();
    }
}
