//! Checkpoint segments: a full catalog snapshot plus enough engine
//! metadata to rebuild every propagation engine deterministically.
//!
//! A checkpoint is streamed to `<name>.tmp`, fsynced, then atomically
//! renamed over the previous checkpoint — a crash mid-write always
//! leaves the prior checkpoint intact, which is what lets a background
//! thread write it. The file is `[magic][crc32(body)][body]`; any
//! mismatch rejects the whole file.
//!
//! Decoding is two-phase because expression trees re-derive their
//! schemas against a live catalog: [`read_checkpoint`] decodes the
//! catalog-independent parts (tables, config, assertions) and keeps the
//! engine section as raw bytes; the caller restores the tables into a
//! [`Catalog`] and then calls [`RawCheckpoint::decode_engines`].

use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

use spacetime_algebra::ExprTree;
use spacetime_obs::metrics as obs;
use spacetime_obs::names;
use spacetime_storage::{fault, Catalog, DataType, Tuple};

use crate::codec::{self, crc32, Crc32, Cur};
use crate::{sync_dir, WalError, WalResult};

const MAGIC: &[u8; 8] = b"STWALCK1";

/// One table's durable state: schema, keys, indexes, page geometry,
/// and rows (in [`spacetime_storage::Bag::sorted`] order).
#[derive(Debug, Clone)]
pub struct TableDump {
    pub name: String,
    pub is_base: bool,
    pub columns: Vec<(Option<String>, String, DataType)>,
    pub keys: Vec<Vec<usize>>,
    pub index_defs: Vec<Vec<usize>>,
    pub relation_tuples_per_page: u64,
    pub stats_tuples_per_page: u64,
    pub rows: Vec<(Tuple, u64)>,
}

/// One engine's rebuild recipe: the original creation trees (replayed
/// through `Memo::insert_tree` + `explore` at recovery, reproducing the
/// memo bit-identically) and the pinned materializations (tree → table
/// name for every view-set group, aux tables included).
#[derive(Debug, Clone)]
pub struct EngineDump {
    pub name: String,
    pub creation: Vec<(String, ExprTree)>,
    pub pins: Vec<(String, ExprTree)>,
}

/// Everything a checkpoint persists. Built by the IVM layer, encoded
/// here.
#[derive(Debug, Clone)]
pub struct CheckpointDoc {
    /// Every txn with id <= this is covered by the snapshot.
    pub last_txn: u64,
    pub propagation_mode: u8,
    pub execution_mode: u8,
    pub tables: Vec<TableDump>,
    pub assertions: Vec<(String, String)>,
    pub engines: Vec<EngineDump>,
}

/// A decoded checkpoint with the engine section still raw (phase two
/// needs the restored catalog; see module docs).
#[derive(Debug)]
pub struct RawCheckpoint {
    pub last_txn: u64,
    pub propagation_mode: u8,
    pub execution_mode: u8,
    pub tables: Vec<TableDump>,
    pub assertions: Vec<(String, String)>,
    engine_bytes: Vec<u8>,
}

/// The checkpoint body on its way to disk: each piece is encoded into a
/// reused scratch buffer, folded into the running CRC and written through
/// the file's buffer, so the body never exists in memory whole.
struct Body {
    file: BufWriter<File>,
    scratch: Vec<u8>,
    crc: Crc32,
    len: u64,
}

impl Body {
    fn put(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> WalResult<()> {
        self.scratch.clear();
        encode(&mut self.scratch);
        self.crc.update(&self.scratch);
        self.len += self.scratch.len() as u64;
        self.file.write_all(&self.scratch)?;
        Ok(())
    }
}

fn put_table(body: &mut Body, t: &TableDump) -> WalResult<()> {
    body.put(|buf| {
        codec::put_str(buf, &t.name);
        codec::put_bool(buf, t.is_base);
        codec::put_u32(buf, t.columns.len() as u32);
        for (q, name, dt) in &t.columns {
            codec::put_opt_str(buf, q.as_deref());
            codec::put_str(buf, name);
            codec::put_datatype(buf, *dt);
        }
        codec::put_u32(buf, t.keys.len() as u32);
        for k in &t.keys {
            codec::put_usize_vec(buf, k);
        }
        codec::put_u32(buf, t.index_defs.len() as u32);
        for d in &t.index_defs {
            codec::put_usize_vec(buf, d);
        }
        codec::put_u64(buf, t.relation_tuples_per_page);
        codec::put_u64(buf, t.stats_tuples_per_page);
        codec::put_u32(buf, t.rows.len() as u32);
    })?;
    for (tuple, n) in &t.rows {
        body.put(|buf| {
            codec::put_tuple(buf, tuple);
            codec::put_u64(buf, *n);
        })?;
    }
    Ok(())
}

fn get_table(cur: &mut Cur) -> WalResult<TableDump> {
    let name = cur.str()?;
    let is_base = cur.bool()?;
    let ncols = cur.u32()? as usize;
    let mut columns = Vec::with_capacity(ncols.min(1 << 12));
    for _ in 0..ncols {
        let q = cur.opt_str()?;
        let cname = cur.str()?;
        let dt = codec::get_datatype(cur)?;
        columns.push((q, cname, dt));
    }
    let nkeys = cur.u32()? as usize;
    let mut keys = Vec::with_capacity(nkeys.min(1 << 12));
    for _ in 0..nkeys {
        keys.push(cur.usize_vec()?);
    }
    let ndefs = cur.u32()? as usize;
    let mut index_defs = Vec::with_capacity(ndefs.min(1 << 12));
    for _ in 0..ndefs {
        index_defs.push(cur.usize_vec()?);
    }
    let relation_tuples_per_page = cur.u64()?;
    let stats_tuples_per_page = cur.u64()?;
    let nrows = cur.u32()? as usize;
    let mut rows = Vec::with_capacity(nrows.min(1 << 16));
    for _ in 0..nrows {
        let t = codec::get_tuple(cur)?;
        let n = cur.u64()?;
        rows.push((t, n));
    }
    Ok(TableDump {
        name,
        is_base,
        columns,
        keys,
        index_defs,
        relation_tuples_per_page,
        stats_tuples_per_page,
        rows,
    })
}

fn put_body(body: &mut Body, doc: &CheckpointDoc) -> WalResult<()> {
    body.put(|buf| {
        codec::put_u64(buf, doc.last_txn);
        codec::put_u8(buf, doc.propagation_mode);
        codec::put_u8(buf, doc.execution_mode);
        codec::put_u32(buf, doc.tables.len() as u32);
    })?;
    for t in &doc.tables {
        put_table(body, t)?;
    }
    body.put(|buf| {
        codec::put_u32(buf, doc.assertions.len() as u32);
        for (name, view) in &doc.assertions {
            codec::put_str(buf, name);
            codec::put_str(buf, view);
        }
        codec::put_u32(buf, doc.engines.len() as u32);
        for e in &doc.engines {
            codec::put_str(buf, &e.name);
            for trees in [&e.creation, &e.pins] {
                codec::put_u32(buf, trees.len() as u32);
                for (name, tree) in trees {
                    codec::put_str(buf, name);
                    codec::put_tree(buf, tree);
                }
            }
        }
    })
}

/// Write `doc` to `path` via tmp-file + fsync + atomic rename, streaming
/// the body behind a CRC placeholder that is filled in before the fsync.
/// Returns the segment size in bytes. The rename is made durable by an
/// fsync of the directory; on Unix its failure is an error, because the
/// caller may delete what the checkpoint supersedes once this returns.
pub fn write_checkpoint(path: &Path, doc: &CheckpointDoc) -> WalResult<u64> {
    let tmp = path.with_extension("tmp");
    let mut file = BufWriter::new(File::create(&tmp)?);
    file.write_all(MAGIC)?;
    file.write_all(&[0; 4])?;
    let mut body = Body {
        file,
        scratch: Vec::new(),
        crc: Crc32::default(),
        len: 0,
    };
    put_body(&mut body, doc)?;
    fault::fire("wal::checkpoint").map_err(WalError::Storage)?;
    let mut file = body.file.into_inner().map_err(|e| e.into_error())?;
    file.seek(SeekFrom::Start(MAGIC.len() as u64))?;
    file.write_all(&body.crc.finish().to_le_bytes())?;
    file.sync_data()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        sync_dir(parent)?;
    }
    obs::counter_add(names::WAL_CHECKPOINTS, 1);
    Ok(MAGIC.len() as u64 + 4 + body.len)
}

/// Read and validate the checkpoint at `path`. `Ok(None)` if the file
/// does not exist (fresh directory); corruption is an error — unlike
/// the log tail, a checkpoint is installed atomically and must never
/// be partially valid.
pub fn read_checkpoint(path: &Path) -> WalResult<Option<RawCheckpoint>> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    if bytes.len() < 12 || &bytes[..8] != MAGIC {
        return Err(WalError::Corrupt("bad checkpoint magic".into()));
    }
    let want_crc = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let body = &bytes[12..];
    if crc32(body) != want_crc {
        return Err(WalError::Corrupt("checkpoint crc mismatch".into()));
    }
    let mut cur = Cur::new(body);
    let last_txn = cur.u64()?;
    let propagation_mode = cur.u8()?;
    let execution_mode = cur.u8()?;
    let ntables = cur.u32()? as usize;
    let mut tables = Vec::with_capacity(ntables.min(1 << 12));
    for _ in 0..ntables {
        tables.push(get_table(&mut cur)?);
    }
    let nasserts = cur.u32()? as usize;
    let mut assertions = Vec::with_capacity(nasserts.min(1 << 12));
    for _ in 0..nasserts {
        let name = cur.str()?;
        let view = cur.str()?;
        assertions.push((name, view));
    }
    let engine_bytes = body[cur.pos()..].to_vec();
    Ok(Some(RawCheckpoint {
        last_txn,
        propagation_mode,
        execution_mode,
        tables,
        assertions,
        engine_bytes,
    }))
}

impl RawCheckpoint {
    /// Phase two: decode the engine dumps against the restored catalog
    /// (every table in [`RawCheckpoint::tables`] must already exist so
    /// scan leaves can re-derive their schemas).
    pub fn decode_engines(&self, catalog: &Catalog) -> WalResult<Vec<EngineDump>> {
        let mut cur = Cur::new(&self.engine_bytes);
        let n = cur.u32()? as usize;
        let mut engines = Vec::with_capacity(n.min(1 << 8));
        for _ in 0..n {
            let name = cur.str()?;
            let ncreate = cur.u32()? as usize;
            let mut creation = Vec::with_capacity(ncreate.min(1 << 8));
            for _ in 0..ncreate {
                let vname = cur.str()?;
                let tree = codec::get_tree(&mut cur, catalog)?;
                creation.push((vname, tree));
            }
            let npins = cur.u32()? as usize;
            let mut pins = Vec::with_capacity(npins.min(1 << 12));
            for _ in 0..npins {
                let tname = cur.str()?;
                let tree = codec::get_tree(&mut cur, catalog)?;
                pins.push((tname, tree));
            }
            engines.push(EngineDump {
                name,
                creation,
                pins,
            });
        }
        if !cur.is_empty() {
            return Err(WalError::Corrupt(format!(
                "{} trailing bytes after engine dumps",
                cur.remaining()
            )));
        }
        Ok(engines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;
    use spacetime_storage::Value;

    fn sample_doc() -> CheckpointDoc {
        CheckpointDoc {
            last_txn: 42,
            propagation_mode: 1,
            execution_mode: 0,
            tables: vec![TableDump {
                name: "Emp".into(),
                is_base: true,
                columns: vec![
                    (Some("Emp".into()), "id".into(), DataType::Int),
                    (Some("Emp".into()), "name".into(), DataType::Str),
                ],
                keys: vec![vec![0]],
                index_defs: vec![vec![0]],
                relation_tuples_per_page: 10,
                stats_tuples_per_page: 10,
                rows: vec![(Tuple::new(vec![Value::Int(1), Value::str("a")]), 1)],
            }],
            assertions: vec![("no_orphans".into(), "__assert_no_orphans".into())],
            engines: Vec::new(),
        }
    }

    /// A document whose body spans many encoder chunks: 6 000 rows of
    /// mixed types in one table, an empty table, two assertions.
    fn large_doc() -> CheckpointDoc {
        let mut doc = sample_doc();
        doc.last_txn = 9_201;
        doc.tables[0].rows = (0..6_000)
            .map(|i| {
                let t = Tuple::new(vec![Value::Int(i), Value::str(format!("emp{i:05}"))]);
                (t, 1 + (i as u64 % 3))
            })
            .collect();
        let mut empty = doc.tables[0].clone();
        empty.name = "Dept".into();
        empty.is_base = false;
        empty.rows.clear();
        doc.tables.push(empty);
        doc.assertions.push(("budget".into(), "SELECT 1".into()));
        doc
    }

    /// The segment's bytes are the format: its length and CRC were
    /// recorded from the one-buffer encoder the streaming one replaced.
    #[test]
    fn segment_bytes_are_pinned() {
        let dir = test_dir("ckpt_pinned");
        let path = dir.join("checkpoint.ckpt");
        let len = write_checkpoint(&path, &large_doc()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!((len, bytes.len() as u64), (204_270, 204_270));
        assert_eq!(crc32(&bytes), 0x3699_b008);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every field of every table dump reads back as it was written: the
    /// index definitions, both page densities and each row's multiplicity
    /// restore the catalog, so none of them may be dropped or swapped.
    #[test]
    fn every_table_field_round_trips() {
        let dir = test_dir("ckpt_table_fields");
        let path = dir.join("checkpoint.ckpt");
        let mut doc = large_doc();
        doc.tables[0].index_defs = vec![vec![1], vec![0, 1]];
        doc.tables[0].relation_tuples_per_page = 7;
        doc.tables[0].stats_tuples_per_page = 9;
        write_checkpoint(&path, &doc).unwrap();
        let raw = read_checkpoint(&path).unwrap().unwrap();
        assert_eq!(format!("{:?}", raw.tables), format!("{:?}", doc.tables));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_round_trips() {
        let dir = test_dir("ckpt_roundtrip");
        let path = dir.join("checkpoint.ckpt");
        write_checkpoint(&path, &sample_doc()).unwrap();
        let raw = read_checkpoint(&path).unwrap().unwrap();
        assert_eq!(raw.last_txn, 42);
        assert_eq!(raw.propagation_mode, 1);
        assert_eq!(raw.tables.len(), 1);
        let t = &raw.tables[0];
        assert_eq!(t.name, "Emp");
        assert!(t.is_base);
        assert_eq!(t.keys, vec![vec![0]]);
        assert_eq!(t.rows.len(), 1);
        assert_eq!(raw.assertions.len(), 1);
        // No engines: phase two decodes an empty list against any catalog.
        let engines = raw.decode_engines(&Catalog::default()).unwrap();
        assert!(engines.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_checkpoint_is_none_and_corrupt_is_error() {
        let dir = test_dir("ckpt_corrupt");
        let path = dir.join("checkpoint.ckpt");
        assert!(read_checkpoint(&path).unwrap().is_none());
        write_checkpoint(&path, &sample_doc()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x55;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_checkpoint(&path), Err(WalError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rewrite_replaces_atomically() {
        let dir = test_dir("ckpt_rewrite");
        let path = dir.join("checkpoint.ckpt");
        write_checkpoint(&path, &sample_doc()).unwrap();
        let mut doc2 = sample_doc();
        doc2.last_txn = 100;
        write_checkpoint(&path, &doc2).unwrap();
        let raw = read_checkpoint(&path).unwrap().unwrap();
        assert_eq!(raw.last_txn, 100);
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
