//! Per-document snapshots: the full admission state of one document in a
//! single checksummed file, installed atomically.
//!
//! A snapshot file is `XUCSNP01` followed by one frame in the WAL's
//! `[u32 len][u64 checksum][payload]` shape, where the payload is a
//! [`DocSnapshot`] in the [`crate::codec`] encoding. Writing goes through
//! a `*.tmp` sibling and an atomic `rename`, so a crash mid-snapshot
//! leaves either the old snapshot or the new one — never a half-written
//! file (a stray `.tmp` is ignored by [`read_snapshots`]). File names are
//! the hex-encoded document name plus `.snap`, so arbitrary document
//! names never fight the filesystem.

use crate::codec::{checksum64, Decoder, Encoder};
use crate::{
    decode_certificate, decode_suite, decode_tree, encode_certificate, encode_suite, encode_tree,
    DecodeError, PersistError,
};
use std::collections::BTreeSet;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use xuc_core::Constraint;
use xuc_sigstore::Certificate;
use xuc_xtree::NodeRef;

const SNAP_MAGIC: &[u8; 8] = b"XUCSNP01";

/// Everything needed to re-open a document without replaying its history:
/// the committed tree, suite, admission baselines, certificate and commit
/// counter as of `commits`.
#[derive(Debug, Clone)]
pub struct DocSnapshot {
    pub doc: String,
    pub commits: u64,
    pub tree: xuc_xtree::DataTree,
    pub suite: Vec<Constraint>,
    /// `suite[i].range`'s evaluation on `tree` — the admission baseline,
    /// persisted so recovery does not re-evaluate the whole document.
    pub base_sets: Vec<BTreeSet<NodeRef>>,
    pub cert: Certificate,
}

impl DocSnapshot {
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.str(&self.doc);
        e.u64(self.commits);
        encode_tree(&mut e, &self.tree);
        encode_suite(&mut e, &self.suite);
        e.u32(u32::try_from(self.base_sets.len()).expect("baseline count fits u32"));
        for set in &self.base_sets {
            crate::encode_node_set(&mut e, set);
        }
        encode_certificate(&mut e, &self.cert);
        e.into_bytes()
    }

    pub fn decode(payload: &[u8]) -> Result<DocSnapshot, DecodeError> {
        let mut d = Decoder::new(payload);
        let doc = d.str()?.to_owned();
        let commits = d.u64()?;
        let tree = decode_tree(&mut d)?;
        let suite = decode_suite(&mut d)?;
        let n = d.count(crate::codec::MIN_NODE_SET)?;
        let base_sets =
            (0..n).map(|_| crate::decode_node_set(&mut d)).collect::<Result<Vec<_>, _>>()?;
        let cert = decode_certificate(&mut d)?;
        d.finish()?;
        Ok(DocSnapshot { doc, commits, tree, suite, base_sets, cert })
    }
}

/// The snapshot file for document `doc` under `dir` (hex-encoded name).
pub fn snapshot_path(dir: &Path, doc: &str) -> PathBuf {
    let mut name = String::with_capacity(doc.len() * 2 + 5);
    for b in doc.as_bytes() {
        name.push_str(&format!("{b:02x}"));
    }
    name.push_str(".snap");
    dir.join(name)
}

/// Writes `snap` atomically: encode + checksum into `<path>.tmp`, fsync,
/// rename over the final path. Replaces any previous snapshot of the
/// document.
pub fn write_snapshot(dir: &Path, snap: &DocSnapshot) -> io::Result<()> {
    let payload = snap.encode();
    let mut bytes = Vec::with_capacity(SNAP_MAGIC.len() + 12 + payload.len());
    bytes.extend_from_slice(SNAP_MAGIC);
    bytes.extend_from_slice(&u32::try_from(payload.len()).expect("payload fits u32").to_le_bytes());
    bytes.extend_from_slice(&checksum64(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    let path = snapshot_path(dir, &snap.doc);
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, &path)?;
    crate::stats::bump(&crate::stats::SNAPSHOT_INSTALLS, 1);
    Ok(())
}

/// Reads one snapshot file, validating magic, length and checksum.
pub fn read_snapshot(path: &Path) -> Result<DocSnapshot, PersistError> {
    let bytes = std::fs::read(path)?;
    let header = SNAP_MAGIC.len() + 12;
    if bytes.len() < header || &bytes[..SNAP_MAGIC.len()] != SNAP_MAGIC {
        return Err(PersistError::Decode(DecodeError::Truncated));
    }
    let len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    let sum = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let payload =
        bytes.get(header..header + len).ok_or(PersistError::Decode(DecodeError::Truncated))?;
    if bytes.len() != header + len {
        return Err(PersistError::Decode(DecodeError::TrailingBytes));
    }
    if checksum64(payload) != sum {
        return Err(PersistError::Decode(DecodeError::Checksum));
    }
    Ok(DocSnapshot::decode(payload)?)
}

/// All `*.snap` files under `dir`, sorted by document name (deterministic
/// recovery order). A missing directory holds no snapshots; stray `.tmp`
/// files (a crash mid-snapshot) are ignored.
pub fn read_snapshots(dir: &Path) -> Result<Vec<DocSnapshot>, PersistError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(PersistError::Io(e)),
    };
    let mut snaps = Vec::new();
    for entry in entries {
        let path = entry.map_err(PersistError::Io)?.path();
        if path.extension().and_then(|e| e.to_str()) == Some("snap") {
            snaps.push(read_snapshot(&path)?);
        }
    }
    snaps.sort_by(|a, b| a.doc.cmp(&b.doc));
    Ok(snaps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xuc_core::parse_constraint;
    use xuc_sigstore::Signer;
    use xuc_xtree::parse_term;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xuc-snap-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample(doc: &str) -> DocSnapshot {
        let tree = parse_term("h(patient#2(visit#3,visit#4))").unwrap();
        let suite = vec![parse_constraint("(/patient/visit, ↑)").unwrap()];
        let mut ev = xuc_xpath::Evaluator::new(&tree);
        let base_sets: Vec<_> = suite.iter().map(|c| ev.eval(&c.range)).collect();
        let cert = Signer::new(3).certify_precomputed(&suite, &base_sets);
        DocSnapshot { doc: doc.into(), commits: 4, tree, suite, base_sets, cert }
    }

    #[test]
    fn write_read_round_trip() {
        let dir = tmp_dir("rt");
        let snap = sample("mercy-west");
        write_snapshot(&dir, &snap).unwrap();
        let back = read_snapshots(&dir).unwrap();
        assert_eq!(back.len(), 1);
        let b = &back[0];
        assert_eq!(b.doc, snap.doc);
        assert_eq!(b.commits, snap.commits);
        assert_eq!(b.tree.preorder_snapshot(), snap.tree.preorder_snapshot());
        assert_eq!(b.suite, snap.suite);
        assert_eq!(b.base_sets, snap.base_sets);
        assert_eq!(b.cert, snap.cert);
    }

    #[test]
    fn rewrite_replaces_and_tmp_ignored() {
        let dir = tmp_dir("replace");
        let mut snap = sample("doc");
        write_snapshot(&dir, &snap).unwrap();
        snap.commits = 9;
        write_snapshot(&dir, &snap).unwrap();
        // A crash can abandon a .tmp file; it must not confuse recovery.
        std::fs::write(dir.join("deadbeef.tmp"), b"half-written").unwrap();
        let back = read_snapshots(&dir).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].commits, 9);
    }

    #[test]
    fn corrupted_snapshot_is_rejected() {
        let dir = tmp_dir("corrupt");
        let snap = sample("doc");
        write_snapshot(&dir, &snap).unwrap();
        let path = snapshot_path(&dir, "doc");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshots(&dir),
            Err(PersistError::Decode(DecodeError::Checksum)) | Err(PersistError::Decode(_))
        ));
    }

    #[test]
    fn missing_dir_is_empty() {
        let dir = std::env::temp_dir().join("xuc-snap-definitely-missing");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(read_snapshots(&dir).unwrap().is_empty());
    }

    #[test]
    fn names_are_hex_encoded() {
        let p = snapshot_path(Path::new("/d"), "a/b");
        assert_eq!(p, PathBuf::from("/d/612f62.snap"));
    }
}
