//! The commit journal keeps the edit, not its result: a WAL commit record
//! holds the update batch and the certificate's chain link, recovery
//! re-derives the certificate and checks the link, and a journal the
//! build cannot read is refused without being touched.

use std::path::{Path, PathBuf};
use xuc_core::parse_constraint;
use xuc_persist::{read_wal, PersistError, WalRecord, WalWriter};
use xuc_service::persist::wal_path;
use xuc_service::{DocId, DurableOptions, Gateway, RecoverError, Request, Verdict};
use xuc_sigstore::Signer;
use xuc_xtree::{DataTree, NodeId, Update};

const KEY: u64 = 0x10C5;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xuc-journal-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// No snapshots, so every commit stays in the log; one fsync per commit.
fn options() -> DurableOptions {
    DurableOptions { group_commit: 1, snapshot_every: None, ..DurableOptions::default() }
}

fn recover(dir: &Path) -> Result<Gateway, RecoverError> {
    Gateway::recover_with(Signer::new(KEY), xuc_service::AdmissionMode::Delta, dir, options())
}

/// `hospital#1` with `patients` patients, each holding two visits; ids
/// run 2, 3, 4, … in preorder. Visits may be relabeled away (the visit
/// range is ↓) but patients never removed.
fn hospital(patients: u64) -> DataTree {
    let mut tree = DataTree::with_root_id(NodeId::from_raw(1), "hospital");
    let mut next = 2;
    for _ in 0..patients {
        let p = NodeId::from_raw(next);
        tree.add_with_id(tree.root_id(), p, "patient").unwrap();
        for k in 1..=2 {
            tree.add_with_id(p, NodeId::from_raw(next + k), "visit").unwrap();
        }
        next += 3;
    }
    tree
}

fn publish(gw: &Gateway, doc: DocId, patients: u64) {
    let suite = vec![
        parse_constraint("(/patient/visit, ↓)").unwrap(),
        parse_constraint("(/patient, ↑)").unwrap(),
    ];
    gw.publish(doc, hospital(patients), suite).unwrap();
}

fn relabel(doc: DocId, node: u64) -> Request {
    Request {
        doc,
        updates: vec![Update::Relabel { node: NodeId::from_raw(node), label: "note".into() }],
    }
}

fn wal_len(dir: &Path) -> u64 {
    std::fs::metadata(wal_path(dir)).unwrap().len()
}

/// A deterministic work count: one accepted 1-relabel commit grows the
/// WAL by the same bytes on a 100-node and a 10k-node document, because
/// the record holds the batch and the chain link, not the signed sets.
#[test]
fn commit_record_size_is_independent_of_document_size() {
    let mut growth = Vec::new();
    for patients in [33, 3_333] {
        let dir = tmp_dir(&format!("size-{patients}"));
        let gw = recover(&dir).unwrap();
        let doc = DocId::new("h");
        publish(&gw, doc, patients);
        assert_eq!(gw.snapshot(doc).unwrap().len() as u64, 1 + 3 * patients);
        let before = wal_len(&dir);
        assert_eq!(gw.submit(&relabel(doc, 3)), Verdict::Accepted { commit: 1 });
        growth.push(wal_len(&dir) - before);
        drop(gw);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(growth[0], growth[1], "record size must not depend on the document");
    // Frame header 12; tag 1; doc "h" 4+1; commit 8; batch count 4;
    // relabel 1+8+4+4 ("note"); chain link 8+8.
    assert_eq!(growth[0], 12 + 1 + 5 + 8 + 4 + 17 + 16);
}

/// Builds a journal of one publish and three commits, then rewrites the
/// last commit's certificate link with `tamper` and re-frames the whole
/// log through [`WalWriter`], so every checksum is valid again.
fn journal_with_tampered_last_commit(
    name: &str,
    tamper: impl Fn(&mut xuc_sigstore::Certificate),
) -> PathBuf {
    let dir = tmp_dir(name);
    {
        let gw = recover(&dir).unwrap();
        let doc = DocId::new("h");
        publish(&gw, doc, 4);
        for (k, node) in [3, 6, 9].into_iter().enumerate() {
            assert_eq!(gw.submit(&relabel(doc, node)), Verdict::Accepted { commit: k as u64 + 1 });
        }
    }
    let path = wal_path(&dir);
    let mut records = read_wal(&path).unwrap().records;
    assert_eq!(records.len(), 4);
    let Some(WalRecord::Commit { commit: 3, cert, .. }) = records.last_mut() else {
        panic!("the last record is commit 3")
    };
    tamper(cert);
    std::fs::remove_file(&path).unwrap();
    let (mut w, _) = WalWriter::open(&path, 1).unwrap();
    for r in &records {
        w.append(r).unwrap();
    }
    drop(w);
    assert_eq!(read_wal(&path).unwrap().records, records, "the forged log scans clean");
    dir
}

#[test]
fn re_framed_log_without_tampering_recovers() {
    let dir = journal_with_tampered_last_commit("control", |_| {});
    let gw = recover(&dir).unwrap();
    assert_eq!(gw.store().document(DocId::new("h")).unwrap().lock().commits(), 3);
    drop(gw);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tampered_chain_tag_diverges() {
    let dir = journal_with_tampered_last_commit("chain-tag", |c| c.chain_tag ^= 1);
    match recover(&dir) {
        Err(RecoverError::Diverged { doc, commit }) => assert_eq!((doc.as_str(), commit), ("h", 3)),
        Err(e) => panic!("expected Diverged, got {e}"),
        Ok(_) => panic!("a forged chain tag recovered"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tampered_prev_digest_diverges() {
    let dir = journal_with_tampered_last_commit("prev-digest", |c| c.prev_digest ^= 1 << 40);
    match recover(&dir) {
        Err(RecoverError::Diverged { doc, commit }) => assert_eq!((doc.as_str(), commit), ("h", 3)),
        Err(e) => panic!("expected Diverged, got {e}"),
        Ok(_) => panic!("a forged predecessor link recovered"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A log in the previous format version is refused with `InvalidData`
/// and left byte-identical, not read as a torn header and wiped.
#[test]
fn older_wal_format_is_refused_not_wiped() {
    let dir = tmp_dir("v1");
    {
        let gw = recover(&dir).unwrap();
        let doc = DocId::new("h");
        publish(&gw, doc, 4);
        assert!(gw.submit(&relabel(doc, 3)).is_accepted());
    }
    let path = wal_path(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[..8].copy_from_slice(b"XUCWAL01");
    std::fs::write(&path, &bytes).unwrap();
    match recover(&dir) {
        Err(RecoverError::Persist(PersistError::Io(e))) => {
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
        }
        Err(e) => panic!("expected an InvalidData IO error, got {e}"),
        Ok(_) => panic!("a v1 journal recovered"),
    }
    assert_eq!(std::fs::read(&path).unwrap(), bytes, "the refused journal is untouched");
    let _ = std::fs::remove_dir_all(&dir);
}
