//! Property tests for the persistence codec: `encode ∘ decode = id` over
//! random trees, update batches, certificates, WAL records and document
//! snapshots — and decode-rejects-corruption (a flipped bit anywhere in a
//! WAL file's frame region never produces a wrong record: the scan yields
//! an exact prefix of what was written).

use proptest::prelude::*;
use std::collections::BTreeSet;
use xuc_core::{parse_constraint, Constraint};
use xuc_persist::{
    decode_tree, encode_tree, read_wal, Decoder, DocSnapshot, Encoder, WalRecord, WalWriter,
};
use xuc_sigstore::{Certificate, Signer};
use xuc_xtree::{DataTree, Label, NodeId, NodeRef, Update};

const LABELS: &[&str] = &["a", "b", "visit", "patient", "note"];

const CONSTRAINTS: &[&str] = &[
    "(/patient/visit, ↑)",
    "(//visit, ↑)",
    "(/patient, ↓)",
    "(/patient[/visit], ↓)",
    "(//note, ↓)",
];

/// A random tree over a small alphabet: node `i ≥ 1` hangs under a random
/// earlier node, ids are explicit (`100 + i`) so round-trips are exact.
fn tree_strategy(max_nodes: usize) -> impl Strategy<Value = DataTree> {
    (1..max_nodes).prop_flat_map(|n| {
        let parents: Vec<BoxedStrategy<usize>> = (1..n).map(|i| (0..i).boxed()).collect();
        let labels = proptest::collection::vec(0..LABELS.len(), n);
        (parents, labels).prop_map(|(parents, labels)| {
            let mut tree = DataTree::with_root_id(NodeId::from_raw(100), LABELS[labels[0]]);
            let mut ids = vec![tree.root_id()];
            for (i, p) in parents.iter().enumerate() {
                let id = NodeId::from_raw(101 + i as u64);
                tree.add_with_id(ids[*p], id, LABELS[labels[i + 1]]).unwrap();
                ids.push(id);
            }
            tree
        })
    })
}

fn update_strategy() -> impl Strategy<Value = Update> {
    (0..6usize, 0..40usize, 0..40usize, 0..LABELS.len()).prop_map(|(tag, a, b, l)| {
        let n = NodeId::from_raw(200 + a as u64);
        let m = NodeId::from_raw(200 + b as u64);
        let label = Label::new(LABELS[l]);
        match tag {
            0 => Update::InsertLeaf { parent: n, id: m, label },
            1 => Update::DeleteSubtree { node: n },
            2 => Update::DeleteNode { node: n },
            3 => Update::Move { node: n, new_parent: m },
            4 => Update::Relabel { node: n, label },
            _ => Update::ReplaceId { node: n, new_id: m },
        }
    })
}

fn node_set_strategy() -> impl Strategy<Value = BTreeSet<NodeRef>> {
    proptest::collection::vec((0..60usize, 0..LABELS.len()), 0..12).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(id, l)| NodeRef {
                id: NodeId::from_raw(id as u64),
                label: Label::new(LABELS[l]),
            })
            .collect()
    })
}

/// A random but *authentic* chained certificate: real MACs under a random
/// key, random predecessor digest.
fn certificate_strategy() -> impl Strategy<Value = Certificate> {
    (
        proptest::collection::vec((0..CONSTRAINTS.len(), node_set_strategy()), 0..4),
        0..usize::MAX,
        0..usize::MAX,
    )
        .prop_map(|(ranges, key, prev)| {
            let (suite, sets): (Vec<Constraint>, Vec<BTreeSet<NodeRef>>) = ranges
                .into_iter()
                .map(|(c, set)| (parse_constraint(CONSTRAINTS[c]).unwrap(), set))
                .unzip();
            Signer::new(key as u64).certify_chained(&suite, &sets, prev as u64)
        })
}

fn record_strategy() -> BoxedStrategy<WalRecord> {
    let publish = (tree_strategy(12), proptest::collection::vec(0..CONSTRAINTS.len(), 0..4))
        .prop_map(|(tree, cs)| WalRecord::Publish {
            doc: "prop-doc".into(),
            tree,
            suite: cs.iter().map(|&c| parse_constraint(CONSTRAINTS[c]).unwrap()).collect(),
        })
        .boxed();
    let commit =
        (0..1000usize, proptest::collection::vec(update_strategy(), 0..6), certificate_strategy())
            .prop_map(|(commit, updates, cert)| WalRecord::Commit {
                doc: "prop-doc".into(),
                commit: commit as u64,
                updates,
                cert,
            })
            .boxed();
    Union::new(vec![publish, commit]).boxed()
}

fn assert_snap_eq(a: &DocSnapshot, b: &DocSnapshot) {
    assert_eq!(a.doc, b.doc);
    assert_eq!(a.commits, b.commits);
    assert_eq!(a.tree.preorder_snapshot(), b.tree.preorder_snapshot());
    assert_eq!(a.suite, b.suite);
    assert_eq!(a.base_sets, b.base_sets);
    assert_eq!(a.cert, b.cert);
}

proptest! {
    /// encode ∘ decode = id on WAL records, up to what a record keeps:
    /// trees exact to sibling order, and a commit's certificate as its
    /// chain link (`WalRecord`'s equality compares exactly that). The
    /// decoded certificate carries no entries.
    #[test]
    fn wal_record_round_trip(rec in record_strategy()) {
        let payload = rec.encode();
        let back = WalRecord::decode(&payload).unwrap();
        prop_assert!(back == rec, "decode(encode(r)) != r");
        if let WalRecord::Commit { cert, .. } = &back {
            prop_assert!(cert.entries.is_empty(), "a decoded commit is link-only");
        }
    }

    /// encode ∘ decode = id on document snapshots.
    #[test]
    fn snapshot_round_trip(
        tree in tree_strategy(12),
        sets in proptest::collection::vec(node_set_strategy(), 0..3),
        commits_seed in 0..10_000usize,
    ) {
        let commits = commits_seed as u64;
        let suite: Vec<Constraint> = CONSTRAINTS
            .iter()
            .take(sets.len())
            .map(|s| parse_constraint(s).unwrap())
            .collect();
        let sets = sets[..suite.len()].to_vec();
        let cert = Signer::new(0x5eed).certify_chained(&suite, &sets, commits);
        let snap = DocSnapshot {
            doc: "prop-doc".into(),
            commits,
            tree,
            suite,
            base_sets: sets,
            cert,
        };
        let back = DocSnapshot::decode(&snap.encode()).unwrap();
        assert_snap_eq(&snap, &back);
    }

    /// encode ∘ decode = id on trees whose arena carries free-listed
    /// holes: random subtree deletions punch slots onto the free list and
    /// interleaved re-insertions recycle some of them, so the encoded
    /// pre-order walk skips parked/free slots. The decoded tree must
    /// reproduce ids, labels and sibling order exactly (and comes back
    /// compacted: capacity == live).
    #[test]
    fn tree_with_free_listed_holes_round_trips(
        tree in tree_strategy(24),
        edits in proptest::collection::vec((0..24usize, 0..24usize, any::<bool>()), 1..10),
    ) {
        let mut churned = tree;
        for (i, (pick, parent_pick, delete)) in edits.iter().enumerate() {
            let ids = churned.node_ids();
            if *delete && ids.len() > 1 {
                let target = ids[1 + pick % (ids.len() - 1)];
                churned.delete_subtree(target).unwrap();
            } else {
                let parent = ids[parent_pick % ids.len()];
                let fresh = NodeId::from_raw(5_000 + i as u64);
                churned.add_with_id(parent, fresh, Label::new(LABELS[i % LABELS.len()])).unwrap();
            }
        }
        let mut e = Encoder::new();
        encode_tree(&mut e, &churned);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let back = decode_tree(&mut d).unwrap();
        prop_assert_eq!(back.preorder_snapshot(), churned.preorder_snapshot());
        prop_assert_eq!(back.render(), churned.render());
        prop_assert_eq!(back.len(), churned.len());
        // The decode rebuilds in pre-order over live nodes only, so the
        // round-tripped arena is dense again.
        prop_assert_eq!(back.slot_capacity(), back.len());
    }

    /// Any single-bit flip in a record's payload is rejected — either the
    /// decode fails structurally, or (for the framing layer) the checksum
    /// changes, so a framed reader can never accept the mangled payload as
    /// the original.
    #[test]
    fn bit_flip_never_round_trips(rec in record_strategy(), pos_seed in 0..usize::MAX, bit in 0..8usize) {
        let payload = rec.encode();
        let mut mangled = payload.clone();
        let pos = pos_seed % payload.len();
        mangled[pos] ^= 1 << bit;
        prop_assert!(
            xuc_persist::checksum64(&mangled) != xuc_persist::checksum64(&payload),
            "checksum must distinguish a flipped bit"
        );
        if let Ok(back) = WalRecord::decode(&mangled) {
            // Structurally decodable mangles exist (e.g. a flipped id
            // bit); they must decode to a *different* record — the frame
            // checksum is what rejects them on disk.
            prop_assert!(back != rec, "mangled payload decoded to the original record");
        }
    }
}

/// Flipping any byte of a WAL file's frame region yields an exact prefix
/// of the written records — never a wrong record, never a crash.
#[test]
fn wal_file_corruption_yields_only_prefixes() {
    let dir = std::env::temp_dir().join(format!("xuc-prop-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal.log");

    let mut rng = proptest::test_runner::TestRng::deterministic("wal-corruption");
    let strategy = record_strategy();
    let records: Vec<WalRecord> = (0..4).map(|_| strategy.generate(&mut rng)).collect();
    {
        let (mut w, _) = WalWriter::open(&path, 1).unwrap();
        for r in &records {
            w.append(r).unwrap();
        }
    }
    let clean = std::fs::read(&path).unwrap();
    let reference = read_wal(&path).unwrap();
    assert_eq!(reference.records, records);

    // Flip one byte at a spread of positions after the magic header.
    for step in 0..64 {
        let pos = 8 + (clean.len() - 9) * step / 63;
        let mut bytes = clean.clone();
        bytes[pos] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let scan = read_wal(&path).unwrap();
        assert!(scan.records.len() <= records.len(), "corruption at byte {pos} grew the log");
        for (a, b) in scan.records.iter().zip(&records) {
            assert!(a == b, "corruption at byte {pos} produced a wrong record");
        }
        assert!(scan.torn || scan.records.len() == records.len());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The codec's primitive layer refuses trailing garbage.
#[test]
fn trailing_bytes_rejected() {
    let mut e = Encoder::new();
    e.u64(7);
    let mut bytes = e.into_bytes();
    bytes.push(0);
    let mut d = Decoder::new(&bytes);
    assert_eq!(d.u64().unwrap(), 7);
    assert!(d.finish().is_err());
}
