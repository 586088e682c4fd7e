//! Auditing the past: instance-based implication as forensic reasoning —
//! and, when a journal exists, offline verification of the *whole* update
//! history.
//!
//! Part 1: a curator receives a product catalog that was governed by
//! update constraints but has no update log. Which integrity facts about
//! the *original* catalog can be deduced from the current one?
//!
//! Part 2: the same catalog served by a **durable** gateway. Afterwards
//! an auditor — with the verification key and the gateway's durability
//! directory, but *no gateway* — replays the journal and re-derives every
//! intermediate state and its certificate. The journal keeps only each
//! certificate's chain link `(prev_digest, chain_tag)`; the auditor
//! checks that the certificate it re-derives for each state, chained onto
//! the one before, has exactly the journaled link. `chain_tag` is a MAC
//! under the key, so a match proves the gateway signed exactly this
//! state at exactly this place in the chain: a tamper-evident chain over
//! the full history.
//!
//! Run with `cargo run --example audit_past`.

use xml_update_constraints::persist::{read_snapshots, read_wal, WalRecord};
use xml_update_constraints::prelude::*;
use xml_update_constraints::service::persist::wal_path;

fn main() {
    let current =
        parse_term("catalog(product#1(price#2,review#3),product#4(price#5),discontinued#6)")
            .unwrap();

    let policy = vec![
        // Products may never be inserted after publication…
        parse_constraint("(/product, ↓)").unwrap(),
        // …and priced products are immutable as a set.
        parse_constraint("(/product[/price], ↓)").unwrap(),
        parse_constraint("(/product[/price], ↑)").unwrap(),
        // Reviews may only accumulate.
        parse_constraint("(/product/review, ↑)").unwrap(),
    ];

    let audits = [
        ("(/product, ↓)", "could a product have been added?"),
        ("(/product[/price], ↓)", "could a priced product have been added?"),
        ("(/product[/review], ↓)", "could a reviewed product have been added?"),
        ("(/product/review, ↓)", "could a review have been added?"),
    ];

    for (src, question) in audits {
        let goal = parse_constraint(src).unwrap();
        let verdict = implies_on(&policy, &current, &goal);
        println!("{question:<55} {verdict}");
        if let Outcome::NotImplied(ce) = &verdict {
            println!("  e.g. the catalog could have looked like:");
            for line in ce.before.render().lines() {
                println!("    {line}");
            }
        }
    }

    // ---- Part 2: with a journal, the past is provable, not deduced ----

    let dir = std::env::temp_dir().join(format!("xuc-audit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let key = 0xA0D1;
    let doc = DocId::new("catalog");
    {
        let gw = Gateway::recover(Signer::new(key), &dir).expect("fresh durability dir");
        gw.publish(doc, current.clone(), policy.clone()).unwrap();
        let review = |product: u64| Request {
            doc,
            updates: vec![Update::InsertLeaf {
                parent: NodeId::from_raw(product),
                id: NodeId::fresh(),
                label: "review".into(),
            }],
        };
        assert!(gw.submit(&review(1)).is_accepted());
        assert!(gw.submit(&review(4)).is_accepted());
        // A forbidden product insertion is rejected — and, having changed
        // nothing, never enters the journal.
        let smuggle = Request {
            doc,
            updates: vec![Update::InsertLeaf {
                parent: current.root_id(),
                id: NodeId::fresh(),
                label: "product".into(),
            }],
        };
        assert!(!gw.submit(&smuggle).is_accepted());
        assert!(gw.submit(&review(4)).is_accepted());
    } // orderly shutdown: the journal is synced

    // The auditor's whole world: the files, and the verification key.
    let snaps = read_snapshots(&dir).unwrap();
    let scan = read_wal(&wal_path(&dir)).unwrap();
    println!();
    println!(
        "offline audit: {} snapshot(s), {} journal record(s), torn tail: {}",
        snaps.len(),
        scan.records.len(),
        scan.torn
    );

    // Certificates are deterministic: the auditor holding the key signs
    // what the gateway signed for the same state and predecessor.
    let certify = |tree: &DataTree, suite: &[Constraint], prev_digest: u64| {
        let mut ev = Evaluator::new(tree);
        let sets: Vec<_> = suite.iter().map(|c| ev.eval(&c.range)).collect();
        Signer::new(key).certify_chained(suite, &sets, prev_digest)
    };
    let mut state: Option<(DataTree, &[Constraint])> = None;
    let mut prev_digest = 0u64;
    for rec in &scan.records {
        match rec {
            WalRecord::Publish { doc, tree, suite } => {
                // The publish certificate anchors the chain.
                prev_digest = certify(tree, suite, 0).digest();
                state = Some((tree.clone(), suite));
                println!("  published {doc:?} under {} constraints", suite.len());
            }
            WalRecord::Commit { commit, updates, cert, .. } => {
                let (before, suite) = state.take().expect("publish precedes commits");
                let after = apply_all(&before, updates).expect("logged batches re-apply");
                // Every logged batch really respected the policy…
                assert!(policy.iter().all(|c| c.satisfied_by(&before, &after)));
                // …and the certificate of exactly this state, chained
                // onto the previous one, is the one the gateway signed.
                let rederived = certify(&after, suite, prev_digest);
                assert_eq!(rederived.link(), cert.link(), "journaled chain link re-derives");
                println!(
                    "  commit {commit}: {} update(s), certificate chains onto {prev_digest:#018x}",
                    updates.len()
                );
                prev_digest = rederived.digest();
                state = Some((after, suite));
            }
        }
    }
    println!("full history verified: every accepted state re-signed, every link matches");

    // Tamper-evidence: flip one byte in the last journal frame and the
    // scan refuses the forged suffix.
    let wal = wal_path(&dir);
    let mut bytes = std::fs::read(&wal).unwrap();
    let last = bytes.len() - 10;
    bytes[last] ^= 0x40;
    std::fs::write(&wal, &bytes).unwrap();
    let reread = read_wal(&wal).unwrap();
    assert!(reread.torn && reread.records.len() < scan.records.len());
    println!(
        "tampering with the journal tail: scan now yields {} record(s), torn tail detected",
        reread.records.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
