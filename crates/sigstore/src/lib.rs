//! Simulated cryptographic enforcement of update constraints (Section 1,
//! Figure 1).
//!
//! The paper motivates update constraints by exchange scenarios where a
//! *Source* publishes a document, a *Broker* edits it within agreed limits,
//! and a *User* must check validity **without seeing the original**. The
//! paper points to signature schemes for modifiable collections
//! ([1, 8, 21, 22]) as the enforcement mechanism; this crate simulates
//! that layer with the same *functional* contract:
//!
//! * [`Signer::certify`] — the Source evaluates every constraint range on
//!   its instance `I` and signs the selected `(id, label)` sets,
//! * [`Certificate::verify`] — the User re-evaluates the ranges on the
//!   received instance `J` and checks the signed inclusions
//!   (`⊇` for ↑ ranges, `⊆` for ↓), after authenticating each signed set.
//!
//! `verify(J, cert) == Ok` holds exactly when `(I, J)` is valid for the
//! certified constraints — the certificate is a faithful stand-in for `I`.
//!
//! **This is a simulation**: the MAC is a keyed FNV-style hash, not a
//! cryptographic primitive. The reasoning machinery of `xuc-core` never
//! depends on the hash strength; it only consumes the validity verdicts.

use std::collections::BTreeSet;
use std::fmt;
use xuc_core::{Constraint, ConstraintKind};
use xuc_xpath::Evaluator;
use xuc_xtree::{DataTree, NodeRef};

/// A 64-bit FNV-1a style keyed digest (simulation of a MAC).
fn mac(key: u64, data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ key;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    // One extra mixing round keyed again, so extension attacks on the toy
    // hash are at least inconvenient.
    h ^= key.rotate_left(17);
    h = h.wrapping_mul(0x100_0000_01b3);
    h
}

fn serialize_set(set: &BTreeSet<NodeRef>) -> Vec<u8> {
    let mut out = Vec::with_capacity(set.len() * 12);
    for n in set {
        out.extend_from_slice(&n.id.raw().to_le_bytes());
        out.extend_from_slice(n.label.as_str().as_bytes());
        out.push(0);
    }
    out
}

/// One certified range: the constraint, the signed node set and its MAC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertEntry {
    pub constraint: Constraint,
    pub snapshot: BTreeSet<NodeRef>,
    pub tag: u64,
}

/// A certificate over a document: what the Source vouches for. Successive
/// certificates of one document are **hash-linked**: each carries the
/// [`digest`](Certificate::digest) of its predecessor, and a keyed
/// [`chain_tag`](Certificate::chain_tag) binds that link into the signed
/// payload — so a full update history can be audited offline
/// ([`verify_chained`](Certificate::verify_chained)), and no certificate
/// can be spliced out of or re-ordered within its chain without breaking
/// a MAC.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Certificate {
    pub entries: Vec<CertEntry>,
    /// [`digest`](Certificate::digest) of this document's previous
    /// certificate; `0` marks the origin of a chain (the publish-time
    /// certificate).
    pub prev_digest: u64,
    /// MAC over `prev_digest` and every entry's tag — the hash-link,
    /// signed so the chain structure itself is tamper-evident.
    pub chain_tag: u64,
}

/// Verification failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A signed set's MAC does not check out (tampered certificate).
    BadSignature { index: usize },
    /// The certificate's chain link MAC does not check out (the link to
    /// the predecessor was tampered with).
    BadChainTag,
    /// The certificate's predecessor link names a different certificate
    /// than expected (chain re-ordered, spliced, or forked).
    ChainBroken { expected: u64, found: u64 },
    /// The document violates a certified constraint.
    Violated { constraint: String, offenders: usize },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::BadSignature { index } => {
                write!(f, "certificate entry {index} failed authentication")
            }
            VerifyError::BadChainTag => write!(f, "certificate chain link failed authentication"),
            VerifyError::ChainBroken { expected, found } => {
                write!(
                    f,
                    "certificate chain broken: expected predecessor {expected:#018x}, \
                     found {found:#018x}"
                )
            }
            VerifyError::Violated { constraint, offenders } => {
                write!(f, "document violates {constraint} ({offenders} offending nodes)")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// The Source's signing identity (shared-key simulation).
#[derive(Debug, Clone, Copy)]
pub struct Signer {
    key: u64,
}

impl Signer {
    pub fn new(key: u64) -> Signer {
        Signer { key }
    }

    /// Certifies `document` under `constraints`: evaluates each range
    /// (against one shared snapshot of the document) and signs the
    /// selected set.
    pub fn certify(&self, document: &DataTree, constraints: &[Constraint]) -> Certificate {
        let mut ev = Evaluator::new(document);
        let snapshots: Vec<BTreeSet<NodeRef>> =
            constraints.iter().map(|c| ev.eval(&c.range)).collect();
        self.certify_precomputed(constraints, &snapshots)
    }

    /// [`certify`](Self::certify) over range results the caller already
    /// holds: `snapshots[i]` must be `constraints[i].range`'s evaluation
    /// on the document being certified. The service layer's commit path
    /// uses this to sign the exact sets its admission check just computed
    /// (one `eval_set` pass), instead of re-evaluating the whole suite.
    /// The result is a chain **origin** (`prev_digest = 0`); commits use
    /// [`certify_chained`](Self::certify_chained) to link onto the
    /// document's previous certificate.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn certify_precomputed(
        &self,
        constraints: &[Constraint],
        snapshots: &[BTreeSet<NodeRef>],
    ) -> Certificate {
        self.certify_chained(constraints, snapshots, 0)
    }

    /// [`certify_precomputed`](Self::certify_precomputed) linked onto a
    /// predecessor: `prev_digest` must be the previous certificate's
    /// [`digest`](Certificate::digest) (`0` for the first certificate of
    /// a document). The link is folded into the signed payload via the
    /// keyed [`chain_tag`](Certificate::chain_tag), so an auditor holding
    /// the chain can prove each certificate is the authentic successor of
    /// the one before it.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn certify_chained(
        &self,
        constraints: &[Constraint],
        snapshots: &[BTreeSet<NodeRef>],
        prev_digest: u64,
    ) -> Certificate {
        assert_eq!(constraints.len(), snapshots.len(), "one snapshot per constraint");
        let entries: Vec<CertEntry> = constraints
            .iter()
            .zip(snapshots)
            .map(|(c, snapshot)| {
                let tag = mac(self.key, &serialize_set(snapshot));
                CertEntry { constraint: c.clone(), snapshot: snapshot.clone(), tag }
            })
            .collect();
        let chain_tag = mac(self.key, &chain_payload(prev_digest, &entries));
        Certificate { entries, prev_digest, chain_tag }
    }
}

/// The bytes the chain MAC covers: the predecessor link plus every
/// entry's constraint text and tag (the tags already authenticate the
/// signed sets, so covering them covers the whole certificate content).
fn chain_payload(prev_digest: u64, entries: &[CertEntry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + entries.len() * 24);
    out.extend_from_slice(&prev_digest.to_le_bytes());
    for e in entries {
        let c = e.constraint.to_string();
        out.extend_from_slice(&(c.len() as u64).to_le_bytes());
        out.extend_from_slice(c.as_bytes());
        out.extend_from_slice(&e.tag.to_le_bytes());
    }
    out
}

impl Certificate {
    /// The chain link `(prev_digest, chain_tag)`: what a journal keeps of
    /// a certificate it can re-derive. Two certificates of the same
    /// document with equal links certify the same content: `prev_digest`
    /// is the unkeyed [`digest`](Self::digest) of the predecessor's full
    /// content, and `chain_tag` MACs this certificate's constraints and
    /// every entry's set MAC.
    pub fn link(&self) -> (u64, u64) {
        (self.prev_digest, self.chain_tag)
    }

    /// A copy carrying only the [`link`](Self::link), with no entries.
    /// It cannot be [`verify`](Self::verify)-ed; it is compared by link
    /// against a re-derived certificate.
    pub fn link_only(&self) -> Certificate {
        Certificate {
            entries: Vec::new(),
            prev_digest: self.prev_digest,
            chain_tag: self.chain_tag,
        }
    }

    /// An **unkeyed** content digest of this certificate — what the
    /// successor certificate stores as its `prev_digest`. Covers the
    /// predecessor link, every constraint, every signed set and every
    /// MAC, so two certificates digest equal iff their entire content
    /// (including chain position) is equal.
    pub fn digest(&self) -> u64 {
        let mut data = Vec::new();
        data.extend_from_slice(&self.prev_digest.to_le_bytes());
        data.extend_from_slice(&self.chain_tag.to_le_bytes());
        for e in &self.entries {
            let c = e.constraint.to_string();
            data.extend_from_slice(&(c.len() as u64).to_le_bytes());
            data.extend_from_slice(c.as_bytes());
            data.extend_from_slice(&serialize_set(&e.snapshot));
            data.extend_from_slice(&e.tag.to_le_bytes());
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in &data {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }
    /// The User-side check: authenticate every entry and the chain link,
    /// then compare the signed snapshot against the received document's
    /// evaluation (one shared snapshot of the received document for all
    /// entries).
    pub fn verify(&self, key: u64, received: &DataTree) -> Result<(), VerifyError> {
        if mac(key, &chain_payload(self.prev_digest, &self.entries)) != self.chain_tag {
            return Err(VerifyError::BadChainTag);
        }
        let mut ev = Evaluator::new(received);
        for (index, e) in self.entries.iter().enumerate() {
            if mac(key, &serialize_set(&e.snapshot)) != e.tag {
                return Err(VerifyError::BadSignature { index });
            }
            let now = ev.eval(&e.constraint.range);
            let offenders = match e.constraint.kind {
                // no-remove: everything signed must still be selected.
                ConstraintKind::NoRemove => e.snapshot.difference(&now).count(),
                // no-insert: nothing beyond the signed set may be selected.
                ConstraintKind::NoInsert => now.difference(&e.snapshot).count(),
            };
            if offenders > 0 {
                return Err(VerifyError::Violated {
                    constraint: e.constraint.to_string(),
                    offenders,
                });
            }
        }
        Ok(())
    }

    /// [`verify`](Self::verify) plus the chain-position check: the
    /// certificate must name `expected_prev` as its predecessor. Walking
    /// a document's certificates oldest-first and threading each
    /// [`digest`](Self::digest) into the next call proves the whole
    /// history is one unbroken, authentic chain.
    pub fn verify_chained(
        &self,
        key: u64,
        received: &DataTree,
        expected_prev: u64,
    ) -> Result<(), VerifyError> {
        if self.prev_digest != expected_prev {
            return Err(VerifyError::ChainBroken {
                expected: expected_prev,
                found: self.prev_digest,
            });
        }
        self.verify(key, received)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xuc_core::parse_constraint;
    use xuc_xtree::parse_term;

    fn c(s: &str) -> Constraint {
        parse_constraint(s).unwrap()
    }

    #[test]
    fn verify_equals_pair_validity() {
        let i = parse_term("h(patient#2(visit#6,visit#7),patient#3(clinicalTrial#8))").unwrap();
        let constraints = vec![
            c("(/patient[/visit], ↓)"),
            c("(/patient[/clinicalTrial], ↓)"),
            c("(/patient[/clinicalTrial], ↑)"),
            c("(/patient/visit, ↑)"),
        ];
        let signer = Signer::new(0xfeed);
        let cert = signer.certify(&i, &constraints);

        // The Fig. 2 J violates c3 (visit n7 removed).
        let j = parse_term("h(patient#2(visit#6),patient#3(clinicalTrial#8),patient#4)").unwrap();
        let err = cert.verify(0xfeed, &j).unwrap_err();
        assert!(matches!(err, VerifyError::Violated { .. }));
        assert_eq!(
            xuc_core::constraint::all_satisfied(&constraints, &i, &j),
            cert.verify(0xfeed, &j).is_ok()
        );

        // A compliant edit (add a visit) verifies.
        let mut j_ok = i.clone();
        j_ok.add(xuc_xtree::NodeId::from_raw(2), "visit").unwrap();
        assert!(cert.verify(0xfeed, &j_ok).is_ok());
        assert!(xuc_core::constraint::all_satisfied(&constraints, &i, &j_ok));
    }

    #[test]
    fn identity_always_verifies() {
        let i = parse_term("r(a#1(b#2),c#3)").unwrap();
        let constraints = vec![c("(//a, ↑)"), c("(//b, ↓)"), c("(/c, ↑)"), c("(/c, ↓)")];
        let cert = Signer::new(7).certify(&i, &constraints);
        assert!(cert.verify(7, &i).is_ok());
    }

    #[test]
    fn tampered_certificate_rejected() {
        let i = parse_term("r(a#1)").unwrap();
        let constraints = vec![c("(//a, ↓)")];
        let mut cert = Signer::new(42).certify(&i, &constraints);
        // Broker sneaks an extra node into the signed ↓ snapshot so its own
        // insertion would pass: authentication must catch it.
        let forged = xuc_xtree::NodeRef {
            id: xuc_xtree::NodeId::from_raw(99),
            label: xuc_xtree::Label::new("a"),
        };
        cert.entries[0].snapshot.insert(forged);
        let mut j = i.clone();
        j.add_with_id(j.root_id(), xuc_xtree::NodeId::from_raw(99), "a").unwrap();
        assert_eq!(cert.verify(42, &j), Err(VerifyError::BadSignature { index: 0 }));
    }

    #[test]
    fn precomputed_certification_matches_evaluated() {
        // certify_precomputed over the document's own range results must
        // produce a certificate indistinguishable from certify's.
        let i = parse_term("r(a#1(b#2),c#3(b#4))").unwrap();
        let constraints = vec![c("(//b, ↑)"), c("(/a, ↓)"), c("(/c[/b], ↑)")];
        let signer = Signer::new(0xd1d);
        let via_eval = signer.certify(&i, &constraints);
        let mut ev = Evaluator::new(&i);
        let sets: Vec<_> = constraints.iter().map(|x| ev.eval(&x.range)).collect();
        let via_sets = signer.certify_precomputed(&constraints, &sets);
        for (a, b) in via_eval.entries.iter().zip(&via_sets.entries) {
            assert_eq!(a.snapshot, b.snapshot);
            assert_eq!(a.tag, b.tag);
        }
        assert!(via_sets.verify(0xd1d, &i).is_ok());
    }

    #[test]
    fn chained_certificates_link_and_audit() {
        let key = 0xC4A1;
        let signer = Signer::new(key);
        let i0 = parse_term("h(patient#2(visit#6))").unwrap();
        let constraints = vec![c("(/patient/visit, ↑)"), c("(/patient, ↓)")];
        let cert0 = signer.certify(&i0, &constraints);
        assert_eq!(cert0.prev_digest, 0, "certify produces a chain origin");
        assert!(cert0.verify_chained(key, &i0, 0).is_ok());

        // The document evolves; the new certificate links onto the old.
        let mut i1 = i0.clone();
        i1.add(xuc_xtree::NodeId::from_raw(2), "visit").unwrap();
        let mut ev = Evaluator::new(&i1);
        let sets: Vec<_> = constraints.iter().map(|x| ev.eval(&x.range)).collect();
        let cert1 = signer.certify_chained(&constraints, &sets, cert0.digest());
        assert!(cert1.verify_chained(key, &i1, cert0.digest()).is_ok());
        assert_ne!(cert0.digest(), cert1.digest());

        // Naming the wrong predecessor is a broken chain…
        assert!(matches!(
            cert1.verify_chained(key, &i1, 0xdead),
            Err(VerifyError::ChainBroken { .. })
        ));
        // …and rewriting the link breaks the signed chain tag.
        let mut forged = cert1.clone();
        forged.prev_digest = 0;
        assert_eq!(forged.verify(key, &i1), Err(VerifyError::BadChainTag));
    }

    #[test]
    fn wrong_key_rejected() {
        let i = parse_term("r(a#1)").unwrap();
        let cert = Signer::new(1).certify(&i, &[c("(//a, ↑)")]);
        // The chain link is the first MAC checked, so a wrong key fails
        // there before any entry is examined.
        assert!(matches!(cert.verify(2, &i), Err(VerifyError::BadChainTag)));
        // A wrong key with a forged-but-self-consistent chain tag still
        // fails on the entry MACs.
        let mut reforged = cert.clone();
        reforged.chain_tag = mac(2, &chain_payload(reforged.prev_digest, &reforged.entries));
        assert!(matches!(reforged.verify(2, &i), Err(VerifyError::BadSignature { .. })));
    }

    #[test]
    fn agreement_with_validity_on_random_edits() {
        // The certificate verdict must coincide with pair validity for
        // arbitrary update sequences.
        let i = parse_term("r(a#1(b#2,b#3),c#4(b#5))").unwrap();
        let constraints = vec![c("(/a/b, ↑)"), c("(/a/b, ↓)"), c("(//b, ↑)"), c("(/c[/b], ↓)")];
        let cert = Signer::new(0xabc).certify(&i, &constraints);
        let edits: Vec<DataTree> = vec![
            parse_term("r(a#1(b#2,b#3),c#4(b#5))").unwrap(),
            parse_term("r(a#1(b#2),c#4(b#5,b#3))").unwrap(),
            parse_term("r(a#1(b#2,b#3,b#9),c#4(b#5))").unwrap(),
            parse_term("r(a#1(b#2,b#3),c#4)").unwrap(),
            parse_term("r(c#4(b#5),a#1(b#2,b#3(x#7)))").unwrap(),
        ];
        for j in edits {
            assert_eq!(
                cert.verify(0xabc, &j).is_ok(),
                xuc_core::constraint::all_satisfied(&constraints, &i, &j),
                "certificate and validity disagree on {j:?}"
            );
        }
    }
}
