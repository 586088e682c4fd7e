//! Seeded inputs: the documents, their constraint suites and the op
//! stream. Everything here is a pure function of `(workload, seed)`:
//! trees come from [`hospital_sized`] under a seeded RNG and are then
//! renumbered with explicit ids, and inserts draw their ids from a
//! per-document counter, so no generated value depends on the process's
//! global id allocator. The gateway only ever sees the [`Request`]s.

use rand::rngs::StdRng;
use rand::SeedableRng;
use xuc_core::{parse_constraint, Constraint};
use xuc_service::workload::SplitMix;
use xuc_service::{DocId, Request};
use xuc_workloads::trees::hospital_sized;
use xuc_xtree::{DataTree, Label, NodeId, Update};

/// Key of the signer every gateway in the benchmark certifies with.
pub const SIGNER_KEY: u64 = 0x6777_6265_6e63_6821;

/// Zipf exponent of the fleet's document choice, in hundredths.
const ZIPF_CENTI: u32 = 99;

/// The predicate range that makes half of the fleet's suites fall back
/// to the full admission pass.
const PREDICATE_RANGE: &str = "(/patient[/clinicalTrial], ↓)";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One in-memory document, small enough to stay in cache.
    MemDoc,
    /// Many small documents on a durable gateway.
    DurableFleet,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "mem_doc" => Some(Workload::MemDoc),
            "durable_fleet" => Some(Workload::DurableFleet),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::MemDoc => "mem_doc",
            Workload::DurableFleet => "durable_fleet",
        }
    }
}

/// Input sizes. [`Scale::full`] is what the benchmark command runs; the
/// benchmark's own tests use smaller ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Documents published.
    pub docs: usize,
    /// Nodes per document (at least; `hospital_sized` overshoots by a
    /// handful).
    pub nodes: usize,
    /// Ops per round. Every round starts from a freshly published
    /// deployment (on a fresh journal for the fleet).
    pub round_ops: usize,
    /// `mem_doc` only: commits replayed into the durable probe gateway
    /// (relabel and structural batches, alternating).
    pub probe_ops: usize,
}

impl Scale {
    pub fn full(w: Workload) -> Scale {
        match w {
            Workload::MemDoc => Scale { docs: 1, nodes: 8_000, round_ops: 250, probe_ops: 64 },
            Workload::DurableFleet => {
                Scale { docs: 64, nodes: 4_000, round_ops: 2_000, probe_ops: 0 }
            }
        }
    }
}

/// What kind of request an op is; every op of a class has the same
/// expected verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Relabels only (accepted).
    Relabel,
    /// Leaf inserts and deletions (accepted).
    Structural,
    /// A batch that deletes a protected `visit` subtree (rejected and
    /// rolled back).
    Reject,
    /// `read` + `snapshot` + `certificate` of one document.
    Read,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::Relabel, Class::Structural, Class::Reject, Class::Read];

    pub fn name(self) -> &'static str {
        match self {
            Class::Relabel => "relabel",
            Class::Structural => "structural",
            Class::Reject => "reject",
            Class::Read => "read",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// One generated op with everything needed to check its outcome.
#[derive(Debug, Clone)]
pub struct Op {
    pub class: Class,
    /// Index of the target document in the deployment.
    pub doc: usize,
    /// The request (no updates for a read).
    pub request: Request,
    /// For accepted classes: the commit number the gateway must answer.
    pub expect_commit: u64,
    /// The document's node count after the op, if it is accepted.
    pub expect_len: usize,
    /// Constraints in the document's suite (entries a certificate holds).
    pub suite_len: usize,
}

/// One document to publish.
pub struct DocSpec {
    pub id: DocId,
    pub tree: DataTree,
    pub suite: Vec<Constraint>,
}

/// The E-DLT suite: 16 all-linear constraints over the hospital labels,
/// as the E-DLT experiment builds it (the suite does not depend on the
/// tree drawn beside it).
pub fn edlt_suite() -> Vec<Constraint> {
    xuc_bench::edlt_workload(16, 16).1
}

/// The fleet's second suite: E-DLT plus a predicate range, which the set
/// automaton cannot compile, so admission takes the full-pass fallback.
pub fn predicate_suite() -> Vec<Constraint> {
    let mut suite = edlt_suite();
    suite.push(parse_constraint(PREDICATE_RANGE).expect("static constraint"));
    suite
}

/// Id space of document `doc`: the tree's nodes are numbered from
/// `base + 1` in preorder, inserted leaves from `base + 2^31`.
fn id_base(doc: usize) -> u64 {
    (doc as u64 + 1) << 32
}

/// A `hospital_sized` tree drawn from `seed`, renumbered in preorder
/// from `base + 1` so its ids depend on nothing but the inputs.
fn hospital_doc(seed: u64, nodes: usize, base: u64) -> DataTree {
    let drawn = hospital_sized(&mut StdRng::seed_from_u64(seed), nodes);
    let pre = drawn.preorder_snapshot();
    let ids: Vec<NodeId> = (0..pre.len()).map(|i| NodeId::from_raw(base + 1 + i as u64)).collect();
    let mut tree = DataTree::with_root_id(ids[0], pre[0].1);
    for (i, (_, label, parent)) in pre.iter().enumerate().skip(1) {
        let parent = ids[parent.expect("only the root has no parent")];
        tree.add_with_id(parent, ids[i], *label).expect("fresh preorder id");
    }
    tree
}

/// Mixes the workload seed with a stream index (document, round).
pub fn subseed(seed: u64, lane: u64) -> u64 {
    let mut m = SplitMix::new(seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    m.next_u64()
}

/// The documents of `w` at `scale`, drawn from `seed`.
pub fn deployment(w: Workload, scale: Scale, seed: u64) -> Vec<DocSpec> {
    (0..scale.docs)
        .map(|d| {
            // The fleet's colder half (by Zipf rank) takes the predicate
            // suite: about 15% of the traffic, so the fallback shapes the
            // p90s while the p50s stay inside the splice path's mode.
            let suite = match w {
                Workload::DurableFleet if d >= scale.docs / 2 => predicate_suite(),
                _ => edlt_suite(),
            };
            let id = DocId::new(&format!("{}-{d:02}", w.name()));
            DocSpec {
                id,
                tree: hospital_doc(subseed(seed, d as u64), scale.nodes, id_base(d)),
                suite,
            }
        })
        .collect()
}

/// The generator's model of one document: the ids an op may target.
struct DocModel {
    id: DocId,
    patients: Vec<NodeId>,
    visits: Vec<NodeId>,
    phones: Vec<NodeId>,
    notes: Vec<NodeId>,
    /// Next id for an inserted leaf.
    next_id: u64,
    len: usize,
    suite_len: usize,
    commits: u64,
}

impl DocModel {
    fn new(doc: usize, spec: &DocSpec) -> DocModel {
        let mut m = DocModel {
            id: spec.id,
            patients: Vec::new(),
            visits: Vec::new(),
            phones: Vec::new(),
            notes: Vec::new(),
            next_id: id_base(doc) + (1 << 31),
            len: spec.tree.len(),
            suite_len: spec.suite.len(),
            commits: 0,
        };
        for n in spec.tree.nodes() {
            match n.label.as_str() {
                "patient" => m.patients.push(n.id),
                "visit" => m.visits.push(n.id),
                "phone" => m.phones.push(n.id),
                _ => {}
            }
        }
        // `nodes()` walks slot order; sort so the pools are independent
        // of the arena layout.
        for pool in [&mut m.patients, &mut m.visits, &mut m.phones] {
            pool.sort();
        }
        m
    }

    fn fresh(&mut self) -> NodeId {
        self.next_id += 1;
        NodeId::from_raw(self.next_id)
    }

    fn take(rng: &mut SplitMix, pool: &mut Vec<NodeId>) -> NodeId {
        let i = rng.below(pool.len());
        pool.swap_remove(i)
    }
}

/// Shares of each class in the op mix, in percent.
struct Mix {
    relabel: usize,
    structural: usize,
    reject: usize,
}

/// Phones kept back: below this many a relabel targets a `note` instead
/// (`note` → `memo` and back), so a long or fast run never exhausts the
/// pool and every op stays valid.
const PHONE_RESERVE: usize = 16;

/// The op stream of one run (or one fleet round). Targets are drawn
/// against the generator's own model of each document, which follows
/// the expected verdicts, so every op is valid when it is submitted.
pub struct OpStream {
    w: Workload,
    rng: SplitMix,
    docs: Vec<DocModel>,
    /// Cumulative Zipf weights over the documents (fleet).
    zipf: Vec<f64>,
    mix: Mix,
}

impl OpStream {
    pub fn new(w: Workload, docs: &[DocSpec], seed: u64) -> OpStream {
        let weights: Vec<f64> = (0..docs.len())
            .map(|i| 1.0 / ((i + 1) as f64).powf(ZIPF_CENTI as f64 / 100.0))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let zipf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let mix = match w {
            Workload::MemDoc => Mix { relabel: 50, structural: 20, reject: 10 },
            Workload::DurableFleet => Mix { relabel: 45, structural: 30, reject: 15 },
        };
        OpStream {
            w,
            rng: SplitMix::new(seed),
            docs: docs.iter().enumerate().map(|(i, s)| DocModel::new(i, s)).collect(),
            zipf,
            mix,
        }
    }

    fn pick_doc(&mut self) -> usize {
        if self.docs.len() == 1 {
            return 0;
        }
        let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.zipf.iter().position(|&c| u < c).unwrap_or(self.docs.len() - 1)
    }

    /// Batch size of a non-read op: `mem_doc` relabels 1 and restructures
    /// 8 at a time; fleet batches hold 1–3 updates.
    fn batch_len(&mut self, class: Class) -> usize {
        match (self.w, class) {
            (Workload::MemDoc, Class::Structural) => 8,
            (Workload::MemDoc, _) => 1,
            (Workload::DurableFleet, _) => 1 + self.rng.below(3),
        }
    }

    /// The next op, of a class drawn from the workload's mix; its
    /// expected outcome is already folded into the model.
    pub fn next_op(&mut self) -> Op {
        let roll = self.rng.below(100);
        let class = if roll < self.mix.relabel {
            Class::Relabel
        } else if roll < self.mix.relabel + self.mix.structural {
            Class::Structural
        } else if roll < self.mix.relabel + self.mix.structural + self.mix.reject {
            Class::Reject
        } else {
            Class::Read
        };
        self.next_of(class)
    }

    /// The next op, of the given class.
    pub fn next_of(&mut self, class: Class) -> Op {
        let doc = self.pick_doc();
        let n = self.batch_len(class);
        let rng = &mut self.rng;
        let m = &mut self.docs[doc];
        let mut updates = Vec::with_capacity(n);
        match class {
            Class::Relabel => {
                for _ in 0..n {
                    updates.push(relabel(rng, m));
                }
            }
            Class::Structural => {
                for i in 0..n {
                    updates.push(if i % 2 == 0 {
                        let parent = m.patients[rng.below(m.patients.len())];
                        let id = m.fresh();
                        m.notes.push(id);
                        m.len += 1;
                        Update::InsertLeaf { parent, id, label: Label::new("note") }
                    } else {
                        m.len -= 1;
                        let node = if m.phones.len() > PHONE_RESERVE {
                            DocModel::take(rng, &mut m.phones)
                        } else {
                            let i = rng.below(m.notes.len());
                            m.notes.swap_remove(i)
                        };
                        Update::DeleteSubtree { node }
                    });
                }
            }
            Class::Reject => {
                // Leaf inserts that would be fine on their own, then the
                // violating deletion: the whole batch rolls back, so the
                // model is untouched (the minted ids are simply unused).
                for _ in 1..n {
                    let parent = m.patients[rng.below(m.patients.len())];
                    updates.push(Update::InsertLeaf {
                        parent,
                        id: m.fresh(),
                        label: Label::new("note"),
                    });
                }
                let node = m.visits[rng.below(m.visits.len())];
                updates.push(Update::DeleteSubtree { node });
            }
            Class::Read => {}
        }
        let accepted = matches!(class, Class::Relabel | Class::Structural);
        if accepted {
            m.commits += 1;
        }
        Op {
            class,
            doc,
            request: Request { doc: m.id, updates },
            expect_commit: m.commits,
            expect_len: m.len,
            suite_len: m.suite_len,
        }
    }
}

/// One relabel: a phone becomes a note while phones last, otherwise a
/// note and a memo swap labels.
fn relabel(rng: &mut SplitMix, m: &mut DocModel) -> Update {
    if m.phones.len() > PHONE_RESERVE {
        let node = DocModel::take(rng, &mut m.phones);
        m.notes.push(node);
        return Update::Relabel { node, label: Label::new("note") };
    }
    // Both labels lie outside every range, so the leaf stays in the
    // note pool whichever it gets.
    let node = m.notes[rng.below(m.notes.len())];
    let label = if rng.below(2) == 0 { "memo" } else { "note" };
    Update::Relabel { node, label: Label::new(label) }
}
