//! The traced run: per-layer time and work of the same seeded stream.
//!
//! Every op is first replayed on a **mirror** of its document through
//! the layers' public functions — the calls `Gateway::submit` makes, in
//! the order it makes them — with a span around each call, and then
//! submitted to the real gateway under a `service.submit` span. The
//! mirror's verdict and certificate digest must equal the gateway's on
//! every op, so the replay cannot drift from the production path.
//! Counts are deltas of the engine, persist and tree-walk counters taken
//! around the gateway call, over every traced op (round 0, and on
//! `mem_doc` the durable probe: the *pinned prefix*), so they repeat
//! exactly for a given seed.
//!
//! Spans stay in memory and are written to `spans.tsv` in the run's
//! data directory at the end. A layer's self time is its span's length
//! minus its child spans; layer spans are leaves, so their self time is
//! their length, and an op's root span keeps the client's own time.

use crate::e2e::{
    capture, check_recovered, durable_options, final_checks, judge, judge_read, open_gateway, read,
    remove_dir, rounds, set_up, signer, stream_seed, Measured, Run,
};
use crate::gen::{deployment, Class, Op, OpStream, Workload};
use crate::{median, Metric, Outcome, Tally};
use std::collections::BTreeSet;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use xuc_automata::{CompiledPatternSet, PatternSetCompiler};
use xuc_core::Constraint;
use xuc_persist::{
    persist_counters, read_snapshots, read_wal, write_snapshot, DocSnapshot, WalRecord, WalWriter,
};
use xuc_service::persist::wal_path;
use xuc_service::{admit_delta_in_place, DocId, Gateway, Verdict};
use xuc_sigstore::Certificate;
use xuc_xpath::{engine_counters, Evaluator};
use xuc_xtree::{
    apply_undoable, preorder_walk_count, undo, DataTree, DirtyRegion, NodeRef, Update,
};

/// The mirror's layer spans reported as time per op, in the order an op
/// meets them. Each is a leaf under an op's root span. (Snapshots are
/// too rare for a per-op figure and are reported per write.)
const LAYERS: [&str; 12] = [
    "xtree.apply",
    "xpath.refresh_after",
    "xtree.dirty_record",
    "xpath.admit",
    "xtree.undo",
    "sigstore.digest",
    "sigstore.certify",
    "persist.encode",
    "persist.append",
    "persist.fsync",
    "xtree.clone",
    "sigstore.cert_clone",
];

/// Request id of set-up spans (publish, compile) and of the recovery.
const SETUP: u32 = u32::MAX;
const RECOVERY: u32 = u32::MAX - 1;

/// One timed call, or the op that caused it.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    request: u32,
    /// Index of the causing span in the trace.
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

impl Span {
    fn len(&self) -> Duration {
        self.end - self.start
    }
}

/// In-memory span recorder. Spans opened while a root is open become
/// its children.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    request: u32,
    root: Option<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), request: SETUP, root: None }
    }

    fn begin(&mut self, name: &'static str, request: u32) {
        let now = self.origin.elapsed();
        self.request = request;
        self.root = Some(self.spans.len());
        self.spans.push(Span { name, request, parent: None, start: now, end: now });
    }

    fn end(&mut self) -> Duration {
        let root = self.root.take().expect("an open root span");
        self.spans[root].end = self.origin.elapsed();
        self.request = SETUP;
        self.spans[root].len()
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        self.spans.push(Span { name, request: self.request, parent: self.root, start, end });
        out
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "request\tparent\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}",
                s.request,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

/// The mirror's journal: its own WAL (synced explicitly after each
/// append) and snapshot directory, on the same disk as the gateway's.
struct MirrorJournal {
    dir: PathBuf,
    wal: WalWriter,
}

/// A copy of one served document, driven through the layer functions.
struct MirrorDoc {
    id: DocId,
    tree: DataTree,
    ev: Evaluator,
    suite: Vec<Constraint>,
    compiled: CompiledPatternSet,
    base_sets: Vec<BTreeSet<NodeRef>>,
    cert: Certificate,
    commits: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MirrorVerdict {
    Accepted(u64),
    Violation,
    Failed,
}

impl MirrorVerdict {
    fn of(v: &Verdict) -> MirrorVerdict {
        match v {
            Verdict::Accepted { commit } => MirrorVerdict::Accepted(*commit),
            Verdict::Rejected(xuc_service::RejectReason::Violation { .. }) => {
                MirrorVerdict::Violation
            }
            _ => MirrorVerdict::Failed,
        }
    }
}

impl MirrorDoc {
    /// Copies `id`'s published state out of the gateway, compiles its
    /// suite and builds a warm evaluator, checking that a fresh full
    /// pass reproduces the gateway's baseline.
    fn copy(gw: &Gateway, id: DocId, tr: &mut Tracer) -> Result<MirrorDoc, String> {
        let arc = gw.store().document(id).ok_or("mirror of an unknown document")?;
        let (tree, suite, base_sets, cert, commits) = {
            let doc = arc.lock();
            (
                doc.tree().clone(),
                doc.suite().to_vec(),
                doc.baseline().to_vec(),
                doc.certificate().clone(),
                doc.commits(),
            )
        };
        let compiled = tr.span("automata.compile", || {
            PatternSetCompiler::compile(suite.iter().map(|c| &c.range))
        });
        let mut ev = Evaluator::new(&tree);
        if ev.eval_set(&compiled) != base_sets {
            return Err(format!("mirror of {id}: a full pass disagrees with the baseline"));
        }
        Ok(MirrorDoc { id, tree, ev, suite, compiled, base_sets, cert, commits })
    }

    /// Replays one batch as a session would: apply + re-sync + dirty
    /// bookkeeping per update, then admission, then certify and journal
    /// (accepted) or unwind (rejected).
    fn commit(
        &mut self,
        updates: &[Update],
        journal: Option<&mut MirrorJournal>,
        tr: &mut Tracer,
        record_bytes: &mut u64,
    ) -> Result<MirrorVerdict, String> {
        let mut undo_stack = Vec::with_capacity(updates.len());
        let mut region = DirtyRegion::new();
        for u in updates {
            let tree = &mut self.tree;
            let applied = tr.span("xtree.apply", || {
                // What a deletion is about to remove, captured first, as
                // the session does for the commit-time splice.
                let doomed = match u {
                    Update::DeleteSubtree { node } => tree.subtree_nodes(*node).ok(),
                    Update::DeleteNode { node } => tree.node(*node).ok().map(|r| vec![r]),
                    _ => None,
                };
                apply_undoable(tree, u).map(|(token, scope)| (token, scope, doomed))
            });
            let Ok((token, scope, doomed)) = applied else {
                self.unwind(undo_stack, tr);
                return Ok(MirrorVerdict::Failed);
            };
            let (tree, ev) = (&self.tree, &mut self.ev);
            tr.span("xpath.refresh_after", || ev.refresh_after(tree, &scope));
            tr.span("xtree.dirty_record", || {
                if let Some(refs) = &doomed {
                    region.record_removals(refs);
                }
                region.record(tree, &scope);
            });
            undo_stack.push(token);
        }
        let (ev, compiled, suite, base_sets) =
            (&mut self.ev, &self.compiled, &self.suite, &mut self.base_sets);
        let admitted = tr
            .span("xpath.admit", || admit_delta_in_place(ev, compiled, suite, base_sets, &region));
        if admitted.is_err() {
            self.unwind(undo_stack, tr);
            return Ok(MirrorVerdict::Violation);
        }
        let cert = &self.cert;
        let prev = tr.span("sigstore.digest", || cert.digest());
        let signer = signer();
        let (suite, base_sets) = (&self.suite, &self.base_sets);
        self.cert = tr.span("sigstore.certify", || signer.certify_chained(suite, base_sets, prev));
        self.commits += 1;
        if let Some(j) = journal {
            let (doc, commit, cert) = (self.id.as_str().to_owned(), self.commits, &self.cert);
            let rec = tr.span("persist.encode", || {
                let rec = WalRecord::Commit {
                    doc,
                    commit,
                    updates: updates.to_vec(),
                    cert: cert.clone(),
                };
                let len = rec.encode().len();
                (rec, len)
            });
            // The frame header (length + checksum) is 12 bytes.
            *record_bytes += 12 + rec.1 as u64;
            let wal = &mut j.wal;
            tr.span("persist.append", || wal.append(&rec.0))
                .map_err(|e| format!("mirror append: {e}"))?;
            tr.span("persist.fsync", || wal.sync()).map_err(|e| format!("mirror sync: {e}"))?;
            let every = durable_options().snapshot_every.unwrap_or(u64::MAX);
            if self.commits.is_multiple_of(every) {
                self.snapshot(&j.dir, tr)?;
            }
        }
        Ok(MirrorVerdict::Accepted(self.commits))
    }

    /// Writes this document's snapshot into `dir`, as the journal does
    /// on its cadence.
    fn snapshot(&self, dir: &Path, tr: &mut Tracer) -> Result<(), String> {
        tr.span("persist.snapshot", || {
            let snap = DocSnapshot {
                doc: self.id.as_str().to_owned(),
                commits: self.commits,
                tree: self.tree.clone(),
                suite: self.suite.clone(),
                base_sets: self.base_sets.clone(),
                cert: self.cert.clone(),
            };
            write_snapshot(dir, &snap)
        })
        .map_err(|e| format!("mirror snapshot: {e}"))
    }

    /// Unwinds a batch: undo in LIFO order, then one evaluator re-sync
    /// (a full refresh if any undo was structural, else the patches).
    fn unwind(&mut self, mut undo_stack: Vec<xuc_xtree::Undo>, tr: &mut Tracer) {
        let tree = &mut self.tree;
        let (structural, patches) = tr.span("xtree.undo", || {
            let (mut structural, mut patches) = (false, Vec::new());
            while let Some(token) = undo_stack.pop() {
                let scope = undo(tree, token).expect("undo token applies to its own tree");
                if scope.is_structural() {
                    structural = true;
                } else {
                    patches.push(scope);
                }
            }
            (structural, patches)
        });
        let (tree, ev) = (&self.tree, &mut self.ev);
        tr.span("xpath.refresh_after", || {
            if structural {
                ev.refresh(tree);
            } else {
                for scope in &patches {
                    ev.refresh_after(tree, scope);
                }
            }
        });
    }

    /// A user's read of the mirror: clones of the tree and certificate,
    /// dropped outside the spans.
    fn read(&self, tr: &mut Tracer) {
        let tree = tr.span("xtree.clone", || self.tree.clone());
        let cert = tr.span("sigstore.cert_clone", || self.cert.clone());
        drop((tree, cert));
    }
}

/// Work counts over the pinned prefix; equal for equal seeds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PinnedCounts {
    pub ops: u64,
    pub commits: u64,
    /// Commits made on a journaled gateway.
    pub journaled: u64,
    /// Certificate entries (signed set members) over all commits.
    pub certified_entries: u64,
    /// Journal frame bytes of the mirror's commit records.
    pub record_bytes: u64,
    /// Journal bytes the gateway appended for commits.
    pub wal_bytes: u64,
    pub fsyncs: u64,
    pub snapshots: u64,
    pub full_rewalks: u64,
    pub dirty_nodes_swept: u64,
    pub splice_declined: u64,
    pub eval_set_sweeps: u64,
    pub fallback_pattern_evals: u64,
}

impl PinnedCounts {
    /// Journal bytes per journaled commit — the deterministic
    /// `wal_bytes_per_commit`.
    pub fn wal_bytes_per_commit(&self) -> f64 {
        self.wal_bytes as f64 / self.journaled.max(1) as f64
    }
}

/// Per-op record of the traced phase.
struct Traced {
    class: Class,
    /// The gateway call.
    submit: Duration,
    /// Sum of the mirror's layer spans.
    layers: Duration,
    agreed: bool,
}

/// Everything the traced phase produces.
struct TraceState {
    tr: Tracer,
    ops: Vec<Traced>,
    pinned: PinnedCounts,
    journal: Option<MirrorJournal>,
}

impl TraceState {
    /// Closes and removes the mirror's journal, if any.
    fn close_journal(&mut self) -> Result<(), String> {
        if let Some(j) = self.journal.take() {
            drop(j.wal);
            std::fs::remove_dir_all(&j.dir).map_err(|e| format!("removing mirror: {e}"))?;
        }
        Ok(())
    }

    /// Runs `op` on the mirror and then on the gateway, checks both, and
    /// books spans and counts.
    fn step(
        &mut self,
        gw: &Gateway,
        mirror: &mut [MirrorDoc],
        op: &Op,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let request = self.ops.len() as u32;
        let tr = &mut self.tr;
        tr.begin(op.class.name(), request);
        let first_layer = tr.spans.len();
        let m = &mut mirror[op.doc];
        let mut record_bytes = 0;
        let mirror_verdict = match op.class {
            Class::Read => {
                m.read(tr);
                None
            }
            _ => {
                Some(m.commit(&op.request.updates, self.journal.as_mut(), tr, &mut record_bytes)?)
            }
        };
        let layers: Duration = tr.spans[first_layer..].iter().map(Span::len).sum();
        let (engine0, persist0, walks0) =
            (engine_counters(), persist_counters(), preorder_walk_count());
        let (verdict, problem) = if op.class == Class::Read {
            let (v, tree, cert) = tr.span("service.submit", || read(gw, op.request.doc));
            let problem = judge_read(op, &v, tree.as_ref(), cert.as_ref());
            (v, problem)
        } else {
            let v = tr.span("service.submit", || gw.submit(&op.request));
            let problem = judge(op, &v);
            (v, problem)
        };
        let (engine1, persist1, walks1) =
            (engine_counters(), persist_counters(), preorder_walk_count());
        let submit = tr.spans.last().expect("the submit span").len();
        tr.end();
        // Agreement: same verdict, and the same certificate afterwards.
        let agreed = match mirror_verdict {
            None => true,
            Some(mv) => {
                let arc = gw.store().document(op.request.doc).ok_or("unknown document")?;
                let gw_digest = arc.lock().certificate().digest();
                mv == MirrorVerdict::of(&verdict) && gw_digest == m.cert.digest()
            }
        };
        tally.op(problem);
        tally.check(agreed, || {
            format!("mirror disagrees with the gateway on {} op {request}", op.class.name())
        });
        let e = engine1.since(&engine0);
        let p = &mut self.pinned;
        p.ops += 1;
        if matches!(verdict, Verdict::Accepted { .. }) {
            p.commits += 1;
            p.certified_entries +=
                m.cert.entries.iter().map(|e| e.snapshot.len() as u64).sum::<u64>();
            p.record_bytes += record_bytes;
            p.wal_bytes += persist1.wal_bytes - persist0.wal_bytes;
            p.journaled += u64::from(self.journal.is_some());
        }
        p.fsyncs += persist1.wal_fsyncs - persist0.wal_fsyncs;
        p.snapshots += persist1.snapshot_installs - persist0.snapshot_installs;
        p.full_rewalks += walks1 - walks0;
        p.dirty_nodes_swept += e.dirty_nodes_swept;
        p.splice_declined += e.splice_declined;
        p.eval_set_sweeps += e.eval_set_sweeps;
        p.fallback_pattern_evals += e.fallback_pattern_evals;
        self.ops.push(Traced { class: op.class, submit, layers, agreed });
        Ok(())
    }
}

/// Times of the traced recovery (fleet).
#[derive(Debug, Default)]
struct RecoveryTrace {
    read_snapshots: Duration,
    read_wal: Duration,
    recover: Duration,
    wal_bytes_read: u64,
}

/// Runs the traced measurement of `run`: per-layer metrics, the
/// agreement and coverage report and the tracing overhead, plus the
/// pinned-prefix counts (what the benchmark's own tests compare across
/// runs).
pub fn traced(run: &Run) -> (Outcome, PinnedCounts) {
    let mut m = Measured::default();
    let result = traced_inner(run, &mut m);
    let mut tally = m.tally;
    let (metrics, report, pinned) = result.unwrap_or_else(|e| {
        tally.check(false, || e);
        (Vec::new(), Vec::new(), PinnedCounts::default())
    });
    (Outcome { tally, metrics, report }, pinned)
}

type TraceResult = Result<(Vec<Metric>, Vec<String>, PinnedCounts), String>;

fn traced_inner(run: &Run, m: &mut Measured) -> TraceResult {
    let mut st = TraceState {
        tr: Tracer::new(),
        ops: Vec::new(),
        pinned: PinnedCounts::default(),
        journal: None,
    };
    let half = Duration::from_secs_f64(run.seconds / 2.0);
    let durable = run.workload == Workload::DurableFleet;
    let gw_dir = run.data.join("traced");
    let specs = deployment(run.workload, run.scale, run.seed);
    let mut stream = OpStream::new(run.workload, &specs, stream_seed(run.seed, 0));
    let gw = open_gateway(durable.then_some(gw_dir.as_path()))?;
    let mut ids = Vec::with_capacity(specs.len());
    for spec in specs {
        let id = spec.id;
        st.tr
            .span("service.publish", || gw.publish(id, spec.tree, spec.suite))
            .map_err(|e| format!("publish: {e}"))?;
        ids.push(id);
    }
    let cache_misses = gw.cache().misses();
    let mut mirror = mirror_of(&gw, &ids, &mut st, durable.then(|| run.data.join("mirror")))?;

    // Traced phase: round 0, the pinned prefix.
    for _ in 0..run.scale.round_ops {
        let op = stream.next_op();
        st.step(&gw, &mut mirror, &op, &mut m.tally)?;
    }
    drop(mirror);
    st.close_journal()?;
    // Commits per second of gateway time, as the untraced phase counts
    // them: the mirror's replay is not part of it.
    let commits =
        st.ops.iter().filter(|o| matches!(o.class, Class::Relabel | Class::Structural)).count();
    let traced_submit: Duration = st.ops.iter().map(|o| o.submit).sum();
    let traced_cps = commits as f64 / traced_submit.as_secs_f64().max(1e-9);

    // The journal's turn: the fleet recovers its traced round; the
    // in-memory document replays its durable probe under the mirror and
    // recovers that.
    let recovery = if durable {
        traced_recovery(gw, &ids, &gw_dir, &mut st.tr, &mut m.tally)?
    } else {
        final_checks(&gw, &ids, &mut m.tally);
        drop(gw);
        let dir = run.data.join("probe");
        let (gw, ids, mut stream) = set_up(run, Some(&dir), 0)?;
        let mut mirror = mirror_of(&gw, &ids, &mut st, Some(run.data.join("mirror")))?;
        for i in 0..run.scale.probe_ops {
            let op = stream.next_of(if i % 2 == 0 { Class::Relabel } else { Class::Structural });
            st.step(&gw, &mut mirror, &op, &mut m.tally)?;
        }
        // The probe never reaches the snapshot cadence: checkpoint the
        // mirror once, outside any op, to time the document's snapshot.
        if let Some(j) = &st.journal {
            for doc in &mirror {
                doc.snapshot(&j.dir, &mut st.tr)?;
            }
        }
        drop(mirror);
        st.close_journal()?;
        traced_recovery(gw, &ids, &dir, &mut st.tr, &mut m.tally)?
    };
    // Untraced rounds of the same kind of stream: the tracing overhead.
    rounds(run, 1, half, m, None)?;
    st.tr.write(&run.data.join("spans.tsv")).map_err(|e| format!("writing spans: {e}"))?;
    Ok(layer_metrics(&st, cache_misses, &recovery, traced_cps, m.lat.commits_per_s()))
}

/// Mirrors every document of `gw`; with `journal_dir`, the mirror also
/// journals into a WAL of its own there.
fn mirror_of(
    gw: &Gateway,
    ids: &[DocId],
    st: &mut TraceState,
    journal_dir: Option<PathBuf>,
) -> Result<Vec<MirrorDoc>, String> {
    let mirror = ids.iter().map(|&id| MirrorDoc::copy(gw, id, &mut st.tr)).collect();
    if let Some(dir) = journal_dir {
        std::fs::create_dir_all(&dir).map_err(|e| format!("mirror dir: {e}"))?;
        // Never flushes on its own: the mirror syncs after every append,
        // so append and fsync get separate spans.
        let (wal, _) =
            WalWriter::open(&wal_path(&dir), usize::MAX).map_err(|e| format!("mirror wal: {e}"))?;
        st.journal = Some(MirrorJournal { dir, wal });
    }
    mirror
}

/// Ends a traced durable round: final checks, an orderly drop, then
/// reads of its snapshots and WAL and its recovery, each under a span.
fn traced_recovery(
    gw: Gateway,
    ids: &[DocId],
    dir: &Path,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<RecoveryTrace, String> {
    final_checks(&gw, ids, tally);
    let live = capture(&gw, ids);
    drop(gw);
    tr.begin("recovery", RECOVERY);
    let snaps = tr.span("persist.read_snapshots", || read_snapshots(dir));
    let scan = tr.span("persist.read_wal", || read_wal(&wal_path(dir)));
    let recovered = tr.span("service.recover", || {
        Gateway::recover_with(signer(), xuc_service::AdmissionMode::Delta, dir, durable_options())
    });
    tr.end();
    let spans = &tr.spans[tr.spans.len() - 3..];
    let out = RecoveryTrace {
        read_snapshots: spans[0].len(),
        read_wal: spans[1].len(),
        recover: spans[2].len(),
        wal_bytes_read: std::fs::metadata(wal_path(dir)).map_or(0, |m| m.len()),
    };
    snaps.map_err(|e| format!("read_snapshots: {e}"))?;
    scan.map_err(|e| format!("read_wal: {e}"))?;
    let recovered = recovered.map_err(|e| format!("recover: {e}"))?;
    check_recovered(&recovered, &live, tally);
    drop(recovered);
    remove_dir(dir)?;
    Ok(out)
}

fn us(d: Duration) -> f64 {
    crate::us(d)
}

/// Mean time per traced op spent in `name` calls, in µs. Means add
/// up: the layers' means sum to the mirror's share of an average op.
fn per_op_mean(st: &TraceState, name: &str) -> f64 {
    let total: f64 = st
        .tr
        .spans
        .iter()
        .filter(|s| s.name == name && s.request < RECOVERY)
        .map(|s| us(s.len()))
        .sum();
    total / st.ops.len().max(1) as f64
}

/// Median length of the `name` spans outside any op, in µs.
fn setup_median(st: &TraceState, name: &str) -> f64 {
    let v: Vec<f64> = st
        .tr
        .spans
        .iter()
        .filter(|s| s.name == name && s.request == SETUP)
        .map(|s| us(s.len()))
        .collect();
    median(&v)
}

fn layer_metrics(
    st: &TraceState,
    cache_misses: u64,
    rec: &RecoveryTrace,
    traced_cps: f64,
    untraced_cps: f64,
) -> (Vec<Metric>, Vec<String>, PinnedCounts) {
    let p = &st.pinned;
    let mut m = Vec::new();
    for span in LAYERS {
        m.push(Metric::new(format!("{span}_us"), per_op_mean(st, span), "us"));
    }
    let snapshots: Vec<f64> =
        st.tr.spans.iter().filter(|s| s.name == "persist.snapshot").map(|s| us(s.len())).collect();
    m.push(Metric::sampled("persist.snapshot_us", median(&snapshots), "us", snapshots.len()));
    let count = |name: &str, v: u64| Metric::new(name, v as f64, "count");
    m.extend([
        count("xpath.full_rewalks", p.full_rewalks),
        count("xpath.dirty_nodes_swept", p.dirty_nodes_swept),
        count("xpath.splice_declined", p.splice_declined),
        count("xpath.eval_set_sweeps", p.eval_set_sweeps),
        count("xpath.fallback_pattern_evals", p.fallback_pattern_evals),
        Metric::new("automata.compile_us", setup_median(st, "automata.compile"), "us"),
        count("service.cache_misses", cache_misses),
        Metric::new(
            "sigstore.certified_entries",
            p.certified_entries as f64 / p.commits.max(1) as f64,
            "count",
        ),
        Metric::new("persist.record_bytes", p.record_bytes as f64 / p.journaled.max(1) as f64, "B"),
        count("persist.fsyncs", p.fsyncs),
        count("persist.snapshots", p.snapshots),
        Metric::new("persist.read_snapshots_us", us(rec.read_snapshots), "us"),
        Metric::new("persist.read_wal_us", us(rec.read_wal), "us"),
        Metric::new("persist.wal_bytes_read", rec.wal_bytes_read as f64, "B"),
        Metric::new(
            "service.replay_us",
            us(rec.recover.saturating_sub(rec.read_snapshots + rec.read_wal)),
            "us",
        ),
        Metric::new("service.publish_us", setup_median(st, "service.publish"), "us"),
    ]);
    let ops = st.ops.len().max(1) as f64;
    let submit: f64 = st.ops.iter().map(|o| us(o.submit)).sum::<f64>() / ops;
    let layers: f64 = st.ops.iter().map(|o| us(o.layers)).sum::<f64>() / ops;
    m.push(Metric::sampled("service.submit_us", submit, "us", st.ops.len()));
    m.push(Metric::sampled("service.self_us", submit - layers, "us", st.ops.len()));
    let coverage = |ops: &mut dyn Iterator<Item = &Traced>| {
        let (layers, submit) =
            ops.fold((0.0, 0.0), |(l, s), o| (l + us(o.layers), s + us(o.submit)));
        layers / submit.max(1e-9)
    };
    m.push(Metric::new("trace.coverage", coverage(&mut st.ops.iter()), "frac"));
    let mut report = vec![format!(
        "traced ops {} (pinned prefix {}), commits/s of gateway time traced {traced_cps:.2} untraced {untraced_cps:.2}",
        st.ops.len(),
        p.ops
    )];
    for class in Class::ALL {
        let name = format!("trace.coverage.{}", class.name());
        let cov = coverage(&mut st.ops.iter().filter(|o| o.class == class));
        m.push(Metric::new(name, cov, "frac"));
        let n = st.ops.iter().filter(|o| o.class == class).count();
        let agreed = st.ops.iter().filter(|o| o.class == class && o.agreed).count();
        report.push(format!(
            "{:<10} ops {n:>5}  mirror agrees {agreed:>5}/{n:<5}  coverage {cov:.3}",
            class.name()
        ));
    }
    let overhead = 1.0 - traced_cps / untraced_cps.max(1e-9);
    m.push(Metric::new("trace.overhead", overhead, "frac"));
    report.push(format!("tracing overhead (commits/s gap) {:.1}%", overhead * 100.0));
    let mirror_us: f64 = st.ops.iter().map(|o| us(o.layers)).sum::<f64>() / ops;
    report.push(format!(
        "mirror replay per traced op {mirror_us:.1} us (not in either phase's commits/s)"
    ));
    report.push(format!("pinned counts: {p:?}"));
    report.push(format!("wal_bytes_per_commit (pinned prefix) {}", p.wal_bytes_per_commit()));
    (m, report, p.clone())
}
