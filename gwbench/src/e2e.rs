//! The end-to-end run: what a user of the gateway sees, with tracing
//! off. Also home of the gateway-driving pieces the traced run shares
//! (set-up, submitting and judging an op, recovery and its checks).

use crate::gen::{deployment, subseed, Class, DocSpec, Op, OpStream, Scale, Workload, SIGNER_KEY};
use crate::{median, ms, peak_rss_mb, percentile, percentile_supported, Metric, Outcome, Tally};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use xuc_persist::persist_counters;
use xuc_service::{
    AdmissionMode, DocId, DurableOptions, Gateway, GatewayState, RejectReason, Verdict,
};
use xuc_sigstore::{Certificate, Signer};
use xuc_xtree::{DataTree, Label, NodeId};

/// Timed recoveries per run (of the `mem_doc` durable probe, of the
/// fleet's first round), spread evenly over the run's op time so that
/// they meet the host in the states the ops meet it; the median is
/// reported.
const RECOVERIES: usize = 5;
/// Ops at the head of round 0 that run and are checked but not timed:
/// the first commits after a publish run slower while the allocator
/// grows into the working set.
const WARM_OPS: usize = 300;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    /// Scratch directory for journals and span dumps; removed
    /// afterwards except for the span dump.
    pub data: PathBuf,
}

/// The flush policy of every durable gateway here: one fsync per
/// commit, a snapshot every 256 commits of a document.
pub fn durable_options() -> DurableOptions {
    DurableOptions { group_commit: 1, snapshot_every: Some(256), ..DurableOptions::default() }
}

/// Seed of the op stream of round `round`.
pub fn stream_seed(seed: u64, round: u64) -> u64 {
    subseed(seed, (1 << 40) + round)
}

pub fn signer() -> Signer {
    Signer::new(SIGNER_KEY)
}

/// Opens a gateway: in memory, or durable on a fresh `dir`.
pub fn open_gateway(dir: Option<&Path>) -> Result<Gateway, String> {
    let Some(dir) = dir else { return Ok(Gateway::new(signer())) };
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    Gateway::recover_with(signer(), AdmissionMode::Delta, dir, durable_options())
        .map_err(|e| format!("opening durable gateway: {e}"))
}

/// Publishes every document, then reads each once (the warm-up).
pub fn publish_all(gw: &Gateway, specs: Vec<DocSpec>) -> Result<Vec<DocId>, String> {
    let mut ids = Vec::with_capacity(specs.len());
    for spec in specs {
        gw.publish(spec.id, spec.tree, spec.suite).map_err(|e| format!("publish: {e}"))?;
        ids.push(spec.id);
    }
    for &id in &ids {
        std::hint::black_box(read(gw, id));
    }
    Ok(ids)
}

/// A user's read: the verdict, the published tree and its certificate.
pub fn read(gw: &Gateway, id: DocId) -> (Verdict, Option<DataTree>, Option<Certificate>) {
    (gw.read(id), gw.snapshot(id), gw.certificate(id))
}

/// Judges a commit-class verdict against the op's expectation.
pub fn judge(op: &Op, v: &Verdict) -> Option<String> {
    let ok = match (op.class, v) {
        (Class::Relabel | Class::Structural, Verdict::Accepted { commit }) => {
            *commit == op.expect_commit
        }
        (Class::Reject, Verdict::Rejected(RejectReason::Violation { .. })) => true,
        _ => false,
    };
    (!ok).then(|| format!("{} op on {}: got `{v}`", op.class.name(), op.request.doc))
}

/// Judges a read: served, with the tree size the model expects and a
/// certificate over the whole suite.
pub fn judge_read(
    op: &Op,
    v: &Verdict,
    tree: Option<&DataTree>,
    cert: Option<&Certificate>,
) -> Option<String> {
    let ok = *v == Verdict::Served
        && tree.is_some_and(|t| t.len() == op.expect_len)
        && cert.is_some_and(|c| c.entries.len() == op.suite_len);
    (!ok).then(|| format!("read of {}: got `{v}` or a wrong tree/certificate", op.request.doc))
}

/// Submits `op` (or performs the read) and returns its latency and any
/// problem with the outcome. Only the gateway calls are timed; the
/// returned values are checked and dropped afterwards.
pub fn submit(gw: &Gateway, op: &Op) -> (Duration, Option<String>) {
    if op.class == Class::Read {
        let t = Instant::now();
        let (v, tree, cert) = read(gw, op.request.doc);
        let d = t.elapsed();
        (d, judge_read(op, &v, tree.as_ref(), cert.as_ref()))
    } else {
        let t = Instant::now();
        let v = gw.submit(&op.request);
        let d = t.elapsed();
        (d, judge(op, &v))
    }
}

/// What must survive a restart, per document: the preorder snapshot,
/// the certificate digest and the commit count.
pub type LiveState = Vec<(DocId, Vec<(NodeId, Label, Option<usize>)>, u64, u64)>;

pub fn capture(gw: &Gateway, ids: &[DocId]) -> LiveState {
    ids.iter()
        .map(|&id| {
            let arc = gw.store().document(id).expect("published document");
            let doc = arc.lock();
            (id, doc.tree().preorder_snapshot(), doc.certificate().digest(), doc.commits())
        })
        .collect()
}

/// Asserts `gw` holds exactly `live` and is serving.
pub fn check_recovered(gw: &Gateway, live: &LiveState, tally: &mut Tally) {
    tally.check(gw.state() == GatewayState::Serving, || {
        format!("recovered gateway is {:?}, not Serving", gw.state())
    });
    let ids: Vec<DocId> = live.iter().map(|(id, ..)| *id).collect();
    tally.check(gw.store().len() == ids.len(), || {
        format!("recovered {} documents, expected {}", gw.store().len(), ids.len())
    });
    if gw.store().len() != ids.len() {
        return;
    }
    for (want, got) in live.iter().zip(capture(gw, &ids)) {
        tally.check(*want == got, || format!("document {} differs after recovery", want.0));
    }
}

/// Opens the journal in `dir` and times it.
pub fn recover(dir: &Path) -> Result<(Duration, Gateway), String> {
    let t = Instant::now();
    let gw = Gateway::recover_with(signer(), AdmissionMode::Delta, dir, durable_options())
        .map_err(|e| format!("recover: {e}"))?;
    Ok((t.elapsed(), gw))
}

/// Latency samples per class, in ms.
#[derive(Debug, Default)]
pub struct Latencies {
    pub by_class: [Vec<f64>; 4],
    /// Total time inside gateway calls, all classes.
    pub busy: Duration,
    pub commits: u64,
}

impl Latencies {
    pub fn add(&mut self, class: Class, d: Duration) {
        self.by_class[class.index()].push(ms(d));
        self.busy += d;
        if matches!(class, Class::Relabel | Class::Structural) {
            self.commits += 1;
        }
    }

    pub fn commits_per_s(&self) -> f64 {
        self.commits as f64 / self.busy.as_secs_f64().max(1e-9)
    }

    /// Report lines: commits per second, then every class's mean, p50
    /// and p90, each percentile only where it has ten samples beyond it.
    /// They carry no bound: on a shared host they do not repeat from one
    /// run to the next (see README.md, Steadiness).
    pub fn report(&self, report: &mut Vec<String>) {
        report.push(format!("{:<34} {:>16.4} 1/s", "commits_per_s", self.commits_per_s()));
        for class in Class::ALL {
            let mut v = self.by_class[class.index()].clone();
            if v.is_empty() {
                continue;
            }
            let n = v.len();
            let mean = v.iter().sum::<f64>() / n as f64;
            report.push(format!(
                "{:<34} {mean:>16.4} ms     n={n}",
                format!("{}_mean_ms", class.name())
            ));
            v.sort_by(f64::total_cmp);
            for pct in [50, 90] {
                if percentile_supported(n, pct) {
                    let name = format!("{}_p{pct}_ms", class.name());
                    report.push(format!("{name:<34} {:>16.4} ms     n={n}", percentile(&v, pct)));
                }
            }
        }
    }
}

/// What an end-to-end measurement collects.
#[derive(Debug, Default)]
pub struct Measured {
    pub tally: Tally,
    pub lat: Latencies,
    /// Set-up times, s.
    pub setup: Vec<f64>,
    /// Recovery times, s.
    pub recover_s: Vec<f64>,
    /// Resident-set high-water mark at the end of the run's first
    /// recovery, MiB.
    pub peak_rss_mb: f64,
}

/// Runs the end-to-end measurement of `run`.
pub fn run(run: &Run) -> Outcome {
    let mut m = Measured::default();
    let budget = Duration::from_secs_f64(run.seconds);
    let cost = match run.workload {
        // The probe goes first, so the heap its recoveries peak on has
        // the same history whatever the gateway's speed.
        Workload::MemDoc => durable_probe(run, &mut m)
            .and_then(|journal| rounds(run, 0, budget, &mut m, Some(journal))),
        Workload::DurableFleet => rounds(run, 0, budget, &mut m, None),
    };
    let Measured { mut tally, lat, setup, recover_s, peak_rss_mb } = m;
    let cost = cost.unwrap_or_else(|e| {
        tally.check(false, || e);
        JournalCost::default()
    });
    let metrics = vec![
        Metric::sampled("setup_s", median(&setup), "s", setup.len()),
        Metric::new("wal_bytes_per_commit", cost.wal_bytes_per_commit, "B"),
        Metric::new("journal_mb", cost.disk_bytes as f64 / (1024.0 * 1024.0), "MiB"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    let mut report = Vec::new();
    lat.report(&mut report);
    report.push(format!(
        "{:<34} {:>16.4} s      n={}",
        "recover_s",
        median(&recover_s),
        recover_s.len()
    ));
    let samples = |v: &[f64]| v.iter().map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(" ");
    report.push(format!("recover_s samples: {}", samples(&recover_s)));
    report.push(format!(
        "ops attempted {} failed {} (ops_failed_frac {:.4})",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    ));
    Outcome { tally, metrics, report }
}

/// Generates the deployment and the op stream of `round` and publishes
/// it on a fresh gateway (durable when `dir` is given).
pub fn set_up(
    run: &Run,
    dir: Option<&Path>,
    round: u64,
) -> Result<(Gateway, Vec<DocId>, OpStream), String> {
    let specs = deployment(run.workload, run.scale, run.seed);
    let stream = OpStream::new(run.workload, &specs, stream_seed(run.seed, round));
    let gw = open_gateway(dir)?;
    let ids = publish_all(&gw, specs)?;
    Ok((gw, ids, stream))
}

/// The `mem_doc` durable probe: commits drawn from the same seed on a
/// journaled copy of the document. Returns its journal, for the timed
/// recoveries and the journal's cost.
fn durable_probe(run: &Run, m: &mut Measured) -> Result<Journal, String> {
    let dir = run.data.join("probe");
    let (gw, ids, mut stream) = set_up(run, Some(&dir), 0)?;
    let mut bytes = 0;
    for i in 0..run.scale.probe_ops {
        // A fixed mix, so every seed journals and replays the same work.
        let op = stream.next_of(if i % 2 == 0 { Class::Relabel } else { Class::Structural });
        let before = persist_counters().wal_bytes;
        m.tally.op(submit(&gw, &op).1);
        bytes += persist_counters().wal_bytes - before;
    }
    final_checks(&gw, &ids, &mut m.tally);
    let wal_per_commit = bytes as f64 / run.scale.probe_ops.max(1) as f64;
    Journal::close(gw, &ids, &dir, wal_per_commit)
}

/// Rounds from `first` on: set-up (on a fresh journal for the fleet), a
/// fixed number of ops, checks — until `budget` of op time is spent.
/// Round 0 warms up on its first ops. The timed recoveries replay
/// `journal` or, on the fleet, the journal of round 0, so it is the same
/// whatever the gateway's speed; they run between rounds, the k-th once
/// k/[`RECOVERIES`] of the budget is spent. Returns the cost of the
/// journal replayed (zero when there is none).
pub fn rounds(
    run: &Run,
    first: u64,
    budget: Duration,
    m: &mut Measured,
    mut journal: Option<Journal>,
) -> Result<JournalCost, String> {
    let durable = run.workload == Workload::DurableFleet;
    let mut spent = Duration::ZERO;
    let mut round = first;
    while round == first || spent < budget {
        let dir = run.data.join(format!("round-{round}"));
        let t = Instant::now();
        let (gw, ids, mut stream) = set_up(run, durable.then_some(dir.as_path()), round)?;
        m.setup.push(t.elapsed().as_secs_f64());
        let (mut bytes, mut commits) = (0, 0u64);
        let warm = if round == 0 { WARM_OPS.min(run.scale.round_ops / 2) } else { 0 };
        let t = Instant::now();
        for i in 0..run.scale.round_ops {
            let op = stream.next_op();
            let before = persist_counters().wal_bytes;
            let (d, problem) = submit(&gw, &op);
            if matches!(op.class, Class::Relabel | Class::Structural) {
                bytes += persist_counters().wal_bytes - before;
                commits += 1;
            }
            if i >= warm {
                m.lat.add(op.class, d);
            }
            m.tally.op(problem);
        }
        spent += t.elapsed();
        final_checks(&gw, &ids, &mut m.tally);
        if durable && round == 0 {
            journal = Some(Journal::close(gw, &ids, &dir, bytes as f64 / commits.max(1) as f64)?);
        } else if durable {
            drop(gw);
            remove_dir(&dir)?;
        }
        if let Some(j) = &journal {
            while m.recover_s.len() < RECOVERIES
                && spent >= budget * m.recover_s.len() as u32 / RECOVERIES as u32
            {
                j.recover_once(m)?;
            }
        }
        round += 1;
    }
    let Some(j) = journal else { return Ok(JournalCost::default()) };
    remove_dir(&j.dir)?;
    Ok(j.cost)
}

/// The end-of-run checks on a live gateway: every certificate verifies
/// against its tree, and the gateway is still serving.
pub fn final_checks(gw: &Gateway, ids: &[DocId], tally: &mut Tally) {
    for &id in ids {
        let (v, tree, cert) = read(gw, id);
        let ok = v == Verdict::Served
            && matches!((tree, cert), (Some(t), Some(c)) if c.verify(SIGNER_KEY, &t).is_ok());
        tally.check(ok, || format!("certificate of {id} does not verify against its tree"));
    }
    tally.check(gw.state() == GatewayState::Serving, || format!("gateway ends {:?}", gw.state()));
}

/// What a fixed journal costs: bytes appended per accepted commit, and
/// the bytes on disk (WAL and snapshots) that a restart reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct JournalCost {
    pub wal_bytes_per_commit: f64,
    pub disk_bytes: u64,
}

/// A closed durable gateway's journal and the state it must recover.
pub struct Journal {
    dir: PathBuf,
    live: LiveState,
    cost: JournalCost,
}

impl Journal {
    /// Captures what `gw` serves, then drops it in order and measures
    /// the journal it leaves in `dir`.
    pub fn close(
        gw: Gateway,
        ids: &[DocId],
        dir: &Path,
        wal_bytes_per_commit: f64,
    ) -> Result<Journal, String> {
        let live = capture(&gw, ids);
        drop(gw);
        let cost = JournalCost { wal_bytes_per_commit, disk_bytes: dir_bytes(dir)? };
        Ok(Journal { dir: dir.to_owned(), live, cost })
    }

    /// One timed recovery into `m.recover_s`, checked against the live
    /// state. The run's peak memory is taken after its first recovery: a
    /// restart recovers once, and later repeats only add heap
    /// fragmentation that varies from process to process.
    fn recover_once(&self, m: &mut Measured) -> Result<(), String> {
        let (d, recovered) = recover(&self.dir)?;
        m.recover_s.push(d.as_secs_f64());
        if m.peak_rss_mb == 0.0 {
            m.peak_rss_mb = peak_rss_mb();
        }
        check_recovered(&recovered, &self.live, &mut m.tally);
        Ok(())
    }
}

/// Bytes of the files in `dir` (a journal: the WAL and one snapshot
/// file per document, side by side).
fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let read_err = |e: std::io::Error| format!("reading {}: {e}", dir.display());
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(read_err)? {
        total += entry.and_then(|e| e.metadata()).map_err(read_err)?.len();
    }
    Ok(total)
}

pub fn remove_dir(dir: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))
}
