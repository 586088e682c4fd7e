//! The write-ahead log: length-prefixed, checksummed frames with group
//! commit and a torn-tail recovery policy.
//!
//! # Frame format
//!
//! The file opens with the 8-byte magic `XUCWAL02`; every frame after it is
//!
//! ```text
//! [u32 payload length, LE][u64 FNV-1a-64 checksum of payload, LE][payload]
//! ```
//!
//! where the payload is one [`WalRecord`] in the [`crate::codec`] encoding.
//! A commit record holds the edit, not its result: the document, the
//! commit number, the update batch and the certificate's chain link
//! `(prev_digest, chain_tag)` — O(batch) bytes however large the signed
//! range sets are. Replay re-derives the certificate and checks the link
//! (see [`WalRecord::Commit`]).
//!
//! A file whose complete 8-byte header is not the current magic — an
//! older format version such as `XUCWAL01`, or not a WAL at all — is
//! refused with [`io::ErrorKind::InvalidData`] and left untouched; only a
//! header cut short by a crash counts as a torn tail.
//!
//! # Torn-tail policy
//!
//! A crash can leave the file ending in a half-written frame (torn write)
//! or a frame whose bytes never reached the platter (checksum mismatch).
//! [`read_wal`] scans frames in order and **stops at the first bad one**:
//! everything before it is the durable prefix, everything after is
//! discarded — recovery truncates the file there and starts serving
//! ([`WalWriter::open`] does the truncation). Refusing to start would turn
//! every unclean shutdown into an outage; trailing garbage after a bad
//! frame is unreachable anyway because frames are only ever appended.
//!
//! # Group commit
//!
//! [`WalWriter::append`] buffers encoded frames in memory and writes +
//! syncs once every `group_commit` frames (and on [`WalWriter::sync`] /
//! drop). A crash between syncs loses at most the buffered suffix — which
//! is exactly the [`WriteFault::LoseBuffered`] fault the kill/restart
//! differential harness injects.

use crate::codec::{checksum64, Decoder, Encoder};
use crate::{
    decode_suite, decode_tree, decode_updates, encode_suite, encode_tree, encode_updates,
    DecodeError,
};
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;
use xuc_core::Constraint;
use xuc_sigstore::Certificate;
use xuc_xtree::{DataTree, Update};

const WAL_MAGIC: &[u8; 8] = b"XUCWAL02";
const FRAME_HEADER: u64 = 4 + 8;

/// One logged event. The WAL records *accepted* state transitions only —
/// rejected batches leave no trace (they changed nothing).
// Publish carries a whole document tree by design; records are built
// once and consumed at the codec boundary, so boxing buys nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum WalRecord {
    /// A document entered the store under `doc` with its initial tree and
    /// constraint suite. The initial certificate is recomputed on replay
    /// (publish is deterministic), so it is not logged.
    Publish { doc: String, tree: DataTree, suite: Vec<Constraint> },
    /// Commit number `commit` of `doc`: the accepted update batch and the
    /// certificate the gateway signed for the post-batch state. Only the
    /// certificate's chain [`link`](Certificate::link) is encoded, so a
    /// decoded `cert` is link-only (no entries). Replay re-admits the
    /// batch through the live admission path, which re-derives the whole
    /// certificate, and checks that its link equals this one.
    Commit { doc: String, commit: u64, updates: Vec<Update>, cert: Certificate },
}

/// Record equality is equality of what the encoding keeps: trees compare
/// by preorder snapshot (ids, labels **and** sibling order), suites and
/// update batches exactly, and a commit's certificate by its chain
/// [`link`](Certificate::link) alone — a full certificate equals its
/// link-only decode.
impl PartialEq for WalRecord {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                WalRecord::Publish { doc: a, tree: ta, suite: sa },
                WalRecord::Publish { doc: b, tree: tb, suite: sb },
            ) => a == b && ta.preorder_snapshot() == tb.preorder_snapshot() && sa == sb,
            (
                WalRecord::Commit { doc: a, commit: ca, updates: ua, cert: xa },
                WalRecord::Commit { doc: b, commit: cb, updates: ub, cert: xb },
            ) => a == b && ca == cb && ua == ub && xa.link() == xb.link(),
            _ => false,
        }
    }
}

impl WalRecord {
    /// The document this record concerns.
    pub fn doc(&self) -> &str {
        match self {
            WalRecord::Publish { doc, .. } | WalRecord::Commit { doc, .. } => doc,
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            WalRecord::Publish { doc, tree, suite } => {
                e.u8(1);
                e.str(doc);
                encode_tree(&mut e, tree);
                encode_suite(&mut e, suite);
            }
            WalRecord::Commit { doc, commit, updates, cert } => {
                e.u8(2);
                e.str(doc);
                e.u64(*commit);
                encode_updates(&mut e, updates);
                e.u64(cert.prev_digest);
                e.u64(cert.chain_tag);
            }
        }
        e.into_bytes()
    }

    pub fn decode(payload: &[u8]) -> Result<WalRecord, DecodeError> {
        let mut d = Decoder::new(payload);
        let rec = match d.u8()? {
            1 => {
                let doc = d.str()?.to_owned();
                let tree = decode_tree(&mut d)?;
                let suite = decode_suite(&mut d)?;
                WalRecord::Publish { doc, tree, suite }
            }
            2 => {
                let doc = d.str()?.to_owned();
                let commit = d.u64()?;
                let updates = decode_updates(&mut d)?;
                let prev_digest = d.u64()?;
                let chain_tag = d.u64()?;
                let cert = Certificate { entries: Vec::new(), prev_digest, chain_tag };
                WalRecord::Commit { doc, commit, updates, cert }
            }
            t => return Err(DecodeError::BadTag(t)),
        };
        d.finish()?;
        Ok(rec)
    }
}

/// The result of scanning a WAL file: the durable records, how many bytes
/// of the file they cover, and whether a bad tail was found after them.
#[derive(Debug)]
pub struct WalScan {
    pub records: Vec<WalRecord>,
    /// Length of the valid prefix (magic + whole good frames). Recovery
    /// truncates the file to this length before appending.
    pub valid_len: u64,
    /// True when bytes existed past `valid_len` — a torn or corrupted
    /// tail that the torn-tail policy discards.
    pub torn: bool,
}

/// Scans `path` frame by frame, stopping at the first torn or corrupted
/// frame (see the module docs). A missing file is an empty log; a file
/// shorter than the magic is a torn header. A complete header other than
/// the current magic is an [`io::ErrorKind::InvalidData`] error, so no
/// caller truncates a log it cannot read.
pub fn read_wal(path: &Path) -> io::Result<WalScan> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok(WalScan { records: Vec::new(), valid_len: 0, torn: false })
        }
        Err(e) => return Err(e),
    };
    let Some(header) = bytes.get(..WAL_MAGIC.len()) else {
        // A crash cut the header short: the whole file is a torn tail.
        return Ok(WalScan { records: Vec::new(), valid_len: 0, torn: !bytes.is_empty() });
    };
    if header != WAL_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{}: header {} is not this format's {}; the file is left as it is",
                path.display(),
                header.escape_ascii(),
                WAL_MAGIC.escape_ascii()
            ),
        ));
    }
    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            return Ok(WalScan { records, valid_len: pos as u64, torn: false });
        }
        let torn = |records: Vec<WalRecord>| WalScan { records, valid_len: pos as u64, torn: true };
        if rest.len() < FRAME_HEADER as usize {
            return Ok(torn(records));
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        let sum = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes"));
        let Some(payload) = rest.get(FRAME_HEADER as usize..FRAME_HEADER as usize + len) else {
            return Ok(torn(records));
        };
        if checksum64(payload) != sum {
            return Ok(torn(records));
        }
        let Ok(rec) = WalRecord::decode(payload) else {
            return Ok(torn(records));
        };
        records.push(rec);
        pos += FRAME_HEADER as usize + len;
    }
}

/// A simulated storage fault. The first three are **crash-time** faults,
/// applied while tearing a writer down ([`WalWriter::simulate_crash`]):
/// they model what a real power loss can do to the tail of an
/// append-only file. The rest are **write-time** faults, armed on a live
/// writer (`WalWriter::inject_fault`, behind the `test-hooks` feature):
/// they surface as IO errors or latency out of [`WalWriter::sync`], which
/// is how the chaos harness exercises the retry/degrade machinery above
/// the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// The in-memory group-commit buffer never reached the file: every
    /// frame since the last sync is gone.
    LoseBuffered,
    /// The last durable frame vanishes whole (its sectors never hit the
    /// platter despite the write returning).
    DropLastFrame,
    /// The last durable frame is cut mid-bytes — a torn write the
    /// checksum scan must detect and discard.
    TearLastFrame,
    /// The next `n` syncs fail with an `EINTR`-class transient error
    /// (nothing reaches the file); the sync after that succeeds. The
    /// retry loop above the log must absorb these invisibly.
    TransientOnce { n: u32 },
    /// Every sync from now on fails with `StorageFull` — the canonical
    /// fatal, non-retryable fault. Escalation (seal + degrade) is the
    /// only correct response.
    DiskFull,
    /// Every sync is charged `micros` of virtual latency (accumulated in
    /// `WalWriter::injected_latency_micros`, never actually slept)
    /// before succeeding — for modeling slow disks without slow tests.
    Latency { micros: u64 },
}

/// Live-writer fault state (`test-hooks` builds only; release builds
/// carry no injection fields).
#[cfg(any(test, feature = "test-hooks"))]
#[derive(Debug, Default)]
struct Injection {
    armed: Option<WriteFault>,
    latency_micros: u64,
}

/// Append handle on a WAL file. See the module docs for the frame format
/// and the group-commit discipline.
pub struct WalWriter {
    file: File,
    /// Durable file length (bytes actually written through).
    len: u64,
    /// Offset of the most recently written frame — where the fault
    /// injector cuts.
    last_frame_start: u64,
    pending: Vec<u8>,
    pending_frames: usize,
    group_commit: usize,
    /// Set by [`simulate_crash`](Self::simulate_crash) and [`seal`](Self::seal):
    /// suppresses the drop-time sync so crashed/sealed state stays put.
    dead: bool,
    #[cfg(any(test, feature = "test-hooks"))]
    injection: Injection,
}

impl WalWriter {
    /// Opens (creating if absent) the log at `path`, scans it, truncates
    /// any torn tail, and positions for appending. Returns the writer and
    /// the durable records for replay. A file [`read_wal`] refuses (another
    /// format version, or not a WAL) is an error and is not written to.
    pub fn open(path: &Path, group_commit: usize) -> io::Result<(WalWriter, WalScan)> {
        let scan = read_wal(path)?;
        // truncate(false): the valid prefix must survive reopening — only
        // a torn tail is cut, via the explicit set_len below.
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let mut len = scan.valid_len;
        if len == 0 {
            file.set_len(0)?;
            file.write_all(WAL_MAGIC)?;
            len = WAL_MAGIC.len() as u64;
        } else if scan.torn {
            file.set_len(len)?;
        }
        file.seek(SeekFrom::Start(len))?;
        file.sync_all()?;
        let writer = WalWriter {
            file,
            len,
            last_frame_start: len,
            pending: Vec::new(),
            pending_frames: 0,
            group_commit: group_commit.max(1),
            dead: false,
            #[cfg(any(test, feature = "test-hooks"))]
            injection: Injection::default(),
        };
        Ok((writer, scan))
    }

    /// Frames `record` into the group-commit buffer; writes and syncs the
    /// buffer once it holds `group_commit` frames.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        let payload = record.encode();
        crate::stats::bump(&crate::stats::WAL_FRAMES, 1);
        crate::stats::bump(&crate::stats::WAL_BYTES, 12 + payload.len() as u64);
        self.last_frame_start = self.len + self.pending.len() as u64;
        self.pending.extend_from_slice(
            &u32::try_from(payload.len()).expect("payload fits u32").to_le_bytes(),
        );
        self.pending.extend_from_slice(&checksum64(&payload).to_le_bytes());
        self.pending.extend_from_slice(&payload);
        self.pending_frames += 1;
        if self.pending_frames >= self.group_commit {
            self.sync()?;
        }
        Ok(())
    }

    /// Writes and syncs any buffered frames.
    ///
    /// Failure leaves the buffer **intact** and the call **idempotent**:
    /// every attempt re-seeks to the durable length first, so a retry
    /// overwrites whatever partial tail an earlier failed attempt may
    /// have left instead of appending after it. That is what lets the
    /// journal's bounded-retry loop simply call `sync` again on a
    /// transient fault.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        if let Some(e) = self.injected_sync_error() {
            return Err(e);
        }
        self.file.seek(SeekFrom::Start(self.len))?;
        self.file.write_all(&self.pending)?;
        self.file.sync_all()?;
        crate::stats::bump(&crate::stats::WAL_FLUSHES, 1);
        crate::stats::bump(&crate::stats::WAL_FSYNCS, 1);
        self.len += self.pending.len() as u64;
        self.pending.clear();
        self.pending_frames = 0;
        Ok(())
    }

    /// Surfaces (and steps) any armed write-time fault. Compiled to a
    /// no-op without `test-hooks`.
    #[allow(unused_mut, clippy::needless_return)]
    fn injected_sync_error(&mut self) -> Option<io::Error> {
        #[cfg(any(test, feature = "test-hooks"))]
        {
            match self.injection.armed {
                Some(WriteFault::TransientOnce { n }) if n > 0 => {
                    self.injection.armed =
                        (n > 1).then_some(WriteFault::TransientOnce { n: n - 1 });
                    return Some(io::Error::new(
                        io::ErrorKind::Interrupted,
                        "injected transient IO fault",
                    ));
                }
                Some(WriteFault::TransientOnce { .. }) => self.injection.armed = None,
                Some(WriteFault::DiskFull) => {
                    return Some(io::Error::new(
                        io::ErrorKind::StorageFull,
                        "injected disk-full fault",
                    ));
                }
                Some(WriteFault::Latency { micros }) => {
                    self.injection.latency_micros += micros;
                }
                Some(_) | None => {}
            }
        }
        None
    }

    /// Arms a write-time fault on this writer; the next syncs observe it
    /// (see the [`WriteFault`] variants). Re-arming replaces the previous
    /// fault; crash-time variants armed here are inert until
    /// [`simulate_crash`](Self::simulate_crash).
    #[cfg(any(test, feature = "test-hooks"))]
    pub fn inject_fault(&mut self, fault: WriteFault) {
        self.injection.armed = Some(fault);
    }

    /// Virtual latency accumulated by [`WriteFault::Latency`] syncs.
    #[cfg(any(test, feature = "test-hooks"))]
    pub fn injected_latency_micros(&self) -> u64 {
        self.injection.latency_micros
    }

    /// Seals the writer: discards buffered frames and suppresses all
    /// further IO including the drop-time sync. The on-disk log stays
    /// exactly as the last successful sync left it — this is how a
    /// degraded gateway stops journaling without risking further damage.
    pub fn seal(&mut self) {
        self.pending.clear();
        self.pending_frames = 0;
        self.dead = true;
    }

    /// Whether [`seal`](Self::seal) (or a simulated crash) has shut this
    /// writer down.
    pub fn is_sealed(&self) -> bool {
        self.dead
    }

    /// Durable bytes (what a crash without faults preserves).
    pub fn durable_len(&self) -> u64 {
        self.len
    }

    /// Number of frames waiting in the group-commit buffer.
    pub fn pending_frames(&self) -> usize {
        self.pending_frames
    }

    /// Empties the log back to just its magic header (all records are
    /// covered by snapshots). The caller's bookkeeping of what was logged
    /// must be reset alongside.
    pub fn truncate_all(&mut self) -> io::Result<()> {
        self.pending.clear();
        self.pending_frames = 0;
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(WAL_MAGIC)?;
        self.file.sync_all()?;
        crate::stats::bump(&crate::stats::WAL_TRUNCATIONS, 1);
        crate::stats::bump(&crate::stats::WAL_FSYNCS, 1);
        self.len = WAL_MAGIC.len() as u64;
        self.last_frame_start = self.len;
        Ok(())
    }

    /// Kills the writer as a crash would, optionally mangling the tail of
    /// the file first. After this the writer performs no further IO (the
    /// drop-time sync is suppressed).
    pub fn simulate_crash(mut self, fault: WriteFault) -> io::Result<()> {
        match fault {
            WriteFault::LoseBuffered => {
                // The buffered frames simply never existed.
                self.pending.clear();
                self.pending_frames = 0;
            }
            WriteFault::DropLastFrame => {
                // Make everything durable first, then drop the final
                // frame whole — models a write acknowledged but lost.
                self.sync()?;
                if self.last_frame_start < self.len {
                    self.file.set_len(self.last_frame_start)?;
                    self.file.sync_all()?;
                }
            }
            WriteFault::TearLastFrame => {
                // Make everything durable, then cut the final frame
                // mid-bytes — the torn tail read_wal must discard.
                self.sync()?;
                if self.last_frame_start < self.len {
                    let frame = self.len - self.last_frame_start;
                    let keep = self.last_frame_start + 1 + (frame - 1) / 2;
                    self.file.set_len(keep)?;
                    self.file.sync_all()?;
                }
            }
            WriteFault::TransientOnce { .. }
            | WriteFault::DiskFull
            | WriteFault::Latency { .. } => {
                // Write-time faults (armed via `inject_fault`): at crash
                // time they reduce to losing whatever the failing sync
                // never wrote — the buffered suffix.
                self.pending.clear();
                self.pending_frames = 0;
            }
        }
        self.dead = true;
        Ok(())
    }
}

impl Drop for WalWriter {
    /// A clean shutdown flushes the group-commit buffer; a simulated
    /// crash does not.
    fn drop(&mut self) {
        if !self.dead {
            let _ = self.sync();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xuc_core::parse_constraint;
    use xuc_sigstore::Signer;
    use xuc_xtree::{parse_term, Label, NodeId};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("xuc-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn sample_records() -> Vec<WalRecord> {
        let tree = parse_term("h(patient#2(visit#3))").unwrap();
        let suite = vec![parse_constraint("(/patient/visit, ↑)").unwrap()];
        let cert = Signer::new(7).certify(&tree, &suite);
        vec![
            WalRecord::Publish { doc: "h".into(), tree, suite },
            WalRecord::Commit {
                doc: "h".into(),
                commit: 1,
                updates: vec![Update::Relabel {
                    node: NodeId::from_raw(3),
                    label: Label::new("note"),
                }],
                cert,
            },
        ]
    }

    #[test]
    fn append_sync_read_round_trip() {
        let path = tmp("roundtrip");
        let records = sample_records();
        {
            let (mut w, scan) = WalWriter::open(&path, 1).unwrap();
            assert!(scan.records.is_empty() && !scan.torn);
            for r in &records {
                w.append(r).unwrap();
            }
        }
        let scan = read_wal(&path).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records, records);
        // Reopening appends after the existing tail.
        {
            let (mut w, scan) = WalWriter::open(&path, 1).unwrap();
            assert_eq!(scan.records.len(), 2);
            w.append(&records[1]).unwrap();
        }
        assert_eq!(read_wal(&path).unwrap().records.len(), 3);
    }

    #[test]
    fn group_commit_buffers_until_threshold() {
        let path = tmp("group");
        let records = sample_records();
        let (mut w, _) = WalWriter::open(&path, 3).unwrap();
        w.append(&records[0]).unwrap();
        w.append(&records[1]).unwrap();
        assert_eq!(w.pending_frames(), 2);
        // Nothing durable yet beyond the magic.
        assert_eq!(w.durable_len(), WAL_MAGIC.len() as u64);
        w.append(&records[1]).unwrap();
        assert_eq!(w.pending_frames(), 0, "third frame triggers the group sync");
        assert!(w.durable_len() > WAL_MAGIC.len() as u64);
    }

    #[test]
    fn lose_buffered_drops_exactly_the_unsynced_suffix() {
        let path = tmp("lose");
        let records = sample_records();
        let (mut w, _) = WalWriter::open(&path, 10).unwrap();
        w.append(&records[0]).unwrap();
        w.sync().unwrap();
        w.append(&records[1]).unwrap();
        w.simulate_crash(WriteFault::LoseBuffered).unwrap();
        let scan = read_wal(&path).unwrap();
        assert!(!scan.torn, "lost buffer leaves a clean file");
        assert_eq!(scan.records, records[..1]);
    }

    #[test]
    fn drop_last_frame_is_clean_truncation() {
        let path = tmp("drop");
        let records = sample_records();
        let (mut w, _) = WalWriter::open(&path, 1).unwrap();
        for r in &records {
            w.append(r).unwrap();
        }
        w.simulate_crash(WriteFault::DropLastFrame).unwrap();
        let scan = read_wal(&path).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records, records[..1]);
    }

    #[test]
    fn torn_tail_is_detected_and_truncated_on_reopen() {
        let path = tmp("tear");
        let records = sample_records();
        let (mut w, _) = WalWriter::open(&path, 1).unwrap();
        for r in &records {
            w.append(r).unwrap();
        }
        let full = std::fs::metadata(&path).unwrap().len();
        w.simulate_crash(WriteFault::TearLastFrame).unwrap();
        let cut = std::fs::metadata(&path).unwrap().len();
        assert!(cut < full, "the tear must remove bytes");
        let scan = read_wal(&path).unwrap();
        assert!(scan.torn, "half a frame is a torn tail");
        assert_eq!(scan.records, records[..1]);
        // Reopening truncates the tail and serves appends again.
        let (mut w, scan) = WalWriter::open(&path, 1).unwrap();
        assert_eq!(scan.records.len(), 1);
        w.append(&records[1]).unwrap();
        drop(w);
        let scan = read_wal(&path).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records, records);
    }

    #[test]
    fn bit_flip_invalidates_the_frame() {
        let path = tmp("flip");
        let records = sample_records();
        {
            let (mut w, _) = WalWriter::open(&path, 1).unwrap();
            for r in &records {
                w.append(r).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 3;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let scan = read_wal(&path).unwrap();
        assert!(scan.torn, "checksum must catch the flip");
        assert_eq!(scan.records, records[..1]);
    }

    #[test]
    fn missing_and_headerless_files_are_empty_logs() {
        let path = tmp("empty");
        let scan = read_wal(&path).unwrap();
        assert!(scan.records.is_empty() && !scan.torn && scan.valid_len == 0);
        std::fs::write(&path, b"garbage").unwrap();
        let scan = read_wal(&path).unwrap();
        assert!(scan.records.is_empty() && scan.torn);
        let (w, scan) = WalWriter::open(&path, 1).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(w.durable_len(), WAL_MAGIC.len() as u64);
    }

    #[test]
    fn commit_record_encodes_the_link_alone() {
        let records = sample_records();
        let WalRecord::Commit { doc, commit, updates, cert } = &records[1] else { unreachable!() };
        assert!(!cert.entries.is_empty());
        let link_only = WalRecord::Commit {
            doc: doc.clone(),
            commit: *commit,
            updates: updates.clone(),
            cert: cert.link_only(),
        };
        assert_eq!(records[1].encode(), link_only.encode(), "entries never reach the frame");
        let back = WalRecord::decode(&records[1].encode()).unwrap();
        let WalRecord::Commit { cert: decoded, .. } = &back else { unreachable!() };
        assert!(decoded.entries.is_empty());
        assert_eq!(decoded.link(), cert.link());
        assert_eq!(back, records[1], "a commit compares by its link");
        let mut forged = cert.clone();
        forged.chain_tag ^= 1;
        let forged = WalRecord::Commit {
            doc: doc.clone(),
            commit: *commit,
            updates: updates.clone(),
            cert: forged,
        };
        assert_ne!(back, forged);
    }

    #[test]
    fn older_format_is_refused_and_left_untouched() {
        // A version-1 log: its magic, then a commit frame that still
        // carries the whole certificate.
        let path = tmp("v1");
        let WalRecord::Commit { doc, commit, updates, cert } = &sample_records()[1] else {
            unreachable!()
        };
        let mut e = Encoder::new();
        e.u8(2);
        e.str(doc);
        e.u64(*commit);
        encode_updates(&mut e, updates);
        crate::encode_certificate(&mut e, cert);
        let payload = e.into_bytes();
        let mut v1 = b"XUCWAL01".to_vec();
        v1.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        v1.extend_from_slice(&checksum64(&payload).to_le_bytes());
        v1.extend_from_slice(&payload);
        std::fs::write(&path, &v1).unwrap();
        assert_eq!(read_wal(&path).unwrap_err().kind(), io::ErrorKind::InvalidData);
        let err = WalWriter::open(&path, 1).err().expect("a v1 log must not open");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("XUCWAL01"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), v1, "the refused log is byte-identical");

        // A complete foreign header is refused alike; a header cut short
        // is a torn tail.
        std::fs::write(&path, b"NOTAWAL!").unwrap();
        assert_eq!(WalWriter::open(&path, 1).err().unwrap().kind(), io::ErrorKind::InvalidData);
        assert_eq!(std::fs::read(&path).unwrap(), b"NOTAWAL!");
        std::fs::write(&path, &WAL_MAGIC[..5]).unwrap();
        let (w, scan) = WalWriter::open(&path, 1).unwrap();
        assert!(scan.torn && scan.records.is_empty());
        assert_eq!(w.durable_len(), WAL_MAGIC.len() as u64);
    }

    #[test]
    fn transient_injection_fails_then_succeeds_idempotently() {
        let path = tmp("transient");
        let records = sample_records();
        let (mut w, _) = WalWriter::open(&path, 10).unwrap();
        for r in &records {
            w.append(r).unwrap();
        }
        w.inject_fault(WriteFault::TransientOnce { n: 2 });
        for _ in 0..2 {
            let e = w.sync().unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::Interrupted);
            assert_eq!(w.pending_frames(), 2, "failure must leave the buffer intact");
        }
        // Third attempt goes through; nothing duplicated, nothing lost.
        w.sync().unwrap();
        assert_eq!(w.pending_frames(), 0);
        drop(w);
        assert_eq!(read_wal(&path).unwrap().records, records);
    }

    #[test]
    fn disk_full_injection_is_persistent_and_fatal_kind() {
        let path = tmp("full");
        let records = sample_records();
        let (mut w, _) = WalWriter::open(&path, 10).unwrap();
        w.append(&records[0]).unwrap();
        w.inject_fault(WriteFault::DiskFull);
        for _ in 0..3 {
            assert_eq!(w.sync().unwrap_err().kind(), io::ErrorKind::StorageFull);
        }
        // Sealing abandons the buffered frame; the file keeps only what
        // was durable before the fault (just the magic here).
        w.seal();
        assert!(w.is_sealed());
        drop(w);
        assert!(read_wal(&path).unwrap().records.is_empty());
    }

    #[test]
    fn latency_injection_accumulates_without_failing() {
        let path = tmp("latency");
        let records = sample_records();
        let (mut w, _) = WalWriter::open(&path, 1).unwrap();
        w.inject_fault(WriteFault::Latency { micros: 250 });
        for r in &records {
            w.append(r).unwrap();
        }
        assert_eq!(w.injected_latency_micros(), 500, "one charge per sync");
        drop(w);
        assert_eq!(read_wal(&path).unwrap().records, records);
    }

    #[test]
    fn write_time_faults_at_crash_time_lose_the_buffer() {
        let path = tmp("crashwrite");
        let records = sample_records();
        let (mut w, _) = WalWriter::open(&path, 10).unwrap();
        w.append(&records[0]).unwrap();
        w.sync().unwrap();
        w.append(&records[1]).unwrap();
        w.simulate_crash(WriteFault::DiskFull).unwrap();
        assert_eq!(read_wal(&path).unwrap().records, records[..1]);
    }

    #[test]
    fn truncate_all_resets_to_empty() {
        let path = tmp("trunc");
        let records = sample_records();
        let (mut w, _) = WalWriter::open(&path, 1).unwrap();
        for r in &records {
            w.append(r).unwrap();
        }
        w.truncate_all().unwrap();
        w.append(&records[0]).unwrap();
        drop(w);
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records, records[..1]);
    }
}
