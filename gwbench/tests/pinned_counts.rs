//! The deterministic work counts of the traced run — certified entries,
//! journal record bytes, fsyncs, full re-walks, dirty nodes swept and
//! journal bytes per commit — repeat exactly across two traced runs at
//! the same seed, so later changes can claim count-based gains.
//!
//! One test function: the engine and persist counters are process-wide,
//! so nothing else may run beside it in this binary.

use gwbench::e2e::Run;
use gwbench::gen::{Scale, Workload};
use gwbench::trace::{traced, PinnedCounts};

fn small(workload: Workload) -> Scale {
    match workload {
        Workload::MemDoc => Scale { docs: 1, nodes: 4_000, round_ops: 200, probe_ops: 6 },
        Workload::DurableFleet => Scale { docs: 8, nodes: 1_000, round_ops: 300, probe_ops: 0 },
    }
}

fn traced_counts(workload: Workload, seed: u64, attempt: u32) -> PinnedCounts {
    let data = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("pinned-{}-{seed}-{attempt}", workload.name()));
    let _ = std::fs::remove_dir_all(&data);
    std::fs::create_dir_all(&data).unwrap();
    let run = Run { workload, seed, seconds: 0.4, scale: small(workload), data: data.clone() };
    let (outcome, counts) = traced(&run);
    assert!(outcome.tally.correct(), "{:?}", outcome.tally.failures);
    std::fs::remove_dir_all(&data).unwrap();
    counts
}

#[test]
fn pinned_counts_repeat_exactly_at_one_seed() {
    for workload in [Workload::MemDoc, Workload::DurableFleet] {
        let first = traced_counts(workload, 7, 0);
        let second = traced_counts(workload, 7, 1);
        assert_eq!(first, second, "{}", workload.name());
        assert_eq!(first.wal_bytes_per_commit(), second.wal_bytes_per_commit());
        assert!(first.commits > 0 && first.certified_entries > 0 && first.full_rewalks > 0);
        assert!(first.dirty_nodes_swept > 0);
        assert!(first.journaled > 0 && first.fsyncs > 0 && first.record_bytes > 0);
        // The mirror journals exactly what the gateway journals.
        assert_eq!(first.record_bytes, first.wal_bytes);
        if workload == Workload::DurableFleet {
            assert!(first.splice_declined > 0, "predicate documents take the fallback");
        } else {
            assert_eq!(first.splice_declined, 0, "the E-DLT suite always splices");
        }
    }
}
