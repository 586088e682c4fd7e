//! A small end-to-end run of each workload passes every check: verdicts
//! as generated, certificates that verify, and a recovered state equal
//! to the live one. Its journal figures repeat exactly at one seed.

use gwbench::e2e::{run, Run};
use gwbench::gen::{Scale, Workload};
use gwbench::Outcome;

fn small_run(workload: Workload, scale: Scale, attempt: u32) -> Outcome {
    let data = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("e2e-{}-{attempt}", workload.name()));
    let _ = std::fs::remove_dir_all(&data);
    std::fs::create_dir_all(&data).unwrap();
    let outcome = run(&Run { workload, seed: 5, seconds: 0.3, scale, data: data.clone() });
    std::fs::remove_dir_all(&data).unwrap();
    outcome
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome.metrics.iter().find(|m| m.name == name).unwrap().value
}

#[test]
fn small_runs_are_correct() {
    for (workload, scale) in [
        (Workload::MemDoc, Scale { docs: 1, nodes: 2_000, round_ops: 200, probe_ops: 6 }),
        (Workload::DurableFleet, Scale { docs: 6, nodes: 800, round_ops: 200, probe_ops: 0 }),
    ] {
        let outcome = small_run(workload, scale, 0);
        assert!(outcome.tally.correct(), "{:?}", outcome.tally.failures);
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            ["setup_s", "wal_bytes_per_commit", "journal_mb", "peak_rss_mb"],
            "{}",
            workload.name()
        );
        assert!(outcome.metrics.iter().all(|m| m.value > 0.0), "{:?}", outcome.metrics);
        let again = small_run(workload, scale, 1);
        assert!(again.tally.correct(), "{:?}", again.tally.failures);
        for name in ["wal_bytes_per_commit", "journal_mb"] {
            assert_eq!(value(&outcome, name), value(&again, name), "{} {name}", workload.name());
        }
    }
}
