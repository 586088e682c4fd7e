//! The generator is a pure function of (workload, seed): documents,
//! suites and requests come out identical for one seed and differ for
//! another.

use gwbench::gen::{deployment, Class, OpStream, Scale, Workload};

fn scale() -> Scale {
    Scale { docs: 4, nodes: 2_000, round_ops: 0, probe_ops: 0 }
}

fn stream_text(workload: Workload, seed: u64, ops: usize) -> String {
    let specs = deployment(workload, scale(), seed);
    let mut out: Vec<String> = specs
        .iter()
        .map(|s| format!("{} {} {:?}", s.id, s.tree.canonical_form(), s.suite))
        .collect();
    let mut stream = OpStream::new(workload, &specs, seed);
    out.extend((0..ops).map(|_| format!("{:?}", stream.next_op())));
    out.join("\n")
}

#[test]
fn same_seed_same_inputs() {
    for w in [Workload::MemDoc, Workload::DurableFleet] {
        assert_eq!(stream_text(w, 11, 500), stream_text(w, 11, 500));
        assert_ne!(stream_text(w, 11, 500), stream_text(w, 12, 500));
    }
}

#[test]
fn every_class_appears() {
    for w in [Workload::MemDoc, Workload::DurableFleet] {
        let specs = deployment(w, scale(), 3);
        let mut stream = OpStream::new(w, &specs, 3);
        let mut seen = [0usize; 4];
        for _ in 0..400 {
            seen[stream.next_op().class.index()] += 1;
        }
        for class in Class::ALL {
            assert!(seen[class.index()] > 10, "{} {}", w.name(), class.name());
        }
    }
}
