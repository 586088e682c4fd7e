//! The benchmark command:
//!
//! ```text
//! gwbench --workload <mem_doc|durable_fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then, as its last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Exits
//! non-zero when any check failed.

use gwbench::e2e::{self, Run};
use gwbench::gen::{Scale, Workload};
use gwbench::trace;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gwbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Journals and span dumps live under the working directory, on disk.
    let data = PathBuf::from(".gwbench").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&data) {
        eprintln!("gwbench: creating {}: {e}", data.display());
        return ExitCode::from(2);
    }
    let run = Run {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        scale: Scale::full(args.workload),
        data: data.clone(),
    };
    let outcome = if args.trace { trace::traced(&run).0 } else { e2e::run(&run) };
    println!("# {} seed {} trace {}", args.workload.name(), args.seed, u8::from(args.trace));
    for m in &outcome.metrics {
        match m.samples {
            Some(n) => println!("{:<34} {:>16.4} {:<6} n={n}", m.name, m.value, m.unit),
            None => println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit),
        }
    }
    for line in &outcome.report {
        println!("{line}");
    }
    for f in &outcome.tally.failures {
        println!("FAILED: {f}");
    }
    // Journals are directories, and a run that stopped early can leave
    // one behind; the span dump of a traced run is the only file kept.
    // Removing a directory fails harmlessly while it still holds files.
    if let Ok(entries) = std::fs::read_dir(&data) {
        for entry in entries.flatten().filter(|e| e.path().is_dir()) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
    let _ = std::fs::remove_dir(&data);
    let _ = std::fs::remove_dir(".gwbench");
    println!("{}", outcome.json());
    if outcome.tally.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
