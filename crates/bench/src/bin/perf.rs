//! `perf` — the store measurements `spbench` has no workload for.
//!
//! ```text
//! cargo run -p spcache-bench --release --bin perf              # full grid
//! cargo run -p spcache-bench --release --bin perf -- --quick   # CI smoke grid
//! cargo run -p spcache-bench --release --bin perf -- --out BENCH_store.json
//! cargo run -p spcache-bench --release --bin perf -- --validate BENCH_store.json
//! ```
//!
//! Measures the supervisor's recovery sweep, unpaced and paced under a
//! foreground storm, and the checksum-verified read over a
//! `file size × k × NIC` grid and writes a schema-stable
//! `BENCH_store.json`. `--validate` checks an existing report (required
//! keys and variants present, all metrics finite and positive,
//! `paced_bg_utilization` and `verify_overhead` inside their bounds) and
//! exits non-zero on violation — the CI step.

use std::process::ExitCode;

use spcache_bench::perf::{
    default_grid, machine_descriptor, report_to_json, run_grid, validate_report_json,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out = String::from("BENCH_store.json");
    let mut validate: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(path) => out = path.clone(),
                    None => {
                        eprintln!("--out needs a path");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--validate" => {
                i += 1;
                match args.get(i) {
                    Some(path) => validate = Some(path.clone()),
                    None => {
                        eprintln!("--validate needs a path");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--help" | "-h" => {
                eprintln!("usage: perf [--quick] [--out PATH] [--validate PATH]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag {other} (try --help)");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    if let Some(path) = validate {
        return match std::fs::read_to_string(&path) {
            Ok(json) => match validate_report_json(&json) {
                Ok(()) => {
                    println!("{path}: valid ({} bytes)", json.len());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{path}: INVALID: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("{path}: unreadable: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let grid = default_grid(quick);
    let report = run_grid(&grid, quick);
    let json = report_to_json(&report, &machine_descriptor());
    if let Err(e) = validate_report_json(&json) {
        eprintln!("internal error: emitted report fails validation: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }

    println!("wrote {out}");
    println!();
    println!(
        "{:<28} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "point/variant", "ops/s", "MB/s", "p50 ms", "p95 ms", "p99 ms"
    );
    for p in &report.points {
        println!("{}", p.point.label());
        for v in &p.variants {
            println!(
                "  {:<26} {:>10.2} {:>10.1} {:>9.2} {:>9.2} {:>9.2}",
                v.variant, v.ops_per_sec, v.mbytes_per_sec, v.p50_ms, v.p95_ms, v.p99_ms
            );
        }
        println!(
            "  paced_bg_utilization {:.3}, verify_overhead {:.3}",
            p.paced_bg_utilization, p.verify_overhead
        );
    }
    ExitCode::SUCCESS
}
