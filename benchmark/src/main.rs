//! `spbench` — see `benchmark/README.md`.
//!
//! ```text
//! spbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!         [--spcached PATH] [--out-dir DIR] [--log FILE]
//! spbench --report LOG
//! spbench --check-repeat LOG_A LOG_B
//! spbench --manifest
//! ```
//!
//! A run prints every metric by name with its unit, then — as the last
//! line of stdout — one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exit code 0 means the run was correct, 1
//! that an operation failed or a check did not hold, 2 that the run
//! could not be made at all (nothing is printed on stdout then).

mod cluster;
mod json;
mod metrics;
mod repeat;
mod run;
mod stats;
mod trace;
mod workload;

use json::{obj, Value};
use run::{Outcome, RunConfig};
use std::path::PathBuf;
use std::process::ExitCode;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad value for {name}: {v:?}")),
        None => Ok(default),
    }
}

fn unit_of(metric: &str) -> &'static str {
    metrics::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(metrics::PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(name, _)| *name == metric)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric {metric} is not in the metric lists"))
}

/// The run's metrics in the order of the metric lists — and exactly the
/// list the run's mode owes: every end-to-end metric untraced, every
/// per-layer metric traced.
fn in_list_order(outcome: &Outcome, traced: bool) -> Result<Vec<(&'static str, f64)>, String> {
    let owed: Vec<&'static str> = if traced {
        metrics::PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        metrics::END_TO_END.iter().map(|m| m.name).collect()
    };
    if let Some((stray, _)) = outcome
        .metrics
        .iter()
        .find(|(name, _)| !owed.contains(name))
    {
        return Err(format!(
            "the run produced {stray}, which its metric list does not have"
        ));
    }
    owed.into_iter()
        .map(|name| {
            let found = outcome.metrics.iter().find(|(n, _)| *n == name);
            found
                .copied()
                .ok_or_else(|| format!("the run did not produce {name}"))
        })
        .collect()
}

/// The contract's result object.
fn result_json(outcome: &Outcome) -> Value {
    obj([
        ("correct", Value::Bool(outcome.correct())),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        (
            "metrics",
            Value::Obj(
                outcome
                    .metrics
                    .iter()
                    .map(|(name, value)| {
                        let entry = obj([
                            ("value", Value::Num(*value)),
                            ("unit", Value::Str(unit_of(name).into())),
                        ]);
                        (name.to_string(), entry)
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Pins this thread — and with it every thread and daemon started later,
/// which inherit the mask — to the first CPU the process may use.
///
/// The run is a chain of thread hand-offs across six processes. Left to
/// the scheduler, each hand-off is cheap or an inter-processor interrupt
/// depending on where the two ends happen to sit: on the 2-vCPU VM this
/// was written on, `small_read`'s median moved between 0.07 ms and
/// 2.3 ms from run to run unpinned, and stayed within 0.071–0.076 ms
/// pinned. One CPU means no number here shows a parallel speed-up.
fn pin_to_one_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    const WORDS: usize = 16; // glibc's cpu_set_t: 1024 bits
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is writable and exactly `size_of_val(&allowed)`
    // bytes long, the size passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..WORDS * 64)
        .find(|c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("sched_getaffinity returned an empty CPU set")?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is readable and exactly the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// One run of `cfg.workload`, its metrics in list order.
fn execute(cfg: &RunConfig) -> Result<(Outcome, usize), String> {
    let spec = workload::Spec::new(&cfg.workload, cfg.seed)?;
    let cpu = pin_to_one_cpu()?;
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
    let mut outcome = if cfg.trace {
        trace::run_traced(cfg, &spec)?
    } else {
        run::run_untraced(cfg, &spec)?
    };
    outcome.metrics = in_list_order(&outcome, cfg.trace)?;
    Ok((outcome, cpu))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let workload = flag(args, "--workload")
        .ok_or("need --workload NAME (or --report, --check-repeat, --manifest)")?;
    let cfg = RunConfig {
        workload,
        seed: parsed(args, "--seed", 1)?,
        seconds: parsed(args, "--seconds", metrics::RUN_SECONDS as f64)?,
        trace: parsed::<u8>(args, "--trace", 0)? != 0,
        spcached: flag(args, "--spcached")
            .or_else(|| std::env::var("SPBENCH_SPCACHED").ok())
            .map(PathBuf::from)
            .ok_or("need --spcached PATH or $SPBENCH_SPCACHED (benchmark/run.sh builds it and sets it)")?,
        out_dir: PathBuf::from(flag(args, "--out-dir").unwrap_or_else(|| "benchmark/out".into())),
    };
    if !(cfg.seconds >= 1.0 && cfg.seconds <= 60.0) {
        return Err(format!(
            "--seconds must be within 1..=60, got {}",
            cfg.seconds
        ));
    }
    let (outcome, cpu) = execute(&cfg)?;

    println!(
        "spbench {} seed={} seconds={} trace={} pinned to cpu {cpu}",
        cfg.workload, cfg.seed, cfg.seconds, cfg.trace as u8
    );
    for (name, value) in &outcome.metrics {
        println!("  {name:<40} {value:>18.6} {}", unit_of(name));
    }
    for v in &outcome.violations {
        println!("  VIOLATION: {v}");
    }
    println!(
        "  attempted={} failed={} fail_ratio={}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    let result = result_json(&outcome);
    if let Some(log) = flag(args, "--log") {
        repeat::append(&PathBuf::from(log), &cfg, &result)?;
    }
    println!("{result}");
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = if args.first().is_some_and(|a| a == "--manifest") {
        print!("{}", json::pretty(&metrics::manifest()));
        Ok(ExitCode::SUCCESS)
    } else if let Some(log) = flag(&args, "--report") {
        repeat::report(&PathBuf::from(log)).map(|()| ExitCode::SUCCESS)
    } else if let Some(i) = args.iter().position(|a| a == "--check-repeat") {
        match (args.get(i + 1), args.get(i + 2)) {
            (Some(a), Some(b)) => repeat::check_repeat(&PathBuf::from(a), &PathBuf::from(b)),
            _ => Err("--check-repeat needs two result logs".into()),
        }
    } else {
        run(&args)
    };
    done.unwrap_or_else(|e| {
        eprintln!("spbench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Value;

    fn names_and_units(list: &Value) -> Vec<(String, String)> {
        let field = |m: &Value, k: &str| {
            m.get(k)
                .and_then(Value::as_str)
                .expect("a string field")
                .to_string()
        };
        match list {
            // BENCHMARK.json: [{"name": .., "unit": ..}, ..]
            Value::Arr(items) => items
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect(),
            // A result: {"name": {"value": .., "unit": ..}, ..}
            Value::Obj(fields) => fields
                .iter()
                .map(|(name, m)| (name.clone(), field(m, "unit")))
                .collect(),
            other => panic!("not a metric list: {other}"),
        }
    }

    /// Two seconds of `small_read` against real daemons, untraced and
    /// traced: the result object has the contract's shape and carries
    /// exactly the metrics `BENCHMARK.json` lists for that mode.
    #[test]
    fn smoke_run_emits_exactly_the_listed_metrics() {
        let spcached = std::env::var("SPBENCH_SPCACHED")
            .expect("run the tests with `benchmark/run.sh --selftest`: it builds spcached and sets SPBENCH_SPCACHED");
        let manifest_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = json::parse(&std::fs::read_to_string(manifest_path).unwrap()).unwrap();
        let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out/test-smoke"));
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let cfg = RunConfig {
                workload: "small_read".into(),
                seed: 7,
                seconds: 2.0,
                trace,
                spcached: PathBuf::from(&spcached),
                out_dir: out_dir.clone(),
            };
            let (outcome, _) = execute(&cfg).unwrap();
            assert!(outcome.correct(), "{:?}", outcome.violations);
            let result = json::parse(&result_json(&outcome).to_string()).unwrap();
            let Value::Obj(fields) = &result else {
                panic!("not an object: {result}")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            let attempted = result.get("attempted").and_then(Value::as_f64).unwrap();
            assert!(attempted >= 1.0 && attempted.fract() == 0.0);
            let metrics = result.get("metrics").unwrap();
            assert_eq!(
                names_and_units(metrics),
                names_and_units(manifest.get(list).unwrap())
            );
            for (name, value) in &outcome.metrics {
                assert!(value.is_finite(), "{name} = {value}");
                assert!(trace || *value > 0.0, "end-to-end {name} must never be 0");
            }
        }
        let trace = std::fs::read_to_string(out_dir.join("trace-small_read.jsonl")).unwrap();
        assert!(
            trace.lines().count() > 100,
            "the traced run writes its spans out"
        );
        for line in trace.lines().take(50) {
            let span = json::parse(line).unwrap();
            assert!(span.get("name").and_then(Value::as_str).is_some(), "{line}");
            assert!(
                span.get("end_us").and_then(Value::as_f64)
                    >= span.get("start_us").and_then(Value::as_f64)
            );
        }
        std::fs::remove_dir_all(&out_dir).unwrap();
    }
}
