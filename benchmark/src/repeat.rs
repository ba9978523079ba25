//! Result logs: one JSON line per run, a report over them, and the
//! repeatability check that tells noise from change.

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

use crate::json::{self, obj, Value};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::RunConfig;
use crate::stats::median;
use crate::workload::WORKLOADS;

/// Appends one run to a result log.
pub fn append(log: &Path, cfg: &RunConfig, result: &Value) -> Result<(), String> {
    let line = obj([
        ("workload", Value::Str(cfg.workload.clone())),
        ("seed", Value::Num(cfg.seed as f64)),
        ("seconds", Value::Num(cfg.seconds)),
        ("trace", Value::Num(cfg.trace as u8 as f64)),
        ("result", result.clone()),
    ]);
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(log)
        .and_then(|mut f| writeln!(f, "{line}"))
        .map_err(|e| format!("{}: {e}", log.display()))
}

/// Every value a log holds for `(workload, metric)`, in run order.
struct Log(Vec<Value>);

impl Log {
    fn load(path: &Path) -> Result<Log, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .enumerate()
            .map(|(i, l)| json::parse(l).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1)))
            .collect::<Result<_, _>>()
            .map(Log)
    }

    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.0
            .iter()
            .filter(|run| run.get("workload").and_then(Value::as_str) == Some(workload))
            .filter_map(|run| {
                run.get("result")?
                    .get("metrics")?
                    .get(metric)?
                    .get("value")?
                    .as_f64()
            })
            .collect()
    }

    fn incorrect_runs(&self) -> usize {
        self.0
            .iter()
            .filter(|run| {
                run.get("result").and_then(|r| r.get("correct")) != Some(&Value::Bool(true))
            })
            .count()
    }
}

/// Prints, per workload, every metric's median with its min–max spread.
pub fn report(path: &Path) -> Result<(), String> {
    let log = Log::load(path)?;
    let all = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)));
    for (workload, _) in WORKLOADS {
        println!("{workload}");
        for (name, unit) in all.clone() {
            let v = log.values(workload, name);
            if let Some(mid) = median(&v) {
                let (lo, hi) = v
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
                println!(
                    "  {name:<40} {mid:>14.4} {unit:<6} [{lo:.4} .. {hi:.4}] n={}",
                    v.len()
                );
            }
        }
    }
    match log.incorrect_runs() {
        0 => Ok(()),
        n => Err(format!("{n} run(s) in {} were not correct", path.display())),
    }
}

/// Compares two logs of the same commit: for every workload and
/// end-to-end metric the two medians must agree within the metric's own
/// regression bound, or later PRs could not tell noise from change.
pub fn check_repeat(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let (log_a, log_b) = (Log::load(a)?, Log::load(b)?);
    let mut bad = log_a.incorrect_runs() + log_b.incorrect_runs();
    if bad > 0 {
        println!("{bad} run(s) were not correct");
    }
    for (workload, _) in WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (
                log_a.values(workload, m.name),
                log_b.values(workload, m.name),
            );
            let (Some(ma), Some(mb)) = (median(&va), median(&vb)) else {
                println!(
                    "{workload:<12} {:<14} MISSING (A has {}, B has {} runs)",
                    m.name,
                    va.len(),
                    vb.len()
                );
                bad += 1;
                continue;
            };
            let diff = (mb - ma).abs() / ma.abs();
            let verdict = if diff <= m.bound { "ok" } else { "DIFFERS" };
            println!(
                "{workload:<12} {:<14} A={ma:<12.4} B={mb:<12.4} diff={:>6.2}% bound={:>5.1}% {verdict}",
                m.name,
                diff * 100.0,
                m.bound * 100.0
            );
            bad += usize::from(diff > m.bound);
        }
    }
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(dir: &Path, name: &str, scale: f64) -> std::path::PathBuf {
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        for (workload, _) in WORKLOADS {
            for run in 0..3 {
                let metrics = END_TO_END
                    .iter()
                    .map(|m| {
                        // Only read_p50_ms is scaled; run-to-run jitter of 1%.
                        let s = if m.name == "read_p50_ms" { scale } else { 1.0 };
                        let v = 10.0 * s * (1.0 + 0.01 * run as f64);
                        (m.name.to_string(), obj([("value", Value::Num(v))]))
                    })
                    .collect();
                let result = obj([
                    ("correct", Value::Bool(true)),
                    ("metrics", Value::Obj(metrics)),
                ]);
                let cfg = RunConfig {
                    workload: workload.to_string(),
                    seed: 1,
                    seconds: 1.0,
                    trace: false,
                    spcached: "".into(),
                    out_dir: "".into(),
                };
                append(&path, &cfg, &result).unwrap();
            }
        }
        path
    }

    #[test]
    fn check_repeat_accepts_noise_and_rejects_change() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-repeat");
        std::fs::create_dir_all(&dir).unwrap();
        let a = log_with(&dir, "a.jsonl", 1.0);
        let within = log_with(&dir, "b.jsonl", 1.1);
        let beyond = log_with(&dir, "c.jsonl", 1.3);
        assert_eq!(check_repeat(&a, &within).unwrap(), ExitCode::SUCCESS);
        assert_eq!(check_repeat(&a, &beyond).unwrap(), ExitCode::from(1));
        assert!(report(&a).is_ok());
        // A log that lacks a workload cannot vouch for it.
        let text = std::fs::read_to_string(&a).unwrap();
        let partial = dir.join("partial.jsonl");
        std::fs::write(
            &partial,
            text.lines().take(3).collect::<Vec<_>>().join("\n"),
        )
        .unwrap();
        assert_eq!(check_repeat(&a, &partial).unwrap(), ExitCode::from(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
