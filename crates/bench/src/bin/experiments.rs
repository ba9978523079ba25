//! Regenerates the SP-Cache paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! experiments [--quick] <id>...   run specific experiments
//! experiments [--quick] all       run everything in paper order
//! experiments [--serial] ...      disable the multi-experiment pool
//! experiments replay <file>       replay a plain-text workload spec
//! experiments list                list experiment ids
//! ```
//!
//! Multi-experiment runs execute on a small process pool (experiments are
//! independent, so wall time drops to roughly the longest experiment), but
//! stdout stays byte-identical to a serial run: each experiment's output is
//! captured and printed whole, in paper order, with its wall time.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use spcache_bench::experiments::{run, ALL};
use spcache_bench::Scale;

/// One captured child-experiment run.
struct ExpOutput {
    stdout: String,
    stderr: String,
    ok: bool,
    secs: f64,
}

/// Runs `selected` experiments as subprocesses of this same binary on a
/// bounded thread pool, printing each experiment's captured stdout in
/// paper order. Returns `None` when pooling is unavailable (no
/// `current_exe`, or a single CPU) so the caller falls back to serial;
/// otherwise `Some(all_succeeded)`.
fn run_pooled(selected: &[&str], quick: bool) -> Option<bool> {
    let exe = std::env::current_exe().ok()?;
    let jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
        .min(selected.len());
    if jobs < 2 {
        return None;
    }

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<ExpOutput>>> =
        Mutex::new((0..selected.len()).map(|_| None).collect());
    let ready = Condvar::new();

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= selected.len() {
                    break;
                }
                let started = Instant::now();
                let mut cmd = Command::new(&exe);
                if quick {
                    cmd.arg("--quick");
                }
                let result = match cmd.arg(selected[i]).output() {
                    Ok(out) => ExpOutput {
                        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
                        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
                        ok: out.status.success(),
                        secs: started.elapsed().as_secs_f64(),
                    },
                    Err(e) => ExpOutput {
                        stdout: String::new(),
                        stderr: format!("failed to spawn child for {}: {e}\n", selected[i]),
                        ok: false,
                        secs: started.elapsed().as_secs_f64(),
                    },
                };
                let mut guard = slots.lock().unwrap();
                guard[i] = Some(result);
                ready.notify_all();
            });
        }

        // Print completed experiments strictly in paper order while the
        // pool keeps working ahead.
        let mut all_ok = true;
        for (i, id) in selected.iter().enumerate() {
            let mut guard = slots.lock().unwrap();
            while guard[i].is_none() {
                guard = ready.wait(guard).unwrap();
            }
            let result = guard[i].take().unwrap();
            drop(guard);
            print!("{}", result.stdout);
            if result.ok {
                eprintln!("[{id} done in {:.1}s]", result.secs);
            } else {
                all_ok = false;
                eprint!("{}", result.stderr);
                eprintln!("[{id} FAILED after {:.1}s]", result.secs);
            }
        }
        Some(all_ok)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let serial = args.iter().any(|a| a == "--serial");
    let scale = if quick { Scale::quick() } else { Scale::full() };
    let ids: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();

    if ids.is_empty() || ids == ["list"] {
        eprintln!(
            "usage: experiments [--quick] [--serial] <id>... | all | replay <file> | list"
        );
        eprintln!("ids: {}", ALL.join(" "));
        std::process::exit(if ids == ["list"] { 0 } else { 2 });
    }

    if ids.first() == Some(&"replay") {
        let Some(path) = ids.get(1) else {
            eprintln!("usage: experiments replay <spec-file>");
            std::process::exit(2);
        };
        if let Err(e) = spcache_bench::experiments::replay::replay_spec_file(path) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        return;
    }

    let selected: Vec<&str> = if ids.contains(&"all") {
        ALL.to_vec()
    } else {
        ids
    };

    // Unknown ids fail fast (before any work, pooled or not).
    for id in &selected {
        if !ALL.contains(id) {
            eprintln!("unknown experiment id: {id} (try `experiments list`)");
            std::process::exit(2);
        }
    }

    let t0 = Instant::now();
    // A single experiment runs in-process — this is also what each pool
    // subprocess executes, which terminates the recursion.
    let pooled = if selected.len() > 1 && !serial {
        run_pooled(&selected, quick)
    } else {
        None
    };
    match pooled {
        Some(true) => {}
        Some(false) => std::process::exit(1),
        None => {
            for id in &selected {
                let started = Instant::now();
                if !run(id, scale) {
                    eprintln!("unknown experiment id: {id} (try `experiments list`)");
                    std::process::exit(2);
                }
                eprintln!("[{id} done in {:.1}s]", started.elapsed().as_secs_f64());
            }
        }
    }
    eprintln!(
        "\nall {} experiment(s) finished in {:.1}s",
        selected.len(),
        t0.elapsed().as_secs_f64()
    );
}
