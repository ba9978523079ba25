//! The metric lists — the one place names, units, directions and
//! regression bounds are written down. `BENCHMARK.json` is generated
//! from here (`spbench --manifest`) and a unit test holds the two equal.

use crate::json::{obj, Value};
use crate::workload::WORKLOADS;

/// Seconds one run measures for (`--seconds`), as the driver passes it.
pub const RUN_SECONDS: u64 = 18;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a user of the store sees; measured with tracing off, reported
/// on every workload. Every timing bound is the 0.25 the contract caps
/// them at: on the 2-vCPU VM (20-30 % steal) this was written on, the
/// spread over ten seeds (interquartile range over median) reached 8-13 %
/// on the CPU-bound workloads, and the host itself drifted by 20 % over
/// tens of minutes.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("read_p50_ms", "ms", "lower", 0.25),
    e2e("read_p95_ms", "ms", "lower", 0.25),
    e2e("read_mbps", "MB/s", "higher", 0.25),
    e2e("write_p50_ms", "ms", "lower", 0.25),
    e2e("write_mbps", "MB/s", "higher", 0.25),
    e2e("stored_ratio", "ratio", "lower", 0.001),
    e2e("rss_peak_mb", "MB", "lower", 0.10),
];

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Per-layer metrics `(name, unit, better)`, reported by the traced run.
/// A value of 0 means the layer is not on that workload's path.
pub const PER_LAYER: [(&str, &str, &str); 60] = [
    ("core.tuner.tune_us", "us", "lower"),
    ("core.tuner.alpha", "1/B", "lower"),
    ("core.partition.k_mean", "count", "lower"),
    ("core.partition.k_max", "count", "lower"),
    ("core.forkjoin.bound_ms", "ms", "lower"),
    ("core.forkjoin.bound_ratio", "ratio", "lower"),
    ("integrity.sums_us", "us", "lower"),
    ("integrity.sums_mbps", "MB/s", "higher"),
    ("integrity.verify_mbps", "MB/s", "higher"),
    ("ec.split_us", "us", "lower"),
    ("ec.join_us", "us", "lower"),
    ("ec.parity_encode_us", "us", "lower"),
    ("ec.parity_encode_mbps", "MB/s", "higher"),
    ("ec.reconstruct_us", "us", "lower"),
    ("ec.reconstruct_mbps", "MB/s", "higher"),
    ("net.frame.encode_us", "us", "lower"),
    ("net.frame.decode_us", "us", "lower"),
    ("net.tcp.ping_rtt_us", "us", "lower"),
    ("net.tcp.fanout_us", "us", "lower"),
    ("net.tcp.first_reply_us", "us", "lower"),
    ("net.tcp.join_skew", "ratio", "lower"),
    ("net.tcp.wire_overhead_us", "us", "lower"),
    ("net.master_net.locate_us", "us", "lower"),
    ("net.master_net.integrity_us", "us", "lower"),
    ("net.master_net.mark_alive_us", "us", "lower"),
    ("net.master_net.register_us", "us", "lower"),
    ("net.master_net.set_integrity_us", "us", "lower"),
    ("store.client.read_us", "us", "lower"),
    ("store.client.read_staged_us", "us", "lower"),
    ("store.client.read_residual_us", "us", "lower"),
    ("store.client.read_residual_ratio", "ratio", "lower"),
    ("store.client.read_p99_ms", "ms", "lower"),
    ("store.client.write_us", "us", "lower"),
    ("store.client.write_staged_us", "us", "lower"),
    ("store.client.write_residual_us", "us", "lower"),
    ("store.client.write_residual_ratio", "ratio", "lower"),
    ("store.client.write_p99_ms", "ms", "lower"),
    ("store.client.degraded_read_us", "us", "lower"),
    ("store.client.channel_read_us", "us", "lower"),
    ("store.client.hedged_fetches", "count", "lower"),
    ("store.worker.get_service_us", "us", "lower"),
    ("store.worker.put_service_us", "us", "lower"),
    ("store.worker.gets", "count", "lower"),
    ("store.worker.puts", "count", "lower"),
    ("store.worker.bytes_served", "B", "lower"),
    ("store.worker.bytes_background", "B", "lower"),
    ("store.worker.evictions", "count", "lower"),
    ("store.worker.spilled_bytes", "B", "lower"),
    ("store.worker.reloaded_bytes", "B", "lower"),
    ("store.worker.reload_ratio", "ratio", "lower"),
    ("store.worker.imbalance", "ratio", "lower"),
    ("store.throttle.nic_utilization", "ratio", "higher"),
    ("store.throttle.max_worker_utilization", "ratio", "lower"),
    ("store.backing.spill_put_us", "us", "lower"),
    ("store.backing.spill_load_us", "us", "lower"),
    ("store.metalog.journal_bytes_per_write", "B", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.replays", "count", "higher"),
    ("trace.spans", "count", "higher"),
];

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Value {
    let s = |v: &str| Value::Str(v.to_string());
    obj([
        (
            "command",
            Value::Arr(vec![s("bash"), s("benchmark/run.sh")]),
        ),
        ("paths", Value::Arr(vec![s("benchmark")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| obj([("name", s(name)), ("why", s(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better)),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        obj([("name", s(name)), ("unit", s(unit)), ("better", s(better))])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            json::pretty(&manifest()),
            "regenerate with `benchmark/run.sh --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn the_manifest_meets_the_contract_limits() {
        let ok_name = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = Vec::new();
        assert!((2..=8).contains(&WORKLOADS.len()));
        for (name, why) in WORKLOADS {
            assert!(
                ok_name(name) && why.len() <= 200 && !why.contains('\n'),
                "{name}: {}",
                why.len()
            );
            names.push(name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        for m in &END_TO_END {
            assert!(ok_name(m.name) && ok_unit(m.unit), "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            names.push(m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!((1..=128).contains(&PER_LAYER.len()));
        for (name, unit, better) in PER_LAYER {
            assert!(ok_name(name) && ok_unit(unit), "{name}");
            assert!(matches!(better, "lower" | "higher"));
            names.push(name);
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "every name is used once");
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(json::pretty(&manifest()).len() <= 64 * 1024);
    }
}
