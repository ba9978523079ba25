#!/usr/bin/env bash
# Entry command of the benchmark (see benchmark/README.md).
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the result object
#   benchmark/run.sh [--all] [--runs N] [--seed N] [--log FILE]
#       every workload, untraced and traced, N times (default 1); appends
#       each run to FILE (default benchmark/out/results.jsonl, emptied
#       first) and prints every metric's median with its min..max
#   benchmark/run.sh --check-repeat A.jsonl B.jsonl | --report LOG | --manifest
#       passed through to spbench
#   benchmark/run.sh --selftest
#       the benchmark's own unit tests and its 2 s smoke run
#
# Every mode first builds spcached (root workspace) and spbench (this
# package) from source, so it fails — printing no result — where the
# repository is not around it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# One target directory for both builds. Absolute, because cargo resolves
# a relative CARGO_TARGET_DIR against the directory it is started in.
CARGO_TARGET_DIR="$(realpath -m "${CARGO_TARGET_DIR:-target}")"
export CARGO_TARGET_DIR
export SPBENCH_SPCACHED="$CARGO_TARGET_DIR/release/spcached"
spbench="$CARGO_TARGET_DIR/release/spbench"

cargo build --release --quiet --manifest-path "$PWD/Cargo.toml" -p spcache-net --bin spcached >&2

if [[ "${1:-}" == --selftest ]]; then
    exec cargo test --release --manifest-path "$PWD/benchmark/Cargo.toml"
fi

cargo build --release --quiet --manifest-path "$PWD/benchmark/Cargo.toml" >&2

if [[ $# -gt 0 && "$1" != --all && "$1" != --runs && "$1" != --seed && "$1" != --log ]]; then
    exec "$spbench" "$@"
fi

runs=1 seed=1 log=benchmark/out/results.jsonl
while [[ $# -gt 0 ]]; do
    case "$1" in
        --all) shift ;;
        --runs) runs=$2; shift 2 ;;
        --seed) seed=$2; shift 2 ;;
        --log) log=$2; shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
mkdir -p "$(dirname "$log")"
: > "$log"
for workload in zipf_sp large_read small_read budget_zipf write_mix; do
    for trace in 0 1; do
        for ((i = 0; i < runs; i++)); do
            # All but the result line, which the log keeps.
            "$spbench" --workload "$workload" --seed "$seed" --trace "$trace" --log "$log" | sed '$d'
        done
    done
done
"$spbench" --report "$log"
