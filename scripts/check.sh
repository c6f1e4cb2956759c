#!/usr/bin/env bash
# Full local gate: build, tests, formatting, lints.
#
# Offline-safe: the workspace has no external dependencies, and
# --offline makes cargo fail fast instead of touching the network if
# one is ever reintroduced by accident.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

# Runs a step whose stdout is long, keeping that stdout in
# target/check-logs/<name>.log instead of printing it, and its stderr in
# target/check-logs/<name>.err as well as on the terminal. When the
# step exits non-zero, prints the last 40 lines of both files and their
# paths, then exits with the step's status.
logged() {
    local name="$1"
    shift
    local log="target/check-logs/$name.log"
    local err="target/check-logs/$name.err"
    mkdir -p target/check-logs
    echo "==> $* > $log 2> $err"
    local status=0
    # stdout to $log; stderr through the pipe to tee. With pipefail the
    # pipeline's status is the step's whenever the step fails.
    { "$@" 2>&1 > "$log" | tee "$err" >&2; } || status=$?
    if [ "$status" -ne 0 ]; then
        echo "--- last 40 lines of $log ---"
        tail -n 40 "$log"
        echo "--- last 40 lines of $err ---"
        tail -n 40 "$err"
        echo "--- $* exited with status $status; its stdout is in $log, its stderr in $err ---"
        exit "$status"
    fi
}

run cargo build --release --workspace --offline
# The workspace tests include the metric-family dead-hook check
# (crates/bench/tests/metric_families.rs): every registered family must
# be present and fire.
run cargo test -q --workspace --offline
run cargo fmt --all -- --check
run cargo clippy --all-targets --workspace --offline -- -D warnings
# Documentation gate: every intra-doc link resolves, and no public doc
# links a private item.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# The benchmark package has a [workspace] of its own, so the --workspace
# steps above skip it: run its unit tests, lints and format check here.
run cargo test -q --offline --manifest-path perfbench/Cargo.toml
run cargo clippy --all-targets --offline --manifest-path perfbench/Cargo.toml -- -D warnings
run cargo fmt --manifest-path perfbench/Cargo.toml -- --check

# Record/replay gate: each fixed-seed record/replay plan of the catalog
# -- a single-node run where every controller-message verdict fires
# (delay, drop, duplicate, partition drop), and a 100-node fleet with a
# lossy control plane and a primary-coordinator crash -- is recorded
# at its committed seed to a journal file under target/ that carries
# the plan, then re-run from that file and diffed entry by entry.
# Exits non-zero on any divergence.
for plan in message-fault-mix fleet-100-node-failover; do
    journal="target/record-replay-$plan.jsonl"
    echo "==> ./target/release/scenario_run --record $plan > $journal"
    ./target/release/scenario_run --record "$plan" > "$journal"
    logged "replay-$plan" ./target/release/scenario_run --replay "$journal"
done

# Bounded chaos smoke sweep (the bench crate's chaos_sweep): randomized
# fault plans at fixed seeds over the full (workload, mechanism, policy)
# grid, under a second. Each case is a scenario plan run through the
# catalog's executor and invariants. Exits non-zero on any invariant
# violation or any cell where supervision fails to improve SLO
# attainment. (The fixed-seed scenarios, single-node message faults and
# the fleet coordinator crash, split-brain and renewal storm, are in the
# TOML catalog below.)
logged chaos_sweep ./target/release/chaos_sweep --seeds 8

# Emit round trip: one sweep case printed as canonical TOML must run and
# pass its invariants as a catalog of its own.
mkdir -p target/chaos-case
echo "==> ./target/release/chaos_sweep --seeds 8 --emit Jacobi/DVFS/sprint/seed3 > target/chaos-case/case.toml"
./target/release/chaos_sweep --seeds 8 --emit Jacobi/DVFS/sprint/seed3 > target/chaos-case/case.toml
logged chaos-case ./target/release/scenario_run --dir target/chaos-case --smoke

# Scenario catalog gate: executes every scenarios/*.toml file (strict
# parse, unknown keys rejected) at its committed seed, and every
# cross_seed scenario (the fleet coordinator crash, split-brain,
# renewal storm and flash crowd among them) at 7 more offset seeds, and
# evaluates the machine-checked invariants — conservation, replay
# bit-identity, fleet invariants, metric/SLO bounds and fault
# signatures, budget conservation, clean-twin watchdog bounds,
# root-cause recovery from the causal trace, cloning fast-vs-reference
# bit-identity. Exits non-zero if any scenario violates any invariant.
# `scenario_run --trace <name>` prints one scenario's causal chains.
logged scenario_run-smoke ./target/release/scenario_run --smoke --seeds 8

# Paper-parity gate: re-measures every anchored figure relation against
# the committed golden values (crates/conformance/golden/anchors.json),
# runs the differential oracles, and proves drift detection by
# perturbing every golden value (--selftest). Exits non-zero on any
# drift.
logged paper_parity-selftest ./target/release/paper_parity --offline --selftest

# Seed-matrix gate: re-checks every cross-seed anchor and every oracle
# at the two seeds after the golden one. Exits non-zero on any drift.
logged paper_parity-seeds3 ./target/release/paper_parity --offline --seeds 3

# Prediction fast-path gate, run last because its wall-clock legs can
# trip on a busy host and a failure there must not keep the
# deterministic gates above from reporting. It asserts fast/reference
# bit-identity, the >=3X explorer speedup, the >=1M preds/min warm
# model throughput (on caches private to each measurement), and the
# <=5% telemetry and tracing overheads, and times forest inference.
# When a schema-2 BENCH_qsim.json baseline is committed it also diffs
# every leg against it with per-leg tolerance bands (10% on the gated
# warm throughput leg, wider on the load-sensitive cold/ns legs, 50% on
# the forest leg), prints the regression table below, and exits
# non-zero on any band violation.
run ./target/release/perf_smoke

echo "All checks passed."
