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

run cargo build --release --workspace --offline
run cargo test -q --workspace --offline
run cargo fmt --all -- --check
run cargo clippy --all-targets --workspace --offline -- -D warnings

# The benchmark package has a [workspace] of its own, so the --workspace
# steps above skip it: run its unit tests, lints and format check here.
run cargo test -q --offline --manifest-path perfbench/Cargo.toml
run cargo clippy --all-targets --offline --manifest-path perfbench/Cargo.toml -- -D warnings
run cargo fmt --manifest-path perfbench/Cargo.toml -- --check

# Reactor record/replay smoke: fixed-seed journal determinism (with and
# without message faults), a file round-trip through the journal format,
# and a tamper-detection self-test. Exits non-zero on any divergence.
run ./target/release/reactor_replay --smoke > /dev/null

# Fleet smoke: a 100-node fleet records, re-executes, and diffs
# bit-identically from one seed, then the canonical coordinator-crash
# run (fleet_report) re-checks the four fleet invariants — bounded
# power, epoch fencing, fail-safe sprinting, convergence — plus
# failover actually happening. Both exit non-zero on any violation.
run ./target/release/reactor_replay --fleet-smoke > /dev/null
run ./target/release/fleet_report > /dev/null

# Bounded chaos smoke sweep: fixed seeds, full grid, a few seconds.
# Runs the fleet scenarios (coordinator crash mid-sprint-wave,
# split-brain, lease-renewal storm) before the randomized sweep. Exits
# non-zero on any recovery- or fleet-invariant violation or any cell
# where supervision fails to improve SLO attainment. (The fixed-seed
# single-node message-fault scenarios moved to the TOML catalog below.)
run ./target/release/chaos_sweep --seeds 8 > /dev/null

# Prediction fast-path gate: asserts fast/reference bit-identity, the
# >=3X explorer speedup, the >=1M preds/min warm model throughput (on
# caches private to each measurement), and the <=5% telemetry and
# tracing overheads, and times forest inference. When a schema-2
# BENCH_qsim.json baseline is committed it also diffs every leg
# against it with per-leg tolerance bands (10% on the gated warm
# throughput leg, wider on the load-sensitive cold/ns legs, 50% on
# the forest leg), prints the regression table below, and exits
# non-zero on any band violation.
run ./target/release/perf_smoke

# Telemetry completeness gate: renders the flight-recorder timeline and
# the full metrics table on a fixed seed, and exits non-zero if any
# registered metric family is missing from the report or never fired.
run ./target/release/sprint_report --seed 181 > /dev/null

# Root-cause tracing gate: reruns the fixed-seed chaos scenarios (three
# single-node message-fault scenarios plus the fleet split-brain) with
# causal tracing enabled, reconstructs each causal chain from the
# recorded spans, and exits non-zero unless every scenario's trace is
# bit-identical across replay and dominated by its documented root
# cause (message-drop, message-delay, partition, partition).
run ./target/release/trace_report --smoke > /dev/null

# Scenario catalog gate: executes every scenarios/*.toml file (strict
# parse, unknown keys rejected) at its committed seed and evaluates
# the machine-checked invariants — conservation, replay bit-identity,
# metric/SLO bounds, budget conservation, clean-twin watchdog bounds,
# root-cause recovery, cloning fast-vs-reference bit-identity. Exits
# non-zero if any scenario violates any invariant.
run ./target/release/scenario_run --smoke > /dev/null

# Paper-parity gate: re-measures every anchored figure relation against
# the committed golden values (crates/conformance/golden/anchors.json),
# runs the differential oracles, and proves drift detection by
# perturbing every golden value (--selftest). Exits non-zero on any
# drift. Seed-matrix mode (--seeds 3) is run in CI-ish contexts by
# hand; the per-change gate sticks to the golden seed for speed.
run ./target/release/paper_parity --offline --selftest > /dev/null

echo "All checks passed."
