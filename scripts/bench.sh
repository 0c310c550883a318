#!/usr/bin/env bash
# Benchmark artifacts: builds hawk_figures in Release and emits
#   BENCH_sweep.json   probe-ratio (power-of-d) ablation sweep run through
#                      the experiment API — tracks result trajectories for
#                      the sweep grid.
#   BENCH_hetero_slots.json  capacity-layout (multi-slot / heterogeneous
#                      worker) sweep at fixed total slots.
#   BENCH_impl_vs_sim.json  prototype-vs-simulation grid (fig 16/17): sparrow,
#                      hawk and the externally registered hawk-lb at 1 and 4
#                      slots per node, smoke scale (wall-clock runs; compare
#                      impl_* against sim_* columns, not across commits).
#   BENCH_faults.json  fault-injection ablation: crash-rate x loss-rate x
#                      every registered scheduler, simulated curves plus a
#                      tiny real-crash prototype grid.
#   BENCH_stragglers.json  straggler ablation: straggler-rate x every
#                      registered scheduler (hawk-spec shows speculation),
#                      p50/p99 normalized runtimes, simulated curves plus a
#                      tiny real-slowdown prototype grid.
#
# Executor speed (events/s, set-up time, peak RSS) is measured by the repo
# benchmark, bench/e2e (see bench/e2e/README.md), not here. See
# docs/performance.md for how to read each artifact.
#
# Usage:
#   scripts/bench.sh                      # full run, writes all artifacts
#
# Environment:
#   BUILD_DIR   build directory (default: build-bench). If it already holds a
#               configured build it is reused; otherwise it is configured as
#               a Release build here.
#   JOBS        parallelism (default: nproc)
#   SWEEP_OUT   sweep JSON path (default: BENCH_sweep.json)
#   HETERO_OUT  hetero-slots JSON path (default: BENCH_hetero_slots.json)
#   IMPL_OUT    impl-vs-sim JSON path (default: BENCH_impl_vs_sim.json)
#   FAULTS_OUT  fault-ablation JSON path (default: BENCH_faults.json)
#   STRAGGLERS_OUT  straggler-ablation JSON path (default: BENCH_stragglers.json)
#   SWEEP_SCALE HAWK_BENCH_SCALE for the sweeps (default: 1)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-bench}"
JOBS="${JOBS:-$(nproc)}"
SWEEP_OUT="${SWEEP_OUT:-BENCH_sweep.json}"
HETERO_OUT="${HETERO_OUT:-BENCH_hetero_slots.json}"
IMPL_OUT="${IMPL_OUT:-BENCH_impl_vs_sim.json}"
FAULTS_OUT="${FAULTS_OUT:-BENCH_faults.json}"
STRAGGLERS_OUT="${STRAGGLERS_OUT:-BENCH_stragglers.json}"
# Scale contract: HAWK_BENCH_SCALE is parsed (strictly) in exactly one
# place — BenchScale() in bench/figures.cc. This script only routes
# SWEEP_SCALE into that env var; it never parses or validates the value
# itself, so a malformed scale fails with hawk_figures' message, not two
# divergent ones. SWEEP_SCALE keeps working as the documented knob and an
# already-exported HAWK_BENCH_SCALE is respected as its default.
SWEEP_SCALE="${SWEEP_SCALE:-${HAWK_BENCH_SCALE:-1}}"
export HAWK_BENCH_SCALE="${SWEEP_SCALE}"

die() {
  echo "bench.sh: error: $*" >&2
  exit 1
}

[[ $# -eq 0 ]] || die "unexpected arguments: $* (configure through the environment, see the header)"

command -v cmake > /dev/null 2>&1 \
  || die "cmake not found on PATH — install CMake >= 3.16 (see README 'Build and test')"

# Configure the Release bench build only when the directory is not already a
# configured build tree; a stale or foreign directory fails loudly instead of
# being silently clobbered.
if [[ ! -f "${BUILD_DIR}/CMakeCache.txt" ]]; then
  if [[ -e "${BUILD_DIR}" && ! -d "${BUILD_DIR}" ]]; then
    die "BUILD_DIR '${BUILD_DIR}' exists but is not a directory"
  fi
  echo "bench.sh: configuring Release bench build in ${BUILD_DIR}"
  cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release -DHAWK_BUILD_TESTS=OFF \
        -DHAWK_BUILD_EXAMPLES=OFF \
    || die "CMake configure failed in '${BUILD_DIR}' — inspect the output above, or remove the directory and re-run"
fi

cmake --build "${BUILD_DIR}" -j "${JOBS}" --target hawk_figures \
  || die "hawk_figures build failed in '${BUILD_DIR}'"

FIGURES="${BUILD_DIR}/hawk_figures"

# hawk_figures prints "Wrote ..." itself on success.
"${FIGURES}" --figure=ablation-power-of-d --threads="${JOBS}" \
  --json="${SWEEP_OUT}"

"${FIGURES}" --figure=ablation-hetero-slots --threads="${JOBS}" \
  --json="${HETERO_OUT}"

# Prototype vs simulation at smoke scale: real node-monitor threads and sleep
# tasks, so this is wall-clock bound — keep it small and serial.
"${FIGURES}" --figure=fig16-17 --jobs=16 --work-seconds=3 --num-ratios=2 \
  --json="${IMPL_OUT}"

# Fault ablation: the sim grid scales with SWEEP_SCALE; the prototype half is
# wall-clock bound (real crashes + sleep tasks) and stays at smoke scale.
"${FIGURES}" --figure=ablation-faults --threads="${JOBS}" \
  --proto-jobs=12 --proto-work-seconds=3 --json="${FAULTS_OUT}"

# Straggler ablation: same split — scaled sim grid, smoke-scale prototype grid
# with real slowed-down executor sleeps.
"${FIGURES}" --figure=ablation-stragglers --threads="${JOBS}" \
  --proto-jobs=12 --proto-work-seconds=3 --json="${STRAGGLERS_OUT}"
