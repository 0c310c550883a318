#!/usr/bin/env bash
# Builds hawk_e2e in Release from this checkout and runs the benchmark.
#
#   bash bench/e2e/run.sh                  # every workload, untraced then traced
#   bash bench/e2e/run.sh --workload google-15k --seed 1 --seconds 20 --trace 0
#   bash bench/e2e/run.sh --smoke          # every workload at 1/50 size, both modes
#
# The build goes to $CARGO_TARGET_DIR/e2e-<checksum of this checkout's path>
# (default .bench_build/e2e-...) and its log to stderr; result files go to
# bench/e2e/out/. With --workload, the last stdout line is the run's JSON
# result with the metrics BENCHMARK.json lists.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
  /*) ;;
  *) build="$root/$build" ;;
esac
# One build tree per checkout: a tree configured from another checkout would
# rebuild that checkout's sources, so two checkouts sharing an absolute
# CARGO_TARGET_DIR would both run the same code.
build="$build/e2e-$(printf '%s' "$here" | cksum | cut -d ' ' -f 1)"
out="$root/bench/e2e/out"
workloads=(google-15k scale-1m sharded-1m faults-15k sweep-fig5)

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja > /dev/null; then
    generator=(-G Ninja)
  fi
  cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$(nproc)" >&2

sha=unknown
if top="$(git -C "$root" rev-parse --show-toplevel 2> /dev/null)" && [[ "$top" == "$root" ]]; then
  sha="$(git -C "$root" rev-parse HEAD)"
fi

# One run: hawk_e2e's output with its last line narrowed to BENCHMARK.json.
run() {
  local trace=0
  local args=("$@")
  for ((i = 0; i + 1 < ${#args[@]}; i++)); do
    if [[ "${args[$i]}" == "--trace" ]]; then
      trace="${args[$((i + 1))]}"
    fi
  done
  "$build/hawk_e2e" --out "$out" --git-sha "$sha" "$@" |
    python3 "$here/compare.py" select --trace "$trace"
}

if [[ "${1:-}" == "--smoke" ]]; then
  mkdir -p "$out"
  for w in "${workloads[@]}"; do
    for t in 0 1; do
      run --workload "$w" --seed 1 --seconds 0 --scale 0.02 --trace "$t" \
        --out "$out/smoke" > "$out/smoke-$w-$t.log"
      echo "smoke $w trace=$t ok"
    done
  done
elif [[ $# -eq 0 ]]; then
  for t in 0 1; do
    for w in "${workloads[@]}"; do
      run --workload "$w" --trace "$t"
    done
  done
else
  run "$@"
fi
