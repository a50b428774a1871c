#!/usr/bin/env bash
# The single list of bench scripts that produce artifacts/BENCH_*.json.
# CI's bench-smoke step and scripts/reproduce_all.sh both run this, so a
# new bench registers here once instead of being hand-synced into both.
#
# Every registered bench runs even when an earlier one fails (each keeps
# its own gate); the failures are listed at the end and the script then
# exits non-zero.
#
# Usage: scripts/ci_bench_quick.sh [build-dir] [--full]
#   default  quick mode (CI smoke: small sizes, --quick passed through)
#   --full   full-size runs for reproduce_all
set -uo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-build}"
if [ "$build_dir" = "--full" ]; then
  build_dir="build"
  mode="--full"
else
  mode="${2:-}"
fi

benches=(
  bench_gemm.sh
  bench_gemv.sh
  bench_dispatch.sh
  bench_residency.sh
  bench_serve.sh
  bench_emulated.sh
  bench_lapack.sh
)

args=("$build_dir")
[ "$mode" = "--full" ] || args+=(--quick)
failed=()
for bench in "${benches[@]}"; do
  echo "== $bench =="
  if ! "$repo_root/scripts/$bench" "${args[@]}"; then
    echo "!! $bench failed" >&2
    failed+=("$bench")
  fi
done

if [ "${#failed[@]}" -gt 0 ]; then
  echo "failed benches (${#failed[@]}/${#benches[@]}): ${failed[*]}" >&2
  exit 1
fi
echo "all ${#benches[@]} benches passed"
