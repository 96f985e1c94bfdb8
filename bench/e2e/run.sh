#!/usr/bin/env bash
# End-to-end benchmark: builds the driver from source, then runs workloads.
#
#   bash bench/e2e/run.sh --workload <name> [--seed N] [--seconds S]
#                         [--trace 0|1] [--trace-dir DIR]
#   bash bench/e2e/run.sh [--seed N] [--seconds S] [--trace 0|1]   # all four
#   bash bench/e2e/run.sh --smoke                                    # CI check
#
# Each workload run prints a context line and then, as its last line, one
# JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
# metrics with --trace 0 (default), the per-layer metrics with --trace 1
# (which also writes a Chrome trace per workload).  --smoke runs every
# workload at 1/10 of the default length, on smaller systems, with every
# check on, and fails when any check fails.  The build goes to
# .bench_build/e2e at the root of the checkout; build output goes to stderr.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="${root}/.bench_build/e2e"
workloads=(autotune large_solve serve_warm serve_churn)

workload=""
seed=1
seconds=20
trace=0
trace_dir="${build}/traces"
smoke=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --trace-dir) trace_dir="$2"; shift 2 ;;
    --smoke) smoke=1; seconds=2; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

# Compiler temporaries stay inside the checkout too.
mkdir -p "${build}/tmp"
export TMPDIR="${build}/tmp"
cmake -S "${root}/bench/e2e" -B "${build}" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "${build}" -j "$(nproc)" >&2

if [[ -e "${root}/.git" ]]; then
  MCMI_E2E_GIT_SHA="$(git -C "${root}" rev-parse HEAD 2>/dev/null || echo unknown)"
  export MCMI_E2E_GIT_SHA
fi

threads=$(( $(nproc) < 4 ? $(nproc) : 4 ))
run_one() {
  local name="$1" omp=1
  case "${name}" in
    autotune|large_solve) omp="${threads}" ;;
  esac
  OMP_NUM_THREADS="${omp}" "${build}/e2e_driver" --workload "${name}" \
    --seed "${seed}" --seconds "${seconds}" --trace "${trace}" \
    --trace-dir "${trace_dir}" --smoke "${smoke}"
}

if [[ -n "${workload}" ]]; then
  run_one "${workload}"
  exit 0
fi

status=0
for name in "${workloads[@]}"; do
  out="$(run_one "${name}")" || status=1
  printf '%s\n' "${out}"
  if [[ "${smoke}" == 1 && "$(printf '%s\n' "${out}" | tail -n 1)" != '{"correct":true,'* ]]; then
    echo "run.sh: smoke check failed for ${name}" >&2
    status=1
  fi
done
exit "${status}"
