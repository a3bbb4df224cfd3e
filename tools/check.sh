#!/usr/bin/env bash
# Pre-merge gate: tier-1 build + tests, then an ASan+UBSan pass and a
# TSan pass, each over the whole suite.
#
# Usage: tools/check.sh [--no-asan] [--no-tsan]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "==== tier-1: configure + build + ctest ===="
# Warnings fail the tier-1 build, so a clean build of the tree stays
# warning-free.
cmake -B build -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON > /dev/null
cmake --build build -j "${JOBS}"
(cd build && ctest --output-on-failure -j "${JOBS}")

echo "==== bench smoke: prefix cache identity + replay gates ===="
cmake --build build -j "${JOBS}" --target prefix_cache
./build/bench/prefix_cache --smoke

echo "==== bench smoke: continuous batching identity + speedup gates ===="
# Also gates registry instrumentation: publishing scheduler stats
# through a live MetricsRegistry must cost < 2% throughput.
cmake --build build -j "${JOBS}" --target batch_throughput
./build/bench/batch_throughput --smoke

echo "==== bench smoke: cluster failover goodput + identity gates ===="
# Exits non-zero when losing 1 of 4 replicas mid-run drops goodput below
# 90% of the same fleet's no-fault goodput, or when any failed-over
# forecast deviates from the fault-free reference.
cmake --build build -j "${JOBS}" --target cluster_failover
./build/bench/cluster_failover --smoke
# Both files it rewrites are goldens: they hold virtual-time results
# only, so a regenerated file that differs from the committed one is a
# change in behaviour or in the metrics export that must be committed.
git diff --exit-code -- BENCH_cluster.json BENCH_cluster_metrics.json

echo "==== bench smoke: overload degradation-ladder goodput gates ===="
# Exits non-zero when the ladder fails to hold >= 90% goodput at 8x
# overload (where the ungoverned baseline collapses), or when a rerun of
# the laddered cell is not bit-identical.
cmake --build build -j "${JOBS}" --target ablation_overload
./build/bench/ablation_overload --smoke

echo "==== bench smoke: paged session memory identity + bytes gates ===="
# Exits non-zero when any forecast diverges from the unbatched run
# (bit-identity across batch sizes 1/4/16 and on a pool run past its
# block budget), the bytes/session reduction against the retired map
# storage's bytes for the same entries falls below 2x, or a pool at its
# block budget fails to demote/shed through the overload ladder.
cmake --build build -j "${JOBS}" --target paged_memory
./build/bench/paged_memory --smoke

echo "==== perfbench: every workload, 1 s, seeds 1 and 7, digest gates ===="
# Exits non-zero when a workload fails to build or run, reports
# "correct": false, or its output digest differs from the digest below
# for its seed: decode- and ingest-path optimizations must leave every
# output bit as is.
declare -A PERFBENCH_DIGESTS=(
  [tables:1]=44e2555563b4bf82
  [many-series:1]=9d929735f617fe46
  [serve-burst:1]=12aa9dba90ead3c4
  [fleet-failover:1]=52db687b6ae88dc0
  [tables:7]=e17a76921f6bc337
  [many-series:7]=a178b91ffdbce252
  [serve-burst:7]=567cef10fd771b99
  [fleet-failover:7]=3ec7e9ac0d57cc0b
)
for seed in 1 7; do
  for workload in tables many-series serve-burst fleet-failover; do
    out="$(python3 perfbench/run.py --workload "${workload}" --seed "${seed}" \
           --seconds 1 --trace 0 2> /dev/null)"
    printf '%s\n' "${out}" | python3 -c '
import json, sys
workload, seed, want = sys.argv[1], sys.argv[2], sys.argv[3]
objects = [json.loads(line) for line in sys.stdin if line.startswith("{")]
digest = next(o["header"]["digest"] for o in objects if "header" in o)
correct = objects[-1]["correct"]
print(f"{workload} seed {seed}: correct {correct}, digest {digest} (want {want})")
sys.exit(0 if correct is True and digest == want else 1)
' "${workload}" "${seed}" "${PERFBENCH_DIGESTS[${workload}:${seed}]}"
  done
done

run_asan=1
run_tsan=1
for arg in "$@"; do
  case "${arg}" in
    --no-asan) run_asan=0 ;;
    --no-tsan) run_tsan=0 ;;
    *) echo "unknown flag: ${arg}" >&2; exit 2 ;;
  esac
done

if [[ "${run_asan}" == "1" ]]; then
  echo "==== sanitizer pass: ASan + UBSan on the whole suite ===="
  cmake -B build-asan -S . -DMC_SANITIZE=ON > /dev/null
  cmake --build build-asan -j "${JOBS}"
  (cd build-asan && ctest --output-on-failure -j "${JOBS}")
else
  echo "==== skipping ASan pass (--no-asan) ===="
fi

if [[ "${run_tsan}" == "1" ]]; then
  echo "==== sanitizer pass: TSan on the whole suite ===="
  cmake -B build-tsan -S . -DMC_SANITIZE_THREAD=ON > /dev/null
  cmake --build build-tsan -j "${JOBS}"
  (cd build-tsan && ctest --output-on-failure -j "${JOBS}")
else
  echo "==== skipping TSan pass (--no-tsan) ===="
fi

echo "==== all checks passed ===="
