#!/usr/bin/env bash
# The CI pipeline, runnable locally stage by stage. The GitHub workflow
# (.github/workflows/ci.yml) is a thin matrix over these stages, so "CI is
# red" always reproduces with one command:
#
#   $ tools/ci.sh release   # Release -Werror build + full ctest suite
#   $ tools/ci.sh asan      # Debug + ASan/UBSan build + full ctest suite
#   $ tools/ci.sh tsan      # tools/check.sh (TSan gate, concurrency tests)
#   $ tools/ci.sh bench     # smoke-run micro benches, diff vs baseline
#   $ tools/ci.sh soak      # compressed million-user soak + admission gates
#   $ tools/ci.sh format    # clang-format check (skips if not installed)
#   $ tools/ci.sh all       # everything above, in order
#   $ tools/ci.sh lines [base-ref]  # src/ and tests/ line delta (no build)
#
# Each stage uses its own build tree (build-ci-*/, gitignored via build-*/)
# so they never contaminate a developer's default build/.
#
# The soak stage honours TIERA_SOAK_SCALE (phase-duration multiplier; the
# nightly workflow runs 10x the PR soak) and the bench stage honours
# TIERA_SATURATION_STRICT=1 (arms the 4-thread >= 3x 1-thread scaling gate,
# which needs real cores).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc)"

# ccache makes the four compiled lanes mostly cache hits on warm runners
# (ci.yml persists the cache dir across runs). Purely opportunistic: absent
# ccache, the stages build exactly as before.
cmake_launcher=()
if command -v ccache >/dev/null 2>&1; then
  cmake_launcher=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

stage_release() {
  echo "=== ci: release build + tests ==="
  # Warnings are fatal here: the build is warning-free, so a new warning
  # fails the lane instead of piling up.
  cmake -B "${repo_root}/build-ci-release" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-Werror \
    "${cmake_launcher[@]}"
  cmake --build "${repo_root}/build-ci-release" -j "${jobs}"
  # --timeout caps each test so one hung binary fails fast instead of
  # stalling the lane until the job-level timeout.
  ctest --test-dir "${repo_root}/build-ci-release" --output-on-failure \
    --timeout 120 -j "${jobs}"
}

stage_asan() {
  echo "=== ci: ASan+UBSan build + tests ==="
  cmake -B "${repo_root}/build-ci-asan" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=Debug -DTIERA_SANITIZE=address,undefined \
    "${cmake_launcher[@]}"
  cmake --build "${repo_root}/build-ci-asan" -j "${jobs}"
  # halt_on_error surfaces UBSan findings as test failures, not just logs.
  # Sanitized binaries run slower; still cap each test (see stage_release).
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ASAN_OPTIONS="detect_leaks=0" \
  ctest --test-dir "${repo_root}/build-ci-asan" --output-on-failure \
    --timeout 180 -j "${jobs}"
}

stage_tsan() {
  echo "=== ci: TSan gate (tools/check.sh) ==="
  "${repo_root}/tools/check.sh"
}

stage_bench() {
  echo "=== ci: bench smoke + regression diff ==="
  cmake -B "${repo_root}/build-ci-release" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=Release "${cmake_launcher[@]}"
  cmake --build "${repo_root}/build-ci-release" -j "${jobs}" \
    --target micro_primitives stage_smoke heat_smoke saturation_smoke
  # Reduced scale: this is a regression tripwire, not a measurement run.
  # bench_diff compares each benchmark's fastest of the five repetitions.
  "${repo_root}/build-ci-release/bench/micro_primitives" \
    --benchmark_min_time=0.05 --benchmark_repetitions=5 \
    --benchmark_format=json \
    --benchmark_out="${repo_root}/build-ci-release/BENCH_micro.json"
  # Tee the diff so the workflow can upload it as an artifact even when the
  # gate passes; the report is the evidence for "within threshold".
  python3 "${repo_root}/tools/bench_diff.py" \
    "${repo_root}/bench/BENCH_micro.json" \
    "${repo_root}/build-ci-release/BENCH_micro.json" \
    --threshold 0.15 \
    | tee "${repo_root}/build-ci-release/bench_diff_report.txt"
  # Cost-attribution gate: drives RPC PUT/GET/DELETE load with unsampled
  # stage timers and the profiler running, then asserts per-op stage sums
  # reconcile with whole-op latency within 10% and the folded stacks name
  # the journal/policy/tier-I/O frames. The report and folded profile are
  # uploaded as workflow artifacts (evidence for where hot-path time goes
  # at this commit).
  "${repo_root}/build-ci-release/bench/stage_smoke" \
    "${repo_root}/build-ci-release/stage_report.txt" \
    "${repo_root}/build-ci-release/profile.folded"
  # Heat-telemetry gate: zipfian PUT load over 100k distinct keys; the
  # reported per-tier top-20 must contain >= 90% of the true top-20, the
  # tracker's memory must hold its fixed bound, and per-rule cost bytes must
  # reconcile with tiera_instance_policy_bytes_total. The rendered heat/cost
  # report is uploaded as a workflow artifact.
  "${repo_root}/build-ci-release/bench/heat_smoke" \
    "${repo_root}/build-ci-release/heat_report.txt"
  # Request-core saturation gate: end-to-end QPS through the epoll reactor
  # and per-core shards at 1/4/8 client threads with journal_sync on. Hard
  # gates: zero request errors, fsyncs*4 < records under saturation (group
  # commit really coalesces), no throughput collapse under concurrency. The
  # 4-thread >= 3x 1-thread scaling gate only arms when
  # TIERA_SATURATION_STRICT=1 (it needs real cores; CI containers often
  # pin us to one). The report is uploaded as a workflow artifact.
  "${repo_root}/build-ci-release/bench/saturation_smoke" \
    "${repo_root}/build-ci-release/saturation_report.txt"
  # Fold the end-to-end QPS numbers into the regression report: the report's
  # qps_threads_* lines are checked against the committed floors in
  # bench/BENCH_saturation.json, so a throughput collapse fails the lane
  # even when every microbenchmark is still green.
  python3 "${repo_root}/tools/bench_diff.py" \
    --saturation "${repo_root}/bench/BENCH_saturation.json" \
    "${repo_root}/build-ci-release/saturation_report.txt" \
    | tee -a "${repo_root}/build-ci-release/bench_diff_report.txt"
}

stage_soak() {
  echo "=== ci: soak (compressed million-user replay + admission gates) ==="
  cmake -B "${repo_root}/build-ci-release" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=Release "${cmake_launcher[@]}"
  cmake --build "${repo_root}/build-ci-release" -j "${jobs}" \
    --target soak_runner
  # ~65 s of wall clock at the default scale: zipfian million-user traffic
  # on a diurnal curve, one flash crowd past the fast tier's modelled
  # capacity, one failure storm on the durable tier. Gates: zero unexpected
  # client errors (sheds excluded), the shedder engaged during the crowd,
  # peak RSS under the ceiling, and the run ends with breakers closed, SLOs
  # green and the shed level back to none. The report is uploaded as a
  # workflow artifact. TIERA_SOAK_SCALE multiplies the phase durations
  # (nightly runs 10x).
  # The black box is armed for the run: if the soak wedges (a stalled shard,
  # a frozen control tick), the watchdog writes an incident report into
  # incident-dir, which the workflow uploads as an artifact on failure.
  "${repo_root}/build-ci-release/bench/soak_runner" \
    --incident-dir="${repo_root}/build-ci-release/incident-dir" \
    "${repo_root}/build-ci-release/soak_report.txt"
}

# Added, removed and net lines of src/ and tests/ in the working tree against
# the merge-base with `base-ref` (default origin/main). Counts tracked files,
# so `git add` new ones first. CHANGES.md reports each change's src/ net.
stage_lines() {
  local base_ref="${1:-origin/main}"
  local base
  base="$(git -C "${repo_root}" merge-base "${base_ref}" HEAD)"
  echo "=== ci: line delta vs ${base_ref} (merge-base ${base:0:12}) ==="
  local dir
  for dir in src tests; do
    git -C "${repo_root}" diff --numstat "${base}" -- "${dir}" |
      awk -v dir="${dir}/" '
        $1 != "-" { added += $1; removed += $2 }
        END { printf "%-7s +%d -%d net %+d\n", dir, added, removed,
                     added - removed }'
  done
}

stage_format() {
  echo "=== ci: clang-format check ==="
  if ! command -v clang-format >/dev/null 2>&1; then
    echo "clang-format not installed; skipping format check"
    return 0
  fi
  local fail=0
  while IFS= read -r file; do
    if ! clang-format --style=file --dry-run --Werror "${file}"; then
      fail=1
    fi
  done < <(git -C "${repo_root}" ls-files '*.cpp' '*.h')
  if [[ ${fail} -ne 0 ]]; then
    echo "format check failed; run: git ls-files '*.cpp' '*.h' | xargs clang-format -i"
    return 1
  fi
  echo "format check passed"
}

usage() {
  sed -n '2,21p' "$0"
  exit 2
}

if [[ $# -ge 1 && $# -le 2 && "$1" == lines ]]; then
  stage_lines "${2:-}"
  exit 0
fi
[[ $# -eq 1 ]] || usage
case "$1" in
  release) stage_release ;;
  asan) stage_asan ;;
  tsan) stage_tsan ;;
  bench) stage_bench ;;
  soak) stage_soak ;;
  format) stage_format ;;
  all)
    stage_format
    stage_release
    stage_asan
    stage_tsan
    stage_bench
    stage_soak
    ;;
  *) usage ;;
esac
