#!/usr/bin/env bash
# CI-style check: build + test the Release configuration, then build + test
# a ThreadSanitizer configuration (-DTSI_TSAN=ON). Run from anywhere:
#
#   tools/check.sh            # both configs, all tests
#   TSI_TSAN_TESTS='threadpool_test|determinism_test|threaded_test' tools/check.sh
#   tools/check.sh bench      # additionally run bench_sim_wallclock -> BENCH_sim.json
#   tools/check.sh obs        # additionally run the observability smoke check
#                             # (trace_report --demo: serve, export, re-parse,
#                             # validate utilization + scheduler-timeline
#                             # invariants, anatomy/roofline/SLO sections)
#   tools/check.sh bench-diff # additionally re-run the serving bench into a
#                             # scratch file and gate it against the tracked
#                             # BENCH_serving.json with tools/bench_diff
#                             # (the bench is deterministic, so any drift in
#                             # a latency/throughput/SLO metric fails)
#   tools/check.sh fastpath   # additionally run the fused+int8 serving demo
#                             # under TSan with 8 SPMD slots forced (the demo
#                             # exits non-zero if fused fp32 diverges from
#                             # the baseline's tokens)
#   tools/check.sh paged      # additionally re-run the paged-KV suites (page
#                             # pool, COW forks, prefix-sharing serving) under
#                             # TSan with 8 SPMD slots forced -- concurrent
#                             # Appends into one page pool are the race
#                             # surface the paged cache added
#   tools/check.sh autotune   # additionally re-run the plan/autotuner suites
#                             # under TSan with 8 SPMD slots forced (the
#                             # functional plan validation drives two
#                             # engines' thread pools), re-run the E26
#                             # autotuner bench into a scratch file and gate
#                             # it against the tracked BENCH_plan.json, and
#                             # round-trip a freshly tuned tiny-model cache
#                             # through plan_cli validate --functional
#   tools/check.sh disagg     # additionally re-run the disaggregated-serving
#                             # suites under TSan with 8 SPMD slots forced
#                             # (two engines' thread pools live at once during
#                             # migration) and run bench_serving --disagg to
#                             # refresh the E24 sweep in BENCH_serving.json
#   tools/check.sh asan       # additionally build an AddressSanitizer +
#                             # UndefinedBehaviorSanitizer config
#                             # (-DTSI_ASAN=ON) and run the SPMD, engine,
#                             # serving, disaggregation and collective suites
#                             # on it with 8 SPMD slots forced (packed
#                             # tuple-collective deposits, per-axis ring
#                             # chunks, tensor offset math, KV page pool,
#                             # ragged-step appends and their death tests)
#   tools/check.sh perfbench  # additionally run the host-clock serving
#                             # benchmark (perfbench/run.py) on both
#                             # workloads for 5 s with spans on, and fail
#                             # unless each result reads correct with 0
#                             # failed requests
#
# TSan halves throughput and multiplies memory, so TSI_TSAN_TESTS can narrow
# the sanitized run to the concurrency-heavy tests; default is everything.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc)"

echo "== Release build =="
cmake -B "$repo/build-check" -S "$repo" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$repo/build-check" -j "$jobs"
ctest --test-dir "$repo/build-check" --output-on-failure -j "$jobs"

echo "== ThreadSanitizer build =="
cmake -B "$repo/build-check-tsan" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DTSI_TSAN=ON >/dev/null
cmake --build "$repo/build-check-tsan" -j "$jobs"
ctest --test-dir "$repo/build-check-tsan" --output-on-failure -j "$jobs" \
      ${TSI_TSAN_TESTS:+-R "$TSI_TSAN_TESTS"}

# Re-run the concurrency-heavy tests with multi-slot SPMD execution forced
# on: the default slot count is the host's core count, which can be 1 on a
# small CI box -- that would serialize the very interleavings TSan is here
# to check. 8 slots exercises concurrent charging, rendezvous, and tracing.
echo "== ThreadSanitizer, 8 SPMD slots forced =="
TSI_SPMD_SLOTS=8 TSI_NUM_THREADS=8 \
  ctest --test-dir "$repo/build-check-tsan" --output-on-failure -j "$jobs" \
        -R 'spmd_test|engine_test|engine_golden_test|collectives_test|ring_test|trace_test|determinism_test|serve_test|disagg_test|fastpath_test|sharding_test|anatomy_test|obs_test'

if [[ "${1:-}" == "asan" ]]; then
  # Memory-safety and UB check: -fsanitize=address,undefined with
  # -fno-sanitize-recover, so any report fails the test. Only the suites it
  # runs are built; ring_test and collectives_test cover the per-axis chunk
  # bookkeeping of the wire-level collectives.
  asan_tests='spmd_test|engine_test|engine_golden_test|serve_test|disagg_test|ring_test|collectives_test|edge_cases_test|sharding_test'
  echo "== AddressSanitizer + UBSan build =="
  cmake -B "$repo/build-check-asan" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DTSI_ASAN=ON >/dev/null
  cmake --build "$repo/build-check-asan" -j "$jobs" \
        --target ${asan_tests//|/ }
  echo "== AddressSanitizer + UBSan, 8 SPMD slots forced =="
  TSI_SPMD_SLOTS=8 TSI_NUM_THREADS=8 \
    ctest --test-dir "$repo/build-check-asan" --output-on-failure -j "$jobs" \
          -R "^(${asan_tests})\$"
fi

if [[ "${1:-}" == "bench" ]]; then
  echo "== SPMD wall-clock bench =="
  (cd "$repo" && ./build-check/bench/bench_sim_wallclock)
  echo "== Continuous-batching serving bench =="
  (cd "$repo" && ./build-check/bench/bench_serving)
fi

if [[ "${1:-}" == "fastpath" ]]; then
  # Fused-kernel race check: the fused fp32 + end-to-end int8 serving demo
  # (examples/fastpath_serving.cpp) under ThreadSanitizer with multi-slot
  # SPMD execution forced on. The demo itself gates on the bit-exactness
  # contract, so this catches both races and silent divergence.
  echo "== Fast-path serving demo under TSan (8 SPMD slots) =="
  TSI_SPMD_SLOTS=8 TSI_NUM_THREADS=8 "$repo/build-check-tsan/examples/fastpath_serving"
fi

if [[ "${1:-}" == "paged" ]]; then
  # Paged-KV race check: BeginStep allocates pages and COW-splits shared
  # boundary pages single-threaded, then Appends write distinct chips'
  # pools concurrently. 8 forced SPMD slots exercise exactly that overlap
  # across the page-pool unit tests, the engine's paged/contiguous identity
  # suite, and the prefix-sharing serving runtime.
  echo "== Paged KV cache under TSan (8 SPMD slots) =="
  TSI_SPMD_SLOTS=8 TSI_NUM_THREADS=8 \
    ctest --test-dir "$repo/build-check-tsan" --output-on-failure -j "$jobs" \
          -R 'sharding_test|engine_test|serve_test|edge_cases_test'
fi

if [[ "${1:-}" == "disagg" ]]; then
  # Disaggregation race check: KV migration exports from one engine and
  # imports into another, so two SimMachines' thread pools and page pools
  # are live at once; 8 forced SPMD slots overlap the source's chunked
  # ExportSlot reads with the destination's Step writes. Then the
  # E24 prefill/decode-pool sweep runs standalone, writing
  # BENCH_serving_disagg.json (the full tracked BENCH_serving.json is only
  # refreshed by the plain bench run, which includes every section).
  echo "== Disaggregated serving under TSan (8 SPMD slots) =="
  TSI_SPMD_SLOTS=8 TSI_NUM_THREADS=8 \
    ctest --test-dir "$repo/build-check-tsan" --output-on-failure -j "$jobs" \
          -R 'disagg_test|serve_test|engine_test'
  echo "== Disaggregated serving bench (E24 sweep) =="
  (cd "$repo" && ./build-check/bench/bench_serving --disagg)
fi

if [[ "${1:-}" == "autotune" ]]; then
  # Plan-subsystem check: the propagation/lowering/autotuner suites under
  # TSan with multi-slot SPMD execution forced (ValidatePlanPair runs two
  # DistributedEngines side by side, so two thread pools are live), then
  # the deterministic E26 bench gated against the tracked BENCH_plan.json
  # (host_search_s is wall-clock and stays informational by name), then a
  # fresh tiny-model tune -> validate --functional round trip through the
  # CLI, with the validation half under TSan too.
  echo "== Plan/autotuner suites under TSan (8 SPMD slots) =="
  TSI_SPMD_SLOTS=8 TSI_NUM_THREADS=8 \
    ctest --test-dir "$repo/build-check-tsan" --output-on-failure -j "$jobs" \
          -R 'plan_test|planner_test|block_cost_test'
  echo "== Autotuner bench regression gate (bench_diff) =="
  candidate="$repo/build-check/BENCH_plan.candidate.json"
  (cd "$repo" && TSI_BENCH_JSON="$candidate" ./build-check/bench/bench_plan)
  "$repo/build-check/tools/bench_diff" "$repo/BENCH_plan.json" "$candidate"
  echo "== plan_cli tune/validate round trip (functional, TSan) =="
  plans="$repo/build-check/plans.tiny.json"
  "$repo/build-check/tools/plan_cli" tune --model tiny-mqa --chips 2,4 \
      --batches 4,8 --contexts 16,32 --out "$plans"
  TSI_SPMD_SLOTS=8 TSI_NUM_THREADS=8 \
    "$repo/build-check-tsan/tools/plan_cli" validate "$plans" --functional
fi

if [[ "${1:-}" == "perfbench" ]]; then
  # The benchmark's own build (.bench_build/) and correctness replay: each
  # workload's last stdout line is its JSON result.
  echo "== Host-clock serving benchmark (perfbench) =="
  for workload in rag prefix; do
    result="$(cd "$repo" && python3 perfbench/run.py --workload "$workload" \
                --seed 1 --seconds 5 --trace 1 | tail -n 1)"
    echo "$workload: $result"
    python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' "$result" \
      || { echo "perfbench $workload: not correct, or requests failed"; exit 1; }
  done
fi

if [[ "${1:-}" == "obs" ]]; then
  # End-to-end observability smoke: run a traced continuous-serving demo,
  # write the combined trace/utilization/metrics/anatomy/roofline/SLO
  # document, re-parse it, and validate the fraction + scheduler-timeline
  # invariants (exits non-zero on failure).
  echo "== Observability smoke (trace_report --demo) =="
  "$repo/build-check/tools/trace_report" --demo "$repo/build-check/obs_demo"
fi

if [[ "${1:-}" == "bench-diff" ]]; then
  # Serving-bench regression gate: rerun the (deterministic) bench into a
  # scratch path and diff it against the tracked document. Exit 1 on any
  # latency/throughput regression beyond tolerance or an SLO verdict that
  # flipped attained -> missed; exit 2 on structural drift.
  echo "== Serving bench regression gate (bench_diff) =="
  candidate="$repo/build-check/BENCH_serving.candidate.json"
  (cd "$repo" && TSI_BENCH_JSON="$candidate" ./build-check/bench/bench_serving)
  "$repo/build-check/tools/bench_diff" "$repo/BENCH_serving.json" "$candidate"
fi

echo "OK: all configurations pass"
