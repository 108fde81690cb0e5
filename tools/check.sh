#!/usr/bin/env bash
# CI-style check: build + test the Release configuration, then build + test
# a ThreadSanitizer configuration (-DTSI_TSAN=ON). Every build it makes
# treats compiler warnings as errors (-Werror). Run from anywhere:
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
#   tools/check.sh fastpath   # additionally run the fp32+int8 serving demo
#                             # under TSan with 8 SPMD slots forced (the demo
#                             # exits non-zero if two fp32 runs disagree on
#                             # tokens or finish times)
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
#                             # suites (and the serving golden values)
#                             # under TSan with 8 SPMD slots forced
#                             # (two engines' thread pools live at once during
#                             # migration) and run bench_serving --disagg to
#                             # refresh the E24 sweep in BENCH_serving.json
#   tools/check.sh asan       # additionally build an AddressSanitizer +
#                             # UndefinedBehaviorSanitizer config
#                             # (-DTSI_ASAN=ON) and run the SPMD, engine,
#                             # serving (golden values and the anatomy/
#                             # roofline folds included), disaggregation,
#                             # collective,
#                             # replication, estimator-property and plan
#                             # suites (every replication site edits
#                             # LayerCost, PriceBlock and Propagate)
#                             # on it with 8 SPMD slots forced (packed
#                             # tuple-collective deposits, per-axis ring
#                             # chunks, tensor offset math, ragged row
#                             # splits, KV page pool, ragged-step appends,
#                             # the ragged paged attention kernel's page
#                             # reads and their death tests)
#   tools/check.sh portable   # additionally build without -march=native
#                             # (-DTSI_MARCH_NATIVE=OFF, build-check-portable/)
#                             # and run the weights, engine golden-value,
#                             # determinism and stats suites on it: their recorded
#                             # hashes come from native builds, so this checks
#                             # the claim that results are bit-identical with
#                             # or without the native ISA
#   tools/check.sh perfbench  # additionally rebuild the host-clock serving
#                             # benchmark from scratch (.bench_build/) and
#                             # run perfbench/run.py on both workloads for
#                             # 2 s, twice with spans off and once on; fail
#                             # unless each result reads correct with 0
#                             # failed requests and the two span-off runs'
#                             # modeled-clock ttft_p50/ttft_p90/tpot_p50
#                             # agree exactly (one seed, one schedule)
#
# TSan halves throughput and multiplies memory, so TSI_TSAN_TESTS can narrow
# the sanitized run to the concurrency-heavy tests (exact suite names,
# '|'-separated; a name no suite has fails the run); default is everything.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc)"

# Runs ctest in build tree $1 on exactly the suites named by the
# '|'-separated list $2. ctest exits 0 when a -R regex matches no test, so
# a suite that was renamed or removed would silently drop out of the leg:
# fail instead when the tree does not register every listed suite, and
# anchor the regex so one name never matches another.
run_suites() {
  local dir="$1" list="$2" registered suite
  registered="$(ctest --test-dir "$dir" -N | sed -n 's/^ *Test *#[0-9]*: //p')"
  for suite in ${list//|/ }; do
    if ! grep -qx -- "$suite" <<<"$registered"; then
      echo "check.sh: $dir registers no test suite named '$suite'" >&2
      exit 1
    fi
  done
  ctest --test-dir "$dir" --output-on-failure -j "$jobs" -R "^(${list})\$"
}

echo "== Release build =="
cmake -B "$repo/build-check" -S "$repo" -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build "$repo/build-check" -j "$jobs"
ctest --test-dir "$repo/build-check" --output-on-failure -j "$jobs"

echo "== ThreadSanitizer build =="
cmake -B "$repo/build-check-tsan" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DTSI_TSAN=ON -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build "$repo/build-check-tsan" -j "$jobs"
if [[ -n "${TSI_TSAN_TESTS:-}" ]]; then
  run_suites "$repo/build-check-tsan" "$TSI_TSAN_TESTS"
else
  ctest --test-dir "$repo/build-check-tsan" --output-on-failure -j "$jobs"
fi

# Re-run the concurrency-heavy tests with multi-slot SPMD execution forced
# on: the default slot count is the host's core count, which can be 1 on a
# small CI box -- that would serialize the very interleavings TSan is here
# to check. 8 slots exercises concurrent charging, rendezvous, and tracing.
echo "== ThreadSanitizer, 8 SPMD slots forced =="
TSI_SPMD_SLOTS=8 TSI_NUM_THREADS=8 \
  run_suites "$repo/build-check-tsan" 'spmd_test|engine_test|engine_golden_test|collectives_test|ring_test|trace_test|determinism_test|serve_test|serve_golden_test|disagg_test|fastpath_test|sharding_test|anatomy_test|obs_test|replication_test|replication_identity_test'

if [[ "${1:-}" == "asan" ]]; then
  # Memory-safety and UB check: -fsanitize=address,undefined with
  # -fno-sanitize-recover, so any report fails the test. Only the suites it
  # runs are built; ring_test and collectives_test cover the per-axis chunk
  # bookkeeping of the wire-level collectives, estimator_properties_test and
  # plan_test the estimator and the src/plan lowering, serve_golden_test and
  # anatomy_test the serving loop and the anatomy/roofline folds over its
  # timeline, weights_golden_test the Gaussian kernel's block and half-pair
  # bookkeeping, tensor_test the shared buffers' view offsets and
  # copy-on-write detaches, fastpath_test the ragged paged attention
  # kernel's page-table pointer arithmetic over NaN-padded pages.
  asan_tests='spmd_test|engine_test|engine_golden_test|serve_test|serve_golden_test|disagg_test|anatomy_test|ring_test|collectives_test|edge_cases_test|sharding_test|replication_test|replication_identity_test|estimator_properties_test|plan_test|weights_golden_test|tensor_test|fastpath_test'
  echo "== AddressSanitizer + UBSan build =="
  cmake -B "$repo/build-check-asan" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DTSI_ASAN=ON -DCMAKE_CXX_FLAGS=-Werror >/dev/null
  cmake --build "$repo/build-check-asan" -j "$jobs" \
        --target ${asan_tests//|/ }
  echo "== AddressSanitizer + UBSan, 8 SPMD slots forced =="
  TSI_SPMD_SLOTS=8 TSI_NUM_THREADS=8 \
    run_suites "$repo/build-check-asan" "$asan_tests"
fi

if [[ "${1:-}" == "portable" ]]; then
  # Portability check: the kernel libraries built for baseline x86-64 (no
  # -march=native) must reproduce the golden values recorded on native
  # builds -- the random weights (the Gaussian kernel, rng.cc), the engine's
  # logits and tokens, the thread-count determinism suite, and the latency
  # percentiles (util_test's StatsGoldenTest).
  portable_tests='weights_golden_test|engine_golden_test|determinism_test|util_test'
  echo "== Portable build (TSI_MARCH_NATIVE=OFF) =="
  cmake -B "$repo/build-check-portable" -S "$repo" -DCMAKE_BUILD_TYPE=Release \
        -DTSI_MARCH_NATIVE=OFF -DCMAKE_CXX_FLAGS=-Werror >/dev/null
  cmake --build "$repo/build-check-portable" -j "$jobs" \
        --target ${portable_tests//|/ }
  run_suites "$repo/build-check-portable" "$portable_tests"
fi

if [[ "${1:-}" == "bench" ]]; then
  echo "== SPMD wall-clock bench =="
  (cd "$repo" && ./build-check/bench/bench_sim_wallclock)
  echo "== Continuous-batching serving bench =="
  (cd "$repo" && ./build-check/bench/bench_serving)
fi

if [[ "${1:-}" == "fastpath" ]]; then
  # Fused-kernel race check: the fp32 + end-to-end int8 serving demo
  # (examples/fastpath_serving.cpp) under ThreadSanitizer with multi-slot
  # SPMD execution forced on. The demo itself gates on two fp32 runs
  # agreeing exactly, so this catches both races and silent divergence.
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
    run_suites "$repo/build-check-tsan" 'sharding_test|engine_test|serve_test|edge_cases_test'
fi

if [[ "${1:-}" == "disagg" ]]; then
  # Disaggregation race check: KV migration exports from one engine and
  # imports into another, so two SimMachines' thread pools and page pools
  # are live at once; 8 forced SPMD slots overlap the source's chunked
  # ExportSlot reads with the destination's Step writes (serve_golden_test
  # pins both pool shapes of the serving loop). Then the
  # E24 prefill/decode-pool sweep runs standalone, writing
  # BENCH_serving_disagg.json (the full tracked BENCH_serving.json is only
  # refreshed by the plain bench run, which includes every section).
  echo "== Disaggregated serving under TSan (8 SPMD slots) =="
  TSI_SPMD_SLOTS=8 TSI_NUM_THREADS=8 \
    run_suites "$repo/build-check-tsan" 'disagg_test|serve_test|serve_golden_test|engine_test'
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
    run_suites "$repo/build-check-tsan" 'plan_test|planner_test|block_cost_test'
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
  # The host-clock serving benchmark as a fresh checkout runs it: its own
  # build tree (.bench_build/) configured and compiled from scratch by
  # perfbench/run.py, then both workloads for 2 s with spans off (twice)
  # and on. Each run's last stdout line is its JSON result; every one must
  # read correct with 0 failed requests, and the two span-off runs must
  # report the same modeled-clock latencies (one seed, one schedule).
  echo "== Host-clock serving benchmark (perfbench, fresh .bench_build) =="
  rm -rf "$repo/.bench_build"
  for workload in rag prefix; do
    runs=()
    for trace in 0 0 1; do
      result="$(cd "$repo" && python3 perfbench/run.py --workload "$workload" \
                  --seed 1 --seconds 2 --trace "$trace" | tail -n 1)" \
        || { echo "perfbench $workload --trace $trace: run failed"; exit 1; }
      echo "$workload --trace $trace: $result"
      python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' "$result" \
        || { echo "perfbench $workload --trace $trace: not correct, or requests failed"; exit 1; }
      runs+=("$result")
    done
    python3 -c 'import json, sys
a, b = (json.loads(r) for r in sys.argv[2:4])
names = ("ttft_p50_ms", "ttft_p90_ms", "tpot_p50_ms")
va = [a["metrics"][n]["value"] for n in names]
vb = [b["metrics"][n]["value"] for n in names]
print(sys.argv[1] + ": " + ", ".join("%s %r" % nv for nv in zip(names, va)))
sys.exit(0 if va == vb else 1)' "$workload" "${runs[@]}" \
      || { echo "perfbench $workload: modeled metrics differ between runs"; exit 1; }
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
