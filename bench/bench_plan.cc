// Experiment E26 -- layout autotuner + cached serving plans (src/plan).
//
// Three sections, all on PaLM 540B (padded heads), int8 weights, TPU v4:
//
//   * "search": BuildPlanCache over the serving operating grid (chips x
//     phase x batch x context). Every candidate runs through the shard-spec
//     propagation pass and is priced off its DERIVED collective schedule;
//     the tuner self-checks that price against the hand-coded LayerCost,
//     so `price_mismatches` must be 0. Host wall-clock for the whole
//     search is reported as host_search_s (the search is milliseconds per
//     point -- the paper's structured space, not black-box search).
//
//   * "fig1": the tuner's winner at every Figure 1 (chips, batch) point
//     (plan::Sweep), cross-checked against an exhaustive search that prices
//     every spec of the raw cross product (EnumerateSpecs without dedup)
//     directly with the estimator -- same layout, same latency, bit for bit
//     (`matches_planner`). This gates the enumeration dedup and the
//     propagate->lower pipeline end to end.
//
//   * "serving": a continuous-batching run (serve/runtime.h) over the
//     analytic backend with the PlanCache consulted per prefill chunk and
//     per decode step. Reports the per-phase FFN layouts actually chosen,
//     the cache hit rate, and throughput. The decode frame runs the tuned
//     decode layout while prefill chunks switch to the tuned prefill
//     layout on the same mesh -- the free mid-run switch of §3.2.3.
//
// Writes BENCH_plan.json (override with TSI_BENCH_JSON); deterministic, so
// tools/check.sh's autotune mode gates it against the tracked document with
// tools/bench_diff. Exits 1 on any price mismatch or fig1 disagreement.
#include "common.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "plan/autotune.h"
#include "serve/analytic.h"
#include "serve/runtime.h"
#include "util/logging.h"

namespace tsi {
namespace {

int Run() {
  const ModelConfig cfg = Palm540BPadded();
  const InferenceEstimator est(cfg, TpuV4());
  const WeightFormat format = WeightFormat::kInt8;

  // --- Search: tune the serving grid into a PlanCache --------------------
  plan::AutotuneRequest req;
  req.chip_counts = {8, 64, 256};
  // Batch 1 is the low-latency prefill operating point (§4.4): the serving
  // backend charges prefill chunks at batch 1, so the grid must tune it.
  req.batches = {1, 4, 64, 512};
  req.contexts = {512, 2048};
  req.format = format;
  plan::TuneStats stats;
  const auto t0 = std::chrono::steady_clock::now();
  plan::PlanCache cache = plan::BuildPlanCache(est, req, &stats);
  const double host_search_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // --- Figure 1 frontier: tuner vs exhaustive search, point by point ----
  const std::vector<int> chips = {8, 64, 256};
  const std::vector<double> batches = {4, 64, 512};
  const double input_len = 1984, gen_len = 64;
  struct Fig1Point {
    SweepPoint tuned;
    bool matches = false;
  };
  std::vector<Fig1Point> fig1;
  int mismatched_points = 0;
  for (const SweepPoint& p : plan::Sweep(est, Phase::kDecode, chips, batches,
                                         format, input_len, gen_len)) {
    // The first of the fastest fitting specs over the raw cross product.
    std::optional<PartitionSpec> full_spec;
    PhaseResult full;
    for (const PartitionSpec& s :
         EnumerateSpecs(cfg, p.chips, format, /*dedup=*/false)) {
      PhaseResult r = est.Generate(s, p.batch, input_len, gen_len);
      if (r.fits_memory && (!full_spec || r.seconds < full.seconds)) {
        full_spec = s;
        full = r;
      }
    }
    const bool matches = full_spec.has_value() &&
                         full_spec->ToString() == p.spec.ToString() &&
                         full.PerStepLatency() == p.latency;
    if (!matches) ++mismatched_points;
    fig1.push_back({p, matches});
  }

  // --- Serving with the cache: per-phase layouts + hit rate --------------
  const int serve_chips = 64;
  const plan::TunedPlan* decode_plan =
      cache.Lookup(cfg.name, serve_chips, Phase::kDecode, 64, 2048);
  TSI_CHECK(decode_plan != nullptr);
  AnalyticServeConfig sc;
  sc.spec = decode_plan->spec;  // deployment = the tuned decode layout
  sc.num_slots = 64;
  sc.plans = &cache;
  cache.ResetCounters();
  AnalyticServeBackend backend(&est, sc);
  ServeOptions options;
  options.prefill_chunk = 512;
  auto requests = PoissonRequests(/*rate=*/8.0, /*count=*/96,
                                  /*prompt_len=*/512, /*max_new_tokens=*/64,
                                  cfg.vocab_size, /*seed=*/26);
  ServeReport report = RunContinuousServing(backend, requests, options);
  double total_tokens = 0;
  for (const auto& r : report.requests)
    total_tokens += static_cast<double>(r.tokens.size());

  // --- Report ------------------------------------------------------------
  PrintHeader("E26: layout autotuner + cached serving plans");
  std::printf("search: %d points, %d candidates, %d infeasible, "
              "%d price mismatches, %.3f s host wall-clock\n",
              stats.points, stats.candidates, stats.infeasible,
              stats.price_mismatches, host_search_s);
  std::printf("fig1:   %zu points, %d disagree with the legacy planner\n",
              fig1.size(), mismatched_points);
  std::printf("serving (%d chips, %lld slots): hit rate %.3f "
              "(%lld hits, %lld misses)\n",
              serve_chips, static_cast<long long>(sc.num_slots),
              cache.HitRate(), static_cast<long long>(cache.hits()),
              static_cast<long long>(cache.misses()));
  for (const auto& [layout, steps] : backend.prefill_layout_steps())
    std::printf("  prefill %-8s %lld chunks\n", layout.c_str(),
                static_cast<long long>(steps));
  for (const auto& [layout, steps] : backend.decode_layout_steps())
    std::printf("  decode  %-8s %lld steps\n", layout.c_str(),
                static_cast<long long>(steps));

  const char* path = "BENCH_plan.json";
  if (const char* env = std::getenv("TSI_BENCH_JSON")) path = env;
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fprintf(f,
               "{\n  \"model\": \"%s\",\n  \"format\": \"%s\",\n"
               "  \"search\": {\"points\": %d, \"candidates\": %d, "
               "\"infeasible\": %d, \"price_mismatches\": %d, "
               "\"plans\": %zu, \"host_search_s\": %.3f},\n",
               cfg.name.c_str(), ToString(format).c_str(), stats.points,
               stats.candidates, stats.infeasible, stats.price_mismatches,
               cache.size(), host_search_s);
  std::fprintf(f, "  \"fig1\": [\n");
  for (size_t i = 0; i < fig1.size(); ++i) {
    const Fig1Point& p = fig1[i];
    std::fprintf(f,
                 "    {\"chips\": %d, \"batch\": %.0f, \"spec\": \"%s\", "
                 "\"latency_per_token_s\": %.9g, "
                 "\"cost_chipsec_per_token\": %.9g, \"mfu\": %.4f, "
                 "\"matches_planner\": %s}%s\n",
                 p.tuned.chips, p.tuned.batch, p.tuned.spec.ToString().c_str(),
                 p.tuned.latency, p.tuned.cost_chipsec_per_token,
                 p.tuned.mfu, p.matches ? "true" : "false",
                 i + 1 < fig1.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"serving\": {\"chips\": %d, \"num_slots\": %lld, "
               "\"requests\": %zu, \"prefill_chunks\": %lld, "
               "\"decode_steps\": %lld, \"throughput_tps\": %.1f, "
               "\"makespan_s\": %.4f, \"plan_hits\": %lld, "
               "\"plan_misses\": %lld, \"hit_rate\": %.4f,\n",
               serve_chips, static_cast<long long>(sc.num_slots),
               report.requests.size(),
               static_cast<long long>(report.prefill_chunks),
               static_cast<long long>(report.decode_steps),
               total_tokens / report.makespan, report.makespan,
               static_cast<long long>(cache.hits()),
               static_cast<long long>(cache.misses()), cache.HitRate());
  auto write_layouts = [&](const char* key,
                           const std::map<std::string, int64_t>& m,
                           const char* trailer) {
    std::fprintf(f, "    \"%s\": {", key);
    size_t i = 0;
    for (const auto& [layout, steps] : m)
      std::fprintf(f, "\"%s\": %lld%s", layout.c_str(),
                   static_cast<long long>(steps),
                   ++i < m.size() ? ", " : "");
    std::fprintf(f, "}%s\n", trailer);
  };
  write_layouts("prefill_layouts", backend.prefill_layout_steps(), ",");
  write_layouts("decode_layouts", backend.decode_layout_steps(), "}");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path);

  return stats.price_mismatches == 0 && mismatched_points == 0 ? 0 : 1;
}

}  // namespace
}  // namespace tsi

int main() { return tsi::Run(); }
