// Tuned serving-plan cache tool (src/plan): build, inspect, explain, diff
// and re-validate PlanCache JSON documents.
//
//   plan_cli tune --model PaLM-540B --chips 8,64,256 --batches 4,64,512
//                 --contexts 512,2048 [--format int8] --out plans.json
//       Runs the layout autotuner over the operating grid and writes the
//       resulting PlanCache. Prints the search stats; a nonzero
//       price-mismatch count (propagation pricing diverging from the
//       hand-coded LayerCost) exits 1.
//
//   plan_cli inspect plans.json
//       One line per cached plan: key, chosen layout, analytic estimates.
//
//   plan_cli explain plans.json --chips 64 --phase decode --batch 64
//                    --context 2048 [--model NAME]
//       Looks the operating point up (same bucketing + fallback the serving
//       stack uses) and prints the winning spec plus the propagation-derived
//       collective schedule and per-op shardings behind it.
//
//   plan_cli diff old.json new.json
//       Key-aligned comparison: plans added/removed, spec changes, and
//       estimate drift for keys present in both.
//
//   plan_cli validate plans.json [--functional]
//       Re-prices every cached plan against the current cost model: the
//       re-lowered schedule must price EXACTLY like LayerCost, and the
//       stored estimates must match a fresh estimate at the bucket point.
//       Any drift exits 1 -- a stale cache must be re-tuned, not served.
//       --functional additionally executes each small-mesh plan pair on the
//       functional simulator and requires plan-vs-direct bit-identity.
//
// Exit status: 0 ok, 1 validation/tune failure, 2 usage or I/O error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "hw/chip.h"
#include "model/config.h"
#include "plan/autotune.h"
#include "plan/cache.h"
#include "plan/lower.h"
#include "plan/validate.h"

namespace tsi {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: plan_cli tune --model NAME --chips N[,N...] "
               "[--batches B[,B...]] [--contexts C[,C...]] [--format FMT] "
               "--out FILE\n"
               "       plan_cli inspect PLANS.json\n"
               "       plan_cli explain PLANS.json --chips N --phase PH "
               "--batch B --context C [--model NAME]\n"
               "       plan_cli diff OLD.json NEW.json\n"
               "       plan_cli validate PLANS.json [--functional]\n");
  return 2;
}

std::optional<ModelConfig> ModelByName(const std::string& name) {
  for (const ModelConfig& c :
       {Palm8B(), Palm62B(), Palm540B(), Palm540BPadded(), MtNlg530B(),
        Palm540BMultihead(), Palm540BGrouped(8), TinyTestModel(),
        TinyTestModelMultihead(), TinyTestModelGrouped()}) {
    if (c.name == name) return c;
  }
  return std::nullopt;
}

std::vector<double> ParseList(const std::string& csv) {
  std::vector<double> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::stod(item));
  return out;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  std::ostringstream ss;
  ss << is.rdbuf();
  *out = ss.str();
  return true;
}

bool LoadCache(const std::string& path, plan::PlanCache* cache) {
  std::string text, error;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "plan_cli: cannot read %s\n", path.c_str());
    return false;
  }
  if (!plan::PlanCache::FromJson(text, cache, &error)) {
    std::fprintf(stderr, "plan_cli: %s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

// Fresh estimate at a cached plan's bucket point -- the exact pricing
// BuildPlanCache recorded.
PhaseResult ReEstimate(const InferenceEstimator& est,
                       const plan::TunedPlan& plan) {
  const auto batch = static_cast<double>(plan.key.batch_bucket);
  const auto context = static_cast<double>(plan.key.context_bucket);
  return plan.key.phase == Phase::kPrefill
             ? est.Prefill(plan.spec, batch, context)
             : est.DecodeStep(plan.spec, batch, context);
}

void PrintPlanLine(const plan::TunedPlan& p) {
  std::printf("%-34s %-44s %12.6g s  %10.4g chip-s/tok  mfu %5.1f%%\n",
              p.key.ToString().c_str(), p.spec.ToString().c_str(),
              p.est_seconds, p.est_cost_chipsec_per_token, 100 * p.est_mfu);
}

int RunTune(int argc, char** argv) {
  std::string model_name, out_path;
  std::vector<int> chips;
  plan::AutotuneRequest req;
  req.batches = {4, 64, 512};
  req.contexts = {512, 2048};
  for (int i = 0; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> std::string {
      return ++i < argc ? argv[i] : std::string();
    };
    if (a == "--model") model_name = next();
    else if (a == "--out") out_path = next();
    else if (a == "--chips") {
      for (double c : ParseList(next())) chips.push_back(static_cast<int>(c));
    } else if (a == "--batches") req.batches = ParseList(next());
    else if (a == "--contexts") req.contexts = ParseList(next());
    else if (a == "--format") {
      std::string f = next();
      if (f == "int8") req.format = WeightFormat::kInt8;
      else if (f == "bf16") req.format = WeightFormat::kBf16;
      else { std::fprintf(stderr, "unknown format %s\n", f.c_str()); return 2; }
    } else return Usage();
  }
  if (model_name.empty() || out_path.empty() || chips.empty()) return Usage();
  auto config = ModelByName(model_name);
  if (!config) {
    std::fprintf(stderr, "plan_cli: unknown model %s\n", model_name.c_str());
    return 2;
  }
  req.chip_counts = chips;
  InferenceEstimator est(*config, TpuV4());
  plan::TuneStats stats;
  plan::PlanCache cache = plan::BuildPlanCache(est, req, &stats);
  std::ofstream os(out_path, std::ios::binary);
  if (!os) {
    std::fprintf(stderr, "plan_cli: cannot write %s\n", out_path.c_str());
    return 2;
  }
  os << cache.ToJson();
  std::printf("tuned %zu plans over %d points (%d candidates, %d infeasible, "
              "%d price mismatches) -> %s\n",
              cache.size(), stats.points, stats.candidates, stats.infeasible,
              stats.price_mismatches, out_path.c_str());
  return stats.price_mismatches == 0 ? 0 : 1;
}

int RunInspect(const std::string& path) {
  plan::PlanCache cache;
  if (!LoadCache(path, &cache)) return 2;
  for (const auto& [key, p] : cache.plans()) PrintPlanLine(p);
  std::printf("%zu plans\n", cache.size());
  return 0;
}

int RunExplain(const std::string& path, int argc, char** argv) {
  plan::PlanCache cache;
  if (!LoadCache(path, &cache)) return 2;
  std::string model_name;
  int chips = 0;
  Phase phase = Phase::kDecode;
  double batch = 64, context = 2048;
  for (int i = 0; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> std::string {
      return ++i < argc ? argv[i] : std::string();
    };
    if (a == "--model") model_name = next();
    else if (a == "--chips") chips = std::stoi(next());
    else if (a == "--phase") phase = next() == "prefill" ? Phase::kPrefill
                                                         : Phase::kDecode;
    else if (a == "--batch") batch = std::stod(next());
    else if (a == "--context") context = std::stod(next());
    else return Usage();
  }
  if (model_name.empty() && !cache.plans().empty())
    model_name = cache.plans().begin()->first.model;
  const plan::TunedPlan* hit =
      cache.Lookup(model_name, chips, phase, batch, context);
  if (hit == nullptr) {
    std::printf("no plan for %s/%dc/%s/b%d/ctx%d\n", model_name.c_str(),
                chips, plan::ToString(phase).c_str(),
                plan::PlanCache::Bucket(batch),
                plan::PlanCache::Bucket(context));
    return 1;
  }
  PrintPlanLine(*hit);
  auto config = ModelByName(hit->key.model);
  if (!config) {
    std::printf("(model %s not registered; cannot re-derive the schedule)\n",
                hit->key.model.c_str());
    return 0;
  }
  // The schedule the tuner priced: TpuV4 at the default hop latency.
  plan::LoweredPlan lowered = plan::LowerSpec(*config, hit->spec, TpuV4(),
                                              SystemModel{}.hop_latency);
  std::printf("\nper-op shardings:\n");
  for (size_t i = 0; i < lowered.block.graph.ops.size(); ++i) {
    std::printf("  %-12s %s\n", lowered.block.graph.ops[i].name.c_str(),
                lowered.block.specs[i].ToString().c_str());
  }
  std::printf("\ncollective schedule:\n%s",
              lowered.ScheduleToString().c_str());
  return 0;
}

int RunDiff(const std::string& old_path, const std::string& new_path) {
  plan::PlanCache older, newer;
  if (!LoadCache(old_path, &older) || !LoadCache(new_path, &newer)) return 2;
  int changes = 0;
  for (const auto& [key, p] : older.plans()) {
    auto it = newer.plans().find(key);
    if (it == newer.plans().end()) {
      std::printf("- %s (removed)\n", key.ToString().c_str());
      ++changes;
      continue;
    }
    const plan::TunedPlan& q = it->second;
    if (p.spec.ToString() != q.spec.ToString()) {
      std::printf("~ %s: %s -> %s\n", key.ToString().c_str(),
                  p.spec.ToString().c_str(), q.spec.ToString().c_str());
      ++changes;
    } else if (p.est_seconds != q.est_seconds || p.est_mfu != q.est_mfu) {
      std::printf("~ %s: %.6g s -> %.6g s (mfu %.3f -> %.3f)\n",
                  key.ToString().c_str(), p.est_seconds, q.est_seconds,
                  p.est_mfu, q.est_mfu);
      ++changes;
    }
  }
  for (const auto& [key, p] : newer.plans()) {
    if (older.plans().find(key) == older.plans().end()) {
      std::printf("+ %s -> %s\n", key.ToString().c_str(),
                  p.spec.ToString().c_str());
      ++changes;
    }
  }
  std::printf("%d difference%s\n", changes, changes == 1 ? "" : "s");
  return 0;
}

int RunValidate(const std::string& path, bool functional) {
  plan::PlanCache cache;
  if (!LoadCache(path, &cache)) return 2;
  std::map<std::string, InferenceEstimator> estimators;
  int drifted = 0, checked = 0;
  for (const auto& [key, p] : cache.plans()) {
    auto config = ModelByName(key.model);
    if (!config) {
      std::fprintf(stderr, "plan_cli: unknown model %s in cache\n",
                   key.model.c_str());
      return 2;
    }
    auto [it, inserted] = estimators.try_emplace(
        key.model, InferenceEstimator(*config, TpuV4()));
    const InferenceEstimator& est = it->second;
    ++checked;
    // The propagation-derived schedule must still price exactly like the
    // hand-coded LayerCost at this plan's bucket point...
    plan::LoweredPlan lowered = plan::LowerSpec(
        *config, p.spec, est.chip(), est.system().hop_latency);
    const auto batch = static_cast<double>(key.batch_bucket);
    const auto context = static_cast<double>(key.context_bucket);
    const double new_tokens = key.phase == Phase::kPrefill ? context : 1.0;
    if (!plan::PriceMatchesLayerCost(lowered, est, key.phase, batch,
                                     new_tokens, context)) {
      std::printf("DRIFT %s: schedule price != LayerCost\n",
                  key.ToString().c_str());
      ++drifted;
      continue;
    }
    // ...and the stored estimates must match a fresh one (a cost-model or
    // enumeration change since tuning shows up here).
    PhaseResult fresh = ReEstimate(est, p);
    if (fresh.seconds != p.est_seconds || fresh.mfu != p.est_mfu ||
        fresh.cost_chipsec_per_token != p.est_cost_chipsec_per_token) {
      std::printf("DRIFT %s: cached %.9g s / mfu %.6f, current %.9g s / "
                  "mfu %.6f\n",
                  key.ToString().c_str(), p.est_seconds, p.est_mfu,
                  fresh.seconds, fresh.mfu);
      ++drifted;
    }
  }
  int validated = 0;
  if (functional) {
    // Execute plan pairs on the functional simulator where that is
    // tractable: small meshes only (a SimMachine per chip, real tensors).
    for (const auto& [key, p] : cache.plans()) {
      if (key.phase != Phase::kDecode || key.chips > 8) continue;
      const plan::TunedPlan* pre =
          cache.Lookup(key.model, key.chips, Phase::kPrefill,
                       static_cast<double>(key.batch_bucket),
                       static_cast<double>(key.context_bucket));
      auto config = ModelByName(key.model);
      if (pre == nullptr || !config || config->d_model > 256) continue;
      PartitionSpec prefill = pre->spec;
      PartitionSpec decode = p.spec;
      // Pin to one mesh/attention/format (§3.2.3's switching contract),
      // bending to the engine's execution constraints as the tests do.
      prefill.mesh = decode.mesh;
      prefill.attn = decode.attn;
      prefill.weight_format = decode.weight_format;
      if (prefill.ffn == FfnLayout::kWS1D && prefill.mesh.x() > 1)
        prefill.ffn = FfnLayout::kWS2D;
      if (plan::EngineLayout(prefill.ffn) == FfnLayout::kWGXYZ ||
          plan::EngineLayout(decode.ffn) == FfnLayout::kWGXYZ) {
        prefill.attn = decode.attn = AttnSharding::kBatch;
      }
      plan::ValidationResult r = plan::ValidatePlanPair(
          *config, prefill, decode, /*batch=*/4, /*input_len=*/8,
          /*decode_steps=*/2, /*seed=*/1);
      ++validated;
      if (!r.bit_identical) {
        std::printf("DRIFT %s: plan-driven engine diverges from direct "
                    "execution (max |d| = %g)\n",
                    key.ToString().c_str(), r.max_abs_vs_direct);
        ++drifted;
      }
    }
  }
  std::printf("%d plans re-priced, %d functionally validated, %d drifted\n",
              checked, validated, drifted);
  return drifted == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string mode = argv[1];
  if (mode == "tune") return RunTune(argc - 2, argv + 2);
  if (mode == "inspect" && argc == 3) return RunInspect(argv[2]);
  if (mode == "explain" && argc >= 3)
    return RunExplain(argv[2], argc - 3, argv + 3);
  if (mode == "diff" && argc == 4) return RunDiff(argv[2], argv[3]);
  if (mode == "validate" && argc >= 3) {
    bool functional = argc > 3 && std::strcmp(argv[3], "--functional") == 0;
    return RunValidate(argv[2], functional);
  }
  return Usage();
}

}  // namespace
}  // namespace tsi

int main(int argc, char** argv) { return tsi::Main(argc, argv); }
