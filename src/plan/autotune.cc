#include "plan/autotune.h"

#include <set>

#include "util/logging.h"

namespace tsi {
namespace plan {

bool PriceMatchesLayerCost(const LoweredPlan& plan,
                           const InferenceEstimator& est, Phase phase,
                           double batch, double new_tokens, double context) {
  const ModelConfig& config = plan.block.graph.config;
  CostBreakdown hand = LayerCost(config, plan.spec, est.chip(), est.system(),
                                 phase, batch, new_tokens, context);
  CostBreakdown derived = PriceBlock(plan, est.chip(), est.system(), phase,
                                     batch, new_tokens, context);
  return hand.compute == derived.compute &&
         hand.weight_memory == derived.weight_memory &&
         hand.kv_memory == derived.kv_memory && hand.comm == derived.comm &&
         hand.overhead == derived.overhead;
}

namespace {

template <typename EvalFn>
std::optional<TuneResult> TuneOver(const InferenceEstimator& est, int chips,
                                   WeightFormat format, Phase phase,
                                   double batch, double new_tokens,
                                   double context, TuneStats* stats,
                                   EvalFn eval) {
  std::optional<TuneResult> best;
  if (stats != nullptr) ++stats->points;
  for (const PartitionSpec& spec :
       EnumerateSpecs(est.config(), chips, format)) {
    if (stats != nullptr) ++stats->candidates;
    // Every candidate goes through the propagation pass; the plan the tuner
    // emits is the LOWERED spec, so a propagation bug surfaces as a priced
    // mismatch here rather than as silently wrong serving plans.
    LoweredPlan plan =
        LowerSpec(est.config(), spec, est.chip(), est.system().hop_latency);
    if (stats != nullptr &&
        !PriceMatchesLayerCost(plan, est, phase, batch, new_tokens, context)) {
      ++stats->price_mismatches;
    }
    PhaseResult r = eval(plan.spec);
    if (!r.fits_memory) {
      if (stats != nullptr) ++stats->infeasible;
      continue;
    }
    if (!best || r.seconds < best->result.seconds) {
      best = TuneResult{std::move(plan), r};
    }
  }
  return best;
}

}  // namespace

std::optional<TuneResult> TunePhase(const InferenceEstimator& est, Phase phase,
                                    int chips, WeightFormat format,
                                    double batch, double context,
                                    TuneStats* stats) {
  if (phase == Phase::kPrefill) {
    return TuneOver(est, chips, format, phase, batch, context, context, stats,
                    [&](const PartitionSpec& s) {
                      return est.Prefill(s, batch, context);
                    });
  }
  return TuneOver(est, chips, format, phase, batch, 1.0, context, stats,
                  [&](const PartitionSpec& s) {
                    return est.DecodeStep(s, batch, context);
                  });
}

std::optional<TuneResult> TuneGenerate(const InferenceEstimator& est,
                                       int chips, WeightFormat format,
                                       double batch, double input_len,
                                       double gen_len, TuneStats* stats) {
  return TuneOver(est, chips, format, Phase::kDecode, batch, 1.0,
                  input_len + gen_len, stats, [&](const PartitionSpec& s) {
                    return est.Generate(s, batch, input_len, gen_len);
                  });
}

std::vector<SweepPoint> Sweep(const InferenceEstimator& est, Phase phase,
                              const std::vector<int>& chip_counts,
                              const std::vector<double>& batches,
                              WeightFormat format, double input_len,
                              double gen_len) {
  const bool prefill = phase == Phase::kPrefill;
  std::vector<SweepPoint> points;
  for (int chips : chip_counts) {
    for (double batch : batches) {
      auto best = prefill ? TunePhase(est, phase, chips, format, batch,
                                      input_len)
                          : TuneGenerate(est, chips, format, batch, input_len,
                                         gen_len);
      if (!best) continue;
      SweepPoint p;
      p.chips = chips;
      p.batch = batch;
      p.spec = best->plan.spec;
      p.latency =
          prefill ? best->result.seconds : best->result.PerStepLatency();
      p.cost_chipsec_per_token = best->result.cost_chipsec_per_token;
      p.mfu = best->result.mfu;
      points.push_back(p);
    }
  }
  return points;
}

PlanCache BuildPlanCache(const InferenceEstimator& est,
                         const AutotuneRequest& req, TuneStats* stats) {
  PlanCache cache;
  const std::string& model = est.config().name;
  std::set<PlanKey> tuned;
  for (int chips : req.chip_counts) {
    for (Phase phase : {Phase::kPrefill, Phase::kDecode}) {
      for (double batch : req.batches) {
        for (double context : req.contexts) {
          PlanKey key = PlanCache::MakeKey(model, chips, phase, batch, context);
          if (!tuned.insert(key).second) continue;
          // Tune at the bucket values, not the raw request values, so the
          // cached plan is a pure function of the key.
          auto best =
              TunePhase(est, phase, chips, req.format,
                        static_cast<double>(key.batch_bucket),
                        static_cast<double>(key.context_bucket), stats);
          if (!best) continue;  // nothing fits at this point
          TunedPlan plan;
          plan.key = key;
          plan.spec = best->plan.spec;
          plan.est_seconds = best->result.seconds;
          plan.est_cost_chipsec_per_token =
              best->result.cost_chipsec_per_token;
          plan.est_mfu = best->result.mfu;
          cache.Insert(std::move(plan));
        }
      }
    }
  }
  return cache;
}

}  // namespace plan
}  // namespace tsi
