// Analytical serving backends over the closed-form cost model.
//
// AnalyticServeBackend runs the SAME continuous-batching scheduler as the
// functional EngineServeBackend, but charges virtual seconds from the
// InferenceEstimator instead of executing tensors -- so the serving policy
// can be evaluated at full model scale (Palm540B on 64 chips) where the
// functional simulator could never hold the weights. Prefill chunks are
// charged batch-1 (§4.4's low-latency prefill); decode steps are charged at
// the full fixed frame (padding lanes run in real fixed-shape servers too)
// at the longest resident context.
//
// RunStaticBatchServing is the baseline the paper's continuous runtime is
// measured against: collect-batch-then-run. Requests are grouped in arrival
// order; each group prefills batch-1 sequentially, then decodes to
// completion as one static batch, and only then does the next group start.
// Nothing is admitted mid-flight, so under load a request waits for the
// whole previous batch to drain -- the queueing pathology continuous
// batching removes (EXPERIMENTS.md, bench_serving).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/inference_cost.h"
#include "core/layouts.h"
#include "plan/cache.h"
#include "serve/scheduler.h"

namespace tsi {

struct AnalyticServeConfig {
  PartitionSpec spec;      // one replica serves both phases
  int64_t num_slots = 64;  // fixed decode frame (§4.4's decode batch)
  // Optional tuned-plan cache (plan/autotune.h). When set, every prefill
  // chunk and decode step consults it at the step's operating point and
  // adopts the tuned FFN layout -- ONLY the FFN layout, because mesh,
  // attention sharding and weight format fix the resident weight shards and
  // the KV layout, which is exactly what makes mid-run switching free
  // (§3.2.3). A cached plan on a different mesh/attention/format is ignored
  // for pricing (the lookup still counts toward the cache's hit rate).
  const plan::PlanCache* plans = nullptr;
  // With ServeOptions.share_prefixes: leading prompt tokens every request is
  // assumed to share (a common system prompt). AdoptPrefix reports them as
  // adopted, so their prefill compute is skipped and the slot starts with
  // that much cached context -- the analytic twin of the paged COW fork.
  int64_t shared_prefix_len = 0;
};

class AnalyticServeBackend : public ServeBackend {
 public:
  // `estimator` must outlive the backend.
  AnalyticServeBackend(const InferenceEstimator* estimator,
                       AnalyticServeConfig config);

  int64_t num_slots() const override { return config_.num_slots; }
  double Now() const override { return now_; }
  void AdvanceTo(double t) override;
  int32_t Prefill(int64_t slot, int64_t request,
                  const std::vector<int32_t>& tokens, bool last) override;
  std::vector<int32_t> Decode(const std::vector<DecodeLane>& lanes) override;
  void Release(int64_t slot) override;
  int64_t AdoptPrefix(int64_t slot, const ServeRequest& req) override;

  // Disaggregation hook (serve/disagg.h): a migrated request's KV arrives
  // with `tokens` of cached context -- the analytic twin of the functional
  // engine's ImportSlot. Later decode steps attend over that context even
  // though this backend never charged its prefill (the prefill pool did).
  void SetSlotContext(int64_t slot, double tokens);

  // --- Cost accounting (accumulated since construction) -------------------
  // Summed per-phase breakdown of every charged second, for folding a
  // serving run into the paper's utilization/MFU metrics (bench_serving):
  // busy_seconds() is the replica-busy part of the makespan (the rest is
  // idle waiting for arrivals), and total_cost() splits it into
  // compute / weight memory / KV memory / comm / overhead.
  const CostBreakdown& total_cost() const { return total_cost_; }
  double busy_seconds() const { return busy_seconds_; }
  // Prompt tokens prefilled plus real (non-padding) decode lanes stepped --
  // the token count an MFU numerator should use.
  double processed_tokens() const { return processed_tokens_; }

  // Per-phase FFN layouts actually charged, keyed by ToString(FfnLayout)
  // with the number of chunks/steps priced under each. Without a plan cache
  // each map holds one entry (the configured layout); with one, these show
  // which tuned layouts the run selected per phase. Cache hit/miss counts
  // live on the PlanCache itself.
  const std::map<std::string, int64_t>& prefill_layout_steps() const {
    return prefill_layout_steps_;
  }
  const std::map<std::string, int64_t>& decode_layout_steps() const {
    return decode_layout_steps_;
  }

 private:
  void Accumulate(const PhaseResult& r, double tokens);
  // The spec to price this step with: the configured one, FFN layout
  // possibly swapped by a compatible cached plan. Records the choice.
  PartitionSpec PhaseSpec(Phase phase, double batch, double context);

  const InferenceEstimator* est_;
  AnalyticServeConfig config_;
  double now_ = 0;
  std::vector<double> context_;  // cached tokens per slot
  CostBreakdown total_cost_;
  double busy_seconds_ = 0;
  double processed_tokens_ = 0;
  std::map<std::string, int64_t> prefill_layout_steps_;
  std::map<std::string, int64_t> decode_layout_steps_;
};

// Collect-batch-then-run baseline on the same cost model (see file comment).
// Request ids and arrival stamps come from `requests`; generated-token
// counts follow each request's max_new_tokens (no EOS analytically), and
// each record's token_times holds the prefill's first token and then every
// decode step up to the one that emits its last token.
ServeReport RunStaticBatchServing(const InferenceEstimator& estimator,
                                  const AnalyticServeConfig& config,
                                  std::vector<ServeRequest> requests);

}  // namespace tsi
