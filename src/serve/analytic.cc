#include "serve/analytic.h"

#include <algorithm>

#include "util/logging.h"

namespace tsi {

AnalyticServeBackend::AnalyticServeBackend(const InferenceEstimator* estimator,
                                           AnalyticServeConfig config)
    : est_(estimator), config_(config) {
  TSI_CHECK(est_ != nullptr);
  TSI_CHECK_GT(config_.num_slots, 0);
  context_.assign(static_cast<size_t>(config_.num_slots), 0);
}

void AnalyticServeBackend::AdvanceTo(double t) { now_ = std::max(now_, t); }

void AnalyticServeBackend::Accumulate(const PhaseResult& r, double tokens) {
  now_ += r.seconds;
  busy_seconds_ += r.seconds;
  processed_tokens_ += tokens;
  total_cost_ += r.breakdown;
}

PartitionSpec AnalyticServeBackend::PhaseSpec(Phase phase, double batch,
                                              double context) {
  PartitionSpec spec = config_.spec;
  if (config_.plans != nullptr) {
    const plan::TunedPlan* hit =
        config_.plans->Lookup(est_->config().name, spec.mesh.num_chips(),
                              phase, batch, context);
    // Only the FFN layout may switch mid-run: mesh, attention sharding and
    // weight format pin the resident weight shards and KV layout (§3.2.3).
    if (hit != nullptr && hit->spec.mesh.x() == spec.mesh.x() &&
        hit->spec.mesh.y() == spec.mesh.y() &&
        hit->spec.mesh.z() == spec.mesh.z() && hit->spec.attn == spec.attn &&
        hit->spec.weight_format == spec.weight_format) {
      spec.ffn = hit->spec.ffn;
    }
  }
  auto& steps = phase == Phase::kPrefill ? prefill_layout_steps_
                                         : decode_layout_steps_;
  ++steps[ToString(spec.ffn)];
  return spec;
}

int32_t AnalyticServeBackend::Prefill(int64_t slot, int64_t /*request*/,
                                      const std::vector<int32_t>& tokens,
                                      bool last) {
  TSI_CHECK(slot >= 0 && slot < config_.num_slots);
  const auto chunk = static_cast<double>(tokens.size());
  auto& ctx = context_[static_cast<size_t>(slot)];
  PartitionSpec spec = PhaseSpec(Phase::kPrefill, /*batch=*/1, ctx + chunk);
  Accumulate(est_->Prefill(spec, /*batch=*/1, chunk, ctx), chunk);
  ctx += chunk;
  return last ? 1 : -1;  // token identity is meaningless analytically
}

std::vector<int32_t> AnalyticServeBackend::Decode(
    const std::vector<DecodeLane>& lanes) {
  TSI_CHECK(!lanes.empty());
  double ctx = 0;
  for (const DecodeLane& l : lanes)
    ctx = std::max(ctx, context_[static_cast<size_t>(l.slot)]);
  // Fixed frame: padding lanes step too, so the charge is the full frame's;
  // only the real lanes count as processed tokens.
  PartitionSpec spec = PhaseSpec(
      Phase::kDecode, static_cast<double>(config_.num_slots), ctx);
  Accumulate(est_->DecodeStep(spec, static_cast<double>(config_.num_slots),
                              ctx),
             static_cast<double>(lanes.size()));
  for (const DecodeLane& l : lanes) context_[static_cast<size_t>(l.slot)] += 1;
  return std::vector<int32_t>(lanes.size(), 1);
}

void AnalyticServeBackend::Release(int64_t slot) {
  context_[static_cast<size_t>(slot)] = 0;
}

void AnalyticServeBackend::SetSlotContext(int64_t slot, double tokens) {
  TSI_CHECK(slot >= 0 && slot < config_.num_slots);
  TSI_CHECK_GE(tokens, 0);
  context_[static_cast<size_t>(slot)] = tokens;
}

int64_t AnalyticServeBackend::AdoptPrefix(int64_t slot,
                                          const ServeRequest& req) {
  const int64_t p =
      std::min(config_.shared_prefix_len,
               static_cast<int64_t>(req.prompt.size()) - 1);
  if (p <= 0) return 0;
  // Forked pages are cached context: later prefill chunks and decode steps
  // attend over them, but their own prefill was never charged.
  context_[static_cast<size_t>(slot)] = static_cast<double>(p);
  return p;
}

ServeReport RunStaticBatchServing(const InferenceEstimator& estimator,
                                  const AnalyticServeConfig& config,
                                  std::vector<ServeRequest> requests) {
  TSI_CHECK_GT(config.num_slots, 0);
  std::stable_sort(requests.begin(), requests.end(),
                   [](const ServeRequest& a, const ServeRequest& b) {
                     return a.arrival != b.arrival ? a.arrival < b.arrival
                                                   : a.id < b.id;
                   });
  ServeReport report;
  double now = 0;
  size_t i = 0;
  while (i < requests.size()) {
    const size_t end =
        std::min(i + static_cast<size_t>(config.num_slots), requests.size());
    // Sequential batch-1 prefills; each starts once its request has arrived
    // AND the replica is free (previous batch fully drained).
    std::vector<RequestRecord> group;
    double max_prompt = 0, max_steps = 0;
    for (size_t j = i; j < end; ++j) {
      const ServeRequest& r = requests[j];
      now = std::max(now, r.arrival);
      RequestRecord rec;
      rec.id = r.id;
      rec.arrival = r.arrival;
      rec.admitted = now;
      const auto prompt = static_cast<double>(r.prompt.size());
      now += estimator.Prefill(config.spec, /*batch=*/1, prompt).seconds;
      rec.first_token = now;  // the prefill samples token 1
      rec.finished = now;     // overwritten below unless max_new_tokens == 1
      rec.token_times.push_back(now);
      rec.tokens.assign(static_cast<size_t>(r.max_new_tokens), 1);
      max_prompt = std::max(max_prompt, prompt);
      max_steps =
          std::max(max_steps, static_cast<double>(r.max_new_tokens - 1));
      group.push_back(std::move(rec));
      ++report.prefill_chunks;
    }
    // One static decode batch until the longest budget in the group; a
    // request's clock stops at the step that emits its last token, but its
    // slot keeps stepping as padding until the whole batch drains.
    const auto batch = static_cast<double>(end - i);
    for (double s = 0; s < max_steps; s += 1) {
      now += estimator.DecodeStep(config.spec, batch, max_prompt + s).seconds;
      ++report.decode_steps;
      // 0-based decode step s emits token s+2 (the prefill emitted token 1).
      for (size_t j = 0; j < group.size(); ++j) {
        const auto budget = static_cast<double>(requests[i + j].max_new_tokens);
        if (budget >= s + 2) group[j].token_times.push_back(now);
        if (budget == s + 2) group[j].finished = now;
      }
    }
    for (auto& rec : group) report.requests.push_back(std::move(rec));
    i = end;
  }
  std::sort(report.requests.begin(), report.requests.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.id < b.id;
            });
  for (const auto& r : report.requests)
    report.makespan = std::max(report.makespan, r.finished);
  return report;
}

}  // namespace tsi
