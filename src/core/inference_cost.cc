#include "core/inference_cost.h"

#include <algorithm>
#include <cmath>

#include "core/attn_cost.h"
#include "core/flops.h"
#include "core/replication.h"
#include "util/logging.h"

namespace tsi {

InferenceEstimator::InferenceEstimator(ModelConfig config, ChipSpec chip,
                                       SystemModel sys)
    : config_(std::move(config)), chip_(std::move(chip)), sys_(sys) {}

CostBreakdown InferenceEstimator::ForwardCost(const PartitionSpec& spec,
                                              Phase phase, double batch,
                                              double new_tokens,
                                              double context) const {
  CostBreakdown layer =
      LayerCost(config_, spec, chip_, sys_, phase, batch, new_tokens, context);
  CostBreakdown total = layer * static_cast<double>(config_.num_layers);

  // Logit head: [B*L, E] @ [E, vocab], vocab-sharded over all chips -- or
  // whole on one chip when the replication rule keeps it there
  // (core/replication.h, site 2), one chip per x slice over the slice's
  // rows when x carries the rows (site 4), every chip over its own group's
  // rows when the FFN is whole over yz (site 5).
  const Replication rep =
      ChooseReplication(config_, spec, chip_, sys_.hop_latency);
  const bool whole_head = rep.logit_head;
  const int n = whole_head ? 1 : spec.num_chips();
  const double BL = batch * new_tokens;
  const double wb = WeightBytes(spec.weight_format);
  const double head_params = static_cast<double>(config_.d_model) * config_.vocab_size;
  const int N = WeightGatherWidth(spec.ffn, spec.mesh);
  const double rows = (N > 1) ? BL / N : BL;
  const double head_rows = !whole_head ? BL
                           : rep.ffn   ? BL / spec.num_chips()
                           : rep.x     ? BL / spec.mesh.x()
                                       : BL;
  total.compute += 2.0 * head_rows * head_params / n /
                   (chip_.peak_flops * sys_.MatmulEff(std::min(rows, head_rows)));
  total.weight_memory += head_params * wb / n / (chip_.hbm_bw * sys_.hbm_frac);
  total.overhead += sys_.per_layer_overhead;  // final norm + sampling
  return total;
}

void InferenceEstimator::FillMetrics(const PartitionSpec& spec, double batch,
                                     double context, PhaseResult* r) const {
  const int n = spec.num_chips();
  r->cost_chipsec_per_token = r->tokens > 0 ? n * r->seconds / r->tokens : 0;
  double ideal =
      MatmulFlopsPerToken(config_) * r->tokens / (n * chip_.peak_flops);
  r->mfu = r->seconds > 0 ? ideal / r->seconds : 0;
  r->weight_bytes_per_chip = WeightBytesPerChip(spec);
  r->kv_bytes_per_chip = KvCacheBytesPerChipPaged(
      config_, spec.attn, n, batch, context, ActivationBytes(spec.kv_format),
      spec.kv_page_size);
  r->fits_memory = FitsMemory(spec, batch, context);
}

PhaseResult InferenceEstimator::Prefill(const PartitionSpec& spec, double batch,
                                        double input_len,
                                        double prior_context) const {
  PhaseResult r;
  r.breakdown = ForwardCost(spec, Phase::kPrefill, batch, input_len,
                            prior_context + input_len);
  r.seconds = sys_.PhaseTime(r.breakdown);
  r.tokens = batch * input_len;
  FillMetrics(spec, batch, prior_context + input_len, &r);
  return r;
}

PhaseResult InferenceEstimator::DecodeStep(const PartitionSpec& spec,
                                           double batch, double context) const {
  PhaseResult r;
  r.breakdown = ForwardCost(spec, Phase::kDecode, batch, 1.0, context);
  r.seconds = sys_.PhaseTime(r.breakdown);
  r.tokens = batch;
  FillMetrics(spec, batch, context, &r);
  return r;
}

PhaseResult InferenceEstimator::Generate(const PartitionSpec& spec, double batch,
                                         double input_len, double gen_len) const {
  PhaseResult r;
  TSI_CHECK_GE(gen_len, 1);
  for (double s = 0; s < gen_len; ++s) {
    r.breakdown += ForwardCost(spec, Phase::kDecode, batch, 1.0, input_len + s + 1.0);
  }
  r.seconds = sys_.PhaseTime(r.breakdown);
  r.steps = gen_len;
  r.tokens = batch * gen_len;
  FillMetrics(spec, batch, input_len + gen_len, &r);
  return r;
}

double InferenceEstimator::MaxContextLength(const PartitionSpec& spec,
                                            double batch) const {
  double per_token =
      KvCacheBytesPerChip(config_, spec.attn, spec.num_chips(), batch, 1.0,
                          ActivationBytes(spec.kv_format));
  if (per_token <= 0) return 0;
  const double context = sys_.kv_memory_reserve * chip_.hbm_bytes / per_token;
  if (spec.kv_page_size <= 0) return context;
  const double ps = static_cast<double>(spec.kv_page_size);
  return std::floor(context / ps) * ps;
}

double InferenceEstimator::WeightBytesPerChip(const PartitionSpec& spec) const {
  const double wb = WeightBytes(spec.weight_format);
  double bytes =
      static_cast<double>(MatmulParams(config_)) * wb / spec.num_chips();
  // The busiest chip also holds the replicas the rule keeps.
  const Replication rep =
      ChooseReplication(config_, spec, chip_, sys_.hop_latency);
  if (rep.qkv)
    bytes += static_cast<double>(config_.num_layers) *
             QkvReplicaParams(config_, spec.mesh) * wb;
  if (rep.wo)
    bytes += static_cast<double>(config_.num_layers) *
             WoReplicaParams(config_, spec.mesh) * wb;
  if (rep.x)
    bytes += static_cast<double>(config_.num_layers) *
             XReplicaParams(config_, spec.mesh, rep) * wb;
  if (rep.ffn)
    bytes += static_cast<double>(config_.num_layers) *
             FfnYzReplicaParams(config_, spec.mesh) * wb;
  if (rep.logit_head) bytes += HeadReplicaParams(config_, spec.mesh) * wb;
  return bytes;
}

bool InferenceEstimator::FitsMemory(const PartitionSpec& spec, double batch,
                                    double context) const {
  const int n = spec.num_chips();
  double weights = WeightBytesPerChip(spec);
  double kv = KvCacheBytesPerChipPaged(config_, spec.attn, n, batch, context,
                                       ActivationBytes(spec.kv_format),
                                       spec.kv_page_size);
  // 5% allowance for activations and collective buffers.
  return weights + kv <= 0.95 * chip_.hbm_bytes;
}

}  // namespace tsi
