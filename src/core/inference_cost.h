// Full-model inference cost estimation (§2 metrics; §4 case study).
//
// InferenceEstimator composes the per-layer block costs over all layers plus
// the logit head, and reports the paper's three metrics: latency, MFU
// (observed throughput over the 2N-FLOPs-per-token theoretical peak), and
// cost in chip-seconds per token (n_chips * time / tokens, §4.4).
#pragma once

#include "core/block_cost.h"
#include "core/layouts.h"
#include "core/system.h"
#include "hw/chip.h"
#include "model/config.h"

namespace tsi {

struct PhaseResult {
  double seconds = 0;            // wall-clock latency of the phase
  double tokens = 0;             // tokens processed (prefill) or generated
  double steps = 1;              // sequential forward passes in the phase
  double mfu = 0;                // model FLOPS utilization
  double cost_chipsec_per_token = 0;
  bool fits_memory = true;       // weights + KV cache fit in HBM
  double weight_bytes_per_chip = 0;
  double kv_bytes_per_chip = 0;  // at the final context length
  CostBreakdown breakdown;       // summed over layers + head

  // Decode "latency per token" in the paper's sense: one step advances every
  // sequence in the batch by one token, so per-token latency is per-step.
  double PerStepLatency() const { return steps > 0 ? seconds / steps : seconds; }
};

class InferenceEstimator {
 public:
  InferenceEstimator(ModelConfig config, ChipSpec chip, SystemModel sys = {});

  const ModelConfig& config() const { return config_; }
  const ChipSpec& chip() const { return chip_; }
  const SystemModel& system() const { return sys_; }

  // Processes B sequences of `input_len` tokens, optionally on top of
  // `prior_context` cached tokens (chatbot history). tokens = B * input_len.
  PhaseResult Prefill(const PartitionSpec& spec, double batch, double input_len,
                      double prior_context = 0) const;

  // One decode step at a given cached context length. tokens = B.
  PhaseResult DecodeStep(const PartitionSpec& spec, double batch,
                         double context) const;

  // Autoregressively generates `gen_len` tokens after `input_len` of context
  // (context grows every step). tokens = B * gen_len.
  PhaseResult Generate(const PartitionSpec& spec, double batch,
                       double input_len, double gen_len) const;

  // Max context length (tokens per sequence) whose KV cache fits in the
  // reserved fraction of HBM (Table 1 reserves 30%).
  double MaxContextLength(const PartitionSpec& spec, double batch) const;

  // Whether weights plus the KV cache at `context` fit under HBM capacity
  // (with a small activation allowance).
  bool FitsMemory(const PartitionSpec& spec, double batch, double context) const;

 private:
  CostBreakdown ForwardCost(const PartitionSpec& spec, Phase phase, double batch,
                            double new_tokens, double context) const;
  void FillMetrics(const PartitionSpec& spec, double batch, double context,
                   PhaseResult* r) const;
  // Weights on the busiest chip: the E_x F_yz shard plus the replicas
  // ChooseReplication keeps (core/replication.h).
  double WeightBytesPerChip(const PartitionSpec& spec) const;

  ModelConfig config_;
  ChipSpec chip_;
  SystemModel sys_;
};

}  // namespace tsi
