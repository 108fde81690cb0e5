// Utilization reporter cross-checks (acceptance gate for the observability
// layer):
//   * on a workload both implementations can run -- the scaled-down
//     "sim-xval" model of E17, WS-2D/batch on a 2x2x2 torus, hop latency 0 --
//     the functional simulator's traced MFU, makespan, and dominant comm
//     seconds match the analytical estimator in ideal mode (peak_frac = 1,
//     roofline, no overhead) within 5%, and every busy fraction matches
//     within 2 percentage points of utilization;
//   * trace-derived busy fractions tile each chip's clock: busy + idle == 1;
//   * FoldAnalyticCost reproduces the estimator's own MFU on a real paper
//     config (PaLM 540B-padded on 64 chips, the EXPERIMENTS.md anchor). The
//     540B model itself cannot run in the functional simulator (weights do
//     not fit in host memory), so the PaLM-scale check is analytic-only by
//     construction.
#include "obs/utilization.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/block_cost.h"
#include "core/inference_cost.h"
#include "engine/engine.h"
#include "hw/chip.h"
#include "model/reference.h"
#include "sim/machine.h"
#include "sim/trace.h"
#include "util/rng.h"

namespace tsi {
namespace {

std::vector<int32_t> RandomTokens(int64_t n, int64_t vocab, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> t(static_cast<size_t>(n));
  for (auto& v : t)
    v = static_cast<int32_t>(rng.NextBelow(static_cast<uint64_t>(vocab)));
  return t;
}

// The estimator with every real-system derate disabled: peak FLOPS, peak
// HBM bandwidth, per-op roofline (compute/memory overlap), no per-layer
// overhead, no comm/compute overlap, no hop latency. This is exactly the
// hardware model the simulator charges, so the two must agree.
SystemModel IdealSystem() {
  SystemModel sys;
  sys.matmul_peak_frac = 1.0;
  sys.matmul_tau_tokens = 0;
  sys.hbm_frac = 1.0;
  sys.per_layer_overhead = 0;
  sys.overlap_fraction = 0;
  sys.hop_latency = 0;
  sys.additive = false;
  return sys;
}

// bench_sim_vs_analytic's mid-size synthetic model: big enough that matmuls
// dominate bookkeeping, small enough to execute functionally.
ModelConfig SimXvalConfig() {
  ModelConfig cfg = TinyTestModel();
  cfg.name = "sim-xval";
  cfg.num_layers = 4;
  cfg.d_model = 128;
  cfg.d_ff = 256;
  cfg.n_heads = 16;
  cfg.d_head = 16;
  cfg.vocab_size = 128;
  return cfg;
}

double RelErr(double a, double b) { return std::abs(a - b) / std::abs(b); }

TEST(UtilizationCrossCheckTest, FunctionalSimMatchesIdealAnalyticWithin5Pct) {
  const ModelConfig cfg = SimXvalConfig();
  const ModelWeights weights = ModelWeights::Random(cfg, 1);
  const Torus3D mesh(2, 2, 2);
  const int64_t B = 8, L = 16;

  SimMachine machine(mesh, TpuV4());
  machine.set_hop_latency(0);
  Tracer tracer;
  machine.AttachTracer(&tracer);
  EngineSpec spec;
  spec.prefill_ffn = FfnLayout::kWS2D;
  spec.decode_ffn = FfnLayout::kWS2D;
  spec.attn = AttnSharding::kBatch;
  DistributedEngine engine(weights, &machine, spec);

  engine.Prefill(RandomTokens(B * L, cfg.vocab_size, 2), B);
  const obs::UtilizationReport report = obs::ComputeUtilization(machine, tracer);

  InferenceEstimator ana(cfg, TpuV4(), IdealSystem());
  const PartitionSpec aspec{mesh, FfnLayout::kWS2D, AttnSharding::kBatch,
                            WeightFormat::kBf16};
  const PhaseResult pre = ana.Prefill(aspec, B, L);
  // Temporary, until LayerCost follows the engine's schedule (ROADMAP):
  // the estimator prices the x reduction of the q/k/v projections as a
  // reduce-scatter + all-gather pair (AttnFSideBytes counts both legs), but
  // batch-sharded attention needs only each chip's x batch rows: the engine
  // reduce-scatters q/k/v along rows and never gathers them back. Take that
  // all-gather leg out of the analytic side, priced by the estimator's own
  // F-side collective arithmetic (its alpha is zero here).
  const SystemModel sys = IdealSystem();
  const CommCostModel cm{TpuV4().network_bw, sys.hop_latency, /*exact=*/true};
  const double qkv_gather_s =
      static_cast<double>(cfg.num_layers) *
      UnhiddenCollectiveTime(
          cm, sys,
          AttnFSideBytes(cfg, mesh, static_cast<double>(B * L),
                         ActivationBytes(aspec.activations)) / 2.0,
          mesh.x(), /*n_collectives=*/1);
  const double ana_seconds = pre.seconds - qkv_gather_s;
  const double ana_comm = pre.breakdown.comm - qkv_gather_s;
  const double ana_mfu = pre.mfu * pre.seconds / ana_seconds;

  // Makespan and MFU agree within 5%.
  ASSERT_GT(report.elapsed, 0);
  EXPECT_LT(RelErr(report.elapsed, ana_seconds), 0.05)
      << "sim " << report.elapsed << "s vs analytic " << ana_seconds << "s";
  const double sim_mfu = report.Mfu(cfg, static_cast<double>(B * L));
  ASSERT_GT(pre.mfu, 0);
  EXPECT_LT(RelErr(sim_mfu, ana_mfu), 0.05)
      << "sim MFU " << sim_mfu << " vs analytic " << ana_mfu;

  // Busy seconds per resource. The analytic breakdown is per-chip
  // (SPMD-symmetric); compare against the mean over sim chips.
  ASSERT_EQ(static_cast<int>(report.chips.size()), mesh.num_chips());
  double sim_compute = 0, sim_memory = 0, sim_comm = 0;
  for (const obs::ChipUtilization& u : report.chips) {
    sim_compute += u.compute_seconds;
    sim_memory += u.memory_seconds;
    sim_comm += u.comm_seconds;
  }
  sim_compute /= report.num_chips;
  sim_memory /= report.num_chips;
  sim_comm /= report.num_chips;

  // Comm dominates this workload (~90% of the clock) and the two models
  // count exactly the same bytes: within 5%.
  EXPECT_LT(RelErr(sim_comm, ana_comm), 0.05)
      << "comm s: sim " << sim_comm << " analytic " << ana_comm;
  // Compute and memory seconds are small terms (<10% of the clock each)
  // where the models differ by construction: the simulator executes the
  // attention dot products and charges their FLOPs to the chip counters,
  // while the analytic 2N rule (core/flops.h) excludes them; likewise the
  // sim streams the embedding table and activations that the closed form
  // folds away. That is a real ~8% relative effect on these terms, bounded
  // below one percentage point of utilization -- so seconds get a 10%
  // relative gate and the busy *fractions* (the acceptance metric) a
  // 2-percentage-point absolute gate, well inside the 5-point criterion.
  EXPECT_LT(RelErr(sim_compute, pre.breakdown.compute), 0.10)
      << "compute s: sim " << sim_compute << " analytic "
      << pre.breakdown.compute;
  const double ana_memory = pre.breakdown.weight_memory + pre.breakdown.kv_memory;
  EXPECT_LT(RelErr(sim_memory, ana_memory), 0.10)
      << "memory s: sim " << sim_memory << " analytic " << ana_memory;

  const double sim_elapsed = report.elapsed;
  EXPECT_LT(std::abs(sim_compute / sim_elapsed -
                     pre.breakdown.compute / ana_seconds), 0.02);
  EXPECT_LT(std::abs(sim_memory / sim_elapsed - ana_memory / ana_seconds),
            0.02);
  EXPECT_LT(std::abs(sim_comm / sim_elapsed - ana_comm / ana_seconds), 0.02);
}

TEST(UtilizationReportTest, BusyFractionsTileTheChipClock) {
  const ModelConfig cfg = TinyTestModel();
  const ModelWeights weights = ModelWeights::Random(cfg, 3);
  SimMachine machine(Torus3D(2, 2, 1), TpuV4());
  Tracer tracer;
  machine.AttachTracer(&tracer);
  EngineSpec spec;
  spec.attn = AttnSharding::kBatch;
  DistributedEngine engine(weights, &machine, spec);
  engine.Prefill(RandomTokens(4 * 8, cfg.vocab_size, 4), 4);
  engine.DecodeStep(RandomTokens(4, cfg.vocab_size, 5));

  const obs::UtilizationReport report = obs::ComputeUtilization(machine, tracer);
  ASSERT_GT(report.elapsed, 0);
  for (const obs::ChipUtilization& u : report.chips) {
    const double busy =
        u.busy_compute + u.busy_memory + u.busy_comm + u.busy_fused;
    EXPECT_LE(busy, 1.0 + 1e-9) << "chip " << u.chip;
    // Trace spans tile the clock: every charged interval is a span and the
    // only untraced time is waiting at a collective barrier, so busy + idle
    // reconstructs the full timeline exactly.
    EXPECT_NEAR(busy + u.idle, 1.0, 1e-9) << "chip " << u.chip;
    EXPECT_GE(u.link_utilization, 0);
    EXPECT_LE(u.link_utilization, 1.0 + 1e-9);
  }
  const double mean_busy = report.BusyTotal();
  EXPECT_GT(mean_busy, 0);
  EXPECT_NEAR(mean_busy + report.idle, 1.0, 1e-9);
  // The report's totals mirror the machine counters.
  double flops = 0;
  for (int c = 0; c < machine.num_chips(); ++c)
    flops += machine.counters(c).flops;
  EXPECT_DOUBLE_EQ(report.total_flops, flops);
}

TEST(UtilizationFoldTest, FoldAnalyticCostReproducesEstimatorMfuOnPalm) {
  // The EXPERIMENTS.md anchor: PaLM 540B-padded, 64 chips, context 2048.
  const ModelConfig cfg = Palm540BPadded();
  const ChipSpec chip = TpuV4();
  InferenceEstimator est(cfg, chip);
  const PartitionSpec spec{Torus3D(4, 4, 4), FfnLayout::kWS2D,
                           AttnSharding::kHeads, WeightFormat::kBf16};
  const double B = 512, L = 2048;
  const PhaseResult pre = est.Prefill(spec, B, L);
  ASSERT_GT(pre.seconds, 0);
  ASSERT_GT(pre.mfu, 0);

  const obs::AnalyticUtilization u = obs::FoldAnalyticCost(
      pre.breakdown, /*busy_seconds=*/pre.seconds, /*makespan=*/pre.seconds,
      cfg, chip, spec.num_chips(), pre.tokens);
  // Same formula as InferenceEstimator::FillMetrics -- exact agreement.
  EXPECT_NEAR(u.mfu, pre.mfu, 1e-12);
  EXPECT_DOUBLE_EQ(u.busy, 1.0);
  // Fractions are the breakdown normalized by the makespan; all finite,
  // non-negative, and the compute fraction bounds the MFU from above
  // (MFU counts only matmul FLOPs at peak; compute time includes derates).
  EXPECT_GE(u.compute_frac, 0);
  EXPECT_GE(u.weight_memory_frac, 0);
  EXPECT_GE(u.kv_memory_frac, 0);
  EXPECT_GE(u.comm_frac, 0);
  EXPECT_GE(u.overhead_frac, 0);
  EXPECT_GE(u.compute_frac, u.mfu);

  // Busy share below 1 when the phase is padded with idle time.
  const obs::AnalyticUtilization half = obs::FoldAnalyticCost(
      pre.breakdown, pre.seconds, 2 * pre.seconds, cfg, chip,
      spec.num_chips(), pre.tokens);
  EXPECT_DOUBLE_EQ(half.busy, 0.5);
  EXPECT_NEAR(half.mfu, pre.mfu / 2, 1e-12);
}

}  // namespace
}  // namespace tsi
