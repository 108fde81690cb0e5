// Distributed inference engine on the functional simulator.
//
// DistributedEngine executes the paper's partitioned transformer forward
// pass on a SimMachine: every chip owns only its weight shards (E_x F_yz
// storage, engine/sharding.h) and its slice of the KV cache, and cross-chip
// data moves only through collectives. Each forward pass runs as one
// parallel SPMD region (sim/spmd.h): one closure per chip, executing
// concurrently and meeting at collective barrier points, with results,
// virtual clocks, and traces bit-identical for any slot count. Supported
// execution layouts:
//
//   * Weight-stationary (1D when mesh.x == 1, 2D otherwise, §3.2.1-§3.2.2):
//     activations are sharded [tokens, E/X] over x and replicated over yz.
//     F-dim intermediates are partial sums over x and are reduce-scattered
//     into the hidden dimension, activated, and all-gathered back (the §3.5
//     choice); attention/FFN outputs are partial sums over yz, combined with
//     one all-reduce(yz) per parallel block (two for serial, §3.4). Every
//     program point runs one collective per axis: the q/k/v and FFN
//     input partial sums share one reduce-scatter(x), and the gathers back
//     share one all-gather(x) (SpmdContext's tuple collectives).
//   * Weight-gathered XYZ (§3.2.3): per layer, weight shards are all-gathered
//     to full matrices over the whole mesh while activations stay fully
//     batch-sharded; everything else is chip-local. Used for large-batch
//     prefill (Table 2's high-throughput configuration).
//
//   * Attention sharding (§3.3): over heads (multihead chunks K/V heads over
//     yz; multiquery replicates its single K/V head), or over batch (the
//     paper's optimized multiquery layout) via all-to-all resharding of
//     Q/K/V before attention and of the attention output after it.
//
// Incremental processing is supported: Prefill may be called repeatedly
// (§3.5's "incremental processing of sequences during prefill") and mixes
// freely with DecodeStep; the KV cache layout is fixed by the attention
// sharding and shared across phases, which is what lets a serving system use
// weight-gathered prefill + weight-stationary decode on the same state.
// Step runs one ragged pass over lanes of different widths, so a prefill
// chunk and one-token decode lanes can share a forward pass.
//
// Every forward pass is verified (tests/engine_test.cc) to match the
// single-chip ReferenceModel bit-for-close across layouts x shardings x
// meshes x block styles, and the virtual clock charges ChipSpec time for
// every matmul, HBM stream, and collective.
#pragma once

#include <memory>
#include <vector>

#include "core/layouts.h"
#include "engine/fastpath.h"
#include "engine/kvcache.h"
#include "engine/sharding.h"
#include "model/weights.h"
#include "sim/machine.h"
#include "sim/spmd.h"

namespace tsi {

namespace obs {
class Counter;
class MetricsRegistry;
}  // namespace obs

struct EngineSpec {
  FfnLayout prefill_ffn = FfnLayout::kWS2D;
  FfnLayout decode_ffn = FfnLayout::kWS2D;
  // One sharding for both phases: it fixes the KV-cache layout.
  AttnSharding attn = AttnSharding::kHeads;
  WeightFormat weight_format = WeightFormat::kBf16;
  // §3.5 Looped CollectiveEinsum: fuse the weight-stationary FFN input
  // projections with the reduce-scatter(x) they share with q/k/v so the
  // ring steps pipeline under chunked matmuls. Numerically identical (tests assert it); the
  // virtual clock charges the pipelined schedule instead of compute + comm.
  bool fuse_collectives = false;
  // Decode fast path (engine/fastpath.h, docs/fastpath.md): operator fusion
  // (fp32-bit-identical, memory-traffic only) and/or the end-to-end int8
  // pipeline (int8 weight shards, dynamic int8 activations, int8 KV cache).
  // Applies to both phases' weight-stationary block execution;
  // weight-gathered blocks keep fp32 compute but share the int8 KV cache.
  FastPathConfig fastpath;
  // Paged KV cache knobs (engine/kvcache.h): the allocation page size.
  // Every page size is bit-identical to every other.
  KvCacheConfig kv;
};

// One lane of a ragged engine step (DistributedEngine::Step).
struct StepLane {
  // KV slot the lane reads and extends, or ShardedKvCache::kScratchSlot for
  // a padding lane (computed, its K/V discarded).
  int64_t slot = ShardedKvCache::kScratchSlot;
  // The lane's tokens this step: one for a decode lane, a whole chunk for a
  // prefill lane.
  std::vector<int32_t> tokens;
  // kBatch only: the xyz-rank of the chip that stores the slot's KV. A slot
  // must keep its owner group across steps (the cache checks).
  int64_t group = 0;
};

// Which phase layout (EngineSpec.prefill_ffn / decode_ffn) a step runs.
enum class StepPhase { kPrefill, kDecode };

class DistributedEngine {
 public:
  // `machine` must outlive the engine. Weight shards are sliced from
  // `weights` (int8 mode applies a quantize/dequantize roundtrip first and
  // charges 1 byte/param of memory traffic).
  DistributedEngine(const ModelWeights& weights, SimMachine* machine,
                    EngineSpec spec);

  // Processes `batch` sequences of tokens.size()/batch tokens each,
  // extending the KV cache; returns logits [batch, len, vocab]. Equivalent
  // to a prefill Step with lane i on slot i (kBatch: owner group
  // i/(batch/n)).
  Tensor Prefill(const std::vector<int32_t>& tokens, int64_t batch);

  // Extends every sequence by one token; returns logits [batch, 1, vocab].
  Tensor DecodeStep(const std::vector<int32_t>& tokens);

  // --- Ragged step (continuous batching, src/serve) ------------------------
  // One forward pass over `lanes`, each extending its own slot by its own
  // number of tokens and attending over that slot's ragged context, so
  // prefill chunks and decode lanes at any positions can share a pass.
  // Returns logits [sum of lane widths, vocab], lane by lane in input order.
  // Scratch lanes are padding: they flow through every collective (keeping
  // shapes and the virtual clock's charges independent of how many lanes
  // are real) but their K/V is discarded. Under kHeads the rows are the
  // lanes back to back. Under kBatch they are group-major: each owner
  // group's lanes sit together, and every group is padded with one scratch
  // lane up to the largest group's row count, so the batch-row splits of the
  // weight-stationary collectives and the weight-gathered batch chunks put
  // each lane on its owner chip.
  Tensor Step(const std::vector<StepLane>& lanes, StepPhase phase);
  // Frees a slot's cache on every chip for reuse by a new request.
  void ResetSlot(int64_t slot) { cache_.ResetSlot(slot); }
  // Shares `parent`'s first `prefix_len` committed tokens with the empty
  // slot `child` by refcounting KV pages (copy-on-write prefix sharing) --
  // the child's prefill can skip those tokens entirely. See
  // ShardedKvCache::ForkSlot for the residency/ownership rules.
  void ForkSlot(int64_t parent, int64_t child, int64_t prefix_len) {
    cache_.ForkSlot(parent, child, prefix_len);
  }
  int64_t slot_length(int64_t slot) const { return cache_.slot_length(slot); }

  // --- KV migration between engines (serve/disagg.h) ----------------------
  // Assembles `slot`'s cached K/V with EVERY kv head per position -- the
  // layout-independent wire format a different pool can adopt. Under kHeads
  // the yz ranks' head chunks are concatenated in rank order (read off the
  // x-rank-0 chips; the x replicas are identical); under kBatch the owner
  // chip already holds full heads. Dies on an empty slot, on an int8 KV
  // cache, and on a slot with COW-shared pages (see
  // ShardedKvCache::ExtractSlotPages). Pure data movement: the virtual
  // clock is NOT advanced -- the caller (the migrator) charges the
  // interconnect.
  SlotPages ExportSlot(int64_t slot) const;
  // Adopts exported full-head state into the empty `slot`, re-sharded for
  // THIS engine's attention layout: each kHeads chip stores its yz-rank's
  // head chunk (or the full set when kv heads do not divide over yz);
  // under kBatch the chip with xyz-rank `owner_group` -- the rank whose
  // decode lane will carry the slot -- stores everything. No clock charges
  // (see ExportSlot).
  void ImportSlot(int64_t slot, const SlotPages& state,
                  int64_t owner_group = 0);

  int64_t context_length() const { return cache_.length(); }
  const EngineSpec& spec() const { return spec_; }
  SimMachine& machine() { return *machine_; }
  // The engine's SPMD executor: every Step runs as one per-chip region on
  // it. Exposed so callers can pin the slot count (tests, benchmarks).
  SpmdExecutor& spmd() { return spmd_; }
  const ModelConfig& config() const { return config_; }
  const ShardedKvCache& cache() const { return cache_; }
  // The fusion plans the engine executes per phase layout (tests inspect
  // them; ToString(plan) is human-readable).
  const FusedPlan& prefill_plan() const { return prefill_plan_; }
  const FusedPlan& decode_plan() const { return decode_plan_; }
  // Routes the cache's "kv/" metrics and the engine's "fastpath/" counters
  // to an isolated registry (tests; the default sink is
  // MetricsRegistry::Global()).
  void set_metrics(obs::MetricsRegistry* metrics);

 private:
  // A step's rows: the lanes in row order plus padding lanes (`lane` -1),
  // each frame lane's width, the rows' tokens (padding rows carry token 0),
  // and the lanes each chip's cache stores.
  struct StepFrame {
    std::vector<int64_t> lane, width;
    std::vector<int32_t> tokens;
    std::vector<std::vector<int64_t>> chip_slots, chip_widths;
  };
  StepFrame LayOutStep(const std::vector<StepLane>& lanes) const;

  // Per-chip block bodies, run inside an SpmdExecutor region: each touches
  // only chip ctx.chip()'s weights/cache plus collective-delivered data.
  // Weight-stationary block over this chip's activation shard [rows, E/X],
  // one collective per mesh axis per program point. fp32, or (per the
  // active plan) int8 weight shards with dynamic per-row int8 activations
  // and fp32 accumulation; fusion per the active plan.
  void WsBlockChip(SpmdContext& ctx, Tensor& x, int64_t layer);
  // Fully local block over the chip's group rows with gathered weights.
  void WgBlockChip(SpmdContext& ctx, Tensor& x, int64_t layer);

  // Head- or batch-sharded attention over this chip's heads. kHeads: q/k/v
  // are whole over x ([rows, cols]) and so is the [rows, (H/YZ)*dh] result.
  // kBatch: q/k/v are this chip's x rows ([rows/X, cols], what the rows
  // reduce-scatter(x) delivers) and so is the [rows/X, (H/YZ)*dh] result;
  // the caller gathers the rows back over x.
  Tensor AttentionChip(SpmdContext& ctx, Tensor q, Tensor k, Tensor v,
                       int64_t layer);

  // A layer's LayerNorm over the E dim when E is sharded over x (moment
  // all-reduce).
  Tensor DistLayerNormChip(SpmdContext& ctx, const Tensor& x,
                           bool second_gain, int64_t layer);

  // One norm site's output, in whichever forms its consumers need: a
  // pack-time transform (`nt`, for matmuls that fuse the norm) and/or the
  // materialized normed tensor (`y`). Both derive from the same moments
  // (one all-reduce when E is sharded over x), so mixing them per consumer
  // is bit-identical to the unfused composition.
  struct NormInput {
    Tensor y;
    RowNormTransform nt;
    bool has_y = false;
    bool has_nt = false;
  };
  NormInput NormInputChip(SpmdContext& ctx, const Tensor& x, bool second_gain,
                          int64_t layer, bool want_nt, bool want_y);

  // Appends this chip's step rows k/v [rows, kv, dh] in the cache's storage
  // format (quantizing to int8 per (position, head) when the cache is int8).
  void AppendKv(int chip, int64_t layer, const Tensor& k, const Tensor& v);

  Tensor LocalMatMul(int chip, const Tensor& x, const Tensor& w);
  // Fused matmul+activation hot paths; charge exactly like the LocalMatMul
  // calls they replace (flops/bytes are a function of shapes, not fusion).
  Tensor LocalMatMulGelu(int chip, const Tensor& x, const Tensor& w);
  Tensor LocalMatMulSwishMulGate(int chip, const Tensor& x, const Tensor& w,
                                 const Tensor& w_gate);
  // Fused-prologue/epilogue variants (decode fast path); same charges as
  // their unfused counterparts, plus fastpath metric accounting.
  Tensor LocalMatMulNormA(int chip, const Tensor& x,
                          const RowNormTransform& nt, const Tensor& w);
  Tensor LocalMatMulNormAGelu(int chip, const Tensor& x,
                              const RowNormTransform& nt, const Tensor& w);
  Tensor LocalMatMulNormASwishMulGate(int chip, const Tensor& x,
                                      const RowNormTransform& nt,
                                      const Tensor& w, const Tensor& w_gate);
  void LocalMatMulAccumulate(int chip, const Tensor& x, const Tensor& w,
                             Tensor* c);
  // Int8 matmuls charge the quantized weight footprint (the §3.6 byte win).
  Tensor LocalMatMulInt8(int chip, const QuantizedActivations& x,
                         const QuantizedTensor& w);
  void LocalMatMulInt8Accumulate(int chip, const QuantizedActivations& x,
                                 const QuantizedTensor& w, Tensor* c);
  // Fastpath metric accounting: `fused_kernels` fused calls issued,
  // `bytes_saved` = 8 bytes (fp32 write + read) per element of each fp32
  // intermediate the fusion avoided materializing. No-op when the fast path
  // is inactive; deterministic for any SPMD slot count (a pure function of
  // the ops executed).
  void NoteFusion(int64_t fused_kernels, double bytes_saved);

  // Runs SDPA per lane of `q` ([rows, heads, dh], the chip's step lanes
  // back to back at their declared widths) against each lane's cached slot
  // through its page table (or the lane's scratch), accumulating the
  // attention flop/byte charges into ONE ChargeComputeAndMemory call so the
  // virtual clock matches the batched formulation exactly when all lanes
  // share a shape. [g0, g0 + gcount) selects the kv-head slice of the cached
  // K/V for this chip's query chunk (kHeads grouped-query path); gcount ==
  // -1 reads all heads. Dispatches on the cache format: int8 caches run the
  // dequant-fused SDPA kernel and charge the actual int8 footprint.
  Tensor SlotAttention(int chip, int64_t layer, const Tensor& q, double heads,
                       int64_t g0 = 0, int64_t gcount = -1);

  ModelConfig config_;
  EngineSpec spec_;
  SimMachine* machine_;
  std::vector<ChipWeights> shards_;
  // Per-chip, per-layer int8 weight shards (fastpath int8 only; the
  // embedding and logit head stay fp32).
  struct QuantizedLayerShard {
    QuantizedTensor wq, wk, wv, wo, win, win_gate, wout;
  };
  std::vector<std::vector<QuantizedLayerShard>> qshards_;
  ShardedKvCache cache_;
  double weight_byte_width_;  // 2 (bf16) or 1 (int8) for traffic charging
  int X_, YZ_, n_;
  FusedPlan prefill_plan_, decode_plan_;
  // Set (single-threaded) by Step before entering the SPMD region.
  const FusedPlan* active_plan_ = nullptr;
  // Fastpath counters; created eagerly in the ctor (never from SPMD
  // closures) and only when the fast path is active, so baseline metric
  // exports carry no fastpath entries.
  obs::Counter* fused_ops_ = nullptr;
  obs::Counter* fused_bytes_saved_ = nullptr;
  SpmdExecutor spmd_;
};

}  // namespace tsi
