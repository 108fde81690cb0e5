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
// The construction-time machine (its chip and hop latency) decides, through
// ChooseReplication (core/replication.h), whether the q/k/v columns stay
// whole on every yz chip -- then batch-sharded attention slices its rows
// locally instead of the inbound all-to-all -- whether wo's rows stay
// whole on both yz chips -- then each row's owner projects every head and
// ships the other rank's term inside the yz all-reduce instead of the
// outbound all-to-all -- whether the weight-stationary logit head runs
// whole on chip 0 instead of vocab-sharded plus an all-gather, and whether
// every layer weight stays whole over x -- then each chip holds its x
// slice's rows at full E and runs every contraction over E as the x ranks'
// per-block partials, so no x collective runs -- and whether the FFN stays
// whole over yz as well -- then each chip holds only its own group's rows,
// sums the yz ranks' F-block partials itself, and no collective runs in a
// block. Either way every tensor is bit-identical; only the schedule and
// the virtual clock change. Set the hop latency before constructing the
// engine.
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
#include "engine/kvcache.h"
#include "engine/sharding.h"
#include "model/weights.h"
#include "sim/machine.h"
#include "sim/spmd.h"

namespace tsi {

namespace obs {
class MetricsRegistry;
}  // namespace obs

enum class FastPathPrecision {
  kFp32,  // fp32 compute
  kInt8,  // int8 weights + dynamic per-row int8 activations + int8 KV cache
};

// The engine's numeric precision (docs/fastpath.md). Operator fusion is not
// a setting: the block bodies always run the fused kernels their collectives
// allow.
struct FastPathConfig {
  FastPathPrecision precision = FastPathPrecision::kFp32;

  bool int8() const { return precision == FastPathPrecision::kInt8; }
};

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
  // fp32, or the end-to-end int8 pipeline (int8 weight shards, dynamic
  // int8 activations, int8 KV cache; docs/fastpath.md). Applies to both
  // phases' weight-stationary block execution; weight-gathered blocks keep
  // fp32 compute but share the int8 KV cache.
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
  // group's lanes sit together at exactly their rows (a group with no lane
  // gets one one-token scratch lane), and the weight-stationary row splits
  // and the weight-gathered row slices run at the groups' row extents, so
  // each lane lands on its owner chip and no group is padded to another's
  // size.
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
  // What the replication rule kept whole (core/replication.h).
  const Replication& replication() const { return replication_; }
  // Routes the cache's "kv/" metrics to an isolated registry (tests; the
  // default sink is MetricsRegistry::Global()).
  void set_metrics(obs::MetricsRegistry* metrics);

 private:
  // A step's rows: the lanes in row order plus scratch lanes (`lane` -1),
  // each frame lane's width, the rows' tokens (scratch rows carry token 0),
  // the lanes each chip's cache stores, and (kBatch) each owner group's
  // row count by xyz-rank.
  struct StepFrame {
    std::vector<int64_t> lane, width;
    std::vector<int32_t> tokens;
    std::vector<std::vector<int64_t>> chip_slots, chip_widths;
    std::vector<int64_t> group_rows;
  };
  StepFrame LayOutStep(const std::vector<StepLane>& lanes) const;
  // kBatch row extents of the current step's frame: per x-rank (the x
  // slice's groups summed), and per yz-rank within x-rank `xr`.
  SpmdContext::Extents RowsOverX() const;
  SpmdContext::Extents RowsOverYz(int xr) const;
  // kBatch: the rows of yz-rank `yzr`'s groups, per x-rank.
  SpmdContext::Extents RowsOfYzOverX(int yzr) const;

  // Per-chip block bodies, run inside an SpmdExecutor region: each touches
  // only chip ctx.chip()'s weights/cache plus collective-delivered data.
  // Weight-stationary block over this chip's activation shard: [rows, E/X],
  // or [x slice rows, E] when the layer is whole over x (site 4), or
  // [group rows, E] when the FFN is whole over yz too (site 5); one
  // collective per mesh axis per program point. fp32, or int8 weight
  // shards with dynamic per-row int8 activations and fp32 accumulation;
  // every fusion the block's collectives allow (docs/fastpath.md).
  void WsBlockChip(SpmdContext& ctx, Tensor& x, int64_t layer);
  // Fully local block over the chip's group rows with gathered weights.
  void WgBlockChip(SpmdContext& ctx, Tensor& x, int64_t layer);

  // Head- or batch-sharded attention over this chip's heads. kHeads: q/k/v
  // are whole over x ([rows, cols]) and so is the [rows, (H/YZ)*dh] result.
  // kBatch: q/k/v are this chip's x slice of the rows (its yz groups' rows,
  // what the rows reduce-scatter(x) delivers, the rows the chip holds
  // under site 4, or its own group's under site 5) and so is the
  // [slice rows, (H/YZ)*dh] result -- or, when
  // wo's rows are replicated (site 3), the [group rows, H*dh] of this
  // chip's own group; the caller gathers the rows back over x when E is
  // sharded there.
  Tensor AttentionChip(SpmdContext& ctx, Tensor q, Tensor k, Tensor v,
                       int64_t layer);

  // Appends this chip's step rows k/v [rows, kv, dh] in the cache's storage
  // format (quantizing to int8 per (position, head) when the cache is int8).
  void AppendKv(int chip, int64_t layer, const Tensor& k, const Tensor& v);

  // Local matmuls, charged at the weight footprint they stream: fp32 ones
  // with the fused prologues and epilogues of docs/fastpath.md (the charges
  // are a function of shapes, not of fusion), int8 ones at the quantized
  // weight footprint (the §3.6 byte win).
  Tensor LocalMatMul(int chip, const Tensor& x, const Tensor& w);
  // Charges `count` matmuls of x through weights shaped like `w`.
  void ChargeMatMul(int chip, const Tensor& x, const Tensor& w, int count = 1);
  Tensor LocalMatMulNormA(int chip, const Tensor& x,
                          const RowNormTransform& nt, const Tensor& w);
  Tensor LocalMatMulNormAGelu(int chip, const Tensor& x,
                              const RowNormTransform& nt, const Tensor& w);
  Tensor LocalMatMulNormASwishMulGate(int chip, const Tensor& x,
                                      const RowNormTransform& nt,
                                      const Tensor& w, const Tensor& w_gate);
  void LocalMatMulAccumulate(int chip, const Tensor& x, const Tensor& w,
                             Tensor* c);
  Tensor LocalMatMulInt8(int chip, const QuantizedActivations& x,
                         const QuantizedTensor& w);
  void LocalMatMulInt8Accumulate(int chip, const QuantizedActivations& x,
                                 const QuantizedTensor& w, Tensor* c);

  // Attends every lane of `q` ([rows, heads, dh], the chip's step lanes
  // back to back at their declared widths) in one RaggedPagedAttention call:
  // each lane reads its cache span (a resident slot through its page table,
  // a scratch lane as one page over its step scratch; int8 caches
  // dequantize as read). The attention flop/byte charges, one formula over
  // the spans' geometry, go into ONE ChargeComputeAndMemory call so the
  // virtual clock matches the batched formulation exactly when all lanes
  // share a shape; int8 caches charge their actual footprint. [g0, g0 +
  // gcount) selects the kv-head slice of the cached K/V for this chip's
  // query chunk (kHeads grouped-query path); gcount == -1 reads all heads.
  Tensor SlotAttention(int chip, int64_t layer, const Tensor& q, double heads,
                       int64_t g0 = 0, int64_t gcount = -1);

  ModelConfig config_;
  EngineSpec spec_;
  SimMachine* machine_;
  Replication replication_;
  // Per-chip weight shards; with the int8 fast path also their int8 form
  // (ChipWeights::qlayers; the embedding and logit head stay fp32).
  std::vector<ChipWeights> shards_;
  ShardedKvCache cache_;
  double weight_byte_width_;  // 2 (bf16) or 1 (int8) for traffic charging
  int X_, YZ_, n_;
  std::vector<int64_t> group_rows_;  // StepFrame::group_rows
  SpmdExecutor spmd_;
};

}  // namespace tsi
