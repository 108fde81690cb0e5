#include "engine/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "model/attention.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace tsi {
namespace {

constexpr unsigned kAxisYZ = kAxisY | kAxisZ;

}  // namespace

DistributedEngine::DistributedEngine(const ModelWeights& weights,
                                     SimMachine* machine, EngineSpec spec)
    : config_(weights.config),
      spec_(spec),
      machine_(machine),
      weight_byte_width_(WeightBytes(spec.weight_format)),
      X_(machine->topo().x()),
      YZ_(machine->topo().y() * machine->topo().z()),
      n_(machine->num_chips()),
      spmd_(machine) {
  TSI_CHECK(machine_ != nullptr);
  for (FfnLayout l : {spec_.prefill_ffn, spec_.decode_ffn}) {
    TSI_CHECK(l == FfnLayout::kWS1D || l == FfnLayout::kWS2D ||
              l == FfnLayout::kWGXYZ)
        << "engine executes WS-1D, WS-2D and WG-XYZ; WG-X/WG-XY are "
           "modelled analytically (see DESIGN.md)";
    if (l == FfnLayout::kWS1D) {
      TSI_CHECK_EQ(X_, 1) << "WS-1D needs mesh.x == 1";
    }
    if (l == FfnLayout::kWGXYZ) {
      TSI_CHECK(spec_.attn == AttnSharding::kBatch)
          << "weight-gathered execution keeps activations batch-sharded";
    }
  }
  if (spec_.weight_format == WeightFormat::kInt8) {
    // Quantize the full matrices before sharding so per-column scales match
    // the unsharded reference; traffic is charged at 1 byte/param.
    ModelWeights rt = weights;
    rt.SimulateInt8Roundtrip();
    shards_ = ShardWeights(rt, machine->topo());
  } else {
    shards_ = ShardWeights(weights, machine->topo());
  }
  cache_ = ShardedKvCache(n_, config_.num_layers, spec_.attn,
                          spec_.fastpath.int8() ? WeightFormat::kInt8
                                                : WeightFormat::kBf16,
                          spec_.kv);
  // Plan the per-layout block fusion up front (engine/fastpath.h): the
  // graphs encode where collectives bar fusion, so the per-chip block
  // functions only consult plan flags.
  auto plan_for = [&](FfnLayout layout) {
    BlockGraph graph =
        BuildBlockGraph(config_, layout, spec_.attn, X_, YZ_,
                        spec_.fuse_collectives, spec_.fastpath.precision);
    return FuseBlockGraph(&graph, spec_.fastpath);
  };
  prefill_plan_ = plan_for(spec_.prefill_ffn);
  decode_plan_ = plan_for(spec_.decode_ffn);
  active_plan_ = &decode_plan_;
  if (spec_.fastpath.int8()) {
    // Int8 weight shards for the end-to-end int8 matmuls; per-column scales
    // are computed over each chip's shard (its rows of the full matrix).
    qshards_.resize(shards_.size());
    for (size_t cs = 0; cs < shards_.size(); ++cs) {
      qshards_[cs].reserve(shards_[cs].layers.size());
      for (const ShardedLayerWeights& lw : shards_[cs].layers) {
        QuantizedLayerShard q;
        q.wq = QuantizeInt8(lw.wq);
        q.wk = QuantizeInt8(lw.wk);
        q.wv = QuantizeInt8(lw.wv);
        q.wo = QuantizeInt8(lw.wo);
        q.win = QuantizeInt8(lw.win);
        if (config_.gated_ffn) q.win_gate = QuantizeInt8(lw.win_gate);
        q.wout = QuantizeInt8(lw.wout);
        qshards_[cs].push_back(std::move(q));
      }
    }
  }
  if (spec_.fastpath.active()) {
    obs::MetricsRegistry& m = obs::MetricsRegistry::Global();
    fused_ops_ = m.GetCounter("fastpath/fused_ops");
    fused_bytes_saved_ = m.GetCounter("fastpath/bytes_saved");
  }
}

void DistributedEngine::set_metrics(obs::MetricsRegistry* metrics) {
  cache_.set_metrics(metrics);
  if (spec_.fastpath.active() && metrics != nullptr) {
    fused_ops_ = metrics->GetCounter("fastpath/fused_ops");
    fused_bytes_saved_ = metrics->GetCounter("fastpath/bytes_saved");
  }
}

void DistributedEngine::NoteFusion(int64_t fused_kernels, double bytes_saved) {
  if (fused_ops_ == nullptr) return;
  if (fused_kernels > 0) fused_ops_->Add(fused_kernels);
  if (bytes_saved > 0) fused_bytes_saved_->Add(static_cast<int64_t>(bytes_saved));
}

Tensor DistributedEngine::LocalMatMul(int chip, const Tensor& x, const Tensor& w) {
  double flops = 2.0 * (x.numel() / x.dim(-1)) * w.dim(0) * w.dim(1);
  machine_->ChargeComputeAndMemory(chip, flops,
                                   static_cast<double>(w.numel()) * weight_byte_width_);
  return MatMul(x, w);
}

Tensor DistributedEngine::LocalMatMulGelu(int chip, const Tensor& x,
                                          const Tensor& w) {
  double flops = 2.0 * (x.numel() / x.dim(-1)) * w.dim(0) * w.dim(1);
  machine_->ChargeComputeAndMemory(chip, flops,
                                   static_cast<double>(w.numel()) * weight_byte_width_);
  return MatMulGelu(x, w);
}

Tensor DistributedEngine::LocalMatMulSwishMulGate(int chip, const Tensor& x,
                                                  const Tensor& w,
                                                  const Tensor& w_gate) {
  // Two projections' worth of compute and weight traffic.
  double flops = 4.0 * (x.numel() / x.dim(-1)) * w.dim(0) * w.dim(1);
  machine_->ChargeComputeAndMemory(
      chip, flops,
      static_cast<double>(w.numel() + w_gate.numel()) * weight_byte_width_);
  return MatMulSwishMulGate(x, w, w_gate);
}

Tensor DistributedEngine::LocalMatMulNormA(int chip, const Tensor& x,
                                           const RowNormTransform& nt,
                                           const Tensor& w) {
  double flops = 2.0 * (x.numel() / x.dim(-1)) * w.dim(0) * w.dim(1);
  machine_->ChargeComputeAndMemory(
      chip, flops, static_cast<double>(w.numel()) * weight_byte_width_);
  NoteFusion(1, 0.0);  // the avoided normed tensor is counted once per site
  return MatMulNormA(x, nt, w);
}

Tensor DistributedEngine::LocalMatMulNormAGelu(int chip, const Tensor& x,
                                               const RowNormTransform& nt,
                                               const Tensor& w) {
  const double m = static_cast<double>(x.numel() / x.dim(-1));
  double flops = 2.0 * m * w.dim(0) * w.dim(1);
  machine_->ChargeComputeAndMemory(
      chip, flops, static_cast<double>(w.numel()) * weight_byte_width_);
  NoteFusion(1, 8.0 * m * static_cast<double>(w.dim(1)));  // pre-act hidden
  return MatMulNormAGelu(x, nt, w);
}

Tensor DistributedEngine::LocalMatMulNormASwishMulGate(int chip,
                                                       const Tensor& x,
                                                       const RowNormTransform& nt,
                                                       const Tensor& w,
                                                       const Tensor& w_gate) {
  const double m = static_cast<double>(x.numel() / x.dim(-1));
  double flops = 4.0 * m * w.dim(0) * w.dim(1);
  machine_->ChargeComputeAndMemory(
      chip, flops,
      static_cast<double>(w.numel() + w_gate.numel()) * weight_byte_width_);
  NoteFusion(1, 16.0 * m * static_cast<double>(w.dim(1)));  // both hiddens
  return MatMulNormASwishMulGate(x, nt, w, w_gate);
}

void DistributedEngine::LocalMatMulAccumulate(int chip, const Tensor& x,
                                              const Tensor& w, Tensor* c) {
  const double m = static_cast<double>(x.numel() / x.dim(-1));
  double flops = 2.0 * m * w.dim(0) * w.dim(1);
  machine_->ChargeComputeAndMemory(
      chip, flops, static_cast<double>(w.numel()) * weight_byte_width_);
  NoteFusion(1, 8.0 * m * static_cast<double>(w.dim(1)));  // matmul output
  MatMulAccumulate(x, w, c);
}

Tensor DistributedEngine::LocalMatMulInt8(int chip,
                                          const QuantizedActivations& x,
                                          const QuantizedTensor& w) {
  double flops = 2.0 * static_cast<double>(x.rows()) * w.rows() * w.cols();
  machine_->ChargeComputeAndMemory(chip, flops,
                                   static_cast<double>(w.ByteSize()));
  return MatMulInt8(x, w);
}

void DistributedEngine::LocalMatMulInt8Accumulate(int chip,
                                                  const QuantizedActivations& x,
                                                  const QuantizedTensor& w,
                                                  Tensor* c) {
  double flops = 2.0 * static_cast<double>(x.rows()) * w.rows() * w.cols();
  machine_->ChargeComputeAndMemory(chip, flops,
                                   static_cast<double>(w.ByteSize()));
  NoteFusion(1, 8.0 * static_cast<double>(x.rows() * w.cols()));
  MatMulInt8Accumulate(x, w, c);
}

void DistributedEngine::AppendKv(int chip, int64_t layer, const Tensor& k,
                                 const Tensor& v) {
  // The cache's packed form: the chip's lanes back to back in one row.
  const Tensor k4 = k.Reshape({1, k.dim(0), k.dim(1), k.dim(2)});
  const Tensor v4 = v.Reshape({1, v.dim(0), v.dim(1), v.dim(2)});
  if (cache_.format() == WeightFormat::kInt8) {
    cache_.AppendQuantized(chip, layer, QuantizeKvInt8(k4), QuantizeKvInt8(v4));
  } else {
    cache_.Append(chip, layer, k4, v4);
  }
}

Tensor DistributedEngine::SlotAttention(int chip, int64_t layer, const Tensor& q,
                                        double heads, int64_t g0,
                                        int64_t gcount) {
  const auto& slots = cache_.step_slots(chip);
  const auto& widths = cache_.step_widths(chip);
  const int64_t H = q.dim(1), dh = q.dim(2);
  const bool int8 = cache_.format() == WeightFormat::kInt8;
  const double dhd = static_cast<double>(config_.d_head);
  double flops = 0, kv_bytes = 0;
  std::vector<Tensor> outs;
  outs.reserve(slots.size());
  int64_t first = 0;  // the lane's first row of q
  for (size_t i = 0; i < slots.size(); ++i) {
    const int64_t s = slots[i], T = widths[i];
    const auto lane = static_cast<int64_t>(i);
    Tensor qi = q.Slice(0, first, T).Reshape({1, T, H, dh});
    first += T;
    Tensor out;
    if (s == ShardedKvCache::kScratchSlot) {
      // Padding lanes read their per-lane step scratch (one step's worth of
      // K/V, never paged).
      if (int8) {
        const QuantizedKv& kf = cache_.ScratchK8(chip, layer, lane);
        const QuantizedKv& vf = cache_.ScratchV8(chip, layer, lane);
        const bool slice = gcount >= 0 && gcount != kf.kv_heads();
        QuantizedKv ks, vs;
        if (slice) {
          ks = SliceKvHeads(kf, g0, gcount);
          vs = SliceKvHeads(vf, g0, gcount);
        }
        const QuantizedKv& kc = slice ? ks : kf;
        const QuantizedKv& vc = slice ? vs : vf;
        flops += 4.0 * static_cast<double>(T) * static_cast<double>(kc.t()) *
                 heads * dhd;
        kv_bytes += static_cast<double>(kc.ByteSize() + vc.ByteSize());
        out = ScaledDotProductAttentionInt8Kv(qi, kc, vc, /*causal=*/true);
      } else {
        Tensor kc = cache_.ScratchK(chip, layer, lane);
        Tensor vc = cache_.ScratchV(chip, layer, lane);
        if (gcount >= 0 && gcount != kc.dim(2)) {
          kc = kc.Slice(2, g0, gcount);
          vc = vc.Slice(2, g0, gcount);
        }
        flops += 4.0 * static_cast<double>(T) *
                 static_cast<double>(kc.dim(1)) * heads * dhd;
        kv_bytes += 2.0 * static_cast<double>(kc.numel()) *
                    machine_->bytes_per_element();
        out = ScaledDotProductAttention(qi, kc, vc, /*causal=*/true);
      }
    } else {
      // Resident slot: read through the page table. Charges are computed
      // from the read geometry and are bit-for-bit equal to the contiguous
      // expressions the cache had before paging.
      const int64_t len = cache_.ReadLength(chip, s);
      const int64_t stored = cache_.StoredKvHeads(chip);
      const bool slice = gcount >= 0 && gcount != stored;
      const int64_t sel = slice ? gcount : stored;
      const int64_t off = slice ? g0 : 0;
      // Per-lane flops/bytes are exact integers in double, so this sum
      // equals the batched 4*B*T*len*heads*dh / 2*numel formulation
      // bit-for-bit when every lane shares one shape -- the virtual clock
      // stays identical to the static-batch path.
      flops += 4.0 * static_cast<double>(T) * static_cast<double>(len) *
               heads * dhd;
      if (int8) {
        // The §3.6/D.3 win: the decode-dominating KV stream is charged at
        // its actual int8 footprint (1-byte values + per-vector scales).
        kv_bytes += 2.0 * (static_cast<double>(len * sel) * dhd +
                           4.0 * static_cast<double>(len * sel));
        out = ScaledDotProductAttentionPagedInt8Kv(
            qi, cache_.PageSpanK8(chip, layer, s, off, sel),
            cache_.PageSpanV8(chip, layer, s, off, sel), /*causal=*/true);
      } else {
        kv_bytes += 2.0 * (static_cast<double>(len * sel) * dhd) *
                    machine_->bytes_per_element();
        out = ScaledDotProductAttentionPaged(
            qi, cache_.PageSpanK(chip, layer, s, off, sel),
            cache_.PageSpanV(chip, layer, s, off, sel), /*causal=*/true);
      }
    }
    outs.push_back(out.Reshape({T, H, dh}));
  }
  machine_->ChargeComputeAndMemory(chip, flops, kv_bytes, "attention");
  // Per-lane SDPA is bit-identical to one batched call: the kernel streams
  // each (batch, head) pair independently (model/attention.cc).
  return outs.size() == 1 ? std::move(outs[0]) : Tensor::Concat(0, outs);
}

Tensor DistributedEngine::DistLayerNormChip(SpmdContext& ctx, const Tensor& x,
                                            bool second_gain, int64_t layer) {
  const int c = ctx.chip();
  const auto& shard = shards_[static_cast<size_t>(c)];
  const Tensor& gain = second_gain
                           ? shard.layers[static_cast<size_t>(layer)].ln2_gain
                           : shard.layers[static_cast<size_t>(layer)].ln_gain;
  if (X_ == 1) return LayerNorm(x, gain);
  // E sharded over x: all-reduce per-row (sum, sumsq) moments over x, then
  // normalize this chip's shard locally (single-pass kernels, tensor/ops.h).
  Tensor moments = ctx.AllReduce(kAxisX, RowMoments(x));
  return NormalizeWithMoments(x, moments, gain,
                              static_cast<double>(config_.d_model));
}

DistributedEngine::NormInput DistributedEngine::NormInputChip(
    SpmdContext& ctx, const Tensor& x, bool second_gain, int64_t layer,
    bool want_nt, bool want_y) {
  const int c = ctx.chip();
  const auto& shard = shards_[static_cast<size_t>(c)];
  const Tensor& gain =
      second_gain ? shard.layers[static_cast<size_t>(layer)].ln2_gain
                  : shard.layers[static_cast<size_t>(layer)].ln_gain;
  NormInput ni;
  if (X_ == 1) {
    if (want_nt) {
      ni.nt = NormTransformFromRows(x, gain);
      ni.has_nt = true;
    }
    if (want_y) {
      ni.y = LayerNorm(x, gain);
      ni.has_y = true;
    }
  } else {
    // One moments all-reduce feeds both forms, so the collective schedule
    // (and the virtual clock) is identical whichever consumers fused.
    Tensor moments = ctx.AllReduce(kAxisX, RowMoments(x));
    if (want_nt) {
      ni.nt = NormTransformFromMoments(moments, gain,
                                       static_cast<double>(config_.d_model));
      ni.has_nt = true;
    }
    if (want_y) {
      ni.y = NormalizeWithMoments(x, moments, gain,
                                  static_cast<double>(config_.d_model));
      ni.has_y = true;
    }
  }
  // When every consumer fused the norm, the normed tensor never exists.
  if (!ni.has_y) NoteFusion(0, 8.0 * static_cast<double>(x.numel()));
  return ni;
}

Tensor DistributedEngine::AttentionChip(SpmdContext& ctx, Tensor q, Tensor k,
                                        Tensor v, int64_t layer) {
  const int c = ctx.chip();
  const int64_t rows = q.dim(0);
  const int64_t H = config_.n_heads, dh = config_.d_head;
  const int64_t Hl = H / YZ_;
  const int64_t KV = config_.n_kv_heads();
  const bool kv_replicated = KV % YZ_ != 0;  // see engine/sharding.cc
  const int64_t KVl = kv_replicated ? KV : KV / YZ_;
  const Torus3D& topo = ctx.topo();

  if (spec_.attn == AttnSharding::kHeads) {
    Tensor q3 = q.Reshape({rows, Hl, dh});
    AppendKv(c, layer, k.Reshape({rows, KVl, dh}), v.Reshape({rows, KVl, dh}));
    int64_t g0 = 0, gcount = -1;
    if (kv_replicated && KV > 1) {
      // Grouped-query with replicated K/V heads: this chip's query chunk
      // [yzr*Hl, (yzr+1)*Hl) reads only its kv group(s); slice them so the
      // local head->kv mapping stays h*KV_local/H_local.
      const int64_t heads_per_group = H / KV;
      const int64_t h0 = static_cast<int64_t>(topo.RankInGroup(c, kAxisYZ)) * Hl;
      g0 = h0 / heads_per_group;
      const int64_t g1 = (h0 + Hl - 1) / heads_per_group;
      TSI_CHECK(g0 == g1 || Hl % heads_per_group == 0)
          << "query-head chunk must align with kv groups";
      gcount = g1 - g0 + 1;
    }
    Tensor attn =
        SlotAttention(c, layer, q3, static_cast<double>(Hl), g0, gcount);
    return attn.Reshape({rows, Hl * dh});
  }

  // Batch-sharded (§3.3, Fig 5b): the rows are already this chip's x slice
  // of the group-major frame (the reduce-scatter(x) of the projections
  // scatters rows), so only the yz split needs an all-to-all (heads ->
  // rows). x-major ranks match the weight-gathered path's xyz group rank,
  // so the two phases share one KV-cache layout.
  Tensor q3 = q.Reshape({rows, Hl, dh});
  Tensor k3 = k.Reshape({rows, KVl, dh});
  Tensor v3 = v.Reshape({rows, KVl, dh});
  Tensor qb, kb, vb;
  if (kv_replicated) {
    // The K/V heads are replicated over yz: the row split is a local
    // slice, no communication (this is the saving of Fig 4c).
    qb = ctx.AllToAll(kAxisYZ, std::move(q3), /*split=*/0, /*concat=*/1);
    const int yzr = YZ_ == 1 ? 0 : topo.RankInGroup(c, kAxisYZ);
    kb = YZ_ == 1 ? std::move(k3) : k3.Chunk(0, YZ_, yzr);
    vb = YZ_ == 1 ? std::move(v3) : v3.Chunk(0, YZ_, yzr);
  } else {
    // Head-sharded K/V reshard with q in the same all-to-all.
    std::vector<Tensor> qkv;
    qkv.push_back(std::move(q3));
    qkv.push_back(std::move(k3));
    qkv.push_back(std::move(v3));
    qkv = ctx.AllToAllMany(kAxisYZ, std::move(qkv), 0, 1);
    qb = std::move(qkv[0]);
    kb = std::move(qkv[1]);
    vb = std::move(qkv[2]);
  }
  AppendKv(c, layer, kb, vb);
  Tensor attn = SlotAttention(c, layer, qb, static_cast<double>(H));
  // Back to head sharding over yz; attn is [rows/YZ, H, dh]. The caller
  // gathers the x rows.
  Tensor back = ctx.AllToAll(kAxisYZ, std::move(attn), /*split=*/1,
                             /*concat=*/0);
  return back.Reshape({rows, Hl * dh});
}

void DistributedEngine::WsBlockChip(SpmdContext& ctx, Tensor& x,
                                    int64_t layer) {
  const FusedPlan& plan = *active_plan_;
  const int c = ctx.chip();
  const bool gated = config_.gated_ffn;
  const bool int8 = plan.int8;
  const bool heads = spec_.attn == AttnSharding::kHeads;
  const ShardedLayerWeights& lw =
      shards_[static_cast<size_t>(c)].layers[static_cast<size_t>(layer)];
  const QuantizedLayerShard* qw =
      int8 ? &qshards_[static_cast<size_t>(c)][static_cast<size_t>(layer)]
           : nullptr;
  // §3.5 Looped CollectiveEinsum for the FFN input projections (fp32 only:
  // the int8 pipeline runs its own matmul kernels).
  const bool looped = X_ > 1 && spec_.fuse_collectives && !int8;
  // Over x the q/k/v projections are partial sums. Batch-sharded attention
  // wants only this chip's x batch rows, so they reduce-scatter along rows;
  // head-sharded attention wants them whole, so they reduce-scatter along
  // columns and all-gather back -- an all-reduce split in two, so each half
  // can share its collective with the FFN's.
  const int64_t qkv_dim = heads ? 1 : 0;

  // The current norm site, in the forms its consumers read: fp32 (`ni`:
  // materialized and/or as a pack-time transform) or dynamic int8 (`yq`).
  NormInput ni;
  QuantizedActivations yq;
  bool nt_attn = false, nt_ffn = false;
  auto norm = [&](bool second, bool attn, bool ffn) {
    if (!int8) {
      nt_attn = attn && plan.norm_into_attn;
      nt_ffn = ffn && plan.norm_into_ffn;
      ni = NormInputChip(ctx, x, second, layer, nt_attn || nt_ffn,
                         (attn && !nt_attn) || (ffn && !nt_ffn));
      return;
    }
    // One fused norm+quantize pass over x when the plan fused them, the
    // two-step composition otherwise -- bit-identical either way
    // (quant/int8.cc).
    if (!plan.quantize_fused_norm) {
      yq = QuantizeActivationsInt8(DistLayerNormChip(ctx, x, second, layer));
      return;
    }
    const Tensor& gain = second ? lw.ln2_gain : lw.ln_gain;
    RowNormTransform nt;
    if (X_ == 1) {
      nt = NormTransformFromRows(x, gain);
    } else {
      Tensor moments = ctx.AllReduce(kAxisX, RowMoments(x));
      nt = NormTransformFromMoments(moments, gain,
                                    static_cast<double>(config_.d_model));
    }
    NoteFusion(1, 8.0 * static_cast<double>(x.numel()));
    yq = QuantizeNormedInt8(x, nt);
  };

  using W = const Tensor ShardedLayerWeights::*;
  using W8 = const QuantizedTensor QuantizedLayerShard::*;
  // Projects the norm site through an input weight: int8, or fp32 with the
  // norm applied on the matmul's A-pack when this site fused it and from
  // the materialized normed tensor otherwise (the packed values are
  // identical, tensor/matmul.cc, so the forms mix freely and bit-exactly).
  auto proj = [&](W w, W8 w8, bool use_nt) {
    if (int8) return LocalMatMulInt8(c, yq, qw->*w8);
    return use_nt ? LocalMatMulNormA(c, x, ni.nt, lw.*w)
                  : LocalMatMul(c, ni.y, lw.*w);
  };
  // a @ w, or *accum += a @ w when the plan folded the sum into the matmul
  // (then returns an empty tensor). Int8 quantizes `a` unless the caller
  // already holds it quantized (`aq`).
  auto out_proj = [&](const Tensor& a, const QuantizedActivations* aq, W w,
                      W8 w8, Tensor* accum) {
    if (int8) {
      QuantizedActivations own;
      if (aq == nullptr) {
        own = QuantizeActivationsInt8(a);
        aq = &own;
      }
      if (accum == nullptr) return LocalMatMulInt8(c, *aq, qw->*w8);
      LocalMatMulInt8Accumulate(c, *aq, qw->*w8, accum);
      return Tensor();
    }
    if (accum == nullptr) return LocalMatMul(c, a, lw.*w);
    LocalMatMulAccumulate(c, a, lw.*w, accum);
    return Tensor();
  };
  // FFN hidden when d_ff is whole on-chip (X == 1): no collective, so the
  // projection, the activation and (int8) the quantize fuse per the plan.
  // fp32 returns the hidden; int8 fills *hq.
  auto ffn_hidden_local = [&](QuantizedActivations* hq) {
    if (!int8) {
      if (nt_ffn)
        return gated ? LocalMatMulNormASwishMulGate(c, x, ni.nt, lw.win,
                                                    lw.win_gate)
                     : LocalMatMulNormAGelu(c, x, ni.nt, lw.win);
      return gated ? LocalMatMulSwishMulGate(c, ni.y, lw.win, lw.win_gate)
                   : LocalMatMulGelu(c, ni.y, lw.win);
    }
    Tensor h1 = LocalMatMulInt8(c, yq, qw->win);
    if (gated) {
      Tensor h2 = LocalMatMulInt8(c, yq, qw->win_gate);
      if (plan.quantize_fused_act) {
        NoteFusion(1, 8.0 * static_cast<double>(h1.numel()));
        *hq = QuantizeSwishGateInt8(h1, h2);
      } else {
        *hq = QuantizeActivationsInt8(Swish2(h1).Mul(h2));
      }
    } else if (plan.quantize_fused_act) {
      NoteFusion(1, 8.0 * static_cast<double>(h1.numel()));
      *hq = QuantizeGeluInt8(h1);
    } else {
      *hq = QuantizeActivationsInt8(Gelu(h1));
    }
    return Tensor();
  };

  // All-gathers the pointed-to tensors over x, in place, in one collective.
  auto gather_x = [&](const std::vector<Tensor*>& ts,
                      const std::vector<int64_t>& dims) {
    std::vector<Tensor> g;
    for (Tensor* t : ts) g.push_back(std::move(*t));
    g = ctx.AllGatherMany(kAxisX, std::move(g), dims);
    for (size_t i = 0; i < ts.size(); ++i) *ts[i] = std::move(g[i]);
  };

  // One block half -- both branches at once in a parallel block -- with one
  // collective per axis per program point (§3.4):
  //   reduce-scatter(x): {q, k, v, h1, h2} (looped: h1/h2's matmuls
  //                      pipelined under it)
  //   all-gather(x):     kHeads {q, k, v, h} before attention,
  //                      kBatch {attention rows, h} after it
  // Returns the summed branch outputs (partial over yz), or an empty tensor
  // when the plan accumulated them straight into x.
  auto half = [&](bool second, bool attn, bool ffn) {
    norm(second, attn, ffn);
    std::vector<Tensor> rs;
    std::vector<int64_t> rs_dims;
    if (attn) {
      rs.push_back(proj(&ShardedLayerWeights::wq, &QuantizedLayerShard::wq,
                        nt_attn));
      rs.push_back(proj(&ShardedLayerWeights::wk, &QuantizedLayerShard::wk,
                        nt_attn));
      rs.push_back(proj(&ShardedLayerWeights::wv, &QuantizedLayerShard::wv,
                        nt_attn));
      rs_dims.assign(3, qkv_dim);
    }
    if (ffn && looped) {
      // The FFN input projections run pipelined under the same
      // reduce-scatter(x), on the materialized normed tensor (the plan
      // never fuses the norm into this site).
      std::vector<const Tensor*> ws = {&lw.win};
      if (gated) ws.push_back(&lw.win_gate);
      rs = ctx.MatMulReduceScatterMany(kAxisX, std::move(rs), rs_dims, ni.y,
                                       ws, weight_byte_width_);
    } else {
      if (ffn && X_ > 1) {
        rs.push_back(proj(&ShardedLayerWeights::win,
                          &QuantizedLayerShard::win, nt_ffn));
        rs_dims.push_back(1);
        if (gated) {
          rs.push_back(proj(&ShardedLayerWeights::win_gate,
                            &QuantizedLayerShard::win_gate, nt_ffn));
          rs_dims.push_back(1);
        }
      }
      if (X_ > 1 && !rs.empty())
        rs = ctx.ReduceScatterMany(kAxisX, std::move(rs), rs_dims);
    }

    Tensor h;
    QuantizedActivations hq;
    if (ffn && X_ == 1) {
      h = ffn_hidden_local(&hq);
    } else if (ffn) {
      const size_t at = attn ? 3 : 0;
      Tensor h1 = std::move(rs[at]), h2;
      if (gated) h2 = std::move(rs[at + 1]);
      // §3.5: the nonlinearity runs on 1/X of the hidden dim, between the
      // reduce-scatter and the all-gather.
      h = gated ? Swish2(h1).Mul(h2) : Gelu(h1);
    }
    const bool gather_h = ffn && X_ > 1;

    Tensor out;
    if (attn) {
      Tensor q = std::move(rs[0]), k = std::move(rs[1]), v = std::move(rs[2]);
      if (heads && X_ > 1) {
        std::vector<Tensor*> ts = {&q, &k, &v};
        if (gather_h) ts.push_back(&h);
        gather_x(ts, std::vector<int64_t>(ts.size(), 1));
      }
      Tensor a =
          AttentionChip(ctx, std::move(q), std::move(k), std::move(v), layer);
      if (!heads && X_ > 1) {
        if (gather_h) {
          gather_x({&a, &h}, {0, 1});
        } else {
          gather_x({&a}, {0});
        }
      }
      // A serial block without a yz reduction may fold the residual add
      // into wo (the plan only sets this when YZ == 1).
      Tensor* accum =
          !config_.parallel_block && plan.wo_accumulate ? &x : nullptr;
      out = out_proj(a, nullptr, &ShardedLayerWeights::wo,
                     &QuantizedLayerShard::wo, accum);
    } else if (gather_h) {
      gather_x({&h}, {1});
    }

    if (ffn) {
      const QuantizedActivations* hqp = int8 && X_ == 1 ? &hq : nullptr;
      W wout = &ShardedLayerWeights::wout;
      W8 wout8 = &QuantizedLayerShard::wout;
      if (plan.wout_accumulate) {
        // §3.4 branch sum (parallel) or residual add (serial, YZ == 1)
        // folded into wout's accumulate epilogue.
        out_proj(h, hqp, wout, wout8, attn ? &out : &x);
      } else if (attn) {
        out.AddInPlace(out_proj(h, hqp, wout, wout8, nullptr));
      } else {
        out = out_proj(h, hqp, wout, wout8, nullptr);
      }
    }
    return out;
  };

  // Residual add of a half's output: one all-reduce(yz) of the partial sums
  // (§3.4: one per parallel block, two per serial block).
  auto residual = [&](Tensor out) {
    if (out.empty()) return;  // accumulated into x already
    if (YZ_ > 1) out = ctx.AllReduce(kAxisYZ, std::move(out));
    x.AddInPlace(out);
  };
  if (config_.parallel_block) {
    residual(half(/*second=*/false, /*attn=*/true, /*ffn=*/true));
    return;
  }
  residual(half(false, true, false));
  residual(half(true, false, true));
}

void DistributedEngine::WgBlockChip(SpmdContext& ctx, Tensor& x,
                                    int64_t layer) {
  const int c = ctx.chip();
  const int64_t rows = x.dim(0);
  const ShardedLayerWeights& lw =
      shards_[static_cast<size_t>(c)].layers[static_cast<size_t>(layer)];

  // Gather this layer's weights to full matrices with one all-gather per
  // axis (charged as collectives on the virtual clock): first every
  // weight's yz pieces (column shards of the input projections, row shards
  // of wo/wout), then every weight's x pieces, the norm gains included.
  std::vector<Tensor> w;
  std::vector<int64_t> yz_dims, x_dims;  // yz_dim -1: not split over yz
  auto add = [&](const Tensor& shard, int64_t yz_dim, int64_t x_dim) {
    w.push_back(shard);
    yz_dims.push_back(yz_dim);
    x_dims.push_back(x_dim);
    return w.size() - 1;
  };
  const bool kv_replicated = config_.n_kv_heads() % YZ_ != 0;
  const size_t iq = add(lw.wq, 1, 0);
  const size_t ik = add(lw.wk, kv_replicated ? -1 : 1, 0);
  const size_t iv = add(lw.wv, kv_replicated ? -1 : 1, 0);
  const size_t io = add(lw.wo, 0, 1);
  const size_t iin = add(lw.win, 1, 0);
  const size_t igate = config_.gated_ffn ? add(lw.win_gate, 1, 0) : 0;
  const size_t iout = add(lw.wout, 0, 1);
  const size_t iln = add(lw.ln_gain, -1, 0);
  // The second pre-norm exists only in serial blocks.
  const size_t iln2 = config_.parallel_block ? 0 : add(lw.ln2_gain, -1, 0);
  if (YZ_ > 1) {
    std::vector<Tensor> g;
    std::vector<int64_t> dims;
    std::vector<size_t> at;
    for (size_t i = 0; i < w.size(); ++i) {
      if (yz_dims[i] < 0) continue;
      g.push_back(std::move(w[i]));
      dims.push_back(yz_dims[i]);
      at.push_back(i);
    }
    g = ctx.AllGatherMany(kAxisYZ, std::move(g), dims);
    for (size_t j = 0; j < at.size(); ++j) w[at[j]] = std::move(g[j]);
  }
  if (X_ > 1) w = ctx.AllGatherMany(kAxisX, std::move(w), x_dims);
  const Tensor& wq = w[iq];
  const Tensor& wk = w[ik];
  const Tensor& wv = w[iv];
  const Tensor& wo = w[io];
  const Tensor& win = w[iin];
  const Tensor& wgate = w[igate];  // read only when gated
  const Tensor& wout = w[iout];
  const Tensor& ln = w[iln];
  const Tensor& ln2 = w[iln2];  // read only by serial blocks

  const int64_t H = config_.n_heads, KV = config_.n_kv_heads(), dh = config_.d_head;
  const FusedPlan& plan = *active_plan_;
  const bool fused = plan.wo_accumulate;  // WG fuses all-or-nothing

  // Projections through the gathered (full) matrices; KV appends go through
  // AppendKv so an int8-precision cache narrows even on this fp32 path.
  auto run_attn_fused = [&](const RowNormTransform& nt) {
    Tensor q = LocalMatMulNormA(c, x, nt, wq).Reshape({rows, H, dh});
    Tensor k = LocalMatMulNormA(c, x, nt, wk).Reshape({rows, KV, dh});
    Tensor v = LocalMatMulNormA(c, x, nt, wv).Reshape({rows, KV, dh});
    AppendKv(c, layer, k, v);
    return SlotAttention(c, layer, q, static_cast<double>(H))
        .Reshape({rows, H * dh});
  };
  auto run_attn = [&](const Tensor& y) {
    Tensor q = LocalMatMul(c, y, wq).Reshape({rows, H, dh});
    Tensor k = LocalMatMul(c, y, wk).Reshape({rows, KV, dh});
    Tensor v = LocalMatMul(c, y, wv).Reshape({rows, KV, dh});
    AppendKv(c, layer, k, v);
    Tensor attn = SlotAttention(c, layer, q, static_cast<double>(H));
    return LocalMatMul(c, attn.Reshape({rows, H * dh}), wo);
  };
  auto run_ffn = [&](const Tensor& y) {
    Tensor h = config_.gated_ffn ? LocalMatMulSwishMulGate(c, y, win, wgate)
                                 : LocalMatMulGelu(c, y, win);
    return LocalMatMul(c, h, wout);
  };

  if (fused) {
    // Every read of x happens through a norm transform captured before the
    // accumulates mutate x, so the fused path reproduces the unfused order
    // x + attn_out + ffn_out exactly.
    if (config_.parallel_block) {
      RowNormTransform nt = NormTransformFromRows(x, ln);
      NoteFusion(0, 8.0 * static_cast<double>(x.numel()));
      Tensor attn = run_attn_fused(nt);
      Tensor h = config_.gated_ffn
                     ? LocalMatMulNormASwishMulGate(c, x, nt, win, wgate)
                     : LocalMatMulNormAGelu(c, x, nt, win);
      LocalMatMulAccumulate(c, attn, wo, &x);
      LocalMatMulAccumulate(c, h, wout, &x);
    } else {
      {
        RowNormTransform nt = NormTransformFromRows(x, ln);
        NoteFusion(0, 8.0 * static_cast<double>(x.numel()));
        Tensor attn = run_attn_fused(nt);
        LocalMatMulAccumulate(c, attn, wo, &x);
      }
      {
        RowNormTransform nt2 = NormTransformFromRows(x, ln2);
        NoteFusion(0, 8.0 * static_cast<double>(x.numel()));
        Tensor h = config_.gated_ffn
                       ? LocalMatMulNormASwishMulGate(c, x, nt2, win, wgate)
                       : LocalMatMulNormAGelu(c, x, nt2, win);
        LocalMatMulAccumulate(c, h, wout, &x);
      }
    }
    return;
  }

  if (config_.parallel_block) {
    Tensor y = LayerNorm(x, ln);
    Tensor oa = run_attn(y);
    Tensor of = run_ffn(y);
    x.AddInPlace(oa);
    x.AddInPlace(of);
  } else {
    Tensor oa = run_attn(LayerNorm(x, ln));
    x.AddInPlace(oa);
    Tensor of = run_ffn(LayerNorm(x, ln2));
    x.AddInPlace(of);
  }
}

Tensor DistributedEngine::Step(const std::vector<StepLane>& lanes,
                               StepPhase phase) {
  TSI_CHECK(!lanes.empty()) << "a step needs at least one lane";
  const FfnLayout layout =
      phase == StepPhase::kDecode ? spec_.decode_ffn : spec_.prefill_ffn;
  const int64_t E = config_.d_model, V = config_.vocab_size;
  // Single-threaded here (before spmd_.Run): select the fusion plan for the
  // phase this layout executes.
  active_plan_ = layout == spec_.decode_ffn ? &decode_plan_ : &prefill_plan_;

  StepFrame frame = LayOutStep(lanes);
  const auto rows = static_cast<int64_t>(frame.tokens.size());
  cache_.BeginStep(std::move(frame.chip_slots), std::move(frame.chip_widths));

  Tensor x_full =
      EmbeddingLookup(shards_[0].embedding, frame.tokens);  // [rows, E]
  Tensor result;  // [rows, V] in frame order

  if (layout == FfnLayout::kWGXYZ && n_ > 1) {
    spmd_.Run([&](SpmdContext& ctx) {
      const int c = ctx.chip();
      const int r = ctx.topo().RankInGroup(c, kAxisXYZ);
      Tensor x = x_full.Chunk(0, n_, r);
      for (int64_t l = 0; l < config_.num_layers; ++l) WgBlockChip(ctx, x, l);
      // Final norm + logit head, group-locally; gather full logits.
      Tensor y = LayerNorm(x, shards_[static_cast<size_t>(c)].final_ln_gain);
      Tensor lg = LocalMatMul(
          c, y, shards_[static_cast<size_t>(c)].embedding.Transpose2D());
      Tensor logits = ctx.AllGather(kAxisXYZ, std::move(lg), 0);
      if (c == 0) result = std::move(logits);
    });
  } else {
    // Weight-stationary path: activations sharded [rows, E/X] over x. The
    // logit head shards the [E, vocab] projection over the vocab dim
    // across all chips and all-gathers the logits (falls back to replicated
    // compute when the vocab does not divide).
    const Tensor embT = shards_[0].embedding.Transpose2D();
    spmd_.Run([&](SpmdContext& ctx) {
      const int c = ctx.chip();
      const int xr = ctx.topo().RankInGroup(c, kAxisX);
      Tensor x = X_ > 1 ? x_full.Chunk(1, X_, xr) : x_full;
      for (int64_t l = 0; l < config_.num_layers; ++l) WsBlockChip(ctx, x, l);

      // Final norm on the full rows: the shards' moments ride in the
      // all-gather of the raw activations, and every chip sums them in
      // group order -- AllReduce's adds, so the normed rows are
      // bit-identical to normalizing each shard and gathering those.
      const Tensor& gain = shards_[static_cast<size_t>(c)].final_ln_gain;
      Tensor full;
      if (X_ == 1) {
        full = LayerNorm(x, gain);
      } else {
        std::vector<Tensor> g;
        g.push_back(RowMoments(x));
        g.push_back(std::move(x));
        g = ctx.AllGatherMany(kAxisX, std::move(g), {0, 1});
        Tensor moments = g[0].Chunk(0, X_, 0);
        for (int64_t i = 1; i < X_; ++i)
          moments.AddInPlace(g[0].Chunk(0, X_, i));
        full = NormalizeWithMoments(g[1], moments, gain, static_cast<double>(E));
      }
      if (n_ > 1 && V % n_ == 0) {
        const int r = ctx.topo().RankInGroup(c, kAxisXYZ);
        Tensor logits = LocalMatMul(c, full, embT.Chunk(1, n_, r));
        logits = ctx.AllGather(kAxisXYZ, std::move(logits), /*dim=*/1);
        if (c == 0) result = std::move(logits);
      } else if (c == 0) {
        result = LocalMatMul(0, full, embT);
      } else {
        machine_->ChargeComputeAndMemory(
            c, 2.0 * rows * E * V,
            static_cast<double>(shards_[0].embedding.numel()) *
                weight_byte_width_);
      }
    });
  }
  cache_.CommitStep();

  // The input lanes' logits, in input order.
  std::vector<int64_t> first(lanes.size(), 0);  // each lane's first row
  int64_t row = 0, in_rows = 0;
  for (size_t f = 0; f < frame.lane.size(); ++f) {
    if (frame.lane[f] >= 0) first[static_cast<size_t>(frame.lane[f])] = row;
    row += frame.width[f];
  }
  for (const StepLane& l : lanes) in_rows += static_cast<int64_t>(l.tokens.size());
  Tensor out({in_rows, V});
  float* dst = out.data();
  for (size_t i = 0; i < lanes.size(); ++i) {
    const auto n = static_cast<int64_t>(lanes[i].tokens.size()) * V;
    std::memcpy(dst, result.data() + first[i] * V,
                static_cast<size_t>(n) * sizeof(float));
    dst += n;
  }
  return out;
}

DistributedEngine::StepFrame DistributedEngine::LayOutStep(
    const std::vector<StepLane>& lanes) const {
  // Under kHeads every chip stores every lane's slot (its head subset), and
  // the rows are the lanes back to back. Under kBatch a lane's full-kv rows
  // land only on its owner -- the chip with xyz-rank `group`, which is
  // where the WS row splits (x-major reduce-scatter then all-to-all) and
  // the WG batch chunking both deliver group g's rows [g*R, (g+1)*R). That
  // shared rank is what lets mixed-layout phases share one cache.
  StepFrame frame;
  frame.chip_slots.resize(static_cast<size_t>(n_));
  frame.chip_widths.resize(static_cast<size_t>(n_));
  auto width = [&](size_t i) {
    return static_cast<int64_t>(lanes[i].tokens.size());
  };
  // Appends lane `i` (-1: a padding lane `pad` rows wide) to the rows and
  // to chip c's cache lanes (-1: every chip's).
  auto place = [&](int64_t i, int64_t pad, int c) {
    const bool real = i >= 0;
    const int64_t slot = real ? lanes[static_cast<size_t>(i)].slot
                              : ShardedKvCache::kScratchSlot;
    const int64_t w = real ? width(static_cast<size_t>(i)) : pad;
    frame.lane.push_back(i);
    frame.width.push_back(w);
    if (real) {
      const auto& t = lanes[static_cast<size_t>(i)].tokens;
      frame.tokens.insert(frame.tokens.end(), t.begin(), t.end());
    } else {
      frame.tokens.insert(frame.tokens.end(), static_cast<size_t>(w), 0);
    }
    for (int cc = 0; cc < n_; ++cc) {
      if (c >= 0 && cc != c) continue;
      frame.chip_slots[static_cast<size_t>(cc)].push_back(slot);
      frame.chip_widths[static_cast<size_t>(cc)].push_back(w);
    }
  };
  for (const StepLane& l : lanes)
    TSI_CHECK(!l.tokens.empty()) << "step lane for slot " << l.slot
                                 << " carries no tokens";
  if (spec_.attn == AttnSharding::kHeads) {
    for (size_t i = 0; i < lanes.size(); ++i)
      place(static_cast<int64_t>(i), 0, -1);
    return frame;
  }
  std::vector<int64_t> group_rows(static_cast<size_t>(n_), 0);
  for (size_t i = 0; i < lanes.size(); ++i) {
    const int64_t g = lanes[i].group;
    TSI_CHECK(g >= 0 && g < n_)
        << "owner group " << g << " out of range for " << n_ << " chips";
    group_rows[static_cast<size_t>(g)] += width(i);
  }
  const int64_t R = *std::max_element(group_rows.begin(), group_rows.end());
  std::vector<int> chip_of(static_cast<size_t>(n_));  // xyz-rank -> chip
  for (int c = 0; c < n_; ++c)
    chip_of[static_cast<size_t>(machine_->topo().RankInGroup(c, kAxisXYZ))] = c;
  for (int64_t g = 0; g < n_; ++g) {
    const int c = chip_of[static_cast<size_t>(g)];
    for (size_t i = 0; i < lanes.size(); ++i)
      if (lanes[i].group == g) place(static_cast<int64_t>(i), 0, c);
    const int64_t pad = R - group_rows[static_cast<size_t>(g)];
    if (pad > 0) place(-1, pad, c);
  }
  return frame;
}

namespace {
// Lane i of a static batch on slot i; kBatch owner groups i / (batch / n),
// the layout every static caller shares.
std::vector<StepLane> StaticLanes(const std::vector<int32_t>& tokens,
                                  int64_t batch, AttnSharding attn, int n) {
  TSI_CHECK_GT(batch, 0);
  TSI_CHECK_EQ(static_cast<int64_t>(tokens.size()) % batch, 0);
  if (attn == AttnSharding::kBatch) {
    TSI_CHECK_EQ(batch % n, 0)
        << "batch-sharded attention needs batch % chips == 0";
  }
  const auto T = static_cast<int64_t>(tokens.size()) / batch;
  std::vector<StepLane> lanes(static_cast<size_t>(batch));
  for (int64_t i = 0; i < batch; ++i) {
    StepLane& l = lanes[static_cast<size_t>(i)];
    l.slot = i;
    l.tokens.assign(tokens.begin() + i * T, tokens.begin() + (i + 1) * T);
    l.group = attn == AttnSharding::kBatch ? i / (batch / n) : 0;
  }
  return lanes;
}
}  // namespace

Tensor DistributedEngine::Prefill(const std::vector<int32_t>& tokens, int64_t batch) {
  Tensor logits =
      Step(StaticLanes(tokens, batch, spec_.attn, n_), StepPhase::kPrefill);
  const auto T = static_cast<int64_t>(tokens.size()) / batch;
  return logits.Reshape({batch, T, config_.vocab_size});
}

Tensor DistributedEngine::DecodeStep(const std::vector<int32_t>& tokens) {
  TSI_CHECK_GT(cache_.length(), 0) << "decode requires a prefilled cache";
  const auto B = static_cast<int64_t>(tokens.size());
  return Step(StaticLanes(tokens, B, spec_.attn, n_), StepPhase::kDecode)
      .Reshape({B, 1, config_.vocab_size});
}

SlotPages DistributedEngine::ExportSlot(int64_t slot) const {
  TSI_CHECK_GT(cache_.slot_length(slot), 0)
      << "ExportSlot of empty slot " << slot;
  if (spec_.attn == AttnSharding::kBatch) {
    // A kBatch slot's pages live with every kv head on one owner chip.
    for (int c = 0; c < n_; ++c)
      if (cache_.SlotResidentOn(c, slot)) return cache_.ExtractSlotPages(c, slot);
    TSI_CHECK(false) << "slot " << slot << " resident on no chip";
  }
  // kHeads: chips along x hold identical copies, so read the x-rank-0
  // chips; the yz ranks chunk the heads in rank order (engine.cc's
  // AttentionChip appends RankInGroup(c, kAxisYZ)'s chunk), except when kv
  // heads do not divide over yz -- then every chip replicates the full set.
  std::vector<int> by_yz(static_cast<size_t>(YZ_), -1);
  for (int c = 0; c < n_; ++c)
    if (machine_->topo().RankInGroup(c, kAxisX) == 0)
      by_yz[static_cast<size_t>(machine_->topo().RankInGroup(c, kAxisYZ))] = c;
  SlotPages first = cache_.ExtractSlotPages(by_yz[0], slot);
  const int64_t KV = config_.n_kv_heads();
  if (first.kv_heads == KV) return first;  // replicated, or YZ == 1
  const int64_t chunk = KV / YZ_, dh = first.d_head, len = first.len;
  TSI_CHECK_EQ(first.kv_heads, chunk);
  std::vector<SlotPages> parts;
  parts.reserve(static_cast<size_t>(YZ_));
  parts.push_back(std::move(first));
  for (int r = 1; r < YZ_; ++r)
    parts.push_back(cache_.ExtractSlotPages(by_yz[static_cast<size_t>(r)], slot));
  SlotPages out;
  out.len = len;
  out.kv_heads = KV;
  out.d_head = dh;
  out.k.reserve(static_cast<size_t>(config_.num_layers));
  out.v.reserve(static_cast<size_t>(config_.num_layers));
  for (int64_t l = 0; l < config_.num_layers; ++l) {
    Tensor k({1, len, KV, dh}), v({1, len, KV, dh});
    for (int r = 0; r < YZ_; ++r) {
      const SlotPages& p = parts[static_cast<size_t>(r)];
      TSI_CHECK(p.len == len && p.kv_heads == chunk && p.d_head == dh)
          << "inconsistent head chunks across yz ranks for slot " << slot;
      const float* ks = p.k[static_cast<size_t>(l)].data();
      const float* vs = p.v[static_cast<size_t>(l)].data();
      for (int64_t pos = 0; pos < len; ++pos) {
        std::memcpy(k.data() + (pos * KV + r * chunk) * dh,
                    ks + pos * chunk * dh,
                    static_cast<size_t>(chunk * dh) * sizeof(float));
        std::memcpy(v.data() + (pos * KV + r * chunk) * dh,
                    vs + pos * chunk * dh,
                    static_cast<size_t>(chunk * dh) * sizeof(float));
      }
    }
    out.k.push_back(std::move(k));
    out.v.push_back(std::move(v));
  }
  return out;
}

void DistributedEngine::ImportSlot(int64_t slot, const SlotPages& state,
                                   int64_t owner_group) {
  TSI_CHECK_EQ(state.kv_heads, config_.n_kv_heads())
      << "ImportSlot expects full-head state (ExportSlot's wire format)";
  TSI_CHECK_EQ(state.d_head, config_.d_head);
  TSI_CHECK_EQ(static_cast<int64_t>(state.k.size()), config_.num_layers);
  if (spec_.attn == AttnSharding::kBatch) {
    TSI_CHECK(owner_group >= 0 && owner_group < n_)
        << "kBatch import needs the owner lane group";
    for (int c = 0; c < n_; ++c) {
      if (machine_->topo().RankInGroup(c, kAxisXYZ) != owner_group) continue;
      cache_.AdoptSlotPages(c, slot, state);
      return;
    }
    TSI_CHECK(false) << "no chip with xyz-rank " << owner_group;
  }
  const int64_t KV = config_.n_kv_heads();
  const bool replicated = YZ_ == 1 || KV % YZ_ != 0;
  if (replicated) {
    for (int c = 0; c < n_; ++c) cache_.AdoptSlotPages(c, slot, state);
    return;
  }
  // Slice the full head set into the yz chunks this layout stores, then
  // hand every chip its rank's chunk (identical across x -- kHeads
  // replicates KV along the x axis).
  const int64_t chunk = KV / YZ_, dh = state.d_head, len = state.len;
  std::vector<SlotPages> chunks(static_cast<size_t>(YZ_));
  for (int r = 0; r < YZ_; ++r) {
    SlotPages& p = chunks[static_cast<size_t>(r)];
    p.len = len;
    p.kv_heads = chunk;
    p.d_head = dh;
    p.k.reserve(static_cast<size_t>(config_.num_layers));
    p.v.reserve(static_cast<size_t>(config_.num_layers));
    for (int64_t l = 0; l < config_.num_layers; ++l) {
      Tensor k({1, len, chunk, dh}), v({1, len, chunk, dh});
      const float* ks = state.k[static_cast<size_t>(l)].data();
      const float* vs = state.v[static_cast<size_t>(l)].data();
      for (int64_t pos = 0; pos < len; ++pos) {
        std::memcpy(k.data() + pos * chunk * dh,
                    ks + (pos * KV + r * chunk) * dh,
                    static_cast<size_t>(chunk * dh) * sizeof(float));
        std::memcpy(v.data() + pos * chunk * dh,
                    vs + (pos * KV + r * chunk) * dh,
                    static_cast<size_t>(chunk * dh) * sizeof(float));
      }
      p.k.push_back(std::move(k));
      p.v.push_back(std::move(v));
    }
  }
  for (int c = 0; c < n_; ++c) {
    const int r = machine_->topo().RankInGroup(c, kAxisYZ);
    cache_.AdoptSlotPages(c, slot, chunks[static_cast<size_t>(r)]);
  }
}

}  // namespace tsi
