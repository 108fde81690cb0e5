#include "engine/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "model/attention.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace tsi {
namespace {

constexpr unsigned kAxisYZ = kAxisY | kAxisZ;

// The replication rule (core/replication.h) over both phase layouts: the
// phases share the weight shards, so a site replicates when either
// weight-stationary phase wants it.
Replication ChooseEngineReplication(const ModelConfig& config,
                                    const EngineSpec& spec,
                                    const SimMachine& machine) {
  Replication r;
  for (FfnLayout l : {spec.prefill_ffn, spec.decode_ffn}) {
    const Replication p = ChooseReplication(
        config, PartitionSpec{machine.topo(), l, spec.attn, spec.weight_format},
        machine.chip(), machine.hop_latency());
    r.qkv = r.qkv || p.qkv;
    r.logit_head = r.logit_head || p.logit_head;
    r.wo = r.wo || p.wo;
    r.x = r.x || p.x;
    r.ffn = r.ffn || p.ffn;
  }
  return r;
}

// x's `n` column blocks of equal width, in rank order: E blocks in x-rank
// order, or F blocks in yz-rank order.
std::vector<Tensor> ColumnBlocks(const Tensor& x, int n) {
  const int64_t w = x.dim(1) / n;
  std::vector<Tensor> blocks;
  for (int g = 0; g < n; ++g) blocks.push_back(x.Slice(1, g * w, w));
  return blocks;
}

// The blocks' per-row moments summed in group order: the adds the moments
// all-reduce(x) makes over the blocks' chips.
Tensor SumRowMoments(const std::vector<Tensor>& blocks) {
  Tensor m = RowMoments(blocks[0]);
  for (size_t g = 1; g < blocks.size(); ++g) m.AddInPlace(RowMoments(blocks[g]));
  return m;
}

// Rows of the groups before xyz-rank `r` in a group-major frame.
int64_t RowsBefore(const std::vector<int64_t>& group_rows, int r) {
  int64_t n = 0;
  for (int g = 0; g < r; ++g) n += group_rows[static_cast<size_t>(g)];
  return n;
}

}  // namespace

SpmdContext::Extents DistributedEngine::RowsOverX() const {
  SpmdContext::Extents e(static_cast<size_t>(X_), 0);
  for (size_t g = 0; g < group_rows_.size(); ++g)
    e[g / static_cast<size_t>(YZ_)] += group_rows_[g];
  return e;
}

SpmdContext::Extents DistributedEngine::RowsOfYzOverX(int yzr) const {
  SpmdContext::Extents e(static_cast<size_t>(X_), 0);
  for (int xr = 0; xr < X_; ++xr)
    e[static_cast<size_t>(xr)] =
        group_rows_[static_cast<size_t>(xr * YZ_ + yzr)];
  return e;
}

SpmdContext::Extents DistributedEngine::RowsOverYz(int xr) const {
  const auto first = group_rows_.begin() + static_cast<int64_t>(xr) * YZ_;
  return SpmdContext::Extents(first, first + YZ_);
}

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
  replication_ = ChooseEngineReplication(config_, spec_, *machine_);
  const bool weight_gathered = spec_.prefill_ffn == FfnLayout::kWGXYZ ||
                               spec_.decode_ffn == FfnLayout::kWGXYZ;
  // Int8 weight shards for the end-to-end int8 matmuls (QuantizeLayerShard:
  // scales over each shard's own rows).
  const bool quantize = spec_.fastpath.int8();
  if (spec_.weight_format == WeightFormat::kInt8) {
    // Quantize the full matrices before sharding so per-column scales match
    // the unsharded reference; traffic is charged at 1 byte/param.
    ModelWeights rt = weights;
    rt.SimulateInt8Roundtrip();
    shards_ = ShardWeights(rt, machine->topo(), replication_, weight_gathered,
                           quantize);
  } else {
    shards_ = ShardWeights(weights, machine->topo(), replication_,
                           weight_gathered, quantize);
  }
  cache_ = ShardedKvCache(n_, config_.num_layers, spec_.attn,
                          spec_.fastpath.int8() ? WeightFormat::kInt8
                                                : WeightFormat::kBf16,
                          spec_.kv);
}

void DistributedEngine::set_metrics(obs::MetricsRegistry* metrics) {
  cache_.set_metrics(metrics);
}

void DistributedEngine::ChargeMatMul(int chip, const Tensor& x,
                                     const Tensor& w, int count) {
  const double flops =
      2.0 * count * (x.numel() / x.dim(-1)) * w.dim(0) * w.dim(1);
  machine_->ChargeComputeAndMemory(
      chip, flops,
      static_cast<double>(count * w.numel()) * weight_byte_width_);
}

Tensor DistributedEngine::LocalMatMul(int chip, const Tensor& x, const Tensor& w) {
  ChargeMatMul(chip, x, w);
  return MatMul(x, w);
}

Tensor DistributedEngine::LocalMatMulNormA(int chip, const Tensor& x,
                                           const RowNormTransform& nt,
                                           const Tensor& w) {
  ChargeMatMul(chip, x, w);
  return MatMulNormA(x, nt, w);
}

Tensor DistributedEngine::LocalMatMulNormAGelu(int chip, const Tensor& x,
                                               const RowNormTransform& nt,
                                               const Tensor& w) {
  ChargeMatMul(chip, x, w);
  return MatMulNormAGelu(x, nt, w);
}

Tensor DistributedEngine::LocalMatMulNormASwishMulGate(int chip,
                                                       const Tensor& x,
                                                       const RowNormTransform& nt,
                                                       const Tensor& w,
                                                       const Tensor& w_gate) {
  ChargeMatMul(chip, x, w, /*count=*/2);  // w and w_gate share a shape
  return MatMulNormASwishMulGate(x, nt, w, w_gate);
}

void DistributedEngine::LocalMatMulAccumulate(int chip, const Tensor& x,
                                              const Tensor& w, Tensor* c) {
  ChargeMatMul(chip, x, w);
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
  const double dhd = static_cast<double>(config_.d_head);
  double flops = 0, kv_bytes = 0;
  std::vector<RaggedLane> lanes(slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    RaggedLane& lane = lanes[i];
    const auto l = static_cast<int64_t>(i);
    lane.width = widths[i];
    lane.k = cache_.Span(KvStream::kK, chip, layer, slots[i], l, g0, gcount);
    lane.v = cache_.Span(KvStream::kV, chip, layer, slots[i], l, g0, gcount);
    // The charges read the span's geometry, so a scratch lane (len ==
    // width) and a resident slot share one formula. Every lane's flops and
    // bytes are exact integers in double, so the sum equals the batched
    // 4*B*T*len*heads*dh / 2*numel formulation bit-for-bit when every lane
    // shares one shape -- the virtual clock stays identical to the
    // static-batch path.
    const double elems = static_cast<double>(lane.k.len * lane.k.kv_heads);
    flops += 4.0 * static_cast<double>(lane.width) *
             static_cast<double>(lane.k.len) * heads * dhd;
    if (lane.k.int8()) {
      // The §3.6/D.3 win: the decode-dominating KV stream is charged at its
      // actual int8 footprint (1-byte values + per-vector scales).
      kv_bytes += 2.0 * (elems * dhd + 4.0 * elems);
    } else {
      kv_bytes += 2.0 * (elems * dhd) * machine_->bytes_per_element();
    }
  }
  machine_->ChargeComputeAndMemory(chip, flops, kv_bytes, "attention");
  return RaggedPagedAttention(q, lanes);
}

Tensor DistributedEngine::AttentionChip(SpmdContext& ctx, Tensor q, Tensor k,
                                        Tensor v, int64_t layer) {
  const int c = ctx.chip();
  const int64_t rows = q.dim(0);
  const int64_t H = config_.n_heads, dh = config_.d_head;
  const int64_t Hl = H / YZ_;
  const int64_t KV = config_.n_kv_heads();
  // Whole K/V heads on every yz chip: see engine/sharding.cc.
  const bool kv_replicated = replication_.qkv || KV % YZ_ != 0;
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
  // The yz ranks of this chip's x slice own the slice's groups in rank
  // order, each at its own row extent.
  const SpmdContext::Extents yz_rows =
      RowsOverYz(topo.RankInGroup(c, kAxisX));
  const int yzr = YZ_ == 1 ? 0 : topo.RankInGroup(c, kAxisYZ);
  const int64_t first = RowsBefore(yz_rows, yzr);
  const int64_t own = yz_rows[static_cast<size_t>(yzr)];
  // Heads replicated over yz: the row split is a local slice, no
  // communication (this is the saving of Fig 4c). A chip that holds only
  // its own group's rows (site 5) has nothing to slice.
  auto own_rows = [&](Tensor t) {
    if (replication_.ffn || own == rows) return t;
    return t.Slice(0, first, own);
  };
  Tensor k3 = k.Reshape({rows, KVl, dh});
  Tensor v3 = v.Reshape({rows, KVl, dh});
  Tensor qb, kb, vb;
  if (kv_replicated) {
    kb = own_rows(std::move(k3));
    vb = own_rows(std::move(v3));
  }
  if (replication_.qkv) {
    // Every head's columns on every yz chip (core/replication.h): q is
    // sliced like the K/V, and the inbound all-to-all goes away.
    qb = own_rows(q.Reshape({rows, H, dh}));
  } else {
    // Head-sharded q (and head-sharded K/V with it) in one all-to-all.
    std::vector<Tensor> qkv;
    qkv.push_back(q.Reshape({rows, Hl, dh}));
    if (!kv_replicated) {
      qkv.push_back(std::move(k3));
      qkv.push_back(std::move(v3));
    }
    qkv = ctx.AllToAllMany(kAxisYZ, std::move(qkv), /*split=*/0,
                           /*concat=*/1, /*split_extents=*/yz_rows);
    qb = std::move(qkv[0]);
    if (!kv_replicated) {
      kb = std::move(qkv[1]);
      vb = std::move(qkv[2]);
    }
  }
  AppendKv(c, layer, kb, vb);
  std::vector<Tensor> attn;
  attn.push_back(SlotAttention(c, layer, qb, static_cast<double>(H)));
  // wo's rows whole on this chip (core/replication.h, site 3): the owner
  // projects its group rows through every head, no reshard.
  if (replication_.wo) return attn[0].Reshape({own, H * dh});
  // Back to head sharding over yz; attn is this chip's group rows
  // [group rows, H, dh]. The caller gathers the x rows.
  attn = ctx.AllToAllMany(kAxisYZ, std::move(attn), /*split=*/1,
                          /*concat=*/0, /*split_extents=*/{},
                          /*concat_extents=*/yz_rows);
  return attn[0].Reshape({rows, Hl * dh});
}

void DistributedEngine::WsBlockChip(SpmdContext& ctx, Tensor& x,
                                    int64_t layer) {
  const int c = ctx.chip();
  const bool gated = config_.gated_ffn;
  const bool int8 = spec_.fastpath.int8();
  const bool heads = spec_.attn == AttnSharding::kHeads;
  const ShardedLayerWeights& lw =
      *shards_[static_cast<size_t>(c)].layers[static_cast<size_t>(layer)];
  const QuantizedLayerShard* qw =
      int8 ? shards_[static_cast<size_t>(c)]
                 .qlayers[static_cast<size_t>(layer)]
                 .get()
           : nullptr;
  // The E blocks this chip holds (engine/sharding.h): one -- all of E when
  // X == 1, its x rank's E/X otherwise -- or, when the layer is whole over
  // x (site 4), all X, and x carries the rows instead. Only in the paper's
  // layout does E split over the x chips, with x collectives. When the FFN
  // is whole over yz too (site 5), x holds only this chip's group's rows
  // and no collective runs at all.
  const int nb = static_cast<int>(lw.in.size());
  const bool x_comm = X_ > 1 && nb == 1;
  // §3.5 Looped CollectiveEinsum for the FFN input projections (fp32 only:
  // the int8 pipeline runs its own matmul kernels).
  const bool looped = x_comm && spec_.fuse_collectives && !int8;
  // Over x the q/k/v projections are partial sums. Batch-sharded attention
  // wants only this chip's x batch rows, so they reduce-scatter along rows;
  // head-sharded attention wants them whole, so they reduce-scatter along
  // columns and all-gather back -- an all-reduce split in two, so each half
  // can share its collective with the FFN's.
  const int64_t qkv_dim = heads ? 1 : 0;
  // kBatch: the rows split over x at the x slices' group rows.
  const SpmdContext::Extents x_rows =
      heads || !x_comm ? SpmdContext::Extents{} : RowsOverX();

  // The current norm site, per E block: fp32 as the transform its
  // consumers apply while packing their matmul's A panel (no normed tensor
  // exists), except that the looped FFN input projections read the
  // materialized normed tensor `y`; int8 normed and quantized in one pass
  // (`yq`). The forms share the moments, so mixing them is bit-identical to
  // the unfused composition (tensor/matmul.cc, quant/int8.cc). `xcols`
  // holds x's E blocks when there are several.
  std::vector<Tensor> xcols;
  auto xblock = [&](int g) -> const Tensor& {
    return nb == 1 ? x : xcols[static_cast<size_t>(g)];
  };
  std::vector<RowNormTransform> nt(static_cast<size_t>(nb));
  std::vector<QuantizedActivations> yq(static_cast<size_t>(nb));
  Tensor y;
  auto norm = [&](bool second, bool attn, bool ffn) {
    if (nb > 1) xcols = ColumnBlocks(x, nb);
    // A row split over E blocks (across the x chips or on this one) is
    // normalized with its blocks' moments summed in group order.
    Tensor moments;
    if (X_ > 1) {
      moments = nb == 1 ? RowMoments(x) : SumRowMoments(xcols);
      if (x_comm) moments = ctx.AllReduce(kAxisX, std::move(moments));
    }
    const double E = static_cast<double>(config_.d_model);
    for (int g = 0; g < nb; ++g) {
      const auto gi = static_cast<size_t>(g);
      const Tensor& gain = second ? lw.in[gi].ln2_gain : lw.in[gi].ln_gain;
      const Tensor& xb = xblock(g);
      if (ffn && looped)
        y = moments.empty() ? LayerNorm(xb, gain)
                            : NormalizeWithMoments(xb, moments, gain, E);
      if (!attn && looped) continue;  // a looped FFN half reads only y
      nt[gi] = moments.empty() ? NormTransformFromRows(xb, gain)
                               : NormTransformFromMoments(moments, gain, E);
      if (int8) yq[gi] = QuantizeNormedInt8(xb, nt[gi]);
    }
  };

  using W = const Tensor EBlockWeights::*;
  using W8 = const QuantizedTensor QuantizedEBlock::*;
  // Projects the norm site through a d_model-input weight, int8 or fp32
  // with the norm on the A-pack. Block g's matmul is the one chip
  // (g, yz rank) runs on its shard; the blocks' partial sums add in group
  // order, as the reduce-scatter(x) adds them.
  auto proj = [&](W w, W8 w8) {
    auto block = [&](int g) {
      const auto gi = static_cast<size_t>(g);
      if (int8) return LocalMatMulInt8(c, yq[gi], qw->in[gi].*w8);
      return LocalMatMulNormA(c, xblock(g), nt[gi], lw.in[gi].*w);
    };
    Tensor p = block(0);
    for (int g = 1; g < nb; ++g) p.AddInPlace(block(g));
    return p;
  };
  // a @ w, or *accum += a @ w (then returns an empty tensor). Int8
  // quantizes `a` unless the caller already holds it quantized (`aq`).
  auto matmul_out = [&](const Tensor& a, const QuantizedActivations* aq,
                        const Tensor& w, const QuantizedTensor* w8,
                        Tensor* accum) {
    if (int8) {
      QuantizedActivations own;
      if (aq == nullptr) {
        own = QuantizeActivationsInt8(a);
        aq = &own;
      }
      if (accum == nullptr) return LocalMatMulInt8(c, *aq, *w8);
      LocalMatMulInt8Accumulate(c, *aq, *w8, accum);
      return Tensor();
    }
    if (accum == nullptr) return LocalMatMul(c, a, w);
    LocalMatMulAccumulate(c, a, w, accum);
    return Tensor();
  };
  // The FFN hidden's F blocks: one, or -- when the FFN is whole over yz
  // (site 5) -- every yz rank's F/YZ columns, block j the columns chip
  // (x, j) computes in the paper's layout. wout contracts each block on
  // its own and the blocks' partials add in group order, as the yz
  // all-reduce adds them.
  const int fb = replication_.ffn ? YZ_ : 1;
  auto f_blocks = [&](Tensor t) {
    if (fb > 1) return ColumnBlocks(t, fb);
    std::vector<Tensor> one;
    one.push_back(std::move(t));
    return one;
  };
  // FFN hidden when d_ff is whole on-chip (no x collective), in F blocks.
  // One fp32 E block: the activation rides the input matmul's epilogue.
  // Several: the activation runs on the blocks' sum. Int8 activates and
  // quantizes each F block in one pass into *hq (per-row scales over the
  // block's columns) and returns nothing; fp32 returns the hidden.
  auto ffn_hidden_local = [&](std::vector<QuantizedActivations>* hq) {
    if (!int8 && nb == 1) {
      const EBlockWeights& b = lw.in[0];
      return f_blocks(gated ? LocalMatMulNormASwishMulGate(c, x, nt[0], b.win,
                                                           b.win_gate)
                            : LocalMatMulNormAGelu(c, x, nt[0], b.win));
    }
    Tensor h1 = proj(&EBlockWeights::win, &QuantizedEBlock::win), h2;
    if (gated) h2 = proj(&EBlockWeights::win_gate, &QuantizedEBlock::win_gate);
    if (!int8) return f_blocks(gated ? Swish2(h1).Mul(h2) : Gelu(h1));
    const std::vector<Tensor> b1 = f_blocks(std::move(h1));
    const std::vector<Tensor> b2 =
        gated ? f_blocks(std::move(h2)) : std::vector<Tensor>();
    for (size_t j = 0; j < b1.size(); ++j)
      hq->push_back(gated ? QuantizeSwishGateInt8(b1[j], b2[j])
                          : QuantizeGeluInt8(b1[j]));
    return std::vector<Tensor>();
  };

  // All-gathers the pointed-to tensors over x, in place, in one collective
  // (per-member rank extents as in AllGatherMany).
  auto gather_x = [&](const std::vector<Tensor*>& ts,
                      const std::vector<int64_t>& dims,
                      const std::vector<SpmdContext::Extents>& extents) {
    std::vector<Tensor> g;
    for (Tensor* t : ts) g.push_back(std::move(*t));
    g = ctx.AllGatherMany(kAxisX, std::move(g), dims, extents);
    for (size_t i = 0; i < ts.size(); ++i) *ts[i] = std::move(g[i]);
  };

  // Site 3 (core/replication.h): wo's rows whole on this yz chip, which
  // lies on a single 2-chip yz axis.
  const bool owner_wo = !heads && replication_.wo;
  const auto yzr =
      static_cast<size_t>(YZ_ == 1 ? 0 : ctx.topo().RankInGroup(c, kAxisYZ));

  // One block half -- both branches at once in a parallel block -- with one
  // collective per axis per program point (§3.4):
  //   reduce-scatter(x): {q, k, v, h1, h2} (looped: h1/h2's matmuls
  //                      pipelined under it)
  //   all-gather(x):     kHeads {q, k, v, h} before attention,
  //                      kBatch {attention rows, h} after it
  // (neither when no x collective runs). Returns the summed branch outputs
  // (partial over yz), or an empty tensor when they accumulated straight
  // into x (a serial block with YZ == 1). Under site 3 the half runs its yz
  // reduction itself, and under site 5 sums its F blocks in its place;
  // either sets `reduced`.
  bool reduced = false;
  auto half = [&](bool second, bool attn, bool ffn) {
    norm(second, attn, ffn);
    std::vector<Tensor> rs;
    std::vector<int64_t> rs_dims;
    std::vector<SpmdContext::Extents> rs_rows;
    if (attn) {
      rs.push_back(proj(&EBlockWeights::wq, &QuantizedEBlock::wq));
      rs.push_back(proj(&EBlockWeights::wk, &QuantizedEBlock::wk));
      rs.push_back(proj(&EBlockWeights::wv, &QuantizedEBlock::wv));
      rs_dims.assign(3, qkv_dim);
      rs_rows.assign(3, x_rows);
    }
    if (ffn && looped) {
      // The FFN input projections run pipelined under the same
      // reduce-scatter(x), on the materialized normed tensor.
      std::vector<const Tensor*> ws = {&lw.in[0].win};
      if (gated) ws.push_back(&lw.in[0].win_gate);
      rs = ctx.MatMulReduceScatterMany(kAxisX, std::move(rs), rs_dims, y, ws,
                                       weight_byte_width_, rs_rows);
    } else {
      if (ffn && x_comm) {
        rs.push_back(proj(&EBlockWeights::win, &QuantizedEBlock::win));
        rs_dims.push_back(1);
        rs_rows.emplace_back();
        if (gated) {
          rs.push_back(
              proj(&EBlockWeights::win_gate, &QuantizedEBlock::win_gate));
          rs_dims.push_back(1);
          rs_rows.emplace_back();
        }
      }
      if (x_comm && !rs.empty())
        rs = ctx.ReduceScatterMany(kAxisX, std::move(rs), rs_dims, rs_rows);
    }

    std::vector<Tensor> h;                 // the hidden's F blocks
    std::vector<QuantizedActivations> hq;  // int8, computed locally
    if (ffn && !x_comm) {
      h = ffn_hidden_local(&hq);
    } else if (ffn) {
      const size_t at = attn ? 3 : 0;
      Tensor h1 = std::move(rs[at]), h2;
      if (gated) h2 = std::move(rs[at + 1]);
      // §3.5: the nonlinearity runs on 1/X of the hidden dim, between the
      // reduce-scatter and the all-gather.
      h.push_back(gated ? Swish2(h1).Mul(h2) : Gelu(h1));
    }
    const bool gather_h = ffn && x_comm;
    // F block j through its wout rows, h_j @ wout_j or *accum += h_j @
    // wout_j (int8: the block quantized already when computed locally).
    auto ffn_out = [&](size_t j, Tensor* accum) {
      const Tensor& w = fb == 1 ? lw.wout : lw.wout_blocks[j];
      const QuantizedTensor* w8 = !int8     ? nullptr
                                  : fb == 1 ? &qw->wout
                                            : &qw->wout_blocks[j];
      if (!hq.empty()) return matmul_out(Tensor(), &hq[j], w, w8, accum);
      return matmul_out(h[j], nullptr, w, w8, accum);
    };

    Tensor out;
    if (attn) {
      Tensor q = std::move(rs[0]), k = std::move(rs[1]), v = std::move(rs[2]);
      if (heads && x_comm) {
        std::vector<Tensor*> ts = {&q, &k, &v};
        if (gather_h) ts.push_back(&h[0]);
        gather_x(ts, std::vector<int64_t>(ts.size(), 1), {});
      }
      Tensor a =
          AttentionChip(ctx, std::move(q), std::move(k), std::move(v), layer);
      if (!heads && x_comm) {
        // Site 3 gathers this yz rank's rows with every head, else the
        // whole frame's rows with this chip's heads.
        const SpmdContext::Extents a_rows =
            owner_wo ? RowsOfYzOverX(static_cast<int>(yzr)) : x_rows;
        if (gather_h) {
          gather_x({&a, &h[0]}, {0, 1}, {a_rows, {}});
        } else {
          gather_x({&a}, {0}, {a_rows});
        }
      }
      if (owner_wo) {
        // `a` holds this yz rank's rows with every head. Each yz block j
        // projects them through its heads, A_j = a[:, heads_j] @ wo_j: the
        // matmul chip (x, j) runs on its shard (int8: each block's columns
        // quantized per row, as that chip quantizes its own). The yz
        // reduction takes A_own as this chip's term at its rows, ships the
        // other block as the side term, and adds the FFN partial at every
        // row (SpmdContext::AllReduceOwnedRows). The rows run in owner
        // segments: the frame's groups, or this x slice's when x carries
        // the rows (site 4). Site 3 needs one 2-chip yz axis.
        TSI_CHECK_EQ(YZ_, 2);
        const int64_t w = a.dim(1) / YZ_;
        std::vector<Tensor> terms;
        for (size_t j = 0; j < static_cast<size_t>(YZ_); ++j)
          terms.push_back(matmul_out(
              a.Slice(1, static_cast<int64_t>(j) * w, w), nullptr,
              lw.wo_blocks[j], int8 ? &qw->wo_blocks[j] : nullptr, nullptr));
        reduced = true;
        if (fb > 1) {
          // Site 5: `a` holds only this chip's own rows and every F block
          // is here too, so each yz rank's term completes locally, F_j
          // accumulated into A_j, and the terms add in group order:
          // (A_0 + F_0) + (A_1 + F_1), AllReduceOwnedRows's adds without
          // the exchange.
          for (size_t j = 0; j < terms.size(); ++j) {
            if (ffn) ffn_out(j, &terms[j]);
            if (j > 0) terms[0].AddInPlace(terms[j]);
          }
          return std::move(terms[0]);
        }
        Tensor f;
        if (ffn) f = ffn_out(0, nullptr);
        return ctx.AllReduceOwnedRows(
            kAxisYZ, f, terms[yzr], terms[1 - yzr],
            x_comm ? group_rows_
                   : RowsOverYz(ctx.topo().RankInGroup(c, kAxisX)));
      }
      // A serial block without a yz reduction folds the residual add into
      // wo.
      Tensor* accum = !config_.parallel_block && YZ_ == 1 ? &x : nullptr;
      out = matmul_out(a, nullptr, lw.wo, int8 ? &qw->wo : nullptr, accum);
    } else if (gather_h) {
      gather_x({&h[0]}, {1}, {});
    }

    if (ffn && fb > 1) {
      // Site 5, a serial block's FFN half: the F blocks' partials add in
      // group order, F_0 + F_1, the yz all-reduce's add.
      out = ffn_out(0, nullptr);
      for (size_t j = 1; j < static_cast<size_t>(fb); ++j) ffn_out(j, &out);
      reduced = true;
    } else if (ffn) {
      // §3.4 branch sum (parallel) or residual add (serial, YZ == 1)
      // folded into wout's accumulate epilogue.
      Tensor* accum = attn ? &out : YZ_ == 1 ? &x : nullptr;
      Tensor f = ffn_out(0, accum);
      if (accum == nullptr) out = std::move(f);
    }
    return out;
  };

  // Residual add of a half's output: one all-reduce(yz) of the partial sums
  // (§3.4: one per parallel block, two per serial block).
  auto residual = [&](Tensor out) {
    if (out.empty()) return;  // accumulated into x already
    if (YZ_ > 1 && !reduced) out = ctx.AllReduce(kAxisYZ, std::move(out));
    reduced = false;
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
      *shards_[static_cast<size_t>(c)].layers[static_cast<size_t>(layer)];

  // Gather this layer's weights to full matrices with one all-gather per
  // axis (charged as collectives on the virtual clock): first every
  // weight's yz pieces (column shards of the input projections, row shards
  // of wo/wout), then every weight's x pieces, the norm gains included.
  // Shards whole over x (site 4) skip the x gather: the chip's E blocks
  // are concatenated locally, exactly what the gather would deliver. Under
  // site 5 every weight is whole over yz as well -- wo and wout as their yz
  // row blocks, concatenated here -- and nothing is gathered.
  const int nb = static_cast<int>(lw.in.size());
  const bool x_comm = X_ > 1 && nb == 1;
  std::vector<Tensor> w;
  std::vector<int64_t> yz_dims, x_dims;  // yz_dim -1: not split over yz
  auto add = [&](const Tensor& shard, int64_t yz_dim, int64_t x_dim) {
    w.push_back(shard);
    yz_dims.push_back(yz_dim);
    x_dims.push_back(x_dim);
    return w.size() - 1;
  };
  // Replicated columns (multiquery K/V, replicated q/k/v, the FFN under
  // site 5) gather over x only.
  const int64_t q_yz = replication_.qkv ? -1 : 1;
  const int64_t kv_yz =
      replication_.qkv || config_.n_kv_heads() % YZ_ != 0 ? -1 : 1;
  const int64_t f_yz = replication_.ffn ? -1 : 1;
  // Per E block, the d_model-input weights' positions in `w`. The gate
  // exists only in gated FFNs and the second pre-norm only in serial
  // blocks.
  struct BlockAt {
    size_t q, k, v, in, gate, ln, ln2;
  };
  std::vector<BlockAt> at(static_cast<size_t>(nb));
  for (int g = 0; g < nb; ++g) {
    const EBlockWeights& b = lw.in[static_cast<size_t>(g)];
    BlockAt& i = at[static_cast<size_t>(g)];
    i.q = add(b.wq, q_yz, 0);
    i.k = add(b.wk, kv_yz, 0);
    i.v = add(b.wv, kv_yz, 0);
    i.in = add(b.win, f_yz, 0);
    i.gate = config_.gated_ffn ? add(b.win_gate, f_yz, 0) : 0;
    i.ln = add(b.ln_gain, -1, 0);
    i.ln2 = config_.parallel_block ? 0 : add(b.ln2_gain, -1, 0);
  }
  const size_t io = replication_.ffn
                        ? add(Tensor::Concat(0, lw.wo_blocks), -1, 1)
                        : add(lw.wo, 0, 1);
  const size_t iout = replication_.ffn
                          ? add(Tensor::Concat(0, lw.wout_blocks), -1, 1)
                          : add(lw.wout, 0, 1);
  if (YZ_ > 1 && !replication_.ffn) {
    std::vector<Tensor> g;
    std::vector<int64_t> dims;
    std::vector<size_t> pos;
    for (size_t i = 0; i < w.size(); ++i) {
      if (yz_dims[i] < 0) continue;
      g.push_back(std::move(w[i]));
      dims.push_back(yz_dims[i]);
      pos.push_back(i);
    }
    g = ctx.AllGatherMany(kAxisYZ, std::move(g), dims);
    for (size_t j = 0; j < pos.size(); ++j) w[pos[j]] = std::move(g[j]);
  }
  if (x_comm) w = ctx.AllGatherMany(kAxisX, std::move(w), x_dims);
  // A d_model-input weight (or gain) at all E rows.
  auto whole = [&](size_t BlockAt::*m) {
    if (nb == 1) return std::move(w[at[0].*m]);
    std::vector<Tensor> parts;
    for (const BlockAt& i : at) parts.push_back(std::move(w[i.*m]));
    return Tensor::Concat(0, parts);
  };
  const Tensor wq = whole(&BlockAt::q);
  const Tensor wk = whole(&BlockAt::k);
  const Tensor wv = whole(&BlockAt::v);
  const Tensor win = whole(&BlockAt::in);
  const Tensor wgate = config_.gated_ffn ? whole(&BlockAt::gate) : Tensor();
  const Tensor ln = whole(&BlockAt::ln);
  const Tensor ln2 = config_.parallel_block ? Tensor() : whole(&BlockAt::ln2);
  const Tensor& wo = w[io];
  const Tensor& wout = w[iout];

  const int64_t H = config_.n_heads, KV = config_.n_kv_heads(), dh = config_.d_head;

  // Projections through the gathered (full) matrices, each norm applied on
  // the A-pack; KV appends go through AppendKv so an int8-precision cache
  // narrows even on this fp32 path.
  auto run_attn = [&](const RowNormTransform& nt) {
    Tensor q = LocalMatMulNormA(c, x, nt, wq).Reshape({rows, H, dh});
    Tensor k = LocalMatMulNormA(c, x, nt, wk).Reshape({rows, KV, dh});
    Tensor v = LocalMatMulNormA(c, x, nt, wv).Reshape({rows, KV, dh});
    AppendKv(c, layer, k, v);
    return SlotAttention(c, layer, q, static_cast<double>(H))
        .Reshape({rows, H * dh});
  };
  auto run_ffn_hidden = [&](const RowNormTransform& nt) {
    return config_.gated_ffn
               ? LocalMatMulNormASwishMulGate(c, x, nt, win, wgate)
               : LocalMatMulNormAGelu(c, x, nt, win);
  };

  // Every read of x happens through a norm transform captured before the
  // accumulates mutate x, so the block computes x + attn_out + ffn_out in
  // that order.
  const RowNormTransform nt = NormTransformFromRows(x, ln);
  Tensor attn = run_attn(nt);
  if (config_.parallel_block) {
    Tensor h = run_ffn_hidden(nt);
    LocalMatMulAccumulate(c, attn, wo, &x);
    LocalMatMulAccumulate(c, h, wout, &x);
    return;
  }
  LocalMatMulAccumulate(c, attn, wo, &x);
  Tensor h = run_ffn_hidden(NormTransformFromRows(x, ln2));
  LocalMatMulAccumulate(c, h, wout, &x);
}

Tensor DistributedEngine::Step(const std::vector<StepLane>& lanes,
                               StepPhase phase) {
  TSI_CHECK(!lanes.empty()) << "a step needs at least one lane";
  const FfnLayout layout =
      phase == StepPhase::kDecode ? spec_.decode_ffn : spec_.prefill_ffn;
  const int64_t E = config_.d_model, V = config_.vocab_size;

  // The host reads every chip's logits between passes, so a pass starts at
  // the machine's latest clock. Without this, a pass that runs no
  // collective (core/replication.h, site 5) would let a chip that idled in
  // the previous pass start this one early.
  const double start = machine_->MaxTime();
  for (int c = 0; c < n_; ++c) machine_->SetTime(c, start);

  StepFrame frame = LayOutStep(lanes);
  group_rows_ = std::move(frame.group_rows);
  cache_.BeginStep(std::move(frame.chip_slots), std::move(frame.chip_widths));

  Tensor x_full =
      EmbeddingLookup(shards_[0].embedding, frame.tokens);  // [rows, E]
  Tensor result;  // [rows, V] in frame order

  if (layout == FfnLayout::kWGXYZ && n_ > 1) {
    spmd_.Run([&](SpmdContext& ctx) {
      const int c = ctx.chip();
      const int r = ctx.topo().RankInGroup(c, kAxisXYZ);
      Tensor x = x_full.Slice(0, RowsBefore(group_rows_, r),
                              group_rows_[static_cast<size_t>(r)]);
      for (int64_t l = 0; l < config_.num_layers; ++l) WgBlockChip(ctx, x, l);
      // Final norm + logit head, group-locally; gather full logits.
      const ChipWeights& cw = shards_[static_cast<size_t>(c)];
      Tensor y = LayerNorm(x, cw.final_ln_gain);
      std::vector<Tensor> lg;
      lg.push_back(LocalMatMul(c, y, cw.head));
      lg = ctx.AllGatherMany(kAxisXYZ, std::move(lg), {0}, {group_rows_});
      if (c == 0) result = std::move(lg[0]);
    });
  } else {
    // Weight-stationary path: activations sharded [rows, E/X] over x, or
    // [x slice rows, E] when the layers are whole over x (site 4), or
    // [group rows, E] when the FFN is whole over yz too (site 5): the rows
    // split into slices, one per x slice or one per group. The logit head
    // shards the [E, vocab] projection over the vocab dim across all chips
    // and all-gathers the logits -- or, when it is not sharded
    // (ChipWeights::head_shard), chip 0 computes it whole, or each row
    // slice's chip (x, 0) under site 4, or every chip for its own rows
    // under site 5.
    const bool head_sharded = !shards_[0].head_shard.empty();
    const bool group_rows = replication_.ffn;
    // The row slices' extents, and the axes they split over.
    SpmdContext::Extents slices;
    if (group_rows) {
      slices = group_rows_;
    } else if (replication_.x) {
      slices = RowsOverX();
    }
    const unsigned slice_axes = group_rows ? kAxisXYZ : kAxisX;
    std::vector<Tensor> slice_logits(slices.size());
    spmd_.Run([&](SpmdContext& ctx) {
      const int c = ctx.chip();
      const ChipWeights& cw = shards_[static_cast<size_t>(c)];
      const int xr = ctx.topo().RankInGroup(c, kAxisX);
      const int slice = group_rows ? ctx.topo().RankInGroup(c, kAxisXYZ) : xr;
      Tensor x;
      if (!slices.empty()) {
        x = x_full.Slice(0, RowsBefore(slices, slice),
                         slices[static_cast<size_t>(slice)]);
      } else {
        x = X_ > 1 ? x_full.Chunk(1, X_, xr) : x_full;
      }
      for (int64_t l = 0; l < config_.num_layers; ++l) WsBlockChip(ctx, x, l);

      // Final norm on the full rows. With E split over x, the shards'
      // moments ride in the all-gather of the raw activations; with the
      // rows split instead, each row's E blocks' moments are computed
      // here. Either way they are summed in group order -- AllReduce's
      // adds, so the normed rows are bit-identical to normalizing each
      // shard and gathering those.
      const Tensor& gain = cw.final_ln_gain;
      Tensor full;
      if (X_ == 1) {
        full = LayerNorm(x, gain);
      } else if (!slices.empty()) {
        full = NormalizeWithMoments(x, SumRowMoments(ColumnBlocks(x, X_)), gain,
                                    static_cast<double>(E));
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
      if (head_sharded) {
        // A vocab shard needs every row.
        if (!slices.empty())
          full = ctx.AllGatherMany(slice_axes, {std::move(full)}, {0},
                                   {slices})[0];
        Tensor logits = LocalMatMul(c, full, cw.head_shard);
        logits = ctx.AllGather(kAxisXYZ, std::move(logits), /*dim=*/1);
        if (c == 0) result = std::move(logits);
      } else if (!slices.empty()) {
        if (group_rows || ctx.topo().RankInGroup(c, kAxisYZ) == 0)
          slice_logits[static_cast<size_t>(slice)] =
              LocalMatMul(c, full, cw.head);
      } else if (c == 0) {
        result = LocalMatMul(0, full, cw.head);
      }
    });
    // The slices' logits in group order.
    if (!slices.empty() && !head_sharded)
      result = Tensor::Concat(0, slice_logits);
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
  // where the WS row splits (x-major reduce-scatter then all-to-all, at the
  // groups' row extents) and the WG batch slicing both deliver group g's
  // rows. That shared rank is what lets mixed-layout phases share one
  // cache. Each group holds exactly its lanes' rows; a group with no lane
  // gets one one-token scratch lane, so no chip's shard is empty.
  StepFrame frame;
  frame.chip_slots.resize(static_cast<size_t>(n_));
  frame.chip_widths.resize(static_cast<size_t>(n_));
  // Appends lane `i` (-1: a one-token scratch lane) to the rows and to
  // chip c's cache lanes (-1: every chip's).
  static const std::vector<int32_t> kScratchToken = {0};
  auto place = [&](int64_t i, int c) {
    const bool real = i >= 0;
    const int64_t slot = real ? lanes[static_cast<size_t>(i)].slot
                              : ShardedKvCache::kScratchSlot;
    const auto& t = real ? lanes[static_cast<size_t>(i)].tokens : kScratchToken;
    const auto w = static_cast<int64_t>(t.size());
    frame.lane.push_back(i);
    frame.width.push_back(w);
    frame.tokens.insert(frame.tokens.end(), t.begin(), t.end());
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
      place(static_cast<int64_t>(i), -1);
    return frame;
  }
  for (const StepLane& l : lanes)
    TSI_CHECK(l.group >= 0 && l.group < n_)
        << "owner group " << l.group << " out of range for " << n_ << " chips";
  frame.group_rows.assign(static_cast<size_t>(n_), 0);
  std::vector<int> chip_of(static_cast<size_t>(n_));  // xyz-rank -> chip
  for (int c = 0; c < n_; ++c)
    chip_of[static_cast<size_t>(machine_->topo().RankInGroup(c, kAxisXYZ))] = c;
  for (int64_t g = 0; g < n_; ++g) {
    const int c = chip_of[static_cast<size_t>(g)];
    const size_t before = frame.tokens.size();
    for (size_t i = 0; i < lanes.size(); ++i)
      if (lanes[i].group == g) place(static_cast<int64_t>(i), c);
    if (frame.tokens.size() == before) place(-1, c);
    frame.group_rows[static_cast<size_t>(g)] =
        static_cast<int64_t>(frame.tokens.size() - before);
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
