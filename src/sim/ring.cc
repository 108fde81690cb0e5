#include "sim/ring.h"

#include "util/logging.h"

namespace tsi {
namespace {

template <typename Fn>
void ForEachGroup(const Torus3D& topo, unsigned mask, Fn fn) {
  std::vector<bool> seen(static_cast<size_t>(topo.num_chips()), false);
  for (int c = 0; c < topo.num_chips(); ++c) {
    if (seen[static_cast<size_t>(c)]) continue;
    std::vector<int> group = topo.GroupOf(c, mask);
    for (int g : group) seen[static_cast<size_t>(g)] = true;
    fn(group);
  }
}

// The torus axes of `mask` with extent > 1, in axis order (x, y, z).
std::vector<unsigned> RingAxes(const Torus3D& topo, unsigned mask) {
  std::vector<unsigned> axes;
  for (unsigned axis : {kAxisX, kAxisY, kAxisZ})
    if ((mask & axis) && topo.GroupSize(axis) > 1) axes.push_back(axis);
  return axes;
}

int AxisCoord(const Torus3D& topo, int chip, unsigned axis) {
  const Coord c = topo.CoordOf(chip);
  return axis == kAxisX ? c.x : axis == kAxisY ? c.y : c.z;
}

void InitTraffic(const SimMachine& m, RingTraffic* traffic) {
  if (traffic && traffic->bytes_sent.empty())
    traffic->bytes_sent.assign(static_cast<size_t>(m.num_chips()), 0.0);
}

// Charges one ring step (every member sends `bytes` to its successor
// concurrently) and logs per-link traffic.
void ChargeStep(SimMachine& m, const std::vector<int>& group, double bytes,
                const char* name, RingTraffic* traffic) {
  CommCostModel cost = m.comm_cost();
  double t = cost.hop_latency + bytes / cost.network_bw;
  for (int c : group) {
    m.AdvanceTimeTraced(c, t, name);
    m.ChargeNetwork(c, bytes);
    if (traffic) traffic->bytes_sent[static_cast<size_t>(c)] += bytes;
  }
}

// Every chip's copies of its mask group's K chunks: chunk[chip][slot] is
// the chip's copy of the chunk that group rank `slot` owns, and held[chip]
// the slots it currently holds.
struct Chunks {
  Chunks(int chips, int slots)
      : chunk(static_cast<size_t>(chips),
              std::vector<Tensor>(static_cast<size_t>(slots))),
        held(static_cast<size_t>(chips)) {}

  std::vector<std::vector<Tensor>> chunk;
  std::vector<std::vector<int>> held;

  Tensor& at(int chip, int slot) {
    return chunk[static_cast<size_t>(chip)][static_cast<size_t>(slot)];
  }
  std::vector<int>& slots(int chip) { return held[static_cast<size_t>(chip)]; }
};

// One all-gather ring over `ring` (members in coordinate order): each
// member's held block travels k-1 hops, so every member ends holding all k.
void AllGatherRing(SimMachine& m, const std::vector<int>& ring, Chunks& st,
                   double chunk_bytes, RingTraffic* traffic) {
  const int k = static_cast<int>(ring.size());
  m.SyncClocks(ring);
  std::vector<std::vector<int>> blocks;
  for (int c : ring) blocks.push_back(st.slots(c));
  const double bytes = static_cast<double>(blocks[0].size()) * chunk_bytes;
  // Step s: member r forwards the block that originated at (r - s) mod k.
  // Blocks are disjoint, so nothing a member forwards is overwritten in the
  // same step.
  for (int s = 0; s < k - 1; ++s) {
    for (int r = 0; r < k; ++r) {
      const int src = ring[static_cast<size_t>(r)];
      const int dst = ring[static_cast<size_t>((r + 1) % k)];
      for (int slot : blocks[static_cast<size_t>(((r - s) % k + k) % k)])
        st.at(dst, slot) = st.at(src, slot);
    }
    ChargeStep(m, ring, bytes, "ring-all-gather", traffic);
  }
  std::vector<int> all;
  for (const auto& b : blocks) all.insert(all.end(), b.begin(), b.end());
  for (int c : ring) st.slots(c) = all;
}

// One reduce-scatter ring over `ring` along `axis`: the held slots split by
// their owner's coordinate on the axis; block c starts at member c+1 and
// travels k-1 hops, each receiver adding its own partial, landing on member
// c. `owners[slot]` is the chip that owns the slot.
void ReduceScatterRing(SimMachine& m, const std::vector<int>& ring,
                       unsigned axis, const std::vector<int>& owners,
                       Chunks& st, double chunk_bytes, RingTraffic* traffic) {
  const int k = static_cast<int>(ring.size());
  m.SyncClocks(ring);
  const Torus3D& topo = m.topo();
  std::vector<std::vector<int>> blocks(static_cast<size_t>(k));
  for (int slot : st.slots(ring[0]))
    blocks[static_cast<size_t>(
               AxisCoord(topo, owners[static_cast<size_t>(slot)], axis))]
        .push_back(slot);
  const double bytes = static_cast<double>(blocks[0].size()) * chunk_bytes;
  for (int s = 0; s < k - 1; ++s) {
    // Member r sends its running partial of block (r - s - 1) mod k; the
    // receiver (r + 1) adds it to its own.
    std::vector<std::vector<Tensor>> in_flight(static_cast<size_t>(k));
    for (int r = 0; r < k; ++r) {
      const int b = ((r - s - 1) % k + k) % k;
      for (int slot : blocks[static_cast<size_t>(b)])
        in_flight[static_cast<size_t>((r + 1) % k)].push_back(
            st.at(ring[static_cast<size_t>(r)], slot));
    }
    for (int r = 0; r < k; ++r) {
      const int b = ((r - 1 - s - 1) % k + k) % k;
      const auto& block = blocks[static_cast<size_t>(b)];
      for (size_t i = 0; i < block.size(); ++i)
        st.at(ring[static_cast<size_t>(r)], block[i])
            .AddInPlace(in_flight[static_cast<size_t>(r)][i]);
    }
    ChargeStep(m, ring, bytes, "ring-reduce-scatter", traffic);
  }
  for (int r = 0; r < k; ++r)
    st.slots(ring[static_cast<size_t>(r)]) = blocks[static_cast<size_t>(r)];
}

}  // namespace

ShardVec RingAllGather(SimMachine& m, const ShardVec& in, unsigned mask,
                       int64_t dim, RingTraffic* traffic) {
  TSI_CHECK_EQ(static_cast<int>(in.size()), m.num_chips());
  InitTraffic(m, traffic);
  const Torus3D& topo = m.topo();
  const int n = m.num_chips();
  const int K = topo.GroupSize(mask);
  if (K == 1) return in;
  Chunks st(n, K);
  for (int c = 0; c < n; ++c) {
    const int r = topo.RankInGroup(c, mask);
    st.at(c, r) = in[static_cast<size_t>(c)];
    st.slots(c) = {r};
  }
  const double chunk_bytes =
      static_cast<double>(in[0].numel()) * m.bytes_per_element();
  for (unsigned axis : RingAxes(topo, mask))
    ForEachGroup(topo, axis, [&](const std::vector<int>& ring) {
      AllGatherRing(m, ring, st, chunk_bytes, traffic);
    });
  ShardVec out;
  for (const std::vector<Tensor>& chunks : st.chunk)
    out.push_back(Tensor::Concat(dim, chunks));
  return out;
}

ShardVec RingReduceScatter(SimMachine& m, const ShardVec& in, unsigned mask,
                           int64_t dim, RingTraffic* traffic) {
  TSI_CHECK_EQ(static_cast<int>(in.size()), m.num_chips());
  InitTraffic(m, traffic);
  const Torus3D& topo = m.topo();
  const int n = m.num_chips();
  const int K = topo.GroupSize(mask);
  if (K == 1) return in;
  Chunks st(n, K);
  for (int c = 0; c < n; ++c) {
    for (int slot = 0; slot < K; ++slot) {
      st.at(c, slot) = in[static_cast<size_t>(c)].Chunk(dim, K, slot);
      st.slots(c).push_back(slot);
    }
  }
  const double chunk_bytes =
      static_cast<double>(st.at(0, 0).numel()) * m.bytes_per_element();
  std::vector<unsigned> axes = RingAxes(topo, mask);
  for (auto axis = axes.rbegin(); axis != axes.rend(); ++axis)
    ForEachGroup(topo, *axis, [&](const std::vector<int>& ring) {
      ReduceScatterRing(m, ring, *axis, topo.GroupOf(ring[0], mask), st,
                        chunk_bytes, traffic);
    });
  ShardVec out;
  for (int c = 0; c < n; ++c)
    out.push_back(std::move(st.at(c, topo.RankInGroup(c, mask))));
  return out;
}

ShardVec RingAllReduce(SimMachine& m, const ShardVec& in, unsigned mask,
                       RingTraffic* traffic) {
  TSI_CHECK_EQ(static_cast<int>(in.size()), m.num_chips());
  const Torus3D& topo = m.topo();
  const std::vector<unsigned> axes = RingAxes(topo, mask);
  if (axes.size() == 1 && topo.GroupSize(axes[0]) == 2) {
    InitTraffic(m, traffic);
    ShardVec out(in.size());
    ForEachGroup(topo, mask, [&](const std::vector<int>& pair) {
      m.SyncClocks(pair);
      Tensor sum = in[static_cast<size_t>(pair[0])];
      sum.AddInPlace(in[static_cast<size_t>(pair[1])]);
      ChargeStep(m, pair,
                 static_cast<double>(sum.numel()) * m.bytes_per_element(),
                 "exchange-all-reduce", traffic);
      out[static_cast<size_t>(pair[0])] = sum;
      out[static_cast<size_t>(pair[1])] = std::move(sum);
    });
    return out;
  }
  ShardVec flat;
  for (const Tensor& t : in) flat.push_back(t.Reshape({t.numel()}));
  ShardVec out = RingAllGather(
      m, RingReduceScatter(m, flat, mask, 0, traffic), mask, 0, traffic);
  for (size_t c = 0; c < out.size(); ++c)
    out[c] = out[c].Reshape(in[c].shape());
  return out;
}

}  // namespace tsi
