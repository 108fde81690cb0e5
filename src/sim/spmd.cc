#include "sim/spmd.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "sim/transfer.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/threadpool.h"

namespace tsi {
namespace {

// Set while the current thread is executing a chip closure; guards against
// nested regions (RunBlocking is non-reentrant, and a nested rendezvous
// would deadlock the slots).
thread_local bool tl_in_spmd_region = false;

int DefaultSlots() {
  if (const char* env = std::getenv("TSI_SPMD_SLOTS")) {
    int v = std::atoi(env);
    if (v >= 1) return v;
  }
  return ThreadPool::Global().concurrency();
}

double MaxDepositTime(const std::vector<ExchangeHub::Deposit>& parts) {
  double t = 0;
  for (const auto& p : parts) t = std::max(t, p.time);
  return t;
}

using Deposits = std::vector<ExchangeHub::Deposit>;
using Extents = SpmdContext::Extents;

int64_t NormDim(int64_t d, const Shape& s) {
  const auto r = static_cast<int64_t>(s.size());
  const int64_t n = d < 0 ? d + r : d;
  TSI_CHECK(n >= 0 && n < r) << "dim " << d << " of a rank-" << r
                             << " member";
  return n;
}

int64_t Elements(const Shape& s) {
  int64_t n = 1;
  for (int64_t e : s) n *= e;
  return n;
}

// Elements per unit of extent along `d`: the product of the other dims.
int64_t Cross(const Shape& s, int64_t d) {
  int64_t n = 1;
  for (size_t i = 0; i < s.size(); ++i)
    if (static_cast<int64_t>(i) != d) n *= s[i];
  return n;
}

// Sum of the extents of the ranks before `r`.
int64_t Before(const Extents& e, int r) {
  int64_t n = 0;
  for (int i = 0; i < r; ++i) n += e[static_cast<size_t>(i)];
  return n;
}

// The per-rank extents of a `whole`-long dim split `k` ways: `given` (one
// per rank, tiling the dim), or the even split when none is given.
Extents SplitExtents(const Extents& given, int64_t whole, int64_t k) {
  if (given.empty()) {
    TSI_CHECK_EQ(whole % k, 0)
        << "dim " << whole << " not divisible into " << k << " chunks";
    return Extents(static_cast<size_t>(k), whole / k);
  }
  TSI_CHECK_EQ(static_cast<int64_t>(given.size()), k) << "one extent per rank";
  int64_t sum = 0;
  for (int64_t e : given) {
    TSI_CHECK_GE(e, 0);
    sum += e;
  }
  TSI_CHECK_EQ(sum, whole) << "extents do not tile the dim";
  return given;
}

// The extents every rank deposits along a dim whose local extent is
// `mine`: `given` (checked against this rank's), or `mine` on every rank.
Extents DepositExtents(const Extents& given, int64_t mine, int64_t k,
                       int rank) {
  if (given.empty()) return Extents(static_cast<size_t>(k), mine);
  TSI_CHECK_EQ(static_cast<int64_t>(given.size()), k) << "one extent per rank";
  TSI_CHECK_EQ(given[static_cast<size_t>(rank)], mine)
      << "rank " << rank << " deposits a different extent than declared";
  return given;
}

// Member j's extents: extents[j] when the caller gave any.
const Extents& MemberExtents(const std::vector<Extents>& extents, size_t j) {
  static const Extents kEven;
  return extents.empty() ? kEven : extents[j];
}

// The members of a tuple collective as every rank deposits them: rank r's
// member j has shape shapes[r][j] and sits at offsets[r][j] of its packed
// deposit. Ranks' shapes differ only along a ragged dim.
struct Packing {
  std::vector<std::vector<Shape>> shapes;
  std::vector<std::vector<int64_t>> offsets;
  std::vector<int64_t> totals;

  // Every rank packs `local`, except that member j's extent along
  // `dims[j]` is ext[j][r] on rank r (dims[j] < 0: the same on every rank).
  Packing(const std::vector<Shape>& local, const std::vector<int64_t>& dims,
          const std::vector<Extents>& ext, int64_t k) {
    for (int64_t r = 0; r < k; ++r) {
      std::vector<Shape> rs = local;
      std::vector<int64_t> at;
      int64_t total = 0;
      for (size_t j = 0; j < rs.size(); ++j) {
        if (dims[j] >= 0)
          rs[j][static_cast<size_t>(dims[j])] = ext[j][static_cast<size_t>(r)];
        at.push_back(total);
        total += Elements(rs[j]);
      }
      shapes.push_back(std::move(rs));
      offsets.push_back(std::move(at));
      totals.push_back(total);
    }
  }

  // Member j of rank r's deposit, read in place.
  const float* In(const Deposits& parts, size_t r, size_t j) const {
    TSI_CHECK_EQ(parts[r].tensor->numel(), totals[r])
        << "members differ from the declared shapes and extents";
    return parts[r].tensor->data() + offsets[r][j];
  }
};

// Packs members into one flat deposit, in order; a lone member travels as
// itself (no copy).
Tensor PackMembers(std::vector<Tensor> ts) {
  if (ts.size() == 1) return std::move(ts[0]);
  int64_t total = 0;
  for (const Tensor& t : ts) total += t.numel();
  Tensor packed({total});
  float* dst = packed.data();
  for (const Tensor& t : ts) {
    std::memcpy(dst, t.data(), static_cast<size_t>(t.numel()) * sizeof(float));
    dst += t.numel();
  }
  return packed;
}

// A tuple's members as split over the group: shapes, normalized dims and
// every rank's extent along each member's dim.
struct Split {
  std::vector<Shape> local;
  std::vector<int64_t> dims;
  std::vector<Extents> ext;

  Split(const std::vector<Tensor>& ts, const std::vector<int64_t>& ds,
        const std::vector<Extents>& extents) {
    TSI_CHECK(extents.empty() || extents.size() == ts.size())
        << "one extents entry per member";
    for (size_t j = 0; j < ts.size(); ++j) {
      local.push_back(ts[j].shape());
      dims.push_back(NormDim(ds[j], local.back()));
    }
  }
  int64_t Along(size_t j) const {
    return local[j][static_cast<size_t>(dims[j])];
  }

  // Each rank's share of the tuple in elements: its chunk of a
  // reduce-scatter's buffer, or its deposit into an all-gather.
  std::vector<int64_t> Shares() const {
    std::vector<int64_t> sh(ext.empty() ? 0 : ext[0].size(), 0);
    for (size_t j = 0; j < local.size(); ++j)
      for (size_t r = 0; r < sh.size(); ++r)
        sh[r] += Cross(local[j], dims[j]) * ext[j][r];
    return sh;
  }
};

// A reduce-scatter's split: the extents tile every member's dim.
Split ScatterSplit(const std::vector<Tensor>& ts,
                   const std::vector<int64_t>& ds,
                   const std::vector<Extents>& extents, int64_t k) {
  Split sp(ts, ds, extents);
  for (size_t j = 0; j < ts.size(); ++j)
    sp.ext.push_back(SplitExtents(MemberExtents(extents, j), sp.Along(j), k));
  return sp;
}

// An all-gather's split: this rank's extents are its members' own.
Split GatherSplit(const std::vector<Tensor>& ts,
                  const std::vector<int64_t>& ds,
                  const std::vector<Extents>& extents, int64_t k, int rank) {
  Split sp(ts, ds, extents);
  for (size_t j = 0; j < ts.size(); ++j)
    sp.ext.push_back(
        DepositExtents(MemberExtents(extents, j), sp.Along(j), k, rank));
  return sp;
}

// A ragged split is charged as its busiest member: k times the largest
// share, which is the whole buffer when the shares are equal.
int64_t Busiest(const std::vector<int64_t>& shares) {
  return static_cast<int64_t>(shares.size()) *
         *std::max_element(shares.begin(), shares.end());
}

// What a chip sends: the buffer less its own share.
int64_t EgressOf(const std::vector<int64_t>& shares, int rank) {
  int64_t total = 0;
  for (int64_t s : shares) total += s;
  return total - shares[static_cast<size_t>(rank)];
}

// Reduce-scatter data path: rank `rank`'s chunk of every member along its
// dim, summed over the deposits in group order -- elementwise the same
// additions as summing everything and then chunking (what the serial
// lockstep collective computes), at 1/k the work.
std::vector<Tensor> ScatterSumMembers(const Deposits& parts,
                                      const Split& sc, int rank) {
  const Packing pk(sc.local, std::vector<int64_t>(sc.local.size(), -1),
                   sc.ext, static_cast<int64_t>(parts.size()));
  std::vector<Tensor> out;
  out.reserve(sc.local.size());
  for (size_t j = 0; j < sc.local.size(); ++j) {
    const Shape& shape = sc.local[j];
    const auto d = static_cast<size_t>(sc.dims[j]);
    Shape box = shape;
    box[d] = sc.ext[j][static_cast<size_t>(rank)];
    Shape src_off(box.size(), 0);
    src_off[d] = Before(sc.ext[j], rank);
    const Shape zero(box.size(), 0);
    Tensor o(box);
    for (size_t i = 0; i < parts.size(); ++i)
      TransferBox(pk.In(parts, i, j), shape, src_off, &o, zero, box,
                  /*add=*/i > 0);
    out.push_back(std::move(o));
  }
  return out;
}

// All-gather data path: every member concatenated along its dim over the
// deposits, in group order.
std::vector<Tensor> GatherMembers(const Deposits& parts, const Split& ga) {
  const Packing pk(ga.local, ga.dims, ga.ext,
                   static_cast<int64_t>(parts.size()));
  std::vector<Tensor> out;
  out.reserve(ga.local.size());
  for (size_t j = 0; j < ga.local.size(); ++j) {
    const auto d = static_cast<size_t>(ga.dims[j]);
    Shape shape = ga.local[j];
    shape[d] = Before(ga.ext[j], static_cast<int>(parts.size()));
    Tensor o(shape);
    Shape dst_off(shape.size(), 0);
    for (size_t r = 0; r < parts.size(); ++r) {
      const Shape& box = pk.shapes[r][j];
      TransferBox(pk.In(parts, r, j), box, Shape(box.size(), 0), &o, dst_off,
                  box, /*add=*/false);
      dst_off[d] += box[d];
    }
    out.push_back(std::move(o));
  }
  return out;
}

// One-member tuple, for the single-tensor entry points.
std::vector<Tensor> Lone(Tensor t) {
  std::vector<Tensor> one;
  one.push_back(std::move(t));
  return one;
}

}  // namespace

SpmdExecutor::SpmdExecutor(SimMachine* machine)
    : machine_(machine),
      slots_(DefaultSlots()),
      group_cache_(static_cast<size_t>(machine->num_chips())) {
  TSI_CHECK(machine != nullptr);
}

void SpmdExecutor::set_slots(int slots) {
  slots_ = slots >= 1 ? slots : DefaultSlots();
}

SpmdExecutor::AxisGroup& SpmdExecutor::GroupFor(int chip, unsigned mask) {
  TSI_CHECK(chip >= 0 && chip < machine_->num_chips());
  TSI_CHECK(mask >= 1 && mask < 8);
  std::unique_ptr<AxisGroup>& slot =
      group_cache_[static_cast<size_t>(chip)][mask];
  if (!slot) {
    const Torus3D& topo = machine_->topo();
    std::vector<int> group = topo.GroupOf(chip, mask);
    auto g = std::make_unique<AxisGroup>();
    g->rank = topo.RankInGroup(chip, mask);
    g->size = static_cast<int>(group.size());
    g->channel = &hub_.ChannelFor(group);
    for (unsigned axis : {kAxisX, kAxisY, kAxisZ}) {
      const int k = (mask & axis) ? topo.GroupSize(axis) : 1;
      if (k > 1) g->axes.push_back(k);
    }
    slot = std::move(g);
  }
  return *slot;
}

void SpmdExecutor::Run(const std::function<void(SpmdContext&)>& body) {
  TSI_CHECK(!tl_in_spmd_region)
      << "nested SPMD regions are not supported; inside a region use the "
         "SpmdContext collectives";
  // Host wall-clock region metrics: how many SPMD regions ran, how long each
  // took on this machine, and the slot budget in force.
  static obs::Counter* regions =
      obs::MetricsRegistry::Global().GetCounter("host/spmd.regions");
  static obs::Histogram* region_seconds =
      obs::MetricsRegistry::Global().GetHistogram(
          "host/spmd.region_seconds",
          {1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0});
  static obs::Gauge* slots_gauge =
      obs::MetricsRegistry::Global().GetGauge("host/spmd.slots");
  regions->Add(1);
  auto region_begin = std::chrono::steady_clock::now();
  auto observe_region = [&] {
    region_seconds->Observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      region_begin)
            .count());
  };
  const int n = machine_->num_chips();
  if (n == 1) {
    tl_in_spmd_region = true;
    SpmdContext ctx(this, 0);
    body(ctx);
    tl_in_spmd_region = false;
    slots_gauge->Set(1);
    observe_region();
    return;
  }
  SlotGate gate(std::min(slots_, n));
  slots_gauge->Set(std::min(slots_, n));
  gate_ = &gate;
  ThreadPool::Global().RunBlocking(n, [&](int chip) {
    tl_in_spmd_region = true;
    gate.Acquire();
    SpmdContext ctx(this, chip);
    body(ctx);
    gate.Release();
    tl_in_spmd_region = false;
  });
  gate_ = nullptr;
  observe_region();
}

std::vector<ExchangeHub::Deposit> SpmdContext::ExchangeTimed(
    SpmdExecutor::AxisGroup& g, Tensor t) {
  SimMachine& m = *ex_->machine_;
  return ex_->hub_.Exchange(*g.channel, g.rank, std::move(t),
                            m.counters(chip_).time, ex_->gate_);
}

void SpmdContext::Charge(const std::vector<ExchangeHub::Deposit>& parts,
                         double seconds, double egress_bytes,
                         const std::string& name) {
  SimMachine& m = *ex_->machine_;
  m.SetTime(chip_, MaxDepositTime(parts));
  m.AdvanceTimeTraced(chip_, seconds, name);
  m.ChargeNetwork(chip_, egress_bytes);
}

void SpmdContext::ChargeRing(const std::vector<ExchangeHub::Deposit>& parts,
                             const SpmdExecutor::AxisGroup& g,
                             const std::vector<int64_t>& shares,
                             const std::string& name) {
  const double bpe = ex_->machine_->bytes_per_element();
  Charge(parts,
         ex_->machine_->comm_cost().PerAxisRingTime(
             g.axes, static_cast<double>(Busiest(shares)) * bpe),
         static_cast<double>(EgressOf(shares, g.rank)) * bpe, name);
}

void SpmdContext::ChargePipelined(
    const std::vector<ExchangeHub::Deposit>& parts,
    const std::vector<int>& axes, double total_flops,
    double total_weight_bytes, double elems, double egress_elems,
    const char* name) {
  SimMachine& m = *ex_->machine_;
  const ChipSpec& chip = m.chip();
  const CommCostModel& cost = m.comm_cost();
  // The matmul is chunked over the ring of the group's last axis, which
  // carries the full buffer (the first reduce-scatter stage, the last
  // all-gather stage) ...
  const int k = axes.back();
  double t_chunk = std::max(chip.ComputeTime(total_flops / k),
                            chip.MemoryTime(total_weight_bytes / k));
  double step_bytes = elems / k * m.bytes_per_element();
  double t_step = cost.hop_latency + step_bytes / chip.network_bw;
  double t = t_chunk;  // first chunk has nothing to hide under
  for (int s = 0; s < k - 1; ++s) t += std::max(t_chunk, t_step);
  // ... and the other axes' rings follow as plain ring steps on D / k.
  const double bytes = elems * m.bytes_per_element();
  t += cost.PerAxisRingTime({axes.begin(), axes.end() - 1}, bytes / k);
  m.SetTime(chip_, MaxDepositTime(parts));
  m.BookWork(chip_, total_flops, total_weight_bytes);
  m.ChargeNetwork(chip_, egress_elems * m.bytes_per_element());
  m.AdvanceTimeTraced(chip_, t, name);
}

Tensor SpmdContext::AllGather(unsigned mask, Tensor t, int64_t dim) {
  return std::move(AllGatherMany(mask, Lone(std::move(t)), {dim})[0]);
}

Tensor SpmdContext::ReduceScatter(unsigned mask, Tensor t, int64_t dim) {
  return std::move(ReduceScatterMany(mask, Lone(std::move(t)), {dim})[0]);
}

std::vector<Tensor> SpmdContext::AllGatherMany(
    unsigned mask, std::vector<Tensor> tensors,
    const std::vector<int64_t>& dims, const std::vector<Extents>& extents) {
  TSI_CHECK(!tensors.empty());
  TSI_CHECK_EQ(tensors.size(), dims.size());
  SpmdExecutor::AxisGroup& g = ex_->GroupFor(chip_, mask);
  if (g.size == 1) return tensors;
  const Split ga = GatherSplit(tensors, dims, extents, g.size, g.rank);
  auto parts = ExchangeTimed(g, PackMembers(std::move(tensors)));
  std::vector<Tensor> out = GatherMembers(parts, ga);
  // Charged on the gathered outputs (the D of Appendix A.1).
  ChargeRing(parts, g, ga.Shares(), "all-gather(" + AxisName(mask) + ")");
  return out;
}

std::vector<Tensor> SpmdContext::ReduceScatterMany(
    unsigned mask, std::vector<Tensor> tensors,
    const std::vector<int64_t>& dims, const std::vector<Extents>& extents) {
  TSI_CHECK(!tensors.empty());
  TSI_CHECK_EQ(tensors.size(), dims.size());
  SpmdExecutor::AxisGroup& g = ex_->GroupFor(chip_, mask);
  if (g.size == 1) return tensors;
  const Split sc = ScatterSplit(tensors, dims, extents, g.size);
  auto parts = ExchangeTimed(g, PackMembers(std::move(tensors)));
  std::vector<Tensor> out = ScatterSumMembers(parts, sc, g.rank);
  // Charged on the *full* per-chip buffers (the D of Appendix A.1).
  ChargeRing(parts, g, sc.Shares(), "reduce-scatter(" + AxisName(mask) + ")");
  return out;
}

Tensor SpmdContext::AllReduce(unsigned mask, Tensor t) {
  SpmdExecutor::AxisGroup& g = ex_->GroupFor(chip_, mask);
  if (g.size == 1) return t;
  SimMachine& m = *ex_->machine_;
  auto parts = ExchangeTimed(g, std::move(t));
  Tensor sum = *parts[0].tensor;
  for (size_t i = 1; i < parts.size(); ++i) sum.AddInPlace(*parts[i].tensor);
  const CommCostModel& cost = m.comm_cost();
  const double bytes = static_cast<double>(sum.numel()) * m.bytes_per_element();
  const std::string name = "all-reduce(" + AxisName(mask) + ")";
  if (g.axes.size() == 1 && g.axes[0] == 2) {
    // Two chips: one exchange of the full buffer -- RS + AG's bytes, one hop.
    Charge(parts, cost.hop_latency + bytes / cost.network_bw, bytes, name);
    return sum;
  }
  // Per-axis reduce-scatter, then per-axis all-gather: two legs.
  double seconds = cost.PerAxisRingTime(g.axes, bytes);
  double egress = bytes * (static_cast<double>(g.size) - 1.0) / g.size;
  Charge(parts, seconds, egress, name);
  m.AdvanceTimeTraced(chip_, seconds, name);
  m.ChargeNetwork(chip_, egress);
  return sum;
}

Tensor SpmdContext::AllReduceOwnedRows(unsigned mask, const Tensor& partial,
                                       const Tensor& own, const Tensor& side,
                                       const Extents& segments) {
  SpmdExecutor::AxisGroup& g = ex_->GroupFor(chip_, mask);
  TSI_CHECK(g.axes.size() == 1 && g.axes[0] == 2)
      << "an owned-row all-reduce runs over a single 2-chip axis";
  TSI_CHECK_EQ(own.rank(), 2);
  TSI_CHECK(side.shape() == own.shape()) << "one side term per own row";
  const int64_t E = own.dim(1);
  int64_t N = 0;
  int64_t owned[2] = {0, 0};
  for (size_t s = 0; s < segments.size(); ++s) {
    TSI_CHECK_GE(segments[s], 0);
    N += segments[s];
    owned[s % 2] += segments[s];
  }
  const int me = g.rank;
  TSI_CHECK_EQ(own.dim(0), owned[me]) << "own rows differ from the segments";
  const bool has_partial = !partial.empty();
  if (has_partial) {
    TSI_CHECK(partial.shape() == (Shape{N, E})) << "a partial covers every row";
  }
  // The deposit: the partial with this rank's rows completed (or its own
  // terms alone), then the side terms.
  auto head_rows = [&](int r) { return has_partial ? N : owned[r]; };
  Tensor dep({(head_rows(me) + owned[me]) * E});
  float* d = dep.data();
  if (has_partial) {
    std::copy_n(partial.data(), N * E, d);
    const float* o = own.data();
    int64_t row = 0;
    for (size_t s = 0; s < segments.size(); ++s) {
      const int64_t n = segments[s] * E;
      if (static_cast<int>(s % 2) == me) {
        for (int64_t i = 0; i < n; ++i) d[row * E + i] += o[i];
        o += n;
      }
      row += segments[s];
    }
  } else {
    std::copy_n(own.data(), own.numel(), d);
  }
  // copy_n, not memcpy: an empty member's data() may be null.
  std::copy_n(side.data(), side.numel(), d + head_rows(me) * E);

  auto parts = ExchangeTimed(g, std::move(dep));
  for (int r = 0; r < 2; ++r)
    TSI_CHECK_EQ(parts[static_cast<size_t>(r)].tensor->numel(),
                 (head_rows(r) + owned[r]) * E)
        << "rank " << r << " deposited a different layout";
  const float* deps[2] = {parts[0].tensor->data(), parts[1].tensor->data()};
  Tensor sum({N, E});
  float* out = sum.data();
  int64_t row = 0;
  int64_t at[2] = {0, 0};  // each owner's rows before this segment
  for (size_t s = 0; s < segments.size(); ++s) {
    const int o = static_cast<int>(s % 2);
    const int other = 1 - o;
    const float* p_own =
        deps[o] + (has_partial ? row : at[o]) * E;  // P_o, complete
    const float* p_side = deps[o] + (head_rows(o) + at[o]) * E;
    const float* p_rest = has_partial ? deps[other] + row * E : nullptr;
    const int64_t n = segments[s] * E;
    for (int64_t i = 0; i < n; ++i) {
      // P_other = side + rest, then P_0 + P_1 in group order.
      const float p_other = p_rest ? p_side[i] + p_rest[i] : p_side[i];
      out[row * E + i] = o == 0 ? p_own[i] + p_other : p_other + p_own[i];
    }
    at[o] += segments[s];
    row += segments[s];
  }
  SimMachine& m = *ex_->machine_;
  const double bpe = m.bytes_per_element();
  const double busiest = static_cast<double>(
      std::max(head_rows(0) + owned[0], head_rows(1) + owned[1]) * E);
  Charge(parts,
         m.comm_cost().hop_latency + busiest * bpe / m.comm_cost().network_bw,
         static_cast<double>((head_rows(me) + owned[me]) * E) * bpe,
         "all-reduce(" + AxisName(mask) + ")");
  return sum;
}

Tensor SpmdContext::AllToAll(unsigned mask, Tensor t, int64_t split_dim,
                             int64_t concat_dim) {
  return std::move(
      AllToAllMany(mask, Lone(std::move(t)), split_dim, concat_dim)[0]);
}

std::vector<Tensor> SpmdContext::AllToAllMany(unsigned mask,
                                              std::vector<Tensor> tensors,
                                              int64_t split_dim,
                                              int64_t concat_dim,
                                              const Extents& split_extents,
                                              const Extents& concat_extents) {
  TSI_CHECK(!tensors.empty());
  SpmdExecutor::AxisGroup& g = ex_->GroupFor(chip_, mask);
  if (g.size == 1) return tensors;
  SimMachine& m = *ex_->machine_;
  const int64_t k = g.size;
  const size_t n = tensors.size();
  // Rank r deposits its members at concat_extents[r] along the concat dim
  // (a gather's split) and cuts them along the split dim, rank q receiving
  // split_extents[q] (a scatter's split).
  const Split sp = ScatterSplit(tensors, std::vector<int64_t>(n, split_dim),
                                std::vector<Extents>(n, split_extents), k);
  const Split cp =
      GatherSplit(tensors, std::vector<int64_t>(n, concat_dim),
                  std::vector<Extents>(n, concat_extents), k, g.rank);
  const Packing pk(cp.local, cp.dims, cp.ext, k);
  auto parts = ExchangeTimed(g, PackMembers(std::move(tensors)));
  std::vector<Tensor> out;
  out.reserve(n);
  for (size_t j = 0; j < n; ++j) {
    const auto sd = static_cast<size_t>(sp.dims[j]);
    const auto cd = static_cast<size_t>(cp.dims[j]);
    TSI_CHECK_NE(sd, cd) << "split and concat dims coincide";
    // This rank's block of every deposit, concatenated in group order.
    Shape out_shape = cp.local[j];
    out_shape[sd] = sp.ext[j][static_cast<size_t>(g.rank)];
    out_shape[cd] = Before(cp.ext[j], static_cast<int>(k));
    Tensor o(out_shape);
    Shape src_off(out_shape.size(), 0);
    src_off[sd] = Before(sp.ext[j], g.rank);
    Shape dst_off(out_shape.size(), 0);
    for (size_t r = 0; r < parts.size(); ++r) {
      const Shape& shape = pk.shapes[r][j];
      Shape box = shape;
      box[sd] = out_shape[sd];
      TransferBox(pk.In(parts, r, j), shape, src_off, &o, dst_off, box,
                  /*add=*/false);
      dst_off[cd] += box[cd];
    }
    out.push_back(std::move(o));
  }
  // All-to-all uses direct pairwise paths, not a dependent ring: charge the
  // bandwidth factor on the per-chip buffers plus a single hop latency. A
  // ragged one is charged as k times its largest block (rank r to rank q).
  auto block = [&](size_t r, size_t q) {
    int64_t e = 0;
    for (size_t j = 0; j < n; ++j)
      e += Cross(pk.shapes[r][j], sp.dims[j]) * sp.ext[j][q];
    return e;
  };
  int64_t largest = 0;
  for (size_t r = 0; r < parts.size(); ++r)
    for (size_t q = 0; q < parts.size(); ++q)
      largest = std::max(largest, block(r, q));
  const auto me = static_cast<size_t>(g.rank);
  const double bpe = m.bytes_per_element();
  Charge(parts,
         m.comm_cost().AllToAllTime(static_cast<double>(k * largest) * bpe,
                                    g.size),
         static_cast<double>(pk.totals[me] - block(me, me)) * bpe,
         "all-to-all(" + AxisName(mask) + ")");
  return out;
}

Tensor SpmdContext::MatMulReduceScatter(unsigned mask, const Tensor& x,
                                        const Tensor& w,
                                        double weight_byte_width) {
  return std::move(
      MatMulReduceScatterMany(mask, {}, {}, x, {&w}, weight_byte_width)[0]);
}

std::vector<Tensor> SpmdContext::MatMulReduceScatterMany(
    unsigned mask, std::vector<Tensor> tensors, std::vector<int64_t> dims,
    const Tensor& x, const std::vector<const Tensor*>& ws,
    double weight_byte_width, const std::vector<Extents>& extents) {
  TSI_CHECK(!ws.empty());
  TSI_CHECK_EQ(tensors.size(), dims.size());
  TSI_CHECK(extents.empty() || extents.size() == tensors.size())
      << "one extents entry per carried member";
  SpmdExecutor::AxisGroup& g = ex_->GroupFor(chip_, mask);
  SimMachine& m = *ex_->machine_;
  const double rows = static_cast<double>(x.numel() / x.dim(-1));
  std::vector<Extents> ext = extents;
  if (!ext.empty()) ext.resize(tensors.size() + ws.size());
  double flops = 0, wbytes = 0;
  for (const Tensor* w : ws) {
    const double f = 2.0 * rows * w->dim(0) * w->dim(1);
    const double b = static_cast<double>(w->numel()) * weight_byte_width;
    tensors.push_back(MatMul(x, *w));
    dims.push_back(-1);
    if (g.size == 1) m.ChargeComputeAndMemory(chip_, f, b, "matmul");
    flops += f;
    wbytes += b;
  }
  if (g.size == 1) return tensors;
  const Split sc = ScatterSplit(tensors, dims, ext, g.size);
  auto parts = ExchangeTimed(g, PackMembers(std::move(tensors)));
  std::vector<Tensor> out = ScatterSumMembers(parts, sc, g.rank);
  const std::vector<int64_t> shares = sc.Shares();
  ChargePipelined(parts, g.axes, flops, wbytes,
                  static_cast<double>(Busiest(shares)),
                  static_cast<double>(EgressOf(shares, g.rank)),
                  "looped-matmul-rs");
  return out;
}

Tensor SpmdContext::AllGatherMatMul(unsigned mask, const Tensor& x,
                                    const Tensor& w,
                                    double weight_byte_width) {
  SpmdExecutor::AxisGroup& g = ex_->GroupFor(chip_, mask);
  SimMachine& m = *ex_->machine_;
  if (g.size == 1) {
    double flops = 2.0 * static_cast<double>(x.dim(0)) * w.dim(0) * w.dim(1);
    double wbytes = static_cast<double>(w.numel()) * weight_byte_width;
    Tensor y = MatMul(x, w);
    m.ChargeComputeAndMemory(chip_, flops, wbytes, "matmul");
    return y;
  }
  std::vector<Tensor> one = Lone(x);
  const Split ga = GatherSplit(one, {0}, {}, g.size, g.rank);
  auto parts = ExchangeTimed(g, PackMembers(std::move(one)));
  Tensor gathered = std::move(GatherMembers(parts, ga)[0]);
  double flops =
      2.0 * static_cast<double>(gathered.dim(0)) * w.dim(0) * w.dim(1);
  double wbytes = static_cast<double>(w.numel()) * weight_byte_width;
  const auto elems = gathered.numel();
  ChargePipelined(parts, g.axes, flops, wbytes, static_cast<double>(elems),
                  static_cast<double>(elems - x.numel()), "ag-looped-matmul");
  return MatMul(gathered, w);
}

}  // namespace tsi
