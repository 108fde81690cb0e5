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

// The local members of a tuple collective: shapes, normalized dims, and
// their float offsets in the packed deposit.
struct Members {
  std::vector<Shape> shapes;
  std::vector<int64_t> dims;
  std::vector<int64_t> offsets;
  int64_t total = 0;

  Members(const std::vector<Tensor>& ts, const std::vector<int64_t>& ds) {
    for (size_t j = 0; j < ts.size(); ++j) {
      const auto r = static_cast<int64_t>(ts[j].rank());
      const int64_t d = ds[j] < 0 ? ds[j] + r : ds[j];
      TSI_CHECK(d >= 0 && d < r) << "dim " << ds[j] << " of a rank-" << r
                                 << " member";
      shapes.push_back(ts[j].shape());
      dims.push_back(d);
      offsets.push_back(total);
      total += ts[j].numel();
    }
  }

  // Member j of deposit `p`, read in place.
  const float* In(const ExchangeHub::Deposit& p, size_t j) const {
    TSI_CHECK_EQ(p.tensor->numel(), total) << "members differ across ranks";
    return p.tensor->data() + offsets[j];
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

using Deposits = std::vector<ExchangeHub::Deposit>;

// All-gather data path: every member concatenated along its dim over the
// deposits, in group order.
std::vector<Tensor> GatherMembers(const Deposits& parts, const Members& mem) {
  std::vector<Tensor> out;
  out.reserve(mem.shapes.size());
  for (size_t j = 0; j < mem.shapes.size(); ++j) {
    const Shape& box = mem.shapes[j];
    const auto d = static_cast<size_t>(mem.dims[j]);
    Shape shape = box;
    shape[d] *= static_cast<int64_t>(parts.size());
    Tensor o(shape);
    const Shape zero(box.size(), 0);
    Shape dst_off(box.size(), 0);
    for (const auto& p : parts) {
      TransferBox(mem.In(p, j), box, zero, &o, dst_off, box, /*add=*/false);
      dst_off[d] += box[d];
    }
    out.push_back(std::move(o));
  }
  return out;
}

// Reduce-scatter data path: rank `rank`'s chunk of every member along its
// dim, summed over the deposits in group order -- elementwise the same
// additions as summing everything and then chunking (what the serial
// lockstep collective computes), at 1/k the work.
std::vector<Tensor> ScatterSumMembers(const Deposits& parts,
                                      const Members& mem, int rank) {
  const auto k = static_cast<int64_t>(parts.size());
  std::vector<Tensor> out;
  out.reserve(mem.shapes.size());
  for (size_t j = 0; j < mem.shapes.size(); ++j) {
    const Shape& shape = mem.shapes[j];
    const auto d = static_cast<size_t>(mem.dims[j]);
    TSI_CHECK_EQ(shape[d] % k, 0)
        << "dim " << shape[d] << " not divisible into " << k << " chunks";
    Shape box = shape;
    box[d] = shape[d] / k;
    Shape src_off(box.size(), 0);
    src_off[d] = rank * box[d];
    const Shape zero(box.size(), 0);
    Tensor o(box);
    for (size_t i = 0; i < parts.size(); ++i)
      TransferBox(mem.In(parts[i], j), shape, src_off, &o, zero, box,
                  /*add=*/i > 0);
    out.push_back(std::move(o));
  }
  return out;
}

// Per-axis ring time for a collective over torus axes of extents `axes`
// (axis order, extents > 1): one ring per axis, all-gathers in axis order,
// reduce-scatters in reverse order. Axis a's ring carries the buffer
// D_a = D / prod_{b > a} k_b in either direction, so it costs
// AllGatherTime(D_a, k_a). The bandwidth terms sum to the flat ring's
// D (K-1)/K and the hops to sum_a (k_a - 1); a single axis is exactly the
// flat AllGatherTime(D, k).
double PerAxisRingTime(const CommCostModel& cost, const std::vector<int>& axes,
                       double bytes) {
  double t = 0;
  for (auto k = axes.rbegin(); k != axes.rend(); ++k) {
    t += cost.AllGatherTime(bytes, *k);
    bytes /= *k;
  }
  return t;
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
         "SpmdContext collectives, not the ShardVec wrappers";
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

void SpmdContext::ChargePipelined(
    const std::vector<ExchangeHub::Deposit>& parts,
    const std::vector<int>& axes, double total_flops,
    double total_weight_bytes, double elems, const char* name) {
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
  t += PerAxisRingTime(cost, {axes.begin(), axes.end() - 1}, bytes / k);
  const double group = static_cast<double>(parts.size());
  m.SetTime(chip_, MaxDepositTime(parts));
  m.BookWork(chip_, total_flops, total_weight_bytes);
  m.ChargeNetwork(chip_, bytes * (group - 1.0) / group);
  m.AdvanceTimeTraced(chip_, t, name);
}

Tensor SpmdContext::AllGather(unsigned mask, Tensor t, int64_t dim) {
  return std::move(AllGatherMany(mask, Lone(std::move(t)), {dim})[0]);
}

Tensor SpmdContext::ReduceScatter(unsigned mask, Tensor t, int64_t dim) {
  return std::move(ReduceScatterMany(mask, Lone(std::move(t)), {dim})[0]);
}

std::vector<Tensor> SpmdContext::AllGatherMany(unsigned mask,
                                               std::vector<Tensor> tensors,
                                               const std::vector<int64_t>& dims) {
  TSI_CHECK(!tensors.empty());
  TSI_CHECK_EQ(tensors.size(), dims.size());
  SpmdExecutor::AxisGroup& g = ex_->GroupFor(chip_, mask);
  if (g.size == 1) return tensors;
  SimMachine& m = *ex_->machine_;
  const Members mem(tensors, dims);
  auto parts = ExchangeTimed(g, PackMembers(std::move(tensors)));
  std::vector<Tensor> out = GatherMembers(parts, mem);
  double bytes = 0;
  for (const Tensor& o : out)
    bytes += static_cast<double>(o.numel()) * m.bytes_per_element();
  Charge(parts, PerAxisRingTime(m.comm_cost(), g.axes, bytes),
         bytes * (static_cast<double>(g.size) - 1.0) / g.size,
         "all-gather(" + AxisName(mask) + ")");
  return out;
}

std::vector<Tensor> SpmdContext::ReduceScatterMany(
    unsigned mask, std::vector<Tensor> tensors,
    const std::vector<int64_t>& dims) {
  TSI_CHECK(!tensors.empty());
  TSI_CHECK_EQ(tensors.size(), dims.size());
  SpmdExecutor::AxisGroup& g = ex_->GroupFor(chip_, mask);
  if (g.size == 1) return tensors;
  SimMachine& m = *ex_->machine_;
  const Members mem(tensors, dims);
  auto parts = ExchangeTimed(g, PackMembers(std::move(tensors)));
  std::vector<Tensor> out = ScatterSumMembers(parts, mem, g.rank);
  // Charged on the *full* per-chip buffers (the D of Appendix A.1).
  const double bytes = static_cast<double>(mem.total) * m.bytes_per_element();
  Charge(parts, PerAxisRingTime(m.comm_cost(), g.axes, bytes),
         bytes * (static_cast<double>(g.size) - 1.0) / g.size,
         "reduce-scatter(" + AxisName(mask) + ")");
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
  double seconds = PerAxisRingTime(cost, g.axes, bytes);
  double egress = bytes * (static_cast<double>(g.size) - 1.0) / g.size;
  Charge(parts, seconds, egress, name);
  m.AdvanceTimeTraced(chip_, seconds, name);
  m.ChargeNetwork(chip_, egress);
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
                                              int64_t concat_dim) {
  TSI_CHECK(!tensors.empty());
  SpmdExecutor::AxisGroup& g = ex_->GroupFor(chip_, mask);
  if (g.size == 1) return tensors;
  SimMachine& m = *ex_->machine_;
  const Members mem(tensors, std::vector<int64_t>(tensors.size(), split_dim));
  const int64_t k = g.size;
  auto parts = ExchangeTimed(g, PackMembers(std::move(tensors)));
  std::vector<Tensor> out;
  out.reserve(mem.shapes.size());
  for (size_t j = 0; j < mem.shapes.size(); ++j) {
    const Shape& shape = mem.shapes[j];
    const auto sd = static_cast<size_t>(mem.dims[j]);
    const auto rank = static_cast<int64_t>(shape.size());
    const int64_t cdi = concat_dim < 0 ? concat_dim + rank : concat_dim;
    TSI_CHECK(cdi >= 0 && cdi < rank) << "concat dim " << concat_dim;
    const auto cd = static_cast<size_t>(cdi);
    TSI_CHECK_EQ(shape[sd] % k, 0)
        << "dim " << shape[sd] << " not divisible into " << k << " chunks";
    // This rank's chunk of every deposit, concatenated in group order.
    Shape box = shape;
    box[sd] = shape[sd] / k;
    Shape out_shape = box;
    out_shape[cd] *= k;
    Tensor o(out_shape);
    Shape src_off(box.size(), 0);
    src_off[sd] = g.rank * box[sd];
    Shape dst_off(box.size(), 0);
    for (const auto& p : parts) {
      TransferBox(mem.In(p, j), shape, src_off, &o, dst_off, box,
                  /*add=*/false);
      dst_off[cd] += box[cd];
    }
    out.push_back(std::move(o));
  }
  // All-to-all uses direct pairwise paths, not a dependent ring: charge the
  // bandwidth factor on the per-chip buffers plus a single hop latency.
  const double bytes = static_cast<double>(mem.total) * m.bytes_per_element();
  Charge(parts, m.comm_cost().AllToAllTime(bytes, g.size),
         bytes * (static_cast<double>(g.size) - 1.0) / g.size,
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
    double weight_byte_width) {
  TSI_CHECK(!ws.empty());
  TSI_CHECK_EQ(tensors.size(), dims.size());
  SpmdExecutor::AxisGroup& g = ex_->GroupFor(chip_, mask);
  SimMachine& m = *ex_->machine_;
  const double rows = static_cast<double>(x.numel() / x.dim(-1));
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
  const Members mem(tensors, dims);
  auto parts = ExchangeTimed(g, PackMembers(std::move(tensors)));
  std::vector<Tensor> out = ScatterSumMembers(parts, mem, g.rank);
  ChargePipelined(parts, g.axes, flops, wbytes,
                  static_cast<double>(mem.total), "looped-matmul-rs");
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
  const Members mem(one, {0});
  auto parts = ExchangeTimed(g, PackMembers(std::move(one)));
  Tensor gathered = std::move(GatherMembers(parts, mem)[0]);
  double flops =
      2.0 * static_cast<double>(gathered.dim(0)) * w.dim(0) * w.dim(1);
  double wbytes = static_cast<double>(w.numel()) * weight_byte_width;
  ChargePipelined(parts, g.axes, flops, wbytes,
                  static_cast<double>(gathered.numel()), "ag-looped-matmul");
  return MatMul(gathered, w);
}

}  // namespace tsi
