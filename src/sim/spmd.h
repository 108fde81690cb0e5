// Parallel lockstep SPMD executor.
//
// SpmdExecutor runs one closure per simulated chip, concurrently, on the
// process-wide thread pool's dedicated SPMD slots (util/threadpool.h). Each
// closure receives an SpmdContext: its chip id plus *charged* collectives
// whose data path is the rendezvous hub (sim/exchange.h) and whose virtual
// clock / traffic accounting is identical to the serial lockstep formulas
// in sim/collectives.cc. Collectives are the barrier points: a chip that
// reaches one parks until its whole torus group has arrived, so program
// order across chips is exactly the serial lockstep order as observed
// through any collective.
//
// Determinism contract (asserted by tests/spmd_test.cc): a chip's output is
// a pure function of its own shard and collective-delivered data; reductions
// add in torus group order; a collective's entry barrier is the max over the
// group's deposited clocks (order-independent). Therefore 1-slot and N-slot
// runs produce bit-identical tensors, virtual clocks, counters, and traces.
//
// Slot sizing: by default one execution slot per thread-pool participant
// (TSI_NUM_THREADS, else the hardware concurrency); TSI_SPMD_SLOTS overrides
// it directly. A SlotGate bounds how many chip closures compute at once --
// a parked chip (waiting in a rendezvous) does not hold a slot -- so a mesh
// with more chips than cores neither deadlocks nor oversubscribes, and
// slots=1 is an honest serialized baseline for the wall-clock benchmarks.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/exchange.h"
#include "sim/machine.h"
#include "tensor/tensor.h"

namespace tsi {

class SpmdContext;

class SpmdExecutor {
 public:
  // `machine` must outlive the executor.
  explicit SpmdExecutor(SimMachine* machine);

  int slots() const { return slots_; }
  // slots >= 1 forces a slot count; slots <= 0 restores the default
  // (TSI_SPMD_SLOTS, else the thread pool's participant count).
  void set_slots(int slots);

  // Runs `body` once per chip, concurrently (bounded by slots()), and
  // returns when every chip has finished. Bodies may only touch chip-local
  // state plus what the context's collectives deliver. Regions must not
  // nest: inside a body, use the SpmdContext collectives, never another
  // Run (or the ShardVec wrappers in sim/collectives.h, which open their
  // own region).
  void Run(const std::function<void(SpmdContext&)>& body);

  SimMachine& machine() const { return *machine_; }

 private:
  friend class SpmdContext;

  // Resolved (rank, size, channel, axis extents) for one (chip, axis-mask)
  // pair, cached so steady-state collectives skip the group-list allocation
  // and the hub's registry lookup. Each entry is only touched by its chip's
  // thread (RunBlocking's chip -> slot-thread mapping is fixed).
  struct AxisGroup {
    int rank = 0;
    int size = 0;
    ExchangeHub::Channel* channel = nullptr;
    // Extents of the mask's torus axes that exceed 1, in axis order
    // (x, y, z); their product is `size`. The charges run one ring each.
    std::vector<int> axes;
  };

  AxisGroup& GroupFor(int chip, unsigned mask);

  SimMachine* machine_;
  ExchangeHub hub_;
  SlotGate* gate_ = nullptr;  // non-null only during Run
  int slots_;
  // Indexed [chip][mask]; axis masks are 3-bit combinations (1..7).
  std::vector<std::array<std::unique_ptr<AxisGroup>, 8>> group_cache_;
};

// One chip's view of an executing SPMD region: identity plus charged
// collectives. Semantics match sim/collectives.h and sim/collective_einsum.h
// exactly (same group order, same chunk assignment, same float add order).
//
// Charging follows the algorithm a torus runs (Appendix A.1, one ring per
// axis; sim/ring.h implements each one on the wire). A collective over axes
// of extents k_1..k_n runs one ring per axis: all-gathers in axis order,
// reduce-scatters in reverse order, each axis a paying
// AllGatherTime(D_a, k_a) on its buffer D_a = D / prod_{b > a} k_b. The
// bytes sum to the flat ring's D (K-1)/K; the hop latency is
// sum_a (k_a - 1) instead of prod_a k_a - 1. An all-reduce is the per-axis
// reduce-scatter then the per-axis all-gather, except over a single 2-chip
// axis, where it is one exchange of the full buffer: hop + D / bw with
// egress D, RS + AG's bytes in one hop.
class SpmdContext {
 public:
  int chip() const { return chip_; }
  SimMachine& machine() const { return *ex_->machine_; }
  const Torus3D& topo() const { return ex_->machine_->topo(); }

  // out = Concat(dim, deposits in group order); replicated in group.
  Tensor AllGather(unsigned mask, Tensor t, int64_t dim);
  // Group-order sum, then this chip keeps its rank's chunk along `dim`.
  Tensor ReduceScatter(unsigned mask, Tensor t, int64_t dim);

  // Per-rank extents along a split dimension, in group order: rank r's
  // share is extents[r] rows (or columns). Empty means the even split.
  using Extents = std::vector<int64_t>;

  // Tuple collectives: member i behaves exactly like the single-tensor call
  // on tensors[i] along dims[i] (same chunk assignment, same group-order
  // float adds), but all members travel packed in ONE deposit through ONE
  // rendezvous and are charged as ONE collective: one latency term (the
  // per-axis rings' hops for the ring collectives, one hop for the
  // all-to-all) plus the bandwidth term on the members' summed bytes, one
  // trace event under the single-tensor name. A lone member travels as
  // itself: the single-tensor calls are this with one member.
  //
  // Ragged splits: `extents[i]` (when given and non-empty) sets member i's
  // per-rank extents along dims[i] -- the rows each rank keeps after a
  // reduce-scatter, or deposits into an all-gather -- and every rank passes
  // the same extents. An even split is the case of equal extents. A ragged
  // collective is charged as its busiest member: the per-chip buffer in the
  // charge is k times the largest rank share (integer elements, so equal
  // shares charge exactly the even formula). Each chip's egress is its
  // actual bytes: the buffer less its own share.
  std::vector<Tensor> AllGatherMany(unsigned mask, std::vector<Tensor> tensors,
                                    const std::vector<int64_t>& dims,
                                    const std::vector<Extents>& extents = {});
  std::vector<Tensor> ReduceScatterMany(
      unsigned mask, std::vector<Tensor> tensors,
      const std::vector<int64_t>& dims,
      const std::vector<Extents>& extents = {});
  // Every member resharded from `split_dim` to `concat_dim`, one hop.
  // `split_extents` are the rows each rank receives along `split_dim`;
  // `concat_extents` the rows each rank deposits along `concat_dim` (both
  // shared by every member). The charge is k times the largest block any
  // rank sends to any other; egress is the deposit less the kept block.
  std::vector<Tensor> AllToAllMany(unsigned mask, std::vector<Tensor> tensors,
                                   int64_t split_dim, int64_t concat_dim,
                                   const Extents& split_extents = {},
                                   const Extents& concat_extents = {});
  // Group-order sum, replicated; charged as an exchange over one 2-chip
  // axis, else as the per-axis RS + AG (two trace events).
  Tensor AllReduce(unsigned mask, Tensor t);
  // The all-reduce of [rows, E] partial sums over a single 2-chip axis when
  // each row's owner holds a term the other rank lacks (replication site 3,
  // core/replication.h: the owner projects every head's attention output
  // for its rows). The rows run in segments owned alternately: segment s is
  // `segments[s]` rows of rank s % 2, and a rank's own rows are its
  // segments in row order (n rows).
  //   partial [N, E]: this rank's partial at every row, less `own` at its
  //                   own rows; or empty (every rank alike) when it has no
  //                   partial beyond its own rows.
  //   own     [n, E]: this rank's term at its own rows.
  //   side    [n, E]: the other rank's term at this rank's own rows.
  // Every rank returns, for every row, P_0 + P_1 in group order, where
  // P_r = partial_r + own_r at r's rows and partial_r + side_o at the rows
  // o owns (own_r / side_o alone without a partial): AllReduce of those
  // recombined partials, bit for bit. One exchange: a rank deposits its
  // partial with its own rows completed (or just `own`) followed by `side`;
  // charged one hop plus the larger deposit over the link, egress its own
  // deposit, one trace event under AllReduce's name.
  Tensor AllReduceOwnedRows(unsigned mask, const Tensor& partial,
                            const Tensor& own, const Tensor& side,
                            const Extents& segments);
  // Reshards from `split_dim` to `concat_dim` within the group.
  Tensor AllToAll(unsigned mask, Tensor t, int64_t split_dim,
                  int64_t concat_dim);

  // Fused y = ReduceScatter(mask, x @ w) over the output's last dim, charged
  // with the §3.5 pipelined schedule (sim/collective_einsum.h).
  Tensor MatMulReduceScatter(unsigned mask, const Tensor& x, const Tensor& w,
                             double weight_byte_width = 2.0);
  // The tuple form: ReduceScatterMany(mask, {tensors..., x @ *ws[0], ...},
  // {dims..., -1, ...}, extents) with the matmuls pipelined under the ring.
  // The already computed `tensors` ride in the same deposit, so the whole
  // tuple is charged as ONE pipelined collective over the summed bytes (the
  // busiest member's, for ragged `extents` of the carried members; the
  // matmul outputs split evenly).
  std::vector<Tensor> MatMulReduceScatterMany(
      unsigned mask, std::vector<Tensor> tensors, std::vector<int64_t> dims,
      const Tensor& x, const std::vector<const Tensor*>& ws,
      double weight_byte_width = 2.0,
      const std::vector<Extents>& extents = {});
  // Fused y = AllGather(mask, x) @ w over the row dim, pipelined charge.
  Tensor AllGatherMatMul(unsigned mask, const Tensor& x, const Tensor& w,
                         double weight_byte_width = 2.0);

 private:
  friend class SpmdExecutor;
  SpmdContext(SpmdExecutor* ex, int chip) : ex_(ex), chip_(chip) {}

  // Rendezvous with this chip's `mask` group, stamping the deposit with the
  // chip's clock and releasing the execution slot while parked.
  std::vector<ExchangeHub::Deposit> ExchangeTimed(SpmdExecutor::AxisGroup& g,
                                                  Tensor t);
  // Entry barrier + Appendix-A charge: clock jumps to the max deposited
  // time, advances by `seconds` (traced as `name`), books `egress_bytes`.
  void Charge(const std::vector<ExchangeHub::Deposit>& parts, double seconds,
              double egress_bytes, const std::string& name);
  // Charge of a ring collective whose ranks hold `shares` elements of its
  // buffer: the per-axis rings on k times the largest share (the busiest
  // member; the whole buffer when the shares are equal), egress the buffer
  // less this rank's share.
  void ChargeRing(const std::vector<ExchangeHub::Deposit>& parts,
                  const SpmdExecutor::AxisGroup& g,
                  const std::vector<int64_t>& shares, const std::string& name);
  // Entry barrier + pipelined fused-einsum charge (sim/collective_einsum.h)
  // over the per-axis rings of `axes`, for a collective on a buffer of
  // `elems` elements per chip of which this chip sends `egress_elems`.
  void ChargePipelined(const std::vector<ExchangeHub::Deposit>& parts,
                       const std::vector<int>& axes, double total_flops,
                       double total_weight_bytes, double elems,
                       double egress_elems, const char* name);

  SpmdExecutor* ex_;
  int chip_;
};

}  // namespace tsi
