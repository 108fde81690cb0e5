// Wire-level ring collectives (Appendix A.1 on a torus).
//
// SpmdContext's collectives (sim/spmd.h) produce results "by fiat" and
// charge closed-form time. These implement the actual chunked algorithms
// the charges describe -- one ring per torus axis of the mask, each of its
// k-1 dependent steps moving one block to the ring successor -- so that
//   * the per-axis alpha*(k_a-1) latency terms and the D*(K-1)/K bandwidth
//     term emerge from the step loops instead of being asserted, and
//   * per-link traffic can be audited (every chip sends exactly D*(K-1)/K
//     bytes over its rings; ring_test verifies this and that the results
//     match SpmdContext's).
// The data travels as the group's K chunks, slot r being the chunk group
// rank r owns in SpmdContext's collectives, so chunk ownership matches
// exactly; ring order along an axis is the coordinate order.
//
// These run serially over the whole machine: each takes every chip's
// tensor (`in[chip]`) and returns every chip's result.
#pragma once

#include <vector>

#include "sim/machine.h"
#include "tensor/tensor.h"

namespace tsi {

// One tensor per chip of a SimMachine, indexed by chip id.
using ShardVec = std::vector<Tensor>;

// bytes_sent[i] = total bytes chip i sent to its ring successors.
struct RingTraffic {
  std::vector<double> bytes_sent;
};

// All-gather along `mask`: one ring per axis, in axis order (x, y, z). On
// each axis every chip forwards the block of chunks it holds around the
// ring, so the blocks grow by the axis extent from one axis to the next.
// out[chip] = Concat over the group along `dim`, identical to
// SpmdContext::AllGather(mask, in[chip], dim).
ShardVec RingAllGather(SimMachine& m, const ShardVec& in, unsigned mask,
                       int64_t dim, RingTraffic* traffic = nullptr);

// Reduce-scatter along `mask`: one ring per axis, in reverse axis order. On
// each axis the held chunks split into one block per ring position; block c
// circulates k-1 hops accumulating every member's partial and lands, summed,
// on the member at coordinate c. Equal to SpmdContext::ReduceScatter up to
// float addition order.
ShardVec RingReduceScatter(SimMachine& m, const ShardVec& in, unsigned mask,
                           int64_t dim, RingTraffic* traffic = nullptr);

// All-reduce along `mask`. Over a single 2-chip axis: one exchange, each
// chip sending its full buffer to its peer and both adding in group order
// (bit-identical to SpmdContext::AllReduce). Otherwise RingReduceScatter
// then RingAllGather over the flattened buffers, whose size must divide by
// the group size; equal to SpmdContext::AllReduce up to float addition
// order.
ShardVec RingAllReduce(SimMachine& m, const ShardVec& in, unsigned mask,
                       RingTraffic* traffic = nullptr);

}  // namespace tsi
