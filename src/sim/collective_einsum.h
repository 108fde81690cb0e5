// Looped CollectiveEinsum (§3.5; Wang et al. 2023).
//
// The paper's dominant low-level optimization: instead of computing a full
// partial-sum matmul and then reduce-scattering it (compute time + comm
// time), the matmul is split into K chunks interleaved with the K-1 ring
// steps so communication hides under the next chunk's compute. We implement
// the fused operation functionally (numerics identical to the unfused
// matmul + collective) and charge *pipelined* time on the virtual clock:
//
//   unfused:   T = T_compute + T_comm
//   fused:     T = t_chunk + sum over K-1 steps of max(t_chunk, t_step)
//
// which approaches max(T_compute, T_comm) for large K -- the overlap the
// analytic model's `overlap_fraction` summarizes. bench_ablation_fusion
// measures the gain across shapes. Over several torus axes the collective
// runs one ring per axis (sim/spmd.h): the matmul is chunked over the ring
// of the mask's last axis, which carries the full buffer, and the other
// axes' rings follow as plain ring steps -- the same per-axis hops as the
// unfused collective, never more.
#pragma once

#include <vector>

#include "sim/collectives.h"
#include "sim/machine.h"
#include "tensor/tensor.h"

namespace tsi {

// Fused y = ReduceScatter(mask, x @ w) over the output's last dim.
// x[chip]: [rows, k_in]; w[chip]: [k_in, cols] (the chip's stationary weight
// shard; partial sums over `mask`). Result: [rows, cols / group_size] like
// ReduceScatter(m, {MatMul(x, w)}, mask, 1). `weight_bytes` charges the HBM
// stream for each chip's w.
ShardVec MatMulReduceScatter(SimMachine& m, const ShardVec& x,
                             const ShardVec& w, unsigned mask,
                             double weight_byte_width = 2.0);

// Fused y = AllGather(mask, x) @ w: gathers the row-sharded activations
// while multiplying already-arrived chunks. x[chip]: [rows / group, k_in];
// w[chip]: [k_in, cols]. Result: [rows, cols].
ShardVec AllGatherMatMul(SimMachine& m, const ShardVec& x, const ShardVec& w,
                         unsigned mask, double weight_byte_width = 2.0);

}  // namespace tsi
