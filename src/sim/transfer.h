// Box-copy helper shared by the data paths of the threaded runtime
// (sim/threaded.cc) and the parallel SPMD executor (sim/spmd.cc).
#pragma once

#include "tensor/tensor.h"

namespace tsi {

// Copies (or accumulates, when `add`) a box of `box` elements from `src` at
// multi-index offset `src_off` into `dst` at `dst_off`. Shapes are row-major;
// the last dim is contiguous in both tensors, so the inner loop runs over
// box.back()-element rows (memcpy when copying). This one helper subsumes
// the Chunk/Concat temporaries the collectives used to allocate: gather
// places whole deposits, all-to-all places sub-chunks, reduce accumulates.
void TransferBox(const Tensor& src, const Shape& src_off, Tensor* dst,
                 const Shape& dst_off, const Shape& box, bool add);

// Same, reading the source as a row-major `src_shape` tensor stored at
// `src` (e.g. one member of a packed collective deposit).
void TransferBox(const float* src, const Shape& src_shape,
                 const Shape& src_off, Tensor* dst, const Shape& dst_off,
                 const Shape& box, bool add);

}  // namespace tsi
