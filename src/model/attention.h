// Scaled-dot-product attention: the contiguous kernel the single-chip
// reference model runs, and the ragged paged kernel the distributed engine
// runs per shard (over a head subset when sharded by heads, over a batch
// subset when sharded by batch, §3.3) on its KV cache's pages.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace tsi {

// q:      [B, Tq, H, dh]
// k, v:   [B, Tkv, KV, dh]   (KV == 1 for multiquery; KV == H for multihead;
//                             any divisor of H acts as grouped-query)
// Returns [B, Tq, H, dh]. Query head h reads kv head h*KV/H. When `causal`,
// query position i attends to kv positions <= i + (Tkv - Tq), i.e. the
// standard mask when the q block is the suffix of the kv block.
Tensor ScaledDotProductAttention(const Tensor& q, const Tensor& k,
                                 const Tensor& v, bool causal);

// --- Ragged paged attention (Ragged Paged Attention style) ---------------
// One sequence's K or V stream through a page table: page p holds a
// [page_size, kv_stride, d_head] block, of which positions
// [p*page_size, min((p+1)*page_size, len)) are valid. `kv_stride` is the
// physical head count stored per position; [head_offset, head_offset +
// kv_heads) is the slice visible to the kernel (the engine's grouped-query
// head-group selection, normally the whole stride). An fp32 span fills
// `pages`; an int8 span (§3.6/D.3) fills `pages8` with int8 values and
// `scales` with one fp32 scale per (position, physical head) of each page,
// and each element reads as float(int8 * scale) -- exactly the value
// Dequantize produces. A contiguous block is a one-page span with
// page_size == len. The view borrows its buffers -- the cache's pages are
// valid only while no append/reset/fork runs.
struct PagedKvSpan {
  std::vector<const float*> pages;
  std::vector<const int8_t*> pages8;
  std::vector<const float*> scales;
  int64_t len = 0;
  int64_t page_size = 0;
  int64_t kv_stride = 0;
  int64_t head_offset = 0;
  int64_t kv_heads = 0;
  int64_t d_head = 0;

  bool int8() const { return !pages8.empty(); }
};

// One sequence of a ragged batch: its `width` query rows are the suffix of
// its `k`/`v` spans (causal: row i attends to positions <= i + len - width).
struct RaggedLane {
  int64_t width = 0;
  PagedKvSpan k, v;
};

// Causal attention for every lane in one call. q is [rows, H, dh] with the
// lanes' rows back to back in order (rows == sum of widths); returns
// [rows, H, dh]. Query head h reads kv head h*KV/H of the lane's head
// slice (KV == kv_heads). Each (lane, head) pair is
// ScaledDotProductAttention's streaming loop with the kv rows resolved
// through the page table (page j/page_size, offset j%page_size) and int8
// dequantized as read: the j-order, each score's d-order chain and the
// softmax/weighted-sum passes are the contiguous kernel's, so every lane is
// bit-identical to ScaledDotProductAttention on GatherSpan(k),
// GatherSpan(v) (tests/fastpath_test.cc pins this).
Tensor RaggedPagedAttention(const Tensor& q,
                            const std::vector<RaggedLane>& lanes);

// A span's visible heads as one contiguous [1, len, kv_heads, d_head] fp32
// block (int8 spans dequantized as read): the KV migration wire format.
Tensor GatherSpan(const PagedKvSpan& span);

}  // namespace tsi
