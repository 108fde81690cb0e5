// Paged per-chip KV cache for the distributed engine (Ragged Paged
// Attention style, docs/kvcache.md).
//
// Layout depends on the attention sharding (§3.3):
//   * kHeads: every chip caches every slot's head subset -- pages of
//     [page_size, KVshard, dh] per (chip, layer).
//   * kBatch: every chip caches only the slots it owns, with every kv head
//     -- the paper's optimized layout that divides KV memory traffic by
//     n_chips. A slot's pages always live on one chip (its owner).
//
// Storage is a per-chip page pool: fixed-size pages of `page_size` token
// positions (KvCacheConfig), allocated per (chip, layer) and indexed by a
// per-slot page table that is shared across layers (one logical page id
// covers the same position range in every layer). Pages are refcounted:
// ForkSlot(parent, child, prefix_len) shares the pages of a committed
// prefix between two slots (copy-on-write prefix sharing -- system prompts,
// multi-turn history), and the first step that appends into a shared
// boundary page first splits it (copies the page, drops the shared
// reference). ResetSlot dereferences a slot's pages and returns exclusive
// ones to the free list. Capacity is therefore page-granular: internal
// fragmentation is bounded by one page per slot, and identical prefixes are
// stored once (kv/pages_* gauges report in_use/shared/bytes; forks and COW
// splits are counters).
//
// Write protocol (driven by DistributedEngine, one ragged step per forward
// pass):
//   BeginStep(per_chip_slots,      -- declare, per chip, the lanes this
//             per_chip_widths)        step appends: each lane's global slot
//                                     id and its width (positions). Lanes
//                                     may differ in width -- a prefill
//                                     chunk and one-token decode lanes share
//                                     a step. Allocates this step's pages
//                                     and performs any pending COW splits,
//                                     single-threaded, so concurrent Appends
//                                     never reallocate.
//   Append(chip, layer, k, v)      -- once per (chip, layer): the chip's
//                                     lanes' positions back to back, written
//                                     into each slot's pages (chip-local).
//   CommitStep()                   -- validate every declared (chip, layer)
//                                     appended, then advance each slot by its
//                                     lane's width.
// Shape or width mismatches die loudly inside Append/CommitStep. Lanes
// targeting kScratchSlot land in per-lane scratch storage that is discarded
// at the next BeginStep -- the padding lanes a fixed decode frame or a
// batch-divisibility constraint needs.
//
// Reads: Span returns any lane's K or V stream as one PagedKvSpan for
// RaggedPagedAttention (model/attention.h) -- a resident slot through its
// page table, a scratch lane as one page over its step scratch, fp32 or
// int8 as stored, with an optional kv head slice. GatherSpan copies a span
// into one contiguous [1, len, kv, dh] block (the KV migration wire
// format).
#pragma once

#include <cstdint>
#include <vector>

#include "core/layouts.h"
#include "model/attention.h"
#include "quant/int8.h"
#include "tensor/tensor.h"

namespace tsi {

namespace obs {
class MetricsRegistry;
}  // namespace obs

// Which of a lane's two streams Span reads.
enum class KvStream { kK, kV };

// Paged-cache knobs, carried on EngineSpec. `page_size` is the allocation
// granularity in token positions.
struct KvCacheConfig {
  int64_t page_size = 16;
};

// One slot's cached K/V lifted out of a chip's page pool (KV migration
// between disaggregated pools, serve/disagg.h): contiguous per-layer blocks
// plus the geometry needed to adopt them into another cache. The head dim
// is whatever the source chip stored -- a kHeads chip's yz chunk, a kBatch
// owner's full head set; DistributedEngine::ExportSlot assembles chunks
// into full heads before the state crosses pools.
struct SlotPages {
  int64_t len = 0;       // committed token positions
  int64_t kv_heads = 0;  // stored heads per position
  int64_t d_head = 0;
  std::vector<Tensor> k, v;  // [layer] -> [1, len, kv_heads, d_head]
};

class ShardedKvCache {
 public:
  // Rows mapped to this pseudo-slot are computed (padding lanes must flow
  // through the same collectives) but their K/V land in per-lane scratch
  // storage that the next BeginStep discards.
  static constexpr int64_t kScratchSlot = -1;

  ShardedKvCache() = default;
  // `kv_format` selects the storage precision: kBf16 stores fp32 pages
  // (charged at the machine's bytes/element), kInt8 stores int8 pages with
  // per-(position, head) fp32 scales (§3.6/D.3). The two formats are
  // mutually exclusive per cache: Append on an int8 cache and
  // AppendQuantized on an fp32 cache both die loudly (mixed precision).
  ShardedKvCache(int num_chips, int64_t num_layers, AttnSharding sharding,
                 WeightFormat kv_format = WeightFormat::kBf16,
                 KvCacheConfig config = {});

  AttnSharding sharding() const { return sharding_; }
  WeightFormat format() const { return format_; }
  const KvCacheConfig& config() const { return config_; }
  int64_t page_size() const { return config_.page_size; }
  int64_t num_layers() const { return num_layers_; }
  // Max context length over all slots; equals every slot's length on the
  // static whole-batch path (all slots advance together).
  int64_t length() const;
  // Number of slot ids ever targeted (high-water mark).
  int64_t num_slots() const { return static_cast<int64_t>(slot_len_.size()); }
  // Committed context length of one slot; 0 for never-written slots.
  int64_t slot_length(int64_t slot) const;

  // --- Write protocol ------------------------------------------------------
  // per_chip_slots[chip][i] is the global slot id (or kScratchSlot) that lane
  // i of chip `chip`'s appends targets this step, per_chip_widths[chip][i]
  // the positions it appends (> 0). A slot appears at most once per chip;
  // chips with an empty list append nothing. Called outside SPMD regions
  // only (single-threaded): this is where the step's pages are allocated
  // and shared boundary pages are COW-split.
  void BeginStep(std::vector<std::vector<int64_t>> per_chip_slots,
                 std::vector<std::vector<int64_t>> per_chip_widths);
  // Uniform step: every lane appends `t` positions.
  void BeginStep(std::vector<std::vector<int64_t>> per_chip_slots, int64_t t);
  // Appends `k`/`v` for (chip, layer): either [lanes, t, kv, dh] when every
  // declared lane is t wide, or the packed [1, sum of widths, kv, dh] with
  // the lanes' positions back to back in declared order. Safe to call
  // concurrently for distinct chips (each touches only its own page pool).
  void Append(int chip, int64_t layer, const Tensor& k, const Tensor& v);
  // Int8 twin of Append for kInt8 caches: same validation (lanes, widths,
  // shape drift, double append) plus a per-(row, position, head) scale-count
  // check; mismatched scales or a precision mismatch with the cache die
  // loudly.
  void AppendQuantized(int chip, int64_t layer, const QuantizedKv& k,
                       const QuantizedKv& v);
  // Validates the completed step (every declared (chip, layer) appended)
  // and advances each targeted slot by its lane's width. Called outside
  // SPMD regions only.
  void CommitStep();

  // This step's declared lanes for `chip`: slots and widths (valid between
  // BeginStep and CommitStep; the engine's attention maps rows to slots with
  // them).
  const std::vector<int64_t>& step_slots(int chip) const;
  const std::vector<int64_t>& step_widths(int chip) const;

  // --- Prefix sharing ------------------------------------------------------
  // Shares the pages covering `parent`'s first `prefix_len` committed tokens
  // with the (empty) slot `child` and sets the child's length to
  // `prefix_len` -- the child continues from the shared prefix without
  // re-appending it. Shared pages are copy-on-write: the first step that
  // appends into the child's (or parent's) partial boundary page splits it.
  // Dies mid-step, on a non-resident parent, on a prefix beyond the
  // parent's committed length, and on a non-empty child. Under kBatch the
  // child inherits the parent's owner chips -- later steps must keep the
  // child's lane on that owner (BeginStep checks, as for any slot).
  void ForkSlot(int64_t parent, int64_t child, int64_t prefix_len);

  // --- Reads ---------------------------------------------------------------
  // `slot`'s K or V stream on `chip` as a span for RaggedPagedAttention, in
  // the cache's storage format. A resident slot reads through its page
  // table: its committed tokens plus, when it is targeted on `chip`, its
  // lane's appends in the open step (the slot must hold data on this chip:
  // always under kHeads, only on the owner under kBatch). kScratchSlot reads
  // lane `lane`'s step scratch as one page of the lane's width (`lane` is
  // ignored for resident slots). [g0, g0 + gcount) selects a head slice
  // (gcount == -1: every stored head). Borrows the pool's buffers: valid
  // until the next BeginStep / ResetSlot / ForkSlot.
  PagedKvSpan Span(KvStream stream, int chip, int64_t layer, int64_t slot,
                   int64_t lane = -1, int64_t g0 = 0,
                   int64_t gcount = -1) const;

  // Readable context length of `slot` on `chip`: committed tokens, plus its
  // lane's width in the open step when the slot is targeted on this chip.
  int64_t ReadLength(int chip, int64_t slot) const;
  // Physical kv-head count stored per position on this chip (fixed by the
  // first append; identical on every chip that stores data).
  int64_t StoredKvHeads(int chip) const;

  // Dereferences a slot's pages on every chip (returning exclusive pages to
  // the free list) so the slot can be reused by a new sequence. Not valid
  // mid-step; dies on a double reset (page refcount underflow). Out-of-range
  // ids are ignored (never-targeted slots hold nothing).
  void ResetSlot(int64_t slot);

  // --- Page export / import (KV migration, serve/disagg.h) -----------------
  // Whether `slot` holds pages on `chip`: every storing chip under kHeads,
  // only the owner under kBatch.
  bool SlotResidentOn(int chip, int64_t slot) const {
    return SlotResident(chip, slot);
  }
  // Lifts `slot`'s committed pages off `chip` into contiguous per-layer
  // blocks (the migration wire format). Dies mid-step, on an int8 cache
  // (int8 KV migration is unsupported), on a slot not resident on this chip,
  // and on a slot any of whose pages is shared (refcount > 1): shipping a
  // COW prefix would detach it from its fork siblings -- callers must not
  // migrate forked slots.
  SlotPages ExtractSlotPages(int chip, int64_t slot) const;
  // Writes extracted blocks into fresh pages of `slot` on `chip`. The slot
  // must be empty on this chip; the blocks' geometry must match the cache's
  // committed geometry (or fixes it, exactly as a first CommitStep would,
  // when the cache is untouched). Multi-chip layouts adopt chip by chip:
  // the first call sets the slot's committed length, later calls must carry
  // the same length. Dies mid-step, on an int8 cache, and on any geometry,
  // shape, or length mismatch.
  void AdoptSlotPages(int chip, int64_t slot, const SlotPages& pages);

  // Physical page bytes across all chips and layers (committed + this
  // step's pages; shared pages counted once; transient scratch excluded).
  // fp32 caches are counted at `bytes_per_element` width; int8 caches
  // report their actual footprint (1-byte values + fp32 scales) and ignore
  // the parameter. Page-granular: a slot's last partial page counts whole.
  double TotalBytes(double bytes_per_element) const;

  // --- Pool statistics (page granularity; benches and tests) ---------------
  int64_t pages_in_use() const;   // pages referenced by >= 1 slot, all chips
  int64_t pages_shared() const;   // pages referenced by >= 2 slots
  int64_t cow_splits() const { return cow_splits_; }
  int64_t forks() const { return forks_; }

  // Sink for the "kv/" occupancy metrics (slots in use, committed tokens,
  // appended tokens, pages_*). Defaults to MetricsRegistry::Global(); tests
  // plumb an isolated registry here via DistributedEngine::set_metrics.
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

 private:
  // Per (chip, layer) page buffers, indexed by page id. fp32 pages are
  // [page_size, kv, dh] floats; int8 pages add one fp32 scale per
  // (position, head). Buffers are sized lazily by the owning chip's Append
  // (the outer vectors are pre-sized by BeginStep, single-threaded).
  struct LayerPages {
    std::vector<std::vector<float>> k, v;        // fp32 values
    std::vector<std::vector<int8_t>> k8, v8;     // int8 values
    std::vector<std::vector<float>> k8s, v8s;    // int8 scales
    std::vector<Tensor> k_scratch, v_scratch;    // per-lane step scratch
    std::vector<QuantizedKv> k8_scratch, v8_scratch;
  };
  // Per-chip pool bookkeeping: page refcounts, the LIFO free list, and the
  // per-slot page tables (shared by every layer of the chip).
  struct ChipPool {
    std::vector<int32_t> refcount;
    std::vector<int32_t> free_pages;
    std::vector<std::vector<int32_t>> tables;  // [slot] -> page ids
    int64_t kv = -1, dh = -1;  // geometry observed by this chip's appends
  };

  int32_t AllocPage(int c);
  void EnsureLayerCapacity(int c);
  void CowSplitPage(int c, int64_t slot, size_t page_idx);
  bool SlotResident(int chip, int64_t slot) const;
  // Width of `slot`'s lane on `chip` in the open step; 0 when untargeted.
  int64_t StepWidth(int chip, int64_t slot) const;
  // Checks an appended block's leading [d0, d1] dims against the chip's
  // declared lanes (see Append).
  void CheckStepBlock(int chip, int64_t layer, int64_t d0, int64_t d1) const;
  // Geometry for reads on `chip`: committed cache-wide values, or the
  // chip's in-flight observed values during the first step.
  void ReadGeometry(int chip, int64_t* kv, int64_t* dh) const;
  void UpdateOccupancyGauges();

  AttnSharding sharding_ = AttnSharding::kHeads;
  WeightFormat format_ = WeightFormat::kBf16;
  KvCacheConfig config_;
  int num_chips_ = 0;
  int64_t num_layers_ = 0;
  int64_t kv_heads_ = -1;  // fixed by the first committed step
  int64_t d_head_ = -1;
  std::vector<std::vector<LayerPages>> store_;  // [chip][layer]
  std::vector<ChipPool> pool_;                  // [chip]
  std::vector<int64_t> slot_len_;  // committed length per global slot
  int64_t cow_splits_ = 0;
  int64_t forks_ = 0;
  double peak_pages_ = 0, peak_page_bytes_ = 0;

  obs::MetricsRegistry* metrics_ = nullptr;  // nullptr -> Global()

  // In-flight step state.
  bool step_open_ = false;
  std::vector<std::vector<int64_t>> step_slots_;
  std::vector<std::vector<int64_t>> step_widths_;
  std::vector<std::vector<bool>> appended_;  // [chip][layer]
};

}  // namespace tsi
