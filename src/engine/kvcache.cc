#include "engine/kvcache.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "util/logging.h"
#include "util/metrics.h"

namespace tsi {

namespace {
int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }
}  // namespace

void ShardedKvCache::UpdateOccupancyGauges() {
  obs::MetricsRegistry& m = metrics_ ? *metrics_ : obs::MetricsRegistry::Global();
  int64_t in_use = 0, committed = 0;
  for (int64_t len : slot_len_) {
    if (len > 0) ++in_use;
    committed += len;
  }
  m.GetGauge("kv/slots_in_use")->Set(static_cast<double>(in_use));
  m.GetGauge("kv/committed_tokens")->Set(static_cast<double>(committed));
  const double pages = static_cast<double>(pages_in_use());
  const double bytes = TotalBytes(2.0);
  peak_pages_ = std::max(peak_pages_, pages);
  peak_page_bytes_ = std::max(peak_page_bytes_, bytes);
  m.GetGauge("kv/pages_in_use")->Set(pages);
  m.GetGauge("kv/pages_shared")->Set(static_cast<double>(pages_shared()));
  m.GetGauge("kv/pages_bytes")->Set(bytes);
  m.GetGauge("kv/pages_peak")->Set(peak_pages_);
  m.GetGauge("kv/pages_bytes_peak")->Set(peak_page_bytes_);
}

ShardedKvCache::ShardedKvCache(int num_chips, int64_t num_layers,
                               AttnSharding sharding, WeightFormat kv_format,
                               KvCacheConfig config)
    : sharding_(sharding),
      format_(kv_format),
      config_(config),
      num_chips_(num_chips),
      num_layers_(num_layers) {
  TSI_CHECK_GT(config_.page_size, 0) << "page size must be positive";
  store_.assign(static_cast<size_t>(num_chips),
                std::vector<LayerPages>(static_cast<size_t>(num_layers)));
  pool_.assign(static_cast<size_t>(num_chips), ChipPool{});
}

int64_t ShardedKvCache::length() const {
  int64_t mx = 0;
  for (int64_t l : slot_len_) mx = std::max(mx, l);
  return mx;
}

int64_t ShardedKvCache::slot_length(int64_t slot) const {
  if (slot < 0 || slot >= num_slots()) return 0;
  return slot_len_[static_cast<size_t>(slot)];
}

bool ShardedKvCache::SlotResident(int chip, int64_t slot) const {
  const ChipPool& pool = pool_[static_cast<size_t>(chip)];
  return static_cast<int64_t>(pool.tables.size()) > slot &&
         !pool.tables[static_cast<size_t>(slot)].empty();
}

int64_t ShardedKvCache::StepWidth(int chip, int64_t slot) const {
  if (!step_open_) return 0;
  const auto& targets = step_slots_[static_cast<size_t>(chip)];
  const auto it = std::find(targets.begin(), targets.end(), slot);
  if (it == targets.end()) return 0;
  return step_widths_[static_cast<size_t>(chip)]
                     [static_cast<size_t>(it - targets.begin())];
}

int64_t ShardedKvCache::ReadLength(int chip, int64_t slot) const {
  return slot_length(slot) + StepWidth(chip, slot);
}

void ShardedKvCache::ReadGeometry(int chip, int64_t* kv, int64_t* dh) const {
  if (kv_heads_ >= 0) {
    *kv = kv_heads_;
    *dh = d_head_;
    return;
  }
  const ChipPool& pool = pool_[static_cast<size_t>(chip)];
  TSI_CHECK_GE(pool.kv, 0) << "kv geometry unknown on chip " << chip
                           << " (nothing appended yet)";
  *kv = pool.kv;
  *dh = pool.dh;
}

int64_t ShardedKvCache::StoredKvHeads(int chip) const {
  int64_t kv = 0, dh = 0;
  ReadGeometry(chip, &kv, &dh);
  return kv;
}

int32_t ShardedKvCache::AllocPage(int c) {
  ChipPool& pool = pool_[static_cast<size_t>(c)];
  if (!pool.free_pages.empty()) {
    const int32_t id = pool.free_pages.back();
    pool.free_pages.pop_back();
    pool.refcount[static_cast<size_t>(id)] = 1;
    return id;
  }
  pool.refcount.push_back(1);
  return static_cast<int32_t>(pool.refcount.size()) - 1;
}

void ShardedKvCache::EnsureLayerCapacity(int c) {
  const size_t cap = pool_[static_cast<size_t>(c)].refcount.size();
  for (LayerPages& lp : store_[static_cast<size_t>(c)]) {
    if (format_ == WeightFormat::kInt8) {
      lp.k8.resize(cap);
      lp.v8.resize(cap);
      lp.k8s.resize(cap);
      lp.v8s.resize(cap);
    } else {
      lp.k.resize(cap);
      lp.v.resize(cap);
    }
  }
}

// Copy-on-write split of a shared page: the slot gets a private copy of the
// boundary page (in every layer) before the step writes into it, and drops
// its reference on the shared original. Single-threaded (BeginStep).
void ShardedKvCache::CowSplitPage(int c, int64_t slot, size_t page_idx) {
  ChipPool& pool = pool_[static_cast<size_t>(c)];
  std::vector<int32_t>& table = pool.tables[static_cast<size_t>(slot)];
  const int32_t old_id = table[page_idx];
  TSI_CHECK_GT(pool.refcount[static_cast<size_t>(old_id)], 1);
  const int32_t new_id = AllocPage(c);
  EnsureLayerCapacity(c);
  for (LayerPages& lp : store_[static_cast<size_t>(c)]) {
    if (format_ == WeightFormat::kInt8) {
      lp.k8[static_cast<size_t>(new_id)] = lp.k8[static_cast<size_t>(old_id)];
      lp.v8[static_cast<size_t>(new_id)] = lp.v8[static_cast<size_t>(old_id)];
      lp.k8s[static_cast<size_t>(new_id)] = lp.k8s[static_cast<size_t>(old_id)];
      lp.v8s[static_cast<size_t>(new_id)] = lp.v8s[static_cast<size_t>(old_id)];
    } else {
      lp.k[static_cast<size_t>(new_id)] = lp.k[static_cast<size_t>(old_id)];
      lp.v[static_cast<size_t>(new_id)] = lp.v[static_cast<size_t>(old_id)];
    }
  }
  --pool.refcount[static_cast<size_t>(old_id)];
  table[page_idx] = new_id;
  ++cow_splits_;
  obs::MetricsRegistry& m = metrics_ ? *metrics_ : obs::MetricsRegistry::Global();
  m.GetCounter("kv/cow_splits")->Add(1);
}

void ShardedKvCache::BeginStep(std::vector<std::vector<int64_t>> per_chip_slots,
                               int64_t t) {
  std::vector<std::vector<int64_t>> widths;
  widths.reserve(per_chip_slots.size());
  for (const auto& slots : per_chip_slots) widths.emplace_back(slots.size(), t);
  BeginStep(std::move(per_chip_slots), std::move(widths));
}

void ShardedKvCache::BeginStep(std::vector<std::vector<int64_t>> per_chip_slots,
                               std::vector<std::vector<int64_t>> per_chip_widths) {
  TSI_CHECK(!step_open_) << "BeginStep with a step already open (missing CommitStep)";
  TSI_CHECK_EQ(static_cast<int>(per_chip_slots.size()), num_chips_);
  TSI_CHECK_EQ(static_cast<int>(per_chip_widths.size()), num_chips_);
  const int64_t ps = config_.page_size;
  // A slot stored on several chips (kHeads) advances once, by one width.
  std::unordered_map<int64_t, int64_t> slot_width;
  for (int c = 0; c < num_chips_; ++c) {
    ChipPool& pool = pool_[static_cast<size_t>(c)];
    const auto& slots = per_chip_slots[static_cast<size_t>(c)];
    const auto& widths = per_chip_widths[static_cast<size_t>(c)];
    TSI_CHECK_EQ(slots.size(), widths.size())
        << "one width per declared lane on chip " << c;
    std::unordered_set<int64_t> seen;
    for (size_t i = 0; i < slots.size(); ++i) {
      const int64_t slot = slots[i], t = widths[i];
      TSI_CHECK_GT(t, 0) << "step width must be positive";
      if (slot == kScratchSlot) continue;
      TSI_CHECK_GE(slot, 0) << "slot ids are non-negative (or kScratchSlot)";
      TSI_CHECK(seen.insert(slot).second)
          << "slot " << slot << " targeted by two lanes of chip " << c
          << " in one step";
      TSI_CHECK_EQ(slot_width.emplace(slot, t).first->second, t)
          << "slot " << slot << " declared with different widths on two chips";
      if (static_cast<int64_t>(slot_len_.size()) <= slot)
        slot_len_.resize(static_cast<size_t>(slot) + 1, 0);
      if (static_cast<int64_t>(pool.tables.size()) <= slot)
        pool.tables.resize(static_cast<size_t>(slot) + 1);
      const int64_t len = slot_len_[static_cast<size_t>(slot)];
      // A slot with committed context must already be resident on every chip
      // that targets it: under kBatch a sequence's pages live on one owner
      // chip, so a lane migrating to another chip would silently split the
      // sequence across caches.
      if (len > 0) {
        TSI_CHECK(SlotResident(c, slot))
            << "slot " << slot << " has cached context but is not resident on "
            << "chip " << c << " (lane/owner mismatch)";
      }
      std::vector<int32_t>& table = pool.tables[static_cast<size_t>(slot)];
      TSI_CHECK_EQ(static_cast<int64_t>(table.size()), CeilDiv(len, ps))
          << "page table out of sync for slot " << slot << " on chip " << c;
      // COW: this step writes into the boundary page starting at position
      // `len`; if that page is shared with another slot (a forked prefix),
      // split it now so the append cannot leak into the sibling.
      if (len % ps != 0 &&
          pool.refcount[static_cast<size_t>(table[static_cast<size_t>(
              len / ps)])] > 1) {
        CowSplitPage(c, slot, static_cast<size_t>(len / ps));
      }
      // Allocate the rest of the step's pages (exclusive by construction).
      const int64_t needed = CeilDiv(len + t, ps);
      while (static_cast<int64_t>(table.size()) < needed)
        table.push_back(AllocPage(c));
    }
    // Pre-size the per-layer page vectors single-threaded so concurrent
    // Appends never reallocate them; buffers themselves stay chip-local.
    EnsureLayerCapacity(c);
    for (LayerPages& lp : store_[static_cast<size_t>(c)]) {
      // Discard the previous step's padding lanes.
      if (format_ == WeightFormat::kInt8) {
        lp.k8_scratch.assign(per_chip_slots[static_cast<size_t>(c)].size(), {});
        lp.v8_scratch.assign(per_chip_slots[static_cast<size_t>(c)].size(), {});
      } else {
        lp.k_scratch.assign(per_chip_slots[static_cast<size_t>(c)].size(), {});
        lp.v_scratch.assign(per_chip_slots[static_cast<size_t>(c)].size(), {});
      }
    }
  }
  step_slots_ = std::move(per_chip_slots);
  step_widths_ = std::move(per_chip_widths);
  appended_.assign(static_cast<size_t>(num_chips_),
                   std::vector<bool>(static_cast<size_t>(num_layers_), false));
  step_open_ = true;
}

void ShardedKvCache::Append(int chip, int64_t layer, const Tensor& k,
                            const Tensor& v) {
  TSI_CHECK(format_ == WeightFormat::kBf16)
      << "mixed-precision append: fp32 Append into an int8 KV cache "
      << "(use AppendQuantized)";
  TSI_CHECK(step_open_) << "Append outside a BeginStep/CommitStep window";
  TSI_CHECK(chip >= 0 && chip < num_chips_) << "chip out of range";
  TSI_CHECK(layer >= 0 && layer < num_layers_) << "layer out of range";
  TSI_CHECK_EQ(k.rank(), 4);
  TSI_CHECK(k.SameShape(v)) << "K/V shape mismatch: " << ShapeToString(k.shape())
                            << " vs " << ShapeToString(v.shape());
  CheckStepBlock(chip, layer, k.dim(0), k.dim(1));
  const auto& targets = step_slots_[static_cast<size_t>(chip)];
  const auto& widths = step_widths_[static_cast<size_t>(chip)];
  const int64_t kv = k.dim(2), dh = k.dim(3);
  // kv_heads_/d_head_ are fixed by CommitStep (single-threaded); Append runs
  // concurrently across chips and must not write shared fields -- each chip
  // records its observed geometry chip-locally instead.
  if (kv_heads_ >= 0) {
    TSI_CHECK(kv == kv_heads_ && dh == d_head_)
        << "kv/d_head shape drift: got [" << kv << ", " << dh
        << "], cache holds [" << kv_heads_ << ", " << d_head_ << "]";
  }
  ChipPool& pool = pool_[static_cast<size_t>(chip)];
  if (pool.kv >= 0) {
    TSI_CHECK(kv == pool.kv && dh == pool.dh)
        << "kv/d_head shape drift: got [" << kv << ", " << dh
        << "], cache holds [" << pool.kv << ", " << pool.dh << "]";
  } else {
    pool.kv = kv;
    pool.dh = dh;
  }
  TSI_CHECK(!appended_[static_cast<size_t>(chip)][static_cast<size_t>(layer)])
      << "double append for chip " << chip << " layer " << layer;
  appended_[static_cast<size_t>(chip)][static_cast<size_t>(layer)] = true;

  const int64_t ps = config_.page_size;
  const int64_t row_elems = kv * dh;  // one position's block
  const size_t page_elems = static_cast<size_t>(ps * row_elems);
  LayerPages& lp = store_[static_cast<size_t>(chip)][static_cast<size_t>(layer)];
  int64_t first = 0;  // the lane's first position in the block
  for (size_t i = 0; i < targets.size(); ++i) {
    const int64_t slot = targets[i], w = widths[i];
    if (slot == kScratchSlot) {
      Tensor ks({1, w, kv, dh}), vs({1, w, kv, dh});
      std::memcpy(ks.data(), k.data() + first * row_elems,
                  static_cast<size_t>(w * row_elems) * sizeof(float));
      std::memcpy(vs.data(), v.data() + first * row_elems,
                  static_cast<size_t>(w * row_elems) * sizeof(float));
      lp.k_scratch[i] = std::move(ks);
      lp.v_scratch[i] = std::move(vs);
      first += w;
      continue;
    }
    const int64_t len0 = slot_len_[static_cast<size_t>(slot)];
    const std::vector<int32_t>& table = pool.tables[static_cast<size_t>(slot)];
    for (int64_t tt = 0; tt < w; ++tt) {
      const int64_t pos = len0 + tt;
      const auto page = static_cast<size_t>(table[static_cast<size_t>(pos / ps)]);
      TSI_CHECK_EQ(pool.refcount[page], 1)
          << "append into a shared page of slot " << slot
          << " (COW split never committed)";
      std::vector<float>& pk = lp.k[page];
      std::vector<float>& pv = lp.v[page];
      if (pk.empty()) pk.resize(page_elems, 0.0f);
      if (pv.empty()) pv.resize(page_elems, 0.0f);
      const int64_t src = (first + tt) * row_elems;
      const int64_t dst = (pos % ps) * row_elems;
      std::memcpy(pk.data() + dst, k.data() + src,
                  static_cast<size_t>(row_elems) * sizeof(float));
      std::memcpy(pv.data() + dst, v.data() + src,
                  static_cast<size_t>(row_elems) * sizeof(float));
    }
    first += w;
  }
}

void ShardedKvCache::AppendQuantized(int chip, int64_t layer,
                                     const QuantizedKv& k,
                                     const QuantizedKv& v) {
  TSI_CHECK(format_ == WeightFormat::kInt8)
      << "mixed-precision append: AppendQuantized into an fp32 KV cache "
      << "(use Append)";
  TSI_CHECK(step_open_) << "Append outside a BeginStep/CommitStep window";
  TSI_CHECK(chip >= 0 && chip < num_chips_) << "chip out of range";
  TSI_CHECK(layer >= 0 && layer < num_layers_) << "layer out of range";
  TSI_CHECK_EQ(static_cast<int64_t>(k.shape.size()), 4);
  TSI_CHECK(k.shape == v.shape)
      << "K/V shape mismatch: " << ShapeToString(k.shape) << " vs "
      << ShapeToString(v.shape);
  // One scale per (row, position, head) -- a mismatched scale vector would
  // silently rescale every later read, so it dies here.
  TSI_CHECK_EQ(static_cast<int64_t>(k.scales.size()),
               k.rows() * k.t() * k.kv_heads())
      << "mismatched scale count for the appended K block";
  TSI_CHECK_EQ(static_cast<int64_t>(v.scales.size()),
               v.rows() * v.t() * v.kv_heads())
      << "mismatched scale count for the appended V block";
  CheckStepBlock(chip, layer, k.rows(), k.t());
  const auto& targets = step_slots_[static_cast<size_t>(chip)];
  const auto& widths = step_widths_[static_cast<size_t>(chip)];
  const int64_t kv = k.kv_heads(), dh = k.d_head();
  if (kv_heads_ >= 0) {
    TSI_CHECK(kv == kv_heads_ && dh == d_head_)
        << "kv/d_head shape drift: got [" << kv << ", " << dh
        << "], cache holds [" << kv_heads_ << ", " << d_head_ << "]";
  }
  ChipPool& pool = pool_[static_cast<size_t>(chip)];
  if (pool.kv >= 0) {
    TSI_CHECK(kv == pool.kv && dh == pool.dh)
        << "kv/d_head shape drift: got [" << kv << ", " << dh
        << "], cache holds [" << pool.kv << ", " << pool.dh << "]";
  } else {
    pool.kv = kv;
    pool.dh = dh;
  }
  TSI_CHECK(!appended_[static_cast<size_t>(chip)][static_cast<size_t>(layer)])
      << "double append for chip " << chip << " layer " << layer;
  appended_[static_cast<size_t>(chip)][static_cast<size_t>(layer)] = true;

  const int64_t ps = config_.page_size;
  const int64_t row_elems = kv * dh;
  LayerPages& lp = store_[static_cast<size_t>(chip)][static_cast<size_t>(layer)];
  int64_t first = 0;  // the lane's first position in the block
  for (size_t i = 0; i < targets.size(); ++i) {
    const int64_t slot = targets[i], w = widths[i];
    if (slot == kScratchSlot) {
      lp.k8_scratch[i] = SliceKvPositions(k, first, w);
      lp.v8_scratch[i] = SliceKvPositions(v, first, w);
      first += w;
      continue;
    }
    const int64_t len0 = slot_len_[static_cast<size_t>(slot)];
    const std::vector<int32_t>& table = pool.tables[static_cast<size_t>(slot)];
    for (int64_t tt = 0; tt < w; ++tt) {
      const int64_t pos = len0 + tt;
      const auto page = static_cast<size_t>(table[static_cast<size_t>(pos / ps)]);
      TSI_CHECK_EQ(pool.refcount[page], 1)
          << "append into a shared page of slot " << slot
          << " (COW split never committed)";
      std::vector<int8_t>& pk = lp.k8[page];
      std::vector<int8_t>& pv = lp.v8[page];
      std::vector<float>& pks = lp.k8s[page];
      std::vector<float>& pvs = lp.v8s[page];
      if (pk.empty()) pk.resize(static_cast<size_t>(ps * row_elems), 0);
      if (pv.empty()) pv.resize(static_cast<size_t>(ps * row_elems), 0);
      if (pks.empty()) pks.resize(static_cast<size_t>(ps * kv), 1.0f);
      if (pvs.empty()) pvs.resize(static_cast<size_t>(ps * kv), 1.0f);
      const int64_t src_vec = (first + tt) * kv;
      const int64_t dst_vec = (pos % ps) * kv;
      std::memcpy(pk.data() + dst_vec * dh, k.values.data() + src_vec * dh,
                  static_cast<size_t>(row_elems));
      std::memcpy(pv.data() + dst_vec * dh, v.values.data() + src_vec * dh,
                  static_cast<size_t>(row_elems));
      std::memcpy(pks.data() + dst_vec, k.scales.data() + src_vec,
                  static_cast<size_t>(kv) * sizeof(float));
      std::memcpy(pvs.data() + dst_vec, v.scales.data() + src_vec,
                  static_cast<size_t>(kv) * sizeof(float));
    }
    first += w;
  }
}

void ShardedKvCache::CheckStepBlock(int chip, int64_t layer, int64_t d0,
                                    int64_t d1) const {
  const auto& widths = step_widths_[static_cast<size_t>(chip)];
  const auto lanes = static_cast<int64_t>(widths.size());
  if (d0 == lanes) {
    // [lanes, t, ...]: one row per lane, each exactly its declared width.
    for (int64_t i = 0; i < lanes; ++i)
      TSI_CHECK_EQ(d1, widths[static_cast<size_t>(i)])
          << "mismatched t: chip " << chip << " layer " << layer << " lane "
          << i << " appended " << d1 << " positions into a "
          << widths[static_cast<size_t>(i)] << "-wide lane";
    return;
  }
  int64_t total = 0;
  for (int64_t w : widths) total += w;
  TSI_CHECK(d0 == 1 && d1 == total)
      << "appended rows must match the slot targets declared for chip "
      << chip << ": a [" << d0 << ", " << d1 << "] block for " << lanes
      << " lanes of " << total << " positions in all";
}

void ShardedKvCache::CommitStep() {
  TSI_CHECK(step_open_) << "CommitStep without BeginStep";
  for (int c = 0; c < num_chips_; ++c) {
    if (step_slots_[static_cast<size_t>(c)].empty()) continue;
    for (int64_t l = 0; l < num_layers_; ++l) {
      TSI_CHECK(appended_[static_cast<size_t>(c)][static_cast<size_t>(l)])
          << "chip " << c << " layer " << l
          << " never appended in this step (mismatched layer coverage)";
    }
    // Fix the cache-wide kv geometry from each chip's observed appends on
    // the first committed step; Append validates against it from then on
    // (it cannot write these fields -- it runs concurrently across chips).
    const ChipPool& pool = pool_[static_cast<size_t>(c)];
    if (pool.kv >= 0) {
      if (kv_heads_ < 0) {
        kv_heads_ = pool.kv;
        d_head_ = pool.dh;
      }
      TSI_CHECK(pool.kv == kv_heads_ && pool.dh == d_head_)
          << "kv/d_head shape drift on chip " << c << ": got [" << pool.kv
          << ", " << pool.dh << "], cache holds [" << kv_heads_ << ", "
          << d_head_ << "]";
    }
  }
  // Advance each targeted slot once, by its lane's width: under kHeads
  // several chips target the same slot and must not double-advance it.
  std::unordered_set<int64_t> advanced;
  int64_t appended_tokens = 0;
  for (int c = 0; c < num_chips_; ++c) {
    const auto& slots = step_slots_[static_cast<size_t>(c)];
    for (size_t i = 0; i < slots.size(); ++i) {
      const int64_t slot = slots[i];
      if (slot == kScratchSlot || !advanced.insert(slot).second) continue;
      const int64_t w = step_widths_[static_cast<size_t>(c)][i];
      slot_len_[static_cast<size_t>(slot)] += w;
      appended_tokens += w;
    }
  }
  step_open_ = false;
  step_slots_.clear();
  step_widths_.clear();
  appended_.clear();
  obs::MetricsRegistry& m = metrics_ ? *metrics_ : obs::MetricsRegistry::Global();
  m.GetCounter("kv/appended_tokens")->Add(appended_tokens);
  UpdateOccupancyGauges();
}

const std::vector<int64_t>& ShardedKvCache::step_slots(int chip) const {
  TSI_CHECK(step_open_) << "step_slots outside a step";
  return step_slots_[static_cast<size_t>(chip)];
}

const std::vector<int64_t>& ShardedKvCache::step_widths(int chip) const {
  TSI_CHECK(step_open_) << "step_widths outside a step";
  return step_widths_[static_cast<size_t>(chip)];
}

void ShardedKvCache::ForkSlot(int64_t parent, int64_t child,
                              int64_t prefix_len) {
  TSI_CHECK(!step_open_) << "ForkSlot mid-step";
  TSI_CHECK(parent >= 0 && parent < num_slots() &&
            slot_len_[static_cast<size_t>(parent)] > 0)
      << "ForkSlot from a non-resident slot " << parent;
  TSI_CHECK(prefix_len > 0 &&
            prefix_len <= slot_len_[static_cast<size_t>(parent)])
      << "fork prefix " << prefix_len << " exceeds slot " << parent
      << "'s committed context " << slot_len_[static_cast<size_t>(parent)];
  TSI_CHECK_GE(child, 0) << "slot ids are non-negative";
  TSI_CHECK_NE(child, parent) << "cannot fork a slot onto itself";
  if (static_cast<int64_t>(slot_len_.size()) <= child)
    slot_len_.resize(static_cast<size_t>(child) + 1, 0);
  TSI_CHECK_EQ(slot_len_[static_cast<size_t>(child)], 0)
      << "ForkSlot into non-empty slot " << child << " (reset it first)";
  const auto shared_pages =
      static_cast<size_t>(CeilDiv(prefix_len, config_.page_size));
  for (int c = 0; c < num_chips_; ++c) {
    ChipPool& pool = pool_[static_cast<size_t>(c)];
    if (!SlotResident(c, parent)) continue;
    if (static_cast<int64_t>(pool.tables.size()) <= child)
      pool.tables.resize(static_cast<size_t>(child) + 1);
    TSI_CHECK(pool.tables[static_cast<size_t>(child)].empty())
        << "ForkSlot into non-empty slot " << child << " (reset it first)";
    const std::vector<int32_t>& src = pool.tables[static_cast<size_t>(parent)];
    TSI_CHECK_GE(src.size(), shared_pages);
    std::vector<int32_t>& dst = pool.tables[static_cast<size_t>(child)];
    dst.assign(src.begin(), src.begin() + static_cast<int64_t>(shared_pages));
    for (int32_t id : dst) ++pool.refcount[static_cast<size_t>(id)];
  }
  slot_len_[static_cast<size_t>(child)] = prefix_len;
  ++forks_;
  obs::MetricsRegistry& m = metrics_ ? *metrics_ : obs::MetricsRegistry::Global();
  m.GetCounter("kv/forks")->Add(1);
  UpdateOccupancyGauges();
}

PagedKvSpan ShardedKvCache::Span(KvStream stream, int chip, int64_t layer,
                                 int64_t slot, int64_t lane, int64_t g0,
                                 int64_t gcount) const {
  const bool int8 = format_ == WeightFormat::kInt8;
  const bool v = stream == KvStream::kV;
  const LayerPages& lp =
      store_[static_cast<size_t>(chip)][static_cast<size_t>(layer)];
  PagedKvSpan span;
  if (slot == kScratchSlot) {
    TSI_CHECK(step_open_ && lane >= 0 &&
              lane < static_cast<int64_t>(
                         step_slots_[static_cast<size_t>(chip)].size()) &&
              step_slots_[static_cast<size_t>(chip)][static_cast<size_t>(
                  lane)] == kScratchSlot)
        << "lane " << lane << " of chip " << chip
        << " is not a scratch lane of the open step";
    const auto i = static_cast<size_t>(lane);
    span.len = span.page_size = step_widths_[static_cast<size_t>(chip)][i];
    if (int8) {
      const QuantizedKv& block = v ? lp.v8_scratch[i] : lp.k8_scratch[i];
      TSI_CHECK(!block.empty()) << "scratch lane read before append";
      span.kv_stride = block.kv_heads();
      span.d_head = block.d_head();
      span.pages8 = {block.values.data()};
      span.scales = {block.scales.data()};
    } else {
      const Tensor& block = v ? lp.v_scratch[i] : lp.k_scratch[i];
      TSI_CHECK(block.numel() > 0) << "scratch lane read before append";
      span.kv_stride = block.dim(2);
      span.d_head = block.dim(3);
      span.pages = {block.data()};
    }
  } else {
    span.len = ReadLength(chip, slot);
    TSI_CHECK(span.len > 0 && SlotResident(chip, slot))
        << "slot " << slot << " empty on chip " << chip;
    ReadGeometry(chip, &span.kv_stride, &span.d_head);
    span.page_size = config_.page_size;
    const std::vector<int32_t>& table =
        pool_[static_cast<size_t>(chip)].tables[static_cast<size_t>(slot)];
    const auto npages = static_cast<size_t>(CeilDiv(span.len, span.page_size));
    if (int8) {
      span.pages8.reserve(npages);
      span.scales.reserve(npages);
    } else {
      span.pages.reserve(npages);
    }
    for (size_t p = 0; p < npages; ++p) {
      const auto page = static_cast<size_t>(table[p]);
      if (int8) {
        const std::vector<int8_t>& values = (v ? lp.v8 : lp.k8)[page];
        TSI_CHECK(!values.empty()) << "page never written (read before append?)";
        span.pages8.push_back(values.data());
        span.scales.push_back((v ? lp.v8s : lp.k8s)[page].data());
      } else {
        const std::vector<float>& values = (v ? lp.v : lp.k)[page];
        TSI_CHECK(!values.empty()) << "page never written (read before append?)";
        span.pages.push_back(values.data());
      }
    }
  }
  span.head_offset = g0;
  span.kv_heads = gcount < 0 ? span.kv_stride : gcount;
  return span;
}

void ShardedKvCache::ResetSlot(int64_t slot) {
  TSI_CHECK(!step_open_) << "ResetSlot mid-step";
  if (slot < 0 || slot >= num_slots()) return;
  bool held_pages = false;
  for (int c = 0; c < num_chips_; ++c) {
    ChipPool& pool = pool_[static_cast<size_t>(c)];
    if (static_cast<int64_t>(pool.tables.size()) <= slot) continue;
    std::vector<int32_t>& table = pool.tables[static_cast<size_t>(slot)];
    if (table.empty()) continue;
    held_pages = true;
    for (int32_t id : table) {
      int32_t& rc = pool.refcount[static_cast<size_t>(id)];
      TSI_CHECK_GT(rc, 0) << "page refcount underflow on chip " << c;
      if (--rc == 0) pool.free_pages.push_back(id);
    }
    table.clear();
  }
  TSI_CHECK(held_pages || slot_len_[static_cast<size_t>(slot)] == 0)
      << "slot " << slot << " has length but no pages (corrupt table)";
  TSI_CHECK(held_pages)
      << "page refcount underflow: double ResetSlot of slot " << slot
      << " (it holds no pages)";
  slot_len_[static_cast<size_t>(slot)] = 0;
  UpdateOccupancyGauges();
}

SlotPages ShardedKvCache::ExtractSlotPages(int chip, int64_t slot) const {
  TSI_CHECK(!step_open_) << "ExtractSlotPages mid-step";
  TSI_CHECK(format_ == WeightFormat::kBf16)
      << "ExtractSlotPages on an int8 cache (int8 KV migration unsupported)";
  TSI_CHECK(chip >= 0 && chip < num_chips_) << "chip out of range";
  TSI_CHECK(slot >= 0 && slot < num_slots() && SlotResident(chip, slot) &&
            slot_len_[static_cast<size_t>(slot)] > 0)
      << "ExtractSlotPages of slot " << slot << " not resident on chip "
      << chip;
  const ChipPool& pool = pool_[static_cast<size_t>(chip)];
  for (int32_t id : pool.tables[static_cast<size_t>(slot)]) {
    TSI_CHECK_EQ(pool.refcount[static_cast<size_t>(id)], 1)
        << "ExtractSlotPages of slot " << slot << " on chip " << chip
        << " with shared pages: migrating a forked prefix would detach it "
        << "from its COW siblings";
  }
  SlotPages out;
  out.len = slot_len_[static_cast<size_t>(slot)];
  ReadGeometry(chip, &out.kv_heads, &out.d_head);
  out.k.reserve(static_cast<size_t>(num_layers_));
  out.v.reserve(static_cast<size_t>(num_layers_));
  for (int64_t l = 0; l < num_layers_; ++l) {
    out.k.push_back(GatherSpan(Span(KvStream::kK, chip, l, slot)));
    out.v.push_back(GatherSpan(Span(KvStream::kV, chip, l, slot)));
  }
  return out;
}

void ShardedKvCache::AdoptSlotPages(int chip, int64_t slot,
                                    const SlotPages& pages) {
  TSI_CHECK(!step_open_) << "AdoptSlotPages mid-step";
  TSI_CHECK(format_ == WeightFormat::kBf16)
      << "AdoptSlotPages on an int8 cache (int8 KV migration unsupported)";
  TSI_CHECK(chip >= 0 && chip < num_chips_) << "chip out of range";
  TSI_CHECK_GE(slot, 0) << "slot ids are non-negative";
  TSI_CHECK_GT(pages.len, 0) << "AdoptSlotPages with no positions";
  TSI_CHECK(pages.kv_heads > 0 && pages.d_head > 0)
      << "AdoptSlotPages with unset geometry";
  TSI_CHECK_EQ(static_cast<int64_t>(pages.k.size()), num_layers_)
      << "layer count mismatch in adopted pages";
  TSI_CHECK_EQ(static_cast<int64_t>(pages.v.size()), num_layers_)
      << "layer count mismatch in adopted pages";
  for (int64_t l = 0; l < num_layers_; ++l) {
    const Tensor& k = pages.k[static_cast<size_t>(l)];
    TSI_CHECK(k.rank() == 4 && k.dim(0) == 1 && k.dim(1) == pages.len &&
              k.dim(2) == pages.kv_heads && k.dim(3) == pages.d_head)
        << "adopted K block shape " << ShapeToString(k.shape())
        << " does not match [1, " << pages.len << ", " << pages.kv_heads
        << ", " << pages.d_head << "]";
    TSI_CHECK(k.SameShape(pages.v[static_cast<size_t>(l)]))
        << "adopted K/V shape mismatch at layer " << l;
  }
  // Geometry is normally fixed by the first CommitStep; an adopt into a
  // fresh cache fixes it the same way, and any later append validates
  // against it.
  if (kv_heads_ >= 0) {
    TSI_CHECK(pages.kv_heads == kv_heads_ && pages.d_head == d_head_)
        << "kv/d_head drift in adopted pages: got [" << pages.kv_heads << ", "
        << pages.d_head << "], cache holds [" << kv_heads_ << ", " << d_head_
        << "]";
  } else {
    kv_heads_ = pages.kv_heads;
    d_head_ = pages.d_head;
  }
  ChipPool& pool = pool_[static_cast<size_t>(chip)];
  if (pool.kv < 0) {
    pool.kv = pages.kv_heads;
    pool.dh = pages.d_head;
  }
  if (static_cast<int64_t>(slot_len_.size()) <= slot)
    slot_len_.resize(static_cast<size_t>(slot) + 1, 0);
  if (static_cast<int64_t>(pool.tables.size()) <= slot)
    pool.tables.resize(static_cast<size_t>(slot) + 1);
  TSI_CHECK(pool.tables[static_cast<size_t>(slot)].empty())
      << "AdoptSlotPages into slot " << slot << " already resident on chip "
      << chip << " (reset it first)";
  const int64_t len0 = slot_len_[static_cast<size_t>(slot)];
  TSI_CHECK(len0 == 0 || len0 == pages.len)
      << "AdoptSlotPages length mismatch: slot " << slot << " committed at "
      << len0 << " by an earlier chip, adopting " << pages.len;

  const int64_t ps = config_.page_size;
  const int64_t row_elems = pages.kv_heads * pages.d_head;
  const size_t page_elems = static_cast<size_t>(ps * row_elems);
  std::vector<int32_t>& table = pool.tables[static_cast<size_t>(slot)];
  const int64_t needed = CeilDiv(pages.len, ps);
  while (static_cast<int64_t>(table.size()) < needed)
    table.push_back(AllocPage(chip));
  EnsureLayerCapacity(chip);
  for (int64_t l = 0; l < num_layers_; ++l) {
    LayerPages& lp = store_[static_cast<size_t>(chip)][static_cast<size_t>(l)];
    const float* ks = pages.k[static_cast<size_t>(l)].data();
    const float* vs = pages.v[static_cast<size_t>(l)].data();
    for (int64_t pos = 0; pos < pages.len;) {
      const int64_t run = std::min(ps - pos % ps, pages.len - pos);
      const auto page = static_cast<size_t>(table[static_cast<size_t>(pos / ps)]);
      std::vector<float>& pk = lp.k[page];
      std::vector<float>& pv = lp.v[page];
      if (pk.empty()) pk.resize(page_elems, 0.0f);
      if (pv.empty()) pv.resize(page_elems, 0.0f);
      std::memcpy(pk.data() + (pos % ps) * row_elems, ks + pos * row_elems,
                  static_cast<size_t>(run * row_elems) * sizeof(float));
      std::memcpy(pv.data() + (pos % ps) * row_elems, vs + pos * row_elems,
                  static_cast<size_t>(run * row_elems) * sizeof(float));
      pos += run;
    }
  }
  slot_len_[static_cast<size_t>(slot)] = pages.len;
  UpdateOccupancyGauges();
}

double ShardedKvCache::TotalBytes(double bytes_per_element) const {
  if (kv_heads_ < 0) return 0.0;
  const double page_positions = static_cast<double>(config_.page_size);
  const double kv = static_cast<double>(kv_heads_);
  const double dh = static_cast<double>(d_head_);
  double pages = 0;
  for (const ChipPool& pool : pool_)
    for (int32_t rc : pool.refcount)
      if (rc > 0) pages += 1.0;
  const double layers = static_cast<double>(num_layers_);
  if (format_ == WeightFormat::kInt8) {
    // Int8 storage knows its own widths: 1-byte values plus fp32 scales,
    // for K and V each.
    return pages * layers * 2.0 * (page_positions * kv * dh +
                                   4.0 * page_positions * kv);
  }
  return pages * layers * 2.0 * page_positions * kv * dh * bytes_per_element;
}

int64_t ShardedKvCache::pages_in_use() const {
  int64_t n = 0;
  for (const ChipPool& pool : pool_)
    for (int32_t rc : pool.refcount)
      if (rc > 0) ++n;
  return n;
}

int64_t ShardedKvCache::pages_shared() const {
  int64_t n = 0;
  for (const ChipPool& pool : pool_)
    for (int32_t rc : pool.refcount)
      if (rc > 1) ++n;
  return n;
}

}  // namespace tsi
