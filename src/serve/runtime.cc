#include "serve/runtime.h"

#include <algorithm>

#include "util/logging.h"
#include "util/metrics.h"

namespace tsi {

namespace {
int64_t CommonPrefixLen(const std::vector<int32_t>& a,
                        const std::vector<int32_t>& b) {
  const size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return static_cast<int64_t>(i);
}
}  // namespace

EngineServeBackend::EngineServeBackend(DistributedEngine* engine,
                                       int64_t num_slots, ServeOptions options)
    : engine_(engine),
      num_slots_(num_slots),
      options_(std::move(options)),
      next_pseudo_slot_(num_slots) {
  TSI_CHECK(engine_ != nullptr);
  TSI_CHECK_GT(num_slots_, 0);
  TSI_CHECK_EQ(engine_->context_length(), 0) << "engine already has context";
  if (engine_->spec().attn == AttnSharding::kBatch) {
    TSI_CHECK_EQ(num_slots_ % engine_->machine().num_chips(), 0)
        << "kBatch decode frame must divide over the chips";
  }
}

double EngineServeBackend::Now() const { return engine_->machine().MaxTime(); }

void EngineServeBackend::AdvanceTo(double t) {
  SimMachine& m = engine_->machine();
  for (int c = 0; c < m.num_chips(); ++c)
    m.SetTime(c, std::max(t, m.counters(c).time));
}

Sampler& EngineServeBackend::SamplerFor(int64_t request) {
  auto it = samplers_.find(request);
  if (it == samplers_.end()) {
    SamplerOptions so = options_.sampling;
    so.seed = Rng::DeriveSeed(so.seed, static_cast<uint64_t>(request));
    it = samplers_.emplace(request, Sampler(so)).first;
  }
  return it->second;
}

int64_t EngineServeBackend::GroupOf(int64_t slot) const {
  if (engine_->spec().attn != AttnSharding::kBatch) return 0;
  const int n = engine_->machine().num_chips();
  // Pseudo-slots inherit the group they were created for; decode-frame
  // slots derive it from the identity lane mapping.
  if (slot >= num_slots_) {
    for (const auto& [key, s] : system_slots_)
      if (s == slot) return key.second;
    for (const PrefixEntry& e : retained_)
      if (e.slot == slot) return e.group;
    TSI_CHECK(false) << "unknown pseudo-slot " << slot;
  }
  return slot / (num_slots_ / n);
}

Tensor EngineServeBackend::RunQueued() {
  std::vector<StepLane> lanes;
  for (auto& [slot, tokens] : queued_)
    lanes.push_back({slot, std::move(tokens), GroupOf(slot)});
  queued_.clear();
  return engine_->Step(lanes, StepPhase::kPrefill);
}

int32_t EngineServeBackend::Prefill(int64_t slot, int64_t request,
                                    const std::vector<int32_t>& tokens,
                                    bool last) {
  TSI_CHECK(slot >= 0 && slot < num_slots_);
  TSI_CHECK(!tokens.empty());
  if (options_.share_prefixes) {
    auto& hist = slot_tokens_[slot];
    hist.insert(hist.end(), tokens.begin(), tokens.end());
    slot_request_[slot] = request;
  }
  std::vector<int32_t>& queued = queued_[slot];
  queued.insert(queued.end(), tokens.begin(), tokens.end());
  if (!last) {
    // Deferred: the chunk rides in the next forward pass. The counter is
    // created on first use, so runs that never defer export no new series.
    obs::MetricsRegistry& m = options_.metrics
                                  ? *options_.metrics
                                  : obs::MetricsRegistry::Global();
    m.GetCounter("serve/deferred_chunks")->Add(1);
    return -1;
  }
  // The final chunk runs now, in one lane with the slot's queued chunks and
  // next to every other queued chunk; the first token comes from the
  // lane's last row.
  int64_t end = 0;  // one past the slot's last logits row
  for (const auto& [s, t] : queued_) {
    end += static_cast<int64_t>(t.size());
    if (s == slot) break;
  }
  Tensor logits = RunQueued();
  const int64_t V = engine_->config().vocab_size;
  return SamplerFor(request).Sample(logits.data() + (end - 1) * V, V);
}

std::vector<int32_t> EngineServeBackend::Decode(
    const std::vector<DecodeLane>& lanes) {
  TSI_CHECK(!lanes.empty());
  // Queued chunks ride in the decode frame only when both phases run one
  // layout; otherwise they run first, in a pass with the prefill layout.
  const EngineSpec& spec = engine_->spec();
  if (spec.prefill_ffn != spec.decode_ffn && !queued_.empty()) RunQueued();
  // Fixed frame: lane s carries slot s when it decodes, the slot's queued
  // chunk when one waits, and a one-token scratch lane otherwise.
  std::vector<StepLane> frame;
  frame.reserve(static_cast<size_t>(num_slots_));
  for (int64_t s = 0; s < num_slots_; ++s)
    frame.push_back({ShardedKvCache::kScratchSlot, {0}, GroupOf(s)});
  for (const DecodeLane& l : lanes) {
    TSI_CHECK(l.slot >= 0 && l.slot < num_slots_);
    StepLane& f = frame[static_cast<size_t>(l.slot)];
    f.slot = l.slot;
    f.tokens[0] = l.token;
  }
  for (auto& [slot, tokens] : queued_) {
    StepLane& f = frame[static_cast<size_t>(slot)];
    TSI_CHECK_EQ(f.slot, ShardedKvCache::kScratchSlot)
        << "slot " << slot << " decodes with a prefill chunk queued";
    f.slot = slot;
    f.tokens = std::move(tokens);
  }
  queued_.clear();
  std::vector<int64_t> first;  // each frame lane's first logits row
  first.reserve(frame.size());
  int64_t rows = 0;
  for (const StepLane& f : frame) {
    first.push_back(rows);
    rows += static_cast<int64_t>(f.tokens.size());
  }
  Tensor logits = engine_->Step(frame, StepPhase::kDecode);
  if (options_.share_prefixes) {
    // The fed-back token is what entered each slot's KV this step; the
    // history must mirror the cached context exactly for LCP matching.
    for (const DecodeLane& l : lanes) slot_tokens_[l.slot].push_back(l.token);
  }
  const int64_t V = engine_->config().vocab_size;
  std::vector<int32_t> out;
  out.reserve(lanes.size());
  for (const DecodeLane& l : lanes)
    out.push_back(SamplerFor(l.request).Sample(
        logits.data() + first[static_cast<size_t>(l.slot)] * V, V));
  return out;
}

void EngineServeBackend::RegisterSystemPrompt(std::vector<int32_t> tokens) {
  TSI_CHECK(!tokens.empty());
  system_prompts_.push_back(std::move(tokens));
}

int64_t EngineServeBackend::EnsureSystemSlot(size_t idx, int64_t group) {
  const auto key = std::make_pair(idx, group);
  auto it = system_slots_.find(key);
  if (it != system_slots_.end()) return it->second;
  // One-time materialization: prefill the whole system prompt into a fresh
  // pseudo-slot on this owner group. Every later request forks these pages;
  // the prompt is computed and stored once per group, not once per request.
  const int64_t slot = next_pseudo_slot_++;
  system_slots_.emplace(key, slot);  // GroupOf(slot) reads it
  queued_[slot] = system_prompts_[idx];
  RunQueued();
  TSI_LOG(DEBUG) << "materialized system prompt " << idx << " ("
                 << system_prompts_[idx].size() << " tokens) in pseudo-slot "
                 << slot << " for group " << group;
  return slot;
}

int64_t EngineServeBackend::AdoptPrefix(int64_t slot, const ServeRequest& req) {
  if (!options_.share_prefixes) return 0;
  // At least one prompt token must go through Prefill: the first sampled
  // token needs a forward pass over this slot.
  const auto cap = static_cast<int64_t>(req.prompt.size()) - 1;
  if (cap <= 0) return 0;
  const int64_t group = GroupOf(slot);

  // Multi-turn: the retained parent conversation wins over system prompts
  // (it extends one of them anyway). Under kBatch the parent's pages live on
  // one owner chip -- only a slot in the same group can fork them.
  if (req.parent >= 0) {
    for (auto it = retained_.begin(); it != retained_.end(); ++it) {
      if (it->request != req.parent || it->group != group) continue;
      const int64_t p = std::min(CommonPrefixLen(it->tokens, req.prompt), cap);
      if (p <= 0) break;
      engine_->ForkSlot(it->slot, slot, p);
      slot_tokens_[slot].assign(req.prompt.begin(), req.prompt.begin() + p);
      slot_request_[slot] = req.id;
      // LRU touch: a parent that still spawns turns is hot -- move it to
      // the back so page pressure evicts a colder conversation instead.
      PrefixEntry hot = std::move(*it);
      retained_.erase(it);
      retained_.push_back(std::move(hot));
      return p;
    }
  }

  // Best system prompt by longest common prefix.
  size_t best = system_prompts_.size();
  int64_t best_p = 0;
  for (size_t i = 0; i < system_prompts_.size(); ++i) {
    const int64_t p =
        std::min(CommonPrefixLen(system_prompts_[i], req.prompt), cap);
    if (p > best_p) {
      best = i;
      best_p = p;
    }
  }
  if (best_p <= 0) return 0;
  engine_->ForkSlot(EnsureSystemSlot(best, group), slot, best_p);
  slot_tokens_[slot].assign(req.prompt.begin(), req.prompt.begin() + best_p);
  slot_request_[slot] = req.id;
  return best_p;
}

void EngineServeBackend::Release(int64_t slot) {
  TSI_CHECK(queued_.count(slot) == 0)
      << "release of slot " << slot << " with a prefill chunk queued";
  if (options_.share_prefixes && options_.retain_parents > 0) {
    auto hist = slot_tokens_.find(slot);
    auto reqit = slot_request_.find(slot);
    if (hist != slot_tokens_.end() && reqit != slot_request_.end() &&
        engine_->slot_length(slot) > 0) {
      // Keep the retiring conversation's pages alive under a pseudo-slot so
      // a follow-up turn (ServeRequest.parent) can fork them. The fork
      // shares every full page -- no copying.
      PrefixEntry e;
      e.slot = next_pseudo_slot_++;
      e.tokens = hist->second;
      e.group = GroupOf(slot);
      e.request = reqit->second;
      engine_->ForkSlot(slot, e.slot, engine_->slot_length(slot));
      retained_.push_back(std::move(e));
      EnforceRetention();
    }
  }
  slot_tokens_.erase(slot);
  slot_request_.erase(slot);
  engine_->ResetSlot(slot);
}

void EngineServeBackend::EnforceRetention() {
  const int64_t ps = std::max<int64_t>(engine_->spec().kv.page_size, 1);
  auto pages = [&](const PrefixEntry& e) {
    return (static_cast<int64_t>(e.tokens.size()) + ps - 1) / ps;
  };
  int64_t total = 0;
  for (const PrefixEntry& e : retained_) total += pages(e);
  int64_t evicted = 0;
  while (!retained_.empty() &&
         (static_cast<int64_t>(retained_.size()) > options_.retain_parents ||
          (options_.retain_page_budget > 0 &&
           total > options_.retain_page_budget))) {
    total -= pages(retained_.front());
    TSI_LOG(DEBUG) << "evict retained parent request "
                   << retained_.front().request << " (pseudo-slot "
                   << retained_.front().slot << ", "
                   << retained_.front().tokens.size() << " tokens)";
    engine_->ResetSlot(retained_.front().slot);
    retained_.pop_front();
    ++evicted;
  }
  // Created lazily so runs that never evict keep their metric exports
  // unchanged (the golden obs tests enumerate every registered series).
  if (evicted > 0) {
    obs::MetricsRegistry& m = options_.metrics
                                  ? *options_.metrics
                                  : obs::MetricsRegistry::Global();
    m.GetCounter("serve/evicted_parents")->Add(evicted);
  }
}

}  // namespace tsi
