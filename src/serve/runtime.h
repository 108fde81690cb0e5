// Functional serving backend: the continuous-batching scheduler driving the
// real sharded DistributedEngine on the SPMD simulator.
//
// The decode frame is FIXED at `num_slots` lanes: every decode step runs all
// lanes through the full partitioned forward pass, with lanes that hold no
// request mapped to ShardedKvCache::kScratchSlot (padding). Fixed frames are
// what real static-shape serving systems compile, and here they buy two
// things: every collective's shape -- and therefore the virtual clock's
// charge per step -- is independent of occupancy, and under kBatch
// sharding the frame keeps batch % chips == 0 by construction.
//
// Lane mapping is the identity (slot s rides lane s), so under kBatch
// sharding slot s's KV lives on the chip with xyz-rank s/(S/n), its owner
// group; prefill lanes name the same group, and the engine's ragged step
// (DistributedEngine::Step) lays each group out at its own row count and
// splits the rows at those extents. This is what lets a weight-gathered
// prefill and a weight-stationary decode extend the same cache (§3.5).
//
// Deferred chunks: a non-final prefill chunk does not run at its own call.
// Prefill queues it, returns -1 and leaves the clock unchanged; it rides in
// the backend's next forward pass -- the next decode frame (replacing the
// slot's scratch lane there, when prefill_ffn == decode_ffn), or the next
// final chunk's pass (the request's own final chunk joins its queued
// tokens as one longer lane). A final chunk runs at its call, since that
// call returns the first token. Each forward pass costs a fixed collective
// latency plus a small per-row term, so merging the chunk into a pass that
// runs anyway saves a whole pass. serve/deferred_chunks counts the chunks
// that ran in a later pass.
//
// Determinism: the engine's kernels are row-independent and its per-slot
// attention reads only the lane's own slot, so a request's sampled tokens
// depend only on its prompt and its sampler stream -- not on which other
// requests share the frame, which slot it landed in, or TSI_SPMD_SLOTS
// (tests/serve_test.cc pins all three).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "engine/sampler.h"
#include "serve/scheduler.h"

namespace tsi {

class EngineServeBackend : public ServeBackend {
 public:
  // `engine` must be freshly constructed (empty cache) and outlive the
  // backend. Under kBatch sharding `num_slots` must divide by the chip
  // count (the fixed decode frame is batch-sharded).
  EngineServeBackend(DistributedEngine* engine, int64_t num_slots,
                     ServeOptions options);

  int64_t num_slots() const override { return num_slots_; }
  double Now() const override;
  void AdvanceTo(double t) override;
  int32_t Prefill(int64_t slot, int64_t request,
                  const std::vector<int32_t>& tokens, bool last) override;
  std::vector<int32_t> Decode(const std::vector<DecodeLane>& lanes) override;
  void Release(int64_t slot) override;

  // --- KV prefix sharing (ServeOptions.share_prefixes) --------------------
  // Registers a system prompt for prefix matching at admission. The prompt
  // is prefilled once into a pseudo-slot (outside the decode frame, lazily,
  // per kBatch owner group) and every request whose prompt starts with it
  // forks those pages instead of re-prefilling them.
  void RegisterSystemPrompt(std::vector<int32_t> tokens);
  // Longest-common-prefix match against the registered system prompts and
  // (for req.parent >= 0) the retained conversations; forks the best match
  // into `slot` and returns the adopted token count.
  int64_t AdoptPrefix(int64_t slot, const ServeRequest& req) override;

 private:
  Sampler& SamplerFor(int64_t request);
  // kBatch: the owner group (xyz-rank) a slot's pages live on; kHeads: 0.
  int64_t GroupOf(int64_t slot) const;
  // Pseudo-slot holding system prompt `idx` for `group`, prefilled on
  // first use.
  int64_t EnsureSystemSlot(size_t idx, int64_t group);
  // Runs every queued chunk in one prefill-layout pass (one lane per slot,
  // its chunks back to back) and empties the queue; returns the logits,
  // lane by lane in slot order.
  Tensor RunQueued();

  DistributedEngine* engine_;
  int64_t num_slots_;
  ServeOptions options_;
  std::map<int64_t, Sampler> samplers_;  // request id -> sampler stream
  // Prompt tokens waiting for the next forward pass, by slot: deferred
  // non-final chunks, joined by the final chunk (or a system prompt) just
  // before a prefill pass runs them.
  std::map<int64_t, std::vector<int32_t>> queued_;

  // Prefix-sharing state. Pseudo-slot ids start at num_slots_ so they can
  // never collide with decode-frame lanes.
  std::vector<std::vector<int32_t>> system_prompts_;
  std::map<std::pair<size_t, int64_t>, int64_t> system_slots_;
  struct PrefixEntry {  // a retired conversation kept for multi-turn forks
    int64_t slot = -1;  // pseudo-slot holding the pages
    std::vector<int32_t> tokens;
    int64_t group = 0;
    int64_t request = -1;
  };
  // LRU order, coldest at the front: retiring and freshly-forked parents
  // move to the back, EnforceRetention evicts from the front.
  std::deque<PrefixEntry> retained_;
  // Evicts retained parents (front first) until both the retain_parents
  // count cap and the retain_page_budget page cap hold; bumps
  // serve/evicted_parents per eviction.
  void EnforceRetention();
  int64_t next_pseudo_slot_ = 0;
  // Mirrors each slot's cached token sequence (prompt + fed-back decode
  // tokens) -- what a follow-up turn's prompt is matched against.
  std::map<int64_t, std::vector<int32_t>> slot_tokens_;
  std::map<int64_t, int64_t> slot_request_;
};

}  // namespace tsi
