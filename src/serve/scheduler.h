// Continuous-batching scheduler (§3.5 incremental prefill, §4.4 mixed
// batching) over abstract serving backends.
//
// One loop serves one pool or two. A pool is a ServeBackend, its slots and
// its requests in the order they entered it. Colocated serving
// (RunContinuousServing) is one pool: prefill chunks and decode steps share
// the backend. Disaggregated serving (RunDisaggServing, serve/disagg.h) is a
// prefill pool and a decode pool plus the link a request's KV crosses
// between them. Per iteration:
//   1. (two pools) hand-off: finished prefills start their KV migration,
//      FIFO, each into the lowest free decode slot;
//   2. admit every arrived request that fits a free prefill slot (queue
//      wait ends at admission);
//   3. process ONE prefill chunk -- up to `prefill_chunk` prompt tokens --
//      for EACH admitted request still in prefill, oldest first (§3.5's
//      incremental processing: long prompts are fed in pieces so decode is
//      never starved for more than one chunk per request, while newly
//      admitted requests reach the decode frame without queueing behind one
//      prompt at a time). A request whose last chunk samples its first
//      token joins the frame in place (one pool) or the hand-off queue (two);
//   4. (two pools) transfers that have landed by the decode clock join the
//      frame;
//   5. run ONE decode step across the frame, retiring sequences that hit
//      EOS or their token budget and freeing their slots for reuse;
//   6. if nothing was runnable, fast-forward each pool's virtual clock to
//      its next event: the next arrival (or, with two pools, a prefill slot
//      freed by a finished transfer; for the decode pool, the next landing).
//
// The same loop drives two backends: the functional DistributedEngine
// (serve/runtime.h; real sharded forward passes on the SPMD simulator,
// bit-deterministic tokens) and the analytical cost model (serve/analytic.h;
// virtual seconds only, any model size). Determinism contract: with greedy
// or per-request-seeded sampling, each request's token sequence depends only
// on its own prompt -- not on scheduling, batch composition, slot id, or the
// simulator's SPMD slot count (docs/serving.md).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "engine/sampler.h"
#include "obs/slo.h"
#include "serve/queue.h"
#include "util/stats.h"

namespace tsi {

class Tracer;

namespace obs {
class MetricsRegistry;
}  // namespace obs

struct ServeOptions {
  // Max prompt tokens fed per scheduler iteration (§3.5). Prompts longer
  // than this prefill over several iterations, interleaved with decode.
  int64_t prefill_chunk = 32;
  // Retire a sequence when it emits this token (kept, like generation.h).
  std::optional<int32_t> eos_token;
  // Per-request samplers are seeded DeriveSeed(sampling.seed, request id),
  // so a request's draws do not depend on scheduling. temperature 0 (greedy)
  // additionally matches the shared-sampler static Generate path bit-exactly.
  SamplerOptions sampling;
  // Scheduler-timeline sink: per-iteration prefill/decode spans, admit/
  // retire instants, and per-request lifecycle rows land here (pid 1 of the
  // Chrome trace). Null disables timeline recording.
  Tracer* tracer = nullptr;
  // Sink for the "serve/" counters/gauges/histograms. Null means
  // obs::MetricsRegistry::Global(); golden tests pass a fresh registry.
  obs::MetricsRegistry* metrics = nullptr;
  // KV prefix sharing (paged cache, engine/kvcache.h). When set, admission
  // offers each request to the backend's AdoptPrefix first: prompt tokens
  // covered by a forked prefix (a registered system prompt, or the retained
  // context of `ServeRequest.parent`) skip chunked prefill entirely -- both
  // the compute and the duplicate KV bytes.
  bool share_prefixes = false;
  // With share_prefixes: how many retired conversations the backend keeps
  // resident so follow-up turns can fork them. 0 keeps none. Retention is
  // LRU: a fork at admission refreshes the parent, eviction takes the
  // coldest first (counter serve/evicted_parents).
  int64_t retain_parents = 0;
  // Additional page-pressure bound on the same retained set: when > 0, the
  // retained conversations' summed KV pages (ceil(len / page_size) each,
  // counting shared pages per retainer) may not exceed this. 0 = unbounded.
  int64_t retain_page_budget = 0;
  // Per-class TTFT/TPOT targets (obs/slo.h). Non-empty: the run evaluates
  // attainment over the completed requests' exact latency samples into
  // ServeReport.slo.
  obs::SloSpec slo;
};

// Per-request serving metrics (all stamps in virtual seconds).
struct RequestRecord {
  int64_t id = 0;
  std::string klass;       // copied from ServeRequest.klass
  double arrival = 0;
  double admitted = 0;     // got a KV slot
  double first_token = 0;  // end of the prefill chunk that sampled token 1
  double finished = 0;     // last token emitted
  std::vector<int32_t> tokens;  // generated tokens (EOS included)
  // Emission stamp of each token, parallel to `tokens` (first_token, then
  // the end of every decode step that advanced this request). The same
  // stamps the trace-side anatomy fold (obs/anatomy.h) reconstructs from
  // decode spans, so report-side and trace-side TPOT agree exactly.
  std::vector<double> token_times;
  // Prompt tokens adopted from a shared KV prefix instead of prefilled.
  int64_t shared_prefix_tokens = 0;

  double QueueWait() const { return admitted - arrival; }
  double Ttft() const { return first_token - arrival; }
  double Latency() const { return finished - arrival; }
  // Mean seconds per output token after the first.
  double TimePerOutputToken() const {
    return tokens.size() > 1
               ? (finished - first_token) / static_cast<double>(tokens.size() - 1)
               : 0;
  }
  // The TPOT series: gaps between successive token emissions.
  std::vector<double> TokenGaps() const;
};

struct ServeReport {
  std::vector<RequestRecord> requests;  // sorted by request id
  double makespan = 0;  // virtual time when the last request finished
  int64_t prefill_chunks = 0;
  int64_t decode_steps = 0;
  // Attainment of ServeOptions.slo (evaluated == false when no spec).
  obs::SloReport slo;

  int64_t completed() const { return static_cast<int64_t>(requests.size()); }
  int64_t total_tokens() const;
  double ThroughputRequestsPerSec() const;
  double ThroughputTokensPerSec() const;
  LatencySummary QueueWaitSummary() const;
  LatencySummary TtftSummary() const;
  LatencySummary LatencySummaryStats() const;  // end-to-end
  LatencySummary TimePerOutputTokenSummary() const;
  // Per-class TTFT (per request) and TPOT (per token gap) samples -- the
  // input EvaluateSlo checks targets against.
  std::map<std::string, obs::SloClassSamples> ClassSamples() const;
};

// What the scheduler needs from an execution substrate. One backend instance
// serves one replica: prefill chunks and decode steps share its chips (and
// its virtual clock), which is exactly the §3.5 interleaving being modelled.
class ServeBackend {
 public:
  struct DecodeLane {
    int64_t slot = 0;
    int32_t token = 0;    // last emitted token, fed back in
    int64_t request = 0;  // request id (selects the sampler stream)
  };

  virtual ~ServeBackend() = default;

  virtual int64_t num_slots() const = 0;
  virtual double Now() const = 0;
  // Fast-forward an idle replica; never rewinds.
  virtual void AdvanceTo(double t) = 0;
  // Feed one chunk of request `request`'s prompt into `slot`'s KV cache.
  // `last` marks the prompt's final chunk; returns the first sampled token
  // then (undefined otherwise). A backend may defer a non-final chunk into
  // its next forward pass (EngineServeBackend does; serve/runtime.h).
  virtual int32_t Prefill(int64_t slot, int64_t request,
                          const std::vector<int32_t>& tokens, bool last) = 0;
  // One decode step advancing every lane by one token; returns the sampled
  // tokens in lane order.
  virtual std::vector<int32_t> Decode(const std::vector<DecodeLane>& lanes) = 0;
  // The request in `slot` retired; drop its per-slot state.
  virtual void Release(int64_t slot) = 0;
  // Prefix sharing hook (ServeOptions.share_prefixes): called at admission,
  // before any Prefill for `slot`. Returns how many leading prompt tokens
  // the backend satisfied by forking an existing KV prefix into `slot` --
  // the scheduler skips them. Must leave at least one prompt token for
  // Prefill (the sampled first token needs a forward pass). Default: none.
  virtual int64_t AdoptPrefix(int64_t slot, const ServeRequest& req) {
    (void)slot;
    (void)req;
    return 0;
  }
};

ServeReport RunContinuousServing(ServeBackend& backend,
                                 std::vector<ServeRequest> requests,
                                 const ServeOptions& options);

}  // namespace tsi
