// Request admission queue for the continuous-batching runtime.
//
// Requests carry virtual-time arrival stamps (Poisson-generated or replayed
// from a trace); the queue orders them by arrival and hands them to the
// scheduler once the virtual clock reaches their stamp and a KV slot is
// free. Queue wait (admission minus arrival) is the first component of a
// request's latency budget.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace tsi {

// One serving request: a prompt to prefill plus a generation budget.
struct ServeRequest {
  int64_t id = 0;
  double arrival = 0;  // virtual seconds
  std::vector<int32_t> prompt;
  int64_t max_new_tokens = 16;
  // Request class ("interactive", "rag", "batch", ...): the key SLO targets
  // (obs/slo.h) and per-class latency reporting (obs/anatomy.h) group by.
  // "" is the untagged default class.
  std::string klass;
  // Multi-turn hint: id of an earlier request whose retained context this
  // prompt extends (the prompt must repeat that conversation's tokens).
  // With ServeOptions.share_prefixes the backend forks the parent's KV pages
  // instead of re-prefilling the common prefix. -1: no parent.
  int64_t parent = -1;
};

class RequestQueue {
 public:
  // Sorts by (arrival, id); ids must be unique, prompts non-empty.
  explicit RequestQueue(std::vector<ServeRequest> requests);

  bool empty() const { return pending_.empty(); }
  int64_t size() const { return static_cast<int64_t>(pending_.size()); }
  // Whether the head request has arrived by virtual time `now`.
  bool HasArrived(double now) const;
  // Pops the head request (must have one).
  ServeRequest Pop();
  // Arrival stamp of the head request (must be non-empty).
  double NextArrival() const;

 private:
  std::deque<ServeRequest> pending_;
};

// Poisson-process arrival stamps at `rate` requests/sec for `count`
// requests, deterministic in `seed`.
std::vector<double> PoissonArrivals(double rate, int64_t count, uint64_t seed);

// `count` requests with Poisson arrivals at `rate` req/s and i.i.d. random
// prompts of `prompt_len` tokens from [0, vocab); deterministic in `seed`.
std::vector<ServeRequest> PoissonRequests(double rate, int64_t count,
                                          int64_t prompt_len,
                                          int64_t max_new_tokens, int64_t vocab,
                                          uint64_t seed);

}  // namespace tsi
