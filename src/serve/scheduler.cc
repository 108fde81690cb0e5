#include "serve/scheduler.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <string>
#include <utility>

#include "serve/disagg.h"
#include "serve/slots.h"
#include "sim/trace.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace tsi {

int64_t ServeReport::total_tokens() const {
  int64_t n = 0;
  for (const auto& r : requests) n += static_cast<int64_t>(r.tokens.size());
  return n;
}

double ServeReport::ThroughputRequestsPerSec() const {
  return makespan > 0 ? static_cast<double>(completed()) / makespan : 0;
}

double ServeReport::ThroughputTokensPerSec() const {
  return makespan > 0 ? static_cast<double>(total_tokens()) / makespan : 0;
}

namespace {
template <typename Fn>
LatencySummary SummarizeOver(const std::vector<RequestRecord>& requests, Fn fn) {
  std::vector<double> values;
  values.reserve(requests.size());
  for (const auto& r : requests) values.push_back(fn(r));
  return Summarize(values);
}
}  // namespace

LatencySummary ServeReport::QueueWaitSummary() const {
  return SummarizeOver(requests, [](const RequestRecord& r) { return r.QueueWait(); });
}
LatencySummary ServeReport::TtftSummary() const {
  return SummarizeOver(requests, [](const RequestRecord& r) { return r.Ttft(); });
}
LatencySummary ServeReport::LatencySummaryStats() const {
  return SummarizeOver(requests, [](const RequestRecord& r) { return r.Latency(); });
}
LatencySummary ServeReport::TimePerOutputTokenSummary() const {
  return SummarizeOver(requests,
                       [](const RequestRecord& r) { return r.TimePerOutputToken(); });
}

std::vector<double> RequestRecord::TokenGaps() const {
  std::vector<double> gaps;
  if (token_times.size() < 2) return gaps;
  gaps.reserve(token_times.size() - 1);
  for (size_t i = 1; i < token_times.size(); ++i)
    gaps.push_back(token_times[i] - token_times[i - 1]);
  return gaps;
}

std::map<std::string, obs::SloClassSamples> ServeReport::ClassSamples() const {
  std::map<std::string, obs::SloClassSamples> samples;
  for (const RequestRecord& r : requests) {
    obs::SloClassSamples& s = samples[r.klass];
    s.ttft.push_back(r.Ttft());
    for (double g : r.TokenGaps()) s.tpot.push_back(g);
  }
  return samples;
}

namespace {

// A request in a pool, from admission (or landing) until it retires or is
// handed to the other pool.
struct Job {
  ServeRequest req;
  RequestRecord rec;
  int64_t slot = -1;
  int64_t prefilled = 0;  // prompt tokens already fed (or adopted)
  bool decoding = false;  // first token sampled
  int32_t last_token = 0;
  bool done = false;      // retired, or handed to the other pool
  double at = 0;  // hand-off: KV ready (queued), then landing (in flight)
};

// A backend, its slot allocator and its jobs in the order they entered.
struct Pool {
  explicit Pool(ServeBackend* b)
      : backend(b),
        slots(b->num_slots()),
        slot_free(static_cast<size_t>(b->num_slots()), 0.0) {}
  ServeBackend* backend;
  SlotAllocator slots;
  std::vector<Job> jobs;
  std::vector<double> slot_free;  // clock when each slot's last job retired
  // Slots whose KV left over the link: the pages are gone at Migrate time,
  // the id is reusable once this pool's clock passes the transfer's end.
  std::vector<std::pair<int64_t, double>> frees;
};

// The scheduler loop, over one pool (`migrator` null: `prefill` and
// `decode` are one backend) or two pools plus the link.
DisaggReport ServePools(ServeBackend& prefill, ServeBackend& decode,
                        KvMigrator* migrator,
                        std::vector<ServeRequest> requests,
                        const ServeOptions& options) {
  TSI_CHECK_GT(options.prefill_chunk, 0);
  const bool two_pools = migrator != nullptr;
  TSI_CHECK(!(two_pools && options.share_prefixes))
      << "disaggregation does not compose with KV prefix sharing: migrating "
      << "a forked slot would detach its COW pages";
  RequestQueue queue(std::move(requests));
  std::vector<Pool> pools;
  pools.emplace_back(&prefill);
  if (two_pools) pools.emplace_back(&decode);
  Pool& entry = pools.front();  // admission and chunked prefill
  Pool& exit = pools.back();    // the decode frame

  // Observability sinks. The scheduler loop is single-threaded, so timeline
  // rows keep insertion order and the "serve/" metrics are deterministic
  // functions of the workload (the golden tests rely on both).
  Tracer* tracer = options.tracer;
  obs::MetricsRegistry& metrics =
      options.metrics ? *options.metrics : obs::MetricsRegistry::Global();
  obs::Counter* m_admitted = metrics.GetCounter("serve/admitted");
  obs::Counter* m_retired = metrics.GetCounter("serve/retired");
  obs::Counter* m_prefill_chunks = metrics.GetCounter("serve/prefill_chunks");
  obs::Counter* m_decode_steps = metrics.GetCounter("serve/decode_steps");
  obs::Counter* m_idle_jumps = metrics.GetCounter("serve/idle_jumps");
  obs::Counter* m_prefill_tokens = metrics.GetCounter("serve/prefill_tokens");
  obs::Gauge* m_queue_depth = metrics.GetGauge("serve/queue_depth");
  obs::Gauge* m_entry_active =
      metrics.GetGauge(two_pools ? "serve/prefill_active" : "serve/active");
  obs::Histogram* m_chunk_tokens = metrics.GetHistogram(
      "serve/prefill_chunk_tokens", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  obs::Histogram* m_decode_lanes = metrics.GetHistogram(
      "serve/decode_lanes", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  // Exact-sample mode (single-writer: this loop), so the exported p99s are
  // order statistics of the real waits and transfers, not bucket bounds.
  // 64Ki samples cover every workload the benches and tests run without
  // truncation.
  obs::Histogram* m_queue_wait = metrics.GetHistogram(
      "serve/queue_wait_s", {1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0},
      /*sample_cap=*/1 << 16);
  // Metrics of a feature or of one pool shape exist only in runs that use
  // it, so baseline exports (and their golden tests) carry no zero rows.
  obs::Counter* m_prefix_hits = nullptr;
  obs::Counter* m_prefix_tokens = nullptr;
  if (options.share_prefixes) {
    m_prefix_hits = metrics.GetCounter("serve/prefix_hits");
    m_prefix_tokens = metrics.GetCounter("serve/shared_prefix_tokens");
  }
  obs::Counter* m_migrations = nullptr;
  obs::Counter* m_migrated_bytes = nullptr;
  obs::Gauge* m_exit_active = nullptr;
  obs::Gauge* m_migration_depth = nullptr;
  obs::Histogram* m_migration_s = nullptr;
  if (two_pools) {
    m_migrations = metrics.GetCounter("serve/migrations");
    m_migrated_bytes = metrics.GetCounter("serve/migrated_kv_bytes");
    m_exit_active = metrics.GetGauge("serve/decode_active");
    m_migration_depth = metrics.GetGauge("serve/migration_queue_depth");
    m_migration_s = metrics.GetHistogram(
        "serve/migration_s", {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0},
        /*sample_cap=*/1 << 16);
  }

  std::deque<Job> handoff;    // prefill done, waiting for a decode slot
  std::deque<Job> in_flight;  // transfer started, landing order
  double link_free = 0;
  DisaggReport out;
  ServeReport& report = out.serve;

  auto hits_budget = [&](const Job& j, int32_t token) {
    return (options.eos_token && token == *options.eos_token) ||
           static_cast<int64_t>(j.rec.tokens.size()) >= j.req.max_new_tokens;
  };
  auto retire = [&](Pool& pool, Job& j) {
    j.rec.finished = pool.backend->Now();
    pool.backend->Release(j.slot);
    pool.slots.Release(j.slot);
    pool.slot_free[static_cast<size_t>(j.slot)] = j.rec.finished;
    m_retired->Add(1);
    if (tracer) {
      tracer->RecordInstant(
          "retire", j.rec.finished,
          {{"request", std::to_string(j.rec.id)},
           {"tokens", std::to_string(j.rec.tokens.size())}});
      tracer->RecordLifecycle('e', "request", j.rec.id, j.rec.finished);
    }
    TSI_LOG(DEBUG) << "retire request " << j.rec.id << " after "
                   << j.rec.tokens.size() << " tokens at t="
                   << j.rec.finished;
    report.requests.push_back(std::move(j.rec));
    j.done = true;
  };

  while (!queue.empty() || !entry.jobs.empty() || !handoff.empty() ||
         !in_flight.empty() || !exit.jobs.empty()) {
    // 1. Hand-off (two pools). Prefill slots whose transfer has ended by
    //    the prefill clock return to the allocator. Then migrations start,
    //    FIFO, each into the lowest free decode slot. The data is copied
    //    now (host side); virtually the transfer holds only the serialized
    //    link, from max(KV ready, link free, slot free) for the A.1
    //    transfer time, so the prefill pool's next chunk overlaps it.
    for (auto it = entry.frees.begin(); it != entry.frees.end();) {
      if (it->second <= entry.backend->Now()) {
        entry.slots.Release(it->first);
        it = entry.frees.erase(it);
      } else {
        ++it;
      }
    }
    while (!handoff.empty() && exit.slots.HasFree()) {
      Job j = std::move(handoff.front());
      handoff.pop_front();
      const int64_t dst = exit.slots.Acquire();
      const double start = std::max(
          {j.at, link_free, exit.slot_free[static_cast<size_t>(dst)]});
      const KvMigrator::Result r = migrator->Migrate(j.slot, dst, j.prefilled);
      const double done = start + r.seconds;
      link_free = done;
      out.migrations += 1;
      out.migrated_bytes += r.bytes;
      out.link_busy_seconds += r.seconds;
      m_migrations->Add(1);
      m_migrated_bytes->Add(r.bytes);
      m_migration_s->Observe(r.seconds);
      if (tracer) {
        tracer->RecordScheduler(
            "migrate", start, done - start,
            {{"request", std::to_string(j.req.id)},
             {"bytes", FormatJsonDouble(r.bytes)},
             {"context", std::to_string(j.prefilled)},
             {"src_slot", std::to_string(j.slot)},
             {"dst_slot", std::to_string(dst)}});
        tracer->RecordLifecycle('n', "migrated", j.req.id, done);
      }
      TSI_LOG(DEBUG) << "migrate request " << j.req.id << " slot " << j.slot
                     << " -> " << dst << " [" << start << ", " << done << ") "
                     << r.bytes << " bytes";
      entry.backend->Release(j.slot);
      entry.frees.emplace_back(j.slot, done);
      j.slot = dst;
      j.at = done;
      in_flight.push_back(std::move(j));
    }

    // 2. Admission: arrived requests claim free prefill slots in arrival
    //    order.
    while (entry.slots.HasFree() && queue.HasArrived(entry.backend->Now())) {
      ServeRequest r = queue.Pop();
      Job j;
      j.slot = entry.slots.Acquire();
      j.rec.id = r.id;
      j.rec.klass = r.klass;
      j.rec.arrival = r.arrival;
      j.rec.admitted = entry.backend->Now();
      m_admitted->Add(1);
      m_queue_wait->Observe(j.rec.QueueWait());
      if (tracer) {
        // The request row opens at arrival so Perfetto shows queue wait as
        // the gap between 'b' and the "admitted" instant.
        std::vector<std::pair<std::string, std::string>> bargs{
            {"prompt_tokens", std::to_string(r.prompt.size())}};
        if (!r.klass.empty()) bargs.emplace_back("class", r.klass);
        tracer->RecordLifecycle('b', "request", j.rec.id, j.rec.arrival,
                                std::move(bargs));
        tracer->RecordLifecycle('n', "admitted", j.rec.id, j.rec.admitted);
        tracer->RecordInstant(
            "admit", j.rec.admitted,
            {{"request", std::to_string(j.rec.id)},
             {"queue_wait", FormatJsonDouble(j.rec.QueueWait())}});
      }
      TSI_LOG(DEBUG) << "admit request " << j.rec.id << " into slot " << j.slot
                     << " at t=" << j.rec.admitted;
      j.req = std::move(r);
      if (options.share_prefixes) {
        // Fork-at-admission: prompt tokens covered by a shared KV prefix
        // never enter chunked prefill (they are already cached pages).
        j.prefilled = entry.backend->AdoptPrefix(j.slot, j.req);
        TSI_CHECK_GE(j.prefilled, 0);
        TSI_CHECK_LT(j.prefilled, static_cast<int64_t>(j.req.prompt.size()))
            << "AdoptPrefix must leave at least one prompt token to prefill";
        j.rec.shared_prefix_tokens = j.prefilled;
        if (j.prefilled > 0) {
          m_prefix_hits->Add(1);
          m_prefix_tokens->Add(j.prefilled);
          if (tracer)
            tracer->RecordInstant(
                "prefix_fork", j.rec.admitted,
                {{"request", std::to_string(j.rec.id)},
                 {"tokens", std::to_string(j.prefilled)}});
          TSI_LOG(DEBUG) << "request " << j.rec.id << " adopted " << j.prefilled
                         << " prefix tokens into slot " << j.slot;
        }
      }
      entry.jobs.push_back(std::move(j));
    }
    m_queue_depth->Set(static_cast<double>(queue.size()));
    m_entry_active->Set(static_cast<double>(entry.jobs.size()));
    if (two_pools)
      m_migration_depth->Set(
          static_cast<double>(handoff.size() + in_flight.size()));

    bool worked = false;

    // 3. One prefill chunk for every request still in prefill (oldest
    //    first). Capping each request at one chunk bounds how long the
    //    decode lanes stall behind a long prompt (§3.5); feeding ALL
    //    prefilling requests keeps the decode frame from starving behind a
    //    single-request prefill pipeline when slots turn over quickly.
    for (Job& j : entry.jobs) {
      if (j.done || j.decoding) continue;
      const auto len = static_cast<int64_t>(j.req.prompt.size());
      const int64_t chunk = std::min(options.prefill_chunk, len - j.prefilled);
      const bool last = j.prefilled + chunk == len;
      std::vector<int32_t> piece(j.req.prompt.begin() + j.prefilled,
                                 j.req.prompt.begin() + j.prefilled + chunk);
      const double begin = entry.backend->Now();
      // KV tokens already cached before this chunk -- what the analytic
      // model (and the roofline fold) prices the chunk's attention against.
      const int64_t context = j.prefilled;
      const int32_t token = entry.backend->Prefill(j.slot, j.req.id, piece, last);
      j.prefilled += chunk;
      ++report.prefill_chunks;
      m_prefill_chunks->Add(1);
      m_prefill_tokens->Add(chunk);
      m_chunk_tokens->Observe(static_cast<double>(chunk));
      if (tracer)
        tracer->RecordScheduler("prefill", begin, entry.backend->Now() - begin,
                                {{"request", std::to_string(j.req.id)},
                                 {"tokens", std::to_string(chunk)},
                                 {"context", std::to_string(context)},
                                 {"last", last ? "true" : "false"}});
      worked = true;
      if (!last) continue;
      j.decoding = true;
      j.last_token = token;
      j.rec.first_token = entry.backend->Now();
      j.rec.tokens.push_back(token);
      j.rec.token_times.push_back(j.rec.first_token);
      if (tracer)
        tracer->RecordLifecycle('n', "first_token", j.req.id,
                                j.rec.first_token);
      if (hits_budget(j, token)) {
        retire(entry, j);  // done at its first token: no decode, no transfer
      } else if (two_pools) {
        j.at = entry.backend->Now();
        handoff.push_back(std::move(j));
        j.done = true;
      }
    }

    // 4. Transfers that have landed by the decode clock join the frame in
    //    landing order (the link is serialized, so that is start order).
    while (!in_flight.empty() && in_flight.front().at <= exit.backend->Now()) {
      exit.jobs.push_back(std::move(in_flight.front()));
      in_flight.pop_front();
    }
    if (two_pools) m_exit_active->Set(static_cast<double>(exit.jobs.size()));

    // 5. One decode step across every decoding lane of the frame.
    std::vector<ServeBackend::DecodeLane> lanes;
    std::vector<Job*> lane_jobs;
    for (Job& j : exit.jobs) {
      if (j.done || !j.decoding) continue;
      lanes.push_back({j.slot, j.last_token, j.req.id});
      lane_jobs.push_back(&j);
    }
    if (!lanes.empty()) {
      const double begin = exit.backend->Now();
      // Span args for the anatomy/roofline folds: which requests advanced
      // (lane order), the frame width the backend charges (every slot's KV
      // is streamed whether occupied or not, serve/analytic.cc), and the
      // longest lane's cached context before this step.
      std::string lane_requests;
      int64_t max_context = 0;
      for (size_t i = 0; i < lane_jobs.size(); ++i) {
        const Job& j = *lane_jobs[i];
        if (i > 0) lane_requests += ',';
        lane_requests += std::to_string(j.req.id);
        max_context = std::max(
            max_context, static_cast<int64_t>(j.req.prompt.size()) +
                             static_cast<int64_t>(j.rec.tokens.size()) - 1);
      }
      const std::vector<int32_t> next = exit.backend->Decode(lanes);
      TSI_CHECK_EQ(next.size(), lanes.size());
      ++report.decode_steps;
      m_decode_steps->Add(1);
      m_decode_lanes->Observe(static_cast<double>(lanes.size()));
      if (tracer)
        tracer->RecordScheduler(
            "decode", begin, exit.backend->Now() - begin,
            {{"lanes", std::to_string(lanes.size())},
             {"requests", std::move(lane_requests)},
             {"frame", std::to_string(exit.backend->num_slots())},
             {"context", std::to_string(max_context)}});
      for (size_t i = 0; i < lane_jobs.size(); ++i) {
        Job& j = *lane_jobs[i];
        j.rec.tokens.push_back(next[i]);
        j.rec.token_times.push_back(exit.backend->Now());
        j.last_token = next[i];
        if (hits_budget(j, next[i])) retire(exit, j);
      }
      worked = true;
    }

    for (Pool& pool : pools)
      pool.jobs.erase(std::remove_if(pool.jobs.begin(), pool.jobs.end(),
                                     [](const Job& j) { return j.done; }),
                      pool.jobs.end());

    // 6. Idle: nothing ran, so each pool jumps to its next event that lies
    //    strictly in the future -- the prefill pool to the next arrival or
    //    slot-free point, the decode pool to the next landing. An arrival
    //    at or before Now already failed admission (no free slot), so only
    //    a later event can unblock anything. With one pool that is always
    //    the next arrival.
    if (!worked) {
      constexpr double kInf = std::numeric_limits<double>::infinity();
      const double idle_from = entry.backend->Now();
      double entry_next = kInf, exit_next = kInf;
      if (!queue.empty() && queue.NextArrival() > entry.backend->Now())
        entry_next = queue.NextArrival();
      for (const auto& [slot, when] : entry.frees)
        if (when > entry.backend->Now()) entry_next = std::min(entry_next, when);
      for (const Job& j : in_flight)
        if (j.at > exit.backend->Now()) exit_next = std::min(exit_next, j.at);
      TSI_CHECK(entry_next < kInf || exit_next < kInf)
          << "scheduler stalled with work pending (queue=" << queue.size()
          << " prefilling=" << entry.jobs.size() << " handoff="
          << handoff.size() << " in_flight=" << in_flight.size()
          << " decoding=" << exit.jobs.size() << ")";
      if (entry_next < kInf) entry.backend->AdvanceTo(entry_next);
      if (exit_next < kInf) exit.backend->AdvanceTo(exit_next);
      m_idle_jumps->Add(1);
      // One pool marks where the gap starts; two mark the later clock
      // after the jump.
      if (tracer)
        tracer->RecordInstant(
            "idle", two_pools ? std::max(entry.backend->Now(),
                                         exit.backend->Now())
                              : idle_from);
    }
  }
  m_queue_depth->Set(0);
  m_entry_active->Set(0);
  if (two_pools) {
    m_exit_active->Set(0);
    m_migration_depth->Set(0);
  }

  std::sort(report.requests.begin(), report.requests.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.id < b.id;
            });
  for (const auto& r : report.requests)
    report.makespan = std::max(report.makespan, r.finished);
  out.prefill_makespan = entry.backend->Now();
  out.decode_makespan = exit.backend->Now();
  if (!options.slo.empty())
    report.slo = obs::EvaluateSlo(options.slo, report.ClassSamples());
  return out;
}

}  // namespace

ServeReport RunContinuousServing(ServeBackend& backend,
                                 std::vector<ServeRequest> requests,
                                 const ServeOptions& options) {
  return ServePools(backend, backend, nullptr, std::move(requests), options)
      .serve;
}

DisaggReport RunDisaggServing(ServeBackend& prefill, ServeBackend& decode,
                              KvMigrator& migrator,
                              std::vector<ServeRequest> requests,
                              const ServeOptions& options) {
  return ServePools(prefill, decode, &migrator, std::move(requests), options);
}

}  // namespace tsi
