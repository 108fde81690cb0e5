// Disaggregated prefill/decode serving pools (ROADMAP: disaggregated
// serving).
//
// The paper's central finding is that prefill and decode want DIFFERENT
// partitioning layouts (weight-gathered vs. weight-stationary, §3.2-§3.3)
// and different batch shapes -- yet a colocated scheduler interleaves both
// phases on one mesh with one layout, so a long-context prefill chunk
// stalls every decode lane behind it (the latency-vs-throughput split
// DeepSpeed Inference frames as THE serving problem). Disaggregation
// splits the torus into two pools:
//
//   * a PREFILL pool (e.g. 1/4 of the chips) running chunked prefill under
//     its own PartitionSpec -- typically weight-gathered, the Table-2
//     high-throughput configuration;
//   * a DECODE pool (the rest) running the fixed decode frame under a
//     weight-stationary layout at its own batch shape.
//
// A request is admitted to the prefill pool; when its last chunk samples
// the first token, its paged KV state MIGRATES over the inter-pool
// interconnect -- charged with the Appendix A.1 alpha+bandwidth model
// (core/migration.h) identically in both backends, and actually moved
// page-by-page with head re-chunking between attention shardings in the
// functional engine (DistributedEngine::ExportSlot/ImportSlot). The
// transfer occupies the LINK, not the chips: the prefill pool's next chunk
// and every decode step overlap it. The link is a single serialized
// channel -- a transfer starts at max(KV ready, link free, slot free).
//
// The serving loop of serve/scheduler.h runs the two pools on two virtual
// clocks (one per pool) plus the link timeline; RecordScheduler
// "migrate" spans land on the pid-1 scheduler track between the pools'
// prefill/decode spans. Metrics beyond the colocated set:
// serve/migrations, serve/migrated_kv_bytes, serve/migration_s,
// serve/migration_queue_depth, serve/prefill_active, serve/decode_active
// (in place of serve/active).
//
// Determinism: tokens keep the colocated contract -- a request's sequence
// depends only on its prompt and its sampler stream. With greedy sampling
// the disaggregated tokens are bit-identical to the colocated run's when
// both pools execute the colocated layout (tests/disagg_test.cc); across
// layouts the usual bit-for-close caveat applies.
//
// share_prefixes does not compose with disaggregation (migrating a forked
// slot would detach its COW pages) and dies loudly.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/cost.h"
#include "core/inference_cost.h"
#include "core/layouts.h"
#include "model/config.h"
#include "serve/analytic.h"
#include "serve/scheduler.h"

namespace tsi {

class DistributedEngine;

// How the torus is split between the pools, plus the colocated fallback.
// The meshes are disjoint chip slices of one machine (e.g. a 1:3 split of
// 64 chips = 16-chip prefill pool + 48-chip decode pool).
struct DisaggConfig {
  bool enabled = true;
  PartitionSpec prefill_spec;  // mesh = the prefill pool's chip slice
  PartitionSpec decode_spec;   // mesh = the decode pool's chip slice
  int64_t prefill_slots = 4;   // concurrent chunked prefills
  int64_t decode_slots = 64;   // fixed decode frame (§4.4's decode batch)
  // The inter-pool link KV migrations cross: A.1 alpha + serialized
  // bandwidth, one transfer in flight at a time (core/migration.h).
  CommCostModel link;
  // enabled == false: today's colocated path -- RunContinuousServing on
  // ONE pool with this spec and frame.
  PartitionSpec colocated_spec;
  int64_t colocated_slots = 64;
};

// Moves one finished prefill's KV state into the decode pool and prices
// the transfer. Implementations must charge through
// EstimateKvMigration(core/migration.h) so the analytic and functional
// byte counts agree exactly. Migrate performs the (host-side) data
// movement immediately; the SCHEDULER owns the virtual timeline -- no
// implementation advances a pool clock.
class KvMigrator {
 public:
  struct Result {
    double bytes = 0;    // interconnect bytes shipped
    double seconds = 0;  // link occupancy of this transfer
  };
  virtual ~KvMigrator() = default;
  virtual Result Migrate(int64_t src_slot, int64_t dst_slot,
                         int64_t context) = 0;
};

// Functional migrator: ExportSlot on the prefill engine (full-head
// assembly), ImportSlot on the decode engine (re-sharded for its attention
// layout), network egress booked on the source chips that actually held
// the shipped copy (kHeads: each x-rank-0 chip its head chunk; kBatch /
// replicated-kv: the one owner/first chip everything). Both engines must
// use the same fp32 paged KV config.
class EngineKvMigrator : public KvMigrator {
 public:
  // `dst_num_slots` is the decode pool's frame size -- under kBatch it
  // fixes which owner group a destination slot's pages land on (the same
  // identity lane mapping EngineServeBackend uses).
  EngineKvMigrator(DistributedEngine* src, DistributedEngine* dst,
                   int64_t dst_num_slots, CommCostModel link);
  Result Migrate(int64_t src_slot, int64_t dst_slot, int64_t context) override;

 private:
  DistributedEngine* src_;
  DistributedEngine* dst_;
  int64_t dst_num_slots_;
  CommCostModel link_;
};

// Analytic migrator: same pricing, no tensors to move. The decode
// backend learns the migrated slot's cached context via SetSlotContext.
class AnalyticKvMigrator : public KvMigrator {
 public:
  AnalyticKvMigrator(const ModelConfig& config, const PartitionSpec& decode_spec,
                     AnalyticServeBackend* decode, CommCostModel link);
  Result Migrate(int64_t src_slot, int64_t dst_slot, int64_t context) override;

 private:
  ModelConfig config_;
  int64_t page_size_;
  double bytes_per_element_;
  AnalyticServeBackend* decode_;
  CommCostModel link_;
};

struct DisaggReport {
  ServeReport serve;            // per-request records, makespan, step counts
  int64_t migrations = 0;       // completed KV transfers
  double migrated_bytes = 0;    // total interconnect bytes
  double link_busy_seconds = 0; // serialized transfer time on the link
  double prefill_makespan = 0;  // prefill pool's clock when it drained
  double decode_makespan = 0;   // decode pool's clock when it drained
};

// Two-pool continuous serving: admission and chunked prefill on `prefill`,
// then KV migration over `migrator`'s link, then fixed-frame decode on
// `decode`. See the file comment for the scheduling/overlap model; the loop
// itself is shared with RunContinuousServing (serve/scheduler.cc).
DisaggReport RunDisaggServing(ServeBackend& prefill, ServeBackend& decode,
                              KvMigrator& migrator,
                              std::vector<ServeRequest> requests,
                              const ServeOptions& options);

// The analytic run also reports per-pool utilization inputs (the
// functional path reads them off its SimMachines instead).
struct AnalyticDisaggRun {
  DisaggReport report;
  double prefill_busy_seconds = 0;
  double decode_busy_seconds = 0;
  double prefill_processed_tokens = 0;
  double decode_processed_tokens = 0;
  // Summed per-phase CostBreakdowns the pool backends charged -- the
  // cross-check target for the roofline fold's per-span recomputation
  // (obs/roofline.h). Colocated fallback: everything in decode_cost.
  CostBreakdown prefill_cost;
  CostBreakdown decode_cost;
};

// Builds the two analytic pool backends and the migrator from `config` and
// runs the two-pool loop -- or, when config.enabled is false, the
// colocated RunContinuousServing baseline on colocated_spec (busy seconds
// then land in decode_busy_seconds). This is what bench_serving sweeps at
// Palm540B scale, where only the analytic backend can hold the model.
AnalyticDisaggRun RunAnalyticDisaggServing(const InferenceEstimator& estimator,
                                           const DisaggConfig& config,
                                           std::vector<ServeRequest> requests,
                                           const ServeOptions& options);

// Bring-up plan selection from a tuned PlanCache (plan/autotune.h): replaces
// each pool's PartitionSpec with the cached winner for its operating point
// -- prefill pool at (batch 1, expected_prompt), decode pool at
// (decode_slots, expected_context), colocated fallback at (colocated_slots,
// expected_context) under kDecode. Unlike the per-step consult inside
// AnalyticServeBackend, bring-up may adopt the WHOLE spec (mesh shape,
// attention sharding, format): nothing is resident yet, and migration
// between the pools re-shards KV anyway. Pool chip counts come from the
// meshes already in `config` and are preserved. Returns how many specs were
// replaced (0..3); misses leave the hand-configured spec in place.
int ApplyPlanCache(const plan::PlanCache& plans, const std::string& model,
                   double expected_prompt, double expected_context,
                   DisaggConfig* config);

}  // namespace tsi
