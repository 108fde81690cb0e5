// KV-cache migration cost between disaggregated serving pools
// (serve/disagg.h; ROADMAP: disaggregated serving).
//
// When a request finishes its chunked prefill in one pool and decodes in
// another, its cached KV state crosses the inter-pool interconnect exactly
// once. Both serving paths charge that transfer through THIS function --
// the analytic migrator uses the returned cost directly, the functional
// migrator moves real pages and books the same byte count -- so the two
// backends agree byte-for-byte by construction (tests/disagg_test.cc).
//
// Bytes are page-granular, matching what the paged cache physically holds
// (ShardedKvCache::TotalBytes counts a slot's last partial page whole):
//
//   bytes = 2 (K and V) * layers * ceil(ctx / ps) * ps
//           * n_kv_heads * d_head * bytes_per_element
//
// which is ModelConfig::KvCacheBytesPerSequence at the page-rounded
// context. Exactly ONE full-head copy crosses the seam: a kHeads pool
// replicates KV over its mesh's x axis, but replicas are reconstructed
// pool-locally on import, not shipped over the link.
//
// Time is the Appendix A.1 point-to-point form: one alpha (link
// launch/propagation) plus the serialized bandwidth term,
//
//   T = alpha + bytes / bw.
//
// The link is modelled as a single channel (CommCostModel::hop_latency,
// ::network_bw); the disagg scheduler serializes concurrent migrations on
// it, so a transfer's start time is max(KV-ready, link-free).
#pragma once

#include <cstdint>

#include "comm/cost.h"
#include "model/config.h"

namespace tsi {

struct KvMigrationCost {
  double bytes = 0;    // interconnect bytes for one sequence's KV state
  double seconds = 0;  // serialized link occupancy of the transfer
};

// `page_size` 0 models token-granular (contiguous) KV; otherwise the
// context is rounded up to whole pages. `bytes_per_element` is the KV
// storage width (2.0 bf16; the functional path uses
// SimMachine::bytes_per_element).
KvMigrationCost EstimateKvMigration(const ModelConfig& config, int64_t context,
                                    double bytes_per_element,
                                    int64_t page_size,
                                    const CommCostModel& link);

}  // namespace tsi
