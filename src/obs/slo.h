// SLO specification and attainment reporting (the contract of the
// ROADMAP's SLO priority classes).
//
// An SloSpec names TTFT / TPOT percentile targets per request class
// ("interactive", "rag", ...; the "" class is the default for requests with
// no class or classes with no entry of their own). EvaluateSlo checks the
// targets against EXACT percentiles of the recorded latency samples --
// order statistics under the shared util/stats.h contract, never histogram
// bucket bounds -- and produces a per-class attainment report.
//
// The spec threads through ServeOptions: RunContinuousServing and
// RunDisaggServing evaluate it over the completed RequestRecords and attach
// the report to ServeReport.slo, and bench_serving records attainment per
// scenario in BENCH_serving.json (gated by tools/bench_diff).
//
// Determinism: the report (and ToJson) is a pure function of the spec and
// the sample multiset, so it inherits the serving runtime's byte-identity
// across SPMD slot counts.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tsi::obs {

// Latency targets for one request class, in seconds; 0 = not targeted.
// TTFT is per request (first token minus arrival, queue wait included);
// TPOT samples are per inter-token gap, pooled over the class's requests,
// so one request's migration stall is visible in the class p99 even when
// its own mean is fine.
struct SloTarget {
  double ttft_p50 = 0;
  double ttft_p99 = 0;
  double tpot_p50 = 0;
  double tpot_p99 = 0;
  bool empty() const {
    return ttft_p50 == 0 && ttft_p99 == 0 && tpot_p50 == 0 && tpot_p99 == 0;
  }
};

struct SloSpec {
  std::map<std::string, SloTarget> classes;
  bool empty() const { return classes.empty(); }
  // The class's own entry, else the "" default, else nullptr.
  const SloTarget* TargetFor(const std::string& klass) const;
};

// Recorded latency samples for one request class (seconds).
struct SloClassSamples {
  std::vector<double> ttft;  // one per completed request
  std::vector<double> tpot;  // one per inter-token gap, pooled
};

// One target checked against its exact sample percentile.
struct SloCheck {
  std::string metric;  // "ttft_p50" | "ttft_p99" | "tpot_p50" | "tpot_p99"
  double target = 0;
  double actual = 0;
  bool ok = false;  // actual <= target
};

struct SloClassReport {
  std::string klass;
  int64_t requests = 0;      // TTFT samples
  int64_t tpot_samples = 0;  // pooled inter-token gaps
  // Exact percentiles of the recorded samples (0 when there are none).
  double ttft_p50 = 0, ttft_p99 = 0, tpot_p50 = 0, tpot_p99 = 0;
  std::vector<SloCheck> checks;  // only metrics the spec targets
  bool ok = true;                // all checks passed
};

struct SloReport {
  bool evaluated = false;  // false: no spec was supplied
  bool ok = true;          // every class attained every target
  std::vector<SloClassReport> classes;  // sorted by class name
  // {"evaluated":...,"ok":...,"classes":[...]}; deterministic.
  std::string ToJson() const;
};

// Evaluates `spec` over per-class samples. Classes appear in the report when
// they have samples OR a spec entry of their own; a targeted class with no
// samples fails its checks (nothing completed is an SLO miss, not a pass).
SloReport EvaluateSlo(const SloSpec& spec,
                      const std::map<std::string, SloClassSamples>& samples);

}  // namespace tsi::obs
