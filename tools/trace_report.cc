// Reads an observability JSON document (obs::WriteObservability, or a bare
// Chrome trace from Tracer::ToChromeTraceJson) and prints a summary:
// per-category chip-time totals, per-chip utilization with validation
// (fractions must sum to <= 1), and request statistics reconstructed from
// the scheduler's lifecycle rows. Exits non-zero if the file does not parse
// or a utilization invariant fails, so CI can use it as a smoke check.
//
//   trace_report <doc.json>              parse + report + validate
//   trace_report <doc.json> --perfetto out.json
//                                        also re-emit a traceEvents-only
//                                        document for chrome://tracing
//   trace_report <doc.json> --validate   additionally check the scheduler
//                                        timeline invariants: migrate spans
//                                        never overlap on the serialized
//                                        link, and every migrated request's
//                                        lifecycle orders prefill -> migrate
//                                        -> decode -> retire with no
//                                        unaccounted gap
//   trace_report --demo <prefix>         run a small continuous-serving demo
//                                        on the functional engine, write
//                                        <prefix>_trace.json (with anatomy/
//                                        roofline/SLO sections), then
//                                        re-parse and validate it
//                                        (tools/check.sh)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/inference_cost.h"
#include "core/layouts.h"
#include "hw/chip.h"
#include "obs/anatomy.h"
#include "obs/export.h"
#include "obs/roofline.h"
#include "obs/slo.h"
#include "obs/utilization.h"
#include "serve/runtime.h"
#include "sim/machine.h"
#include "sim/trace.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/table.h"

namespace tsi {
namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  std::ostringstream ss;
  ss << is.rdbuf();
  *out = ss.str();
  return true;
}

// Prints category totals + request stats from the traceEvents array; returns
// false if a structural invariant fails.
bool ReportTraceEvents(const JsonValue& events) {
  std::map<std::string, double> cat_us;  // chip rows only
  int chip_rows = 0, scheduler_rows = 0;
  std::map<long long, std::pair<double, double>> requests;  // id -> (b, e) us
  for (const JsonValue& e : events.array) {
    const std::string ph = e.StringOr("ph", "");
    const std::string cat = e.StringOr("cat", "");
    if (ph == "M") continue;
    if (e.NumberOr("pid", 0) == 0 && ph == "X") {
      ++chip_rows;
      cat_us[cat.empty() ? "uncategorized" : cat] += e.NumberOr("dur", 0);
    } else if (cat == "scheduler") {
      ++scheduler_rows;
    } else if (cat == "request") {
      const auto id = static_cast<long long>(e.NumberOr("id", -1));
      if (ph == "b") requests[id].first = e.NumberOr("ts", 0);
      if (ph == "e") requests[id].second = e.NumberOr("ts", 0);
    }
  }
  std::printf("%d chip span(s), %d scheduler row(s), %zu request(s)\n",
              chip_rows, scheduler_rows, requests.size());
  if (!cat_us.empty()) {
    Table table({"category", "chip-time"});
    for (const auto& [cat, us] : cat_us)
      table.AddRow({cat, FormatMs(us * 1e-6)});
    std::printf("%s", table.ToString().c_str());
  }
  if (!requests.empty()) {
    double total_latency = 0;
    int finished = 0;
    for (const auto& [id, be] : requests) {
      if (be.second > 0) {
        total_latency += (be.second - be.first) * 1e-6;
        ++finished;
      }
    }
    if (finished > 0)
      std::printf("%d finished request(s), mean latency %s\n", finished,
                  FormatMs(total_latency / finished).c_str());
  }
  return true;
}

// --validate: scheduler-timeline invariants of the disaggregated runtime
// (serve/disagg.cc). The link is a single serialized channel, so "migrate"
// spans must never overlap; and a migrated request's lifecycle must order
// prefill-pool spans -> migrate span -> decode-pool spans -> retire, with
// the migrate span accounting for the whole prefill-to-decode handoff (no
// unaccounted gap: decode may not start before the transfer lands).
bool ValidateSchedulerTimeline(const JsonValue& events) {
  // Timestamps are microseconds; 1e-3 us absorbs the *1e6 export rounding.
  constexpr double kEps = 1e-3;
  auto arg_ll = [](const JsonValue& e, const char* key) -> long long {
    const JsonValue* args = e.Find("args");
    if (!args) return -1;
    const JsonValue* v = args->Find(key);
    if (!v || !v->is_string()) return -1;
    return std::strtoll(v->string.c_str(), nullptr, 10);
  };
  struct Span {
    double ts = 0, dur = 0;
  };
  std::vector<std::pair<Span, long long>> migrates;  // link row, trace order
  std::map<long long, Span> migrate_of;              // request -> its transfer
  std::map<long long, double> last_prefill_end;
  std::map<long long, int> prefill_spans;
  std::map<long long, double> first_decode_start;  // first decode span with it
  std::map<long long, double> retire_ts;
  std::map<long long, double> migrated_at;  // 'n' "migrated" instants

  for (const JsonValue& e : events.array) {
    const std::string ph = e.StringOr("ph", "");
    const std::string cat = e.StringOr("cat", "");
    if (cat == "scheduler" && ph == "X") {
      const std::string name = e.StringOr("name", "");
      const Span s{e.NumberOr("ts", 0), e.NumberOr("dur", 0)};
      if (name == "migrate") {
        const long long id = arg_ll(e, "request");
        migrates.emplace_back(s, id);
        migrate_of[id] = s;
      } else if (name == "prefill") {
        const long long id = arg_ll(e, "request");
        prefill_spans[id] += 1;
        last_prefill_end[id] =
            std::max(last_prefill_end[id], s.ts + s.dur);
      } else if (name == "decode") {
        const JsonValue* args = e.Find("args");
        const JsonValue* reqs = args ? args->Find("requests") : nullptr;
        if (reqs && reqs->is_string()) {
          std::istringstream is(reqs->string);
          std::string tok;
          while (std::getline(is, tok, ',')) {
            const long long id = std::strtoll(tok.c_str(), nullptr, 10);
            if (!first_decode_start.count(id)) first_decode_start[id] = s.ts;
          }
        }
      }
    } else if (cat == "request") {
      const auto id = static_cast<long long>(e.NumberOr("id", -1));
      if (ph == "e") retire_ts[id] = e.NumberOr("ts", 0);
      if (ph == "n" && e.StringOr("name", "") == "migrated")
        migrated_at[id] = e.NumberOr("ts", 0);
    }
  }

  bool ok = true;
  // 1. The link carries one transfer at a time.
  std::sort(migrates.begin(), migrates.end(),
            [](const auto& a, const auto& b) { return a.first.ts < b.first.ts; });
  for (size_t i = 1; i < migrates.size(); ++i) {
    const Span& prev = migrates[i - 1].first;
    const Span& cur = migrates[i].first;
    if (cur.ts + kEps < prev.ts + prev.dur) {
      std::fprintf(stderr,
                   "ERROR: migrate spans overlap on the link: request %lld "
                   "[%g, %g) vs request %lld [%g, %g)\n",
                   migrates[i - 1].second, prev.ts, prev.ts + prev.dur,
                   migrates[i].second, cur.ts, cur.ts + cur.dur);
      ok = false;
    }
  }
  // 2. Every migrated request's lifecycle is fully accounted.
  for (const auto& [id, at] : migrated_at) {
    if (!prefill_spans.count(id)) {
      std::fprintf(stderr,
                   "ERROR: migrated request %lld has no prefill span\n", id);
      ok = false;
      continue;
    }
    auto mig = migrate_of.find(id);
    if (mig == migrate_of.end()) {
      std::fprintf(stderr,
                   "ERROR: request %lld has a 'migrated' instant but no "
                   "migrate span\n", id);
      ok = false;
      continue;
    }
    const double mig_end = mig->second.ts + mig->second.dur;
    if (mig->second.ts + kEps < last_prefill_end[id]) {
      std::fprintf(stderr,
                   "ERROR: request %lld migrate starts at %g before its last "
                   "prefill chunk ends at %g\n",
                   id, mig->second.ts, last_prefill_end[id]);
      ok = false;
    }
    auto dec = first_decode_start.find(id);
    if (dec == first_decode_start.end()) {
      std::fprintf(stderr,
                   "ERROR: migrated request %lld never joined a decode span\n",
                   id);
      ok = false;
    } else if (dec->second + kEps < mig_end) {
      std::fprintf(stderr,
                   "ERROR: request %lld decodes at %g before its KV transfer "
                   "lands at %g\n", id, dec->second, mig_end);
      ok = false;
    }
    auto ret = retire_ts.find(id);
    if (ret == retire_ts.end()) {
      std::fprintf(stderr, "ERROR: migrated request %lld never retired\n", id);
      ok = false;
    } else if (ret->second + kEps < mig_end) {
      std::fprintf(stderr,
                   "ERROR: request %lld retires at %g before its KV transfer "
                   "lands at %g\n", id, ret->second, mig_end);
      ok = false;
    }
  }
  std::printf("validate: %zu migrate span(s), %zu migrated request(s)%s\n",
              migrates.size(), migrated_at.size(), ok ? ": OK" : "");
  return ok;
}

// Prints (and sanity-checks) the anatomy/roofline/slo sections when present;
// returns false when a roofline fraction invariant fails.
bool ReportExtras(const JsonValue& doc) {
  bool ok = true;
  if (const JsonValue* anatomy = doc.Find("anatomy")) {
    const JsonValue* reqs = anatomy->Find("requests");
    const JsonValue* classes = anatomy->Find("classes");
    std::printf("anatomy: %zu request(s), %zu class(es)\n",
                reqs && reqs->is_array() ? reqs->array.size() : 0,
                classes && classes->is_array() ? classes->array.size() : 0);
  }
  if (const JsonValue* roofline = doc.Find("roofline")) {
    const JsonValue* phases = roofline->Find("phases");
    if (phases && phases->is_array()) {
      Table table({"phase", "spans", "seconds", "compute", "hbm", "network"});
      for (const JsonValue& p : phases->array) {
        const double sum = p.NumberOr("compute_frac", 0) +
                           p.NumberOr("hbm_frac", 0) +
                           p.NumberOr("network_frac", 0);
        table.AddRow({p.StringOr("phase", "?"),
                      FormatDouble(p.NumberOr("spans", 0), 0),
                      FormatMs(p.NumberOr("seconds", 0)),
                      FormatPercent(p.NumberOr("compute_frac", 0)),
                      FormatPercent(p.NumberOr("hbm_frac", 0)),
                      FormatPercent(p.NumberOr("network_frac", 0))});
        if (p.NumberOr("seconds", 0) > 0 && std::abs(sum - 1.0) > 1e-9) {
          std::fprintf(stderr,
                       "ERROR: roofline phase %s bound-by fractions sum to "
                       "%.12f != 1\n",
                       p.StringOr("phase", "?").c_str(), sum);
          ok = false;
        }
      }
      std::printf("%s", table.ToString().c_str());
    }
  }
  if (const JsonValue* slo = doc.Find("slo")) {
    const bool evaluated = slo->Find("evaluated") &&
                           slo->Find("evaluated")->boolean;
    if (evaluated) {
      std::printf("slo: %s", slo->Find("ok") && slo->Find("ok")->boolean
                                 ? "attained"
                                 : "MISSED");
      if (const JsonValue* classes = slo->Find("classes")) {
        for (const JsonValue& c : classes->array) {
          const std::string name = c.StringOr("class", "");
          std::printf(" [%s: %s]", name.empty() ? "(default)" : name.c_str(),
                      c.Find("ok") && c.Find("ok")->boolean ? "ok" : "miss");
        }
      }
      std::printf("\n");
    }
  }
  return ok;
}

// Validates and prints the "tsi" utilization section; returns false when a
// fraction invariant fails.
bool ReportUtilization(const JsonValue& tsi) {
  const JsonValue* util = tsi.Find("utilization");
  const JsonValue* per_chip = tsi.Find("per_chip");
  if (!util) {
    std::printf("no utilization section\n");
    return true;
  }
  auto busy_of = [](const JsonValue& u) {
    return u.NumberOr("compute_frac", 0) + u.NumberOr("memory_frac", 0) +
           u.NumberOr("comm_frac", 0) + u.NumberOr("fused_frac", 0);
  };
  bool ok = true;
  constexpr double kTol = 1e-9;
  if (per_chip && per_chip->is_array()) {
    Table table({"chip", "compute", "memory", "comm", "fused", "idle", "link"});
    for (const JsonValue& u : per_chip->array) {
      table.AddRow({FormatDouble(u.NumberOr("chip", -1), 0),
                    FormatPercent(u.NumberOr("compute_frac", 0)),
                    FormatPercent(u.NumberOr("memory_frac", 0)),
                    FormatPercent(u.NumberOr("comm_frac", 0)),
                    FormatPercent(u.NumberOr("fused_frac", 0)),
                    FormatPercent(u.NumberOr("idle_frac", 0)),
                    FormatPercent(u.NumberOr("link_utilization", 0))});
      if (busy_of(u) > 1.0 + kTol) {
        std::fprintf(stderr,
                     "ERROR: chip %g busy fractions sum to %.6f > 1\n",
                     u.NumberOr("chip", -1), busy_of(u));
        ok = false;
      }
    }
    std::printf("%s", table.ToString().c_str());
  }
  const double busy = busy_of(*util);
  std::printf("mean busy %s (compute %s, memory %s, comm %s, fused %s), "
              "idle %s, link %s\n",
              FormatPercent(busy).c_str(),
              FormatPercent(util->NumberOr("compute_frac", 0)).c_str(),
              FormatPercent(util->NumberOr("memory_frac", 0)).c_str(),
              FormatPercent(util->NumberOr("comm_frac", 0)).c_str(),
              FormatPercent(util->NumberOr("fused_frac", 0)).c_str(),
              FormatPercent(util->NumberOr("idle_frac", 0)).c_str(),
              FormatPercent(util->NumberOr("link_utilization", 0)).c_str());
  if (busy > 1.0 + kTol) {
    std::fprintf(stderr, "ERROR: mean busy fractions sum to %.6f > 1\n", busy);
    ok = false;
  }
  return ok;
}

int ReportFile(const std::string& path, const std::string& perfetto_out,
               bool validate) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "ERROR: cannot read %s\n", path.c_str());
    return 1;
  }
  JsonValue doc;
  std::string error;
  if (!ParseJson(text, &doc, &error)) {
    std::fprintf(stderr, "ERROR: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  const JsonValue* events = doc.Find("traceEvents");
  if (!events || !events->is_array()) {
    std::fprintf(stderr, "ERROR: %s has no traceEvents array\n", path.c_str());
    return 1;
  }
  std::printf("== %s ==\n", path.c_str());
  bool ok = ReportTraceEvents(*events);
  if (validate) ok = ValidateSchedulerTimeline(*events) && ok;
  if (const JsonValue* tsi = doc.Find("tsi")) ok = ReportUtilization(*tsi) && ok;
  ok = ReportExtras(doc) && ok;
  if (const JsonValue* metrics = doc.Find("metrics")) {
    const JsonValue* counters = metrics->Find("counters");
    if (counters && counters->is_object()) {
      std::printf("%zu counter(s):", counters->object.size());
      for (const auto& [name, v] : counters->object)
        std::printf(" %s=%g", name.c_str(), v.number);
      std::printf("\n");
    }
  }
  if (!perfetto_out.empty()) {
    // Re-emit a traceEvents-only document (what chrome://tracing wants when
    // the combined doc confuses older UIs).
    std::ofstream os(perfetto_out, std::ios::binary);
    if (!os) {
      std::fprintf(stderr, "ERROR: cannot write %s\n", perfetto_out.c_str());
      return 1;
    }
    const size_t begin = text.find("\"traceEvents\":");
    TSI_CHECK(begin != std::string::npos);
    // The array is the value after the key; find its matching bracket.
    size_t i = text.find('[', begin);
    int depth = 0;
    size_t end = i;
    bool in_string = false;
    for (; end < text.size(); ++end) {
      const char c = text[end];
      if (in_string) {
        if (c == '\\') ++end;
        else if (c == '"') in_string = false;
        continue;
      }
      if (c == '"') in_string = true;
      if (c == '[') ++depth;
      if (c == ']' && --depth == 0) break;
    }
    os << "{\"traceEvents\":" << text.substr(i, end - i + 1) << "}";
    TSI_LOG(INFO) << "wrote " << perfetto_out;
  }
  return ok ? 0 : 1;
}

// A small continuous-serving run on the functional engine, traced end to
// end: the zero-config way to get a Perfetto-loadable trace with both chip
// rows and scheduler/request rows (docs/observability.md).
int RunDemo(const std::string& prefix) {
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 7);
  SimMachine machine(Torus3D(2, 2, 1), TpuV4());
  Tracer tracer;
  machine.AttachTracer(&tracer);
  EngineSpec spec;
  spec.attn = AttnSharding::kBatch;
  DistributedEngine engine(weights, &machine, spec);

  obs::MetricsRegistry metrics;
  engine.set_metrics(&metrics);
  ServeOptions options;
  options.prefill_chunk = 3;
  options.sampling.temperature = 0;
  options.tracer = &tracer;
  options.metrics = &metrics;
  // A loose per-class SLO so the demo exercises the attainment report
  // (virtual seconds here are microsecond-scale; these always pass).
  options.slo.classes["interactive"] = {1.0, 1.0, 1.0, 1.0};
  options.slo.classes[""] = {0, 2.0, 0, 2.0};

  Rng rng(11);
  std::vector<ServeRequest> requests;
  for (int64_t i = 0; i < 6; ++i) {
    ServeRequest r;
    r.id = i;
    r.arrival = static_cast<double>(i) * 2e-6;
    r.prompt.resize(static_cast<size_t>(4 + i % 3));
    for (auto& t : r.prompt)
      t = static_cast<int32_t>(
          rng.NextBelow(static_cast<uint64_t>(cfg.vocab_size)));
    r.max_new_tokens = 4;
    if (i % 2 == 0) r.klass = "interactive";
    requests.push_back(std::move(r));
  }
  EngineServeBackend backend(&engine, /*num_slots=*/4, options);
  ServeReport report = RunContinuousServing(backend, requests, options);
  std::printf("demo: %lld request(s), %lld prefill chunk(s), "
              "%lld decode step(s), makespan %s\n",
              static_cast<long long>(report.completed()),
              static_cast<long long>(report.prefill_chunks),
              static_cast<long long>(report.decode_steps),
              FormatMs(report.makespan).c_str());

  // Fold the timeline into the anatomy / roofline / SLO sections the
  // combined document carries (docs/observability.md).
  const std::vector<TimelineEvent> timeline = tracer.timeline();
  const obs::AnatomyReport anatomy = obs::FoldAnatomy(timeline);
  // The trace-side fold must reproduce the scheduler's own records, with
  // the backend's deferred (zero-length) prefill chunks among the spans.
  bool folded = anatomy.requests.size() == report.requests.size();
  for (size_t i = 0; folded && i < report.requests.size(); ++i) {
    const obs::RequestAnatomy& a = anatomy.requests[i];
    const RequestRecord& r = report.requests[i];
    folded = a.id == r.id && a.arrival == r.arrival &&
             a.admitted == r.admitted && a.first_token == r.first_token &&
             a.finished == r.finished &&
             a.token_times.size() == r.tokens.size();
  }
  std::printf("anatomy fold matches the report records: %s\n",
              folded ? "OK" : "FAILED");
  if (!folded) return 1;
  InferenceEstimator estimator(cfg, TpuV4());
  obs::RooflineInputs rin;
  rin.estimator = &estimator;
  rin.prefill_spec = PartitionSpec{Torus3D(2, 2, 1), FfnLayout::kWS2D,
                                   AttnSharding::kBatch, WeightFormat::kBf16};
  rin.decode_spec = rin.prefill_spec;
  const obs::RooflineReport roofline = obs::FoldRoofline(timeline, rin);

  const std::string path = prefix + "_trace.json";
  {
    std::ofstream os(path, std::ios::binary);
    if (!os) {
      std::fprintf(stderr, "ERROR: cannot write %s\n", path.c_str());
      return 1;
    }
    obs::WriteObservability(os, machine, tracer, &metrics,
                            /*include_host=*/true, &anatomy, &roofline,
                            &report.slo);
  }
  TSI_LOG(INFO) << "wrote " << path;
  return ReportFile(path, "", /*validate=*/true);
}

int Main(int argc, char** argv) {
  std::string file, perfetto_out, demo_prefix;
  bool validate = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--perfetto" && i + 1 < argc) {
      perfetto_out = argv[++i];
    } else if (arg == "--demo" && i + 1 < argc) {
      demo_prefix = argv[++i];
    } else if (arg == "--validate") {
      validate = true;
    } else if (!arg.empty() && arg[0] != '-') {
      file = arg;
    } else {
      std::fprintf(stderr,
                   "usage: trace_report <doc.json> [--perfetto out.json] "
                   "[--validate]\n"
                   "       trace_report --demo <prefix>\n");
      return 2;
    }
  }
  if (!demo_prefix.empty()) return RunDemo(demo_prefix);
  if (file.empty()) {
    std::fprintf(stderr, "usage: trace_report <doc.json> | --demo <prefix>\n");
    return 2;
  }
  return ReportFile(file, perfetto_out, validate);
}

}  // namespace
}  // namespace tsi

int main(int argc, char** argv) { return tsi::Main(argc, argv); }
