// reqbench — the request-level benchmark program.
//
//   reqbench --workload invert|exchange|worlds|serve --seed N --seconds S
//            --trace 0|1 [--serve-bin PATH] [--work-dir DIR]
//            [--requests N] [--spans-out FILE]
//   reqbench --self-test
//
// One process runs one workload: it generates the seeded request list, sets
// the program up several times (the median is setup_s), then sends the
// fixed list through a closed loop. With --trace 0 it prints the end-to-end
// metrics; with --trace 1 it also replays the list through each layer's
// public functions with spans around the calls and prints the per-layer
// metrics. The last stdout line is the result object; the line before it
// holds diagnostics (digest, counts, set-up samples).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "base/json.h"
#include "bench.h"
#include "common.h"
#include "workloads.h"

namespace reqbench {
namespace {

constexpr int kSetups = 9;  // set-ups per run; setup_s is their median

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  long long requests = -1;  // override of the timed count
  std::string serve_bin;
  std::string work_dir = ".";
  std::string spans_out;
  bool self_test = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "reqbench: flag %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--requests") {
      args->requests = std::strtoll(value.c_str(), &end, 10);
    } else if (flag == "--serve-bin") {
      args->serve_bin = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      std::fprintf(stderr, "reqbench: unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "reqbench: bad value '%s' for %s\n", value.c_str(),
                   flag.c_str());
      return false;
    }
  }
  return true;
}

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

double SumMs(const std::vector<double>& latencies) {
  double total = 0;
  for (double ms : latencies) total += ms;
  return total;
}

// End-to-end metrics of an untraced pass.
void EndToEnd(const PassResult& pass, double setup_s, double rss_mb,
              Metrics* metrics) {
  std::vector<double> sorted = pass.latencies_ms;
  std::sort(sorted.begin(), sorted.end());
  metrics->Set("throughput_rps",
               Ratio(static_cast<double>(pass.attempted - pass.failed),
                     pass.wall_s),
               "1/s");
  metrics->Set("latency_p50_ms", Percentile(sorted, 50), "ms");
  metrics->Set("latency_p99_ms", Percentile(sorted, 99), "ms");
  metrics->Set("setup_s", setup_s, "s");
  metrics->Set("peak_rss_mb", rss_mb, "MB");
}

std::string JoinErrors(const std::vector<std::string>& errors) {
  std::string out;
  for (const std::string& e : errors) out += (out.empty() ? "" : "; ") + e;
  return out;
}

// What a traced pass leaves for the metrics: per-span-name self and total
// times, the per-layer values and counters, and the pass's digest. Taking
// it lets the span log go before the untraced pass runs.
struct TraceSummary {
  std::map<std::string, double> self_ms;
  std::map<std::string, double> total_ms;
  LayerValues values;
  double latency_sum_ms = 0;
  std::string digest;
  uint64_t failed = 0;
  std::string errors;
};

TraceSummary Summarize(const PassResult& traced, const SpanLog& log,
                       LayerValues values) {
  TraceSummary summary;
  for (const auto& [name, ns] : log.SelfTimes()) {
    summary.self_ms[name] = NsToMs(ns);
  }
  for (const auto& [name, ns] : log.TotalTimes()) {
    summary.total_ms[name] = NsToMs(ns);
  }
  const CounterSums& c = traced.counters;
  values["counter.hom_searches"] = static_cast<double>(c.hom_searches);
  values["counter.hom_plans_compiled"] =
      static_cast<double>(c.hom_plans_compiled);
  values["counter.vector_rows_scanned"] =
      static_cast<double>(c.vector_rows_scanned);
  values["counter.vector_rows_selected"] =
      static_cast<double>(c.vector_rows_selected);
  values["counter.worlds_forked"] = static_cast<double>(c.worlds_forked);
  values["counter.arena_bytes"] = static_cast<double>(c.arena_bytes);
  values["counter.resident_bytes"] = static_cast<double>(c.resident_bytes);
  values["cache.hits"] = static_cast<double>(traced.cache.hits);
  values["cache.misses"] = static_cast<double>(traced.cache.misses);
  values["cache.evictions"] = static_cast<double>(traced.cache.evictions);
  summary.values = std::move(values);
  summary.latency_sum_ms = SumMs(traced.latencies_ms);
  summary.digest = traced.digest;
  summary.failed = traced.failed;
  summary.errors = JoinErrors(traced.errors);
  return summary;
}

TraceSummary RunTraced(Runner* runner, const std::string& spans_out) {
  SpanLog log;
  LayerValues values;
  const PassResult traced = runner->RunTracedPass(&log, &values);
  if (!spans_out.empty() && !log.WriteJsonLines(spans_out)) {
    std::fprintf(stderr, "reqbench: cannot write %s\n", spans_out.c_str());
  }
  return Summarize(traced, log, std::move(values));
}

// Per-layer metrics of a traced pass, against the untraced pass it replays.
void PerLayer(const std::string& workload, const PassResult& untraced,
              const TraceSummary& t, Metrics* metrics) {
  auto get = [](const std::map<std::string, double>& map, const char* name) {
    auto it = map.find(name);
    return it == map.end() ? 0.0 : it->second;
  };
  auto self_ms = [&](const char* name) { return get(t.self_ms, name); };
  auto total_ms = [&](const char* name) { return get(t.total_ms, name); };
  auto value = [&](const char* name) { return get(t.values, name); };
  metrics->Set("parser.instance_ms", self_ms("parser.instance"), "ms");
  metrics->Set("parser.mapping_ms", self_ms("parser.mapping"), "ms");
  metrics->Set("rewrite.ms", self_ms("rewrite"), "ms");
  metrics->Set("rewrite.disjuncts", value("rewrite.disjuncts"), "count");
  metrics->Set("logic.render_ms", self_ms("logic.render"), "ms");
  metrics->Set("inversion.maximum_recovery_ms",
               self_ms("inversion.maximum_recovery"), "ms");
  metrics->Set("inversion.eliminate_equalities_ms",
               self_ms("inversion.eliminate_equalities"), "ms");
  metrics->Set("inversion.eliminate_disjunctions_ms",
               self_ms("inversion.eliminate_disjunctions"), "ms");
  metrics->Set("inversion.polyso_ms", self_ms("inversion.polyso"), "ms");
  metrics->Set("inversion.deps_out", value("inversion.deps_out"), "count");
  metrics->Set("eval.collect_ms", total_ms("eval.collect"), "ms");
  metrics->Set("eval.selection_density",
               Ratio(value("counter.vector_rows_selected"),
                     value("counter.vector_rows_scanned")),
               "ratio");
  metrics->Set("eval.hom_searches", value("counter.hom_searches"),
               "count");
  metrics->Set("eval.plans_per_search",
               Ratio(value("counter.hom_plans_compiled"),
                     value("counter.hom_searches")),
               "ratio");
  const bool serve = workload == "serve";
  // In-process workloads read the EvalCache at the pass boundaries; serve
  // reads the server's per-session totals through the metrics verb.
  const double hits = serve ? value("server.cache_hits")
                            : value("cache.hits");
  const double misses = serve ? value("server.cache_misses")
                              : value("cache.misses");
  metrics->Set("eval.cache_hits", hits, "count");
  metrics->Set("eval.cache_misses", misses, "count");
  metrics->Set("eval.cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
  metrics->Set("eval.cache_evictions",
               serve ? 0.0 : value("cache.evictions"),
               "count");
  const double forward = self_ms("chase.forward");
  const double collect = total_ms("eval.collect");
  metrics->Set("chase.forward_ms", forward, "ms");
  metrics->Set("chase.fire_ms",
               workload == "exchange" ? std::max(0.0, forward - collect) : 0.0,
               "ms");
  metrics->Set("chase.facts", value("chase.facts"), "count");
  metrics->Set("chase.reverse_ms", self_ms("chase.reverse"), "ms");
  metrics->Set("chase.worlds_forked", value("counter.worlds_forked"),
               "count");
  metrics->Set("chase.worlds_kept_ratio",
               Ratio(value("chase.worlds_returned"),
                     value("counter.worlds_forked")),
               "ratio");
  metrics->Set("chase.delta_ms", self_ms("chase.delta"), "ms");
  metrics->Set("data.render_ms", self_ms("data.render"), "ms");
  metrics->Set("data.index_build_ms", value("data.index_build_ms"), "ms");
  metrics->Set("data.fork_us",
               Ratio(value("data.fork_ns"), value("data.forks")) / 1000.0,
               "us");
  metrics->Set("data.arena_bytes", value("counter.arena_bytes"),
               "bytes");
  metrics->Set("data.resident_bytes", value("counter.resident_bytes"),
               "bytes");
  metrics->Set("data.snapshot_load_ms", value("data.snapshot_load_ms"), "ms");
  const double execute = total_ms("request");
  const double unattributed = self_ms("request");
  metrics->Set("engine.execute_ms", execute, "ms");
  metrics->Set("engine.serialize_ms", self_ms("engine.serialize"), "ms");
  metrics->Set("engine.unattributed_ms", unattributed, "ms");
  // Serve: the client's round trips minus the mirror's execution of the same
  // requests — a residual, so it is reported but not counted as covered.
  const double transport =
      serve ? std::max(0.0, total_ms("serve.roundtrip") - execute) : 0.0;
  const double reply_decode = total_ms("serve.reply_decode");
  metrics->Set("serve.transport_ms", transport, "ms");
  metrics->Set("serve.codec_ms",
               self_ms("serve.request_decode") + reply_decode, "ms");
  metrics->Set("serve.memo_hits", value("serve.memo_hits"), "count");
  metrics->Set("serve.rejected", value("serve.rejected"), "count");
  const double untraced_ms = SumMs(untraced.latencies_ms);
  const double traced_ms = t.latency_sum_ms;
  metrics->Set("trace.overhead_pct",
               100.0 * Ratio(traced_ms - untraced_ms, untraced_ms), "%");
  // Measured layer self time against the traced request wall time: every
  // span under a request span but the request's own unattributed remainder,
  // plus, for serve, the client's reply decoding. Against the untraced wall
  // time it is this times (1 + overhead).
  metrics->Set("trace.coverage_pct",
               100.0 * Ratio(execute - unattributed + reply_decode, traced_ms),
               "%");
}


// --- self-test --------------------------------------------------------------

int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "self-test FAILED: %s\n", what.c_str());
      ++failures;
    }
  };
  // Percentile rules (nearest rank).
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(Percentile(hundred, 50) == 50, "p50 of 1..100 is 50");
  expect(Percentile(hundred, 99) == 99, "p99 of 1..100 is 99");
  expect(Percentile(hundred, 100) == 100, "p100 is the maximum");
  expect(Percentile({7.0}, 99) == 7.0, "percentile of one sample");
  expect(Percentile({}, 50) == 0.0, "percentile of no samples");
  expect(Median({3, 1, 2}) == 2 && Median({4, 1, 3, 2}) == 2.5, "median");
  // Sample-count rule: p99 needs ten samples beyond it, hence n >= 1000.
  expect(SamplesBeyond(1000, 99) == 10, "1000 samples leave 10 beyond p99");
  expect(SamplesBeyond(999, 99) < kMinSamplesBeyond,
         "999 samples leave fewer than 10 beyond p99");
  for (const std::string& name : WorkloadNames()) {
    expect(SamplesBeyond(TimedCount(name, 1), 99) >= kMinSamplesBeyond,
           name + ": timed count supports p99");
  }
  // Metric names, as both modes emit them.
  Metrics e2e, layers;
  EndToEnd(PassResult{}, 0, 0, &e2e);
  PerLayer("serve", PassResult{}, TraceSummary{}, &layers);
  expect(e2e.names().size() == 5 && layers.names().size() == 40,
         "metric counts");
  for (const Metrics* table : {&e2e, &layers}) {
    for (const std::string& name : table->names()) {
      expect(ValidMetricName(name), "metric name " + name);
    }
  }
  // Request lists: same seed → byte-identical, different seed → different.
  for (const std::string& name : WorkloadNames()) {
    WorkloadSpec a, b, c;
    MakeWorkload(name, 1, 300, &a);
    MakeWorkload(name, 1, 300, &b);
    MakeWorkload(name, 2, 300, &c);
    expect(Dump(a) == Dump(b), name + ": same seed gives the same list");
    expect(Dump(a) != Dump(c), name + ": another seed gives another list");
    expect(a.timed.size() == 300, name + ": fixed request count");
  }
  std::printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

// One set-up; on failure reports it and releases what was built.
bool SetUp(Runner* runner) {
  const mapinv::Status status = runner->Setup();
  if (status.ok()) return true;
  std::fprintf(stderr, "reqbench: set-up failed: %s\n",
               status.ToString().c_str());
  runner->Teardown();
  return false;
}

int Run(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 1;
  if (args.self_test) return SelfTest();

  const int64_t gen_start = NowNs();
  const size_t count = args.requests >= 0
                           ? static_cast<size_t>(args.requests)
                           : TimedCount(args.workload, args.seconds);
  WorkloadSpec spec;
  if (!MakeWorkload(args.workload, args.seed, count, &spec)) {
    std::fprintf(stderr, "reqbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 1;
  }
  const double gen_s = static_cast<double>(NowNs() - gen_start) / 1e9;

  const bool serve = args.workload == "serve";
  mapinv::Result<std::unique_ptr<Runner>> made =
      serve ? MakeServeRunner(spec, {args.serve_bin, args.work_dir})
            : MakeInProcessRunner(spec);
  if (!made.ok()) {
    std::fprintf(stderr, "reqbench: %s\n", made.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<Runner> runner = std::move(made).ValueOrDie();
  std::vector<double> setups;
  for (int r = 0; r < kSetups; ++r) {
    if (r > 0) runner->Teardown();
    const int64_t start = NowNs();
    if (!SetUp(runner.get())) return 2;
    setups.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }

  // Trace mode replays the list first, straight after set-up — the state
  // every untraced run starts from, so its digest must equal theirs — and
  // then sets up again and runs the untraced pass the overhead and coverage
  // are measured against. (The two passes are not compared by digest inside
  // one process: some library paths draw fresh symbol names from
  // process-wide counters, so a second pass can render different names.)
  std::optional<TraceSummary> traced;
  if (args.trace != 0) {
    traced = RunTraced(runner.get(), args.spans_out);
    runner->Teardown();
    if (!SetUp(runner.get())) return 2;
  }
  const PassResult pass = runner->RunPass();
  const mapinv::Status check = runner->Check();
  const double rss_mb = runner->PeakRssMb();
  bool correct = pass.failed == 0 && check.ok() && pass.attempted > 0;

  mapinv::Json diag = mapinv::Json::MakeObject();
  diag.Set("workload", mapinv::Json(args.workload));
  diag.Set("seed", mapinv::Json(args.seed));
  diag.Set("requests", mapinv::Json(static_cast<uint64_t>(count)));
  diag.Set("generate_s", mapinv::Json(gen_s));
  mapinv::Json setup_samples = mapinv::Json::MakeArray();
  for (double s : setups) setup_samples.Append(mapinv::Json(s));
  diag.Set("setup_samples_s", std::move(setup_samples));
  diag.Set("wall_s", mapinv::Json(pass.wall_s));
  // The digest of the pass that ran first after set-up (the traced one in
  // trace mode): equal across every run of one seed, traced or not.
  diag.Set("digest", mapinv::Json(traced ? traced->digest : pass.digest));
  const double max_ms = pass.latencies_ms.empty()
                            ? 0.0
                            : *std::max_element(pass.latencies_ms.begin(),
                                                pass.latencies_ms.end());
  diag.Set("max_request_share",
           mapinv::Json(Ratio(max_ms, 1000.0 * pass.wall_s)));
  diag.Set("p99_samples_beyond",
           mapinv::Json(static_cast<uint64_t>(
               SamplesBeyond(pass.latencies_ms.size(), 99))));
  diag.Set("check", mapinv::Json(check.ok() ? std::string("ok")
                                            : check.ToString()));
  if (!pass.errors.empty()) {
    diag.Set("errors", mapinv::Json(JoinErrors(pass.errors)));
  }

  Metrics metrics;
  if (args.trace == 0) {
    EndToEnd(pass, Median(setups), rss_mb, &metrics);
  } else {
    if (!traced->errors.empty()) {
      diag.Set("traced_errors", mapinv::Json(traced->errors));
    }
    diag.Set("untraced_digest", mapinv::Json(pass.digest));
    correct = correct && traced->failed == 0;
    PerLayer(args.workload, pass, *traced, &metrics);
  }
  runner->Teardown();
  std::printf("{\"diagnostics\":%s}\n", diag.Serialize().c_str());
  mapinv::Json result = mapinv::Json::MakeObject();
  result.Set("correct", mapinv::Json(correct));
  result.Set("attempted", mapinv::Json(pass.attempted));
  result.Set("failed", mapinv::Json(pass.failed));
  result.Set("metrics", metrics.ToJson());
  std::printf("%s\n", result.Serialize().c_str());
  return 0;
}

}  // namespace
}  // namespace reqbench

int main(int argc, char** argv) { return reqbench::Run(argc, argv); }
