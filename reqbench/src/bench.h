// The runner interface shared by the in-process workloads and serve.

#ifndef REQBENCH_BENCH_H_
#define REQBENCH_BENCH_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "common.h"
#include "engine/eval_cache.h"
#include "workloads.h"

namespace reqbench {

// One pass over a workload's timed list.
struct PassResult {
  std::vector<double> latencies_ms;  // one per request, send → checked reply
  double wall_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string digest;  // over (status, kind, result) of every response
  CounterSums counters;
  mapinv::EvalCache::Stats cache;  // EvalCache traffic during the pass
  std::vector<std::string> errors;  // first few failures, for the log
};

// Per-layer values a traced pass measures besides span times: counts and
// probe timings, keyed by metric name.
using LayerValues = std::map<std::string, double>;

class Runner {
 public:
  virtual ~Runner() = default;
  // One complete program set-up: everything before the first timed request.
  virtual mapinv::Status Setup() = 0;
  // Releases what Setup built (stops the server for serve).
  virtual void Teardown() {}
  // The timed closed-loop pass, tracing off.
  virtual PassResult RunPass() = 0;
  // The same list replayed through the layers' public functions, with a
  // span around each call.
  virtual PassResult RunTracedPass(SpanLog* log, LayerValues* values) = 0;
  // Semantic checks on a sample of the last pass, outside the timed window.
  virtual mapinv::Status Check() = 0;
  // Peak RSS of the process doing the work, in MiB.
  virtual double PeakRssMb() = 0;
};

std::unique_ptr<Runner> MakeInProcessRunner(const WorkloadSpec& spec);

struct ServeOptions {
  std::string server_binary;  // mapinv_serve
  std::string work_dir;       // socket and snapshot files live here
};
// Also writes the snapshot files the serve set-up loads (input generation).
mapinv::Result<std::unique_ptr<Runner>> MakeServeRunner(
    const WorkloadSpec& spec, const ServeOptions& options);

}  // namespace reqbench

#endif  // REQBENCH_BENCH_H_
