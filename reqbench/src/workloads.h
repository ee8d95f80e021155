// Seeded request lists for the four workloads.
//
// A workload is a pure function of (name, seed, request count): the same
// arguments give a byte-identical list (see Dump), which is what lets two
// runs of one seed be compared response for response. The lists hold only
// texts and indexes — the program receives the generated inputs and
// nothing else; parsing, binding and index warm-up happen in set-up.

#ifndef REQBENCH_WORKLOADS_H_
#define REQBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace reqbench {

// One request of a workload's list.
struct ReqSpec {
  std::string command;  // engine command or serving verb
  std::string mapping;  // inline mapping text (invert workload)
  std::string query;    // rewrite query
  std::string text;     // inline instance / delta / put payload
  int held = -1;        // index into WorkloadSpec::held (or -1)
  int conn = 0;         // serve: the connection that sends it
};

// A source instance the program holds across requests.
struct HeldSpec {
  int mapping = 0;        // index into WorkloadSpec::mappings
  std::string name;       // serve: the session-side instance name
  std::string text;       // instance text, parsed in set-up
  bool via_snapshot = false;  // serve: registered by instance.load
};

struct WorkloadSpec {
  std::string name;
  uint64_t seed = 0;
  std::vector<std::string> mappings;  // held mapping texts
  std::vector<HeldSpec> held;
  std::vector<ReqSpec> warmup;  // untimed, part of set-up
  std::vector<ReqSpec> timed;   // the measured list, in order
};

// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

// Requests in the timed list of `name` for a run of `seconds` seconds.
size_t TimedCount(const std::string& name, int seconds);

// Builds the list; false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, size_t count,
                  WorkloadSpec* out);

// Canonical text of a workload's list (one request per line).
std::string Dump(const WorkloadSpec& spec);

}  // namespace reqbench

#endif  // REQBENCH_WORKLOADS_H_
