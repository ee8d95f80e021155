// Shared pieces of the request-level benchmark: clocks, the response
// digest, percentile rules, benchmark-side spans and the metric sink.
//
// Everything here lives on the benchmark's side of the boundary: spans are
// opened and closed around the benchmark's own calls into the library, and
// counters are read from the library's existing ExecStats and EvalCache
// statistics at the same boundaries.

#ifndef REQBENCH_COMMON_H_
#define REQBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "base/json.h"
#include "engine/execution_options.h"
#include "engine/request.h"

namespace reqbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// FNV-1a over length-prefixed fields: the digest of a response sequence.
class Digest {
 public:
  void Add(std::string_view bytes) {
    AddRaw(std::to_string(bytes.size()));
    AddRaw(":");
    AddRaw(bytes);
  }
  std::string Hex() const {
    static const char* kHex = "0123456789abcdef";
    std::string out(16, '0');
    uint64_t v = h_;
    for (int i = 15; i >= 0; --i, v >>= 4) out[i] = kHex[v & 0xf];
    return out;
  }

 private:
  void AddRaw(std::string_view bytes) {
    for (unsigned char c : bytes) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
  }
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// The status/kind/result triple every response contributes to the digest.
struct ResponseKey {
  std::string status;  // "ok" or the StatusCode name
  std::string kind;    // ResultKindName, or the verb's kind on the wire
  std::string result;
};

inline void AddToDigest(const ResponseKey& key, Digest* digest) {
  digest->Add(key.status);
  digest->Add(key.kind);
  digest->Add(key.result);
}

ResponseKey KeyOf(const mapinv::EngineResponse& response);

// Nearest-rank percentile of an ascending sample: the smallest value with at
// least p% of the samples at or below it.
inline double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

// Samples strictly above the nearest-rank p-th percentile.
inline size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  const size_t at = rank < 1.0 ? 1 : static_cast<size_t>(rank);
  return at >= n ? 0 : n - at;
}

// The benchmark reports a percentile only when at least this many samples
// lie beyond it.
inline constexpr size_t kMinSamplesBeyond = 10;

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// True if `name` is a legal metric name: [A-Za-z0-9_.-]+, starting with a
// letter or digit, at most 64 characters.
bool ValidMetricName(std::string_view name);

// --- benchmark-side spans ---------------------------------------------------

// One span: a named interval around one of the benchmark's calls into the
// library. `parent` is the index of the enclosing span or -1; spans of one
// request share `request`.
struct Span {
  const char* name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  uint32_t request = 0;
};

// In-memory span recorder. Spans are kept until the run ends and only then
// aggregated (or written out), so recording is two clock reads and a push.
class SpanLog {
 public:
  SpanLog() { spans_.reserve(1 << 16); }

  void set_request(uint32_t request) { request_ = request; }

  int Begin(const char* name) {
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request_;
    spans_.push_back(span);
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    spans_[id].start_ns = NowNs();
    return id;
  }

  void End(int id) {
    spans_[id].end_ns = NowNs();
    open_.pop_back();
  }

  // Appends the closed spans of another log (e.g. one per client thread).
  void Append(const SpanLog& other);

  // Self time per span name (duration minus the part covered by child
  // spans), in nanoseconds.
  std::map<std::string, int64_t> SelfTimes() const;
  // Total duration per span name, in nanoseconds.
  std::map<std::string, int64_t> TotalTimes() const;
  // Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  uint32_t request_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), id_(log == nullptr ? -1 : log->Begin(name)) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// --- counters ---------------------------------------------------------------

// Sums of the per-response ExecStats counters the per-layer metrics use.
struct CounterSums {
  uint64_t hom_searches = 0;
  uint64_t hom_plans_compiled = 0;
  uint64_t vector_rows_scanned = 0;
  uint64_t vector_rows_selected = 0;
  uint64_t worlds_forked = 0;
  uint64_t arena_bytes = 0;     // high-water mark
  uint64_t resident_bytes = 0;  // high-water mark

  void Add(const mapinv::ExecStatsSnapshot& s) {
    hom_searches += s.hom_searches;
    hom_plans_compiled += s.hom_plans_compiled;
    vector_rows_scanned += s.vector_rows_scanned;
    vector_rows_selected += s.vector_rows_selected;
    worlds_forked += s.worlds_forked;
    arena_bytes = std::max(arena_bytes, s.tuples_arena_bytes);
    resident_bytes = std::max(resident_bytes, s.arena_resident_bytes);
  }

  void Merge(const CounterSums& o) {
    hom_searches += o.hom_searches;
    hom_plans_compiled += o.hom_plans_compiled;
    vector_rows_scanned += o.vector_rows_scanned;
    vector_rows_selected += o.vector_rows_selected;
    worlds_forked += o.worlds_forked;
    arena_bytes = std::max(arena_bytes, o.arena_bytes);
    resident_bytes = std::max(resident_bytes, o.resident_bytes);
  }
};

// Metric sink: name → (value, unit), printed in insertion order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::string>& names() const { return order_; }
  mapinv::Json ToJson() const;  // {"name": {"value": v, "unit": u}, ...}

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

// Peak resident set size (VmHWM) of a process, in MiB; `pid` 0 = self.
double PeakRssMb(int pid = 0);

}  // namespace reqbench

#endif  // REQBENCH_COMMON_H_
