#include "common.h"

#include <fstream>
#include <sstream>

#include "base/json.h"

namespace reqbench {

ResponseKey KeyOf(const mapinv::EngineResponse& response) {
  ResponseKey key;
  if (response.status.ok()) {
    key.status = "ok";
    key.kind = mapinv::ResultKindName(response.kind);
    key.result = response.result;
  } else {
    key.status = mapinv::StatusCodeName(response.status.code());
  }
  return key;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

void SpanLog::Append(const SpanLog& other) {
  const int offset = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(span);
  }
}

std::map<std::string, int64_t> SpanLog::TotalTimes() const {
  std::map<std::string, int64_t> totals;
  for (const Span& span : spans_) {
    totals[span.name] += span.end_ns - span.start_ns;
  }
  return totals;
}

std::map<std::string, int64_t> SpanLog::SelfTimes() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  // Children are sequential and nested inside their parent, so the part of
  // the parent covered by children is the sum of their durations.
  for (const Span& span : spans_) {
    if (span.parent >= 0) self[span.parent] -= span.end_ns - span.start_ns;
  }
  std::map<std::string, int64_t> totals;
  for (size_t i = 0; i < spans_.size(); ++i) totals[spans_[i].name] += self[i];
  return totals;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}\n";
  }
  return static_cast<bool>(out);
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  if (values_.count(name) == 0) order_.push_back(name);
  values_[name] = {value, unit};
}

mapinv::Json Metrics::ToJson() const {
  mapinv::Json json = mapinv::Json::MakeObject();
  for (const std::string& name : order_) {
    const auto& [value, unit] = values_.at(name);
    mapinv::Json entry = mapinv::Json::MakeObject();
    entry.Set("value", mapinv::Json(value));
    entry.Set("unit", mapinv::Json(unit));
    json.Set(name, std::move(entry));
  }
  return json;
}

double PeakRssMb(int pid) {
  const std::string path = pid == 0 ? std::string("/proc/self/status")
                                     : "/proc/" + std::to_string(pid) +
                                           "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace reqbench
