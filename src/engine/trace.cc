#include "engine/trace.h"

#include <cstdio>
#include <utility>

namespace mapinv {

namespace {

ExecStatsSnapshot Delta(const ExecStatsSnapshot& now,
                        const ExecStatsSnapshot& then) {
  ExecStatsSnapshot d;
  // `partial` is a flag, not a counter: a span is partial if the flag is set
  // at exit (it is sticky within a run, so "set at exit" covers "set during
  // the span or before it" — good enough for "was anything cut short").
  d.partial = now.partial;
  for (const ExecCounter& c : kExecCounters) {
    d.*c.value = now.*c.value - then.*c.value;
  }
  return d;
}

void Accumulate(ExecStatsSnapshot& into, const ExecStatsSnapshot& d) {
  into.partial = into.partial || d.partial;
  for (const ExecCounter& c : kExecCounters) into.*c.value += d.*c.value;
}

std::string FormatMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

void AppendText(const TraceSpan& span, int depth, std::string& out) {
  out.append(static_cast<size_t>(depth) * 2, ' ');
  out += span.name;
  if (span.count > 1) out += " x" + std::to_string(span.count);
  out += "  " + FormatMs(span.wall_ms) + " ms ";
  for (const ExecCounter& c : kExecCounters) {
    out += ' ';
    out += c.name;
    out += '=';
    out += std::to_string(span.stats.*c.value);
  }
  if (span.stats.partial) out += " partial=true";
  out += "\n";
  for (const auto& child : span.children) {
    AppendText(*child, depth + 1, out);
  }
}

void AppendStatsJson(const ExecStatsSnapshot& stats, std::string& out) {
  for (const ExecCounter& c : kExecCounters) {
    out += '"';
    out += c.name;
    out += "\":";
    out += std::to_string(stats.*c.value);
    out += ',';
  }
  out += "\"partial\":";
  out += stats.partial ? "true" : "false";
}

void AppendJson(const TraceSpan& span, std::string& out) {
  out += "{\"name\":\"" + span.name + "\"";
  out += ",\"count\":" + std::to_string(span.count);
  out += ",\"wall_ms\":" + FormatMs(span.wall_ms);
  out += ",\"stats\":{";
  AppendStatsJson(span.stats, out);
  out += "},\"children\":[";
  for (size_t i = 0; i < span.children.size(); ++i) {
    if (i > 0) out += ",";
    AppendJson(*span.children[i], out);
  }
  out += "]}";
}

}  // namespace

Tracer::Tracer() { root_.name = "trace"; }

void Tracer::Begin(std::string_view phase, const ExecStats* stats) {
  TraceSpan* parent = open_.empty() ? &root_ : open_.back().span;
  TraceSpan* span = nullptr;
  // Re-entering a phase under the same parent accumulates into the existing
  // child, keeping loop-heavy pipelines to one node per phase.
  for (const auto& child : parent->children) {
    if (child->name == phase) {
      span = child.get();
      break;
    }
  }
  if (span == nullptr) {
    auto owned = std::make_unique<TraceSpan>();
    owned->name = std::string(phase);
    span = owned.get();
    parent->children.push_back(std::move(owned));
  }
  ++span->count;
  Frame frame;
  frame.span = span;
  frame.start = std::chrono::steady_clock::now();
  frame.stats = stats;
  if (stats != nullptr) frame.at_entry = stats->Snapshot();
  open_.push_back(frame);
}

void Tracer::End() {
  if (open_.empty()) return;
  Frame frame = open_.back();
  open_.pop_back();
  const auto elapsed = std::chrono::steady_clock::now() - frame.start;
  frame.span->wall_ms +=
      std::chrono::duration<double, std::milli>(elapsed).count();
  if (frame.stats != nullptr) {
    Accumulate(frame.span->stats,
               Delta(frame.stats->Snapshot(), frame.at_entry));
  }
}

void Tracer::Reset() {
  open_.clear();
  root_ = TraceSpan{};
  root_.name = "trace";
}

std::string Tracer::ToText() const {
  std::string out;
  for (const auto& child : root_.children) {
    AppendText(*child, 0, out);
  }
  if (out.empty()) out = "(no spans recorded)\n";
  return out;
}

std::string Tracer::ToJson() const {
  std::string out;
  TraceSpan summary;
  summary.name = root_.name;
  summary.count = 1;
  for (const auto& child : root_.children) {
    summary.wall_ms += child->wall_ms;
    Accumulate(summary.stats, child->stats);
  }
  out += "{\"name\":\"" + summary.name + "\"";
  out += ",\"count\":" + std::to_string(summary.count);
  out += ",\"wall_ms\":" + FormatMs(summary.wall_ms);
  out += ",\"stats\":{";
  AppendStatsJson(summary.stats, out);
  out += "},\"children\":[";
  for (size_t i = 0; i < root_.children.size(); ++i) {
    if (i > 0) out += ",";
    AppendJson(*root_.children[i], out);
  }
  out += "]}";
  return out;
}

Status PhaseExhausted(std::string_view phase, std::string_view detail) {
  return Status::ResourceExhausted("phase '" + std::string(phase) +
                                   "': " + std::string(detail));
}

Status PhaseCancelled(std::string_view phase) {
  return Status::Cancelled("phase '" + std::string(phase) + "': cancelled");
}

}  // namespace mapinv
