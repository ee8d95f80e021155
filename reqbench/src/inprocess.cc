// The in-process workloads (invert, exchange, worlds): one client, a closed
// loop through ExecuteRequest at threads=1, and a traced replay that calls
// each layer's public functions in ExecuteRequest's dispatch order.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/symbol_context.h"
#include "bench.h"
#include "chase/chase_tgd.h"
#include "chase/round_trip.h"
#include "check/properties.h"
#include "check/solutions.h"
#include "engine/parallel_chase.h"
#include "engine/request.h"
#include "eval/hom.h"
#include "inversion/eliminate_disjunctions.h"
#include "inversion/eliminate_equalities.h"
#include "inversion/maximum_recovery.h"
#include "inversion/polyso.h"
#include "mapgen/generators.h"
#include "parser/parser.h"
#include "rewrite/rewrite.h"

namespace reqbench {
namespace {

using mapinv::EngineRequest;
using mapinv::EngineResponse;
using mapinv::ExecutionOptions;
using mapinv::Instance;
using mapinv::ResultKind;
using mapinv::ReverseMapping;
using mapinv::Status;
using mapinv::TgdMapping;

constexpr size_t kCheckSamples = 12;  // responses kept for semantic checks
constexpr int kForkProbeReps = 16;    // forks timed per worlds request

// Placeholder for a stage that has not run yet (a Result needs a value or
// an error).
Status NotRun() { return Status::Internal("stage not run"); }

ExecutionOptions BaseOptions() {
  ExecutionOptions options;
  options.threads = 1;
  return options;
}

mapinv::EvalCache::Stats CacheDelta(const mapinv::EvalCache::Stats& before,
                                    const mapinv::EvalCache::Stats& after) {
  mapinv::EvalCache::Stats d = after;
  d.hits -= before.hits;
  d.misses -= before.misses;
  d.evictions -= before.evictions;
  return d;
}

class InProcessRunner : public Runner {
 public:
  explicit InProcessRunner(const WorkloadSpec& spec) : spec_(spec) {}

  Status Setup() override;
  PassResult RunPass() override;
  PassResult RunTracedPass(SpanLog* log, LayerValues* values) override;
  Status Check() override;
  double PeakRssMb() override { return reqbench::PeakRssMb(0); }

 private:
  EngineRequest Bind(const ReqSpec& req, int64_t id) const;
  std::vector<EngineRequest> BindTimed() const;
  EngineResponse Traced(const ReqSpec& req, int64_t id, SpanLog* log,
                        LayerValues* values);
  double IndexBuildMs() const;

  const WorkloadSpec& spec_;
  std::vector<std::shared_ptr<const TgdMapping>> mappings_;
  std::vector<std::shared_ptr<const ReverseMapping>> reverses_;
  std::vector<std::shared_ptr<const Instance>> held_;
  // A recovered world and the request's source, kept by Traced for the fork
  // probe that runs after the request span closes.
  std::optional<Instance> fork_world_;
  std::optional<Instance> fork_delta_;
  // (request index, response) pairs kept from the last untraced pass.
  std::vector<std::pair<size_t, EngineResponse>> samples_;
};

EngineRequest InProcessRunner::Bind(const ReqSpec& req, int64_t id) const {
  EngineRequest request;
  request.id = id;
  request.command = req.command;
  request.mapping = req.mapping;
  request.query = req.query;
  request.instance = req.text;
  if (spec_.name == "exchange") {
    request.bound_mapping = mappings_[spec_.held[req.held].mapping];
    request.bound_instance = held_[req.held];
  } else if (spec_.name == "worlds") {
    request.bound_mapping = mappings_[req.held];
    request.bound_reverse = reverses_[req.held];
  }
  return request;
}

std::vector<EngineRequest> InProcessRunner::BindTimed() const {
  std::vector<EngineRequest> requests;
  requests.reserve(spec_.timed.size());
  for (size_t i = 0; i < spec_.timed.size(); ++i) {
    requests.push_back(Bind(spec_.timed[i], static_cast<int64_t>(i)));
  }
  return requests;
}

Status InProcessRunner::Setup() {
  // Every set-up starts from an empty EvalCache, so repeated set-ups in one
  // process each pay the same fill.
  mapinv::GlobalEvalCache().Clear();
  mappings_.clear();
  reverses_.clear();
  held_.clear();
  const ExecutionOptions base = BaseOptions();
  for (const std::string& text : spec_.mappings) {
    MAPINV_ASSIGN_OR_RETURN(TgdMapping mapping, mapinv::LoadMappingSpec(text));
    mappings_.push_back(std::make_shared<const TgdMapping>(std::move(mapping)));
  }
  for (const HeldSpec& held : spec_.held) {
    MAPINV_ASSIGN_OR_RETURN(
        Instance instance,
        mapinv::ParseInstance(held.text, *mappings_[held.mapping]->source));
    held_.push_back(std::make_shared<const Instance>(std::move(instance)));
  }
  if (spec_.name == "worlds") {
    // The bound reverse mappings: the disjunctive maxrec output of E1.
    for (const auto& mapping : mappings_) {
      EngineRequest maxrec;
      maxrec.command = "maxrec";
      maxrec.bound_mapping = mapping;
      EngineResponse response = mapinv::ExecuteRequest(maxrec, base);
      MAPINV_RETURN_NOT_OK(response.status);
      reverses_.push_back(response.reverse_artifact);
    }
  }
  for (const ReqSpec& req : spec_.warmup) {
    MAPINV_RETURN_NOT_OK(mapinv::ExecuteRequest(Bind(req, -1), base).status);
  }
  return Status::OK();
}

// The lazy-index share of the exchange set-up: each held instance is parsed
// afresh and chased twice; the first chase builds its indexes, so the first
// minus the second isolates that cost. A probe of the traced run only, never
// inside a timed set-up.
double InProcessRunner::IndexBuildMs() const {
  const ExecutionOptions base = BaseOptions();
  double total_ms = 0;
  for (size_t h = 0; h < spec_.held.size(); ++h) {
    const auto& mapping = mappings_[spec_.held[h].mapping];
    mapinv::Result<Instance> fresh =
        mapinv::ParseInstance(spec_.held[h].text, *mapping->source);
    if (!fresh.ok()) continue;
    EngineRequest request;
    request.command = "exchange";
    request.bound_mapping = mapping;
    request.bound_instance =
        std::make_shared<const Instance>(std::move(*fresh));
    const int64_t start = NowNs();
    (void)mapinv::ExecuteRequest(request, base);
    const int64_t cold = NowNs() - start;
    const int64_t again = NowNs();
    (void)mapinv::ExecuteRequest(request, base);
    total_ms += NsToMs(cold - (NowNs() - again));
  }
  return total_ms;
}

PassResult InProcessRunner::RunPass() {
  const std::vector<EngineRequest> requests = BindTimed();
  const ExecutionOptions base = BaseOptions();
  const size_t stride = std::max<size_t>(1, requests.size() / kCheckSamples);
  samples_.clear();
  PassResult pass;
  pass.latencies_ms.reserve(requests.size());
  Digest digest;
  const mapinv::EvalCache::Stats before = mapinv::GlobalEvalCache().GetStats();
  const int64_t start = NowNs();
  for (size_t i = 0; i < requests.size(); ++i) {
    const int64_t t0 = NowNs();
    EngineResponse response = mapinv::ExecuteRequest(requests[i], base);
    (void)mapinv::ResponseToJson(response).Serialize();
    AddToDigest(KeyOf(response), &digest);
    pass.latencies_ms.push_back(NsToMs(NowNs() - t0));
    ++pass.attempted;
    if (!response.status.ok()) {
      ++pass.failed;
      if (pass.errors.size() < 5) {
        pass.errors.push_back(std::to_string(i) + ": " +
                              response.status.ToString());
      }
    }
    pass.counters.Add(response.stats);
    if (i % stride == 0 && samples_.size() < kCheckSamples) {
      samples_.emplace_back(i, std::move(response));
    }
  }
  pass.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  pass.cache = CacheDelta(before, mapinv::GlobalEvalCache().GetStats());
  pass.digest = digest.Hex();
  return pass;
}

// Replays one request through the layers ExecuteRequest would call, with a
// span around each call. The response it assembles must match
// ExecuteRequest's byte for byte (the digests are compared).
EngineResponse InProcessRunner::Traced(const ReqSpec& req, int64_t id,
                                       SpanLog* log, LayerValues* values) {
  mapinv::ExecStats stats;
  mapinv::SymbolContext symbols;
  ExecutionOptions options = BaseOptions();
  options.stats = &stats;
  options.symbols = &symbols;
  EngineResponse response;
  response.id = id;
  auto finish = [&](Status status) {
    response.status = std::move(status);
    if (!response.status.ok()) {
      response.kind = ResultKind::kNone;
      response.result.clear();
    }
  };

  ScopedSpan request_span(log, "request");
  Status status = Status::OK();
  if (spec_.name == "invert") {
    std::shared_ptr<const TgdMapping> mapping;
    {
      ScopedSpan span(log, "parser.mapping");
      mapinv::Result<TgdMapping> parsed = mapinv::LoadMappingSpec(req.mapping);
      if (parsed.ok()) {
        mapping = std::make_shared<const TgdMapping>(std::move(*parsed));
      } else {
        status = parsed.status();
      }
    }
    if (status.ok() && req.command == "invert") {
      // CqMaximumRecovery's three stages, sharing one deadline.
      mapinv::ExecDeadline deadline(options.deadline_ms);
      ExecutionOptions inner = options;
      inner.deadline = &deadline;
      mapinv::Result<ReverseMapping> stage = NotRun();
      {
        ScopedSpan span(log, "inversion.maximum_recovery");
        stage = mapinv::MaximumRecovery(*mapping, inner);
      }
      if (stage.ok()) {
        ScopedSpan span(log, "inversion.eliminate_equalities");
        stage = mapinv::EliminateEqualities(*stage, inner);
      }
      if (stage.ok()) {
        ScopedSpan span(log, "inversion.eliminate_disjunctions");
        stage = mapinv::EliminateDisjunctions(std::move(*stage), inner);
      }
      status = stage.status();
      if (stage.ok()) {
        // Rendering, and releasing the result, as the dispatch does.
        ScopedSpan span(log, "logic.render");
        response.result = stage->ToString();
        response.kind = ResultKind::kReverseMapping;
        (*values)["inversion.deps_out"] +=
            static_cast<double>(stage->deps.size());
        stage = NotRun();
      }
    } else if (status.ok() && req.command == "polyso") {
      mapinv::Result<mapinv::SOInverseMapping> inverse = NotRun();
      {
        ScopedSpan span(log, "inversion.polyso");
        inverse = mapinv::PolySOInverseOfTgds(*mapping, options);
      }
      status = inverse.status();
      if (inverse.ok()) {
        ScopedSpan span(log, "logic.render");
        response.result = inverse->ToString();
        response.kind = ResultKind::kSOInverse;
        (*values)["inversion.deps_out"] +=
            static_cast<double>(inverse->inverse.rules.size());
        inverse = NotRun();
      }
    } else if (status.ok() && req.command == "rewrite") {
      mapinv::Result<mapinv::ConjunctiveQuery> query = NotRun();
      {
        ScopedSpan span(log, "parser.mapping");
        query = mapinv::ParseCq(req.query);
      }
      mapinv::Result<mapinv::UnionCq> rewriting =
          query.ok() ? NotRun() : query.status();
      if (query.ok()) {
        ScopedSpan span(log, "rewrite");
        rewriting = mapinv::RewriteOverSource(*mapping, *query, options);
      }
      status = rewriting.status();
      if (rewriting.ok()) {
        ScopedSpan span(log, "logic.render");
        response.result = rewriting->ToString() + "\n";
        response.kind = ResultKind::kUnionCq;
        (*values)["rewrite.disjuncts"] +=
            static_cast<double>(rewriting->disjuncts.size());
        rewriting = NotRun();
      }
    }
  } else if (spec_.name == "exchange") {
    const auto& mapping = mappings_[spec_.held[req.held].mapping];
    const Instance& source = *held_[req.held];
    mapinv::Result<Instance> target = NotRun();
    {
      ScopedSpan span(log, "chase.forward");
      target = mapinv::ChaseTgds(*mapping, source, options);
    }
    status = target.status();
    if (target.ok()) {
      // Rendering, and releasing the target's storage.
      ScopedSpan span(log, "data.render");
      response.result = target->ToString() + "\n";
      response.kind = ResultKind::kInstance;
      (*values)["chase.facts"] += static_cast<double>(target->TotalSize());
      target = NotRun();
    }
  } else if (spec_.name == "worlds") {
    const auto& mapping = mappings_[req.held];
    mapinv::Result<Instance> source = NotRun();
    {
      ScopedSpan span(log, "parser.instance");
      source = mapinv::ParseInstance(req.text, *mapping->source);
    }
    mapinv::Result<Instance> target =
        source.ok() ? NotRun() : source.status();
    if (source.ok()) {
      ScopedSpan span(log, "chase.forward");
      target = mapinv::ChaseTgds(*mapping, *source, options);
    }
    mapinv::Result<std::vector<Instance>> worlds =
        target.ok() ? NotRun() : target.status();
    if (target.ok()) {
      ScopedSpan span(log, "chase.reverse");
      worlds = mapinv::RoundTripWorlds(*mapping, *reverses_[req.held], *source,
                                       options);
    }
    status = worlds.status();
    if (worlds.ok()) {
      // Rendering, and releasing the worlds and the target.
      ScopedSpan span(log, "data.render");
      std::string out = "target:    " + target->ToString() + "\n";
      for (const Instance& world : *worlds) {
        out += "recovered: " + world.ToString() + "\n";
      }
      response.result = std::move(out);
      response.kind = ResultKind::kWorlds;
      (*values)["chase.worlds_returned"] += static_cast<double>(worlds->size());
      if (!worlds->empty()) {
        fork_world_ = std::move(worlds->front());
        fork_delta_ = std::move(*source);
      }
      worlds = NotRun();
      target = NotRun();
    }
  }
  finish(status);
  response.stats = stats.Snapshot();
  response.partial = response.stats.partial;
  {
    ScopedSpan span(log, "engine.serialize");
    (void)mapinv::ResponseToJson(response).Serialize();
  }
  return response;
}

PassResult InProcessRunner::RunTracedPass(SpanLog* log, LayerValues* values) {
  PassResult pass;
  pass.latencies_ms.reserve(spec_.timed.size());
  Digest digest;
  const mapinv::EvalCache::Stats before = mapinv::GlobalEvalCache().GetStats();
  const int64_t start = NowNs();
  for (size_t i = 0; i < spec_.timed.size(); ++i) {
    const ReqSpec& req = spec_.timed[i];
    log->set_request(static_cast<uint32_t>(i));
    const int64_t t0 = NowNs();
    EngineResponse response =
        Traced(req, static_cast<int64_t>(i), log, values);
    AddToDigest(KeyOf(response), &digest);
    pass.latencies_ms.push_back(NsToMs(NowNs() - t0));
    ++pass.attempted;
    if (!response.status.ok()) ++pass.failed;
    pass.counters.Add(response.stats);
    if (fork_world_.has_value()) {
      // Probe (outside the request span): copy-on-write fork of a recovered
      // world plus a write that unshares the stores it touches.
      ScopedSpan span(log, "data.fork");
      const int64_t fork_start = NowNs();
      for (int k = 0; k < kForkProbeReps; ++k) {
        Instance fork = fork_world_->Fork();
        (void)fork.UnionWith(*fork_delta_);
      }
      (*values)["data.fork_ns"] += static_cast<double>(NowNs() - fork_start);
      (*values)["data.forks"] += kForkProbeReps;
      fork_world_.reset();
      fork_delta_.reset();
    }
    if (spec_.name == "exchange" && response.status.ok()) {
      // Probe (outside the request span): trigger collection alone on the
      // same input, so fire time = chase.forward - eval.collect.
      const auto& mapping = mappings_[spec_.held[req.held].mapping];
      const Instance& source = *held_[req.held];
      mapinv::ExecStats probe_stats;
      ExecutionOptions probe = BaseOptions();
      probe.stats = &probe_stats;
      mapinv::ExecDeadline deadline(0);
      ScopedSpan span(log, "eval.collect");
      mapinv::HomSearch search(source);
      search.set_stats(&probe_stats);
      search.set_vector_max_plan_steps(probe.vector_max_plan_steps);
      for (const mapinv::Tgd& tgd : mapping->tgds) {
        (void)mapinv::CollectTriggers(search, source, tgd.premise,
                                      mapinv::HomConstraints{}, probe,
                                      deadline);
      }
    }
  }
  pass.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  pass.cache = CacheDelta(before, mapinv::GlobalEvalCache().GetStats());
  pass.digest = digest.Hex();
  if (spec_.name == "exchange") {
    (*values)["data.index_build_ms"] = IndexBuildMs();
  }
  return pass;
}

Status InProcessRunner::Check() {
  const ExecutionOptions base = BaseOptions();
  size_t checked = 0;
  for (const auto& [index, response] : samples_) {
    if (!response.status.ok()) continue;
    const ReqSpec& req = spec_.timed[index];
    if (spec_.name == "invert" && req.command == "invert") {
      // Definition 3.2 on a small generated source: the recovery is sound.
      MAPINV_ASSIGN_OR_RETURN(TgdMapping mapping,
                              mapinv::LoadMappingSpec(req.mapping));
      const Instance source =
          mapinv::GenerateInstance(*mapping.source, 3, 4, 1000 + index);
      MAPINV_ASSIGN_OR_RETURN(
          auto violation,
          mapinv::CheckCRecovery(mapping, *response.reverse_artifact, {source},
                                 mapinv::PerRelationQueries(*mapping.source),
                                 base));
      if (violation.has_value()) {
        return Status::Internal("request " + std::to_string(index) +
                                ": not a C-recovery: " +
                                violation->description);
      }
      ++checked;
    } else if (spec_.name == "exchange") {
      const auto& mapping = mappings_[spec_.held[req.held].mapping];
      MAPINV_ASSIGN_OR_RETURN(
          bool satisfied,
          mapinv::SatisfiesTgds(*mapping, *held_[req.held],
                                *response.instance_artifact));
      if (!satisfied) {
        return Status::Internal("request " + std::to_string(index) +
                                ": exchange target violates the tgds");
      }
      ++checked;
    } else if (spec_.name == "worlds") {
      // Every recovered world satisfies the reverse dependencies against
      // the canonical target it was chased from.
      const auto& mapping = mappings_[req.held];
      const ReverseMapping& reverse = *reverses_[req.held];
      MAPINV_ASSIGN_OR_RETURN(
          Instance source, mapinv::ParseInstance(req.text, *mapping->source));
      MAPINV_ASSIGN_OR_RETURN(Instance target,
                              mapinv::ChaseTgds(*mapping, source, base));
      MAPINV_ASSIGN_OR_RETURN(
          std::vector<Instance> worlds,
          mapinv::ChaseReverseWorlds(reverse, target, base));
      if (worlds.empty()) {
        return Status::Internal("request " + std::to_string(index) +
                                ": no recovered world");
      }
      for (const Instance& world : worlds) {
        MAPINV_ASSIGN_OR_RETURN(
            bool satisfied,
            mapinv::SatisfiesReverseDeps(reverse, target, world));
        if (!satisfied) {
          return Status::Internal("request " + std::to_string(index) +
                                  ": recovered world violates the reverse "
                                  "dependencies");
        }
      }
      ++checked;
    }
  }
  if (checked == 0) return Status::Internal("no response was checked");
  return Status::OK();
}

}  // namespace

std::unique_ptr<Runner> MakeInProcessRunner(const WorkloadSpec& spec) {
  return std::make_unique<InProcessRunner>(spec);
}

}  // namespace reqbench
