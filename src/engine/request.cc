#include "engine/request.h"

#include <utility>
#include <vector>

#include "base/parse.h"
#include "base/symbol_context.h"
#include "chase/chase_tgd.h"
#include "chase/maintained.h"
#include "chase/round_trip.h"
#include "check/properties.h"
#include "engine/trace.h"
#include "eval/instance_core.h"
#include "inversion/compose.h"
#include "inversion/cq_maximum_recovery.h"
#include "inversion/maximum_recovery.h"
#include "inversion/polyso.h"
#include "mapgen/generators.h"
#include "parser/parser.h"
#include "rewrite/rewrite.h"

namespace mapinv {
namespace {

// Parses "N" or "N,K" following a gen: family prefix with the shared strict
// digits-only rule (base/parse.h). Parameters are sizes of generated
// mappings, so anything outside [1, 10^6] is a spec error, not a request
// (and the bound keeps an overflowed literal from truncating into a small
// int).
bool ParseGenParams(const std::string& text, int* a, int* b) {
  constexpr uint64_t kMaxParam = 1000000;
  const size_t comma = text.find(',');
  uint64_t v = 0;
  if (!ParseUint(std::string_view(text).substr(0, comma), kMaxParam, &v) ||
      v == 0) {
    return false;
  }
  *a = static_cast<int>(v);
  if (comma == std::string::npos) return true;
  if (b == nullptr) return false;
  if (!ParseUint(std::string_view(text).substr(comma + 1), kMaxParam, &v) ||
      v == 0) {
    return false;
  }
  *b = static_cast<int>(v);
  return true;
}

// Builds the effective per-request options: the transport's base, with the
// request's overrides applied. `threads` can lower but never raise the
// transport's budget; stats/symbols are installed by ExecuteRequest.
ExecutionOptions EffectiveOptions(const RequestOptions& req,
                                  const ExecutionOptions& base) {
  ExecutionOptions options = base;
  if (req.max_facts) options.max_new_facts = static_cast<size_t>(*req.max_facts);
  if (req.max_worlds) options.max_worlds = static_cast<size_t>(*req.max_worlds);
  if (req.max_disjuncts) {
    options.max_disjuncts = static_cast<size_t>(*req.max_disjuncts);
  }
  if (req.max_rules) options.max_rules = static_cast<size_t>(*req.max_rules);
  if (req.deadline_ms) options.deadline_ms = *req.deadline_ms;
  if (req.threads) {
    int threads = *req.threads;
    if (threads < 1) threads = 1;
    if (base.threads >= 1 && threads > base.threads) threads = base.threads;
    options.threads = threads;
  }
  if (req.oblivious) options.oblivious = *req.oblivious;
  if (req.minimize) options.minimize = *req.minimize;
  if (req.on_exhausted) options.on_exhausted = *req.on_exhausted;
  if (req.memory_budget_bytes) {
    options.memory_budget_bytes = *req.memory_budget_bytes;
  }
  if (req.spill_dir) options.spill_dir = *req.spill_dir;
  if (req.vector_max_plan_steps) {
    options.vector_max_plan_steps =
        static_cast<size_t>(*req.vector_max_plan_steps);
  }
  if (req.checkpoint_dir) options.checkpoint_dir = *req.checkpoint_dir;
  if (req.checkpoint_every) {
    options.checkpoint_every = static_cast<size_t>(*req.checkpoint_every);
  }
  if (req.resume) options.resume = *req.resume;
  return options;
}

// Resolves the request's primary mapping: bound object first, then text.
Result<std::shared_ptr<const TgdMapping>> ResolveMapping(
    const EngineRequest& request) {
  if (request.bound_mapping != nullptr) return request.bound_mapping;
  if (request.mapping.empty()) {
    return Status::InvalidArgument("command '" + request.command +
                                   "' needs a mapping");
  }
  MAPINV_ASSIGN_OR_RETURN(TgdMapping mapping,
                          LoadMappingSpec(request.mapping));
  return std::make_shared<const TgdMapping>(std::move(mapping));
}

// Resolves the request's instance payload against `schema`.
Result<std::shared_ptr<const Instance>> ResolveInstance(
    const EngineRequest& request, const Schema& schema) {
  if (request.bound_instance != nullptr) {
    // A bound instance (session-held or snapshot-loaded) carries its own
    // schema; relation ids are positional, so it must match id-for-id or
    // the compiled atoms would read the wrong relations.
    const Schema& got = request.bound_instance->schema();
    bool match = got.size() == schema.size();
    for (RelationId r = 0; match && r < schema.size(); ++r) {
      match = got.name(r) == schema.name(r) && got.arity(r) == schema.arity(r);
    }
    if (!match) {
      return Status::InvalidArgument(
          "bound instance schema does not match the mapping's source schema");
    }
    return request.bound_instance;
  }
  if (request.instance.empty()) {
    return Status::InvalidArgument("command '" + request.command +
                                   "' needs an instance");
  }
  MAPINV_ASSIGN_OR_RETURN(Instance instance,
                          ParseInstance(request.instance, schema));
  return std::make_shared<const Instance>(std::move(instance));
}

struct ExecOutcome {
  ResultKind kind = ResultKind::kNone;
  std::string result;
  std::shared_ptr<const ReverseMapping> reverse;
  std::shared_ptr<const Instance> instance;
};

// The dispatch body: every compute command, rendered exactly as the CLI
// historically printed it.
Result<ExecOutcome> Dispatch(const EngineRequest& request,
                             const ExecutionOptions& options) {
  const std::string& command = request.command;

  if (command == "ping") {
    return ExecOutcome{ResultKind::kText, "pong"};
  }
  if (command == "core") {
    if (request.instance.empty() && request.bound_instance == nullptr) {
      return Status::InvalidArgument("command 'core' needs an instance");
    }
    Result<Instance> parsed =
        request.bound_instance != nullptr
            ? Result<Instance>(request.bound_instance->Snapshot())
            : ParseInstanceInferSchema(request.instance);
    MAPINV_RETURN_NOT_OK(parsed.status());
    Result<Instance> core = [&] {
      ScopedTraceSpan span(options, "core");
      return CoreOfInstance(*parsed, options.stats);
    }();
    MAPINV_RETURN_NOT_OK(core.status());
    ExecOutcome outcome{ResultKind::kInstance, core->ToString() + "\n"};
    outcome.instance = std::make_shared<const Instance>(std::move(*core));
    return outcome;
  }
  if (command == "so-invert") {
    if (request.mapping.empty()) {
      return Status::InvalidArgument("command 'so-invert' needs a mapping");
    }
    MAPINV_ASSIGN_OR_RETURN(SOTgdMapping so,
                            ParseSOTgdMapping(request.mapping));
    MAPINV_ASSIGN_OR_RETURN(SOInverseMapping inverse,
                            PolySOInverse(so, options));
    return ExecOutcome{ResultKind::kSOInverse, inverse.ToString()};
  }

  MAPINV_ASSIGN_OR_RETURN(std::shared_ptr<const TgdMapping> mapping,
                          ResolveMapping(request));

  if (command == "compose") {
    if (request.mapping2.empty()) {
      return Status::InvalidArgument(
          "command 'compose' needs a second mapping");
    }
    MAPINV_ASSIGN_OR_RETURN(TgdMapping second,
                            LoadMappingSpec(request.mapping2));
    MAPINV_ASSIGN_OR_RETURN(SOTgdMapping composed,
                            ComposeTgdMappings(*mapping, second, options));
    return ExecOutcome{ResultKind::kSOMapping, composed.ToString()};
  }
  if (command == "check") {
    if (request.reverse.empty() && request.bound_reverse == nullptr) {
      return Status::InvalidArgument(
          "command 'check' needs a reverse mapping");
    }
    std::shared_ptr<const ReverseMapping> reverse = request.bound_reverse;
    if (reverse == nullptr) {
      MAPINV_ASSIGN_OR_RETURN(ReverseMapping parsed,
                              ParseReverseMapping(request.reverse));
      // Rebind to the full mapping schemas (the inferred ones may miss
      // relations the reverse mapping never mentions).
      reverse = std::make_shared<const ReverseMapping>(
          mapping->target, mapping->source, parsed.deps);
    }
    MAPINV_ASSIGN_OR_RETURN(std::shared_ptr<const Instance> source,
                            ResolveInstance(request, *mapping->source));
    MAPINV_ASSIGN_OR_RETURN(
        auto violation,
        CheckCRecovery(*mapping, *reverse, {source->Snapshot()},
                       PerRelationQueries(*mapping->source), options));
    if (violation.has_value()) {
      return ExecOutcome{ResultKind::kCheckViolation,
                         "NOT a sound recovery:\n" + violation->description +
                             "\n"};
    }
    return ExecOutcome{
        ResultKind::kCheckOk,
        "sound recovery on this instance (certain answers of every "
        "per-relation query are contained in the source)\n"};
  }
  if (command == "invert" || command == "maxrec") {
    MAPINV_ASSIGN_OR_RETURN(ReverseMapping recovery,
                            command == "invert"
                                ? CqMaximumRecovery(*mapping, options)
                                : MaximumRecovery(*mapping, options));
    auto shared = std::make_shared<const ReverseMapping>(std::move(recovery));
    ExecOutcome outcome{ResultKind::kReverseMapping, shared->ToString()};
    outcome.reverse = std::move(shared);
    return outcome;
  }
  if (command == "polyso") {
    MAPINV_ASSIGN_OR_RETURN(SOInverseMapping inverse,
                            PolySOInverseOfTgds(*mapping, options));
    return ExecOutcome{ResultKind::kSOInverse, inverse.ToString()};
  }
  if (command == "rewrite") {
    if (request.query.empty()) {
      return Status::InvalidArgument("command 'rewrite' needs a query");
    }
    MAPINV_ASSIGN_OR_RETURN(ConjunctiveQuery query, ParseCq(request.query));
    MAPINV_ASSIGN_OR_RETURN(UnionCq rewriting,
                            RewriteOverSource(*mapping, query, options));
    return ExecOutcome{ResultKind::kUnionCq, rewriting.ToString() + "\n"};
  }
  if (command == "exchange-delta") {
    // Sessionful: the serving layer bound the session's maintained solution;
    // append the delta and absorb it incrementally.
    if (request.bound_maintained != nullptr) {
      if (!request.delta.empty()) {
        MAPINV_RETURN_NOT_OK(
            request.bound_maintained->AppendText(request.delta).status());
      }
      MAPINV_ASSIGN_OR_RETURN(
          std::string rendered,
          request.bound_maintained->RefreshAndRender(options));
      ExecOutcome outcome{ResultKind::kInstance, std::move(rendered)};
      outcome.instance = std::make_shared<const Instance>(
          request.bound_maintained->TargetSnapshot());
      return outcome;
    }
    // Sessionless: run the full maintenance lifecycle locally — base chase,
    // append, incremental absorb — so the CLI path exercises the same
    // delta machinery end to end (and stays deterministic: the maintained
    // solution owns its own symbol scope).
    MAPINV_ASSIGN_OR_RETURN(std::shared_ptr<const Instance> source,
                            ResolveInstance(request, *mapping->source));
    auto maintained = std::make_shared<MaintainedSolution>(mapping);
    MAPINV_RETURN_NOT_OK(maintained->AppendInstance(*source).status());
    MAPINV_RETURN_NOT_OK(maintained->RefreshAndRender(options).status());
    if (!request.delta.empty()) {
      MAPINV_RETURN_NOT_OK(maintained->AppendText(request.delta).status());
    }
    MAPINV_ASSIGN_OR_RETURN(std::string rendered,
                            maintained->RefreshAndRender(options));
    ExecOutcome outcome{ResultKind::kInstance, std::move(rendered)};
    outcome.instance =
        std::make_shared<const Instance>(maintained->TargetSnapshot());
    return outcome;
  }
  if (command == "exchange") {
    MAPINV_ASSIGN_OR_RETURN(std::shared_ptr<const Instance> source,
                            ResolveInstance(request, *mapping->source));
    MAPINV_ASSIGN_OR_RETURN(Instance target,
                            ChaseTgds(*mapping, *source, options));
    ExecOutcome outcome{ResultKind::kInstance, target.ToString() + "\n"};
    outcome.instance = std::make_shared<const Instance>(std::move(target));
    return outcome;
  }
  if (command == "roundtrip") {
    MAPINV_ASSIGN_OR_RETURN(std::shared_ptr<const Instance> source,
                            ResolveInstance(request, *mapping->source));
    std::shared_ptr<const ReverseMapping> reverse = request.bound_reverse;
    if (reverse == nullptr && !request.reverse.empty()) {
      // An explicit reverse mapping (e.g. maxrec output, disjunctions and
      // all) drives the world enumeration instead of the CQ recovery.
      MAPINV_ASSIGN_OR_RETURN(ReverseMapping parsed,
                              ParseReverseMapping(request.reverse));
      reverse = std::make_shared<const ReverseMapping>(
          mapping->target, mapping->source, parsed.deps);
    }
    if (reverse == nullptr) {
      MAPINV_ASSIGN_OR_RETURN(ReverseMapping recovery,
                              CqMaximumRecovery(*mapping, options));
      reverse =
          std::make_shared<const ReverseMapping>(std::move(recovery));
    }
    // The round trip chases forward once and hands out its target, so the
    // worlds are chased back from the target this response prints.
    Instance target(mapping->target);
    MAPINV_ASSIGN_OR_RETURN(
        std::vector<Instance> worlds,
        RoundTripWorlds(*mapping, *reverse, *source, options, &target));
    std::string out = "target:    " + target.ToString() + "\n";
    for (const Instance& world : worlds) {
      out += "recovered: " + world.ToString() + "\n";
    }
    return ExecOutcome{ResultKind::kWorlds, std::move(out)};
  }
  return Status::InvalidArgument("unknown command '" + command + "'");
}

}  // namespace

const char* ResultKindName(ResultKind kind) {
  switch (kind) {
    case ResultKind::kNone: return "none";
    case ResultKind::kReverseMapping: return "reverse_mapping";
    case ResultKind::kSOMapping: return "so_mapping";
    case ResultKind::kSOInverse: return "so_inverse";
    case ResultKind::kUnionCq: return "union_cq";
    case ResultKind::kInstance: return "instance";
    case ResultKind::kWorlds: return "worlds";
    case ResultKind::kCheckOk: return "check_ok";
    case ResultKind::kCheckViolation: return "check_violation";
    case ResultKind::kText: return "text";
  }
  return "none";
}

bool IsEngineCommand(std::string_view command) {
  static constexpr std::string_view kCommands[] = {
      "invert",    "maxrec",    "polyso",  "rewrite", "exchange",
      "exchange-delta", "roundtrip", "so-invert", "compose", "check",
      "core",      "ping"};
  for (std::string_view c : kCommands) {
    if (command == c) return true;
  }
  return false;
}

Result<TgdMapping> LoadMappingSpec(std::string_view spec) {
  if (spec.rfind("gen:", 0) != 0) return ParseTgdMapping(spec);
  const std::string rest(spec.substr(4));
  const size_t colon = rest.find(':');
  const std::string family = rest.substr(0, colon);
  const std::string params =
      colon == std::string::npos ? "" : rest.substr(colon + 1);
  int a = 0;
  int b = 0;
  if (family == "exp") {
    a = 3;
    b = 9;  // default: big enough that Section 4 inversion needs a budget
    if (!params.empty() && !ParseGenParams(params, &a, &b)) {
      return Status::InvalidArgument("bad generator spec '" +
                                     std::string(spec) +
                                     "' (want gen:exp:N,K)");
    }
    return ExponentialFamilyMapping(a, b);
  }
  if (family == "chain") {
    a = 3;
    if (!params.empty() && !ParseGenParams(params, &a, nullptr)) {
      return Status::InvalidArgument("bad generator spec '" +
                                     std::string(spec) +
                                     "' (want gen:chain:M)");
    }
    return ChainJoinMapping(a);
  }
  if (family == "copy") {
    a = 2;
    b = 2;
    if (!params.empty() && !ParseGenParams(params, &a, &b)) {
      return Status::InvalidArgument("bad generator spec '" +
                                     std::string(spec) +
                                     "' (want gen:copy:N,A)");
    }
    return CopyMapping(a, b);
  }
  if (family == "proj") {
    a = 2;
    if (!params.empty() && !ParseGenParams(params, &a, nullptr)) {
      return Status::InvalidArgument("bad generator spec '" +
                                     std::string(spec) +
                                     "' (want gen:proj:N)");
    }
    return ProjectionMapping(a);
  }
  return Status::InvalidArgument("unknown generator family in '" +
                                 std::string(spec) +
                                 "' (know gen:exp, gen:chain, gen:copy, "
                                 "gen:proj)");
}

EngineResponse ExecuteRequest(const EngineRequest& request,
                              const ExecutionOptions& base) {
  EngineResponse response;
  response.id = request.id;

  ExecutionOptions options = EffectiveOptions(request.options, base);
  // Fresh per-request sinks: responses depend only on the request and the
  // base configuration, never on prior traffic (see the header contract).
  ExecStats stats;
  SymbolContext symbols;
  options.stats = &stats;
  options.symbols = &symbols;

  Result<ExecOutcome> outcome = Dispatch(request, options);
  response.stats = stats.Snapshot();
  response.partial = response.stats.partial;
  if (base.stats != nullptr) base.stats->Absorb(response.stats);
  if (!outcome.ok()) {
    response.status = outcome.status();
    return response;
  }
  response.kind = outcome->kind;
  response.result = std::move(outcome->result);
  response.reverse_artifact = std::move(outcome->reverse);
  response.instance_artifact = std::move(outcome->instance);
  return response;
}

Result<EngineRequest> EngineRequestFromJson(const Json& json) {
  if (!json.IsObject()) {
    return Status::Malformed("request must be a JSON object");
  }
  EngineRequest request;
  request.id = json.GetInt("id", 0);
  const Json* command = json.Find("command");
  if (command == nullptr || !command->IsString()) {
    return Status::Malformed("request needs a string \"command\"");
  }
  request.command = command->AsString();
  request.session = json.GetString("session");
  request.mapping = json.GetString("mapping");
  request.mapping2 = json.GetString("mapping2");
  request.instance = json.GetString("instance");
  request.delta = json.GetString("delta");
  request.query = json.GetString("query");
  request.reverse = json.GetString("reverse");
  request.instance_ref = json.GetString("instance_ref");
  request.name = json.GetString("name");
  request.path = json.GetString("path");
  request.run = json.GetString("run");

  const Json* options = json.Find("options");
  if (options != nullptr) {
    if (!options->IsObject()) {
      return Status::Malformed("request \"options\" must be an object");
    }
    auto take_uint = [&](std::string_view key,
                         std::optional<uint64_t>* out) -> Status {
      const Json* v = options->Find(key);
      if (v == nullptr) return Status::OK();
      if (!v->IsNumber() || v->AsInt() < 0) {
        return Status::InvalidArgument("option \"" + std::string(key) +
                                       "\" must be a non-negative integer");
      }
      *out = static_cast<uint64_t>(v->AsInt());
      return Status::OK();
    };
    MAPINV_RETURN_NOT_OK(take_uint("max_facts", &request.options.max_facts));
    MAPINV_RETURN_NOT_OK(take_uint("max_worlds", &request.options.max_worlds));
    MAPINV_RETURN_NOT_OK(
        take_uint("max_disjuncts", &request.options.max_disjuncts));
    MAPINV_RETURN_NOT_OK(take_uint("max_rules", &request.options.max_rules));
    std::optional<uint64_t> scratch;
    MAPINV_RETURN_NOT_OK(take_uint("deadline_ms", &scratch));
    if (scratch) request.options.deadline_ms = static_cast<int64_t>(*scratch);
    scratch.reset();
    MAPINV_RETURN_NOT_OK(take_uint("threads", &scratch));
    if (scratch) {
      if (*scratch > (1u << 16)) {
        return Status::InvalidArgument("option \"threads\" out of range");
      }
      request.options.threads = static_cast<int>(*scratch);
    }
    if (const Json* v = options->Find("oblivious"); v != nullptr) {
      if (!v->IsBool()) {
        return Status::InvalidArgument("option \"oblivious\" must be a bool");
      }
      request.options.oblivious = v->AsBool();
    }
    if (const Json* v = options->Find("minimize"); v != nullptr) {
      if (!v->IsBool()) {
        return Status::InvalidArgument("option \"minimize\" must be a bool");
      }
      request.options.minimize = v->AsBool();
    }
    MAPINV_RETURN_NOT_OK(
        take_uint("memory_budget_bytes", &request.options.memory_budget_bytes));
    MAPINV_RETURN_NOT_OK(take_uint("vector_max_plan_steps",
                                   &request.options.vector_max_plan_steps));
    if (const Json* v = options->Find("spill_dir"); v != nullptr) {
      if (!v->IsString()) {
        return Status::InvalidArgument("option \"spill_dir\" must be a string");
      }
      request.options.spill_dir = v->AsString();
    }
    if (const Json* v = options->Find("checkpoint_dir"); v != nullptr) {
      if (!v->IsString()) {
        return Status::InvalidArgument(
            "option \"checkpoint_dir\" must be a string");
      }
      request.options.checkpoint_dir = v->AsString();
    }
    MAPINV_RETURN_NOT_OK(
        take_uint("checkpoint_every", &request.options.checkpoint_every));
    if (const Json* v = options->Find("resume"); v != nullptr) {
      if (!v->IsBool()) {
        return Status::InvalidArgument("option \"resume\" must be a bool");
      }
      request.options.resume = v->AsBool();
    }
    if (const Json* v = options->Find("on_exhausted"); v != nullptr) {
      if (v->IsString() && v->AsString() == "fail") {
        request.options.on_exhausted = OnExhausted::kFail;
      } else if (v->IsString() && v->AsString() == "partial") {
        request.options.on_exhausted = OnExhausted::kPartial;
      } else {
        return Status::InvalidArgument(
            "option \"on_exhausted\" must be \"fail\" or \"partial\"");
      }
    }
  }
  return request;
}

Json EngineRequestToJson(const EngineRequest& request) {
  Json json = Json::MakeObject();
  json.Set("id", Json(request.id));
  json.Set("command", Json(request.command));
  if (!request.session.empty()) json.Set("session", Json(request.session));
  if (!request.mapping.empty()) json.Set("mapping", Json(request.mapping));
  if (!request.mapping2.empty()) json.Set("mapping2", Json(request.mapping2));
  if (!request.instance.empty()) json.Set("instance", Json(request.instance));
  if (!request.delta.empty()) json.Set("delta", Json(request.delta));
  if (!request.query.empty()) json.Set("query", Json(request.query));
  if (!request.reverse.empty()) json.Set("reverse", Json(request.reverse));
  if (!request.instance_ref.empty()) {
    json.Set("instance_ref", Json(request.instance_ref));
  }
  if (!request.name.empty()) json.Set("name", Json(request.name));
  if (!request.path.empty()) json.Set("path", Json(request.path));
  if (!request.run.empty()) json.Set("run", Json(request.run));

  Json options = Json::MakeObject();
  const RequestOptions& o = request.options;
  if (o.max_facts) options.Set("max_facts", Json(*o.max_facts));
  if (o.max_worlds) options.Set("max_worlds", Json(*o.max_worlds));
  if (o.max_disjuncts) options.Set("max_disjuncts", Json(*o.max_disjuncts));
  if (o.max_rules) options.Set("max_rules", Json(*o.max_rules));
  if (o.deadline_ms) options.Set("deadline_ms", Json(*o.deadline_ms));
  if (o.threads) options.Set("threads", Json(static_cast<int64_t>(*o.threads)));
  if (o.oblivious) options.Set("oblivious", Json(*o.oblivious));
  if (o.minimize) options.Set("minimize", Json(*o.minimize));
  if (o.on_exhausted) {
    options.Set("on_exhausted",
                Json(*o.on_exhausted == OnExhausted::kPartial ? "partial"
                                                              : "fail"));
  }
  if (o.memory_budget_bytes) {
    options.Set("memory_budget_bytes", Json(*o.memory_budget_bytes));
  }
  if (o.spill_dir) options.Set("spill_dir", Json(*o.spill_dir));
  if (o.vector_max_plan_steps) {
    options.Set("vector_max_plan_steps", Json(*o.vector_max_plan_steps));
  }
  if (o.checkpoint_dir) options.Set("checkpoint_dir", Json(*o.checkpoint_dir));
  if (o.checkpoint_every) {
    options.Set("checkpoint_every", Json(*o.checkpoint_every));
  }
  if (o.resume) options.Set("resume", Json(*o.resume));
  if (!options.AsObject().empty()) json.Set("options", std::move(options));
  return json;
}

Json StatsToJson(const ExecStatsSnapshot& s) {
  Json json = Json::MakeObject();
  for (const ExecCounter& c : kExecCounters) json.Set(c.name, Json(s.*c.value));
  json.Set("partial", Json(s.partial));
  return json;
}

Json ResponseToJson(const EngineResponse& response) {
  Json json = Json::MakeObject();
  json.Set("id", Json(response.id));
  if (response.status.ok()) {
    json.Set("status", Json("ok"));
    json.Set("kind", Json(ResultKindName(response.kind)));
    json.Set("result", Json(response.result));
  } else {
    json.Set("status", Json("error"));
    json.Set("code", Json(StatusCodeName(response.status.code())));
    json.Set("message", Json(response.status.message()));
  }
  json.Set("partial", Json(response.partial));
  json.Set("stats", StatsToJson(response.stats));
  return json;
}

}  // namespace mapinv
