/// \file request.h
/// \brief The unified Request/Response engine API.
///
/// Historically every transport called a different per-procedure entry point
/// (CqMaximumRecovery, ChaseTgds, RewriteOverSource, ...) with its own
/// argument plumbing; the CLI grew one dispatch tree and a serving layer
/// would have grown a second. This header replaces that boundary with one
/// value pair:
///
///   * EngineRequest  — a command name plus inline payload texts (mapping,
///     instance, query, ...), optional pre-bound payload objects (how a
///     serving session injects its held snapshots without re-parsing), and
///     per-request overrides of the execution knobs (deadline, limits,
///     threads, on_exhausted);
///   * EngineResponse — a Status, the rendered result text (byte-identical
///     to what mapinv_cli prints), a result-kind tag, and the request's own
///     ExecStatsSnapshot with the partial flag.
///
/// ExecuteRequest(request, base) is the single entry point: `base` carries
/// the transport's standing configuration (pool, thread budget, default
/// limits, cancel token, trace sink) and the request's overrides are applied
/// on top. Both mapinv_cli and mapinv_serve are thin transports over this
/// function, so the same request produces byte-identical response JSON
/// (ResponseToJson) no matter which transport carried it.
///
/// Determinism contract: every request executes with a fresh SymbolContext
/// and a fresh ExecStats sink, so a response depends only on the request and
/// the base limits — never on what ran before it on the same engine or
/// session. (The request's stats are additionally accumulated into
/// base.stats when set, for lifetime metrics.)
///
/// The engine never touches the filesystem: transports resolve file
/// arguments to texts first. A mapping text may also be a `gen:` generator
/// spec (gen:exp:N,K, gen:chain:M, gen:copy:N,A, gen:proj:N), resolved by
/// LoadMappingSpec.

#ifndef MAPINV_ENGINE_REQUEST_H_
#define MAPINV_ENGINE_REQUEST_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "base/json.h"
#include "base/status.h"
#include "data/instance.h"
#include "engine/execution_options.h"
#include "logic/mapping.h"

namespace mapinv {

class MaintainedSolution;

/// \brief Per-request overrides of the execution knobs. Unset fields inherit
/// the transport's base ExecutionOptions; `threads` may lower but never
/// raise the transport's budget.
struct RequestOptions {
  std::optional<uint64_t> max_facts;
  std::optional<uint64_t> max_worlds;
  std::optional<uint64_t> max_disjuncts;
  std::optional<uint64_t> max_rules;
  std::optional<int64_t> deadline_ms;
  std::optional<int> threads;
  std::optional<bool> oblivious;
  std::optional<bool> minimize;
  std::optional<OnExhausted> on_exhausted;
  /// Spill-to-disk: memory budget (bytes of heap-resident tuple payload) for
  /// chase targets, and the spill-file directory. 0 budget = unlimited.
  std::optional<uint64_t> memory_budget_bytes;
  std::optional<std::string> spill_dir;
  /// Durable-job knobs (ExecutionOptions::checkpoint_dir/checkpoint_every/
  /// resume): the documented carve-out to "the engine never touches the
  /// filesystem" — a checkpoint directory is the *product* of a durable job,
  /// named by the caller, not a payload the engine resolves.
  std::optional<std::string> checkpoint_dir;
  std::optional<uint64_t> checkpoint_every;
  std::optional<bool> resume;
};

/// \brief One engine command. Compute commands: invert, maxrec, polyso,
/// rewrite, exchange, exchange-delta, roundtrip, so-invert, compose, check,
/// core, ping. (Serving adds session.* / instance.put / instance.append /
/// metrics / server.stop on top; those never reach ExecuteRequest.)
struct EngineRequest {
  /// Client correlation id, echoed verbatim in the response.
  int64_t id = 0;
  std::string command;
  /// Serving-session name; opaque to the engine (the serving layer resolves
  /// it into bound payloads before calling ExecuteRequest).
  std::string session;

  // Inline payload texts. `mapping` is tgd-mapping text or a gen: spec
  // (SO-tgd text for so-invert); `mapping2` is compose's second mapping.
  std::string mapping;
  std::string mapping2;
  std::string instance;
  /// exchange-delta's appended source rows (instance text against the source
  /// schema). Absorbed incrementally on top of `instance` / the bound
  /// maintained solution; may be empty ("refresh only").
  std::string delta;
  std::string query;
  std::string reverse;
  /// Serving-layer fields: the name of a session-held instance to use in
  /// place of inline `instance` text, and the name under which instance.put
  /// registers its payload.
  std::string instance_ref;
  std::string name;
  /// Filesystem path for the serving snapshot verbs (instance.save /
  /// instance.load). Those verbs are handled by the transport — the engine
  /// itself never touches the filesystem.
  std::string path;
  /// Serving job verbs (job.start / job.resume): the engine command the
  /// background job executes. The job's payloads and options ride in the
  /// ordinary fields of the same request; `command` stays the verb.
  std::string run;

  // Pre-bound payloads (take precedence over the corresponding texts).
  std::shared_ptr<const TgdMapping> bound_mapping;
  std::shared_ptr<const Instance> bound_instance;
  std::shared_ptr<const ReverseMapping> bound_reverse;
  /// exchange-delta against a session-held maintained solution: the serving
  /// layer binds it (mutable — the command appends and refreshes it); when
  /// null, exchange-delta builds a request-local one from `instance`, which
  /// keeps the sessionless path on the same incremental machinery.
  std::shared_ptr<MaintainedSolution> bound_maintained;

  RequestOptions options;
};

/// \brief What kind of artifact EngineResponse::result renders. kCheckViolation
/// distinguishes "the check ran and found a counterexample" (CLI exit 2)
/// from an execution error.
enum class ResultKind {
  kNone,            ///< errors, ping
  kReverseMapping,  ///< invert, maxrec
  kSOMapping,       ///< compose
  kSOInverse,       ///< polyso, so-invert
  kUnionCq,         ///< rewrite
  kInstance,        ///< exchange, core
  kWorlds,          ///< roundtrip (target + recovered worlds)
  kCheckOk,         ///< check: sound on this instance
  kCheckViolation,  ///< check: counterexample found
  kText,            ///< ping/metrics-style plain payloads
};

const char* ResultKindName(ResultKind kind);

/// \brief The engine's answer to one EngineRequest.
struct EngineResponse {
  /// EngineRequest::id, echoed.
  int64_t id = 0;
  /// OK for a computed result (including a check violation); otherwise the
  /// failure, with kInvalidArgument/kMalformed for bad requests and
  /// kResourceExhausted/kCancelled for blown budgets.
  Status status;
  ResultKind kind = ResultKind::kNone;
  /// Rendered result — exactly the bytes mapinv_cli writes to stdout for
  /// this command.
  std::string result;
  /// This request's own counters (fresh sink per request).
  ExecStatsSnapshot stats;
  /// Convenience mirror of stats.partial.
  bool partial = false;
  /// For invert/maxrec: the computed recovery as an object, so a serving
  /// session can memoize it (and feed it back as bound_reverse) without
  /// re-parsing the rendered text. Never wire-carried.
  std::shared_ptr<const ReverseMapping> reverse_artifact;
  /// For instance-producing commands (exchange, exchange-delta, core): the
  /// computed instance as an object, so a transport can persist it with
  /// Instance::Save (the CLI's --save-instance) without re-parsing the
  /// rendered text. Never wire-carried.
  std::shared_ptr<const Instance> instance_artifact;
};

/// \brief Executes one request. `base` is the transport's standing
/// ExecutionOptions (pool/threads/limits/cancel/trace/on_exhausted defaults);
/// request options override it. Never throws; failures come back inside the
/// response's status.
EngineResponse ExecuteRequest(const EngineRequest& request,
                              const ExecutionOptions& base);

/// \brief Resolves a mapping payload: `gen:`-spec or tgd-mapping text.
Result<TgdMapping> LoadMappingSpec(std::string_view spec);

/// \brief True if `command` is a compute command ExecuteRequest understands.
bool IsEngineCommand(std::string_view command);

// --- wire representation ---------------------------------------------------

/// \brief Parses the protocol JSON object into an EngineRequest
/// (kMalformed/kInvalidArgument on schema violations). Bound payloads are
/// never wire-carried; they stay null.
Result<EngineRequest> EngineRequestFromJson(const Json& json);

/// \brief Renders a request to its protocol JSON (inverse of FromJson for
/// wire-carried fields).
Json EngineRequestToJson(const EngineRequest& request);

/// \brief Renders stats in the canonical field order shared by the CLI's
/// --stats-json and the server's response frames.
Json StatsToJson(const ExecStatsSnapshot& stats);

/// \brief Canonical response document. Deterministic: two transports
/// executing the same request render byte-identical bytes via
/// Json::Serialize.
Json ResponseToJson(const EngineResponse& response);

}  // namespace mapinv

#endif  // MAPINV_ENGINE_REQUEST_H_
