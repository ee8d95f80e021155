/// \file engine.h
/// \brief The Engine facade: one object owning the thread pool, the fresh-
/// symbol scope and the stats sink for a sequence of model-management calls.
///
/// The free functions (ChaseTgds, CqMaximumRecovery, RewriteOverSource,
/// RoundTripWorlds, ...) stay the primitive API; an Engine simply calls them
/// with a consistently wired ExecutionOptions:
///
///   * its own SymbolContext, so null labels restart from zero per Engine
///     and identical call sequences produce bit-identical instances;
///   * its own ThreadPool (threads > 1), reused across calls instead of
///     re-spawned;
///   * one ExecStats accumulating across calls — EvalCache lookups take the
///     sink directly, so hits/misses are attributed to the Engine that
///     caused them even when several Engines run concurrently;
///   * optionally a Tracer (set_tracer), giving every call a per-phase
///     TraceSpan tree (see engine/trace.h).
///
/// Typical use:
///
///   Engine engine({.threads = 8});
///   auto target  = engine.Chase(mapping, source);
///   auto inverse = engine.Invert(mapping);
///   auto worlds  = engine.RoundTrip(mapping, *inverse, source);
///   std::cerr << engine.stats().ToString() << "\n";

#ifndef MAPINV_ENGINE_ENGINE_H_
#define MAPINV_ENGINE_ENGINE_H_

#include <memory>
#include <vector>

#include "base/status.h"
#include "base/symbol_context.h"
#include "data/instance.h"
#include "engine/eval_cache.h"
#include "engine/execution_options.h"
#include "engine/request.h"
#include "eval/query_eval.h"
#include "logic/cq.h"
#include "logic/mapping.h"

namespace mapinv {

class ThreadPool;
class Tracer;

/// \brief Construction-time configuration of an Engine.
struct EngineConfig {
  /// Worker parallelism for chase trigger enumeration. 1 = sequential;
  /// 0 = one thread per hardware core.
  int threads = 1;
  /// Resource limits applied to every call made through this Engine.
  ResourceLimits limits;
  /// Wall-clock budget per call (not per Engine); 0 = unlimited. Copied
  /// into limits.deadline_ms for convenience when non-zero.
  int64_t deadline_ms = 0;
  /// What a call does when a resource limit or cancellation fires mid-way:
  /// kFail (default) returns the exhaustion Status; kPartial returns the
  /// best sound result so far with ExecStats.partial set. See
  /// docs/ROBUSTNESS.md for the per-procedure soundness contract.
  OnExhausted on_exhausted = OnExhausted::kFail;
};

/// \brief Facade bundling pool + symbol scope + stats for the full pipeline.
/// Not thread-safe itself (one Engine per logical task); the work it fans
/// out internally is.
class Engine {
 public:
  explicit Engine(EngineConfig config = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Data exchange: canonical universal solution of `source` under
  /// `mapping` (ChaseTgds).
  Result<Instance> Chase(const TgdMapping& mapping, const Instance& source,
                         bool oblivious = false);

  /// Data exchange with a plain SO-tgd mapping (ChaseSOTgd).
  Result<Instance> ChaseSO(const SOTgdMapping& mapping,
                           const Instance& source);

  /// The full Theorem 4.5 inversion pipeline (CqMaximumRecovery): a
  /// CQ-maximum recovery with single conjunctive, equality-free conclusions.
  Result<ReverseMapping> Invert(const TgdMapping& mapping);

  /// Certain-answer rewriting of a target CQ over the source
  /// (RewriteOverSource).
  Result<UnionCq> Rewrite(const TgdMapping& mapping,
                          const ConjunctiveQuery& target_query);

  /// Recovered source worlds of the canonical round trip (RoundTripWorlds).
  Result<std::vector<Instance>> RoundTrip(const TgdMapping& mapping,
                                          const ReverseMapping& reverse,
                                          const Instance& source);

  /// Certain answers of a source query over the round-trip worlds.
  Result<AnswerSet> RoundTripCertain(const TgdMapping& mapping,
                                     const ReverseMapping& reverse,
                                     const Instance& source,
                                     const ConjunctiveQuery& query);

  /// The unified Request/Response entry point (engine/request.h): dispatches
  /// one EngineRequest through ExecuteRequest with this Engine's
  /// pool/limits/cancel configuration and returns the EngineResponse.
  /// mapinv_cli and mapinv_serve call ExecuteRequest directly with their own
  /// base options, so the same request renders byte-identical response JSON
  /// on either transport. The request runs with a fresh SymbolContext and a
  /// fresh stats sink (accumulated into stats() afterwards), so responses
  /// never depend on prior traffic.
  EngineResponse Execute(const EngineRequest& request);

  /// The ExecutionOptions this Engine passes to the free functions — useful
  /// for calling primitives the facade does not wrap.
  ExecutionOptions MakeOptions();

  const ExecStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  /// Requests cooperative cancellation of the call in flight (safe from any
  /// thread). The running call returns kCancelled — or, under
  /// EngineConfig::on_exhausted = kPartial, the partial result built so far.
  /// The flag is sticky: call ResetCancel() before the next call.
  void Cancel() { cancel_.Cancel(); }
  void ResetCancel() { cancel_.Reset(); }
  const CancelToken& cancel_token() const { return cancel_; }

  /// Attaches a trace sink: subsequent calls record their phase tree into
  /// it. Pass nullptr to detach. The Tracer must outlive the calls; it is
  /// not owned.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

  /// The engine's fresh-symbol scope (one per Engine).
  SymbolContext& symbols() { return symbols_; }

  /// The process-wide evaluation cache the engine's calls consult.
  EvalCache& cache() const { return GlobalEvalCache(); }

 private:
  EngineConfig config_;
  SymbolContext symbols_;
  ExecStats stats_;
  CancelToken cancel_;
  std::unique_ptr<ThreadPool> pool_;
  Tracer* tracer_ = nullptr;
};

}  // namespace mapinv

#endif  // MAPINV_ENGINE_ENGINE_H_
