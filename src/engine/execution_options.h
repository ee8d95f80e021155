/// \file execution_options.h
/// \brief The unified execution API: ResourceLimits, ExecStats, ExecDeadline
/// and ExecutionOptions.
///
/// Every operation the paper defines — data exchange (§2), certain-answer
/// rewriting (§4.1), the inversion pipeline (§4), PolySOInverse (§5) and the
/// round-trip checks — used to take its own ad-hoc `*Options` struct, each
/// duplicating a subset of the limit knobs. They are all replaced by one
/// ExecutionOptions, which combines:
///
///   * ResourceLimits — every limit knob in one place, shared by all layers;
///   * parallelism    — `threads` plus an optional ThreadPool to run on;
///   * a deadline     — wall-clock budget resolved once at pipeline entry
///                      and polled by every chase, rewrite and inversion
///                      loop (see ExecDeadline);
///   * a stats sink   — ExecStats counting chase steps, homomorphism
///                      backtracks and eval-cache traffic;
///   * a trace sink   — a Tracer recording a per-phase span tree (see
///                      engine/trace.h);
///   * a SymbolContext — engine-scoped fresh-null/fresh-variable generation,
///                      making output reproducible run-to-run.
///
/// ExecutionOptions inherits ResourceLimits, so the historical field names
/// (`options.max_new_facts`, `options.max_worlds`, ...) keep working at
/// every call site.

#ifndef MAPINV_ENGINE_EXECUTION_OPTIONS_H_
#define MAPINV_ENGINE_EXECUTION_OPTIONS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "base/status.h"

namespace mapinv {

class SymbolContext;
class ThreadPool;
class EvalCache;
class Tracer;

/// \brief Every resource limit of the library in one struct. Each knob turns
/// a potential runaway into a clean kResourceExhausted error; the defaults
/// match the historical per-struct defaults.
struct ResourceLimits {
  /// Maximum number of facts any chase may create.
  size_t max_new_facts = 4u << 20;
  /// Maximum number of worlds a disjunctive chase may track.
  size_t max_worlds = 4096;
  /// Maximum number of (pre-minimisation) disjuncts a rewriting may produce,
  /// and the cap on the conjunctive-product size EliminateDisjunctions may
  /// materialise.
  size_t max_disjuncts = 1u << 20;
  /// Maximum number of rules an SO-tgd composition, a partition expansion
  /// (EliminateEqualities) or PolySOInverse may emit.
  size_t max_rules = 1u << 16;
  /// Maximum frontier width for the partition expansion — the widest allowed
  /// frontier (12 variables) already expands into Bell(12) ≈ 4.2e6
  /// partitions; width 13 would mean Bell(13) ≈ 2.8e7.
  size_t max_frontier_width = 12;
  /// Wall-clock budget in milliseconds, measured from pipeline entry;
  /// 0 means unlimited. The entry point resolves it into one ExecDeadline
  /// that every stage shares (see ExecutionOptions::deadline), and every
  /// chase, rewrite and inversion loop polls it (amortised — see
  /// ExecDeadline::Expired), so a composite call like Engine::Invert is
  /// bounded end to end, not per stage.
  int64_t deadline_ms = 0;
};

/// \brief How a lifetime fold combines one counter across executions
/// (ExecStats::Absorb, ExecStatsSnapshot::Merge). kSum adds; kMax keeps the
/// high-water mark, so re-running a pipeline stage over the same output
/// reports the same footprint. A trace span subtracts and adds every counter
/// alike: a high-water mark's delta reads as "growth observed during the
/// span", and the spans still telescope to the engine total.
enum class CounterFold { kSum, kMax };

/// \brief The counter registry: one `X(name, fold)` row per ExecStats
/// counter, in wire order — the key order of StatsToJson, the trace layer
/// and ExecStats::ToString. Both stats structs and kExecCounters are
/// generated from it, and every fold and rendering loops over
/// kExecCounters, so adding a counter is one row here plus the code that
/// bumps it.
#define MAPINV_EXEC_COUNTERS(X)                                              \
  /* Triggers fired by chase engines (a skipped satisfied trigger does not   \
     count). */                                                              \
  X(chase_steps, kSum)                                                       \
  /* Homomorphism enumerations started. */                                   \
  X(hom_searches, kSum)                                                      \
  /* Candidate tuples rejected during homomorphism search (the backtrack     \
     count of the hot loop). */                                              \
  X(hom_backtracks, kSum)                                                    \
  /* Join plans compiled by HomSearch (cache misses of the plan table; a     \
     high ratio to the searches started means rules are not being            \
     reused). */                                                             \
  X(hom_plans_compiled, kSum)                                                \
  /* Candidate tuples drawn from index buckets (or full scans) by the        \
     compiled executor. candidates - backtracks = accepted extensions. */    \
  X(hom_bucket_candidates, kSum)                                             \
  /* Variable slots written by the compiled executor's bind ops — the flat   \
     array writes that replace per-binding hash-map inserts. */              \
  X(hom_slot_bindings, kSum)                                                 \
  /* EvalCache hits / misses attributable to this execution. Counted at the  \
     cache lookups themselves (EvalCache::GetBool/GetInstance take the       \
     sink), so two concurrent executions never cross-attribute traffic. */   \
  X(cache_hits, kSum)                                                        \
  X(cache_misses, kSum)                                                      \
  /* High-water mark of Instance::ArenaBytes() observed by chase engines at  \
     completion (bytes of flat tuple payload; indexes/dedup excluded). */    \
  X(tuples_arena_bytes, kMax)                                                \
  /* Rows incorporated into instance-owned (position,value) indexes by lazy  \
     catch-up (Instance::IndexFor). Each row is indexed once per store       \
     however many HomSearch objects read it — the regression guard that     \
     HomSearch construction no longer rebuilds buckets. */                   \
  X(index_catchup_rows, kSum)                                                \
  /* Candidate blocks pushed through the vectorized executor's check/bind    \
     micro-op pipeline (seed blocks plus expansion flushes; see              \
     eval/vector_plan.h). */                                                 \
  X(vector_blocks_scanned, kSum)                                             \
  /* Candidate rows entering vectorized blocks. The vectorized counterpart   \
     of the compiled executor's bucket candidates — the two paths count      \
     into separate counters, so either one alone describes the work its      \
     path did. */                                                            \
  X(vector_rows_scanned, kSum)                                               \
  /* Rows surviving a vectorized block's whole op pipeline (the selection    \
     vector's final population). Over the rows scanned, this is the          \
     selection density. */                                                   \
  X(vector_rows_selected, kSum)                                              \
  /* Rows newly inserted through the bulk Instance::AddRows fire path (the   \
     batched counterpart of per-row AddRow inserts). */                      \
  X(bulk_rows_appended, kSum)                                                \
  /* Copy-on-write world forks taken by the disjunctive chase engines        \
     (reverse chase and SO-inverse worlds). */                               \
  X(worlds_forked, kSum)                                                     \
  /* Storage segments evicted to the spill file because an instance          \
     exceeded its memory budget (Instance::SetMemoryBudget). A segment       \
     evicted, faulted back, and evicted again counts twice. */               \
  X(segments_spilled, kSum)                                                  \
  /* Spilled segments faulted back to heap by a read. */                     \
  X(segments_faulted, kSum)                                                  \
  /* High-water mark of Instance::ResidentBytes() — the heap-resident        \
     subset of the arena bytes (spilled and snapshot-mapped segments         \
     excluded). This is the quantity memory_budget_bytes bounds. */          \
  X(arena_resident_bytes, kMax)                                              \
  /* Vectorized executions routed to the scalar interpreter because the      \
     compiled plan exceeded ExecutionOptions::vector_max_plan_steps. A       \
     nonzero count explains why the vector counters stay low on a            \
     vectorized run. */                                                      \
  X(vector_plan_fallbacks, kSum)                                             \
  /* Spill-file reads retried after a transient I/O failure before a         \
     segment fault-in succeeded (or gave up — see Segment::FaultIn). A       \
     nonzero count on a healthy run points at flaky storage under the spill  \
     directory. */                                                           \
  X(segment_faultin_retries, kSum)                                           \
  /* Durable job checkpoints committed (manifest renamed into place) by      \
     checkpointed world enumeration (see src/job/job.h). */                  \
  X(jobs_checkpointed, kSum)                                                 \
  /* Worlds restored from checkpoint snapshots instead of being re-derived,  \
     when a run resumed from ExecutionOptions::checkpoint_dir. */            \
  X(worlds_resumed, kSum)                                                    \
  /* Bytes of checkpoint state (world snapshots + manifests) written         \
     durably to the job directory. */                                        \
  X(checkpoint_bytes, kSum)

/// \brief Plain (non-atomic) copy of ExecStats counters — the unit traded
/// between ExecStats, the trace layer and the serving layer's lifetime
/// totals.
struct ExecStatsSnapshot {
  /// True if the producing execution degraded to a partial result (see
  /// ExecutionOptions::on_exhausted). Boolean, not a counter: every fold
  /// ORs it instead of summing.
  bool partial = false;
#define MAPINV_SNAPSHOT_FIELD(name, fold) uint64_t name = 0;
  MAPINV_EXEC_COUNTERS(MAPINV_SNAPSHOT_FIELD)
#undef MAPINV_SNAPSHOT_FIELD

  /// Folds another execution's counters into these lifetime totals, each by
  /// its CounterFold.
  void Merge(const ExecStatsSnapshot& other);
};

/// \brief Counters an execution can stream into (pass `&stats` via
/// ExecutionOptions::stats). All atomics: one sink may be shared by
/// concurrent workers and by several sequential operations.
struct ExecStats {
#define MAPINV_LIVE_FIELD(name, fold) std::atomic<uint64_t> name{0};
  MAPINV_EXEC_COUNTERS(MAPINV_LIVE_FIELD)
#undef MAPINV_LIVE_FIELD
  /// Set when an execution running with on_exhausted == kPartial hit a
  /// deadline/limit/cancellation and returned the best sound result so far
  /// instead of failing. Sticky across operations sharing the sink until
  /// Reset() — "something in this pipeline was cut short".
  std::atomic<bool> partial{false};

  /// Records a new arena-bytes observation (monotonic max).
  void ObserveArenaBytes(uint64_t bytes) {
    StoreMax(tuples_arena_bytes, bytes);
  }

  /// Records a new resident-bytes observation (monotonic max).
  void ObserveResidentBytes(uint64_t bytes) {
    StoreMax(arena_resident_bytes, bytes);
  }

  void Reset();
  ExecStatsSnapshot Snapshot() const;
  /// Folds a finished execution's counters into this lifetime sink, each by
  /// its CounterFold.
  void Absorb(const ExecStatsSnapshot& finished);
  /// "name=value" for every counter in wire order, then "partial=...".
  std::string ToString() const;

 private:
  /// Raises `counter` to `value` if it is lower (a monotonic max).
  static void StoreMax(std::atomic<uint64_t>& counter, uint64_t value) {
    uint64_t seen = counter.load(std::memory_order_relaxed);
    while (seen < value && !counter.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }
};

/// \brief One row of MAPINV_EXEC_COUNTERS as data: the counter's wire name,
/// its fold, and the field it names in each stats struct.
struct ExecCounter {
  std::string_view name;
  CounterFold fold;
  uint64_t ExecStatsSnapshot::*value;
  std::atomic<uint64_t> ExecStats::*live;
};

/// \brief Every counter, in wire order.
inline constexpr ExecCounter kExecCounters[] = {
#define MAPINV_COUNTER_ROW(name, fold) \
  {#name, CounterFold::fold, &ExecStatsSnapshot::name, &ExecStats::name},
    MAPINV_EXEC_COUNTERS(MAPINV_COUNTER_ROW)
#undef MAPINV_COUNTER_ROW
};

inline void ExecStatsSnapshot::Merge(const ExecStatsSnapshot& other) {
  for (const ExecCounter& c : kExecCounters) {
    uint64_t& mine = this->*c.value;
    const uint64_t theirs = other.*c.value;
    mine = c.fold == CounterFold::kMax ? std::max(mine, theirs)
                                       : mine + theirs;
  }
  partial = partial || other.partial;
}

inline void ExecStats::Reset() {
  for (const ExecCounter& c : kExecCounters) this->*c.live = 0;
  partial = false;
}

inline ExecStatsSnapshot ExecStats::Snapshot() const {
  ExecStatsSnapshot s;
  for (const ExecCounter& c : kExecCounters) {
    s.*c.value = (this->*c.live).load(std::memory_order_relaxed);
  }
  s.partial = partial.load(std::memory_order_relaxed);
  return s;
}

inline void ExecStats::Absorb(const ExecStatsSnapshot& finished) {
  for (const ExecCounter& c : kExecCounters) {
    if (c.fold == CounterFold::kMax) {
      StoreMax(this->*c.live, finished.*c.value);
    } else {
      (this->*c.live).fetch_add(finished.*c.value, std::memory_order_relaxed);
    }
  }
  if (finished.partial) partial.store(true, std::memory_order_relaxed);
}

inline std::string ExecStats::ToString() const {
  std::string out;
  for (const ExecCounter& c : kExecCounters) {
    out += c.name;
    out += '=';
    out += std::to_string((this->*c.live).load());
    out += ' ';
  }
  out += partial.load() ? "partial=true" : "partial=false";
  return out;
}

/// \brief Resolved wall-clock deadline, computed once at pipeline entry and
/// carried (by pointer, via ExecutionOptions::deadline) through every stage
/// so the budget is shared, not restarted per stage.
///
/// Expired() is cheap enough for per-trigger/per-disjunct hot loops: it
/// reads the clock on the first call and then once every kCheckInterval
/// calls (a relaxed atomic counter otherwise), and once expired it stays
/// expired without further clock reads. Thread-safe: CollectTriggers workers
/// poll one shared deadline.
class ExecDeadline {
 public:
  /// Calls between real clock reads. Bounds the overshoot to
  /// kCheckInterval - 1 loop iterations after the budget elapses.
  static constexpr uint32_t kCheckInterval = 64;

  explicit ExecDeadline(int64_t deadline_ms) {
    if (deadline_ms > 0) {
      at_ = std::chrono::steady_clock::now() +
            std::chrono::milliseconds(deadline_ms);
    }
  }

  ExecDeadline(const ExecDeadline& other) : at_(other.at_) {
    expired_.store(other.expired_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  }
  ExecDeadline& operator=(const ExecDeadline&) = delete;

  /// Amortised check for hot loops; may lag the wall clock by up to
  /// kCheckInterval - 1 calls.
  bool Expired() const {
    if (!at_.has_value()) return false;
    if (expired_.load(std::memory_order_relaxed)) return true;
    if (tick_.fetch_add(1, std::memory_order_relaxed) % kCheckInterval != 0) {
      return false;
    }
    return ExpiredNow();
  }

  /// Precise check: always reads the clock (unless already known expired).
  bool ExpiredNow() const {
    if (!at_.has_value()) return false;
    if (expired_.load(std::memory_order_relaxed)) return true;
    if (std::chrono::steady_clock::now() >= *at_) {
      expired_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

 private:
  std::optional<std::chrono::steady_clock::time_point> at_;
  mutable std::atomic<uint32_t> tick_{0};
  mutable std::atomic<bool> expired_{false};
};

/// \brief Cooperative cancellation flag shared between a running pipeline
/// and a concurrent controller thread.
///
/// The controller calls Cancel(); the pipeline polls Cancelled() at the same
/// sites that poll the deadline and unwinds with kCancelled naming the phase
/// it was in (see PhaseCancelled in engine/trace.h). Cancellation is
/// level-triggered and sticky: once set it stays set until Reset(), so a
/// token belongs to one run (Engine::ResetCancel re-arms between runs).
///
/// A poll is a single relaxed atomic load — cheaper than the deadline's
/// amortised tick (whose 1-in-64 discipline exists to avoid *clock reads*,
/// not atomic ops), so cancellation polls are not themselves amortised.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool Cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// \brief What an execution does when a deadline, resource limit or
/// cancellation strikes mid-run.
enum class OnExhausted {
  /// Fail the whole operation with kResourceExhausted / kCancelled
  /// (historical behaviour; the default).
  kFail,
  /// Return the best *sound* result completed so far, tagged
  /// ExecStats.partial = true. Each procedure degrades only at granularities
  /// that preserve its soundness contract — see docs/ROBUSTNESS.md. Errors
  /// other than exhaustion/cancellation (kInternal, kMalformed, ...) still
  /// fail: partial mode never masks bugs.
  kPartial,
};

/// \brief Options accepted by the chase, rewrite, inversion and round-trip
/// entry points. Inherits every ResourceLimits knob; adds execution policy.
struct ExecutionOptions : ResourceLimits {
  /// If true, fire every trigger without checking whether the conclusion is
  /// already satisfied (the *oblivious* / naive chase). The oblivious chase
  /// gives the canonical instance used for data-exchange equivalence tests;
  /// the standard chase (false) gives smaller universal solutions.
  bool oblivious = false;
  /// Drop rewriting disjuncts subsumed by other disjuncts (containment
  /// test). Chase engines ignore this.
  bool minimize = true;
  /// Degree of parallelism for trigger enumeration in ChaseTgds/ChaseSOTgd.
  /// 1 means sequential. Output is bit-identical for every thread count.
  int threads = 1;
  /// Batch-at-a-time execution: rows per scan/expansion block of the
  /// vectorized executor and triggers per bulk-fire batch. Trigger
  /// enumeration runs the compiled plan's check/bind micro-ops over
  /// selection vectors of arena blocks, and the fire loop appends whole
  /// batches through Instance::AddRows (see eval/vector_plan.h and
  /// docs/ENGINE.md). 0 selects the scalar tuple-at-a-time path, retained as
  /// the differential oracle. Output is bit-identical for every batch size
  /// and thread count; stats counters may differ between the two paths
  /// (each path counts into its own counters).
  size_t vector_batch = 1024;
  /// Compiled plans longer than this many steps run on the scalar
  /// interpreter even when `vector_batch` is set (the vectorized executor's
  /// per-step level state is sized for typical rule bodies; see
  /// eval/vector_plan.h). Each such routing bumps
  /// ExecStats::vector_plan_fallbacks. 0 forces the scalar path for every
  /// plan.
  size_t vector_max_plan_steps = 32;
  /// Memory budget for chase *target* instances, in bytes of heap-resident
  /// tuple payload (Instance::ResidentBytes); 0 means unlimited. When a
  /// mutation finds the instance over budget, cold sealed storage segments
  /// are evicted to a spill file and faulted back on access — output is
  /// bit-identical to an unconstrained run. See docs/STORAGE.md.
  uint64_t memory_budget_bytes = 0;
  /// Directory for the (immediately unlinked) spill file; empty means
  /// $TMPDIR or /tmp.
  std::string spill_dir;
  /// Durable job directory for checkpointed world enumeration
  /// (ChaseReverseWorlds / ChaseSOInverseWorlds and the round trips built on
  /// them). Empty (the default) disables checkpointing. When set, the
  /// enumeration commits its frontier — per-world snapshots plus a journaled
  /// manifest, each via write-temp-fsync-rename — every `checkpoint_every`
  /// triggers, so a killed process can resume to the byte-identical world
  /// set. See docs/JOBS.md.
  std::string checkpoint_dir;
  /// Triggers processed between checkpoint commits; 0 picks the default
  /// (kDefaultCheckpointEvery = 64). Only meaningful with checkpoint_dir.
  size_t checkpoint_every = 0;
  /// Resume from the newest valid checkpoint in checkpoint_dir instead of
  /// starting fresh. An empty or absent job directory starts fresh; a
  /// directory whose every manifest is corrupt is a clean error. Without
  /// `resume`, a checkpoint_dir that already holds a manifest is refused
  /// (kInvalidArgument) so an old job is never silently clobbered.
  bool resume = false;
  /// Stats sink; nullptr disables counting.
  ExecStats* stats = nullptr;
  /// Fresh-symbol scope; nullptr means the process-global context
  /// (historical behaviour). Supplying a fresh context makes null labels
  /// restart from zero, so identical runs produce identical instances.
  SymbolContext* symbols = nullptr;
  /// Pool to run parallel sections on; nullptr makes `threads > 1` use the
  /// lazily created process-shared pool. Engines inject their own.
  ThreadPool* pool = nullptr;
  /// The deadline resolved by an enclosing pipeline stage. Entry points
  /// construct their own ExecDeadline from `deadline_ms` only when this is
  /// null, so a composite operation (Invert, RoundTrip) measures one budget
  /// for all its stages. Use CarriedDeadline() to resolve.
  const ExecDeadline* deadline = nullptr;
  /// Trace sink recording a per-phase span tree (engine/trace.h); nullptr
  /// disables tracing. Spans are opened/closed only on the pipeline control
  /// thread, never inside parallel sections.
  Tracer* trace = nullptr;
  /// Cooperative cancellation token, polled at the same sites as the
  /// deadline; nullptr disables cancellation. Cancellation wins over a
  /// simultaneously expired deadline (the more specific cause).
  const CancelToken* cancel = nullptr;
  /// Degradation policy on deadline/limit/cancellation exhaustion.
  OnExhausted on_exhausted = OnExhausted::kFail;
};

/// \brief True if `options` carries a token that has been cancelled.
inline bool CancelRequested(const ExecutionOptions& options) {
  return options.cancel != nullptr && options.cancel->Cancelled();
}

/// \brief True if `status` is an exhaustion-class error that kPartial mode
/// may degrade into a partial result. Anything else (kInternal, kMalformed,
/// injected faults, ...) must keep failing.
inline bool IsExhaustion(const Status& status) {
  return status.code() == StatusCode::kResourceExhausted ||
         status.code() == StatusCode::kCancelled;
}

/// \brief Records that the result being returned is partial.
inline void MarkPartial(const ExecutionOptions& options) {
  if (options.stats != nullptr) {
    options.stats->partial.store(true, std::memory_order_relaxed);
  }
}

/// \brief Degradation decision for an exhaustion-class `status`: true means
/// "stop here and return the sound prefix" (and the partial flag has been
/// recorded); false means the caller must propagate the error.
inline bool DegradeToPartial(const ExecutionOptions& options,
                             const Status& status) {
  if (options.on_exhausted != OnExhausted::kPartial || !IsExhaustion(status)) {
    return false;
  }
  MarkPartial(options);
  return true;
}

/// \brief Entry-point helper: the deadline carried by `options` if an
/// enclosing stage resolved one, else `fallback` (which the caller
/// constructs locally from `options.deadline_ms`).
inline const ExecDeadline& CarriedDeadline(const ExecutionOptions& options,
                                           const ExecDeadline& fallback) {
  return options.deadline != nullptr ? *options.deadline : fallback;
}

}  // namespace mapinv

#endif  // MAPINV_ENGINE_EXECUTION_OPTIONS_H_
