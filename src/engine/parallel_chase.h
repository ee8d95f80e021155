/// \file parallel_chase.h
/// \brief Deterministic (optionally parallel) chase-trigger collection.
///
/// The chase engines spend almost all their time enumerating premise
/// homomorphisms (the *triggers*). CollectTriggers partitions that
/// enumeration so it can run on a thread pool while producing the trigger
/// list in **exactly** the order a sequential HomSearch::ForEachHom would:
///
///   1. pick the initial atom A* by the plan compiler's first-step rule
///      under the empty assignment (most constant terms, ties to the
///      smaller relation, then to the earlier atom — see hom_plan.h);
///   2. scan A*'s relation tuples in ascending insertion order, binding
///      A*'s terms against each tuple (the compiled executor's bucket
///      iteration visits the same matching subsequence in the same order);
///   3. for each successful binding, run the remaining atoms through one
///      plan compiled before the fan-out (bound set = A*'s variables) —
///      the same steps the full-premise plan would take after A*, hence
///      the same enumeration order.
///
/// Step 2's candidate range is split into contiguous chunks with one output
/// slot per chunk; slots are concatenated in chunk order, so the result is
/// independent of how chunks are scheduled. The **same chunked code path
/// runs for every thread count** — threads == 1 simply executes the chunks
/// inline — which is what makes multi-thread output bit-identical to
/// single-thread, and both identical to the historical sequential chase.
///
/// Each chunk runs batch-at-a-time, at every plan width: the pinned atom's
/// seed checks and the remaining-premise plan execute through the
/// selection-vector executor of eval/vector_plan.h in blocks of
/// `options.vector_batch` rows (0 runs one-row blocks), and triggers land
/// directly in the TriggerBatch value matrix — no per-trigger hash maps.
/// Every batch size yields the same batch bit-for-bit. The per-candidate
/// scan is kept as a test oracle, ReferenceCollectTriggers in
/// tests/hom_oracles.h.
///
/// Callers must not grow the instance while a collection is in flight;
/// CollectTriggers prewarms the search indexes and compiles the shared
/// remaining-premise plan before fanning out, so the parallel section only
/// reads per-HomSearch state.

#ifndef MAPINV_ENGINE_PARALLEL_CHASE_H_
#define MAPINV_ENGINE_PARALLEL_CHASE_H_

#include <algorithm>
#include <vector>

#include "base/status.h"
#include "data/instance.h"
#include "engine/execution_options.h"
#include "eval/hom.h"
#include "logic/cq.h"
#include "logic/so_tgd.h"

namespace mapinv {

/// \brief A batch of chase triggers in columnar form: one row per trigger,
/// one column per distinct premise variable (sorted ascending by VarId).
///
/// The fire loops consume rows positionally — `Row(i)[ColumnOf(v)]` replaces
/// the historical `h.at(v)` — so firing a trigger touches no hash map.
/// AssignmentAt materialises the historical map form for callers that still
/// want it (tests, world forks).
struct TriggerBatch {
  /// Distinct premise variables, sorted ascending; the column order.
  std::vector<VarId> vars;
  /// Row-major values, stride = vars.size().
  std::vector<Value> values;
  /// Number of triggers. An empty premise has one all-empty row (the empty
  /// assignment) with zero columns.
  size_t rows = 0;

  const Value* Row(size_t i) const { return values.data() + i * vars.size(); }

  /// Column index of `v`; `v` must be one of `vars`.
  size_t ColumnOf(VarId v) const {
    return static_cast<size_t>(
        std::lower_bound(vars.begin(), vars.end(), v) - vars.begin());
  }

  Assignment AssignmentAt(size_t i) const {
    Assignment h;
    h.reserve(vars.size());
    const Value* row = Row(i);
    for (size_t j = 0; j < vars.size(); ++j) h.emplace(vars[j], row[j]);
    return h;
  }
};

/// \brief Collects every homomorphism of `premise` into `instance` (which
/// must be the instance `search` was built over), in the exact order the
/// sequential backtracking search reports them.
///
/// `options.threads` > 1 fans the enumeration out on `options.pool` (or the
/// process-shared pool). `options.vector_batch` sets the rows per block of
/// the scan (0 runs one-row blocks); every size yields the same batch
/// bit-for-bit. Fails with kResourceExhausted once `deadline` expires, and
/// propagates validation errors (unknown relation, arity mismatch, function
/// terms) exactly like ForEachHom.
Result<TriggerBatch> CollectTriggers(const HomSearch& search,
                                     const Instance& instance,
                                     const std::vector<Atom>& premise,
                                     const HomConstraints& constraints,
                                     const ExecutionOptions& options,
                                     const ExecDeadline& deadline);

/// \brief Per-relation row counts marking the frontier between "already
/// chased" and "appended since" rows of an append-only instance. Indexed by
/// RelationId; a relation beyond the vector appeared after the watermark was
/// taken, so every one of its rows counts as new.
struct DeltaWatermark {
  std::vector<size_t> rows;

  /// True if `ref` in `relation` is at or past the watermark (an appended
  /// row).
  bool IsNew(RelationId relation, TupleRef ref) const {
    const size_t mark = relation < rows.size() ? rows[relation] : 0;
    return static_cast<size_t>(ref) >= mark;
  }
};

/// \brief The watermark capturing every current row of `instance` as old.
DeltaWatermark WatermarkOf(const Instance& instance);

/// \brief Collects exactly the homomorphisms of `premise` into `instance`
/// that map at least one premise atom to a row appended after `watermark` —
/// the *delta triggers* of semi-naïve evaluation.
///
/// The enumeration partitions by the first premise position (in premise
/// order) whose image is a new row: for each position d, the compiled
/// remaining-premise HomPlan runs with atom d pinned to the new-row slice,
/// and a candidate is kept only when every earlier atom's image row predates
/// the watermark. Each delta trigger is therefore produced exactly once, in
/// a deterministic order (ascending pinned position, then the pinned
/// relation's insertion order, independent of thread count).
///
/// With an all-zero watermark this returns every trigger (position 0 takes
/// the whole relation and later positions contribute nothing); an empty
/// premise has no delta triggers (its one empty assignment touches no row).
Result<TriggerBatch> CollectTriggersDelta(
    const HomSearch& search, const Instance& instance,
    const std::vector<Atom>& premise, const HomConstraints& constraints,
    const DeltaWatermark& watermark, const ExecutionOptions& options,
    const ExecDeadline& deadline);

/// \brief Resolves the fresh-symbol scope for an operation reading `input`:
/// the process-global context when `options.symbols` is null (historical
/// behaviour), otherwise `options.symbols` bumped past every null label
/// occurring in `input`, so an engine-scoped context that restarts at zero
/// can never re-issue a label already present in the data it extends.
SymbolContext& ResolveSymbols(const ExecutionOptions& options,
                              const Instance& input);

/// \brief Resolves the fresh-symbol scope for an operation generating
/// variables beside those of `atoms`: the process-global context when
/// `options.symbols` is null, otherwise `options.symbols` bumped past the
/// ordinal of every variable of `atoms` spelled like a generated one ("?u3"
/// reserves 3), so no generated variable renders like one the input spells.
SymbolContext& ResolveSymbols(const ExecutionOptions& options,
                              const std::vector<Atom>& atoms);

/// \brief As above, over the premises of `so`'s rules (which hold every
/// variable of a valid plain SO-tgd).
SymbolContext& ResolveSymbols(const ExecutionOptions& options,
                              const SOTgd& so);

}  // namespace mapinv

#endif  // MAPINV_ENGINE_PARALLEL_CHASE_H_
