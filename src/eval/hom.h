/// \file hom.h
/// \brief Homomorphism search from atom conjunctions into instances, running
/// on compiled join plans.
///
/// This is the workhorse shared by query evaluation, the chase (premise
/// matching), CQ containment and instance homomorphism tests. A
/// *homomorphism* assigns a value to every variable of the atom conjunction
/// such that every atom maps to a fact of the instance; optional side
/// constraints restrict assignments:
///   * constant_vars — the variable must map to a constant (the paper's C(·))
///   * inequalities  — the two variables must map to distinct values.
///
/// Atom arguments may be variables or constants (constants must match
/// exactly); function terms are rejected — they never reach evaluation in
/// any of the paper's algorithms.
///
/// ForEachHom compiles the conjunction into a HomPlan (see hom_plan.h) on
/// first use and caches it under a content key, so repeated matching of the
/// same rule pays join-order selection and constraint lowering once. Every
/// search and existence probe here runs that plan tuple-at-a-time (RunPlan),
/// which reaches a first match without touching the rest of the candidates.
/// The chase's premise scans run the same plans block-at-a-time instead
/// (engine/parallel_chase.h, eval/vector_plan.h). The pre-plan interpreter
/// lives on as a test oracle, ReferenceForEachHom in tests/hom_oracles.h.

#ifndef MAPINV_EVAL_HOM_H_
#define MAPINV_EVAL_HOM_H_

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/status.h"
#include "data/instance.h"
#include "logic/cq.h"

namespace mapinv {

struct ExecStats;
struct HomPlan;

/// A partial or total variable assignment.
using Assignment = std::unordered_map<VarId, Value>;

/// \brief Side constraints on homomorphisms.
struct HomConstraints {
  /// Variables that must be assigned constant (non-null) values.
  std::unordered_set<VarId> constant_vars;
  /// Pairs of variables that must be assigned distinct values.
  std::vector<VarPair> inequalities;
};

/// \brief Homomorphism enumerator over one instance.
///
/// The per-relation, per-position value indexes the search needs are owned
/// by the Instance itself (Instance::IndexFor): built lazily, extended
/// incrementally as the append-only instance grows, and shared by every
/// HomSearch over the same instance — and, through copy-on-write stores, by
/// its forks. Constructing a HomSearch is therefore free; it carries only a
/// reference and a plan cache. The instance must outlive the search object.
class HomSearch {
 public:
  explicit HomSearch(const Instance& instance) : instance_(instance) {}

  /// Enumerates every homomorphism extending `fixed` from `atoms` into the
  /// instance under `constraints`. The callback receives each total
  /// assignment; returning false stops the enumeration early.
  ///
  /// Compiles (or fetches from the plan cache) a HomPlan for
  /// (atoms, constraints, key set of `fixed`) and executes it.
  ///
  /// Fails with kNotFound if an atom's relation is missing from the
  /// instance's schema, and with kMalformed on function-term arguments.
  Status ForEachHom(const std::vector<Atom>& atoms,
                    const HomConstraints& constraints, const Assignment& fixed,
                    const std::function<bool(const Assignment&)>& callback) const;

  /// True if at least one homomorphism exists.
  Result<bool> ExistsHom(const std::vector<Atom>& atoms,
                         const HomConstraints& constraints,
                         const Assignment& fixed = {}) const;

  /// Returns the cached plan for (atoms, constraints, keys of `fixed`),
  /// compiling and caching it on a miss. Thread-safe; returned plans are
  /// immutable and shared.
  Result<std::shared_ptr<const HomPlan>> GetPlan(
      const std::vector<Atom>& atoms, const HomConstraints& constraints,
      const Assignment& fixed = {}) const;

  /// Same, with the bound-variable set given directly (any order,
  /// duplicates tolerated). Lets callers obtain a plan before the values of
  /// the bound variables are known — e.g. the parallel chase compiles the
  /// remaining-premise plan once, then executes it per candidate binding.
  Result<std::shared_ptr<const HomPlan>> GetPlanForVars(
      const std::vector<Atom>& atoms, const HomConstraints& constraints,
      std::vector<VarId> bound_vars) const;

  /// Executes a compiled plan tuple-at-a-time. `fixed` must bind exactly
  /// the variables the plan was compiled with (`plan.fixed_vars`); extra keys
  /// are copied into the callback assignment but take no part in matching.
  /// The callback contract matches ForEachHom. Books its work into
  /// hom_searches (one per call), hom_bucket_candidates, hom_backtracks and
  /// hom_slot_bindings.
  Status ForEachHomWithPlan(
      const HomPlan& plan, const Assignment& fixed,
      const std::function<bool(const Assignment&)>& callback) const;

  /// No-op: every search runs tuple-at-a-time. Kept only for the call at
  /// reqbench/src/inprocess.cc:421.
  void set_vector_max_plan_steps(size_t) {}

  /// Existence check on a compiled plan. Equivalent to ForEachHomWithPlan
  /// with a stop-at-first callback, but never materialises an Assignment —
  /// the fast path for per-trigger conclusion checks, where the same plan
  /// runs thousands of times and only the yes/no answer matters.
  Result<bool> ExistsHomWithPlan(const HomPlan& plan,
                                 const Assignment& fixed) const;

  /// Same existence check with the bound values given positionally:
  /// `fixed_values[i]` is the value of `plan.fixed_vars[i]`. Skips the
  /// per-call hash-map construction and lookups entirely — the chase fire
  /// loops call this once per trigger.
  Result<bool> ExistsHomWithPlanValues(
      const HomPlan& plan, const std::vector<Value>& fixed_values) const;

  /// Validates `atoms` against the instance schema and builds the indexes
  /// for every relation they mention. After Prewarm, concurrent ForEachHom
  /// calls over the same atoms are safe as long as the instance does not
  /// grow — the lazily built index structures are then only read (the plan
  /// cache takes its own lock). The parallel chase prewarms and compiles
  /// plans before fanning trigger enumeration out.
  Status Prewarm(const std::vector<Atom>& atoms) const;

  /// Streams search counters (enumerations started, candidate tuples
  /// rejected, plans compiled, bucket candidates scanned, slot bindings)
  /// into `stats`; nullptr disables. Counter updates are atomic, so one
  /// sink may serve concurrent searches.
  void set_stats(ExecStats* stats) { stats_ = stats; }

 private:
  // Thin shim over Instance::IndexFor that books catch-up work into
  // stats_->index_catchup_rows.
  const RelationIndex& IndexFor(RelationId relation) const;

  // Shared plan runner behind ForEachHomWithPlan and ExistsHomWithPlan(Values).
  // Callback mode (callback != nullptr) enumerates every match; exists mode
  // (callback == nullptr) stops at the first full match, sets *found, and
  // never materialises an Assignment. Bound values come from `fixed` or,
  // when `fixed_values` is non-null (exists mode only), positionally from
  // there; `fixed` may then be null.
  Status RunPlan(const HomPlan& plan, const Assignment* fixed,
                 const Value* fixed_values,
                 const std::function<bool(const Assignment&)>* callback,
                 bool* found) const;

  const Instance& instance_;
  ExecStats* stats_ = nullptr;

  // Plan cache: key hash -> plans with that hash (full key compared to rule
  // out collisions). Guarded by plans_mutex_ so concurrent searches after
  // Prewarm stay safe.
  mutable std::mutex plans_mutex_;
  mutable std::unordered_map<size_t,
                             std::vector<std::shared_ptr<const HomPlan>>>
      plans_;
};

/// \brief True if there is a homomorphism from instance `from` into instance
/// `to`: a value map that is the identity on constants, maps nulls anywhere,
/// and sends every fact of `from` to a fact of `to`. This is the standard
/// instance-homomorphism notion used for universality and data-exchange
/// equivalence (Section 3.1).
Result<bool> InstanceHomExists(const Instance& from, const Instance& to);

/// \brief Homomorphic equivalence of instances (maps in both directions).
Result<bool> InstancesHomEquivalent(const Instance& a, const Instance& b);

}  // namespace mapinv

#endif  // MAPINV_EVAL_HOM_H_
