/// \file hom_plan.h
/// \brief Compiled join plans for the homomorphism-search kernel.
///
/// The interpretive search in hom.cc re-derives the same decisions for every
/// candidate tuple: it rescans all atoms per recursion step to find the
/// most-bound one (O(atoms²) per step), and it hashes a VarId→Value map for
/// every variable it touches. Both are per-*conjunction* facts, not
/// per-*tuple* facts: which atom comes next depends only on which variables
/// are bound — never on their values — so the whole join order is a static
/// property of (atoms, initially-bound variables). A HomPlan fixes that
/// order once and lowers each atom to a check/bind micro-program over dense
/// plan-local value slots:
///
///   * join order    — greedy: most bound positions first, ties broken by
///                     smaller relation cardinality (snapshotted at compile
///                     time), then by original atom index;
///   * slot lowering — every variable gets a dense slot id; the inner loop
///                     runs over a flat std::vector<Value> with no hashing
///                     or allocation, converting to an Assignment only at
///                     the callback boundary;
///   * constraints   — constant-variable checks fuse into the bind op of
///                     the slot; each inequality is checked exactly once, at
///                     the op that binds its later-bound endpoint.
///
/// Candidate selection happens at run time (values vary), but the *set of
/// bound positions* per step is compiled: the executor looks up the index
/// bucket of every bound position and scans the smallest one — or the
/// intersection of the two smallest when the win is worth the merge — where
/// the interpreter always took the first bound position's bucket.
///
/// Plans are immutable after compilation and are cached per HomSearch under
/// a content key (atoms + constraints + bound-variable set), so concurrent
/// searches over one instance share them; see HomSearch::GetPlan.
///
/// Enumeration-order contract: for a fixed plan the executor enumerates
/// homomorphisms in a deterministic order (candidates ascend by tuple
/// insertion index at every step). The order can differ from the
/// interpreter's only through the cardinality tie-break in the join order;
/// the homomorphism *set* is always identical (tests/hom_plan_test.cc
/// asserts this differentially against the retained interpreter).

#ifndef MAPINV_EVAL_HOM_PLAN_H_
#define MAPINV_EVAL_HOM_PLAN_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "base/status.h"
#include "data/instance.h"
#include "logic/cq.h"

namespace mapinv {

struct HomConstraints;

/// \brief Content identity of a plan: what it was compiled from. Two
/// ForEachHom calls reuse one plan iff their keys are equal — same atoms
/// (relations, term structure, constants), same constraints, same *set* of
/// initially-bound variables (values are runtime inputs, not plan inputs).
struct HomPlanKey {
  std::vector<uint64_t> words;
  size_t hash = 0;

  friend bool operator==(const HomPlanKey& a, const HomPlanKey& b) {
    return a.hash == b.hash && a.words == b.words;
  }
};

/// \brief A compiled join plan. Data members are an implementation detail
/// shared with the executor in hom.cc; treat them as read-only.
struct HomPlan {
  /// One position of one atom, lowered. Ops run in position order; the first
  /// failing op rejects the candidate tuple.
  struct Op {
    enum class Kind : uint8_t {
      kCheckConst,  ///< tuple[pos] must equal `value`
      kCheckSlot,   ///< tuple[pos] must equal slots[slot]
      kBind,        ///< slots[slot] = tuple[pos], then run fused checks
    };
    Kind kind;
    /// Fused into kBind: reject labelled nulls (the paper's C(·)).
    bool must_be_constant = false;
    uint32_t pos = 0;
    uint16_t slot = 0;
    Value value;
    /// Fused into kBind: slots whose value must differ from the bound one
    /// (each inequality constraint compiles into exactly one bind op — the
    /// one that binds its later-bound endpoint).
    std::vector<uint16_t> distinct_from;
  };

  /// A position whose value is known before the step starts scanning
  /// candidates — from a constant term or a slot bound by an earlier step
  /// (or at init). These drive index-bucket selection.
  struct BoundPos {
    uint32_t pos = 0;
    bool is_const = false;
    Value value;       ///< valid when is_const
    uint16_t slot = 0; ///< valid when !is_const
  };

  /// One atom of the conjunction, in execution order.
  struct Step {
    RelationId relation = 0;
    uint32_t atom_index = 0;  ///< index in the source conjunction
    std::vector<BoundPos> bound_positions;
    std::vector<Op> ops;
  };

  std::vector<Step> steps;

  /// Total number of value slots; slot ids index a flat vector<Value>.
  uint16_t num_slots = 0;
  /// slot -> variable it carries (diagnostics and callback conversion).
  std::vector<VarId> slot_vars;

  /// Variables pre-bound from the `fixed` assignment at execution start
  /// (`fixed_slots` is parallel). Every key of the fixed assignment the
  /// plan was compiled for appears here, sorted by VarId.
  std::vector<VarId> fixed_vars;
  std::vector<uint16_t> fixed_slots;

  /// Slots that must hold constants, checkable at init (fixed variables
  /// under a constant_vars constraint).
  std::vector<uint16_t> init_constant_slots;
  /// Inequalities between two init-bound slots, checked once at init.
  std::vector<std::pair<uint16_t, uint16_t>> init_inequalities;

  /// Slots to emit into the callback Assignment (everything bound by a step
  /// rather than by `fixed`; `emit_vars` is parallel).
  std::vector<uint16_t> emit_slots;
  std::vector<VarId> emit_vars;

  /// The content key this plan was compiled under (set by HomSearch).
  HomPlanKey key;
};

/// Smallest-bucket scans at or below this size are not worth intersecting
/// with the second-smallest bucket; the per-candidate checks are cheaper
/// than the merge.
inline constexpr size_t kIntersectMinBucket = 32;

/// \brief The candidate rows of one plan step, as SelectCandidates chose
/// them.
struct StepCandidates {
  enum class Kind : uint8_t {
    kDead,      ///< a bound position's value has no bucket: no candidate
    kFullScan,  ///< nothing is bound: every row of the relation
    kRows,      ///< exactly `rows`
  };
  Kind kind;
  std::span<const TupleRef> rows;
};

/// Candidate selection shared by both executors: the smallest index bucket
/// over the step's bound positions (values from `slots`), intersected into
/// `scratch` with the second-smallest when it holds more than
/// kIntersectMinBucket rows. All buckets ascend by row ref, so the candidate
/// order (and hence the enumeration order) does not depend on which bucket
/// wins.
inline StepCandidates SelectCandidates(const HomPlan::Step& step,
                                       const PositionIndex* positions,
                                       const Value* slots,
                                       std::vector<TupleRef>* scratch) {
  if (step.bound_positions.empty()) {
    return {StepCandidates::Kind::kFullScan, {}};
  }
  // Every bucket is non-empty, so an empty span means "none yet".
  std::span<const TupleRef> smallest;
  std::span<const TupleRef> second;
  for (const HomPlan::BoundPos& bp : step.bound_positions) {
    const Value v = bp.is_const ? bp.value : slots[bp.slot];
    const std::span<const TupleRef> b = positions[bp.pos].Bucket(v);
    if (b.empty()) return {StepCandidates::Kind::kDead, {}};
    if (smallest.empty() || b.size() < smallest.size()) {
      second = smallest;
      smallest = b;
    } else if (second.empty() || b.size() < second.size()) {
      second = b;
    }
  }
  if (second.empty() || smallest.size() <= kIntersectMinBucket) {
    return {StepCandidates::Kind::kRows, smallest};
  }
  scratch->clear();
  std::set_intersection(smallest.begin(), smallest.end(), second.begin(),
                        second.end(), std::back_inserter(*scratch));
  return {StepCandidates::Kind::kRows, *scratch};
}

/// Builds the content key for (atoms, constraints, bound variable set).
/// `bound_vars` must be sorted and duplicate-free.
HomPlanKey BuildHomPlanKey(const std::vector<Atom>& atoms,
                           const HomConstraints& constraints,
                           const std::vector<VarId>& bound_vars);

/// Compiles a plan against `instance` (schema resolution + cardinality
/// snapshot for the join-order tie-break). `bound_vars` must be sorted and
/// duplicate-free. Fails with kNotFound for a relation missing from the
/// instance schema and kMalformed for arity mismatches or function terms —
/// the same contract as the interpretive search.
Result<HomPlan> CompileHomPlan(const Instance& instance,
                               const std::vector<Atom>& atoms,
                               const HomConstraints& constraints,
                               const std::vector<VarId>& bound_vars);

}  // namespace mapinv

#endif  // MAPINV_EVAL_HOM_PLAN_H_
