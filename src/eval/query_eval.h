/// \file query_eval.h
/// \brief Evaluation of CQ / UCQ= queries over instances with nulls.
///
/// Evaluation follows naive-table semantics: labelled nulls are treated as
/// ordinary (pairwise distinct) values during matching, so Q(I) may contain
/// tuples with nulls. The *certain* projection keeps only null-free answer
/// tuples — composing naive evaluation over a universal (canonical chase)
/// instance with the certain projection computes certain answers of CQs, the
/// standard data-exchange result [11] used throughout the paper.

#ifndef MAPINV_EVAL_QUERY_EVAL_H_
#define MAPINV_EVAL_QUERY_EVAL_H_

#include <vector>

#include "base/status.h"
#include "data/instance.h"
#include "eval/hom.h"
#include "logic/cq.h"

namespace mapinv {

struct ExecStats;

/// \brief A deduplicated, deterministic (sorted) set of answer tuples.
struct AnswerSet {
  std::vector<Tuple> tuples;

  bool Contains(const Tuple& t) const;
  /// True if every tuple of this set occurs in `other`.
  bool SubsetOf(const AnswerSet& other) const;
  bool operator==(const AnswerSet& other) const {
    return tuples == other.tuples;
  }
  /// Keeps only null-free tuples.
  AnswerSet CertainOnly() const;
  /// Set intersection (both operands sorted).
  AnswerSet Intersect(const AnswerSet& other) const;

  std::string ToString() const;
};

/// Builds a deduplicated sorted AnswerSet from raw tuples.
AnswerSet MakeAnswerSet(std::vector<Tuple> tuples);

/// Evaluates a conjunctive query over an instance (naive semantics).
/// `stats` (optional) receives the homomorphism-search counters.
Result<AnswerSet> EvaluateCq(const ConjunctiveQuery& query,
                             const Instance& instance,
                             ExecStats* stats = nullptr);

/// Evaluates one UCQ= / UCQ≠ disjunct with the given head. Equalities merge
/// head variables into representative classes before matching, exactly as
/// in the paper's normal form (equalities relate free variables only).
/// Inequalities evaluate naively: two values are unequal iff they are
/// distinct, labelled nulls included. Over null-free instances this is the
/// exact UCQ≠ semantics; over instances with nulls it is the standard naive
/// over-approximation (two distinct nulls might denote the same value), so
/// certain-answer computations with ≠ should be restricted to null-free
/// worlds (as in the Fagin-inverse round trips of Theorem 3.5, where the
/// recovered instances are null-free).
Result<AnswerSet> EvaluateDisjunct(const std::vector<VarId>& head,
                                   const CqDisjunct& disjunct,
                                   const Instance& instance,
                                   ExecStats* stats = nullptr);

/// Evaluates a UCQ= (union of the disjunct answers).
Result<AnswerSet> EvaluateUnionCq(const UnionCq& query,
                                  const Instance& instance,
                                  ExecStats* stats = nullptr);

/// Certain answers of `query` over a set of possible worlds: the
/// intersection of the per-world certain (null-free) answers. Fails on an
/// empty world set; callers that can name why their set is empty check
/// first. `stats` (optional) receives the homomorphism-search counters.
Result<AnswerSet> CertainOverWorlds(const std::vector<Instance>& worlds,
                                    const ConjunctiveQuery& query,
                                    ExecStats* stats = nullptr);

}  // namespace mapinv

#endif  // MAPINV_EVAL_QUERY_EVAL_H_
