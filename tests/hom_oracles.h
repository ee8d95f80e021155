// The reference homomorphism search the compiled join plans are checked
// against: the pre-plan interpreter, which re-picks the most-bound
// unprocessed atom at every step and reads the instance only through its
// public Arena and IndexFor.

#ifndef MAPINV_TESTS_HOM_ORACLES_H_
#define MAPINV_TESTS_HOM_ORACLES_H_

#include <functional>
#include <vector>

#include "base/status.h"
#include "data/instance.h"
#include "eval/hom.h"

namespace mapinv {

/// The constraints decidable under a partial assignment: a bound variable's
/// constant requirement, and inequalities whose endpoints are both bound.
inline bool ReferenceConstraintsHold(const HomConstraints& constraints,
                                     const Assignment& assignment) {
  for (VarId v : constraints.constant_vars) {
    auto it = assignment.find(v);
    if (it != assignment.end() && !it->second.is_constant()) return false;
  }
  for (const VarPair& ne : constraints.inequalities) {
    auto a = assignment.find(ne.first);
    auto b = assignment.find(ne.second);
    if (a != assignment.end() && b != assignment.end() &&
        a->second == b->second) {
      return false;
    }
  }
  return true;
}

/// HomSearch::ForEachHom's contract over `instance`, by recursive
/// backtracking: the same status codes and the same homomorphism multiset.
/// Enumeration order may differ only through the plan's cardinality
/// tie-break.
inline Status ReferenceForEachHom(
    const Instance& instance, const std::vector<Atom>& atoms,
    const HomConstraints& constraints, const Assignment& fixed,
    const std::function<bool(const Assignment&)>& callback) {
  // Resolve relations and validate argument shapes once.
  struct ResolvedAtom {
    const Atom* atom;
    RelationId relation;
    bool done = false;
  };
  std::vector<ResolvedAtom> resolved;
  resolved.reserve(atoms.size());
  for (const Atom& a : atoms) {
    MAPINV_ASSIGN_OR_RETURN(
        RelationId id, instance.schema().Require(RelationText(a.relation)));
    if (instance.schema().arity(id) != a.terms.size()) {
      return Status::Malformed("atom " + a.ToString() +
                               " arity mismatch with instance schema");
    }
    for (const Term& t : a.terms) {
      if (t.is_function()) {
        return Status::Malformed("cannot match function term " + t.ToString() +
                                 " against an instance");
      }
    }
    resolved.push_back(ResolvedAtom{&a, id});
  }

  Assignment assignment = fixed;
  if (!ReferenceConstraintsHold(constraints, assignment)) return Status::OK();

  // Returning false means "stop the whole enumeration".
  std::function<bool()> recurse = [&]() -> bool {
    ResolvedAtom* best = nullptr;
    int best_bound = -1;
    for (ResolvedAtom& ra : resolved) {
      if (ra.done) continue;
      int bound = 0;
      for (const Term& t : ra.atom->terms) {
        if (t.is_constant() ||
            (t.is_variable() && assignment.contains(t.var()))) {
          ++bound;
        }
      }
      if (bound > best_bound) {
        best_bound = bound;
        best = &ra;
      }
    }
    if (best == nullptr) {
      return callback(assignment);
    }
    best->done = true;
    const Atom& atom = *best->atom;
    const Instance::ArenaView view = instance.Arena(best->relation);
    const size_t rows = instance.NumRows(best->relation);

    // Candidate tuples: the index bucket of the first bound position, else
    // the whole relation.
    const std::vector<uint32_t>* bucket = nullptr;
    std::vector<uint32_t> all;
    for (uint32_t p = 0; p < atom.terms.size(); ++p) {
      const Term& t = atom.terms[p];
      Value bound_value;
      bool have = false;
      if (t.is_constant()) {
        bound_value = t.value();
        have = true;
      } else if (assignment.contains(t.var())) {
        bound_value = assignment.at(t.var());
        have = true;
      }
      if (have) {
        const auto& buckets =
            instance.IndexFor(best->relation).positions[p].buckets;
        auto it = buckets.find(bound_value);
        bucket = it == buckets.end() ? &all : &it->second;  // &all: empty
        break;
      }
    }
    if (bucket == nullptr) {
      all.resize(rows);
      for (uint32_t i = 0; i < rows; ++i) all[i] = i;
      bucket = &all;
    }

    bool keep_going = true;
    for (uint32_t idx : *bucket) {
      const Value* tuple = view.row(idx);
      std::vector<VarId> newly_bound;
      bool ok = true;
      for (uint32_t p = 0; p < atom.terms.size() && ok; ++p) {
        const Term& t = atom.terms[p];
        if (t.is_constant()) {
          ok = (t.value() == tuple[p]);
        } else {
          auto it = assignment.find(t.var());
          if (it == assignment.end()) {
            // Constant constraint applied eagerly.
            if (constraints.constant_vars.contains(t.var()) &&
                !tuple[p].is_constant()) {
              ok = false;
            } else {
              assignment.emplace(t.var(), tuple[p]);
              newly_bound.push_back(t.var());
            }
          } else {
            ok = (it->second == tuple[p]);
          }
        }
      }
      if (ok) {
        // Inequalities involving newly bound variables.
        for (const VarPair& ne : constraints.inequalities) {
          auto a = assignment.find(ne.first);
          auto b = assignment.find(ne.second);
          if (a != assignment.end() && b != assignment.end() &&
              a->second == b->second) {
            ok = false;
            break;
          }
        }
      }
      if (ok) keep_going = recurse();
      for (VarId v : newly_bound) assignment.erase(v);
      if (!keep_going) break;
    }
    best->done = false;
    return keep_going;
  };

  recurse();
  return Status::OK();
}

}  // namespace mapinv

#endif  // MAPINV_TESTS_HOM_ORACLES_H_
