// The reference homomorphism search the compiled join plans are checked
// against: the pre-plan interpreter, which re-picks the most-bound
// unprocessed atom at every step and reads the instance only through its
// public Arena and IndexFor. The reference trigger collection the block
// executor is checked against: one tuple-at-a-time plan run per candidate
// row. And the reference world expansion the reverse chase is checked
// against.

#ifndef MAPINV_TESTS_HOM_ORACLES_H_
#define MAPINV_TESTS_HOM_ORACLES_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "base/status.h"
#include "base/symbol_context.h"
#include "data/instance.h"
#include "engine/execution_options.h"
#include "engine/parallel_chase.h"
#include "eval/hom.h"
#include "eval/hom_plan.h"
#include "logic/mapping.h"

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
    std::span<const TupleRef> bucket;
    bool have_bucket = false;
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
        bucket =
            instance.IndexFor(best->relation).positions[p].Bucket(bound_value);
        have_bucket = true;
        break;
      }
    }
    if (!have_bucket) {
      all.resize(rows);
      for (uint32_t i = 0; i < rows; ++i) all[i] = i;
      bucket = all;
    }

    bool keep_going = true;
    for (uint32_t idx : bucket) {
      // A 0-ary relation stores no values, so there is no row to read.
      const Value* tuple = atom.terms.empty() ? nullptr : view.row(idx);
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

/// Binds `atom`'s terms against `tuple` into `out` (starting empty), applying
/// the eager checks ForEachHom performs: constants must match, repeated
/// variables must agree, constant-constrained variables reject nulls, and
/// fully bound inequalities must hold. Returns false if the tuple is not a
/// match for the atom.
inline bool ReferenceBindCandidate(const Atom& atom, RowView tuple,
                                   const HomConstraints& constraints,
                                   Assignment* out) {
  for (size_t p = 0; p < atom.terms.size(); ++p) {
    const Term& t = atom.terms[p];
    if (t.is_constant()) {
      if (!(t.value() == tuple[p])) return false;
    } else {
      auto it = out->find(t.var());
      if (it == out->end()) {
        if (constraints.constant_vars.contains(t.var()) &&
            !tuple[p].is_constant()) {
          return false;
        }
        out->emplace(t.var(), tuple[p]);
      } else if (!(it->second == tuple[p])) {
        return false;
      }
    }
  }
  return ReferenceConstraintsHold(constraints, *out);
}

/// CollectTriggers' contract with no chunks and no blocks: the same trigger
/// rows in the same order. The pinned atom is the plan compiler's first step
/// under the empty assignment (most constant terms, ties to the smaller
/// relation, then to the earlier atom); each of its relation's rows, in
/// insertion order, is bound by ReferenceBindCandidate and extended by one
/// tuple-at-a-time run (ForEachHomWithPlan) of the remaining-premise plan.
inline Result<TriggerBatch> ReferenceCollectTriggers(
    const HomSearch& search, const Instance& instance,
    const std::vector<Atom>& premise, const HomConstraints& constraints) {
  MAPINV_RETURN_NOT_OK(search.Prewarm(premise));
  TriggerBatch batch;
  batch.vars = CollectDistinctVars(premise);
  std::sort(batch.vars.begin(), batch.vars.end());
  if (premise.empty()) {
    batch.rows = 1;
    return batch;
  }
  size_t pin = 0;
  int best_bound = -1;
  size_t best_rows = 0;
  for (size_t i = 0; i < premise.size(); ++i) {
    int bound = 0;
    for (const Term& t : premise[i].terms) bound += t.is_constant() ? 1 : 0;
    MAPINV_ASSIGN_OR_RETURN(
        RelationId id,
        instance.schema().Require(RelationText(premise[i].relation)));
    const size_t rows = instance.NumRows(id);
    if (bound > best_bound || (bound == best_bound && rows < best_rows)) {
      best_bound = bound;
      best_rows = rows;
      pin = i;
    }
  }
  std::vector<Atom> remaining;
  std::vector<VarId> pinned_vars;
  for (size_t i = 0; i < premise.size(); ++i) {
    if (i != pin) remaining.push_back(premise[i]);
  }
  for (const Term& t : premise[pin].terms) {
    if (t.is_variable()) pinned_vars.push_back(t.var());
  }
  MAPINV_ASSIGN_OR_RETURN(
      std::shared_ptr<const HomPlan> plan,
      search.GetPlanForVars(remaining, constraints, pinned_vars));
  MAPINV_ASSIGN_OR_RETURN(
      RelationId rel,
      instance.schema().Require(RelationText(premise[pin].relation)));
  for (size_t i = 0; i < instance.NumRows(rel); ++i) {
    Assignment bindings;
    if (!ReferenceBindCandidate(premise[pin],
                                instance.Row(rel, static_cast<TupleRef>(i)),
                                constraints, &bindings)) {
      continue;
    }
    MAPINV_RETURN_NOT_OK(search.ForEachHomWithPlan(
        *plan, bindings, [&](const Assignment& h) {
          for (VarId v : batch.vars) batch.values.push_back(h.at(v));
          ++batch.rows;
          return true;
        }));
  }
  return batch;
}

/// What ReferenceReverseWorlds returns: the worlds, and the counts the
/// production chase reports as ExecStats chase_steps and worlds_forked.
struct ReferenceWorlds {
  std::vector<Instance> worlds;
  uint64_t chase_steps = 0;
  uint64_t worlds_forked = 0;
};

/// ChaseReverseWorlds' contract, world by world and without plans: the same
/// worlds in the same order, with the same null labels. Triggers come from
/// the production CollectTriggers, so both sides walk one trigger order.
/// Per trigger, a disjunct applies when its equalities hold; a world whose
/// conclusion already holds (standard chase only: some applicable disjunct
/// has a ReferenceForEachHom match extending the trigger) survives as is;
/// any other world forks once per applicable disjunct, the last reusing it,
/// and fires with AddTuple, minting the disjunct's unbound variables fresh
/// nulls in first-occurrence order. Of the limits, only max_worlds is kept
/// (checked after each trigger, as the production chase does, and failing
/// with kResourceExhausted); deadlines and jobs are left out.
inline Result<ReferenceWorlds> ReferenceReverseWorlds(
    const ReverseMapping& mapping, const Instance& input,
    const ExecutionOptions& options) {
  SymbolContext& symbols = ResolveSymbols(options, input);
  HomSearch search(input);
  const ExecDeadline deadline(0);
  ReferenceWorlds out;
  out.worlds.emplace_back(mapping.target);
  for (const ReverseDependency& dep : mapping.deps) {
    HomConstraints constraints;
    constraints.constant_vars.insert(dep.constant_vars.begin(),
                                     dep.constant_vars.end());
    constraints.inequalities = dep.inequalities;
    MAPINV_ASSIGN_OR_RETURN(
        TriggerBatch triggers,
        CollectTriggers(search, input, dep.premise, constraints,
                        ExecutionOptions{}, deadline));
    for (size_t t = 0; t < triggers.rows; ++t) {
      ++out.chase_steps;
      const Assignment trigger = triggers.AssignmentAt(t);
      std::vector<const ReverseDisjunct*> applicable;
      for (const ReverseDisjunct& d : dep.disjuncts) {
        bool holds = true;
        for (const VarPair& eq : d.equalities) {
          holds = holds && trigger.at(eq.first) == trigger.at(eq.second);
        }
        if (holds) applicable.push_back(&d);
      }
      std::vector<Instance> next;
      for (Instance& world : out.worlds) {
        if (applicable.empty()) continue;
        bool satisfied = false;
        for (size_t ai = 0;
             !options.oblivious && !satisfied && ai < applicable.size(); ++ai) {
          // Fixing the whole trigger fixes the disjunct's premise
          // variables; the rest take no part in matching.
          MAPINV_RETURN_NOT_OK(ReferenceForEachHom(
              world, applicable[ai]->atoms, HomConstraints{}, trigger,
              [&](const Assignment&) {
                satisfied = true;
                return false;
              }));
        }
        if (satisfied) {
          next.push_back(std::move(world));
          continue;
        }
        for (size_t ai = 0; ai < applicable.size(); ++ai) {
          const bool last = ai + 1 == applicable.size();
          if (!last) ++out.worlds_forked;
          Instance fork = last ? std::move(world) : world;
          Assignment bound = trigger;
          for (VarId v : CollectDistinctVars(applicable[ai]->atoms)) {
            if (!bound.contains(v)) bound.emplace(v, Value::FreshNull(symbols));
          }
          for (const Atom& atom : applicable[ai]->atoms) {
            Tuple tuple;
            for (const Term& term : atom.terms) {
              tuple.push_back(term.is_constant() ? term.value()
                                                 : bound.at(term.var()));
            }
            MAPINV_ASSIGN_OR_RETURN(
                RelationId relation,
                fork.schema().Require(RelationText(atom.relation)));
            MAPINV_RETURN_NOT_OK(
                fork.AddTuple(relation, std::move(tuple)).status());
          }
          next.push_back(std::move(fork));
        }
      }
      out.worlds = std::move(next);
      if (out.worlds.empty()) return out;
      if (out.worlds.size() > options.max_worlds) {
        return Status::ResourceExhausted("exceeded max_worlds");
      }
    }
  }
  return out;
}

}  // namespace mapinv

#endif  // MAPINV_TESTS_HOM_ORACLES_H_
