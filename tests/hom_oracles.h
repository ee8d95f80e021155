// The reference homomorphism search the compiled join plans are checked
// against: the pre-plan interpreter, which re-picks the most-bound
// unprocessed atom at every step and reads the instance only through its
// public Arena and IndexFor. And, built on it, the reference world
// expansion the reverse chase is checked against.

#ifndef MAPINV_TESTS_HOM_ORACLES_H_
#define MAPINV_TESTS_HOM_ORACLES_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "base/status.h"
#include "base/symbol_context.h"
#include "data/instance.h"
#include "engine/execution_options.h"
#include "engine/parallel_chase.h"
#include "eval/hom.h"
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
