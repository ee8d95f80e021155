/// \file fire_plan.h
/// \brief The forward chases' one fire loop, and the compiled conclusion
/// atoms it fires.
///
/// FireTriggers fires one dependency's TriggerBatch into the target. It is
/// the only fire loop of the forward chases: ChaseTgds and ChaseDelta
/// (chase_tgd.cc) and ChaseSOTgd (chase_so.cc) differ only in the lambdas
/// they pass it, which mint a trigger's fresh nulls, build conclusion atom
/// i's row, probe satisfaction and record each new row. The kernel owns
/// the rest: the bulk path, the budget-edge per-trigger fallback, the
/// per-trigger path with its satisfaction probe, the chase_steps and
/// bulk_rows_appended counters, interrupt polls, the fire failpoint, the
/// max_new_facts budget and kPartial degradation at whole-trigger
/// granularity. The world enumerations fork worlds per trigger and run
/// through their own driver, ChaseWorlds (chase/world_chase.h); the reverse
/// chase fires the same compiled atoms there, and applies the bulk path's
/// rule per world: a disjunct without existentials holds in a world exactly
/// when the world already contains its rows, so it builds them once per
/// trigger and checks each world by row lookup instead of a hom search.
///
/// A conclusion compiles once per dependency (CompileFireAtomsCols):
/// relations resolve to RelationIds up front, and every term is classified
/// as constant, trigger column or existential. BuildFireRowCols then
/// assembles a row into a reused scratch buffer straight from a
/// TriggerBatch row — no strings, no hash maps, no per-tuple allocation.
/// BulkFireScratch buffers a whole batch of assembled rows per relation so
/// the bulk path appends them with one Instance::AddRows dedup pass per
/// relation per batch.

#ifndef MAPINV_CHASE_FIRE_PLAN_H_
#define MAPINV_CHASE_FIRE_PLAN_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "data/instance.h"
#include "engine/execution_options.h"
#include "engine/failpoint.h"
#include "engine/parallel_chase.h"
#include "engine/trace.h"
#include "logic/atom.h"

namespace mapinv {

/// One compiled conclusion term, column-indexed: bound variables resolve to
/// a column of the trigger row instead of a hash-map key.
struct FireTermCol {
  enum class Kind { kConstant, kBound, kExistential } kind;
  Value constant;    // kConstant
  uint32_t col = 0;  // kBound: column index into the trigger row
  uint32_t ex = 0;   // kExistential: index into the per-firing fresh nulls
};

/// One compiled conclusion atom, column-indexed.
struct FireAtomCols {
  RelationId relation;
  std::vector<FireTermCol> terms;
};

/// Compiles `atoms` against `schema` with bound variables resolved to
/// columns of `trigger_vars` (the TriggerBatch column order: sorted
/// ascending). Variables in `existential_vars` become kExistential terms;
/// every other variable must be a trigger column.
inline Result<std::vector<FireAtomCols>> CompileFireAtomsCols(
    const std::vector<Atom>& atoms, const Schema& schema,
    const std::vector<VarId>& existential_vars,
    const std::vector<VarId>& trigger_vars) {
  std::unordered_map<VarId, uint32_t> ex_index;
  for (uint32_t i = 0; i < existential_vars.size(); ++i) {
    ex_index.emplace(existential_vars[i], i);
  }
  std::vector<FireAtomCols> out;
  out.reserve(atoms.size());
  for (const Atom& atom : atoms) {
    FireAtomCols fa;
    MAPINV_ASSIGN_OR_RETURN(fa.relation,
                            schema.Require(RelationText(atom.relation)));
    fa.terms.reserve(atom.terms.size());
    for (const Term& term : atom.terms) {
      FireTermCol ft;
      if (term.is_constant()) {
        ft.kind = FireTermCol::Kind::kConstant;
        ft.constant = term.value();
      } else {
        auto it = ex_index.find(term.var());
        if (it != ex_index.end()) {
          ft.kind = FireTermCol::Kind::kExistential;
          ft.ex = it->second;
        } else {
          const auto col = std::lower_bound(trigger_vars.begin(),
                                            trigger_vars.end(), term.var());
          if (col == trigger_vars.end() || *col != term.var()) {
            return Status::Internal("conclusion variable v" +
                                    std::to_string(term.var()) +
                                    " is neither existential nor a premise "
                                    "variable");
          }
          ft.kind = FireTermCol::Kind::kBound;
          ft.col = static_cast<uint32_t>(col - trigger_vars.begin());
        }
      }
      fa.terms.push_back(ft);
    }
    out.push_back(std::move(fa));
  }
  return out;
}

/// Assembles one column-indexed atom's row into `scratch` from a trigger row
/// (in the compile-time column order) and the per-firing fresh nulls
/// (`fresh` may be null when the atom has no existential terms).
inline void BuildFireRowCols(const FireAtomCols& fa, const Value* row,
                             const Value* fresh, std::vector<Value>* scratch) {
  scratch->clear();
  for (const FireTermCol& ft : fa.terms) {
    switch (ft.kind) {
      case FireTermCol::Kind::kConstant:
        scratch->push_back(ft.constant);
        break;
      case FireTermCol::Kind::kBound:
        scratch->push_back(row[ft.col]);
        break;
      case FireTermCol::Kind::kExistential:
        scratch->push_back(fresh[ft.ex]);
        break;
    }
  }
}

/// \brief Per-relation row buffers for batch firing.
///
/// A fire batch assembles every conclusion row of up to vector_batch
/// triggers into these buffers (triggers outer, atoms inner, so each
/// relation receives its rows in exactly the order the per-trigger AddRow
/// loop would produce), then FlushBulkFire appends each buffer with one
/// Instance::AddRows call — a single dedup-probe pass per relation per
/// batch. `fired[t]` is set when trigger `t` contributed at least one
/// genuinely new row; for existential-free dependencies that is exactly
/// "the trigger was unsatisfied", so the bulk path needs no per-trigger
/// satisfaction probe.
struct BulkFireScratch {
  struct RelBuf {
    RelationId relation = 0;
    uint32_t arity = 0;
    std::vector<Value> rows;      ///< row-major pending rows
    std::vector<uint32_t> owner;  ///< pending row -> batch trigger index
    std::vector<uint8_t> added;   ///< AddRows out-flags, reused per flush
  };
  std::vector<RelBuf> bufs;
  /// Conclusion atom index -> index into `bufs` (atoms sharing a relation
  /// share a buffer, preserving per-relation insertion order).
  std::vector<size_t> atom_buf;
  /// Per-trigger "added at least one row" flags for the current batch.
  std::vector<uint8_t> fired;

  void BeginBatch(size_t num_triggers) {
    fired.assign(num_triggers, 0);
    for (RelBuf& b : bufs) {
      b.rows.clear();
      b.owner.clear();
    }
  }

  void Append(size_t buf_index, uint32_t trigger, const Value* row) {
    RelBuf& b = bufs[buf_index];
    b.rows.insert(b.rows.end(), row, row + b.arity);
    b.owner.push_back(trigger);
  }
};

/// Builds the per-relation buffers for conclusion atoms resolved to
/// `relations` (one buffer per distinct relation, in first-appearance
/// order).
inline BulkFireScratch MakeBulkFireScratch(
    const std::vector<RelationId>& relations, const Schema& schema) {
  BulkFireScratch s;
  s.atom_buf.reserve(relations.size());
  for (RelationId rel : relations) {
    size_t b = 0;
    for (; b < s.bufs.size(); ++b) {
      if (s.bufs[b].relation == rel) break;
    }
    if (b == s.bufs.size()) {
      BulkFireScratch::RelBuf buf;
      buf.relation = rel;
      buf.arity = schema.arity(rel);
      s.bufs.push_back(std::move(buf));
    }
    s.atom_buf.push_back(b);
  }
  return s;
}

/// Appends every buffered row into `target` (one AddRows per relation, with
/// a capacity hint), marks `s->fired` for owning triggers of added rows, and
/// invokes `on_added(relation, ref)` for each genuinely new row — the k-th
/// added row of a relation lands at ref (NumRows - inserted + k), since
/// AddRows appends densely. Returns the number of rows added.
template <typename OnAdded>
inline Result<size_t> FlushBulkFire(Instance* target, BulkFireScratch* s,
                                    OnAdded&& on_added) {
  size_t created = 0;
  for (BulkFireScratch::RelBuf& b : s->bufs) {
    const size_t count = b.owner.size();
    if (count == 0) continue;
    target->Reserve(b.relation, count);
    MAPINV_ASSIGN_OR_RETURN(
        size_t inserted,
        target->AddRows(b.relation, b.rows.data(), count, &b.added));
    created += inserted;
    size_t ref = target->NumRows(b.relation) - inserted;
    for (size_t i = 0; i < count; ++i) {
      if (!b.added[i]) continue;
      s->fired[b.owner[i]] = 1;
      on_added(b.relation, static_cast<TupleRef>(ref));
      ++ref;
    }
  }
  return created;
}

/// \brief The state one forward chase threads through FireTriggers, one
/// call per dependency.
struct FireRun {
  const ExecutionOptions& options;
  const ExecDeadline& deadline;
  /// Phase named by interrupt and max_new_facts errors ("chase_tgds", ...).
  const char* phase;
  /// Checked once per bulk batch, or once per trigger on the per-trigger
  /// path, before anything is appended.
  FailPoint& failpoint;
  Instance* target;
  /// New target facts so far, over every dependency; bounded by
  /// options.max_new_facts.
  size_t created = 0;
};

/// \brief Fires every trigger of one dependency into `run->target`, in
/// trigger order; conclusion atom i lands in `relations[i]`. The caller
/// supplies what differs between the chases:
///   - `mint(Value* fresh)` writes one trigger's `num_fresh` fresh nulls;
///   - `build(i, row, fresh, &scratch)` puts atom i's row for the trigger
///     `row` into scratch and returns a Status;
///   - `satisfied(row)` returns Result<bool>: whether the trigger's
///     conclusion already holds in the target;
///   - `on_added(relation, ref)` sees every new row.
///
/// With `unconditional` (the oblivious and Skolem chases) every trigger
/// fires and counts as a chase step. Otherwise `satisfied` runs per
/// trigger, and only the triggers that fire count.
///
/// With options.vector_batch > 0 the rows of vector_batch triggers are
/// built first and appended with one AddRows pass per relation, when the
/// probe is not needed: with `unconditional`, or with `num_fresh` 0, since a
/// conclusion without existentials is satisfied exactly when firing it adds
/// no row, which AddRows' dedup decides. Output, chase_steps and null
/// labels equal the per-trigger path's.
///
/// The max_new_facts budget is checked after each whole trigger, so a
/// kPartial stop never leaves a half-fired conclusion and overshoots by at
/// most one trigger's atoms. Returns true when every trigger was processed,
/// false when kPartial degradation stopped the chase here (the target then
/// holds the chase of a trigger-list prefix, a sound under-approximation).
template <typename Mint, typename Build, typename Satisfied, typename OnAdded>
Result<bool> FireTriggers(FireRun* run, const TriggerBatch& triggers,
                          const std::vector<RelationId>& relations,
                          bool unconditional, size_t num_fresh, Mint&& mint,
                          Build&& build, Satisfied&& satisfied,
                          OnAdded&& on_added) {
  const ExecutionOptions& options = run->options;
  Instance* const target = run->target;
  std::vector<Value> fresh(num_fresh);
  std::vector<Value> scratch;  // reused row buffer
  auto count_steps = [&](uint64_t n) {
    if (options.stats != nullptr) {
      options.stats->chase_steps.fetch_add(n, std::memory_order_relaxed);
    }
  };
  // An interrupt or budget stop: false under kPartial, else the error.
  auto stop = [&](Status status) -> Result<bool> {
    if (DegradeToPartial(options, status)) return false;
    return status;
  };
  auto over_budget = [&] {
    return PhaseExhausted(run->phase,
                          "exceeded max_new_facts = " +
                              std::to_string(options.max_new_facts));
  };
  // Fires one trigger atom by atom; true when it added a row.
  auto fire_one = [&](const Value* row) -> Result<bool> {
    mint(fresh.data());
    bool any_added = false;
    for (size_t i = 0; i < relations.size(); ++i) {
      MAPINV_RETURN_NOT_OK(build(i, row, fresh.data(), &scratch));
      MAPINV_ASSIGN_OR_RETURN(const bool added,
                              target->AddRow(relations[i], scratch));
      if (!added) continue;
      ++run->created;
      any_added = true;
      // AddRow appends, so the new row's dense ref is the last one.
      on_added(relations[i],
               static_cast<TupleRef>(target->NumRows(relations[i]) - 1));
    }
    return any_added;
  };

  const size_t batch = options.vector_batch;
  if (batch > 0 && (unconditional || num_fresh == 0)) {
    BulkFireScratch bulk = MakeBulkFireScratch(relations, target->schema());
    for (size_t base = 0; base < triggers.rows; base += batch) {
      const size_t count = std::min(batch, triggers.rows - base);
      // A stop precedes the batch's mutations: always a whole-batch prefix.
      if (Status poll = PollPhaseInterrupt(options, run->deadline, run->phase);
          !poll.ok()) {
        return stop(std::move(poll));
      }
      MAPINV_FAILPOINT(run->failpoint);
      if (run->created + count * relations.size() > options.max_new_facts) {
        // Near the budget edge, fire trigger by trigger so the stopping
        // trigger is exactly the per-trigger path's. Skipping the probe is
        // equivalent: a satisfied trigger's rows all dedup away, leaving
        // created and chase_steps untouched.
        for (size_t t = base; t < base + count; ++t) {
          MAPINV_ASSIGN_OR_RETURN(const bool added, fire_one(triggers.Row(t)));
          if (unconditional || added) count_steps(1);
          if (run->created > options.max_new_facts) return stop(over_budget());
        }
        continue;
      }
      bulk.BeginBatch(count);
      for (size_t t = 0; t < count; ++t) {
        const Value* row = triggers.Row(base + t);
        mint(fresh.data());
        for (size_t i = 0; i < relations.size(); ++i) {
          MAPINV_RETURN_NOT_OK(build(i, row, fresh.data(), &scratch));
          bulk.Append(bulk.atom_buf[i], static_cast<uint32_t>(t),
                      scratch.data());
        }
      }
      MAPINV_ASSIGN_OR_RETURN(const size_t inserted,
                              FlushBulkFire(target, &bulk, on_added));
      run->created += inserted;
      if (options.stats != nullptr) {
        options.stats->bulk_rows_appended.fetch_add(inserted,
                                                    std::memory_order_relaxed);
        uint64_t steps = count;
        if (!unconditional) {
          steps = 0;
          for (uint8_t f : bulk.fired) steps += f;
        }
        count_steps(steps);
      }
    }
    return true;
  }

  for (size_t t = 0; t < triggers.rows; ++t) {
    if (Status poll = PollPhaseInterrupt(options, run->deadline, run->phase);
        !poll.ok()) {
      return stop(std::move(poll));
    }
    MAPINV_FAILPOINT(run->failpoint);
    const Value* row = triggers.Row(t);
    if (!unconditional) {
      MAPINV_ASSIGN_OR_RETURN(const bool holds, satisfied(row));
      if (holds) continue;
    }
    count_steps(1);
    MAPINV_RETURN_NOT_OK(fire_one(row).status());
    if (run->created > options.max_new_facts) return stop(over_budget());
  }
  return true;
}

}  // namespace mapinv

#endif  // MAPINV_CHASE_FIRE_PLAN_H_
