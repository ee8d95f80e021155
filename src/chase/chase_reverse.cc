#include "chase/chase_reverse.h"

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_set>

#include "base/symbol_context.h"
#include "chase/fire_plan.h"
#include "chase/world_chase.h"
#include "engine/failpoint.h"
#include "engine/parallel_chase.h"
#include "eval/hom.h"
#include "eval/hom_plan.h"
#include "job/job.h"

namespace mapinv {

namespace {

FailPoint fp_reverse_entry("chase_reverse/entry");
FailPoint fp_reverse_fire("chase_reverse/fire");
FailPoint fp_reverse_fork("chase_reverse/world_fork");

// True if every conclusion equality of the disjunct holds under the trigger
// row (equality endpoints are premise variables by validation, hence
// trigger columns).
bool EqualitiesHold(const ReverseDisjunct& disjunct, const TriggerBatch& batch,
                    const Value* row) {
  for (const VarPair& eq : disjunct.equalities) {
    if (row[batch.ColumnOf(eq.first)] != row[batch.ColumnOf(eq.second)]) {
      return false;
    }
  }
  return true;
}

// One chase world: a heap-stable instance plus a search over it. Forking a
// world is a copy-on-write snapshot — the fork shares every relation store
// (arena, dedup table, value index) with its parent until one of them
// writes, so linear lineages never copy tuples and branching copies only
// the relations a branch actually extends. The fresh HomSearch is free: the
// indexes it reads are owned by the (shared) instance stores.
struct WorldState {
  std::unique_ptr<Instance> instance;
  std::unique_ptr<HomSearch> search;
  ExecStats* stats = nullptr;

  WorldState(Instance inst, ExecStats* stats_sink)
      : instance(std::make_unique<Instance>(std::move(inst))),
        search(std::make_unique<HomSearch>(*instance)),
        stats(stats_sink) {
    search->set_stats(stats);
  }

  WorldState Fork() const {
    if (stats != nullptr) {
      stats->worlds_forked.fetch_add(1, std::memory_order_relaxed);
    }
    return WorldState(instance->Fork(), stats);
  }
};

// Per-disjunct execution state, compiled once per dependency and shared by
// every world and every trigger:
//   * shared_vars — the disjunct's variables also bound by the premise (the
//     fixed set of the satisfaction check),
//   * ex_vars     — the remaining disjunct variables, in first-occurrence
//     order (fresh nulls are drawn in exactly this order when firing),
//   * sat_plan    — the satisfaction-check join plan, compiled once and run
//     on any world via ExistsHomWithPlan (plans are instance-independent;
//     per-world plan caches would recompile it per fork),
//   * fixed_cols  — the sat plan's fixed variables as trigger columns,
//   * fire_atoms  — conclusion atoms with relations resolved to ids and
//     bound variables resolved to trigger columns.
struct DisjunctExec {
  std::vector<VarId> shared_vars;
  std::vector<VarId> ex_vars;
  std::shared_ptr<const HomPlan> sat_plan;
  std::vector<size_t> fixed_cols;
  std::vector<FireAtomCols> fire_atoms;
};

Result<DisjunctExec> CompileDisjunct(const ReverseDisjunct& disjunct,
                                     const std::vector<VarId>& premise_vars,
                                     const std::vector<VarId>& trigger_vars,
                                     const WorldState& seed_world,
                                     const Schema& target_schema,
                                     bool oblivious) {
  DisjunctExec exec;
  const std::unordered_set<VarId> premise_set(premise_vars.begin(),
                                              premise_vars.end());
  for (VarId v : CollectDistinctVars(disjunct.atoms)) {
    if (premise_set.contains(v)) {
      exec.shared_vars.push_back(v);
    } else {
      exec.ex_vars.push_back(v);
    }
  }
  if (!oblivious) {
    MAPINV_ASSIGN_OR_RETURN(
        exec.sat_plan,
        seed_world.search->GetPlanForVars(disjunct.atoms, HomConstraints{},
                                          exec.shared_vars));
    exec.fixed_cols.reserve(exec.sat_plan->fixed_vars.size());
    for (VarId v : exec.sat_plan->fixed_vars) {
      exec.fixed_cols.push_back(static_cast<size_t>(
          std::lower_bound(trigger_vars.begin(), trigger_vars.end(), v) -
          trigger_vars.begin()));
    }
  }
  MAPINV_ASSIGN_OR_RETURN(
      exec.fire_atoms,
      CompileFireAtomsCols(disjunct.atoms, target_schema, exec.ex_vars,
                           trigger_vars));
  return exec;
}

// Adds the instantiated disjunct atoms to `world`; existential variables get
// fresh nulls (in ex_vars order).
Status FireDisjunct(const DisjunctExec& exec, const Value* row,
                    Instance* world, size_t* created, SymbolContext& symbols,
                    std::vector<Value>* fresh, std::vector<Value>* scratch) {
  fresh->clear();
  for (size_t i = 0; i < exec.ex_vars.size(); ++i) {
    fresh->push_back(Value::FreshNull(symbols));
  }
  for (const FireAtomCols& fa : exec.fire_atoms) {
    BuildFireRowCols(fa, row, fresh->data(), scratch);
    MAPINV_ASSIGN_OR_RETURN(bool added, world->AddRow(fa.relation, *scratch));
    if (added) ++*created;
  }
  return Status::OK();
}

// The reverse chase as a ChaseWorlds kind (chase/world_chase.h): worlds are
// instances, checkpointed through the MAPINVSN snapshot codec, whose images
// are a pure function of logical content.
class ReverseWorlds {
 public:
  using Mapping = ReverseMapping;
  using World = WorldState;
  static constexpr const char* kPhase = "chase_reverse";
  static constexpr JobKind kJobKind = JobKind::kReverseWorlds;
  static constexpr FailPoint& kEntry = fp_reverse_entry;
  static constexpr FailPoint& kFire = fp_reverse_fire;

  ReverseWorlds(const ReverseMapping& mapping, const ExecutionOptions& options)
      : mapping_(mapping), options_(options) {}

  size_t NumDeps() const { return mapping_.deps.size(); }

  WorldState Seed() const {
    return WorldState(Instance(mapping_.target), options_.stats);
  }

  // Satisfaction plans and fire programs compile once per dependency and are
  // shared across all worlds and triggers (plans are instance-independent,
  // and every world has the same target schema).
  Status Compile(size_t dep_index, const WorldState& front) {
    dep_ = &mapping_.deps[dep_index];
    constraints_ = HomConstraints{};
    constraints_.constant_vars.insert(dep_->constant_vars.begin(),
                                      dep_->constant_vars.end());
    constraints_.inequalities = dep_->inequalities;
    const std::vector<VarId> premise_vars = CollectDistinctVars(dep_->premise);
    std::vector<VarId> trigger_vars = premise_vars;  // TriggerBatch columns
    std::sort(trigger_vars.begin(), trigger_vars.end());
    disjunct_exec_.clear();
    disjunct_exec_.reserve(dep_->disjuncts.size());
    for (const ReverseDisjunct& d : dep_->disjuncts) {
      MAPINV_ASSIGN_OR_RETURN(
          DisjunctExec exec,
          CompileDisjunct(d, premise_vars, trigger_vars, front,
                          *mapping_.target, options_.oblivious));
      disjunct_exec_.push_back(std::move(exec));
    }
    return Status::OK();
  }

  const std::vector<Atom>& Premise() const { return dep_->premise; }
  const HomConstraints& Constraints() const { return constraints_; }

  // A world whose conclusion already holds under the trigger survives as
  // is; any other forks once per applicable disjunct, and dies when none
  // applies.
  Status Expand(const TriggerBatch& triggers, const Value* row,
                std::vector<WorldState>* worlds, size_t* created,
                SymbolContext& symbols) {
    // Disjuncts whose equalities are consistent with the trigger.
    std::vector<size_t> applicable;
    for (size_t di = 0; di < dep_->disjuncts.size(); ++di) {
      if (EqualitiesHold(dep_->disjuncts[di], triggers, row)) {
        applicable.push_back(di);
      }
    }
    std::vector<WorldState> next;
    for (WorldState& world : *worlds) {
      if (applicable.empty()) continue;  // world dies
      if (!options_.oblivious) {
        bool satisfied = false;
        for (size_t di : applicable) {
          const DisjunctExec& exec = disjunct_exec_[di];
          fixed_values_.clear();
          for (size_t col : exec.fixed_cols) {
            fixed_values_.push_back(row[col]);
          }
          MAPINV_ASSIGN_OR_RETURN(
              bool sat, world.search->ExistsHomWithPlanValues(*exec.sat_plan,
                                                              fixed_values_));
          if (sat) {
            satisfied = true;
            break;
          }
        }
        if (satisfied) {
          next.push_back(std::move(world));
          continue;
        }
      }
      // The last applicable disjunct reuses the world in place; earlier
      // ones fork a snapshot (copy-on-write: only relations the branch
      // later writes get copied).
      for (size_t ai = 0; ai < applicable.size(); ++ai) {
        const size_t di = applicable[ai];
        if (ai + 1 != applicable.size()) MAPINV_FAILPOINT(fp_reverse_fork);
        WorldState fork = (ai + 1 == applicable.size())
                              ? std::move(world)
                              : world.Fork();
        MAPINV_RETURN_NOT_OK(FireDisjunct(disjunct_exec_[di], row,
                                          fork.instance.get(), created,
                                          symbols, &fresh_, &scratch_));
        next.push_back(std::move(fork));
      }
    }
    *worlds = std::move(next);
    return Status::OK();
  }

  std::string Save(const WorldState& world) const {
    return world.instance->SaveToBytes();
  }

  Result<WorldState> Load(const std::string& image) const {
    MAPINV_ASSIGN_OR_RETURN(
        Instance world, Instance::LoadFromBytes(image.data(), image.size()));
    return WorldState(std::move(world), options_.stats);
  }

  Result<std::vector<Instance>> Finish(std::vector<WorldState> worlds,
                                       SymbolContext&) const {
    std::vector<Instance> out;
    out.reserve(worlds.size());
    for (WorldState& world : worlds) out.push_back(std::move(*world.instance));
    return out;
  }

 private:
  const ReverseMapping& mapping_;
  const ExecutionOptions& options_;
  // The compiled dependency.
  const ReverseDependency* dep_ = nullptr;
  HomConstraints constraints_;
  std::vector<DisjunctExec> disjunct_exec_;
  // Reused across triggers.
  std::vector<Value> fixed_values_;  // ordered as the sat plan demands
  std::vector<Value> fresh_;
  std::vector<Value> scratch_;
};

}  // namespace

Result<std::vector<Instance>> ChaseReverseWorlds(const ReverseMapping& mapping,
                                                 const Instance& input,
                                                 const ExecutionOptions& options) {
  if (!mapping.source->DisjointFrom(*mapping.target)) {
    return Status::Unsupported(
        "reverse chase requires disjoint premise/conclusion schemas");
  }
  return ChaseWorlds<ReverseWorlds>(mapping, input, options);
}

Result<Instance> ChaseReverse(const ReverseMapping& mapping,
                              const Instance& input,
                              const ExecutionOptions& options) {
  for (const ReverseDependency& dep : mapping.deps) {
    if (dep.disjuncts.size() != 1) {
      return Status::Unsupported(
          "one-world reverse chase requires disjunction-free dependencies; "
          "use ChaseReverseWorlds");
    }
  }
  MAPINV_ASSIGN_OR_RETURN(std::vector<Instance> worlds,
                          ChaseReverseWorlds(mapping, input, options));
  if (worlds.empty()) {
    return Status::Malformed(
        "reverse dependencies are unsatisfiable on the given input "
        "(a conclusion equality failed for every trigger disjunct)");
  }
  return std::move(worlds.front());
}

Result<AnswerSet> CertainAnswersReverse(const ReverseMapping& mapping,
                                        const Instance& input,
                                        const ConjunctiveQuery& query,
                                        const ExecutionOptions& options) {
  MAPINV_ASSIGN_OR_RETURN(std::vector<Instance> worlds,
                          ChaseReverseWorlds(mapping, input, options));
  if (worlds.empty()) {
    return Status::Malformed(
        "no world: reverse dependencies unsatisfiable on input");
  }
  return CertainOverWorlds(worlds, query, options.stats);
}

}  // namespace mapinv
