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

// Per-disjunct execution state, compiled once per dependency and shared by
// every world and every trigger:
//   * ex_vars    — the disjunct variables the premise does not bind, in
//     first-occurrence order (fresh nulls are drawn in exactly this order
//     when firing). A disjunct without any is *ground*: the trigger fixes
//     every one of its rows.
//   * fire_atoms — conclusion atoms with relations resolved to ids and bound
//     variables resolved to trigger columns,
//   * rows       — one assembled row per fire atom. A ground disjunct's rows
//     are built once per trigger and serve every world: the world satisfies
//     the disjunct exactly when it contains them all, and firing adds them.
//     An existential disjunct rebuilds them per firing, around that
//     firing's fresh nulls.
//   * sat_plan   — an existential disjunct's satisfaction-check join plan
//     (standard chase only), compiled once and run on any world through a
//     stack HomSearch (plans are instance-independent; the indexes the
//     search reads are owned by the world's shared stores),
//   * fixed_cols — the sat plan's fixed variables as trigger columns.
struct DisjunctExec {
  std::vector<VarId> ex_vars;
  std::vector<FireAtomCols> fire_atoms;
  std::vector<std::vector<Value>> rows;
  std::shared_ptr<const HomPlan> sat_plan;
  std::vector<size_t> fixed_cols;

  bool ground() const { return ex_vars.empty(); }

  // `fresh` holds one firing's nulls, in ex_vars order (null when ground).
  void BuildRows(const Value* trigger_row, const Value* fresh) {
    for (size_t i = 0; i < fire_atoms.size(); ++i) {
      BuildFireRowCols(fire_atoms[i], trigger_row, fresh, &rows[i]);
    }
  }

  bool ContainedIn(const Instance& world) const {
    for (size_t i = 0; i < fire_atoms.size(); ++i) {
      if (!world.ContainsRow(fire_atoms[i].relation, rows[i])) return false;
    }
    return true;
  }
};

Result<DisjunctExec> CompileDisjunct(const ReverseDisjunct& disjunct,
                                     const std::vector<VarId>& premise_vars,
                                     const std::vector<VarId>& trigger_vars,
                                     const Instance& front,
                                     const Schema& target_schema,
                                     const ExecutionOptions& options) {
  DisjunctExec exec;
  const std::unordered_set<VarId> premise_set(premise_vars.begin(),
                                              premise_vars.end());
  std::vector<VarId> shared_vars;  // the sat plan's fixed set
  for (VarId v : CollectDistinctVars(disjunct.atoms)) {
    if (premise_set.contains(v)) {
      shared_vars.push_back(v);
    } else {
      exec.ex_vars.push_back(v);
    }
  }
  if (!options.oblivious && !exec.ground()) {
    HomSearch search(front);
    search.set_stats(options.stats);
    MAPINV_ASSIGN_OR_RETURN(
        exec.sat_plan,
        search.GetPlanForVars(disjunct.atoms, HomConstraints{}, shared_vars));
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
  if (!options.oblivious && exec.ground()) {
    // Checked by row lookup, a ground disjunct compiles no plan; reject the
    // arity mismatch a plan compile would.
    for (size_t i = 0; i < exec.fire_atoms.size(); ++i) {
      if (target_schema.arity(exec.fire_atoms[i].relation) !=
          disjunct.atoms[i].terms.size()) {
        return Status::Malformed("atom " + disjunct.atoms[i].ToString() +
                                 " arity mismatch with instance schema");
      }
    }
  }
  exec.rows.resize(exec.fire_atoms.size());
  return exec;
}

// The reverse chase as a ChaseWorlds kind (chase/world_chase.h): a world is
// an instance, and forking one is a copy-on-write snapshot — the fork shares
// every relation store (arena, dedup table, value index) with its parent
// until one of them writes, so linear lineages never copy tuples and
// branching copies only the relations a branch extends. Worlds are
// checkpointed through the MAPINVSN snapshot codec, whose images are a pure
// function of logical content.
class ReverseWorlds {
 public:
  using Mapping = ReverseMapping;
  using World = Instance;
  static constexpr const char* kPhase = "chase_reverse";
  static constexpr JobKind kJobKind = JobKind::kReverseWorlds;
  static constexpr FailPoint& kEntry = fp_reverse_entry;
  static constexpr FailPoint& kFire = fp_reverse_fire;

  ReverseWorlds(const ReverseMapping& mapping, const ExecutionOptions& options)
      : mapping_(mapping), options_(options) {}

  size_t NumDeps() const { return mapping_.deps.size(); }

  Instance Seed() const { return Instance(mapping_.target); }

  // Satisfaction plans and fire programs compile once per dependency and are
  // shared across all worlds and triggers (plans are instance-independent,
  // and every world has the same target schema).
  Status Compile(size_t dep_index, const Instance& front) {
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
                          *mapping_.target, options_));
      disjunct_exec_.push_back(std::move(exec));
    }
    return Status::OK();
  }

  const std::vector<Atom>& Premise() const { return dep_->premise; }
  const HomConstraints& Constraints() const { return constraints_; }

  // A world whose conclusion already holds under the trigger survives as
  // is; any other forks once per applicable disjunct. Every world dies when
  // no disjunct applies.
  Status Expand(const TriggerBatch& triggers, const Value* row,
                std::vector<Instance>* worlds, size_t* created,
                SymbolContext& symbols) {
    // Disjuncts whose equalities are consistent with the trigger; the
    // ground ones' rows are built here, once for every world.
    applicable_.clear();
    for (size_t di = 0; di < dep_->disjuncts.size(); ++di) {
      if (!EqualitiesHold(dep_->disjuncts[di], triggers, row)) continue;
      applicable_.push_back(di);
      DisjunctExec& exec = disjunct_exec_[di];
      if (exec.ground()) exec.BuildRows(row, nullptr);
    }
    if (applicable_.empty()) {
      worlds->clear();
      return Status::OK();
    }
    std::vector<Instance> next;
    for (Instance& world : *worlds) {
      if (!options_.oblivious) {
        MAPINV_ASSIGN_OR_RETURN(const bool satisfied, Satisfied(world, row));
        if (satisfied) {
          next.push_back(std::move(world));
          continue;
        }
      }
      // The last applicable disjunct reuses the world in place; earlier
      // ones fork a snapshot (copy-on-write: only relations the branch
      // later writes get copied).
      for (size_t ai = 0; ai < applicable_.size(); ++ai) {
        const bool last = ai + 1 == applicable_.size();
        if (!last) {
          MAPINV_FAILPOINT(fp_reverse_fork);
          if (options_.stats != nullptr) {
            options_.stats->worlds_forked.fetch_add(1,
                                                    std::memory_order_relaxed);
          }
        }
        Instance fork = last ? std::move(world) : world.Fork();
        MAPINV_RETURN_NOT_OK(Fire(disjunct_exec_[applicable_[ai]], row, &fork,
                                  created, symbols));
        next.push_back(std::move(fork));
      }
    }
    *worlds = std::move(next);
    return Status::OK();
  }

  std::string Save(const Instance& world) const {
    return world.SaveToBytes();
  }

  Result<Instance> Load(const std::string& image) const {
    return Instance::LoadFromBytes(image.data(), image.size());
  }

  Result<std::vector<Instance>> Finish(std::vector<Instance> worlds,
                                       SymbolContext&) const {
    return worlds;
  }

 private:
  // Whether an applicable disjunct already holds in `world` under the
  // trigger: a ground one by row lookup, an existential one by its sat plan.
  Result<bool> Satisfied(const Instance& world, const Value* row) {
    for (size_t di : applicable_) {
      const DisjunctExec& exec = disjunct_exec_[di];
      if (exec.ground()) {
        if (exec.ContainedIn(world)) return true;
        continue;
      }
      fixed_values_.clear();
      for (size_t col : exec.fixed_cols) fixed_values_.push_back(row[col]);
      HomSearch search(world);
      search.set_stats(options_.stats);
      MAPINV_ASSIGN_OR_RETURN(
          const bool sat,
          search.ExistsHomWithPlanValues(*exec.sat_plan, fixed_values_));
      if (sat) return true;
    }
    return false;
  }

  // Adds the disjunct's rows to `world`; an existential disjunct first draws
  // this firing's fresh nulls.
  Status Fire(DisjunctExec& exec, const Value* row, Instance* world,
              size_t* created, SymbolContext& symbols) {
    if (!exec.ground()) {
      fresh_.clear();
      for (size_t i = 0; i < exec.ex_vars.size(); ++i) {
        fresh_.push_back(Value::FreshNull(symbols));
      }
      exec.BuildRows(row, fresh_.data());
    }
    for (size_t i = 0; i < exec.fire_atoms.size(); ++i) {
      MAPINV_ASSIGN_OR_RETURN(
          const bool added,
          world->AddRow(exec.fire_atoms[i].relation, exec.rows[i]));
      if (added) ++*created;
    }
    return Status::OK();
  }

  const ReverseMapping& mapping_;
  const ExecutionOptions& options_;
  // The compiled dependency.
  const ReverseDependency* dep_ = nullptr;
  HomConstraints constraints_;
  std::vector<DisjunctExec> disjunct_exec_;
  // Reused across triggers.
  std::vector<size_t> applicable_;
  std::vector<Value> fixed_values_;  // ordered as the sat plan demands
  std::vector<Value> fresh_;
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
