#include "chase/chase_reverse.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>

#include "base/symbol_context.h"
#include "chase/fire_plan.h"
#include "engine/failpoint.h"
#include "engine/parallel_chase.h"
#include "engine/trace.h"
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

}  // namespace

Result<std::vector<Instance>> ChaseReverseWorlds(const ReverseMapping& mapping,
                                                 const Instance& input,
                                                 const ExecutionOptions& options) {
  if (!mapping.source->DisjointFrom(*mapping.target)) {
    return Status::Unsupported(
        "reverse chase requires disjoint premise/conclusion schemas");
  }
  ScopedTraceSpan span(options, "chase_reverse");
  MAPINV_FAILPOINT(fp_reverse_entry);
  ExecDeadline entry_deadline(options.deadline_ms);
  const ExecDeadline& deadline = CarriedDeadline(options, entry_deadline);
  SymbolContext& symbols = ResolveSymbols(options, input);
  HomSearch search(input);
  search.set_stats(options.stats);
  std::vector<WorldState> worlds;
  worlds.emplace_back(Instance(mapping.target), options.stats);
  size_t created = 0;
  // Checkpointed-job state (see src/job/job.h). The fingerprint binds the
  // job directory to these exact inputs; the cursor names the first
  // unprocessed (dependency, trigger) pair. Restored worlds come back
  // through the MAPINVSN snapshot codec, whose images are a pure function of
  // logical content — which, together with the restored null watermark, is
  // what makes a killed-and-resumed run byte-identical to an uninterrupted
  // one.
  std::optional<JobCheckpointer> job;
  size_t resume_dep = 0;
  uint64_t resume_trigger = 0;
  bool restored_complete = false;
  if (!options.checkpoint_dir.empty()) {
    const uint64_t fingerprint =
        JobFingerprint(JobKind::kReverseWorlds, mapping.ToString(),
                       input.ToString(), options.oblivious);
    MAPINV_ASSIGN_OR_RETURN(
        JobCheckpointer opened,
        JobCheckpointer::Open(options.checkpoint_dir, JobKind::kReverseWorlds,
                              fingerprint, options.resume));
    job.emplace(std::move(opened));
    if (job->resumed().has_value()) {
      const JobResumeState& state = *job->resumed();
      worlds.clear();
      for (const std::string& image : state.world_images) {
        MAPINV_ASSIGN_OR_RETURN(
            Instance world, Instance::LoadFromBytes(image.data(), image.size()));
        worlds.emplace_back(std::move(world), options.stats);
      }
      created = static_cast<size_t>(state.manifest.created);
      resume_dep = state.manifest.dep_index;
      resume_trigger = state.manifest.trigger_index;
      restored_complete = state.manifest.complete;
      // Fresh nulls must continue exactly where the killed run left off, or
      // the facts fired after the cursor would mint labels differing from
      // the uninterrupted run's.
      if (state.manifest.null_watermark > 0) {
        symbols.BumpNullPast(
            static_cast<uint32_t>(state.manifest.null_watermark - 1));
      }
      if (options.stats != nullptr) {
        options.stats->worlds_resumed.fetch_add(state.world_images.size(),
                                                std::memory_order_relaxed);
      }
      // An empty frontier is only ever committed complete (the
      // unsatisfiable outcome); honour it rather than chase from nothing.
      if (worlds.empty()) return std::vector<Instance>{};
    }
  }
  const size_t checkpoint_every = options.checkpoint_every == 0
                                      ? kDefaultCheckpointEvery
                                      : options.checkpoint_every;
  size_t since_commit = 0;
  auto commit_checkpoint = [&](size_t dep_index, uint64_t trigger_index,
                               bool complete) -> Status {
    if (!job.has_value()) return Status::OK();
    std::vector<std::string> images;
    images.reserve(worlds.size());
    for (const WorldState& world : worlds) {
      images.push_back(world.instance->SaveToBytes());
    }
    JobManifest manifest;
    manifest.complete = complete;
    manifest.dep_index = static_cast<uint32_t>(dep_index);
    manifest.trigger_index = trigger_index;
    manifest.created = created;
    manifest.null_watermark = symbols.NullWatermark();
    since_commit = 0;
    return job->Commit(std::move(manifest), images, options.stats);
  };
  std::vector<Value> fresh;
  std::vector<Value> scratch;
  // In kPartial mode exhaustion degrades at whole-trigger granularity: every
  // world finishes the current trigger before the run stops, so the returned
  // worlds are exactly the chase of a trigger-list prefix (no world has a
  // half-applied disjunct). Limit checks are deferred to the end of the
  // trigger for the same reason; the overshoot is bounded by one trigger's
  // fan-out (|worlds| x |applicable disjuncts|).
  bool cut_short = false;
  // A resumed run re-enters the loop at the checkpointed cursor; a completed
  // checkpoint skips it entirely (the restored worlds are the answer).
  for (size_t dep_index = restored_complete ? mapping.deps.size() : resume_dep;
       dep_index < mapping.deps.size(); ++dep_index) {
    const ReverseDependency& dep = mapping.deps[dep_index];
    HomConstraints constraints;
    constraints.constant_vars.insert(dep.constant_vars.begin(),
                                     dep.constant_vars.end());
    constraints.inequalities = dep.inequalities;
    // Compiled once per dependency: satisfaction plans and fire programs are
    // shared across all worlds and triggers (plans are instance-independent,
    // and every world has the same target schema).
    const std::vector<VarId> premise_vars = CollectDistinctVars(dep.premise);
    std::vector<VarId> trigger_vars = premise_vars;  // TriggerBatch columns
    std::sort(trigger_vars.begin(), trigger_vars.end());
    std::vector<DisjunctExec> disjunct_exec;
    disjunct_exec.reserve(dep.disjuncts.size());
    for (const ReverseDisjunct& d : dep.disjuncts) {
      MAPINV_ASSIGN_OR_RETURN(
          DisjunctExec exec,
          CompileDisjunct(d, premise_vars, trigger_vars, worlds.front(),
                          *mapping.target, options.oblivious));
      disjunct_exec.push_back(std::move(exec));
    }
    TriggerBatch triggers;
    {
      ScopedTraceSpan collect_span(options, "collect_triggers");
      Result<TriggerBatch> collected = CollectTriggers(
          search, input, dep.premise, constraints, options, deadline);
      if (!collected.ok()) {
        if (DegradeToPartial(options, collected.status())) break;
        return collected.status();
      }
      triggers = std::move(collected).ValueOrDie();
    }
    ScopedTraceSpan fire_span(options, "fire");
    std::vector<Value> fixed_values;  // ordered as the sat plan demands
    // Trigger collection is deterministic for a fixed input, so the resumed
    // run's trigger list matches the killed run's and the cursor index is
    // meaningful across processes.
    const size_t first_trigger =
        dep_index == resume_dep ? static_cast<size_t>(resume_trigger) : 0;
    for (size_t t = first_trigger; t < triggers.rows; ++t) {
      if (Status poll = PollPhaseInterrupt(options, deadline, "chase_reverse");
          !poll.ok()) {
        if (DegradeToPartial(options, poll)) {
          cut_short = true;
          break;
        }
        return poll;
      }
      MAPINV_FAILPOINT(fp_reverse_fire);
      const Value* row = triggers.Row(t);
      if (options.stats != nullptr) {
        options.stats->chase_steps.fetch_add(1, std::memory_order_relaxed);
      }
      // Disjuncts whose equalities are consistent with the trigger.
      std::vector<size_t> applicable;
      for (size_t di = 0; di < dep.disjuncts.size(); ++di) {
        if (EqualitiesHold(dep.disjuncts[di], triggers, row)) {
          applicable.push_back(di);
        }
      }
      std::vector<WorldState> next;
      for (WorldState& world : worlds) {
        if (applicable.empty()) continue;  // world dies
        if (!options.oblivious) {
          bool satisfied = false;
          for (size_t di : applicable) {
            const DisjunctExec& exec = disjunct_exec[di];
            fixed_values.clear();
            for (size_t col : exec.fixed_cols) {
              fixed_values.push_back(row[col]);
            }
            MAPINV_ASSIGN_OR_RETURN(
                bool sat, world.search->ExistsHomWithPlanValues(*exec.sat_plan,
                                                                fixed_values));
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
          MAPINV_RETURN_NOT_OK(FireDisjunct(disjunct_exec[di], row,
                                            fork.instance.get(), &created,
                                            symbols, &fresh, &scratch));
          next.push_back(std::move(fork));
        }
      }
      worlds = std::move(next);
      if (worlds.empty()) {  // unsatisfiable
        MAPINV_RETURN_NOT_OK(commit_checkpoint(dep_index, t + 1, true));
        return std::vector<Instance>{};
      }
      // Limit checks deferred to the end of the trigger so a partial stop
      // never leaves a world with a half-applied trigger.
      Status exhausted;
      if (created > options.max_new_facts) {
        exhausted =
            PhaseExhausted("chase_reverse",
                           "exceeded max_new_facts = " +
                               std::to_string(options.max_new_facts));
      } else if (worlds.size() > options.max_worlds) {
        exhausted = PhaseExhausted("chase_reverse",
                                   "exceeded max_worlds = " +
                                       std::to_string(options.max_worlds));
      }
      if (!exhausted.ok()) {
        if (DegradeToPartial(options, exhausted)) {
          cut_short = true;
          break;
        }
        return exhausted;
      }
      // The frontier is consistent exactly at trigger boundaries (no world
      // carries a half-applied disjunct here), so this is where the job
      // commits; the cursor points at the next unprocessed trigger.
      if (job.has_value() && ++since_commit >= checkpoint_every) {
        MAPINV_RETURN_NOT_OK(commit_checkpoint(dep_index, t + 1, false));
      }
    }
    if (cut_short) break;
  }
  // The final commit marks the job complete: a resume of a finished job
  // reloads these worlds without re-chasing anything. Partial (cut-short)
  // results commit as complete too — resuming reproduces the same sound
  // prefix deterministically.
  if (!restored_complete) {
    MAPINV_RETURN_NOT_OK(commit_checkpoint(mapping.deps.size(), 0, true));
  }
  std::vector<Instance> out;
  out.reserve(worlds.size());
  for (WorldState& world : worlds) out.push_back(std::move(*world.instance));
  if (options.stats != nullptr) {
    uint64_t bytes = 0;
    uint64_t resident = 0;
    for (const Instance& world : out) {
      bytes += world.ArenaBytes();
      resident += world.ResidentBytes();
    }
    options.stats->ObserveArenaBytes(bytes);
    options.stats->ObserveResidentBytes(resident);
  }
  return out;
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
