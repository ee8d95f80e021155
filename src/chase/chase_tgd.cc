#include "chase/chase_tgd.h"

#include <memory>
#include <vector>

#include "chase/chase_delta.h"
#include "chase/fire_plan.h"
#include "engine/failpoint.h"
#include "engine/parallel_chase.h"
#include "engine/trace.h"
#include "eval/hom.h"
#include "eval/hom_plan.h"

namespace mapinv {

namespace {

FailPoint fp_chase_entry("chase_tgds/entry");
FailPoint fp_chase_fire("chase_tgds/fire");
FailPoint fp_delta_entry("chase_delta/entry");
FailPoint fp_delta_fire("chase_delta/fire");

// The forward tgd chase behind both entry points: ChaseTgds (base == null;
// every trigger, from CollectTriggers) and ChaseDelta (the delta triggers
// past *base, from CollectTriggersDelta). The two differ only in that
// collector and in the failpoint, span and phase names they report under.
// Fires into *target; returns false when kPartial degradation stopped it.
Result<bool> ChaseTgdsInto(const TgdMapping& mapping, const Instance& source,
                           const DeltaWatermark* base, Instance* target,
                           ChaseProvenance* provenance,
                           const ExecutionOptions& options) {
  const bool delta = base != nullptr;
  const char* const phase = delta ? "chase_delta" : "chase_tgds";
  ScopedTraceSpan span(options, phase);
  MAPINV_FAILPOINT(delta ? fp_delta_entry : fp_chase_entry);
  ExecDeadline entry_deadline(options.deadline_ms);
  const ExecDeadline& deadline = CarriedDeadline(options, entry_deadline);
  // The fresh-null scope must clear the source's nulls and, for a delta,
  // the nulls the base chase already placed in the target: an engine-scoped
  // context that restarted at zero would otherwise mint labels colliding
  // with the maintained solution it is extending.
  SymbolContext& symbols = ResolveSymbols(options, source);
  if (delta && options.symbols != nullptr) {
    target->ForEachFact([&](RelationId, RowView row) {
      for (const Value& v : row) {
        if (v.is_null()) options.symbols->BumpNullPast(v.id());
      }
    });
  }
  if (options.memory_budget_bytes > 0) {
    target->SetMemoryBudget(options.memory_budget_bytes, options.spill_dir,
                            options.stats);
  }
  HomSearch search(source);
  search.set_stats(options.stats);
  HomSearch target_search(*target);
  target_search.set_stats(options.stats);
  FireRun run{options, deadline, phase,
              delta ? fp_delta_fire : fp_chase_fire, target};
  bool complete = true;
  for (size_t tgd_index = 0; complete && tgd_index < mapping.tgds.size();
       ++tgd_index) {
    const Tgd& tgd = mapping.tgds[tgd_index];
    // Collect triggers first: firing only adds target facts, so the trigger
    // set over the (source-only) premise is not affected by firing order,
    // and one pass per tgd is complete. Collection may fan out across
    // threads; the batch comes back in the canonical sequential order, and
    // firing is sequential, so fresh nulls are assigned deterministically.
    TriggerBatch triggers;
    {
      ScopedTraceSpan collect_span(
          options, delta ? "collect_triggers_delta" : "collect_triggers");
      Result<TriggerBatch> collected =
          delta ? CollectTriggersDelta(search, source, tgd.premise,
                                       HomConstraints{}, *base, options,
                                       deadline)
                : CollectTriggers(search, source, tgd.premise,
                                  HomConstraints{}, options, deadline);
      if (!collected.ok()) {
        if (DegradeToPartial(options, collected.status())) {
          complete = false;
          break;
        }
        return collected.status();
      }
      triggers = std::move(collected).ValueOrDie();
    }
    ScopedTraceSpan fire_span(options, "fire");
    const std::vector<VarId> existential_vars = tgd.ExistentialVars();
    MAPINV_ASSIGN_OR_RETURN(
        const std::vector<FireAtomCols> fire_atoms,
        CompileFireAtomsCols(tgd.conclusion, target->schema(),
                             existential_vars, triggers.vars));
    std::vector<RelationId> relations;
    relations.reserve(fire_atoms.size());
    for (const FireAtomCols& fa : fire_atoms) relations.push_back(fa.relation);
    // The satisfaction probe runs the conclusion plan compiled against the
    // frontier, with the frontier values read positionally from the
    // trigger row. It is compiled at the first probe, so a tgd that fires
    // in bulk or has no triggers compiles none.
    std::shared_ptr<const HomPlan> conclusion_plan;
    std::vector<size_t> frontier_cols;   // fixed_vars -> trigger columns
    std::vector<Value> frontier_values;  // ordered as conclusion_plan demands
    auto satisfied = [&](const Value* row) -> Result<bool> {
      if (conclusion_plan == nullptr) {
        MAPINV_ASSIGN_OR_RETURN(
            conclusion_plan,
            target_search.GetPlanForVars(tgd.conclusion, HomConstraints{},
                                         tgd.FrontierVars()));
        for (VarId v : conclusion_plan->fixed_vars) {
          frontier_cols.push_back(triggers.ColumnOf(v));
        }
      }
      frontier_values.clear();
      for (size_t col : frontier_cols) frontier_values.push_back(row[col]);
      return target_search.ExistsHomWithPlanValues(*conclusion_plan,
                                                   frontier_values);
    };
    MAPINV_ASSIGN_OR_RETURN(
        complete,
        FireTriggers(
            &run, triggers, relations, options.oblivious,
            existential_vars.size(),
            // Existential variables get fresh nulls per firing, in
            // declaration order; frontier variables keep their bindings.
            [&](Value* fresh) {
              for (size_t i = 0; i < existential_vars.size(); ++i) {
                fresh[i] = Value::FreshNull(symbols);
              }
            },
            [&](size_t i, const Value* row, const Value* fresh,
                std::vector<Value>* scratch) {
              BuildFireRowCols(fire_atoms[i], row, fresh, scratch);
              return Status::OK();
            },
            satisfied,
            [&](RelationId relation, TupleRef ref) {
              if (provenance != nullptr) {
                provenance->Record(relation, ref,
                                   static_cast<uint32_t>(tgd_index));
              }
            }));
  }
  if (options.stats != nullptr) {
    options.stats->ObserveArenaBytes(target->ArenaBytes());
    options.stats->ObserveResidentBytes(target->ResidentBytes());
  }
  return complete;
}

}  // namespace

Result<Instance> ChaseTgds(const TgdMapping& mapping, const Instance& source,
                           const ExecutionOptions& options) {
  Instance target(mapping.target);
  MAPINV_RETURN_NOT_OK(ChaseTgdsInto(mapping, source, /*base=*/nullptr,
                                     &target, /*provenance=*/nullptr, options)
                           .status());
  return target;
}

Result<bool> ChaseDelta(const TgdMapping& mapping, const Instance& source,
                        const DeltaWatermark& base, Instance* target,
                        ChaseProvenance* provenance,
                        const ExecutionOptions& options) {
  return ChaseTgdsInto(mapping, source, &base, target, provenance, options);
}

Result<AnswerSet> CertainAnswersTgd(const TgdMapping& mapping,
                                    const Instance& source,
                                    const ConjunctiveQuery& target_query,
                                    const ExecutionOptions& options) {
  MAPINV_ASSIGN_OR_RETURN(Instance canonical,
                          ChaseTgds(mapping, source, options));
  MAPINV_ASSIGN_OR_RETURN(AnswerSet answers,
                          EvaluateCq(target_query, canonical, options.stats));
  return answers.CertainOnly();
}

}  // namespace mapinv
