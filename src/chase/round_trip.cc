#include "chase/round_trip.h"

#include <utility>

#include "engine/failpoint.h"
#include "engine/trace.h"

namespace mapinv {

namespace {
FailPoint fp_round_trip_entry("round_trip/entry");
FailPoint fp_round_trip_so_entry("round_trip_so/entry");
}  // namespace

Result<std::vector<Instance>> RoundTripWorlds(const TgdMapping& mapping,
                                              const ReverseMapping& reverse,
                                              const Instance& source,
                                              const ExecutionOptions& options,
                                              Instance* canonical) {
  // One budget for both chases: resolve the deadline here and carry it into
  // the stages, instead of letting each restart the full deadline_ms.
  // In kPartial mode a stage cut short degrades inside the stage itself; a
  // forward chase stopped early simply hands a smaller canonical instance to
  // the reverse chase, which then degrades in turn on the shared budget.
  ScopedTraceSpan span(options, "round_trip");
  MAPINV_FAILPOINT(fp_round_trip_entry);
  ExecDeadline entry_deadline(options.deadline_ms);
  ExecutionOptions inner = options;
  inner.deadline = &CarriedDeadline(options, entry_deadline);
  MAPINV_ASSIGN_OR_RETURN(Instance target, ChaseTgds(mapping, source, inner));
  MAPINV_ASSIGN_OR_RETURN(std::vector<Instance> worlds,
                          ChaseReverseWorlds(reverse, target, inner));
  if (canonical != nullptr) *canonical = std::move(target);
  return worlds;
}

Result<AnswerSet> RoundTripCertain(const TgdMapping& mapping,
                                   const ReverseMapping& reverse,
                                   const Instance& source,
                                   const ConjunctiveQuery& query,
                                   const ExecutionOptions& options) {
  MAPINV_ASSIGN_OR_RETURN(std::vector<Instance> worlds,
                          RoundTripWorlds(mapping, reverse, source, options));
  return CertainOverWorlds(worlds, query);
}

Result<std::vector<Instance>> RoundTripWorldsSO(const SOTgdMapping& mapping,
                                                const SOInverseMapping& inverse,
                                                const Instance& source,
                                                const ExecutionOptions& options) {
  ScopedTraceSpan span(options, "round_trip");
  MAPINV_FAILPOINT(fp_round_trip_so_entry);
  ExecDeadline entry_deadline(options.deadline_ms);
  ExecutionOptions inner = options;
  inner.deadline = &CarriedDeadline(options, entry_deadline);
  MAPINV_ASSIGN_OR_RETURN(Instance canonical,
                          ChaseSOTgd(mapping, source, inner));
  return ChaseSOInverseWorlds(inverse, canonical, inner);
}

Result<AnswerSet> RoundTripCertainSO(const SOTgdMapping& mapping,
                                     const SOInverseMapping& inverse,
                                     const Instance& source,
                                     const ConjunctiveQuery& query,
                                     const ExecutionOptions& options) {
  MAPINV_ASSIGN_OR_RETURN(
      std::vector<Instance> worlds,
      RoundTripWorldsSO(mapping, inverse, source, options));
  return CertainOverWorlds(worlds, query);
}

}  // namespace mapinv
