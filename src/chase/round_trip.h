/// \file round_trip.h
/// \brief Round-trip data exchange: source → target → recovered source.
///
/// The paper's recovery notions are all stated through the composition
/// M ∘ M' (Definition 3.2): exchange I forward with M, bring it back with
/// M', and compare what queries can still see. These helpers compute the
/// *canonical* round trip — chase forward to the canonical universal
/// solution, chase backward with the inverse — and the certain answers of
/// source queries over the recovered worlds, which is how all recovery
/// checks in check/ are implemented.
///
/// Semantics note. The composition quantifies over *all* intermediate
/// solutions K, while these helpers chase only the canonical one — the
/// operational reading the paper itself uses (§5.2: the inverse "focuses on
/// this canonical target instance"). Because the inverse languages carry
/// constraints that are not preserved under homomorphisms (C(·), ≠,
/// inverse-function provenance), the canonical round trip can retain
/// slightly more than the full-composition certain answers on mappings
/// whose invented values can fold onto constants in non-canonical
/// solutions. The effect is one-sided and ordered: full-composition
/// certain ⊆ FO-pipeline round trip ⊆ SO-inverse round trip ⊆ Q(I)
/// (soundness always holds; the property sweeps assert the chain). On
/// single-atom-conclusion mappings the paths agree exactly.

#ifndef MAPINV_CHASE_ROUND_TRIP_H_
#define MAPINV_CHASE_ROUND_TRIP_H_

#include <vector>

#include "base/status.h"
#include "engine/execution_options.h"
#include "chase/chase_reverse.h"
#include "chase/chase_so.h"
#include "chase/chase_tgd.h"
#include "data/instance.h"
#include "eval/query_eval.h"
#include "logic/mapping.h"

namespace mapinv {

/// \brief Recovered source worlds of chase-back(chase-forward(source)) for a
/// tgd mapping and a reverse mapping. When `canonical` is non-null it
/// receives the forward chase's target, the instance the worlds were chased
/// back from, so a caller that shows the target chases forward only once.
Result<std::vector<Instance>> RoundTripWorlds(const TgdMapping& mapping,
                                              const ReverseMapping& reverse,
                                              const Instance& source,
                                              const ExecutionOptions& options = {},
                                              Instance* canonical = nullptr);

/// \brief Certain answers of a source query over the round-trip worlds,
/// i.e. certain_{M∘M'}(Q, I) computed canonically.
Result<AnswerSet> RoundTripCertain(const TgdMapping& mapping,
                                   const ReverseMapping& reverse,
                                   const Instance& source,
                                   const ConjunctiveQuery& query,
                                   const ExecutionOptions& options = {});

/// \brief Round trip through a plain SO-tgd and a PolySOInverse mapping.
Result<std::vector<Instance>> RoundTripWorldsSO(
    const SOTgdMapping& mapping, const SOInverseMapping& inverse,
    const Instance& source, const ExecutionOptions& options = {});

/// \brief Certain answers of a source query over the SO round-trip worlds.
Result<AnswerSet> RoundTripCertainSO(const SOTgdMapping& mapping,
                                     const SOInverseMapping& inverse,
                                     const Instance& source,
                                     const ConjunctiveQuery& query,
                                     const ExecutionOptions& options = {});

}  // namespace mapinv

#endif  // MAPINV_CHASE_ROUND_TRIP_H_
