/// \file chase_so.h
/// \brief Data exchange with plain SO-tgds and with PolySOInverse output.
///
/// Forward direction (Section 5.1): exchanging with a plain SO-tgd under the
/// standard assumption that every function application denotes a fresh value
/// — implemented with a Skolem table assigning one labelled null per
/// (function, argument tuple). This yields the canonical target instance the
/// paper's Section 5.2 intuition refers to ("{T(1,a,a,b)}" for source
/// {R(1,2,3)} and rule (9)).
///
/// Reverse direction (Section 5.2): the inverse language existentially
/// quantifies the inverse functions f₁,...,f_k,f★, so chasing it means
/// *choosing* an interpretation. We maintain a term store: a union-find over
/// nodes standing for input values and for applications f_j(v) of inverse
/// functions to input values. Conclusion equalities merge classes;
/// inequalities and the at-most-one-value-per-class invariant rule out
/// inconsistent disjuncts; disjunctions fork worlds. At the end, each class
/// materialises to its unique value if it has one and to a fresh labelled
/// null otherwise.

#ifndef MAPINV_CHASE_CHASE_SO_H_
#define MAPINV_CHASE_CHASE_SO_H_

#include <vector>

#include "base/status.h"
#include "engine/execution_options.h"
#include "data/instance.h"
#include "logic/mapping.h"

namespace mapinv {

/// \brief Chases `source` with a plain SO-tgd; Skolem semantics (one fresh
/// null per distinct function application).
Result<Instance> ChaseSOTgd(const SOTgdMapping& mapping, const Instance& source,
                            const ExecutionOptions& options = {});

/// \brief Chases `input` (over the original target schema, nulls allowed)
/// with a PolySOInverse mapping; returns the recovered source worlds.
/// An empty vector means every branch was inconsistent.
Result<std::vector<Instance>> ChaseSOInverseWorlds(
    const SOInverseMapping& mapping, const Instance& input,
    const ExecutionOptions& options = {});

}  // namespace mapinv

#endif  // MAPINV_CHASE_CHASE_SO_H_
