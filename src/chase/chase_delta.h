/// \file chase_delta.h
/// \brief Incremental chase: delta-driven maintenance of a chased solution.
///
/// Source-to-target tgds never consume target facts, so the chase is
/// monotone in the source: appending rows to an already-chased source can
/// only *add* triggers, never retract or re-derive existing ones. ChaseDelta
/// exploits this. Given a target J = chase(M, I) and an extension I' ⊇ I
/// (rows appended past a DeltaWatermark taken over I), it collects only the
/// *delta triggers* — premise homomorphisms into I' touching at least one
/// appended row (CollectTriggersDelta) — and fires them into J in place.
/// The result equals chase(M, I') up to renaming of labelled nulls, because
/// any trigger order yields hom-equivalent canonical solutions; tests pin
/// the equivalence with hom-multiset oracles over every generated family.
///
/// Cost is driven by |delta|, not |I'|: each delta trigger pins one premise
/// atom to the appended slice, so an append of k rows into an n-row source
/// costs O(k · join-width) instead of the O(n · join-width) full re-chase
/// (bench/bench_chase_delta.cc measures the gap).
///
/// Every fired tuple's producing tgd is recorded in a ChaseProvenance side
/// table — the bookkeeping a future DRed-style deletion path needs to find
/// the tuples a retracted source row may have supported.

#ifndef MAPINV_CHASE_CHASE_DELTA_H_
#define MAPINV_CHASE_CHASE_DELTA_H_

#include "base/status.h"
#include "chase/provenance.h"
#include "data/instance.h"
#include "engine/execution_options.h"
#include "engine/parallel_chase.h"
#include "logic/mapping.h"

namespace mapinv {

/// \brief Fires the delta triggers of `mapping` over `source` (relative to
/// `base`, the watermark taken before the rows being absorbed were appended)
/// into `target`, which must hold the chase result over the pre-append
/// source. Returns true when every delta trigger was processed; false when
/// kPartial degradation stopped early (the target then holds a sound prefix
/// extension — callers deciding whether to advance their watermark should
/// treat false as "retry the whole delta later").
///
/// `provenance` (may be null) receives the producing tgd index of every row
/// fired. ChaseDelta and ChaseTgds are one driver (chase_tgd.cc) that
/// differ only in the trigger collector, so satisfaction checks, fresh-null
/// assignment, limits and degradation are ChaseTgds': with
/// options.oblivious every delta trigger fires; otherwise a trigger whose
/// conclusion is already satisfied in the growing target is skipped.
/// Deterministic for a fixed (source, base, target) input, independent of
/// thread count.
Result<bool> ChaseDelta(const TgdMapping& mapping, const Instance& source,
                        const DeltaWatermark& base, Instance* target,
                        ChaseProvenance* provenance,
                        const ExecutionOptions& options = {});

}  // namespace mapinv

#endif  // MAPINV_CHASE_CHASE_DELTA_H_
