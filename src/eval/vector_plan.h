/// \file vector_plan.h
/// \brief Batch-at-a-time execution of compiled homomorphism plans for the
/// chase's premise scans: block scans over the columnar arenas with
/// selection-vector compaction.
///
/// Trigger collection (CollectTriggers / CollectTriggersDelta, see
/// engine/parallel_chase.h) is the one caller, at every plan width. Every
/// other search (ForEachHom, the Exists* probes) runs the scalar runner in
/// hom.cc, which walks the same compiled join order one candidate tuple at a
/// time and reaches a first match without cascading a block through every
/// step. This file runs a plan batch-at-a-time:
///
///   * candidate rows are taken in fixed-size blocks (ExecutionOptions::
///     vector_batch, default 1024; 0 runs one-row blocks) — from the pinned
///     relation's arena slice for the chase's chunked premise scan, or from
///     the step's smallest index bucket (intersected with the second-smallest
///     by SelectCandidates, the helper the scalar runner calls too) during
///     join expansion;
///   * each micro-op becomes one tight loop over the block's selection
///     vector of surviving candidate refs: constant and inequality checks
///     compare one arena column against one broadcast value (or a second
///     column of the same row for same-step references), compacting the
///     selection in place;
///   * survivors are materialised as rows of a slot *matrix* (stride =
///     plan.num_slots) rather than hash maps; child matrices flush through
///     the remaining steps whenever they reach the batch size.
///
/// Determinism contract: block boundaries are invisible in the output. Every
/// step's candidates ascend by tuple insertion index (index buckets are
/// ascending, blocks partition them in order, and compaction is stable), and
/// a flushed child block is driven to completion before its parents produce
/// more children — so matches are emitted in exactly the scalar runner's
/// depth-first order, for every batch size. tests/vector_plan_test.cc pins
/// this against ForEachHom and the per-candidate collection oracle
/// ReferenceCollectTriggers (tests/hom_oracles.h).
///
/// Stats: this executor books its work into the vector_* counters of
/// ExecStats (via VectorRunStats) and the scalar runner into hom_backtracks /
/// hom_bucket_candidates / hom_slot_bindings, so each counter family
/// describes exactly the executor that bumped it. Both book hom_searches once
/// per plan execution.

#ifndef MAPINV_EVAL_VECTOR_PLAN_H_
#define MAPINV_EVAL_VECTOR_PLAN_H_

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "data/instance.h"
#include "logic/cq.h"

namespace mapinv {

class ExecDeadline;
struct ExecutionOptions;
struct HomPlan;

/// Counters accumulated by one vectorized run; the caller flushes them into
/// ExecStats (vector_blocks_scanned / vector_rows_scanned /
/// vector_rows_selected / index_catchup_rows) once per run or chunk.
struct VectorRunStats {
  uint64_t blocks_scanned = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_selected = 0;
  uint64_t index_catchup_rows = 0;
};

struct ExecStats;

/// Accumulates one run's counters into the engine-wide sink (atomic adds;
/// null `stats` is a no-op).
void FlushVectorRunStats(const VectorRunStats& v, ExecStats* stats);

/// \brief Per-row checks and slot writes compiled from a pinned premise atom,
/// for seeding a plan whose bound variables are the atom's variables.
///
/// The eager checks on a candidate row of the pinned relation: constant
/// terms must match, repeated variables must agree, constant-constrained
/// variables reject nulls, and inequalities between two pinned variables
/// must hold (the latter two lowered from the plan's init checks, which cover
/// the same conditions on the fixed slots). All checks are row-local column
/// compares, so a whole arena block runs through them selection-vector
/// style.
struct SeedProgram {
  RelationId relation = 0;
  uint32_t arity = 0;
  struct ConstCheck {
    uint32_t pos;
    Value value;
  };
  /// Repeated variable: tuple[pos] must equal tuple[first_pos].
  struct PosEq {
    uint32_t pos;
    uint32_t first_pos;
  };
  struct MustConst {
    uint32_t pos;
  };
  /// Init inequality between two pinned variables, lowered to row positions.
  struct PosNe {
    uint32_t pos_a;
    uint32_t pos_b;
  };
  /// Fixed-slot initialisation: plan slot `slot` takes tuple[pos].
  struct Bind {
    uint16_t slot;
    uint32_t pos;
  };
  std::vector<ConstCheck> const_checks;
  std::vector<PosEq> pos_eqs;
  std::vector<MustConst> must_consts;
  std::vector<PosNe> pos_nes;
  std::vector<Bind> binds;
};

/// Compiles the seed program for scanning `pinned` rows into `plan`, which
/// must have been compiled with bound variables = `pinned`'s variable set
/// (the chase's remaining-premise plan). Fails like ForEachHom on unknown
/// relations, arity mismatches, or function terms.
Result<SeedProgram> CompileSeedProgram(const Instance& instance,
                                       const Atom& pinned,
                                       const HomPlan& plan);

/// Executes `plan` batch-at-a-time for the chase's chunked premise scan:
/// rows [begin_row, end_row) of `seed.relation` run through the seed checks
/// in blocks of `batch` rows (0 runs one-row blocks); each surviving row
/// initialises `plan`'s fixed slots and the plan expands it through the
/// remaining premise atoms. For every homomorphism, `emit` receives the full
/// slot row — `row[s]` is the value of `plan.slot_vars[s]`, valid only during
/// the call; returning false stops the enumeration. The slot row covers
/// every premise variable (pinned variables live in the plan's fixed slots),
/// and matches arrive in exactly the scalar runner's order. Polls `options`'
/// cancel token and `deadline` once per block, failing with
/// PhaseCancelled/PhaseExhausted under `phase`.
Status RunSeededPlanVectorized(const Instance& instance,
                               const SeedProgram& seed, size_t begin_row,
                               size_t end_row, const HomPlan& plan,
                               size_t batch,
                               const std::function<bool(const Value*)>& emit,
                               const ExecutionOptions& options,
                               const ExecDeadline& deadline,
                               std::string_view phase, VectorRunStats* vstats);

}  // namespace mapinv

#endif  // MAPINV_EVAL_VECTOR_PLAN_H_
