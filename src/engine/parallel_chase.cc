#include "engine/parallel_chase.h"

#include <algorithm>
#include <atomic>
#include <functional>

#include "engine/failpoint.h"
#include "engine/thread_pool.h"
#include "engine/trace.h"
#include "eval/hom_plan.h"
#include "eval/vector_plan.h"

namespace mapinv {

namespace {

FailPoint fp_collect_entry("collect_triggers/entry");
FailPoint fp_collect_chunk("collect_triggers/chunk");

// Binds `atom`'s terms against `tuple` into `out` (starting empty), applying
// the same eager checks ForEachHom performs: constants must match, repeated
// variables must agree, constant-constrained variables reject nulls, and
// fully bound inequalities must hold. Returns false if the tuple is not a
// match for the atom. (The vectorized path runs the identical checks through
// the compiled SeedProgram; this is the scalar oracle.)
bool BindCandidate(const Atom& atom, RowView tuple,
                   const HomConstraints& constraints, Assignment* out) {
  for (size_t p = 0; p < atom.terms.size(); ++p) {
    const Term& t = atom.terms[p];
    if (t.is_constant()) {
      if (!(t.value() == tuple[p])) return false;
    } else {
      auto it = out->find(t.var());
      if (it == out->end()) {
        if (constraints.constant_vars.contains(t.var()) &&
            !tuple[p].is_constant()) {
          return false;
        }
        out->emplace(t.var(), tuple[p]);
      } else if (!(it->second == tuple[p])) {
        return false;
      }
    }
  }
  for (const VarPair& ne : constraints.inequalities) {
    auto a = out->find(ne.first);
    auto b = out->find(ne.second);
    if (a != out->end() && b != out->end() && a->second == b->second) {
      return false;
    }
  }
  return true;
}

// The variables the pinned atom binds — exactly the bound set BindCandidate
// assigns, hence the bound set the remaining-premise plan compiles against.
std::vector<VarId> PinnedVars(const Atom& atom) {
  std::vector<VarId> vars;
  for (const Term& t : atom.terms) {
    if (t.is_variable()) vars.push_back(t.var());
  }
  return vars;
}

// The distinct premise variables in ascending VarId order — the column order
// of every TriggerBatch built from `atoms`.
std::vector<VarId> TriggerColumns(const std::vector<Atom>& atoms) {
  std::vector<VarId> vars = CollectDistinctVars(atoms);
  std::sort(vars.begin(), vars.end());
  return vars;
}

// Maps each trigger column to the plan slot carrying its variable. Every
// premise variable has a slot: pinned variables live in the plan's fixed
// slots and the remaining atoms' variables are bound by steps.
Result<std::vector<uint16_t>> ColumnSlots(const HomPlan& plan,
                                          const std::vector<VarId>& vars) {
  std::vector<uint16_t> slots;
  slots.reserve(vars.size());
  for (VarId v : vars) {
    size_t s = 0;
    for (; s < plan.slot_vars.size(); ++s) {
      if (plan.slot_vars[s] == v) break;
    }
    if (s == plan.slot_vars.size()) {
      return Status::Internal("premise variable v" + std::to_string(v) +
                              " has no slot in the remaining-premise plan");
    }
    slots.push_back(static_cast<uint16_t>(s));
  }
  return slots;
}

// The shared chunked enumeration core: scans `pinned`'s candidate rows
// [begin_row, end_row) in insertion order, binds each against the pinned
// atom, runs the compiled remaining-premise plan, and appends every full
// trigger row passing `accept` (null = keep all; rows are in `out->vars`
// column order) to `out` in a deterministic order. One output slot per
// contiguous chunk, merged in chunk order, so the result is independent of
// scheduling and of the chunk count itself — threads == 1 executes the same
// chunks inline.
//
// With options.vector_batch > 0 each chunk block-scans its row range
// through the compiled seed checks and expands survivors through the
// selection-vector plan executor; a plan longer than
// options.vector_max_plan_steps falls back to the scalar path and bumps
// vector_plan_fallbacks. vector_batch 0 runs the scalar tuple-at-a-time
// oracle. Both paths fill `out` bit-identically.
Status ScanPinnedAtom(const HomSearch& search, const Instance& instance,
                      const Atom& pinned, RelationId rel, size_t begin_row,
                      size_t end_row, const HomPlan& remaining_plan,
                      const HomConstraints& constraints,
                      const ExecutionOptions& options,
                      const ExecDeadline& deadline,
                      const std::function<bool(const Value*)>& accept,
                      TriggerBatch* out) {
  const size_t n = end_row - begin_row;
  if (n == 0) return Status::OK();
  const size_t stride = out->vars.size();

  const bool vectorized =
      options.vector_batch > 0 &&
      remaining_plan.steps.size() <= options.vector_max_plan_steps;
  if (!vectorized && options.vector_batch > 0 && options.stats != nullptr) {
    options.stats->vector_plan_fallbacks.fetch_add(1,
                                                   std::memory_order_relaxed);
  }
  SeedProgram seed;
  std::vector<uint16_t> col_slots;  // trigger column -> plan slot
  if (vectorized) {
    MAPINV_ASSIGN_OR_RETURN(seed,
                            CompileSeedProgram(instance, pinned, remaining_plan));
    MAPINV_ASSIGN_OR_RETURN(col_slots, ColumnSlots(remaining_plan, out->vars));
  }

  int threads = options.threads < 1 ? 1 : options.threads;
  ThreadPool* pool = nullptr;
  if (threads > 1) {
    pool = options.pool != nullptr ? options.pool : &ThreadPool::Shared();
  }

  const size_t chunk_count =
      std::min(n, static_cast<size_t>(threads) * size_t{8});
  const size_t chunk_size = (n + chunk_count - 1) / chunk_count;
  std::vector<std::vector<Value>> slots(chunk_count);
  std::vector<size_t> slot_rows(chunk_count, 0);
  std::vector<Status> statuses(chunk_count, Status::OK());
  std::atomic<bool> abort{false};
  std::atomic<uint64_t> rejected{0};

  auto run_chunk = [&](size_t c) {
    const size_t begin = begin_row + c * chunk_size;
    const size_t end = std::min(end_row, begin + chunk_size);
    if (Status fp = fp_collect_chunk.Check(); !fp.ok()) {
      statuses[c] = std::move(fp);
      abort.store(true, std::memory_order_relaxed);
      return;
    }
    std::vector<Value>& slot = slots[c];
    size_t rows = 0;
    if (vectorized) {
      // Vectorized chunk: the seeded executor polls cancel/deadline once per
      // block and books its work into the vector_* counters.
      VectorRunStats vstats;
      std::vector<Value> rowbuf(stride);
      Status status = RunSeededPlanVectorized(
          instance, seed, begin, end, remaining_plan, options.vector_batch,
          [&](const Value* slot_row) {
            if (abort.load(std::memory_order_relaxed)) return false;
            for (size_t j = 0; j < stride; ++j) {
              rowbuf[j] = slot_row[col_slots[j]];
            }
            if (!accept || accept(rowbuf.data())) {
              slot.insert(slot.end(), rowbuf.begin(), rowbuf.end());
              ++rows;
            }
            return true;
          },
          &options, &deadline, "collect_triggers",
          options.stats != nullptr ? &vstats : nullptr);
      FlushVectorRunStats(vstats, options.stats);
      if (options.stats != nullptr) {
        // One search per seeded plan execution (the scalar branch books one
        // per surviving seed candidate instead — the counter means "plan
        // executions", so its magnitude is path-dependent by design).
        options.stats->hom_searches.fetch_add(1, std::memory_order_relaxed);
      }
      if (!status.ok()) {
        statuses[c] = std::move(status);
        abort.store(true, std::memory_order_relaxed);
      }
      slot_rows[c] = rows;
      return;
    }
    uint64_t local_rejected = 0;
    Assignment bindings;  // reused per candidate; clear() keeps its buckets
    std::vector<Value> rowbuf(stride);
    for (size_t i = begin;
         i < end && !abort.load(std::memory_order_relaxed); ++i) {
      // The cancel poll is a relaxed load; Expired() amortises its own clock
      // reads — so polling both every candidate is cheap.
      if (CancelRequested(options)) {
        statuses[c] = PhaseCancelled("collect_triggers");
        abort.store(true, std::memory_order_relaxed);
        break;
      }
      if (deadline.Expired()) {
        statuses[c] = PhaseExhausted(
            "collect_triggers", "deadline exceeded during trigger enumeration");
        abort.store(true, std::memory_order_relaxed);
        break;
      }
      bindings.clear();
      if (!BindCandidate(pinned, instance.Row(rel, static_cast<TupleRef>(i)),
                         constraints, &bindings)) {
        ++local_rejected;
        continue;
      }
      Status status = search.ForEachHomWithPlanScalar(
          remaining_plan, bindings, [&](const Assignment& h) {
            for (size_t j = 0; j < stride; ++j) {
              rowbuf[j] = h.at(out->vars[j]);
            }
            if (!accept || accept(rowbuf.data())) {
              slot.insert(slot.end(), rowbuf.begin(), rowbuf.end());
              ++rows;
            }
            return true;
          });
      if (!status.ok()) {
        statuses[c] = std::move(status);
        abort.store(true, std::memory_order_relaxed);
        break;
      }
    }
    if (local_rejected != 0) {
      rejected.fetch_add(local_rejected, std::memory_order_relaxed);
    }
    slot_rows[c] = rows;
  };

  if (pool == nullptr) {
    for (size_t c = 0; c < chunk_count; ++c) run_chunk(c);
  } else {
    pool->ParallelFor(chunk_count, run_chunk);
  }

  if (options.stats != nullptr) {
    options.stats->hom_backtracks.fetch_add(
        rejected.load(std::memory_order_relaxed), std::memory_order_relaxed);
  }
  for (Status& status : statuses) {
    MAPINV_RETURN_NOT_OK(status);
  }

  size_t total_values = out->values.size();
  for (const auto& slot : slots) total_values += slot.size();
  out->values.reserve(total_values);
  for (size_t c = 0; c < chunk_count; ++c) {
    out->values.insert(out->values.end(), slots[c].begin(), slots[c].end());
    out->rows += slot_rows[c];
  }
  return Status::OK();
}

}  // namespace

Result<TriggerBatch> CollectTriggers(
    const HomSearch& search, const Instance& instance,
    const std::vector<Atom>& premise, const HomConstraints& constraints,
    const ExecutionOptions& options, const ExecDeadline& deadline) {
  // Validates every premise atom and builds the indexes up front, so the
  // parallel section below only reads shared state.
  MAPINV_FAILPOINT(fp_collect_entry);
  MAPINV_RETURN_NOT_OK(search.Prewarm(premise));

  TriggerBatch batch;
  batch.vars = TriggerColumns(premise);

  if (premise.empty()) {
    // ForEachHom reports the empty assignment once (constraints over an
    // empty assignment hold trivially): one row with zero columns.
    batch.rows = 1;
    return batch;
  }

  // Initial atom: the plan compiler's first-step rule under the empty
  // assignment — most constant terms, ties to the smaller relation, then to
  // the earlier atom. Using the same rule keeps the chunked enumeration in
  // the exact order the compiled full-premise plan would produce.
  size_t best_index = 0;
  int best_bound = -1;
  size_t best_cardinality = 0;
  for (size_t i = 0; i < premise.size(); ++i) {
    int bound = 0;
    for (const Term& t : premise[i].terms) {
      if (t.is_constant()) ++bound;
    }
    MAPINV_ASSIGN_OR_RETURN(
        RelationId id,
        instance.schema().Require(RelationText(premise[i].relation)));
    const size_t cardinality = instance.NumRows(id);
    if (bound > best_bound ||
        (bound == best_bound && cardinality < best_cardinality)) {
      best_bound = bound;
      best_cardinality = cardinality;
      best_index = i;
    }
  }
  const Atom& first = premise[best_index];
  std::vector<Atom> remaining;
  remaining.reserve(premise.size() - 1);
  for (size_t i = 0; i < premise.size(); ++i) {
    if (i != best_index) remaining.push_back(premise[i]);
  }

  MAPINV_ASSIGN_OR_RETURN(
      RelationId rel, instance.schema().Require(RelationText(first.relation)));
  const size_t n = instance.NumRows(rel);
  if (n == 0) return batch;

  // Compile the remaining-premise plan once, before the fan-out, so worker
  // threads execute a shared immutable plan instead of racing through the
  // plan cache.
  MAPINV_ASSIGN_OR_RETURN(
      std::shared_ptr<const HomPlan> remaining_plan,
      search.GetPlanForVars(remaining, constraints, PinnedVars(first)));

  MAPINV_RETURN_NOT_OK(ScanPinnedAtom(search, instance, first, rel, 0, n,
                                      *remaining_plan, constraints, options,
                                      deadline, nullptr, &batch));
  return batch;
}

DeltaWatermark WatermarkOf(const Instance& instance) {
  DeltaWatermark watermark;
  watermark.rows.reserve(instance.schema().size());
  for (RelationId r = 0; r < instance.schema().size(); ++r) {
    watermark.rows.push_back(instance.NumRows(r));
  }
  return watermark;
}

Result<TriggerBatch> CollectTriggersDelta(
    const HomSearch& search, const Instance& instance,
    const std::vector<Atom>& premise, const HomConstraints& constraints,
    const DeltaWatermark& watermark, const ExecutionOptions& options,
    const ExecDeadline& deadline) {
  MAPINV_FAILPOINT(fp_collect_entry);
  MAPINV_RETURN_NOT_OK(search.Prewarm(premise));

  TriggerBatch batch;
  batch.vars = TriggerColumns(premise);

  // The empty premise's single trigger (the empty assignment) touches no
  // row, so it is never a *delta* trigger.
  if (premise.empty()) return batch;

  std::vector<RelationId> rels(premise.size());
  for (size_t i = 0; i < premise.size(); ++i) {
    MAPINV_ASSIGN_OR_RETURN(
        rels[i], instance.schema().Require(RelationText(premise[i].relation)));
  }

  // One image term of an earlier premise atom, pre-resolved for the accept
  // filter: a constant or a trigger-row column.
  struct ImgTerm {
    bool is_const;
    Value value;  // is_const
    size_t col = 0;
  };

  std::vector<Atom> remaining;
  for (size_t d = 0; d < premise.size(); ++d) {
    const RelationId rel = rels[d];
    const size_t n = instance.NumRows(rel);
    const size_t mark =
        rel < watermark.rows.size() ? std::min(watermark.rows[rel], n) : 0;
    if (mark >= n) continue;  // no new rows for this pin

    const Atom& pinned = premise[d];
    remaining.clear();
    for (size_t i = 0; i < premise.size(); ++i) {
      if (i != d) remaining.push_back(premise[i]);
    }
    MAPINV_ASSIGN_OR_RETURN(
        std::shared_ptr<const HomPlan> remaining_plan,
        search.GetPlanForVars(remaining, constraints, PinnedVars(pinned)));

    // Exact-partition filter: keep a candidate only when every *earlier*
    // premise atom's image row predates the watermark, so each delta trigger
    // is counted exactly once — at its first new-row position. (Later atoms
    // may bind old or new rows freely.)
    std::vector<std::vector<ImgTerm>> earlier(d);
    for (size_t e = 0; e < d; ++e) {
      earlier[e].reserve(premise[e].terms.size());
      for (const Term& t : premise[e].terms) {
        ImgTerm it;
        it.is_const = t.is_constant();
        if (it.is_const) {
          it.value = t.value();
        } else {
          it.col = batch.ColumnOf(t.var());
        }
        earlier[e].push_back(it);
      }
    }
    auto accept = [&](const Value* row) {
      std::vector<Value> image;
      for (size_t e = 0; e < d; ++e) {
        image.clear();
        for (const ImgTerm& it : earlier[e]) {
          image.push_back(it.is_const ? it.value : row[it.col]);
        }
        const std::optional<TupleRef> ref = instance.FindRow(rels[e], image);
        if (!ref.has_value() || watermark.IsNew(rels[e], *ref)) return false;
      }
      return true;
    };
    MAPINV_RETURN_NOT_OK(ScanPinnedAtom(search, instance, pinned, rel, mark,
                                        n, *remaining_plan, constraints,
                                        options, deadline, accept, &batch));
  }
  return batch;
}

SymbolContext& ResolveSymbols(const ExecutionOptions& options,
                              const Instance& input) {
  if (options.symbols == nullptr) return SymbolContext::Global();
  input.ForEachFact([&](RelationId, RowView row) {
    for (const Value& v : row) {
      if (v.is_null()) options.symbols->BumpNullPast(v.id());
    }
  });
  return *options.symbols;
}

namespace {

void BumpVarsPast(const std::vector<Atom>& atoms, SymbolContext* symbols) {
  std::vector<VarId> vars;
  for (const Atom& atom : atoms) atom.CollectVars(&vars);
  for (VarId v : vars) {
    if (std::optional<uint64_t> ordinal = GeneratedVarOrdinal(VarName(v))) {
      symbols->BumpVarPast(*ordinal);
    }
  }
}

}  // namespace

SymbolContext& ResolveSymbols(const ExecutionOptions& options,
                              const std::vector<Atom>& atoms) {
  if (options.symbols == nullptr) return SymbolContext::Global();
  BumpVarsPast(atoms, options.symbols);
  return *options.symbols;
}

SymbolContext& ResolveSymbols(const ExecutionOptions& options,
                              const SOTgd& so) {
  if (options.symbols == nullptr) return SymbolContext::Global();
  for (const SORule& rule : so.rules) {
    BumpVarsPast(rule.premise, options.symbols);
  }
  return *options.symbols;
}

}  // namespace mapinv
