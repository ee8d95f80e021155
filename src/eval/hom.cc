#include "eval/hom.h"

#include <algorithm>
#include <string>

#include "engine/execution_options.h"
#include "eval/hom_plan.h"

namespace mapinv {

namespace {

// Smallest-bucket scans below this size are not worth intersecting with the
// second-smallest bucket; the per-candidate slot checks are cheaper than the
// merge.
constexpr size_t kIntersectMinBucket = 32;

}  // namespace

const RelationIndex& HomSearch::IndexFor(RelationId relation) const {
  size_t catchup = 0;
  const RelationIndex& idx = instance_.IndexFor(relation, &catchup);
  if (stats_ != nullptr && catchup > 0) {
    stats_->index_catchup_rows.fetch_add(catchup, std::memory_order_relaxed);
  }
  return idx;
}

Result<std::shared_ptr<const HomPlan>> HomSearch::GetPlan(
    const std::vector<Atom>& atoms, const HomConstraints& constraints,
    const Assignment& fixed) const {
  std::vector<VarId> bound_vars;
  bound_vars.reserve(fixed.size());
  for (const auto& [v, unused] : fixed) bound_vars.push_back(v);
  return GetPlanForVars(atoms, constraints, std::move(bound_vars));
}

Result<std::shared_ptr<const HomPlan>> HomSearch::GetPlanForVars(
    const std::vector<Atom>& atoms, const HomConstraints& constraints,
    std::vector<VarId> bound_vars) const {
  std::sort(bound_vars.begin(), bound_vars.end());
  bound_vars.erase(std::unique(bound_vars.begin(), bound_vars.end()),
                   bound_vars.end());
  HomPlanKey key = BuildHomPlanKey(atoms, constraints, bound_vars);
  {
    std::lock_guard<std::mutex> lock(plans_mutex_);
    auto it = plans_.find(key.hash);
    if (it != plans_.end()) {
      for (const std::shared_ptr<const HomPlan>& p : it->second) {
        if (p->key == key) return p;
      }
    }
  }
  MAPINV_ASSIGN_OR_RETURN(
      HomPlan plan, CompileHomPlan(instance_, atoms, constraints, bound_vars));
  plan.key = std::move(key);
  auto shared = std::make_shared<const HomPlan>(std::move(plan));
  if (stats_ != nullptr) {
    stats_->hom_plans_compiled.fetch_add(1, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(plans_mutex_);
  auto& bucket = plans_[shared->key.hash];
  for (const std::shared_ptr<const HomPlan>& p : bucket) {
    if (p->key == shared->key) return p;  // another thread compiled it first
  }
  bucket.push_back(shared);
  return shared;
}

Status HomSearch::ForEachHom(
    const std::vector<Atom>& atoms, const HomConstraints& constraints,
    const Assignment& fixed,
    const std::function<bool(const Assignment&)>& callback) const {
  MAPINV_ASSIGN_OR_RETURN(std::shared_ptr<const HomPlan> plan,
                          GetPlan(atoms, constraints, fixed));
  return ForEachHomWithPlan(*plan, fixed, callback);
}

namespace {

// The empty assignment handed to the emit path when RunPlan executes in
// positional-values mode (exists mode never emits, so it is never read).
const Assignment kNoFixed;

}  // namespace

Status HomSearch::ForEachHomWithPlan(
    const HomPlan& plan, const Assignment& fixed,
    const std::function<bool(const Assignment&)>& callback) const {
  return RunPlan(plan, &fixed, nullptr, &callback, nullptr);
}

Result<bool> HomSearch::ExistsHomWithPlan(const HomPlan& plan,
                                          const Assignment& fixed) const {
  bool found = false;
  MAPINV_RETURN_NOT_OK(RunPlan(plan, &fixed, nullptr, nullptr, &found));
  return found;
}

Result<bool> HomSearch::ExistsHomWithPlanValues(
    const HomPlan& plan, const std::vector<Value>& fixed_values) const {
  if (fixed_values.size() != plan.fixed_vars.size()) {
    return Status::InvalidArgument(
        "fixed values count " + std::to_string(fixed_values.size()) +
        " does not match the plan's bound-variable count " +
        std::to_string(plan.fixed_vars.size()));
  }
  bool found = false;
  MAPINV_RETURN_NOT_OK(
      RunPlan(plan, nullptr, fixed_values.data(), nullptr, &found));
  return found;
}

Status HomSearch::RunPlan(
    const HomPlan& plan, const Assignment* fixed, const Value* fixed_values,
    const std::function<bool(const Assignment&)>* callback,
    bool* found) const {
  // Resolve per-step arenas and indexes up front; IndexFor also catches the
  // index up if the instance grew since the last call. The index lives in
  // the relation's (shared_ptr-held) store, so the references stay valid
  // across the later IndexFor calls of this loop.
  //
  // All per-call state (step contexts, slots, intersection scratch) lives in
  // stack buffers up to a size that covers every realistic plan: this runner
  // executes once per chase trigger, and heap-allocating three vectors per
  // existence check dominated small-plan run time.
  struct StepCtx {
    Instance::ArenaView view;  // segment-aware row accessor
    uint32_t arity;
    size_t rows;
    const std::vector<PositionIndex>* positions;
  };
  constexpr size_t kMaxStackSteps = 16;
  constexpr size_t kMaxStackSlots = 64;
  const size_t num_steps = plan.steps.size();
  StepCtx ctx_buf[kMaxStackSteps];
  std::vector<StepCtx> ctx_heap;
  StepCtx* ctx = ctx_buf;
  if (num_steps > kMaxStackSteps) {
    ctx_heap.resize(num_steps);
    ctx = ctx_heap.data();
  }
  for (size_t i = 0; i < num_steps; ++i) {
    const RelationId rel = plan.steps[i].relation;
    const RelationIndex& idx = IndexFor(rel);
    ctx[i].positions = &idx.positions;
    ctx[i].view = instance_.Arena(rel);
    ctx[i].arity = instance_.schema().arity(rel);
    ctx[i].rows = instance_.NumRows(rel);
  }

  Value slots_buf[kMaxStackSlots];
  std::vector<Value> slots_heap;
  Value* slots = slots_buf;
  if (plan.num_slots > kMaxStackSlots) {
    slots_heap.resize(plan.num_slots);
    slots = slots_heap.data();
  }
  if (fixed_values != nullptr) {
    for (size_t i = 0; i < plan.fixed_slots.size(); ++i) {
      slots[plan.fixed_slots[i]] = fixed_values[i];
    }
  } else {
    for (size_t i = 0; i < plan.fixed_vars.size(); ++i) {
      auto it = fixed->find(plan.fixed_vars[i]);
      if (it == fixed->end()) {
        return Status::InvalidArgument(
            "fixed assignment is missing variable v" +
            std::to_string(plan.fixed_vars[i]) +
            " that the plan was compiled with");
      }
      slots[plan.fixed_slots[i]] = it->second;
    }
  }

  uint64_t rejected = 0;
  uint64_t candidates = 0;
  uint64_t bindings = 0;

  bool init_ok = true;
  for (uint16_t s : plan.init_constant_slots) {
    if (!slots[s].is_constant()) init_ok = false;
  }
  for (const auto& [sa, sb] : plan.init_inequalities) {
    if (slots[sa] == slots[sb]) init_ok = false;
  }

  if (init_ok) {
    // Backtracking over the compiled order. With a static join order there
    // is no unbinding: deeper steps only read statically-known slots, and
    // re-entering a step overwrites its bind slots before they are read.
    struct Executor {
      const HomPlan& plan;
      const StepCtx* ctx;
      Value* slots;
      const Assignment& fixed;
      const std::function<bool(const Assignment&)>* callback;  // null: exists
      bool* found;                                             // exists mode
      std::vector<uint32_t>* scratch;
      // The callback assignment is built lazily at the first match, so a
      // search with no matches (and every exists-only search) never pays the
      // hash-map copy of `fixed`.
      Assignment out;
      bool out_ready = false;
      uint64_t rejected = 0;
      uint64_t candidates = 0;
      uint64_t bindings = 0;

      // Returns false to stop the whole enumeration.
      bool Run(size_t si) {
        if (si == plan.steps.size()) {
          if (callback == nullptr) {
            *found = true;
            return false;  // first match decides the existence check
          }
          if (!out_ready) {
            out = fixed;
            out_ready = true;
          }
          for (size_t k = 0; k < plan.emit_slots.size(); ++k) {
            out.insert_or_assign(plan.emit_vars[k], slots[plan.emit_slots[k]]);
          }
          return (*callback)(out);
        }
        const HomPlan::Step& step = plan.steps[si];
        const StepCtx& sc = ctx[si];

        // Candidate tuples: smallest index bucket over the bound positions,
        // intersected with the second-smallest when the smallest is still
        // large; full scan when nothing is bound. All buckets hold ascending
        // tuple indexes, so the candidate order (and hence the enumeration
        // order) does not depend on which bucket wins.
        const std::vector<uint32_t>* bucket = nullptr;
        if (!step.bound_positions.empty()) {
          const std::vector<uint32_t>* smallest = nullptr;
          const std::vector<uint32_t>* second = nullptr;
          for (const HomPlan::BoundPos& bp : step.bound_positions) {
            const Value v = bp.is_const ? bp.value : slots[bp.slot];
            const auto& buckets = (*sc.positions)[bp.pos].buckets;
            auto it = buckets.find(v);
            if (it == buckets.end()) return true;  // no candidates at all
            const std::vector<uint32_t>* b = &it->second;
            if (smallest == nullptr || b->size() < smallest->size()) {
              second = smallest;
              smallest = b;
            } else if (second == nullptr || b->size() < second->size()) {
              second = b;
            }
          }
          if (second != nullptr && smallest->size() > kIntersectMinBucket) {
            std::vector<uint32_t>& buf = scratch[si];
            buf.clear();
            std::set_intersection(smallest->begin(), smallest->end(),
                                  second->begin(), second->end(),
                                  std::back_inserter(buf));
            bucket = &buf;
          } else {
            bucket = smallest;
          }
        }

        const size_t n = bucket != nullptr ? bucket->size() : sc.rows;
        for (size_t k = 0; k < n; ++k) {
          const uint32_t ti =
              bucket != nullptr ? (*bucket)[k] : static_cast<uint32_t>(k);
          ++candidates;
          const Value* tuple = sc.view.row(ti);
          bool ok = true;
          for (const HomPlan::Op& op : step.ops) {
            switch (op.kind) {
              case HomPlan::Op::Kind::kCheckConst:
                ok = (op.value == tuple[op.pos]);
                break;
              case HomPlan::Op::Kind::kCheckSlot:
                ok = (slots[op.slot] == tuple[op.pos]);
                break;
              case HomPlan::Op::Kind::kBind: {
                const Value v = tuple[op.pos];
                if (op.must_be_constant && !v.is_constant()) {
                  ok = false;
                  break;
                }
                slots[op.slot] = v;
                ++bindings;
                for (uint16_t other : op.distinct_from) {
                  if (slots[other] == v) {
                    ok = false;
                    break;
                  }
                }
                break;
              }
            }
            if (!ok) break;
          }
          if (!ok) {
            ++rejected;
            continue;
          }
          if (!Run(si + 1)) return false;
        }
        return true;
      }
    };

    std::vector<uint32_t> scratch_buf[kMaxStackSteps];
    std::vector<std::vector<uint32_t>> scratch_heap;
    std::vector<uint32_t>* scratch = scratch_buf;
    if (num_steps > kMaxStackSteps) {
      scratch_heap.resize(num_steps);
      scratch = scratch_heap.data();
    }
    Executor exec{plan,     ctx,   slots,
                  fixed != nullptr ? *fixed : kNoFixed,
                  callback, found, scratch};
    exec.Run(0);
    rejected = exec.rejected;
    candidates = exec.candidates;
    bindings = exec.bindings;
  }

  if (stats_ != nullptr) {
    stats_->hom_searches.fetch_add(1, std::memory_order_relaxed);
    stats_->hom_backtracks.fetch_add(rejected, std::memory_order_relaxed);
    stats_->hom_bucket_candidates.fetch_add(candidates,
                                            std::memory_order_relaxed);
    stats_->hom_slot_bindings.fetch_add(bindings, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status HomSearch::Prewarm(const std::vector<Atom>& atoms) const {
  for (const Atom& a : atoms) {
    MAPINV_ASSIGN_OR_RETURN(RelationId id,
                            instance_.schema().Require(RelationText(a.relation)));
    if (instance_.schema().arity(id) != a.terms.size()) {
      return Status::Malformed("atom " + a.ToString() +
                               " arity mismatch with instance schema");
    }
    for (const Term& t : a.terms) {
      if (t.is_function()) {
        return Status::Malformed("cannot match function term " + t.ToString() +
                                 " against an instance");
      }
    }
    IndexFor(id);
  }
  return Status::OK();
}

Result<bool> HomSearch::ExistsHom(const std::vector<Atom>& atoms,
                                  const HomConstraints& constraints,
                                  const Assignment& fixed) const {
  MAPINV_ASSIGN_OR_RETURN(std::shared_ptr<const HomPlan> plan,
                          GetPlan(atoms, constraints, fixed));
  return ExistsHomWithPlan(*plan, fixed);
}

Result<bool> InstanceHomExists(const Instance& from, const Instance& to) {
  // Encode `from` as an atom conjunction: nulls become variables, constants
  // become constant terms; then ask for a homomorphism into `to`. Facts are
  // streamed straight out of the arenas (relation-major), so the per-relation
  // name resolution is amortised over each relation's rows.
  std::vector<Atom> atoms;
  FreshVarGen gen("h");
  std::unordered_map<Value, VarId, ValueHash> null_vars;
  bool unmappable = false;
  RelationId last_rel = kInvalidRelation;
  RelName rel_name = 0;
  from.ForEachFact([&](RelationId r, RowView row) {
    if (r != last_rel) {
      last_rel = r;
      // A fact over a relation absent from `to`'s schema can never be mapped.
      if (to.schema().Find(from.schema().name(r)) == kInvalidRelation) {
        unmappable = true;
        return false;
      }
      rel_name = InternRelation(from.schema().name(r));
    }
    Atom a;
    a.relation = rel_name;
    a.terms.reserve(row.size());
    for (const Value& v : row) {
      if (v.is_constant()) {
        a.terms.push_back(Term::Const(v));
      } else {
        auto [it, inserted] = null_vars.emplace(v, 0);
        if (inserted) it->second = gen.Next();
        a.terms.push_back(Term::Var(it->second));
      }
    }
    atoms.push_back(std::move(a));
    return true;
  });
  if (unmappable) return false;
  if (atoms.empty()) return true;
  HomSearch search(to);
  return search.ExistsHom(atoms, HomConstraints{});
}

Result<bool> InstancesHomEquivalent(const Instance& a, const Instance& b) {
  MAPINV_ASSIGN_OR_RETURN(bool ab, InstanceHomExists(a, b));
  if (!ab) return false;
  return InstanceHomExists(b, a);
}

}  // namespace mapinv
