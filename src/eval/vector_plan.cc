#include "eval/vector_plan.h"

#include <algorithm>
#include <string>
#include <utility>

#include "engine/execution_options.h"
#include "engine/trace.h"
#include "eval/hom_plan.h"

namespace mapinv {

namespace {

// Level matrices start small and grow geometrically up to the batch size, so
// one-off searches with a handful of matches never pay a full-batch
// allocation. Growth only moves flush boundaries, which the determinism
// contract makes invisible.
constexpr size_t kInitialLevelRows = 16;

/// One selection-vector pass over a candidate block. Lowered from the plan's
/// scalar check/bind ops (see LowerStep).
struct BlockOp {
  enum class Kind : uint8_t {
    kConstEq,    ///< tuple[pos] == value
    kParentEq,   ///< tuple[pos] == parent_slots[slot]
    kRowEq,      ///< tuple[pos] == tuple[other_pos]
    kMustConst,  ///< tuple[pos] is a constant
    kParentNe,   ///< tuple[pos] != parent_slots[slot]
    kRowNe,      ///< tuple[pos] != tuple[other_pos]
  };
  Kind kind;
  uint32_t pos = 0;
  uint32_t other_pos = 0;
  uint16_t slot = 0;
  Value value;
};

/// One plan step lowered for block execution.
struct StepProgram {
  const HomPlan::Step* step = nullptr;
  std::vector<BlockOp> ops;
  /// Child-row slot writes: slot <- tuple[pos], one per bind op.
  std::vector<std::pair<uint16_t, uint32_t>> writes;
};

// Lowers one step's scalar ops. A reference to a slot bound earlier in the
// *same* step becomes a row-local position compare (that slot's value is this
// very tuple's value at the binding position); references to fixed or
// earlier-step slots read the parent row, which is uniform across the block.
// A block row survives iff every lowered op passes — the same conjunction the
// scalar executor short-circuits through.
StepProgram LowerStep(const HomPlan::Step& step) {
  StepProgram sp;
  sp.step = &step;
  std::vector<std::pair<uint16_t, uint32_t>> bound_here;  // slot -> pos
  auto find_here = [&](uint16_t slot) -> int64_t {
    for (const auto& [s, p] : bound_here) {
      if (s == slot) return static_cast<int64_t>(p);
    }
    return -1;
  };
  for (const HomPlan::Op& op : step.ops) {
    switch (op.kind) {
      case HomPlan::Op::Kind::kCheckConst: {
        BlockOp b;
        b.kind = BlockOp::Kind::kConstEq;
        b.pos = op.pos;
        b.value = op.value;
        sp.ops.push_back(b);
        break;
      }
      case HomPlan::Op::Kind::kCheckSlot: {
        BlockOp b;
        const int64_t here = find_here(op.slot);
        if (here >= 0) {
          b.kind = BlockOp::Kind::kRowEq;
          b.other_pos = static_cast<uint32_t>(here);
        } else {
          b.kind = BlockOp::Kind::kParentEq;
          b.slot = op.slot;
        }
        b.pos = op.pos;
        sp.ops.push_back(b);
        break;
      }
      case HomPlan::Op::Kind::kBind: {
        if (op.must_be_constant) {
          BlockOp b;
          b.kind = BlockOp::Kind::kMustConst;
          b.pos = op.pos;
          sp.ops.push_back(b);
        }
        // The scalar executor binds the slot *before* checking
        // distinct_from, so a self-inequality (x != x puts the bound slot in
        // its own distinct list) reads the just-bound value and rejects
        // every tuple. Registering the binding first reproduces that: the
        // self reference lowers to tuple[pos] != tuple[pos].
        bound_here.emplace_back(op.slot, op.pos);
        for (uint16_t other : op.distinct_from) {
          BlockOp b;
          const int64_t here = find_here(other);
          if (here >= 0) {
            b.kind = BlockOp::Kind::kRowNe;
            b.other_pos = static_cast<uint32_t>(here);
          } else {
            b.kind = BlockOp::Kind::kParentNe;
            b.slot = other;
          }
          b.pos = op.pos;
          sp.ops.push_back(b);
        }
        sp.writes.emplace_back(op.slot, op.pos);
        break;
      }
    }
  }
  return sp;
}

/// The batch executor: one per chunk of the chase's premise scan, reused
/// across every block the chunk touches.
class Exec {
 public:
  Exec(const Instance& instance, const HomPlan& plan, size_t batch,
       const std::function<bool(const Value*)>& emit,
       const ExecutionOptions& options, const ExecDeadline& deadline,
       std::string_view phase, VectorRunStats* vstats)
      : instance_(instance),
        batch_(batch < 1 ? 1 : batch),
        emit_(emit),
        options_(options),
        deadline_(deadline),
        phase_(phase),
        vstats_(vstats),
        num_slots_(plan.num_slots) {
    const size_t num_steps = plan.steps.size();
    ctx_.resize(num_steps);
    steps_.reserve(num_steps);
    for (size_t i = 0; i < num_steps; ++i) {
      const RelationId rel = plan.steps[i].relation;
      size_t catchup = 0;
      const RelationIndex& idx = instance.IndexFor(rel, &catchup);
      if (vstats_ != nullptr) vstats_->index_catchup_rows += catchup;
      ctx_[i].positions = idx.positions.data();
      ctx_[i].view = instance.Arena(rel);
      ctx_[i].arity = instance.schema().arity(rel);
      ctx_[i].rows = instance.NumRows(rel);
      steps_.push_back(LowerStep(plan.steps[i]));
    }
    levels_.resize(num_steps + 1);
    scratch_.resize(num_steps + 1);
  }

  /// Block-scans [begin_row, end_row) of the pinned relation.
  /// Blocks additionally split at segment boundaries, so each block's rows
  /// sit in one contiguous segment stripe and the check loops run off a flat
  /// base pointer. The extra splits only move block boundaries, which the
  /// determinism contract makes invisible.
  Status RunSeeded(const SeedProgram& seed, size_t begin_row, size_t end_row) {
    const Instance::ArenaView view = instance_.Arena(seed.relation);
    const uint32_t arity = seed.arity;
    Level& root = levels_[0];
    std::vector<uint32_t>& refs = scratch_[0].seed_refs;
    for (size_t off = begin_row; off < end_row && !stop_;) {
      const size_t seg_index = off >> kSegmentRowShift;
      const size_t seg_end = (seg_index + 1) << kSegmentRowShift;
      const size_t block = std::min({batch_, end_row - off, seg_end - off});
      MAPINV_RETURN_NOT_OK(Poll());
      // The segment stripe, addressed by segment-local row index.
      const Value* data = view.segment_base(seg_index);
      const uint32_t local = static_cast<uint32_t>(off & kSegmentRowMask);
      refs.resize(block);
      for (size_t i = 0; i < block; ++i) {
        refs[i] = local + static_cast<uint32_t>(i);
      }
      size_t m = block;
      // Seed checks, selection-vector style: every check is row-local.
      for (const SeedProgram::ConstCheck& c : seed.const_checks) {
        size_t out = 0;
        for (size_t i = 0; i < m; ++i) {
          const Value* t = data + static_cast<size_t>(refs[i]) * arity;
          if (t[c.pos] == c.value) refs[out++] = refs[i];
        }
        m = out;
        if (m == 0) break;
      }
      for (const SeedProgram::PosEq& c : seed.pos_eqs) {
        if (m == 0) break;
        size_t out = 0;
        for (size_t i = 0; i < m; ++i) {
          const Value* t = data + static_cast<size_t>(refs[i]) * arity;
          if (t[c.pos] == t[c.first_pos]) refs[out++] = refs[i];
        }
        m = out;
      }
      for (const SeedProgram::MustConst& c : seed.must_consts) {
        if (m == 0) break;
        size_t out = 0;
        for (size_t i = 0; i < m; ++i) {
          const Value* t = data + static_cast<size_t>(refs[i]) * arity;
          if (t[c.pos].is_constant()) refs[out++] = refs[i];
        }
        m = out;
      }
      for (const SeedProgram::PosNe& c : seed.pos_nes) {
        if (m == 0) break;
        size_t out = 0;
        for (size_t i = 0; i < m; ++i) {
          const Value* t = data + static_cast<size_t>(refs[i]) * arity;
          if (!(t[c.pos_a] == t[c.pos_b])) refs[out++] = refs[i];
        }
        m = out;
      }
      if (vstats_ != nullptr) {
        ++vstats_->blocks_scanned;
        vstats_->rows_scanned += block;
        vstats_->rows_selected += m;
      }
      for (size_t i = 0; i < m && !stop_; ++i) {
        EnsureCapacity(&root, root.rows + 1);
        Value* row = root.matrix.data() + root.rows * num_slots_;
        const Value* t = data + static_cast<size_t>(refs[i]) * arity;
        for (const SeedProgram::Bind& b : seed.binds) row[b.slot] = t[b.pos];
        ++root.rows;
        if (root.rows == root.cap) {
          MAPINV_RETURN_NOT_OK(Flush(0));
          Grow(&root);
        }
      }
      off += block;
    }
    if (!stop_ && root.rows > 0) MAPINV_RETURN_NOT_OK(Flush(0));
    return Status::OK();
  }

 private:
  struct StepCtx {
    Instance::ArenaView view;
    uint32_t arity = 0;
    size_t rows = 0;
    const PositionIndex* positions = nullptr;
  };
  /// One level of the expansion pipeline: a slot matrix of pending rows.
  struct Level {
    std::vector<Value> matrix;  // cap * num_slots, row-major
    size_t rows = 0;
    size_t cap = 0;
  };
  struct Scratch {
    std::vector<uint32_t> refs;       // candidate block under compaction
    std::vector<uint32_t> isect;      // bucket-intersection buffer
    std::vector<uint32_t> seed_refs;  // level 0 seed scan only
  };

  void EnsureCapacity(Level* lvl, size_t rows) {
    if (lvl->cap >= rows) return;
    size_t cap = lvl->cap == 0 ? kInitialLevelRows : lvl->cap;
    while (cap < rows) cap *= 2;
    cap = std::min(std::max(cap, rows), std::max(batch_, rows));
    lvl->matrix.resize(cap * num_slots_);
    lvl->cap = cap;
  }

  void Grow(Level* lvl) {
    if (lvl->cap >= batch_) return;
    const size_t cap = std::min(batch_, lvl->cap * 8);
    lvl->matrix.resize(cap * num_slots_);
    lvl->cap = cap;
  }

  Status Poll() {
    if (CancelRequested(options_)) return PhaseCancelled(phase_);
    if (deadline_.Expired()) {
      return PhaseExhausted(phase_,
                            "deadline exceeded during trigger enumeration");
    }
    return Status::OK();
  }

  Status Flush(size_t si) {
    Status status = ProcessLevel(si);
    levels_[si].rows = 0;
    return status;
  }

  // Drives every pending row of level `si` through the remaining steps.
  // Matches are emitted in the scalar executor's depth-first order: parents
  // are visited in order, each parent's candidates ascend by tuple index,
  // and a full child block is driven to completion before more children are
  // produced.
  Status ProcessLevel(size_t si) {
    Level& lvl = levels_[si];
    if (si == steps_.size()) {
      for (size_t r = 0; r < lvl.rows; ++r) {
        if (!emit_(lvl.matrix.data() + r * num_slots_)) {
          stop_ = true;
          return Status::OK();
        }
      }
      return Status::OK();
    }
    const StepProgram& sp = steps_[si];
    const StepCtx& sc = ctx_[si];
    Level& child = levels_[si + 1];
    Scratch& scr = scratch_[si];
    const Instance::ArenaView view = sc.view;
    for (size_t p = 0; p < lvl.rows && !stop_; ++p) {
      const Value* parent = lvl.matrix.data() + p * num_slots_;
      const StepCandidates cand =
          SelectCandidates(*sp.step, sc.positions, parent, &scr.isect);
      if (cand.kind == StepCandidates::Kind::kDead) continue;
      const bool scan = cand.kind == StepCandidates::Kind::kFullScan;
      const size_t total = scan ? sc.rows : cand.rows.size();
      for (size_t off = 0; off < total && !stop_; off += batch_) {
        const size_t block = std::min(batch_, total - off);
        MAPINV_RETURN_NOT_OK(Poll());
        scr.refs.resize(block);
        if (!scan) {
          std::copy_n(cand.rows.begin() + off, block, scr.refs.begin());
        } else {
          for (size_t i = 0; i < block; ++i) {
            scr.refs[i] = static_cast<uint32_t>(off + i);
          }
        }
        uint32_t* refs = scr.refs.data();
        size_t m = block;
        for (const BlockOp& op : sp.ops) {
          size_t out = 0;
          switch (op.kind) {
            case BlockOp::Kind::kConstEq: {
              const Value v = op.value;
              for (size_t i = 0; i < m; ++i) {
                const Value* t = view.row(refs[i]);
                if (t[op.pos] == v) refs[out++] = refs[i];
              }
              break;
            }
            case BlockOp::Kind::kParentEq: {
              const Value v = parent[op.slot];
              for (size_t i = 0; i < m; ++i) {
                const Value* t = view.row(refs[i]);
                if (t[op.pos] == v) refs[out++] = refs[i];
              }
              break;
            }
            case BlockOp::Kind::kRowEq: {
              for (size_t i = 0; i < m; ++i) {
                const Value* t = view.row(refs[i]);
                if (t[op.pos] == t[op.other_pos]) refs[out++] = refs[i];
              }
              break;
            }
            case BlockOp::Kind::kMustConst: {
              for (size_t i = 0; i < m; ++i) {
                const Value* t = view.row(refs[i]);
                if (t[op.pos].is_constant()) refs[out++] = refs[i];
              }
              break;
            }
            case BlockOp::Kind::kParentNe: {
              const Value v = parent[op.slot];
              for (size_t i = 0; i < m; ++i) {
                const Value* t = view.row(refs[i]);
                if (!(t[op.pos] == v)) refs[out++] = refs[i];
              }
              break;
            }
            case BlockOp::Kind::kRowNe: {
              for (size_t i = 0; i < m; ++i) {
                const Value* t = view.row(refs[i]);
                if (!(t[op.pos] == t[op.other_pos])) refs[out++] = refs[i];
              }
              break;
            }
          }
          m = out;
          if (m == 0) break;
        }
        if (vstats_ != nullptr) {
          ++vstats_->blocks_scanned;
          vstats_->rows_scanned += block;
          vstats_->rows_selected += m;
        }
        for (size_t i = 0; i < m && !stop_; ++i) {
          EnsureCapacity(&child, child.rows + 1);
          Value* row = child.matrix.data() + child.rows * num_slots_;
          const Value* t = view.row(refs[i]);
          std::copy(parent, parent + num_slots_, row);
          for (const auto& [slot, pos] : sp.writes) row[slot] = t[pos];
          ++child.rows;
          if (child.rows == child.cap) {
            MAPINV_RETURN_NOT_OK(Flush(si + 1));
            Grow(&child);
            // Flushing may have consumed deeper levels; the parent pointer
            // is into this level's matrix, which deeper levels never touch.
          }
        }
      }
    }
    if (!stop_ && child.rows > 0) MAPINV_RETURN_NOT_OK(Flush(si + 1));
    return Status::OK();
  }

  const Instance& instance_;
  const size_t batch_;
  const std::function<bool(const Value*)>& emit_;
  const ExecutionOptions& options_;
  const ExecDeadline& deadline_;
  const std::string_view phase_;
  VectorRunStats* vstats_;
  const uint16_t num_slots_;
  std::vector<StepCtx> ctx_;
  std::vector<StepProgram> steps_;
  std::vector<Level> levels_;
  std::vector<Scratch> scratch_;
  bool stop_ = false;
};

}  // namespace

void FlushVectorRunStats(const VectorRunStats& v, ExecStats* stats) {
  if (stats == nullptr) return;
  stats->vector_blocks_scanned.fetch_add(v.blocks_scanned,
                                         std::memory_order_relaxed);
  stats->vector_rows_scanned.fetch_add(v.rows_scanned,
                                       std::memory_order_relaxed);
  stats->vector_rows_selected.fetch_add(v.rows_selected,
                                        std::memory_order_relaxed);
  stats->index_catchup_rows.fetch_add(v.index_catchup_rows,
                                      std::memory_order_relaxed);
}

Result<SeedProgram> CompileSeedProgram(const Instance& instance,
                                       const Atom& pinned,
                                       const HomPlan& plan) {
  SeedProgram seed;
  MAPINV_ASSIGN_OR_RETURN(
      seed.relation, instance.schema().Require(RelationText(pinned.relation)));
  seed.arity = instance.schema().arity(seed.relation);
  if (seed.arity != pinned.terms.size()) {
    return Status::Malformed("atom " + pinned.ToString() +
                             " arity mismatch with instance schema");
  }
  auto slot_of = [&plan](VarId v) -> int64_t {
    const auto it =
        std::lower_bound(plan.fixed_vars.begin(), plan.fixed_vars.end(), v);
    if (it == plan.fixed_vars.end() || *it != v) return -1;
    return plan.fixed_slots[it - plan.fixed_vars.begin()];
  };
  std::vector<std::pair<VarId, uint32_t>> first_pos;
  for (uint32_t p = 0; p < pinned.terms.size(); ++p) {
    const Term& t = pinned.terms[p];
    if (t.is_constant()) {
      seed.const_checks.push_back({p, t.value()});
      continue;
    }
    if (t.is_function()) {
      return Status::Malformed("cannot match function term " + t.ToString() +
                               " against an instance");
    }
    uint32_t seen = 0;
    bool repeated = false;
    for (const auto& [v, fp] : first_pos) {
      if (v == t.var()) {
        seen = fp;
        repeated = true;
        break;
      }
    }
    if (repeated) {
      seed.pos_eqs.push_back({p, seen});
      continue;
    }
    first_pos.emplace_back(t.var(), p);
    const int64_t slot = slot_of(t.var());
    if (slot < 0) {
      return Status::Internal("pinned variable v" + std::to_string(t.var()) +
                              " is not a fixed variable of the seeded plan");
    }
    seed.binds.push_back({static_cast<uint16_t>(slot), p});
  }
  // The plan's init checks cover the constraints a pinned row must pass
  // eagerly (constant-constrained pinned variables, inequalities between two
  // pinned variables); lower them to row-local checks via the bind positions.
  auto pos_of_slot = [&seed](uint16_t slot) -> int64_t {
    for (const SeedProgram::Bind& b : seed.binds) {
      if (b.slot == slot) return b.pos;
    }
    return -1;
  };
  for (uint16_t s : plan.init_constant_slots) {
    const int64_t pos = pos_of_slot(s);
    if (pos < 0) {
      return Status::Internal("init constant slot not bound by the seed");
    }
    seed.must_consts.push_back({static_cast<uint32_t>(pos)});
  }
  for (const auto& [sa, sb] : plan.init_inequalities) {
    const int64_t pa = pos_of_slot(sa);
    const int64_t pb = pos_of_slot(sb);
    if (pa < 0 || pb < 0) {
      return Status::Internal("init inequality slot not bound by the seed");
    }
    seed.pos_nes.push_back(
        {static_cast<uint32_t>(pa), static_cast<uint32_t>(pb)});
  }
  return seed;
}

Status RunSeededPlanVectorized(const Instance& instance,
                               const SeedProgram& seed, size_t begin_row,
                               size_t end_row, const HomPlan& plan,
                               size_t batch,
                               const std::function<bool(const Value*)>& emit,
                               const ExecutionOptions& options,
                               const ExecDeadline& deadline,
                               std::string_view phase,
                               VectorRunStats* vstats) {
  Exec exec(instance, plan, batch, emit, options, deadline, phase, vstats);
  return exec.RunSeeded(seed, begin_row, end_row);
}

}  // namespace mapinv
