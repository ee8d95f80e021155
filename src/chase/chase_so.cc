#include "chase/chase_so.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "base/bytes.h"
#include "base/symbols.h"
#include "chase/fire_plan.h"
#include "chase/world_chase.h"
#include "engine/failpoint.h"
#include "engine/parallel_chase.h"
#include "engine/trace.h"
#include "eval/hom.h"
#include "job/job.h"

namespace mapinv {

namespace {

FailPoint fp_so_entry("chase_so/entry");
FailPoint fp_so_fire("chase_so/fire");
FailPoint fp_so_inv_entry("chase_so_inverse/entry");
FailPoint fp_so_inv_fire("chase_so_inverse/fire");
FailPoint fp_so_inv_fork("chase_so_inverse/world_fork");

// --------------------------------------------------------------------------
// Forward chase: plain SO-tgds with Skolem semantics.
// --------------------------------------------------------------------------

class SkolemTable {
 public:
  explicit SkolemTable(SymbolContext& symbols) : symbols_(symbols) {}

  Value Get(FunctionId fn, const Tuple& args) {
    auto key = std::make_pair(fn, args);
    auto it = table_.find(key);
    if (it == table_.end()) {
      it = table_.emplace(std::move(key), Value::FreshNull(symbols_)).first;
    }
    return it->second;
  }

 private:
  SymbolContext& symbols_;
  struct KeyHash {
    size_t operator()(const std::pair<FunctionId, Tuple>& k) const {
      size_t seed = k.first;
      HashCombine(seed, TupleHash()(k.second));
      return seed;
    }
  };
  std::unordered_map<std::pair<FunctionId, Tuple>, Value, KeyHash> table_;
};

// Evaluates a conclusion term under a trigger row (columns = `vars`, the
// TriggerBatch order), inventing Skolem nulls per distinct (function,
// argument-values) pair. Handles nested applications, which arise from
// SO-tgd composition.
Result<Value> EvalConclusionTerm(const Term& term,
                                 const std::vector<VarId>& vars,
                                 const Value* row, SkolemTable* skolems) {
  switch (term.kind()) {
    case Term::Kind::kVariable: {
      const auto it = std::lower_bound(vars.begin(), vars.end(), term.var());
      if (it == vars.end() || *it != term.var()) {
        return Status::Malformed("unbound conclusion variable " +
                                 VarName(term.var()));
      }
      return row[it - vars.begin()];
    }
    case Term::Kind::kConstant:
      return Status::Malformed("constant in SO-tgd conclusion: " +
                               term.ToString());
    case Term::Kind::kFunction: {
      Tuple args;
      args.reserve(term.args().size());
      for (const Term& a : term.args()) {
        MAPINV_ASSIGN_OR_RETURN(Value v,
                                EvalConclusionTerm(a, vars, row, skolems));
        args.push_back(v);
      }
      return skolems->Get(term.fn(), args);
    }
  }
  return Status::Internal("unreachable term kind");
}

}  // namespace

Result<Instance> ChaseSOTgd(const SOTgdMapping& mapping, const Instance& source,
                            const ExecutionOptions& options) {
  ScopedTraceSpan span(options, "chase_so");
  MAPINV_FAILPOINT(fp_so_entry);
  ExecDeadline entry_deadline(options.deadline_ms);
  const ExecDeadline& deadline = CarriedDeadline(options, entry_deadline);
  SymbolContext& symbols = ResolveSymbols(options, source);
  Instance target(mapping.target);
  if (options.memory_budget_bytes > 0) {
    target.SetMemoryBudget(options.memory_budget_bytes, options.spill_dir,
                           options.stats);
  }
  SkolemTable skolems(symbols);
  HomSearch search(source);
  search.set_stats(options.stats);
  FireRun run{options, deadline, "chase_so", fp_so_fire, &target};
  for (const SORule& rule : mapping.so.rules) {
    // Parallel trigger collection; the Skolem-firing phase stays sequential
    // so null labels are assigned in the canonical trigger order.
    TriggerBatch triggers;
    {
      ScopedTraceSpan collect_span(options, "collect_triggers");
      Result<TriggerBatch> collected = CollectTriggers(
          search, source, rule.premise, HomConstraints{}, options, deadline);
      if (!collected.ok()) {
        if (DegradeToPartial(options, collected.status())) break;
        return collected.status();
      }
      triggers = std::move(collected).ValueOrDie();
    }
    ScopedTraceSpan fire_span(options, "fire");
    // Conclusion relations resolved to ids once per rule, not per fired
    // fact (the terms themselves still evaluate per trigger — they may
    // contain Skolem applications over the trigger bindings).
    std::vector<RelationId> conclusion_rels;
    conclusion_rels.reserve(rule.conclusion.size());
    for (const Atom& atom : rule.conclusion) {
      MAPINV_ASSIGN_OR_RETURN(
          RelationId rel,
          target.schema().Require(RelationText(atom.relation)));
      conclusion_rels.push_back(rel);
    }
    // Skolem semantics fire every trigger and mint no nulls up front: the
    // row builder mints them per distinct (function, arguments) pair. The
    // memo reads only source-side bindings, so building a batch's rows
    // before appending them mints the same labels as trigger-by-trigger
    // firing, and the bulk path always applies when vector_batch > 0.
    auto build = [&](size_t i, const Value* row, const Value*,
                     std::vector<Value>* scratch) -> Status {
      scratch->clear();
      for (const Term& term : rule.conclusion[i].terms) {
        MAPINV_ASSIGN_OR_RETURN(
            Value v, EvalConclusionTerm(term, triggers.vars, row, &skolems));
        scratch->push_back(v);
      }
      return Status::OK();
    };
    MAPINV_ASSIGN_OR_RETURN(
        const bool finished,
        FireTriggers(&run, triggers, conclusion_rels, /*unconditional=*/true,
                     /*num_fresh=*/0, [](Value*) {}, build,
                     [](const Value*) -> Result<bool> { return false; },
                     [](RelationId, TupleRef) {}));
    if (!finished) break;
  }
  if (options.stats != nullptr) {
    options.stats->ObserveArenaBytes(target.ArenaBytes());
    options.stats->ObserveResidentBytes(target.ResidentBytes());
  }
  return target;
}

namespace {

// --------------------------------------------------------------------------
// Reverse chase: the PolySOInverse output language.
// --------------------------------------------------------------------------

// Checkpoint codec for symbolic worlds ("MAPINVSW"): unlike reverse-chase
// worlds, which persist through the MAPINVSN instance snapshot, an SO-inverse
// world is a union-find over term nodes plus symbolic facts — state with no
// Instance representation until Materialize runs at the very end. The blob
// stores constants and function symbols as *spellings* (never process-local
// interner ids) and map entries sorted by node id, so a resumed process
// rebuilds behaviourally identical memo tables. A trailing FNV-1a checksum
// plus a loader that reads only through ByteReader (base/bytes.h) turn any
// corruption into a clean kMalformed error.

constexpr char kWorldMagic[8] = {'M', 'A', 'P', 'I', 'N', 'V', 'S', 'W'};
constexpr uint32_t kWorldVersion = 1;

Status WorldMalformed(const std::string& what) {
  return Status::Malformed("symbolic world snapshot: " + what);
}

// Values travel as tag + payload: nulls by label (stable across processes),
// constants by spelling (re-interned on load).
void AppendValue(std::string& buf, Value v) {
  if (v.is_null()) {
    buf.push_back(0);
    AppendU32(buf, v.id());
  } else {
    buf.push_back(1);
    const std::string_view spelling = ConstantPool().Text(v.id());
    AppendU32(buf, static_cast<uint32_t>(spelling.size()));
    buf.append(spelling);
  }
}

Result<Value> ReadValue(ByteReader* reader) {
  MAPINV_ASSIGN_OR_RETURN(const uint8_t tag, reader->U8());
  if (tag == 0) {
    MAPINV_ASSIGN_OR_RETURN(const uint32_t label, reader->U32());
    return Value::NullWithLabel(label);
  }
  if (tag != 1) return WorldMalformed("unknown value tag");
  MAPINV_ASSIGN_OR_RETURN(const uint32_t len, reader->U32());
  MAPINV_ASSIGN_OR_RETURN(std::string_view spelling, reader->Bytes(len));
  return Value::MakeConstant(spelling);
}

// Union-find over nodes that stand for input values and for inverse-function
// applications f_j(v). Invariant: a class holds at most one Value (two
// distinct input values are distinct domain elements and can never be
// identified by choosing function interpretations).
class TermStore {
 public:
  uint32_t NodeForValue(Value v) {
    auto it = value_nodes_.find(v);
    if (it != value_nodes_.end()) return it->second;
    uint32_t n = NewNode(v);
    value_nodes_.emplace(v, n);
    return n;
  }

  uint32_t NodeForFn(FunctionId fn, Value arg) {
    auto key = std::make_pair(fn, arg);
    auto it = fn_nodes_.find(key);
    if (it != fn_nodes_.end()) return it->second;
    uint32_t n = NewNode(std::nullopt);
    fn_nodes_.emplace(key, n);
    return n;
  }

  uint32_t FreshNode() { return NewNode(std::nullopt); }

  uint32_t Find(uint32_t n) const {
    while (parent_[n] != n) n = parent_[n];
    return n;
  }

  /// Merges two classes; fails (returns false, store unchanged in terms of
  /// consistency) if that would identify two distinct values or violate a
  /// recorded disequality.
  bool Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return true;
    if (class_value_[a].has_value() && class_value_[b].has_value() &&
        *class_value_[a] != *class_value_[b]) {
      return false;
    }
    // Union by size.
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    if (!class_value_[a].has_value()) class_value_[a] = class_value_[b];
    for (const auto& [x, y] : disequalities_) {
      if (Find(x) == Find(y)) return false;
    }
    return true;
  }

  /// Records a ≠ b; fails if they are already identified.
  bool AddDisequality(uint32_t a, uint32_t b) {
    if (Find(a) == Find(b)) return false;
    disequalities_.emplace_back(a, b);
    return true;
  }

  /// The unique value of the node's class, if any.
  std::optional<Value> ClassValue(uint32_t n) const {
    return class_value_[Find(n)];
  }

  uint32_t NumNodes() const { return static_cast<uint32_t>(parent_.size()); }

  /// Appends the store's complete state to `buf`. The memo maps go out
  /// sorted by node id (hash-map iteration order never leaks into the blob),
  /// disequalities in recorded order.
  void SerializeTo(std::string* buf) const {
    AppendU32(*buf, NumNodes());
    for (const uint32_t p : parent_) AppendU32(*buf, p);
    for (const uint32_t s : size_) AppendU32(*buf, s);
    for (const std::optional<Value>& v : class_value_) {
      if (v.has_value()) {
        buf->push_back(1);
        AppendValue(*buf, *v);
      } else {
        buf->push_back(0);
      }
    }
    std::vector<std::pair<uint32_t, Value>> by_node;
    by_node.reserve(value_nodes_.size());
    for (const auto& [value, node] : value_nodes_) {
      by_node.emplace_back(node, value);
    }
    std::sort(by_node.begin(), by_node.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    AppendU32(*buf, static_cast<uint32_t>(by_node.size()));
    for (const auto& [node, value] : by_node) {
      AppendValue(*buf, value);
      AppendU32(*buf, node);
    }
    std::vector<std::tuple<uint32_t, FunctionId, Value>> fn_by_node;
    fn_by_node.reserve(fn_nodes_.size());
    for (const auto& [key, node] : fn_nodes_) {
      fn_by_node.emplace_back(node, key.first, key.second);
    }
    std::sort(fn_by_node.begin(), fn_by_node.end(),
              [](const auto& a, const auto& b) {
                return std::get<0>(a) < std::get<0>(b);
              });
    AppendU32(*buf, static_cast<uint32_t>(fn_by_node.size()));
    for (const auto& [node, fn, arg] : fn_by_node) {
      const std::string name = FunctionName(fn);
      AppendU32(*buf, static_cast<uint32_t>(name.size()));
      buf->append(name);
      AppendValue(*buf, arg);
      AppendU32(*buf, node);
    }
    AppendU32(*buf, static_cast<uint32_t>(disequalities_.size()));
    for (const auto& [a, b] : disequalities_) {
      AppendU32(*buf, a);
      AppendU32(*buf, b);
    }
  }

  /// Rebuilds a store from `reader`. Function names resolve through
  /// `fn_by_name` — the symbols of the mapping being resumed — so the memo
  /// keys match the FunctionIds the resumed chase will probe with (a
  /// synthetic id's printed name re-interns to a *different* id, so spelling
  /// round-trips alone would silently empty the memo).
  static Result<TermStore> Deserialize(
      ByteReader* reader,
      const std::unordered_map<std::string, FunctionId>& fn_by_name) {
    TermStore store;
    MAPINV_ASSIGN_OR_RETURN(const uint32_t num_nodes, reader->U32());
    // Each node costs at least 9 serialized bytes (parent + size + value
    // flag); a count the remaining bytes cannot possibly hold is corruption,
    // rejected before it can drive a huge reserve.
    if (num_nodes > reader->remaining() / 9) {
      return WorldMalformed("node count exceeds the image size");
    }
    store.parent_.reserve(num_nodes);
    for (uint32_t i = 0; i < num_nodes; ++i) {
      MAPINV_ASSIGN_OR_RETURN(const uint32_t p, reader->U32());
      if (p >= num_nodes) return WorldMalformed("parent index out of range");
      store.parent_.push_back(p);
    }
    store.size_.reserve(num_nodes);
    for (uint32_t i = 0; i < num_nodes; ++i) {
      MAPINV_ASSIGN_OR_RETURN(const uint32_t s, reader->U32());
      store.size_.push_back(s);
    }
    store.class_value_.reserve(num_nodes);
    for (uint32_t i = 0; i < num_nodes; ++i) {
      MAPINV_ASSIGN_OR_RETURN(const uint8_t has, reader->U8());
      if (has > 1) return WorldMalformed("class-value flag is not 0/1");
      if (has == 1) {
        MAPINV_ASSIGN_OR_RETURN(const Value v, ReadValue(reader));
        store.class_value_.push_back(v);
      } else {
        store.class_value_.emplace_back();
      }
    }
    MAPINV_ASSIGN_OR_RETURN(const uint32_t num_values, reader->U32());
    if (num_values > num_nodes) {
      return WorldMalformed("more value nodes than nodes");
    }
    for (uint32_t i = 0; i < num_values; ++i) {
      MAPINV_ASSIGN_OR_RETURN(const Value v, ReadValue(reader));
      MAPINV_ASSIGN_OR_RETURN(const uint32_t node, reader->U32());
      if (node >= num_nodes) return WorldMalformed("value node out of range");
      store.value_nodes_.emplace(v, node);
    }
    MAPINV_ASSIGN_OR_RETURN(const uint32_t num_fns, reader->U32());
    if (num_fns > num_nodes) {
      return WorldMalformed("more function nodes than nodes");
    }
    for (uint32_t i = 0; i < num_fns; ++i) {
      MAPINV_ASSIGN_OR_RETURN(const uint32_t name_len, reader->U32());
      MAPINV_ASSIGN_OR_RETURN(std::string_view name, reader->Bytes(name_len));
      MAPINV_ASSIGN_OR_RETURN(const Value arg, ReadValue(reader));
      MAPINV_ASSIGN_OR_RETURN(const uint32_t node, reader->U32());
      if (node >= num_nodes) {
        return WorldMalformed("function node out of range");
      }
      const auto it = fn_by_name.find(std::string(name));
      const FunctionId fn =
          it != fn_by_name.end() ? it->second : InternFunction(name);
      store.fn_nodes_.emplace(std::make_pair(fn, arg), node);
    }
    MAPINV_ASSIGN_OR_RETURN(const uint32_t num_diseq, reader->U32());
    for (uint32_t i = 0; i < num_diseq; ++i) {
      MAPINV_ASSIGN_OR_RETURN(const uint32_t a, reader->U32());
      MAPINV_ASSIGN_OR_RETURN(const uint32_t b, reader->U32());
      if (a >= num_nodes || b >= num_nodes) {
        return WorldMalformed("disequality node out of range");
      }
      store.disequalities_.emplace_back(a, b);
    }
    return store;
  }

 private:
  uint32_t NewNode(std::optional<Value> v) {
    uint32_t n = static_cast<uint32_t>(parent_.size());
    parent_.push_back(n);
    size_.push_back(1);
    class_value_.push_back(v);
    return n;
  }

  std::vector<uint32_t> parent_;
  std::vector<uint32_t> size_;
  std::vector<std::optional<Value>> class_value_;
  std::unordered_map<Value, uint32_t, ValueHash> value_nodes_;
  std::map<std::pair<FunctionId, Value>, uint32_t> fn_nodes_;
  std::vector<std::pair<uint32_t, uint32_t>> disequalities_;
};

struct SymFact {
  RelName relation;
  std::vector<uint32_t> nodes;
};

struct World {
  TermStore store;
  std::vector<SymFact> facts;
};

std::string WorldToBytes(const World& world) {
  std::string buf;
  buf.append(kWorldMagic, sizeof(kWorldMagic));
  AppendU32(buf, kWorldVersion);
  world.store.SerializeTo(&buf);
  AppendU32(buf, static_cast<uint32_t>(world.facts.size()));
  for (const SymFact& f : world.facts) {
    const std::string_view rel = RelationText(f.relation);
    AppendU32(buf, static_cast<uint32_t>(rel.size()));
    buf.append(rel);
    AppendU32(buf, static_cast<uint32_t>(f.nodes.size()));
    for (const uint32_t n : f.nodes) AppendU32(buf, n);
  }
  AppendU64(buf, Fnv1a(kFnv1aOffset, buf.data(), buf.size()));
  return buf;
}

Result<World> WorldFromBytes(
    std::string_view image,
    const std::unordered_map<std::string, FunctionId>& fn_by_name) {
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(image.data());
  if (image.size() < sizeof(kWorldMagic) + sizeof(uint64_t)) {
    return WorldMalformed("image shorter than magic plus checksum");
  }
  uint64_t stored_sum;
  std::memcpy(&stored_sum, bytes + image.size() - sizeof(uint64_t),
              sizeof(uint64_t));
  if (Fnv1a(kFnv1aOffset, bytes, image.size() - sizeof(uint64_t)) !=
      stored_sum) {
    return WorldMalformed("checksum mismatch (torn or corrupted write)");
  }
  ByteReader reader(bytes, image.size() - sizeof(uint64_t),
                    "symbolic world snapshot");
  MAPINV_ASSIGN_OR_RETURN(std::string_view magic,
                          reader.Bytes(sizeof(kWorldMagic)));
  if (std::memcmp(magic.data(), kWorldMagic, sizeof(kWorldMagic)) != 0) {
    return WorldMalformed("bad magic");
  }
  MAPINV_ASSIGN_OR_RETURN(const uint32_t version, reader.U32());
  if (version != kWorldVersion) {
    return WorldMalformed("unsupported version " + std::to_string(version));
  }
  World world;
  MAPINV_ASSIGN_OR_RETURN(world.store,
                          TermStore::Deserialize(&reader, fn_by_name));
  const uint32_t num_nodes = world.store.NumNodes();
  MAPINV_ASSIGN_OR_RETURN(const uint32_t num_facts, reader.U32());
  for (uint32_t i = 0; i < num_facts; ++i) {
    MAPINV_ASSIGN_OR_RETURN(const uint32_t rel_len, reader.U32());
    MAPINV_ASSIGN_OR_RETURN(std::string_view rel, reader.Bytes(rel_len));
    SymFact fact;
    fact.relation = InternRelation(rel);
    MAPINV_ASSIGN_OR_RETURN(const uint32_t arity, reader.U32());
    if (arity > reader.remaining() / sizeof(uint32_t)) {
      return WorldMalformed("fact arity exceeds the image size");
    }
    fact.nodes.reserve(arity);
    for (uint32_t j = 0; j < arity; ++j) {
      MAPINV_ASSIGN_OR_RETURN(const uint32_t node, reader.U32());
      if (node >= num_nodes) return WorldMalformed("fact node out of range");
      fact.nodes.push_back(node);
    }
    world.facts.push_back(std::move(fact));
  }
  if (reader.pos() != image.size() - sizeof(uint64_t)) {
    return WorldMalformed("trailing bytes after the fact list");
  }
  return world;
}

// The function symbols a resumed chase will look up, keyed by printed name —
// collected from every term of the mapping so Deserialize can map persisted
// spellings back to the ids of *this* run's rule objects.
void CollectFunctionNames(const Term& term,
                          std::unordered_map<std::string, FunctionId>* out) {
  if (term.kind() == Term::Kind::kFunction) {
    out->emplace(FunctionName(term.fn()), term.fn());
    for (const Term& a : term.args()) CollectFunctionNames(a, out);
  }
}

std::unordered_map<std::string, FunctionId> MappingFunctionNames(
    const SOInverseMapping& mapping) {
  std::unordered_map<std::string, FunctionId> names;
  for (const SOInverseRule& rule : mapping.inverse.rules) {
    for (const SOInvDisjunct& d : rule.disjuncts) {
      for (const TermEq& eq : d.equalities) {
        CollectFunctionNames(eq.lhs, &names);
        CollectFunctionNames(eq.rhs, &names);
      }
      for (const TermEq& ne : d.inequalities) {
        CollectFunctionNames(ne.lhs, &names);
        CollectFunctionNames(ne.rhs, &names);
      }
      for (const Atom& atom : d.atoms) {
        for (const Term& t : atom.terms) CollectFunctionNames(t, &names);
      }
    }
  }
  return names;
}

// Evaluates a conclusion term to a node. The trigger row (columns = `vars`,
// the TriggerBatch order) binds the premise variables ū; `local` binds this
// firing's existential variables ȳ (any variable absent from the premise
// gets a fresh node, memoised per firing).
Result<uint32_t> TermNode(const Term& term, const std::vector<VarId>& vars,
                          const Value* row,
                          std::unordered_map<VarId, uint32_t>* local,
                          TermStore* store) {
  switch (term.kind()) {
    case Term::Kind::kVariable: {
      const auto it = std::lower_bound(vars.begin(), vars.end(), term.var());
      if (it != vars.end() && *it == term.var()) {
        return store->NodeForValue(row[it - vars.begin()]);
      }
      auto [lit, inserted] = local->emplace(term.var(), 0);
      if (inserted) lit->second = store->FreshNode();
      return lit->second;
    }
    case Term::Kind::kConstant:
      return store->NodeForValue(term.value());
    case Term::Kind::kFunction: {
      if (term.args().size() != 1 || !term.args()[0].is_variable()) {
        return Status::Unsupported(
            "SO-inverse chase supports unary inverse functions applied to "
            "premise variables; got " + term.ToString());
      }
      const VarId arg = term.args()[0].var();
      const auto it = std::lower_bound(vars.begin(), vars.end(), arg);
      if (it == vars.end() || *it != arg) {
        return Status::Unsupported("inverse function applied to existential "
                                   "variable: " + term.ToString());
      }
      return store->NodeForFn(term.fn(), row[it - vars.begin()]);
    }
  }
  return Status::Internal("unreachable term kind");
}

// Tries to apply `disjunct` under a trigger row in `world`; on success
// returns the extended world, otherwise nullopt.
Result<std::optional<World>> ApplyDisjunct(const SOInvDisjunct& disjunct,
                                           const std::vector<VarId>& vars,
                                           const Value* row, World world) {
  std::unordered_map<VarId, uint32_t> local;
  for (const TermEq& eq : disjunct.equalities) {
    MAPINV_ASSIGN_OR_RETURN(uint32_t a,
                            TermNode(eq.lhs, vars, row, &local, &world.store));
    MAPINV_ASSIGN_OR_RETURN(uint32_t b,
                            TermNode(eq.rhs, vars, row, &local, &world.store));
    if (!world.store.Union(a, b)) return std::optional<World>{};
  }
  for (const TermEq& ne : disjunct.inequalities) {
    MAPINV_ASSIGN_OR_RETURN(uint32_t a,
                            TermNode(ne.lhs, vars, row, &local, &world.store));
    MAPINV_ASSIGN_OR_RETURN(uint32_t b,
                            TermNode(ne.rhs, vars, row, &local, &world.store));
    if (!world.store.AddDisequality(a, b)) return std::optional<World>{};
  }
  for (const Atom& atom : disjunct.atoms) {
    SymFact f;
    f.relation = atom.relation;
    f.nodes.reserve(atom.terms.size());
    for (const Term& t : atom.terms) {
      MAPINV_ASSIGN_OR_RETURN(
          uint32_t n, TermNode(t, vars, row, &local, &world.store));
      f.nodes.push_back(n);
    }
    world.facts.push_back(std::move(f));
  }
  return std::optional<World>(std::move(world));
}

Result<Instance> Materialize(const World& world,
                             std::shared_ptr<const Schema> schema,
                             SymbolContext& symbols) {
  Instance out(std::move(schema));
  std::unordered_map<uint32_t, Value> null_of_class;
  for (const SymFact& f : world.facts) {
    Tuple t;
    t.reserve(f.nodes.size());
    for (uint32_t n : f.nodes) {
      std::optional<Value> v = world.store.ClassValue(n);
      if (v.has_value()) {
        t.push_back(*v);
      } else {
        uint32_t root = world.store.Find(n);
        auto [it, inserted] = null_of_class.emplace(root, Value());
        if (inserted) it->second = Value::FreshNull(symbols);
        t.push_back(it->second);
      }
    }
    MAPINV_ASSIGN_OR_RETURN(bool added,
                            out.Add(RelationText(f.relation), std::move(t)));
    (void)added;
  }
  return out;
}

// The SO-inverse chase as a ChaseWorlds kind (chase/world_chase.h): worlds
// are term stores, checkpointed through the MAPINVSW codec above. Nulls are
// minted only by Materialize, in Finish, after the final commit, so the
// restored watermark makes a resumed run's output byte-identical to an
// uninterrupted one.
class SOInverseWorlds {
 public:
  using Mapping = SOInverseMapping;
  using World = mapinv::World;
  static constexpr const char* kPhase = "chase_so_inverse";
  static constexpr JobKind kJobKind = JobKind::kSOInverseWorlds;
  static constexpr FailPoint& kEntry = fp_so_inv_entry;
  static constexpr FailPoint& kFire = fp_so_inv_fire;

  SOInverseWorlds(const SOInverseMapping& mapping,
                  const ExecutionOptions& options)
      : mapping_(mapping), options_(options) {}

  size_t NumDeps() const { return mapping_.inverse.rules.size(); }

  World Seed() const { return World(); }

  Status Compile(size_t rule_index, const World&) {
    rule_ = &mapping_.inverse.rules[rule_index];
    premise_ = {rule_->premise};
    constraints_ = HomConstraints{};
    constraints_.constant_vars.insert(rule_->constant_vars.begin(),
                                      rule_->constant_vars.end());
    return Status::OK();
  }

  const std::vector<Atom>& Premise() const { return premise_; }
  const HomConstraints& Constraints() const { return constraints_; }

  // Every world tries every disjunct; the consistent applications survive.
  // Symbolic worlds hold no facts of the target, so nothing is counted
  // against max_new_facts.
  Status Expand(const TriggerBatch& triggers, const Value* row,
                std::vector<World>* worlds, size_t* /*created*/,
                SymbolContext&) {
    std::vector<World> next;
    for (World& world : *worlds) {
      for (size_t di = 0; di < rule_->disjuncts.size(); ++di) {
        const SOInvDisjunct& d = rule_->disjuncts[di];
        // The last disjunct consumes the world; earlier ones fork a copy of
        // the symbolic store (counted as a world fork).
        const bool last = di + 1 == rule_->disjuncts.size();
        if (!last) {
          MAPINV_FAILPOINT(fp_so_inv_fork);
          if (options_.stats != nullptr) {
            options_.stats->worlds_forked.fetch_add(1,
                                                    std::memory_order_relaxed);
          }
        }
        MAPINV_ASSIGN_OR_RETURN(
            std::optional<World> applied,
            ApplyDisjunct(d, triggers.vars, row,
                          last ? std::move(world) : World(world)));
        if (applied.has_value()) next.push_back(std::move(*applied));
      }
    }
    *worlds = std::move(next);
    return Status::OK();
  }

  std::string Save(const World& world) const { return WorldToBytes(world); }

  Result<World> Load(const std::string& image) {
    if (!fn_by_name_.has_value()) fn_by_name_ = MappingFunctionNames(mapping_);
    return WorldFromBytes(image, *fn_by_name_);
  }

  Result<std::vector<Instance>> Finish(std::vector<World> worlds,
                                       SymbolContext& symbols) const {
    std::vector<Instance> out;
    out.reserve(worlds.size());
    for (const World& w : worlds) {
      MAPINV_ASSIGN_OR_RETURN(Instance inst,
                              Materialize(w, mapping_.target, symbols));
      out.push_back(std::move(inst));
    }
    return out;
  }

 private:
  const SOInverseMapping& mapping_;
  const ExecutionOptions& options_;
  // The compiled rule.
  const SOInverseRule* rule_ = nullptr;
  std::vector<Atom> premise_;
  HomConstraints constraints_;
  // Resolves persisted function spellings; built at the first Load.
  std::optional<std::unordered_map<std::string, FunctionId>> fn_by_name_;
};

}  // namespace

Result<std::vector<Instance>> ChaseSOInverseWorlds(
    const SOInverseMapping& mapping, const Instance& input,
    const ExecutionOptions& options) {
  return ChaseWorlds<SOInverseWorlds>(mapping, input, options);
}

}  // namespace mapinv
