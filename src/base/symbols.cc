#include "base/symbols.h"

#include <deque>
#include <limits>
#include <mutex>

#include "base/parse.h"

namespace mapinv {

namespace {

/// Append-only (prefix, ordinal) side table behind synthetic ids. Generated
/// symbols are write-once / read-rarely (only printing reads them back), so
/// a deque under a mutex beats the interner's hash table by a wide margin:
/// no hashing, no rehash churn, no per-symbol heap string, and the table's
/// growth does not degrade later appends.
class SyntheticPool {
 public:
  uint32_t PrefixId(std::string_view prefix) {
    return prefixes_.Intern(prefix);
  }

  uint32_t Add(uint32_t prefix_id, uint64_t ordinal) {
    std::lock_guard<std::mutex> lock(mu_);
    // 2^31 live synthetic symbols would need tens of GB of formula state
    // before this index could collide with the tag bit.
    uint32_t index = static_cast<uint32_t>(entries_.size());
    entries_.push_back(Entry{prefix_id, ordinal});
    return index;
  }

  /// Rebuilds the symbol's name as `sigil + prefix + sep + ordinal`.
  std::string Name(uint32_t index, const char* sigil, const char* sep) const {
    uint32_t prefix_id;
    uint64_t ordinal;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (index >= entries_.size()) {
        return "<bad-synthetic:" + std::to_string(index) + ">";
      }
      prefix_id = entries_[index].prefix;
      ordinal = entries_[index].ordinal;
    }
    std::string out(sigil);
    out += prefixes_.Text(prefix_id);
    out += sep;
    out += std::to_string(ordinal);
    return out;
  }

 private:
  struct Entry {
    uint32_t prefix;
    uint64_t ordinal;
  };
  mutable std::mutex mu_;
  std::deque<Entry> entries_;
  Interner prefixes_;  // one entry per distinct generator prefix
};

SyntheticPool& SyntheticVarPool() {
  static SyntheticPool* pool = new SyntheticPool();
  return *pool;
}

SyntheticPool& SyntheticFunctionPool() {
  static SyntheticPool* pool = new SyntheticPool();
  return *pool;
}

}  // namespace

Interner& VariablePool() {
  static Interner* pool = new Interner();
  return *pool;
}

Interner& ConstantPool() {
  static Interner* pool = new Interner();
  return *pool;
}

Interner& FunctionPool() {
  static Interner* pool = new Interner();
  return *pool;
}

Interner& RelationNamePool() {
  static Interner* pool = new Interner();
  return *pool;
}

RelName InternRelation(std::string_view name) {
  return RelationNamePool().Intern(name);
}

std::string_view RelationText(RelName r) { return RelationNamePool().Text(r); }

VarId InternVar(std::string_view name) { return VariablePool().Intern(name); }

std::string VarName(VarId v) {
  if (v & kSyntheticIdBit) {
    return SyntheticVarPool().Name(v & ~kSyntheticIdBit, "?", "");
  }
  return std::string(VariablePool().Text(v));
}

FunctionId InternFunction(std::string_view name) {
  return FunctionPool().Intern(name);
}

std::string FunctionName(FunctionId f) {
  if (f & kSyntheticIdBit) {
    return SyntheticFunctionPool().Name(f & ~kSyntheticIdBit, "", "%");
  }
  return std::string(FunctionPool().Text(f));
}

std::optional<uint64_t> GeneratedVarOrdinal(std::string_view name) {
  if (name.empty() || name[0] != '?') return std::nullopt;
  size_t pos = name.size();
  while (pos > 1 && name[pos - 1] >= '0' && name[pos - 1] <= '9') --pos;
  uint64_t ordinal = 0;
  if (!ParseUint(name.substr(pos), std::numeric_limits<int64_t>::max(),
                 &ordinal)) {
    return std::nullopt;
  }
  return ordinal;
}

uint32_t SyntheticVarPrefixId(std::string_view prefix) {
  return SyntheticVarPool().PrefixId(prefix);
}

VarId MakeSyntheticVar(uint32_t prefix_id, uint64_t ordinal) {
  return kSyntheticIdBit | SyntheticVarPool().Add(prefix_id, ordinal);
}

uint32_t SyntheticFunctionPrefixId(std::string_view prefix) {
  return SyntheticFunctionPool().PrefixId(prefix);
}

FunctionId MakeSyntheticFunction(uint32_t prefix_id, uint64_t ordinal) {
  return kSyntheticIdBit | SyntheticFunctionPool().Add(prefix_id, ordinal);
}

}  // namespace mapinv
