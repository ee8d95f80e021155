/// \file symbols.h
/// \brief Process-wide symbol pools and fresh-symbol generation.
///
/// Four independent id spaces are used throughout mapinv:
///   * variables        (VarId)      — "x", "y", fresh "?v17"
///   * constant values  (see data/value.h; spellings interned here)
///   * relation symbols (managed per-Schema in data/schema.h)
///   * function symbols (FunctionId) — "f", Skolem "sk_3", inverse "f#1"
///
/// Variable and function names are global pools: formulas from different
/// mappings may share variable names, and identity of a variable is always
/// relative to the formula it appears in, so a global name pool is safe and
/// keeps printing trivial.

#ifndef MAPINV_BASE_SYMBOLS_H_
#define MAPINV_BASE_SYMBOLS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "base/interner.h"
#include "base/symbol_context.h"

namespace mapinv {

/// Identifier of a (first-order) variable in the global variable pool.
using VarId = uint32_t;
/// Identifier of a function symbol in the global function pool.
using FunctionId = uint32_t;

/// Ids with this bit set are *synthetic*: generated fresh symbols whose
/// (prefix, ordinal) pair lives in an append-only side table instead of the
/// string interner. Fresh symbols are generated once and never looked up by
/// text again, so routing them through the interner paid a hash, a heap
/// string and an ever-growing hash table per symbol — the side table is a
/// plain append. Their names ("?<prefix><n>", "<prefix>%<n>") are rebuilt on
/// demand by VarName / FunctionName; re-parsing a printed name goes through
/// the regular interner and yields a distinct (but consistently distinct)
/// id, which is sound because variable identity is always relative to the
/// formula it appears in and BumpPast keeps generated ordinals ahead of
/// anything the parser has seen.
inline constexpr uint32_t kSyntheticIdBit = 0x80000000u;

/// Registers `prefix` in the synthetic-variable prefix registry (tiny; one
/// entry per distinct generator prefix) and returns its id.
uint32_t SyntheticVarPrefixId(std::string_view prefix);
/// Appends a synthetic variable (prefix, ordinal) entry; returns its VarId
/// (kSyntheticIdBit | index).
VarId MakeSyntheticVar(uint32_t prefix_id, uint64_t ordinal);
/// Same registry/side table pair for function symbols.
uint32_t SyntheticFunctionPrefixId(std::string_view prefix);
FunctionId MakeSyntheticFunction(uint32_t prefix_id, uint64_t ordinal);

/// Pool of variable names.
Interner& VariablePool();
/// Pool of constant spellings (used by data/value.h).
Interner& ConstantPool();
/// Pool of function-symbol names.
Interner& FunctionPool();
/// Pool of relation names as used inside formulas (atoms store interned
/// names; resolution against a concrete Schema happens at eval/chase time).
Interner& RelationNamePool();

/// Interns a variable name.
VarId InternVar(std::string_view name);
/// Returns a variable's name.
std::string VarName(VarId v);
/// Interns a function-symbol name.
FunctionId InternFunction(std::string_view name);
/// Returns a function symbol's name.
std::string FunctionName(FunctionId f);

/// Identifier of a relation name inside formulas.
using RelName = uint32_t;
/// Interns a relation name.
RelName InternRelation(std::string_view name);
/// Returns a relation name's text as a view into the pool (valid for the
/// process lifetime; no copy — this is the chase/eval hot-path accessor).
std::string_view RelationText(RelName r);

/// The ordinal n a variable spelled like a generated one ("?<prefix><n>")
/// carries, or nullopt for any other spelling. An ordinal too large to
/// parse is also nullopt: no context will ever generate it.
std::optional<uint64_t> GeneratedVarOrdinal(std::string_view name);

/// \brief Generates fresh variables "?<prefix><n>" from a SymbolContext
/// (the process-global context when none is given).
///
/// The '?' sigil cannot be produced by the parser, so generated variables can
/// never collide with user-written ones.
class FreshVarGen {
 public:
  explicit FreshVarGen(std::string prefix = "v",
                       SymbolContext* context = nullptr)
      : prefix_id_(SyntheticVarPrefixId(prefix)),
        context_(context != nullptr ? context : &SymbolContext::Global()) {}

  /// Returns a variable this context has never issued before. Costs one
  /// atomic increment and one side-table append — no string is built and the
  /// interner is never touched.
  VarId Next() {
    return MakeSyntheticVar(prefix_id_, context_->NextVarOrdinal());
  }

  /// Ensures future Next() calls on the *global* context use numbers
  /// strictly above `n`. The parser calls this when it reads a '?'-prefixed
  /// variable, so re-parsing printed output can never capture later
  /// generated variables.
  static void BumpPast(uint64_t n) { SymbolContext::Global().BumpVarPast(n); }

 private:
  uint32_t prefix_id_;
  SymbolContext* context_;
};

/// \brief Generates fresh function symbols "<prefix>%<n>" from a
/// SymbolContext (the process-global context when none is given).
class FreshFunctionGen {
 public:
  explicit FreshFunctionGen(std::string prefix = "sk",
                            SymbolContext* context = nullptr)
      : prefix_id_(SyntheticFunctionPrefixId(prefix)),
        context_(context != nullptr ? context : &SymbolContext::Global()) {}

  FunctionId Next() {
    return MakeSyntheticFunction(prefix_id_, context_->NextFunctionOrdinal());
  }

 private:
  uint32_t prefix_id_;
  SymbolContext* context_;
};

/// Combines a hash into a seed (boost::hash_combine recipe, 64-bit variant).
inline void HashCombine(size_t& seed, size_t value) {
  seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

}  // namespace mapinv

#endif  // MAPINV_BASE_SYMBOLS_H_
