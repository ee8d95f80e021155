/// \file value.h
/// \brief Database values: constants and labelled nulls.
///
/// As in the data-exchange literature [Fagin-Kolaitis-Miller-Popa, TCS'05],
/// instances contain two kinds of values. *Constants* come from a fixed
/// domain (interned spellings: "1", "alice", ...). *Labelled nulls* are
/// placeholders invented by the chase; two nulls are equal iff they carry the
/// same label. Source instances must be null-free; target instances may mix
/// both. The built-in predicate C(x) of the paper holds exactly on constants.

#ifndef MAPINV_DATA_VALUE_H_
#define MAPINV_DATA_VALUE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "base/symbol_context.h"
#include "base/symbols.h"

namespace mapinv {

/// \brief A single database value: either a constant or a labelled null.
class Value {
 public:
  /// Default-constructed value: the constant with interned id 0 if any; do
  /// not rely on this — present only so Value is usable in containers.
  Value() : bits_(0) {}

  /// Returns the constant with the given spelling (interned).
  static Value MakeConstant(std::string_view spelling) {
    return Value(ConstantPool().Intern(spelling), /*is_null=*/false);
  }

  /// Returns the constant spelling the decimal form of `n` (convenience).
  static Value Int(int64_t n) { return MakeConstant(std::to_string(n)); }

  /// Returns a labelled null with a label fresh in `context`. Engine-scoped
  /// contexts make label assignment reproducible run-to-run; see
  /// base/symbol_context.h.
  static Value FreshNull(SymbolContext& context) {
    return Value(context.NextNullLabel(), /*is_null=*/true);
  }

  /// Returns a labelled null fresh in the process-global context.
  static Value FreshNull() { return FreshNull(SymbolContext::Global()); }

  /// Returns the labelled null with the given explicit label. Intended for
  /// tests and parsers; labels below 2^31 never collide with FreshNull()
  /// output only if FreshNull has not issued them — prefer FreshNull in
  /// library code.
  static Value NullWithLabel(uint32_t label) {
    return Value(label, /*is_null=*/true);
  }

  bool is_constant() const { return (bits_ & kNullFlag) == 0; }
  bool is_null() const { return !is_constant(); }

  /// Raw id: interned-spelling id for constants, label for nulls.
  uint32_t id() const { return static_cast<uint32_t>(bits_ & 0xffffffffu); }

  /// Constant spelling, or "_N<label>" for nulls.
  std::string ToString() const {
    if (is_constant()) return std::string(ConstantPool().Text(id()));
    return "_N" + std::to_string(id());
  }

  friend bool operator==(Value a, Value b) { return a.bits_ == b.bits_; }
  friend bool operator!=(Value a, Value b) { return a.bits_ != b.bits_; }
  friend bool operator<(Value a, Value b) { return a.bits_ < b.bits_; }

  /// Stable hash of the value.
  size_t Hash() const { return std::hash<uint64_t>()(bits_); }

  /// Raw bit pattern, for the snapshot/spill serialisation paths only: the
  /// constant-id half is meaningful solely relative to this process's
  /// ConstantPool, so persisted bits must be remapped through a spelling
  /// table (see data/snapshot.cc).
  uint64_t bits() const { return bits_; }
  /// Rebuilds a value from a bit pattern produced by bits() (after any
  /// cross-process constant-id remapping).
  static Value FromBits(uint64_t bits) {
    Value v;
    v.bits_ = bits;
    return v;
  }
  /// The bit distinguishing labelled nulls from constants in bits().
  static constexpr uint64_t kNullBit = 1ULL << 32;

 private:
  static constexpr uint64_t kNullFlag = 1ULL << 32;

  Value(uint32_t id, bool is_null)
      : bits_(static_cast<uint64_t>(id) | (is_null ? kNullFlag : 0)) {}

  uint64_t bits_;
};

struct ValueHash {
  size_t operator()(Value v) const { return v.Hash(); }
};

/// \brief Renders a value in the parser's *formula* syntax: nulls as
/// _N<label>, numeric constants bare, every other constant single-quoted —
/// a bare identifier in a formula reads back as a variable, not a
/// constant. The lexer has no escape syntax, so a spelling containing a
/// quote or newline (API-constructible only; the parser can never intern
/// one) does not round-trip; it is still rendered quoted.
inline std::string RenderTermValue(Value v) {
  std::string s = v.ToString();
  if (v.is_null()) return s;
  bool numeric = !s.empty();
  for (char c : s) {
    if (c < '0' || c > '9') numeric = false;
  }
  if (numeric) return s;
  return "'" + s + "'";
}

/// \brief Appends `v` to `out` in the parser's *instance* syntax, where
/// bare identifiers are constant spellings: numbers and identifier-shaped
/// spellings stay bare (except the _N<digits> pattern, which would read
/// back as a labelled null) and everything else is single-quoted.
void AppendFactValue(Value v, std::string* out);

}  // namespace mapinv

#endif  // MAPINV_DATA_VALUE_H_
