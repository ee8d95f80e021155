#include "data/value.h"

#include <charconv>

namespace mapinv {

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// True when `spelling` reads back as the same constant written bare in the
// instance syntax: a number, or an identifier that is not null-shaped.
bool IsBareFactSpelling(std::string_view spelling) {
  if (spelling.empty()) return false;
  bool numeric = true;
  for (char c : spelling) {
    if (IsDigit(c)) continue;
    numeric = false;
    if (!((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_')) {
      return false;
    }
  }
  if (numeric) return true;
  if (IsDigit(spelling[0])) return false;
  // _N<digits> would read back as a labelled null.
  if (spelling.size() > 2 && spelling[0] == '_' && spelling[1] == 'N') {
    for (size_t i = 2; i < spelling.size(); ++i) {
      if (!IsDigit(spelling[i])) return true;
    }
    return false;
  }
  return true;
}

}  // namespace

void AppendFactValue(Value v, std::string* out) {
  if (v.is_null()) {
    char digits[16];
    const char* end =
        std::to_chars(digits, digits + sizeof(digits), v.id()).ptr;
    out->append("_N");
    out->append(digits, static_cast<size_t>(end - digits));
    return;
  }
  const std::string_view spelling = ConstantPool().Text(v.id());
  if (IsBareFactSpelling(spelling)) {
    out->append(spelling);
    return;
  }
  out->push_back('\'');
  out->append(spelling);
  out->push_back('\'');
}

}  // namespace mapinv
