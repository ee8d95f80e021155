// Reference renderers the production ones are checked against byte for
// byte: Instance::ToString as one std::string per fact, sorted whole, and
// JSON string escaping one byte at a time.

#ifndef MAPINV_TESTS_RENDER_ORACLES_H_
#define MAPINV_TESTS_RENDER_ORACLES_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "data/instance.h"
#include "data/value.h"

namespace mapinv {

/// A value in the instance syntax: numbers and non-null-shaped identifiers
/// bare, everything else single-quoted.
inline std::string ReferenceFactValue(Value v) {
  std::string s = v.ToString();
  if (v.is_null()) return s;
  bool numeric = !s.empty();
  for (char c : s) {
    if (c < '0' || c > '9') numeric = false;
  }
  if (numeric) return s;
  auto is_ident_char = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_';
  };
  bool ident = !s.empty() && !(s[0] >= '0' && s[0] <= '9');
  for (char c : s) {
    if (!is_ident_char(c)) ident = false;
  }
  if (ident && s.size() > 2 && s[0] == '_' && s[1] == 'N') {
    bool null_shaped = true;
    for (size_t i = 2; i < s.size(); ++i) {
      if (s[i] < '0' || s[i] > '9') null_shaped = false;
    }
    if (null_shaped) ident = false;  // would read back as a null
  }
  if (ident) return s;
  return "'" + s + "'";
}

/// Instance::ToString's contract, spelled directly: render each fact to its
/// own string, sort the strings, join them.
inline std::string ReferenceInstanceToString(const Instance& instance) {
  std::vector<std::string> rendered;
  instance.ForEachFact([&](RelationId r, RowView row) {
    std::string s = instance.schema().name(r) + "(";
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) s += ",";
      s += ReferenceFactValue(row[i]);
    }
    s += ")";
    rendered.push_back(std::move(s));
  });
  std::sort(rendered.begin(), rendered.end());
  std::string out = "{ ";
  for (size_t i = 0; i < rendered.size(); ++i) {
    if (i > 0) out += ", ";
    out += rendered[i];
  }
  out += " }";
  return out;
}

/// `s` as a quoted JSON string, escaped one byte at a time.
inline std::string ReferenceJsonQuote(std::string_view s) {
  std::string out = "\"";
  for (const char raw : s) {
    const unsigned char c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(raw);
        }
    }
  }
  out += "\"";
  return out;
}

}  // namespace mapinv

#endif  // MAPINV_TESTS_RENDER_ORACLES_H_
