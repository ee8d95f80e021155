#include "base/json.h"

#include <bit>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mapinv {
namespace {

/// Recursive-descent parser over a string_view. Positions are byte offsets
/// into the original document, reported in every diagnostic.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<Json> ParseDocument() {
    SkipWs();
    Json value;
    MAPINV_RETURN_NOT_OK(ParseValue(0, &value));
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::Malformed("json: " + message + " at offset " +
                             std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(size_t depth, Json* out) {
    if (depth >= Json::kMaxDepth) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(depth, out);
      case '[':
        return ParseArray(depth, out);
      case '"': {
        std::string s;
        MAPINV_RETURN_NOT_OK(ParseString(&s));
        *out = Json(std::move(s));
        return Status::OK();
      }
      case 't':
        return ParseLiteral("true", Json(true), out);
      case 'f':
        return ParseLiteral("false", Json(false), out);
      case 'n':
        return ParseLiteral("null", Json(), out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseLiteral(std::string_view word, Json value, Json* out) {
    if (text_.substr(pos_, word.size()) != word) {
      return Error("invalid literal");
    }
    pos_ += word.size();
    *out = std::move(value);
    return Status::OK();
  }

  Status ParseObject(size_t depth, Json* out) {
    ++pos_;  // '{'
    Json obj = Json::MakeObject();
    SkipWs();
    if (Consume('}')) {
      *out = std::move(obj);
      return Status::OK();
    }
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      std::string key;
      MAPINV_RETURN_NOT_OK(ParseString(&key));
      SkipWs();
      if (!Consume(':')) return Error("expected ':' after object key");
      SkipWs();
      Json value;
      MAPINV_RETURN_NOT_OK(ParseValue(depth + 1, &value));
      obj.Set(key, std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Error("expected ',' or '}' in object");
    }
    *out = std::move(obj);
    return Status::OK();
  }

  Status ParseArray(size_t depth, Json* out) {
    ++pos_;  // '['
    Json array = Json::MakeArray();
    SkipWs();
    if (Consume(']')) {
      *out = std::move(array);
      return Status::OK();
    }
    while (true) {
      SkipWs();
      Json value;
      MAPINV_RETURN_NOT_OK(ParseValue(depth + 1, &value));
      array.Append(std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Error("expected ',' or ']' in array");
    }
    *out = std::move(array);
    return Status::OK();
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid hex digit in \\u escape");
      }
    }
    pos_ += 4;
    *out = v;
    return Status::OK();
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c < 0x20) return Error("unescaped control character in string");
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;  // '\\'
      if (pos_ >= text_.size()) return Error("truncated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          uint32_t cp = 0;
          MAPINV_RETURN_NOT_OK(ParseHex4(&cp));
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Error("unpaired surrogate in \\u escape");
            }
            pos_ += 2;
            uint32_t low = 0;
            MAPINV_RETURN_NOT_OK(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("invalid low surrogate in \\u escape");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Error("unpaired surrogate in \\u escape");
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
  }

  Status ParseNumber(Json* out) {
    const size_t start = pos_;
    bool is_int = true;
    if (Consume('-')) {
    }
    if (pos_ >= text_.size() ||
        !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
      return Error("invalid number");
    }
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_int = false;
      ++pos_;
      if (pos_ >= text_.size() ||
          !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
        return Error("digits required after decimal point");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_int = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
        return Error("digits required in exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (is_int) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno != ERANGE && end != nullptr && *end == '\0') {
        *out = Json(static_cast<int64_t>(v));
        return Status::OK();
      }
      // Integer literal out of int64 range: fall back to double.
    }
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || std::isinf(d) || std::isnan(d)) {
      return Error("number out of range");
    }
    *out = Json(d);
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<Json> Json::Parse(std::string_view text) {
  return JsonParser(text).ParseDocument();
}

const Json* Json::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string Json::GetString(std::string_view key,
                            std::string default_value) const {
  const Json* v = Find(key);
  return (v != nullptr && v->IsString()) ? v->AsString()
                                         : std::move(default_value);
}

int64_t Json::GetInt(std::string_view key, int64_t default_value) const {
  const Json* v = Find(key);
  return (v != nullptr && v->IsNumber()) ? v->AsInt() : default_value;
}

bool Json::GetBool(std::string_view key, bool default_value) const {
  const Json* v = Find(key);
  return (v != nullptr && v->IsBool()) ? v->AsBool() : default_value;
}

void Json::Set(std::string_view key, Json value) {
  assert(kind_ == Kind::kObject);
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::string(key), std::move(value));
}

namespace {

constexpr uint64_t kLaneOnes = 0x0101010101010101ULL;
constexpr uint64_t kLaneHighs = 0x8080808080808080ULL;

bool NeedsEscape(unsigned char c) { return c < 0x20 || c == '"' || c == '\\'; }

// The 8 bytes at `p` as an integer whose low byte is p[0], on any host.
uint64_t LoadLittleEndian64(const char* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

// Sets the high bit of each byte lane of `word` that needs an escape. Lanes
// above a marked lane may be marked falsely (a borrow runs upward), but the
// lowest marked lane is always a true match.
uint64_t EscapeLanes(uint64_t word) {
  const uint64_t quote = word ^ (kLaneOnes * '"');
  const uint64_t backslash = word ^ (kLaneOnes * '\\');
  return (((word - kLaneOnes * 0x20) & ~word) |
          ((quote - kLaneOnes) & ~quote) |
          ((backslash - kLaneOnes) & ~backslash)) &
         kLaneHighs;
}

// The first byte in [p, end) that needs an escape, or `end`.
const char* NextEscape(const char* p, const char* end) {
  for (; end - p >= 8; p += 8) {
    const uint64_t lanes = EscapeLanes(LoadLittleEndian64(p));
    if (lanes != 0) return p + std::countr_zero(lanes) / 8;
  }
  while (p != end && !NeedsEscape(static_cast<unsigned char>(*p))) ++p;
  return p;
}

void AppendEscape(unsigned char c, std::string* out) {
  switch (c) {
    case '"': *out += "\\\""; break;
    case '\\': *out += "\\\\"; break;
    case '\b': *out += "\\b"; break;
    case '\f': *out += "\\f"; break;
    case '\n': *out += "\\n"; break;
    case '\r': *out += "\\r"; break;
    case '\t': *out += "\\t"; break;
    default: {
      static constexpr char kHex[] = "0123456789abcdef";
      const char escaped[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
      out->append(escaped, sizeof(escaped));
    }
  }
}

}  // namespace

void Json::EscapeTo(std::string_view s, std::string* out) {
  out->push_back('"');
  const char* p = s.data();
  const char* const end = p + s.size();
  while (true) {
    const char* next = NextEscape(p, end);
    out->append(p, next);
    if (next == end) break;
    AppendEscape(static_cast<unsigned char>(*next), out);
    p = next + 1;
  }
  out->push_back('"');
}

void Json::SerializeTo(std::string* out) const {
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      return;
    case Kind::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Kind::kNumber:
      if (is_int_) {
        *out += std::to_string(int_);
      } else {
        // Shortest round-trip double rendering; %.17g always round-trips
        // and strtod in Parse reads it back exactly.
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", double_);
        *out += buf;
      }
      return;
    case Kind::kString:
      EscapeTo(str_, out);
      return;
    case Kind::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Json& v : array_) {
        if (!first) out->push_back(',');
        first = false;
        v.SerializeTo(out);
      }
      out->push_back(']');
      return;
    }
    case Kind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) out->push_back(',');
        first = false;
        EscapeTo(k, out);
        out->push_back(':');
        v.SerializeTo(out);
      }
      out->push_back('}');
      return;
    }
  }
}

std::string Json::Serialize() const {
  std::string out;
  SerializeTo(&out);
  return out;
}

}  // namespace mapinv
