// Tests for base/json.h — the protocol JSON value.
//
// The serving protocol depends on two properties beyond plain correctness:
// serialization is deterministic (objects keep insertion order, integers
// render exactly), and parsing is strict (no trailing garbage, bounded
// nesting) so a hostile frame cannot wedge or overflow the server.

#include "base/json.h"

#include <cstdint>
#include <string>

#include "gtest/gtest.h"
#include "render_oracles.h"

namespace mapinv {
namespace {

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(Json::Parse("null")->IsNull());
  EXPECT_EQ(Json::Parse("true")->AsBool(), true);
  EXPECT_EQ(Json::Parse("false")->AsBool(), false);
  EXPECT_EQ(Json::Parse("42")->AsInt(), 42);
  EXPECT_EQ(Json::Parse("-7")->AsInt(), -7);
  EXPECT_DOUBLE_EQ(Json::Parse("2.5")->AsDouble(), 2.5);
  EXPECT_DOUBLE_EQ(Json::Parse("1e3")->AsDouble(), 1000.0);
  EXPECT_EQ(Json::Parse("\"hi\"")->AsString(), "hi");
}

TEST(JsonParseTest, Int64Exactness) {
  // INT64_MAX and INT64_MIN round-trip without double truncation.
  Json max = Json::Parse("9223372036854775807").ValueOrDie();
  EXPECT_EQ(max.AsInt(), INT64_MAX);
  EXPECT_EQ(max.Serialize(), "9223372036854775807");
  Json min = Json::Parse("-9223372036854775808").ValueOrDie();
  EXPECT_EQ(min.AsInt(), INT64_MIN);
  EXPECT_EQ(min.Serialize(), "-9223372036854775808");
}

TEST(JsonParseTest, NestedDocumentRoundTrips) {
  const std::string text =
      "{\"id\":3,\"command\":\"invert\",\"options\":{\"deadline_ms\":250,"
      "\"on_exhausted\":\"partial\"},\"tags\":[1,2,3],\"flag\":true}";
  Json parsed = Json::Parse(text).ValueOrDie();
  EXPECT_EQ(parsed.GetInt("id"), 3);
  EXPECT_EQ(parsed.GetString("command"), "invert");
  EXPECT_EQ(parsed.Find("options")->GetInt("deadline_ms"), 250);
  EXPECT_EQ(parsed.Find("tags")->AsArray().size(), 3u);
  // Insertion order is preserved, so re-serialization is byte-identical.
  EXPECT_EQ(parsed.Serialize(), text);
}

TEST(JsonParseTest, StringEscapes) {
  Json parsed =
      Json::Parse("\"a\\\"b\\\\c\\/d\\n\\t\\u0041\"").ValueOrDie();
  EXPECT_EQ(parsed.AsString(), "a\"b\\c/d\n\tA");
  // Control characters re-escape on output.
  EXPECT_EQ(Json(std::string("x\ny\x01")).Serialize(), "\"x\\ny\\u0001\"");
}

TEST(JsonParseTest, SurrogatePairsDecodeToUtf8) {
  // U+1F600 as a surrogate pair.
  Json parsed = Json::Parse("\"\\uD83D\\uDE00\"").ValueOrDie();
  EXPECT_EQ(parsed.AsString(), "\xF0\x9F\x98\x80");
  // A lone high surrogate is malformed.
  EXPECT_FALSE(Json::Parse("\"\\uD83D\"").ok());
}

TEST(JsonParseTest, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",        "{",         "[1,",      "{\"a\":}", "{\"a\" 1}",
      "[1,]",    "{,}",       "tru",      "01",       "1.",
      "\"\x01\"", "nul",      "{\"a\":1,}", "1 2",    "[1] x",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(Json::Parse(text).ok()) << text;
  }
}

TEST(JsonParseTest, RejectsTrailingGarbage) {
  Status status = Json::Parse("{\"a\":1} trailing").status();
  EXPECT_EQ(status.code(), StatusCode::kMalformed);
}

TEST(JsonParseTest, DepthLimitBoundsHostileNesting) {
  std::string deep(Json::kMaxDepth, '[');
  deep += std::string(Json::kMaxDepth, ']');
  EXPECT_TRUE(Json::Parse(deep).ok());
  std::string too_deep(Json::kMaxDepth + 1, '[');
  too_deep += std::string(Json::kMaxDepth + 1, ']');
  EXPECT_FALSE(Json::Parse(too_deep).ok());
}

TEST(JsonBuildTest, SetOverwritesInPlacePreservingOrder) {
  Json json = Json::MakeObject();
  json.Set("a", Json(1));
  json.Set("b", Json(2));
  json.Set("a", Json(3));
  EXPECT_EQ(json.Serialize(), "{\"a\":3,\"b\":2}");
}

TEST(JsonBuildTest, TolerantReadsReturnDefaults) {
  Json json = Json::MakeObject();
  json.Set("n", Json(7));
  EXPECT_EQ(json.GetInt("n"), 7);
  EXPECT_EQ(json.GetInt("missing", -1), -1);
  EXPECT_EQ(json.GetString("n", "fallback"), "fallback");  // wrong kind
  EXPECT_EQ(json.Find("missing"), nullptr);
  EXPECT_EQ(Json(5).Find("anything"), nullptr);  // non-object
}

TEST(JsonEscapeTest, EveryByteAtEveryOffsetMatchesTheOracleAndRoundTrips) {
  for (int byte = 0; byte <= 0xff; ++byte) {
    for (size_t offset = 0; offset < 16; ++offset) {
      std::string s(24, 'a');
      s[offset] = static_cast<char>(byte);
      const std::string serialized = Json(s).Serialize();
      EXPECT_EQ(serialized, ReferenceJsonQuote(s))
          << "byte " << byte << " at offset " << offset;
      Result<Json> parsed = Json::Parse(serialized);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      EXPECT_EQ(parsed->AsString(), s)
          << "byte " << byte << " at offset " << offset;
    }
  }
}

}  // namespace
}  // namespace mapinv
