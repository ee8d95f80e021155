// Unit tests for the data layer: values, schemas, instances.

#include <gtest/gtest.h>

#include <algorithm>

#include "chase/chase_tgd.h"
#include "data/instance.h"
#include "data/schema.h"
#include "data/value.h"
#include "mapgen/generators.h"
#include "render_oracles.h"

namespace mapinv {
namespace {

TEST(ValueTest, ConstantsInternBySpelling) {
  Value a = Value::MakeConstant("alice");
  Value b = Value::MakeConstant("alice");
  Value c = Value::MakeConstant("bob");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(a.is_constant());
  EXPECT_FALSE(a.is_null());
  EXPECT_EQ(a.ToString(), "alice");
}

TEST(ValueTest, IntConstantsShareSpellingSpace) {
  EXPECT_EQ(Value::Int(7), Value::MakeConstant("7"));
  EXPECT_NE(Value::Int(7), Value::Int(8));
}

TEST(ValueTest, FreshNullsAreDistinctFromEverything) {
  Value n1 = Value::FreshNull();
  Value n2 = Value::FreshNull();
  EXPECT_NE(n1, n2);
  EXPECT_TRUE(n1.is_null());
  EXPECT_NE(n1, Value::MakeConstant(n1.ToString()));
  EXPECT_EQ(n1.ToString().substr(0, 2), "_N");
}

TEST(ValueTest, NullWithLabelIsDeterministic) {
  EXPECT_EQ(Value::NullWithLabel(5), Value::NullWithLabel(5));
  EXPECT_NE(Value::NullWithLabel(5), Value::NullWithLabel(6));
}

TEST(ValueTest, ConstantAndNullWithSameIdDiffer) {
  Value c = Value::MakeConstant("x");
  Value n = Value::NullWithLabel(c.id());
  EXPECT_NE(c, n);
}

TEST(SchemaTest, AddAndLookup) {
  Schema s;
  ASSERT_TRUE(s.AddRelation("R", 2).ok());
  ASSERT_TRUE(s.AddRelation("T", 3).ok());
  EXPECT_EQ(s.size(), 2u);
  RelationId r = s.Find("R");
  ASSERT_NE(r, kInvalidRelation);
  EXPECT_EQ(s.arity(r), 2u);
  EXPECT_EQ(s.name(r), "R");
  EXPECT_EQ(s.Find("missing"), kInvalidRelation);
}

TEST(SchemaTest, ReAddSameArityIsIdempotent) {
  Schema s;
  RelationId first = *s.AddRelation("R", 2);
  RelationId second = *s.AddRelation("R", 2);
  EXPECT_EQ(first, second);
  EXPECT_EQ(s.size(), 1u);
}

TEST(SchemaTest, ReAddDifferentArityFails) {
  Schema s;
  ASSERT_TRUE(s.AddRelation("R", 2).ok());
  Result<RelationId> res = s.AddRelation("R", 3);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, RequireReportsNotFound) {
  Schema s;
  EXPECT_EQ(s.Require("Z").status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, DisjointnessAndUnion) {
  Schema a{{"R", 2}, {"S", 2}};
  Schema b{{"T", 2}};
  Schema c{{"R", 2}};
  EXPECT_TRUE(a.DisjointFrom(b));
  EXPECT_FALSE(a.DisjointFrom(c));
  Result<Schema> u = Schema::Union(a, b);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->size(), 3u);
  Schema clash{{"R", 3}};
  EXPECT_FALSE(Schema::Union(a, clash).ok());
}

TEST(SchemaTest, InitializerListAndToString) {
  Schema s{{"R", 2}, {"T", 3}};
  EXPECT_EQ(s.ToString(), "{ R/2, T/3 }");
}

class InstanceTest : public ::testing::Test {
 protected:
  Schema schema_{{"R", 2}, {"S", 2}};
};

TEST_F(InstanceTest, AddAndContains) {
  Instance inst(schema_);
  ASSERT_TRUE(*inst.AddInts("R", {1, 2}));
  ASSERT_TRUE(*inst.AddInts("R", {3, 4}));
  ASSERT_TRUE(*inst.AddInts("S", {2, 5}));
  EXPECT_FALSE(*inst.AddInts("R", {1, 2}));  // duplicate
  EXPECT_EQ(inst.TotalSize(), 3u);
  RelationId r = schema_.Find("R");
  EXPECT_TRUE(inst.Contains(r, {Value::Int(1), Value::Int(2)}));
  EXPECT_FALSE(inst.Contains(r, {Value::Int(2), Value::Int(1)}));
}

TEST_F(InstanceTest, ArityMismatchRejected) {
  Instance inst(schema_);
  Result<bool> res = inst.AddInts("R", {1, 2, 3});
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(InstanceTest, UnknownRelationRejected) {
  Instance inst(schema_);
  EXPECT_EQ(inst.AddInts("Z", {1}).status().code(), StatusCode::kNotFound);
}

TEST_F(InstanceTest, NullTracking) {
  Instance inst(schema_);
  ASSERT_TRUE(inst.AddInts("R", {1, 2}).ok());
  EXPECT_TRUE(inst.IsNullFree());
  ASSERT_TRUE(inst.Add("S", {Value::Int(1), Value::FreshNull()}).ok());
  EXPECT_FALSE(inst.IsNullFree());
}

TEST_F(InstanceTest, ActiveDomainDeduplicates) {
  Instance inst(schema_);
  ASSERT_TRUE(inst.AddInts("R", {1, 2}).ok());
  ASSERT_TRUE(inst.AddInts("S", {2, 3}).ok());
  std::vector<Value> dom = inst.ActiveDomain();
  EXPECT_EQ(dom.size(), 3u);
}

TEST_F(InstanceTest, SubsetAndEquality) {
  Instance a(schema_);
  Instance b(schema_);
  ASSERT_TRUE(a.AddInts("R", {1, 2}).ok());
  ASSERT_TRUE(b.AddInts("R", {1, 2}).ok());
  ASSERT_TRUE(b.AddInts("S", {2, 5}).ok());
  EXPECT_TRUE(a.SubsetOf(b));
  EXPECT_FALSE(b.SubsetOf(a));
  EXPECT_FALSE(a.EqualTo(b));
  ASSERT_TRUE(a.AddInts("S", {2, 5}).ok());
  EXPECT_TRUE(a.EqualTo(b));
}

TEST_F(InstanceTest, UnionWith) {
  Instance a(schema_);
  Instance b(schema_);
  ASSERT_TRUE(a.AddInts("R", {1, 2}).ok());
  ASSERT_TRUE(b.AddInts("S", {2, 5}).ok());
  ASSERT_TRUE(a.UnionWith(b).ok());
  EXPECT_EQ(a.TotalSize(), 2u);
}

TEST_F(InstanceTest, ToStringIsSortedAndStable) {
  Instance inst(schema_);
  ASSERT_TRUE(inst.AddInts("S", {2, 5}).ok());
  ASSERT_TRUE(inst.AddInts("R", {3, 4}).ok());
  ASSERT_TRUE(inst.AddInts("R", {1, 2}).ok());
  EXPECT_EQ(inst.ToString(), "{ R(1,2), R(3,4), S(2,5) }");
}

TEST_F(InstanceTest, AllFactsCoversEverything) {
  Instance inst(schema_);
  ASSERT_TRUE(inst.AddInts("R", {1, 2}).ok());
  ASSERT_TRUE(inst.AddInts("S", {2, 5}).ok());
  std::vector<Fact> facts = inst.AllFacts();
  EXPECT_EQ(facts.size(), 2u);
}

TEST_F(InstanceTest, SubsetAcrossDifferentSchemaObjects) {
  // Subset comparison resolves relations by name, not by id.
  Schema reordered{{"S", 2}, {"R", 2}};
  Instance a(schema_);
  Instance b(reordered);
  ASSERT_TRUE(a.AddInts("R", {1, 2}).ok());
  ASSERT_TRUE(b.AddInts("R", {1, 2}).ok());
  EXPECT_TRUE(a.SubsetOf(b));
  EXPECT_TRUE(b.SubsetOf(a));
}

TEST_F(InstanceTest, ActiveDomainIsSorted) {
  Instance inst(schema_);
  ASSERT_TRUE(inst.AddInts("R", {9, 3}).ok());
  ASSERT_TRUE(inst.AddInts("S", {5, 1}).ok());
  ASSERT_TRUE(inst.Add("R", {Value::FreshNull(), Value::Int(7)}).ok());
  std::vector<Value> dom = inst.ActiveDomain();
  EXPECT_EQ(dom.size(), 6u);
  EXPECT_TRUE(std::is_sorted(dom.begin(), dom.end()));
  // Two runs over the same facts agree regardless of insertion history.
  Instance again(schema_);
  for (const Fact& f : inst.AllFacts()) {
    ASSERT_TRUE(again.AddTuple(f.relation, f.tuple).ok());
  }
  EXPECT_EQ(again.ActiveDomain(), dom);
}

TEST_F(InstanceTest, EqualToAcrossDifferentSchemaObjects) {
  // Equality, like subset, resolves relations by name — relation ids may
  // differ between the two schemas.
  Schema reordered{{"S", 2}, {"R", 2}};
  Instance a(schema_);
  Instance b(reordered);
  ASSERT_TRUE(a.AddInts("R", {1, 2}).ok());
  ASSERT_TRUE(a.AddInts("S", {3, 4}).ok());
  ASSERT_TRUE(b.AddInts("S", {3, 4}).ok());
  ASSERT_TRUE(b.AddInts("R", {1, 2}).ok());
  EXPECT_TRUE(a.EqualTo(b));
  ASSERT_TRUE(b.AddInts("S", {5, 6}).ok());
  EXPECT_FALSE(a.EqualTo(b));
}

TEST_F(InstanceTest, SubsetAgainstMissingRelationFails) {
  Schema smaller{{"R", 2}};
  Instance a(schema_);
  Instance b(smaller);
  ASSERT_TRUE(a.AddInts("S", {1, 2}).ok());
  EXPECT_FALSE(a.SubsetOf(b));  // b's schema has no S
  // ...but an instance whose S is empty is still a subset.
  Instance empty_s(schema_);
  EXPECT_TRUE(empty_s.SubsetOf(b));
}

TEST_F(InstanceTest, UnionWithMissingRelationFails) {
  Schema smaller{{"R", 2}};
  Instance a(smaller);
  Instance b(schema_);
  ASSERT_TRUE(b.AddInts("S", {1, 2}).ok());
  EXPECT_EQ(a.UnionWith(b).code(), StatusCode::kNotFound);
  // Empty relations on the other side are skipped, not resolved: union with
  // an instance that only has R facts succeeds even though a lacks S.
  Instance only_r(schema_);
  ASSERT_TRUE(only_r.AddInts("R", {1, 2}).ok());
  ASSERT_TRUE(a.UnionWith(only_r).ok());
  EXPECT_EQ(a.TotalSize(), 1u);
}

TEST_F(InstanceTest, UnionWithArityMismatchFails) {
  Schema wide{{"R", 3}};
  Instance a(schema_);
  Instance b(wide);
  ASSERT_TRUE(b.AddInts("R", {1, 2, 3}).ok());
  EXPECT_EQ(a.UnionWith(b).code(), StatusCode::kInvalidArgument);
}

TEST_F(InstanceTest, UnionWithSelfAndEmptyAreNoOps) {
  Instance a(schema_);
  ASSERT_TRUE(a.AddInts("R", {1, 2}).ok());
  ASSERT_TRUE(a.UnionWith(a).ok());
  EXPECT_EQ(a.TotalSize(), 1u);
  Instance empty(schema_);
  ASSERT_TRUE(a.UnionWith(empty).ok());
  EXPECT_EQ(a.TotalSize(), 1u);
  ASSERT_TRUE(empty.UnionWith(a).ok());
  EXPECT_TRUE(empty.EqualTo(a));
}

TEST_F(InstanceTest, RelationAppendedToSharedSchemaBecomesUsable) {
  // Instances share the schema by pointer; a relation appended after
  // construction grows the instance's store table lazily.
  auto schema = std::make_shared<Schema>(Schema{{"R", 2}});
  Instance inst(schema);
  ASSERT_TRUE(inst.AddInts("R", {1, 2}).ok());
  ASSERT_TRUE(schema->AddRelation("T", 1).ok());
  ASSERT_TRUE(inst.AddInts("T", {9}).ok());
  EXPECT_EQ(inst.TotalSize(), 2u);
  RelationId t = schema->Find("T");
  EXPECT_TRUE(inst.Contains(t, {Value::Int(9)}));
  EXPECT_EQ(inst.ToString(), "{ R(1,2), T(9) }");
}

// --- Instance::ToString against the reference renderer ---------------------

TEST(RenderDifferentialTest, RandomMapgenInstancesAndTheirChases) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    RandomMappingConfig config;
    config.seed = seed;
    config.arity = 1 + static_cast<int>(seed % 3);
    config.existential_vars = static_cast<int>(seed % 2);
    const TgdMapping mapping = GenerateRandomMapping(config);
    const Instance source = GenerateInstance(*mapping.source, 40, 15, seed);
    EXPECT_EQ(source.ToString(), ReferenceInstanceToString(source))
        << "seed " << seed;
    Result<Instance> target = ChaseTgds(mapping, source);
    ASSERT_TRUE(target.ok()) << target.status().ToString();
    EXPECT_EQ(target->ToString(), ReferenceInstanceToString(*target))
        << "seed " << seed;
  }
}

TEST(RenderDifferentialTest, ApiBuiltSpellingsAndRelationNames) {
  // R/R1/RR share prefixes, "R(x" renders facts that interleave with R's,
  // Z is 0-ary, and the long name makes facts agree past their first 8
  // bytes.
  Schema schema{{"R", 2}, {"R1", 1}, {"RR", 1}, {"R(x", 1},
                {"Z", 0}, {"LongRelationName", 2}};
  const std::vector<std::string> spellings = {
      "alice",  "Alice",      "a'b",        "two words", "x,y",
      "f(x)",   ")",          "caf\xc3\xa9", "\xff",      "",
      "_N12",   "_N",         "_N1a",       "_x",        "12",
      "012",    "1a",         "123456789",  "1234567890",
      std::string("a\0b", 3)};
  std::vector<Value> values;
  for (const std::string& s : spellings) {
    values.push_back(Value::MakeConstant(s));
  }
  values.push_back(Value::NullWithLabel(12));
  values.push_back(Value::NullWithLabel(3));

  Instance instance(schema);
  EXPECT_EQ(instance.ToString(), "{  }");
  EXPECT_EQ(instance.ToString(), ReferenceInstanceToString(instance));
  ASSERT_TRUE(instance.Add("Z", {}).ok());
  EXPECT_EQ(instance.ToString(), "{ Z() }");
  for (const Value& a : values) {
    for (const char* unary : {"R1", "RR", "R(x"}) {
      ASSERT_TRUE(instance.Add(unary, {a}).ok());
    }
    for (const Value& b : values) {
      ASSERT_TRUE(instance.Add("R", {a, b}).ok());
      ASSERT_TRUE(instance.Add("LongRelationName", {a, b}).ok());
    }
  }
  EXPECT_EQ(instance.ToString(), ReferenceInstanceToString(instance));
}

}  // namespace
}  // namespace mapinv
