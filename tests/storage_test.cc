// Tests for the columnar storage layer: copy-on-write snapshots/forks,
// instance-owned incremental indexes, and observational equivalence of
// forked vs freshly built instances.

#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/symbol_context.h"
#include "chase/chase_delta.h"
#include "chase/chase_tgd.h"
#include "chase/provenance.h"
#include "data/instance.h"
#include "data/schema.h"
#include "data/value.h"
#include "engine/execution_options.h"
#include "eval/hom.h"
#include "hom_oracles.h"
#include "parser/parser.h"

namespace mapinv {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  Schema schema_{{"R", 2}, {"S", 2}};
};

// ---------------------------------------------------------------------------
// Copy-on-write fork semantics

TEST_F(StorageTest, ForkIsolatesWritesInBothDirections) {
  Instance parent(schema_);
  ASSERT_TRUE(parent.AddInts("R", {1, 2}).ok());
  Instance fork = parent.Fork();
  EXPECT_TRUE(fork.EqualTo(parent));

  ASSERT_TRUE(*fork.AddInts("R", {3, 4}));
  EXPECT_EQ(fork.TotalSize(), 2u);
  EXPECT_EQ(parent.TotalSize(), 1u);
  RelationId r = schema_.Find("R");
  EXPECT_FALSE(parent.Contains(r, {Value::Int(3), Value::Int(4)}));

  ASSERT_TRUE(*parent.AddInts("S", {5, 6}));
  RelationId s = schema_.Find("S");
  EXPECT_FALSE(fork.Contains(s, {Value::Int(5), Value::Int(6)}));
}

TEST_F(StorageTest, ReForkOfAForkIsIndependent) {
  Instance a(schema_);
  ASSERT_TRUE(a.AddInts("R", {1, 2}).ok());
  Instance b = a.Fork();
  ASSERT_TRUE(*b.AddInts("R", {3, 4}));
  Instance c = b.Fork();
  ASSERT_TRUE(*c.AddInts("R", {5, 6}));

  EXPECT_EQ(a.TotalSize(), 1u);
  EXPECT_EQ(b.TotalSize(), 2u);
  EXPECT_EQ(c.TotalSize(), 3u);
  EXPECT_TRUE(a.SubsetOf(b));
  EXPECT_TRUE(b.SubsetOf(c));
  EXPECT_FALSE(c.SubsetOf(b));
}

TEST_F(StorageTest, ForkSharesUntouchedRelationArenas) {
  Instance parent(schema_);
  ASSERT_TRUE(parent.AddInts("R", {1, 2}).ok());
  ASSERT_TRUE(parent.AddInts("S", {3, 4}).ok());
  Instance fork = parent.Snapshot();
  RelationId r = schema_.Find("R");
  RelationId s = schema_.Find("S");
  // A snapshot is O(1): both relations alias the parent's segments.
  EXPECT_EQ(fork.Arena(r).row(0), parent.Arena(r).row(0));
  EXPECT_EQ(fork.Arena(s).row(0), parent.Arena(s).row(0));
  // Writing R in the fork unshares only R's tail segment.
  ASSERT_TRUE(*fork.AddInts("R", {5, 6}));
  EXPECT_NE(fork.Arena(r).row(0), parent.Arena(r).row(0));
  EXPECT_EQ(fork.Arena(s).row(0), parent.Arena(s).row(0));
}

TEST_F(StorageTest, DuplicateAddNeverUnshares) {
  Instance parent(schema_);
  ASSERT_TRUE(parent.AddInts("R", {1, 2}).ok());
  Instance fork = parent.Fork();
  RelationId r = schema_.Find("R");
  // Re-adding an existing row is a no-op and must not clone the store.
  EXPECT_FALSE(*fork.AddInts("R", {1, 2}));
  EXPECT_EQ(fork.Arena(r).row(0), parent.Arena(r).row(0));
}

// ---------------------------------------------------------------------------
// Instance-owned incremental indexes

TEST_F(StorageTest, IndexBuiltOnceAcrossSearches) {
  Instance inst(schema_);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(inst.AddInts("R", {i, i + 1}).ok());
  }
  std::vector<Atom> atoms =
      ParseTgdMapping("R(x,y) -> S(x,y)").ValueOrDie().tgds[0].premise;

  ExecStats stats;
  HomSearch first(inst);
  first.set_stats(&stats);
  ASSERT_TRUE(first.ExistsHom(atoms, HomConstraints{}).ok());
  const uint64_t after_first =
      stats.index_catchup_rows.load(std::memory_order_relaxed);
  EXPECT_EQ(after_first, 10u);

  // A second search over the same instance reuses the instance-owned index:
  // no catch-up work, even though the HomSearch object is brand new. (This
  // is the regression test for HomSearch construction rebuilding buckets.)
  HomSearch second(inst);
  second.set_stats(&stats);
  ASSERT_TRUE(second.ExistsHom(atoms, HomConstraints{}).ok());
  EXPECT_EQ(stats.index_catchup_rows.load(std::memory_order_relaxed),
            after_first);
}

TEST_F(StorageTest, IndexCatchesUpIncrementallyAfterGrowth) {
  Instance inst(schema_);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(inst.AddInts("R", {i, i}).ok());
  }
  RelationId r = schema_.Find("R");
  size_t catchup = 0;
  inst.IndexFor(r, &catchup);
  EXPECT_EQ(catchup, 8u);
  inst.IndexFor(r, &catchup);
  EXPECT_EQ(catchup, 0u);

  ASSERT_TRUE(inst.AddInts("R", {100, 100}).ok());
  ASSERT_TRUE(inst.AddInts("R", {101, 101}).ok());
  const RelationIndex& index = inst.IndexFor(r, &catchup);
  EXPECT_EQ(catchup, 2u);  // only the new rows are scanned
  auto it = index.positions[0].buckets.find(Value::Int(100));
  ASSERT_NE(it, index.positions[0].buckets.end());
  EXPECT_EQ(it->second.size(), 1u);
}

TEST_F(StorageTest, ForkInheritsIndexAndCatchesUpOnlyItsOwnRows) {
  Instance parent(schema_);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(parent.AddInts("R", {i, i + 1}).ok());
  }
  RelationId r = schema_.Find("R");
  size_t catchup = 0;
  parent.IndexFor(r, &catchup);
  ASSERT_EQ(catchup, 6u);

  Instance fork = parent.Fork();
  fork.IndexFor(r, &catchup);
  EXPECT_EQ(catchup, 0u);  // the built index came along with the store

  ASSERT_TRUE(*fork.AddInts("R", {42, 43}));
  const RelationIndex& index = fork.IndexFor(r, &catchup);
  EXPECT_EQ(catchup, 1u);
  auto it = index.positions[0].buckets.find(Value::Int(42));
  ASSERT_NE(it, index.positions[0].buckets.end());
  EXPECT_EQ(it->second, std::vector<TupleRef>{6});

  // The parent never sees the fork's rows.
  parent.IndexFor(r, &catchup);
  EXPECT_EQ(catchup, 0u);
  EXPECT_FALSE(parent.Contains(r, {Value::Int(42), Value::Int(43)}));
}

TEST_F(StorageTest, IndexBucketsListRowsInInsertionOrder) {
  Instance inst(schema_);
  ASSERT_TRUE(inst.AddInts("R", {7, 1}).ok());
  ASSERT_TRUE(inst.AddInts("R", {7, 2}).ok());
  ASSERT_TRUE(inst.AddInts("R", {7, 3}).ok());
  RelationId r = schema_.Find("R");
  const RelationIndex& index = inst.IndexFor(r);
  auto it = index.positions[0].buckets.find(Value::Int(7));
  ASSERT_NE(it, index.positions[0].buckets.end());
  EXPECT_EQ(it->second, (std::vector<TupleRef>{0, 1, 2}));
}

// ---------------------------------------------------------------------------
// Observational equivalence: a forked-and-extended instance behaves exactly
// like one built fresh with the same facts.

// Collects the multiset of homomorphisms as sorted (var,value-string) lists.
std::multiset<std::string> HomMultiset(const Instance& instance,
                                       const std::vector<Atom>& atoms) {
  std::multiset<std::string> out;
  Status status = ReferenceForEachHom(
      instance, atoms, HomConstraints{}, Assignment{},
      [&](const Assignment& h) {
        std::map<VarId, std::string> sorted;
        for (const auto& [var, value] : h) sorted[var] = value.ToString();
        std::string row;
        for (const auto& [var, text] : sorted) {
          row += std::to_string(var) + "=" + text + ";";
        }
        out.insert(std::move(row));
        return true;
      });
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out;
}

TEST_F(StorageTest, ForkedInstanceIsObservationallyEqualToFreshOne) {
  Instance base(schema_);
  ASSERT_TRUE(base.AddInts("R", {1, 2}).ok());
  ASSERT_TRUE(base.AddInts("S", {2, 3}).ok());
  // Force the index to exist before forking so the fork starts from a
  // partially indexed store.
  base.IndexFor(schema_.Find("R"));

  Instance forked = base.Fork();
  ASSERT_TRUE(forked.AddInts("R", {4, 5}).ok());
  ASSERT_TRUE(forked.AddInts("S", {5, 1}).ok());

  Instance fresh(schema_);
  ASSERT_TRUE(fresh.AddInts("R", {1, 2}).ok());
  ASSERT_TRUE(fresh.AddInts("S", {2, 3}).ok());
  ASSERT_TRUE(fresh.AddInts("R", {4, 5}).ok());
  ASSERT_TRUE(fresh.AddInts("S", {5, 1}).ok());

  EXPECT_TRUE(forked.EqualTo(fresh));
  EXPECT_EQ(forked.ToString(), fresh.ToString());
  EXPECT_EQ(forked.ActiveDomain(), fresh.ActiveDomain());

  std::vector<Atom> atoms =
      ParseTgdMapping("R(x,y), S(y,z) -> T(x,z)").ValueOrDie().tgds[0].premise;
  EXPECT_EQ(HomMultiset(forked, atoms), HomMultiset(fresh, atoms));
}

TEST_F(StorageTest, ChaseOverForkMatchesChaseOverFresh) {
  TgdMapping mapping =
      ParseTgdMapping("R(x,y) -> EXISTS z . S(x,z), S(z,y)").ValueOrDie();
  Instance fresh(mapping.source);
  ASSERT_TRUE(fresh.AddInts("R", {1, 2}).ok());
  ASSERT_TRUE(fresh.AddInts("R", {2, 3}).ok());

  Instance base(mapping.source);
  ASSERT_TRUE(base.AddInts("R", {1, 2}).ok());
  Instance forked = base.Fork();
  ASSERT_TRUE(forked.AddInts("R", {2, 3}).ok());

  auto chase = [&](const Instance& source) {
    SymbolContext symbols;
    ExecutionOptions options;
    options.symbols = &symbols;
    return ChaseTgds(mapping, source, options).ValueOrDie().ToString();
  };
  EXPECT_EQ(chase(forked), chase(fresh));
}

TEST_F(StorageTest, ForkAppendChaseDeltaMatchesFreshChase) {
  // The COW-storage face of the incremental chase: chase a base source, fork
  // it, append rows to the fork, absorb them with ChaseDelta — the result
  // must be hom-equivalent to a fresh full chase over the fork, and the
  // parent source and its chased target must be untouched.
  TgdMapping mapping =
      ParseTgdMapping("R(x,y) -> EXISTS z . S(x,z), S(z,y)").ValueOrDie();
  Instance base(mapping.source);
  ASSERT_TRUE(base.AddInts("R", {1, 2}).ok());
  ASSERT_TRUE(base.AddInts("R", {2, 3}).ok());

  SymbolContext symbols;
  ExecutionOptions options;
  options.symbols = &symbols;
  Instance base_target = ChaseTgds(mapping, base, options).ValueOrDie();
  const std::string base_rendered = base_target.ToString();

  Instance grown = base.Fork();
  const DeltaWatermark mark = WatermarkOf(grown);
  ASSERT_TRUE(grown.AddInts("R", {3, 4}).ok());
  ASSERT_TRUE(grown.AddInts("R", {9, 9}).ok());
  Instance delta_target = base_target.Fork();
  ChaseProvenance provenance;
  Result<bool> complete =
      ChaseDelta(mapping, grown, mark, &delta_target, &provenance, options);
  ASSERT_TRUE(complete.ok()) << complete.status().ToString();
  EXPECT_TRUE(*complete);

  Instance fresh = ChaseTgds(mapping, grown).ValueOrDie();
  EXPECT_TRUE(InstancesHomEquivalent(delta_target, fresh).ValueOrDie())
      << "incremental: " << delta_target.ToString()
      << "\nfresh: " << fresh.ToString();
  // COW isolation: the parent pair never sees the fork's writes.
  EXPECT_EQ(base.TotalSize(), 2u);
  EXPECT_EQ(base_target.ToString(), base_rendered);
  EXPECT_EQ(provenance.FiredCount(),
            delta_target.TotalSize() - base_target.TotalSize());
}

// ---------------------------------------------------------------------------
// Stats plumbing

TEST_F(StorageTest, ChaseRecordsArenaBytes) {
  TgdMapping mapping = ParseTgdMapping("R(x,y) -> S(x,y)").ValueOrDie();
  Instance source(mapping.source);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(source.AddInts("R", {i, i + 1}).ok());
  }
  SymbolContext symbols;
  ExecStats stats;
  ExecutionOptions options;
  options.symbols = &symbols;
  options.stats = &stats;
  ASSERT_TRUE(ChaseTgds(mapping, source, options).ok());
  EXPECT_GT(stats.tuples_arena_bytes.load(std::memory_order_relaxed), 0u);
}

}  // namespace
}  // namespace mapinv
