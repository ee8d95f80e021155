// Tests for the columnar storage layer: copy-on-write snapshots/forks,
// instance-owned incremental indexes, and observational equivalence of
// forked vs freshly built instances.

#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <string>
#include <utility>
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
  std::span<const TupleRef> bucket =
      index.positions[0].Bucket(Value::Int(100));
  ASSERT_FALSE(bucket.empty());
  EXPECT_EQ(bucket.size(), 1u);
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
  std::span<const TupleRef> bucket =
      index.positions[0].Bucket(Value::Int(42));
  ASSERT_FALSE(bucket.empty());
  EXPECT_EQ(std::vector<TupleRef>(bucket.begin(), bucket.end()),
            std::vector<TupleRef>{6});

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
  std::span<const TupleRef> bucket =
      index.positions[0].Bucket(Value::Int(7));
  ASSERT_FALSE(bucket.empty());
  EXPECT_EQ(std::vector<TupleRef>(bucket.begin(), bucket.end()),
            (std::vector<TupleRef>{0, 1, 2}));
}

// ---------------------------------------------------------------------------
// Flat dedup and index tables against a reference model

// One instance under test and its reference: each relation's rows in
// insertion order, and the index watermark the instance's store carries.
// Forks share a watermark until a write clones the store (AddRow of a new
// row, AddRows or Reserve), exactly as they share the store itself.
struct ModelInstance {
  Instance inst;
  std::vector<std::vector<Tuple>> rows;
  std::vector<std::set<Tuple>> sets;
  std::vector<std::shared_ptr<size_t>> indexed;

  explicit ModelInstance(const Schema& schema)
      : inst(schema),
        rows(schema.size()),
        sets(schema.size()),
        indexed(schema.size()) {
    for (auto& w : indexed) w = std::make_shared<size_t>(0);
  }

  void Unshare(RelationId r) {
    indexed[r] = std::make_shared<size_t>(*indexed[r]);
  }

  // Records a row the instance reported new.
  void Record(RelationId r, const Tuple& row) {
    rows[r].push_back(row);
    sets[r].insert(row);
  }
};

// Compares `m.inst` with its reference: every row by FindRow/ContainsRow,
// absent rows, the catch-up count of IndexFor and every bucket's exact
// ascending contents (rebuilt from the reference rows).
::testing::AssertionResult MatchesModel(ModelInstance& m) {
  const Schema& schema = m.inst.schema();
  for (RelationId r = 0; r < schema.size(); ++r) {
    const std::string name = schema.name(r);
    const std::vector<Tuple>& rows = m.rows[r];
    if (m.inst.NumRows(r) != rows.size()) {
      return ::testing::AssertionFailure()
             << name << ": " << m.inst.NumRows(r) << " rows, reference "
             << rows.size();
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      const std::optional<TupleRef> ref = m.inst.FindRow(r, rows[i]);
      if (!ref.has_value() || *ref != i || !m.inst.ContainsRow(r, rows[i])) {
        return ::testing::AssertionFailure()
               << name << ": row " << i << " not found at its ref";
      }
    }
    if (schema.arity(r) > 0) {
      Tuple absent(schema.arity(r), Value::Int(-1));
      absent.back() = Value::NullWithLabel(999999);
      if (m.inst.ContainsRow(r, absent) ||
          m.inst.FindRow(r, absent).has_value()) {
        return ::testing::AssertionFailure() << name << ": phantom row";
      }
    }
    size_t catchup = 0;
    const RelationIndex& index = m.inst.IndexFor(r, &catchup);
    if (catchup != rows.size() - *m.indexed[r]) {
      return ::testing::AssertionFailure()
             << name << ": catch-up " << catchup << ", reference "
             << rows.size() - *m.indexed[r];
    }
    *m.indexed[r] = rows.size();
    if (index.positions.size() != schema.arity(r)) {
      return ::testing::AssertionFailure() << name << ": index shape";
    }
    for (uint32_t p = 0; p < schema.arity(r); ++p) {
      std::map<Value, std::vector<TupleRef>> buckets;
      for (size_t i = 0; i < rows.size(); ++i) {
        buckets[rows[i][p]].push_back(static_cast<TupleRef>(i));
      }
      for (const auto& [value, refs] : buckets) {
        const std::span<const TupleRef> got = index.positions[p].Bucket(value);
        if (!std::equal(got.begin(), got.end(), refs.begin(), refs.end())) {
          return ::testing::AssertionFailure()
                 << name << "[" << p << "]: bucket of " << value.ToString()
                 << " differs (" << got.size() << " refs, reference "
                 << refs.size() << ")";
        }
      }
      if (!index.positions[p].Bucket(Value::Int(-1)).empty() ||
          !index.positions[p].Bucket(Value::NullWithLabel(999999)).empty()) {
        return ::testing::AssertionFailure()
               << name << "[" << p << "]: bucket for an absent value";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// Seeded random sequences of AddRow, AddRows (with duplicates inside each
// batch and against stored rows), Reserve, Fork with writes on both sides,
// Save -> Load and writes under a spill budget, checked against the model
// at random intervals. K grows past 4,096 rows, so its dedup table grows
// from the minimum size to 16,384 slots, by single rows and by whole
// batches, and K spans several sealed segments (which the budget evicts and
// probes fault back in). K's first column holds thousands of distinct
// values, so its index table grows as far; its second column and W's first
// hold few values that interleave, so their runs fill, move to the pool's
// end at double capacity, and grow in place there. Z is 0-ary.
TEST_F(StorageTest, FlatTablesMatchReferenceAcrossForksGrowthAndReload) {
  const Schema schema{{"K", 2}, {"W", 3}, {"Z", 0}};
  const RelationId k = schema.Find("K");
  const RelationId w = schema.Find("W");
  const RelationId z = schema.Find("Z");
  ExecStats spill_stats;
  size_t most_k_rows = 0;
  for (uint32_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(seed);
    auto below = [&rng](uint32_t n) { return static_cast<int>(rng() % n); };
    auto random_row = [&](RelationId r) -> Tuple {
      if (r == k) return {Value::Int(below(6000)), Value::Int(below(4))};
      if (r == w) {
        return {Value::Int(below(40)), Value::Int(below(400)),
                below(2) == 0 ? Value::Int(below(8))
                              : Value::NullWithLabel(below(8))};
      }
      return {};
    };
    auto pick_relation = [&]() -> RelationId {
      const int roll = below(10);
      return roll < 6 ? k : roll < 9 ? w : z;
    };
    int fresh = 1000000;  // constants no random row uses
    std::vector<ModelInstance> live;
    live.emplace_back(schema);

    for (int op = 0; op < 400; ++op) {
      SCOPED_TRACE("op " + std::to_string(op));
      const size_t at = below(static_cast<uint32_t>(live.size()));
      ModelInstance& m = live[at];
      const int kind = below(20);
      if (kind < 6) {
        // AddRow.
        const RelationId r = pick_relation();
        for (int i = 0; i < 8; ++i) {
          const Tuple row = random_row(r);
          const bool is_new = !m.sets[r].contains(row);
          const Result<bool> added = m.inst.AddRow(r, row);
          ASSERT_TRUE(added.ok());
          ASSERT_EQ(*added, is_new);
          if (is_new) {
            m.Unshare(r);
            m.Record(r, row);
          }
        }
      } else if (kind < 13) {
        // AddRows: repeats of earlier batch rows and of stored rows.
        const RelationId r = pick_relation();
        const size_t count = 1 + below(400);
        std::vector<Tuple> batch;
        for (size_t i = 0; i < count; ++i) {
          const int roll = below(8);
          if (roll < 2 && !batch.empty()) {
            batch.push_back(batch[below(static_cast<uint32_t>(batch.size()))]);
          } else if (roll < 3 && !m.rows[r].empty()) {
            batch.push_back(
                m.rows[r][below(static_cast<uint32_t>(m.rows[r].size()))]);
          } else {
            batch.push_back(random_row(r));
          }
        }
        std::vector<Value> flat;
        for (const Tuple& row : batch) {
          flat.insert(flat.end(), row.begin(), row.end());
        }
        std::vector<uint8_t> added;
        const Result<size_t> inserted =
            m.inst.AddRows(r, flat.data(), count, &added);
        ASSERT_TRUE(inserted.ok());
        m.Unshare(r);
        size_t expected = 0;
        for (size_t i = 0; i < count; ++i) {
          const bool is_new = !m.sets[r].contains(batch[i]);
          ASSERT_EQ(added[i], is_new ? 1 : 0) << "batch row " << i;
          if (is_new) {
            m.Record(r, batch[i]);
            ++expected;
          }
        }
        ASSERT_EQ(*inserted, expected);
      } else if (kind < 14) {
        const RelationId r = pick_relation();
        m.inst.Reserve(r, 1 + below(3000));
        m.Unshare(r);
      } else if (kind < 16) {
        // Fork into a new slot (or over another one), then write a row on
        // each side that the other side must not see.
        size_t to = live.size();
        if (to < 3) {
          live.push_back(live[at]);
        } else {
          to = (at + 1 + below(2)) % 3;
          live[to] = live[at];
        }
        for (const auto& [mine, other] :
             {std::pair{at, to}, std::pair{to, at}}) {
          const Tuple row = {Value::Int(fresh++), Value::Int(below(4))};
          ASSERT_TRUE(*live[mine].inst.AddRow(k, row));
          live[mine].Unshare(k);
          live[mine].Record(k, row);
          EXPECT_FALSE(live[other].inst.ContainsRow(k, row));
          EXPECT_FALSE(live[other].inst.FindRow(k, row).has_value());
        }
      } else if (kind < 17) {
        // Save -> Load: the loaded instance rebuilds dedup and index lazily.
        const std::string bytes = m.inst.SaveToBytes();
        Result<Instance> loaded =
            Instance::LoadFromBytes(bytes.data(), bytes.size());
        ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
        m.inst = std::move(*loaded);
        for (auto& watermark : m.indexed) {
          watermark = std::make_shared<size_t>(0);
        }
      } else if (kind < 18) {
        // Arm a budget below one segment: later writes evict every
        // unshared sealed segment, and probes fault them back in.
        m.inst.SetMemoryBudget(below(2) == 0 ? 1 : 0, "", &spill_stats);
      } else {
        ASSERT_TRUE(MatchesModel(m));
      }
      most_k_rows = std::max(most_k_rows, live[at].rows[k].size());
    }
    for (ModelInstance& m : live) ASSERT_TRUE(MatchesModel(m));
  }
  // The sequences reached the sizes the comment above relies on.
  EXPECT_GT(most_k_rows, 4096u);
  EXPECT_GT(spill_stats.segments_spilled.load(), 0u);
  EXPECT_GT(spill_stats.segments_faulted.load(), 0u);
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
