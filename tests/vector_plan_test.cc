// Differential tests for the vectorized batch executor and the bulk fire
// path: over every generator family, random shapes, batch sizes that
// straddle block boundaries, and thread counts, the vectorized engine must
// produce the exact hom enumeration order and bit-identical chase outputs
// of the scalar tuple-at-a-time path it replaced — including fresh-null
// labels, provenance, and delta/reverse/SO surfaces. Plus unit tests for
// the bulk storage primitives (Instance::AddRows / Reserve).

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/symbol_context.h"
#include "chase/chase_delta.h"
#include "chase/chase_reverse.h"
#include "chase/chase_so.h"
#include "chase/chase_tgd.h"
#include "chase/provenance.h"
#include "engine/execution_options.h"
#include "engine/parallel_chase.h"
#include "eval/hom.h"
#include "eval/vector_plan.h"
#include "inversion/cq_maximum_recovery.h"
#include "mapgen/generators.h"
#include "parser/parser.h"
#include "rewrite/skolemize.h"

namespace mapinv {
namespace {

// The batch sizes every differential below sweeps: degenerate (1), prime and
// smaller than most row counts (7, so blocks straddle every boundary), and
// the production default (1024).
const size_t kBatches[] = {1, 7, 1024};

// The generator families of the bench suite, small enough for tests.
std::vector<TgdMapping> FamilyMappings() {
  std::vector<TgdMapping> out;
  out.push_back(CopyMapping(2, 2));
  out.push_back(ProjectionMapping(3));
  out.push_back(ChainJoinMapping(3));
  out.push_back(ExponentialFamilyMapping(2, 2));
  return out;
}

// Renders an ordered hom enumeration; order matters (the chase's null
// labelling depends on it), so no sorting here.
std::vector<std::string> OrderedHoms(const HomSearch& search,
                                     const std::vector<Atom>& atoms) {
  std::vector<std::string> out;
  Status status = search.ForEachHom(atoms, HomConstraints{}, Assignment{},
                                    [&](const Assignment& h) {
                                      std::vector<std::pair<VarId, std::string>>
                                          items;
                                      for (const auto& [v, val] : h) {
                                        items.emplace_back(v, val.ToString());
                                      }
                                      std::sort(items.begin(), items.end());
                                      std::string s;
                                      for (const auto& [v, val] : items) {
                                        s += std::to_string(v) + "=" + val +
                                             ";";
                                      }
                                      out.push_back(std::move(s));
                                      return true;
                                    });
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out;
}

TEST(VectorPlanDifferentialTest, HomOrderMatchesScalarAcrossFamilies) {
  for (const TgdMapping& mapping : FamilyMappings()) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      Instance inst = GenerateInstance(*mapping.source, /*tuples=*/12,
                                       /*domain=*/6, seed);
      HomSearch search(inst);
      for (const Tgd& tgd : mapping.tgds) {
        search.set_vector_batch(0);  // scalar oracle
        const std::vector<std::string> scalar =
            OrderedHoms(search, tgd.premise);
        for (size_t batch : kBatches) {
          search.set_vector_batch(batch);
          EXPECT_EQ(OrderedHoms(search, tgd.premise), scalar)
              << "seed=" << seed << " batch=" << batch;
        }
      }
    }
  }
}

TEST(VectorPlanDifferentialTest, HomOrderMatchesScalarOnRandomShapes) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RandomMappingConfig config;
    config.seed = seed;
    config.num_tgds = 3;
    config.source_relations = 3;
    config.premise_atoms = 3;
    config.premise_vars = 4;
    config.arity = 3;
    TgdMapping mapping = GenerateRandomMapping(config);
    Instance inst = GenerateInstance(*mapping.source, /*tuples=*/30,
                                     /*domain=*/5, seed * 11 + 2);
    HomSearch search(inst);
    for (const Tgd& tgd : mapping.tgds) {
      search.set_vector_batch(0);
      const std::vector<std::string> scalar = OrderedHoms(search, tgd.premise);
      for (size_t batch : kBatches) {
        search.set_vector_batch(batch);
        EXPECT_EQ(OrderedHoms(search, tgd.premise), scalar)
            << "seed=" << seed << " batch=" << batch;
      }
    }
  }
}

// Execution options for one run of a given shape. A fresh SymbolContext per
// run makes null labels comparable byte for byte; `max_new_facts` caps the
// run under kPartial, so a budget degrades instead of failing.
ExecutionOptions ShapeOptions(SymbolContext* symbols, ExecStats* stats,
                              bool vectorized, size_t batch,
                              size_t max_new_facts = ExecutionOptions{}
                                                         .max_new_facts) {
  ExecutionOptions options;
  options.symbols = symbols;
  options.stats = stats;
  if (!vectorized) {
    options.vector_batch = 0;
  } else if (batch != 0) {
    options.vector_batch = batch;
  }
  options.max_new_facts = max_new_facts;
  options.on_exhausted = OnExhausted::kPartial;
  return options;
}

// What a run must reproduce besides its output: its chase steps and whether
// it stopped short.
std::string StepsAndPartial(const ExecStats& stats) {
  return "\nchase_steps=" + std::to_string(stats.chase_steps.load()) +
         (stats.partial.load() ? " partial" : " complete");
}

// The budget edge, where the bulk paths fall back to per-trigger firing:
// under kPartial, at every max_new_facts from 0 up to the full output size
// (the first budget the scalar run completes within), every batch size must
// stop at the scalar run's trigger. `run(vectorized, batch, max_new_facts)`
// renders one run, ending in StepsAndPartial.
template <typename Run>
void ExpectBudgetEdgeMatchesScalar(const Run& run, const std::string& where) {
  for (size_t budget = 0;; ++budget) {
    const std::string scalar = run(false, 0, budget);
    ASSERT_FALSE(scalar.empty()) << where;
    for (size_t batch : kBatches) {
      EXPECT_EQ(run(true, batch, budget), scalar)
          << where << " max_new_facts=" << budget << " batch=" << batch;
    }
    if (scalar.ends_with(" complete")) break;
  }
}

// One chase run under a given execution shape, rendered with its chase
// steps and partial flag.
std::string ChaseText(const TgdMapping& mapping, const Instance& source,
                      bool vectorized, size_t batch, int threads,
                      bool oblivious,
                      size_t max_new_facts = ExecutionOptions{}.max_new_facts) {
  SymbolContext symbols;
  ExecStats stats;
  ExecutionOptions options =
      ShapeOptions(&symbols, &stats, vectorized, batch, max_new_facts);
  options.threads = threads;
  options.oblivious = oblivious;
  Result<Instance> result = ChaseTgds(mapping, source, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result.ValueOrDie().ToString() + StepsAndPartial(stats)
                     : std::string();
}

TEST(VectorPlanDifferentialTest, ChaseBitIdenticalAcrossExecutionShapes) {
  std::vector<TgdMapping> mappings = FamilyMappings();
  // An existential + repeated-variable mapping: the standard chase's bulk
  // path must decline the existential tgd (satisfaction probes) while the
  // oblivious sweep below exercises bulk fresh-null pregeneration.
  mappings.push_back(ParseTgdMapping("S1(x) -> T(x)\n"
                                     "S2(x) -> T(x)\n"
                                     "P(x,y) -> Q(x,x,y)\n"
                                     "E(x) -> F(x,y)\n")
                         .ValueOrDie());
  for (const TgdMapping& mapping : mappings) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      Instance source = GenerateInstance(*mapping.source, /*tuples=*/12,
                                         /*domain=*/6, seed);
      for (bool oblivious : {false, true}) {
        const std::string scalar =
            ChaseText(mapping, source, /*vectorized=*/false, 0, 1, oblivious);
        ASSERT_FALSE(scalar.empty());
        for (int threads : {1, 4}) {
          for (size_t batch : kBatches) {
            EXPECT_EQ(ChaseText(mapping, source, true, batch, threads,
                                oblivious),
                      scalar)
                << "seed=" << seed << " threads=" << threads
                << " batch=" << batch << " oblivious=" << oblivious;
          }
        }
        ExpectBudgetEdgeMatchesScalar(
            [&](bool vectorized, size_t batch, size_t max_new_facts) {
              return ChaseText(mapping, source, vectorized, batch, 1,
                               oblivious, max_new_facts);
            },
            "seed=" + std::to_string(seed) +
                " oblivious=" + std::to_string(oblivious));
      }
    }
  }
}

TEST(VectorPlanDifferentialTest, DeltaChaseAndProvenanceMatchScalar) {
  TgdMapping mapping = ParseTgdMapping("R(x,y), S(y,z) -> T(x,z)\n"
                                       "R(x,y) -> U(x,x)\n")
                           .ValueOrDie();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Instance source = GenerateInstance(*mapping.source, /*tuples=*/10,
                                       /*domain=*/5, seed);
    // `max_new_facts` caps the delta; the base chase always completes.
    auto run = [&](bool vectorized, size_t batch,
                   size_t max_new_facts = ExecutionOptions{}.max_new_facts) {
      SymbolContext symbols;
      ExecStats base_stats;
      Instance target =
          ChaseTgds(mapping, source,
                    ShapeOptions(&symbols, &base_stats, vectorized, batch))
              .ValueOrDie();
      Instance grown = source.Fork();
      const DeltaWatermark mark = WatermarkOf(grown);
      EXPECT_TRUE(grown.AddInts("R", {91, 92}).ok());
      EXPECT_TRUE(grown.AddInts("S", {92, 93}).ok());
      ChaseProvenance provenance;
      ExecStats stats;
      Result<bool> complete = ChaseDelta(
          mapping, grown, mark, &target, &provenance,
          ShapeOptions(&symbols, &stats, vectorized, batch, max_new_facts));
      EXPECT_TRUE(complete.ok()) << complete.status().ToString();
      EXPECT_EQ(complete.ok() && *complete, !stats.partial.load());
      std::string text = target.ToString() + "\n";
      for (RelationId rel = 0; rel < mapping.target->size(); ++rel) {
        for (size_t ref = 0; ref < target.NumRows(rel); ++ref) {
          text += std::to_string(
                      provenance.TgdFor(rel, static_cast<TupleRef>(ref))) +
                  ",";
        }
        text += "\n";
      }
      return text + StepsAndPartial(stats);
    };
    const std::string scalar = run(false, 0);
    for (size_t batch : kBatches) {
      EXPECT_EQ(run(true, batch), scalar) << "seed=" << seed
                                          << " batch=" << batch;
    }
    ExpectBudgetEdgeMatchesScalar(run, "seed=" + std::to_string(seed));
  }
}

TEST(VectorPlanDifferentialTest, ReverseWorldsMatchScalar) {
  TgdMapping mapping =
      ParseTgdMapping("R(x,y), S(y,z) -> T(x,z)").ValueOrDie();
  ReverseMapping reverse = CqMaximumRecovery(mapping).ValueOrDie();
  Instance target =
      ParseInstance("{ T(1,5), T(3,5), T(2,2) }", *reverse.source)
          .ValueOrDie();
  auto run = [&](bool vectorized, size_t batch, int threads) {
    SymbolContext symbols;
    ExecutionOptions options;
    options.symbols = &symbols;
    if (!vectorized) {
      options.vector_batch = 0;
    } else if (batch != 0) {
      options.vector_batch = batch;
    }
    options.threads = threads;
    std::vector<Instance> worlds =
        ChaseReverseWorlds(reverse, target, options).ValueOrDie();
    std::string text;
    for (const Instance& world : worlds) text += world.ToString() + "\n";
    return text;
  };
  const std::string scalar = run(false, 0, 1);
  for (int threads : {1, 4}) {
    for (size_t batch : kBatches) {
      EXPECT_EQ(run(true, batch, threads), scalar)
          << "threads=" << threads << " batch=" << batch;
    }
  }
}

TEST(VectorPlanDifferentialTest, SOChaseMatchesScalar) {
  TgdMapping tgds = ParseTgdMapping("R(x,y) -> T(x,z)\n"
                                    "R(x,y), S(y,z) -> V(x,z)\n")
                        .ValueOrDie();
  SOTgdMapping mapping = TgdsToPlainSOTgd(tgds).ValueOrDie();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Instance source = GenerateInstance(*mapping.source, /*tuples=*/10,
                                       /*domain=*/5, seed);
    auto run = [&](bool vectorized, size_t batch,
                   size_t max_new_facts = ExecutionOptions{}.max_new_facts) {
      SymbolContext symbols;
      ExecStats stats;
      Result<Instance> result = ChaseSOTgd(
          mapping, source,
          ShapeOptions(&symbols, &stats, vectorized, batch, max_new_facts));
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      return result.ok()
                 ? result.ValueOrDie().ToString() + StepsAndPartial(stats)
                 : std::string();
    };
    const std::string scalar = run(false, 0);
    ASSERT_FALSE(scalar.empty());
    for (size_t batch : kBatches) {
      EXPECT_EQ(run(true, batch), scalar) << "seed=" << seed
                                          << " batch=" << batch;
    }
    ExpectBudgetEdgeMatchesScalar(run, "seed=" + std::to_string(seed));
  }
}

// ---------------------------------------------------------------------------
// Edge shapes of the block scan

TEST(VectorPlanTest, EmptyRelationYieldsNoHomsAndEmptyChase) {
  TgdMapping mapping =
      ParseTgdMapping("R(x,y), S(y,z) -> T(x,z)").ValueOrDie();
  Instance source{mapping.source};  // every relation empty
  HomSearch search(source);
  for (size_t batch : kBatches) {
    search.set_vector_batch(batch);
    EXPECT_TRUE(OrderedHoms(search, mapping.tgds[0].premise).empty());
  }
  Instance target = ChaseTgds(mapping, source, {}).ValueOrDie();
  EXPECT_EQ(target.ToString(), "{  }");
}

TEST(VectorPlanTest, AllFilteredBlocksProduceNothing) {
  // 2000 rows of R(i, i+1): the repeated-variable premise R(x,x) filters
  // every row of every block, across many full blocks at batch 1024.
  Instance inst(Schema{{"R", 2}});
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(inst.AddInts("R", {i, i + 1}).ok());
  }
  HomSearch search(inst);
  const std::vector<Atom> premise = {Atom::Vars("R", {"x", "x"})};
  for (size_t batch : kBatches) {
    search.set_vector_batch(batch);
    EXPECT_TRUE(OrderedHoms(search, premise).empty()) << "batch=" << batch;
  }
}

TEST(VectorPlanTest, BatchBoundaryStraddlingMatchesScalar) {
  // 1030 rows: the default block size (1024) splits the scan 1024 + 6, and
  // batch 7 straddles every boundary; the join fans out mid-block.
  Instance inst(Schema{{"R", 2}, {"S", 2}});
  for (int i = 0; i < 1030; ++i) {
    ASSERT_TRUE(inst.AddInts("R", {i % 13, i}).ok());
  }
  for (int i = 0; i < 13; ++i) {
    ASSERT_TRUE(inst.AddInts("S", {i, i + 1}).ok());
  }
  HomSearch search(inst);
  const std::vector<Atom> premise = {Atom::Vars("R", {"x", "y"}),
                                     Atom::Vars("S", {"x", "z"})};
  search.set_vector_batch(0);
  const std::vector<std::string> scalar = OrderedHoms(search, premise);
  ASSERT_EQ(scalar.size(), 1030u);
  for (size_t batch : kBatches) {
    search.set_vector_batch(batch);
    EXPECT_EQ(OrderedHoms(search, premise), scalar) << "batch=" << batch;
  }
}

TEST(VectorPlanTest, VectorCountersFlowAndScalarCountersStayQuiet) {
  TgdMapping mapping =
      ParseTgdMapping("R(x,y), S(y,z) -> T(x,z)").ValueOrDie();
  Instance source = GenerateInstance(*mapping.source, /*tuples=*/50,
                                     /*domain=*/8, 3);
  ExecStats stats;
  ExecutionOptions options;
  options.stats = &stats;
  ASSERT_TRUE(ChaseTgds(mapping, source, options).ok());
  EXPECT_GT(stats.vector_blocks_scanned.load(), 0u);
  EXPECT_GT(stats.vector_rows_scanned.load(), 0u);
  EXPECT_GT(stats.vector_rows_selected.load(), 0u);
  EXPECT_GT(stats.bulk_rows_appended.load(), 0u);
  // The scalar inner-loop counters belong to the scalar path.
  EXPECT_EQ(stats.hom_bucket_candidates.load(), 0u);
  EXPECT_EQ(stats.hom_slot_bindings.load(), 0u);

  ExecStats scalar_stats;
  options.stats = &scalar_stats;
  options.vector_batch = 0;
  ASSERT_TRUE(ChaseTgds(mapping, source, options).ok());
  EXPECT_EQ(scalar_stats.vector_blocks_scanned.load(), 0u);
  EXPECT_EQ(scalar_stats.bulk_rows_appended.load(), 0u);
  EXPECT_GT(scalar_stats.hom_bucket_candidates.load(), 0u);
}

TEST(VectorPlanTest, WidePlansRouteToTheScalarExecutor) {
  // Plans wider than kVectorMaxPlanSteps (instance-as-query searches like
  // core folding) must run scalar even with vectorized execution on: batch
  // setup is per-step and the first match lands only after cascading through
  // every level, which turns early-stopped existence probes pathological.
  Instance inst(Schema{{"R", 2}});
  ASSERT_TRUE(inst.AddInts("R", {0, 0}).ok());  // self-loop: one hom exists
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(inst.AddInts("R", {i, i + 1}).ok());
  }
  std::vector<Atom> chain;
  for (int i = 0; i <= static_cast<int>(kVectorMaxPlanSteps); ++i) {
    chain.push_back(Atom::Vars(
        "R", {"x" + std::to_string(i), "x" + std::to_string(i + 1)}));
  }
  HomSearch search(inst);
  search.set_vector_batch(0);
  const std::vector<std::string> scalar = OrderedHoms(search, chain);
  ASSERT_FALSE(scalar.empty());
  search.set_vector_batch(1024);
  ExecStats stats;
  search.set_stats(&stats);
  EXPECT_EQ(OrderedHoms(search, chain), scalar);
  EXPECT_EQ(stats.vector_blocks_scanned.load(), 0u) << "wide plan vectorized";
  EXPECT_GT(stats.hom_bucket_candidates.load(), 0u);
}

// ---------------------------------------------------------------------------
// Bulk storage primitives

TEST(BulkAppendTest, AddRowsDedupsWithinAndAcrossBatches) {
  Instance inst(Schema{{"R", 2}});
  ASSERT_TRUE(inst.AddInts("R", {1, 2}).ok());
  const RelationId rel = inst.schema().Require("R").ValueOrDie();

  // Batch with an intra-batch duplicate, a duplicate of an existing row,
  // and two genuinely new rows (one repeated).
  const std::vector<Value> rows = {
      Value::Int(3), Value::Int(4),  // new
      Value::Int(1), Value::Int(2),  // dup of existing
      Value::Int(3), Value::Int(4),  // intra-batch dup
      Value::Int(5), Value::Int(6),  // new
  };
  std::vector<uint8_t> added;
  const size_t inserted =
      inst.AddRows(rel, rows.data(), 4, &added).ValueOrDie();
  EXPECT_EQ(inserted, 2u);
  ASSERT_EQ(added.size(), 4u);
  EXPECT_EQ(added[0], 1);
  EXPECT_EQ(added[1], 0);
  EXPECT_EQ(added[2], 0);
  EXPECT_EQ(added[3], 1);
  EXPECT_EQ(inst.NumRows(rel), 3u);
  EXPECT_EQ(inst.ToString(), "{ R(1,2), R(3,4), R(5,6) }");

  // A second batch still sees everything the first one added.
  const std::vector<Value> again = {Value::Int(5), Value::Int(6)};
  EXPECT_EQ(inst.AddRows(rel, again.data(), 1, &added).ValueOrDie(), 0u);
  EXPECT_EQ(inst.NumRows(rel), 3u);
}

TEST(BulkAppendTest, AddRowsMatchesSequentialAddRow) {
  // Differential: one AddRows batch against row-by-row AddRow over the same
  // mixed (duplicate-heavy) input must leave identical instances.
  const int kRows = 300;
  Instance bulk(Schema{{"R", 2}});
  Instance seq(Schema{{"R", 2}});
  const RelationId rel = bulk.schema().Require("R").ValueOrDie();
  std::vector<Value> rows;
  for (int i = 0; i < kRows; ++i) {
    rows.push_back(Value::Int(i % 17));
    rows.push_back(Value::Int(i % 5));
  }
  ASSERT_TRUE(bulk.AddRows(rel, rows.data(), kRows, nullptr).ok());
  for (int i = 0; i < kRows; ++i) {
    const std::vector<Value> row = {rows[2 * i], rows[2 * i + 1]};
    ASSERT_TRUE(seq.AddRow(rel, row).ok());
  }
  EXPECT_EQ(bulk.ToString(), seq.ToString());
  EXPECT_EQ(bulk.NumRows(rel), seq.NumRows(rel));
}

TEST(BulkAppendTest, ReserveKeepsContentsAndCountsStable) {
  Instance inst(Schema{{"R", 2}});
  ASSERT_TRUE(inst.AddInts("R", {1, 2}).ok());
  const RelationId rel = inst.schema().Require("R").ValueOrDie();
  const std::string before = inst.ToString();
  inst.Reserve(rel, 4096);
  EXPECT_EQ(inst.NumRows(rel), 1u);
  EXPECT_EQ(inst.ToString(), before);
  // Reserved capacity is usable: a bulk append lands without issue.
  const std::vector<Value> rows = {Value::Int(7), Value::Int(8)};
  EXPECT_EQ(inst.AddRows(rel, rows.data(), 1, nullptr).ValueOrDie(), 1u);
  EXPECT_EQ(inst.NumRows(rel), 2u);
}

}  // namespace
}  // namespace mapinv
