// Tests for the execution engine: thread pool, deterministic parallel
// trigger collection, eval cache, symbol scoping and the Engine facade.

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/symbol_context.h"
#include "chase/chase_reverse.h"
#include "chase/chase_so.h"
#include "chase/chase_tgd.h"
#include "engine/engine.h"
#include "engine/eval_cache.h"
#include "engine/execution_options.h"
#include "engine/parallel_chase.h"
#include "engine/request.h"
#include "engine/thread_pool.h"
#include "engine/trace.h"
#include "eval/containment.h"
#include "eval/hom.h"
#include "eval/instance_core.h"
#include "inversion/compose.h"
#include "inversion/cq_maximum_recovery.h"
#include "inversion/eliminate_equalities.h"
#include "mapgen/generators.h"
#include "rewrite/rewrite.h"
#include "parser/parser.h"

namespace mapinv {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> counts(kN);
  pool.ParallelFor(kN, [&](size_t i) {
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0);
  std::atomic<size_t> sum{0};
  pool.ParallelFor(100, [&](size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 100u * 99u / 2);
}

TEST(ThreadPoolTest, ParallelForWithZeroItemsReturns) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(0, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, SubmitEventuallyRunsEveryTask) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    // The destructor drains outstanding work.
  }
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 64);
}

// ---------------------------------------------------------------------------
// ExecDeadline

TEST(ExecDeadlineTest, ZeroMeansUnlimited) {
  ExecDeadline deadline(0);
  EXPECT_FALSE(deadline.Expired());
}

TEST(ExecDeadlineTest, ExpiresAfterItsBudget) {
  ExecDeadline deadline(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(deadline.Expired());
}

TEST(ExecDeadlineTest, ExpiredChaseReportsResourceExhausted) {
  TgdMapping mapping = ParseTgdMapping("R(x,y) -> S(x,y)").ValueOrDie();
  Instance source = GenerateInstance(*mapping.source, 50, 20, 7);
  ExecutionOptions options;
  options.deadline_ms = 1;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // The deadline is measured from operation entry, so this chase still has
  // its full (tiny) budget — but a 1ms budget on a 50-tuple chase may or may
  // not expire. Force the issue by chasing in a loop until one run expires
  // or all runs succeed; either way no other error may appear.
  for (int i = 0; i < 3; ++i) {
    Result<Instance> result = ChaseTgds(mapping, source, options);
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
      return;
    }
  }
  // All runs beat the deadline — acceptable on a fast machine.
}

// ---------------------------------------------------------------------------
// SymbolContext

TEST(SymbolContextTest, CountsFromZeroAndBumps) {
  SymbolContext context;
  EXPECT_EQ(context.NextNullLabel(), 0u);
  EXPECT_EQ(context.NextNullLabel(), 1u);
  context.BumpNullPast(10);
  EXPECT_EQ(context.NextNullLabel(), 11u);
  // Bumping below the current counter is a no-op.
  context.BumpNullPast(3);
  EXPECT_EQ(context.NextNullLabel(), 12u);
  EXPECT_EQ(context.NextVarOrdinal(), 0u);
  context.BumpVarPast(5);
  EXPECT_EQ(context.NextVarOrdinal(), 6u);
}

// Two identical chases with fresh contexts produce *identical* (not merely
// isomorphic) instances — the regression test for the old global-atomic
// fresh-null counter, under which the second run's nulls continued where the
// first run's left off.
TEST(SymbolContextTest, IdenticalChasesProduceIdenticalInstances) {
  TgdMapping mapping =
      ParseTgdMapping("R(x,y) -> EXISTS z . T(x,z), T(z,y)").ValueOrDie();
  Instance source =
      ParseInstance("{ R(1,2), R(3,4) }", *mapping.source).ValueOrDie();

  auto chase_fresh = [&]() {
    SymbolContext symbols;
    ExecutionOptions options;
    options.symbols = &symbols;
    return ChaseTgds(mapping, source, options).ValueOrDie().ToString();
  };
  std::string first = chase_fresh();
  std::string second = chase_fresh();
  EXPECT_EQ(first, second);
  // The output really contains fresh nulls (so the test is not vacuous).
  EXPECT_NE(first.find('_'), std::string::npos) << first;
}

TEST(SymbolContextTest, EngineScopedNullsNeverCollideWithInputNulls) {
  TgdMapping mapping =
      ParseTgdMapping("R(x,y) -> EXISTS z . T(x,z)").ValueOrDie();
  // The input already contains a labelled null; the engine-scoped context
  // must issue labels strictly above it.
  Instance source =
      ParseInstance("{ R(1,_7) }", *mapping.source).ValueOrDie();
  SymbolContext symbols;
  ExecutionOptions options;
  options.symbols = &symbols;
  Instance target = ChaseTgds(mapping, source, options).ValueOrDie();
  EXPECT_EQ(target.ToString().find("_7)"), std::string::npos)
      << "fresh null reused an input label: " << target.ToString();
}

// ---------------------------------------------------------------------------
// Parallel chase == sequential chase (bit-identical output)

std::string ChaseWithThreads(const TgdMapping& mapping, const Instance& source,
                             int threads, bool oblivious = false) {
  SymbolContext symbols;
  ExecutionOptions options;
  options.threads = threads;
  options.symbols = &symbols;
  options.oblivious = oblivious;
  return ChaseTgds(mapping, source, options).ValueOrDie().ToString();
}

TEST(ParallelChaseTest, ChainJoinMatchesSequentialForEveryThreadCount) {
  TgdMapping mapping = ChainJoinMapping(4);
  Instance source = GenerateInstance(*mapping.source, 12, 5, 11);
  const std::string sequential = ChaseWithThreads(mapping, source, 1);
  for (int threads : {2, 4, 8}) {
    EXPECT_EQ(ChaseWithThreads(mapping, source, threads), sequential)
        << "threads = " << threads;
  }
}

TEST(ParallelChaseTest, RandomMappingsMatchSequentialAcrossSeeds) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    RandomMappingConfig config;
    config.seed = seed;
    config.num_tgds = 5;
    config.premise_atoms = 2;
    config.existential_vars = 2;
    TgdMapping mapping = GenerateRandomMapping(config);
    Instance source = GenerateInstance(*mapping.source, 10, 4, seed);
    const std::string sequential = ChaseWithThreads(mapping, source, 1);
    for (int threads : {2, 4, 8}) {
      EXPECT_EQ(ChaseWithThreads(mapping, source, threads), sequential)
          << "seed = " << seed << " threads = " << threads;
    }
  }
}

TEST(ParallelChaseTest, ObliviousChaseMatchesSequentialToo) {
  TgdMapping mapping = ChainJoinMapping(3);
  Instance source = GenerateInstance(*mapping.source, 10, 4, 23);
  const std::string sequential =
      ChaseWithThreads(mapping, source, 1, /*oblivious=*/true);
  EXPECT_EQ(ChaseWithThreads(mapping, source, 8, /*oblivious=*/true),
            sequential);
}

TEST(ParallelChaseTest, SOChaseMatchesSequential) {
  for (uint64_t seed : {1u, 7u, 19u}) {
    RandomSOMappingConfig config;
    config.seed = seed;
    config.num_rules = 4;
    SOTgdMapping mapping = GenerateRandomSOMapping(config);
    Instance source = GenerateInstance(*mapping.source, 12, 5, seed);
    auto chase = [&](int threads) {
      SymbolContext symbols;
      ExecutionOptions options;
      options.threads = threads;
      options.symbols = &symbols;
      return ChaseSOTgd(mapping, source, options).ValueOrDie().ToString();
    };
    const std::string sequential = chase(1);
    for (int threads : {2, 8}) {
      EXPECT_EQ(chase(threads), sequential)
          << "seed = " << seed << " threads = " << threads;
    }
  }
}

TEST(ParallelChaseTest, ReverseChaseWorldsMatchSequential) {
  TgdMapping mapping =
      ParseTgdMapping("R(x,y), S(y,z) -> T(x,z)").ValueOrDie();
  ReverseMapping reverse = CqMaximumRecovery(mapping).ValueOrDie();
  Instance target =
      ParseInstance("{ T(1,5), T(3,5) }", *reverse.source).ValueOrDie();
  auto worlds_text = [&](int threads) {
    SymbolContext symbols;
    ExecutionOptions options;
    options.threads = threads;
    options.symbols = &symbols;
    std::vector<Instance> worlds =
        ChaseReverseWorlds(reverse, target, options).ValueOrDie();
    std::string text;
    for (const Instance& world : worlds) text += world.ToString() + "\n";
    return text;
  };
  const std::string sequential = worlds_text(1);
  EXPECT_EQ(worlds_text(8), sequential);
}

// CollectTriggers must report premise homomorphisms in the exact order the
// sequential backtracking search enumerates them — the chase's firing order
// (and hence its null labelling) depends on it.
TEST(ParallelChaseTest, CollectTriggersPreservesForEachHomOrder) {
  TgdMapping mapping =
      ParseTgdMapping("R(x,y), S(y,z) -> T(x,z)").ValueOrDie();
  Instance source = GenerateInstance(*mapping.source, 30, 6, 99);
  const std::vector<Atom>& premise = mapping.tgds[0].premise;

  HomSearch search(source);
  HomConstraints constraints;
  std::vector<Assignment> sequential;
  ASSERT_TRUE(search
                  .ForEachHom(premise, constraints, {},
                              [&](const Assignment& hom) {
                                sequential.push_back(hom);
                                return true;
                              })
                  .ok());
  ASSERT_FALSE(sequential.empty());

  // The order must survive every execution shape: one-row blocks (batch 0)
  // and batch sizes that straddle block boundaries, single- and
  // multi-threaded.
  for (int threads : {1, 4}) {
    for (size_t batch : {size_t{0}, size_t{1}, size_t{7}, size_t{1024}}) {
      ExecutionOptions options;
      options.threads = threads;
      options.vector_batch = batch;
      ExecDeadline deadline(0);
      TriggerBatch collected =
          CollectTriggers(search, source, premise, constraints, options,
                          deadline)
              .ValueOrDie();
      ASSERT_EQ(collected.rows, sequential.size())
          << "threads = " << threads << " batch = " << batch;
      for (size_t i = 0; i < collected.rows; ++i) {
        EXPECT_EQ(collected.AssignmentAt(i), sequential[i])
            << "threads = " << threads << " batch = " << batch << " trigger "
            << i;
      }
    }
  }
}

// Plan compilation happens once, before the fan-out: repeated multi-threaded
// collections over the same premise reuse the cached remaining-atoms plan
// instead of compiling per worker (or per call).
TEST(ParallelChaseTest, CollectTriggersCompilesRemainingPlanOnce) {
  TgdMapping mapping =
      ParseTgdMapping("R(x,y), S(y,z) -> T(x,z)").ValueOrDie();
  Instance source = GenerateInstance(*mapping.source, 40, 6, 7);
  const std::vector<Atom>& premise = mapping.tgds[0].premise;

  HomSearch search(source);
  ExecStats stats;
  search.set_stats(&stats);
  ExecutionOptions options;
  options.threads = 4;
  ExecDeadline deadline(0);
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(CollectTriggers(search, source, premise, HomConstraints{},
                                options, deadline)
                    .ok());
  }
  // One remaining-atoms plan, compiled before the first fan-out and cached
  // across rounds and across worker threads.
  EXPECT_EQ(stats.hom_plans_compiled.load(), 1u);
}

TEST(ParallelChaseTest, CollectTriggersEmptyPremiseYieldsOneEmptyTrigger) {
  Instance instance{std::make_shared<Schema>(Schema{{"R", 2}})};
  HomSearch search(instance);
  ExecutionOptions options;
  ExecDeadline deadline(0);
  TriggerBatch collected =
      CollectTriggers(search, instance, {}, {}, options, deadline)
          .ValueOrDie();
  ASSERT_EQ(collected.rows, 1u);
  EXPECT_TRUE(collected.vars.empty());
  EXPECT_TRUE(collected.AssignmentAt(0).empty());
}

// ---------------------------------------------------------------------------
// EvalCache

TEST(EvalCacheTest, RepeatLookupHits) {
  EvalCache cache(8);
  EXPECT_FALSE(cache.GetBool("k").has_value());
  cache.PutBool("k", true);
  auto hit = cache.GetBool("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(*hit);
  EvalCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(EvalCacheTest, EvictsLeastRecentlyUsedUnderBound) {
  EvalCache cache(2);
  cache.PutBool("a", true);
  cache.PutBool("b", true);
  ASSERT_TRUE(cache.GetBool("a").has_value());  // "a" now most recent
  cache.PutBool("c", true);                     // evicts "b"
  EXPECT_TRUE(cache.GetBool("a").has_value());
  EXPECT_FALSE(cache.GetBool("b").has_value());
  EXPECT_TRUE(cache.GetBool("c").has_value());
  EvalCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(EvalCacheTest, CapacityZeroDisablesTheCache) {
  EvalCache cache(0);
  cache.PutBool("k", true);
  EXPECT_FALSE(cache.GetBool("k").has_value());
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(EvalCacheTest, ClearDropsEntriesButKeepsStats) {
  EvalCache cache(8);
  cache.PutBool("k", false);
  ASSERT_TRUE(cache.GetBool("k").has_value());
  cache.Clear();
  EXPECT_FALSE(cache.GetBool("k").has_value());
  EvalCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(EvalCacheTest, StoresInstancesBySharedPointer) {
  EvalCache cache(8);
  auto schema = std::make_shared<Schema>(Schema{{"R", 1}});
  auto instance = std::make_shared<Instance>(Instance{schema});
  ASSERT_TRUE(instance->AddInts("R", {1}).ok());
  cache.PutInstance("inst", instance);
  std::shared_ptr<const Instance> hit = cache.GetInstance("inst");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->ToString(), instance->ToString());
  EXPECT_EQ(cache.GetInstance("other"), nullptr);
}

// Alpha-equivalent containment queries share one cache entry: the key
// canonicalises variables by first occurrence, so renaming every variable
// still hits. (Keys embed spellings of constants and relations rather than
// interner ids, so interner state can never produce a stale hit.)
TEST(EvalCacheTest, ContainmentKeysCanonicaliseVariableNames) {
  ConjunctiveQuery q1 = ParseCq("Q(x) :- R(x,y), R(y,z)").ValueOrDie();
  ConjunctiveQuery q2 = ParseCq("Q(u) :- R(u,u)").ValueOrDie();
  // Same queries with every variable renamed.
  ConjunctiveQuery r1 = ParseCq("Q(a) :- R(a,b), R(b,c)").ValueOrDie();
  ConjunctiveQuery r2 = ParseCq("Q(w) :- R(w,w)").ValueOrDie();

  EvalCache& cache = GlobalEvalCache();
  cache.Clear();
  cache.ResetStats();
  bool first = CqContainedIn(q2, q1).ValueOrDie();
  EvalCache::Stats after_first = cache.GetStats();
  bool renamed = CqContainedIn(r2, r1).ValueOrDie();
  EvalCache::Stats after_second = cache.GetStats();

  EXPECT_EQ(first, renamed);
  EXPECT_GT(after_second.hits, after_first.hits)
      << "alpha-renamed containment query missed the cache";
}

TEST(EvalCacheTest, RepeatedInstanceCoreHitsTheCache) {
  auto schema = std::make_shared<Schema>(Schema{{"R", 2}});
  Instance instance{schema};
  ASSERT_TRUE(instance.AddInts("R", {1, 2}).ok());

  EvalCache& cache = GlobalEvalCache();
  cache.Clear();
  cache.ResetStats();
  Instance core1 = CoreOfInstance(instance).ValueOrDie();
  EvalCache::Stats after_first = cache.GetStats();
  Instance core2 = CoreOfInstance(instance).ValueOrDie();
  EvalCache::Stats after_second = cache.GetStats();

  EXPECT_EQ(core1.ToString(), core2.ToString());
  EXPECT_GT(after_second.hits, after_first.hits);
}

// ---------------------------------------------------------------------------
// ExecStats

TEST(ExecStatsTest, ChaseStreamsCounters) {
  TgdMapping mapping =
      ParseTgdMapping("R(x,y), S(y,z) -> T(x,z)").ValueOrDie();
  Instance source =
      ParseInstance("{ R(1,2), S(2,3), S(2,4) }", *mapping.source)
          .ValueOrDie();
  ExecStats stats;
  ExecutionOptions options;
  options.stats = &stats;
  Instance target = ChaseTgds(mapping, source, options).ValueOrDie();
  EXPECT_EQ(target.ToString(), "{ T(1,3), T(1,4) }");
  EXPECT_GT(stats.chase_steps.load(), 0u);
  EXPECT_GT(stats.hom_searches.load(), 0u);
  stats.Reset();
  EXPECT_EQ(stats.chase_steps.load(), 0u);
  EXPECT_EQ(stats.ToString().find("chase_steps=0"), 0u);
}

// ---------------------------------------------------------------------------
// Unified options

// ExecutionOptions is the single options type of the library: it inherits
// every limit knob from ResourceLimits and passes anywhere an operation
// takes options.
TEST(UnifiedOptionsTest, ExecutionOptionsCarriesEveryLimitKnob) {
  static_assert(std::is_base_of_v<ResourceLimits, ExecutionOptions>);

  ExecutionOptions options;
  options.max_new_facts = 10;
  options.oblivious = true;
  options.max_disjuncts = 5;
  options.minimize = false;
  options.max_rules = 3;
  options.max_frontier_width = 4;
  options.max_worlds = 2;
  EXPECT_EQ(options.max_new_facts, 10u);
  EXPECT_EQ(options.max_worlds, 2u);

  TgdMapping mapping = ParseTgdMapping("R(x,y) -> T(x,y)").ValueOrDie();
  Instance source =
      ParseInstance("{ R(1,2) }", *mapping.source).ValueOrDie();
  Instance target = ChaseTgds(mapping, source, options).ValueOrDie();
  EXPECT_EQ(target.ToString(), "{ T(1,2) }");
}

// ---------------------------------------------------------------------------
// Engine facade

TEST(EngineTest, ChaseMatchesFreeFunctionWithFreshContext) {
  TgdMapping mapping =
      ParseTgdMapping("R(x,y) -> EXISTS z . T(x,z), T(z,y)").ValueOrDie();
  Instance source =
      ParseInstance("{ R(1,2), R(3,4) }", *mapping.source).ValueOrDie();

  Engine engine({.threads = 4});
  Instance via_engine = engine.Chase(mapping, source).ValueOrDie();
  EXPECT_EQ(via_engine.ToString(), ChaseWithThreads(mapping, source, 1));
  EXPECT_GT(engine.stats().chase_steps.load(), 0u);
  engine.ResetStats();
  EXPECT_EQ(engine.stats().chase_steps.load(), 0u);
}

TEST(EngineTest, FullPipelineRuns) {
  TgdMapping mapping =
      ParseTgdMapping("R(x,y), S(y,z) -> T(x,z)").ValueOrDie();
  Instance source =
      ParseInstance("{ R(1,2), S(2,5) }", *mapping.source).ValueOrDie();

  Engine engine({.threads = 2});
  Instance target = engine.Chase(mapping, source).ValueOrDie();
  EXPECT_EQ(target.ToString(), "{ T(1,5) }");
  ReverseMapping recovery = engine.Invert(mapping).ValueOrDie();
  EXPECT_FALSE(recovery.deps.empty());
  std::vector<Instance> worlds =
      engine.RoundTrip(mapping, recovery, source).ValueOrDie();
  EXPECT_FALSE(worlds.empty());
  ConjunctiveQuery q = ParseCq("Q(x,y) :- R(x,z), S(z,y)").ValueOrDie();
  AnswerSet certain =
      engine.RoundTripCertain(mapping, recovery, source, q).ValueOrDie();
  EXPECT_NE(certain.ToString().find("(1,5)"), std::string::npos)
      << certain.ToString();
}

TEST(EngineTest, TwoEnginesProduceIdenticalOutput) {
  TgdMapping mapping = ChainJoinMapping(3);
  Instance source = GenerateInstance(*mapping.source, 8, 4, 5);
  auto run = [&]() {
    Engine engine({.threads = 2});
    return engine.Chase(mapping, source).ValueOrDie().ToString();
  };
  EXPECT_EQ(run(), run());
}

TEST(EngineTest, MakeOptionsWiresLimitsPoolAndSymbols) {
  EngineConfig config;
  config.threads = 3;
  config.limits.max_new_facts = 123;
  config.deadline_ms = 456;
  Engine engine(config);
  ExecutionOptions options = engine.MakeOptions();
  EXPECT_EQ(options.max_new_facts, 123u);
  EXPECT_EQ(options.deadline_ms, 456);
  EXPECT_EQ(options.threads, 3);
  EXPECT_NE(options.pool, nullptr);
  EXPECT_EQ(options.symbols, &engine.symbols());
  EXPECT_NE(options.stats, nullptr);
}

TEST(EngineTest, ResourceLimitFailurePropagates) {
  TgdMapping mapping = ParseTgdMapping("R(x,y) -> T(x,y)").ValueOrDie();
  Instance source =
      ParseInstance("{ R(1,2), R(3,4) }", *mapping.source).ValueOrDie();
  EngineConfig config;
  config.limits.max_new_facts = 1;
  Engine engine(config);
  Result<Instance> result = engine.Chase(mapping, source);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// Cache stats attribute to the engine whose operation performed the lookup,
// even when another engine is hammering the shared cache concurrently — the
// regression test for the old WithCacheStats global-counter diff, which
// credited any concurrent engine's cache traffic to whoever finished last.
TEST(EngineTest, ConcurrentEnginesReportDisjointCacheStats) {
  // Engine A: inversion with minimisation — containment checks go through
  // the global eval cache.
  TgdMapping invertible = ExponentialFamilyMapping(2, 3);
  // Engine B: plain chase — performs no cache lookups at all.
  TgdMapping chased = ParseTgdMapping("R(x,y) -> T(x,y)").ValueOrDie();
  Instance source =
      ParseInstance("{ R(1,2), R(3,4) }", *chased.source).ValueOrDie();

  Engine a({.threads = 1});
  Engine b({.threads = 1});
  std::atomic<bool> done{false};
  std::thread hammer([&] {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(a.Invert(invertible).ok());
    }
    done.store(true, std::memory_order_release);
  });
  // Keep B chasing until A's inversions finish, so the two engines really
  // overlap (capped in case the hammer thread dies to an assertion).
  for (int i = 0; i < 1000000 && !done.load(std::memory_order_acquire); ++i) {
    ASSERT_TRUE(b.Chase(chased, source).ok());
  }
  hammer.join();

  // A's inversions really did touch the cache...
  EXPECT_GT(a.stats().cache_hits.load() + a.stats().cache_misses.load(), 0u);
  // ...and none of that traffic leaked into B's counters.
  EXPECT_EQ(b.stats().cache_hits.load(), 0u);
  EXPECT_EQ(b.stats().cache_misses.load(), 0u);
}

// A deadline carried into the inversion pipeline fails fast and names the
// phase that exhausted it.
TEST(EngineTest, InversionDeadlineNamesThePhase) {
  TgdMapping mapping = ExponentialFamilyMapping(3, 9);
  ExecutionOptions options;
  options.deadline_ms = 1;
  Result<ReverseMapping> result = CqMaximumRecovery(mapping, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().ToString().find("phase '"), std::string::npos)
      << result.status().ToString();
}

// ---------------------------------------------------------------------------
// Trace spans

namespace {

// Names-and-counts render of a span tree, ignoring timings and stats.
void RenderShape(const TraceSpan& span, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += span.name + " x" + std::to_string(span.count) + "\n";
  for (const auto& child : span.children) RenderShape(*child, depth + 1, out);
}

// Full pipeline (chase, invert, round trip) under one tracer.
std::string TracedPipelineShape(int threads) {
  TgdMapping mapping =
      ParseTgdMapping("R(x,y), S(y,z) -> T(x,z)").ValueOrDie();
  Instance source =
      ParseInstance("{ R(1,2), S(2,5) }", *mapping.source).ValueOrDie();
  Engine engine({.threads = threads});
  Tracer tracer;
  engine.set_tracer(&tracer);
  Instance target = engine.Chase(mapping, source).ValueOrDie();
  ReverseMapping recovery = engine.Invert(mapping).ValueOrDie();
  std::vector<Instance> worlds =
      engine.RoundTrip(mapping, recovery, source).ValueOrDie();
  EXPECT_FALSE(worlds.empty());
  std::string shape;
  for (const auto& child : tracer.root().children) {
    RenderShape(*child, 0, &shape);
  }
  EXPECT_FALSE(shape.empty());
  return shape;
}

// Every counter bump happens inside some span, so for every counter of the
// registry the deltas of the top-level spans sum to the run's totals.
void ExpectSpansSumTo(const Tracer& tracer, const ExecStatsSnapshot& total,
                      const std::string& label) {
  for (const ExecCounter& c : kExecCounters) {
    uint64_t sum = 0;
    for (const auto& child : tracer.root().children) {
      sum += child->stats.*c.value;
    }
    EXPECT_EQ(sum, total.*c.value) << label << ": " << c.name;
  }
}

}  // namespace

// The span tree's shape (phase names, nesting, entry counts) is a property
// of the algorithms, not of the thread count.
TEST(TraceTest, SpanTreeShapeIsStableAcrossThreadCounts) {
  const std::string sequential = TracedPipelineShape(1);
  EXPECT_EQ(TracedPipelineShape(4), sequential);
}

// The per-phase stats deltas of the top-level spans sum to the engine's
// ExecStats totals — for every counter, the high-water marks included
// (their deltas telescope too).
TEST(TraceTest, TopLevelSpanStatsSumToEngineTotals) {
  TgdMapping mapping =
      ParseTgdMapping("R(x,y), S(y,z) -> T(x,z)").ValueOrDie();
  Instance source =
      ParseInstance("{ R(1,2), S(2,3), S(2,4) }", *mapping.source)
          .ValueOrDie();
  Engine engine({.threads = 2});
  Tracer tracer;
  engine.set_tracer(&tracer);
  ASSERT_TRUE(engine.Chase(mapping, source).ok());
  ReverseMapping recovery = engine.Invert(mapping).ValueOrDie();
  ASSERT_TRUE(engine.RoundTrip(mapping, recovery, source).ok());

  const ExecStatsSnapshot total = engine.stats().Snapshot();
  ExpectSpansSumTo(tracer, total, "engine");
  // The default chase is vectorized, so the new counters actually moved.
  EXPECT_GT(total.vector_blocks_scanned, 0u);
  EXPECT_GT(total.vector_rows_scanned, 0u);
}

// ToJson emits one syntactically well-formed JSON object line (balanced
// braces/brackets, no trailing commas before closers).
TEST(TraceTest, ToJsonIsBalancedAndQuotesPhaseNames) {
  TgdMapping mapping = ParseTgdMapping("R(x,y) -> T(x,y)").ValueOrDie();
  Instance source =
      ParseInstance("{ R(1,2) }", *mapping.source).ValueOrDie();
  ExecutionOptions options;
  Tracer tracer;
  options.trace = &tracer;
  ASSERT_TRUE(ChaseTgds(mapping, source, options).ok());
  const std::string json = tracer.ToJson();
  int braces = 0, brackets = 0;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    if (c == ',') {
      ASSERT_LT(i + 1, json.size());
      EXPECT_NE(json[i + 1], '}');
      EXPECT_NE(json[i + 1], ']');
    }
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_NE(json.find("\"name\":\"chase_tgds\""), std::string::npos) << json;
}

// The stats keys of the wire formats, in order, pinned as literal bytes:
// every counter carries its 1-based wire position as its value, so a key
// rendered out of place or with another counter's value shows up in the
// diff. StatsToJson (responses, --stats-json, session metrics) and a trace
// span's "stats" object must render the same bytes.
TEST(TraceTest, StatsKeysRenderInWireOrder) {
  const std::string golden =
      "{\"chase_steps\":1,\"hom_searches\":2,\"hom_backtracks\":3,"
      "\"hom_plans_compiled\":4,\"hom_bucket_candidates\":5,"
      "\"hom_slot_bindings\":6,\"cache_hits\":7,\"cache_misses\":8,"
      "\"tuples_arena_bytes\":9,\"index_catchup_rows\":10,"
      "\"vector_blocks_scanned\":11,\"vector_rows_scanned\":12,"
      "\"vector_rows_selected\":13,\"bulk_rows_appended\":14,"
      "\"worlds_forked\":15,\"segments_spilled\":16,\"segments_faulted\":17,"
      "\"arena_resident_bytes\":18,\"segment_faultin_retries\":19,"
      "\"jobs_checkpointed\":20,\"worlds_resumed\":21,"
      "\"checkpoint_bytes\":22,\"partial\":true}";

  ExecStats stats;
  Tracer tracer;
  tracer.Begin("phase", &stats);
  stats.chase_steps = 1;
  stats.hom_searches = 2;
  stats.hom_backtracks = 3;
  stats.hom_plans_compiled = 4;
  stats.hom_bucket_candidates = 5;
  stats.hom_slot_bindings = 6;
  stats.cache_hits = 7;
  stats.cache_misses = 8;
  stats.tuples_arena_bytes = 9;
  stats.index_catchup_rows = 10;
  stats.vector_blocks_scanned = 11;
  stats.vector_rows_scanned = 12;
  stats.vector_rows_selected = 13;
  stats.bulk_rows_appended = 14;
  stats.worlds_forked = 15;
  stats.segments_spilled = 16;
  stats.segments_faulted = 17;
  stats.arena_resident_bytes = 18;
  stats.segment_faultin_retries = 19;
  stats.jobs_checkpointed = 20;
  stats.worlds_resumed = 21;
  stats.checkpoint_bytes = 22;
  stats.partial = true;
  tracer.End();

  EXPECT_EQ(StatsToJson(stats.Snapshot()).Serialize(), golden);
  const std::string json = tracer.ToJson();
  const size_t span = json.find("{\"name\":\"phase\"");
  ASSERT_NE(span, std::string::npos) << json;
  const std::string marker = "\"stats\":";
  const size_t at = json.find(marker, span);
  ASSERT_NE(at, std::string::npos) << json;
  EXPECT_EQ(json.substr(at + marker.size(), golden.size()), golden) << json;
}

// ---------------------------------------------------------------------------
// Request/Response API

// A response depends only on its request: every command, sent twice in one
// process, answers the same result bytes the second time, although the
// first round advanced every process-global counter in between. Fresh names
// (polyso's ?u and sk%, compose's ?m, invert's ?p, the chase's nulls) must
// come from the request's own SymbolContext. Tracing the second round must
// change no byte either.
TEST(EngineRequestTest, EveryCommandAnswersTheSameBytesTwice) {
  // The V rules make invert build a query product (fresh ?p variables).
  const std::string mapping =
      "R(x,y) -> EXISTS z . T(x,z), U(z,y)\nS(x) -> T(x,x)\n"
      "R(x,y) -> V(x)\nR(y,x) -> V(x)";
  const std::string instance = "{ R(1,2), R(3,4), S(5) }";
  std::vector<EngineRequest> requests;
  auto add = [&](const std::string& command) -> EngineRequest& {
    EngineRequest& request = requests.emplace_back();
    request.command = command;
    request.mapping = mapping;
    request.instance = instance;
    return request;
  };
  add("ping");
  add("invert");
  add("maxrec");
  add("polyso");
  add("so-invert").mapping = "R(x,y) -> T(x,f(y))\nS(x) -> T(x,g(x))";
  add("rewrite").query = "Q(x) :- T(x,y)";
  add("exchange");
  add("exchange-delta").delta = "{ R(6,7) }";
  add("roundtrip");
  add("compose").mapping2 = "T(x,y) -> V(x)\nU(x,y) -> EXISTS w . W(y,w)";
  add("core").instance = "{ T(1,_N0), T(1,2), U(_N0,2) }";
  EngineResponse inverse = ExecuteRequest(requests[1], ExecutionOptions());
  ASSERT_TRUE(inverse.status.ok()) << inverse.status.ToString();
  add("check").reverse = inverse.result;

  std::vector<std::string> first;
  for (const EngineRequest& request : requests) {
    EngineResponse response = ExecuteRequest(request, ExecutionOptions());
    ASSERT_TRUE(response.status.ok())
        << request.command << ": " << response.status.ToString();
    first.push_back(std::move(response.result));
  }
  // The second round runs traced: every command must count inside its
  // spans, so the trace root's stats equal the response's totals.
  Tracer tracer;
  ExecutionOptions traced;
  traced.trace = &tracer;
  for (size_t i = 0; i < requests.size(); ++i) {
    tracer.Reset();
    EngineResponse response = ExecuteRequest(requests[i], traced);
    EXPECT_EQ(response.result, first[i]) << "command " << requests[i].command;
    ExpectSpansSumTo(tracer, response.stats, requests[i].command);
  }
}

// A round trip chases forward once: the recovered worlds are chased back
// from the very target the response prints, so their nulls are the
// target's, and the trace holds one chase_tgds span, under round_trip.
TEST(EngineRequestTest, RoundTripWorldsUseThePrintedTarget) {
  EngineRequest request;
  request.command = "roundtrip";
  request.mapping = "R(x,y) -> S(x,z), T(z,y)";
  request.instance = "{ R(1,2), R(3,4) }";
  request.reverse = "T(z,y) -> R(z,y)";
  Tracer tracer;
  ExecutionOptions traced;
  traced.trace = &tracer;
  EngineResponse response = ExecuteRequest(request, traced);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.result,
            "target:    { S(1,_N0), S(3,_N1), T(_N0,2), T(_N1,4) }\n"
            "recovered: { R(_N0,2), R(_N1,4) }\n");
  // Every chase_tgds span, by the name of its parent.
  std::vector<std::string> parents;
  std::function<void(const TraceSpan&)> walk = [&](const TraceSpan& span) {
    for (const auto& child : span.children) {
      if (child->name == "chase_tgds") parents.push_back(span.name);
      walk(*child);
    }
  };
  walk(tracer.root());
  EXPECT_EQ(parents, std::vector<std::string>{"round_trip"});
}

// A 0-ary atom, as a premise atom in either position or as a fact of an
// instance-as-query search, answers like any other atom.
TEST(EngineRequestTest, NullaryAtomsAnswer) {
  struct Case {
    const char* command;
    const char* mapping;
    const char* instance;
    const char* result;
  };
  for (const Case& c :
       {Case{"exchange", "R(x), Z() -> T(x)", "{ R(1), Z() }", "{ T(1) }\n"},
        Case{"exchange", "Z(), R(x) -> T(x)", "{ R(1), Z() }", "{ T(1) }\n"},
        Case{"core", "", "{ Z(), T(_N0,1), T(1,1) }",
             "{ T(1,1), Z() }\n"}}) {
    EngineRequest request;
    request.command = c.command;
    request.mapping = c.mapping;
    request.instance = c.instance;
    EngineResponse response = ExecuteRequest(request, {});
    ASSERT_TRUE(response.status.ok())
        << c.command << " " << c.mapping << ": "
        << response.status.ToString();
    EXPECT_EQ(response.result, c.result) << c.command << " " << c.mapping;
  }
}

// Fresh variables are numbered past the ordinals of variables the input
// already spells like generated ones, so the rendering stays unambiguous.
TEST(EngineRequestTest, FreshVariablesClearInputSpelledOrdinals) {
  struct Case {
    const char* command;
    const char* mapping;
    const char* query;
    const char* fresh;  // the first generated variables, past the input's
  };
  for (const Case& c :
       {Case{"polyso", "R(?u0,?u1) -> T(?u1)", "", "T(?u2)"},
        Case{"rewrite", "R(x,y), S(y,z) -> T(x,z)", "Q(?r5) :- T(?r5,y)",
             "R(?r5,?r7)"}}) {
    EngineRequest request;
    request.command = c.command;
    request.mapping = c.mapping;
    request.query = c.query;
    EngineResponse response = ExecuteRequest(request, ExecutionOptions());
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_NE(response.result.find(c.fresh), std::string::npos)
        << response.result;
  }
}

}  // namespace
}  // namespace mapinv
