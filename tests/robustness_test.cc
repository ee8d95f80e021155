// Robustness tests: fault-injection failpoints, cooperative cancellation,
// partial-result degradation, error-message determinism, and the
// inputs-untouched (strong exception safety) sweep over every registered
// failpoint site.

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "base/symbol_context.h"
#include "chase/chase_delta.h"
#include "chase/chase_tgd.h"
#include "chase/round_trip.h"
#include "check/properties.h"
#include "engine/engine.h"
#include "engine/eval_cache.h"
#include "engine/execution_options.h"
#include "engine/failpoint.h"
#include "engine/trace.h"
#include "eval/instance_core.h"
#include "inversion/compose.h"
#include "inversion/cq_maximum_recovery.h"
#include "inversion/maximum_recovery.h"
#include "inversion/polyso.h"
#include "mapgen/generators.h"
#include "parser/parser.h"
#include "rewrite/skolemize.h"

namespace mapinv {
namespace {

// ---------------------------------------------------------------------------
// FailPoint registry basics

FailPoint* Site(const char* name) {
  FailPoint* fp = FailPointRegistry::Global().Find(name);
  EXPECT_NE(fp, nullptr) << "site '" << name << "' not registered";
  return fp;
}

class FailPointTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPointRegistry::Global().DeactivateAll(); }
};

TEST_F(FailPointTest, RegistryEnumeratesTheSitesTheIssueRequires) {
  std::vector<std::string> names = FailPointRegistry::Global().SiteNames();
  EXPECT_GE(names.size(), 25u);
  // Spot-check one site per subsystem named in the issue.
  for (const char* required :
       {"chase_tgds/fire", "chase_reverse/world_fork", "collect_triggers/chunk",
        "maximum_recovery/dependency", "eliminate_equalities/partition",
        "eliminate_disjunctions/product", "compose/rule", "polyso/rule",
        "rewrite/disjunct", "hom_plan/compile", "instance/add_row",
        "containment/cache_insert", "instance_core/cache_insert"}) {
    EXPECT_NE(Site(required), nullptr);
  }
}

TEST_F(FailPointTest, DisarmedSiteIsANoOp) {
  FailPoint* fp = Site("chase_tgds/entry");
  EXPECT_TRUE(fp->Check().ok());
  EXPECT_EQ(fp->hits(), 0u);  // disarmed hits are not counted
}

TEST_F(FailPointTest, ActivateValidatesNameAndSpec) {
  FailPointRegistry& reg = FailPointRegistry::Global();
  EXPECT_EQ(reg.Activate("no/such/site", {}).code(), StatusCode::kNotFound);
  FailPointSpec bad_rate;
  bad_rate.mode = FailPointSpec::Mode::kRandom;
  bad_rate.rate = 1.5;
  EXPECT_EQ(reg.Activate("chase_tgds/entry", bad_rate).code(),
            StatusCode::kInvalidArgument);
  FailPointSpec bad_nth;
  bad_nth.mode = FailPointSpec::Mode::kNth;
  bad_nth.nth = 0;
  EXPECT_EQ(reg.Activate("chase_tgds/entry", bad_nth).code(),
            StatusCode::kInvalidArgument);
  FailPointSpec bad_code;
  bad_code.code = StatusCode::kOk;
  EXPECT_EQ(reg.Activate("chase_tgds/entry", bad_code).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(FailPointTest, AlwaysModeInjectsDeterministicStatus) {
  FailPoint* fp = Site("chase_tgds/entry");
  ASSERT_TRUE(
      FailPointRegistry::Global().Activate("chase_tgds/entry", {}).ok());
  Status s = fp->Check();
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_EQ(s.ToString(),
            "internal: failpoint 'chase_tgds/entry': injected failure");
  EXPECT_EQ(fp->hits(), 1u);
  EXPECT_EQ(fp->trips(), 1u);
  ASSERT_TRUE(FailPointRegistry::Global().Deactivate("chase_tgds/entry").ok());
  EXPECT_TRUE(fp->Check().ok());
}

TEST_F(FailPointTest, NthModeFailsExactlyTheNthHit) {
  FailPoint* fp = Site("chase_tgds/fire");
  FailPointSpec spec;
  spec.mode = FailPointSpec::Mode::kNth;
  spec.nth = 3;
  ASSERT_TRUE(
      FailPointRegistry::Global().Activate("chase_tgds/fire", spec).ok());
  EXPECT_TRUE(fp->Check().ok());
  EXPECT_TRUE(fp->Check().ok());
  EXPECT_FALSE(fp->Check().ok());
  EXPECT_TRUE(fp->Check().ok());
  EXPECT_EQ(fp->hits(), 4u);
  EXPECT_EQ(fp->trips(), 1u);
}

TEST_F(FailPointTest, CountModeNeverFailsButCounts) {
  FailPoint* fp = Site("chase_tgds/fire");
  FailPointSpec spec;
  spec.mode = FailPointSpec::Mode::kCount;
  ASSERT_TRUE(
      FailPointRegistry::Global().Activate("chase_tgds/fire", spec).ok());
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(fp->Check().ok());
  EXPECT_EQ(fp->hits(), 10u);
  EXPECT_EQ(fp->trips(), 0u);
}

TEST_F(FailPointTest, RandomModeIsSeedDeterministic) {
  FailPoint* fp = Site("chase_tgds/fire");
  FailPointSpec spec;
  spec.mode = FailPointSpec::Mode::kRandom;
  spec.rate = 0.4;
  spec.seed = 99;
  auto draw = [&] {
    std::vector<bool> fails;
    for (int i = 0; i < 128; ++i) fails.push_back(!fp->Check().ok());
    return fails;
  };
  ASSERT_TRUE(
      FailPointRegistry::Global().Activate("chase_tgds/fire", spec).ok());
  std::vector<bool> first = draw();
  // Re-activating resets the hit counter, so the stream replays.
  ASSERT_TRUE(
      FailPointRegistry::Global().Activate("chase_tgds/fire", spec).ok());
  std::vector<bool> second = draw();
  EXPECT_EQ(first, second);
  size_t trips = 0;
  for (bool f : first) trips += f;
  EXPECT_GT(trips, 0u);
  EXPECT_LT(trips, first.size());
  spec.seed = 100;
  ASSERT_TRUE(
      FailPointRegistry::Global().Activate("chase_tgds/fire", spec).ok());
  EXPECT_NE(draw(), first);
}

// ---------------------------------------------------------------------------
// The sweep workload: a small mapping that drives every pipeline phase —
// two producers of T (disjunctions → reverse world forks), a conclusion
// with a repeated variable (equalities → partition expansion), and an
// existential (Skolem functions in the SO paths, nulls for the core).

constexpr char kSweepMapping[] =
    "S1(x) -> T(x)\n"
    "S2(x) -> T(x)\n"
    "P(x,y) -> Q(x,x,y)\n"
    "E(x) -> F(x,y)\n";

constexpr char kSweepSecond[] =
    "T(x) -> U(x)\n"
    "Q(x,y,z) -> V(x,z)\n";

constexpr char kSweepSource[] = "{ S1(1), S2(2), P(1,2), E(3) }";

// Job directories are flat (manifest-<G> + w<G>-<i>.snap); one readdir pass
// clears them.
void RemoveJobDir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d != nullptr) {
    while (dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

// Runs every pipeline entry point the issue audits, concatenating the
// results into one comparable transcript. A fresh SymbolContext per run
// makes reruns bit-identical.
Result<std::string> RunSweepWorkload(const TgdMapping& mapping,
                                     const TgdMapping& second,
                                     const Instance& source,
                                     bool vectorized = true) {
  SymbolContext symbols;
  ExecStats stats;
  ExecutionOptions options;
  options.threads = 1;
  options.symbols = &symbols;
  options.stats = &stats;
  if (!vectorized) options.vector_batch = 0;
  std::string out;
  MAPINV_ASSIGN_OR_RETURN(Instance chased, ChaseTgds(mapping, source, options));
  out += chased.ToString() + "\n";
  // Incremental step (reaches the chase_delta/* sites): append rows to a
  // fork of the source and absorb them into a fork of the chased target.
  // Locals only — injected failures must leave the member inputs untouched.
  Instance delta_source = source.Fork();
  const DeltaWatermark mark = WatermarkOf(delta_source);
  MAPINV_RETURN_NOT_OK(delta_source.AddInts("S1", {7}).status());
  MAPINV_RETURN_NOT_OK(delta_source.AddInts("P", {7, 8}).status());
  MAPINV_RETURN_NOT_OK(delta_source.AddInts("E", {9}).status());
  Instance delta_target = chased.Fork();
  ChaseProvenance provenance;
  MAPINV_ASSIGN_OR_RETURN(
      bool delta_complete,
      ChaseDelta(mapping, delta_source, mark, &delta_target, &provenance,
                 options));
  out += std::string("delta_complete=") + (delta_complete ? "1" : "0") + "\n";
  out += delta_target.ToString() + "\n";
  // Spill step (reaches the instance/spill site): arm a deliberately tiny
  // memory budget on a scratch fork and append a row, forcing the budget
  // check to fire before the mutation. Stores shared with `chased` are never
  // evicted, so the member inputs stay untouched either way.
  Instance budgeted = chased.Fork();
  budgeted.SetMemoryBudget(1, "", &stats);
  MAPINV_RETURN_NOT_OK(budgeted.AddInts("T", {77}).status());
  out += "budgeted=" + std::to_string(budgeted.TotalSize()) + "\n";
  MAPINV_ASSIGN_OR_RETURN(ReverseMapping maxrec,
                          MaximumRecovery(mapping, options));
  out += maxrec.ToString() + "\n";
  MAPINV_ASSIGN_OR_RETURN(std::vector<Instance> worlds,
                          RoundTripWorlds(mapping, maxrec, source, options));
  out += "worlds=" + std::to_string(worlds.size()) + "\n";
  // Durable-job step (reaches the job/* checkpoint sites): the same reverse
  // enumeration, committing every trigger to a throwaway directory. A fresh
  // mkdtemp per run keeps reruns independent (an existing checkpoint without
  // resume is refused by design); the dir is removed on every exit path so
  // injected failures leave no residue.
  {
    char tmpl[] = "/tmp/mapinv-sweep-job-XXXXXX";
    char* dir = ::mkdtemp(tmpl);
    if (dir == nullptr) return Status::Internal("mkdtemp failed");
    ExecutionOptions job_options = options;
    job_options.checkpoint_dir = dir;
    job_options.checkpoint_every = 1;
    Result<std::vector<Instance>> job_worlds =
        RoundTripWorlds(mapping, maxrec, source, job_options);
    RemoveJobDir(dir);
    MAPINV_RETURN_NOT_OK(job_worlds.status());
    out += "job_worlds=" + std::to_string(job_worlds->size()) + "\n";
  }
  MAPINV_ASSIGN_OR_RETURN(ReverseMapping inverted,
                          CqMaximumRecovery(mapping, options));
  out += inverted.ToString() + "\n";
  MAPINV_ASSIGN_OR_RETURN(SOTgdMapping composed,
                          ComposeTgdMappings(mapping, second, options));
  out += composed.ToString() + "\n";
  MAPINV_ASSIGN_OR_RETURN(SOInverseMapping so_inverse,
                          PolySOInverseOfTgds(mapping, options));
  out += so_inverse.ToString() + "\n";
  MAPINV_ASSIGN_OR_RETURN(SOTgdMapping so, TgdsToPlainSOTgd(mapping));
  MAPINV_ASSIGN_OR_RETURN(std::vector<Instance> so_worlds,
                          RoundTripWorldsSO(so, so_inverse, source, options));
  out += "so_worlds=" + std::to_string(so_worlds.size()) + "\n";
  MAPINV_ASSIGN_OR_RETURN(Instance core, CoreOfInstance(chased, &stats));
  out += core.ToString() + "\n";
  return out;
}

class FailPointSweep : public ::testing::Test {
 protected:
  void SetUp() override {
    mapping_ = ParseTgdMapping(kSweepMapping).ValueOrDie();
    second_ = ParseTgdMapping(kSweepSecond).ValueOrDie();
    source_ = ParseInstance(kSweepSource, *mapping_.source).ValueOrDie();
  }
  void TearDown() override { FailPointRegistry::Global().DeactivateAll(); }

  TgdMapping mapping_;
  TgdMapping second_;
  Instance source_{std::make_shared<Schema>()};
};

TEST_F(FailPointSweep, WorkloadCoversEveryRegisteredSite) {
  FailPointRegistry& reg = FailPointRegistry::Global();
  FailPointSpec count;
  count.mode = FailPointSpec::Mode::kCount;
  for (const std::string& name : reg.SiteNames()) {
    ASSERT_TRUE(reg.Activate(name, count).ok()) << name;
  }
  // Both execution shapes must keep every site alive: the vectorized paths
  // moved the fire/collect failpoints to batch granularity, and a site only
  // reachable from one shape would silently lose injection coverage.
  for (bool vectorized : {true, false}) {
    GlobalEvalCache().Clear();
    Result<std::string> run =
        RunSweepWorkload(mapping_, second_, source_, vectorized);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
  }
  for (const std::string& name : reg.SiteNames()) {
    EXPECT_GT(Site(name.c_str())->hits(), 0u)
        << "site '" << name << "' is dead: the sweep workload never reaches "
        << "it, so the per-site injection pass below cannot exercise it";
  }
}

TEST_F(FailPointSweep, EverySiteFailsCleanAndLeavesInputsUntouched) {
  FailPointRegistry& reg = FailPointRegistry::Global();

  // Input fingerprints: deep renderings plus the arena data pointers of the
  // source's columnar stores — an injected failure must not even COW them.
  const std::string mapping_before = mapping_.ToString();
  const std::string second_before = second_.ToString();
  const std::string source_before = source_.ToString();
  std::vector<const Value*> arenas_before;
  for (RelationId r = 0; r < mapping_.source->size(); ++r) {
    if (source_.NumRows(r) > 0) arenas_before.push_back(source_.Row(r, 0).data());
  }

  // Both execution shapes: the vectorized paths fail at batch granularity
  // (before the batch's mutations), the scalar paths per tuple — either way
  // the strong guarantee below must hold at every site.
  for (bool vectorized : {true, false}) {
    SCOPED_TRACE(vectorized ? "vectorized" : "scalar");
    reg.DeactivateAll();
    GlobalEvalCache().Clear();
    Result<std::string> baseline =
        RunSweepWorkload(mapping_, second_, source_, vectorized);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

    for (const std::string& name : reg.SiteNames()) {
      SCOPED_TRACE("site " + name);
      reg.DeactivateAll();
      GlobalEvalCache().Clear();
      ASSERT_TRUE(reg.Activate(name, {}).ok());  // kAlways, kInternal
      Result<std::string> injected =
          RunSweepWorkload(mapping_, second_, source_, vectorized);
      ASSERT_FALSE(injected.ok());
      EXPECT_EQ(injected.status().code(), StatusCode::kInternal);
      EXPECT_NE(injected.status().ToString().find("failpoint '" + name + "'"),
                std::string::npos)
          << injected.status().ToString();

      // Strong guarantee: the inputs are unchanged, byte for byte and
      // arena for arena.
      EXPECT_EQ(mapping_.ToString(), mapping_before);
      EXPECT_EQ(second_.ToString(), second_before);
      EXPECT_EQ(source_.ToString(), source_before);
      std::vector<const Value*> arenas_after;
      for (RelationId r = 0; r < mapping_.source->size(); ++r) {
        if (source_.NumRows(r) > 0) arenas_after.push_back(source_.Row(r, 0).data());
      }
      EXPECT_EQ(arenas_after, arenas_before);

      // Engine reusable: disarm and the identical run succeeds identically.
      ASSERT_TRUE(reg.Deactivate(name).ok());
      GlobalEvalCache().Clear();
      Result<std::string> rerun =
          RunSweepWorkload(mapping_, second_, source_, vectorized);
      ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
      EXPECT_EQ(*rerun, *baseline);
    }
  }
}

// ---------------------------------------------------------------------------
// Cancellation

TEST(CancelTest, PreCancelledTokenStopsTheChase) {
  TgdMapping mapping = ParseTgdMapping("R(x,y) -> S(x,y)").ValueOrDie();
  Instance source = GenerateInstance(*mapping.source, 20, 10, 5);
  // Every execution shape polls the token: the scalar path per candidate,
  // the vectorized paths per block (collection) and per batch (fire).
  for (size_t batch : {size_t{0}, size_t{1}, size_t{7}, size_t{1024}}) {
    CancelToken token;
    token.Cancel();
    ExecutionOptions options;
    options.threads = 1;
    options.cancel = &token;
    options.vector_batch = batch;
    Result<Instance> result = ChaseTgds(mapping, source, options);
    ASSERT_FALSE(result.ok()) << "batch=" << batch;
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
    token.Reset();
    EXPECT_TRUE(ChaseTgds(mapping, source, options).ok());
  }
}

TEST(CancelTest, CancellationWinsOverAnExpiredDeadline) {
  TgdMapping mapping = ParseTgdMapping("R(x,y) -> S(x,y)").ValueOrDie();
  Instance source = GenerateInstance(*mapping.source, 20, 10, 5);
  CancelToken token;
  token.Cancel();
  ExecDeadline expired(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  ExecutionOptions options;
  options.threads = 1;
  options.cancel = &token;
  options.deadline = &expired;
  options.deadline_ms = 1;
  Result<Instance> result = ChaseTgds(mapping, source, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(CancelTest, EngineCancelIsStickyUntilReset) {
  EngineConfig config;
  config.threads = 1;
  Engine engine(config);
  engine.Cancel();
  TgdMapping mapping = ExponentialFamilyMapping(2, 3);
  Result<ReverseMapping> cancelled = engine.Invert(mapping);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  Result<ReverseMapping> still = engine.Invert(mapping);
  ASSERT_FALSE(still.ok());
  EXPECT_EQ(still.status().code(), StatusCode::kCancelled);
  engine.ResetCancel();
  EXPECT_TRUE(engine.Invert(mapping).ok());
}

// ---------------------------------------------------------------------------
// Error-message determinism: the pinned strings, byte-identical across
// thread counts and repeated runs.

TEST(DeterminismTest, CancelledMessageIsIdenticalAcrossThreadsAndRuns) {
  TgdMapping mapping = ExponentialFamilyMapping(2, 4);
  CancelToken token;
  token.Cancel();
  std::vector<std::string> messages;
  for (int threads : {1, 4}) {
    for (int run = 0; run < 2; ++run) {
      SymbolContext symbols;
      ExecutionOptions options;
      options.threads = threads;
      options.symbols = &symbols;
      options.cancel = &token;
      Result<ReverseMapping> r = CqMaximumRecovery(mapping, options);
      ASSERT_FALSE(r.ok());
      ASSERT_EQ(r.status().code(), StatusCode::kCancelled);
      messages.push_back(r.status().ToString());
    }
  }
  for (const std::string& m : messages) {
    EXPECT_EQ(m, "cancelled: phase 'maximum_recovery': cancelled");
  }
}

TEST(DeterminismTest, ExhaustedMessageIsIdenticalAcrossThreadsAndRuns) {
  TgdMapping mapping = ParseTgdMapping("R(x,y) -> S(x,y)").ValueOrDie();
  Instance source = GenerateInstance(*mapping.source, 30, 10, 5);
  ExecDeadline expired(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  std::vector<std::string> messages;
  for (int threads : {1, 4}) {
    for (int run = 0; run < 2; ++run) {
      SymbolContext symbols;
      ExecutionOptions options;
      options.threads = threads;
      options.symbols = &symbols;
      options.deadline = &expired;
      options.deadline_ms = 1;
      Result<Instance> r = ChaseTgds(mapping, source, options);
      ASSERT_FALSE(r.ok());
      ASSERT_EQ(r.status().code(), StatusCode::kResourceExhausted);
      messages.push_back(r.status().ToString());
    }
  }
  for (size_t i = 1; i < messages.size(); ++i) {
    EXPECT_EQ(messages[i], messages[0]);
  }
  EXPECT_EQ(messages[0].rfind("resource-exhausted: phase '", 0), 0u)
      << messages[0];
}

// ---------------------------------------------------------------------------
// Partial-result degradation

TEST(PartialResultTest, ChaseDegradesOnFactBudget) {
  TgdMapping mapping = ParseTgdMapping("R(x,y) -> S(x,y)").ValueOrDie();
  Instance source = GenerateInstance(*mapping.source, 30, 50, 3);
  const RelationId s_id = mapping.target->Find("S");
  ASSERT_NE(s_id, kInvalidRelation);

  ExecutionOptions options;
  options.threads = 1;
  options.max_new_facts = 5;
  Result<Instance> failed = ChaseTgds(mapping, source, options);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);

  ExecStats stats;
  options.stats = &stats;
  options.on_exhausted = OnExhausted::kPartial;
  Result<Instance> partial = ChaseTgds(mapping, source, options);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_TRUE(stats.partial.load());
  const size_t rows = partial->NumRows(s_id);
  EXPECT_GE(rows, 1u);
  // Whole-trigger granularity: the budget check runs after each trigger
  // fires completely, so the overshoot is bounded by one trigger's output.
  EXPECT_LE(rows, options.max_new_facts + 1);
  // Soundness: every partial fact is a fact of the full chase.
  ExecutionOptions full_options;
  full_options.threads = 1;
  Result<Instance> full = ChaseTgds(mapping, source, full_options);
  ASSERT_TRUE(full.ok());
  EXPECT_GT(full->NumRows(s_id), rows);
}

TEST(PartialResultTest, InjectedExhaustionDropsDependenciesNotDisjuncts) {
  TgdMapping mapping = ParseTgdMapping(kSweepMapping).ValueOrDie();
  SymbolContext symbols;
  ExecutionOptions options;
  options.threads = 1;
  options.symbols = &symbols;
  GlobalEvalCache().Clear();
  Result<ReverseMapping> baseline = CqMaximumRecovery(mapping, options);
  ASSERT_TRUE(baseline.ok());

  // A kResourceExhausted injected into the FOURTH per-dependency rewriting
  // (the E(x) -> F(x,y) tgd) must degrade at dependency granularity: the
  // recovery keeps the earlier dependencies whole and never emits a
  // truncated one. (Hitting an earlier rewrite would leave only the T
  // dependencies, which EliminateDisjunctions legitimately drops because
  // the conjunctive product of their S1|S2 disjuncts is empty — a sound
  // but empty recovery that this test could not distinguish from a bug.)
  FailPointSpec spec;
  spec.mode = FailPointSpec::Mode::kNth;
  spec.nth = 4;
  spec.code = StatusCode::kResourceExhausted;
  ASSERT_TRUE(
      FailPointRegistry::Global().Activate("rewrite/entry", spec).ok());
  ExecStats stats;
  SymbolContext symbols2;
  ExecutionOptions partial_options;
  partial_options.threads = 1;
  partial_options.symbols = &symbols2;
  partial_options.stats = &stats;
  partial_options.on_exhausted = OnExhausted::kPartial;
  GlobalEvalCache().Clear();
  Result<ReverseMapping> partial = CqMaximumRecovery(mapping, partial_options);
  FailPointRegistry::Global().DeactivateAll();
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_TRUE(stats.partial.load());
  EXPECT_LT(partial->deps.size(), baseline->deps.size());
  EXPECT_GE(partial->deps.size(), 1u);

  // The degraded recovery is still a sound C-recovery.
  Instance source =
      ParseInstance(kSweepSource, *mapping.source).ValueOrDie();
  auto violation =
      CheckCRecovery(mapping, *partial, {source},
                     PerRelationQueries(*mapping.source), ExecutionOptions{});
  ASSERT_TRUE(violation.ok()) << violation.status().ToString();
  EXPECT_FALSE(violation->has_value()) << (*violation)->description;
}

TEST(PartialResultTest, SameInjectionUnderFailModeStillFails) {
  TgdMapping mapping = ParseTgdMapping(kSweepMapping).ValueOrDie();
  FailPointSpec spec;
  spec.mode = FailPointSpec::Mode::kNth;
  spec.nth = 4;
  spec.code = StatusCode::kResourceExhausted;
  ASSERT_TRUE(
      FailPointRegistry::Global().Activate("rewrite/entry", spec).ok());
  ExecutionOptions options;
  options.threads = 1;
  Result<ReverseMapping> r = CqMaximumRecovery(mapping, options);
  FailPointRegistry::Global().DeactivateAll();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(PartialResultTest, InjectedInternalFaultNeverDegrades) {
  TgdMapping mapping = ParseTgdMapping(kSweepMapping).ValueOrDie();
  ASSERT_TRUE(FailPointRegistry::Global()
                  .Activate("maximum_recovery/dependency", {})
                  .ok());  // kAlways, kInternal
  ExecutionOptions options;
  options.threads = 1;
  options.on_exhausted = OnExhausted::kPartial;
  Result<ReverseMapping> r = CqMaximumRecovery(mapping, options);
  FailPointRegistry::Global().DeactivateAll();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

// The issue's acceptance scenario: CqMaximumRecovery on the exponential
// family, cancelled mid-run (at half its measured runtime, against a
// generous deadline), must return ok with partial=true — and the partial
// recovery must pass the existing C-recovery checker.
TEST(PartialResultTest, CancelMidRecoveryYieldsSoundPartialRecovery) {
  TgdMapping mapping = ExponentialFamilyMapping(2, 5);

  // Measure the organic runtime under kPartial (the family is built to
  // exhaust budgets, so kFail would error; kPartial completes).
  const auto t0 = std::chrono::steady_clock::now();
  {
    SymbolContext symbols;
    ExecutionOptions options;
    options.threads = 1;
    options.symbols = &symbols;
    options.on_exhausted = OnExhausted::kPartial;
    ASSERT_TRUE(CqMaximumRecovery(mapping, options).ok());
  }
  const auto full_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();

  // Cancel at ~50% of the measured runtime; halve on a lost race.
  int64_t delay_ms = std::max<int64_t>(1, full_ms / 2);
  for (int attempt = 0; attempt < 6; ++attempt) {
    CancelToken token;
    std::thread canceller([&token, delay_ms] {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      token.Cancel();
    });
    SymbolContext symbols;
    ExecStats stats;
    ExecutionOptions options;
    options.threads = 1;
    options.symbols = &symbols;
    options.stats = &stats;
    options.cancel = &token;
    options.deadline_ms = 600000;  // generous: cancellation must cut first
    options.on_exhausted = OnExhausted::kPartial;
    Result<ReverseMapping> partial = CqMaximumRecovery(mapping, options);
    canceller.join();
    ASSERT_TRUE(partial.ok()) << partial.status().ToString();
    if (!stats.partial.load()) {
      // The run finished before the timer fired; try cancelling earlier.
      delay_ms = std::max<int64_t>(1, delay_ms / 2);
      continue;
    }
    // Cancellation struck mid-pipeline. Whatever stage it interrupted, the
    // result must be a sound C-recovery on a concrete source instance.
    Instance tiny(mapping.source);
    ASSERT_TRUE(tiny.Add("A0_0", {Value::Int(1)}).ok());
    ExecutionOptions check_options;
    check_options.threads = 1;
    auto violation =
        CheckCRecovery(mapping, *partial, {tiny},
                       PerRelationQueries(*mapping.source), check_options);
    ASSERT_TRUE(violation.ok()) << violation.status().ToString();
    EXPECT_FALSE(violation->has_value()) << (*violation)->description;
    return;
  }
  FAIL() << "cancellation never struck mid-run (measured " << full_ms
         << "ms; final delay " << delay_ms << "ms)";
}

TEST(PartialResultTest, StatsReportPartialFlag) {
  ExecStats stats;
  EXPECT_NE(stats.ToString().find("partial=false"), std::string::npos);
  stats.partial.store(true);
  EXPECT_NE(stats.ToString().find("partial=true"), std::string::npos);
  ExecStatsSnapshot snap = stats.Snapshot();
  EXPECT_TRUE(snap.partial);
  stats.Reset();
  EXPECT_FALSE(stats.Snapshot().partial);
}

TEST(PartialResultTest, EnginePartialModeSetsItsStats) {
  EngineConfig config;
  config.threads = 1;
  config.on_exhausted = OnExhausted::kPartial;
  config.limits.max_new_facts = 5;
  Engine engine(config);
  TgdMapping mapping = ParseTgdMapping("R(x,y) -> S(x,y)").ValueOrDie();
  Instance source = GenerateInstance(*mapping.source, 30, 50, 3);
  Result<Instance> partial = engine.Chase(mapping, source);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_TRUE(engine.stats().Snapshot().partial);
}

}  // namespace
}  // namespace mapinv
