// Durable-job tests: the checkpointed world enumeration of src/job.
//
//   * manifest codec: byte round trip, every truncation length and every
//     byte flip rejected as clean kMalformed (the checksum-first contract);
//   * checkpointer protocol: generation GC, fallback to the previous good
//     generation past a corrupt or torn newest one, refusal semantics
//     (existing checkpoint without resume, fingerprint/kind mismatch);
//   * enumeration end to end, for both kinds of job (reverse and SO-inverse
//     worlds): pinned counters at every commit cadence, resumes of finished,
//     cut-short and budget-limited jobs;
//   * the kill matrix: a forked child armed with Mode::kAbortProcess is
//     SIGKILLed at every job/* failpoint site, at every hit index, for both
//     kinds, and the parent's resumed run must reproduce the uninterrupted
//     world set byte for byte.

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "base/symbol_context.h"
#include "chase/chase_reverse.h"
#include "chase/chase_so.h"
#include "chase/chase_tgd.h"
#include "engine/execution_options.h"
#include "engine/failpoint.h"
#include "inversion/maximum_recovery.h"
#include "inversion/polyso.h"
#include "job/job.h"
#include "parser/parser.h"
#include "rewrite/skolemize.h"

namespace mapinv {
namespace {

// ---------------------------------------------------------------------------
// Fixtures and helpers

// Two producers of T force disjunctive reverse dependencies (world forks),
// the repeated variable forces equalities, the existential forces fresh
// nulls — the enumeration exercises every cursor dimension.
constexpr char kJobMapping[] =
    "S1(x) -> T(x)\n"
    "S2(x) -> T(x)\n"
    "P(x,y) -> Q(x,x,y)\n"
    "E(x) -> F(x,y)\n";

constexpr char kJobSource[] = "{ S1(1), S2(2), P(1,2), E(3) }";

const char* const kJobSites[] = {"job/commit_begin", "job/world_snapshot",
                                 "job/manifest_write", "job/commit_end"};

std::string MakeJobDir() {
  char tmpl[] = "/tmp/mapinv-job-test-XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  while (dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(d);
  return names;
}

void RemoveDir(const std::string& dir) {
  for (const std::string& name : ListDir(dir)) {
    ::unlink((dir + "/" + name).c_str());
  }
  ::rmdir(dir.c_str());
}

std::string RenderWorlds(const std::vector<Instance>& worlds) {
  std::string out;
  for (const Instance& world : worlds) out += world.ToString() + "\n";
  return out;
}

JobManifest SampleManifest() {
  JobManifest manifest;
  manifest.kind = 0;
  manifest.fingerprint = 0x0123456789abcdefull;
  manifest.generation = 7;
  manifest.complete = false;
  manifest.dep_index = 2;
  manifest.trigger_index = 5;
  manifest.created = 9;
  manifest.null_watermark = 42;
  manifest.world_files = {"w7-0.snap", "w7-1.snap"};
  return manifest;
}

// ---------------------------------------------------------------------------
// Manifest codec

TEST(JobManifestTest, BytesRoundTrip) {
  const JobManifest manifest = SampleManifest();
  const std::string bytes = JobManifestToBytes(manifest);
  Result<JobManifest> parsed = JobManifestFromBytes(bytes.data(), bytes.size());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, manifest);
  // The fuzz oracle: re-serializing a valid parse reproduces the image.
  EXPECT_EQ(JobManifestToBytes(*parsed), bytes);
}

TEST(JobManifestTest, EmptyWorldListRoundTrips) {
  JobManifest manifest = SampleManifest();
  manifest.world_files.clear();
  manifest.complete = true;
  const std::string bytes = JobManifestToBytes(manifest);
  Result<JobManifest> parsed = JobManifestFromBytes(bytes.data(), bytes.size());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, manifest);
}

TEST(JobManifestTest, EveryTruncationLengthIsRejectedCleanly) {
  const std::string bytes = JobManifestToBytes(SampleManifest());
  for (size_t len = 0; len < bytes.size(); ++len) {
    Result<JobManifest> parsed = JobManifestFromBytes(bytes.data(), len);
    ASSERT_FALSE(parsed.ok()) << "length " << len;
    EXPECT_EQ(parsed.status().code(), StatusCode::kMalformed)
        << "length " << len << ": " << parsed.status().ToString();
  }
}

TEST(JobManifestTest, EveryByteFlipIsRejectedCleanly) {
  const std::string bytes = JobManifestToBytes(SampleManifest());
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (uint8_t bit : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::string corrupt = bytes;
      corrupt[i] = static_cast<char>(corrupt[i] ^ bit);
      Result<JobManifest> parsed =
          JobManifestFromBytes(corrupt.data(), corrupt.size());
      // The trailing checksum covers every preceding byte, and is itself
      // part of the image, so no single flip can survive.
      ASSERT_FALSE(parsed.ok()) << "byte " << i << " bit " << int(bit);
      EXPECT_EQ(parsed.status().code(), StatusCode::kMalformed)
          << "byte " << i << ": " << parsed.status().ToString();
    }
  }
}

TEST(JobManifestTest, TrailingGarbageIsRejected) {
  std::string bytes = JobManifestToBytes(SampleManifest());
  bytes += '\0';
  Result<JobManifest> parsed = JobManifestFromBytes(bytes.data(), bytes.size());
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kMalformed);
}

TEST(JobManifestTest, GarbageIsRejected) {
  const std::string garbage = "definitely not a job manifest image";
  Result<JobManifest> parsed =
      JobManifestFromBytes(garbage.data(), garbage.size());
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kMalformed);
}

TEST(JobManifestTest, FingerprintSeparatesJobIdentities) {
  const uint64_t base =
      JobFingerprint(JobKind::kReverseWorlds, "m", "i", false);
  EXPECT_NE(base, JobFingerprint(JobKind::kSOInverseWorlds, "m", "i", false));
  EXPECT_NE(base, JobFingerprint(JobKind::kReverseWorlds, "m2", "i", false));
  EXPECT_NE(base, JobFingerprint(JobKind::kReverseWorlds, "m", "i2", false));
  EXPECT_NE(base, JobFingerprint(JobKind::kReverseWorlds, "m", "i", true));
  // Length-delimited hashing: shifting bytes across the boundary changes
  // the image, not just the concatenation.
  EXPECT_NE(JobFingerprint(JobKind::kReverseWorlds, "ab", "c", false),
            JobFingerprint(JobKind::kReverseWorlds, "a", "bc", false));
  EXPECT_EQ(base, JobFingerprint(JobKind::kReverseWorlds, "m", "i", false));
}

// ---------------------------------------------------------------------------
// Checkpointer protocol

TEST(JobCheckpointerTest, CommitResumeAndGenerationGC) {
  const std::string dir = MakeJobDir();
  const uint64_t fp = JobFingerprint(JobKind::kReverseWorlds, "m", "i", false);
  {
    Result<JobCheckpointer> ckpt =
        JobCheckpointer::Open(dir, JobKind::kReverseWorlds, fp, false);
    ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
    EXPECT_FALSE(ckpt->resumed().has_value());
    ExecStats stats;
    JobManifest cursor;
    cursor.dep_index = 1;
    cursor.trigger_index = 2;
    ASSERT_TRUE(ckpt->Commit(cursor, {"alpha", "beta"}, &stats).ok());
    cursor.trigger_index = 3;
    ASSERT_TRUE(ckpt->Commit(cursor, {"gamma"}, &stats).ok());
    cursor.trigger_index = 4;
    ASSERT_TRUE(ckpt->Commit(cursor, {"delta", "epsilon"}, &stats).ok());
    EXPECT_EQ(stats.jobs_checkpointed.load(), 3u);
    EXPECT_GT(stats.checkpoint_bytes.load(), 0u);
  }
  // GC keeps the newest generation plus the previous good one.
  std::vector<std::string> files = ListDir(dir);
  size_t manifests = 0;
  for (const std::string& name : files) {
    EXPECT_EQ(name.find("manifest-1"), std::string::npos) << name;
    EXPECT_EQ(name.find("w1-"), std::string::npos) << name;
    if (name.rfind("manifest-", 0) == 0) ++manifests;
  }
  EXPECT_EQ(manifests, 2u);

  Result<JobCheckpointer> resumed =
      JobCheckpointer::Open(dir, JobKind::kReverseWorlds, fp, true);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_TRUE(resumed->resumed().has_value());
  EXPECT_EQ(resumed->resumed()->manifest.generation, 3u);
  EXPECT_EQ(resumed->resumed()->manifest.trigger_index, 4u);
  EXPECT_EQ(resumed->resumed()->world_images,
            (std::vector<std::string>{"delta", "epsilon"}));
  // The next commit continues the generation sequence past the restored one.
  ExecStats stats;
  ASSERT_TRUE(resumed->Commit(JobManifest{}, {"zeta"}, &stats).ok());
  Result<JobCheckpointer> again =
      JobCheckpointer::Open(dir, JobKind::kReverseWorlds, fp, true);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->resumed()->manifest.generation, 4u);
  RemoveDir(dir);
}

TEST(JobCheckpointerTest, FreshOpenRefusesAnExistingCheckpoint) {
  const std::string dir = MakeJobDir();
  const uint64_t fp = JobFingerprint(JobKind::kReverseWorlds, "m", "i", false);
  {
    Result<JobCheckpointer> ckpt =
        JobCheckpointer::Open(dir, JobKind::kReverseWorlds, fp, false);
    ASSERT_TRUE(ckpt.ok());
    ExecStats stats;
    ASSERT_TRUE(ckpt->Commit(JobManifest{}, {"w"}, &stats).ok());
  }
  Result<JobCheckpointer> refused =
      JobCheckpointer::Open(dir, JobKind::kReverseWorlds, fp, false);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.status().ToString().find("resume"), std::string::npos)
      << refused.status().ToString();
  RemoveDir(dir);
}

TEST(JobCheckpointerTest, ResumeRefusesMismatchedIdentity) {
  const std::string dir = MakeJobDir();
  const uint64_t fp = JobFingerprint(JobKind::kReverseWorlds, "m", "i", false);
  {
    Result<JobCheckpointer> ckpt =
        JobCheckpointer::Open(dir, JobKind::kReverseWorlds, fp, false);
    ASSERT_TRUE(ckpt.ok());
    ExecStats stats;
    ASSERT_TRUE(ckpt->Commit(JobManifest{}, {"w"}, &stats).ok());
  }
  Result<JobCheckpointer> wrong_fp =
      JobCheckpointer::Open(dir, JobKind::kReverseWorlds, fp + 1, true);
  ASSERT_FALSE(wrong_fp.ok());
  EXPECT_EQ(wrong_fp.status().code(), StatusCode::kInvalidArgument);
  Result<JobCheckpointer> wrong_kind =
      JobCheckpointer::Open(dir, JobKind::kSOInverseWorlds, fp, true);
  ASSERT_FALSE(wrong_kind.ok());
  EXPECT_EQ(wrong_kind.status().code(), StatusCode::kInvalidArgument);
  RemoveDir(dir);
}

TEST(JobCheckpointerTest, CorruptNewestGenerationFallsBackToPreviousGood) {
  const std::string dir = MakeJobDir();
  const uint64_t fp = JobFingerprint(JobKind::kReverseWorlds, "m", "i", false);
  {
    Result<JobCheckpointer> ckpt =
        JobCheckpointer::Open(dir, JobKind::kReverseWorlds, fp, false);
    ASSERT_TRUE(ckpt.ok());
    ExecStats stats;
    JobManifest cursor;
    cursor.trigger_index = 1;
    ASSERT_TRUE(ckpt->Commit(cursor, {"good"}, &stats).ok());
    cursor.trigger_index = 2;
    ASSERT_TRUE(ckpt->Commit(cursor, {"newest"}, &stats).ok());
  }
  // Flip one byte in the newest manifest: the checksum rejects it and the
  // open falls back to generation 1.
  const std::string newest = dir + "/manifest-2";
  FILE* f = ::fopen(newest.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  int first = ::fgetc(f);
  ASSERT_NE(first, EOF);
  ::fseek(f, 0, SEEK_SET);
  ::fputc(first ^ 0x01, f);
  ::fclose(f);
  Result<JobCheckpointer> fallback =
      JobCheckpointer::Open(dir, JobKind::kReverseWorlds, fp, true);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  ASSERT_TRUE(fallback->resumed().has_value());
  EXPECT_EQ(fallback->resumed()->manifest.generation, 1u);
  EXPECT_EQ(fallback->resumed()->manifest.trigger_index, 1u);
  EXPECT_EQ(fallback->resumed()->world_images,
            (std::vector<std::string>{"good"}));
  RemoveDir(dir);
}

TEST(JobCheckpointerTest, TornWorldFileFallsBackToPreviousGood) {
  const std::string dir = MakeJobDir();
  const uint64_t fp = JobFingerprint(JobKind::kReverseWorlds, "m", "i", false);
  {
    Result<JobCheckpointer> ckpt =
        JobCheckpointer::Open(dir, JobKind::kReverseWorlds, fp, false);
    ASSERT_TRUE(ckpt.ok());
    ExecStats stats;
    JobManifest cursor;
    cursor.trigger_index = 1;
    ASSERT_TRUE(ckpt->Commit(cursor, {"good"}, &stats).ok());
    cursor.trigger_index = 2;
    ASSERT_TRUE(ckpt->Commit(cursor, {"newest"}, &stats).ok());
  }
  ASSERT_EQ(::unlink((dir + "/w2-0.snap").c_str()), 0);
  Result<JobCheckpointer> fallback =
      JobCheckpointer::Open(dir, JobKind::kReverseWorlds, fp, true);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  ASSERT_TRUE(fallback->resumed().has_value());
  EXPECT_EQ(fallback->resumed()->manifest.generation, 1u);
  RemoveDir(dir);
}

TEST(JobCheckpointerTest, DirectoryWithNoLoadableCheckpointIsMalformed) {
  const std::string dir = MakeJobDir();
  FILE* f = ::fopen((dir + "/manifest-1").c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ::fputs("torn garbage, not a manifest", f);
  ::fclose(f);
  const uint64_t fp = JobFingerprint(JobKind::kReverseWorlds, "m", "i", false);
  Result<JobCheckpointer> resumed =
      JobCheckpointer::Open(dir, JobKind::kReverseWorlds, fp, true);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kMalformed);
  RemoveDir(dir);
}

TEST(JobCheckpointerTest, ResumeOnEmptyDirectoryStartsFresh) {
  const std::string dir = MakeJobDir();
  const uint64_t fp = JobFingerprint(JobKind::kReverseWorlds, "m", "i", false);
  Result<JobCheckpointer> ckpt =
      JobCheckpointer::Open(dir, JobKind::kReverseWorlds, fp, true);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  EXPECT_FALSE(ckpt->resumed().has_value());
  RemoveDir(dir);
}

// ---------------------------------------------------------------------------
// Checkpointed enumeration end to end

class JobEnumerationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mapping_ = ParseTgdMapping(kJobMapping).ValueOrDie();
    source_ = ParseInstance(kJobSource, *mapping_.source).ValueOrDie();
    SymbolContext symbols;
    ExecutionOptions options = Options(&symbols);
    reverse_ = MaximumRecovery(mapping_, options).ValueOrDie();
    target_ = ChaseTgds(mapping_, source_, options).ValueOrDie();
    so_ = TgdsToPlainSOTgd(mapping_).ValueOrDie();
    so_inverse_ = PolySOInverseOfTgds(mapping_, options).ValueOrDie();
    so_target_ = ChaseSOTgd(so_, source_, Options(&symbols)).ValueOrDie();
  }
  void TearDown() override { FailPointRegistry::Global().DeactivateAll(); }

  static ExecutionOptions Options(SymbolContext* symbols,
                                  ExecStats* stats = nullptr) {
    ExecutionOptions options;
    options.threads = 1;
    options.symbols = symbols;
    options.stats = stats;
    return options;
  }

  // The reverse enumeration of the fixture (`so` false) or the SO-inverse
  // one (`so` true): the two kinds of checkpointed job.
  Result<std::vector<Instance>> Chase(bool so,
                                      const ExecutionOptions& options) {
    return so ? ChaseSOInverseWorlds(so_inverse_, so_target_, options)
              : ChaseReverseWorlds(reverse_, target_, options);
  }

  // The uninterrupted enumeration, freshly scoped.
  std::string Golden(bool so) {
    SymbolContext symbols;
    return RenderWorlds(Chase(so, Options(&symbols)).ValueOrDie());
  }

  TgdMapping mapping_;
  Instance source_{std::make_shared<Schema>()};
  ReverseMapping reverse_;
  Instance target_{std::make_shared<Schema>()};
  SOTgdMapping so_;
  SOInverseMapping so_inverse_;
  Instance so_target_{std::make_shared<Schema>()};
};

TEST_F(JobEnumerationTest, CheckpointedRunMatchesUncheckpointed) {
  const std::string golden = Golden(false);
  const std::string dir = MakeJobDir();
  SymbolContext symbols;
  ExecStats stats;
  ExecutionOptions options = Options(&symbols, &stats);
  options.checkpoint_dir = dir;
  options.checkpoint_every = 1;
  Result<std::vector<Instance>> worlds =
      ChaseReverseWorlds(reverse_, target_, options);
  ASSERT_TRUE(worlds.ok()) << worlds.status().ToString();
  EXPECT_EQ(RenderWorlds(*worlds), golden);
  EXPECT_GT(stats.jobs_checkpointed.load(), 0u);
  EXPECT_GT(stats.checkpoint_bytes.load(), 0u);

  // Resuming a completed job serves the committed worlds byte-identically.
  SymbolContext symbols2;
  ExecStats stats2;
  ExecutionOptions resume_options = Options(&symbols2, &stats2);
  resume_options.checkpoint_dir = dir;
  resume_options.resume = true;
  Result<std::vector<Instance>> again =
      ChaseReverseWorlds(reverse_, target_, resume_options);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(RenderWorlds(*again), golden);
  EXPECT_GT(stats2.worlds_resumed.load(), 0u);
  RemoveDir(dir);
}

TEST_F(JobEnumerationTest, ExistingCheckpointWithoutResumeIsRefused) {
  const std::string dir = MakeJobDir();
  {
    SymbolContext symbols;
    ExecutionOptions options = Options(&symbols);
    options.checkpoint_dir = dir;
    ASSERT_TRUE(ChaseReverseWorlds(reverse_, target_, options).ok());
  }
  SymbolContext symbols;
  ExecutionOptions options = Options(&symbols);
  options.checkpoint_dir = dir;
  Result<std::vector<Instance>> refused =
      ChaseReverseWorlds(reverse_, target_, options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  RemoveDir(dir);
}

TEST_F(JobEnumerationTest, ResumeAgainstDifferentInputsIsRefused) {
  const std::string dir = MakeJobDir();
  {
    SymbolContext symbols;
    ExecutionOptions options = Options(&symbols);
    options.checkpoint_dir = dir;
    ASSERT_TRUE(ChaseReverseWorlds(reverse_, target_, options).ok());
  }
  // Same directory, different input instance: the fingerprint differs.
  SymbolContext symbols;
  ExecutionOptions options = Options(&symbols);
  options.checkpoint_dir = dir;
  options.resume = true;
  Instance other = target_.Fork();
  ASSERT_TRUE(other.AddInts("T", {99}).ok());
  Result<std::vector<Instance>> refused =
      ChaseReverseWorlds(reverse_, other, options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  RemoveDir(dir);
}

TEST_F(JobEnumerationTest, SOCheckpointedRunMatchesAndResumes) {
  const std::string golden = Golden(true);
  const std::string dir = MakeJobDir();
  SymbolContext symbols;
  ExecStats stats;
  ExecutionOptions options = Options(&symbols, &stats);
  options.checkpoint_dir = dir;
  options.checkpoint_every = 1;
  Result<std::vector<Instance>> worlds =
      ChaseSOInverseWorlds(so_inverse_, so_target_, options);
  ASSERT_TRUE(worlds.ok()) << worlds.status().ToString();
  EXPECT_EQ(RenderWorlds(*worlds), golden);
  EXPECT_GT(stats.jobs_checkpointed.load(), 0u);

  SymbolContext symbols2;
  ExecStats stats2;
  ExecutionOptions resume_options = Options(&symbols2, &stats2);
  resume_options.checkpoint_dir = dir;
  resume_options.resume = true;
  Result<std::vector<Instance>> again =
      ChaseSOInverseWorlds(so_inverse_, so_target_, resume_options);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(RenderWorlds(*again), golden);
  EXPECT_GT(stats2.worlds_resumed.load(), 0u);
  RemoveDir(dir);
}

// Pins the enumeration counters of both kinds, plain and at three commit
// cadences: a driver change that drops a step, a fork, a commit or a byte
// shows here.
TEST_F(JobEnumerationTest, CountersArePinnedAtEveryCadence) {
  struct Expected {
    bool so;
    uint64_t steps, forks;
    uint64_t commits[3];
    uint64_t bytes[3];
  };
  const Expected kExpected[] = {
      {false, 6, 3, {7, 4, 1}, {6392, 3976, 1052}},
      {true, 4, 3, {5, 3, 1}, {4210, 3120, 1224}},
  };
  const size_t kCadences[] = {1, 2, 64};
  for (const Expected& want : kExpected) {
    SCOPED_TRACE(want.so ? "so" : "reverse");
    const std::string golden = Golden(want.so);
    {
      SymbolContext symbols;
      ExecStats stats;
      Result<std::vector<Instance>> worlds =
          Chase(want.so, Options(&symbols, &stats));
      ASSERT_TRUE(worlds.ok()) << worlds.status().ToString();
      EXPECT_EQ(worlds->size(), 4u);
      EXPECT_EQ(stats.chase_steps.load(), want.steps);
      EXPECT_EQ(stats.worlds_forked.load(), want.forks);
      EXPECT_EQ(stats.jobs_checkpointed.load(), 0u);
    }
    for (size_t i = 0; i < 3; ++i) {
      SCOPED_TRACE("checkpoint_every " + std::to_string(kCadences[i]));
      const std::string dir = MakeJobDir();
      SymbolContext symbols;
      ExecStats stats;
      ExecutionOptions options = Options(&symbols, &stats);
      options.checkpoint_dir = dir;
      options.checkpoint_every = kCadences[i];
      Result<std::vector<Instance>> worlds = Chase(want.so, options);
      ASSERT_TRUE(worlds.ok()) << worlds.status().ToString();
      EXPECT_EQ(RenderWorlds(*worlds), golden);
      EXPECT_EQ(stats.chase_steps.load(), want.steps);
      EXPECT_EQ(stats.worlds_forked.load(), want.forks);
      EXPECT_EQ(stats.jobs_checkpointed.load(), want.commits[i]);
      EXPECT_EQ(stats.checkpoint_bytes.load(), want.bytes[i]);
      EXPECT_EQ(stats.worlds_resumed.load(), 0u);
      RemoveDir(dir);
    }
  }
}

// A job cut short by a limit under kPartial commits the prefix it reached.
// Resuming it, even without the limit, serves that prefix and reports it
// partial: the fingerprint leaves the limits out, so the cut is final.
TEST_F(JobEnumerationTest, CutShortJobResumesAsPartial) {
  for (bool so : {false, true}) {
    SCOPED_TRACE(so ? "so" : "reverse");
    const std::string dir = MakeJobDir();
    std::string cut;
    {
      SymbolContext symbols;
      ExecStats stats;
      ExecutionOptions options = Options(&symbols, &stats);
      options.on_exhausted = OnExhausted::kPartial;
      options.max_worlds = 1;
      options.checkpoint_dir = dir;
      Result<std::vector<Instance>> worlds = Chase(so, options);
      ASSERT_TRUE(worlds.ok()) << worlds.status().ToString();
      ASSERT_TRUE(stats.partial.load());
      cut = RenderWorlds(*worlds);
    }
    ASSERT_NE(cut, Golden(so));
    SymbolContext symbols;
    ExecStats stats;
    ExecutionOptions options = Options(&symbols, &stats);
    options.checkpoint_dir = dir;
    options.resume = true;
    Result<std::vector<Instance>> resumed = Chase(so, options);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(RenderWorlds(*resumed), cut);
    EXPECT_EQ(stats.chase_steps.load(), 0u);
    EXPECT_TRUE(stats.partial.load());
    RemoveDir(dir);
  }
}

// The max_new_facts accounting carries across a resume: for every budget
// that cuts the reverse enumeration, a run failed after any commit and
// resumed under the same budget stops where the uninterrupted run stopped.
TEST_F(JobEnumerationTest, FactBudgetCarriesAcrossResume) {
  size_t budgets = 0;
  for (size_t budget = 0;; ++budget) {
    ASSERT_LT(budget, 100u) << "the budget never stops cutting";
    auto options_for = [&](SymbolContext* symbols, ExecStats* stats) {
      ExecutionOptions options = Options(symbols, stats);
      options.on_exhausted = OnExhausted::kPartial;
      options.max_new_facts = budget;
      return options;
    };
    std::string golden;
    {
      SymbolContext symbols;
      ExecStats stats;
      Result<std::vector<Instance>> worlds =
          ChaseReverseWorlds(reverse_, target_, options_for(&symbols, &stats));
      ASSERT_TRUE(worlds.ok()) << worlds.status().ToString();
      if (!stats.partial.load()) break;  // this budget no longer cuts
      golden = RenderWorlds(*worlds);
    }
    ++budgets;
    for (uint64_t nth = 1;; ++nth) {
      ASSERT_LT(nth, 200u) << "budget " << budget << ": runaway commits";
      SCOPED_TRACE("budget " + std::to_string(budget) + " commit " +
                   std::to_string(nth));
      const std::string dir = MakeJobDir();
      FailPointSpec spec;
      spec.mode = FailPointSpec::Mode::kNth;
      spec.nth = nth;
      ASSERT_TRUE(
          FailPointRegistry::Global().Activate("job/commit_end", spec).ok());
      bool failed = false;
      {
        SymbolContext symbols;
        ExecutionOptions options = options_for(&symbols, nullptr);
        options.checkpoint_dir = dir;
        options.checkpoint_every = 1;
        failed = !ChaseReverseWorlds(reverse_, target_, options).ok();
      }
      FailPointRegistry::Global().DeactivateAll();
      if (!failed) {  // the run committed fewer than nth times
        RemoveDir(dir);
        break;
      }
      SymbolContext symbols;
      ExecutionOptions options = options_for(&symbols, nullptr);
      options.checkpoint_dir = dir;
      options.checkpoint_every = 1;
      options.resume = true;
      Result<std::vector<Instance>> resumed =
          ChaseReverseWorlds(reverse_, target_, options);
      ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
      EXPECT_EQ(RenderWorlds(*resumed), golden);
      RemoveDir(dir);
    }
  }
  EXPECT_GE(budgets, 2u);
}

// ---------------------------------------------------------------------------
// The kill matrix: SIGKILL at every checkpoint boundary, resume, compare.

// Forks a child that arms `site` to SIGKILL itself on the `nth` hit and runs
// `run(dir)`, a checkpointed enumeration into `dir`. Returns the child's
// wait status.
template <typename RunFn>
int RunKilledChild(const std::string& site, uint64_t nth,
                   const std::string& dir, RunFn run) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    FailPointSpec spec;
    spec.mode = FailPointSpec::Mode::kAbortProcess;
    spec.nth = nth;
    if (!FailPointRegistry::Global().Activate(site, spec).ok()) ::_exit(3);
    ::_exit(run(dir) ? 0 : 4);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

class JobKillMatrix : public JobEnumerationTest {
 protected:
  // The matrix for one kind: a killed child at every job/* site and every
  // hit index, each killed directory resumed and compared with the golden
  // rendering.
  void RunKillMatrix(bool so) {
    const std::string golden = Golden(so);
    auto run = [this, so](const std::string& dir) {
      SymbolContext symbols;
      ExecutionOptions options = Options(&symbols);
      options.checkpoint_dir = dir;
      options.checkpoint_every = 1;
      return Chase(so, options).ok();
    };
    size_t kills = 0;
    for (const char* site : kJobSites) {
      size_t site_kills = 0;
      for (uint64_t nth = 1;; ++nth) {
        ASSERT_LT(nth, 200u) << "site " << site
                             << " never stops tripping: runaway matrix";
        const std::string dir = MakeJobDir();
        const int status = RunKilledChild(site, nth, dir, run);
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
          // The enumeration finished before the nth hit: this site's matrix
          // is exhausted.
          RemoveDir(dir);
          break;
        }
        ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
            << "site " << site << " nth " << nth << " status " << status;
        ++site_kills;
        // The killed run's directory must resume to the byte-identical world
        // set — no matter which side of which fsync the kill landed on.
        SymbolContext symbols;
        ExecutionOptions options = Options(&symbols);
        options.checkpoint_dir = dir;
        options.checkpoint_every = 1;
        options.resume = true;
        Result<std::vector<Instance>> resumed = Chase(so, options);
        ASSERT_TRUE(resumed.ok())
            << "site " << site << " nth " << nth << ": "
            << resumed.status().ToString();
        EXPECT_EQ(RenderWorlds(*resumed), golden)
            << "site " << site << " nth " << nth;
        RemoveDir(dir);
      }
      // The matrix actually killed something at every site.
      EXPECT_GE(site_kills, 1u) << "site " << site;
      kills += site_kills;
    }
    EXPECT_GE(kills, 4u);
  }
};

TEST_F(JobKillMatrix, ReverseWorldsSurviveSigkillAtEveryCheckpointBoundary) {
  RunKillMatrix(/*so=*/false);
}

TEST_F(JobKillMatrix, SOWorldsSurviveSigkillMidEnumeration) {
  RunKillMatrix(/*so=*/true);
}

}  // namespace
}  // namespace mapinv
