/// \file job.h
/// \brief Durable, crash-safe jobs: checkpointed world enumeration that a
/// SIGKILLed process can resume to the byte-identical world set.
///
/// A *job* is a long-running world enumeration (ChaseReverseWorlds,
/// ChaseSOInverseWorlds, and the round trips built on them) whose frontier is
/// periodically committed to a *job directory* — a plain directory the caller
/// names via ExecutionOptions::checkpoint_dir. Each commit writes one
/// *generation*: a snapshot file per live world plus a manifest recording the
/// enumeration cursor (dependency index, trigger index, facts created, and
/// the fresh-null watermark). Every file lands via write-temp + fsync +
/// rename, and the directory itself is fsynced after the manifest rename, so
/// at any kill instant the directory holds only whole generations: either
/// the new manifest is durably in place (the commit happened) or it is not
/// (the previous generation still governs). Torn world files from an
/// interrupted commit are unreferenced garbage, never read.
///
/// The manifest is a checksummed binary record (magic "MAPINVJB"). Its
/// loader, JobManifestFromBytes, is a bounds-checked cursor in the style of
/// the snapshot loader (data/snapshot.cc): every truncation length and every
/// byte flip is rejected as a clean kMalformed error, never undefined
/// behaviour — the whole image is covered by a trailing FNV-1a checksum.
/// Resume picks the newest generation whose manifest *and* world files all
/// load; a corrupt newest generation falls back to the previous good one
/// (commits keep one prior generation for exactly this reason).
///
/// A manifest also records a *fingerprint* of the job's inputs (kind,
/// mapping rendering, input rendering, oblivious flag). Resuming against a
/// directory whose checkpoint was written by a different job is refused —
/// the cursor would be meaningless against different inputs.
///
/// Crash coverage: the commit path carries four FailPoint sites
/// (job/commit_begin, job/world_snapshot, job/manifest_write,
/// job/commit_end); tests arm FailPointSpec::Mode::kAbortProcess at each to
/// SIGKILL a forked child at every checkpoint boundary and prove the resumed
/// run reproduces the uninterrupted world set byte for byte. See
/// docs/JOBS.md.

#ifndef MAPINV_JOB_JOB_H_
#define MAPINV_JOB_JOB_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"

namespace mapinv {

struct ExecStats;

/// Triggers processed between checkpoint commits when
/// ExecutionOptions::checkpoint_every is 0.
constexpr size_t kDefaultCheckpointEvery = 64;

/// \brief Which enumeration a job directory belongs to. Serialized in the
/// manifest; a resume with the wrong kind is refused.
enum class JobKind : uint32_t {
  kReverseWorlds = 0,   ///< ChaseReverseWorlds (disjunctive reverse chase)
  kSOInverseWorlds = 1, ///< ChaseSOInverseWorlds (symbolic SO-inverse worlds)
};

/// \brief One checkpoint record: the enumeration cursor plus the names of
/// the world snapshot files that make up the frontier. The manifest is a
/// pure value — JobManifestToBytes(JobManifestFromBytes(b)) == b for every
/// valid image, which is the fuzz oracle (tests/fuzz/parser_fuzz.cc, 'J').
struct JobManifest {
  /// Enumeration kind (see JobKind; stored wide for forward compatibility).
  uint32_t kind = 0;
  /// FNV-1a over the job inputs (JobFingerprint); a resume whose inputs
  /// hash differently is refused as kInvalidArgument.
  uint64_t fingerprint = 0;
  /// Commit sequence number; file names embed it (manifest-<G>, w<G>-<i>).
  uint64_t generation = 0;
  /// True once the enumeration has finished: the world files are the final
  /// answer. The cursor is then the end (dependency count, trigger 0),
  /// unless kPartial cut the run short: then it names the first trigger the
  /// run did not process, and a resume reports the answer partial.
  bool complete = false;
  /// Index of the dependency (rule) the enumeration was processing.
  uint32_t dep_index = 0;
  /// Index of the next unprocessed trigger within that dependency.
  uint64_t trigger_index = 0;
  /// Facts created so far (the max_new_facts accounting carries across the
  /// kill).
  uint64_t created = 0;
  /// SymbolContext::NullWatermark() at commit time; restored via
  /// BumpNullPast so resumed fresh nulls continue the killed run's sequence.
  uint64_t null_watermark = 0;
  /// Snapshot file names (relative to the job directory), one per world, in
  /// frontier order.
  std::vector<std::string> world_files;

  bool operator==(const JobManifest&) const = default;
};

/// \brief Serializes a manifest to its durable byte image (including the
/// trailing checksum).
std::string JobManifestToBytes(const JobManifest& manifest);

/// \brief Parses a manifest image. Fully bounds-checked: any truncation,
/// trailing garbage, bad magic/version/kind, unreasonable counts, invalid
/// world-file name or checksum mismatch is a clean kMalformed error.
Result<JobManifest> JobManifestFromBytes(const void* data, size_t size);

/// \brief The job-input fingerprint stored in manifests: FNV-1a over the
/// kind, the mapping rendering, the input-instance rendering and the
/// oblivious flag — the inputs that determine the enumeration's trajectory.
uint64_t JobFingerprint(JobKind kind, std::string_view mapping_text,
                        std::string_view input_text, bool oblivious);

/// \brief A checkpoint restored from disk: the governing manifest plus the
/// raw snapshot bytes of every world file it names, in manifest order.
struct JobResumeState {
  JobManifest manifest;
  std::vector<std::string> world_images;
};

/// \brief Owns one job directory: validates/creates it on open, loads the
/// newest good checkpoint when resuming, and commits new generations
/// durably. Not thread-safe; one enumeration drives one checkpointer.
class JobCheckpointer {
 public:
  /// Opens `dir` for a job with the given identity.
  ///
  /// Fresh start (`resume` false): the directory is created if absent; if it
  /// already holds any manifest, the open is refused (kInvalidArgument) so
  /// an existing job is never silently clobbered.
  ///
  /// Resume (`resume` true): the newest generation whose manifest and world
  /// files all load becomes resumed(); a corrupt newest generation falls
  /// back to the previous good one. An empty directory starts fresh
  /// (resumed() is nullopt). A directory with manifests but no loadable
  /// checkpoint is kMalformed; a loadable checkpoint whose fingerprint or
  /// kind differs is kInvalidArgument.
  static Result<JobCheckpointer> Open(const std::string& dir, JobKind kind,
                                      uint64_t fingerprint, bool resume);

  /// The checkpoint restored by Open, if any.
  const std::optional<JobResumeState>& resumed() const { return resumed_; }

  /// Durably commits the next generation: writes each world image to
  /// w<G>-<i>.snap, then the manifest (cursor fields from `manifest`;
  /// generation and world_files are filled in here), each via
  /// write-temp-fsync-rename plus a directory fsync, then deletes
  /// generations older than G-1. On success bumps stats->jobs_checkpointed
  /// and stats->checkpoint_bytes (stats may be null).
  Status Commit(JobManifest manifest,
                const std::vector<std::string>& world_images,
                ExecStats* stats);

 private:
  JobCheckpointer() = default;

  std::string dir_;
  JobKind kind_ = JobKind::kReverseWorlds;
  uint64_t fingerprint_ = 0;
  uint64_t next_generation_ = 1;
  std::optional<JobResumeState> resumed_;
};

}  // namespace mapinv

#endif  // MAPINV_JOB_JOB_H_
