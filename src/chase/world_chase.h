/// \file world_chase.h
/// \brief The world enumerations' one driver, checkpointed or not.
///
/// ChaseReverseWorlds (chase_reverse.cc) and ChaseSOInverseWorlds
/// (chase_so.cc) chase an input back with dependencies whose disjunctions
/// fork a frontier of worlds. ChaseWorlds<Kind> is the loop both run: it
/// owns the entry span and failpoint, the carried deadline, the fresh-null
/// scope, trigger collection per dependency, the per-trigger poll, fire
/// failpoint and chase_steps count, the max_new_facts and max_worlds limits
/// with whole-trigger kPartial degradation, and the job protocol of
/// job/job.h.
///
/// A kind supplies the rest as a template parameter, so the per-trigger path
/// makes no virtual call. It names its Mapping and World types, its kPhase
/// (span and error phase name), kJobKind and kEntry and kFire failpoints,
/// and is constructed from the mapping and the options. It gives NumDeps()
/// and the Seed() world a fresh run starts from; per dependency,
/// Compile(dep, front world), after which Premise() and Constraints()
/// describe its triggers; per trigger, Expand(triggers, row, &worlds,
/// &created, symbols), which replaces the frontier by its expansion and
/// counts the facts it adds; the world codec Save(world) and Load(image);
/// and Finish(worlds, symbols), which turns the final frontier into
/// instances.

#ifndef MAPINV_CHASE_WORLD_CHASE_H_
#define MAPINV_CHASE_WORLD_CHASE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/status.h"
#include "base/symbol_context.h"
#include "data/instance.h"
#include "engine/execution_options.h"
#include "engine/failpoint.h"
#include "engine/parallel_chase.h"
#include "engine/trace.h"
#include "eval/hom.h"
#include "job/job.h"

namespace mapinv {

/// \brief Enumerates the worlds of chasing `input` with `mapping`.
///
/// A trigger expands every world before a limit is checked, so a kPartial
/// stop returns the chase of a trigger-list prefix and overshoots by at most
/// one trigger's fan-out. The frontier is consistent exactly at trigger
/// boundaries, which is where a job (options.checkpoint_dir) commits the
/// cursor of the next unprocessed (dependency, trigger) pair. Trigger
/// collection is deterministic and the null watermark is restored, so a
/// killed and resumed run returns the uninterrupted worlds byte for byte.
/// The fingerprint leaves the limits out: a run cut short commits, as
/// complete, the cursor where it stopped, and resuming it serves the same
/// prefix, flagged partial.
template <typename Kind>
Result<std::vector<Instance>> ChaseWorlds(const typename Kind::Mapping& mapping,
                                          const Instance& input,
                                          const ExecutionOptions& options) {
  using World = typename Kind::World;
  ScopedTraceSpan span(options, Kind::kPhase);
  MAPINV_FAILPOINT(Kind::kEntry);
  ExecDeadline entry_deadline(options.deadline_ms);
  const ExecDeadline& deadline = CarriedDeadline(options, entry_deadline);
  SymbolContext& symbols = ResolveSymbols(options, input);
  HomSearch search(input);
  search.set_stats(options.stats);
  Kind kind(mapping, options);
  const size_t num_deps = kind.NumDeps();
  std::vector<World> worlds;
  worlds.push_back(kind.Seed());
  size_t created = 0;
  std::optional<JobCheckpointer> job;
  size_t resume_dep = 0;
  uint64_t resume_trigger = 0;
  bool restored_complete = false;
  if (!options.checkpoint_dir.empty()) {
    const uint64_t fingerprint =
        JobFingerprint(Kind::kJobKind, mapping.ToString(), input.ToString(),
                       options.oblivious);
    MAPINV_ASSIGN_OR_RETURN(
        JobCheckpointer opened,
        JobCheckpointer::Open(options.checkpoint_dir, Kind::kJobKind,
                              fingerprint, options.resume));
    job.emplace(std::move(opened));
    if (job->resumed().has_value()) {
      const JobResumeState& state = *job->resumed();
      worlds.clear();
      for (const std::string& image : state.world_images) {
        MAPINV_ASSIGN_OR_RETURN(World world, kind.Load(image));
        worlds.push_back(std::move(world));
      }
      created = static_cast<size_t>(state.manifest.created);
      resume_dep = state.manifest.dep_index;
      resume_trigger = state.manifest.trigger_index;
      restored_complete = state.manifest.complete;
      // Fresh nulls must continue exactly where the killed run left off, or
      // the facts fired after the cursor would mint labels differing from
      // the uninterrupted run's.
      if (state.manifest.null_watermark > 0) {
        symbols.BumpNullPast(
            static_cast<uint32_t>(state.manifest.null_watermark - 1));
      }
      if (options.stats != nullptr) {
        options.stats->worlds_resumed.fetch_add(state.world_images.size(),
                                                std::memory_order_relaxed);
      }
      // An empty frontier is only ever committed complete (no world
      // survived a trigger); honour it rather than chase from nothing.
      if (worlds.empty()) return std::vector<Instance>{};
      // A complete job whose cursor is short of the end was cut short: its
      // worlds are the same sound prefix, partial again.
      if (restored_complete && resume_dep < num_deps) MarkPartial(options);
    }
  }
  const size_t checkpoint_every = options.checkpoint_every == 0
                                      ? kDefaultCheckpointEvery
                                      : options.checkpoint_every;
  size_t since_commit = 0;
  auto commit = [&](size_t dep_index, uint64_t trigger_index,
                    bool complete) -> Status {
    if (!job.has_value()) return Status::OK();
    std::vector<std::string> images;
    images.reserve(worlds.size());
    for (const World& world : worlds) images.push_back(kind.Save(world));
    JobManifest manifest;
    manifest.complete = complete;
    manifest.dep_index = static_cast<uint32_t>(dep_index);
    manifest.trigger_index = trigger_index;
    manifest.created = created;
    manifest.null_watermark = symbols.NullWatermark();
    since_commit = 0;
    return job->Commit(std::move(manifest), images, options.stats);
  };
  // The cursor where the run stopped: the end, unless kPartial cut it short.
  size_t stop_dep = num_deps;
  uint64_t stop_trigger = 0;
  // A completed checkpoint skips the loop: the restored worlds are the
  // answer.
  for (size_t dep_index = restored_complete ? num_deps : resume_dep;
       dep_index < num_deps && stop_dep == num_deps; ++dep_index) {
    MAPINV_RETURN_NOT_OK(kind.Compile(dep_index, worlds.front()));
    const size_t first_trigger =
        dep_index == resume_dep ? static_cast<size_t>(resume_trigger) : 0;
    TriggerBatch triggers;
    {
      ScopedTraceSpan collect_span(options, "collect_triggers");
      Result<TriggerBatch> collected =
          CollectTriggers(search, input, kind.Premise(), kind.Constraints(),
                          options, deadline);
      if (!collected.ok()) {
        if (!DegradeToPartial(options, collected.status())) {
          return collected.status();
        }
        stop_dep = dep_index;
        stop_trigger = first_trigger;
        break;
      }
      triggers = std::move(collected).ValueOrDie();
    }
    ScopedTraceSpan fire_span(options, "fire");
    for (size_t t = first_trigger; t < triggers.rows; ++t) {
      if (Status poll = PollPhaseInterrupt(options, deadline, Kind::kPhase);
          !poll.ok()) {
        if (!DegradeToPartial(options, poll)) return poll;
        stop_dep = dep_index;
        stop_trigger = t;
        break;
      }
      MAPINV_FAILPOINT(Kind::kFire);
      if (options.stats != nullptr) {
        options.stats->chase_steps.fetch_add(1, std::memory_order_relaxed);
      }
      MAPINV_RETURN_NOT_OK(
          kind.Expand(triggers, triggers.Row(t), &worlds, &created, symbols));
      if (worlds.empty()) {
        MAPINV_RETURN_NOT_OK(commit(dep_index, t + 1, true));
        return std::vector<Instance>{};
      }
      Status exhausted;
      if (created > options.max_new_facts) {
        exhausted = PhaseExhausted(Kind::kPhase,
                                   "exceeded max_new_facts = " +
                                       std::to_string(options.max_new_facts));
      } else if (worlds.size() > options.max_worlds) {
        exhausted = PhaseExhausted(Kind::kPhase,
                                   "exceeded max_worlds = " +
                                       std::to_string(options.max_worlds));
      }
      if (!exhausted.ok()) {
        if (!DegradeToPartial(options, exhausted)) return exhausted;
        stop_dep = dep_index;
        stop_trigger = t + 1;
        break;
      }
      if (job.has_value() && ++since_commit >= checkpoint_every) {
        MAPINV_RETURN_NOT_OK(commit(dep_index, t + 1, false));
      }
    }
  }
  if (!restored_complete) {
    MAPINV_RETURN_NOT_OK(commit(stop_dep, stop_trigger, true));
  }
  MAPINV_ASSIGN_OR_RETURN(std::vector<Instance> out,
                          kind.Finish(std::move(worlds), symbols));
  if (options.stats != nullptr) {
    uint64_t bytes = 0;
    uint64_t resident = 0;
    for (const Instance& world : out) {
      bytes += world.ArenaBytes();
      resident += world.ResidentBytes();
    }
    options.stats->ObserveArenaBytes(bytes);
    options.stats->ObserveResidentBytes(resident);
  }
  return out;
}

}  // namespace mapinv

#endif  // MAPINV_CHASE_WORLD_CHASE_H_
