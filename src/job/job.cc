#include "job/job.h"

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "base/bytes.h"
#include "engine/execution_options.h"
#include "engine/failpoint.h"

namespace mapinv {

namespace {

// Crash-schedule sites of the commit protocol: a kAbortProcess arming at any
// of these kills the process at a distinct checkpoint boundary (before any
// write, between world snapshots, before the manifest rename, after the
// commit is durable). See docs/JOBS.md.
FailPoint fp_commit_begin("job/commit_begin");
FailPoint fp_world_snapshot("job/world_snapshot");
FailPoint fp_manifest_write("job/manifest_write");
FailPoint fp_commit_end("job/commit_end");

constexpr char kMagic[8] = {'M', 'A', 'P', 'I', 'N', 'V', 'J', 'B'};
constexpr uint32_t kVersion = 1;
// A frontier cannot outgrow ResourceLimits::max_worlds (4096 default), and a
// manifest naming millions of files is certainly corrupt: bound the count so
// the loader never trusts an attacker-controlled length into an allocation.
constexpr uint64_t kMaxWorldFiles = 1u << 20;

Status Malformed(const std::string& what) {
  return Status::Malformed("job manifest: " + what);
}

// A world-file name a manifest may legally carry: non-empty, flat (no path
// separators, no "." / ".."), so a corrupt or hostile manifest can never
// direct reads outside the job directory.
bool ValidWorldFileName(std::string_view name) {
  if (name.empty() || name == "." || name == "..") return false;
  return name.find('/') == std::string_view::npos &&
         name.find('\0') == std::string_view::npos;
}

// write-temp + fsync + rename + fsync(dir): after this returns OK the file
// is durably in place under its final name; a kill at any earlier instant
// leaves at most a stray "*.tmp" that no manifest references. This is
// stronger than the snapshot layer's WriteFileAtomic, which renames without
// syncing — atomicity is enough there, durability matters here.
Status WriteFileDurable(const std::string& dir, const std::string& name,
                        const std::string& bytes) {
  const std::string path = dir + "/" + name;
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("job: cannot create " + tmp + ": " +
                            std::strerror(errno));
  }
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status s = Status::Internal("job: write to " + tmp + " failed: " +
                                  std::strerror(errno));
      ::close(fd);
      ::unlink(tmp.c_str());
      return s;
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    Status s = Status::Internal("job: fsync of " + tmp + " failed: " +
                                std::strerror(errno));
    ::close(fd);
    ::unlink(tmp.c_str());
    return s;
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status::Internal("job: close of " + tmp + " failed: " +
                            std::strerror(errno));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status s = Status::Internal("job: rename to " + path + " failed: " +
                                std::strerror(errno));
    ::unlink(tmp.c_str());
    return s;
  }
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) {
    return Status::Internal("job: cannot open directory " + dir + ": " +
                            std::strerror(errno));
  }
  if (::fsync(dfd) != 0) {
    Status s = Status::Internal("job: fsync of directory " + dir +
                                " failed: " + std::strerror(errno));
    ::close(dfd);
    return s;
  }
  ::close(dfd);
  return Status::OK();
}

Result<std::string> ReadFileFully(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("job: cannot open " + path + ": " +
                            std::strerror(errno));
  }
  std::string bytes;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = ::strerror(errno);
      ::close(fd);
      return Status::Internal("job: read of " + path + " failed: " + err);
    }
    if (n == 0) break;
    bytes.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return bytes;
}

std::string ManifestName(uint64_t generation) {
  return "manifest-" + std::to_string(generation);
}

std::string WorldFileName(uint64_t generation, size_t index) {
  return "w" + std::to_string(generation) + "-" + std::to_string(index) +
         ".snap";
}

// The generation of a "manifest-<G>" file name, or nullopt for any other
// name (including temp files and world snapshots).
std::optional<uint64_t> ManifestGeneration(const std::string& name) {
  constexpr std::string_view kPrefix = "manifest-";
  if (name.size() <= kPrefix.size() || name.compare(0, kPrefix.size(), kPrefix) != 0) {
    return std::nullopt;
  }
  uint64_t g = 0;
  for (size_t i = kPrefix.size(); i < name.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return std::nullopt;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (g > (UINT64_MAX - digit) / 10) return std::nullopt;
    g = g * 10 + digit;
  }
  return g;
}

// The generation a "w<G>-<i>.snap" name belongs to, for garbage collection.
std::optional<uint64_t> WorldFileGeneration(const std::string& name) {
  constexpr std::string_view kSuffix = ".snap";
  if (name.size() <= 1 + kSuffix.size() || name[0] != 'w') return std::nullopt;
  if (name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
      0) {
    return std::nullopt;
  }
  uint64_t g = 0;
  size_t i = 1;
  bool any = false;
  for (; i < name.size() && name[i] >= '0' && name[i] <= '9'; ++i) {
    const uint64_t digit = static_cast<uint64_t>(name[i] - '0');
    if (g > (UINT64_MAX - digit) / 10) return std::nullopt;
    g = g * 10 + digit;
    any = true;
  }
  if (!any || i >= name.size() || name[i] != '-') return std::nullopt;
  return g;
}

Result<std::vector<std::string>> ListDirectory(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::Internal("job: cannot list directory " + dir + ": " +
                            std::strerror(errno));
  }
  std::vector<std::string> names;
  for (;;) {
    errno = 0;
    const struct dirent* entry = ::readdir(d);
    if (entry == nullptr) break;
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace

std::string JobManifestToBytes(const JobManifest& manifest) {
  std::string buf;
  buf.append(kMagic, sizeof(kMagic));
  AppendU32(buf, kVersion);
  AppendU32(buf, manifest.kind);
  AppendU64(buf, manifest.fingerprint);
  AppendU64(buf, manifest.generation);
  AppendU32(buf, manifest.complete ? 1 : 0);
  AppendU32(buf, manifest.dep_index);
  AppendU64(buf, manifest.trigger_index);
  AppendU64(buf, manifest.created);
  AppendU64(buf, manifest.null_watermark);
  AppendU32(buf, static_cast<uint32_t>(manifest.world_files.size()));
  for (const std::string& name : manifest.world_files) {
    AppendU32(buf, static_cast<uint32_t>(name.size()));
    buf.append(name);
  }
  AppendU64(buf, Fnv1a(kFnv1aOffset, buf.data(), buf.size()));
  return buf;
}

Result<JobManifest> JobManifestFromBytes(const void* data, size_t size) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  if (size < sizeof(kMagic) + sizeof(uint64_t)) {
    return Malformed("image shorter than magic plus checksum");
  }
  // Checksum first: a single flipped bit anywhere in the image — header,
  // cursor, name bytes — is rejected before any field is interpreted.
  uint64_t stored_sum;
  std::memcpy(&stored_sum, bytes + size - sizeof(uint64_t), sizeof(uint64_t));
  if (Fnv1a(kFnv1aOffset, bytes, size - sizeof(uint64_t)) != stored_sum) {
    return Malformed("checksum mismatch (torn or corrupted write)");
  }
  ByteReader reader(bytes, size - sizeof(uint64_t), "job manifest");
  MAPINV_ASSIGN_OR_RETURN(std::string_view magic, reader.Bytes(sizeof(kMagic)));
  if (std::memcmp(magic.data(), kMagic, sizeof(kMagic)) != 0) {
    return Malformed("bad magic");
  }
  MAPINV_ASSIGN_OR_RETURN(const uint32_t version, reader.U32());
  if (version != kVersion) {
    return Malformed("unsupported version " + std::to_string(version));
  }
  JobManifest manifest;
  MAPINV_ASSIGN_OR_RETURN(manifest.kind, reader.U32());
  if (manifest.kind > static_cast<uint32_t>(JobKind::kSOInverseWorlds)) {
    return Malformed("unknown job kind " + std::to_string(manifest.kind));
  }
  MAPINV_ASSIGN_OR_RETURN(manifest.fingerprint, reader.U64());
  MAPINV_ASSIGN_OR_RETURN(manifest.generation, reader.U64());
  MAPINV_ASSIGN_OR_RETURN(const uint32_t complete, reader.U32());
  if (complete > 1) return Malformed("complete flag is not 0/1");
  manifest.complete = complete == 1;
  MAPINV_ASSIGN_OR_RETURN(manifest.dep_index, reader.U32());
  MAPINV_ASSIGN_OR_RETURN(manifest.trigger_index, reader.U64());
  MAPINV_ASSIGN_OR_RETURN(manifest.created, reader.U64());
  MAPINV_ASSIGN_OR_RETURN(manifest.null_watermark, reader.U64());
  MAPINV_ASSIGN_OR_RETURN(const uint32_t num_worlds, reader.U32());
  if (num_worlds > kMaxWorldFiles) {
    return Malformed("world file count " + std::to_string(num_worlds) +
                     " exceeds the sanity bound");
  }
  manifest.world_files.reserve(num_worlds);
  for (uint32_t i = 0; i < num_worlds; ++i) {
    MAPINV_ASSIGN_OR_RETURN(const uint32_t len, reader.U32());
    MAPINV_ASSIGN_OR_RETURN(std::string_view name, reader.Bytes(len));
    if (!ValidWorldFileName(name)) {
      return Malformed("world file name is empty or not flat");
    }
    manifest.world_files.emplace_back(name);
  }
  if (reader.pos() != size - sizeof(uint64_t)) {
    return Malformed("trailing bytes after the world file list");
  }
  return manifest;
}

uint64_t JobFingerprint(JobKind kind, std::string_view mapping_text,
                        std::string_view input_text, bool oblivious) {
  uint64_t h = kFnv1aOffset;
  const uint32_t k = static_cast<uint32_t>(kind);
  h = Fnv1a(h, &k, sizeof(k));
  // Lengths delimit the fields so ("ab","c") never collides with ("a","bc").
  const uint64_t mlen = mapping_text.size();
  h = Fnv1a(h, &mlen, sizeof(mlen));
  h = Fnv1a(h, mapping_text.data(), mapping_text.size());
  const uint64_t ilen = input_text.size();
  h = Fnv1a(h, &ilen, sizeof(ilen));
  h = Fnv1a(h, input_text.data(), input_text.size());
  const uint8_t obl = oblivious ? 1 : 0;
  h = Fnv1a(h, &obl, sizeof(obl));
  return h;
}

Result<JobCheckpointer> JobCheckpointer::Open(const std::string& dir,
                                              JobKind kind,
                                              uint64_t fingerprint,
                                              bool resume) {
  if (dir.empty()) {
    return Status::InvalidArgument("job: checkpoint directory is empty");
  }
  if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    return Status::InvalidArgument("job: cannot create checkpoint directory " +
                                   dir + ": " + std::strerror(errno));
  }
  MAPINV_ASSIGN_OR_RETURN(const std::vector<std::string> names,
                          ListDirectory(dir));
  std::vector<uint64_t> generations;
  for (const std::string& name : names) {
    if (const std::optional<uint64_t> g = ManifestGeneration(name);
        g.has_value()) {
      generations.push_back(*g);
    }
  }
  std::sort(generations.begin(), generations.end(),
            [](uint64_t a, uint64_t b) { return a > b; });

  JobCheckpointer job;
  job.dir_ = dir;
  job.kind_ = kind;
  job.fingerprint_ = fingerprint;

  if (!resume) {
    if (!generations.empty()) {
      return Status::InvalidArgument(
          "job: checkpoint directory " + dir +
          " already holds a job (manifest-" +
          std::to_string(generations.front()) +
          "); pass resume to continue it or point at a fresh directory");
    }
    return job;
  }

  // Newest loadable generation wins; a corrupt newest generation (torn
  // manifest, missing or unreadable world file) falls back to the previous
  // good one. Identity mismatches are not corruption — they mean the caller
  // is resuming the wrong job, and are refused loudly instead of skipped.
  for (const uint64_t generation : generations) {
    Result<std::string> image = ReadFileFully(dir + "/" + ManifestName(generation));
    if (!image.ok()) continue;
    Result<JobManifest> manifest =
        JobManifestFromBytes(image->data(), image->size());
    if (!manifest.ok()) continue;
    if (manifest->kind != static_cast<uint32_t>(kind)) {
      return Status::InvalidArgument(
          "job: checkpoint in " + dir +
          " belongs to a different enumeration kind");
    }
    if (manifest->fingerprint != fingerprint) {
      return Status::InvalidArgument(
          "job: checkpoint in " + dir +
          " was written for different inputs (fingerprint mismatch)");
    }
    JobResumeState state;
    state.world_images.reserve(manifest->world_files.size());
    bool worlds_ok = true;
    for (const std::string& name : manifest->world_files) {
      Result<std::string> world = ReadFileFully(dir + "/" + name);
      if (!world.ok()) {
        worlds_ok = false;
        break;
      }
      state.world_images.push_back(std::move(*world));
    }
    if (!worlds_ok) continue;
    state.manifest = std::move(*manifest);
    job.next_generation_ = generation + 1;
    job.resumed_ = std::move(state);
    return job;
  }
  if (!generations.empty()) {
    return Status::Malformed(
        "job: checkpoint directory " + dir +
        " holds manifests but no loadable checkpoint (all generations are "
        "corrupt or torn)");
  }
  return job;  // empty directory: fresh start
}

Status JobCheckpointer::Commit(JobManifest manifest,
                               const std::vector<std::string>& world_images,
                               ExecStats* stats) {
  MAPINV_FAILPOINT(fp_commit_begin);
  const uint64_t generation = next_generation_;
  manifest.kind = static_cast<uint32_t>(kind_);
  manifest.fingerprint = fingerprint_;
  manifest.generation = generation;
  manifest.world_files.clear();
  manifest.world_files.reserve(world_images.size());
  uint64_t bytes_written = 0;
  for (size_t i = 0; i < world_images.size(); ++i) {
    MAPINV_FAILPOINT(fp_world_snapshot);
    const std::string name = WorldFileName(generation, i);
    MAPINV_RETURN_NOT_OK(WriteFileDurable(dir_, name, world_images[i]));
    bytes_written += world_images[i].size();
    manifest.world_files.push_back(name);
  }
  MAPINV_FAILPOINT(fp_manifest_write);
  const std::string image = JobManifestToBytes(manifest);
  // The manifest rename is the commit point: until it lands, the previous
  // generation governs and this generation's world files are unreferenced.
  MAPINV_RETURN_NOT_OK(WriteFileDurable(dir_, ManifestName(generation), image));
  bytes_written += image.size();
  next_generation_ = generation + 1;
  // Keep generation-1 as the fallback checkpoint; everything older (and any
  // stray temp file) is garbage. GC failures are ignored: leftover files
  // cost disk, not correctness.
  if (Result<std::vector<std::string>> names = ListDirectory(dir_);
      names.ok()) {
    for (const std::string& name : *names) {
      std::optional<uint64_t> g = ManifestGeneration(name);
      if (!g.has_value()) g = WorldFileGeneration(name);
      if (g.has_value() && *g + 1 < generation) {
        ::unlink((dir_ + "/" + name).c_str());
      }
    }
  }
  if (stats != nullptr) {
    stats->jobs_checkpointed.fetch_add(1, std::memory_order_relaxed);
    stats->checkpoint_bytes.fetch_add(bytes_written,
                                      std::memory_order_relaxed);
  }
  MAPINV_FAILPOINT(fp_commit_end);
  return Status::OK();
}

}  // namespace mapinv
