/// \file snapshot.cc
/// \brief Instance snapshot save/load: the mmap-able on-disk format behind
/// Instance::Save / Instance::Load.
///
/// Layout (all integers host-endian, the format is a single-host artifact):
///
///   header   (48 bytes)
///     bytes 0..7   magic "MAPINVSN"
///     u32          version (currently 1)
///     u32          num_relations
///     u64          file_size           — total bytes; truncation check
///     u64          spell_table_offset  — start of the spelling side table
///     u64          spell_count         — constants in the side table
///     u64          max_null_label      — advisory: largest null label used
///   directory (one entry per relation, in RelationId order)
///     u32          name_len
///     u32          arity
///     u64          num_rows
///     u64          pages_offset        — 8-aligned, relative to file start
///     bytes        name, zero-padded to a multiple of 8
///   pages     (per relation, at its pages_offset)
///     u64 × num_rows*arity             — row-major values; nulls keep their
///                                        bits (kNullBit | label), constants
///                                        are *file ids*: the rank of their
///                                        spelling in the sorted side table
///   spelling table (at spell_table_offset)
///     spell_count × { u32 len, bytes } — spellings in ascending order
///
/// Constants are never persisted under process-local interner ids: Save
/// rewrites them to sorted-spelling ranks, which makes the bytes a pure
/// function of the logical content — save → load → save round-trips
/// byte-identically, in any process. Load interns the side table, and only
/// if some file id disagrees with the local id does it rewrite the pages in
/// place (the mapping is MAP_PRIVATE, so rewritten pages become anonymous
/// copies and untouched pages stay file-backed / zero-copy).
///
/// Dedup tables and value indexes are not persisted; the loaded instance
/// rebuilds them lazily on first probe (see Instance::EnsureDedup /
/// IndexFor). Sealed segments point straight into the mapping with the
/// MappedFile as keepalive; the partial tail is copied to heap so the
/// instance can keep growing. Every loader path validates bounds and value
/// shapes and fails with kMalformed — never a crash — on corrupt or
/// truncated input (the 'N' selector in tests/fuzz/parser_fuzz.cc hammers
/// this, and tests/snapshot_test.cc walks every truncation length).

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/bytes.h"
#include "base/status.h"
#include "base/symbols.h"
#include "data/instance.h"
#include "data/segment.h"
#include "data/value.h"

namespace mapinv {

namespace {

constexpr char kMagic[8] = {'M', 'A', 'P', 'I', 'N', 'V', 'S', 'N'};
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderSize = 48;
constexpr size_t kDirEntryFixed = 24;  // name_len + arity + num_rows + offset

static_assert(sizeof(Value) == sizeof(uint64_t),
              "snapshot pages store one u64 per value");
static_assert(std::is_trivially_copyable_v<Value>,
              "snapshot pages memcpy Value payloads");

size_t PadTo8(size_t n) { return (n + 7) & ~size_t{7}; }

Status Malformed(const std::string& what) {
  return Status::Malformed("snapshot: " + what);
}

Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("snapshot: cannot create " + tmp + ": " +
                            std::strerror(errno));
  }
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status s = Status::Internal("snapshot: write to " + tmp + " failed: " +
                                  std::strerror(errno));
      ::close(fd);
      ::unlink(tmp.c_str());
      return s;
    }
    off += static_cast<size_t>(n);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status::Internal("snapshot: close of " + tmp + " failed: " +
                            std::strerror(errno));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status s = Status::Internal("snapshot: rename to " + path + " failed: " +
                                std::strerror(errno));
    ::unlink(tmp.c_str());
    return s;
  }
  return Status::OK();
}

}  // namespace

/// Friend of Instance: the only code that reaches into Store internals from
/// outside instance.cc.
struct SnapshotAccess {
  static std::string SaveBytes(const Instance& instance);
  static Result<Instance> Load(std::shared_ptr<MappedFile> map);
};

std::string SnapshotAccess::SaveBytes(const Instance& instance) {
  instance.EnsureSlots();
  const Schema& schema = instance.schema();
  const size_t num_relations = schema.size();

  // Pass 1: collect the constants in use and the largest null label.
  std::unordered_set<uint32_t> constant_ids;
  uint64_t max_null_label = 0;
  for (RelationId r = 0; r < num_relations; ++r) {
    const Instance::Store& store = *instance.stores_[r];
    if (store.arity == 0) continue;
    for (size_t row = 0; row < store.num_rows; ++row) {
      const Value* ptr = store.RowPtr(static_cast<TupleRef>(row));
      for (uint32_t pos = 0; pos < store.arity; ++pos) {
        const Value v = ptr[pos];
        if (v.is_constant()) {
          constant_ids.insert(v.id());
        } else {
          max_null_label = std::max<uint64_t>(max_null_label, v.id());
        }
      }
    }
  }

  // Sorted spelling table: file id = rank of the spelling. Interner ids are
  // process-local accidents of insertion order; spellings are the content.
  std::vector<std::pair<std::string_view, uint32_t>> spellings;
  spellings.reserve(constant_ids.size());
  for (uint32_t id : constant_ids) {
    spellings.emplace_back(ConstantPool().Text(id), id);
  }
  std::sort(spellings.begin(), spellings.end());
  std::vector<uint64_t> file_id_of;  // dense over the max interner id seen
  uint32_t max_interner_id = 0;
  for (const auto& [text, id] : spellings) {
    max_interner_id = std::max(max_interner_id, id);
  }
  file_id_of.assign(static_cast<size_t>(max_interner_id) + 1, 0);
  for (size_t rank = 0; rank < spellings.size(); ++rank) {
    file_id_of[spellings[rank].second] = rank;
  }

  // Layout: header, directory, pages (8-aligned by construction), table.
  size_t dir_size = 0;
  for (RelationId r = 0; r < num_relations; ++r) {
    dir_size += kDirEntryFixed + PadTo8(schema.name(r).size());
  }
  std::vector<uint64_t> pages_offsets(num_relations);
  uint64_t offset = kHeaderSize + dir_size;
  for (RelationId r = 0; r < num_relations; ++r) {
    pages_offsets[r] = offset;
    const Instance::Store& store = *instance.stores_[r];
    offset += static_cast<uint64_t>(store.num_rows) * store.arity *
              sizeof(uint64_t);
  }
  const uint64_t spell_table_offset = offset;
  uint64_t spell_table_size = 0;
  for (const auto& [text, id] : spellings) {
    spell_table_size += sizeof(uint32_t) + text.size();
  }
  const uint64_t file_size = spell_table_offset + spell_table_size;

  std::string buf;
  buf.reserve(file_size);
  buf.append(kMagic, sizeof(kMagic));
  AppendU32(buf, kVersion);
  AppendU32(buf, static_cast<uint32_t>(num_relations));
  AppendU64(buf, file_size);
  AppendU64(buf, spell_table_offset);
  AppendU64(buf, spellings.size());
  AppendU64(buf, max_null_label);
  for (RelationId r = 0; r < num_relations; ++r) {
    const std::string& name = schema.name(r);
    AppendU32(buf, static_cast<uint32_t>(name.size()));
    AppendU32(buf, schema.arity(r));
    AppendU64(buf, instance.stores_[r]->num_rows);
    AppendU64(buf, pages_offsets[r]);
    buf.append(name);
    buf.append(PadTo8(name.size()) - name.size(), '\0');
  }
  for (RelationId r = 0; r < num_relations; ++r) {
    const Instance::Store& store = *instance.stores_[r];
    if (store.arity == 0) continue;
    for (size_t row = 0; row < store.num_rows; ++row) {
      const Value* ptr = store.RowPtr(static_cast<TupleRef>(row));
      for (uint32_t pos = 0; pos < store.arity; ++pos) {
        const Value v = ptr[pos];
        AppendU64(buf, v.is_null() ? v.bits() : file_id_of[v.id()]);
      }
    }
  }
  for (const auto& [text, id] : spellings) {
    AppendU32(buf, static_cast<uint32_t>(text.size()));
    buf.append(text);
  }
  return buf;
}

Result<Instance> SnapshotAccess::Load(std::shared_ptr<MappedFile> map) {
  const uint8_t* data = map->data();
  const size_t size = map->size();
  if (size < kHeaderSize) return Malformed("shorter than the header");
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return Malformed("bad magic");
  }
  ByteReader header(data + sizeof(kMagic), size - sizeof(kMagic), "snapshot");
  MAPINV_ASSIGN_OR_RETURN(uint32_t version, header.U32());
  if (version != kVersion) {
    return Malformed("unsupported version " + std::to_string(version));
  }
  MAPINV_ASSIGN_OR_RETURN(uint32_t num_relations, header.U32());
  MAPINV_ASSIGN_OR_RETURN(uint64_t file_size, header.U64());
  MAPINV_ASSIGN_OR_RETURN(uint64_t spell_table_offset, header.U64());
  MAPINV_ASSIGN_OR_RETURN(uint64_t spell_count, header.U64());
  MAPINV_ASSIGN_OR_RETURN(uint64_t max_null_label, header.U64());
  (void)max_null_label;  // advisory metadata; labels validate per value
  if (file_size != size) {
    return Malformed("file size field " + std::to_string(file_size) +
                     " does not match actual size " + std::to_string(size) +
                     " (truncated?)");
  }
  if (spell_table_offset < kHeaderSize || spell_table_offset > size) {
    return Malformed("spelling table offset out of bounds");
  }

  // Directory. Names are parsed before pages so schema errors (duplicate
  // names with differing arities, ...) surface as kMalformed too.
  struct DirEntry {
    std::string_view name;
    uint32_t arity;
    uint64_t num_rows;
    uint64_t pages_offset;
  };
  ByteReader dir(data + kHeaderSize,
                 std::min<size_t>(size, spell_table_offset) - kHeaderSize,
                 "snapshot");
  // A directory entry is at least kDirEntryFixed bytes plus one padded name
  // chunk; reject impossible counts before sizing the entry vector.
  if (num_relations > (spell_table_offset - kHeaderSize) / kDirEntryFixed) {
    return Malformed("relation count exceeds the directory size");
  }
  std::vector<DirEntry> entries(num_relations);
  Schema schema;
  for (uint32_t r = 0; r < num_relations; ++r) {
    DirEntry& e = entries[r];
    MAPINV_ASSIGN_OR_RETURN(uint32_t name_len, dir.U32());
    MAPINV_ASSIGN_OR_RETURN(e.arity, dir.U32());
    MAPINV_ASSIGN_OR_RETURN(e.num_rows, dir.U64());
    MAPINV_ASSIGN_OR_RETURN(e.pages_offset, dir.U64());
    if (name_len == 0) return Malformed("empty relation name");
    MAPINV_ASSIGN_OR_RETURN(e.name, dir.Bytes(name_len));
    MAPINV_RETURN_NOT_OK(dir.Skip(PadTo8(name_len) - name_len));
    if (e.num_rows > UINT32_MAX) {
      return Malformed("relation row count exceeds the TupleRef range");
    }
    if (e.arity == 0 && e.num_rows > 1) {
      return Malformed("0-ary relation with more than one row");
    }
    // Payload bounds: num_rows * arity * 8 without overflow, inside
    // [directory end, spelling table), 8-aligned for the Value view.
    const uint64_t payload =
        e.num_rows * e.arity * static_cast<uint64_t>(sizeof(uint64_t));
    if (e.arity != 0 && payload / sizeof(uint64_t) / e.arity != e.num_rows) {
      return Malformed("relation payload size overflows");
    }
    if ((e.pages_offset & 7) != 0) {
      return Malformed("relation pages not 8-aligned");
    }
    if (e.pages_offset > spell_table_offset ||
        payload > spell_table_offset - e.pages_offset) {
      return Malformed("relation pages out of bounds");
    }
    MAPINV_ASSIGN_OR_RETURN(RelationId id,
                            schema.AddRelation(e.name, e.arity));
    if (id != r) return Malformed("duplicate relation name in directory");
  }
  const size_t dir_end = kHeaderSize + dir.pos();

  // Spelling table: intern every spelling; local_ids[file_id] is this
  // process's interner id for it.
  ByteReader table(data + spell_table_offset, size - spell_table_offset,
                   "snapshot");
  std::vector<uint32_t> local_ids;
  bool identity = true;
  for (uint64_t i = 0; i < spell_count; ++i) {
    MAPINV_ASSIGN_OR_RETURN(uint32_t len, table.U32());
    MAPINV_ASSIGN_OR_RETURN(std::string_view text, table.Bytes(len));
    const uint32_t local = ConstantPool().Intern(text);
    if (local != local_ids.size()) identity = false;
    local_ids.push_back(local);
  }

  // Validate every value — and rewrite constants to local interner ids when
  // they disagree with the file ids — in one pass. The mapping is
  // MAP_PRIVATE + PROT_WRITE, so rewrites never touch the file.
  for (const DirEntry& e : entries) {
    if (e.pages_offset < dir_end && e.num_rows * e.arity != 0) {
      return Malformed("relation pages overlap the directory");
    }
    uint64_t* vals =
        reinterpret_cast<uint64_t*>(const_cast<uint8_t*>(data) +
                                    e.pages_offset);
    const uint64_t count = e.num_rows * e.arity;
    for (uint64_t i = 0; i < count; ++i) {
      const uint64_t v = vals[i];
      if (v & Value::kNullBit) {
        if ((v & ~(Value::kNullBit | 0xffffffffULL)) != 0) {
          return Malformed("null value with stray high bits");
        }
      } else {
        if (v >= spell_count) {
          return Malformed("constant file id out of spelling-table range");
        }
        if (!identity) vals[i] = local_ids[static_cast<size_t>(v)];
      }
    }
  }

  // Assemble the instance: sealed segments point into the mapping (the
  // shared MappedFile keeps it alive), the partial tail is heap-copied so
  // appends never write through the mapping. Dedup and index stay at
  // watermark 0 — rebuilt lazily on the first probe.
  Instance instance(std::make_shared<const Schema>(std::move(schema)));
  for (uint32_t r = 0; r < num_relations; ++r) {
    const DirEntry& e = entries[r];
    Instance::Store& store = *instance.stores_[r];
    store.num_rows = static_cast<size_t>(e.num_rows);
    if (e.arity == 0) continue;
    const Value* pages = reinterpret_cast<const Value*>(data + e.pages_offset);
    const size_t full_segs = e.num_rows >> kSegmentRowShift;
    const uint32_t tail_rows = static_cast<uint32_t>(e.num_rows &
                                                     kSegmentRowMask);
    for (size_t s = 0; s < full_segs; ++s) {
      auto seg = std::make_shared<Segment>();
      seg->mapping = map;
      seg->mapped_base = pages + s * kSegmentRows * e.arity;
      seg->base.store(seg->mapped_base, std::memory_order_relaxed);
      seg->rows = static_cast<uint32_t>(kSegmentRows);
      store.seg_ptrs.push_back(seg.get());
      store.segs.push_back(std::move(seg));
    }
    if (tail_rows > 0) {
      auto seg = std::make_shared<Segment>();
      const Value* src = pages + full_segs * kSegmentRows * e.arity;
      seg->heap.assign(src, src + static_cast<size_t>(tail_rows) * e.arity);
      seg->base.store(seg->heap.data(), std::memory_order_relaxed);
      seg->rows = tail_rows;
      store.seg_ptrs.push_back(seg.get());
      store.segs.push_back(std::move(seg));
    }
  }
  return instance;
}

Status Instance::Save(const std::string& path) const {
  return WriteFileAtomic(path, SnapshotAccess::SaveBytes(*this));
}

std::string Instance::SaveToBytes() const {
  return SnapshotAccess::SaveBytes(*this);
}

Result<Instance> Instance::Load(const std::string& path) {
  MAPINV_ASSIGN_OR_RETURN(std::shared_ptr<MappedFile> map,
                          MappedFile::Open(path));
  return SnapshotAccess::Load(std::move(map));
}

Result<Instance> Instance::LoadFromBytes(const void* bytes, size_t size) {
  return SnapshotAccess::Load(MappedFile::FromBytes(bytes, size));
}

}  // namespace mapinv
