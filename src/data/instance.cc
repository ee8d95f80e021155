#include "data/instance.h"

#include <algorithm>
#include <bit>
#include <unordered_set>
#include <utility>

#include "engine/execution_options.h"
#include "engine/failpoint.h"

namespace mapinv {

namespace {

// Fires before any store mutation, so an injected arena-growth failure
// leaves the instance exactly as it was (strong guarantee).
FailPoint fp_add_row("instance/add_row");

// Fires when a mutation finds the instance over its memory budget, before
// any eviction or row is applied (same strong guarantee as instance/add_row).
FailPoint fp_spill("instance/spill");

bool RowEquals(const Value* a, const Value* b, uint32_t arity) {
  for (uint32_t i = 0; i < arity; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

// The dedup table's hash of a row: the top 32 bits of HashRow times the
// 64-bit golden ratio, so probing from its low bits mixes in every input bit.
uint32_t DedupHash(const Value* row, uint32_t arity) {
  return static_cast<uint32_t>(
      (HashRow(RowView(row, arity)) * 0x9e3779b97f4a7c15ULL) >> 32);
}

// Smallest non-empty table sizes: tiny instances (canonical instances of
// containment checks, one-fact worlds) stay at one cache line per table.
constexpr size_t kMinDedupSlots = 8;
constexpr size_t kMinIndexEntries = 4;

// Appends one row to the (writable, capacity-ensured) tail segment. The
// base pointer is refreshed unconditionally: insert only reallocates when a
// caller skipped WritableTail's reserve, but the relaxed store is free.
void AppendRowToTail(Segment& tail, const Value* row, uint32_t arity) {
  tail.heap.insert(tail.heap.end(), row, row + arity);
  tail.base.store(tail.heap.data(), std::memory_order_relaxed);
  ++tail.rows;
}

// The segment table every 0-ary view reads through. A 0-ary store keeps no
// segments, yet the plan runners fetch a row pointer (never dereferenced at
// arity 0) for its one row; one resident segment keeps ArenaView::row and
// segment_base free of an arity branch.
Segment* const* NullarySegments() {
  static Segment* const table[1] = {[] {
    static Value sentinel;
    static Segment segment;
    segment.base.store(&sentinel, std::memory_order_relaxed);
    return &segment;
  }()};
  return table;
}

}  // namespace

size_t PositionIndex::FindSlot(Value v) const {
  const size_t mask = entries_.size() - 1;
  size_t i = Slot(v) & mask;
  while (entries_[i].length != 0 && entries_[i].value != v) {
    i = (i + 1) & mask;
  }
  return i;
}

void PositionIndex::Rehash(size_t size) {
  std::vector<Entry> old = std::move(entries_);
  entries_.assign(size, Entry{});
  for (const Entry& e : old) {
    if (e.length != 0) entries_[FindSlot(e.value)] = e;
  }
}

void PositionIndex::Append(Value v, TupleRef ref) {
  if (entries_.empty()) Rehash(kMinIndexEntries);
  size_t i = FindSlot(v);
  if (entries_[i].length == 0) {
    // A new value: grow the table first if it would pass load 1/2.
    if ((distinct_ + 1) * 2 > entries_.size()) {
      Rehash(entries_.size() * 2);
      i = FindSlot(v);
    }
    ++distinct_;
    entries_[i] = Entry{v, static_cast<uint32_t>(pool_.size()), 1};
    pool_.push_back(ref);
    return;
  }
  Entry& e = entries_[i];
  // A run's capacity is bit_ceil(length), so a power-of-two length is full.
  if (std::has_single_bit(e.length)) {
    const size_t end = pool_.size();
    if (e.offset + e.length == end) {
      pool_.resize(end + e.length);
    } else {
      pool_.resize(end + 2 * static_cast<size_t>(e.length));
      std::copy_n(pool_.begin() + e.offset, e.length, pool_.begin() + end);
      e.offset = static_cast<uint32_t>(end);
    }
  }
  pool_[e.offset + e.length++] = ref;
}

void Instance::Store::ReserveDedup(size_t rows) {
  if (rows * 2 <= dedup.size()) return;
  std::vector<DedupSlot> old = std::move(dedup);
  dedup.assign(std::max(kMinDedupSlots, std::bit_ceil(rows * 2)),
               DedupSlot{});
  for (const DedupSlot& slot : old) {
    if (slot.ref1 != 0) InsertDedup(slot.hash, slot.ref1 - 1);
  }
}

size_t Instance::Store::ProbeDedup(const Value* row, uint32_t hash) const {
  const size_t mask = dedup.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const DedupSlot& slot = dedup[i];
    if (slot.ref1 == 0) return i;
    if (slot.hash == hash && RowEquals(RowPtr(slot.ref1 - 1), row, arity)) {
      return i;
    }
  }
}

void Instance::Store::InsertDedup(uint32_t hash, TupleRef ref) {
  const size_t mask = dedup.size() - 1;
  size_t i = hash & mask;
  while (dedup[i].ref1 != 0) i = (i + 1) & mask;
  dedup[i] = DedupSlot{hash, ref + 1};
}

Instance::Store::Store(const Store& other)
    : arity(other.arity),
      num_rows(other.num_rows),
      // Segments are shared, not copied: sealed segments are
      // content-immutable, and the partial tail is unshared lazily by
      // WritableTail on the first write from either side.
      segs(other.segs),
      seg_ptrs(other.seg_ptrs) {
  // Snapshot the lazy structures consistently: index and dedup catch-up
  // mutate their tables + watermarks under index_mu, so hold the source's
  // lock while copying all four.
  std::lock_guard<std::mutex> lock(other.index_mu);
  dedup = other.dedup;
  dedup_rows.store(other.dedup_rows.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  index = other.index;
  indexed_rows.store(other.indexed_rows.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
}

Instance::Instance(std::shared_ptr<const Schema> schema)
    : schema_(std::move(schema)) {
  EnsureSlots();
}

void Instance::EnsureSlots() const {
  while (stores_.size() < schema_->size()) {
    auto store = std::make_shared<Store>();
    store->arity = schema_->arity(static_cast<RelationId>(stores_.size()));
    // Shaped from birth so IndexFor's fast path (0 rows indexed of 0) hands
    // out a well-formed per-position index even for empty relations.
    store->index.positions.resize(store->arity);
    stores_.push_back(std::move(store));
  }
}

Instance::Store& Instance::Mutable(RelationId relation) {
  std::shared_ptr<Store>& slot = stores_[relation];
  if (slot.use_count() > 1) slot = std::make_shared<Store>(*slot);
  return *slot;
}

void Instance::EnsureDedup(Store& store) {
  const size_t n = store.num_rows;
  // Fast path: the table already covers every row (always true except after
  // Load, whose instances defer the rebuild until the first probe). The
  // acquire load pairs with the release store below.
  if (store.dedup_rows.load(std::memory_order_acquire) == n) return;
  std::lock_guard<std::mutex> lock(store.index_mu);
  size_t done = store.dedup_rows.load(std::memory_order_relaxed);
  if (done == n) return;  // raced, other thread won
  if (store.arity > 0) {
    // Sized once for the whole catch-up. Stored rows are duplicate-free, so
    // each goes straight to an empty slot without a row comparison.
    store.ReserveDedup(n);
    for (size_t row = done; row < n; ++row) {
      const TupleRef ref = static_cast<TupleRef>(row);
      store.InsertDedup(DedupHash(store.RowPtr(ref), store.arity), ref);
    }
  }
  store.dedup_rows.store(n, std::memory_order_release);
}

std::optional<TupleRef> Instance::Lookup(Store& store, const Value* row,
                                         uint32_t hash) {
  if (store.num_rows == 0) return std::nullopt;
  EnsureDedup(store);
  const DedupSlot& slot = store.dedup[store.ProbeDedup(row, hash)];
  if (slot.ref1 == 0) return std::nullopt;
  return slot.ref1 - 1;
}

Segment& Instance::WritableTail(Store& store) {
  if (store.segs.empty() || store.segs.back()->sealed()) {
    auto seg = std::make_shared<Segment>();
    store.seg_ptrs.push_back(seg.get());
    store.segs.push_back(std::move(seg));
  } else {
    std::shared_ptr<Segment>& slot = store.segs.back();
    if (slot.use_count() > 1 ||
        (slot->rows > 0 && !slot->heap_backed())) {
      // The tail is shared with a fork, mapped from a snapshot, or spilled:
      // replace it with a private heap copy before writing. Sealed segments
      // never reach here (handled above), so this copies at most one
      // partial segment.
      auto seg = std::make_shared<Segment>();
      seg->rows = slot->rows;
      const size_t n = static_cast<size_t>(slot->rows) * store.arity;
      const Value* src = slot->base.load(std::memory_order_acquire);
      if (src == nullptr) src = slot->FaultIn(store.arity);
      seg->heap.assign(src, src + n);
      seg->base.store(seg->heap.data(), std::memory_order_relaxed);
      store.seg_ptrs.back() = seg.get();
      slot = std::move(seg);
    }
  }
  Segment& tail = *store.segs.back();
  // Grow the tail geometrically up to full segment capacity, so small
  // relations (and freshly unshared tails in fork-heavy worlds) don't pay
  // a full kSegmentRows * arity allocation up front.
  const size_t need = (static_cast<size_t>(tail.rows) + 1) * store.arity;
  if (tail.heap.capacity() < need) {
    size_t cap = std::max(tail.heap.capacity() * 2,
                          static_cast<size_t>(16) * store.arity);
    cap = std::min(cap, kSegmentRows * static_cast<size_t>(store.arity));
    cap = std::max(cap, need);
    tail.heap.reserve(cap);
    tail.base.store(tail.heap.data(), std::memory_order_relaxed);
  }
  return tail;
}

Status Instance::MaybeSpill() {
  if (spill_ == nullptr || spill_->budget_bytes == 0) return Status::OK();
  size_t resident = ResidentBytes();
  if (resident <= spill_->budget_bytes) return Status::OK();
  MAPINV_FAILPOINT(fp_spill);
  std::shared_ptr<SpillFile> file;
  {
    std::lock_guard<std::mutex> lock(spill_->mu);
    if (spill_->file == nullptr) {
      MAPINV_ASSIGN_OR_RETURN(spill_->file, SpillFile::Create(spill_->dir));
    }
    file = spill_->file;
  }
  // Evict cold sealed segments oldest-first (ascending relation, then
  // ascending segment) until back under budget. Anything shared with a
  // fork — a shared store, or a shared segment of a private store — is
  // skipped: sibling instances may be reading it concurrently, and the
  // budget holds per instance, not per fork family.
  for (RelationId r = 0;
       r < stores_.size() && resident > spill_->budget_bytes; ++r) {
    if (stores_[r].use_count() > 1) continue;
    Store& store = *stores_[r];
    for (size_t s = 0;
         s < store.segs.size() && resident > spill_->budget_bytes; ++s) {
      std::shared_ptr<Segment>& slot = store.segs[s];
      if (slot.use_count() > 1) continue;
      Segment& seg = *slot;
      if (!seg.sealed() || !seg.heap_backed()) continue;
      if (seg.spill == nullptr) {
        // First eviction of this segment: persist the payload. A segment
        // that was spilled before and faulted back re-evicts for free —
        // sealed payloads are immutable, so the old file bytes still match.
        MAPINV_ASSIGN_OR_RETURN(
            seg.spill_offset,
            file->Append(seg.heap.data(), seg.heap.size() * sizeof(Value)));
        seg.spill = file;
        seg.spill_state = spill_;
      }
      const size_t freed = seg.heap.capacity() * sizeof(Value);
      seg.base.store(nullptr, std::memory_order_relaxed);
      std::vector<Value>().swap(seg.heap);
      resident -= std::min(freed, resident);
      if (spill_->stats != nullptr) {
        spill_->stats->segments_spilled.fetch_add(1,
                                                  std::memory_order_relaxed);
      }
    }
  }
  return Status::OK();
}

void Instance::SetMemoryBudget(uint64_t budget_bytes, std::string spill_dir,
                               ExecStats* stats) {
  if (budget_bytes == 0) {
    spill_.reset();
    return;
  }
  auto state = std::make_shared<SpillState>();
  state->budget_bytes = budget_bytes;
  state->dir = std::move(spill_dir);
  state->stats = stats;
  spill_ = std::move(state);
}

Result<bool> Instance::AddRow(RelationId relation, RowView row) {
  MAPINV_FAILPOINT(fp_add_row);
  EnsureSlots();
  if (relation >= schema_->size()) {
    return Status::NotFound("relation id " + std::to_string(relation) +
                            " not in schema");
  }
  if (row.size() != schema_->arity(relation)) {
    return Status::InvalidArgument(
        "arity mismatch for " + schema_->name(relation) + ": got " +
        std::to_string(row.size()) + ", want " +
        std::to_string(schema_->arity(relation)));
  }
  const uint32_t arity = schema_->arity(relation);
  const uint32_t hash = arity > 0 ? DedupHash(row.data(), arity) : 0;
  // Probe the store as it stands, so a duplicate never clones a shared one.
  Store& current = *stores_[relation];
  if (arity == 0 ? current.num_rows > 0
                 : Lookup(current, row.data(), hash).has_value()) {
    return false;
  }
  MAPINV_RETURN_NOT_OK(MaybeSpill());
  Store& store = Mutable(relation);
  const TupleRef ref = static_cast<TupleRef>(store.num_rows);
  if (arity > 0) {
    Segment& tail = WritableTail(store);
    AppendRowToTail(tail, row.data(), arity);
    store.ReserveDedup(store.num_rows + 1);
    store.InsertDedup(hash, ref);
  }
  ++store.num_rows;
  store.dedup_rows.store(store.num_rows, std::memory_order_relaxed);
  return true;
}

Result<size_t> Instance::AddRows(RelationId relation, const Value* rows,
                                 size_t count, std::vector<uint8_t>* added) {
  // One failpoint per batch, fired before any mutation: an injected failure
  // keeps the whole-batch strong guarantee a per-row loop would give.
  MAPINV_FAILPOINT(fp_add_row);
  EnsureSlots();
  if (relation >= schema_->size()) {
    return Status::NotFound("relation id " + std::to_string(relation) +
                            " not in schema");
  }
  if (added != nullptr) added->assign(count, 0);
  if (count == 0) return size_t{0};
  MAPINV_RETURN_NOT_OK(MaybeSpill());
  const uint32_t arity = schema_->arity(relation);
  Store& store = Mutable(relation);
  if (arity == 0) {
    // 0-ary relations hold at most one (empty) row; only the first insert
    // into an empty store adds anything.
    if (store.num_rows > 0) return size_t{0};
    store.num_rows = 1;
    store.dedup_rows.store(1, std::memory_order_relaxed);
    if (added != nullptr) (*added)[0] = 1;
    return size_t{1};
  }
  EnsureDedup(store);
  store.ReserveDedup(store.num_rows + count);
  size_t inserted = 0;
  for (size_t i = 0; i < count; ++i) {
    const Value* row = rows + i * arity;
    const uint32_t hash = DedupHash(row, arity);
    // Probes see rows appended earlier in this same batch, so intra-batch
    // duplicates dedup exactly as a per-row AddRow loop would. The table
    // was sized for the whole batch, so the probed empty slot stays valid.
    DedupSlot& slot = store.dedup[store.ProbeDedup(row, hash)];
    if (slot.ref1 != 0) continue;
    const TupleRef ref = static_cast<TupleRef>(store.num_rows);
    // WritableTail per row: cheap branches in the common case, and it
    // transparently seals + opens segments for batches that straddle a
    // segment boundary.
    Segment& tail = WritableTail(store);
    AppendRowToTail(tail, row, arity);
    slot = DedupSlot{hash, ref + 1};
    ++store.num_rows;
    ++inserted;
    if (added != nullptr) (*added)[i] = 1;
  }
  store.dedup_rows.store(store.num_rows, std::memory_order_relaxed);
  return inserted;
}

void Instance::Reserve(RelationId relation, size_t additional_rows) {
  EnsureSlots();
  if (relation >= schema_->size() || additional_rows == 0) return;
  Store& store = Mutable(relation);
  if (store.arity == 0) return;
  store.ReserveDedup(store.num_rows + additional_rows);
  // Pre-grow the tail for as many of the rows as fit in it; rows beyond the
  // segment boundary allocate fresh segments as they arrive.
  Segment& tail = WritableTail(store);
  const size_t room = kSegmentRows - tail.rows;
  const size_t want = std::min(additional_rows, room);
  const size_t need = (static_cast<size_t>(tail.rows) + want) * store.arity;
  if (tail.heap.capacity() < need) {
    tail.heap.reserve(need);
    tail.base.store(tail.heap.data(), std::memory_order_relaxed);
  }
}

Result<bool> Instance::Add(std::string_view relation, Tuple tuple) {
  MAPINV_ASSIGN_OR_RETURN(RelationId id, schema_->Require(relation));
  return AddTuple(id, std::move(tuple));
}

Result<bool> Instance::AddInts(std::string_view relation,
                               const std::vector<int64_t>& values) {
  Tuple tuple;
  tuple.reserve(values.size());
  for (int64_t v : values) tuple.push_back(Value::Int(v));
  return Add(relation, std::move(tuple));
}

bool Instance::ContainsRow(RelationId relation, RowView row) const {
  EnsureSlots();
  if (relation >= stores_.size()) return false;
  Store& store = *stores_[relation];
  if (row.size() != store.arity) return false;
  if (store.arity == 0) return store.num_rows > 0;
  return Lookup(store, row.data(), DedupHash(row.data(), store.arity))
      .has_value();
}

std::optional<TupleRef> Instance::FindRow(RelationId relation,
                                          RowView row) const {
  EnsureSlots();
  if (relation >= stores_.size()) return std::nullopt;
  Store& store = *stores_[relation];
  if (row.size() != store.arity) return std::nullopt;
  if (store.arity == 0) {
    if (store.num_rows == 0) return std::nullopt;
    return TupleRef{0};
  }
  return Lookup(store, row.data(), DedupHash(row.data(), store.arity));
}

size_t Instance::NumRows(RelationId relation) const {
  EnsureSlots();
  return stores_[relation]->num_rows;
}

RowView Instance::Row(RelationId relation, TupleRef ref) const {
  EnsureSlots();
  const Store& store = *stores_[relation];
  if (store.arity == 0) return RowView();
  return RowView(store.RowPtr(ref), store.arity);
}

Instance::ArenaView Instance::Arena(RelationId relation) const {
  EnsureSlots();
  const Store& store = *stores_[relation];
  if (store.arity == 0) return ArenaView(NullarySegments(), 0);
  return ArenaView(store.seg_ptrs.data(), store.arity);
}

std::vector<Tuple> Instance::TuplesCopy(RelationId relation) const {
  EnsureSlots();
  const Store& store = *stores_[relation];
  std::vector<Tuple> out;
  out.reserve(store.num_rows);
  for (size_t i = 0; i < store.num_rows; ++i) {
    if (store.arity == 0) {
      out.emplace_back();
      continue;
    }
    const Value* row = store.RowPtr(static_cast<TupleRef>(i));
    out.emplace_back(row, row + store.arity);
  }
  return out;
}

const RelationIndex& Instance::IndexFor(RelationId relation,
                                        size_t* catchup_rows) const {
  EnsureSlots();
  Store& store = *stores_[relation];
  if (catchup_rows != nullptr) *catchup_rows = 0;
  // Fast path: the index already covers every row. The acquire load pairs
  // with the release store below, making the bucket contents visible.
  if (store.indexed_rows.load(std::memory_order_acquire) == store.num_rows) {
    return store.index;
  }
  std::lock_guard<std::mutex> lock(store.index_mu);
  size_t done = store.indexed_rows.load(std::memory_order_relaxed);
  if (done == store.num_rows) return store.index;  // raced, other thread won
  if (store.index.positions.empty()) {
    store.index.positions.resize(store.arity);
  }
  // Position by position, so each pass appends to one pair of arrays. Rows
  // ascend and exceed every indexed ref, so each run stays ascending. A
  // first build sizes each pool once for its rows (later catch-ups grow it
  // geometrically).
  const size_t added = store.num_rows - done;
  for (uint32_t pos = 0; pos < store.arity; ++pos) {
    PositionIndex& index = store.index.positions[pos];
    if (done == 0) index.pool_.reserve(added);
    for (size_t row = done; row < store.num_rows; ++row) {
      const TupleRef ref = static_cast<TupleRef>(row);
      index.Append(store.RowPtr(ref)[pos], ref);
    }
  }
  if (catchup_rows != nullptr) *catchup_rows = added;
  store.indexed_rows.store(store.num_rows, std::memory_order_release);
  return store.index;
}

size_t Instance::TotalSize() const {
  EnsureSlots();
  size_t n = 0;
  for (const auto& store : stores_) n += store->num_rows;
  return n;
}

size_t Instance::ArenaBytes() const {
  EnsureSlots();
  size_t bytes = 0;
  for (const auto& store : stores_) {
    for (const auto& seg : store->segs) {
      const size_t heap_bytes = seg->heap.capacity() * sizeof(Value);
      if (heap_bytes > 0) {
        bytes += heap_bytes;
      } else {
        // Mapped or spilled: count the logical payload.
        bytes += static_cast<size_t>(seg->rows) * store->arity * sizeof(Value);
      }
    }
  }
  return bytes;
}

size_t Instance::ResidentBytes() const {
  EnsureSlots();
  size_t bytes = 0;
  for (const auto& store : stores_) {
    for (const auto& seg : store->segs) {
      bytes += seg->heap.capacity() * sizeof(Value);
    }
  }
  return bytes;
}

bool Instance::IsNullFree() const {
  bool null_free = true;
  ForEachFact([&](RelationId, RowView row) {
    for (const Value& v : row) {
      if (v.is_null()) {
        null_free = false;
        return false;
      }
    }
    return true;
  });
  return null_free;
}

std::vector<Value> Instance::ActiveDomain() const {
  std::unordered_set<Value, ValueHash> seen;
  std::vector<Value> out;
  ForEachFact([&](RelationId, RowView row) {
    for (const Value& v : row) {
      if (seen.insert(v).second) out.push_back(v);
    }
  });
  // Deterministic ascending Value order (constants before nulls, each by
  // id), independent of hash-map iteration and insertion history.
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Fact> Instance::AllFacts() const {
  std::vector<Fact> out;
  out.reserve(TotalSize());
  ForEachFact([&](RelationId r, RowView row) {
    out.push_back(Fact{r, Tuple(row.begin(), row.end())});
  });
  return out;
}

bool Instance::SubsetOf(const Instance& other) const {
  EnsureSlots();
  bool subset = true;
  RelationId other_id = kInvalidRelation;
  RelationId last_rel = kInvalidRelation;
  ForEachFact([&](RelationId r, RowView row) {
    if (r != last_rel) {
      last_rel = r;
      other_id = other.schema().Find(schema_->name(r));
    }
    if (other_id == kInvalidRelation || !other.ContainsRow(other_id, row)) {
      subset = false;
      return false;
    }
    return true;
  });
  return subset;
}

Status Instance::UnionWith(const Instance& other) {
  for (RelationId r = 0; r < other.schema().size(); ++r) {
    if (other.NumRows(r) == 0) continue;
    MAPINV_ASSIGN_OR_RETURN(RelationId mine,
                            schema_->Require(other.schema().name(r)));
    const size_t n = other.NumRows(r);
    for (size_t i = 0; i < n; ++i) {
      MAPINV_ASSIGN_OR_RETURN(
          bool added, AddRow(mine, other.Row(r, static_cast<TupleRef>(i))));
      (void)added;
    }
  }
  return Status::OK();
}

std::string Instance::ToString() const {
  // Every fact is rendered once, end to end, into `facts`. The sort moves
  // small entries keyed by the first 8 bytes of each rendering, read
  // big-endian (zero-padded) so that integer order is byte order, and
  // compares whole renderings only when those keys tie.
  struct Entry {
    uint64_t key;
    size_t begin;
    size_t size;
  };
  std::string facts;
  std::vector<Entry> entries;
  entries.reserve(TotalSize());
  ForEachFact([&](RelationId r, RowView row) {
    const size_t begin = facts.size();
    facts += schema_->name(r);
    facts.push_back('(');
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) facts.push_back(',');
      AppendFactValue(row[i], &facts);
    }
    facts.push_back(')');
    const size_t size = facts.size() - begin;
    uint64_t key = 0;
    for (size_t i = 0; i < std::min<size_t>(size, 8); ++i) {
      key |= uint64_t{static_cast<unsigned char>(facts[begin + i])}
             << (56 - 8 * i);
    }
    entries.push_back(Entry{key, begin, size});
  });
  const char* base = facts.data();
  std::sort(entries.begin(), entries.end(),
            [base](const Entry& a, const Entry& b) {
              if (a.key != b.key) return a.key < b.key;
              // Equal keys mean equal leading bytes, up to the shorter size.
              const size_t skip = std::min({a.size, b.size, size_t{8}});
              return std::string_view(base + a.begin + skip, a.size - skip) <
                     std::string_view(base + b.begin + skip, b.size - skip);
            });
  std::string out;
  // "{ " + facts joined by ", " + " }"; the empty instance is "{  }".
  out.reserve(facts.size() + 2 * std::max<size_t>(entries.size(), 1) + 2);
  out += "{ ";
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out += ", ";
    out.append(base + entries[i].begin, entries[i].size);
  }
  out += " }";
  return out;
}

}  // namespace mapinv
