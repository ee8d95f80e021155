/// \file instance.h
/// \brief Database instances: segmented columnar tuple storage with
/// instance-owned value indexes, copy-on-write forks, mmap-able snapshots
/// and spill-to-disk past a memory budget.
///
/// An Instance is bound to a Schema (shared ownership) and stores, for each
/// relation, a duplicate-free sequence of rows. Storage is *columnar in
/// spirit, paged in layout*: every relation keeps a chain of fixed-capacity
/// segments of kSegmentRows rows each (row-major, stride = arity), so a row
/// is the slice `segment[(ref & mask) * arity ..)` of segment `ref >> shift`
/// and a full-relation scan sweeps whole segment stripes with no per-tuple
/// heap allocation. Rows are addressed by dense `TupleRef` (uint32 row index
/// in insertion order); deduplication hashes row contents into a flat
/// open-addressed table of row refs. Segment capacity matches the vectorized
/// executor's default 1024-row block, so block scans tile segments exactly
/// (see eval/vector_plan.h and docs/STORAGE.md).
///
/// Properties the rest of the pipeline relies on:
///
///   * **Append-only, insertion-ordered.** Rows are never removed or
///     reordered, which keeps chase output deterministic and lets derived
///     structures catch up incrementally. Appends never move sealed
///     segments, so row views into sealed segments survive appends.
///   * **Instance-owned persistent indexes.** The (position, value) → rows
///     buckets that every homomorphism search needs live here, behind a
///     per-relation version counter (`indexed rows` vs `total rows`), built
///     lazily and extended incrementally. All HomSearch objects over one
///     instance share them; constructing a search is free.
///   * **Copy-on-write forks.** Copying an Instance is O(#relations): the
///     copy shares every relation store with the original, and a store is
///     cloned only on the first subsequent write to it from either side. A
///     cloned store still *shares every sealed segment* with its source —
///     only the partial tail is unshared, and only when actually written —
///     so fork-heavy worlds pay per-write tail copies, never whole-arena
///     copies. The dedup table and the index are flat arrays, so the clone
///     copies a few arrays (two per indexed position), not one node per
///     row. `Fork()`/`Snapshot()` name this explicitly.
///   * **Reopenable artifacts.** `Save`/`Load` persist an instance to an
///     mmap-able snapshot file (segment pages + interner side table; dedup
///     and indexes are rebuilt lazily on demand), and `SetMemoryBudget`
///     arms spill-to-disk: past the budget, cold sealed segments are
///     evicted to an unlinked spill file and faulted back on access.
///
/// Thread-safety contract (unchanged): concurrent *reads* — including lazy
/// index/dedup catch-up and segment fault-in, which are internally
/// synchronised — are safe on instances that do not grow; any mutation of an
/// instance, or of an instance sharing its stores, must be externally
/// ordered before/after concurrent access. Segment eviction happens only
/// inside mutations, and only to segments not shared with any fork, so
/// concurrent readers of a sibling instance are never invalidated.

#ifndef MAPINV_DATA_INSTANCE_H_
#define MAPINV_DATA_INSTANCE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "base/status.h"
#include "data/schema.h"
#include "data/segment.h"
#include "data/value.h"

namespace mapinv {

struct ExecStats;

/// \brief A database tuple as a standalone value: a fixed-length sequence of
/// values. Inside an Instance tuples live in relation segments, not in
/// individual vectors; Tuple remains the exchange type at API boundaries.
using Tuple = std::vector<Value>;

/// \brief Dense row id within one relation of one instance, in insertion
/// order.
using TupleRef = uint32_t;

/// \brief Borrowed view of one row of a relation (arity values, contiguous —
/// a row never straddles a segment boundary). Valid until the owning
/// instance's relation store is next mutated.
using RowView = std::span<const Value>;

struct TupleHash {
  size_t operator()(const Tuple& t) const {
    size_t seed = t.size();
    for (const Value& v : t) HashCombine(seed, v.Hash());
    return seed;
  }
};

/// Hash of a row slice; agrees with TupleHash on equal contents.
inline size_t HashRow(RowView row) {
  size_t seed = row.size();
  for (const Value& v : row) HashCombine(seed, v.Hash());
  return seed;
}

/// \brief A fact: a relation id together with a tuple.
struct Fact {
  RelationId relation;
  Tuple tuple;

  friend bool operator==(const Fact& a, const Fact& b) {
    return a.relation == b.relation && a.tuple == b.tuple;
  }
};

/// \brief value-at-position → ascending row refs, for one position of one
/// relation. Owned by the instance; see Instance::IndexFor.
///
/// Two flat arrays. `entries_` is an open-addressed table (linear probing,
/// power-of-two size, load <= 1/2) of {value, offset, length}; a value's
/// bucket is the contiguous run pool_[offset, offset + length) of the one
/// pooled ref array. A run's capacity is its length rounded up to a power
/// of two. A full run at the pool's end grows in place; any other full run
/// moves to the end at double capacity, leaving its old slots unused (the
/// pool stays under 4 refs per indexed row, so 32-bit offsets hold below
/// 2^30 rows). Indexing a row allocates nothing per row, and copying the
/// index copies two arrays.
class PositionIndex {
 public:
  /// The rows holding `v` at this position, ascending; empty when absent.
  /// Valid until the index next catches up (Instance::IndexFor).
  std::span<const TupleRef> Bucket(Value v) const {
    if (entries_.empty()) return {};
    const size_t mask = entries_.size() - 1;
    for (size_t i = Slot(v) & mask;; i = (i + 1) & mask) {
      const Entry& e = entries_[i];
      if (e.length == 0) return {};
      if (e.value == v) return {pool_.data() + e.offset, e.length};
    }
  }

 private:
  friend class Instance;

  struct Entry {
    Value value;
    uint32_t offset = 0;
    uint32_t length = 0;  ///< 0 marks an empty slot
  };

  static size_t Slot(Value v) {
    const uint64_t x = v.bits() * 0x9e3779b97f4a7c15ULL;
    return static_cast<size_t>(x ^ (x >> 32));
  }

  /// The slot holding `v`, else the empty slot where it would go. The
  /// table must be non-empty.
  size_t FindSlot(Value v) const;
  /// Resizes the table to `size` slots (a power of two) and reinserts.
  void Rehash(size_t size);
  /// Appends `ref` to `v`'s bucket; `ref` exceeds every ref indexed so far.
  void Append(Value v, TupleRef ref);

  std::vector<Entry> entries_;
  size_t distinct_ = 0;
  std::vector<TupleRef> pool_;
};

/// \brief The per-relation value index: one PositionIndex per column.
struct RelationIndex {
  std::vector<PositionIndex> positions;
};

/// \brief An instance of a relational schema.
class Instance {
 public:
  /// \brief Borrowed, segment-aware view of one relation's rows — the
  /// hot-loop row accessor replacing the retired flat-arena pointer. One
  /// shift, one mask and one segment-table load per row; a spilled segment
  /// is faulted back in transparently on first touch (internally
  /// synchronised, so concurrent readers of a non-growing instance may race
  /// on the fault). Valid until the relation store is next mutated.
  class ArenaView {
   public:
    ArenaView() = default;

    /// Pointer to row `ref` (arity contiguous values).
    const Value* row(TupleRef ref) const {
      Segment* seg = segs_[ref >> kSegmentRowShift];
      const Value* base = seg->base.load(std::memory_order_acquire);
      if (base == nullptr) [[unlikely]] base = seg->FaultIn(arity_);
      return base + static_cast<size_t>(ref & kSegmentRowMask) * arity_;
    }

    /// Base pointer of segment `seg_index` (rows
    /// [seg_index * kSegmentRows ..), row-major, stride = arity), faulting
    /// it resident if spilled. For scan loops that tile whole stripes.
    const Value* segment_base(size_t seg_index) const {
      Segment* seg = segs_[seg_index];
      const Value* base = seg->base.load(std::memory_order_acquire);
      if (base == nullptr) [[unlikely]] base = seg->FaultIn(arity_);
      return base;
    }

    uint32_t arity() const { return arity_; }

   private:
    friend class Instance;
    ArenaView(Segment* const* segs, uint32_t arity)
        : segs_(segs), arity_(arity) {}

    Segment* const* segs_ = nullptr;
    uint32_t arity_ = 0;
  };

  /// Creates an empty instance of `schema`.
  explicit Instance(std::shared_ptr<const Schema> schema);

  /// Convenience: copies the schema into shared ownership.
  explicit Instance(const Schema& schema)
      : Instance(std::make_shared<const Schema>(schema)) {}

  /// Copying an instance is an O(#relations) copy-on-write fork: both sides
  /// share every relation store until one of them writes to it, and even
  /// then the clone shares every sealed segment. Reads on the copy are
  /// exactly as fast as on the original (same segments, same already-built
  /// indexes).
  Instance(const Instance&) = default;
  Instance& operator=(const Instance&) = default;
  Instance(Instance&&) = default;
  Instance& operator=(Instance&&) = default;

  /// Explicit O(1)-per-relation copy-on-write fork (same operation as the
  /// copy constructor, named for the worlds-based algorithms). The fork and
  /// the original are fully isolated observationally: a write to either
  /// clones the written relation's store (and unshares its tail segment)
  /// first.
  Instance Fork() const { return *this; }

  /// A cheap point-in-time copy intended to be kept immutable (identical
  /// mechanism to Fork; the name documents intent at call sites).
  Instance Snapshot() const { return *this; }

  const Schema& schema() const { return *schema_; }
  std::shared_ptr<const Schema> schema_ptr() const { return schema_; }

  /// Inserts a tuple; returns true if it was new. Fails on arity mismatch or
  /// unknown relation.
  Result<bool> AddTuple(RelationId relation, Tuple tuple) {
    return AddRow(relation, RowView(tuple));
  }

  /// Inserts a row (copying the values into the relation's tail segment);
  /// returns true if it was new. Fails on arity mismatch or unknown
  /// relation. The allocation-free hot path for the chase engines: callers
  /// reuse one scratch buffer across firings.
  Result<bool> AddRow(RelationId relation, RowView row);

  /// Bulk insert of `count` rows laid out row-major in `rows` (stride =
  /// arity). Semantically identical to calling AddRow on each row in order —
  /// same dedup (including against earlier rows of the same batch), same
  /// resulting refs, batches straddling segment boundaries included — but
  /// pays the failpoint, schema checks, budget check and copy-on-write gate
  /// once per batch instead of once per row. Returns the number of rows that
  /// were new; if `added` is non-null it is resized to `count` and
  /// `(*added)[i]` is 1 iff row i was inserted (so callers can reconstruct
  /// each inserted row's TupleRef from the prefix counts).
  Result<size_t> AddRows(RelationId relation, const Value* rows, size_t count,
                         std::vector<uint8_t>* added = nullptr);

  /// Capacity hint: pre-grows the relation's tail segment and dedup table
  /// for `additional_rows` more rows, so a chase fire loop does not
  /// reallocate mid-batch (growth beyond the tail's capacity allocates
  /// fresh segments as the rows arrive). Never shrinks; no-op for unknown
  /// relations. Takes the copy-on-write gate like any mutation.
  void Reserve(RelationId relation, size_t additional_rows);

  /// Inserts a tuple by relation name.
  Result<bool> Add(std::string_view relation, Tuple tuple);

  /// Inserts a tuple whose values are the decimal constants of `values`.
  Result<bool> AddInts(std::string_view relation,
                       const std::vector<int64_t>& values);

  /// True if the instance contains the fact.
  bool Contains(RelationId relation, const Tuple& tuple) const {
    return ContainsRow(relation, RowView(tuple));
  }

  /// True if the instance contains the row.
  bool ContainsRow(RelationId relation, RowView row) const;

  /// The dense ref of `row` within `relation`, or nullopt if absent. Rows
  /// are duplicate-free, so the ref is unique; because insertion order is
  /// append-only, `*FindRow(...) < n` partitions an instance's rows into
  /// "first n" and "appended since" — the delta chase's old/new test.
  std::optional<TupleRef> FindRow(RelationId relation, RowView row) const;

  /// Number of rows of one relation.
  size_t NumRows(RelationId relation) const;

  /// One row of a relation, by dense ref (insertion order). The view is
  /// valid until the relation store is next mutated.
  RowView Row(RelationId relation, TupleRef ref) const;

  /// Segment-aware row accessor for the homomorphism/scan kernels: row i's
  /// position p is `view.row(i)[p]`. Valid until the relation store is next
  /// mutated. (The flat `ArenaData` pointer is retired: a relation's rows
  /// are no longer one contiguous allocation.) A 0-ary relation's row
  /// pointer is valid but holds no values.
  ArenaView Arena(RelationId relation) const;

  /// Materialises all tuples of one relation, in insertion order. Compat /
  /// test helper — production paths use NumRows/Row/Arena.
  std::vector<Tuple> TuplesCopy(RelationId relation) const;

  /// The instance-owned (position, value) → rows index of one relation,
  /// built lazily and caught up incrementally over appended rows (the
  /// relation's version counter is its indexed-row count). Shared by every
  /// HomSearch over this instance — and, until a write diverges them, by
  /// every fork. If `catchup_rows` is non-null it receives the number of
  /// rows newly indexed by this call (0 on the fast path), which feeds
  /// ExecStats::index_catchup_rows.
  ///
  /// Catch-up is internally synchronised (double-checked under a
  /// per-relation mutex), so concurrent searches over a non-growing
  /// instance may race to build the index safely.
  const RelationIndex& IndexFor(RelationId relation,
                                size_t* catchup_rows = nullptr) const;

  /// Total number of tuples across all relations.
  size_t TotalSize() const;

  /// Bytes of tuple payload held by the relation segments, resident or not
  /// (excludes dedup tables and indexes). Feeds
  /// ExecStats::tuples_arena_bytes.
  size_t ArenaBytes() const;

  /// Heap-resident payload bytes only: spilled segments and mmap-backed
  /// (snapshot) segments are excluded. The quantity the memory budget
  /// bounds; feeds ExecStats::arena_resident_bytes.
  size_t ResidentBytes() const;

  /// Arms spill-to-disk: once ResidentBytes() exceeds `budget_bytes`,
  /// mutations evict cold sealed segments (ascending relation, then
  /// ascending segment — oldest first) to an unlinked spill file under
  /// `spill_dir` (empty: $TMPDIR or /tmp) until back under budget.
  /// Segments shared with forks, mmap-backed segments and partial tails are
  /// never evicted; spilled segments fault back in transparently on read.
  /// Forks inherit the policy (shared state and spill file). A zero budget
  /// disarms. `stats` (may be null) receives segments_spilled /
  /// segments_faulted. See docs/STORAGE.md for the full policy.
  void SetMemoryBudget(uint64_t budget_bytes, std::string spill_dir,
                       ExecStats* stats);

  /// The armed memory budget in bytes (0 when disarmed).
  uint64_t MemoryBudgetBytes() const {
    return spill_ != nullptr ? spill_->budget_bytes : 0;
  }

  /// Persists the instance to an mmap-able snapshot file: a relation
  /// directory, raw segment pages and a sorted constant-spelling side
  /// table. The bytes are a pure function of the logical content (schema,
  /// rows, null labels and constant *spellings* — never process-local
  /// interner ids), so save → load → save round-trips byte-identically.
  /// Dedup tables and indexes are not persisted; Load rebuilds them lazily.
  Status Save(const std::string& path) const;

  /// The snapshot image Save would write, as in-memory bytes. The job layer
  /// (src/job) persists world snapshots through its own fsync'd commit
  /// protocol, so it needs the image without the file write.
  std::string SaveToBytes() const;

  /// Reopens a snapshot written by Save. The file is mapped MAP_PRIVATE:
  /// sealed segments point straight into the mapping (constant ids are
  /// rewritten in place only when the process interner disagrees with the
  /// file's spelling table), the partial tail is copied to heap so it can
  /// accept appends. The schema is rebuilt from the directory. Rejects
  /// corrupted or truncated files with kMalformed without crashing.
  static Result<Instance> Load(const std::string& path);

  /// Load from an in-memory snapshot image (copied). Exercises exactly the
  /// file loader's validation path; used by tests and the snapshot fuzzer.
  static Result<Instance> LoadFromBytes(const void* bytes, size_t size);

  /// True if no tuple contains a labelled null.
  bool IsNullFree() const;

  /// All values occurring in the instance, deduplicated, in deterministic
  /// ascending Value order (constants before nulls, each by id). Callers
  /// may iterate it without leaking hash-map order into their output.
  std::vector<Value> ActiveDomain() const;

  /// Streams every fact, relation-major in insertion order, to `f` as
  /// (RelationId, RowView) without materialising tuples. `f` may return
  /// void, or bool where false stops the iteration early.
  template <typename F>
  void ForEachFact(F&& f) const {
    EnsureSlots();
    for (RelationId r = 0; r < stores_.size(); ++r) {
      const size_t n = NumRows(r);
      if (n == 0) continue;
      const uint32_t arity = schema_->arity(r);
      const ArenaView view = Arena(r);
      for (size_t i = 0; i < n; ++i) {
        RowView row(arity == 0 ? nullptr
                               : view.row(static_cast<TupleRef>(i)),
                    arity);
        if constexpr (std::is_void_v<decltype(f(r, row))>) {
          f(r, row);
        } else {
          if (!f(r, row)) return;
        }
      }
    }
  }

  /// All facts, relation-major in insertion order. Thin materialising
  /// wrapper over ForEachFact, kept for tests and small call sites.
  std::vector<Fact> AllFacts() const;

  /// True if every fact of this instance occurs in `other` (schemas must
  /// agree on the relations used).
  bool SubsetOf(const Instance& other) const;

  /// Set-semantics equality.
  bool EqualTo(const Instance& other) const {
    return SubsetOf(other) && other.SubsetOf(*this);
  }

  /// Adds every fact of `other` into this instance; relation names are
  /// resolved against this instance's schema.
  Status UnionWith(const Instance& other);

  /// Deterministic rendering in the parser's instance syntax: each fact
  /// renders as `name(v1,...,vk)` (values as AppendFactValue spells them),
  /// and the facts are sorted by the bytes of their rendering, compared as
  /// unsigned, then joined by ", " inside "{ " ... " }", e.g.
  /// "{ R(1,2), R(3,4), S(2,5) }". The order is of the rendered bytes, not
  /// of relations or values: "R(9)" sorts before "R1(0)" only because '('
  /// precedes '1'.
  std::string ToString() const;

 private:
  /// One slot of a store's dedup table: 32 mixed bits of the row's hash and
  /// the row's ref + 1 (0 marks an empty slot).
  struct DedupSlot {
    uint32_t hash = 0;
    uint32_t ref1 = 0;
  };

  /// One relation's storage: segment chain + dedup table + owned index.
  /// Shared between forks via shared_ptr; cloned on first write to a shared
  /// store — and the clone still shares the (content-immutable) sealed
  /// segments, unsharing only the tail, and only when it is written. The
  /// clone copies the flat dedup and index arrays.
  struct Store {
    uint32_t arity = 0;
    size_t num_rows = 0;
    /// Row-major segments of kSegmentRows rows each (empty for 0-ary
    /// relations, whose rows are counted by num_rows alone). Only the last
    /// segment may be partial.
    std::vector<std::shared_ptr<Segment>> segs;
    /// Flat mirror of `segs` for the one-load hot-path row accessor.
    std::vector<Segment*> seg_ptrs;
    /// Open-addressed row-hash table (linear probing, power-of-two size,
    /// load <= 1/2) over rows [0, dedup_rows); lazily rebuilt after Load.
    /// Empty for 0-ary relations, whose one row num_rows alone records.
    std::vector<DedupSlot> dedup;
    std::atomic<size_t> dedup_rows{0};
    /// Lazily built value index over rows [0, indexed_rows).
    RelationIndex index;
    std::atomic<size_t> indexed_rows{0};
    /// Guards index and dedup catch-up (double-checked via the counters).
    mutable std::mutex index_mu;

    Store() = default;
    Store(const Store& other);
    Store& operator=(const Store&) = delete;

    /// Row accessor over the segment chain (faults spilled segments in).
    const Value* RowPtr(TupleRef ref) const {
      Segment* seg = seg_ptrs[ref >> kSegmentRowShift];
      const Value* base = seg->base.load(std::memory_order_acquire);
      if (base == nullptr) [[unlikely]] base = seg->FaultIn(arity);
      return base + static_cast<size_t>(ref & kSegmentRowMask) * arity;
    }

    /// Grows the dedup table to hold `rows` rows at load <= 1/2, rehashing
    /// from the stored hashes (no row is read). Never shrinks.
    void ReserveDedup(size_t rows);
    /// The slot holding the row equal to `row` (hash `hash`), else the
    /// empty slot where it would go. The table must be non-empty.
    size_t ProbeDedup(const Value* row, uint32_t hash) const;
    /// Records new row `ref` (caller reserved room for it).
    void InsertDedup(uint32_t hash, TupleRef ref);
  };

  std::shared_ptr<const Schema> schema_;
  // Indexed by RelationId; grown when the schema has more relations than
  // were present at construction (schemas are append-only). The pointees
  // are shared with forks; Mutable() clones before any write.
  mutable std::vector<std::shared_ptr<Store>> stores_;
  /// Spill policy shared with forks; null when no budget is armed.
  std::shared_ptr<SpillState> spill_;

  void EnsureSlots() const;
  /// Copy-on-write gate: clones the relation's store iff it is shared.
  Store& Mutable(RelationId relation);
  /// Ensures the store's dedup table covers every row (lazy rebuild after
  /// Load; internally synchronised like index catch-up).
  static void EnsureDedup(Store& store);
  /// The ref of the row equal to `row` (dedup hash `hash`) in a store of
  /// positive arity, catching the dedup table up first.
  static std::optional<TupleRef> Lookup(Store& store, const Value* row,
                                        uint32_t hash);
  /// Ensures the tail segment exists, is heap-backed, is not shared with a
  /// fork, and has capacity for one more row; returns it.
  Segment& WritableTail(Store& store);
  /// Budget enforcement, called before mutations: evicts cold sealed
  /// segments until resident bytes fit the armed budget. Fails only via the
  /// instance/spill failpoint or a spill-file I/O error, before any row of
  /// the pending batch is applied.
  Status MaybeSpill();

  friend struct SnapshotAccess;  // Save/Load implementation (snapshot.cc)
};

}  // namespace mapinv

#endif  // MAPINV_DATA_INSTANCE_H_
