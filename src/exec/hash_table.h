// Key encoding and the hash tables shared by hash join and aggregation.
#ifndef BDCC_EXEC_HASH_TABLE_H_
#define BDCC_EXEC_HASH_TABLE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "exec/batch.h"

namespace bdcc {
namespace exec {

/// \brief Normalizes one or more key columns per row into either an int64
/// (fast paths, see below) or a byte string. All encoders are sel-aware:
/// they produce one key per *logical* row of a batch.
///
/// int64 fast paths (int_path() == true):
///  - kInt:    single integer-backed key — the raw value (TPC-H FK joins).
///  - kCode:   single string key — the dictionary code, canonicalized
///             against the first dictionary seen (probe sides resolve
///             read-only against the build side's canonical space; absent
///             strings yield a never-matching key).
///  - kPacked: two fixed-width keys (i32-backed and/or string codes) packed
///             into one uint64 (e.g. Q1's (l_returnflag, l_linestatus)).
/// Everything else (kBytes) serializes per row with per-column null tags,
/// so composite keys containing NULLs group exactly.
///
/// NULL keys: `valid[i] = 0` flags rows whose key tuple contains a NULL.
/// Joins skip them (SQL: NULL never matches); aggregations group them
/// through EncodeAndAssignGroups (single keys -> DenseKeyMap::NullId,
/// NULL-bearing packed tuples -> exact tagged byte keys).
///
/// Thread-safety: a build/aggregate encoder mutates its canonical string
/// space while encoding and must stay single-threaded. A probe encoder
/// bound with BindProbe never mutates the build encoder's space — any
/// number of probe encoders (one per worker clone, each with private
/// translation caches) may encode concurrently once the build is done.
class KeyEncoder {
 public:
  Status Bind(const Schema& schema, const std::vector<std::string>& key_cols);
  /// Bind as the probe side of `build`: string keys resolve against the
  /// build encoder's canonical space (read-only; misses never match).
  /// `build` must outlive this encoder and be done encoding before probes
  /// start.
  Status BindProbe(const Schema& schema,
                   const std::vector<std::string>& key_cols,
                   const KeyEncoder* build);

  bool int_path() const { return mode_ != Mode::kBytes; }
  size_t num_keys() const { return indices_.size(); }
  const std::vector<int>& indices() const { return indices_; }

  /// True when the matching Encode* call is read-only and therefore safe to
  /// run concurrently from many threads on this *build* encoder: the int
  /// paths without string keys (raw values / packed i32) and the byte path
  /// (serializes values, never touches the canonical space). Single-string
  /// and packed-with-string encodes intern into the canonical space and
  /// must stay single-threaded. Probe encoders bound with BindProbe are
  /// always concurrent-safe per instance (see thread-safety note above).
  bool concurrent_encode_safe() const {
    if (mode_ == Mode::kBytes) return true;
    for (TypeId t : types_) {
      if (t == TypeId::kString) return false;
    }
    return true;
  }

  /// Fast path: per-logical-row int64 keys; `valid[i]`=0 marks NULL keys.
  void EncodeInts(const Batch& batch, std::vector<int64_t>* keys,
                  std::vector<uint8_t>* valid) const;
  /// Generic path: per-logical-row byte keys (complete even for NULL
  /// tuples); `valid[i]`=0 marks rows with a NULL key column.
  void EncodeBytes(const Batch& batch, std::vector<std::string>* keys,
                   std::vector<uint8_t>* valid) const;

  /// Encode from explicit key columns (key_cols[k] is key k, dense, no
  /// selection) — used when merging partial aggregates, so the partial's
  /// stored keys re-encode in *this* encoder's canonical space.
  void EncodeIntsCols(const std::vector<ColumnVector>& key_cols,
                      size_t num_rows, std::vector<int64_t>* keys,
                      std::vector<uint8_t>* valid) const;
  void EncodeBytesCols(const std::vector<ColumnVector>& key_cols,
                       size_t num_rows, std::vector<std::string>* keys,
                       std::vector<uint8_t>* valid) const;

  /// Byte-encode one logical row's key tuple (same tagged format as
  /// EncodeBytes). Used for NULL-bearing tuples on the packed int path,
  /// which need exact per-tuple grouping that 64 bits cannot express.
  std::string EncodeBytesRow(const Batch& batch, size_t logical_row) const;
  std::string EncodeBytesRowCols(const std::vector<ColumnVector>& key_cols,
                                 size_t row) const;

 private:
  enum class Mode { kInt, kCode, kPacked, kBytes };

  // Canonical space of one string key column: the first dictionary seen
  // (ownership shared so expression-generated dictionaries stay alive) plus
  // stable ids for strings outside it.
  struct StringSpace {
    std::shared_ptr<Dictionary> canon;
    std::unordered_map<std::string, uint32_t> side;
  };
  // Per-batch translation cache: source dictionary code -> slot. Holds a
  // shared_ptr so the cached dictionary cannot be freed and its heap
  // address reused by a different dictionary (which would validate the
  // stale cache and translate through the wrong mapping).
  struct TranslateCache {
    std::shared_ptr<Dictionary> src;
    size_t src_size = 0;
    size_t space_version = 0;
    std::vector<int64_t> slot;
  };

  static constexpr int64_t kUnresolved = -2;
  static constexpr uint32_t kSideBase = 1u << 31;
  static constexpr uint32_t kMissSlot = 0xFFFFFFFFu;
  /// Key-column pointer buffers live on the stack up to this arity.
  static constexpr size_t kInlineKeyCols = 8;

  const ColumnVector* const* GatherCols(
      const Batch& batch, const ColumnVector* inline_buf[kInlineKeyCols],
      std::vector<const ColumnVector*>* overflow) const;

  const StringSpace& TargetSpace(size_t k) const {
    return probe_of_ != nullptr ? probe_of_->spaces_[k] : spaces_[k];
  }
  size_t SpaceVersion(size_t k) const;
  /// Slot of string code `code` from dictionary `src` in key column `k`
  /// (canonical code, side id, or kMissSlot on a frozen probe).
  uint32_t StringSlot(size_t k, const std::shared_ptr<Dictionary>& src,
                      int32_t code) const;
  /// 32-bit slot of logical row value in key column `k` (raw bits for
  /// integer-backed, canonicalized code for strings).
  uint32_t SlotOf(size_t k, const ColumnVector& col, size_t row) const;

  void EncodeIntsImpl(const ColumnVector* const* cols, size_t num_rows,
                      const uint32_t* sel, std::vector<int64_t>* keys,
                      std::vector<uint8_t>* valid) const;
  void EncodeBytesImpl(const ColumnVector* const* cols, size_t num_rows,
                       const uint32_t* sel, std::vector<std::string>* keys,
                       std::vector<uint8_t>* valid) const;
  /// Append one row's tagged key bytes to `key`; returns false when a key
  /// column was NULL.
  bool AppendBytesRow(const ColumnVector* const* cols, size_t row,
                      std::string* key) const;

  std::vector<int> indices_;
  std::vector<TypeId> types_;
  Mode mode_ = Mode::kInt;
  const KeyEncoder* probe_of_ = nullptr;
  // Mutated lazily while encoding (canonical adoption / side interning /
  // translation caches); see thread-safety note above.
  mutable std::vector<StringSpace> spaces_;
  mutable std::vector<TranslateCache> caches_;
};

/// Stable 64-bit mixers. ParallelHashAgg's radix merge routes on the
/// *high* bits of these and DenseKeyMap indexes its slots by the *low*
/// bits, so a partition's keys still spread over its own table. Every clone
/// must agree bit-for-bit, so these are fixed functions, not std::hash.
inline uint64_t HashKey64(uint64_t x) {
  // splitmix64 finalizer: cheap and well mixed at both ends.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
uint64_t HashKeyBytes(std::string_view s);

/// \brief Hash map from keys to dense ids 0..n-1 (insertion order). Ids
/// index the caller's payload arrays (join chain heads, aggregate states).
///
/// int64 keys live in one flat open-addressing array of 16-byte
/// {key, id} slots: power-of-two capacity, linear probing from the low
/// bits of HashKey64, id -1 marking an empty slot. The load factor stays
/// at or below 3/4: a table costs 21-43 bytes per key, and a lookup is one
/// hash and usually one or two adjacent cache lines.
/// Byte-string keys (the generic encoder path) use a node map. Both key
/// spaces and the optional dedicated NULL id (NullId, for SQL's "NULLs
/// group together") share one dense id sequence, so an int-keyed
/// aggregation can also hold exact byte keys for NULL-bearing composite
/// tuples.
class DenseKeyMap {
 public:
  /// Existing id or -1.
  int64_t Find(int64_t key) const {
    if (int_size_ == 0) return -1;
    return FindFrom(key, HashKey64(static_cast<uint64_t>(key)) & mask_);
  }
  int64_t Find(const std::string& key) const;
  /// ids[i] = Find(keys[i]) for a batch of int keys: every home slot is
  /// hashed first, then each lookup runs while the slot kPrefetchDistance
  /// keys ahead is being fetched, so cache misses overlap.
  void FindBatch(const int64_t* keys, size_t n, int64_t* ids) const;
  /// Existing id, or insert and return the fresh one (out_inserted flags it).
  int64_t FindOrInsert(int64_t key, bool* out_inserted);
  int64_t FindOrInsert(const std::string& key, bool* out_inserted);
  /// Dense id reserved for NULL keys (allocated on first use).
  int64_t NullId(bool* out_inserted);

  size_t size() const {
    return int_size_ + bytes_map_.size() + (null_id_ >= 0 ? 1 : 0);
  }
  /// Heap footprint for memory accounting: the whole slot array (its
  /// capacity, not just the filled slots) plus the byte-key map.
  uint64_t MemoryBytes() const;
  /// Forget every key; the slot array keeps its capacity for reuse.
  void Clear();

  /// Width of one int-key slot (MemoryBytes accounts capacity x this).
  static constexpr size_t kSlotBytes = 16;
  /// Slots in the int-key array (0 before the first int insert).
  size_t slot_capacity() const { return slots_.size(); }

 private:
  struct Slot {
    int64_t key;
    int64_t id;  // -1 = empty
  };
  static_assert(sizeof(Slot) == kSlotBytes, "slot layout");
  static constexpr size_t kMinSlots = 8;
  static constexpr size_t kPrefetchDistance = 16;

  /// Id of `key` probing from slot `i` (its home slot), or -1.
  int64_t FindFrom(int64_t key, size_t i) const {
    for (;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.id < 0) return -1;
      if (s.key == key) return s.id;
    }
  }

  /// True when `keys` int keys would load `slots` slots past 3/4.
  static bool OverLoaded(size_t keys, size_t slots) {
    return keys * 4 > slots * 3;
  }

  int64_t NextId() const { return static_cast<int64_t>(size()); }
  /// Re-home every int key into a `capacity`-slot array (power of two).
  void Rehash(size_t capacity);

  std::vector<Slot> slots_;
  size_t mask_ = 0;  // slots_.size() - 1 once allocated
  size_t int_size_ = 0;
  std::unordered_map<std::string, int64_t> bytes_map_;
  int64_t null_id_ = -1;
  uint64_t bytes_key_payload_ = 0;
};

/// Encode `batch`'s key tuple per logical row through `encoder` and assign
/// dense group ids from `key_map`, calling `on_new_group(logical_row)` for
/// each freshly inserted group (append the row's key values there). NULL
/// keys follow SQL GROUP BY semantics: single-key int paths use the
/// dedicated null group; NULL-bearing packed tuples fall back to exact
/// tagged byte keys so (1, NULL) and (2, NULL) stay distinct; byte keys
/// are exact by construction. Shared by hash and sandwich aggregation.
void EncodeAndAssignGroups(const KeyEncoder& encoder, DenseKeyMap* key_map,
                           const Batch& batch,
                           std::vector<uint32_t>* group_of_row,
                           const std::function<void(size_t)>& on_new_group);
/// Same, over explicit dense key columns (partial-aggregate merge).
void EncodeAndAssignGroupsCols(const KeyEncoder& encoder,
                               DenseKeyMap* key_map,
                               const std::vector<ColumnVector>& key_cols,
                               size_t num_rows,
                               std::vector<uint32_t>* group_of_row,
                               const std::function<void(size_t)>& on_new_group);

/// \brief Materialized build side of a hash join: the build columns plus a
/// key -> rows index. The DenseKeyMap gives a key's dense id. While every
/// row has its own non-NULL key, ids are handed out in row order, so a
/// key's id *is* its row and no chains exist. The first repeated or NULL
/// key chains the rows so far (`heads_[r] = r`, `next_[r] = end`); from
/// then on `heads_[id]` is the newest row with that key and `next_[row]`
/// links to the next older one, so matches come newest first. Rows are
/// copied in with one AppendGather per column per input batch.
///
/// The build is serial (Init + AddBatch); a parallel build side is a
/// ParallelUnion of scan clones drained into one table (BuildHashTable).
/// A finished table is read-only, so any number of probers may share it.
class JoinHashTable {
 public:
  Status Init(const Schema& build_schema,
              const std::vector<std::string>& key_cols);

  Status AddBatch(const Batch& batch);

  size_t num_rows() const { return num_rows_; }
  const Schema& schema() const { return schema_; }
  const std::vector<ColumnVector>& columns() const { return columns_; }
  const KeyEncoder& encoder() const { return encoder_; }

  /// Key id of `key` (-1: no build row has it); see DenseKeyMap.
  int64_t FindId(int64_t key) const { return key_ids_.Find(key); }
  int64_t FindId(const std::string& key) const { return key_ids_.Find(key); }
  /// ids[i] = FindId(keys[i]) over a batch (DenseKeyMap::FindBatch).
  void FindIds(const int64_t* keys, size_t n, int64_t* ids) const {
    key_ids_.FindBatch(keys, n, ids);
  }

  /// Call fn(row) for each build row of key id `id` >= 0 (newest insertion
  /// first); `row` indexes columns().
  template <typename Fn>
  void ForEachRowOf(int64_t id, Fn fn) const {
    if (!chained_) {
      fn(static_cast<uint32_t>(id));
      return;
    }
    for (uint32_t row = heads_[id]; row != kEnd; row = next_[row]) fn(row);
  }
  /// ForEachRowOf the id of `key`, if any build row has it.
  template <typename Key, typename Fn>
  void ForEachMatch(const Key& key, Fn fn) const {
    int64_t id = FindId(key);
    if (id >= 0) ForEachRowOf(id, fn);
  }
  /// True once a key repeated or was NULL (rows then chain under ids).
  bool chained() const { return chained_; }

  /// Heap bytes held (columns + chains + key map) for memory accounting.
  uint64_t MemoryBytes() const;
  /// Drop every row; the encoder and the columns' dictionaries stay, so the
  /// table can be refilled.
  void Clear();

 private:
  static constexpr uint32_t kEnd = 0xFFFFFFFFu;

  /// Chain rows [0, rows), each the only row of its key id.
  void ChainRowsSoFar(uint32_t rows);

  Schema schema_;
  KeyEncoder encoder_;
  DenseKeyMap key_ids_;
  size_t num_rows_ = 0;
  bool chained_ = false;
  // Only once chained_: per key id the first row in its chain, per row the
  // next row with the same key.
  std::vector<uint32_t> heads_;
  std::vector<uint32_t> next_;
  std::vector<ColumnVector> columns_;
  uint64_t column_bytes_ = 0;
};

/// Heap bytes of one ColumnVector (accounting helper).
uint64_t ColumnVectorBytes(const ColumnVector& v);

}  // namespace exec
}  // namespace bdcc

#endif  // BDCC_EXEC_HASH_TABLE_H_
