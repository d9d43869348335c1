// Unclustered append region of a live BDCC table.
//
// Every Append(batch) against a live table seals one immutable DeltaChunk:
// the batch's rows with their `_bdcc_` key column looked up in the table's
// BdccKeyIndex (bdcc/append.h — Definition 4 makes a new tuple's key
// independent of old data, so the index is resolved once per live table),
// sorted by that key, zone-mapped at the base table's granularity, and
// pre-bucketed into per-group row slices at the count-table granularity.
// The slices are GroupRanges in the base's key space: a merge pass buckets
// its rows into dirty groups from them without rescanning, and scans prune
// and group-tag them exactly like the base's ranges (see
// opt::GroupSegments). A chunk stays in the current snapshot
// until the next merge pass (which folds every chunk it pinned) publishes.
// Chunks are immutable after Build, which is what makes concurrent
// scan/merge/append safe without read-side locking: readers pin a snapshot
// (see live_table.h) whose chunk set never mutates.
//
// Chunk string columns carry their *own* dictionaries — sharing the base
// table's would mean interning into a dictionary concurrent readers are
// decoding. Scan batches therefore never mix clustered and delta rows (a
// segment scan cuts batches wherever the segment's table changes).
//
// Memory: every chunk charges its footprint to the store's MemoryTracker on
// Build and releases it on destruction (when the last snapshot holding the
// chunk closes). A tracker limit turns appends past the budget into clean
// ResourceExhausted refusals with the store unchanged.
#ifndef BDCC_DELTA_DELTA_STORE_H_
#define BDCC_DELTA_DELTA_STORE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bdcc/append.h"
#include "bdcc/bdcc_table.h"
#include "bdcc/scatter_scan.h"
#include "common/result.h"
#include "exec/memory_tracker.h"
#include "storage/table.h"

namespace bdcc {
namespace delta {

/// \brief One immutable, sealed batch of appended rows.
class DeltaChunk {
 public:
  /// \brief Seal `rows` (source schema, the table's name) into a chunk:
  /// key them through `key_index` (built for `base`'s table), sort, gather
  /// (Column::Gather), zone-map, bucket. Fails without side effects on
  /// schema mismatch, key errors (a dangling foreign key), a fired
  /// `delta.append` fault (IOError), or a delta memory budget refusal
  /// (ResourceExhausted).
  static Result<DeltaChunk> Build(const BdccTable& base, const Table& rows,
                                  const BdccKeyIndex& key_index,
                                  uint32_t zone_rows,
                                  exec::MemoryTracker* memory);

  DeltaChunk(DeltaChunk&& other) noexcept;
  DeltaChunk& operator=(DeltaChunk&& other) noexcept;
  ~DeltaChunk();
  BDCC_DISALLOW_COPY_AND_ASSIGN(DeltaChunk);

  /// Chunk rows in the base data()'s column schema (including `_bdcc_`),
  /// sorted on the key, with zone maps built.
  const Table& data() const { return data_; }
  uint64_t num_rows() const { return data_.num_rows(); }

  /// Key-ascending per-group slices of data() at the count-table
  /// granularity: the same key space as the base's group ranges.
  const std::vector<GroupRange>& groups() const { return groups_; }

  /// Bytes charged to the delta memory tracker.
  uint64_t bytes() const { return bytes_; }

 private:
  explicit DeltaChunk(Table data) : data_(std::move(data)) {}

  Table data_;
  std::vector<GroupRange> groups_;
  uint64_t bytes_ = 0;
  exec::MemoryTracker* memory_ = nullptr;
};

/// \brief Append front of a live table: builds sealed chunks and owns the
/// delta region's memory accounting. Thread-safe — concurrent Append calls
/// build independent chunks (the tracker is atomic); chunk-list publication
/// is the LiveTable's job so it stays atomic with snapshot epochs.
class DeltaStore {
 public:
  /// `zone_rows` is the chunk zone-map granularity (use the base table's);
  /// `memory_limit` > 0 caps the delta region's total tracked bytes.
  DeltaStore(uint32_t zone_rows, uint64_t memory_limit) : zone_rows_(zone_rows) {
    memory_.set_limit(memory_limit);
  }

  /// Seal one append batch against `base` (any version of the table — uses,
  /// masks and schema are version-invariant, so is `key_index`).
  Result<std::shared_ptr<const DeltaChunk>> Append(
      const BdccTable& base, const Table& rows,
      const BdccKeyIndex& key_index) const;

  exec::MemoryTracker* memory() const { return &memory_; }

 private:
  uint32_t zone_rows_;
  mutable exec::MemoryTracker memory_;
};

}  // namespace delta
}  // namespace bdcc

#endif  // BDCC_DELTA_DELTA_STORE_H_
