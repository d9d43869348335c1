// A live BDCC table: versioned base + delta store + snapshot epochs.
//
// LiveTable turns a loaded BdccTable into a table that takes concurrent
// appends while serving reads. Its state is a chain of immutable
// TableSnapshot versions:
//
//   snapshot = { epoch, base version (a whole BdccTable), delta chunk set }
//
// Appends seal a DeltaChunk and publish epoch N+1 with the chunk added; a
// merge pass folds every chunk of the snapshot it pinned into the dirty
// groups of the base and publishes epoch N+1 with a new base version and
// those chunks removed. Appends only push_back and passes serialize, so the
// pinned chunks are always a prefix of the current list: the published list
// is the current one minus that prefix. Publication is a pointer swap
// under one mutex — readers that called OpenSnapshot() keep their epoch
// pinned (shared ownership of the base version and every chunk) and are
// never invalidated; an epoch retires when the last reader handle closes.
// Nothing a reader can reach is ever mutated after publication, which is
// the whole concurrency story: scans need no locks, and a failed or
// cancelled merge simply publishes nothing.
//
// Merge ordering contract: the merged base is byte-for-byte the table a
// serial AppendToBdccTable of the same rows would produce — base rows keep
// their order, delta rows sort in stably after them (append order across
// chunks, key order within) — so scans over {merged base} and {old base +
// delta chunks} return identical multisets, and a grouped scan reads each
// group's rows in the same base-then-delta order before and after.
#ifndef BDCC_DELTA_LIVE_TABLE_H_
#define BDCC_DELTA_LIVE_TABLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bdcc/append.h"
#include "bdcc/bdcc_table.h"
#include "common/result.h"
#include "delta/delta_store.h"
#include "exec/exec_context.h"

namespace bdcc {
namespace delta {

/// \brief One immutable published version of a live table. Readers hold it
/// by shared_ptr; everything reachable from it is frozen.
struct TableSnapshot {
  uint64_t epoch = 0;
  /// The clustered base at this epoch (group set, zone maps, count table).
  std::shared_ptr<const BdccTable> base;
  /// Unmerged delta chunks, append order (oldest first).
  std::vector<std::shared_ptr<const DeltaChunk>> chunks;
  /// Total rows across chunks.
  uint64_t delta_rows = 0;
};

/// \brief A BDCC table taking live appends: owns the version chain, the
/// delta store, and reader/epoch accounting. Append/OpenSnapshot/Merge are
/// thread-safe; the LiveTable must outlive every snapshot handle it issued.
class LiveTable {
 public:
  struct Options {
    /// Cap on tracked delta bytes (appends past it get ResourceExhausted);
    /// 0 = unlimited.
    uint64_t delta_memory_limit = 0;
  };

  struct MergeStats {
    uint64_t epoch = 0;  // epoch after the pass (unchanged when a no-op)
    uint64_t rows_merged = 0;
    uint64_t groups_merged = 0;
  };

  struct Stats {
    uint64_t epoch = 0;
    uint64_t rows_appended = 0;
    uint64_t chunks_appended = 0;
    uint64_t delta_rows = 0;    // current snapshot
    uint64_t delta_chunks = 0;  // current snapshot
    uint64_t delta_bytes = 0;   // tracked chunk bytes still alive
    uint64_t merges_completed = 0;
    uint64_t merges_failed = 0;
    uint64_t rows_merged = 0;
    uint64_t epochs_retired = 0;
    uint64_t open_snapshots = 0;
  };

  /// `resolver`'s tables are read once, here, into the BdccKeyIndex every
  /// append keys its rows through (so appended rows must reference rows
  /// those tables held at Create; the resolver need not outlive this call).
  /// The base must not have been small-group consolidated (its physical row
  /// order must equal the clustered order, as for bulk append).
  static Result<std::unique_ptr<LiveTable>> Create(
      BdccTable base, const TableResolver* resolver, Options options);
  static Result<std::unique_ptr<LiveTable>> Create(
      BdccTable base, const TableResolver* resolver) {
    return Create(std::move(base), resolver, Options());
  }

  ~LiveTable();
  BDCC_DISALLOW_COPY_AND_ASSIGN(LiveTable);

  const std::string& name() const { return name_; }

  /// Append one batch (source schema, the table's name). On success the new
  /// epoch's snapshot is current; on any failure (schema, fault injection,
  /// memory budget) no state changed. Thread-safe.
  Result<uint64_t> Append(const Table& rows);

  /// Pin the current version. The handle keeps the base version and chunk
  /// set alive; dropping the last handle of a superseded epoch retires it.
  std::shared_ptr<const TableSnapshot> OpenSnapshot();

  /// One incremental re-clustering pass: pin the current snapshot, bucket
  /// all of its delta rows by BDCC key, record the merged row order (clean
  /// groups as they are, dirty groups merged on the key), gather every
  /// column of the new base in that order with one typed loop, and publish a
  /// new epoch atomically with the pinned chunks removed. Passes serialize
  /// on an internal mutex; appends proceed concurrently (chunks sealed
  /// during the pass stay in the delta). `ctx`
  /// (optional) supplies the QueryControl polled between groups —
  /// cancel/deadline unwind the pass with nothing published, as does a
  /// fired `delta.merge` fault — and counts injected faults.
  Result<MergeStats> Merge(exec::ExecContext* ctx = nullptr);

  /// Rows currently in the delta (cheap snapshot read).
  uint64_t delta_rows() const;
  uint64_t epoch() const;
  Stats stats() const;

  /// Called after every successful Append publication (merge triggering).
  /// Runs on the appending thread, outside the publication lock.
  void SetAppendObserver(std::function<void()> observer);

 private:
  LiveTable() = default;

  // Swap `next` in as the current snapshot and retire the previous epoch if
  // it has no open reader handles. Requires mu_ held.
  void PublishLocked(std::shared_ptr<const TableSnapshot> next);
  void OnSnapshotReleased(uint64_t epoch);

  std::string name_;
  BdccKeyIndex key_index_;  // read-only after Create; shared by appenders
  std::unique_ptr<DeltaStore> store_;

  mutable std::mutex mu_;  // snapshot pointer + reader registry + counters
  std::shared_ptr<const TableSnapshot> current_;
  std::map<uint64_t, uint64_t> readers_;  // epoch -> open handles
  uint64_t rows_appended_ = 0;
  uint64_t chunks_appended_ = 0;
  uint64_t merges_completed_ = 0;
  uint64_t merges_failed_ = 0;
  uint64_t rows_merged_ = 0;
  uint64_t epochs_retired_ = 0;

  std::mutex observer_mu_;
  std::function<void()> observer_;

  std::mutex merge_mu_;  // one merge pass at a time
};

}  // namespace delta
}  // namespace bdcc

#endif  // BDCC_DELTA_LIVE_TABLE_H_
