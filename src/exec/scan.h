// Table scans. One operator, SegmentScan, reads a list of row segments: a
// whole plain table, or the (pruned, possibly group-ordered) group ranges of
// a BDCC table, among which a live snapshot's delta chunks contribute their
// group slices like any other range. Segments skip zones their MinMax zone
// maps rule out, and every read charges simulated I/O through the buffer
// pool when the table is registered with one.
//
// Scans optionally enforce their sargable predicates *row-level* (planner
// pushdown): each zone-bounded chunk is evaluated with typed, branch-free
// kernels directly over the storage lanes (over a column's encoded lane
// when the table built one; string ranges pre-resolved to a
// per-dictionary-code verdict table), then
//  - fully-passing chunks bulk-append as before,
//  - fully-failing chunks append nothing (no copy at all),
//  - dense partial chunks bulk-append and attach a selection vector,
//  - sparse partial chunks gather only the qualifying rows.
// Batches returned to Recycle() are reused, so steady-state scanning does
// not allocate per batch.
#ifndef BDCC_EXEC_SCAN_H_
#define BDCC_EXEC_SCAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "storage/table.h"
#include "storage/zonemap.h"

namespace bdcc {
namespace exec {

/// Sargable predicate usable against zone maps (MinMax pushdown) and, when
/// row filtering is enabled, enforced per row inside the scan.
struct ScanPredicate {
  std::string column;
  ValueRange range;
};

namespace internal {

/// One bound row-level predicate with constants pre-typed for the column's
/// storage lane ("bind constants once"): numeric bounds as lane values,
/// string ranges as a per-dictionary-code verdict table.
struct BoundRowPred {
  int col = 0;
  TypeId type = TypeId::kInt64;
  int64_t lo_i64 = 0, hi_i64 = 0;
  int32_t lo_i32 = 0, hi_i32 = 0;
  double lo_f64 = 0, hi_f64 = 0;
  // Whether the float range had an explicit upper bound: NaN mirrors the
  // Filter path's comparison semantics (NaN compares "greater"), passing
  // lower bounds and failing only explicit upper bounds.
  bool has_hi_f64 = false;
  std::vector<uint8_t> code_ok;  // string columns: verdict per dict code
};

/// Shared scan-side machinery: row-predicate kernels, selection building,
/// and batch recycling.
class ScanFilterState {
 public:
  /// Resolve `preds` against `table`'s columns (call at Open and whenever
  /// the scanned table, and so its dictionaries, changes).
  Status Bind(const Table& table, const std::vector<ScanPredicate>& preds);

  bool active() const { return !bound_.empty(); }

  /// Evaluate all predicates over storage rows [begin, end), over a
  /// column's encoded lane when it has one; selected chunk-relative indices
  /// land in `rel_sel` (scratch reused across calls). `ctx` takes the
  /// encoded-span stats.
  void EvalSpan(const Table& table, uint64_t begin, uint64_t end,
                ExecContext* ctx, std::vector<uint32_t>* rel_sel);

  /// Take a batch for filling: a recycled one when available, else fresh
  /// (typed per `schema`, string dictionaries wired from storage).
  Batch TakeBatch(const Table& table, const std::vector<int>& col_idx,
                  const Schema& schema, size_t reserve_rows);
  /// Return a no-longer-referenced batch for reuse (type-checked).
  void Recycle(Batch&& batch, const Schema& schema);
  void ClearRecycled() { recycled_.clear(); }

 private:
  std::vector<BoundRowPred> bound_;
  std::vector<uint8_t> mask_;  // scratch
  std::vector<Batch> recycled_;
};

/// Builds the output selection while chunks append: identity until the
/// first partial chunk, explicit afterwards.
class SelBuilder {
 public:
  /// `n` appended rows, all selected (base = physical rows before append).
  void AddDense(size_t base, size_t n);
  /// Bulk-appended chunk of which only `rel` (chunk-relative) are selected.
  void AddPartial(size_t base, const std::vector<uint32_t>& rel);
  /// Install num_rows/sel on `out` (physical = rows actually appended).
  void Finish(Batch* out);

 private:
  std::vector<uint32_t> sel_;
  bool explicit_ = false;
  size_t logical_ = 0;
};

}  // namespace internal

/// A run of rows [row_begin, row_end) of one table that a scan reads.
struct ScanSegment {
  /// What entering the segment counts in ExecStats.
  enum class Kind : uint8_t {
    kRows,   // a plain table or a morsel of one: nothing
    kGroup,  // BDCC group ranges: groups_read
    kDelta,  // slices of a live table's delta chunk: delta_rows_scanned
             // (and, once per chunk at Open, delta_chunks)
  };
  const Table* table = nullptr;
  uint64_t row_begin = 0;
  uint64_t row_end = 0;
  /// Tag for sandwich consumers (-1 = untagged).
  int64_t group_id = -1;
  Kind kind = Kind::kRows;
};

/// \brief Scan over a list of segments. A plain or PK table is one segment;
/// a BDCC scan reads its pruned group ranges (see opt::GroupSegments), and
/// over a live snapshot also the pruned group slices of its delta chunks.
///
/// Segments are read in order. A batch never mixes tables (string columns
/// carry per-table dictionaries) or group ids, so grouped emission stays
/// aligned for sandwich operators. Zones the zone maps rule out are skipped
/// within each segment, and each zone entered counts once in zones_read or
/// zones_skipped. A chunk that needs no row filtering (none is enforced, or
/// the zone maps prove every row passes) and spans at least kMinViewRows
/// (scan.cc) is emitted alone as zero-copy views over the storage lanes:
/// consumers must honor the ColumnVector view contract (see exec/batch.h).
class SegmentScan : public Operator {
 public:
  /// Scan every row of `table`.
  SegmentScan(const Table* table, std::vector<std::string> columns,
              std::vector<ScanPredicate> zone_predicates = {});
  /// Scan `segments`. `table` names the columns; segments over other
  /// tables (delta chunks) must share its column schema. `pruned_groups`
  /// is added to ExecStats::groups_pruned at Open, and `pin` keeps the
  /// segments' tables (a live snapshot) alive for the scan's lifetime.
  SegmentScan(const Table* table, std::vector<std::string> columns,
              std::vector<ScanPredicate> zone_predicates,
              std::vector<ScanSegment> segments, uint64_t pruned_groups = 0,
              std::shared_ptr<const void> pin = nullptr);

  const Schema& schema() const override { return schema_; }
  Status Open(ExecContext* ctx) override;
  Result<Batch> Next(ExecContext* ctx) override;
  void Close(ExecContext* ctx) override { filter_.ClearRecycled(); }
  void Recycle(Batch&& batch) override {
    filter_.Recycle(std::move(batch), schema_);
  }

  /// Enforce the zone predicates row-level inside the scan (emitting
  /// selection vectors / gathered rows). Call before Open.
  void EnableRowFilter(bool on) { row_filter_ = on; }

 private:
  const Table* table_;
  std::vector<std::string> col_names_;
  std::vector<ScanPredicate> preds_;
  std::vector<ScanSegment> segments_;
  uint64_t pruned_groups_ = 0;
  std::shared_ptr<const void> pin_;
  std::vector<int> col_idx_;
  std::vector<std::pair<int, ValueRange>> bound_preds_;
  Schema schema_;
  size_t seg_idx_ = 0;
  bool entered_ = false;  // whether segments_[seg_idx_] has been entered
  uint64_t cursor_ = 0;   // next row of the current segment
  const Table* bound_ = nullptr;  // table the row filter is bound to
  // Last zone entered, so a zone split by batches or segments counts once.
  const Table* zone_table_ = nullptr;
  uint64_t zone_ = 0;
  bool row_filter_ = false;
  internal::ScanFilterState filter_;
};

}  // namespace exec
}  // namespace bdcc

#endif  // BDCC_EXEC_SCAN_H_
