// Shared per-query execution state.
//
// Thread-safety contract: one ExecContext belongs to one thread. Parallel
// operators hand each worker clone a *child* context (the child constructor)
// which shares the parent's buffer pool and memory tracker — both safe for
// concurrent use — while keeping private ExecStats; the parent merges child
// stats with MergeStats() after the parallel phase (serially, so plain
// uint64 fields suffice).
#ifndef BDCC_EXEC_EXEC_CONTEXT_H_
#define BDCC_EXEC_EXEC_CONTEXT_H_

#include <cstdint>
#include <string>

#include "common/fault_injection.h"
#include "common/status.h"
#include "exec/memory_tracker.h"
#include "exec/query_control.h"
#include "io/buffer_pool.h"

namespace bdcc {
namespace exec {

/// Counters the planner/benchmarks read after a query finishes.
struct ExecStats {
  uint64_t rows_scanned = 0;
  uint64_t rows_filtered_at_scan = 0;  // rows dropped by scan-level predicates
  uint64_t zones_skipped = 0;
  uint64_t zones_read = 0;
  uint64_t groups_pruned = 0;
  uint64_t groups_read = 0;
  uint64_t sandwich_partitions = 0;
  // Scan chunks whose predicate evaluation (and any codec decode) was
  // skipped because zone maps proved every row passes.
  uint64_t decodes_skipped = 0;
  // Scan chunks emitted as zero-copy views over the storage lanes.
  uint64_t chunks_zero_copy = 0;
  // Predicate spans evaluated directly over encoded (RLE/bit-packed)
  // blocks instead of the flat lane.
  uint64_t encoded_spans = 0;
  // Lifecycle checks that observed a stop (cancel/deadline/sibling error)
  // and unwound the morsel or chunk loop they guard.
  uint64_t morsels_cancelled = 0;
  // Operator growth requests refused by the memory budget.
  uint64_t budget_denials = 0;
  // Faults fired by the injection layer on this context's paths.
  uint64_t faults_injected = 0;
  // Rows read from the unclustered delta region of a live table (pre-filter,
  // like rows_scanned which also includes them).
  uint64_t delta_rows_scanned = 0;
  // Delta chunks among a scan's segments, counted at Open: a serial scan
  // counts each chunk it reads once, and parallel clones each count the
  // chunks they touch.
  uint64_t delta_chunks = 0;

  void Reset() { *this = ExecStats{}; }

  void Merge(const ExecStats& other) {
    rows_scanned += other.rows_scanned;
    rows_filtered_at_scan += other.rows_filtered_at_scan;
    zones_skipped += other.zones_skipped;
    zones_read += other.zones_read;
    groups_pruned += other.groups_pruned;
    groups_read += other.groups_read;
    sandwich_partitions += other.sandwich_partitions;
    decodes_skipped += other.decodes_skipped;
    chunks_zero_copy += other.chunks_zero_copy;
    encoded_spans += other.encoded_spans;
    morsels_cancelled += other.morsels_cancelled;
    budget_denials += other.budget_denials;
    faults_injected += other.faults_injected;
    delta_rows_scanned += other.delta_rows_scanned;
    delta_chunks += other.delta_chunks;
  }
};

/// \brief Holds the memory tracker, optional buffer pool, and stats for one
/// query execution.
class ExecContext {
 public:
  /// Below this selected-row density, selection vectors are compacted at
  /// materializing boundaries instead of carried (see batch.h contract).
  static constexpr double kCompactDensity = 0.25;

  explicit ExecContext(io::BufferPool* pool = nullptr) : pool_(pool) {}

  /// Child context for one worker of a parallel pipeline: shares the
  /// parent's buffer pool and memory tracker, private stats. (Takes a
  /// reference to stay unambiguous with the BufferPool* constructor.)
  explicit ExecContext(ExecContext& parent)
      : pool_(parent.pool_),
        parent_(&parent),
        batch_size_(parent.batch_size_) {}

  MemoryTracker* memory() {
    return parent_ != nullptr ? parent_->memory() : &memory_;
  }
  io::BufferPool* buffer_pool() { return pool_; }
  ExecStats* stats() { return &stats_; }

  /// The query-wide cancel/deadline/error state; one per query, shared by
  /// every worker clone (child contexts delegate to the root's).
  QueryControl* control() {
    return parent_ != nullptr ? parent_->control() : &control_;
  }

  /// Lifecycle poll for morsel boundaries and chunk loops: OK while the
  /// query is healthy, else the stop status (counted in morsels_cancelled).
  Status CheckLifecycle() {
    Status s = control()->Check();
    if (BDCC_UNLIKELY(!s.ok())) ++stats_.morsels_cancelled;
    return s;
  }

  /// Budget-checked operator growth: TrySet through `mem` plus the
  /// allocation fault-injection point, with denials and injected faults
  /// counted on this context's stats.
  Status ChargeMemory(TrackedMemory* mem, uint64_t bytes) {
    if (BDCC_UNLIKELY(fault::ShouldFail(fault::kAlloc))) {
      ++stats_.faults_injected;
      return Status::ResourceExhausted(
          std::string("injected allocation fault (") + mem->name() + ")");
    }
    Status s = mem->TrySet(bytes);
    if (BDCC_UNLIKELY(!s.ok())) ++stats_.budget_denials;
    return s;
  }

  /// Fold a child's stats into this context (call after the child's worker
  /// has finished; not safe concurrently with other mutations of stats()).
  void MergeStats(const ExecContext& child) { stats_.Merge(child.stats_); }

  /// Rearm this context for another execution attempt of the same query
  /// (the serving layer's retry path after a ResourceExhausted unwind):
  /// clears the recorded error, zeroes the memory counters, and installs
  /// the escalated budget. Cancel and deadline deliberately survive — a
  /// retry is still the same session request. Root contexts only, and only
  /// after the previous attempt fully unwound (CollectAll closed the tree,
  /// so tracked bytes have drained; callers wanting to detect leaks must
  /// read memory()->current_bytes() *before* this call).
  void PrepareRerun(uint64_t new_limit_bytes) {
    BDCC_CHECK_MSG(parent_ == nullptr,
                   "ExecContext::PrepareRerun on a child context");
    control_.ClearError();
    memory_.Reset();
    memory_.set_limit(new_limit_bytes);
  }

  size_t batch_size() const { return batch_size_; }
  void set_batch_size(size_t n) { batch_size_ = n; }

 private:
  io::BufferPool* pool_;
  ExecContext* parent_ = nullptr;
  MemoryTracker memory_;
  QueryControl control_;
  ExecStats stats_;
  size_t batch_size_ = 2048;
};

}  // namespace exec
}  // namespace bdcc

#endif  // BDCC_EXEC_EXEC_CONTEXT_H_
