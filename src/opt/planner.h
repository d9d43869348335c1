// Scheme-aware physical planner.
//
// Compiles one logical plan against one PhysicalDb:
//   Plain : full scans (zone maps rarely selective), hash joins everywhere.
//   PK    : tables sorted on primary keys; FK joins whose keys align with
//           the sort become merge joins (LINEITEM⋈ORDERS, PARTSUPP⋈PART);
//           single-column aggregates over the sort key stream (Q18).
//   BDCC  : dimension-selection pushdown & propagation prune scatter-scan
//           groups. One rule decides every sandwich: a join whose keys
//           determine the same dimension prefix on both inputs, and an
//           aggregate whose group columns determine its input's grouping,
//           run partition-wise. A grouped input (a sandwich's output) keeps
//           a prefix of its grouping; a scan chain is asked for a matching
//           one, also through projections and grouped aggregates.
#ifndef BDCC_OPT_PLANNER_H_
#define BDCC_OPT_PLANNER_H_

#include <string>
#include <vector>

#include "bdcc/scatter_scan.h"
#include "exec/operator.h"
#include "exec/scan.h"
#include "opt/logical_plan.h"
#include "opt/physical_db.h"
#include "opt/pushdown.h"

namespace bdcc {
namespace common {
class TaskScheduler;
}  // namespace common

namespace opt {

struct PlannerOptions {
  bool enable_sandwich = true;      // BDCC: sandwich joins/aggregates
  bool enable_group_pruning = true; // BDCC: bin-range group pruning
  /// All schemes: MinMax zone skipping. The scan also enforces the same
  /// range-exact sargs row-level (branch-free kernels over the storage
  /// lanes emitting selection vectors); sargs with a custom row expression
  /// (e.g. LIKE) and residual predicates stay in a Filter above the scan.
  bool enable_zonemaps = true;
  bool enable_merge_join = true;    // PK: merge joins on sorted keys

  /// Degree of intra-query parallelism. 1 (default) compiles the classic
  /// single-threaded pull plan; N > 1 splits eligible pipelines into N
  /// morsel-driven clones at blocking operators (hash aggregation, hash-join
  /// probe, sandwich join/aggregate). A hash join whose build side is a
  /// clonable scan chain of at least a few thousand rows also scans that
  /// side on N clones, draining them into the one serially built table.
  /// Results are identical either way (modulo float summation order); plans
  /// too small to benefit stay serial.
  int num_threads = 1;
  /// Worker pool used when num_threads > 1; nullptr = the process-wide
  /// TaskScheduler::Shared().
  common::TaskScheduler* scheduler = nullptr;
  /// Per-query memory budget in bytes enforced through the ExecContext's
  /// MemoryTracker (0 = unlimited). Applied at execution time by drivers
  /// (RunPlan/RunTpchQuery): stateful operators whose tracked growth would
  /// pass the limit fail the query with ResourceExhausted instead of
  /// growing — see the budget contract in src/exec/README.md.
  uint64_t memory_limit_bytes = 0;
};

struct CompiledQuery {
  exec::OperatorPtr root;
  /// Plan decisions for EXPLAIN-style reporting (mechanism attribution in
  /// the paper's "Detailed Analysis").
  std::vector<std::string> notes;
};

/// Group ranges of one table a BDCC scan reads: the clustered base, or a
/// delta chunk of a live snapshot, whose slices share the base's key space.
struct TableRanges {
  const Table* table = nullptr;
  std::vector<GroupRange> ranges;
};

/// Scan segments over `parts` (the base `table.data()` and any delta
/// chunks): stably sorted by the group id each range emits under `grouping`
/// (so ids ascend for sandwich consumers, and within an id the parts keep
/// their order and each part its range order), with physically
/// contiguous ranges of one table and id coalesced, and each tagged with
/// its id (-1 when `grouping` is empty, which leaves the parts in order).
std::vector<exec::ScanSegment> GroupSegments(
    const BdccTable& table, const std::vector<TableRanges>& parts,
    const std::vector<GroupSpec>& grouping = {});

/// Compile `plan` for `db`.
Result<CompiledQuery> Compile(const NodePtr& plan, const PhysicalDb& db,
                              const PlannerOptions& options = {});

}  // namespace opt
}  // namespace bdcc

#endif  // BDCC_OPT_PLANNER_H_
