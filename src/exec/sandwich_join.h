// Sandwich hash join over pre-partitioned (co-clustered) inputs [3].
//
// Both children must emit batches tagged with ascending group ids — the
// aligned shared-dimension prefixes a grouped SegmentScan emits (see
// opt::GroupSegments). Because the join key functionally determines the
// shared dimension bins, matches only occur within equal group ids, so the
// join builds one small per-group hash table at a time: the peak memory is
// the largest group's build side instead of the whole build input. This is
// the paper's central memory result (Fig. 3).
#ifndef BDCC_EXEC_SANDWICH_JOIN_H_
#define BDCC_EXEC_SANDWICH_JOIN_H_

#include <string>
#include <vector>

#include "exec/hash_join.h"
#include "exec/hash_table.h"
#include "exec/memory_tracker.h"
#include "exec/operator.h"

namespace bdcc {
namespace exec {

/// \brief Partition-wise hash join (inner / left-outer / left-semi /
/// left-anti). Probes go through one HashJoinProber bound to `table_` at
/// Open; each group rebuild clears and refills the table in place.
class SandwichHashJoin : public Operator {
 public:
  /// `unique_build_keys` as for HashJoin: each group's table is sized once.
  SandwichHashJoin(OperatorPtr left, OperatorPtr right,
                   std::vector<std::string> left_keys,
                   std::vector<std::string> right_keys, JoinType type,
                   bool unique_build_keys = false);

  const Schema& schema() const override { return prober_.schema(); }
  Status Open(ExecContext* ctx) override;
  Result<Batch> Next(ExecContext* ctx) override;
  void Close(ExecContext* ctx) override;
  /// Consumers hand fully-consumed join outputs back; their lane
  /// allocations seed the next probe's output.
  void Recycle(Batch&& batch) override;

 private:
  Status PullRight(ExecContext* ctx);
  /// Build the first right group with id >= target (skipping earlier ones).
  Status LoadRightGroupUpTo(int64_t target, ExecContext* ctx);

  OperatorPtr left_, right_;
  std::vector<std::string> left_keys_, right_keys_;
  JoinType type_;
  bool unique_build_keys_;

  JoinHashTable table_;
  HashJoinProber prober_;
  std::unique_ptr<TrackedMemory> tracked_;
  std::vector<Batch> recycled_;

  Batch pending_right_;
  bool have_pending_right_ = false;
  bool right_done_ = false;
  int64_t current_group_ = -1;  // group currently in table_
  int64_t last_left_group_ = -1;
};

}  // namespace exec
}  // namespace bdcc

#endif  // BDCC_EXEC_SANDWICH_JOIN_H_
