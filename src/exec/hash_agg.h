// Hash aggregation (GROUP BY), including the scalar (no-group) case.
#ifndef BDCC_EXEC_HASH_AGG_H_
#define BDCC_EXEC_HASH_AGG_H_

#include <string>
#include <vector>

#include "exec/aggregate.h"
#include "exec/hash_table.h"
#include "exec/memory_tracker.h"
#include "exec/operator.h"

namespace bdcc {
namespace exec {

class HashAgg : public Operator {
 public:
  HashAgg(OperatorPtr child, std::vector<std::string> group_cols,
          std::vector<AggSpec> specs);

  const Schema& schema() const override { return schema_; }
  Status Open(ExecContext* ctx) override;
  Result<Batch> Next(ExecContext* ctx) override;
  void Close(ExecContext* ctx) override;

  /// Drain the child and fold every batch into the aggregation state without
  /// emitting (idempotent; Next calls it lazily). Distinct HashAgg instances
  /// may run ConsumeAll concurrently on distinct ExecContexts — this is the
  /// thread-local consume phase of morsel-parallel aggregation.
  Status ConsumeAll(ExecContext* ctx);

  /// Bind as a child-less aggregate over batches of `input`: the caller
  /// feeds it batches (Consume) or merges partials in
  /// (MergePartialPartition), and Next emits whatever was folded in. A
  /// scalar aggregate starts with its one group.
  Status BindChildless(const Schema& input);

  /// Fold one batch into a child-less aggregate (BindChildless).
  Status Consume(const Batch& batch);

  /// Drop every group so a grouped child-less aggregate can start over (a
  /// sandwich partition reset): fresh key-store columns, the key map
  /// cleared but keeping its slots, the accumulators reset. The key encoder
  /// and its string space stay bound.
  void ClearGroups();

  /// Schema of the child this aggregate consumed (valid once Open ran);
  /// what child-less merge targets must be bound with.
  const Schema& input_schema() const;

  size_t num_groups() const { return key_map_.size(); }

  /// Bytes held by the aggregation state (key map + stored keys +
  /// accumulators); what budget charges for this aggregate track.
  uint64_t MemoryBytes() const;

  /// Partition this aggregate's groups into 1 << bits radix partitions by
  /// a *value-based* hash of the stored group keys — consistent across
  /// aggregates even though each clone interned strings into private
  /// dictionaries. out[g] = partition of group g.
  std::vector<uint32_t> PartitionGroups(int bits) const;

  /// Lay out this consumed aggregate's state as MergePartialPartition reads
  /// it (AggregatorCore::SealForMerge); no batch is folded in afterwards.
  void SealForMerge();

  /// Fold only the groups of `other` (sealed: SealForMerge) whose
  /// part_of_group[g] == partition into this aggregate (a scalar aggregate
  /// folds its one group whatever the partition). Read-only on `other`:
  /// distinct targets may merge disjoint slices of one partial concurrently.
  Status MergePartialPartition(const HashAgg& other,
                               const std::vector<uint32_t>& part_of_group,
                               uint32_t partition);

 private:
  Status Bind(const Schema& in);

  OperatorPtr child_;  // null for child-less instances (BindChildless)
  std::vector<std::string> group_cols_;
  std::vector<AggSpec> spec_templates_;
  Schema schema_;
  Schema input_schema_;

  KeyEncoder encoder_;
  DenseKeyMap key_map_;
  std::vector<ColumnVector> key_store_;  // one row per group
  AggregatorCore core_;
  std::vector<uint32_t> group_of_row_;  // per-batch scratch for Consume
  std::unique_ptr<TrackedMemory> tracked_;
  size_t emit_cursor_ = 0;
  bool consumed_ = false;
};

}  // namespace exec
}  // namespace bdcc

#endif  // BDCC_EXEC_HASH_AGG_H_
