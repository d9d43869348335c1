// Sandwich aggregation over pre-grouped input [3].
//
// Requires that the grouping keys functionally determine the partition
// (e.g. Q18's GROUP BY l_orderkey under orderkey-derived clustering): a key
// then never spans two partitions, so the hash table can be flushed after
// every partition — the aggregation state peaks at the largest partition,
// not the whole key domain.
#ifndef BDCC_EXEC_SANDWICH_AGG_H_
#define BDCC_EXEC_SANDWICH_AGG_H_

#include <deque>
#include <string>
#include <vector>

#include "exec/aggregate.h"
#include "exec/hash_table.h"
#include "exec/memory_tracker.h"
#include "exec/operator.h"

namespace bdcc {
namespace exec {

class SandwichAgg : public Operator {
 public:
  SandwichAgg(OperatorPtr child, std::vector<std::string> group_cols,
              std::vector<AggSpec> specs);

  const Schema& schema() const override { return schema_; }
  Status Open(ExecContext* ctx) override;
  Result<Batch> Next(ExecContext* ctx) override;
  void Close(ExecContext* ctx) override;

 private:
  Status Consume(const Batch& batch);
  void FlushPartition(ExecContext* ctx);

  OperatorPtr child_;
  std::vector<std::string> group_cols_;
  std::vector<AggSpec> spec_templates_;
  Schema schema_;

  KeyEncoder encoder_;
  DenseKeyMap key_map_;
  std::vector<ColumnVector> key_store_;
  AggregatorCore core_;
  std::unique_ptr<TrackedMemory> tracked_;
  std::vector<uint32_t> group_of_row_;  // per-batch scratch for Consume

  int64_t current_partition_ = -1;
  bool input_done_ = false;
  std::deque<Batch> ready_;
};

}  // namespace exec
}  // namespace bdcc

#endif  // BDCC_EXEC_SANDWICH_AGG_H_
