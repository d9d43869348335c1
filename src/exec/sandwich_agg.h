// Sandwich aggregation over pre-grouped input [3].
//
// Requires that the grouping keys functionally determine the partition
// (e.g. Q18's GROUP BY l_orderkey under orderkey-derived clustering): a key
// then never spans two partitions, so the hash table can be flushed after
// every partition — the aggregation state peaks at the largest partition,
// not the whole key domain. The hash table is an ordinary child-less
// HashAgg, fed one partition at a time and reset between partitions.
#ifndef BDCC_EXEC_SANDWICH_AGG_H_
#define BDCC_EXEC_SANDWICH_AGG_H_

#include <deque>
#include <string>
#include <vector>

#include "exec/hash_agg.h"
#include "exec/memory_tracker.h"
#include "exec/operator.h"

namespace bdcc {
namespace exec {

class SandwichAgg : public Operator {
 public:
  SandwichAgg(OperatorPtr child, std::vector<std::string> group_cols,
              std::vector<AggSpec> specs);

  const Schema& schema() const override { return agg_.schema(); }
  Status Open(ExecContext* ctx) override;
  Result<Batch> Next(ExecContext* ctx) override;
  void Close(ExecContext* ctx) override;

 private:
  /// Move the finished partition's groups into ready_ and reset agg_.
  Status DrainPartition(ExecContext* ctx);

  OperatorPtr child_;
  bool grouped_;
  HashAgg agg_;  // child-less: one partition's groups at a time
  std::unique_ptr<TrackedMemory> tracked_;

  int64_t current_partition_ = -1;
  bool input_done_ = false;
  std::deque<Batch> ready_;
};

}  // namespace exec
}  // namespace bdcc

#endif  // BDCC_EXEC_SANDWICH_AGG_H_
