// Morsel-driven parallel execution operators.
//
// Compiled plans are split into pipelines at blocking operators; these
// operators run N clones of a pipeline on the shared TaskScheduler and
// recombine the results:
//
//  - ParallelUnion: chains are independent (group-id-chunked sandwich
//    joins/aggregates, morsel-strided probe or build-scan clones) and their
//    outputs are emitted in chain order, which preserves the
//    ascending-group-id contract for downstream sandwich consumers. An
//    ordered window of num_threads + 1 chains bounds what runs or waits to
//    be emitted, so a sandwich's memory stays a few chunks' worth.
//  - ParallelHashAgg: each clone aggregates its morsels into a thread-local
//    HashAgg; the partials' groups are then merged by radix partition into
//    merge-only HashAggs, in clone order within each partition, so results
//    are deterministic for a fixed clone count.
//  - ParallelHashJoin: the build side is drained serially into one table
//    (a large build side is itself a ParallelUnion of scan clones), then a
//    ParallelUnion of HashJoinProbe clones probes the shared read-only
//    table concurrently.
//
// Each clone runs on a child ExecContext (shared buffer pool and memory
// tracker, private stats — see exec_context.h); clones are constructed and
// Open()ed serially on the coordinating thread, because shared ExprPtrs may
// be rebound during Open, and only the Next() drain (and the Close that
// follows it) runs on workers.
#ifndef BDCC_EXEC_PARALLEL_H_
#define BDCC_EXEC_PARALLEL_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/task_scheduler.h"
#include "exec/hash_agg.h"
#include "exec/hash_join.h"
#include "exec/operator.h"

namespace bdcc {
namespace exec {

/// Builds clone `i` of `total` of a pipeline (a scan chain restricted to
/// the clone's morsels or group-id chunk, possibly with a blocking operator
/// on top).
using ChainFactory =
    std::function<Result<OperatorPtr>(size_t i, size_t total)>;

/// \brief Runs `num_chains` independent chains and emits their outputs
/// concatenated in chain order, through an ordered window.
///
/// At most `num_threads + 1` chains are running or finished-but-unsent at
/// any time. The coordinating thread (the one calling Next) streams the
/// head chain itself when no worker has started it, so chain 0 is never
/// parked; the other chains of the window run as tasks that drain their
/// chain, park its output (charged to the query's tracker) and Close it at
/// once, so a drained chain holds no operator state. A task never blocks
/// on the window: the coordinator submits the next chain when the head's
/// last batch has been emitted, and waits for a running head through the
/// scheduler's helping TaskGroup::Wait. Once the query stops (an error in
/// any chain, cancellation, a deadline) no further chain starts.
class ParallelUnion : public Operator {
 public:
  ParallelUnion(ChainFactory factory, size_t num_chains, size_t num_threads,
                common::TaskScheduler* scheduler = nullptr);
  ~ParallelUnion() override;

  const Schema& schema() const override { return schema_; }
  Status Open(ExecContext* ctx) override;
  Result<Batch> Next(ExecContext* ctx) override;
  void Close(ExecContext* ctx) override;

 private:
  struct Chain;

  /// Submits the chains the window has room for (never the head: the
  /// coordinator claims an unstarted head itself).
  void Admit(ExecContext* ctx);
  /// The head's output is fully emitted: fold its stats, free its slot.
  void Retire(ExecContext* ctx);

  ChainFactory factory_;
  size_t num_chains_;
  size_t window_;
  common::TaskScheduler* scheduler_;
  std::vector<std::unique_ptr<Chain>> chains_;
  size_t head_ = 0;      // next chain to emit
  size_t admitted_ = 0;  // chains [head_, admitted_) hold window slots
  // Set by Close: running chain tasks stop at their next batch.
  std::atomic<bool> abandoned_{false};
  Schema schema_;
};

/// \brief Morsel-parallel hash aggregation: thread-local partials, then a
/// radix-partitioned parallel merge.
///
/// Each clone aggregates its morsels into a thread-local HashAgg exactly as
/// before. The merge phase hash-partitions every partial's *groups* by a
/// value-based key hash (consistent across clones regardless of per-clone
/// dictionaries) and folds each partition with an independent task into its
/// own merge-only HashAgg — no lock-step pairwise MergeFrom chain. Group
/// sums still accumulate in clone order within each partition, so float
/// results are bitwise deterministic for a fixed clone count. Scalar
/// aggregates and small group counts merge as one partition.
class ParallelHashAgg : public Operator {
 public:
  ParallelHashAgg(ChainFactory child_factory, size_t num_clones,
                  std::vector<std::string> group_cols,
                  std::vector<AggSpec> specs,
                  common::TaskScheduler* scheduler = nullptr);

  const Schema& schema() const override;
  Status Open(ExecContext* ctx) override;
  Result<Batch> Next(ExecContext* ctx) override;
  void Close(ExecContext* ctx) override;

  /// Total groups across partials below which the merge uses one partition
  /// (more partitions' task overhead would dominate).
  static constexpr size_t kMinPartitionedMergeGroups = 4096;
  /// Cap on the merge's radix bits (<= 64 partitions).
  static constexpr int kMaxMergeBits = 6;

 private:
  Status MergeAll(ExecContext* ctx);

  ChainFactory child_factory_;
  size_t num_clones_;
  std::vector<std::string> group_cols_;
  std::vector<AggSpec> spec_templates_;
  common::TaskScheduler* scheduler_;
  std::vector<std::unique_ptr<HashAgg>> partials_;
  // Merge targets, one per radix partition. Each merger's budget charge is
  // owned by the single worker that merged the partition.
  std::vector<std::unique_ptr<HashAgg>> mergers_;
  std::vector<std::unique_ptr<TrackedMemory>> merger_mem_;
  size_t emit_merger_ = 0;
  std::vector<std::unique_ptr<ExecContext>> child_ctxs_;
  bool merged_ = false;
  // Cached at Open: schema() must stay valid after Close clears partials_
  // (CollectAll builds its typed-empty result from the closed tree).
  Schema schema_;
};

/// \brief Hash join with a shared build table and parallel probe clones.
///
/// The build side is one operator drained serially into the table
/// (BuildHashTable). For a large build side the planner passes a
/// ParallelUnion of scan clones, so build-side scans and filters run on N
/// clones and only the inserts are serial. The probe phase is a
/// ParallelUnion whose chain i is a HashJoinProbe over probe clone i, all
/// against the shared read-only table.
class ParallelHashJoin : public Operator {
 public:
  /// `unique_build_keys` as for HashJoin.
  ParallelHashJoin(ChainFactory probe_factory, size_t num_clones,
                   OperatorPtr build, std::vector<std::string> probe_keys,
                   std::vector<std::string> build_keys, JoinType type,
                   common::TaskScheduler* scheduler = nullptr,
                   bool unique_build_keys = false);

  const Schema& schema() const override { return probes_.schema(); }
  Status Open(ExecContext* ctx) override;
  Result<Batch> Next(ExecContext* ctx) override { return probes_.Next(ctx); }
  void Close(ExecContext* ctx) override;

 private:
  OperatorPtr build_;
  std::vector<std::string> build_keys_;
  bool unique_build_keys_;
  JoinHashTable table_;
  std::unique_ptr<TrackedMemory> tracked_;
  ParallelUnion probes_;  // HashJoinProbe clones against table_
};

}  // namespace exec
}  // namespace bdcc

#endif  // BDCC_EXEC_PARALLEL_H_
