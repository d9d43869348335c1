// Hash join (inner / left-outer / left-semi / left-anti).
//
// The right child is the build side and is fully materialized — exactly the
// memory behaviour the paper contrasts against sandwiched execution (e.g.
// Q13's full materialization of CUSTOMER columns under the PK scheme).
#ifndef BDCC_EXEC_HASH_JOIN_H_
#define BDCC_EXEC_HASH_JOIN_H_

#include <string>
#include <vector>

#include "exec/hash_table.h"
#include "exec/memory_tracker.h"
#include "exec/operator.h"

namespace bdcc {
namespace exec {

enum class JoinType { kInner, kLeftOuter, kLeftSemi, kLeftAnti };

const char* JoinTypeName(JoinType t);

/// \brief Probe-side logic of a hash join against a finished build table.
///
/// ProbeBatch works a batch at a time: it first records every output row as
/// a (probe row, build row) pair, in the order a row-at-a-time loop would
/// emit them, then fills each output column with one AppendGather — probe
/// columns straight through the batch's selection, build columns from the
/// table (see GatherBuildColumn).
///
/// Thread-safety: ProbeBatch only reads the table, so any number of
/// HashJoinProber instances (one per worker, each with its own encoder and
/// scratch buffers) may probe one shared JoinHashTable concurrently — the
/// core of parallel probe pipelines. One instance is single-threaded. The
/// table must not be mutated while a ProbeBatch runs; between calls it may
/// be cleared and refilled (SandwichHashJoin rebuilds it per group), since
/// JoinHashTable::Clear keeps the encoder the prober is bound to.
class HashJoinProber {
 public:
  Status Bind(const Schema& probe_schema,
              const std::vector<std::string>& probe_keys,
              const JoinHashTable* table, JoinType type);

  /// Join output schema (probe columns, then build columns for
  /// inner/left-outer).
  const Schema& schema() const { return schema_; }

  /// Probe one batch. `scratch` (optional) is a previously-emitted output
  /// batch whose lane allocations are reused for the new output
  /// (Operator::Recycle support); it must match this prober's schema.
  Result<Batch> ProbeBatch(const Batch& in, Batch scratch = Batch()) const;

 private:
  /// Marks a left-outer output row without a build match.
  static constexpr uint32_t kNoMatch = 0xFFFFFFFFu;

  /// Encode `in`'s keys and resolve every row's build key id into ids_
  /// (-1: NULL or absent key), the whole batch before any pair is emitted.
  void ResolveIds(const Batch& in) const;
  /// Record the output rows of `in` into the pair buffers below.
  void CollectPairs(const Batch& in) const;
  /// Append build column `c` of every recorded pair to `out`: straight
  /// from the table, or through `staged_` when `null_slot` (the batch has
  /// left-outer rows without a match).
  void GatherBuildColumn(size_t c, bool null_slot, ColumnVector* out) const;

  const JoinHashTable* table_ = nullptr;
  KeyEncoder encoder_;
  JoinType type_ = JoinType::kInner;
  Schema schema_;

  // Per-batch scratch, reused across calls.
  mutable std::vector<int64_t> int_keys_;
  mutable std::vector<std::string> byte_keys_;
  mutable std::vector<uint8_t> valid_;
  mutable std::vector<int64_t> ids_;
  // One entry per output row: physical probe row and build row (kNoMatch
  // for a left-outer row without a match).
  mutable std::vector<uint32_t> probe_rows_;
  mutable std::vector<uint32_t> build_rows_;
  // NULL-slot gathers: the matched build rows, each output row's position
  // among them (or the trailing NULL slot), and the staged column values.
  mutable std::vector<uint32_t> matched_rows_;
  mutable std::vector<uint32_t> staged_pos_;
  mutable ColumnVector staged_;
};

/// Open `build`, initialise `table` over its schema and `keys`, and drain
/// it into the table, charging the table's bytes to `tracked` after every
/// batch: the one hash-join build, shared by HashJoin and ParallelHashJoin
/// (whose parallel build side is a ParallelUnion of scan clones).
Status BuildHashTable(Operator* build, const std::vector<std::string>& keys,
                      ExecContext* ctx, JoinHashTable* table,
                      TrackedMemory* tracked);

/// \brief Probe pipeline of a hash join: streams `probe` through one
/// HashJoinProber against a finished table it does not own.
///
/// HashJoin runs one over its own table; ParallelHashJoin runs one per
/// probe clone under a ParallelUnion, all against one shared table.
class HashJoinProbe : public Operator {
 public:
  HashJoinProbe(OperatorPtr probe, const JoinHashTable* table,
                std::vector<std::string> keys, JoinType type);

  const Schema& schema() const override { return prober_.schema(); }
  /// OpenProbe, then Bind.
  Status Open(ExecContext* ctx) override;
  Result<Batch> Next(ExecContext* ctx) override;
  void Close(ExecContext* ctx) override;
  /// Consumers hand fully-consumed join outputs back; their lane
  /// allocations seed the next ProbeBatch's output.
  void Recycle(Batch&& batch) override;

  /// Open the probe child only. HashJoin opens its probe side before its
  /// build side, as it always has: a nested join in the probe subtree
  /// builds its table inside Open, and that order fixes the query's memory
  /// peak and I/O sequence.
  Status OpenProbe(ExecContext* ctx);
  /// Bind the prober to the opened probe child and the table (past Init).
  Status Bind();

 private:
  OperatorPtr probe_;
  const JoinHashTable* table_;
  std::vector<std::string> keys_;
  JoinType type_;
  HashJoinProber prober_;
  std::vector<Batch> recycled_;
};

class HashJoin : public Operator {
 public:
  HashJoin(OperatorPtr left, OperatorPtr right,
           std::vector<std::string> left_keys,
           std::vector<std::string> right_keys, JoinType type);

  const Schema& schema() const override { return probe_.schema(); }
  Status Open(ExecContext* ctx) override;
  Result<Batch> Next(ExecContext* ctx) override { return probe_.Next(ctx); }
  void Close(ExecContext* ctx) override;
  void Recycle(Batch&& batch) override { probe_.Recycle(std::move(batch)); }

 private:
  OperatorPtr right_;
  std::vector<std::string> right_keys_;
  JoinHashTable table_;
  HashJoinProbe probe_;  // the left child against table_
  std::unique_ptr<TrackedMemory> tracked_;
};

}  // namespace exec
}  // namespace bdcc

#endif  // BDCC_EXEC_HASH_JOIN_H_
