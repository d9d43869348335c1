// Aggregate function specifications and the shared per-group state engine
// used by hash, streaming, and sandwich aggregation.
#ifndef BDCC_EXEC_AGGREGATE_H_
#define BDCC_EXEC_AGGREGATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/expr.h"
#include "exec/operator.h"

namespace bdcc {
namespace exec {

enum class AggKind {
  kSum,
  kCount,       // COUNT(expr): skips NULLs
  kCountStar,   // COUNT(*)
  kAvg,
  kMin,
  kMax,
  kCountDistinct,  // over integer-backed inputs
};

struct AggSpec {
  AggKind kind;
  ExprPtr arg;  // nullptr for kCountStar
  std::string output_name;
};

// Factories.
inline AggSpec AggSum(ExprPtr e, std::string name) {
  return AggSpec{AggKind::kSum, std::move(e), std::move(name)};
}
inline AggSpec AggCount(ExprPtr e, std::string name) {
  return AggSpec{AggKind::kCount, std::move(e), std::move(name)};
}
inline AggSpec AggCountStar(std::string name) {
  return AggSpec{AggKind::kCountStar, nullptr, std::move(name)};
}
inline AggSpec AggAvg(ExprPtr e, std::string name) {
  return AggSpec{AggKind::kAvg, std::move(e), std::move(name)};
}
inline AggSpec AggMin(ExprPtr e, std::string name) {
  return AggSpec{AggKind::kMin, std::move(e), std::move(name)};
}
inline AggSpec AggMax(ExprPtr e, std::string name) {
  return AggSpec{AggKind::kMax, std::move(e), std::move(name)};
}
inline AggSpec AggCountDistinct(ExprPtr e, std::string name) {
  return AggSpec{AggKind::kCountDistinct, std::move(e), std::move(name)};
}

/// \brief Typed per-group aggregate states with vectorized update.
class AggregatorCore {
 public:
  Status Bind(const Schema& input, std::vector<AggSpec> specs);

  const std::vector<Field>& output_fields() const { return output_fields_; }
  size_t num_groups() const { return num_groups_; }

  /// Ensure state exists for groups [0, n).
  void EnsureGroups(size_t n);

  /// Fold `batch` into states; `group_of_row[i]` assigns each row a group.
  Status Update(const Batch& batch, const std::vector<uint32_t>& group_of_row);

  /// Append finalized values of groups [begin, end) to `out` (one
  /// ColumnVector per spec, matching output_fields()). COUNT(DISTINCT)
  /// needs the core sealed (Seal).
  void EmitRange(size_t begin, size_t end,
                 std::vector<ColumnVector>* out) const;

  /// Groups mapped to this id in MergeFrom's group_map are skipped —
  /// partition-sliced merges fold only the slice they own.
  static constexpr uint32_t kSkipGroup = 0xFFFFFFFFu;

  /// Fold every pending COUNT(DISTINCT) pair into the sealed runs (see
  /// State) and free the pending buffers. EmitRange and MergeFrom (on
  /// `other`) read only sealed runs, so the operators call this where their
  /// input ends; Update also seals, keeping the buffers, whenever a spec's
  /// pending pairs outgrow its sealed values.
  void Seal();

  /// Fold `other`'s per-group states into this core: other's group g merges
  /// into this core's group `group_map[g]` (kSkipGroup entries are
  /// skipped). Both cores must be bound to the same specs, and `other`
  /// sealed. COUNT(DISTINCT) values arrive as pending pairs, so seal this
  /// core before emitting. Used to combine thread-local partial aggregates
  /// after a morsel-parallel consume phase; read-only on `other`, so several
  /// targets may merge slices of one partial concurrently.
  void MergeFrom(const AggregatorCore& other,
                 const std::vector<uint32_t>& group_map);

  /// Approximate heap bytes (for memory accounting).
  uint64_t MemoryBytes() const;

  /// Drop all group state (sandwich partition reset).
  void Reset();

  /// Keep only the last group's state, renumbered as group 0 (streaming
  /// aggregation carries the open run across batch boundaries).
  void KeepOnlyLastGroup();

  /// Pending pairs below which a spec never seals before its input ends.
  static constexpr size_t kMinSealPairs = 8192;

 private:
  struct State {
    // One lane per group, per spec (indexed [spec][group]).
    std::vector<double> sum_f64;
    std::vector<int64_t> sum_i64;
    std::vector<int64_t> count;  // COUNT(DISTINCT): the group's sealed run
    std::vector<double> minmax_f64;
    std::vector<int64_t> minmax_i64;
    std::vector<uint8_t> has_value;
    // COUNT(DISTINCT): the sealed runs, one per group in group order, each
    // sorted and free of repeats and as long as the group's count; and the
    // (group, value) pairs folded in since the last seal, repeats included.
    std::vector<int64_t> distinct_by_group;
    std::vector<int64_t> pending_values;
    std::vector<uint32_t> pending_groups;
  };

  /// Merge `st`'s pending pairs into its sealed runs.
  void SealState(State* st);
  /// Seal `st` once its pending pairs reach max(kMinSealPairs, sealed).
  void MaybeSeal(State* st);

  std::vector<AggSpec> specs_;
  std::vector<TypeId> arg_types_;
  std::vector<Field> output_fields_;
  std::vector<State> states_;  // one per spec
  size_t num_groups_ = 0;
};

}  // namespace exec
}  // namespace bdcc

#endif  // BDCC_EXEC_AGGREGATE_H_
