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
  /// ColumnVector per spec, matching output_fields()).
  void EmitRange(size_t begin, size_t end,
                 std::vector<ColumnVector>* out) const;

  /// Groups mapped to this id in MergeFrom's group_map are skipped —
  /// partition-sliced merges fold only the slice they own.
  static constexpr uint32_t kSkipGroup = 0xFFFFFFFFu;

  /// Lay out every COUNT(DISTINCT) set as MergeFrom reads it: the set's
  /// values in one array ordered by group, each group's run as long as its
  /// count, so a partition-sliced merge skips a foreign group's values whole
  /// instead of walking every pair. Call once no more Updates come; EmitRange
  /// still works.
  void SealForMerge();

  /// Fold `other`'s per-group states into this core: other's group g merges
  /// into this core's group `group_map[g]` (kSkipGroup entries are
  /// skipped). Both cores must be bound to the same specs, and `other`
  /// sealed (SealForMerge). Used to combine thread-local partial aggregates
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

 private:
  /// Every distinct (group, value) pair of one COUNT(DISTINCT) spec in one
  /// flat open-addressing array of 16-byte slots: power-of-two capacity,
  /// linear probing from the low bits of HashKey64 over the pair, load at
  /// most 3/4 (as DenseKeyMap). The group's count lane holds its size.
  struct DistinctSet {
    struct Slot {
      int64_t value;
      uint32_t group;  // kEmptyGroup = empty
      uint32_t unused;
    };
    static constexpr uint32_t kEmptyGroup = kSkipGroup;
    static constexpr size_t kMinSlots = 8;

    /// Adds the pair; true when it was not in the set.
    bool Insert(uint32_t group, int64_t value);
    /// Re-home every pair into a `capacity`-slot array (power of two).
    void Rehash(size_t capacity);

    std::vector<Slot> slots;
    size_t mask = 0;  // slots.size() - 1 once allocated
    size_t size = 0;
  };
  static_assert(sizeof(DistinctSet::Slot) == 16, "slot layout");

  struct State {
    // One lane per group, per spec (indexed [spec][group]).
    std::vector<double> sum_f64;
    std::vector<int64_t> sum_i64;
    std::vector<int64_t> count;  // COUNT(DISTINCT): the group's set size
    std::vector<double> minmax_f64;
    std::vector<int64_t> minmax_i64;
    std::vector<uint8_t> has_value;
    DistinctSet distinct;
    // After SealForMerge: the set's values, grouped by group.
    std::vector<int64_t> distinct_by_group;
  };

  std::vector<AggSpec> specs_;
  std::vector<TypeId> arg_types_;
  std::vector<Field> output_fields_;
  std::vector<State> states_;  // one per spec
  size_t num_groups_ = 0;
};

}  // namespace exec
}  // namespace bdcc

#endif  // BDCC_EXEC_AGGREGATE_H_
