// Vectorized execution batches (Vectorwise-style batch-at-a-time flow).
#ifndef BDCC_EXEC_BATCH_H_
#define BDCC_EXEC_BATCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/column.h"
#include "storage/dictionary.h"
#include "storage/types.h"

namespace bdcc {
namespace exec {

struct Field {
  std::string name;
  TypeId type = TypeId::kInt64;
};

/// \brief Ordered, named, typed column list describing operator output.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of `name` or -1.
  int IndexOf(const std::string& name) const;
  /// Index of `name` or error.
  Result<int> Require(const std::string& name) const;

  void Append(Field f) { fields_.push_back(std::move(f)); }
  /// Concatenation (for join outputs).
  static Schema Concat(const Schema& a, const Schema& b);

  std::string ToString() const;

 private:
  std::vector<Field> fields_;
};

/// \brief One column's worth of vectorized values.
///
/// Lanes mirror storage::Column; strings carry dictionary codes in the i32
/// lane plus a shared Dictionary. An optional null mask (1 = NULL) supports
/// outer-join results.
///
/// Zero-copy views: a vector may instead *borrow* a storage lane (scan
/// chunks the zone maps prove fully-passing are emitted without copying).
/// View vectors never carry nulls and are read-only; readers must go
/// through the `*_data()` accessors (or row helpers built on them), and
/// writers/materializing operators call Materialize() (Batch::Compact does
/// so when no selection is attached). The borrowed lane must outlive the
/// batch — scans borrow from the scanned Table, which outlives the query.
struct ColumnVector {
  TypeId type = TypeId::kInt64;
  std::vector<int32_t> i32;
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::shared_ptr<Dictionary> dict;
  std::vector<uint8_t> nulls;  // empty = no nulls

  // Borrowed-lane view state (at most one pointer set; see class comment).
  const int32_t* v_i32 = nullptr;
  const int64_t* v_i64 = nullptr;
  const double* v_f64 = nullptr;
  size_t view_rows = 0;

  explicit ColumnVector(TypeId t = TypeId::kInt64) : type(t) {}

  bool is_view() const {
    return v_i32 != nullptr || v_i64 != nullptr || v_f64 != nullptr;
  }
  /// Borrow `rows` values (the i32 overload also serves string code lanes).
  void SetView(const int32_t* data, size_t rows);
  void SetView(const int64_t* data, size_t rows);
  void SetView(const double* data, size_t rows);
  /// Copy a borrowed lane into the owned vectors (no-op when not a view).
  void Materialize();

  /// Typed lane base pointers, view-aware — the only valid way to read a
  /// lane that might be borrowed.
  const int32_t* i32_data() const { return v_i32 != nullptr ? v_i32 : i32.data(); }
  const int64_t* i64_data() const { return v_i64 != nullptr ? v_i64 : i64.data(); }
  const double* f64_data() const { return v_f64 != nullptr ? v_f64 : f64.data(); }

  size_t size() const {
    if (is_view()) return view_rows;
    switch (type) {
      case TypeId::kInt64:
        return i64.size();
      case TypeId::kFloat64:
        return f64.size();
      default:
        return i32.size();
    }
  }
  bool HasNulls() const { return !nulls.empty(); }
  bool IsNull(size_t row) const { return !nulls.empty() && nulls[row]; }

  /// Generic accessor (strings materialized through the dictionary).
  Value GetValue(size_t row) const;
  std::string_view GetString(size_t row) const {
    return dict->Get(i32_data()[row]);
  }

  /// Append a (non-null) value from a storage column.
  void AppendFromStorage(const Column& col, uint64_t row);
  /// Append row `row` of `other` (same type). String vectors must share the
  /// source dictionary (fast path used inside joins).
  void AppendFrom(const ColumnVector& other, size_t row);
  /// Append row `row` of `other`, interning strings into this vector's own
  /// dictionary. Safe across inputs whose dictionaries differ per batch
  /// (e.g. expression-generated strings); used by materializing operators.
  void AppendInterning(const ColumnVector& other, size_t row);
  /// Intern `s` into this vector's dictionary and return its code. Never
  /// writes to an aliased dictionary (a scanned batch's pointer is the
  /// table's own, possibly read concurrently): adding a new string to a
  /// shared dictionary first swaps in a private code-preserving copy.
  int32_t InternString(std::string_view s);
  /// Append an explicit NULL (lane gets a zero placeholder).
  void AppendNull();

  void Reserve(size_t rows);
  /// Drop all values (and the null mask) but keep lane capacity and the
  /// dictionary pointer — buffer-recycling support (see Operator::Recycle).
  void ClearKeepCapacity();
  /// Rows selected by `sel` (indices into this vector). Fixed-width lanes
  /// take a fast path: contiguous ascending runs become one memcpy and
  /// scattered stretches a 4-wide unrolled gather.
  ColumnVector Gather(const std::vector<uint32_t>& sel) const;
  /// Append rows[0..n) of `other` (same type) to this vector: the bulk,
  /// typed-loop counterpart of n AppendFrom calls (same values, same NULL
  /// mask: one is started only when a NULL row arrives). String vectors adopt
  /// `other`'s dictionary when unset, copy codes when it matches, and fall
  /// back to per-row interning otherwise.
  void AppendGather(const ColumnVector& other, const uint32_t* rows, size_t n);
  /// Gather into `out`, reusing its lane allocations (cleared first) —
  /// the allocation-free flavour behind Operator::Recycle paths.
  void GatherInto(const std::vector<uint32_t>& sel, ColumnVector* out) const;
};

/// Calls `f` with the typed base pointer of a numeric vector's lane, read
/// through the view-aware accessors (int32, date and bool share the i32
/// lane): kernels pick their typed loop once per batch, not per row.
template <typename F>
decltype(auto) VisitNumericLane(const ColumnVector& v, F&& f) {
  switch (v.type) {
    case TypeId::kInt64:
      return f(v.i64_data());
    case TypeId::kFloat64:
      return f(v.f64_data());
    default:
      return f(v.i32_data());
  }
}

/// \brief A batch of rows flowing between operators.
///
/// Selection-vector contract (late materialization): when `sel` is
/// non-empty it holds, in emission order, the *physical* indices of the
/// selected rows within `columns`, and `num_rows == sel.size()` counts the
/// selected (logical) rows only — the columns keep their full physical
/// length. Producers (Scan predicate pushdown, Filter) attach `sel` instead
/// of compacting so downstream operators touch only the lanes they read.
/// Consumers must either iterate logical rows through RowAt()/sel-aware
/// helpers (KeyEncoder, hash join/agg) or call Compact() up front
/// (materializing operators: sort, merge, streaming). See
/// src/exec/README.md for the full contract.
struct Batch {
  std::vector<ColumnVector> columns;
  size_t num_rows = 0;
  /// Selected physical row indices; empty = identity (all physical rows).
  std::vector<uint32_t> sel;
  /// Sandwich group tag: >= 0 when the producing scan emits group-aligned
  /// batches (a batch never spans two groups); -1 otherwise.
  int64_t group_id = -1;

  bool empty() const { return num_rows == 0; }
  static Batch Empty() { return Batch{}; }

  bool has_sel() const { return !sel.empty(); }
  /// Physical index of logical row `i`.
  uint32_t RowAt(size_t i) const {
    return sel.empty() ? static_cast<uint32_t>(i) : sel[i];
  }
  /// Rows physically held by the columns (>= num_rows under a selection).
  size_t physical_rows() const {
    return columns.empty() ? num_rows : columns[0].size();
  }
  /// Selected fraction of the physical rows (1.0 without a selection).
  double density() const {
    size_t phys = physical_rows();
    return (sel.empty() || phys == 0)
               ? 1.0
               : static_cast<double>(num_rows) / static_cast<double>(phys);
  }
  /// Materialize the selection: gather every column down to the selected
  /// rows and drop `sel`. Without a selection, materializes any borrowed
  /// (zero-copy view) columns instead — after Compact() every lane is owned
  /// and positionally walkable.
  void Compact();
  /// Compact only when density() < `min_density` (materializing-boundary
  /// policy: keep dense selections lazy, squeeze sparse ones).
  void CompactIfSparse(double min_density);
};

/// Accept `batch` onto a small free list iff it matches `schema` column for
/// column — the shared validator behind every Operator::Recycle free list
/// (scans, HashJoin, Project). Returns false (dropping the batch) when the
/// list is full or the shape mismatches; clears any selection on accept.
bool RecycleIntoFreeList(Batch&& batch, const Schema& schema,
                         std::vector<Batch>* free_list,
                         size_t max_size = 2);

}  // namespace exec
}  // namespace bdcc

#endif  // BDCC_EXEC_BATCH_H_
