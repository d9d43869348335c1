// Typed in-memory column.
#ifndef BDCC_STORAGE_COLUMN_H_
#define BDCC_STORAGE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/macros.h"
#include "storage/dictionary.h"
#include "storage/types.h"

namespace bdcc {

namespace compression {
class EncodedLane;
}  // namespace compression

/// \brief A single column of a stored table.
///
/// Storage lanes by type:
///   kInt32/kDate/kBool -> i32 lane (bool as 0/1)
///   kInt64             -> i64 lane
///   kFloat64           -> f64 lane
///   kString            -> i32 lane of dictionary codes + Dictionary
class Column {
 public:
  explicit Column(TypeId type);
  /// String column sharing an existing dictionary (e.g. after reordering).
  Column(TypeId type, std::shared_ptr<Dictionary> dict);

  Column(Column&&) = default;
  Column& operator=(Column&&) = default;
  BDCC_DISALLOW_COPY_AND_ASSIGN(Column);

  TypeId type() const { return type_; }
  uint64_t size() const;

  // -- Appenders (checked against the column type) --
  void AppendInt32(int32_t v);
  void AppendInt64(int64_t v);
  void AppendFloat64(double v);
  void AppendDate(int32_t days);
  void AppendBool(bool v);
  void AppendString(std::string_view s);
  void AppendValue(const Value& v);
  void Reserve(uint64_t rows);

  // -- Typed access --
  const std::vector<int32_t>& i32() const { return i32_; }
  const std::vector<int64_t>& i64() const { return i64_; }
  const std::vector<double>& f64() const { return f64_; }
  std::vector<int32_t>& mutable_i32() { return i32_; }
  std::vector<int64_t>& mutable_i64() { return i64_; }
  std::vector<double>& mutable_f64() { return f64_; }
  const std::shared_ptr<Dictionary>& dict() const { return dict_; }

  /// Generic (slow-path) accessor; materializes strings.
  Value GetValue(uint64_t row) const;

  /// String payload at `row` (string columns only).
  std::string_view GetString(uint64_t row) const {
    BDCC_CHECK(type_ == TypeId::kString);
    return dict_->Get(i32_[row]);
  }

  /// Bytes this column would occupy on disk (uncompressed): fixed lane plus
  /// dictionary payload for strings. Drives page counts and density ranking.
  uint64_t DiskBytes() const;

  /// New column with rows permuted: out[i] = this[perm[i]].
  Column Gather(const std::vector<uint32_t>& perm) const;

  /// Append row `row` of `other` (same type; strings re-interned).
  void AppendFrom(const Column& other, uint64_t row);

  // -- Encoded mirror (direct execution over compressed lanes) --
  /// Build the per-block encoded mirror of the i32 lane (i32-backed types
  /// and string code lanes only; no-op otherwise). Call once the layout is
  /// final, like zone maps; mutating the column afterwards leaves it stale
  /// (appenders drop it defensively).
  void BuildEncoded(uint32_t block_rows);
  /// Encoded mirror, or nullptr when absent.
  const compression::EncodedLane* encoded() const { return encoded_.get(); }

 private:
  TypeId type_;
  std::vector<int32_t> i32_;
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::shared_ptr<Dictionary> dict_;
  std::shared_ptr<const compression::EncodedLane> encoded_;
};

}  // namespace bdcc

#endif  // BDCC_STORAGE_COLUMN_H_
