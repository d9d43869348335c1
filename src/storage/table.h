// Stored table: a named set of columns with shared row count, optional
// zone maps, and optional buffer-pool registration for I/O accounting.
#ifndef BDCC_STORAGE_TABLE_H_
#define BDCC_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "io/buffer_pool.h"
#include "storage/column.h"
#include "storage/zonemap.h"

namespace bdcc {

/// \brief Columnar table.
class Table {
 public:
  explicit Table(std::string name) : name_(std::move(name)) {}
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;
  BDCC_DISALLOW_COPY_AND_ASSIGN(Table);

  const std::string& name() const { return name_; }
  uint64_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  /// Append a column; all columns must have equal length.
  Status AddColumn(std::string name, Column column);

  /// Index of column `name`, or error.
  Result<int> ColumnIndex(const std::string& name) const;
  bool HasColumn(const std::string& name) const;

  const Column& column(int idx) const { return columns_[idx]; }
  Column& mutable_column(int idx) { return columns_[idx]; }
  const Column& ColumnByName(const std::string& name) const;
  const std::string& column_name(int idx) const { return names_[idx]; }

  /// Total uncompressed on-disk footprint (all columns).
  uint64_t DiskBytes() const;

  /// New table with rows permuted: row i of the result is row perm[i].
  Table ApplyPermutation(const std::vector<uint32_t>& perm) const;

  /// \brief New table of row refs[i].row of sources[refs[i].source], for
  /// every i: sources share one schema, and the result takes the first
  /// source's name and column names (see Column::Gather).
  static Table Gather(const std::vector<const Table*>& sources,
                      const std::vector<RowRef>& refs);

  /// Append rows [begin, end) of `other` (same schema) to this table.
  /// Used by small-group consolidation to co-locate tiny BDCC groups.
  void AppendRowsFrom(const Table& other, uint64_t begin, uint64_t end);

  /// Deep copy of the data (string dictionaries are shared; they are
  /// append-only and clones never extend them through this handle).
  Table Clone() const;

  // -- Zone maps (MinMax indexes) --
  /// Build zone maps for every column at `zone_rows` granularity.
  void BuildZoneMaps(uint32_t zone_rows);
  bool HasZoneMaps() const { return zone_rows_ != 0; }
  uint32_t zone_rows() const { return zone_rows_; }
  /// Zone map of column idx (requires BuildZoneMaps).
  const ZoneMap& zone_map(int idx) const { return zone_maps_[idx]; }

  // -- Encoded lanes (direct execution over compressed data) --
  /// Build per-block encoded mirrors for every codec-eligible column.
  /// Blocks align with zone maps when present (zone_rows granularity) so a
  /// zone-clipped scan span never straddles an encoded block boundary.
  void BuildEncodedLanes();
  bool HasEncodedLanes() const { return has_encoded_lanes_; }

  // -- Buffer pool registration (I/O simulation) --
  /// Register every column with `pool`; scans then charge simulated I/O.
  void RegisterWithBufferPool(io::BufferPool* pool);
  bool HasIoHandles() const { return pool_ != nullptr; }
  io::BufferPool* buffer_pool() const { return pool_; }
  io::ColumnHandle io_handle(int idx) const { return io_handles_[idx]; }

 private:
  std::string name_;
  uint64_t num_rows_ = 0;
  std::vector<std::string> names_;
  std::vector<Column> columns_;
  std::unordered_map<std::string, int> by_name_;
  uint32_t zone_rows_ = 0;
  std::vector<ZoneMap> zone_maps_;
  bool has_encoded_lanes_ = false;
  io::BufferPool* pool_ = nullptr;
  std::vector<io::ColumnHandle> io_handles_;
};

}  // namespace bdcc

#endif  // BDCC_STORAGE_TABLE_H_
