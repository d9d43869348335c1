#include "storage/table.h"

#include "storage/compression/encoded_column.h"

namespace bdcc {

Status Table::AddColumn(std::string name, Column column) {
  if (by_name_.count(name)) {
    return Status::AlreadyExists("column exists: " + name);
  }
  if (!columns_.empty() && column.size() != num_rows_) {
    return Status::InvalidArgument(
        "column " + name + " length mismatch in table " + name_);
  }
  num_rows_ = column.size();
  by_name_[name] = static_cast<int>(columns_.size());
  names_.push_back(std::move(name));
  columns_.push_back(std::move(column));
  return Status::OK();
}

Result<int> Table::ColumnIndex(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no column " + name + " in table " + name_);
  }
  return it->second;
}

bool Table::HasColumn(const std::string& name) const {
  return by_name_.count(name) > 0;
}

const Column& Table::ColumnByName(const std::string& name) const {
  auto it = by_name_.find(name);
  BDCC_CHECK_MSG(it != by_name_.end(), name.c_str());
  return columns_[it->second];
}

uint64_t Table::DiskBytes() const {
  uint64_t total = 0;
  for (const Column& c : columns_) total += c.DiskBytes();
  return total;
}

Table Table::ApplyPermutation(const std::vector<uint32_t>& perm) const {
  BDCC_CHECK(perm.size() == num_rows_);
  std::vector<RowRef> refs(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) refs[i] = RowRef{0, perm[i]};
  return Gather({this}, refs);
}

Table Table::Gather(const std::vector<const Table*>& sources,
                    const std::vector<RowRef>& refs) {
  BDCC_CHECK(!sources.empty());
  const Table& shape = *sources[0];
  Table out(shape.name_);
  std::vector<const Column*> columns(sources.size());
  for (size_t c = 0; c < shape.columns_.size(); ++c) {
    for (size_t s = 0; s < sources.size(); ++s) {
      BDCC_CHECK(sources[s]->columns_.size() == shape.columns_.size());
      columns[s] = &sources[s]->columns_[c];
    }
    out.AddColumn(shape.names_[c], Column::Gather(columns, refs))
        .AbortIfNotOK();
  }
  return out;
}

Table Table::Clone() const {
  std::vector<uint32_t> identity(num_rows_);
  for (uint64_t i = 0; i < num_rows_; ++i) {
    identity[i] = static_cast<uint32_t>(i);
  }
  return ApplyPermutation(identity);
}

void Table::AppendRowsFrom(const Table& other, uint64_t begin, uint64_t end) {
  BDCC_CHECK(other.num_columns() == num_columns());
  BDCC_CHECK(end <= other.num_rows() && begin <= end);
  has_encoded_lanes_ = false;  // appenders drop per-column encodings
  for (size_t i = 0; i < columns_.size(); ++i) {
    for (uint64_t r = begin; r < end; ++r) {
      columns_[i].AppendFrom(other.columns_[i], r);
    }
  }
  num_rows_ += end - begin;
}

void Table::BuildZoneMaps(uint32_t zone_rows) {
  zone_rows_ = zone_rows;
  zone_maps_.clear();
  zone_maps_.reserve(columns_.size());
  for (const Column& c : columns_) {
    zone_maps_.push_back(ZoneMap::Build(c, zone_rows));
  }
}

void Table::BuildEncodedLanes() {
  uint32_t block_rows = zone_rows_ != 0
                            ? zone_rows_
                            : compression::EncodedLane::kDefaultBlockRows;
  for (Column& c : columns_) c.BuildEncoded(block_rows);
  has_encoded_lanes_ = true;
}

void Table::RegisterWithBufferPool(io::BufferPool* pool) {
  BDCC_CHECK(pool != nullptr);
  pool_ = pool;
  io_handles_.clear();
  io_handles_.reserve(columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    io_handles_.push_back(pool->RegisterColumn(
        name_ + "." + names_[i], columns_[i].DiskBytes(), num_rows_));
  }
}

}  // namespace bdcc
