#include "delta/delta_store.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "bdcc/append.h"
#include "common/fault_injection.h"

namespace bdcc {
namespace delta {

namespace {

// Empty table with `base`'s data() schema (including `_bdcc_`). String
// columns get fresh dictionaries: chunks must never intern into the base
// table's shared dictionaries while readers decode them.
Table EmptyChunkTable(const BdccTable& base) {
  const Table& shape = base.data();
  Table out(shape.name());
  for (size_t c = 0; c < shape.num_columns(); ++c) {
    Status s = out.AddColumn(shape.column_name(static_cast<int>(c)),
                             Column(shape.column(static_cast<int>(c)).type()));
    BDCC_CHECK(s.ok());
  }
  return out;
}

}  // namespace

Result<DeltaChunk> DeltaChunk::Build(const BdccTable& base, const Table& rows,
                                     const TableResolver& resolver,
                                     uint32_t zone_rows,
                                     exec::MemoryTracker* memory) {
  if (BDCC_UNLIKELY(fault::ShouldFail(fault::kDeltaAppend))) {
    return Status::IOError("injected append fault (delta chunk build)");
  }
  if (rows.num_columns() + 1 != base.data().num_columns()) {
    return Status::InvalidArgument("appended rows have a different schema");
  }
  BDCC_ASSIGN_OR_RETURN(std::vector<uint64_t> keys,
                        ComputeBdccKeys(base, rows, resolver));

  uint64_t n = rows.num_rows();
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(),
                   [&](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });

  const Table& shape = base.data();
  int bdcc_col = base.bdcc_column_index();
  int src = 0;
  std::vector<uint64_t> sorted_keys(n);
  for (uint64_t i = 0; i < n; ++i) sorted_keys[i] = keys[perm[i]];
  Table data(shape.name());
  for (size_t c = 0; c < shape.num_columns(); ++c) {
    const Column& ref = shape.column(static_cast<int>(c));
    // Fresh dictionaries: chunks must never intern into the base table's
    // shared dictionaries while readers decode them.
    Column col(ref.type());
    col.Reserve(n);
    if (static_cast<int>(c) == bdcc_col) {
      for (uint64_t k : sorted_keys) col.AppendInt64(static_cast<int64_t>(k));
    } else {
      if (shape.column_name(static_cast<int>(c)) != rows.column_name(src) ||
          ref.type() != rows.column(src).type()) {
        return Status::InvalidArgument("appended rows have a different schema");
      }
      const Column& from = rows.column(src++);
      for (uint32_t r : perm) col.AppendFrom(from, r);
    }
    BDCC_RETURN_NOT_OK(
        data.AddColumn(shape.column_name(static_cast<int>(c)), std::move(col)));
  }
  DeltaChunk chunk(std::move(data));
  BDCC_RETURN_NOT_OK(chunk.Seal(base, sorted_keys, zone_rows, memory));
  return chunk;
}

Result<DeltaChunk> DeltaChunk::FromKeyedRows(
    const BdccTable& base,
    const std::vector<std::pair<const DeltaChunk*, uint64_t>>& sources,
    uint32_t zone_rows, exec::MemoryTracker* memory) {
  DeltaChunk chunk(EmptyChunkTable(base));
  for (const auto& [src, row] : sources) {
    chunk.data_.AppendRowsFrom(src->data(), row, row + 1);
  }
  std::vector<uint64_t> keys(sources.size());
  const auto& lane = chunk.data_.column(base.bdcc_column_index()).i64();
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<uint64_t>(lane[i]);
  }
  BDCC_RETURN_NOT_OK(chunk.Seal(base, keys, zone_rows, memory));
  return chunk;
}

Status DeltaChunk::Seal(const BdccTable& base,
                        const std::vector<uint64_t>& keys, uint32_t zone_rows,
                        exec::MemoryTracker* memory) {
  data_.BuildZoneMaps(zone_rows);
  int shift = base.full_bits() - base.count_bits();
  for (uint64_t i = 0; i < keys.size(); ++i) {
    BDCC_CHECK(i == 0 || keys[i - 1] <= keys[i]);
    uint64_t reduced = keys[i] >> shift;
    if (groups_.empty() || groups_.back().key != reduced) {
      groups_.push_back(GroupRange{reduced, i, i + 1});
    } else {
      groups_.back().row_end = i + 1;
    }
  }
  bytes_ = data_.DiskBytes();
  if (memory != nullptr) {
    if (!memory->TryAllocate(bytes_)) {
      bytes_ = 0;
      return Status::ResourceExhausted(
          "delta store: appending this batch would exceed the delta memory "
          "budget");
    }
    memory_ = memory;
  }
  return Status::OK();
}

DeltaChunk::DeltaChunk(DeltaChunk&& other) noexcept
    : data_(std::move(other.data_)),
      groups_(std::move(other.groups_)),
      bytes_(other.bytes_),
      memory_(other.memory_) {
  other.bytes_ = 0;
  other.memory_ = nullptr;
}

DeltaChunk& DeltaChunk::operator=(DeltaChunk&& other) noexcept {
  if (this != &other) {
    if (memory_ != nullptr) memory_->Release(bytes_, "delta chunk");
    data_ = std::move(other.data_);
    groups_ = std::move(other.groups_);
    bytes_ = other.bytes_;
    memory_ = other.memory_;
    other.bytes_ = 0;
    other.memory_ = nullptr;
  }
  return *this;
}

DeltaChunk::~DeltaChunk() {
  if (memory_ != nullptr) memory_->Release(bytes_, "delta chunk");
}

Result<std::shared_ptr<const DeltaChunk>> DeltaStore::Append(
    const BdccTable& base, const Table& rows,
    const TableResolver& resolver) const {
  BDCC_ASSIGN_OR_RETURN(
      DeltaChunk chunk,
      DeltaChunk::Build(base, rows, resolver, zone_rows_, &memory_));
  return std::make_shared<const DeltaChunk>(std::move(chunk));
}

}  // namespace delta
}  // namespace bdcc
