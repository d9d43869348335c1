#include "delta/delta_store.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/fault_injection.h"

namespace bdcc {
namespace delta {

Result<DeltaChunk> DeltaChunk::Build(const BdccTable& base, const Table& rows,
                                     const BdccKeyIndex& key_index,
                                     uint32_t zone_rows,
                                     exec::MemoryTracker* memory) {
  if (BDCC_UNLIKELY(fault::ShouldFail(fault::kDeltaAppend))) {
    return Status::IOError("injected append fault (delta chunk build)");
  }
  if (rows.num_columns() + 1 != base.data().num_columns()) {
    return Status::InvalidArgument("appended rows have a different schema");
  }
  BDCC_ASSIGN_OR_RETURN(std::vector<uint64_t> keys, key_index.Keys(rows));

  uint64_t n = rows.num_rows();
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(),
                   [&](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });
  std::vector<RowRef> order(n);
  std::vector<uint64_t> sorted_keys(n);
  for (uint64_t i = 0; i < n; ++i) {
    order[i] = RowRef{0, perm[i]};
    sorted_keys[i] = keys[perm[i]];
  }

  const Table& shape = base.data();
  int bdcc_col = base.bdcc_column_index();
  int src = 0;
  Table data(shape.name());
  for (size_t c = 0; c < shape.num_columns(); ++c) {
    const Column& ref = shape.column(static_cast<int>(c));
    // Fresh dictionaries (Column::Gather's): chunks must never intern into
    // the base table's shared dictionaries while readers decode them.
    Column col(ref.type());
    if (static_cast<int>(c) == bdcc_col) {
      col.Reserve(n);
      for (uint64_t k : sorted_keys) col.AppendInt64(static_cast<int64_t>(k));
    } else {
      if (shape.column_name(static_cast<int>(c)) != rows.column_name(src) ||
          ref.type() != rows.column(src).type()) {
        return Status::InvalidArgument("appended rows have a different schema");
      }
      col = Column::Gather({&rows.column(src++)}, order);
    }
    BDCC_RETURN_NOT_OK(
        data.AddColumn(shape.column_name(static_cast<int>(c)), std::move(col)));
  }
  data.BuildZoneMaps(zone_rows);

  // Bucket by reduced key into the base's group key space.
  DeltaChunk chunk(std::move(data));
  int shift = base.full_bits() - base.count_bits();
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t reduced = sorted_keys[i] >> shift;
    if (chunk.groups_.empty() || chunk.groups_.back().key != reduced) {
      chunk.groups_.push_back(GroupRange{reduced, i, i + 1});
    } else {
      chunk.groups_.back().row_end = i + 1;
    }
  }
  chunk.bytes_ = chunk.data_.DiskBytes();
  if (memory != nullptr) {
    if (!memory->TryAllocate(chunk.bytes_)) {
      chunk.bytes_ = 0;
      return Status::ResourceExhausted(
          "delta store: appending this batch would exceed the delta memory "
          "budget");
    }
    chunk.memory_ = memory;
  }
  return chunk;
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
    const BdccKeyIndex& key_index) const {
  BDCC_ASSIGN_OR_RETURN(
      DeltaChunk chunk,
      DeltaChunk::Build(base, rows, key_index, zone_rows_, &memory_));
  return std::make_shared<const DeltaChunk>(std::move(chunk));
}

}  // namespace delta
}  // namespace bdcc
