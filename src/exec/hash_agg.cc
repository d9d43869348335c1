#include "exec/hash_agg.h"

#include <cstring>

namespace bdcc {
namespace exec {

HashAgg::HashAgg(OperatorPtr child, std::vector<std::string> group_cols,
                 std::vector<AggSpec> specs)
    : child_(std::move(child)),
      group_cols_(std::move(group_cols)),
      spec_templates_(std::move(specs)) {}

Status HashAgg::Bind(const Schema& in) {
  input_schema_ = in;
  BDCC_RETURN_NOT_OK(core_.Bind(in, spec_templates_));
  std::vector<Field> fields;
  key_store_.clear();
  if (!group_cols_.empty()) {
    BDCC_RETURN_NOT_OK(encoder_.Bind(in, group_cols_));
    for (const std::string& g : group_cols_) {
      BDCC_ASSIGN_OR_RETURN(int idx, in.Require(g));
      fields.push_back(in.field(idx));
      key_store_.emplace_back(in.field(idx).type);
    }
  }
  for (const Field& f : core_.output_fields()) fields.push_back(f);
  schema_ = Schema(std::move(fields));
  key_map_.Clear();
  emit_cursor_ = 0;
  consumed_ = false;
  return Status::OK();
}

Status HashAgg::Open(ExecContext* ctx) {
  BDCC_RETURN_NOT_OK(child_->Open(ctx));
  BDCC_RETURN_NOT_OK(Bind(child_->schema()));
  tracked_ = std::make_unique<TrackedMemory>(ctx->memory(), "hash-agg");
  return Status::OK();
}

Status HashAgg::BindChildless(const Schema& input) {
  BDCC_CHECK(child_ == nullptr);
  BDCC_RETURN_NOT_OK(Bind(input));
  if (group_cols_.empty()) core_.EnsureGroups(1);
  // Nothing to drain: Next() emits whatever is fed or merged in.
  consumed_ = true;
  return Status::OK();
}

const Schema& HashAgg::input_schema() const { return input_schema_; }

Status HashAgg::Consume(const Batch& batch) {
  if (group_cols_.empty()) {
    core_.EnsureGroups(1);
    group_of_row_.assign(batch.num_rows, 0);
  } else {
    const std::vector<int>& key_idx = encoder_.indices();
    // A fresh group stores its key values from the source row (NULL key
    // parts append as NULLs); AppendInterning resolves through RowAt.
    EncodeAndAssignGroups(encoder_, &key_map_, batch, &group_of_row_,
                          [&](size_t row) {
                            for (size_t k = 0; k < key_idx.size(); ++k) {
                              key_store_[k].AppendInterning(
                                  batch.columns[key_idx[k]], batch.RowAt(row));
                            }
                          });
    core_.EnsureGroups(key_map_.size());
  }
  return core_.Update(batch, group_of_row_);
}

void HashAgg::ClearGroups() {
  BDCC_CHECK(child_ == nullptr && !group_cols_.empty());
  key_map_.Clear();
  for (ColumnVector& ks : key_store_) ks = ColumnVector(ks.type);
  core_.Reset();
  emit_cursor_ = 0;
}

uint64_t HashAgg::MemoryBytes() const {
  uint64_t store_bytes = 0;
  for (const ColumnVector& v : key_store_) {
    store_bytes += ColumnVectorBytes(v);
  }
  return key_map_.MemoryBytes() + store_bytes + core_.MemoryBytes();
}

Status HashAgg::ConsumeAll(ExecContext* ctx) {
  if (consumed_) return Status::OK();
  while (true) {
    BDCC_RETURN_NOT_OK(ctx->CheckLifecycle());
    BDCC_ASSIGN_OR_RETURN(Batch b, child_->Next(ctx));
    if (b.empty()) break;
    BDCC_RETURN_NOT_OK(Consume(b));
    child_->Recycle(std::move(b));
    BDCC_RETURN_NOT_OK(ctx->ChargeMemory(tracked_.get(), MemoryBytes()));
  }
  if (group_cols_.empty()) core_.EnsureGroups(1);  // scalar agg: one row
  consumed_ = true;
  return Status::OK();
}

std::vector<uint32_t> HashAgg::PartitionGroups(int bits) const {
  BDCC_CHECK(bits >= 1 && bits <= 30);
  size_t groups = key_map_.size();
  std::vector<uint32_t> out(groups);
  for (size_t g = 0; g < groups; ++g) {
    // Value-based hash: strings by content, numerics by lane bits, NULLs
    // as a fixed tag — the same group key lands in the same partition no
    // matter which clone (and which private dictionary) stored it.
    uint64_t h = 0x2545f4914f6cdd1dull;
    for (const ColumnVector& col : key_store_) {
      uint64_t v;
      if (col.IsNull(g)) {
        v = 0x9ae16a3b2f90404full;  // NULL tag
      } else if (col.type == TypeId::kString) {
        v = HashKeyBytes(col.GetString(g));
      } else if (col.type == TypeId::kInt64) {
        v = static_cast<uint64_t>(col.i64[g]);
      } else if (col.type == TypeId::kFloat64) {
        double d = col.f64[g];
        std::memcpy(&v, &d, sizeof(v));
      } else {
        v = static_cast<uint64_t>(static_cast<uint32_t>(col.i32[g]));
      }
      h = HashKey64(h ^ v);
    }
    out[g] = static_cast<uint32_t>(h >> (64 - bits));
  }
  return out;
}

void HashAgg::SealForMerge() {
  BDCC_CHECK(consumed_);
  core_.SealForMerge();
}

Status HashAgg::MergePartialPartition(const HashAgg& other,
                                      const std::vector<uint32_t>& part_of_group,
                                      uint32_t partition) {
  BDCC_CHECK(consumed_ && other.consumed_);
  if (group_cols_.empty()) {
    core_.MergeFrom(other.core_, {0});
    return Status::OK();
  }
  size_t other_groups = other.key_map_.size();
  if (other_groups == 0) return Status::OK();
  // Gather only the owned groups' key rows, then encode just that subset:
  // total encode work across all partition tasks stays O(groups), and this
  // merger's encoder only ever sees (and side-interns) its own partition's
  // strings.
  std::vector<uint32_t> rows;
  for (size_t g = 0; g < other_groups; ++g) {
    if (part_of_group[g] == partition) {
      rows.push_back(static_cast<uint32_t>(g));
    }
  }
  if (rows.empty()) return Status::OK();
  std::vector<ColumnVector> sub;
  sub.reserve(other.key_store_.size());
  for (const ColumnVector& col : other.key_store_) {
    sub.push_back(col.Gather(rows));
  }
  std::vector<uint32_t> sub_map;
  EncodeAndAssignGroupsCols(encoder_, &key_map_, sub, rows.size(), &sub_map,
                            [&](size_t row) {
                              for (size_t k = 0; k < key_store_.size(); ++k) {
                                key_store_[k].AppendInterning(sub[k], row);
                              }
                            });
  core_.EnsureGroups(key_map_.size());
  std::vector<uint32_t> group_map(other_groups, AggregatorCore::kSkipGroup);
  for (size_t i = 0; i < rows.size(); ++i) group_map[rows[i]] = sub_map[i];
  core_.MergeFrom(other.core_, group_map);
  return Status::OK();
}

Result<Batch> HashAgg::Next(ExecContext* ctx) {
  BDCC_RETURN_NOT_OK(ConsumeAll(ctx));
  size_t total = group_cols_.empty() ? 1 : key_map_.size();
  if (emit_cursor_ >= total) return Batch::Empty();
  size_t end = std::min(total, emit_cursor_ + ctx->batch_size());

  Batch out;
  out.num_rows = end - emit_cursor_;
  for (size_t k = 0; k < key_store_.size(); ++k) {
    std::vector<uint32_t> sel;
    sel.reserve(out.num_rows);
    for (size_t g = emit_cursor_; g < end; ++g) {
      sel.push_back(static_cast<uint32_t>(g));
    }
    out.columns.push_back(key_store_[k].Gather(sel));
  }
  core_.EmitRange(emit_cursor_, end, &out.columns);
  emit_cursor_ = end;
  return out;
}

void HashAgg::Close(ExecContext* ctx) {
  if (child_ != nullptr) child_->Close(ctx);
  key_map_.Clear();
  key_store_.clear();
  core_.Reset();
  if (tracked_) tracked_->Clear();
}

}  // namespace exec
}  // namespace bdcc
