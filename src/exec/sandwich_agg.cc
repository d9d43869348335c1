#include "exec/sandwich_agg.h"

namespace bdcc {
namespace exec {

SandwichAgg::SandwichAgg(OperatorPtr child, std::vector<std::string> group_cols,
                         std::vector<AggSpec> specs)
    : child_(std::move(child)),
      group_cols_(std::move(group_cols)),
      spec_templates_(std::move(specs)) {}

Status SandwichAgg::Open(ExecContext* ctx) {
  if (group_cols_.empty()) {
    return Status::InvalidArgument("SandwichAgg requires group columns");
  }
  BDCC_RETURN_NOT_OK(child_->Open(ctx));
  const Schema& in = child_->schema();
  BDCC_RETURN_NOT_OK(core_.Bind(in, spec_templates_));
  BDCC_RETURN_NOT_OK(encoder_.Bind(in, group_cols_));

  std::vector<Field> fields;
  key_store_.clear();
  for (const std::string& g : group_cols_) {
    BDCC_ASSIGN_OR_RETURN(int idx, in.Require(g));
    fields.push_back(in.field(idx));
    key_store_.emplace_back(in.field(idx).type);
  }
  for (const Field& f : core_.output_fields()) fields.push_back(f);
  schema_ = Schema(std::move(fields));

  tracked_ = std::make_unique<TrackedMemory>(ctx->memory(), "sandwich-agg");
  key_map_.Clear();
  current_partition_ = -1;
  input_done_ = false;
  ready_.clear();
  return Status::OK();
}

Status SandwichAgg::Consume(const Batch& batch) {
  const std::vector<int>& key_idx = encoder_.indices();
  EncodeAndAssignGroups(encoder_, &key_map_, batch, &group_of_row_,
                        [&](size_t row) {
                          for (size_t k = 0; k < key_idx.size(); ++k) {
                            key_store_[k].AppendInterning(
                                batch.columns[key_idx[k]], batch.RowAt(row));
                          }
                        });
  core_.EnsureGroups(key_map_.size());
  return core_.Update(batch, group_of_row_);
}

void SandwichAgg::FlushPartition(ExecContext* ctx) {
  size_t groups = key_map_.size();
  if (groups > 0) {
    Batch out;
    out.num_rows = groups;
    std::vector<uint32_t> all(groups);
    for (size_t g = 0; g < groups; ++g) all[g] = static_cast<uint32_t>(g);
    for (ColumnVector& ks : key_store_) {
      out.columns.push_back(ks.Gather(all));
    }
    core_.EmitRange(0, groups, &out.columns);
    ready_.push_back(std::move(out));
  }
  // Reset partition state.
  key_map_.Clear();
  for (ColumnVector& ks : key_store_) {
    ColumnVector fresh(ks.type);
    ks = std::move(fresh);
  }
  core_.Reset();
  ctx->stats()->sandwich_partitions += 1;
}

Result<Batch> SandwichAgg::Next(ExecContext* ctx) {
  while (ready_.empty() && !input_done_) {
    BDCC_ASSIGN_OR_RETURN(Batch b, child_->Next(ctx));
    if (b.empty()) {
      input_done_ = true;
      FlushPartition(ctx);
      break;
    }
    if (b.group_id < 0) {
      return Status::InvalidArgument(
          "sandwich aggregation input is not group-tagged");
    }
    if (b.group_id != current_partition_) {
      BDCC_RETURN_NOT_OK(ctx->CheckLifecycle());
      if (current_partition_ >= 0) FlushPartition(ctx);
    }
    current_partition_ = b.group_id;
    BDCC_RETURN_NOT_OK(Consume(b));
    child_->Recycle(std::move(b));
    uint64_t store_bytes = 0;
    for (const ColumnVector& v : key_store_) {
      store_bytes += ColumnVectorBytes(v);
    }
    BDCC_RETURN_NOT_OK(ctx->ChargeMemory(
        tracked_.get(),
        key_map_.MemoryBytes() + store_bytes + core_.MemoryBytes()));
  }
  if (ready_.empty()) return Batch::Empty();
  Batch out = std::move(ready_.front());
  ready_.pop_front();
  return out;
}

void SandwichAgg::Close(ExecContext* ctx) {
  child_->Close(ctx);
  key_map_.Clear();
  core_.Reset();
  if (tracked_) tracked_->Clear();
}

}  // namespace exec
}  // namespace bdcc
