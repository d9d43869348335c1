#include "exec/sandwich_agg.h"

namespace bdcc {
namespace exec {

SandwichAgg::SandwichAgg(OperatorPtr child, std::vector<std::string> group_cols,
                         std::vector<AggSpec> specs)
    : child_(std::move(child)),
      grouped_(!group_cols.empty()),
      agg_(nullptr, std::move(group_cols), std::move(specs)) {}

Status SandwichAgg::Open(ExecContext* ctx) {
  if (!grouped_) {
    return Status::InvalidArgument("SandwichAgg requires group columns");
  }
  BDCC_RETURN_NOT_OK(child_->Open(ctx));
  BDCC_RETURN_NOT_OK(agg_.BindChildless(child_->schema()));
  tracked_ = std::make_unique<TrackedMemory>(ctx->memory(), "sandwich-agg");
  current_partition_ = -1;
  input_done_ = false;
  ready_.clear();
  return Status::OK();
}

Status SandwichAgg::DrainPartition(ExecContext* ctx) {
  while (true) {
    BDCC_ASSIGN_OR_RETURN(Batch out, agg_.Next(ctx));
    if (out.empty()) break;
    out.group_id = current_partition_;
    ready_.push_back(std::move(out));
  }
  agg_.ClearGroups();
  ctx->stats()->sandwich_partitions += 1;
  return Status::OK();
}

Result<Batch> SandwichAgg::Next(ExecContext* ctx) {
  while (ready_.empty() && !input_done_) {
    BDCC_ASSIGN_OR_RETURN(Batch b, child_->Next(ctx));
    if (b.empty()) {
      input_done_ = true;
      BDCC_RETURN_NOT_OK(DrainPartition(ctx));
      break;
    }
    if (b.group_id < 0) {
      return Status::InvalidArgument(
          "sandwich aggregation input is not group-tagged");
    }
    if (b.group_id < current_partition_) {
      return Status::Internal("sandwich aggregation groups not ascending");
    }
    if (b.group_id != current_partition_) {
      BDCC_RETURN_NOT_OK(ctx->CheckLifecycle());
      if (current_partition_ >= 0) BDCC_RETURN_NOT_OK(DrainPartition(ctx));
    }
    current_partition_ = b.group_id;
    BDCC_RETURN_NOT_OK(agg_.Consume(b));
    child_->Recycle(std::move(b));
    BDCC_RETURN_NOT_OK(ctx->ChargeMemory(tracked_.get(), agg_.MemoryBytes()));
  }
  if (ready_.empty()) return Batch::Empty();
  Batch out = std::move(ready_.front());
  ready_.pop_front();
  return out;
}

void SandwichAgg::Close(ExecContext* ctx) {
  child_->Close(ctx);
  agg_.Close(ctx);
  ready_.clear();
  if (tracked_) tracked_->Clear();
}

}  // namespace exec
}  // namespace bdcc
