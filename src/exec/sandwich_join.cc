#include "exec/sandwich_join.h"

namespace bdcc {
namespace exec {

SandwichHashJoin::SandwichHashJoin(OperatorPtr left, OperatorPtr right,
                                   std::vector<std::string> left_keys,
                                   std::vector<std::string> right_keys,
                                   JoinType type, bool unique_build_keys)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      type_(type),
      unique_build_keys_(unique_build_keys) {}

Status SandwichHashJoin::Open(ExecContext* ctx) {
  BDCC_RETURN_NOT_OK(left_->Open(ctx));
  BDCC_RETURN_NOT_OK(right_->Open(ctx));
  tracked_ =
      std::make_unique<TrackedMemory>(ctx->memory(), "sandwich-join build");
  BDCC_RETURN_NOT_OK(
      table_.Init(right_->schema(), right_keys_, unique_build_keys_));
  // Per-group builds alternate with probes on this one thread, so sharing
  // the build encoder's canonical string space is race-free; Clear() keeps
  // that encoder, so the binding survives every group rebuild.
  BDCC_RETURN_NOT_OK(prober_.Bind(left_->schema(), left_keys_, &table_, type_));
  have_pending_right_ = false;
  right_done_ = false;
  current_group_ = -1;
  last_left_group_ = -1;
  return Status::OK();
}

Status SandwichHashJoin::PullRight(ExecContext* ctx) {
  BDCC_ASSIGN_OR_RETURN(Batch b, right_->Next(ctx));
  if (b.empty()) {
    right_done_ = true;
    have_pending_right_ = false;
    return Status::OK();
  }
  if (b.group_id < 0) {
    return Status::InvalidArgument(
        "sandwich join build input is not group-tagged");
  }
  pending_right_ = std::move(b);
  have_pending_right_ = true;
  return Status::OK();
}

Status SandwichHashJoin::LoadRightGroupUpTo(int64_t target, ExecContext* ctx) {
  if (current_group_ >= target) return Status::OK();
  BDCC_RETURN_NOT_OK(ctx->CheckLifecycle());
  // Discard the stale group.
  table_.Clear();
  tracked_->Clear();
  current_group_ = -1;

  // Skip right batches below the target group.
  while (true) {
    if (!have_pending_right_ && !right_done_) BDCC_RETURN_NOT_OK(PullRight(ctx));
    if (!have_pending_right_) return Status::OK();  // right exhausted
    if (pending_right_.group_id >= target) break;
    have_pending_right_ = false;
    right_->Recycle(std::move(pending_right_));
  }
  // Build all batches of the chosen group.
  int64_t group = pending_right_.group_id;
  while (have_pending_right_ && pending_right_.group_id == group) {
    BDCC_RETURN_NOT_OK(table_.AddBatch(pending_right_));
    have_pending_right_ = false;
    right_->Recycle(std::move(pending_right_));
    BDCC_RETURN_NOT_OK(ctx->ChargeMemory(tracked_.get(), table_.MemoryBytes()));
    if (!right_done_) BDCC_RETURN_NOT_OK(PullRight(ctx));
  }
  table_.Finish();
  BDCC_RETURN_NOT_OK(ctx->ChargeMemory(tracked_.get(), table_.MemoryBytes()));
  current_group_ = group;
  ctx->stats()->sandwich_partitions += 1;
  return Status::OK();
}

Result<Batch> SandwichHashJoin::Next(ExecContext* ctx) {
  while (true) {
    BDCC_ASSIGN_OR_RETURN(Batch in, left_->Next(ctx));
    if (in.empty()) return Batch::Empty();
    if (in.group_id < 0) {
      return Status::InvalidArgument(
          "sandwich join probe input is not group-tagged");
    }
    if (in.group_id < last_left_group_) {
      return Status::Internal("sandwich join probe groups not ascending");
    }
    last_left_group_ = in.group_id;
    BDCC_RETURN_NOT_OK(LoadRightGroupUpTo(in.group_id, ctx));
    if (current_group_ == in.group_id) {
      Batch scratch;
      if (!recycled_.empty()) {
        scratch = std::move(recycled_.back());
        recycled_.pop_back();
      }
      BDCC_ASSIGN_OR_RETURN(Batch out,
                            prober_.ProbeBatch(in, std::move(scratch)));
      left_->Recycle(std::move(in));  // probe output is freshly materialized
      if (out.num_rows > 0) return out;
      continue;
    }
    // No matching right group: anti rows pass through; left-outer rows pass
    // with NULL right columns (dense, so the appended null columns align).
    if (type_ == JoinType::kLeftAnti) return in;
    if (type_ == JoinType::kLeftOuter) {
      in.Compact();
      Batch out;
      out.group_id = in.group_id;
      out.num_rows = in.num_rows;
      out.columns = std::move(in.columns);
      for (size_t c = left_->schema().num_fields();
           c < schema().num_fields(); ++c) {
        ColumnVector v(schema().field(c).type);
        for (size_t r = 0; r < out.num_rows; ++r) v.AppendNull();
        out.columns.push_back(std::move(v));
      }
      return out;
    }
  }
}

void SandwichHashJoin::Recycle(Batch&& batch) {
  RecycleIntoFreeList(std::move(batch), schema(), &recycled_);
}

void SandwichHashJoin::Close(ExecContext* ctx) {
  left_->Close(ctx);
  right_->Close(ctx);
  table_.Clear();
  recycled_.clear();
  if (tracked_) tracked_->Clear();
}

}  // namespace exec
}  // namespace bdcc
