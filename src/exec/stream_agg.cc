#include "exec/stream_agg.h"

namespace bdcc {
namespace exec {

StreamAgg::StreamAgg(OperatorPtr child, std::vector<std::string> group_cols,
                     std::vector<AggSpec> specs)
    : child_(std::move(child)),
      group_cols_(std::move(group_cols)),
      spec_templates_(std::move(specs)) {}

Status StreamAgg::Open(ExecContext* ctx) {
  if (group_cols_.empty()) {
    return Status::InvalidArgument("StreamAgg requires group columns");
  }
  BDCC_RETURN_NOT_OK(child_->Open(ctx));
  const Schema& in = child_->schema();
  BDCC_RETURN_NOT_OK(core_.Bind(in, spec_templates_));
  BDCC_RETURN_NOT_OK(encoder_.Bind(in, group_cols_));

  std::vector<Field> fields;
  current_key_row_.clear();
  pending_.clear();
  for (const std::string& g : group_cols_) {
    BDCC_ASSIGN_OR_RETURN(int idx, in.Require(g));
    fields.push_back(in.field(idx));
    current_key_row_.emplace_back(in.field(idx).type);
    pending_.emplace_back(in.field(idx).type);
  }
  for (const Field& f : core_.output_fields()) {
    fields.push_back(f);
    pending_.emplace_back(f.type);
  }
  schema_ = Schema(std::move(fields));
  have_current_ = false;
  input_done_ = false;
  pending_rows_ = 0;
  return Status::OK();
}

void StreamAgg::FlushCurrentGroup() {
  // EOS flush: emit the carried group (group 0 of the core).
  if (!have_current_) return;
  for (size_t k = 0; k < current_key_row_.size(); ++k) {
    pending_[k].AppendInterning(current_key_row_[k], 0);
  }
  std::vector<ColumnVector> agg_out;
  core_.Seal();
  core_.EmitRange(0, 1, &agg_out);
  for (size_t a = 0; a < agg_out.size(); ++a) {
    pending_[current_key_row_.size() + a].AppendFrom(agg_out[a], 0);
  }
  ++pending_rows_;
  core_.Reset();
  have_current_ = false;
}

Result<Batch> StreamAgg::Next(ExecContext* ctx) {
  while (!input_done_ && pending_rows_ < ctx->batch_size()) {
    BDCC_ASSIGN_OR_RETURN(Batch b, child_->Next(ctx));
    if (b.empty()) {
      input_done_ = true;
      FlushCurrentGroup();
      break;
    }
    // Run detection walks rows positionally; materialize any selection.
    b.Compact();
    // Encode keys once, assign run-local group ids (group 0 = carried run).
    std::vector<uint8_t> valid;
    std::vector<int64_t> ikeys;
    std::vector<std::string> bkeys;
    bool int_path = encoder_.int_path();
    if (int_path) {
      encoder_.EncodeInts(b, &ikeys, &valid);
    } else {
      encoder_.EncodeBytes(b, &bkeys, &valid);
    }
    auto key_equals_current = [&](size_t i) {
      return int_path ? (ikeys[i] == current_key_i64_)
                      : (bkeys[i] == current_key_);
    };
    auto key_equals_prev_row = [&](size_t i) {
      return int_path ? (ikeys[i] == ikeys[i - 1]) : (bkeys[i] == bkeys[i - 1]);
    };

    std::vector<uint32_t> group_of_row(b.num_rows);
    // Key-column source row of each fresh run, parallel to new run ids.
    std::vector<uint32_t> run_first_row;
    uint32_t gid = 0;
    if (!have_current_ || !key_equals_current(0)) {
      // Row 0 starts a new run.
      gid = have_current_ ? 1 : 0;
      run_first_row.push_back(0);
    }
    group_of_row[0] = gid;
    for (size_t i = 1; i < b.num_rows; ++i) {
      if (!key_equals_prev_row(i)) {
        ++gid;
        run_first_row.push_back(static_cast<uint32_t>(i));
      }
      group_of_row[i] = gid;
    }
    size_t total_groups = gid + 1;
    core_.EnsureGroups(total_groups);
    BDCC_RETURN_NOT_OK(core_.Update(b, group_of_row));

    // Emit all complete groups (everything except the last).
    if (total_groups > 1) {
      // Keys: the carried key (if it was group 0), then fresh run keys.
      size_t emitted = total_groups - 1;
      size_t fresh_emitted =
          run_first_row.size() >= 1 ? run_first_row.size() - 1 : 0;
      if (have_current_ && !run_first_row.empty() &&
          group_of_row[run_first_row[0]] == 1) {
        // Group 0 was the carry: emit its stored key first.
        for (size_t k = 0; k < current_key_row_.size(); ++k) {
          pending_[k].AppendInterning(current_key_row_[k], 0);
        }
        fresh_emitted = run_first_row.size() - 1;
      } else if (!have_current_) {
        fresh_emitted = run_first_row.size() - 1;
      }
      // Fresh runs that completed within this batch.
      const std::vector<int>& key_idx = encoder_.indices();
      for (size_t rid = 0; rid < fresh_emitted; ++rid) {
        uint32_t row = run_first_row[rid];
        for (size_t k = 0; k < key_idx.size(); ++k) {
          pending_[k].AppendInterning(b.columns[key_idx[k]], row);
        }
      }
      std::vector<ColumnVector> agg_out;
      core_.Seal();
      core_.EmitRange(0, emitted, &agg_out);
      for (size_t a = 0; a < agg_out.size(); ++a) {
        for (size_t g = 0; g < emitted; ++g) {
          pending_[current_key_row_.size() + a].AppendFrom(agg_out[a], g);
        }
      }
      pending_rows_ += emitted;
      core_.KeepOnlyLastGroup();
    }
    // Carry the last (open) run.
    have_current_ = true;
    size_t last_row = b.num_rows - 1;
    if (int_path) {
      current_key_i64_ = ikeys[last_row];
    } else {
      current_key_ = bkeys[last_row];
    }
    const std::vector<int>& key_idx = encoder_.indices();
    for (size_t k = 0; k < current_key_row_.size(); ++k) {
      ColumnVector fresh(current_key_row_[k].type);
      current_key_row_[k] = std::move(fresh);
      current_key_row_[k].AppendInterning(b.columns[key_idx[k]], last_row);
    }
    child_->Recycle(std::move(b));  // carried key/state are copies
  }
  if (pending_rows_ == 0) return Batch::Empty();
  Batch out;
  out.num_rows = pending_rows_;
  out.columns = std::move(pending_);
  pending_.clear();
  for (const Field& f : schema_.fields()) pending_.emplace_back(f.type);
  pending_rows_ = 0;
  return out;
}

void StreamAgg::Close(ExecContext* ctx) {
  child_->Close(ctx);
  core_.Reset();
}

}  // namespace exec
}  // namespace bdcc
