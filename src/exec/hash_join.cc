#include "exec/hash_join.h"

#include <algorithm>

namespace bdcc {
namespace exec {

const char* JoinTypeName(JoinType t) {
  switch (t) {
    case JoinType::kInner:
      return "inner";
    case JoinType::kLeftOuter:
      return "left-outer";
    case JoinType::kLeftSemi:
      return "semi";
    case JoinType::kLeftAnti:
      return "anti";
  }
  return "?";
}

Status HashJoinProber::Bind(const Schema& probe_schema,
                            const std::vector<std::string>& probe_keys,
                            const JoinHashTable* table, JoinType type) {
  table_ = table;
  type_ = type;
  // Probe keys encode in the build side's canonical space (string keys
  // resolve to build dictionary codes; absent strings never match).
  BDCC_RETURN_NOT_OK(
      encoder_.BindProbe(probe_schema, probe_keys, &table->encoder()));
  if (type_ == JoinType::kLeftSemi || type_ == JoinType::kLeftAnti) {
    schema_ = probe_schema;
  } else {
    schema_ = Schema::Concat(probe_schema, table->schema());
  }
  return Status::OK();
}

void HashJoinProber::ResolveIds(const Batch& in) const {
  const JoinHashTable& table = *table_;
  size_t n = in.num_rows;
  ids_.resize(n);
  if (encoder_.int_path()) {
    encoder_.EncodeInts(in, &int_keys_, &valid_);
    table.FindIds(int_keys_.data(), n, ids_.data());
  } else {
    encoder_.EncodeBytes(in, &byte_keys_, &valid_);
    for (size_t i = 0; i < n; ++i) ids_[i] = table.FindId(byte_keys_[i]);
  }
  for (size_t i = 0; i < n; ++i) {
    if (!valid_[i]) ids_[i] = -1;  // NULL never matches
  }
}

void HashJoinProber::CollectPairs(const Batch& in) const {
  const JoinHashTable& table = *table_;
  ResolveIds(in);
  probe_rows_.clear();
  build_rows_.clear();
  bool emit_build = type_ == JoinType::kInner || type_ == JoinType::kLeftOuter;
  for (size_t i = 0; i < in.num_rows; ++i) {
    uint32_t probe_row = in.RowAt(i);
    int64_t id = ids_[i];
    if (!emit_build) {
      if ((id >= 0) == (type_ == JoinType::kLeftSemi)) {
        probe_rows_.push_back(probe_row);
      }
      continue;
    }
    if (id >= 0) {
      table.ForEachRowOf(id, [&](uint32_t build_row) {
        probe_rows_.push_back(probe_row);
        build_rows_.push_back(build_row);
      });
    } else if (type_ == JoinType::kLeftOuter) {
      probe_rows_.push_back(probe_row);
      build_rows_.push_back(kNoMatch);
    }
  }
}

void HashJoinProber::GatherBuildColumn(size_t c, bool null_slot,
                                       ColumnVector* out) const {
  const ColumnVector& src = table_->columns()[c];
  if (!null_slot) {
    out->AppendGather(src, build_rows_.data(), build_rows_.size());
    return;
  }
  // Stage the matched values plus one trailing NULL for unmatched rows,
  // then put them in output order with one gather.
  staged_.type = out->type;
  staged_.ClearKeepCapacity();
  staged_.dict = src.dict;
  staged_.AppendGather(src, matched_rows_.data(), matched_rows_.size());
  staged_.AppendNull();
  out->AppendGather(staged_, staged_pos_.data(), staged_pos_.size());
}

Result<Batch> HashJoinProber::ProbeBatch(const Batch& in, Batch scratch) const {
  const JoinHashTable& table = *table_;
  size_t left_width = in.columns.size();
  Batch out;
  out.group_id = in.group_id;
  if (scratch.columns.size() == schema_.num_fields()) {
    // Reuse a recycled output batch's lanes. Dictionaries are re-wired
    // below / re-adopted on first append, so a stale dictionary pointer
    // from the previous batch can never be interned into.
    out.columns = std::move(scratch.columns);
    for (ColumnVector& c : out.columns) {
      c.ClearKeepCapacity();
      c.dict = nullptr;
    }
  } else {
    for (const Field& f : schema_.fields()) {
      out.columns.emplace_back(f.type);
    }
  }
  bool emit_build = type_ == JoinType::kInner || type_ == JoinType::kLeftOuter;
  // Pre-wire right-side dictionaries so empty results stay typed.
  if (emit_build) {
    for (size_t c = 0; c < table.columns().size(); ++c) {
      out.columns[left_width + c].dict = table.columns()[c].dict;
    }
  }

  CollectPairs(in);
  size_t n = probe_rows_.size();
  for (size_t c = 0; c < left_width; ++c) {
    out.columns[c].AppendGather(in.columns[c], probe_rows_.data(), n);
  }
  if (emit_build && n > 0) {
    size_t unmatched = static_cast<size_t>(
        std::count(build_rows_.begin(), build_rows_.end(), kNoMatch));
    if (unmatched > 0) {
      matched_rows_.clear();
      staged_pos_.resize(n);
      uint32_t null_pos = static_cast<uint32_t>(n - unmatched);
      for (size_t k = 0; k < n; ++k) {
        if (build_rows_[k] == kNoMatch) {
          staged_pos_[k] = null_pos;
          continue;
        }
        staged_pos_[k] = static_cast<uint32_t>(matched_rows_.size());
        matched_rows_.push_back(build_rows_[k]);
      }
    }
    for (size_t c = 0; c < table.columns().size(); ++c) {
      GatherBuildColumn(c, unmatched > 0, &out.columns[left_width + c]);
    }
  }
  out.num_rows = n;
  return out;
}

Status BuildHashTable(Operator* build, const std::vector<std::string>& keys,
                      bool unique_keys, ExecContext* ctx, JoinHashTable* table,
                      TrackedMemory* tracked) {
  BDCC_RETURN_NOT_OK(build->Open(ctx));
  BDCC_RETURN_NOT_OK(table->Init(build->schema(), keys, unique_keys));
  while (true) {
    BDCC_RETURN_NOT_OK(ctx->CheckLifecycle());
    BDCC_ASSIGN_OR_RETURN(Batch b, build->Next(ctx));
    if (b.empty()) {
      if (table->num_rows() == 0) return Status::OK();  // nothing to index
      table->Finish();
      return ctx->ChargeMemory(tracked, table->MemoryBytes());
    }
    BDCC_RETURN_NOT_OK(table->AddBatch(b));
    build->Recycle(std::move(b));
    BDCC_RETURN_NOT_OK(ctx->ChargeMemory(tracked, table->MemoryBytes()));
  }
}

HashJoinProbe::HashJoinProbe(OperatorPtr probe, const JoinHashTable* table,
                             std::vector<std::string> keys, JoinType type)
    : probe_(std::move(probe)),
      table_(table),
      keys_(std::move(keys)),
      type_(type) {}

Status HashJoinProbe::Open(ExecContext* ctx) {
  BDCC_RETURN_NOT_OK(OpenProbe(ctx));
  return Bind();
}

Status HashJoinProbe::OpenProbe(ExecContext* ctx) { return probe_->Open(ctx); }

Status HashJoinProbe::Bind() {
  if (keys_.empty() || keys_.size() != table_->encoder().num_keys()) {
    return Status::InvalidArgument("join key arity mismatch");
  }
  return prober_.Bind(probe_->schema(), keys_, table_, type_);
}

Result<Batch> HashJoinProbe::Next(ExecContext* ctx) {
  while (true) {
    BDCC_ASSIGN_OR_RETURN(Batch in, probe_->Next(ctx));
    if (in.empty()) return Batch::Empty();
    Batch scratch;
    if (!recycled_.empty()) {
      scratch = std::move(recycled_.back());
      recycled_.pop_back();
    }
    BDCC_ASSIGN_OR_RETURN(Batch out,
                          prober_.ProbeBatch(in, std::move(scratch)));
    probe_->Recycle(std::move(in));  // probe output is freshly materialized
    if (out.num_rows > 0) return out;
  }
}

void HashJoinProbe::Recycle(Batch&& batch) {
  RecycleIntoFreeList(std::move(batch), schema(), &recycled_);
}

void HashJoinProbe::Close(ExecContext* ctx) {
  probe_->Close(ctx);
  recycled_.clear();
}

HashJoin::HashJoin(OperatorPtr left, OperatorPtr right,
                   std::vector<std::string> left_keys,
                   std::vector<std::string> right_keys, JoinType type,
                   bool unique_build_keys)
    : right_(std::move(right)),
      right_keys_(std::move(right_keys)),
      unique_build_keys_(unique_build_keys),
      probe_(std::move(left), &table_, std::move(left_keys), type) {}

Status HashJoin::Open(ExecContext* ctx) {
  BDCC_RETURN_NOT_OK(probe_.OpenProbe(ctx));
  tracked_ = std::make_unique<TrackedMemory>(ctx->memory(), "hash-join build");
  BDCC_RETURN_NOT_OK(
      BuildHashTable(right_.get(), right_keys_, unique_build_keys_, ctx,
                     &table_, tracked_.get()));
  return probe_.Bind();
}

void HashJoin::Close(ExecContext* ctx) {
  probe_.Close(ctx);
  right_->Close(ctx);
  table_.Clear();
  if (tracked_) tracked_->Clear();
}

}  // namespace exec
}  // namespace bdcc
