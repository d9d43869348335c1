#include "exec/scan.h"

#include <algorithm>
#include <limits>

#include "exec/kernels/kernels.h"
#include "storage/compression/encoded_column.h"

namespace bdcc {
namespace exec {

namespace internal {

Status ScanFilterState::Bind(const Table& table,
                             const std::vector<ScanPredicate>& preds) {
  bound_.clear();
  for (const ScanPredicate& p : preds) {
    BDCC_ASSIGN_OR_RETURN(int idx, table.ColumnIndex(p.column));
    const Column& col = table.column(idx);
    BoundRowPred b;
    b.col = idx;
    b.type = col.type();
    switch (col.type()) {
      case TypeId::kInt64:
        b.lo_i64 = p.range.lo ? p.range.lo->AsInt64()
                              : std::numeric_limits<int64_t>::min();
        b.hi_i64 = p.range.hi ? p.range.hi->AsInt64()
                              : std::numeric_limits<int64_t>::max();
        break;
      case TypeId::kFloat64:
        b.lo_f64 = p.range.lo ? p.range.lo->AsDouble()
                              : -std::numeric_limits<double>::infinity();
        b.hi_f64 = p.range.hi ? p.range.hi->AsDouble()
                              : std::numeric_limits<double>::infinity();
        b.has_hi_f64 = p.range.hi.has_value();
        break;
      case TypeId::kString: {
        // Bind the range to the dictionary once: one verdict per code.
        const Dictionary& dict = *col.dict();
        b.code_ok.resize(dict.size());
        for (int32_t c = 0; c < dict.size(); ++c) {
          b.code_ok[c] = p.range.Contains(Value::String(dict.Get(c))) ? 1 : 0;
        }
        break;
      }
      default: {  // i32-backed
        int64_t lo = p.range.lo ? p.range.lo->AsInt64()
                                : std::numeric_limits<int32_t>::min();
        int64_t hi = p.range.hi ? p.range.hi->AsInt64()
                                : std::numeric_limits<int32_t>::max();
        if (lo > std::numeric_limits<int32_t>::max() ||
            hi < std::numeric_limits<int32_t>::min()) {
          // The range lies entirely outside the lane's domain: match
          // nothing (a naive clamp would wrongly admit the boundary value).
          b.lo_i32 = 1;
          b.hi_i32 = 0;
        } else {
          b.lo_i32 = static_cast<int32_t>(std::clamp<int64_t>(
              lo, std::numeric_limits<int32_t>::min(),
              std::numeric_limits<int32_t>::max()));
          b.hi_i32 = static_cast<int32_t>(std::clamp<int64_t>(
              hi, std::numeric_limits<int32_t>::min(),
              std::numeric_limits<int32_t>::max()));
        }
        break;
      }
    }
    bound_.push_back(std::move(b));
  }
  return Status::OK();
}

void ScanFilterState::EvalSpan(const Table& table, uint64_t begin,
                               uint64_t end, ExecContext* ctx,
                               std::vector<uint32_t>* rel_sel) {
  using compression::EncodedLane;
  size_t n = static_cast<size_t>(end - begin);
  mask_.assign(n, 1);
  bool none_pass = false;
  for (const BoundRowPred& p : bound_) {
    if (none_pass) break;
    const Column& col = table.column(p.col);
    // i32-backed lanes may carry an encoded mirror.
    const EncodedLane* enc =
        p.type != TypeId::kInt64 && p.type != TypeId::kFloat64 ? col.encoded()
                                                               : nullptr;
    switch (p.type) {
      case TypeId::kInt64:
        kernels::RangeMaskI64(col.i64().data() + begin, n, p.lo_i64,
                              p.hi_i64, mask_.data());
        break;
      case TypeId::kFloat64:
        kernels::RangeMaskF64(col.f64().data() + begin, n, p.lo_f64,
                              p.hi_f64, p.has_hi_f64, mask_.data());
        break;
      case TypeId::kString: {
        const uint8_t* ok = p.code_ok.data();
        if (enc != nullptr) {
          EncodedLane::SpanVerdict v = enc->VerdictMask(
              col.i32().data(), begin, end, ok, p.code_ok.size(),
              mask_.data());
          ctx->stats()->encoded_spans += 1;
          // kNonePass zeroes the whole span mask, so the AND-chain is done.
          none_pass = v == EncodedLane::SpanVerdict::kNonePass;
        } else {
          kernels::VerdictMaskI32(col.i32().data() + begin, n, ok,
                                  mask_.data());
        }
        break;
      }
      default: {
        if (enc != nullptr) {
          EncodedLane::SpanVerdict v =
              enc->RangeMask(col.i32().data(), begin, end, p.lo_i32,
                             p.hi_i32, mask_.data());
          ctx->stats()->encoded_spans += 1;
          none_pass = v == EncodedLane::SpanVerdict::kNonePass;
        } else {
          kernels::RangeMaskI32(col.i32().data() + begin, n, p.lo_i32,
                                p.hi_i32, mask_.data());
        }
        break;
      }
    }
  }
  rel_sel->clear();
  if (!none_pass) kernels::MaskToSel(mask_.data(), n, 0, rel_sel);
}

// Point `out`'s string columns at `table`'s dictionaries.
static void WireDicts(const Table& table, const std::vector<int>& col_idx,
                      Batch* out) {
  for (size_t c = 0; c < col_idx.size(); ++c) {
    if (table.column(col_idx[c]).type() == TypeId::kString) {
      out->columns[c].dict = table.column(col_idx[c]).dict();
    }
  }
}

Batch ScanFilterState::TakeBatch(const Table& table,
                                 const std::vector<int>& col_idx,
                                 const Schema& schema, size_t reserve_rows) {
  Batch out;
  if (!recycled_.empty()) {
    out = std::move(recycled_.back());
    recycled_.pop_back();
    out.num_rows = 0;
    out.sel.clear();
    out.group_id = -1;
    for (ColumnVector& c : out.columns) c.ClearKeepCapacity();
  } else {
    out.columns.reserve(col_idx.size());
    for (size_t c = 0; c < col_idx.size(); ++c) {
      ColumnVector v(schema.field(c).type);
      v.Reserve(reserve_rows);
      out.columns.push_back(std::move(v));
    }
  }
  WireDicts(table, col_idx, &out);
  return out;
}

void ScanFilterState::Recycle(Batch&& batch, const Schema& schema) {
  RecycleIntoFreeList(std::move(batch), schema, &recycled_);
}

void SelBuilder::AddDense(size_t base, size_t n) {
  if (explicit_) {
    for (size_t i = 0; i < n; ++i) {
      sel_.push_back(static_cast<uint32_t>(base + i));
    }
  }
  logical_ += n;
}

void SelBuilder::AddPartial(size_t base, const std::vector<uint32_t>& rel) {
  if (!explicit_) {
    // Everything so far was dense: materialize the identity prefix.
    sel_.reserve(logical_ + rel.size());
    for (size_t i = 0; i < logical_; ++i) {
      sel_.push_back(static_cast<uint32_t>(i));
    }
    explicit_ = true;
  }
  for (uint32_t r : rel) sel_.push_back(static_cast<uint32_t>(base + r));
  logical_ += rel.size();
}

void SelBuilder::Finish(Batch* out) {
  out->num_rows = logical_;
  if (explicit_) out->sel = std::move(sel_);
}

}  // namespace internal

namespace {

using internal::SelBuilder;

// Append rows [begin, end) of the storage columns to `out` (no I/O or stats
// accounting — see ChargeSpan).
void AppendRows(const Table& table, const std::vector<int>& col_idx,
                uint64_t begin, uint64_t end, Batch* out) {
  for (size_t c = 0; c < col_idx.size(); ++c) {
    const Column& src = table.column(col_idx[c]);
    ColumnVector& v = out->columns[c];
    switch (src.type()) {
      case TypeId::kInt64:
        v.i64.insert(v.i64.end(), src.i64().begin() + begin,
                     src.i64().begin() + end);
        break;
      case TypeId::kFloat64:
        v.f64.insert(v.f64.end(), src.f64().begin() + begin,
                     src.f64().begin() + end);
        break;
      default:
        v.i32.insert(v.i32.end(), src.i32().begin() + begin,
                     src.i32().begin() + end);
        break;
    }
  }
}

// Append only rows begin+rel_sel[i] (sparse chunk: gather straight from
// storage, no intermediate copy).
void AppendSelectedRows(const Table& table, const std::vector<int>& col_idx,
                        uint64_t begin, const std::vector<uint32_t>& rel_sel,
                        Batch* out) {
  for (size_t c = 0; c < col_idx.size(); ++c) {
    const Column& src = table.column(col_idx[c]);
    ColumnVector& v = out->columns[c];
    switch (src.type()) {
      case TypeId::kInt64: {
        const int64_t* data = src.i64().data() + begin;
        for (uint32_t r : rel_sel) v.i64.push_back(data[r]);
        break;
      }
      case TypeId::kFloat64: {
        const double* data = src.f64().data() + begin;
        for (uint32_t r : rel_sel) v.f64.push_back(data[r]);
        break;
      }
      default: {
        const int32_t* data = src.i32().data() + begin;
        for (uint32_t r : rel_sel) v.i32.push_back(data[r]);
        break;
      }
    }
  }
}

// Charge simulated I/O and scan stats for reading rows [begin, end) of the
// scanned columns (the scan reads the span even when predicates then drop
// rows). Simulated I/O only when the execution context is wired to a pool
// (plan-time mini-evaluations pass a pool-less context).
void ChargeSpan(const Table& table, const std::vector<int>& col_idx,
                uint64_t begin, uint64_t end, ExecContext* ctx) {
  if (table.HasIoHandles() && ctx->buffer_pool() != nullptr) {
    for (size_t c = 0; c < col_idx.size(); ++c) {
      table.buffer_pool()->ReadRows(table.io_handle(col_idx[c]), begin, end);
    }
  }
  ctx->stats()->rows_scanned += end - begin;
}

// Minimum chunk size worth emitting as a borrowed view: below this the
// bookkeeping of cutting a single-chunk batch outweighs the saved copy.
constexpr uint64_t kMinViewRows = 256;

// Point every output column at the storage lanes for rows [begin, end):
// the zero-copy emission path for chunks proven fully-passing.
void MakeViews(const Table& table, const std::vector<int>& col_idx,
               uint64_t begin, uint64_t end, Batch* out) {
  size_t n = static_cast<size_t>(end - begin);
  for (size_t c = 0; c < col_idx.size(); ++c) {
    const Column& src = table.column(col_idx[c]);
    ColumnVector& v = out->columns[c];
    switch (src.type()) {
      case TypeId::kInt64:
        v.SetView(src.i64().data() + begin, n);
        break;
      case TypeId::kFloat64:
        v.SetView(src.f64().data() + begin, n);
        break;
      default:
        v.SetView(src.i32().data() + begin, n);
        break;
    }
  }
  out->num_rows = n;
}

// One zone-bounded chunk through the optional row filter (`apply_filter`
// false also covers chunks the zone maps proved fully-passing). Returns the
// number of physical rows appended and records selection state in `selb`.
size_t EmitChunk(const Table& table, const std::vector<int>& col_idx,
                 uint64_t begin, uint64_t end, bool apply_filter,
                 internal::ScanFilterState* filter, ExecContext* ctx,
                 Batch* out, SelBuilder* selb,
                 std::vector<uint32_t>* rel_scratch) {
  size_t base = out->physical_rows();
  size_t n = static_cast<size_t>(end - begin);
  ChargeSpan(table, col_idx, begin, end, ctx);
  if (!apply_filter || !filter->active()) {
    AppendRows(table, col_idx, begin, end, out);
    selb->AddDense(base, n);
    return n;
  }
  filter->EvalSpan(table, begin, end, ctx, rel_scratch);
  size_t k = rel_scratch->size();
  ctx->stats()->rows_filtered_at_scan += n - k;
  if (k == 0) return 0;  // nothing qualifies: no copy at all
  if (k == n) {
    AppendRows(table, col_idx, begin, end, out);
    selb->AddDense(base, n);
    return n;
  }
  double density = static_cast<double>(k) / static_cast<double>(n);
  if (density < ExecContext::kCompactDensity) {
    // Sparse: gather just the qualifying rows from storage.
    AppendSelectedRows(table, col_idx, begin, *rel_scratch, out);
    selb->AddDense(base, k);
    return k;
  }
  // Dense partial: bulk copy (memcpy-speed) and narrow with a selection.
  AppendRows(table, col_idx, begin, end, out);
  selb->AddPartial(base, *rel_scratch);
  return n;
}

// Zone-map verdict for `zone` of `table` under the pushed predicates.
enum class ZoneVerdict { kNone, kSome, kAll };

ZoneVerdict ZoneMatch(const Table& table, uint64_t zone,
                      const std::vector<std::pair<int, ValueRange>>& preds) {
  bool all = true;
  for (const auto& [col, range] : preds) {
    const ZoneMap& zm = table.zone_map(col);
    if (!zm.MayMatch(zone, range)) return ZoneVerdict::kNone;
    all = all && zm.AllMatch(zone, range);
  }
  return all ? ZoneVerdict::kAll : ZoneVerdict::kSome;
}

}  // namespace

SegmentScan::SegmentScan(const Table* table, std::vector<std::string> columns,
                         std::vector<ScanPredicate> zone_predicates)
    : SegmentScan(table, std::move(columns), std::move(zone_predicates),
                  {ScanSegment{table, 0, table->num_rows()}}) {}

SegmentScan::SegmentScan(const Table* table, std::vector<std::string> columns,
                         std::vector<ScanPredicate> zone_predicates,
                         std::vector<ScanSegment> segments,
                         uint64_t pruned_groups,
                         std::shared_ptr<const void> pin)
    : table_(table),
      col_names_(std::move(columns)),
      preds_(std::move(zone_predicates)),
      segments_(std::move(segments)),
      pruned_groups_(pruned_groups),
      pin_(std::move(pin)) {}

Status SegmentScan::Open(ExecContext* ctx) {
  seg_idx_ = 0;
  entered_ = false;
  bound_ = nullptr;
  zone_table_ = nullptr;
  filter_.ClearRecycled();
  ctx->stats()->groups_pruned += pruned_groups_;
  // A delta chunk counts once, however many of its slices are segments.
  std::vector<const Table*> chunks;
  for (const ScanSegment& s : segments_) {
    if (s.kind == ScanSegment::Kind::kDelta) chunks.push_back(s.table);
  }
  std::sort(chunks.begin(), chunks.end());
  ctx->stats()->delta_chunks +=
      std::unique(chunks.begin(), chunks.end()) - chunks.begin();
  if (row_filter_) {
    BDCC_RETURN_NOT_OK(filter_.Bind(*table_, preds_));
    bound_ = table_;
  }
  col_idx_.clear();
  bound_preds_.clear();
  std::vector<Field> fields;
  for (const std::string& name : col_names_) {
    BDCC_ASSIGN_OR_RETURN(int idx, table_->ColumnIndex(name));
    col_idx_.push_back(idx);
    fields.push_back(Field{name, table_->column(idx).type()});
  }
  for (const ScanPredicate& p : preds_) {
    BDCC_ASSIGN_OR_RETURN(int idx, table_->ColumnIndex(p.column));
    bound_preds_.push_back({idx, p.range});
  }
  schema_ = Schema(std::move(fields));
  return Status::OK();
}

Result<Batch> SegmentScan::Next(ExecContext* ctx) {
  // The batch draws dictionaries from, and is tagged with, the segment its
  // rows come from.
  const Table* src = table_;
  int64_t gid = -1;
  if (seg_idx_ < segments_.size()) {
    src = segments_[seg_idx_].table;
    gid = segments_[seg_idx_].group_id;
  }
  Batch out = filter_.TakeBatch(*src, col_idx_, schema_, ctx->batch_size());
  SelBuilder selb;
  std::vector<uint32_t> rel_scratch;
  size_t appended = 0;
  while (appended < ctx->batch_size() && seg_idx_ < segments_.size()) {
    BDCC_RETURN_NOT_OK(ctx->CheckLifecycle());
    const ScanSegment& seg = segments_[seg_idx_];
    if (!entered_) {
      // A batch never mixes tables or group ids.
      if (appended > 0 && (seg.table != src || seg.group_id != gid)) break;
      if (seg.table != src) {
        src = seg.table;
        internal::WireDicts(*src, col_idx_, &out);
      }
      gid = seg.group_id;
      if (row_filter_ && seg.table != bound_) {
        // String verdicts are per dictionary: re-bind for the new table.
        BDCC_RETURN_NOT_OK(filter_.Bind(*seg.table, preds_));
        bound_ = seg.table;
      }
      if (seg.kind == ScanSegment::Kind::kGroup) ctx->stats()->groups_read++;
      cursor_ = seg.row_begin;
      entered_ = true;
    }
    if (cursor_ >= seg.row_end) {
      ++seg_idx_;
      entered_ = false;
      continue;
    }
    const Table& table = *seg.table;
    uint64_t end =
        std::min(seg.row_end, cursor_ + (ctx->batch_size() - appended));
    bool zone_all_match = false;
    if (table.HasZoneMaps()) {
      uint64_t zone = cursor_ / table.zone_rows();
      uint64_t zone_end = (zone + 1) * table.zone_rows();
      bool entering = &table != zone_table_ || zone != zone_;
      zone_table_ = &table;
      zone_ = zone;
      ZoneVerdict verdict = ZoneMatch(table, zone, bound_preds_);
      if (verdict == ZoneVerdict::kNone) {
        // No row of the zone matches, so its rows in this segment can go
        // even when the segment covers only part of the zone.
        if (entering) ctx->stats()->zones_skipped += 1;
        cursor_ = std::min(zone_end, seg.row_end);
        continue;
      }
      if (entering) ctx->stats()->zones_read += 1;
      end = std::min(end, zone_end);
      zone_all_match = verdict == ZoneVerdict::kAll;
    }
    bool filtering = row_filter_ && filter_.active();
    // Zone maps proving every row passes short-circuit the chunk past
    // predicate evaluation (and any encoded-lane work) entirely.
    if (filtering && zone_all_match) ctx->stats()->decodes_skipped += 1;
    if (BDCC_UNLIKELY(fault::ShouldFail(fault::kScanDecode))) {
      ctx->stats()->faults_injected += 1;
      return Status::IOError("injected decode fault (scan chunk)");
    }
    if (seg.kind == ScanSegment::Kind::kDelta) {
      ctx->stats()->delta_rows_scanned += end - cursor_;
    }
    if (appended == 0 && end - cursor_ >= kMinViewRows &&
        (!filtering || zone_all_match)) {
      ChargeSpan(table, col_idx_, cursor_, end, ctx);
      MakeViews(table, col_idx_, cursor_, end, &out);
      ctx->stats()->chunks_zero_copy += 1;
      cursor_ = end;
      out.group_id = gid;
      return out;  // single-chunk borrowed batch
    }
    appended += EmitChunk(table, col_idx_, cursor_, end,
                          filtering && !zone_all_match, &filter_, ctx, &out,
                          &selb, &rel_scratch);
    cursor_ = end;
  }
  selb.Finish(&out);
  out.group_id = appended > 0 ? gid : -1;
  return out;  // empty == end-of-stream
}

}  // namespace exec
}  // namespace bdcc
