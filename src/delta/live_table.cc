#include "delta/live_table.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/fault_injection.h"

namespace bdcc {
namespace delta {

namespace {

// One delta row awaiting merge: its full-granularity key plus its home in
// the pass's gather sources (1 + chunk index in the pinned snapshot, row
// inside the chunk).
struct DeltaRowRef {
  uint64_t key = 0;
  RowRef at;
};

// Zone-map granularity of chunks and merged bases: the base's, or
// AppendToBdccTable's default when the base has no zone maps.
uint32_t ZoneRowsOf(const Table& base_data) {
  return base_data.HasZoneMaps() ? base_data.zone_rows() : 1024;
}

}  // namespace

Result<std::unique_ptr<LiveTable>> LiveTable::Create(
    BdccTable base, const TableResolver* resolver, Options options) {
  BDCC_CHECK(resolver != nullptr);
  if (base.data().num_rows() != base.logical_rows()) {
    return Status::InvalidArgument(
        "live append after small-group consolidation is not supported; the "
        "merge walk needs physical row order == clustered order");
  }
  std::unique_ptr<LiveTable> live(new LiveTable());
  live->name_ = base.name();
  BDCC_ASSIGN_OR_RETURN(live->key_index_,
                        BdccKeyIndex::Build(base, *resolver));
  live->store_ = std::make_unique<DeltaStore>(ZoneRowsOf(base.data()),
                                              options.delta_memory_limit);
  auto snap = std::make_shared<TableSnapshot>();
  snap->epoch = 1;
  snap->base = std::make_shared<const BdccTable>(std::move(base));
  live->current_ = std::move(snap);
  return live;
}

LiveTable::~LiveTable() = default;

Result<uint64_t> LiveTable::Append(const Table& rows) {
  if (rows.num_rows() == 0) return 0;
  std::shared_ptr<const BdccTable> base;
  {
    std::lock_guard<std::mutex> lock(mu_);
    base = current_->base;
  }
  // Build (key + sort + gather + zone-map + bucket) outside the lock: keys
  // depend only on the table's uses and masks, which every base version
  // shares, and the key index is read-only.
  BDCC_ASSIGN_OR_RETURN(std::shared_ptr<const DeltaChunk> chunk,
                        store_->Append(*base, rows, key_index_));
  uint64_t appended = chunk->num_rows();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto next = std::make_shared<TableSnapshot>(*current_);
    next->epoch = current_->epoch + 1;
    next->chunks.push_back(std::move(chunk));
    next->delta_rows += appended;
    rows_appended_ += appended;
    ++chunks_appended_;
    PublishLocked(std::move(next));
  }
  std::function<void()> observer;
  {
    std::lock_guard<std::mutex> lock(observer_mu_);
    observer = observer_;
  }
  if (observer) observer();
  return appended;
}

std::shared_ptr<const TableSnapshot> LiveTable::OpenSnapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<const TableSnapshot> snap = current_;
  uint64_t epoch = snap->epoch;
  ++readers_[epoch];
  // Aliasing handle: shares ownership of the snapshot and, on destruction
  // (any thread), checks the reader out of the epoch registry.
  LiveTable* self = this;
  return std::shared_ptr<const TableSnapshot>(
      snap.get(), [self, snap, epoch](const TableSnapshot*) mutable {
        snap.reset();
        self->OnSnapshotReleased(epoch);
      });
}

Result<LiveTable::MergeStats> LiveTable::Merge(exec::ExecContext* ctx) {
  std::lock_guard<std::mutex> merge_lock(merge_mu_);

  std::shared_ptr<const TableSnapshot> snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap = current_;
  }
  if (snap->chunks.empty()) return MergeStats{snap->epoch, 0, 0};
  const BdccTable& base = *snap->base;
  const int bdcc_col = base.bdcc_column_index();

  // Bucket the delta by dirty group. Chunks are visited oldest-first and
  // rows ascending, so after the stable sort each group's rows sit in
  // (full key, chunk, row) order — exactly the order a serial bulk append's
  // stable sort would have given them.
  std::map<uint64_t, std::vector<DeltaRowRef>> dirty;
  for (uint32_t ci = 0; ci < snap->chunks.size(); ++ci) {
    const DeltaChunk& chunk = *snap->chunks[ci];
    const auto& lane = chunk.data().column(bdcc_col).i64();
    for (const GroupRange& slice : chunk.groups()) {
      std::vector<DeltaRowRef>& rows = dirty[slice.key];
      for (uint64_t r = slice.row_begin; r < slice.row_end; ++r) {
        rows.push_back(DeltaRowRef{static_cast<uint64_t>(lane[r]),
                                   RowRef{ci + 1, static_cast<uint32_t>(r)}});
      }
    }
  }
  for (auto& [key, rows] : dirty) {
    (void)key;
    std::stable_sort(rows.begin(), rows.end(),
                     [](const DeltaRowRef& a, const DeltaRowRef& b) {
                       return a.key < b.key;
                     });
  }

  // Record the merged order as (source, row) refs — source 0 is the base,
  // source 1 + i the pinned chunk i — by walking base groups ∪ dirty groups
  // in key order. Clean groups take their base span verbatim; dirty groups
  // two-pointer merge on full keys, base rows first at ties
  // (AppendToBdccTable's stable-sort puts new rows after old).
  const Table& base_data = base.data();
  const auto& base_keys = base_data.column(bdcc_col).i64();
  std::vector<RowRef> order;
  order.reserve(base_data.num_rows() + snap->delta_rows);
  auto take_base = [&](uint64_t row_begin, uint64_t row_end) {
    for (uint64_t r = row_begin; r < row_end; ++r) {
      order.push_back(RowRef{0, static_cast<uint32_t>(r)});
    }
  };

  MergeStats result;
  auto merge_group = [&](uint64_t row_begin, uint64_t row_end,
                         const std::vector<DeltaRowRef>& delta_rows)
      -> Status {
    if (ctx != nullptr) BDCC_RETURN_NOT_OK(ctx->CheckLifecycle());
    if (BDCC_UNLIKELY(fault::ShouldFail(fault::kDeltaMerge))) {
      if (ctx != nullptr) ++ctx->stats()->faults_injected;
      return Status::Internal("injected merge fault (dirty group rewrite)");
    }
    uint64_t i = row_begin;
    size_t j = 0;
    while (i < row_end || j < delta_rows.size()) {
      // Run of base rows with keys <= the next delta key.
      uint64_t run_begin = i;
      while (i < row_end && (j == delta_rows.size() ||
                             static_cast<uint64_t>(base_keys[i]) <=
                                 delta_rows[j].key)) {
        ++i;
      }
      take_base(run_begin, i);
      while (j < delta_rows.size() &&
             (i == row_end ||
              delta_rows[j].key < static_cast<uint64_t>(base_keys[i]))) {
        order.push_back(delta_rows[j++].at);
      }
    }
    result.rows_merged += delta_rows.size();
    ++result.groups_merged;
    return Status::OK();
  };

  auto run = [&]() -> Status {
    const auto& entries = base.count_table().entries();
    size_t ei = 0;
    auto dit = dirty.begin();
    while (ei < entries.size() || dit != dirty.end()) {
      if (dit == dirty.end() ||
          (ei < entries.size() && entries[ei].key < dit->first)) {
        const CountEntry& e = entries[ei++];  // clean group
        take_base(e.row_begin, e.row_begin + e.count);
        continue;
      }
      uint64_t row_begin = 0;
      uint64_t row_end = 0;
      if (ei < entries.size() && entries[ei].key == dit->first) {
        row_begin = entries[ei].row_begin;
        row_end = row_begin + entries[ei].count;
        ++ei;
      }
      BDCC_RETURN_NOT_OK(merge_group(row_begin, row_end, dit->second));
      ++dit;
    }
    return Status::OK();
  };
  Status pass = run();
  if (!pass.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++merges_failed_;
    return pass;
  }

  // Fill every column in one typed loop over the order, with fresh
  // dictionaries (live readers keep decoding the old version's).
  std::vector<const Table*> sources = {&base_data};
  for (const auto& chunk : snap->chunks) sources.push_back(&chunk->data());
  Table merged = Table::Gather(sources, order);
  const auto& merged_keys = merged.column(bdcc_col).i64();
  std::vector<uint64_t> sorted_keys(merged_keys.size());
  for (size_t r = 0; r < merged_keys.size(); ++r) {
    sorted_keys[r] = static_cast<uint64_t>(merged_keys[r]);
  }
  merged.BuildZoneMaps(ZoneRowsOf(base_data));
  if (base_data.HasEncodedLanes()) merged.BuildEncodedLanes();
  if (base_data.HasIoHandles()) {
    merged.RegisterWithBufferPool(base_data.buffer_pool());
  }
  CountTable counts =
      CountTable::Build(sorted_keys, base.full_bits(), base.count_bits());
  auto new_base = std::make_shared<const BdccTable>(
      base.WithData(std::move(merged), std::move(counts)));

  // Publish: the new base plus the chunks appended since this pass pinned
  // its snapshot. Appends only push_back and merge_mu_ serializes passes,
  // so the pinned chunks are a prefix of the current list.
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto& chunks = current_->chunks;
    const size_t consumed = snap->chunks.size();
    BDCC_CHECK(chunks.size() >= consumed);
    for (size_t i = 0; i < consumed; ++i) {
      BDCC_CHECK(chunks[i] == snap->chunks[i]);
    }
    auto next = std::make_shared<TableSnapshot>();
    next->epoch = current_->epoch + 1;
    next->base = std::move(new_base);
    next->chunks.assign(chunks.begin() + consumed, chunks.end());
    next->delta_rows = current_->delta_rows - snap->delta_rows;
    result.epoch = next->epoch;
    PublishLocked(std::move(next));
    ++merges_completed_;
    rows_merged_ += result.rows_merged;
  }
  return result;
}

uint64_t LiveTable::delta_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_->delta_rows;
}

uint64_t LiveTable::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_->epoch;
}

LiveTable::Stats LiveTable::stats() const {
  Stats out;
  std::lock_guard<std::mutex> lock(mu_);
  out.epoch = current_->epoch;
  out.rows_appended = rows_appended_;
  out.chunks_appended = chunks_appended_;
  out.delta_rows = current_->delta_rows;
  out.delta_chunks = current_->chunks.size();
  out.delta_bytes = store_->memory()->current_bytes();
  out.merges_completed = merges_completed_;
  out.merges_failed = merges_failed_;
  out.rows_merged = rows_merged_;
  out.epochs_retired = epochs_retired_;
  for (const auto& [epoch, count] : readers_) out.open_snapshots += count;
  return out;
}

void LiveTable::SetAppendObserver(std::function<void()> observer) {
  std::lock_guard<std::mutex> lock(observer_mu_);
  observer_ = std::move(observer);
}

void LiveTable::PublishLocked(std::shared_ptr<const TableSnapshot> next) {
  uint64_t old_epoch = current_->epoch;
  current_ = std::move(next);
  auto it = readers_.find(old_epoch);
  if (it == readers_.end()) {
    ++epochs_retired_;  // superseded with no readers left (or ever)
  }
}

void LiveTable::OnSnapshotReleased(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = readers_.find(epoch);
  BDCC_CHECK(it != readers_.end() && it->second > 0);
  if (--it->second == 0) {
    readers_.erase(it);
    if (epoch != current_->epoch) ++epochs_retired_;
  }
}

}  // namespace delta
}  // namespace bdcc
