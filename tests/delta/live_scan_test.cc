// Snapshot-consistent scans over a live table: the clustered segments plus
// the delta chunk segments must return exactly the rows of the pinned
// snapshot — equal to a merged table's scan, under sarg filtering (including
// per-chunk string dictionaries), never mixing two tables in one batch, and
// under concurrent append/merge/scan (the TSan suite).
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bdcc/scatter_scan.h"
#include "common/task_scheduler.h"
#include "delta/delta_merger.h"
#include "delta/live_table.h"
#include "exec/scan.h"
#include "opt/planner.h"
#include "tests/delta/delta_fixture.h"
#include "tests/test_util.h"

namespace bdcc {
namespace delta {
namespace {

// Passes a scan's batches through and fails any whose rows do not all come
// from the table whose dictionary the batch's tag column carries.
class SourceCheck : public exec::Operator {
 public:
  SourceCheck(exec::Operator* scan,
              std::map<int64_t, const Dictionary*> dict_of)
      : scan_(scan), dict_of_(std::move(dict_of)) {}

  const exec::Schema& schema() const override { return scan_->schema(); }
  Status Open(exec::ExecContext* ctx) override { return scan_->Open(ctx); }
  Result<exec::Batch> Next(exec::ExecContext* ctx) override {
    BDCC_ASSIGN_OR_RETURN(exec::Batch b, scan_->Next(ctx));
    for (size_t i = 0; i < b.num_rows; ++i) {
      int64_t payload = b.columns[1].i64_data()[b.RowAt(i)];
      if (dict_of_.at(payload) != b.columns[2].dict.get()) {
        return Status::Internal("batch mixes segment tables");
      }
    }
    return b;
  }
  void Close(exec::ExecContext* ctx) override { scan_->Close(ctx); }
  void Recycle(exec::Batch&& b) override { scan_->Recycle(std::move(b)); }

 private:
  exec::Operator* scan_;
  std::map<int64_t, const Dictionary*> dict_of_;
};

class LiveScanTest : public DeltaFixture {
 protected:
  std::unique_ptr<LiveTable> MakeLive() {
    resolver_ = std::make_unique<Resolver>(&tables_, &catalog_);
    return LiveTable::Create(Build(tables_.at("F")), resolver_.get())
        .ValueOrDie();
  }

  // Scan a pinned snapshot: clustered ranges of its base version, then one
  // segment per delta chunk. Fails when a batch mixes rows of two segment
  // tables (delta chunks carry private dictionaries).
  static Result<exec::Batch> ScanSnapshot(
      std::shared_ptr<const TableSnapshot> snap,
      std::vector<exec::ScanPredicate> preds, bool row_filter,
      exec::ExecContext* ctx) {
    std::vector<exec::ScanSegment> segments =
        opt::GroupSegments(*snap->base, PlanNaturalScan(*snap->base));
    for (const exec::ScanSegment& s : opt::DeltaSegments(*snap)) {
      segments.push_back(s);
    }
    // Payloads are unique per row: map each to its table's tag dictionary.
    std::map<int64_t, const Dictionary*> dict_of;
    for (const exec::ScanSegment& s : segments) {
      const Table& t = *s.table;
      const Column& payload = t.column(t.ColumnIndex("f_payload").value());
      const Dictionary* dict =
          t.column(t.ColumnIndex("f_tag").value()).dict().get();
      for (uint64_t r = s.row_begin; r < s.row_end; ++r) {
        dict_of[payload.i64()[r]] = dict;
      }
    }
    exec::SegmentScan scan(&snap->base->data(),
                           {"f_d", "f_payload", "f_tag"}, std::move(preds),
                           std::move(segments), 0, snap);
    scan.EnableRowFilter(row_filter);
    SourceCheck check(&scan, std::move(dict_of));
    return exec::CollectAll(&check, ctx);
  }

  std::unique_ptr<Resolver> resolver_;
};

TEST_F(LiveScanTest, LiveScanEqualsMergedScan) {
  auto live = MakeLive();
  ASSERT_TRUE(live->Append(MakeRows(1, 700)).ok());
  ASSERT_TRUE(live->Append(MakeRows(2, 500)).ok());

  exec::ExecContext live_ctx(nullptr);
  auto snap = live->OpenSnapshot();
  exec::Batch with_delta =
      ScanSnapshot(snap, {}, /*row_filter=*/false, &live_ctx).ValueOrDie();
  EXPECT_EQ(with_delta.num_rows, 5000u + 1200u);
  EXPECT_EQ(live_ctx.stats()->delta_rows_scanned, 1200u);
  EXPECT_EQ(live_ctx.stats()->delta_chunks, 2u);

  ASSERT_TRUE(live->Merge().ok());
  exec::ExecContext merged_ctx(nullptr);
  exec::Batch merged =
      ScanSnapshot(live->OpenSnapshot(), {}, false, &merged_ctx).ValueOrDie();
  EXPECT_EQ(merged_ctx.stats()->delta_rows_scanned, 0u);
  testutil::ExpectBatchesEqual(with_delta, merged, "live-vs-merged ");
}

TEST_F(LiveScanTest, SargFilteringCoversBothLegs) {
  auto live = MakeLive();
  ASSERT_TRUE(live->Append(MakeRows(1, 700)).ok());
  ASSERT_TRUE(live->Append(MakeRows(2, 500)).ok());

  // Numeric range on the clustered dimension column plus a string range
  // that must be re-resolved against every chunk's own dictionary.
  std::vector<exec::ScanPredicate> preds = {
      {"f_d", ValueRange{Value::Int32(10), Value::Int32(20)}},
      {"f_tag", ValueRange{Value::String("tag_0_0"), Value::String("tag_1_3")}},
  };

  exec::ExecContext live_ctx(nullptr);
  exec::Batch with_delta =
      ScanSnapshot(live->OpenSnapshot(), preds, /*row_filter=*/true, &live_ctx)
          .ValueOrDie();

  ASSERT_TRUE(live->Merge().ok());
  exec::ExecContext merged_ctx(nullptr);
  exec::Batch merged =
      ScanSnapshot(live->OpenSnapshot(), preds, true, &merged_ctx)
          .ValueOrDie();
  ASSERT_GT(merged.num_rows, 0u);
  testutil::ExpectBatchesEqual(with_delta, merged, "filtered live-vs-merged ");
}

TEST_F(LiveScanTest, PinnedSnapshotScansAreRepeatableAcrossMutation) {
  auto live = MakeLive();
  ASSERT_TRUE(live->Append(MakeRows(1, 700)).ok());
  auto snap = live->OpenSnapshot();

  exec::ExecContext ctx1(nullptr);
  exec::Batch before = ScanSnapshot(snap, {}, false, &ctx1).ValueOrDie();

  // Concurrent-world mutations: more appends, then a merge.
  ASSERT_TRUE(live->Append(MakeRows(2, 600)).ok());
  ASSERT_TRUE(live->Merge().ok());

  exec::ExecContext ctx2(nullptr);
  exec::Batch after = ScanSnapshot(snap, {}, false, &ctx2).ValueOrDie();
  EXPECT_EQ(before.num_rows, 5700u);
  testutil::ExpectBatchesEqual(before, after, "pinned snapshot repeat ");
}

// The TSan anchor: concurrent appenders, a background merger, and scanning
// readers. Every scan must see exactly its snapshot's rows (base logical
// rows + delta rows) with the payload sum matching a direct read of the
// snapshot's own tables.
TEST_F(LiveScanTest, DeltaConcurrencyAppendMergeScan) {
  auto live = MakeLive();
  common::TaskScheduler scheduler(2);
  DeltaMerger::Options merge_options;
  merge_options.trigger_rows = 400;
  merge_options.max_groups_per_pass = 8;
  DeltaMerger merger(live.get(), &scheduler, merge_options);

  constexpr int kWriters = 2;
  constexpr int kBatchesPerWriter = 6;
  constexpr int kBatchRows = 250;
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int b = 0; b < kBatchesPerWriter; ++b) {
        auto appended =
            live->Append(MakeRows(1 + w * kBatchesPerWriter + b, kBatchRows));
        if (!appended.ok()) failed.store(true);
        std::this_thread::yield();
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < 12; ++i) {
        auto snap = live->OpenSnapshot();
        exec::ExecContext ctx(nullptr);
        auto scanned = ScanSnapshot(snap, {}, false, &ctx);
        if (!scanned.ok()) {
          failed.store(true);
          return;
        }
        // Row count: exactly the snapshot's split.
        uint64_t expect_rows = snap->base->logical_rows() + snap->delta_rows;
        if (scanned.value().num_rows != expect_rows) failed.store(true);
        // Payload sum: scan vs direct reads of the pinned tables.
        int64_t direct = 0, from_scan = 0;
        const Table& base_data = snap->base->data();
        int payload_col = -1;
        for (int c = 0; c < static_cast<int>(base_data.num_columns()); ++c) {
          if (base_data.column_name(c) == "f_payload") payload_col = c;
        }
        for (uint64_t row = 0; row < snap->base->logical_rows(); ++row) {
          direct += base_data.column(payload_col).i64()[row];
        }
        for (const auto& chunk : snap->chunks) {
          for (int64_t v : chunk->data().column(payload_col).i64()) {
            direct += v;
          }
        }
        const exec::Batch& batch = scanned.value();
        for (size_t row = 0; row < batch.num_rows; ++row) {
          from_scan += batch.columns[1].i64_data()[batch.RowAt(row)];
        }
        if (direct != from_scan) failed.store(true);
        std::this_thread::yield();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_FALSE(failed.load());

  merger.Drain();
  merger.Stop();
  EXPECT_TRUE(merger.last_error().ok()) << merger.last_error().ToString();

  // Everything landed: one final merge pass (the merger stops at its
  // trigger) and a full scan.
  ASSERT_TRUE(live->Merge().ok());
  exec::ExecContext ctx(nullptr);
  exec::Batch final_scan =
      ScanSnapshot(live->OpenSnapshot(), {}, false, &ctx).ValueOrDie();
  EXPECT_EQ(final_scan.num_rows,
            5000u + uint64_t{kWriters} * kBatchesPerWriter * kBatchRows);
  EXPECT_EQ(ctx.stats()->delta_rows_scanned, 0u);
}

}  // namespace
}  // namespace delta
}  // namespace bdcc
