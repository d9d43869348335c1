// Snapshot-consistent scans over a live table: the clustered group ranges
// plus the delta chunks' group slices must return exactly the rows of the
// pinned snapshot — equal to a merged table's scan, ungrouped and grouped,
// under sarg filtering (including per-chunk string dictionaries), never
// mixing two tables in one batch, and under concurrent append/merge/scan
// (the TSan suite).
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bdcc/scatter_scan.h"
#include "common/bits.h"
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
// from the table whose dictionary the batch's tag column carries, or whose
// group id is below an earlier batch's.
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
    if (!b.empty()) {
      if (b.group_id < last_gid_) {
        return Status::Internal("group ids descend");
      }
      last_gid_ = b.group_id;
    }
    return b;
  }
  void Close(exec::ExecContext* ctx) override { scan_->Close(ctx); }
  void Recycle(exec::Batch&& b) override { scan_->Recycle(std::move(b)); }

 private:
  exec::Operator* scan_;
  std::map<int64_t, const Dictionary*> dict_of_;
  int64_t last_gid_ = -1;
};

class LiveScanTest : public DeltaFixture {
 protected:
  std::unique_ptr<LiveTable> MakeLive() {
    resolver_ = std::make_unique<Resolver>(&tables_, &catalog_);
    return LiveTable::Create(Build(tables_.at("F")), resolver_.get())
        .ValueOrDie();
  }

  // Grouping on the fixture's one dimension at its full reduced width.
  static std::vector<GroupSpec> ByDimension(const BdccTable& base) {
    return {{0, bits::Ones(base.ReducedMask(0))}};
  }

  // Scan a pinned snapshot: the group ranges of its base version and the
  // group slices of its delta chunks, ordered by `grouping`'s ids (none:
  // the base, then each chunk). Fails when a batch mixes rows of two
  // segment tables (delta chunks carry private dictionaries) or group ids
  // descend.
  static Result<exec::Batch> ScanSnapshot(
      std::shared_ptr<const TableSnapshot> snap,
      std::vector<exec::ScanPredicate> preds, bool row_filter,
      exec::ExecContext* ctx, const std::vector<GroupSpec>& grouping = {}) {
    const BdccTable& base = *snap->base;
    std::vector<opt::TableRanges> parts{{&base.data(), PlanNaturalScan(base)}};
    for (const auto& chunk : snap->chunks) {
      parts.push_back({&chunk->data(), chunk->groups()});
    }
    return ScanSegments(snap, opt::GroupSegments(base, parts, grouping),
                        std::move(preds), row_filter, ctx);
  }

  static Result<exec::Batch> ScanSegments(
      std::shared_ptr<const TableSnapshot> snap,
      std::vector<exec::ScanSegment> segments,
      std::vector<exec::ScanPredicate> preds, bool row_filter,
      exec::ExecContext* ctx) {
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

  auto snap = live->OpenSnapshot();
  const std::vector<GroupSpec> grouped = ByDimension(*snap->base);
  std::vector<exec::Batch> with_delta;
  for (const std::vector<GroupSpec>& grouping : {std::vector<GroupSpec>{},
                                                  grouped}) {
    // Grouped, each chunk's slices interleave with the base's ranges, yet
    // every chunk counts once.
    exec::ExecContext live_ctx(nullptr);
    with_delta.push_back(ScanSnapshot(snap, {}, /*row_filter=*/false,
                                      &live_ctx, grouping)
                             .ValueOrDie());
    EXPECT_EQ(with_delta.back().num_rows, 5000u + 1200u);
    EXPECT_EQ(live_ctx.stats()->delta_rows_scanned, 1200u);
    EXPECT_EQ(live_ctx.stats()->delta_chunks, 2u);
  }

  ASSERT_TRUE(live->Merge().ok());
  exec::ExecContext merged_ctx(nullptr);
  exec::Batch merged =
      ScanSnapshot(live->OpenSnapshot(), {}, false, &merged_ctx).ValueOrDie();
  EXPECT_EQ(merged_ctx.stats()->delta_rows_scanned, 0u);
  testutil::ExpectBatchesEqual(with_delta[0], merged, "live-vs-merged ");
  testutil::ExpectBatchesEqual(with_delta[1], merged,
                               "grouped live-vs-merged ");
}

// A base range ending at row N and a delta slice starting at row N under
// one group id are two segments: fusing them would read base rows in place
// of the delta's.
TEST_F(LiveScanTest, CoalescingKeepsBaseAndDeltaRangesApart) {
  auto live = MakeLive();
  ASSERT_TRUE(live->Append(MakeRows(1, 700)).ok());
  auto snap = live->OpenSnapshot();
  const BdccTable& base = *snap->base;
  const DeltaChunk& chunk = *snap->chunks.at(0);
  const GroupRange first = PlanNaturalScan(base).at(0);
  const uint64_t n = first.row_end;
  ASSERT_LE(n + 10, chunk.num_rows());
  std::vector<exec::ScanSegment> segments = opt::GroupSegments(
      base,
      {{&base.data(), {first}},
       {&chunk.data(), {GroupRange{first.key, n, n + 10}}}},
      ByDimension(base));
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0].table, &base.data());
  EXPECT_EQ(segments[1].table, &chunk.data());
  EXPECT_EQ(segments[0].group_id, segments[1].group_id);

  exec::ExecContext ctx(nullptr);
  exec::Batch got =
      ScanSegments(snap, segments, {}, false, &ctx).ValueOrDie();
  std::multiset<int64_t> expect;
  const int payload = base.data().ColumnIndex("f_payload").value();
  for (uint64_t r = first.row_begin; r < n; ++r) {
    expect.insert(base.data().column(payload).i64()[r]);
  }
  for (uint64_t r = n; r < n + 10; ++r) {
    expect.insert(chunk.data().column(payload).i64()[r]);
  }
  std::multiset<int64_t> payloads;
  for (size_t i = 0; i < got.num_rows; ++i) {
    payloads.insert(got.columns[1].i64_data()[got.RowAt(i)]);
  }
  EXPECT_EQ(payloads, expect);
  EXPECT_EQ(ctx.stats()->delta_rows_scanned, 10u);
  EXPECT_EQ(ctx.stats()->delta_chunks, 1u);
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

  auto snap = live->OpenSnapshot();
  exec::ExecContext live_ctx(nullptr);
  exec::Batch with_delta =
      ScanSnapshot(snap, preds, /*row_filter=*/true, &live_ctx).ValueOrDie();
  // Grouped, the scan alternates between the base and the chunks, so the
  // string range is re-bound at nearly every segment.
  exec::ExecContext grouped_ctx(nullptr);
  exec::Batch grouped = ScanSnapshot(snap, preds, true, &grouped_ctx,
                                     ByDimension(*snap->base))
                            .ValueOrDie();

  ASSERT_TRUE(live->Merge().ok());
  exec::ExecContext merged_ctx(nullptr);
  exec::Batch merged =
      ScanSnapshot(live->OpenSnapshot(), preds, true, &merged_ctx)
          .ValueOrDie();
  ASSERT_GT(merged.num_rows, 0u);
  testutil::ExpectBatchesEqual(with_delta, merged, "filtered live-vs-merged ");
  testutil::ExpectBatchesEqual(grouped, merged,
                               "grouped filtered live-vs-merged ");
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

// Stop() racing an in-flight pass: the pass either publishes or unwinds
// cancelled with nothing published, and the table stays whole either way.
TEST_F(LiveScanTest, DeltaConcurrencyStopDuringPass) {
  common::TaskScheduler scheduler(1);
  DeltaMerger::Options merge_options;
  merge_options.trigger_rows = 1;
  for (int round = 0; round < 6; ++round) {
    auto live = MakeLive();
    uint64_t appended = 0;
    {
      DeltaMerger merger(live.get(), &scheduler, merge_options);
      for (int b = 0; b < 3; ++b) {
        appended += live->Append(MakeRows(round * 10 + b, 400)).ValueOrDie();
      }
      merger.Stop();
      Status last = merger.last_error();
      EXPECT_TRUE(last.ok() || last.IsCancelled()) << last.ToString();
    }
    auto snap = live->OpenSnapshot();
    EXPECT_EQ(snap->base->logical_rows() + snap->delta_rows, 5000 + appended);
    snap.reset();
    ASSERT_TRUE(live->Merge().ok());
    exec::ExecContext ctx(nullptr);
    exec::Batch scanned =
        ScanSnapshot(live->OpenSnapshot(), {}, false, &ctx).ValueOrDie();
    EXPECT_EQ(scanned.num_rows, 5000 + appended) << "round " << round;
  }
}

}  // namespace
}  // namespace delta
}  // namespace bdcc
