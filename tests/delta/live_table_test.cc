// LiveTable: epoch publication, snapshot pinning, merge-equals-rebuild
// (one pass and several), and failure atomicity.
#include "delta/live_table.h"

#include <memory>
#include <string>
#include <vector>

#include "bdcc/append.h"
#include "bdcc/small_groups.h"
#include "common/fault_injection.h"
#include "tests/delta/delta_fixture.h"

namespace bdcc {
namespace delta {
namespace {

class LiveTableTest : public DeltaFixture {
 protected:
  std::unique_ptr<LiveTable> MakeLive(bool local_use = false) {
    resolver_ = std::make_unique<Resolver>(&tables_, &catalog_);
    return LiveTable::Create(Build(tables_.at("F"), local_use),
                             resolver_.get())
        .ValueOrDie();
  }

  // Every cell equal (strings via materialized values, so independent
  // dictionaries with different code assignments still compare equal).
  static void ExpectTablesEqual(const Table& a, const Table& b) {
    ASSERT_EQ(a.num_rows(), b.num_rows());
    ASSERT_EQ(a.num_columns(), b.num_columns());
    for (int c = 0; c < static_cast<int>(a.num_columns()); ++c) {
      ASSERT_EQ(a.column_name(c), b.column_name(c));
      for (uint64_t r = 0; r < a.num_rows(); ++r) {
        ASSERT_EQ(a.column(c).GetValue(r).ToString(),
                  b.column(c).GetValue(r).ToString())
            << a.column_name(c) << " row " << r;
      }
    }
  }

  // Byte for byte on string columns: the same dictionary (size, payload
  // bytes, so the same first-occurrence code assignment) and the same code
  // lane.
  static void ExpectStringCodesEqual(const Table& a, const Table& b) {
    ASSERT_EQ(a.num_columns(), b.num_columns());
    for (int c = 0; c < static_cast<int>(a.num_columns()); ++c) {
      if (a.column(c).type() != TypeId::kString) continue;
      const Column& ca = a.column(c);
      const Column& cb = b.column(c);
      ASSERT_EQ(ca.dict()->size(), cb.dict()->size()) << a.column_name(c);
      EXPECT_EQ(ca.dict()->payload_bytes(), cb.dict()->payload_bytes())
          << a.column_name(c);
      EXPECT_EQ(ca.i32(), cb.i32()) << a.column_name(c);
    }
  }

  static void ExpectCountTablesEqual(const BdccTable& a, const BdccTable& b) {
    ASSERT_EQ(a.count_bits(), b.count_bits());
    const auto& ea = a.count_table().entries();
    const auto& eb = b.count_table().entries();
    ASSERT_EQ(ea.size(), eb.size());
    for (size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].key, eb[i].key);
      EXPECT_EQ(ea[i].count, eb[i].count);
      EXPECT_EQ(ea[i].row_begin, eb[i].row_begin);
    }
  }

  std::unique_ptr<Resolver> resolver_;
};

TEST_F(LiveTableTest, AppendPublishesNewEpochs) {
  auto live = MakeLive();
  EXPECT_EQ(live->epoch(), 1u);
  EXPECT_EQ(live->delta_rows(), 0u);

  EXPECT_EQ(live->Append(MakeRows(1, 300)).ValueOrDie(), 300u);
  EXPECT_EQ(live->epoch(), 2u);
  EXPECT_EQ(live->delta_rows(), 300u);

  EXPECT_EQ(live->Append(MakeRows(2, 200)).ValueOrDie(), 200u);
  EXPECT_EQ(live->epoch(), 3u);
  EXPECT_EQ(live->delta_rows(), 500u);

  // Empty appends publish nothing.
  EXPECT_EQ(live->Append(MakeRows(3, 0)).ValueOrDie(), 0u);
  EXPECT_EQ(live->epoch(), 3u);

  LiveTable::Stats stats = live->stats();
  EXPECT_EQ(stats.rows_appended, 500u);
  EXPECT_EQ(stats.chunks_appended, 2u);
  EXPECT_EQ(stats.delta_chunks, 2u);
  EXPECT_GT(stats.delta_bytes, 0u);
}

TEST_F(LiveTableTest, CreateRejectsConsolidatedBase) {
  BdccTable base = Build(tables_.at("F"));
  SelfTuneOptions tune;
  tune.efficient_access_bytes = 1 << 20;  // every group is "small"
  tune.min_group_fraction = 1.0;
  auto stats = ConsolidateSmallGroups(&base, tune).ValueOrDie();
  ASSERT_GT(stats.rows_copied, 0u);  // physical order != clustered order now
  Resolver resolver(&tables_, &catalog_);
  auto refused = LiveTable::Create(std::move(base), &resolver);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsInvalidArgument())
      << refused.status().ToString();
}

TEST_F(LiveTableTest, SnapshotsPinTheirEpoch) {
  auto live = MakeLive();
  ASSERT_TRUE(live->Append(MakeRows(1, 300)).ok());

  auto pinned = live->OpenSnapshot();
  EXPECT_EQ(pinned->epoch, 2u);
  ASSERT_EQ(pinned->chunks.size(), 1u);
  const BdccTable* pinned_base = pinned->base.get();
  const DeltaChunk* pinned_chunk = pinned->chunks[0].get();

  // Appends and merges publish new epochs; the pinned snapshot is frozen.
  ASSERT_TRUE(live->Append(MakeRows(2, 200)).ok());
  ASSERT_TRUE(live->Merge().ok());
  EXPECT_EQ(live->epoch(), 4u);
  EXPECT_EQ(live->delta_rows(), 0u);

  EXPECT_EQ(pinned->epoch, 2u);
  EXPECT_EQ(pinned->base.get(), pinned_base);
  ASSERT_EQ(pinned->chunks.size(), 1u);
  EXPECT_EQ(pinned->chunks[0].get(), pinned_chunk);
  EXPECT_EQ(pinned->chunks[0]->num_rows(), 300u);

  // The merged epoch got a *new* base version.
  auto fresh = live->OpenSnapshot();
  EXPECT_NE(fresh->base.get(), pinned_base);
  EXPECT_TRUE(fresh->chunks.empty());

  LiveTable::Stats stats = live->stats();
  EXPECT_EQ(stats.open_snapshots, 2u);

  // Epochs retire as their last reader closes (epochs 1 and 3 had no
  // readers and retired on publication).
  pinned.reset();
  fresh.reset();
  EXPECT_EQ(live->stats().open_snapshots, 0u);
  EXPECT_EQ(live->stats().epochs_retired, 3u);  // epochs 1, 2, 3
}

TEST_F(LiveTableTest, MergeEqualsSerialBulkAppend) {
  auto live = MakeLive();
  Table extra1 = MakeRows(7, 900);
  Table extra2 = MakeRows(8, 600);
  ASSERT_TRUE(live->Append(extra1).ok());
  ASSERT_TRUE(live->Append(extra2).ok());

  LiveTable::MergeStats merged = live->Merge().ValueOrDie();
  EXPECT_EQ(merged.rows_merged, 1500u);
  EXPECT_GT(merged.groups_merged, 0u);
  EXPECT_EQ(live->delta_rows(), 0u);

  BdccTable serial = Build(tables_.at("F"));
  Resolver resolver(&tables_, &catalog_);
  ASSERT_TRUE(AppendToBdccTable(&serial, extra1, resolver).ok());
  ASSERT_TRUE(AppendToBdccTable(&serial, extra2, resolver).ok());

  auto snap = live->OpenSnapshot();
  ExpectTablesEqual(snap->base->data(), serial.data());
  ExpectStringCodesEqual(snap->base->data(), serial.data());
  ExpectCountTablesEqual(*snap->base, serial);
}

TEST_F(LiveTableTest, MultiPassMergeEqualsSerialBulkAppend) {
  auto live = MakeLive();
  Table a = MakeRows(9, 700);
  Table b = MakeRows(10, 500);
  Table c = MakeRows(11, 400);
  ASSERT_TRUE(live->Append(a).ok());
  EXPECT_EQ(live->Merge().ValueOrDie().rows_merged, 700u);

  // The second pass merges into the first pass's base; both of its chunks
  // are consumed.
  ASSERT_TRUE(live->Append(b).ok());
  ASSERT_TRUE(live->Append(c).ok());
  EXPECT_EQ(live->Merge().ValueOrDie().rows_merged, 900u);
  EXPECT_EQ(live->delta_rows(), 0u);
  EXPECT_EQ(live->stats().merges_completed, 2u);

  // Incremental maintenance converges to one serial bulk append per batch.
  BdccTable serial = Build(tables_.at("F"));
  Resolver resolver(&tables_, &catalog_);
  ASSERT_TRUE(AppendToBdccTable(&serial, a, resolver).ok());
  ASSERT_TRUE(AppendToBdccTable(&serial, b, resolver).ok());
  ASSERT_TRUE(AppendToBdccTable(&serial, c, resolver).ok());
  auto snap = live->OpenSnapshot();
  EXPECT_TRUE(snap->chunks.empty());
  ExpectTablesEqual(snap->base->data(), serial.data());
  ExpectStringCodesEqual(snap->base->data(), serial.data());
  ExpectCountTablesEqual(*snap->base, serial);
}

TEST_F(LiveTableTest, LocalUseMergeEqualsSerialBulkAppendAndRebuild) {
  // D_LOCAL's path is empty: appended rows are binned from their own
  // f_local (the upper half of its domain; the stored rows hold the lower).
  auto live = MakeLive(/*local_use=*/true);
  Table a = MakeRows(12, 600);
  Table b = MakeRows(13, 400);
  ASSERT_TRUE(live->Append(a).ok());
  EXPECT_EQ(live->Merge().ValueOrDie().rows_merged, 600u);
  ASSERT_TRUE(live->Append(b).ok());
  EXPECT_EQ(live->Merge().ValueOrDie().rows_merged, 400u);

  BdccTable serial = Build(tables_.at("F"), /*local_use=*/true);
  Resolver resolver(&tables_, &catalog_);
  ASSERT_TRUE(AppendToBdccTable(&serial, a, resolver).ok());
  ASSERT_TRUE(AppendToBdccTable(&serial, b, resolver).ok());
  auto snap = live->OpenSnapshot();
  ExpectTablesEqual(snap->base->data(), serial.data());
  ExpectStringCodesEqual(snap->base->data(), serial.data());
  ExpectCountTablesEqual(*snap->base, serial);

  // A from-scratch build of every row orders them the same way (stored
  // rows first at equal keys, then a, then b).
  Table all = tables_.at("F").Clone();
  all.AppendRowsFrom(a, 0, a.num_rows());
  all.AppendRowsFrom(b, 0, b.num_rows());
  BdccTable rebuilt = Rebuild(all, /*local_use=*/true);
  ExpectTablesEqual(snap->base->data(), rebuilt.data());
}

TEST_F(LiveTableTest, FailedMergeLeavesPriorSnapshotIntact) {
  auto live = MakeLive();
  ASSERT_TRUE(live->Append(MakeRows(4, 400)).ok());
  uint64_t epoch_before = live->epoch();

  {
    fault::ScopedFaultInjection fault(/*seed=*/3, /*probability=*/1.0,
                                      fault::kDeltaMerge);
    auto failed = live->Merge();
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kInternal)
        << failed.status().ToString();
  }
  EXPECT_EQ(live->epoch(), epoch_before);
  EXPECT_EQ(live->delta_rows(), 400u);
  EXPECT_EQ(live->stats().merges_failed, 1u);
  EXPECT_EQ(live->stats().merges_completed, 0u);

  // Retry outside the fault scope succeeds on the same delta.
  LiveTable::MergeStats merged = live->Merge().ValueOrDie();
  EXPECT_EQ(merged.rows_merged, 400u);
  EXPECT_EQ(live->delta_rows(), 0u);
  EXPECT_EQ(live->stats().merges_completed, 1u);
}

TEST_F(LiveTableTest, CancelledMergePublishesNothing) {
  auto live = MakeLive();
  ASSERT_TRUE(live->Append(MakeRows(5, 400)).ok());
  uint64_t epoch_before = live->epoch();

  exec::ExecContext ctx(nullptr);
  ctx.control()->RequestCancel();
  auto cancelled = live->Merge(&ctx);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_TRUE(cancelled.status().IsCancelled())
      << cancelled.status().ToString();
  EXPECT_EQ(live->epoch(), epoch_before);
  EXPECT_EQ(live->delta_rows(), 400u);
}

TEST_F(LiveTableTest, AppendFaultAndBudgetLeaveStateUnchanged) {
  resolver_ = std::make_unique<Resolver>(&tables_, &catalog_);
  LiveTable::Options options;
  options.delta_memory_limit = 1;  // below any sealed chunk
  auto live =
      LiveTable::Create(Build(tables_.at("F")), resolver_.get(), options)
          .ValueOrDie();

  auto refused = live->Append(MakeRows(6, 100));
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsResourceExhausted());
  EXPECT_EQ(live->epoch(), 1u);
  EXPECT_EQ(live->delta_rows(), 0u);

  auto unlimited = MakeLive();
  {
    fault::ScopedFaultInjection fault(/*seed=*/13, /*probability=*/1.0,
                                      fault::kDeltaAppend);
    auto failed = unlimited->Append(MakeRows(6, 100));
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
  }
  EXPECT_EQ(unlimited->epoch(), 1u);
  EXPECT_EQ(unlimited->Append(MakeRows(6, 100)).ValueOrDie(), 100u);
}

}  // namespace
}  // namespace delta
}  // namespace bdcc
