// TPC-H over a live (appending) lineitem: all 22 queries run through a
// SnapshotDb overlay whose lineitem is a LiveTable rebuilt from a row
// subset, with the remainder appended as delta. Results must match the
// reference answer (tests/reference_eval.h over the plain tables, which
// hold the same rows) at every base/delta split and thread count, and
// again after the merge drains the delta. The delta chunks' group slices
// are ordinary grouped scan segments, so the live plans keep the clustered
// plan shape: Q12 stays a sandwich join, and Q3's date pushdown prunes the
// delta's slices as well as the base's groups.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "delta/live_table.h"
#include "delta/snapshot_db.h"
#include "gtest/gtest.h"
#include "tests/reference_eval.h"
#include "tests/test_util.h"
#include "tpch/tpch_db.h"
#include "tpch/tpch_queries.h"

namespace bdcc {
namespace tpch {
namespace {

// Resolver over the plain scheme's source rows plus the catalog's FKs
// (dimension-path lookups for key computation during rebuild and append).
class PlainResolver : public TableResolver {
 public:
  explicit PlainResolver(const TpchDb* db) : db_(db) {}
  Result<const Table*> GetTable(const std::string& name) const override {
    const Table* t = db_->plain().storage(name);
    if (t == nullptr) return Status::NotFound(name);
    return t;
  }
  Result<const catalog::ForeignKey*> GetForeignKey(
      const std::string& id) const override {
    return db_->schema_catalog().GetForeignKey(id);
  }

 private:
  const TpchDb* db_;
};

class TpchDeltaScanTest : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    TpchDbOptions options;
    options.scale_factor = 0.005;
    options.seed = 7;
    options.build_pk = false;
    db_ = TpchDb::Create(options).ValueOrDie();
    resolver_ = std::make_unique<PlainResolver>(db_.get());
    QueryContext ctx;
    ctx.scale_factor = options.scale_factor;
    ctx.run_plan = testutil::ReferenceRunner(db_->plain());
    for (int q = 1; q <= kNumTpchQueries; ++q) {
      reference_[q] = RunTpchQuery(q, ctx).ValueOrDie();
    }
  }
  static void TearDownTestSuite() {
    reference_.clear();
    resolver_.reset();
    db_.reset();
  }

  // Rebuild lineitem's BDCC table from its first `base_rows` source rows
  // (same dimension uses and build options as the designed table).
  static BdccTable RebuildLineitemBase(uint64_t base_rows) {
    const Table* full = db_->plain().storage("LINEITEM");
    Table subset(full->name());
    for (int c = 0; c < static_cast<int>(full->num_columns()); ++c) {
      subset.AddColumn(full->column_name(c), Column(full->column(c).type()))
          .AbortIfNotOK();
    }
    subset.AppendRowsFrom(*full, 0, base_rows);
    BdccBuildOptions build = db_->options().advisor.build;
    build.zone_rows = db_->options().zone_rows;
    return BuildBdccTable(std::move(subset),
                          db_->bdcc_tables().at("LINEITEM").uses(), *resolver_,
                          build)
        .ValueOrDie();
  }

  // Rows [begin, end) of the plain lineitem as an append batch.
  static Table SliceLineitem(uint64_t begin, uint64_t end) {
    const Table* full = db_->plain().storage("LINEITEM");
    Table slice(full->name());
    for (int c = 0; c < static_cast<int>(full->num_columns()); ++c) {
      slice.AddColumn(full->column_name(c), Column(full->column(c).type()))
          .AbortIfNotOK();
    }
    slice.AppendRowsFrom(*full, begin, end);
    return slice;
  }

  static Result<exec::Batch> Run(int q, const opt::PhysicalDb* db,
                                 int num_threads, exec::ExecContext* exec_ctx,
                                 std::vector<std::string>* notes = nullptr) {
    QueryContext ctx;
    ctx.db = db;
    ctx.exec = exec_ctx;
    ctx.notes = notes;
    ctx.scale_factor = db_->options().scale_factor;
    ctx.planner.num_threads = num_threads;
    return RunTpchQuery(q, ctx);
  }

  static bool HasNote(const std::vector<std::string>& notes,
                      const std::string& needle) {
    return std::any_of(notes.begin(), notes.end(), [&](const std::string& n) {
      return n.find(needle) != std::string::npos;
    });
  }

  static std::unique_ptr<TpchDb> db_;
  static std::unique_ptr<PlainResolver> resolver_;
  // Every query's reference answer.
  static std::map<int, exec::Batch> reference_;
};

std::unique_ptr<TpchDb> TpchDeltaScanTest::db_;
std::unique_ptr<PlainResolver> TpchDeltaScanTest::resolver_;
std::map<int, exec::Batch> TpchDeltaScanTest::reference_;

// Param: delta percentage of lineitem rows (0, 10, 50).
TEST_P(TpchDeltaScanTest, AllQueriesKeepGroupedPlansAndAgreeAcrossMerge) {
  const int delta_pct = GetParam();
  const uint64_t total = db_->plain().storage("LINEITEM")->num_rows();
  const uint64_t base_rows = total - total * delta_pct / 100;

  auto live =
      delta::LiveTable::Create(RebuildLineitemBase(base_rows), resolver_.get())
          .ValueOrDie();
  // Append the remainder in three batches (multiple chunks, multiple
  // epochs), mirroring a steady trickle of inserts.
  if (base_rows < total) {
    uint64_t at = base_rows, step = (total - base_rows + 2) / 3;
    while (at < total) {
      uint64_t end = std::min(total, at + step);
      ASSERT_EQ(live->Append(SliceLineitem(at, end)).ValueOrDie(), end - at);
      at = end;
    }
  }

  delta::SnapshotDb overlay(&db_->bdcc());
  overlay.AddLiveTable(live.get());
  const uint64_t delta_rows = overlay.snapshot("LINEITEM")->delta_rows;
  ASSERT_EQ(delta_rows, total - base_rows);

  for (int q = 1; q <= kNumTpchQueries; ++q) {
    std::string label =
        "Q" + std::to_string(q) + " delta=" + std::to_string(delta_pct) + "% ";
    for (int threads : {1, 4}) {
      std::string run = label + "threads=" + std::to_string(threads) + " ";
      exec::ExecContext exec_ctx(nullptr);
      std::vector<std::string> notes;
      auto result = Run(q, &overlay, threads, &exec_ctx, &notes);
      ASSERT_TRUE(result.ok()) << run << result.status().ToString();
      testutil::ExpectBatchesEqual(reference_.at(q), result.value(),
                                   run + "live ");
      const exec::ExecStats& stats = *exec_ctx.stats();
      if (delta_pct == 0) {
        EXPECT_EQ(stats.delta_rows_scanned, 0u) << run;
        continue;
      }
      if (q == 1 || q == 6) {
        // Unpruned lineitem scans: the delta really ran (merged across
        // parallel clones).
        EXPECT_GT(stats.delta_rows_scanned, 0u) << run;
        EXPECT_GT(stats.delta_chunks, 0u) << run;
      }
      if (q == 12) {
        EXPECT_TRUE(HasNote(notes, "sandwich join LINEITEM⋈ORDERS")) << run;
      }
      if (q == 3) {
        EXPECT_TRUE(HasNote(notes, "pushdown: LINEITEM groups via D_DATE"))
            << run;
        EXPECT_GT(stats.delta_rows_scanned, 0u) << run;
        EXPECT_LT(stats.delta_rows_scanned, delta_rows) << run;
      }
    }
  }

  // Drain the delta; the overlay re-pins, and results still agree.
  ASSERT_TRUE(live->Merge().ok());
  overlay.Refresh();
  for (int q = 1; q <= kNumTpchQueries; ++q) {
    std::string label =
        "Q" + std::to_string(q) + " delta=" + std::to_string(delta_pct) + "% ";
    exec::ExecContext exec_ctx(nullptr);
    auto merged = Run(q, &overlay, /*num_threads=*/1, &exec_ctx);
    ASSERT_TRUE(merged.ok()) << label << merged.status().ToString();
    testutil::ExpectBatchesEqual(reference_.at(q), merged.value(),
                                 label + "post-merge ");
    EXPECT_EQ(exec_ctx.stats()->delta_rows_scanned, 0u) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(Splits, TpchDeltaScanTest,
                         ::testing::Values(0, 10, 50),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "delta" + std::to_string(info.param) + "pct";
                         });

}  // namespace
}  // namespace tpch
}  // namespace bdcc
