// Query lifecycle at the operator level: QueryControl semantics,
// budget-enforced memory growth (ResourceExhausted naming the operator,
// state released on unwind, rerunnable afterwards), and cancellation/error
// propagation through the parallel operators (the ParallelLifecycleTest
// suite runs under TSan in CI).
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/task_scheduler.h"
#include "exec/hash_agg.h"
#include "exec/hash_join.h"
#include "exec/morsel.h"
#include "exec/parallel.h"
#include "exec/query_control.h"
#include "exec/sandwich_agg.h"
#include "exec/sandwich_join.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "exec/topn.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace bdcc {
namespace exec {
namespace {

Table MakeTable(uint64_t rows) {
  Rng rng(17);
  Table t("T");
  Column k(TypeId::kInt32), g(TypeId::kInt32), v(TypeId::kFloat64);
  for (uint64_t i = 0; i < rows; ++i) {
    k.AppendInt32(static_cast<int32_t>(i));  // unique: many groups
    g.AppendInt32(static_cast<int32_t>(rng.Uniform(0, 9)));
    v.AppendFloat64(rng.NextDouble());
  }
  t.AddColumn("k", std::move(k)).AbortIfNotOK();
  t.AddColumn("g", std::move(g)).AbortIfNotOK();
  t.AddColumn("v", std::move(v)).AbortIfNotOK();
  return t;
}

// ---------------------------------------------------------------- control

TEST(QueryControlTest, HealthyByDefault) {
  QueryControl control;
  EXPECT_TRUE(control.Check().ok());
  EXPECT_FALSE(control.cancel_requested());
}

TEST(QueryControlTest, CancelObservedAtNextCheck) {
  QueryControl control;
  control.RequestCancel();
  EXPECT_TRUE(control.cancel_requested());
  EXPECT_TRUE(control.Check().IsCancelled());
}

TEST(QueryControlTest, PastDeadlineExpires) {
  QueryControl control;
  control.SetDeadline(std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(1));
  EXPECT_TRUE(control.Check().IsDeadlineExceeded());
}

TEST(QueryControlTest, FutureDeadlineStaysHealthy) {
  QueryControl control;
  control.SetTimeout(std::chrono::hours(1));
  EXPECT_TRUE(control.Check().ok());
}

TEST(QueryControlTest, FirstErrorWinsOverCancelAndLaterErrors) {
  QueryControl control;
  control.ReportError(Status::IOError("root cause"));
  control.ReportError(Status::Internal("secondary"));
  control.RequestCancel();
  Status s = control.Check();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("root cause"), std::string::npos);
}

TEST(QueryControlTest, CancelStatusesNotRecordedAsErrors) {
  QueryControl control;
  control.ReportError(Status::Cancelled("cascade"));
  control.ReportError(Status::DeadlineExceeded("cascade"));
  EXPECT_TRUE(control.Check().ok());
  EXPECT_TRUE(control.first_error().ok());
}

TEST(QueryControlTest, ResetRearms) {
  QueryControl control;
  control.RequestCancel();
  control.ReportError(Status::Internal("x"));
  control.Reset();
  EXPECT_TRUE(control.Check().ok());
  EXPECT_TRUE(control.first_error().ok());
}

// ---------------------------------------------------------------- budgets

TEST(MemoryBudgetTest, TryAllocateDeniesGrowthPastLimit) {
  MemoryTracker tracker;
  tracker.set_limit(1000);
  EXPECT_TRUE(tracker.TryAllocate(600));
  EXPECT_FALSE(tracker.TryAllocate(500));
  EXPECT_EQ(tracker.current_bytes(), 600u);
  EXPECT_EQ(tracker.budget_denials(), 1u);
  EXPECT_TRUE(tracker.TryAllocate(400));  // exactly at the limit is fine
  EXPECT_EQ(tracker.current_bytes(), 1000u);
}

TEST(MemoryBudgetTest, TrySetNamesTheOperator) {
  MemoryTracker tracker;
  tracker.set_limit(100);
  TrackedMemory mem(&tracker, "hash-agg");
  Status s = mem.TrySet(4096);
  ASSERT_TRUE(s.IsResourceExhausted());
  EXPECT_NE(s.ToString().find("hash-agg"), std::string::npos);
  EXPECT_NE(s.ToString().find("memory budget exceeded"), std::string::npos);
  EXPECT_EQ(mem.bytes(), 0u);  // refused growth left registration unchanged
  // Shrinking and releasing are always allowed.
  EXPECT_TRUE(mem.TrySet(50).ok());
  EXPECT_TRUE(mem.TrySet(10).ok());
  mem.Clear();
  EXPECT_EQ(tracker.current_bytes(), 0u);
}

TEST(MemoryBudgetTest, HashAggRefusesThenSucceedsWithoutLimit) {
  Table t = MakeTable(20000);
  ExecContext ctx(nullptr);
  ctx.memory()->set_limit(4096);
  {
    HashAgg agg(std::make_unique<SegmentScan>(
                    &t, std::vector<std::string>{"k", "v"}),
                {"k"}, std::vector<AggSpec>{AggSum(Col("v"), "sum_v")});
    auto result = CollectAll(&agg, &ctx);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsResourceExhausted())
        << result.status().ToString();
    EXPECT_NE(result.status().ToString().find("hash-agg"), std::string::npos);
  }
  // The error unwind released every tracked byte; the same context runs the
  // query to completion once the cap is lifted.
  EXPECT_EQ(ctx.memory()->current_bytes(), 0u);
  EXPECT_GE(ctx.stats()->budget_denials, 1u);
  ctx.memory()->set_limit(0);
  HashAgg agg(std::make_unique<SegmentScan>(
                  &t, std::vector<std::string>{"k", "v"}),
              {"k"}, std::vector<AggSpec>{AggSum(Col("v"), "sum_v")});
  auto result = CollectAll(&agg, &ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().num_rows, t.num_rows());
  EXPECT_EQ(ctx.memory()->current_bytes(), 0u);
}

TEST(MemoryBudgetTest, SortRefusesUnderTinyBudget) {
  Table t = MakeTable(20000);
  ExecContext ctx(nullptr);
  ctx.memory()->set_limit(4096);
  Sort sort(std::make_unique<SegmentScan>(&t,
                                          std::vector<std::string>{"k", "v"}),
            {SortKey{"v", false}});
  auto result = CollectAll(&sort, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("sort buffer"),
            std::string::npos);
  EXPECT_EQ(ctx.memory()->current_bytes(), 0u);
}

TEST(MemoryBudgetTest, HashJoinBuildRefusesUnderTinyBudget) {
  Table probe = MakeTable(100);
  Table build = MakeTable(20000);
  ExecContext ctx(nullptr);
  ctx.memory()->set_limit(4096);
  HashJoin join(
      std::make_unique<SegmentScan>(&probe, std::vector<std::string>{"k"}),
      std::make_unique<SegmentScan>(&build,
                                    std::vector<std::string>{"k", "v"}),
      {"k"}, {"k"}, JoinType::kInner);
  auto result = CollectAll(&join, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("hash-join build"),
            std::string::npos);
  EXPECT_EQ(ctx.memory()->current_bytes(), 0u);
}

TEST(MemoryBudgetTest, TopNRefusesUnderTinyBudget) {
  Table t = MakeTable(20000);
  ExecContext ctx(nullptr);
  ctx.memory()->set_limit(256);
  TopN topn(std::make_unique<SegmentScan>(&t,
                                          std::vector<std::string>{"k", "v"}),
            {SortKey{"v", false}}, 5000);
  auto result = CollectAll(&topn, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("top-n heap"),
            std::string::npos);
  EXPECT_EQ(ctx.memory()->current_bytes(), 0u);
}

// Two group-tagged segments over `t` (rows split in half), the input shape
// sandwich operators require.
OperatorPtr GroupedScan(const Table* t, std::vector<std::string> cols) {
  uint64_t half = t->num_rows() / 2;
  std::vector<ScanSegment> segments = {
      {t, 0, half, 0, ScanSegment::Kind::kGroup},
      {t, half, t->num_rows(), 1, ScanSegment::Kind::kGroup}};
  return std::make_unique<SegmentScan>(t, std::move(cols),
                                       std::vector<ScanPredicate>{},
                                       std::move(segments));
}

TEST(MemoryBudgetTest, SandwichJoinBuildRefusesUnderTinyBudget) {
  Table probe = MakeTable(100);
  Table build = MakeTable(20000);
  ExecContext ctx(nullptr);
  ctx.memory()->set_limit(1);
  SandwichHashJoin join(GroupedScan(&probe, {"k"}),
                        GroupedScan(&build, {"k", "v"}), {"k"}, {"k"},
                        JoinType::kInner);
  auto result = CollectAll(&join, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("sandwich-join build"),
            std::string::npos);
  EXPECT_GE(ctx.stats()->budget_denials, 1u);
  EXPECT_EQ(ctx.memory()->current_bytes(), 0u);
}

TEST(MemoryBudgetTest, SandwichAggRefusesUnderTinyBudget) {
  Table t = MakeTable(20000);
  ExecContext ctx(nullptr);
  ctx.memory()->set_limit(1);
  SandwichAgg agg(GroupedScan(&t, {"k", "v"}), {"k"},
                  std::vector<AggSpec>{AggSum(Col("v"), "sum_v")});
  auto result = CollectAll(&agg, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("sandwich-agg"),
            std::string::npos);
  EXPECT_GE(ctx.stats()->budget_denials, 1u);
  EXPECT_EQ(ctx.memory()->current_bytes(), 0u);
}

// ----------------------------------------------------- cancellation points

TEST(MemoryBudgetTest, CancelledScanStopsWithinOneChunk) {
  Table t = MakeTable(20000);
  ExecContext ctx(nullptr);
  ctx.control()->RequestCancel();
  SegmentScan scan(&t, std::vector<std::string>{"k"});
  auto result = CollectAll(&scan, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  EXPECT_GE(ctx.stats()->morsels_cancelled, 1u);
  EXPECT_EQ(ctx.memory()->current_bytes(), 0u);
  // Reset rearms the same context for a clean rerun.
  ctx.control()->Reset();
  SegmentScan again(&t, std::vector<std::string>{"k"});
  auto rerun = CollectAll(&again, &ctx);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_EQ(rerun.value().num_rows, t.num_rows());
}

TEST(MemoryBudgetTest, PastDeadlineStopsAggregation) {
  Table t = MakeTable(20000);
  ExecContext ctx(nullptr);
  ctx.control()->SetDeadline(std::chrono::steady_clock::now() -
                             std::chrono::milliseconds(1));
  HashAgg agg(std::make_unique<SegmentScan>(
                  &t, std::vector<std::string>{"g", "v"}),
              {"g"}, std::vector<AggSpec>{AggSum(Col("v"), "sum_v")});
  auto result = CollectAll(&agg, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  EXPECT_EQ(ctx.memory()->current_bytes(), 0u);
}

// ------------------------------------------------------- parallel operators

// A source whose Next fails immediately — stands in for one broken clone in
// a parallel fan-out.
class FailingSource : public Operator {
 public:
  explicit FailingSource(Schema schema) : schema_(std::move(schema)) {}
  const Schema& schema() const override { return schema_; }
  Status Open(ExecContext*) override { return Status::OK(); }
  Result<Batch> Next(ExecContext*) override {
    return Status::IOError("injected probe failure");
  }

 private:
  Schema schema_;
};

ChainFactory MixedFactory(const Table* t,
                          std::shared_ptr<const std::vector<Morsel>> morsels,
                          size_t failing_clone) {
  return [t, morsels, failing_clone](size_t i,
                                     size_t n) -> Result<OperatorPtr> {
    if (i == failing_clone) {
      return OperatorPtr(std::make_unique<FailingSource>(
          Schema({{"k", TypeId::kInt32}})));
    }
    return OperatorPtr(std::make_unique<SegmentScan>(
        t, std::vector<std::string>{"k"}, std::vector<ScanPredicate>{},
        CloneRowSegments(t, *morsels, i, n)));
  };
}

TEST(ParallelLifecycleTest, FailingCloneSurfacesErrorAndSchedulerSurvives) {
  Table t = MakeTable(20000);
  auto morsels = std::make_shared<const std::vector<Morsel>>(
      MakeRowMorsels(t.num_rows(), 0, 1024));
  common::TaskScheduler scheduler(3);
  {
    ExecContext ctx(nullptr);
    ParallelUnion u(MixedFactory(&t, morsels, 2), 4, 4, &scheduler);
    auto result = CollectAll(&u, &ctx);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().ToString().find("injected probe failure"),
              std::string::npos)
        << result.status().ToString();
    EXPECT_EQ(ctx.memory()->current_bytes(), 0u);
  }
  // Same scheduler, healthy clones: runs to completion.
  ExecContext ctx(nullptr);
  ParallelUnion u(MixedFactory(&t, morsels, 99), 4, 4, &scheduler);
  auto result = CollectAll(&u, &ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().num_rows, t.num_rows());
}

TEST(ParallelLifecycleTest, CancelledParallelAggReturnsCancelled) {
  Table t = MakeTable(20000);
  auto morsels = std::make_shared<const std::vector<Morsel>>(
      MakeRowMorsels(t.num_rows(), 0, 1024));
  common::TaskScheduler scheduler(3);
  ExecContext ctx(nullptr);
  ctx.control()->RequestCancel();  // before the drain: deterministic
  ParallelHashAgg agg(
      [&t, morsels](size_t i, size_t n) -> Result<OperatorPtr> {
        return OperatorPtr(std::make_unique<SegmentScan>(
            &t, std::vector<std::string>{"g", "v"},
            std::vector<ScanPredicate>{},
            CloneRowSegments(&t, *morsels, i, n)));
      },
      4, {"g"}, std::vector<AggSpec>{AggSum(Col("v"), "sum_v")}, &scheduler);
  auto result = CollectAll(&agg, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  EXPECT_GE(ctx.stats()->morsels_cancelled, 1u);
  EXPECT_EQ(ctx.memory()->current_bytes(), 0u);
}

// Cancellation raced from another thread mid-drain: whichever side wins,
// the query either completes or returns Cancelled, memory drains, and the
// scheduler stays reusable. TSan checks the flag handshakes.
TEST(ParallelLifecycleTest, ConcurrentCancelIsCleanEitherWay) {
  Table t = MakeTable(50000);
  auto morsels = std::make_shared<const std::vector<Morsel>>(
      MakeRowMorsels(t.num_rows(), 0, 512));
  common::TaskScheduler scheduler(3);
  for (int round = 0; round < 5; ++round) {
    ExecContext ctx(nullptr);
    std::thread canceller([&ctx, round] {
      std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
      ctx.control()->RequestCancel();
    });
    ParallelHashJoin join(
        MixedFactory(&t, morsels, 99), 4,
        std::make_unique<SegmentScan>(&t, std::vector<std::string>{"k", "v"}),
        {"k"}, {"k"}, JoinType::kInner, &scheduler);
    auto result = CollectAll(&join, &ctx);
    canceller.join();
    if (result.ok()) {
      EXPECT_EQ(result.value().num_rows, t.num_rows());
    } else {
      EXPECT_TRUE(result.status().IsCancelled())
          << result.status().ToString();
    }
    EXPECT_EQ(ctx.memory()->current_bytes(), 0u) << "round " << round;
  }
}

}  // namespace
}  // namespace exec
}  // namespace bdcc
