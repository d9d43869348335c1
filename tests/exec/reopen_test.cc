// The re-Open contract the serving layer's retry path depends on: after a
// ResourceExhausted unwind (CollectAll closed the tree, tracked memory
// drained, QueryControl error cleared), the *same* operator tree must be
// re-openable in-process with a larger budget and produce the correct
// result — no operator may serve stale state cached from the failed cycle.
// Also pins the ParallelHashAgg schema-after-Close regression: CollectAll
// builds its typed-empty result from op->schema() after Close, so schema()
// must not reach into state Close destroys.
#include <memory>
#include <vector>

#include "exec/exec_context.h"
#include "exec/hash_agg.h"
#include "exec/hash_join.h"
#include "exec/operator.h"
#include "exec/parallel.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace bdcc {
namespace exec {
namespace {

class VectorSource : public Operator {
 public:
  VectorSource(Schema schema, std::vector<Batch> batches)
      : schema_(std::move(schema)), batches_(std::move(batches)) {}
  const Schema& schema() const override { return schema_; }
  Status Open(ExecContext*) override {
    at_ = 0;
    return Status::OK();
  }
  Result<Batch> Next(ExecContext*) override {
    if (at_ >= batches_.size()) return Batch::Empty();
    Batch out;
    const Batch& src = batches_[at_++];
    out.num_rows = src.num_rows;
    out.group_id = src.group_id;
    out.columns = src.columns;
    return out;
  }

 private:
  Schema schema_;
  std::vector<Batch> batches_;
  size_t at_ = 0;
};

Schema S() {
  return Schema({{"k", TypeId::kInt32}, {"v", TypeId::kFloat64}});
}

Batch B(std::vector<int32_t> keys, std::vector<double> vals) {
  Batch b;
  ColumnVector k(TypeId::kInt32), v(TypeId::kFloat64);
  k.i32 = std::move(keys);
  v.f64 = std::move(vals);
  b.num_rows = k.i32.size();
  b.columns = {std::move(k), std::move(v)};
  b.group_id = -1;
  return b;
}

std::vector<Batch> ManyGroups(int n) {
  std::vector<int32_t> keys;
  std::vector<double> vals;
  for (int i = 0; i < n; ++i) {
    keys.push_back(i);
    vals.push_back(static_cast<double>(i));
  }
  std::vector<Batch> out;
  out.push_back(B(std::move(keys), std::move(vals)));
  return out;
}

TEST(ReopenTest, HashAggReopensAfterBudgetUnwind) {
  auto src = std::make_unique<VectorSource>(S(), ManyGroups(512));
  HashAgg agg(std::move(src), {"k"}, {AggSum(Col("v"), "s")});

  ExecContext ctx(nullptr);
  ctx.memory()->set_limit(1);  // any group state overflows one byte
  auto capped = CollectAll(&agg, &ctx);
  ASSERT_FALSE(capped.ok());
  EXPECT_TRUE(capped.status().IsResourceExhausted())
      << capped.status().ToString();
  EXPECT_EQ(ctx.memory()->current_bytes(), 0u)
      << "budget unwind leaked tracked memory";
  EXPECT_TRUE(ctx.control()->Check().ok())
      << "CollectAll left the surfaced error on the control";

  // The serving layer's retry: same context, same tree, larger budget.
  ctx.PrepareRerun(/*new_limit_bytes=*/0);
  auto retried = CollectAll(&agg, &ctx);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried.value().num_rows, 512u);
  EXPECT_EQ(ctx.memory()->current_bytes(), 0u);
}

TEST(ReopenTest, EscalatingBudgetEventuallySucceedsOnSameTree) {
  auto src = std::make_unique<VectorSource>(S(), ManyGroups(1024));
  HashAgg agg(std::move(src), {"k"}, {AggSum(Col("v"), "s")});
  ExecContext ctx(nullptr);

  uint64_t budget = 64;
  int attempts = 0;
  while (true) {
    ++attempts;
    ctx.PrepareRerun(budget);
    auto result = CollectAll(&agg, &ctx);
    if (result.ok()) {
      EXPECT_EQ(result.value().num_rows, 1024u);
      break;
    }
    ASSERT_TRUE(result.status().IsResourceExhausted())
        << result.status().ToString();
    EXPECT_EQ(ctx.memory()->current_bytes(), 0u)
        << "attempt " << attempts << " leaked";
    budget *= 4;
    ASSERT_LT(attempts, 20) << "budget escalation never converged";
  }
  EXPECT_GT(attempts, 1) << "first budget was too generous to test the loop";
}

TEST(ReopenTest, HashJoinReopensAfterBudgetUnwind) {
  auto build = std::make_unique<VectorSource>(S(), ManyGroups(256));
  auto probe = std::make_unique<VectorSource>(S(), ManyGroups(256));
  HashJoin join(std::move(probe), std::move(build), {"k"}, {"k"},
                JoinType::kInner);

  ExecContext ctx(nullptr);
  ctx.memory()->set_limit(1);
  auto capped = CollectAll(&join, &ctx);
  ASSERT_FALSE(capped.ok());
  EXPECT_TRUE(capped.status().IsResourceExhausted());
  EXPECT_EQ(ctx.memory()->current_bytes(), 0u);

  ctx.PrepareRerun(0);
  auto retried = CollectAll(&join, &ctx);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried.value().num_rows, 256u);
}

TEST(ReopenTest, ParallelHashAggReopensAfterBudgetUnwind) {
  common::TaskScheduler scheduler(2);
  auto factory = [](size_t i, size_t total) -> Result<OperatorPtr> {
    // Disjoint key ranges per clone, 4096 groups total so every cycle runs
    // the radix-partitioned merge.
    std::vector<int32_t> keys;
    std::vector<double> vals;
    for (int k = static_cast<int>(i); k < 8192; k += static_cast<int>(total)) {
      keys.push_back(k);
      vals.push_back(1.0);
    }
    std::vector<Batch> batches;
    batches.push_back(B(std::move(keys), std::move(vals)));
    return OperatorPtr(
        std::make_unique<VectorSource>(S(), std::move(batches)));
  };
  ParallelHashAgg agg(factory, /*num_clones=*/2, {"k"},
                      {AggSum(Col("v"), "s")}, &scheduler);

  ExecContext ctx(nullptr);
  ctx.memory()->set_limit(512);
  auto capped = CollectAll(&agg, &ctx);
  ASSERT_FALSE(capped.ok());
  EXPECT_TRUE(capped.status().IsResourceExhausted())
      << capped.status().ToString();
  EXPECT_EQ(ctx.memory()->current_bytes(), 0u);

  ctx.PrepareRerun(0);
  auto retried = CollectAll(&agg, &ctx);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried.value().num_rows, 8192u);
}

// Strided share of 0..n-1 as one batch: clone i of `total` holds the keys
// k with k % total == i.
OperatorPtr StridedKeys(int n, size_t i, size_t total) {
  std::vector<int32_t> keys;
  std::vector<double> vals;
  for (int k = static_cast<int>(i); k < n; k += static_cast<int>(total)) {
    keys.push_back(k);
    vals.push_back(static_cast<double>(k));
  }
  std::vector<Batch> batches;
  batches.push_back(B(std::move(keys), std::move(vals)));
  return std::make_unique<VectorSource>(S(), std::move(batches));
}

TEST(ReopenTest, ParallelHashJoinReopensAfterBudgetUnwind) {
  common::TaskScheduler scheduler(2);
  ExecContext ref_ctx(nullptr);
  HashJoin reference(StridedKeys(256, 0, 1), StridedKeys(256, 0, 1), {"k"},
                     {"k"}, JoinType::kInner);
  Batch expect = CollectAll(&reference, &ref_ctx).ValueOrDie();
  ASSERT_EQ(expect.num_rows, 256u);

  auto probe_factory = [](size_t i, size_t n) -> Result<OperatorPtr> {
    return StridedKeys(256, i, n);
  };
  for (bool union_build : {false, true}) {
    SCOPED_TRACE(union_build ? "union build" : "serial build");
    OperatorPtr build =
        union_build ? OperatorPtr(std::make_unique<ParallelUnion>(
                          probe_factory, /*num_chains=*/2, /*num_threads=*/2,
                          &scheduler))
                    : StridedKeys(256, 0, 1);
    ParallelHashJoin join(probe_factory, /*num_clones=*/2, std::move(build),
                          {"k"}, {"k"}, JoinType::kInner, &scheduler);

    ExecContext ctx(nullptr);
    ctx.memory()->set_limit(1);
    auto capped = CollectAll(&join, &ctx);
    ASSERT_FALSE(capped.ok());
    EXPECT_TRUE(capped.status().IsResourceExhausted())
        << capped.status().ToString();
    EXPECT_EQ(ctx.memory()->current_bytes(), 0u)
        << "budget unwind leaked tracked memory";

    ctx.PrepareRerun(0);
    auto retried = CollectAll(&join, &ctx);
    ASSERT_TRUE(retried.ok()) << retried.status().ToString();
    // Probe clones emit in clone order, so compare as row sets.
    testutil::ExpectBatchesEqual(expect, retried.value(), "parallel join");
    EXPECT_EQ(ctx.memory()->current_bytes(), 0u);
  }
}

// Regression: schema() after Close. An empty input leaves the aggregate
// with zero groups, so CollectAll's typed-empty path reads op->schema()
// *after* op->Close() cleared the partials; before the schema was cached
// at Open this dereferenced a cleared vector.
TEST(ReopenTest, ParallelHashAggSchemaSurvivesClose) {
  common::TaskScheduler scheduler(2);
  auto factory = [](size_t, size_t) -> Result<OperatorPtr> {
    return OperatorPtr(
        std::make_unique<VectorSource>(S(), std::vector<Batch>{}));
  };
  ParallelHashAgg agg(factory, /*num_clones=*/2, {"k"},
                      {AggSum(Col("v"), "s")}, &scheduler);
  ExecContext ctx(nullptr);
  auto result = CollectAll(&agg, &ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().num_rows, 0u);
  ASSERT_EQ(result.value().columns.size(), 2u);  // k, s — typed empty
  EXPECT_EQ(result.value().columns[0].type, TypeId::kInt32);
  EXPECT_EQ(result.value().columns[1].type, TypeId::kFloat64);
}

}  // namespace
}  // namespace exec
}  // namespace bdcc
