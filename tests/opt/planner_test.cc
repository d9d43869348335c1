// Planner strategy selection per scheme, pushdown analysis, and the
// ablation property: every combination of planner features returns the
// same results.
#include "opt/planner.h"

#include "gtest/gtest.h"
#include "opt/pushdown.h"
#include "tests/test_util.h"
#include "tpch/tpch_db.h"
#include "tpch/tpch_queries.h"

namespace bdcc {
namespace opt {
namespace {

using exec::Col;
using exec::JoinType;

class PlannerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tpch::TpchDbOptions options;
    options.scale_factor = 0.005;
    options.seed = 11;
    // Small AR so even the tiny test tables keep count-table granularity
    // (strategy selection needs shared dimension bits to exist).
    options.advisor.build.tuning.efficient_access_bytes = 1024;
    db_ = tpch::TpchDb::Create(options).ValueOrDie().release();
  }
  static void TearDownTestSuite() { delete db_; }

  static std::vector<std::string> NotesFor(int q, const PhysicalDb& db,
                                           PlannerOptions opts = {}) {
    std::vector<std::string> notes;
    exec::ExecContext ec(nullptr);
    tpch::QueryContext ctx;
    ctx.db = &db;
    ctx.exec = &ec;
    ctx.notes = &notes;
    ctx.scale_factor = 0.005;
    ctx.planner = opts;
    auto result = tpch::RunTpchQuery(q, ctx);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return notes;
  }

  static bool HasNote(const std::vector<std::string>& notes,
                      const std::string& needle) {
    for (const std::string& n : notes) {
      if (n.find(needle) != std::string::npos) return true;
    }
    return false;
  }

  static tpch::TpchDb* db_;
};

tpch::TpchDb* PlannerTest::db_ = nullptr;

TEST_F(PlannerTest, PkSchemeUsesMergeJoins) {
  // Q12: LINEITEM⋈ORDERS on the sorted, unique orderkey -> merge join.
  auto notes = NotesFor(12, db_->pk());
  EXPECT_TRUE(HasNote(notes, "merge join LINEITEM⋈ORDERS"));
  // Q18's inner aggregate streams over the sorted orderkey.
  notes = NotesFor(18, db_->pk());
  EXPECT_TRUE(HasNote(notes, "streaming aggregation on l_orderkey"));
}

TEST_F(PlannerTest, PlainSchemeUsesNoSpecialStrategies) {
  for (int q : {3, 12, 18}) {
    auto notes = NotesFor(q, db_->plain());
    EXPECT_FALSE(HasNote(notes, "merge join")) << "Q" << q;
    EXPECT_FALSE(HasNote(notes, "sandwich")) << "Q" << q;
  }
}

TEST_F(PlannerTest, BdccSchemeSandwichesCoClusteredJoins) {
  auto notes = NotesFor(3, db_->bdcc());
  EXPECT_TRUE(HasNote(notes, "sandwich join LINEITEM⋈ORDERS"));
  EXPECT_TRUE(HasNote(notes, "cascade"));  // ⋈CUSTOMER via retag
  // Q13's LOJ sandwiches and its per-customer agg sandwiches (the paper's
  // "c_custkey implies the nation" case).
  notes = NotesFor(13, db_->bdcc());
  EXPECT_TRUE(HasNote(notes, "sandwich join CUSTOMER⋈ORDERS"));
  EXPECT_TRUE(HasNote(notes, "sandwich aggregation"));
}

TEST_F(PlannerTest, BdccSchemePushdownPropagation) {
  // Q3: date selection on ORDERS prunes ORDERS and LINEITEM.
  auto notes = NotesFor(3, db_->bdcc());
  EXPECT_TRUE(HasNote(notes, "pushdown: ORDERS groups via D_DATE"));
  EXPECT_TRUE(HasNote(notes, "pushdown: LINEITEM groups via D_DATE"));
  // Q5: the ASIA region selection reaches SUPPLIER and LINEITEM through
  // the nation dimension (the paper's rewriter example).
  notes = NotesFor(5, db_->bdcc());
  EXPECT_TRUE(HasNote(notes, "pushdown: SUPPLIER groups via D_NATION"));
  EXPECT_TRUE(HasNote(notes, "pushdown: LINEITEM groups via D_NATION"));
}

TEST_F(PlannerTest, ParallelPartitionedBuildPlannedForLargeBuildSides) {
  // Plain scheme, threads=4: the probe parallelizes and — because the
  // build side is itself a clonable scan chain of useful size — the build
  // input is partitioned over 4 scan clones, drained through a
  // ParallelUnion into the one table. (Q12 under plain: probe LINEITEM,
  // build ORDERS.)
  PlannerOptions par;
  par.num_threads = 4;
  auto notes = NotesFor(12, db_->plain(), par);
  EXPECT_TRUE(HasNote(notes, "parallel hash join probe x4"));
  EXPECT_TRUE(HasNote(notes, "parallel hash join build x4"));

  // Q14 under plain: probe LINEITEM, build PART, whose 1000 rows fall
  // below the parallel-build floor, so the build stays one serial drain.
  notes = NotesFor(14, db_->plain(), par);
  EXPECT_TRUE(HasNote(notes, "parallel hash join probe x4"));
  EXPECT_FALSE(HasNote(notes, "parallel hash join build"));
}

TEST_F(PlannerTest, FeatureTogglesDisableStrategies) {
  PlannerOptions no_sandwich;
  no_sandwich.enable_sandwich = false;
  EXPECT_FALSE(HasNote(NotesFor(3, db_->bdcc(), no_sandwich), "sandwich"));
  PlannerOptions no_pruning;
  no_pruning.enable_group_pruning = false;
  EXPECT_FALSE(HasNote(NotesFor(3, db_->bdcc(), no_pruning), "pushdown"));
  PlannerOptions no_merge;
  no_merge.enable_merge_join = false;
  EXPECT_FALSE(HasNote(NotesFor(12, db_->pk(), no_merge), "merge join"));
}

// Ablation property: any combination of planner features must return the
// same result set for every query (features are pure optimizations).
class PlannerAblationTest : public PlannerTest,
                            public ::testing::WithParamInterface<int> {};

TEST_P(PlannerAblationTest, FeaturesPreserveResults) {
  int q = GetParam();
  exec::Batch reference;
  {
    exec::ExecContext ec(nullptr);
    tpch::QueryContext ctx;
    ctx.db = &db_->plain();
    ctx.exec = &ec;
    ctx.scale_factor = 0.005;
    reference = tpch::RunTpchQuery(q, ctx).ValueOrDie();
  }
  for (int mask = 0; mask < 8; ++mask) {
    PlannerOptions opts;
    opts.enable_sandwich = mask & 1;
    opts.enable_group_pruning = mask & 2;
    opts.enable_zonemaps = mask & 4;
    exec::ExecContext ec(nullptr);
    tpch::QueryContext ctx;
    ctx.db = &db_->bdcc();
    ctx.exec = &ec;
    ctx.scale_factor = 0.005;
    ctx.planner = opts;
    auto result = tpch::RunTpchQuery(q, ctx);
    ASSERT_TRUE(result.ok())
        << "Q" << q << " mask " << mask << ": "
        << result.status().ToString();
    testutil::ExpectBatchesEqual(
        reference, result.value(),
        "Q" + std::to_string(q) + " feature-mask " + std::to_string(mask));
  }
}

// The queries exercising the interesting feature interactions.
INSTANTIATE_TEST_SUITE_P(KeyQueries, PlannerAblationTest,
                         ::testing::Values(3, 4, 5, 10, 13, 18, 21));

TEST_F(PlannerTest, PushdownAnalysisRespectsAntiJoinBoundaries) {
  // A restriction must not propagate across an anti join's boundary.
  NodePtr cust = LScan("CUSTOMER", {"c_custkey", "c_nationkey"});
  NodePtr nation = LScan("NATION", {"n_nationkey", "n_name"},
                         {SargEq("n_name", Value::String("GERMANY"))});
  NodePtr j1 = LJoin(cust, nation, JoinType::kInner, {"c_nationkey"},
                     {"n_nationkey"}, "FK_C_N");
  NodePtr orders = LScan("ORDERS", {"o_orderkey", "o_custkey"});
  NodePtr anti = LJoin(j1, orders, JoinType::kLeftAnti, {"c_custkey"},
                       {"o_custkey"}, "FK_O_C");
  auto analysis = AnalyzePushdown(anti, db_->bdcc()).ValueOrDie();
  bool orders_restricted = false;
  for (const UseRestriction& r : analysis.restrictions) {
    if (r.scan->scan.table == "ORDERS") orders_restricted = true;
  }
  EXPECT_FALSE(orders_restricted);
  // ...but CUSTOMER (inner-joined with NATION) is restricted.
  bool customer_restricted = false;
  for (const UseRestriction& r : analysis.restrictions) {
    if (r.scan->scan.table == "CUSTOMER") customer_restricted = true;
  }
  EXPECT_TRUE(customer_restricted);
}

}  // namespace
}  // namespace opt
}  // namespace bdcc
