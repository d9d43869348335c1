// Planner strategy selection per scheme, pushdown analysis, and the
// ablation property: every combination of planner features returns the
// same results.
#include "opt/planner.h"

#include <algorithm>

#include "gtest/gtest.h"
#include "opt/pushdown.h"
#include "tests/reference_eval.h"
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
    return CountNotes(notes, needle) > 0;
  }

  static int CountNotes(const std::vector<std::string>& notes,
                        const std::string& needle) {
    return static_cast<int>(
        std::count_if(notes.begin(), notes.end(), [&](const std::string& n) {
          return n.find(needle) != std::string::npos;
        }));
  }

  // Tracked peak operator memory of query q on `db` at one thread.
  static uint64_t PeakBytes(int q, const PhysicalDb& db) {
    exec::ExecContext ec(nullptr);
    tpch::QueryContext ctx;
    ctx.db = &db;
    ctx.exec = &ec;
    ctx.scale_factor = 0.005;
    auto result = tpch::RunTpchQuery(q, ctx);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return ec.memory()->peak_bytes();
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

TEST_F(PlannerTest, BdccSchemeSandwichesJoinsWithGroupedAggregates) {
  // Q21 joins its sandwiched LINEITEM⋈ORDERS stream with two aggregates by
  // l_orderkey, which determines [D_NATION,D_DATE] on both sides: each
  // aggregate is asked for the stream's grouping and both joins sandwich.
  auto notes = NotesFor(21, db_->bdcc());
  EXPECT_EQ(CountNotes(notes, "sandwich join <stream>⋈<stream> on "
                              "[D_NATION,D_DATE] (cascade)"),
            2);
  // Q17 joins two streams already grouped on D_PART by l_partkey.
  notes = NotesFor(17, db_->bdcc());
  EXPECT_EQ(CountNotes(notes, "sandwich join <stream>⋈<stream> on [D_PART]"),
            1);
  // Q3's CUSTOMER join keeps the D_NATION prefix of the stream's grouping.
  notes = NotesFor(3, db_->bdcc());
  EXPECT_TRUE(
      HasNote(notes, "sandwich join <stream>⋈CUSTOMER on [D_NATION] (cascade)"));
}

TEST_F(PlannerTest, BdccQ21HoldsLessMemoryThanPk) {
  // Figure 3: once Q21's aggregate joins sandwich, BDCC holds one group's
  // state at a time and needs less memory than PK's merge and hash joins.
  EXPECT_LT(PeakBytes(21, db_->bdcc()), PeakBytes(21, db_->pk()));
}

TEST_F(PlannerTest, JoinOnOtherColumnsThanItsFkLabelKeepsResults) {
  // The label names FK_L_O, but the keys are l_suppkey = o_orderkey: a plan
  // that trusted the label (a PK merge join on l_suppkey, a BDCC sandwich
  // on the orderkey-derived dimensions) would lose matches.
  auto plan = [] {
    NodePtr j = LJoin(LScan("LINEITEM", {"l_suppkey", "l_quantity"}),
                      LScan("ORDERS", {"o_orderkey"}), JoinType::kInner,
                      {"l_suppkey"}, {"o_orderkey"}, "FK_L_O");
    return LAgg(j, {}, {exec::AggCountStar("n"),
                        exec::AggSum(Col("l_quantity"), "q")});
  };
  exec::Batch reference =
      testutil::ReferenceRunner(db_->plain())(plan()).ValueOrDie();
  for (const PhysicalDb* db : {&db_->plain(), &db_->pk(), &db_->bdcc()}) {
    exec::ExecContext ec(nullptr);
    tpch::QueryContext ctx;
    ctx.db = db;
    ctx.exec = &ec;
    auto result = tpch::RunPlan(plan(), ctx);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    testutil::ExpectBatchesEqual(reference, result.value(),
                                 SchemeName(db->scheme()));
  }
}

TEST_F(PlannerTest, MislabelledFkJoinUnderSelectionKeepsResults) {
  // Same mislabelled join, now under a date selection on ORDERS: a pushdown
  // that followed the FK_L_O label would prune LINEITEM groups by
  // D_DATE, although l_suppkey says nothing about the order date.
  auto plan = [] {
    NodePtr orders = LScan(
        "ORDERS", {"o_orderkey", "o_orderdate"},
        {SargRange("o_orderdate", Value::Date(ParseDate("1994-01-01")),
                   Value::Date(ParseDate("1995-12-31")))});
    NodePtr j = LJoin(LScan("LINEITEM", {"l_suppkey"}), std::move(orders),
                      JoinType::kInner, {"l_suppkey"}, {"o_orderkey"},
                      "FK_L_O");
    return LAgg(j, {}, {exec::AggCountStar("n")});
  };
  exec::Batch reference =
      testutil::ReferenceRunner(db_->plain())(plan()).ValueOrDie();
  ASSERT_GT(reference.columns[0].i64[0], 0);
  for (const PhysicalDb* db : {&db_->plain(), &db_->pk(), &db_->bdcc()}) {
    exec::ExecContext ec(nullptr);
    tpch::QueryContext ctx;
    ctx.db = db;
    ctx.exec = &ec;
    auto result = tpch::RunPlan(plan(), ctx);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    testutil::ExpectBatchesEqual(reference, result.value(),
                                 SchemeName(db->scheme()));
  }
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
  for (int q = 1; q <= tpch::kNumTpchQueries; ++q) {
    EXPECT_FALSE(HasNote(NotesFor(q, db_->bdcc(), no_sandwich), "sandwich"))
        << "Q" << q;
  }
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

// The queries exercising the interesting feature interactions, then the
// rest: together every TPC-H query.
INSTANTIATE_TEST_SUITE_P(KeyQueries, PlannerAblationTest,
                         ::testing::Values(3, 4, 5, 10, 13, 18, 21));
INSTANTIATE_TEST_SUITE_P(OtherQueries, PlannerAblationTest,
                         ::testing::Values(1, 2, 6, 7, 8, 9, 11, 12, 14, 15,
                                           16, 17, 19, 20, 22));

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
