// The correctness anchor of the reproduction: every TPC-H query must return
// the reference answer under the Plain, PK and BDCC physical designs — the
// three schemes only change *how* data is laid out and accessed. The
// reference is the row-at-a-time evaluator of tests/reference_eval.h, run
// at most once per query and process over the plain tables (through
// QueryContext::run_plan, so every stage of the multi-stage queries runs on
// it too). The suite is
// parametrized over PlannerOptions::num_threads: the classic serial plans
// (num_threads=1) and the morsel-parallel plans (num_threads=2, the serving
// benchmark's setting, and 4) must all return it on every query and
// scheme.
#include <map>
#include <memory>
#include <tuple>

#include "gtest/gtest.h"
#include "tests/reference_eval.h"
#include "tests/test_util.h"
#include "tpch/tpch_db.h"
#include "tpch/tpch_queries.h"

namespace bdcc {
namespace tpch {
namespace {

class CrossSchemeTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  static void SetUpTestSuite() {
    TpchDbOptions options;
    options.scale_factor = 0.005;
    options.seed = 7;
    db_ = TpchDb::Create(options).ValueOrDie();
  }
  static void TearDownTestSuite() {
    reference_.clear();
    db_.reset();
  }

  static Result<exec::Batch> Run(int q, opt::Scheme scheme, int num_threads) {
    exec::ExecContext exec_ctx(nullptr);
    QueryContext ctx;
    ctx.db = &db_->db(scheme);
    ctx.exec = &exec_ctx;
    ctx.scale_factor = db_->options().scale_factor;
    ctx.planner.num_threads = num_threads;
    return RunTpchQuery(q, ctx);
  }

  // Query q's reference answer (or the evaluator's error), computed on
  // first use: ctest runs each instance in its own process.
  static const Result<exec::Batch>& Reference(int q) {
    auto it = reference_.find(q);
    if (it == reference_.end()) {
      QueryContext ctx;
      ctx.scale_factor = db_->options().scale_factor;
      ctx.run_plan = testutil::ReferenceRunner(db_->plain());
      it = reference_.emplace(q, RunTpchQuery(q, ctx)).first;
    }
    return it->second;
  }

  static std::unique_ptr<TpchDb> db_;
  static std::map<int, Result<exec::Batch>> reference_;
};

std::unique_ptr<TpchDb> CrossSchemeTest::db_;
std::map<int, Result<exec::Batch>> CrossSchemeTest::reference_;

TEST_P(CrossSchemeTest, SchemesAndThreadCountsAgree) {
  auto [q, threads] = GetParam();
  const Result<exec::Batch>& reference = Reference(q);
  ASSERT_TRUE(reference.ok())
      << "Q" << q << " reference: " << reference.status().ToString();
  for (int s = 0; s < 3; ++s) {
    opt::Scheme scheme = static_cast<opt::Scheme>(s);
    auto result = Run(q, scheme, threads);
    ASSERT_TRUE(result.ok())
        << "Q" << q << " on " << opt::SchemeName(scheme) << " threads="
        << threads << ": " << result.status().ToString();
    testutil::ExpectBatchesEqual(
        reference.value(), result.value(),
        "Q" + std::to_string(q) + " " + opt::SchemeName(scheme) +
            " threads=" + std::to_string(threads) + " vs reference");
  }
  // Sanity: the queries should not be trivially empty. Exemptions are
  // queries whose predicates select rare events that may not occur at the
  // tiny test scale factor (Q2: exact min-cost tie set; Q18: orders with
  // sum(qty) > 300 are ~0.004% of orders in official TPC-H; Q21: exactly-
  // one-late-supplier multi-supplier orders of one nation).
  if (q != 2 && q != 18 && q != 21) {
    EXPECT_GT(reference.value().num_rows, 0u) << "Q" << q
                                              << " returned no rows";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllQueries, CrossSchemeTest,
    ::testing::Combine(::testing::Range(1, 23), ::testing::Values(1, 2, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "Q" + std::to_string(std::get<0>(info.param)) + "_threads" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace tpch
}  // namespace bdcc
