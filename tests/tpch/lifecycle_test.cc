// End-to-end query lifecycle over the full TPC-H suite: enforced memory
// budgets (every plain-scheme query refuses a tiny limit with
// ResourceExhausted and runs clean once it is lifted, in the same process),
// cancellation and deadlines (stop within one morsel, release memory, leave
// the scheduler reusable), and the seeded fault-injection sweep the CI
// fault job drives (ctest -R FaultSweep with BDCC_FAULT_SEED in the
// environment).
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "gtest/gtest.h"
#include "tpch/tpch_db.h"
#include "tpch/tpch_queries.h"

namespace bdcc {
namespace tpch {
namespace {

// One DB for every suite in this binary — and, crucially for the fault
// sweep, built *before* any scoped injection is installed (the fixture must
// exist for injected faults during queries to be the thing under test).
TpchDb* SharedDb() {
  static std::unique_ptr<TpchDb> db = [] {
    TpchDbOptions options;
    options.scale_factor = 0.005;
    options.seed = 7;
    return TpchDb::Create(options).ValueOrDie();
  }();
  return db.get();
}

Result<exec::Batch> RunQuery(exec::ExecContext* exec_ctx, opt::Scheme scheme,
                        int q, uint64_t memory_limit, int num_threads) {
  QueryContext ctx;
  ctx.db = &SharedDb()->db(scheme);
  ctx.exec = exec_ctx;
  ctx.scale_factor = SharedDb()->options().scale_factor;
  ctx.planner.memory_limit_bytes = memory_limit;
  ctx.planner.num_threads = num_threads;
  return RunTpchQuery(q, ctx);
}

// ---------------------------------------------------------------- budgets

// Acceptance test for enforced budgets: under a one-byte budget every
// plain-scheme query (they all carry a hash aggregate, hash join, sort or
// top-n) must refuse with ResourceExhausted — never crash, never return a
// wrong result — drain its tracked memory, and then run to completion in
// the same process once the limit is lifted.
TEST(TpchMemoryBudgetTest, PlainQueriesRefuseTinyBudgetThenSucceed) {
  for (int q = 1; q <= kNumTpchQueries; ++q) {
    exec::ExecContext exec_ctx(nullptr);
    auto capped = RunQuery(&exec_ctx, opt::Scheme::kPlain, q, /*memory_limit=*/1,
                      /*num_threads=*/1);
    if (capped.ok()) {
      // A plan whose selective filters leave every stateful operator empty
      // (Q17's Brand#23 / MED BOX part selection at this scale factor) never
      // touches tracked memory, so even a one-byte budget is satisfiable.
      // Assert that is really why it passed.
      EXPECT_EQ(exec_ctx.memory()->peak_bytes(), 0u)
          << "Q" << q << " allocated tracked memory yet ignored the budget";
      continue;
    }
    EXPECT_TRUE(capped.status().IsResourceExhausted())
        << "Q" << q << ": " << capped.status().ToString();
    EXPECT_EQ(exec_ctx.memory()->current_bytes(), 0u)
        << "Q" << q << " leaked tracked memory on the budget unwind";
    EXPECT_GE(exec_ctx.stats()->budget_denials, 1u) << "Q" << q;

    auto uncapped = RunQuery(&exec_ctx, opt::Scheme::kPlain, q,
                        /*memory_limit=*/0, /*num_threads=*/1);
    ASSERT_TRUE(uncapped.ok())
        << "Q" << q << " rerun after lifting the budget: "
        << uncapped.status().ToString();
    EXPECT_EQ(exec_ctx.memory()->current_bytes(), 0u) << "Q" << q;
  }
}

// The BDCC scheme routes many queries through sandwich operators whose
// working set is intentionally tiny; under a tiny budget each query must
// either succeed or refuse cleanly — and always drain its memory.
TEST(TpchMemoryBudgetTest, BdccQueriesNeverCrashUnderTinyBudget) {
  for (int q = 1; q <= kNumTpchQueries; ++q) {
    exec::ExecContext exec_ctx(nullptr);
    auto result = RunQuery(&exec_ctx, opt::Scheme::kBdcc, q, /*memory_limit=*/1,
                      /*num_threads=*/1);
    if (!result.ok()) {
      EXPECT_TRUE(result.status().IsResourceExhausted())
          << "Q" << q << ": " << result.status().ToString();
    }
    EXPECT_EQ(exec_ctx.memory()->current_bytes(), 0u) << "Q" << q;
  }
}

// Plain hash plans, and BDCC Q9 and Q21, whose parallel sandwich joins park
// finished chunks in ParallelUnion's window. Besides the one-byte budget,
// the BDCC queries get half of their uncapped peak, so a denial can land
// while chunks are running or parked; either way every byte drains.
TEST(TpchMemoryBudgetTest, ParallelPlansRespectTheBudget) {
  const std::pair<opt::Scheme, int> cases[] = {
      {opt::Scheme::kPlain, 1}, {opt::Scheme::kPlain, 3},
      {opt::Scheme::kPlain, 9}, {opt::Scheme::kBdcc, 9},
      {opt::Scheme::kBdcc, 21}};
  for (auto [scheme, q] : cases) {
    SCOPED_TRACE("Q" + std::to_string(q) + " on " + opt::SchemeName(scheme));
    exec::ExecContext exec_ctx(nullptr);
    auto capped = RunQuery(&exec_ctx, scheme, q, /*memory_limit=*/1,
                      /*num_threads=*/4);
    ASSERT_FALSE(capped.ok());
    EXPECT_TRUE(capped.status().IsResourceExhausted())
        << capped.status().ToString();
    EXPECT_EQ(exec_ctx.memory()->current_bytes(), 0u);
    auto uncapped = RunQuery(&exec_ctx, scheme, q,
                        /*memory_limit=*/0, /*num_threads=*/4);
    ASSERT_TRUE(uncapped.ok()) << uncapped.status().ToString();
    if (scheme != opt::Scheme::kBdcc) continue;
    const uint64_t half_peak = exec_ctx.memory()->peak_bytes() / 2;
    for (int round = 0; round < 3; ++round) {
      exec::ExecContext mid_ctx(nullptr);
      auto mid = RunQuery(&mid_ctx, scheme, q, half_peak, /*num_threads=*/4);
      if (!mid.ok()) {
        EXPECT_TRUE(mid.status().IsResourceExhausted())
            << mid.status().ToString();
      }
      EXPECT_EQ(mid_ctx.memory()->current_bytes(), 0u) << "round " << round;
    }
  }
}

// ----------------------------------------------------------- cancellation

TEST(TpchCancelTest, CancelledQueryStopsReleasesAndRearms) {
  exec::ExecContext exec_ctx(nullptr);
  exec_ctx.control()->RequestCancel();
  auto result = RunQuery(&exec_ctx, opt::Scheme::kPlain, 9, /*memory_limit=*/0,
                    /*num_threads=*/4);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  EXPECT_GE(exec_ctx.stats()->morsels_cancelled, 1u);
  EXPECT_EQ(exec_ctx.memory()->current_bytes(), 0u);
  // Rearm the same context: the query (and the shared scheduler it used)
  // must run to completion afterwards.
  exec_ctx.control()->Reset();
  auto rerun = RunQuery(&exec_ctx, opt::Scheme::kPlain, 9, /*memory_limit=*/0,
                   /*num_threads=*/4);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
}

// Cancellation raced from another thread mid-query: whichever side wins the
// query either completes or returns Cancelled — and in both cases tracked
// memory drains and the process stays healthy.
// BDCC Q9 and Q21 run parallel sandwich joins, so a cancel can also land
// while ParallelUnion holds parked chunks.
TEST(TpchCancelTest, MidFlightCancelIsCleanEitherWay) {
  const std::pair<opt::Scheme, int> cases[] = {{opt::Scheme::kPlain, 9},
                                               {opt::Scheme::kBdcc, 9},
                                               {opt::Scheme::kBdcc, 21}};
  for (auto [scheme, q] : cases) {
    for (int round = 0; round < 4; ++round) {
      SCOPED_TRACE("Q" + std::to_string(q) + " on " +
                   opt::SchemeName(scheme) + " round " +
                   std::to_string(round));
      exec::ExecContext exec_ctx(nullptr);
      std::thread canceller([&exec_ctx, round] {
        std::this_thread::sleep_for(std::chrono::microseconds(200 * round));
        exec_ctx.control()->RequestCancel();
      });
      auto result = RunQuery(&exec_ctx, scheme, q, /*memory_limit=*/0,
                        /*num_threads=*/4);
      canceller.join();
      if (!result.ok()) {
        EXPECT_TRUE(result.status().IsCancelled())
            << result.status().ToString();
        EXPECT_GE(exec_ctx.stats()->morsels_cancelled, 1u);
      }
      EXPECT_EQ(exec_ctx.memory()->current_bytes(), 0u);
    }
  }
}

TEST(TpchCancelTest, PastDeadlineReturnsDeadlineExceeded) {
  exec::ExecContext exec_ctx(nullptr);
  exec_ctx.control()->SetDeadline(std::chrono::steady_clock::now() -
                                  std::chrono::milliseconds(1));
  auto result = RunQuery(&exec_ctx, opt::Scheme::kPlain, 1, /*memory_limit=*/0,
                    /*num_threads=*/1);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  EXPECT_EQ(exec_ctx.memory()->current_bytes(), 0u);
}

// ------------------------------------------------------------ fault sweep

// One pass of all 22 queries on both hash-join-heavy (plain) and
// sandwich-heavy (BDCC) plans with injection active: every query must
// either succeed or fail with a clean Status, and tracked memory must
// drain either way. Returns how many queries were aborted by a fault.
int SweepOnce() {
  int failed = 0;
  for (opt::Scheme scheme : {opt::Scheme::kPlain, opt::Scheme::kBdcc}) {
    for (int q = 1; q <= kNumTpchQueries; ++q) {
      exec::ExecContext exec_ctx(nullptr);
      auto result = RunQuery(&exec_ctx, scheme, q, /*memory_limit=*/0,
                        /*num_threads=*/4);
      if (!result.ok()) {
        ++failed;
        EXPECT_FALSE(result.status().ToString().empty());
      }
      EXPECT_EQ(exec_ctx.memory()->current_bytes(), 0u)
          << "Q" << q << " on " << opt::SchemeName(scheme)
          << " leaked tracked memory (status: "
          << result.status().ToString() << ")";
    }
  }
  return failed;
}

TEST(TpchFaultSweepTest, QueriesFailCleanOrSucceedUnderInjection) {
  SharedDb();  // build the fixture before injection is installed
  if (const char* env = std::getenv("BDCC_FAULT_SEED")) {
    // CI drives the seed (and probability) through the environment; the
    // env config is already active for the whole process.
    int failed = SweepOnce();
    std::printf("fault sweep (env seed %s): %d/%d query runs aborted, %llu "
                "faults fired\n",
                env, failed, 2 * kNumTpchQueries,
                static_cast<unsigned long long>(fault::InjectedCount()));
  } else {
    for (uint64_t seed : {1ull, 2ull, 3ull}) {
      fault::ScopedFaultInjection scope(seed, 0.01);
      int failed = SweepOnce();
      std::printf(
          "fault sweep (seed %llu): %d/%d query runs aborted\n",
          static_cast<unsigned long long>(seed), failed,
          2 * kNumTpchQueries);
    }
  }
  // Whatever was injected, the engine is intact: a clean run still works.
  // (Probability 0 masks any env-driven config for this last check.)
  fault::ScopedFaultInjection off(0, 0.0);
  exec::ExecContext exec_ctx(nullptr);
  auto result = RunQuery(&exec_ctx, opt::Scheme::kPlain, 1, /*memory_limit=*/0,
                    /*num_threads=*/4);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

}  // namespace
}  // namespace tpch
}  // namespace bdcc
