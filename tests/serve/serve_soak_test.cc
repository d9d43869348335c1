// Fault-injection soak of the serving layer (runs in the CI fault job:
// ctest -R "FaultSweep" with BDCC_FAULT_SEED in the environment).
//
// Concurrent TPC-H streams are served through one QueryRunner while seeded
// faults fire at the retryable points — memory.alloc (budget charges fail),
// scheduler.delay (task interleavings perturbed), scheduler.inject
// (admission dispatch fails) — and the test asserts the serving contract:
// every query terminates in exactly one of {ok, shed, cancelled,
// exhausted-after-K-retries}, no query leaves tracked bytes behind, and
// the global pool drains to zero after the streams join.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "gtest/gtest.h"
#include "serve/query_runner.h"
#include "tpch/tpch_db.h"
#include "tpch/tpch_queries.h"

namespace bdcc {
namespace serve {
namespace {

// Built before any injection scope is installed (see lifecycle_test.cc).
tpch::TpchDb* SharedDb() {
  static std::unique_ptr<tpch::TpchDb> db = [] {
    tpch::TpchDbOptions options;
    options.scale_factor = 0.003;
    options.seed = 7;
    options.build_plain = false;
    options.build_pk = false;
    return tpch::TpchDb::Create(options).ValueOrDie();
  }();
  return db.get();
}

struct SoakTally {
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> cancelled{0};
  std::atomic<uint64_t> exhausted{0};
  std::atomic<uint64_t> undefined{0};
  std::atomic<uint64_t> leaked{0};
};

// One soak round: 4 streams x 6 queries against a deliberately tight
// runner (small pool, small first budgets, short queues) so shedding and
// retries happen even before faults land on top.
void RunSoak(SoakTally* tally) {
  RunnerConfig config;
  config.admission.of(QueryClass::kInteractive) = {1, 1, 100.0};
  config.admission.of(QueryClass::kBatch) = {1, 1, 100.0};
  config.pool_bytes = 1 << 20;
  config.default_budget_bytes = 32 << 10;
  config.max_retries = 2;
  config.backoff_base_ms = 1.0;
  config.backoff_max_ms = 4.0;
  QueryRunner runner(config);
  tpch::TpchDb* db = SharedDb();

  std::vector<std::thread> streams;
  for (int s = 0; s < 4; ++s) {
    streams.emplace_back([&, s] {
      const bool interactive = s % 2 == 0;
      const int interactive_mix[] = {6, 12, 14};
      const int batch_mix[] = {1, 9, 18};
      QueryClass cls =
          interactive ? QueryClass::kInteractive : QueryClass::kBatch;
      for (int i = 0; i < 6; ++i) {
        int q = interactive ? interactive_mix[i % 3] : batch_mix[i % 3];
        QueryReport report = runner.Execute(
            cls,
            [&](exec::ExecContext* ctx,
                uint64_t budget) -> Result<exec::Batch> {
              tpch::QueryContext qc;
              qc.db = &db->db(opt::Scheme::kBdcc);
              qc.exec = ctx;
              qc.scale_factor = db->options().scale_factor;
              qc.planner.memory_limit_bytes = budget;
              qc.planner.num_threads = 2;
              return tpch::RunTpchQuery(q, qc);
            });
        if (report.leaked_bytes != 0) tally->leaked.fetch_add(1);
        switch (report.outcome) {
          case Outcome::kOk:
            tally->ok.fetch_add(1);
            break;
          case Outcome::kShed:
            tally->shed.fetch_add(1);
            break;
          case Outcome::kCancelled:
            tally->cancelled.fetch_add(1);
            break;
          case Outcome::kExhausted:
            tally->exhausted.fetch_add(1);
            break;
          default:
            ADD_FAILURE() << "undefined outcome for Q" << q << ": "
                          << report.status.ToString();
            tally->undefined.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : streams) t.join();
  EXPECT_EQ(runner.pool().reserved(), 0u)
      << "serving pool did not drain to zero";
}

TEST(ServeFaultSweepTest, ConcurrentStreamsTerminateDefinedUnderFaults) {
  SharedDb();  // build the fixture before injection is installed

  uint64_t base_seed = 101;
  if (const char* env = std::getenv("BDCC_FAULT_SEED")) {
    // CI varies the seed; reuse it so each sweep explores a different
    // fault sequence. The point restriction below still applies: only the
    // retryable points are exercised, which is what makes the four-state
    // assertion sound (scan.decode faults would surface as legitimate
    // kError outcomes).
    base_seed = static_cast<uint64_t>(std::atoll(env));
    if (base_seed == 0) base_seed = 101;
  }

  struct Phase {
    const char* point;
    double probability;
  };
  const Phase phases[] = {
      {fault::kAlloc, 0.05},
      {fault::kTaskDelay, 0.2},
      {fault::kSchedulerInject, 0.1},
  };
  SoakTally tally;
  for (const Phase& phase : phases) {
    fault::ScopedFaultInjection scope(base_seed, phase.probability,
                                      phase.point);
    RunSoak(&tally);
  }

  uint64_t total = tally.ok.load() + tally.shed.load() +
                   tally.cancelled.load() + tally.exhausted.load() +
                   tally.undefined.load();
  EXPECT_EQ(total, 3u * 4 * 6) << "a query vanished without a terminal state";
  EXPECT_EQ(tally.undefined.load(), 0u);
  EXPECT_EQ(tally.leaked.load(), 0u)
      << "queries reported undrained tracked memory";
  EXPECT_GT(tally.ok.load(), 0u) << "soak config too tight: nothing finished";
  std::printf(
      "serve soak (seed %llu): ok=%llu shed=%llu cancelled=%llu "
      "exhausted=%llu, %llu faults fired\n",
      static_cast<unsigned long long>(base_seed),
      static_cast<unsigned long long>(tally.ok.load()),
      static_cast<unsigned long long>(tally.shed.load()),
      static_cast<unsigned long long>(tally.cancelled.load()),
      static_cast<unsigned long long>(tally.exhausted.load()),
      static_cast<unsigned long long>(fault::InjectedCount()));

  // Whatever was injected, the serving layer is intact: with injection
  // masked, a clean query still completes on a fresh runner.
  fault::ScopedFaultInjection off(0, 0.0);
  RunnerConfig config;
  config.pool_bytes = 64 << 20;
  QueryRunner runner(config);
  tpch::TpchDb* db = SharedDb();
  QueryReport report = runner.Execute(
      QueryClass::kInteractive,
      [&](exec::ExecContext* ctx, uint64_t budget) -> Result<exec::Batch> {
        tpch::QueryContext qc;
        qc.db = &db->db(opt::Scheme::kBdcc);
        qc.exec = ctx;
        qc.scale_factor = db->options().scale_factor;
        qc.planner.memory_limit_bytes = budget;
        return tpch::RunTpchQuery(6, qc);
      });
  ASSERT_EQ(report.outcome, Outcome::kOk) << report.status.ToString();
}

}  // namespace
}  // namespace serve
}  // namespace bdcc
