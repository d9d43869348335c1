// Figure 3's claim at test scale: sandwich plans keep BDCC's memory low at
// any thread count. Parallel plans may hold more than serial ones (thread-
// local aggregate partials, probe clones and the sandwich chunks waiting in
// ParallelUnion's window), but BDCC's summed tracked peak over the 22
// queries at num_threads 2 and 4 stays within twice the serial sum. An
// all-at-once union, which buffers every chunk's output, held 2.5x and
// 3.0x on this database.
#include <cstdint>
#include <memory>

#include "gtest/gtest.h"
#include "tpch/tpch_db.h"
#include "tpch/tpch_queries.h"

namespace bdcc {
namespace tpch {
namespace {

uint64_t SummedPeakBytes(const TpchDb& db, int num_threads) {
  uint64_t total = 0;
  for (int q = 1; q <= kNumTpchQueries; ++q) {
    exec::ExecContext exec_ctx(nullptr);
    QueryContext ctx;
    ctx.db = &db.db(opt::Scheme::kBdcc);
    ctx.exec = &exec_ctx;
    ctx.scale_factor = db.options().scale_factor;
    ctx.planner.num_threads = num_threads;
    auto result = RunTpchQuery(q, ctx);
    EXPECT_TRUE(result.ok()) << "Q" << q << " threads " << num_threads << ": "
                             << result.status().ToString();
    total += exec_ctx.memory()->peak_bytes();
  }
  return total;
}

TEST(TpchMemoryGuardTest, BdccThreadedPeaksStayWithinTwiceSerial) {
  TpchDbOptions options;
  options.scale_factor = 0.005;
  options.seed = 1;
  options.build_plain = false;
  options.build_pk = false;
  std::unique_ptr<TpchDb> db = TpchDb::Create(options).ValueOrDie();
  const uint64_t serial = SummedPeakBytes(*db, 1);
  ASSERT_GT(serial, 0u);
  for (int threads : {2, 4}) {
    const uint64_t parallel = SummedPeakBytes(*db, threads);
    EXPECT_LE(parallel, 2 * serial)
        << "threads " << threads << ": " << parallel << " bytes against "
        << serial << " serial";
  }
}

}  // namespace
}  // namespace tpch
}  // namespace bdcc
