// Morsel-driven parallel execution: morsel plans partition the input
// exactly, morsel-restricted scan clones cover every row exactly once, and
// the parallel blocking operators (ParallelHashAgg, ParallelHashJoin,
// ParallelUnion) agree with their single-threaded counterparts.
#include "exec/parallel.h"

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/task_scheduler.h"
#include "exec/hash_agg.h"
#include "exec/hash_join.h"
#include "exec/morsel.h"
#include "exec/scan.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace bdcc {
namespace exec {
namespace {

Table MakeTable(uint64_t rows, uint32_t zone_rows) {
  Rng rng(11);
  Table t("T");
  Column k(TypeId::kInt32), g(TypeId::kInt32), v(TypeId::kFloat64);
  for (uint64_t i = 0; i < rows; ++i) {
    k.AppendInt32(static_cast<int32_t>(i));
    g.AppendInt32(static_cast<int32_t>(rng.Uniform(0, 9)));
    v.AppendFloat64(rng.NextDouble());
  }
  t.AddColumn("k", std::move(k)).AbortIfNotOK();
  t.AddColumn("g", std::move(g)).AbortIfNotOK();
  t.AddColumn("v", std::move(v)).AbortIfNotOK();
  if (zone_rows > 0) t.BuildZoneMaps(zone_rows);
  return t;
}

TEST(MorselTest, RowMorselsPartitionAndAlign) {
  std::vector<Morsel> morsels = MakeRowMorsels(10240, 100, 1000);
  ASSERT_FALSE(morsels.empty());
  uint64_t expect_begin = 0;
  for (const Morsel& m : morsels) {
    EXPECT_EQ(m.begin, expect_begin);
    EXPECT_GT(m.end, m.begin);
    EXPECT_EQ(m.begin % 100, 0u);  // zone aligned
    expect_begin = m.end;
  }
  EXPECT_EQ(morsels.back().end, 10240u);
}

TEST(MorselTest, RangeMorselsNeverSplitARange) {
  std::vector<GroupRange> ranges;
  for (uint64_t i = 0; i < 57; ++i) {
    ranges.push_back(GroupRange{i, i * 100, i * 100 + 100});
  }
  std::vector<Morsel> morsels = MakeRangeMorsels(ranges, 1000);
  uint64_t expect = 0;
  for (const Morsel& m : morsels) {
    EXPECT_EQ(m.begin, expect);
    expect = m.end;
  }
  EXPECT_EQ(expect, ranges.size());
}

// Three strided scan clones over one morsel plan must emit each row exactly
// once in total.
TEST(MorselTest, StridedPlainScanClonesCoverAllRowsOnce) {
  Table t = MakeTable(5000, 128);
  auto morsels = std::make_shared<const std::vector<Morsel>>(
      MakeRowMorsels(t.num_rows(), 128, 512));
  ASSERT_GE(morsels->size(), 3u);
  std::vector<int> seen(t.num_rows(), 0);
  for (size_t clone = 0; clone < 3; ++clone) {
    ExecContext ctx(nullptr);
    SegmentScan scan(&t, {"k"}, {}, CloneRowSegments(&t, *morsels, clone, 3));
    ASSERT_TRUE(scan.Open(&ctx).ok());
    while (true) {
      Batch b = scan.Next(&ctx).ValueOrDie();
      if (b.empty()) break;
      for (size_t i = 0; i < b.num_rows; ++i) ++seen[b.columns[0].i32[i]];
    }
  }
  for (uint64_t r = 0; r < t.num_rows(); ++r) {
    ASSERT_EQ(seen[r], 1) << "row " << r;
  }
}

ChainFactory ScanFactory(const Table* t,
                         std::shared_ptr<const std::vector<Morsel>> morsels,
                         std::vector<std::string> cols) {
  return [t, morsels, cols](size_t i,
                            size_t n) -> Result<OperatorPtr> {
    return OperatorPtr(std::make_unique<SegmentScan>(
        t, cols, std::vector<ScanPredicate>{},
        CloneRowSegments(t, *morsels, i, n)));
  };
}

TEST(ParallelHashAggTest, MatchesSerialGroupedAggregate) {
  Table t = MakeTable(20000, 256);
  auto morsels = std::make_shared<const std::vector<Morsel>>(
      MakeRowMorsels(t.num_rows(), 256, 1024));
  std::vector<AggSpec> specs;
  specs.push_back(AggSum(Col("k"), "sum_k"));
  specs.push_back(AggAvg(Col("v"), "avg_v"));
  specs.push_back(AggCountStar("n"));
  specs.push_back(AggMin(Col("k"), "min_k"));
  specs.push_back(AggMax(Col("k"), "max_k"));
  specs.push_back(AggCountDistinct(Col("g"), "dist_g"));

  ExecContext serial_ctx(nullptr);
  HashAgg serial(std::make_unique<SegmentScan>(
                     &t, std::vector<std::string>{"k", "g", "v"}),
                 {"g"}, specs);
  Batch expect = CollectAll(&serial, &serial_ctx).ValueOrDie();

  common::TaskScheduler scheduler(3);
  ExecContext ctx(nullptr);
  ParallelHashAgg parallel(ScanFactory(&t, morsels, {"k", "g", "v"}), 4,
                           {"g"}, specs, &scheduler);
  Batch got = CollectAll(&parallel, &ctx).ValueOrDie();
  testutil::ExpectBatchesEqual(expect, got, "parallel grouped agg");
  EXPECT_EQ(ctx.stats()->rows_scanned, t.num_rows());
}

TEST(ParallelHashAggTest, MatchesSerialScalarAggregate) {
  Table t = MakeTable(20000, 256);
  auto morsels = std::make_shared<const std::vector<Morsel>>(
      MakeRowMorsels(t.num_rows(), 256, 1024));
  std::vector<AggSpec> specs;
  specs.push_back(AggSum(Col("v"), "sum_v"));
  specs.push_back(AggCountStar("n"));

  ExecContext serial_ctx(nullptr);
  HashAgg serial(
      std::make_unique<SegmentScan>(&t, std::vector<std::string>{"v"}), {},
      specs);
  Batch expect = CollectAll(&serial, &serial_ctx).ValueOrDie();

  common::TaskScheduler scheduler(3);
  ExecContext ctx(nullptr);
  ParallelHashAgg parallel(ScanFactory(&t, morsels, {"v"}), 4, {}, specs,
                           &scheduler);
  Batch got = CollectAll(&parallel, &ctx).ValueOrDie();
  ASSERT_EQ(got.num_rows, 1u);
  testutil::ExpectBatchesEqual(expect, got, "parallel scalar agg");
}

// Enough groups to cross kMinPartitionedMergeGroups: the radix-partitioned
// parallel merge must agree with the serial aggregate (and with itself
// across runs, bitwise, for the float sums). COUNT(DISTINCT) merges each
// partition's groups from the sealed partials.
TEST(ParallelHashAggTest, PartitionedMergeMatchesSerialManyGroups) {
  Rng rng(23);
  Table t("T");
  {
    Column g(TypeId::kInt32), v(TypeId::kFloat64), w(TypeId::kInt32);
    for (uint64_t i = 0; i < 60000; ++i) {
      g.AppendInt32(static_cast<int32_t>(rng.Uniform(0, 19999)));
      v.AppendFloat64(rng.NextDouble());
      w.AppendInt32(static_cast<int32_t>(i % 7));
    }
    t.AddColumn("g", std::move(g)).AbortIfNotOK();
    t.AddColumn("v", std::move(v)).AbortIfNotOK();
    t.AddColumn("w", std::move(w)).AbortIfNotOK();
  }
  auto morsels = std::make_shared<const std::vector<Morsel>>(
      MakeRowMorsels(t.num_rows(), 0, 1024));
  std::vector<AggSpec> specs;
  specs.push_back(AggSum(Col("v"), "sum_v"));
  specs.push_back(AggCountStar("n"));
  specs.push_back(AggMax(Col("v"), "max_v"));
  specs.push_back(AggCountDistinct(Col("w"), "dist_w"));

  ExecContext serial_ctx(nullptr);
  HashAgg serial(std::make_unique<SegmentScan>(
                     &t, std::vector<std::string>{"g", "v", "w"}),
                 {"g"}, specs);
  Batch expect = CollectAll(&serial, &serial_ctx).ValueOrDie();
  ASSERT_GT(expect.num_rows, ParallelHashAgg::kMinPartitionedMergeGroups);

  common::TaskScheduler scheduler(3);
  double first_sum = 0;
  for (int run = 0; run < 2; ++run) {
    ExecContext ctx(nullptr);
    ParallelHashAgg parallel(ScanFactory(&t, morsels, {"g", "v", "w"}), 4,
                             {"g"}, specs, &scheduler);
    Batch got = CollectAll(&parallel, &ctx).ValueOrDie();
    testutil::ExpectBatchesEqual(expect, got, "partitioned merge agg");
    double sum = 0;
    for (size_t i = 0; i < got.num_rows; ++i) sum += got.columns[1].f64[i];
    if (run == 0) {
      first_sum = sum;
    } else {
      EXPECT_EQ(first_sum, sum);  // bitwise deterministic across runs
    }
  }
}

// Deterministic: two runs with the same clone count produce bitwise-equal
// float sums (strided morsel assignment + ordered merge).
TEST(ParallelHashAggTest, DeterministicAcrossRuns) {
  Table t = MakeTable(20000, 256);
  auto morsels = std::make_shared<const std::vector<Morsel>>(
      MakeRowMorsels(t.num_rows(), 256, 1024));
  std::vector<AggSpec> specs;
  specs.push_back(AggSum(Col("v"), "sum_v"));
  common::TaskScheduler scheduler(3);
  double first = 0;
  for (int run = 0; run < 3; ++run) {
    ExecContext ctx(nullptr);
    ParallelHashAgg agg(ScanFactory(&t, morsels, {"g", "v"}), 4, {"g"}, specs,
                        &scheduler);
    Batch out = CollectAll(&agg, &ctx).ValueOrDie();
    double sum = 0;
    for (size_t i = 0; i < out.num_rows; ++i) sum += out.columns[1].f64[i];
    if (run == 0) {
      first = sum;
    } else {
      EXPECT_EQ(first, sum);  // bitwise equality
    }
  }
}

TEST(ParallelHashJoinTest, MatchesSerialJoin) {
  Table probe = MakeTable(20000, 256);
  Table build("B");
  {
    Column bk(TypeId::kInt32), bv(TypeId::kInt64);
    for (int32_t i = 0; i < 10; i += 2) {  // even groups only
      bk.AppendInt32(i);
      bv.AppendInt64(i * 100);
    }
    build.AddColumn("bk", std::move(bk)).AbortIfNotOK();
    build.AddColumn("bv", std::move(bv)).AbortIfNotOK();
  }
  auto morsels = std::make_shared<const std::vector<Morsel>>(
      MakeRowMorsels(probe.num_rows(), 256, 1024));
  for (JoinType type : {JoinType::kInner, JoinType::kLeftOuter,
                        JoinType::kLeftSemi, JoinType::kLeftAnti}) {
    ExecContext serial_ctx(nullptr);
    HashJoin serial(
        std::make_unique<SegmentScan>(&probe,
                                      std::vector<std::string>{"k", "g"}),
        std::make_unique<SegmentScan>(&build,
                                      std::vector<std::string>{"bk", "bv"}),
        {"g"}, {"bk"}, type);
    Batch expect = CollectAll(&serial, &serial_ctx).ValueOrDie();

    common::TaskScheduler scheduler(3);
    ExecContext ctx(nullptr);
    ParallelHashJoin parallel(
        ScanFactory(&probe, morsels, {"k", "g"}), 4,
        std::make_unique<SegmentScan>(&build,
                                      std::vector<std::string>{"bk", "bv"}),
        {"g"}, {"bk"}, type, &scheduler);
    Batch got = CollectAll(&parallel, &ctx).ValueOrDie();
    testutil::ExpectBatchesEqual(
        expect, got,
        std::string("parallel hash join ") + JoinTypeName(type));
  }
}

TEST(ParallelUnionTest, ConcatenatesChunkOutputsInOrder) {
  Table t = MakeTable(5000, 128);
  auto morsels = std::make_shared<const std::vector<Morsel>>(
      MakeRowMorsels(t.num_rows(), 128, 512));
  common::TaskScheduler scheduler(3);
  ExecContext ctx(nullptr);
  ParallelUnion u(ScanFactory(&t, morsels, {"k"}), 4, 4, &scheduler);
  Batch all = CollectAll(&u, &ctx).ValueOrDie();
  EXPECT_EQ(all.num_rows, t.num_rows());
  // Chunk order: clone 0's first batch starts at row 0.
  EXPECT_EQ(all.columns[0].i32[0], 0);
}

}  // namespace
}  // namespace exec
}  // namespace bdcc
