// Scan operators: zone-map skipping, group-tagged emission, batch
// coalescing, and I/O accounting through the buffer pool.
#include "exec/scan.h"

#include "bdcc/binning.h"
#include "catalog/catalog.h"
#include "common/bits.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "opt/planner.h"

namespace bdcc {
namespace exec {
namespace {

class NoFkResolver : public TableResolver {
 public:
  explicit NoFkResolver(const Table* t) : t_(t) {}
  Result<const Table*> GetTable(const std::string& name) const override {
    if (name == t_->name()) return t_;
    return Status::NotFound(name);
  }
  Result<const catalog::ForeignKey*> GetForeignKey(
      const std::string& id) const override {
    return Status::NotFound(id);
  }

 private:
  const Table* t_;
};

Table SortedTable(uint64_t rows) {
  Table t("T");
  Column k(TypeId::kInt32), v(TypeId::kFloat64);
  for (uint64_t i = 0; i < rows; ++i) {
    k.AppendInt32(static_cast<int32_t>(i));
    v.AppendFloat64(static_cast<double>(i) * 0.5);
  }
  t.AddColumn("k", std::move(k)).AbortIfNotOK();
  t.AddColumn("v", std::move(v)).AbortIfNotOK();
  t.BuildZoneMaps(100);
  return t;
}

TEST(PlainScanTest, EmitsAllRows) {
  Table t = SortedTable(2500);
  ExecContext ctx(nullptr);
  SegmentScan scan(&t, {"k", "v"});
  uint64_t rows = 0;
  int32_t expect = 0;
  ASSERT_TRUE(scan.Open(&ctx).ok());
  while (true) {
    Batch b = scan.Next(&ctx).ValueOrDie();
    if (b.empty()) break;
    for (size_t i = 0; i < b.num_rows; ++i) {
      EXPECT_EQ(b.columns[0].i32_data()[i], expect++);
    }
    rows += b.num_rows;
    EXPECT_LE(b.num_rows, ctx.batch_size());
  }
  EXPECT_EQ(rows, 2500u);
  EXPECT_EQ(ctx.stats()->rows_scanned, 2500u);
}

TEST(PlainScanTest, ZoneSkipping) {
  Table t = SortedTable(1000);  // 10 zones of 100 sorted values
  ExecContext ctx(nullptr);
  SegmentScan scan(&t, {"k"},
                   {{"k", ValueRange{Value::Int32(250), Value::Int32(349)}}});
  ASSERT_TRUE(scan.Open(&ctx).ok());
  uint64_t rows = 0;
  while (true) {
    Batch b = scan.Next(&ctx).ValueOrDie();
    if (b.empty()) break;
    rows += b.num_rows;
  }
  // Zones 2 and 3 survive: 200 rows read, 8 zones skipped. (Row-level
  // filtering is the planner's Filter, not the scan.)
  EXPECT_EQ(rows, 200u);
  EXPECT_EQ(ctx.stats()->zones_skipped, 8u);
}

TEST(PlainScanTest, ChargesBufferPoolIo) {
  Table t = SortedTable(10000);
  io::DeviceModel dev{io::DeviceProfile::SsdRaid0()};
  io::BufferPool pool(&dev, 1ull << 30);
  t.RegisterWithBufferPool(&pool);
  ExecContext ctx(&pool);
  SegmentScan scan(&t, {"k", "v"});
  ASSERT_TRUE(scan.Open(&ctx).ok());
  while (!scan.Next(&ctx).ValueOrDie().empty()) {
  }
  EXPECT_GT(dev.stats().bytes_read, 100000u);  // 40KB + 80KB of columns
  // Pool-less context: no charges.
  io::IoStats before = dev.stats();
  ExecContext ctx2(nullptr);
  SegmentScan scan2(&t, {"k"});
  ASSERT_TRUE(scan2.Open(&ctx2).ok());
  while (!scan2.Next(&ctx2).ValueOrDie().empty()) {
  }
  EXPECT_EQ(dev.stats().bytes_read, before.bytes_read);
}

class BdccScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    source_ = std::make_unique<Table>(Table("T"));
    Column k(TypeId::kInt32), v(TypeId::kFloat64);
    Rng rng(3);
    for (int i = 0; i < 20000; ++i) {
      k.AppendInt32(static_cast<int32_t>(rng.Uniform(0, 1023)));
      v.AppendFloat64(rng.NextDouble());
    }
    source_->AddColumn("k", std::move(k)).AbortIfNotOK();
    source_->AddColumn("v", std::move(v)).AbortIfNotOK();
    auto dim = binning::CreateRangeDimension("D", "T", "k", 0, 1023, 5)
                   .ValueOrDie();
    std::vector<DimensionUse> uses(1);
    uses[0].dimension = std::make_shared<const Dimension>(std::move(dim));
    NoFkResolver resolver(source_.get());
    BdccBuildOptions options;
    options.tuning.efficient_access_bytes = 2048;
    table_ = std::make_unique<BdccTable>(
        BuildBdccTable(source_->Clone(), uses, resolver, options)
            .ValueOrDie());
  }

  std::unique_ptr<Table> source_;
  std::unique_ptr<BdccTable> table_;
};

TEST_F(BdccScanTest, NaturalScanCoversEverything) {
  ExecContext ctx(nullptr);
  // Batches of 700 rows cut most 1024-row zones in two: each zone still
  // counts once.
  ctx.set_batch_size(700);
  SegmentScan scan(
      &table_->data(), {"k", "v"}, {},
      opt::GroupSegments(*table_,
                         {{&table_->data(), PlanNaturalScan(*table_)}}));
  ASSERT_TRUE(scan.Open(&ctx).ok());
  uint64_t rows = 0;
  while (true) {
    Batch b = scan.Next(&ctx).ValueOrDie();
    if (b.empty()) break;
    EXPECT_EQ(b.group_id, -1);  // ungrouped scan
    rows += b.num_rows;
  }
  EXPECT_EQ(rows, 20000u);
  const Table& data = table_->data();
  EXPECT_EQ(ctx.stats()->zones_read,
            (data.num_rows() + data.zone_rows() - 1) / data.zone_rows());
  EXPECT_EQ(ctx.stats()->zones_skipped, 0u);
}

TEST_F(BdccScanTest, GroupedEmissionIsAlignedAndAscending) {
  int own_bits = bits::Ones(table_->ReducedMask(0));
  ASSERT_GT(own_bits, 1);
  int shared = own_bits - 1;  // coarser than the table's own granularity
  ExecContext ctx(nullptr);
  SegmentScan scan(
      &table_->data(), {"k"}, {},
      opt::GroupSegments(*table_, {{&table_->data(), PlanNaturalScan(*table_)}},
                         {{0, shared}}));
  ASSERT_TRUE(scan.Open(&ctx).ok());
  int64_t prev = -1;
  uint64_t rows = 0;
  while (true) {
    Batch b = scan.Next(&ctx).ValueOrDie();
    if (b.empty()) break;
    ASSERT_GE(b.group_id, 0);     // tagged
    ASSERT_GE(b.group_id, prev);  // ascending; never mixes ids in a batch
    prev = b.group_id;
    // Every row's dimension bin prefix matches the batch's group id.
    for (size_t i = 0; i < b.num_rows; ++i) {
      uint64_t bin = table_->uses()[0].dimension->BinOfInt(
          b.columns[0].i32_data()[i]);
      int dim_bits = table_->uses()[0].dimension->bits();
      EXPECT_EQ(static_cast<int64_t>(bin >> (dim_bits - shared)), b.group_id);
    }
    rows += b.num_rows;
  }
  EXPECT_EQ(rows, 20000u);
}

TEST_F(BdccScanTest, PrunedRangesSkipRows) {
  // Restrict dimension bins to the top half.
  uint64_t lo, hi;
  ASSERT_TRUE(table_->BinRangeToGroupPrefix(
      0, uint64_t{1} << (table_->uses()[0].dimension->bits() - 1),
      (uint64_t{1} << table_->uses()[0].dimension->bits()) - 1, &lo, &hi));
  auto ranges =
      FilterGroupsByPrefix(*table_, PlanNaturalScan(*table_), 0, lo, hi);
  ExecContext ctx(nullptr);
  SegmentScan scan(&table_->data(), {"k"}, {},
                   opt::GroupSegments(*table_,
                                      {{&table_->data(), std::move(ranges)}}),
                   99);
  ASSERT_TRUE(scan.Open(&ctx).ok());
  uint64_t rows = 0;
  while (true) {
    Batch b = scan.Next(&ctx).ValueOrDie();
    if (b.empty()) break;
    for (size_t i = 0; i < b.num_rows; ++i) {
      EXPECT_GE(b.columns[0].i32_data()[i], 512);
    }
    rows += b.num_rows;
  }
  EXPECT_GT(rows, 8000u);
  EXPECT_LT(rows, 12000u);
  EXPECT_EQ(ctx.stats()->groups_pruned, 99u);  // planner-provided count
}

TEST_F(BdccScanTest, ZonePredicatesSkipWithinClustering) {
  // The table is clustered on k, so zones are selective for k-ranges.
  ExecContext ctx(nullptr);
  SegmentScan scan(
      &table_->data(), {"k"},
      {{"k", ValueRange{Value::Int32(0), Value::Int32(99)}}},
      opt::GroupSegments(*table_,
                         {{&table_->data(), PlanNaturalScan(*table_)}}));
  ASSERT_TRUE(scan.Open(&ctx).ok());
  uint64_t rows = 0;
  while (true) {
    Batch b = scan.Next(&ctx).ValueOrDie();
    if (b.empty()) break;
    rows += b.num_rows;
  }
  EXPECT_LT(rows, 5000u);  // most zones skipped
  EXPECT_GT(ctx.stats()->zones_skipped, 10u);

  // Grouped on a coarse prefix, group boundaries fall inside zones. A zone
  // the zone map rules out is skipped even where it straddles two group
  // ranges, so exactly the zones that may match are read, each once.
  const Table& data = table_->data();
  ValueRange range{Value::Int32(0), Value::Int32(99)};
  int k_col = data.ColumnIndex("k").ValueOrDie();
  uint64_t may_zones = 0, may_rows = 0, zones = 0;
  for (uint64_t begin = 0; begin < data.num_rows();
       begin += data.zone_rows(), ++zones) {
    if (!data.zone_map(k_col).MayMatch(zones, range)) continue;
    may_zones += 1;
    may_rows += std::min<uint64_t>(data.zone_rows(), data.num_rows() - begin);
  }
  int shared = bits::Ones(table_->ReducedMask(0)) - 1;
  ExecContext grouped_ctx(nullptr);
  grouped_ctx.set_batch_size(700);
  SegmentScan grouped(
      &data, {"k"}, {{"k", range}},
      opt::GroupSegments(*table_, {{&table_->data(), PlanNaturalScan(*table_)}},
                         {{0, shared}}));
  ASSERT_TRUE(CollectAll(&grouped, &grouped_ctx).ok());
  EXPECT_EQ(grouped_ctx.stats()->rows_scanned, may_rows);
  EXPECT_EQ(grouped_ctx.stats()->zones_read, may_zones);
  EXPECT_EQ(grouped_ctx.stats()->zones_skipped, zones - may_zones);
}

}  // namespace
}  // namespace exec
}  // namespace bdcc
