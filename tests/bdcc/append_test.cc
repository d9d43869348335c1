// Insert maintenance: appended tuples merge into the clustered order and
// the result is indistinguishable from rebuilding from scratch.
#include "bdcc/append.h"

#include "bdcc/binning.h"
#include "bdcc/scatter_scan.h"
#include "catalog/catalog.h"
#include "common/rng.h"
#include "gtest/gtest.h"

namespace bdcc {
namespace {

class AppendFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_.AddTable({"DIM", {{"d_key", TypeId::kInt32}}, {"d_key"}})
        .AbortIfNotOK();
    catalog_
        .AddTable({"F",
                   {{"f_d", TypeId::kInt32}, {"f_payload", TypeId::kInt64}},
                   {}})
        .AbortIfNotOK();
    catalog_.AddForeignKey({"FK_F_D", "F", {"f_d"}, "DIM", {"d_key"}})
        .AbortIfNotOK();
    Table dim("DIM");
    Column dk(TypeId::kInt32);
    for (int i = 0; i < 64; ++i) dk.AppendInt32(i);
    dim.AddColumn("d_key", std::move(dk)).AbortIfNotOK();
    tables_.emplace("DIM", std::move(dim));

    tables_.emplace("F", MakeRows(0, 5000));
    dimension_ = std::make_shared<const Dimension>(
        binning::CreateRangeDimension("D", "DIM", "d_key", 0, 63, 6)
            .ValueOrDie());
  }

  Table MakeRows(int64_t seed, int n) {
    Rng rng(100 + seed);
    Table f("F");
    Column fd(TypeId::kInt32), payload(TypeId::kInt64);
    for (int i = 0; i < n; ++i) {
      fd.AppendInt32(static_cast<int32_t>(rng.Uniform(0, 63)));
      payload.AppendInt64(seed * 1000000 + i);
    }
    f.AddColumn("f_d", std::move(fd)).AbortIfNotOK();
    f.AddColumn("f_payload", std::move(payload)).AbortIfNotOK();
    return f;
  }

  class Resolver : public TableResolver {
   public:
    Resolver(const std::map<std::string, Table>* t,
             const catalog::Catalog* c)
        : t_(t), c_(c) {}
    Result<const Table*> GetTable(const std::string& name) const override {
      auto it = t_->find(name);
      if (it == t_->end()) return Status::NotFound(name);
      return &it->second;
    }
    Result<const catalog::ForeignKey*> GetForeignKey(
        const std::string& id) const override {
      return c_->GetForeignKey(id);
    }

   private:
    const std::map<std::string, Table>* t_;
    const catalog::Catalog* c_;
  };

  BdccTable Build(const Table& source) {
    std::vector<DimensionUse> uses(1);
    uses[0].dimension = dimension_;
    uses[0].path.fk_ids = {"FK_F_D"};
    Resolver resolver(&tables_, &catalog_);
    BdccBuildOptions options;
    options.tuning.efficient_access_bytes = 256;
    return BuildBdccTable(source.Clone(), uses, resolver, options)
        .ValueOrDie();
  }

  catalog::Catalog catalog_;
  std::map<std::string, Table> tables_;
  DimensionPtr dimension_;
};

TEST_F(AppendFixture, MergedTableStaysSortedAndCounted) {
  BdccTable table = Build(tables_.at("F"));
  uint64_t before = table.logical_rows();
  Table extra = MakeRows(7, 1200);
  Resolver resolver(&tables_, &catalog_);
  AppendStats stats =
      AppendToBdccTable(&table, extra, resolver).ValueOrDie();
  EXPECT_EQ(stats.rows_appended, 1200u);
  EXPECT_GE(stats.groups_after, stats.groups_before);
  EXPECT_EQ(table.logical_rows(), before + 1200);
  // Sorted on the key.
  const auto& keys = table.data().column(table.bdcc_column_index()).i64();
  for (size_t i = 1; i < keys.size(); ++i) {
    ASSERT_LE(keys[i - 1], keys[i]);
  }
  // Count table covers everything.
  uint64_t covered = 0;
  for (const GroupRange& r : PlanNaturalScan(table)) {
    covered += r.row_end - r.row_begin;
  }
  EXPECT_EQ(covered, before + 1200);
}

TEST_F(AppendFixture, AppendEquivalentToRebuild) {
  BdccTable incremental = Build(tables_.at("F"));
  Table extra = MakeRows(9, 800);
  Resolver resolver(&tables_, &catalog_);
  ASSERT_TRUE(AppendToBdccTable(&incremental, extra, resolver).ok());

  Table all = tables_.at("F").Clone();
  all.AppendRowsFrom(extra, 0, extra.num_rows());
  BdccTable rebuilt = Build(all);

  ASSERT_EQ(incremental.logical_rows(), rebuilt.logical_rows());
  // Same keys in the same order (stable merge == stable sort of the union
  // when appended rows come last, as here).
  const auto& ka = incremental.data().column(incremental.bdcc_column_index()).i64();
  const auto& kb = rebuilt.data().column(rebuilt.bdcc_column_index()).i64();
  EXPECT_EQ(ka, kb);
  // Same per-group payload multisets: compare sorted payload within groups.
  const auto& pa = incremental.data().ColumnByName("f_payload").i64();
  const auto& pb = rebuilt.data().ColumnByName("f_payload").i64();
  std::vector<int64_t> sa(pa), sb(pb);
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  EXPECT_EQ(sa, sb);
}

TEST_F(AppendFixture, ValidatesInputs) {
  BdccTable table = Build(tables_.at("F"));
  Resolver resolver(&tables_, &catalog_);
  // Wrong name: dimension paths can't anchor.
  Table wrong("NOT_F");
  Column a(TypeId::kInt32), b(TypeId::kInt64);
  a.AppendInt32(1);
  b.AppendInt64(1);
  wrong.AddColumn("f_d", std::move(a)).AbortIfNotOK();
  wrong.AddColumn("f_payload", std::move(b)).AbortIfNotOK();
  EXPECT_FALSE(AppendToBdccTable(&table, wrong, resolver).ok());
  // Wrong schema width.
  Table narrow("F");
  Column c(TypeId::kInt32);
  c.AppendInt32(1);
  narrow.AddColumn("f_d", std::move(c)).AbortIfNotOK();
  EXPECT_FALSE(AppendToBdccTable(&table, narrow, resolver).ok());
  // Empty append is a no-op.
  Table empty = MakeRows(1, 0);
  AppendStats stats = AppendToBdccTable(&table, empty, resolver).ValueOrDie();
  EXPECT_EQ(stats.rows_appended, 0u);
}

TEST_F(AppendFixture, RepeatedAppendsAccumulate) {
  BdccTable table = Build(tables_.at("F"));
  Resolver resolver(&tables_, &catalog_);
  uint64_t expect = table.logical_rows();
  for (int round = 0; round < 5; ++round) {
    Table extra = MakeRows(20 + round, 300);
    ASSERT_TRUE(AppendToBdccTable(&table, extra, resolver).ok());
    expect += 300;
    EXPECT_EQ(table.logical_rows(), expect);
  }
  // Groups never exceed the count-granularity bound.
  EXPECT_LE(table.count_table().num_groups(),
            uint64_t{1} << table.count_bits());
}

// A local dimension (empty FK path) bins the table's own column, so an
// appended row's key comes from its own value: stored rows hold the lower
// half of f_d's domain, appended rows the upper, and the appended table must
// equal a from-scratch build over every row (whose resolver's F is that
// union).
using AppendTest = AppendFixture;

TEST_F(AppendTest, LocalDimensionKeysComeFromAppendedRows) {
  auto rows_in = [](int64_t seed, int n, int64_t lo) {
    Rng rng(300 + seed);
    Table f("F");
    Column fd(TypeId::kInt32), payload(TypeId::kInt64);
    for (int i = 0; i < n; ++i) {
      fd.AppendInt32(static_cast<int32_t>(rng.Uniform(lo, lo + 31)));
      payload.AppendInt64(seed * 1000000 + i);
    }
    f.AddColumn("f_d", std::move(fd)).AbortIfNotOK();
    f.AddColumn("f_payload", std::move(payload)).AbortIfNotOK();
    return f;
  };
  std::vector<DimensionUse> uses(1);
  uses[0].dimension = std::make_shared<const Dimension>(
      binning::CreateRangeDimension("D_F", "F", "f_d", 0, 63, 6)
          .ValueOrDie());
  BdccBuildOptions options;
  options.tuning.efficient_access_bytes = 256;
  auto build = [&](const Table& source) {
    std::map<std::string, Table> tables;
    tables.emplace("F", source.Clone());
    Resolver resolver(&tables, &catalog_);
    return BuildBdccTable(source.Clone(), uses, resolver, options)
        .ValueOrDie();
  };

  Table stored = rows_in(1, 5000, 0);
  Table extra = rows_in(2, 100, 32);
  BdccTable appended = build(stored);
  {
    std::map<std::string, Table> tables;
    tables.emplace("F", stored.Clone());
    Resolver resolver(&tables, &catalog_);
    ASSERT_TRUE(AppendToBdccTable(&appended, extra, resolver).ok());
  }
  Table all = stored.Clone();
  all.AppendRowsFrom(extra, 0, extra.num_rows());
  BdccTable rebuilt = build(all);

  const int key = appended.bdcc_column_index();
  EXPECT_EQ(appended.data().column(key).i64(),
            rebuilt.data().column(key).i64());
  EXPECT_EQ(appended.data().ColumnByName("f_payload").i64(),
            rebuilt.data().ColumnByName("f_payload").i64());
}

// A string FK is refused: the parent's and the child's dictionaries intern
// the names in different orders, so matching their codes would bind rows to
// unrelated parents.
TEST_F(AppendTest, StringForeignKeyIsNotImplemented) {
  catalog::Catalog catalog;
  catalog
      .AddTable({"P",
                 {{"p_name", TypeId::kString}, {"p_val", TypeId::kInt32}},
                 {"p_name"}})
      .AbortIfNotOK();
  catalog.AddTable({"C", {{"c_name", TypeId::kString}}, {}}).AbortIfNotOK();
  catalog.AddForeignKey({"FK_C_P", "C", {"c_name"}, "P", {"p_name"}})
      .AbortIfNotOK();
  Table parent("P");
  {
    Column name(TypeId::kString), val(TypeId::kInt32);
    for (int i = 7; i >= 0; --i) {
      name.AppendString("n" + std::to_string(i));
      val.AppendInt32(7 - i);
    }
    parent.AddColumn("p_name", std::move(name)).AbortIfNotOK();
    parent.AddColumn("p_val", std::move(val)).AbortIfNotOK();
  }
  Table child("C");
  {
    Column name(TypeId::kString);
    for (int i = 0; i < 8; ++i) name.AppendString("n" + std::to_string(i));
    child.AddColumn("c_name", std::move(name)).AbortIfNotOK();
  }
  std::map<std::string, Table> tables;
  tables.emplace("P", parent.Clone());
  Resolver resolver(&tables, &catalog);
  std::vector<DimensionUse> uses(1);
  uses[0].dimension = std::make_shared<const Dimension>(
      binning::CreateRangeDimension("D_P", "P", "p_val", 0, 7, 3)
          .ValueOrDie());
  uses[0].path.fk_ids = {"FK_C_P"};

  Status status = ComputeBinColumn(child, uses[0], resolver).status();
  EXPECT_EQ(status.code(), StatusCode::kNotImplemented) << status.ToString();
  BdccBuildOptions options;
  status = BuildBdccTable(child.Clone(), uses, resolver, options).status();
  EXPECT_EQ(status.code(), StatusCode::kNotImplemented) << status.ToString();
}

}  // namespace
}  // namespace bdcc
