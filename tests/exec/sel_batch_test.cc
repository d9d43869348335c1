// Selection vectors & late materialization: the Batch::sel contract, scan
// predicate pushdown (selection emission, sparse gathering, zone-map
// composition), Filter selection composition and the density gate, batch
// recycling, and sel-carrying inputs through aggregation and join — each
// checked against a hand-computed row loop over the table.
#include <limits>
#include <map>
#include <memory>

#include "bdcc/bdcc_table.h"
#include "bdcc/binning.h"
#include "catalog/catalog.h"
#include "common/rng.h"
#include "exec/expr.h"
#include "exec/filter.h"
#include "exec/hash_agg.h"
#include "exec/hash_join.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "gtest/gtest.h"
#include "opt/planner.h"
#include "tests/test_util.h"

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

Table MixedTable(uint64_t rows, uint64_t seed = 3) {
  Rng rng(seed);
  Table t("T");
  Column k(TypeId::kInt32), v(TypeId::kFloat64), s(TypeId::kString),
      w(TypeId::kInt64);
  const char* tags[] = {"alpha", "beta", "gamma", "delta"};
  for (uint64_t i = 0; i < rows; ++i) {
    k.AppendInt32(static_cast<int32_t>(rng.Uniform(0, 999)));
    v.AppendFloat64(rng.NextDouble());
    s.AppendString(tags[rng.Uniform(0, 3)]);
    w.AppendInt64(static_cast<int64_t>(i));
  }
  t.AddColumn("k", std::move(k)).AbortIfNotOK();
  t.AddColumn("v", std::move(v)).AbortIfNotOK();
  t.AddColumn("s", std::move(s)).AbortIfNotOK();
  t.AddColumn("w", std::move(w)).AbortIfNotOK();
  t.BuildZoneMaps(128);
  return t;
}

// ---------------- Batch mechanics ----------------

TEST(BatchSelTest, RowAtDensityCompact) {
  Batch b;
  ColumnVector c(TypeId::kInt32);
  c.i32 = {10, 20, 30, 40};
  ColumnVector n(TypeId::kInt64);
  n.i64 = {1, 2, 3, 4};
  n.nulls = {0, 1, 0, 1};
  b.columns = {std::move(c), std::move(n)};
  b.num_rows = 2;
  b.sel = {1, 3};
  EXPECT_TRUE(b.has_sel());
  EXPECT_EQ(b.physical_rows(), 4u);
  EXPECT_EQ(b.RowAt(0), 1u);
  EXPECT_EQ(b.RowAt(1), 3u);
  EXPECT_DOUBLE_EQ(b.density(), 0.5);
  b.Compact();
  EXPECT_FALSE(b.has_sel());
  EXPECT_EQ(b.physical_rows(), 2u);
  EXPECT_EQ(b.columns[0].i32, (std::vector<int32_t>{20, 40}));
  // Null masks gather along with the lanes.
  EXPECT_EQ(b.columns[1].nulls, (std::vector<uint8_t>{1, 1}));
}

TEST(BatchSelTest, ExprLeavesDensifyUnderSel) {
  Batch b;
  ColumnVector c(TypeId::kInt32);
  c.i32 = {1, 2, 3, 4, 5};
  b.columns = {std::move(c)};
  b.num_rows = 2;
  b.sel = {0, 4};
  Schema schema({{"k", TypeId::kInt32}});
  ExprPtr e = Add(Col("k"), LitI64(100));
  ASSERT_TRUE(e->Bind(schema).ok());
  ColumnVector out = e->Eval(b).ValueOrDie();
  ASSERT_EQ(out.i64.size(), 2u);
  EXPECT_EQ(out.i64[0], 101);
  EXPECT_EQ(out.i64[1], 105);
}

// Hand-computed reference: the `cols` of every row of `t` that `keep`
// accepts, in storage order.
template <typename Keep>
Batch RowLoop(const Table& t, const std::vector<std::string>& cols,
              Keep keep) {
  Batch out;
  std::vector<const Column*> src;
  for (const std::string& c : cols) {
    src.push_back(&t.ColumnByName(c));
    out.columns.emplace_back(src.back()->type());
    out.columns.back().dict = src.back()->dict();
  }
  for (uint64_t r = 0; r < t.num_rows(); ++r) {
    if (!keep(r)) continue;
    for (size_t c = 0; c < src.size(); ++c) {
      out.columns[c].AppendFromStorage(*src[c], r);
    }
    ++out.num_rows;
  }
  return out;
}

// ---------------- Scan pushdown ----------------

TEST(ScanPushdownTest, MatchesLegacyFilterAcrossSelectivities) {
  Table t = MixedTable(10000);
  struct Case {
    int32_t lo, hi;
  } cases[] = {{0, 0}, {0, 9}, {100, 349}, {0, 899}, {0, 999}};
  for (const Case& c : cases) {
    ExecContext ctx(nullptr);
    SegmentScan scan(
        &t, {"k", "v", "s", "w"},
        {{"k", ValueRange{Value::Int32(c.lo), Value::Int32(c.hi)}}});
    scan.EnableRowFilter(true);
    Batch expect = RowLoop(t, {"k", "v", "s", "w"}, [&](uint64_t r) {
      int32_t k = t.column(0).i32()[r];
      return k >= c.lo && k <= c.hi;
    });
    testutil::ExpectBatchesEqual(expect, CollectAll(&scan, &ctx).ValueOrDie(),
                                 "lo=" + std::to_string(c.lo));
  }
}

TEST(ScanPushdownTest, StringPredicateBindsCodesOnce) {
  Table t = MixedTable(5000);
  ExecContext ctx(nullptr);
  SegmentScan scan(&t, {"s", "w"},
                   {{"s", ValueRange{Value::String("beta"),
                                     Value::String("beta")}}});
  scan.EnableRowFilter(true);
  Batch got = CollectAll(&scan, &ctx).ValueOrDie();
  uint64_t expect = 0;
  for (uint64_t r = 0; r < t.num_rows(); ++r) {
    if (t.column(2).GetString(r) == "beta") ++expect;
  }
  EXPECT_EQ(got.num_rows, expect);
  for (size_t i = 0; i < got.num_rows; ++i) {
    EXPECT_EQ(got.columns[0].GetString(i), "beta");
  }
  EXPECT_GT(ctx.stats()->rows_filtered_at_scan, 0u);
}

TEST(ScanPushdownTest, FloatNaNMatchesLegacyComparatorSemantics) {
  // NaN must behave identically in the pushdown kernel and the Filter
  // comparator (where NaN compares as "greater"): it passes
  // lower-bound-only predicates and fails predicates with an upper bound.
  Table t("F");
  Column v(TypeId::kFloat64);
  v.AppendFloat64(0.5);
  v.AppendFloat64(std::numeric_limits<double>::quiet_NaN());
  v.AppendFloat64(2.0);
  t.AddColumn("v", std::move(v)).AbortIfNotOK();

  auto run = [&](std::optional<Value> lo, std::optional<Value> hi,
                 bool pushdown) {
    ExecContext ctx(nullptr);
    auto scan = std::make_unique<SegmentScan>(
        &t, std::vector<std::string>{"v"},
        std::vector<ScanPredicate>{{"v", ValueRange{lo, hi}}});
    scan->EnableRowFilter(pushdown);
    if (pushdown) return CollectAll(scan.get(), &ctx).ValueOrDie();
    std::vector<ExprPtr> conjuncts;
    if (lo) conjuncts.push_back(Ge(Col("v"), Lit(*lo)));
    if (hi) conjuncts.push_back(Le(Col("v"), Lit(*hi)));
    Filter filter(std::move(scan), AndAll(conjuncts));
    return CollectAll(&filter, &ctx).ValueOrDie();
  };
  for (bool pushdown : {true, false}) {
    // Lower bound only: 0.5, NaN and 2.0 pass (the comparator quirk).
    EXPECT_EQ(run(Value::Float64(0.1), std::nullopt, pushdown).num_rows, 3u)
        << "pushdown=" << pushdown;
    // Upper bound present: 0.5 and 2.0 pass; NaN is dropped.
    EXPECT_EQ(
        run(Value::Float64(0.1), Value::Float64(3.0), pushdown).num_rows, 2u)
        << "pushdown=" << pushdown;
  }
}

TEST(ScanPushdownTest, FilteredRowsCountedInStats) {
  Table t = MixedTable(4000);
  ExecContext ctx(nullptr);
  SegmentScan scan(&t, {"k"},
                   {{"k", ValueRange{Value::Int32(0), Value::Int32(99)}}});
  scan.EnableRowFilter(true);
  Batch got = CollectAll(&scan, &ctx).ValueOrDie();
  EXPECT_EQ(ctx.stats()->rows_scanned,
            got.num_rows + ctx.stats()->rows_filtered_at_scan);
}

TEST(ScanPushdownTest, BdccScanPushdownMatchesLegacy) {
  Table t = MixedTable(8000);
  Table copy = t.Clone();
  auto dim = binning::CreateRangeDimension("D_K", "T", "k", 0, 999, 6)
                 .ValueOrDie();
  std::vector<DimensionUse> uses(1);
  uses[0].dimension = std::make_shared<const Dimension>(std::move(dim));
  NoFkResolver resolver(&t);
  BdccTable bt =
      BuildBdccTable(std::move(copy), uses, resolver, {}).ValueOrDie();

  auto run = [&](bool row_filter) {
    ExecContext ctx(nullptr);
    auto scan = std::make_unique<SegmentScan>(
        &bt.data(), std::vector<std::string>{"k", "v", "w"},
        std::vector<ScanPredicate>{
            {"k", ValueRange{Value::Int32(120), Value::Int32(380)}}},
        opt::GroupSegments(bt, {{&bt.data(), PlanNaturalScan(bt)}}));
    scan->EnableRowFilter(row_filter);
    if (row_filter) {
      return CollectAll(scan.get(), &ctx).ValueOrDie();
    }
    Filter filter(std::move(scan),
                  Between(Col("k"), Lit(Value::Int32(120)),
                          Lit(Value::Int32(380))));
    return CollectAll(&filter, &ctx).ValueOrDie();
  };
  Batch expect = RowLoop(t, {"k", "v", "w"}, [&](uint64_t r) {
    int32_t k = t.column(0).i32()[r];
    return k >= 120 && k <= 380;
  });
  ASSERT_GT(expect.num_rows, 0u);
  testutil::ExpectBatchesEqual(expect, run(true), "bdcc pushdown");
  testutil::ExpectBatchesEqual(expect, run(false), "bdcc filter");
}

// ---------------- Filter selection composition ----------------

TEST(FilterSelTest, ComposesWithScanSelection) {
  Table t = MixedTable(6000);
  // Scan keeps k < 500 (densely selected -> sel batches); Filter keeps even
  // w. The two selections must compose.
  ExecContext ctx(nullptr);
  auto scan = std::make_unique<SegmentScan>(
      &t, std::vector<std::string>{"k", "w"},
      std::vector<ScanPredicate>{
          {"k", ValueRange{Value::Int32(0), Value::Int32(499)}}});
  scan->EnableRowFilter(true);
  Filter filter(std::move(scan),
                Eq(Sub(Col("w"), Mul(Div(Col("w"), LitI64(2)), LitI64(2))),
                   LitI64(0)));
  Batch got = CollectAll(&filter, &ctx).ValueOrDie();
  uint64_t expect = 0;
  for (uint64_t r = 0; r < t.num_rows(); ++r) {
    if (t.column(0).i32()[r] < 500 && t.column(3).i64()[r] % 2 == 0) ++expect;
  }
  EXPECT_EQ(got.num_rows, expect);
  for (size_t i = 0; i < got.num_rows; ++i) {
    EXPECT_LT(got.columns[0].i32[i], 500);
    EXPECT_EQ(got.columns[1].i64[i] % 2, 0);
  }
}

TEST(FilterSelTest, DensityGateCompactsSparseBatches) {
  Table t = MixedTable(4000);
  ExecContext ctx(nullptr);
  // ~1% selectivity: far below kCompactDensity, so emitted batches must be
  // compacted even with sel enabled.
  auto scan = std::make_unique<SegmentScan>(&t, std::vector<std::string>{"k"});
  Filter filter(std::move(scan), Lt(Col("k"), Lit(Value::Int32(10))));
  ASSERT_TRUE(filter.Open(&ctx).ok());
  while (true) {
    Batch b = filter.Next(&ctx).ValueOrDie();
    if (b.empty()) break;
    EXPECT_FALSE(b.has_sel());
  }
  filter.Close(&ctx);

  // ~90% selectivity: above the gate, batches carry a selection.
  ExecContext ctx2(nullptr);
  auto scan2 = std::make_unique<SegmentScan>(&t, std::vector<std::string>{"k"});
  Filter filter2(std::move(scan2), Lt(Col("k"), Lit(Value::Int32(900))));
  ASSERT_TRUE(filter2.Open(&ctx2).ok());
  bool saw_sel = false;
  while (true) {
    Batch b = filter2.Next(&ctx2).ValueOrDie();
    if (b.empty()) break;
    saw_sel |= b.has_sel();
  }
  filter2.Close(&ctx2);
  EXPECT_TRUE(saw_sel);
}

// ---------------- Recycling ----------------

TEST(RecycleTest, ScanReusesReturnedBatches) {
  Table t = MixedTable(10000);
  ExecContext ctx(nullptr);
  SegmentScan scan(&t, {"k", "v", "w"});
  ASSERT_TRUE(scan.Open(&ctx).ok());
  uint64_t rows = 0;
  int64_t expect_w = 0;
  while (true) {
    Batch b = scan.Next(&ctx).ValueOrDie();
    if (b.empty()) break;
    for (size_t i = 0; i < b.num_rows; ++i) {
      ASSERT_EQ(b.columns[2].i64_data()[i], expect_w++);
    }
    rows += b.num_rows;
    scan.Recycle(std::move(b));
  }
  EXPECT_EQ(rows, t.num_rows());
}

TEST(RecycleTest, TypeMismatchedBatchesAreDropped) {
  Table t = MixedTable(100);
  ExecContext ctx(nullptr);
  SegmentScan scan(&t, {"k"});
  ASSERT_TRUE(scan.Open(&ctx).ok());
  Batch wrong;
  wrong.columns.emplace_back(TypeId::kFloat64);
  scan.Recycle(std::move(wrong));  // silently dropped, must not corrupt
  Batch b = scan.Next(&ctx).ValueOrDie();
  EXPECT_EQ(b.columns[0].type, TypeId::kInt32);
}

// ---------------- Sel-aware blocking operators ----------------

// Aggregation and join over sel-carrying inputs must return the
// hand-computed answer.
TEST(SelAwareOperatorsTest, AggAndJoinAgreeWithCompactMode) {
  Table t = MixedTable(8000);
  const std::vector<int32_t>& k = t.column(0).i32();
  {
    ExecContext ctx(nullptr);
    auto scan = std::make_unique<SegmentScan>(
        &t, std::vector<std::string>{"k", "v", "s"},
        std::vector<ScanPredicate>{
            {"k", ValueRange{Value::Int32(0), Value::Int32(599)}}});
    scan->EnableRowFilter(true);
    HashAgg agg(std::move(scan), {"s"},
                {AggSum(Col("v"), "sv"), AggCountStar("n"),
                 AggMin(Col("k"), "mn"), AggMax(Col("k"), "mx")});
    Batch got = CollectAll(&agg, &ctx).ValueOrDie();
    struct Group {
      double sv = 0;
      int64_t n = 0;
      int32_t mn = 1 << 30, mx = -1;
    };
    std::map<std::string, Group> groups;
    for (uint64_t r = 0; r < t.num_rows(); ++r) {
      if (k[r] > 599) continue;
      Group& g = groups[std::string(t.column(2).GetString(r))];
      g.sv += t.column(1).f64()[r];
      ++g.n;
      g.mn = std::min(g.mn, k[r]);
      g.mx = std::max(g.mx, k[r]);
    }
    Batch expect;
    expect.columns = {ColumnVector(TypeId::kString),
                      ColumnVector(TypeId::kFloat64),
                      ColumnVector(TypeId::kInt64),
                      ColumnVector(TypeId::kInt32),
                      ColumnVector(TypeId::kInt32)};
    for (const auto& [s, g] : groups) {
      expect.columns[0].i32.push_back(expect.columns[0].InternString(s));
      expect.columns[1].f64.push_back(g.sv);
      expect.columns[2].i64.push_back(g.n);
      expect.columns[3].i32.push_back(g.mn);
      expect.columns[4].i32.push_back(g.mx);
    }
    expect.num_rows = groups.size();
    ASSERT_GT(expect.num_rows, 0u);
    testutil::ExpectBatchesEqual(expect, got, "agg");
  }

  {
    ExecContext ctx(nullptr);
    auto probe = std::make_unique<SegmentScan>(
        &t, std::vector<std::string>{"k", "w"},
        std::vector<ScanPredicate>{
            {"k", ValueRange{Value::Int32(0), Value::Int32(499)}}});
    probe->EnableRowFilter(true);
    auto build = std::make_unique<SegmentScan>(
        &t, std::vector<std::string>{"k", "v"},
        std::vector<ScanPredicate>{
            {"k", ValueRange{Value::Int32(300), Value::Int32(799)}}});
    build->EnableRowFilter(true);
    auto build_renamed =
        Project::Rename(std::move(build), {{"k", "bk"}, {"v", "bv"}});
    HashJoin join(std::move(probe), std::move(build_renamed), {"k"}, {"bk"},
                  JoinType::kInner);
    Batch got = CollectAll(&join, &ctx).ValueOrDie();
    // Output: probe (k, w) ++ build (bk, bv) for every equal-key pair.
    Batch expect;
    expect.columns = {ColumnVector(TypeId::kInt32),
                      ColumnVector(TypeId::kInt64),
                      ColumnVector(TypeId::kInt32),
                      ColumnVector(TypeId::kFloat64)};
    std::multimap<int32_t, uint64_t> build_rows;
    for (uint64_t r = 0; r < t.num_rows(); ++r) {
      if (k[r] >= 300 && k[r] <= 799) build_rows.emplace(k[r], r);
    }
    for (uint64_t p = 0; p < t.num_rows(); ++p) {
      if (k[p] > 499) continue;
      auto [lo, hi] = build_rows.equal_range(k[p]);
      for (auto it = lo; it != hi; ++it) {
        expect.columns[0].i32.push_back(k[p]);
        expect.columns[1].i64.push_back(t.column(3).i64()[p]);
        expect.columns[2].i32.push_back(k[it->second]);
        expect.columns[3].f64.push_back(t.column(1).f64()[it->second]);
        ++expect.num_rows;
      }
    }
    ASSERT_GT(expect.num_rows, 0u);
    testutil::ExpectBatchesEqual(expect, got, "join");
  }
}

// String group-by via the dict-code path and packed two-column keys must
// agree with results computed through a reference double-check.
TEST(SelAwareOperatorsTest, StringAndPackedGroupByCorrect) {
  Table t = MixedTable(5000);
  ExecContext ctx(nullptr);
  auto scan = std::make_unique<SegmentScan>(
      &t, std::vector<std::string>{"k", "s", "w"});
  HashAgg agg(std::move(scan), {"s"}, {AggCountStar("n")});
  Batch got = CollectAll(&agg, &ctx).ValueOrDie();
  // Reference counts.
  std::map<std::string, int64_t> expect;
  for (uint64_t r = 0; r < t.num_rows(); ++r) {
    expect[std::string(t.column(2).GetString(r))]++;
  }
  ASSERT_EQ(got.num_rows, expect.size());
  for (size_t i = 0; i < got.num_rows; ++i) {
    EXPECT_EQ(got.columns[1].i64[i],
              expect[std::string(got.columns[0].GetString(i))])
        << got.columns[0].GetString(i);
  }

  // Packed (string, i32-bucket) pair.
  ExecContext ctx2(nullptr);
  auto scan2 = std::make_unique<SegmentScan>(
      &t, std::vector<std::string>{"k", "s", "w"});
  auto bucketed = std::make_unique<Project>(
      std::move(scan2),
      std::vector<Project::NamedExpr>{
          {"s", Col("s")},
          {"b", Year(LitDate("1995-01-01"))},  // constant i32 column
          {"w", Col("w")}});
  HashAgg agg2(std::move(bucketed), {"s", "b"}, {AggCountStar("n")});
  Batch got2 = CollectAll(&agg2, &ctx2).ValueOrDie();
  EXPECT_EQ(got2.num_rows, expect.size());  // b is constant
}

}  // namespace
}  // namespace exec
}  // namespace bdcc
