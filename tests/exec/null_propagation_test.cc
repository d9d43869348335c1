// Null-mask propagation audit: NULLs born in left-outer joins must survive
// Gather/AppendFrom hops, flow through value expressions (arithmetic, CASE,
// YEAR) as NULLs, be skipped by aggregates, and group into a dedicated
// null group when they are the GROUP BY key — through full
// filter -> outer-join -> aggregate chains.
#include <limits>
#include <memory>

#include "exec/expr.h"
#include "exec/filter.h"
#include "exec/hash_agg.h"
#include "exec/hash_join.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "gtest/gtest.h"

namespace bdcc {
namespace exec {
namespace {

// LEFT table: ids 0..9; RIGHT table: even ids only, with a payload.
Table LeftTable() {
  Table t("L");
  Column id(TypeId::kInt32), grp(TypeId::kString);
  for (int i = 0; i < 10; ++i) {
    id.AppendInt32(i);
    grp.AppendString(i < 5 ? "lo" : "hi");
  }
  t.AddColumn("id", std::move(id)).AbortIfNotOK();
  t.AddColumn("grp", std::move(grp)).AbortIfNotOK();
  return t;
}

Table RightTable() {
  Table t("R");
  Column id(TypeId::kInt32), pay(TypeId::kInt64), d(TypeId::kDate);
  for (int i = 0; i < 10; i += 2) {
    id.AppendInt32(i);
    pay.AppendInt64(i * 100);
    d.AppendDate(DaysFromCivil(2000 + i, 1, 1));
  }
  t.AddColumn("rid", std::move(id)).AbortIfNotOK();
  t.AddColumn("pay", std::move(pay)).AbortIfNotOK();
  t.AddColumn("d", std::move(d)).AbortIfNotOK();
  return t;
}

OperatorPtr OuterJoinPlan(const Table& l, const Table& r) {
  auto left = std::make_unique<SegmentScan>(
      &l, std::vector<std::string>{"id", "grp"});
  auto right = std::make_unique<SegmentScan>(
      &r, std::vector<std::string>{"rid", "pay", "d"});
  return std::make_unique<HashJoin>(std::move(left), std::move(right),
                                    std::vector<std::string>{"id"},
                                    std::vector<std::string>{"rid"},
                                    JoinType::kLeftOuter);
}

TEST(NullPropagationTest, GatherAndAppendPreserveMasks) {
  ColumnVector v(TypeId::kInt64);
  v.i64 = {1, 2, 3};
  v.nulls = {0, 1, 0};
  ColumnVector g = v.Gather({1, 2, 1});
  ASSERT_TRUE(g.HasNulls());
  EXPECT_EQ(g.nulls, (std::vector<uint8_t>{1, 0, 1}));
  ColumnVector a(TypeId::kInt64);
  a.AppendFrom(v, 0);
  a.AppendFrom(v, 1);
  a.AppendFrom(g, 0);
  EXPECT_FALSE(a.IsNull(0));
  EXPECT_TRUE(a.IsNull(1));
  EXPECT_TRUE(a.IsNull(2));
}

TEST(NullPropagationTest, ValueExpressionsPropagateNulls) {
  Table l = LeftTable();
  Table r = RightTable();
  ExecContext ctx(nullptr);
  OperatorPtr join = OuterJoinPlan(l, r);
  std::vector<Project::NamedExpr> exprs;
  exprs.push_back({"id", Col("id")});
  exprs.push_back({"pay2", Mul(Col("pay"), LitI64(2))});
  exprs.push_back({"year", Year(Col("d"))});
  exprs.push_back({"branch", CaseWhen(Lt(Col("id"), Lit(Value::Int32(100))),
                                      Col("pay"), LitI64(-1))});
  exprs.push_back({"fallback", Coalesce(Col("pay"), LitI64(-7))});
  Project project(std::move(join), std::move(exprs));
  Batch out = CollectAll(&project, &ctx).ValueOrDie();
  ASSERT_EQ(out.num_rows, 10u);
  for (size_t i = 0; i < out.num_rows; ++i) {
    bool odd = out.columns[0].i32[i] % 2 != 0;
    // Odd ids had no right match: every derived value must be NULL, and
    // COALESCE must observe the NULL.
    EXPECT_EQ(out.columns[1].IsNull(i), odd) << "pay*2 row " << i;
    EXPECT_EQ(out.columns[2].IsNull(i), odd) << "YEAR row " << i;
    EXPECT_EQ(out.columns[3].IsNull(i), odd) << "CASE row " << i;
    EXPECT_FALSE(out.columns[4].IsNull(i));
    if (odd) {
      EXPECT_EQ(out.columns[4].i64[i], -7);
    } else {
      EXPECT_EQ(out.columns[4].i64[i], out.columns[0].i32[i] * 100);
    }
  }
}

TEST(NullPropagationTest, AggregatesSkipDerivedNulls) {
  Table l = LeftTable();
  Table r = RightTable();
  ExecContext ctx(nullptr);
  OperatorPtr join = OuterJoinPlan(l, r);
  // SUM/COUNT/AVG/MIN/MAX over pay*2: only matched (even) rows count. With
  // the old mask-dropping arithmetic, unmatched rows contributed zeros to
  // the count.
  HashAgg agg(std::move(join), {"grp"},
              {AggSum(Mul(Col("pay"), LitI64(2)), "s"),
               AggCount(Mul(Col("pay"), LitI64(2)), "c"),
               AggCountStar("n"), AggMin(Col("pay"), "mn"),
               AggMax(Col("pay"), "mx")});
  Batch out = CollectAll(&agg, &ctx).ValueOrDie();
  ASSERT_EQ(out.num_rows, 2u);
  for (size_t i = 0; i < out.num_rows; ++i) {
    bool lo = out.columns[0].GetString(i) == "lo";
    // lo: ids 0..4, matched 0,2,4 -> sum 2*(0+200+400)=1200, count 3.
    // hi: ids 5..9, matched 6,8 -> sum 2*(600+800)=2800, count 2.
    EXPECT_EQ(out.columns[1].i64[i], lo ? 1200 : 2800);
    EXPECT_EQ(out.columns[2].i64[i], lo ? 3 : 2);
    EXPECT_EQ(out.columns[3].i64[i], 5);  // COUNT(*) keeps outer rows
    EXPECT_EQ(out.columns[4].i64[i], lo ? 0 : 600);
    EXPECT_EQ(out.columns[5].i64[i], lo ? 400 : 800);
  }
}

TEST(NullPropagationTest, NullKeysFormTheirOwnGroup) {
  Table l = LeftTable();
  Table r = RightTable();
  // GROUP BY the (nullable) right payload after a left-outer join: the 5
  // unmatched rows must form ONE null group — not merge into the pay=0
  // group (the old behaviour of the int fast path).
  ExecContext ctx(nullptr);
  OperatorPtr join = OuterJoinPlan(l, r);
  HashAgg agg(std::move(join), {"pay"}, {AggCountStar("n")});
  Batch out = CollectAll(&agg, &ctx).ValueOrDie();
  // Groups: pay 0,200,400,600,800 (1 row each) + NULL (5 rows).
  ASSERT_EQ(out.num_rows, 6u);
  int64_t null_count = 0, zero_count = 0;
  for (size_t i = 0; i < out.num_rows; ++i) {
    if (out.columns[0].IsNull(i)) {
      null_count = out.columns[1].i64[i];
    } else if (out.columns[0].i64[i] == 0) {
      zero_count = out.columns[1].i64[i];
    }
  }
  EXPECT_EQ(null_count, 5);
  EXPECT_EQ(zero_count, 1);
}

TEST(NullPropagationTest, FilterOuterJoinAggChainWithSel) {
  Table l = LeftTable();
  Table r = RightTable();
  // filter (id >= 2, via scan pushdown w/ selection vectors)
  //   -> left outer join -> aggregate.
  ExecContext ctx(nullptr);
  auto left = std::make_unique<SegmentScan>(
      &l, std::vector<std::string>{"id", "grp"},
      std::vector<ScanPredicate>{
          {"id", ValueRange{Value::Int32(2), std::nullopt}}});
  left->EnableRowFilter(true);
  auto right = std::make_unique<SegmentScan>(
      &r, std::vector<std::string>{"rid", "pay", "d"});
  auto join = std::make_unique<HashJoin>(
      std::move(left), std::move(right), std::vector<std::string>{"id"},
      std::vector<std::string>{"rid"}, JoinType::kLeftOuter);
  HashAgg agg(std::move(join), {"grp"},
              {AggSum(Col("pay"), "s"), AggCount(Col("pay"), "c"),
               AggCountStar("n")});
  Batch a = CollectAll(&agg, &ctx).ValueOrDie();
  ASSERT_EQ(a.num_rows, 2u);
  for (size_t i = 0; i < a.num_rows; ++i) {
    bool lo = a.columns[0].GetString(i) == "lo";
    // lo now ids 2..4 (matched 2,4): sum 600, count 2, rows 3.
    // hi ids 5..9 (matched 6,8): sum 1400, count 2, rows 5.
    EXPECT_EQ(a.columns[1].i64[i], lo ? 600 : 1400);
    EXPECT_EQ(a.columns[2].i64[i], 2);
    EXPECT_EQ(a.columns[3].i64[i], lo ? 3 : 5);
  }
}

TEST(NullPropagationTest, PackedNullTuplesStayDistinctGroups) {
  Table l = LeftTable();
  Table r = RightTable();
  // GROUP BY (grp, pay): packed two-column keys where pay is NULL for
  // unmatched rows. ("lo", NULL) and ("hi", NULL) must stay separate
  // groups, distinct from any non-null pay group.
  ExecContext ctx(nullptr);
  OperatorPtr join = OuterJoinPlan(l, r);
  HashAgg agg(std::move(join), {"grp", "pay"}, {AggCountStar("n")});
  Batch out = CollectAll(&agg, &ctx).ValueOrDie();
  // lo: pays {0,200,400} + NULL x2; hi: pays {600,800} + NULL x3.
  ASSERT_EQ(out.num_rows, 7u);
  int64_t lo_null = -1, hi_null = -1;
  for (size_t i = 0; i < out.num_rows; ++i) {
    if (!out.columns[1].IsNull(i)) {
      EXPECT_EQ(out.columns[2].i64[i], 1);
      continue;
    }
    if (out.columns[0].GetString(i) == "lo") {
      lo_null = out.columns[2].i64[i];
    } else {
      hi_null = out.columns[2].i64[i];
    }
  }
  EXPECT_EQ(lo_null, 2);
  EXPECT_EQ(hi_null, 3);
}

TEST(NullPropagationTest, ScanPushdownOutOfRangeBoundMatchesNothing) {
  // A pushed-down bound outside the int32 domain must not clamp into it
  // and admit the boundary value.
  Table t("B");
  Column c(TypeId::kInt32);
  c.AppendInt32(std::numeric_limits<int32_t>::max());
  c.AppendInt32(std::numeric_limits<int32_t>::min());
  c.AppendInt32(0);
  t.AddColumn("x", std::move(c)).AbortIfNotOK();
  ExecContext ctx(nullptr);
  SegmentScan scan(
      &t, {"x"},
      {{"x", ValueRange{Value::Int64(3000000000LL), std::nullopt}}});
  scan.EnableRowFilter(true);
  Batch out = CollectAll(&scan, &ctx).ValueOrDie();
  EXPECT_EQ(out.num_rows, 0u);

  ExecContext ctx2(nullptr);
  SegmentScan scan2(
      &t, {"x"},
      {{"x", ValueRange{std::nullopt, Value::Int64(-3000000000LL)}}});
  scan2.EnableRowFilter(true);
  Batch out2 = CollectAll(&scan2, &ctx2).ValueOrDie();
  EXPECT_EQ(out2.num_rows, 0u);
}

TEST(NullPropagationTest, PredicatesTreatNullAsFalse) {
  Table l = LeftTable();
  Table r = RightTable();
  ExecContext ctx(nullptr);
  // WHERE pay >= 0 after the outer join keeps only matched rows; NOT and
  // IN over NULL inputs must not resurrect them.
  OperatorPtr join = OuterJoinPlan(l, r);
  Filter filter(std::move(join), Ge(Col("pay"), LitI64(0)));
  Batch out = CollectAll(&filter, &ctx).ValueOrDie();
  EXPECT_EQ(out.num_rows, 5u);

  ExecContext ctx2(nullptr);
  OperatorPtr join2 = OuterJoinPlan(l, r);
  Filter filter2(std::move(join2), InInts(Col("pay"), {0, 200, 999}));
  Batch out2 = CollectAll(&filter2, &ctx2).ValueOrDie();
  EXPECT_EQ(out2.num_rows, 2u);

  ExecContext ctx3(nullptr);
  OperatorPtr join3 = OuterJoinPlan(l, r);
  Filter filter3(std::move(join3), IsNull(Col("pay")));
  Batch out3 = CollectAll(&filter3, &ctx3).ValueOrDie();
  EXPECT_EQ(out3.num_rows, 5u);
}

TEST(NullPropagationTest, NotOverNullPredicateStaysUnknown) {
  // SQL three-valued logic: NOT(UNKNOWN) is UNKNOWN, so NOT(pay = 0) must
  // reject NULL-pay rows exactly like pay <> 0 does — NOT must not turn
  // the null-as-false fold into null-as-true.
  Table l = LeftTable();
  Table r = RightTable();
  ExecContext ctx(nullptr);
  OperatorPtr join = OuterJoinPlan(l, r);
  Filter negated_eq(std::move(join), Not(Eq(Col("pay"), LitI64(0))));
  Batch out = CollectAll(&negated_eq, &ctx).ValueOrDie();

  ExecContext ctx2(nullptr);
  OperatorPtr join2 = OuterJoinPlan(l, r);
  Filter ne(std::move(join2), Ne(Col("pay"), LitI64(0)));
  Batch out2 = CollectAll(&ne, &ctx2).ValueOrDie();
  EXPECT_EQ(out.num_rows, out2.num_rows);
  EXPECT_EQ(out.num_rows, 4u);  // matched rows with pay != 0 only

  // NOT IN: NULL IN (...) is UNKNOWN, so NOT(IN) drops NULL rows too.
  ExecContext ctx3(nullptr);
  OperatorPtr join3 = OuterJoinPlan(l, r);
  Filter not_in(std::move(join3), Not(InInts(Col("pay"), {0, 200})));
  Batch out3 = CollectAll(&not_in, &ctx3).ValueOrDie();
  EXPECT_EQ(out3.num_rows, 3u);  // pay in {400, 600, 800}

  // Connectives: TRUE OR UNKNOWN keeps the row, AND with UNKNOWN drops it,
  // and NOT over the OR result stays UNKNOWN for NULL rows.
  ExecContext ctx4(nullptr);
  OperatorPtr join4 = OuterJoinPlan(l, r);
  Filter or_true(std::move(join4),
                 Or(Ge(Col("id"), LitI64(0)), Eq(Col("pay"), LitI64(0))));
  Batch out4 = CollectAll(&or_true, &ctx4).ValueOrDie();
  EXPECT_EQ(out4.num_rows, 10u);  // id >= 0 is TRUE for every row

  ExecContext ctx5(nullptr);
  OperatorPtr join5 = OuterJoinPlan(l, r);
  Filter not_or(std::move(join5),
                Not(Or(Eq(Col("pay"), LitI64(0)), Eq(Col("pay"), LitI64(200)))));
  Batch out5 = CollectAll(&not_or, &ctx5).ValueOrDie();
  EXPECT_EQ(out5.num_rows, 3u);  // pay in {400, 600, 800}; NULLs stay out
}

}  // namespace
}  // namespace exec
}  // namespace bdcc
