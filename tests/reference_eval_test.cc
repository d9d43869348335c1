// The reference evaluator (tests/reference_eval.h) against hand-computed
// answers on small hand-built tables: scans with sargs and residuals,
// three-valued filters, NULL join keys under all four join types, every
// aggregate over NULLs, scalar aggregates over empty input, and sorts.
#include "tests/reference_eval.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace bdcc {
namespace testutil {
namespace {

using exec::Col;
using exec::JoinType;
using opt::LAgg;
using opt::LFilter;
using opt::LJoin;
using opt::LLimit;
using opt::LProject;
using opt::LScan;
using opt::LSort;
using opt::NodePtr;
using reference::Cell;
using reference::Row;

// A: a_id a_ref grp          B: b_key b_val
//    1    10    lo              10    1.5
//    2    20    lo              20    2.5
//    3    30    hi              20    3.5
//    4    40    hi              50    9.0
class ReferenceEvalTest : public ::testing::Test {
 protected:
  ReferenceEvalTest() {
    Column a_id(TypeId::kInt32), a_ref(TypeId::kInt32), grp(TypeId::kString);
    const char* grps[] = {"lo", "lo", "hi", "hi"};
    for (int i = 0; i < 4; ++i) {
      a_id.AppendInt32(i + 1);
      a_ref.AppendInt32(10 * (i + 1));
      grp.AppendString(grps[i]);
    }
    a_.AddColumn("a_id", std::move(a_id)).AbortIfNotOK();
    a_.AddColumn("a_ref", std::move(a_ref)).AbortIfNotOK();
    a_.AddColumn("grp", std::move(grp)).AbortIfNotOK();
    Column b_key(TypeId::kInt32), b_val(TypeId::kFloat64);
    const std::pair<int32_t, double> rows[] = {
        {10, 1.5}, {20, 2.5}, {20, 3.5}, {50, 9.0}};
    for (auto [k, v] : rows) {
      b_key.AppendInt32(k);
      b_val.AppendFloat64(v);
    }
    b_.AddColumn("b_key", std::move(b_key)).AbortIfNotOK();
    b_.AddColumn("b_val", std::move(b_val)).AbortIfNotOK();
  }

  exec::Batch Eval(const NodePtr& plan) {
    auto result = EvaluateReference(plan, [this](const std::string& name) {
      return name == "A" ? &a_ : name == "B" ? &b_ : nullptr;
    });
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(result).value() : exec::Batch();
  }

  // A left-outer B on a_ref = b_key: ids 3 and 4 get NULL b_key/b_val.
  //   (1,10,lo,10,1.5) (2,20,lo,20,2.5) (2,20,lo,20,3.5)
  //   (3,30,hi,N,N)    (4,40,hi,N,N)
  static NodePtr OuterAB() {
    return LJoin(LScan("A", {"a_id", "a_ref", "grp"}),
                 LScan("B", {"b_key", "b_val"}), JoinType::kLeftOuter,
                 {"a_ref"}, {"b_key"});
  }

  Table a_{"A"};
  Table b_{"B"};
};

exec::Batch Expected(const std::vector<exec::Field>& fields,
                     const std::vector<Row>& rows) {
  return reference::ToBatch(exec::Schema(fields), rows.data(), rows.size());
}

Cell I32(int32_t v) { return Value::Int32(v); }
Cell I64(int64_t v) { return Value::Int64(v); }
Cell F64(double v) { return Value::Float64(v); }
Cell Str(const char* s) { return Value::String(s); }
const Cell kNull;

TEST_F(ReferenceEvalTest, ScanSargsResidualAndProject) {
  NodePtr plan = LScan("A", {"a_id", "a_ref"},
                       {opt::SargRange("a_ref", Value::Int32(20),
                                       Value::Int32(40))},
                       exec::Ne(Col("a_id"), exec::LitI64(3)));
  plan = LProject(plan, {{"twice", exec::Mul(Col("a_id"), exec::LitI64(2))}});
  ExpectBatchesEqual(
      Expected({{"twice", TypeId::kInt64}}, {{I64(4)}, {I64(8)}}), Eval(plan),
      "scan");
}

TEST_F(ReferenceEvalTest, NullVerdictRejectsRow) {
  // b_val > 2 is NULL on the outer rows, and so is its negation.
  exec::Batch gt = Eval(LFilter(OuterAB(), exec::Gt(Col("b_val"),
                                                    exec::LitF64(2.0))));
  EXPECT_EQ(gt.num_rows, 2u);
  exec::Batch not_gt = Eval(LFilter(
      OuterAB(), exec::Not(exec::Gt(Col("b_val"), exec::LitF64(2.0)))));
  ASSERT_EQ(not_gt.num_rows, 1u);
  EXPECT_EQ(not_gt.columns[4].f64[0], 1.5);
}

TEST_F(ReferenceEvalTest, NullJoinKeysNeverMatch) {
  // Both sides carry two NULL keys (the outer rows of OuterAB); were NULL
  // to match NULL, each join type below would gain rows.
  NodePtr right = LProject(OuterAB(), {{"y_key", Col("b_key")},
                                       {"y_id", Col("a_id")}});
  auto join = [&](JoinType type) {
    return Eval(LJoin(LProject(OuterAB(), {{"x_id", Col("a_id")},
                                           {"x_key", Col("b_key")}}),
                      right, type, {"x_key"}, {"y_key"}));
  };
  const std::vector<exec::Field> x = {{"x_id", TypeId::kInt32},
                                      {"x_key", TypeId::kInt32}};
  std::vector<exec::Field> xy = x;
  xy.push_back({"y_key", TypeId::kInt32});
  xy.push_back({"y_id", TypeId::kInt32});
  // Key 10 matches once, each of the two key-20 rows matches twice.
  std::vector<Row> inner = {{I32(1), I32(10), I32(10), I32(1)},
                            {I32(2), I32(20), I32(20), I32(2)},
                            {I32(2), I32(20), I32(20), I32(2)},
                            {I32(2), I32(20), I32(20), I32(2)},
                            {I32(2), I32(20), I32(20), I32(2)}};
  ExpectBatchesEqual(Expected(xy, inner), join(JoinType::kInner), "inner");
  std::vector<Row> outer = inner;
  outer.push_back({I32(3), kNull, kNull, kNull});
  outer.push_back({I32(4), kNull, kNull, kNull});
  ExpectBatchesEqual(Expected(xy, outer), join(JoinType::kLeftOuter),
                     "left outer");
  ExpectBatchesEqual(
      Expected(x, {{I32(1), I32(10)}, {I32(2), I32(20)}, {I32(2), I32(20)}}),
      join(JoinType::kLeftSemi), "semi");
  ExpectBatchesEqual(Expected(x, {{I32(3), kNull}, {I32(4), kNull}}),
                     join(JoinType::kLeftAnti), "anti");
}

TEST_F(ReferenceEvalTest, EveryAggregateSkipsNulls) {
  NodePtr plan =
      LAgg(OuterAB(), {"grp"},
           {exec::AggSum(Col("b_val"), "s"), exec::AggCount(Col("b_val"), "c"),
            exec::AggCountStar("n"), exec::AggAvg(Col("b_val"), "av"),
            exec::AggMin(Col("b_val"), "mn"), exec::AggMax(Col("b_val"), "mx"),
            exec::AggCountDistinct(Col("b_key"), "cd")});
  // lo: b_val 1.5, 2.5, 3.5 over b_key 10, 20, 20. hi: only NULLs, so the
  // value aggregates take the engine's no-input value, 0.
  ExpectBatchesEqual(
      Expected({{"grp", TypeId::kString},
                {"s", TypeId::kFloat64},
                {"c", TypeId::kInt64},
                {"n", TypeId::kInt64},
                {"av", TypeId::kFloat64},
                {"mn", TypeId::kFloat64},
                {"mx", TypeId::kFloat64},
                {"cd", TypeId::kInt64}},
               {{Str("lo"), F64(7.5), I64(3), I64(3), F64(2.5), F64(1.5),
                 F64(3.5), I64(2)},
                {Str("hi"), F64(0), I64(0), I64(2), F64(0), F64(0), F64(0),
                 I64(0)}}),
      Eval(plan), "aggregates");
}

TEST_F(ReferenceEvalTest, NullGroupKeysFormOneGroup) {
  ExpectBatchesEqual(
      Expected({{"b_key", TypeId::kInt32}, {"n", TypeId::kInt64}},
               {{I32(10), I64(1)}, {I32(20), I64(2)}, {kNull, I64(2)}}),
      Eval(LAgg(OuterAB(), {"b_key"}, {exec::AggCountStar("n")})), "groups");
}

TEST_F(ReferenceEvalTest, ScalarAggregateOverEmptyInputReturnsOneRow) {
  NodePtr none = LScan("A", {"a_id", "a_ref"},
                       {opt::SargEq("a_id", Value::Int32(99))});
  std::vector<exec::AggSpec> specs = {
      exec::AggSum(Col("a_ref"), "s"), exec::AggCount(Col("a_ref"), "c"),
      exec::AggCountStar("n"), exec::AggAvg(Col("a_ref"), "av"),
      exec::AggMin(Col("a_ref"), "mn"), exec::AggMax(Col("a_ref"), "mx"),
      exec::AggCountDistinct(Col("a_ref"), "cd")};
  ExpectBatchesEqual(
      Expected({{"s", TypeId::kInt64},
                {"c", TypeId::kInt64},
                {"n", TypeId::kInt64},
                {"av", TypeId::kFloat64},
                {"mn", TypeId::kInt32},
                {"mx", TypeId::kInt32},
                {"cd", TypeId::kInt64}},
               {{I64(0), I64(0), I64(0), F64(0), I32(0), I32(0), I64(0)}}),
      Eval(LAgg(none, {}, specs)), "scalar");
  EXPECT_EQ(Eval(LAgg(none, {"a_id"}, specs)).num_rows, 0u);
}

TEST_F(ReferenceEvalTest, TopNSortAndLimit) {
  // b_key descending, ties by b_val ascending; keep 3.
  exec::Batch top = Eval(LSort(LScan("B", {"b_key", "b_val"}),
                               {{"b_key", true}, {"b_val", false}}, 3));
  ASSERT_EQ(top.num_rows, 3u);
  EXPECT_EQ(top.columns[0].i32, (std::vector<int32_t>{50, 20, 20}));
  EXPECT_EQ(top.columns[1].f64, (std::vector<double>{9.0, 2.5, 3.5}));
  // NULLs sort first ascending and last descending; LIMIT keeps the head.
  exec::Batch asc = Eval(LLimit(LSort(OuterAB(), {{"b_key", false}}), 2));
  ASSERT_EQ(asc.num_rows, 2u);
  EXPECT_TRUE(asc.columns[3].IsNull(0) && asc.columns[3].IsNull(1));
  exec::Batch desc = Eval(LSort(OuterAB(), {{"b_key", true}}));
  ASSERT_EQ(desc.num_rows, 5u);
  EXPECT_EQ(desc.columns[3].i32[0], 20);
  EXPECT_TRUE(desc.columns[3].IsNull(3) && desc.columns[3].IsNull(4));
}

TEST_F(ReferenceEvalTest, UnknownTableIsAnError) {
  auto result = EvaluateReference(LScan("Z", {"z"}),
                                  [](const std::string&) { return nullptr; });
  EXPECT_TRUE(result.status().IsNotFound());
}

}  // namespace
}  // namespace testutil
}  // namespace bdcc
