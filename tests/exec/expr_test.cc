#include "exec/expr.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include "common/rng.h"
#include "gtest/gtest.h"

namespace bdcc {
namespace exec {
namespace {

Batch MakeBatch() {
  Batch b;
  ColumnVector i(TypeId::kInt32);
  i.i32 = {1, 2, 3, 4};
  ColumnVector f(TypeId::kFloat64);
  f.f64 = {1.5, -2.0, 0.0, 8.0};
  ColumnVector s(TypeId::kString);
  s.dict = std::make_shared<Dictionary>();
  for (const char* v : {"PROMO BRUSHED TIN", "STANDARD PLATED BRASS",
                        "PROMO ANODIZED STEEL", "SMALL BURNISHED COPPER"}) {
    s.i32.push_back(s.dict->GetOrAdd(v));
  }
  ColumnVector d(TypeId::kDate);
  d.i32 = {ParseDate("1994-01-01"), ParseDate("1994-06-15"),
           ParseDate("1995-12-31"), ParseDate("1998-08-02")};
  b.columns = {std::move(i), std::move(f), std::move(s), std::move(d)};
  b.num_rows = 4;
  return b;
}

Schema MakeSchema() {
  return Schema({{"i", TypeId::kInt32},
                 {"f", TypeId::kFloat64},
                 {"s", TypeId::kString},
                 {"d", TypeId::kDate}});
}

ColumnVector Eval(ExprPtr e) {
  Batch b = MakeBatch();
  Schema s = MakeSchema();
  EXPECT_TRUE(e->Bind(s).ok());
  return e->Eval(b).ValueOrDie();
}

TEST(ExprTest, ColRef) {
  ColumnVector v = Eval(Col("i"));
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v.i32[2], 3);
}

TEST(ExprTest, UnknownColumnFailsBind) {
  ExprPtr e = Col("nope");
  EXPECT_FALSE(e->Bind(MakeSchema()).ok());
}

TEST(ExprTest, Arithmetic) {
  ColumnVector v = Eval(Add(Col("i"), Col("i")));
  EXPECT_EQ(v.type, TypeId::kInt64);
  EXPECT_EQ(v.i64[3], 8);
  ColumnVector m = Eval(Mul(Col("f"), LitF64(2.0)));
  EXPECT_EQ(m.type, TypeId::kFloat64);
  EXPECT_DOUBLE_EQ(m.f64[0], 3.0);
  // Int/float promotion.
  ColumnVector p = Eval(Sub(Col("i"), Col("f")));
  EXPECT_EQ(p.type, TypeId::kFloat64);
  EXPECT_DOUBLE_EQ(p.f64[1], 4.0);
  // Division by zero yields 0 (documented).
  ColumnVector dz = Eval(Div(Col("i"), Col("f")));
  EXPECT_DOUBLE_EQ(dz.f64[2], 0.0);
}

TEST(ExprTest, Comparisons) {
  ColumnVector v = Eval(Ge(Col("i"), LitI64(3)));
  EXPECT_EQ(v.i32[0], 0);
  EXPECT_EQ(v.i32[2], 1);
  ColumnVector s = Eval(Eq(Col("s"), LitStr("PROMO ANODIZED STEEL")));
  EXPECT_EQ(s.i32[2], 1);
  EXPECT_EQ(s.i32[0], 0);
  ColumnVector d =
      Eval(Lt(Col("d"), LitDate("1995-01-01")));
  EXPECT_EQ(d.i32[1], 1);
  EXPECT_EQ(d.i32[2], 0);
}

TEST(ExprTest, MixedStringNumericComparisonFailsBind) {
  ExprPtr e = Eq(Col("s"), LitI64(3));
  EXPECT_FALSE(e->Bind(MakeSchema()).ok());
}

TEST(ExprTest, BooleanConnectives) {
  ColumnVector v = Eval(
      And(Gt(Col("i"), LitI64(1)), Lt(Col("i"), LitI64(4))));
  EXPECT_EQ(v.i32[0], 0);
  EXPECT_EQ(v.i32[1], 1);
  EXPECT_EQ(v.i32[3], 0);
  ColumnVector n = Eval(Not(Gt(Col("i"), LitI64(2))));
  EXPECT_EQ(n.i32[0], 1);
  EXPECT_EQ(n.i32[3], 0);
  ColumnVector o = Eval(
      Or(Eq(Col("i"), LitI64(1)), Eq(Col("i"), LitI64(4))));
  EXPECT_EQ(o.i32[0], 1);
  EXPECT_EQ(o.i32[2], 0);
}

TEST(ExprTest, Between) {
  ColumnVector v = Eval(Between(Col("i"), LitI64(2), LitI64(3)));
  EXPECT_EQ(v.i32[0], 0);
  EXPECT_EQ(v.i32[1], 1);
  EXPECT_EQ(v.i32[2], 1);
  EXPECT_EQ(v.i32[3], 0);
}

TEST(ExprTest, LikeAndPrefix) {
  ColumnVector v = Eval(Like(Col("s"), "PROMO%"));
  EXPECT_EQ(v.i32[0], 1);
  EXPECT_EQ(v.i32[1], 0);
  EXPECT_EQ(v.i32[2], 1);
  ColumnVector n = Eval(NotLike(Col("s"), "%BRASS"));
  EXPECT_EQ(n.i32[1], 0);
  EXPECT_EQ(n.i32[0], 1);
  ColumnVector p = Eval(StrPrefix(Col("s"), 5));
  EXPECT_EQ(p.GetString(0), "PROMO");
  EXPECT_EQ(p.GetString(3), "SMALL");
}

TEST(ExprTest, LikeMatchSemantics) {
  EXPECT_TRUE(LikeMatch("hello world", "hello%"));
  EXPECT_TRUE(LikeMatch("hello world", "%world"));
  EXPECT_TRUE(LikeMatch("hello world", "%o w%"));
  EXPECT_TRUE(LikeMatch("hello", "h_llo"));
  EXPECT_FALSE(LikeMatch("hello", "h_llo!"));
  EXPECT_TRUE(LikeMatch("special packages wake requests",
                        "%special%requests%"));
  EXPECT_FALSE(LikeMatch("requests then special", "%special%requests%"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("abc", "%%%"));
  EXPECT_TRUE(LikeMatch("aXbXc", "a%b%c"));
  // Backtracking: % must be able to re-expand.
  EXPECT_TRUE(LikeMatch("aabab", "a%ab"));
}

TEST(ExprTest, InLists) {
  ColumnVector v = Eval(InInts(Col("i"), {2, 4, 99}));
  EXPECT_EQ(v.i32[0], 0);
  EXPECT_EQ(v.i32[1], 1);
  EXPECT_EQ(v.i32[3], 1);
  ColumnVector s = Eval(InStrings(
      Col("s"), {"PROMO BRUSHED TIN", "SMALL BURNISHED COPPER"}));
  EXPECT_EQ(s.i32[0], 1);
  EXPECT_EQ(s.i32[1], 0);
  EXPECT_EQ(s.i32[3], 1);
}

TEST(ExprTest, CaseWhen) {
  ColumnVector v = Eval(CaseWhen(Gt(Col("i"), LitI64(2)),
                                 Mul(Col("f"), LitF64(10.0)), LitF64(-1.0)));
  EXPECT_EQ(v.type, TypeId::kFloat64);
  EXPECT_DOUBLE_EQ(v.f64[0], -1.0);
  EXPECT_DOUBLE_EQ(v.f64[3], 80.0);
}

TEST(ExprTest, Year) {
  ColumnVector v = Eval(Year(Col("d")));
  EXPECT_EQ(v.i32[0], 1994);
  EXPECT_EQ(v.i32[2], 1995);
  EXPECT_EQ(v.i32[3], 1998);
}

TEST(ExprTest, NullHandling) {
  Batch b = MakeBatch();
  b.columns[0].nulls = {0, 1, 0, 0};  // i: row 1 NULL
  Schema schema = MakeSchema();
  ExprPtr isnull = IsNull(Col("i"));
  ASSERT_TRUE(isnull->Bind(schema).ok());
  ColumnVector v = isnull->Eval(b).ValueOrDie();
  EXPECT_EQ(v.i32[0], 0);
  EXPECT_EQ(v.i32[1], 1);
  // Comparisons with NULL are false.
  ExprPtr cmp = Eq(Col("i"), LitI64(2));
  ASSERT_TRUE(cmp->Bind(schema).ok());
  ColumnVector c = cmp->Eval(b).ValueOrDie();
  EXPECT_EQ(c.i32[1], 0);
  // Coalesce replaces nulls (fallback must match the primary's type).
  ExprPtr co = Coalesce(Col("i"), Lit(Value::Int32(42)));
  ASSERT_TRUE(co->Bind(schema).ok());
  ColumnVector cv = co->Eval(b).ValueOrDie();
  EXPECT_EQ(cv.i32[1], 42);
  EXPECT_EQ(cv.i32[0], 1);
}

TEST(ExprTest, ToStringSmoke) {
  ExprPtr e = And(Ge(Col("i"), LitI64(3)), Like(Col("s"), "PROMO%"));
  EXPECT_NE(e->ToString().find("i>="), std::string::npos);
  EXPECT_NE(e->ToString().find("LIKE"), std::string::npos);
}


// ---------------- Differential kernel tests ----------------
//
// Every kernel is checked against a per-row loop written here, over seeded
// batches with NULL masks, selection vectors and zero-copy views. The
// reference evaluator (tests/reference_eval.h) evaluates through Expr::Eval
// itself, so it cannot catch a kernel bug; these loops can.

constexpr size_t kRows = 300;
constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();
constexpr int32_t kI32Min = std::numeric_limits<int32_t>::min();
constexpr int32_t kI32Max = std::numeric_limits<int32_t>::max();
const double kNaN = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();

// Columns: numeric lanes of every width (`lim` holds the int64 limits and
// is only compared, never added), a bool, and strings over a dictionary
// smaller than the batch (`s`, `s2` sharing it, `u`) and larger (`t`).
const Schema& KernelSchema() {
  static const Schema schema({{"i32", TypeId::kInt32},
                              {"i64", TypeId::kInt64},
                              {"lim", TypeId::kInt64},
                              {"f64", TypeId::kFloat64},
                              {"d", TypeId::kDate},
                              {"b", TypeId::kBool},
                              {"s", TypeId::kString},
                              {"s2", TypeId::kString},
                              {"u", TypeId::kString},
                              {"t", TypeId::kString}});
  return schema;
}

// Batch shapes, combined as bit flags.
constexpr int kPlain = 0;
constexpr int kNulls = 1;  // NULL masks on every owned column
constexpr int kSel = 2;    // a selection vector over the physical rows
constexpr int kViews = 4;  // numeric columns borrow external lanes (never NULL)

std::string RandomText(Rng* rng, const char* alphabet, int max_len) {
  std::string out(static_cast<size_t>(rng->Uniform(0, max_len)), ' ');
  size_t letters = std::strlen(alphabet);
  for (char& c : out) {
    c = alphabet[rng->Uniform(0, static_cast<int64_t>(letters) - 1)];
  }
  return out;
}

template <typename T>
T Pick(Rng* rng, const std::vector<T>& values) {
  return values[static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(values.size()) - 1))];
}

class KernelBatch {
 public:
  KernelBatch(uint64_t seed, int shape) : rng_(seed) {
    const bool views = shape & kViews;
    i32_.resize(kRows);
    i64_.resize(kRows);
    lim_.resize(kRows);
    f64_.resize(kRows);
    d_.resize(kRows);
    for (size_t r = 0; r < kRows; ++r) {
      i32_[r] = rng_.Chance(0.3)
                    ? Pick<int32_t>(&rng_, {kI32Min, kI32Max, 0, -1, 1, 3})
                                 : static_cast<int32_t>(rng_.Uniform(-100, 100));
      i64_[r] = rng_.Chance(0.2) ? Pick<int64_t>(&rng_, {0, 1, -1, 3})
                                 : rng_.Uniform(-1000000, 1000000);
      lim_[r] = Pick<int64_t>(&rng_, {kI64Min, kI64Max, kI64Min + 1, 0, -1, 3,
                                      rng_.Uniform(-100, 100)});
      f64_[r] = rng_.Chance(0.4)
                    ? Pick<double>(&rng_, {kNaN, 0.0, -0.0, kInf, -kInf, 3.0,
                                           -1.0, 9.2233720368547758e18})
                    : (rng_.NextDouble() - 0.5) * 200.0;
      // Year boundaries: rows step from Dec 31 to Jan 1 and back.
      d_[r] = rng_.Chance(0.5)
                  ? ParseDate(Pick<std::string>(
                        &rng_, {"1994-12-31", "1995-01-01", "1996-02-29",
                                "1996-12-31", "1997-01-01"}))
                  : static_cast<int32_t>(rng_.Uniform(
                        ParseDate("1992-01-01"), ParseDate("1998-12-31")));
    }
    ColumnVector i32(TypeId::kInt32), i64(TypeId::kInt64),
        lim(TypeId::kInt64), f64(TypeId::kFloat64), d(TypeId::kDate);
    if (views) {
      i32.SetView(i32_.data(), kRows);
      i64.SetView(i64_.data(), kRows);
      lim.SetView(lim_.data(), kRows);
      f64.SetView(f64_.data(), kRows);
      d.SetView(d_.data(), kRows);
    } else {
      i32.i32 = i32_;
      i64.i64 = i64_;
      lim.i64 = lim_;
      f64.f64 = f64_;
      d.i32 = d_;
    }
    ColumnVector b(TypeId::kBool);
    for (size_t r = 0; r < kRows; ++r) b.i32.push_back(rng_.Chance(0.5));

    auto small = std::make_shared<Dictionary>();
    for (const char* v : {"AIR", "MAIL", "SHIP", "TRUCK", "RAIL", "FOB",
                          "REG AIR", ""}) {
      small->GetOrAdd(v);
    }
    auto texts = std::make_shared<Dictionary>();
    for (int k = 0; k < 40; ++k) texts->GetOrAdd(RandomText(&rng_, "ab", 6));
    auto large = std::make_shared<Dictionary>();
    for (size_t k = 0; k < 3 * kRows; ++k) {
      large->GetOrAdd(RandomText(&rng_, "abc", 8));
    }
    EXPECT_GT(static_cast<size_t>(large->size()), kRows);
    auto codes = [&](const std::shared_ptr<Dictionary>& dict) {
      ColumnVector v(TypeId::kString);
      v.dict = dict;
      for (size_t r = 0; r < kRows; ++r) {
        v.i32.push_back(static_cast<int32_t>(rng_.Uniform(0, dict->size() - 1)));
      }
      return v;
    };
    batch_.columns = {std::move(i32), std::move(i64), std::move(lim),
                      std::move(f64), std::move(d),   std::move(b),
                      codes(small),   codes(small),   codes(texts),
                      codes(large)};
    batch_.num_rows = kRows;
    if (shape & kNulls) {
      for (ColumnVector& c : batch_.columns) {
        if (c.is_view()) continue;
        c.nulls.assign(kRows, 0);
        for (size_t r = 0; r < kRows; ++r) {
          if (!rng_.Chance(0.2)) continue;
          c.nulls[r] = 1;
          // NULL rows hold a zero placeholder, as AppendNull leaves them.
          switch (c.type) {
            case TypeId::kInt64:
              c.i64[r] = 0;
              break;
            case TypeId::kFloat64:
              c.f64[r] = 0.0;
              break;
            default:
              c.i32[r] = 0;
              break;
          }
        }
      }
    }
    if (shape & kSel) {
      for (uint32_t r = 0; r < kRows; ++r) {
        if (rng_.Chance(0.6)) batch_.sel.push_back(r);
      }
      batch_.num_rows = batch_.sel.size();
    }
  }

  const Batch& batch() const { return batch_; }
  Rng* rng() { return &rng_; }

 private:
  Rng rng_;
  // Lanes the view columns borrow; they outlive the batch.
  std::vector<int32_t> i32_, d_;
  std::vector<int64_t> i64_, lim_;
  std::vector<double> f64_;
  Batch batch_;
};

// One operand, as the per-row loops read it: a column or a literal.
struct Side {
  std::string col;  // "" = literal
  Value lit;

  ExprPtr ToExpr() const { return col.empty() ? Lit(lit) : Col(col); }
  TypeId Type() const {
    return col.empty() ? lit.type() : KernelSchema().field(Index()).type;
  }
  int Index() const { return KernelSchema().IndexOf(col); }
  std::string Name() const { return col.empty() ? "'" + lit.ToString() + "'" : col; }

  bool NullAt(const Batch& b, size_t r) const {
    return !col.empty() && b.columns[Index()].IsNull(b.RowAt(r));
  }
  double F64At(const Batch& b, size_t r) const {
    if (col.empty()) return lit.AsDouble();
    const ColumnVector& v = b.columns[Index()];
    size_t p = b.RowAt(r);
    switch (v.type) {
      case TypeId::kInt64:
        return static_cast<double>(v.i64_data()[p]);
      case TypeId::kFloat64:
        return v.f64_data()[p];
      default:
        return static_cast<double>(v.i32_data()[p]);
    }
  }
  int64_t I64At(const Batch& b, size_t r) const {
    if (col.empty()) return lit.AsInt64();
    const ColumnVector& v = b.columns[Index()];
    size_t p = b.RowAt(r);
    return v.type == TypeId::kInt64 ? v.i64_data()[p] : v.i32_data()[p];
  }
  std::string StrAt(const Batch& b, size_t r) const {
    if (col.empty()) return lit.AsString();
    return std::string(b.columns[Index()].GetString(b.RowAt(r)));
  }
};

Side C(std::string name) { return Side{std::move(name), Value()}; }
Side L(Value v) { return Side{"", std::move(v)}; }

// Expected row of a predicate: UNKNOWN is value 0 plus a null mark.
struct Verdict {
  bool null = false;
  bool value = false;
};

// Expected row of a numeric expression (value checked on non-NULL rows).
struct Number {
  bool null = false;
  double f = 0;
  int64_t i = 0;
};

bool SameDouble(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::memcmp(&a, &b, sizeof a) == 0;  // also tells +0 from -0
}

void ExpectVerdicts(const ColumnVector& got, const std::vector<Verdict>& want,
                    const std::string& what) {
  ASSERT_EQ(got.type, TypeId::kBool) << what;
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(got.i32_data()[r], want[r].null ? 0 : int{want[r].value})
        << what << " row " << r;
    ASSERT_EQ(got.IsNull(r), want[r].null) << what << " row " << r;
  }
}

void ExpectNumbers(const ColumnVector& got, TypeId type,
                   const std::vector<Number>& want, const std::string& what) {
  ASSERT_EQ(got.type, type) << what;
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(got.IsNull(r), want[r].null) << what << " row " << r;
    if (want[r].null) continue;
    if (type == TypeId::kFloat64) {
      ASSERT_TRUE(SameDouble(got.f64_data()[r], want[r].f))
          << what << " row " << r << ": " << got.f64_data()[r] << " vs "
          << want[r].f;
    } else {
      ASSERT_EQ(got.i64_data()[r], want[r].i) << what << " row " << r;
    }
  }
}

ColumnVector EvalOn(const ExprPtr& e, const Batch& b) {
  Status st = e->Bind(KernelSchema());
  EXPECT_TRUE(st.ok()) << st.ToString();
  return e->Eval(b).ValueOrDie();
}

// Every batch shape the kernels must agree on, for three seeds.
std::vector<std::pair<uint64_t, int>> Cases() {
  std::vector<std::pair<uint64_t, int>> out;
  for (uint64_t seed : {1, 2, 3}) {
    for (int shape : {kPlain, kNulls, kSel, kNulls | kSel, kViews,
                      kViews | kSel, kViews | kNulls | kSel}) {
      out.emplace_back(seed, shape);
    }
  }
  return out;
}

std::string CaseName(uint64_t seed, int shape) {
  return "seed " + std::to_string(seed) + " shape " + std::to_string(shape);
}

// Operand pairs: column/column, literal on the left, on the right, on both.
std::vector<std::pair<Side, Side>> NumericPairs(bool with_limits) {
  std::vector<Side> cols = {C("i32"), C("i64"), C("f64"), C("d")};
  if (with_limits) cols.push_back(C("lim"));
  std::vector<Side> lits = {L(Value::Int64(3)),    L(Value::Int64(0)),
                            L(Value::Float64(3.0)), L(Value::Float64(-0.0)),
                            L(Value::Int32(-1)),   L(Value::Float64(kNaN))};
  if (with_limits) {
    lits.push_back(L(Value::Int64(kI64Max)));
    lits.push_back(L(Value::Int64(kI64Min)));
  }
  std::vector<std::pair<Side, Side>> out;
  for (const Side& a : cols) {
    for (const Side& b : cols) out.emplace_back(a, b);
  }
  for (const Side& col : cols) {
    for (const Side& lit : lits) {
      out.emplace_back(lit, col);
      out.emplace_back(col, lit);
    }
  }
  out.emplace_back(L(Value::Int64(7)), L(Value::Float64(2.0)));
  out.emplace_back(L(Value::Float64(kNaN)), L(Value::Int64(1)));
  return out;
}

bool IsFloat(const Side& s) { return s.Type() == TypeId::kFloat64; }

TEST(ExprKernelTest, ArithmeticMatchesPerRowLoop) {
  for (auto [seed, shape] : Cases()) {
    KernelBatch kb(seed, shape);
    const Batch& b = kb.batch();
    for (const auto& [x, y] : NumericPairs(/*with_limits=*/false)) {
      for (ArithOp op : {ArithOp::kAdd, ArithOp::kSub, ArithOp::kMul,
                         ArithOp::kDiv}) {
        const bool fp = IsFloat(x) || IsFloat(y);
        std::vector<Number> want(b.num_rows);
        for (size_t r = 0; r < b.num_rows; ++r) {
          want[r].null = x.NullAt(b, r) || y.NullAt(b, r);
          if (fp) {
            double u = x.F64At(b, r), v = y.F64At(b, r);
            switch (op) {
              case ArithOp::kAdd: want[r].f = u + v; break;
              case ArithOp::kSub: want[r].f = u - v; break;
              case ArithOp::kMul: want[r].f = u * v; break;
              case ArithOp::kDiv: want[r].f = v == 0 ? 0.0 : u / v; break;
            }
          } else {
            int64_t u = x.I64At(b, r), v = y.I64At(b, r);
            switch (op) {
              case ArithOp::kAdd: want[r].i = u + v; break;
              case ArithOp::kSub: want[r].i = u - v; break;
              case ArithOp::kMul: want[r].i = u * v; break;
              case ArithOp::kDiv: want[r].i = v == 0 ? 0 : u / v; break;
            }
          }
        }
        ExprPtr e = Arith(op, x.ToExpr(), y.ToExpr());
        ExpectNumbers(EvalOn(e, b), fp ? TypeId::kFloat64 : TypeId::kInt64,
                      want, CaseName(seed, shape) + " " + e->ToString());
      }
    }
  }
}

// The three-way comparison the kernels must agree with: NaN, being
// neither less than nor equal to anything, counts as greater.
template <typename T>
bool Decide(CmpOp op, T u, T v) {
  int c = u < v ? -1 : (u == v ? 0 : 1);
  switch (op) {
    case CmpOp::kEq: return c == 0;
    case CmpOp::kNe: return c != 0;
    case CmpOp::kLt: return c < 0;
    case CmpOp::kLe: return c <= 0;
    case CmpOp::kGt: return c > 0;
    case CmpOp::kGe: return c >= 0;
  }
  return false;
}

constexpr CmpOp kAllCmpOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                                CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};

std::vector<Verdict> CmpVerdicts(CmpOp op, const Side& x, const Side& y,
                                 const Batch& b) {
  std::vector<Verdict> want(b.num_rows);
  const bool str = x.Type() == TypeId::kString;
  const bool fp = IsFloat(x) || IsFloat(y);
  for (size_t r = 0; r < b.num_rows; ++r) {
    if (x.NullAt(b, r) || y.NullAt(b, r)) {
      want[r].null = true;
      continue;
    }
    if (str) {
      want[r].value = Decide(op, x.StrAt(b, r), y.StrAt(b, r));
    } else if (fp) {
      want[r].value = Decide(op, x.F64At(b, r), y.F64At(b, r));
    } else {
      want[r].value = Decide(op, x.I64At(b, r), y.I64At(b, r));
    }
  }
  return want;
}

TEST(ExprKernelTest, ComparisonsMatchPerRowLoop) {
  for (auto [seed, shape] : Cases()) {
    KernelBatch kb(seed, shape);
    const Batch& b = kb.batch();
    for (const auto& [x, y] : NumericPairs(/*with_limits=*/true)) {
      for (CmpOp op : kAllCmpOps) {
        ExprPtr e = Cmp(op, x.ToExpr(), y.ToExpr());
        ExpectVerdicts(EvalOn(e, b), CmpVerdicts(op, x, y, b),
                       CaseName(seed, shape) + " " + e->ToString());
      }
    }
  }
}

TEST(ExprKernelTest, NanAndSignedZeroComparisons) {
  // The documented NaN results, on literals and through a column.
  auto verdict = [](CmpOp op, double u, double v) {
    ExprPtr e = Cmp(op, LitF64(u), LitF64(v));
    return EvalOn(e, KernelBatch(1, kPlain).batch()).i32[0];
  };
  EXPECT_EQ(verdict(CmpOp::kGt, kNaN, 1.0), 1);
  EXPECT_EQ(verdict(CmpOp::kGe, kNaN, 1.0), 1);
  EXPECT_EQ(verdict(CmpOp::kNe, kNaN, 1.0), 1);
  EXPECT_EQ(verdict(CmpOp::kEq, kNaN, kNaN), 0);
  EXPECT_EQ(verdict(CmpOp::kLt, kNaN, 1.0), 0);
  EXPECT_EQ(verdict(CmpOp::kLe, 1.0, kNaN), 0);
  EXPECT_EQ(verdict(CmpOp::kEq, -0.0, 0.0), 1);
  EXPECT_EQ(verdict(CmpOp::kLt, -0.0, 0.0), 0);
}

TEST(ExprKernelTest, StringPredicatesMatchPerRowLoop) {
  const std::vector<std::string> patterns = {"%A%", "R%", "%AIR", "_AIL",
                                             "%", "", "a%b", "%ab%ba%",
                                             "a_", "%b"};
  const std::vector<std::string> in_list = {"AIR", "TRUCK", "absent", "",
                                            "ab", "aab"};
  for (auto [seed, shape] : Cases()) {
    KernelBatch kb(seed, shape);
    const Batch& b = kb.batch();
    const std::string name = CaseName(seed, shape);
    std::vector<std::pair<Side, Side>> pairs = {
        {C("s"), C("s2")},  // one dictionary: codes compare
        {C("s"), C("u")},   {C("u"), C("t")},
        {L(Value::String("AIR")), L(Value::String("MAIL"))}};
    for (const char* col : {"s", "u", "t"}) {
      for (const std::string& lit : {std::string("AIR"), std::string("ab"),
                                     std::string("absent"), std::string()}) {
        pairs.emplace_back(C(col), L(Value::String(lit)));
        pairs.emplace_back(L(Value::String(lit)), C(col));
      }
    }
    for (const auto& [x, y] : pairs) {
      for (CmpOp op : kAllCmpOps) {
        ExprPtr e = Cmp(op, x.ToExpr(), y.ToExpr());
        ExpectVerdicts(EvalOn(e, b), CmpVerdicts(op, x, y, b),
                       name + " " + e->ToString());
      }
    }
    for (const char* col : {"s", "u", "t"}) {
      Side x = C(col);
      for (const std::string& pattern : patterns) {
        for (bool negate : {false, true}) {
          std::vector<Verdict> want(b.num_rows);
          for (size_t r = 0; r < b.num_rows; ++r) {
            want[r].null = x.NullAt(b, r);
            want[r].value = LikeMatch(x.StrAt(b, r), pattern) != negate;
          }
          ExprPtr e = negate ? NotLike(Col(col), pattern) : Like(Col(col), pattern);
          ExpectVerdicts(EvalOn(e, b), want, name + " " + e->ToString());
        }
      }
      std::vector<Verdict> want(b.num_rows);
      for (size_t r = 0; r < b.num_rows; ++r) {
        want[r].null = x.NullAt(b, r);
        want[r].value = std::find(in_list.begin(), in_list.end(),
                                  x.StrAt(b, r)) != in_list.end();
      }
      ExpectVerdicts(EvalOn(InStrings(Col(col), in_list), b), want,
                     name + " " + col + " IN (...)");
    }
  }
}

TEST(ExprKernelTest, ConnectivesCaseInYearMatchPerRowLoop) {
  // Two predicates with NULLs of their own, plus the bool column.
  const Side x = C("i32"), k3 = L(Value::Int64(3));
  const Side f = C("f64"), k0 = L(Value::Float64(0.0));
  auto p = [&] { return Gt(Col("i32"), LitI64(3)); };
  auto q = [&] { return Le(Col("f64"), LitF64(0.0)); };
  for (auto [seed, shape] : Cases()) {
    KernelBatch kb(seed, shape);
    const Batch& b = kb.batch();
    const std::string name = CaseName(seed, shape);
    std::vector<Verdict> vp = CmpVerdicts(CmpOp::kGt, x, k3, b);
    std::vector<Verdict> vq = CmpVerdicts(CmpOp::kLe, f, k0, b);
    std::vector<Verdict> vb(b.num_rows);
    for (size_t r = 0; r < b.num_rows; ++r) {
      vb[r].null = C("b").NullAt(b, r);
      vb[r].value = !vb[r].null && C("b").I64At(b, r) != 0;
    }
    // Three-valued logic over (value, null) pairs.
    auto both = [&](const std::vector<Verdict>& u,
                    const std::vector<Verdict>& v, bool is_and) {
      std::vector<Verdict> out(u.size());
      for (size_t r = 0; r < u.size(); ++r) {
        bool u_false = !u[r].null && !u[r].value;
        bool v_false = !v[r].null && !v[r].value;
        bool u_true = !u[r].null && u[r].value;
        bool v_true = !v[r].null && v[r].value;
        if (is_and) {
          out[r].value = u_true && v_true;
          out[r].null = !u_false && !v_false && (u[r].null || v[r].null);
        } else {
          out[r].value = u_true || v_true;
          out[r].null = !out[r].value && (u[r].null || v[r].null);
        }
      }
      return out;
    };
    auto negated = [](std::vector<Verdict> v) {
      for (Verdict& x : v) x.value = !x.null && !x.value;
      return v;
    };
    ExpectVerdicts(EvalOn(And(p(), q()), b), both(vp, vq, true), name + " AND");
    ExpectVerdicts(EvalOn(Or(p(), q()), b), both(vp, vq, false), name + " OR");
    ExpectVerdicts(EvalOn(And(Col("b"), q()), b), both(vb, vq, true),
                   name + " b AND");
    ExpectVerdicts(EvalOn(Or(q(), Col("b")), b), both(vq, vb, false),
                   name + " OR b");
    ExpectVerdicts(EvalOn(Not(p()), b), negated(vp), name + " NOT");
    ExpectVerdicts(EvalOn(Not(Col("b")), b), negated(vb), name + " NOT b");

    // CASE: the row takes the branch its condition's value picks (UNKNOWN
    // holds value 0, so ELSE) and is NULL when that branch is.
    for (const auto& [t, e] :
         std::vector<std::pair<Side, Side>>{{C("i64"), C("i32")},
                                            {C("f64"), L(Value::Int64(0))},
                                            {L(Value::Int64(1)), L(Value::Int64(0))},
                                            {L(Value::Float64(2.5)), C("d")}}) {
      const bool fp = IsFloat(t) || IsFloat(e);
      std::vector<Number> want(b.num_rows);
      for (size_t r = 0; r < b.num_rows; ++r) {
        const Side& chosen = (!vp[r].null && vp[r].value) ? t : e;
        want[r].null = chosen.NullAt(b, r);
        if (fp) {
          want[r].f = chosen.F64At(b, r);
        } else {
          want[r].i = chosen.I64At(b, r);
        }
      }
      ExprPtr c = CaseWhen(p(), t.ToExpr(), e.ToExpr());
      ExpectNumbers(EvalOn(c, b), fp ? TypeId::kFloat64 : TypeId::kInt64,
                    want, name + " " + c->ToString());
    }

    // IN over integer lanes: a narrow list and one spanning the int64 range.
    for (const std::vector<int64_t>& list :
         {std::vector<int64_t>{3, -1, 0, 17, 3},
          std::vector<int64_t>{kI64Min, kI64Max, 1, -100, 9000}}) {
      for (const char* col : {"i32", "i64", "lim", "d"}) {
        Side s = C(col);
        std::vector<Verdict> want(b.num_rows);
        for (size_t r = 0; r < b.num_rows; ++r) {
          want[r].null = s.NullAt(b, r);
          want[r].value = std::find(list.begin(), list.end(), s.I64At(b, r)) !=
                          list.end();
        }
        ExpectVerdicts(EvalOn(InInts(Col(col), list), b), want,
                       name + " " + col + " IN ints");
      }
    }

    // YEAR and IS NULL.
    std::vector<Number> years(b.num_rows);
    std::vector<Verdict> nulls(b.num_rows);
    for (size_t r = 0; r < b.num_rows; ++r) {
      int y, m, d;
      CivilFromDays(static_cast<int32_t>(C("d").I64At(b, r)), &y, &m, &d);
      years[r].null = C("d").NullAt(b, r);
      years[r].i = y;
      nulls[r].value = C("f64").NullAt(b, r);
    }
    ColumnVector got = EvalOn(Year(Col("d")), b);
    ASSERT_EQ(got.type, TypeId::kInt32);
    for (size_t r = 0; r < b.num_rows; ++r) {
      ASSERT_EQ(got.IsNull(r), years[r].null) << name << " YEAR row " << r;
      if (!years[r].null) {
        ASSERT_EQ(got.i32[r], years[r].i) << name << " YEAR row " << r;
      }
    }
    ExpectVerdicts(EvalOn(IsNull(Col("f64")), b), nulls, name + " IS NULL");
  }
}

TEST(ExprKernelTest, LikeSegmentsMatchLikeMatch) {
  // Seeded random texts over a small alphabet, matched by the segment
  // matcher (through Like over a small and a large dictionary) and by
  // LikeMatch, the backtracking reference.
  Rng rng(7);
  std::vector<std::string> patterns = {"%",     "%%",    "a%",   "%a",
                                       "%aa%aa%", "",    "a",    "aaa",
                                       "a%%b",  "%ab%",  "ab%ba", "a_b",
                                       "_",     "%a_%",  "%b%a%b%", "b%a%",
                                       "%ab%b", "%a%a",  "a%a%a", "%ba%a"};
  for (int k = 0; k < 200; ++k) {
    patterns.push_back(RandomText(&rng, "ab%_", 6));
    patterns.push_back(RandomText(&rng, "ab%", 7));  // segment matcher only
  }
  for (size_t dict_rows : {16, 2000}) {
    Batch b;
    ColumnVector t(TypeId::kString);
    t.dict = std::make_shared<Dictionary>();
    for (const char* fixed : {"", "aaa", "a", "ab", "ba", "aab"}) {
      t.dict->GetOrAdd(fixed);
    }
    while (static_cast<size_t>(t.dict->size()) < dict_rows) {
      t.dict->GetOrAdd(RandomText(&rng, "ab", 12));
    }
    for (int r = 0; r < 500; ++r) {
      t.i32.push_back(static_cast<int32_t>(rng.Uniform(0, t.dict->size() - 1)));
    }
    b.num_rows = t.i32.size();
    b.columns.push_back(std::move(t));
    Schema schema({{"t", TypeId::kString}});
    for (const std::string& pattern : patterns) {
      ExprPtr e = Like(Col("t"), pattern);
      ASSERT_TRUE(e->Bind(schema).ok());
      ColumnVector got = e->Eval(b).ValueOrDie();
      for (size_t r = 0; r < b.num_rows; ++r) {
        std::string_view text = b.columns[0].GetString(r);
        ASSERT_EQ(got.i32[r] != 0, LikeMatch(text, pattern))
            << "'" << text << "' LIKE '" << pattern << "'";
      }
    }
  }
  EXPECT_FALSE(LikeMatch("aaa", "%aa%aa%"));
  EXPECT_TRUE(LikeMatch("aaaa", "%aa%aa%"));
}

TEST(ExprConcurrencyTest, SharedTreesEvaluateFromFourThreads) {
  // The planner hands one bound tree to every parallel clone: evaluation
  // must be const and cache-free. Bind once, then evaluate a predicate and
  // an aggregate argument from four threads at once.
  ExprPtr predicate =
      Or(And(Like(Col("t"), "%ab%b%"), InStrings(Col("s"), {"AIR", "RAIL"})),
         And(Gt(Mul(Col("f64"), LitF64(2.0)), LitI64(3)),
             Not(Eq(Col("u"), LitStr("ab")))));
  ExprPtr argument =
      CaseWhen(Le(Col("d"), LitDate("1995-06-30")),
               Mul(Col("f64"), Sub(LitF64(1.0), Col("i32"))), LitF64(0.0));
  ASSERT_TRUE(predicate->Bind(KernelSchema()).ok());
  ASSERT_TRUE(argument->Bind(KernelSchema()).ok());
  std::vector<KernelBatch> batches;
  batches.emplace_back(1, kNulls | kSel);
  batches.emplace_back(2, kViews);
  std::vector<ColumnVector> want_pred, want_arg;
  for (const KernelBatch& kb : batches) {
    want_pred.push_back(predicate->Eval(kb.batch()).ValueOrDie());
    want_arg.push_back(argument->Eval(kb.batch()).ValueOrDie());
  }
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      for (int it = 0; it < 50; ++it) {
        for (size_t k = 0; k < batches.size(); ++k) {
          ColumnVector p = predicate->Eval(batches[k].batch()).ValueOrDie();
          ColumnVector a = argument->Eval(batches[k].batch()).ValueOrDie();
          if (p.i32 != want_pred[k].i32 || p.nulls != want_pred[k].nulls ||
              a.nulls != want_arg[k].nulls ||
              a.f64.size() != want_arg[k].f64.size() ||
              std::memcmp(a.f64.data(), want_arg[k].f64.data(),
                          a.f64.size() * sizeof(double)) != 0) {
            ++mismatches[w];
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches, std::vector<int>(4, 0));
}

}  // namespace
}  // namespace exec
}  // namespace bdcc
