#include "exec/expr.h"

#include <algorithm>
#include <type_traits>

#include "common/macros.h"

namespace bdcc {
namespace exec {

namespace {

bool IsNumeric(TypeId t) { return t != TypeId::kString; }

// ---------------- Kernel plumbing ----------------
//
// A kernel chooses its path once per batch (operator, operand types, NULLs
// present or not) and then runs one typed loop over the raw lanes.

// Calls f(std::true_type) when `has_nulls`, else f(std::false_type): a loop
// templated on the flag tests NULLs only in batches that have some.
template <typename F>
void WithNullFlag(bool has_nulls, F&& f) {
  if (has_nulls) {
    f(std::true_type{});
  } else {
    f(std::false_type{});
  }
}

// Operand readers, both read as T: a literal scalar or a typed lane.
template <typename T>
struct ScalarReader {
  T value;
  T operator[](size_t) const { return value; }
};

template <typename T, typename L>
struct LaneReader {
  const L* lane;
  T operator[](size_t i) const { return static_cast<T>(lane[i]); }
};

// A literal read as T, converted the way its lane would be.
template <typename T>
T ScalarAs(const Value& v) {
  switch (v.type()) {
    case TypeId::kFloat64:
      return static_cast<T>(v.AsDouble());
    case TypeId::kInt64:
      return static_cast<T>(v.AsInt64());
    default:
      return static_cast<T>(static_cast<int32_t>(v.AsInt64()));
  }
}

// The null mask of a vector, or nullptr when it has none.
const uint8_t* NullsOf(const ColumnVector& v) {
  return v.HasNulls() ? v.nulls.data() : nullptr;
}

// Marks the rows of `mask` (1 = NULL) UNKNOWN in a bool vector: value 0,
// which never passes a filter, plus a null mark, so NOT and OR do not turn
// them into TRUE.
void MarkUnknown(std::vector<uint8_t> mask, ColumnVector* out) {
  if (mask.empty()) return;
  int32_t* dst = out->i32.data();
  for (size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) dst[i] = 0;
  }
  out->nulls = std::move(mask);
}

// Rows where `a` or `b` is NULL; empty when neither has NULLs.
std::vector<uint8_t> UnionNulls(const uint8_t* a, const uint8_t* b, size_t n) {
  if (a == nullptr && b == nullptr) return {};
  if (a == nullptr || b == nullptr) {
    const uint8_t* one = a != nullptr ? a : b;
    return std::vector<uint8_t>(one, one + n);
  }
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = a[i] | b[i];
  return out;
}

// Bool vector of `verdict(code)` over the rows of string vector `v`; NULL
// rows are UNKNOWN. When the dictionary is no larger than the batch, each
// distinct code gets its verdict once, from a dense table indexed by code;
// otherwise every row is tested directly, so a large, mostly unique
// dictionary costs no O(dictionary) work per batch.
template <typename F>
ColumnVector CodeVerdicts(const ColumnVector& v, size_t n, F&& verdict) {
  ColumnVector out(TypeId::kBool);
  out.i32.resize(n);
  const int32_t* codes = v.i32_data();
  const uint8_t* nulls = NullsOf(v);
  int32_t* dst = out.i32.data();
  auto run = [&](auto&& verdict_of) {
    WithNullFlag(nulls != nullptr, [&](auto has_nulls) {
      for (size_t i = 0; i < n; ++i) {
        if constexpr (decltype(has_nulls)::value) {
          if (nulls[i]) continue;  // stays 0: UNKNOWN
        }
        dst[i] = verdict_of(codes[i]);
      }
    });
  };
  if (v.dict != nullptr && static_cast<size_t>(v.dict->size()) <= n) {
    std::vector<int8_t> table(static_cast<size_t>(v.dict->size()), -1);
    run([&](int32_t code) {
      int8_t& t = table[static_cast<size_t>(code)];
      if (t < 0) t = verdict(code) ? 1 : 0;
      return t;
    });
  } else {
    run([&](int32_t code) { return verdict(code) ? 1 : 0; });
  }
  if (nulls != nullptr) out.nulls.assign(nulls, nulls + n);
  return out;
}

// ---------------- Column reference ----------------

class ColExpr : public Expr {
 public:
  explicit ColExpr(std::string name) : name_(std::move(name)) {}

  Status Bind(const Schema& schema) override {
    BDCC_ASSIGN_OR_RETURN(index_, schema.Require(name_));
    type_ = schema.field(index_).type;
    return Status::OK();
  }
  TypeId type() const override { return type_; }
  Result<ColumnVector> Eval(const Batch& batch) const override {
    // Leaves densify: under a selection vector only the referenced column is
    // gathered (late materialization); every non-leaf kernel then runs over
    // dense logical-length vectors.
    if (batch.has_sel()) return Column(batch).Gather(batch.sel);
    // Copy: Eval's result is owned and may outlive the batch, so a
    // zero-copy view is materialized here. Kernels that read the column
    // only during one Eval borrow it instead (EvalInPlace).
    ColumnVector out = Column(batch);
    out.Materialize();
    return out;
  }
  Result<ColumnVector> EvalReusing(const Batch& batch,
                                   ColumnVector&& scratch) const override {
    const ColumnVector& src = Column(batch);
    if (scratch.type != src.type) return Eval(batch);
    if (batch.has_sel()) {
      src.GatherInto(batch.sel, &scratch);
      return std::move(scratch);
    }
    scratch.ClearKeepCapacity();
    scratch.dict = src.dict;
    switch (src.type) {  // typed copy through the view-aware accessors
      case TypeId::kInt64:
        scratch.i64.assign(src.i64_data(), src.i64_data() + src.size());
        break;
      case TypeId::kFloat64:
        scratch.f64.assign(src.f64_data(), src.f64_data() + src.size());
        break;
      default:
        scratch.i32.assign(src.i32_data(), src.i32_data() + src.size());
        break;
    }
    scratch.nulls.assign(src.nulls.begin(), src.nulls.end());
    return std::move(scratch);
  }
  std::string ToString() const override { return name_; }

  /// The referenced column of `batch`, in physical rows.
  const ColumnVector& Column(const Batch& batch) const {
    BDCC_CHECK_MSG(index_ >= 0, "unbound column");
    return batch.columns[index_];
  }

 private:
  std::string name_;
  int index_ = -1;
  TypeId type_ = TypeId::kInt64;
};

// ---------------- Literal ----------------

class LitExpr : public Expr {
 public:
  explicit LitExpr(Value v) : value_(std::move(v)) {}

  Status Bind(const Schema&) override { return Status::OK(); }
  TypeId type() const override { return value_.type(); }
  Result<ColumnVector> Eval(const Batch& batch) const override {
    const size_t n = batch.num_rows;
    ColumnVector out(value_.type());
    switch (value_.type()) {
      case TypeId::kFloat64:
        out.f64.assign(n, value_.AsDouble());
        break;
      case TypeId::kInt64:
        out.i64.assign(n, value_.AsInt64());
        break;
      case TypeId::kString:
        // Interned once per batch into a one-entry dictionary.
        out.dict = std::make_shared<Dictionary>();
        out.i32.assign(n, out.dict->GetOrAdd(value_.AsString()));
        break;
      default:
        out.i32.assign(n, static_cast<int32_t>(value_.AsInt64()));
        break;
    }
    return out;
  }
  std::string ToString() const override { return "'" + value_.ToString() + "'"; }

  const Value& value() const { return value_; }

 private:
  Value value_;
};

// One input of a binary kernel: a literal stays a scalar (no literal vector
// is built); anything else is evaluated in place.
class Operand {
 public:
  Status Load(const ExprPtr& e, const Batch& batch) {
    if (const auto* lit = dynamic_cast<const LitExpr*>(e.get())) {
      literal_ = &lit->value();
      return Status::OK();
    }
    BDCC_ASSIGN_OR_RETURN(vec_, EvalInPlace(e, batch, &scratch_));
    return Status::OK();
  }

  bool is_scalar() const { return literal_ != nullptr; }
  const Value& literal() const { return *literal_; }
  const ColumnVector& vec() const { return *vec_; }
  const uint8_t* nulls() const {
    return is_scalar() ? nullptr : NullsOf(*vec_);
  }

 private:
  const Value* literal_ = nullptr;
  const ColumnVector* vec_ = nullptr;
  ColumnVector scratch_;
};

// Calls f(reader) with `o` read as T: a ScalarReader or a LaneReader over
// the operand's own lane type.
template <typename T, typename F>
void WithReader(const Operand& o, F&& f) {
  if (o.is_scalar()) {
    f(ScalarReader<T>{ScalarAs<T>(o.literal())});
    return;
  }
  VisitNumericLane(o.vec(), [&](const auto* lane) {
    using L = std::remove_cv_t<std::remove_pointer_t<decltype(lane)>>;
    f(LaneReader<T, L>{lane});
  });
}

template <typename T, typename F>
void WithReaders(const Operand& a, const Operand& b, F&& f) {
  WithReader<T>(a, [&](auto x) { WithReader<T>(b, [&](auto y) { f(x, y); }); });
}

// ---------------- Arithmetic ----------------

template <typename T, typename A, typename B>
void ArithLoop(ArithOp op, A a, B b, size_t n, T* out) {
  switch (op) {
    case ArithOp::kAdd:
      for (size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
      break;
    case ArithOp::kSub:
      for (size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
      break;
    case ArithOp::kMul:
      for (size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
      break;
    case ArithOp::kDiv:
      // Division by zero yields 0.
      for (size_t i = 0; i < n; ++i) {
        T y = b[i];
        out[i] = y == T{} ? T{} : a[i] / y;
      }
      break;
  }
}

class ArithExpr : public Expr {
 public:
  ArithExpr(ArithOp op, ExprPtr a, ExprPtr b)
      : op_(op), a_(std::move(a)), b_(std::move(b)) {}

  Status Bind(const Schema& schema) override {
    BDCC_RETURN_NOT_OK(a_->Bind(schema));
    BDCC_RETURN_NOT_OK(b_->Bind(schema));
    if (!IsNumeric(a_->type()) || !IsNumeric(b_->type())) {
      return Status::InvalidArgument("arithmetic over non-numeric operand");
    }
    type_ = (a_->type() == TypeId::kFloat64 || b_->type() == TypeId::kFloat64)
                ? TypeId::kFloat64
                : TypeId::kInt64;
    return Status::OK();
  }
  TypeId type() const override { return type_; }

  Result<ColumnVector> Eval(const Batch& batch) const override {
    Operand a, b;
    BDCC_RETURN_NOT_OK(a.Load(a_, batch));
    BDCC_RETURN_NOT_OK(b.Load(b_, batch));
    const size_t n = batch.num_rows;
    ColumnVector out(type_);
    if (type_ == TypeId::kFloat64) {
      out.f64.resize(n);
      WithReaders<double>(a, b, [&](auto x, auto y) {
        ArithLoop(op_, x, y, n, out.f64.data());
      });
    } else {
      out.i64.resize(n);
      WithReaders<int64_t>(a, b, [&](auto x, auto y) {
        ArithLoop(op_, x, y, n, out.i64.data());
      });
    }
    // NULL in, NULL out: aggregates then skip the row, as documented.
    out.nulls = UnionNulls(a.nulls(), b.nulls(), n);
    return out;
  }
  std::string ToString() const override {
    const char* ops[] = {"+", "-", "*", "/"};
    return "(" + a_->ToString() + ops[static_cast<int>(op_)] + b_->ToString() +
           ")";
  }

 private:
  ArithOp op_;
  ExprPtr a_, b_;
  TypeId type_ = TypeId::kInt64;
};

// ---------------- Comparison ----------------

// Each operator is written so that a NaN operand gives what a three-way
// comparison that maps "neither less nor equal" to "greater" gives: Gt, Ge
// and Ne true; Eq, Lt and Le false.
template <typename A, typename B>
void CmpLoop(CmpOp op, A a, B b, size_t n, int32_t* out) {
  switch (op) {
    case CmpOp::kEq:
      for (size_t i = 0; i < n; ++i) out[i] = a[i] == b[i];
      break;
    case CmpOp::kNe:
      for (size_t i = 0; i < n; ++i) out[i] = !(a[i] == b[i]);
      break;
    case CmpOp::kLt:
      for (size_t i = 0; i < n; ++i) out[i] = a[i] < b[i];
      break;
    case CmpOp::kLe:
      for (size_t i = 0; i < n; ++i) out[i] = a[i] <= b[i];
      break;
    case CmpOp::kGt:
      for (size_t i = 0; i < n; ++i) out[i] = !(a[i] <= b[i]);
      break;
    case CmpOp::kGe:
      for (size_t i = 0; i < n; ++i) out[i] = !(a[i] < b[i]);
      break;
  }
}

class CmpExpr : public Expr {
 public:
  CmpExpr(CmpOp op, ExprPtr a, ExprPtr b)
      : op_(op), a_(std::move(a)), b_(std::move(b)) {}

  Status Bind(const Schema& schema) override {
    BDCC_RETURN_NOT_OK(a_->Bind(schema));
    BDCC_RETURN_NOT_OK(b_->Bind(schema));
    if ((a_->type() == TypeId::kString) != (b_->type() == TypeId::kString)) {
      return Status::InvalidArgument("comparison mixes string / non-string");
    }
    return Status::OK();
  }
  TypeId type() const override { return TypeId::kBool; }

  Result<ColumnVector> Eval(const Batch& batch) const override {
    Operand a, b;
    BDCC_RETURN_NOT_OK(a.Load(a_, batch));
    BDCC_RETURN_NOT_OK(b.Load(b_, batch));
    const size_t n = batch.num_rows;
    if (a_->type() == TypeId::kString) return EvalStrings(a, b, n);
    ColumnVector out(TypeId::kBool);
    out.i32.resize(n);
    if (a_->type() == TypeId::kFloat64 || b_->type() == TypeId::kFloat64) {
      WithReaders<double>(a, b, [&](auto x, auto y) {
        CmpLoop(op_, x, y, n, out.i32.data());
      });
    } else {
      WithReaders<int64_t>(a, b, [&](auto x, auto y) {
        CmpLoop(op_, x, y, n, out.i32.data());
      });
    }
    MarkUnknown(UnionNulls(a.nulls(), b.nulls(), n), &out);
    return out;
  }
  std::string ToString() const override {
    const char* ops[] = {"=", "<>", "<", "<=", ">", ">="};
    return a_->ToString() + ops[static_cast<int>(op_)] + b_->ToString();
  }

 private:
  bool Decide(int cmp) const {
    switch (op_) {
      case CmpOp::kEq:
        return cmp == 0;
      case CmpOp::kNe:
        return cmp != 0;
      case CmpOp::kLt:
        return cmp < 0;
      case CmpOp::kLe:
        return cmp <= 0;
      case CmpOp::kGt:
        return cmp > 0;
      case CmpOp::kGe:
        return cmp >= 0;
    }
    return false;
  }

  static int Sign(int c) { return (c > 0) - (c < 0); }

  ColumnVector EvalStrings(const Operand& a, const Operand& b,
                           size_t n) const {
    if (a.is_scalar() && b.is_scalar()) {
      ColumnVector out(TypeId::kBool);
      out.i32.assign(
          n, Decide(Sign(a.literal().AsString().compare(b.literal().AsString()))));
      return out;
    }
    if (a.is_scalar() || b.is_scalar()) {
      // Column vs literal: the literal is bound to the column's dictionary
      // once per batch.
      const bool lit_left = a.is_scalar();
      const ColumnVector& v = lit_left ? b.vec() : a.vec();
      const std::string& lit = (lit_left ? a : b).literal().AsString();
      if (op_ == CmpOp::kEq || op_ == CmpOp::kNe) {
        // An absent literal gets code -1, which matches no row.
        const int32_t code = v.dict != nullptr ? v.dict->Find(lit) : -1;
        const bool want_eq = op_ == CmpOp::kEq;
        ColumnVector out(TypeId::kBool);
        out.i32.resize(n);
        const int32_t* codes = v.i32_data();
        for (size_t i = 0; i < n; ++i) {
          out.i32[i] = (codes[i] == code) == want_eq;
        }
        MarkUnknown(UnionNulls(NullsOf(v), nullptr, n), &out);
        return out;
      }
      return CodeVerdicts(v, n, [&](int32_t code) {
        int c = Sign(v.dict->Get(code).compare(lit));
        return Decide(lit_left ? -c : c);
      });
    }
    const ColumnVector& va = a.vec();
    const ColumnVector& vb = b.vec();
    const uint8_t* na = NullsOf(va);
    const uint8_t* nb = NullsOf(vb);
    ColumnVector out(TypeId::kBool);
    out.i32.resize(n);
    const int32_t* ca = va.i32_data();
    const int32_t* cb = vb.i32_data();
    if ((op_ == CmpOp::kEq || op_ == CmpOp::kNe) && va.dict == vb.dict &&
        va.dict != nullptr) {
      // Same dictionary: equality compares codes.
      const bool want_eq = op_ == CmpOp::kEq;
      for (size_t i = 0; i < n; ++i) out.i32[i] = (ca[i] == cb[i]) == want_eq;
    } else {
      WithNullFlag(na != nullptr || nb != nullptr, [&](auto has_nulls) {
        for (size_t i = 0; i < n; ++i) {
          if constexpr (decltype(has_nulls)::value) {
            // NULL rows hold placeholder codes; they are marked below.
            if ((na != nullptr && na[i]) || (nb != nullptr && nb[i])) continue;
          }
          out.i32[i] =
              Decide(Sign(va.dict->Get(ca[i]).compare(vb.dict->Get(cb[i]))));
        }
      });
    }
    MarkUnknown(UnionNulls(na, nb, n), &out);
    return out;
  }

  CmpOp op_;
  ExprPtr a_, b_;
};

// ---------------- Boolean connectives ----------------

enum class BoolOp { kAnd, kOr, kNot };

class BoolExpr : public Expr {
 public:
  BoolExpr(BoolOp op, ExprPtr a, ExprPtr b)
      : op_(op), a_(std::move(a)), b_(std::move(b)) {}

  Status Bind(const Schema& schema) override {
    BDCC_RETURN_NOT_OK(a_->Bind(schema));
    if (b_) BDCC_RETURN_NOT_OK(b_->Bind(schema));
    return Status::OK();
  }
  TypeId type() const override { return TypeId::kBool; }

  // Three-valued logic over (value, null) pairs. Predicates encode UNKNOWN
  // as value 0 + null mark, so filters (which test the value only) drop
  // UNKNOWN rows at any nesting depth; the null mark exists so NOT and OR
  // do not promote UNKNOWN to TRUE.
  Result<ColumnVector> Eval(const Batch& batch) const override {
    const size_t n = batch.num_rows;
    ColumnVector scratch_a, scratch_b;
    BDCC_ASSIGN_OR_RETURN(const ColumnVector* va,
                          EvalInPlace(a_, batch, &scratch_a));
    const int32_t* x = va->i32_data();
    const uint8_t* nx = NullsOf(*va);
    ColumnVector out(TypeId::kBool);
    out.i32.resize(n);
    int32_t* dst = out.i32.data();
    if (op_ == BoolOp::kNot) {
      // NOT TRUE = FALSE, NOT FALSE = TRUE, NOT UNKNOWN = UNKNOWN.
      if (nx == nullptr) {
        for (size_t i = 0; i < n; ++i) dst[i] = x[i] == 0;
      } else {
        for (size_t i = 0; i < n; ++i) dst[i] = (x[i] == 0) & (nx[i] == 0);
        out.nulls.assign(nx, nx + n);
      }
      return out;
    }
    BDCC_ASSIGN_OR_RETURN(const ColumnVector* vb,
                          EvalInPlace(b_, batch, &scratch_b));
    const int32_t* y = vb->i32_data();
    const uint8_t* ny = NullsOf(*vb);
    if (op_ == BoolOp::kAnd) {
      for (size_t i = 0; i < n; ++i) dst[i] = (x[i] != 0) & (y[i] != 0);
    } else {
      for (size_t i = 0; i < n; ++i) dst[i] = (x[i] != 0) | (y[i] != 0);
    }
    if (nx == nullptr && ny == nullptr) return out;
    std::vector<uint8_t> either = UnionNulls(nx, ny, n);
    if (op_ == BoolOp::kAnd) {
      // FALSE AND UNKNOWN = FALSE; TRUE/UNKNOWN AND UNKNOWN = UNKNOWN.
      for (size_t i = 0; i < n; ++i) {
        bool x_false = x[i] == 0 && (nx == nullptr || nx[i] == 0);
        bool y_false = y[i] == 0 && (ny == nullptr || ny[i] == 0);
        either[i] = either[i] && !x_false && !y_false;
      }
    } else {
      // TRUE OR UNKNOWN = TRUE; FALSE/UNKNOWN OR UNKNOWN = UNKNOWN.
      for (size_t i = 0; i < n; ++i) either[i] = either[i] && dst[i] == 0;
    }
    out.nulls = std::move(either);
    return out;
  }
  std::string ToString() const override {
    if (op_ == BoolOp::kNot) return "NOT(" + a_->ToString() + ")";
    return "(" + a_->ToString() +
           (op_ == BoolOp::kAnd ? " AND " : " OR ") + b_->ToString() + ")";
  }

 private:
  BoolOp op_;
  ExprPtr a_, b_;
};

// ---------------- LIKE ----------------

// A LIKE pattern prepared once at construction. A pattern without '_' is
// its '%'-separated segments: it matches by an anchored prefix, an anchored
// suffix and an in-order find of the segments between. Patterns with '_'
// use LikeMatch.
class LikePattern {
 public:
  explicit LikePattern(std::string pattern) : pattern_(std::move(pattern)) {
    has_underscore_ = pattern_.find('_') != std::string::npos;
    has_percent_ = pattern_.find('%') != std::string::npos;
    if (has_underscore_ || !has_percent_) return;
    size_t first = pattern_.find('%');
    size_t last = pattern_.rfind('%');
    prefix_ = pattern_.substr(0, first);
    suffix_ = pattern_.substr(last + 1);
    size_t pos = first + 1;
    while (pos <= last) {
      size_t next = pattern_.find('%', pos);
      if (next > pos) middle_.push_back(pattern_.substr(pos, next - pos));
      pos = next + 1;
    }
  }

  const std::string& text() const { return pattern_; }

  bool Matches(std::string_view s) const {
    if (has_underscore_) return LikeMatch(s, pattern_);
    if (!has_percent_) return s == pattern_;
    if (s.size() < prefix_.size() + suffix_.size() ||
        s.compare(0, prefix_.size(), prefix_) != 0 ||
        s.compare(s.size() - suffix_.size(), suffix_.size(), suffix_) != 0) {
      return false;
    }
    // The middle segments must fit, in order, between prefix and suffix.
    std::string_view window = s.substr(0, s.size() - suffix_.size());
    size_t pos = prefix_.size();
    for (const std::string& seg : middle_) {
      size_t at = window.find(seg, pos);
      if (at == std::string_view::npos) return false;
      pos = at + seg.size();
    }
    return true;
  }

 private:
  std::string pattern_;
  bool has_underscore_ = false;
  bool has_percent_ = false;
  std::string prefix_, suffix_;
  std::vector<std::string> middle_;
};

class LikeExpr : public Expr {
 public:
  LikeExpr(ExprPtr a, std::string pattern, bool negate)
      : a_(std::move(a)), pattern_(std::move(pattern)), negate_(negate) {}

  Status Bind(const Schema& schema) override {
    BDCC_RETURN_NOT_OK(a_->Bind(schema));
    if (a_->type() != TypeId::kString) {
      return Status::InvalidArgument("LIKE over non-string");
    }
    return Status::OK();
  }
  TypeId type() const override { return TypeId::kBool; }

  Result<ColumnVector> Eval(const Batch& batch) const override {
    ColumnVector scratch;
    BDCC_ASSIGN_OR_RETURN(const ColumnVector* va,
                          EvalInPlace(a_, batch, &scratch));
    // NULL [NOT] LIKE ... is UNKNOWN (CodeVerdicts marks those rows).
    return CodeVerdicts(*va, batch.num_rows, [&](int32_t code) {
      return pattern_.Matches(va->dict->Get(code)) != negate_;
    });
  }
  std::string ToString() const override {
    return a_->ToString() + (negate_ ? " NOT LIKE '" : " LIKE '") +
           pattern_.text() + "'";
  }

 private:
  ExprPtr a_;
  LikePattern pattern_;
  bool negate_;
};

// ---------------- IN lists ----------------

class InStringsExpr : public Expr {
 public:
  InStringsExpr(ExprPtr a, std::vector<std::string> values)
      : a_(std::move(a)), values_(std::move(values)) {}

  Status Bind(const Schema& schema) override {
    BDCC_RETURN_NOT_OK(a_->Bind(schema));
    if (a_->type() != TypeId::kString) {
      return Status::InvalidArgument("IN (strings) over non-string");
    }
    return Status::OK();
  }
  TypeId type() const override { return TypeId::kBool; }

  Result<ColumnVector> Eval(const Batch& batch) const override {
    ColumnVector scratch;
    BDCC_ASSIGN_OR_RETURN(const ColumnVector* va,
                          EvalInPlace(a_, batch, &scratch));
    // Bind the list to dictionary codes once per batch: a row's membership
    // then costs O(list length), whatever the dictionary's size.
    std::vector<int32_t> codes;
    if (va->dict != nullptr) {
      for (const std::string& v : values_) {
        int32_t c = va->dict->Find(v);
        if (c >= 0) codes.push_back(c);
      }
    }
    // NULL IN (...) is UNKNOWN (CodeVerdicts marks those rows).
    return CodeVerdicts(*va, batch.num_rows, [&](int32_t code) {
      return std::find(codes.begin(), codes.end(), code) != codes.end();
    });
  }
  std::string ToString() const override { return a_->ToString() + " IN (...)"; }

 private:
  ExprPtr a_;
  std::vector<std::string> values_;
};

class InIntsExpr : public Expr {
 public:
  InIntsExpr(ExprPtr a, std::vector<int64_t> values)
      : a_(std::move(a)), values_(std::move(values)) {
    std::sort(values_.begin(), values_.end());
  }

  Status Bind(const Schema& schema) override {
    BDCC_RETURN_NOT_OK(a_->Bind(schema));
    if (a_->type() == TypeId::kString) {
      return Status::InvalidArgument("IN (ints) over string");
    }
    return Status::OK();
  }
  TypeId type() const override { return TypeId::kBool; }

  Result<ColumnVector> Eval(const Batch& batch) const override {
    ColumnVector scratch;
    BDCC_ASSIGN_OR_RETURN(const ColumnVector* va,
                          EvalInPlace(a_, batch, &scratch));
    const size_t n = batch.num_rows;
    ColumnVector out(TypeId::kBool);
    out.i32.resize(n);
    int32_t* dst = out.i32.data();
    VisitNumericLane(*va, [&](const auto* lane) {
      for (size_t i = 0; i < n; ++i) {
        dst[i] = std::binary_search(values_.begin(), values_.end(),
                                    static_cast<int64_t>(lane[i]));
      }
    });
    // NULL IN (...) is UNKNOWN.
    MarkUnknown(UnionNulls(NullsOf(*va), nullptr, n), &out);
    return out;
  }
  std::string ToString() const override { return a_->ToString() + " IN (...)"; }

 private:
  ExprPtr a_;
  std::vector<int64_t> values_;  // sorted
};

// ---------------- CASE WHEN ----------------

class CaseExpr : public Expr {
 public:
  CaseExpr(ExprPtr cond, ExprPtr then_expr, ExprPtr else_expr)
      : cond_(std::move(cond)),
        then_(std::move(then_expr)),
        else_(std::move(else_expr)) {}

  Status Bind(const Schema& schema) override {
    BDCC_RETURN_NOT_OK(cond_->Bind(schema));
    BDCC_RETURN_NOT_OK(then_->Bind(schema));
    BDCC_RETURN_NOT_OK(else_->Bind(schema));
    type_ = then_->type();
    if (type_ == TypeId::kInt32 || type_ == TypeId::kBool) type_ = TypeId::kInt64;
    if (then_->type() == TypeId::kFloat64 || else_->type() == TypeId::kFloat64) {
      type_ = TypeId::kFloat64;
    }
    if (then_->type() == TypeId::kString || else_->type() == TypeId::kString) {
      return Status::NotImplemented("CASE over strings");
    }
    return Status::OK();
  }
  TypeId type() const override { return type_; }

  Result<ColumnVector> Eval(const Batch& batch) const override {
    ColumnVector scratch;
    BDCC_ASSIGN_OR_RETURN(const ColumnVector* vc,
                          EvalInPlace(cond_, batch, &scratch));
    Operand t, e;
    BDCC_RETURN_NOT_OK(t.Load(then_, batch));
    BDCC_RETURN_NOT_OK(e.Load(else_, batch));
    const size_t n = batch.num_rows;
    // An UNKNOWN condition holds value 0 and so takes the ELSE branch.
    const int32_t* c = vc->i32_data();
    ColumnVector out(type_);
    auto choose = [&](auto* dst) {
      using T = std::remove_pointer_t<decltype(dst)>;
      WithReaders<T>(t, e, [&](auto x, auto y) {
        for (size_t i = 0; i < n; ++i) dst[i] = c[i] ? x[i] : y[i];
      });
    };
    if (type_ == TypeId::kFloat64) {
      out.f64.resize(n);
      choose(out.f64.data());
    } else {
      out.i64.resize(n);
      choose(out.i64.data());
    }
    const uint8_t* nt = t.nulls();
    const uint8_t* ne = e.nulls();
    if (nt != nullptr || ne != nullptr) {
      // The row is NULL when the branch it takes is.
      out.nulls.assign(n, 0);
      for (size_t i = 0; i < n; ++i) {
        const uint8_t* chosen = c[i] ? nt : ne;
        out.nulls[i] = chosen != nullptr && chosen[i] != 0;
      }
    }
    return out;
  }
  std::string ToString() const override {
    return "CASE WHEN " + cond_->ToString() + " THEN " + then_->ToString() +
           " ELSE " + else_->ToString() + " END";
  }

 private:
  ExprPtr cond_, then_, else_;
  TypeId type_ = TypeId::kInt64;
};

// ---------------- Date / string helpers ----------------

class YearExpr : public Expr {
 public:
  explicit YearExpr(ExprPtr a) : a_(std::move(a)) {}

  Status Bind(const Schema& schema) override {
    BDCC_RETURN_NOT_OK(a_->Bind(schema));
    if (a_->type() != TypeId::kDate) {
      return Status::InvalidArgument("YEAR over non-date");
    }
    return Status::OK();
  }
  TypeId type() const override { return TypeId::kInt32; }

  Result<ColumnVector> Eval(const Batch& batch) const override {
    ColumnVector scratch;
    BDCC_ASSIGN_OR_RETURN(const ColumnVector* va,
                          EvalInPlace(a_, batch, &scratch));
    const size_t n = batch.num_rows;
    const int32_t* days = va->i32_data();
    ColumnVector out(TypeId::kInt32);
    out.i32.resize(n);
    for (size_t i = 0; i < n; ++i) {
      int y, m, d;
      CivilFromDays(days[i], &y, &m, &d);
      out.i32[i] = y;
    }
    if (va->HasNulls()) out.nulls.assign(va->nulls.begin(), va->nulls.begin() + n);
    return out;
  }
  std::string ToString() const override {
    return "YEAR(" + a_->ToString() + ")";
  }

 private:
  ExprPtr a_;
};

class StrPrefixExpr : public Expr {
 public:
  StrPrefixExpr(ExprPtr a, int len) : a_(std::move(a)), len_(len) {}

  Status Bind(const Schema& schema) override {
    BDCC_RETURN_NOT_OK(a_->Bind(schema));
    if (a_->type() != TypeId::kString) {
      return Status::InvalidArgument("prefix over non-string");
    }
    return Status::OK();
  }
  TypeId type() const override { return TypeId::kString; }

  Result<ColumnVector> Eval(const Batch& batch) const override {
    ColumnVector scratch;
    BDCC_ASSIGN_OR_RETURN(const ColumnVector* va,
                          EvalInPlace(a_, batch, &scratch));
    const size_t n = batch.num_rows;
    ColumnVector out(TypeId::kString);
    out.dict = std::make_shared<Dictionary>();
    out.i32.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (va->IsNull(i)) {
        out.i32.push_back(out.dict->GetOrAdd(""));
        continue;
      }
      std::string_view s = va->GetString(i);
      out.i32.push_back(out.dict->GetOrAdd(
          s.substr(0, std::min<size_t>(s.size(), static_cast<size_t>(len_)))));
    }
    if (va->HasNulls()) out.nulls.assign(va->nulls.begin(), va->nulls.begin() + n);
    return out;
  }
  std::string ToString() const override {
    return "PREFIX(" + a_->ToString() + "," + std::to_string(len_) + ")";
  }

 private:
  ExprPtr a_;
  int len_;
};

class IsNullExpr : public Expr {
 public:
  explicit IsNullExpr(ExprPtr a) : a_(std::move(a)) {}

  Status Bind(const Schema& schema) override { return a_->Bind(schema); }
  TypeId type() const override { return TypeId::kBool; }

  Result<ColumnVector> Eval(const Batch& batch) const override {
    ColumnVector scratch;
    BDCC_ASSIGN_OR_RETURN(const ColumnVector* va,
                          EvalInPlace(a_, batch, &scratch));
    const size_t n = batch.num_rows;
    ColumnVector out(TypeId::kBool);
    out.i32.assign(n, 0);
    if (const uint8_t* nulls = NullsOf(*va)) {
      for (size_t i = 0; i < n; ++i) out.i32[i] = nulls[i] != 0;
    }
    return out;
  }
  std::string ToString() const override {
    return a_->ToString() + " IS NULL";
  }

 private:
  ExprPtr a_;
};

// coalesce(a, b): a when non-null else b. Output type follows a.
class CoalesceExpr : public Expr {
 public:
  CoalesceExpr(ExprPtr a, ExprPtr b) : a_(std::move(a)), b_(std::move(b)) {}

  Status Bind(const Schema& schema) override {
    BDCC_RETURN_NOT_OK(a_->Bind(schema));
    BDCC_RETURN_NOT_OK(b_->Bind(schema));
    type_ = a_->type();
    return Status::OK();
  }
  TypeId type() const override { return type_; }

  Result<ColumnVector> Eval(const Batch& batch) const override {
    BDCC_ASSIGN_OR_RETURN(ColumnVector va, a_->Eval(batch));
    if (!va.HasNulls()) return va;
    BDCC_ASSIGN_OR_RETURN(ColumnVector vb, b_->Eval(batch));
    ColumnVector out(type_);
    out.dict = va.dict;
    out.Reserve(batch.num_rows);
    for (size_t i = 0; i < batch.num_rows; ++i) {
      if (va.IsNull(i)) {
        out.AppendFrom(vb, i);
      } else {
        out.AppendFrom(va, i);
      }
    }
    return out;
  }
  std::string ToString() const override {
    return "COALESCE(" + a_->ToString() + "," + b_->ToString() + ")";
  }

 private:
  ExprPtr a_, b_;
  TypeId type_ = TypeId::kInt64;
};

}  // namespace

Result<const ColumnVector*> EvalInPlace(const ExprPtr& e, const Batch& batch,
                                        ColumnVector* scratch) {
  if (!batch.has_sel()) {
    if (const auto* col = dynamic_cast<const ColExpr*>(e.get())) {
      return &col->Column(batch);
    }
  }
  BDCC_ASSIGN_OR_RETURN(*scratch, e->Eval(batch));
  return scratch;
}

bool LikeMatch(std::string_view text, std::string_view pattern) {
  // Greedy two-pointer with backtracking on '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

ExprPtr Col(std::string name) { return std::make_shared<ColExpr>(std::move(name)); }
std::string ColumnRefName(const ExprPtr& e) {
  const auto* col = dynamic_cast<const ColExpr*>(e.get());
  return col != nullptr ? col->ToString() : std::string();
}
ExprPtr Lit(Value v) { return std::make_shared<LitExpr>(std::move(v)); }
ExprPtr LitI64(int64_t v) { return Lit(Value::Int64(v)); }
ExprPtr LitF64(double v) { return Lit(Value::Float64(v)); }
ExprPtr LitStr(std::string_view s) { return Lit(Value::String(s)); }
ExprPtr LitDate(std::string_view s) { return Lit(Value::Date(ParseDate(s))); }

ExprPtr Arith(ArithOp op, ExprPtr a, ExprPtr b) {
  return std::make_shared<ArithExpr>(op, std::move(a), std::move(b));
}
ExprPtr Cmp(CmpOp op, ExprPtr a, ExprPtr b) {
  return std::make_shared<CmpExpr>(op, std::move(a), std::move(b));
}
ExprPtr And(ExprPtr a, ExprPtr b) {
  return std::make_shared<BoolExpr>(BoolOp::kAnd, std::move(a), std::move(b));
}
ExprPtr Or(ExprPtr a, ExprPtr b) {
  return std::make_shared<BoolExpr>(BoolOp::kOr, std::move(a), std::move(b));
}
ExprPtr Not(ExprPtr a) {
  return std::make_shared<BoolExpr>(BoolOp::kNot, std::move(a), nullptr);
}
ExprPtr AndAll(std::vector<ExprPtr> exprs) {
  ExprPtr out;
  for (ExprPtr& e : exprs) {
    if (!e) continue;
    out = out ? And(out, e) : e;
  }
  BDCC_CHECK_MSG(out != nullptr, "AndAll needs at least one expression");
  return out;
}
ExprPtr Like(ExprPtr a, std::string pattern) {
  return std::make_shared<LikeExpr>(std::move(a), std::move(pattern), false);
}
ExprPtr NotLike(ExprPtr a, std::string pattern) {
  return std::make_shared<LikeExpr>(std::move(a), std::move(pattern), true);
}
ExprPtr InStrings(ExprPtr a, std::vector<std::string> values) {
  return std::make_shared<InStringsExpr>(std::move(a), std::move(values));
}
ExprPtr InInts(ExprPtr a, std::vector<int64_t> values) {
  return std::make_shared<InIntsExpr>(std::move(a), std::move(values));
}
ExprPtr Between(ExprPtr a, ExprPtr lo, ExprPtr hi) {
  ExprPtr a_again = a;  // shared node; Bind is idempotent per schema
  return And(Ge(std::move(a), std::move(lo)),
             Le(std::move(a_again), std::move(hi)));
}
ExprPtr CaseWhen(ExprPtr cond, ExprPtr then_expr, ExprPtr else_expr) {
  return std::make_shared<CaseExpr>(std::move(cond), std::move(then_expr),
                                    std::move(else_expr));
}
ExprPtr Year(ExprPtr date_expr) {
  return std::make_shared<YearExpr>(std::move(date_expr));
}
ExprPtr StrPrefix(ExprPtr a, int len) {
  return std::make_shared<StrPrefixExpr>(std::move(a), len);
}
ExprPtr IsNull(ExprPtr a) { return std::make_shared<IsNullExpr>(std::move(a)); }
ExprPtr Coalesce(ExprPtr a, ExprPtr b) {
  return std::make_shared<CoalesceExpr>(std::move(a), std::move(b));
}

}  // namespace exec
}  // namespace bdcc
