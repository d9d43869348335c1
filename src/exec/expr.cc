#include "exec/expr.h"

#include <algorithm>
#include <unordered_set>

#include "common/macros.h"

namespace bdcc {
namespace exec {

namespace {

bool IsNumeric(TypeId t) { return t != TypeId::kString; }

double FetchF64(const ColumnVector& v, size_t row) {
  switch (v.type) {
    case TypeId::kInt64:
      return static_cast<double>(v.i64_data()[row]);
    case TypeId::kFloat64:
      return v.f64_data()[row];
    default:
      return static_cast<double>(v.i32_data()[row]);
  }
}

int64_t FetchI64(const ColumnVector& v, size_t row) {
  switch (v.type) {
    case TypeId::kInt64:
      return v.i64_data()[row];
    case TypeId::kFloat64:
      return static_cast<int64_t>(v.f64_data()[row]);
    default:
      return v.i32_data()[row];
  }
}

// NULL in, NULL out for value-producing expressions: rows where any input
// is NULL get a NULL output (aggregates then skip them, as documented).
void PropagateNulls(const ColumnVector& a, const ColumnVector& b, size_t n,
                    ColumnVector* out) {
  if (!a.HasNulls() && !b.HasNulls()) return;
  out->nulls.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (a.IsNull(i) || b.IsNull(i)) out->nulls[i] = 1;
  }
}

void PropagateNulls(const ColumnVector& a, size_t n, ColumnVector* out) {
  if (!a.HasNulls()) return;
  out->nulls.assign(a.nulls.begin(), a.nulls.begin() + n);
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
    BDCC_CHECK_MSG(index_ >= 0, "unbound column");
    // Leaves densify: under a selection vector only the referenced column is
    // gathered (late materialization); every non-leaf kernel then runs over
    // dense logical-length vectors.
    if (batch.has_sel()) return batch.columns[index_].Gather(batch.sel);
    // Copy: vectors are cheap at batch granularity and keeps ownership
    // simple. Borrowed (zero-copy view) lanes are materialized here so
    // every non-leaf kernel sees an owned, positionally indexable vector.
    ColumnVector out = batch.columns[index_];
    out.Materialize();
    return out;
  }
  Result<ColumnVector> EvalReusing(const Batch& batch,
                                   ColumnVector&& scratch) const override {
    BDCC_CHECK_MSG(index_ >= 0, "unbound column");
    const ColumnVector& src = batch.columns[index_];
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
    ColumnVector out(value_.type());
    out.Reserve(batch.num_rows);
    for (size_t i = 0; i < batch.num_rows; ++i) {
      switch (value_.type()) {
        case TypeId::kFloat64:
          out.f64.push_back(value_.AsDouble());
          break;
        case TypeId::kInt64:
          out.i64.push_back(value_.AsInt64());
          break;
        case TypeId::kString: {
          if (out.dict == nullptr) out.dict = std::make_shared<Dictionary>();
          out.i32.push_back(out.dict->GetOrAdd(value_.AsString()));
          break;
        }
        default:
          out.i32.push_back(static_cast<int32_t>(value_.AsInt64()));
          break;
      }
    }
    return out;
  }
  std::string ToString() const override { return "'" + value_.ToString() + "'"; }

  const Value& value() const { return value_; }

 private:
  Value value_;
};

// ---------------- Arithmetic ----------------

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
    BDCC_ASSIGN_OR_RETURN(ColumnVector va, a_->Eval(batch));
    BDCC_ASSIGN_OR_RETURN(ColumnVector vb, b_->Eval(batch));
    ColumnVector out(type_);
    out.Reserve(batch.num_rows);
    if (type_ == TypeId::kFloat64) {
      for (size_t i = 0; i < batch.num_rows; ++i) {
        double x = FetchF64(va, i), y = FetchF64(vb, i);
        out.f64.push_back(Apply(x, y));
      }
    } else {
      for (size_t i = 0; i < batch.num_rows; ++i) {
        int64_t x = FetchI64(va, i), y = FetchI64(vb, i);
        out.i64.push_back(Apply(x, y));
      }
    }
    PropagateNulls(va, vb, batch.num_rows, &out);
    return out;
  }
  std::string ToString() const override {
    const char* ops[] = {"+", "-", "*", "/"};
    return "(" + a_->ToString() + ops[static_cast<int>(op_)] + b_->ToString() +
           ")";
  }

 private:
  template <typename T>
  T Apply(T x, T y) const {
    switch (op_) {
      case ArithOp::kAdd:
        return x + y;
      case ArithOp::kSub:
        return x - y;
      case ArithOp::kMul:
        return x * y;
      case ArithOp::kDiv:
        return y == T{} ? T{} : x / y;
    }
    return T{};
  }

  ArithOp op_;
  ExprPtr a_, b_;
  TypeId type_ = TypeId::kInt64;
};

// ---------------- Comparison ----------------

class CmpExpr : public Expr {
 public:
  CmpExpr(CmpOp op, ExprPtr a, ExprPtr b)
      : op_(op), a_(std::move(a)), b_(std::move(b)) {}

  Status Bind(const Schema& schema) override {
    BDCC_RETURN_NOT_OK(a_->Bind(schema));
    BDCC_RETURN_NOT_OK(b_->Bind(schema));
    bool a_str = a_->type() == TypeId::kString;
    bool b_str = b_->type() == TypeId::kString;
    if (a_str != b_str) {
      return Status::InvalidArgument("comparison mixes string / non-string");
    }
    // String = constant: remember the literal so Eval can bind it to a
    // dictionary code once per batch instead of materializing it per row.
    str_lit_ = nullptr;
    if (a_str && (op_ == CmpOp::kEq || op_ == CmpOp::kNe)) {
      if (auto* lb = dynamic_cast<const LitExpr*>(b_.get())) {
        str_lit_ = lb;
        str_col_ = a_;
      } else if (auto* la = dynamic_cast<const LitExpr*>(a_.get())) {
        str_lit_ = la;
        str_col_ = b_;
      }
    }
    return Status::OK();
  }
  TypeId type() const override { return TypeId::kBool; }

  Result<ColumnVector> Eval(const Batch& batch) const override {
    if (str_lit_ != nullptr) {
      BDCC_ASSIGN_OR_RETURN(ColumnVector va, str_col_->Eval(batch));
      if (va.dict != nullptr) {
        // One dictionary lookup per batch; absent constant -> code -1,
        // which matches no row.
        int32_t code = va.dict->Find(str_lit_->value().AsString());
        ColumnVector out(TypeId::kBool);
        out.i32.resize(batch.num_rows);
        for (size_t i = 0; i < batch.num_rows; ++i) {
          bool eq = code >= 0 && va.i32[i] == code;
          out.i32[i] = (op_ == CmpOp::kEq) ? eq : !eq;
        }
        if (va.HasNulls()) {
          // NULL comparisons are UNKNOWN: value 0 (never passes a filter)
          // plus a null mark so NOT does not turn them into TRUE.
          out.nulls.assign(batch.num_rows, 0);
          for (size_t i = 0; i < batch.num_rows; ++i) {
            if (va.nulls[i]) {
              out.i32[i] = 0;
              out.nulls[i] = 1;
            }
          }
        }
        return out;
      }
    }
    BDCC_ASSIGN_OR_RETURN(ColumnVector va, a_->Eval(batch));
    BDCC_ASSIGN_OR_RETURN(ColumnVector vb, b_->Eval(batch));
    ColumnVector out(TypeId::kBool);
    out.i32.resize(batch.num_rows);
    bool has_nulls = va.HasNulls() || vb.HasNulls();
    if (va.type == TypeId::kString) {
      // Same dictionary: equality can compare codes directly.
      if ((op_ == CmpOp::kEq || op_ == CmpOp::kNe) && va.dict == vb.dict &&
          va.dict != nullptr) {
        for (size_t i = 0; i < batch.num_rows; ++i) {
          bool eq = va.i32[i] == vb.i32[i];
          out.i32[i] = (op_ == CmpOp::kEq) ? eq : !eq;
        }
      } else {
        for (size_t i = 0; i < batch.num_rows; ++i) {
          if (has_nulls && (va.IsNull(i) || vb.IsNull(i))) {
            out.i32[i] = 0;
            continue;
          }
          int c = va.GetString(i).compare(vb.GetString(i));
          out.i32[i] = Decide(c);
        }
      }
    } else if (va.type == TypeId::kFloat64 || vb.type == TypeId::kFloat64) {
      for (size_t i = 0; i < batch.num_rows; ++i) {
        double x = FetchF64(va, i), y = FetchF64(vb, i);
        out.i32[i] = Decide(x < y ? -1 : (x == y ? 0 : 1));
      }
    } else {
      for (size_t i = 0; i < batch.num_rows; ++i) {
        int64_t x = FetchI64(va, i), y = FetchI64(vb, i);
        out.i32[i] = Decide(x < y ? -1 : (x == y ? 0 : 1));
      }
    }
    if (has_nulls) {
      out.nulls.assign(batch.num_rows, 0);
      for (size_t i = 0; i < batch.num_rows; ++i) {
        if (va.IsNull(i) || vb.IsNull(i)) {
          out.i32[i] = 0;
          out.nulls[i] = 1;
        }
      }
    }
    return out;
  }
  std::string ToString() const override {
    const char* ops[] = {"=", "<>", "<", "<=", ">", ">="};
    return a_->ToString() + ops[static_cast<int>(op_)] + b_->ToString();
  }

 private:
  int Decide(int cmp) const {
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
    return 0;
  }

  CmpOp op_;
  ExprPtr a_, b_;
  // Set at Bind for string-vs-literal equality (see Bind).
  const LitExpr* str_lit_ = nullptr;
  ExprPtr str_col_;
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
    BDCC_ASSIGN_OR_RETURN(ColumnVector va, a_->Eval(batch));
    ColumnVector out(TypeId::kBool);
    out.i32.resize(batch.num_rows);
    if (op_ == BoolOp::kNot) {
      // NOT TRUE = FALSE, NOT FALSE = TRUE, NOT UNKNOWN = UNKNOWN.
      for (size_t i = 0; i < batch.num_rows; ++i) {
        out.i32[i] = !va.i32[i] && !va.IsNull(i);
      }
      out.nulls = std::move(va.nulls);
      return out;
    }
    BDCC_ASSIGN_OR_RETURN(ColumnVector vb, b_->Eval(batch));
    bool has_nulls = va.HasNulls() || vb.HasNulls();
    if (op_ == BoolOp::kAnd) {
      for (size_t i = 0; i < batch.num_rows; ++i) {
        out.i32[i] = va.i32[i] && vb.i32[i];
      }
      if (has_nulls) {
        // FALSE AND UNKNOWN = FALSE; TRUE/UNKNOWN AND UNKNOWN = UNKNOWN.
        out.nulls.assign(batch.num_rows, 0);
        for (size_t i = 0; i < batch.num_rows; ++i) {
          bool a_false = !va.i32[i] && !va.IsNull(i);
          bool b_false = !vb.i32[i] && !vb.IsNull(i);
          out.nulls[i] =
              (va.IsNull(i) || vb.IsNull(i)) && !a_false && !b_false;
        }
      }
    } else {
      for (size_t i = 0; i < batch.num_rows; ++i) {
        out.i32[i] = va.i32[i] || vb.i32[i];
      }
      if (has_nulls) {
        // TRUE OR UNKNOWN = TRUE; FALSE/UNKNOWN OR UNKNOWN = UNKNOWN.
        out.nulls.assign(batch.num_rows, 0);
        for (size_t i = 0; i < batch.num_rows; ++i) {
          out.nulls[i] = !out.i32[i] && (va.IsNull(i) || vb.IsNull(i));
        }
      }
    }
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
    BDCC_ASSIGN_OR_RETURN(ColumnVector va, a_->Eval(batch));
    ColumnVector out(TypeId::kBool);
    out.i32.resize(batch.num_rows);
    if (va.HasNulls()) out.nulls.assign(batch.num_rows, 0);
    // Memoize per-dictionary-code verdicts: dictionaries repeat heavily.
    std::unordered_map<int32_t, bool> memo;
    for (size_t i = 0; i < batch.num_rows; ++i) {
      if (va.IsNull(i)) {
        out.i32[i] = 0;  // NULL [NOT] LIKE ... is UNKNOWN
        out.nulls[i] = 1;
        continue;
      }
      int32_t code = va.i32[i];
      auto it = memo.find(code);
      bool match;
      if (it != memo.end()) {
        match = it->second;
      } else {
        match = LikeMatch(va.dict->Get(code), pattern_);
        memo.emplace(code, match);
      }
      out.i32[i] = negate_ ? !match : match;
    }
    return out;
  }
  std::string ToString() const override {
    return a_->ToString() + (negate_ ? " NOT LIKE '" : " LIKE '") + pattern_ +
           "'";
  }

 private:
  ExprPtr a_;
  std::string pattern_;
  bool negate_;
};

// ---------------- IN lists ----------------

class InStringsExpr : public Expr {
 public:
  InStringsExpr(ExprPtr a, std::vector<std::string> values)
      : a_(std::move(a)), values_(values.begin(), values.end()) {}

  Status Bind(const Schema& schema) override {
    BDCC_RETURN_NOT_OK(a_->Bind(schema));
    if (a_->type() != TypeId::kString) {
      return Status::InvalidArgument("IN (strings) over non-string");
    }
    return Status::OK();
  }
  TypeId type() const override { return TypeId::kBool; }

  Result<ColumnVector> Eval(const Batch& batch) const override {
    BDCC_ASSIGN_OR_RETURN(ColumnVector va, a_->Eval(batch));
    ColumnVector out(TypeId::kBool);
    out.i32.resize(batch.num_rows);
    if (va.dict != nullptr) {
      // Bind the IN-list to dictionary codes once per batch: per-row work
      // becomes an integer-set probe instead of a string materialization.
      std::unordered_set<int32_t> codes;
      for (const std::string& v : values_) {
        int32_t c = va.dict->Find(v);
        if (c >= 0) codes.insert(c);
      }
      if (va.HasNulls()) out.nulls.assign(batch.num_rows, 0);
      for (size_t i = 0; i < batch.num_rows; ++i) {
        if (va.IsNull(i)) {
          out.i32[i] = 0;  // NULL IN (...) is UNKNOWN
          out.nulls[i] = 1;
          continue;
        }
        out.i32[i] = codes.count(va.i32[i]) > 0;
      }
      return out;
    }
    if (va.HasNulls()) out.nulls.assign(batch.num_rows, 0);
    for (size_t i = 0; i < batch.num_rows; ++i) {
      if (va.IsNull(i)) {
        out.i32[i] = 0;
        out.nulls[i] = 1;
        continue;
      }
      out.i32[i] = values_.count(std::string(va.GetString(i))) > 0;
    }
    return out;
  }
  std::string ToString() const override { return a_->ToString() + " IN (...)"; }

 private:
  ExprPtr a_;
  std::unordered_set<std::string> values_;
};

class InIntsExpr : public Expr {
 public:
  InIntsExpr(ExprPtr a, std::vector<int64_t> values)
      : a_(std::move(a)), values_(values.begin(), values.end()) {}

  Status Bind(const Schema& schema) override {
    BDCC_RETURN_NOT_OK(a_->Bind(schema));
    if (a_->type() == TypeId::kString) {
      return Status::InvalidArgument("IN (ints) over string");
    }
    return Status::OK();
  }
  TypeId type() const override { return TypeId::kBool; }

  Result<ColumnVector> Eval(const Batch& batch) const override {
    BDCC_ASSIGN_OR_RETURN(ColumnVector va, a_->Eval(batch));
    ColumnVector out(TypeId::kBool);
    out.i32.resize(batch.num_rows);
    if (va.HasNulls()) out.nulls.assign(batch.num_rows, 0);
    for (size_t i = 0; i < batch.num_rows; ++i) {
      if (va.IsNull(i)) {
        out.i32[i] = 0;  // NULL IN (...) is UNKNOWN
        out.nulls[i] = 1;
        continue;
      }
      out.i32[i] = values_.count(FetchI64(va, i)) > 0;
    }
    return out;
  }
  std::string ToString() const override { return a_->ToString() + " IN (...)"; }

 private:
  ExprPtr a_;
  std::unordered_set<int64_t> values_;
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
    BDCC_ASSIGN_OR_RETURN(ColumnVector vc, cond_->Eval(batch));
    BDCC_ASSIGN_OR_RETURN(ColumnVector vt, then_->Eval(batch));
    BDCC_ASSIGN_OR_RETURN(ColumnVector ve, else_->Eval(batch));
    ColumnVector out(type_);
    out.Reserve(batch.num_rows);
    if (type_ == TypeId::kFloat64) {
      for (size_t i = 0; i < batch.num_rows; ++i) {
        out.f64.push_back(vc.i32[i] ? FetchF64(vt, i) : FetchF64(ve, i));
      }
    } else {
      for (size_t i = 0; i < batch.num_rows; ++i) {
        out.i64.push_back(vc.i32[i] ? FetchI64(vt, i) : FetchI64(ve, i));
      }
    }
    if (vt.HasNulls() || ve.HasNulls()) {
      out.nulls.assign(batch.num_rows, 0);
      for (size_t i = 0; i < batch.num_rows; ++i) {
        const ColumnVector& chosen = vc.i32[i] ? vt : ve;
        if (chosen.IsNull(i)) out.nulls[i] = 1;
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
    BDCC_ASSIGN_OR_RETURN(ColumnVector va, a_->Eval(batch));
    ColumnVector out(TypeId::kInt32);
    out.i32.resize(batch.num_rows);
    for (size_t i = 0; i < batch.num_rows; ++i) {
      int y, m, d;
      CivilFromDays(va.i32[i], &y, &m, &d);
      out.i32[i] = y;
    }
    PropagateNulls(va, batch.num_rows, &out);
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
    BDCC_ASSIGN_OR_RETURN(ColumnVector va, a_->Eval(batch));
    ColumnVector out(TypeId::kString);
    out.dict = std::make_shared<Dictionary>();
    out.i32.reserve(batch.num_rows);
    for (size_t i = 0; i < batch.num_rows; ++i) {
      if (va.IsNull(i)) {
        out.i32.push_back(out.dict->GetOrAdd(""));
        continue;
      }
      std::string_view s = va.GetString(i);
      out.i32.push_back(out.dict->GetOrAdd(
          s.substr(0, std::min<size_t>(s.size(), static_cast<size_t>(len_)))));
    }
    PropagateNulls(va, batch.num_rows, &out);
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
    BDCC_ASSIGN_OR_RETURN(ColumnVector va, a_->Eval(batch));
    ColumnVector out(TypeId::kBool);
    out.i32.resize(batch.num_rows);
    for (size_t i = 0; i < batch.num_rows; ++i) {
      out.i32[i] = va.IsNull(i) ? 1 : 0;
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
