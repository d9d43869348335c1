// Vectorized expression trees.
//
// Expressions are built name-based (Col("l_shipdate")), then Bind()-ed to an
// operator's schema, which resolves column indices and output types; Eval()
// produces one ColumnVector per batch. Each kernel picks its path once per
// batch (operator, operand types, NULLs present) and then runs a typed loop
// over the raw lanes. Eval is const and keeps no cache: the planner shares
// one bound tree between parallel clones (see src/exec/README.md).
//
// Null semantics (documented simplification, sufficient for TPC-H): NULLs
// arise only from left-outer joins; comparisons involving NULL evaluate to
// false, IsNull() observes them, and aggregates skip NULL inputs.
#ifndef BDCC_EXEC_EXPR_H_
#define BDCC_EXEC_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/batch.h"

namespace bdcc {
namespace exec {

class Expr;
using ExprPtr = std::shared_ptr<Expr>;

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp { kAdd, kSub, kMul, kDiv };

class Expr {
 public:
  virtual ~Expr() = default;

  /// Resolve column references and output types against `schema`.
  virtual Status Bind(const Schema& schema) = 0;
  /// Output type; valid only after a successful Bind.
  virtual TypeId type() const = 0;
  virtual Result<ColumnVector> Eval(const Batch& batch) const = 0;
  /// Eval reusing `scratch`'s lane allocations where profitable (batch
  /// recycling through Project outputs). Default ignores scratch; column
  /// leaves override — they produce a copy/gather per batch, which is
  /// exactly the allocation recycling saves.
  virtual Result<ColumnVector> EvalReusing(const Batch& batch,
                                           ColumnVector&& scratch) const {
    (void)scratch;
    return Eval(batch);
  }
  /// Pretty-printed form for EXPLAIN output.
  virtual std::string ToString() const = 0;
};

/// Evaluate `e` over `batch` without a copy where possible: a plain column
/// reference over a batch without a selection yields the batch's own
/// column; anything else is evaluated into `*scratch`. The result lives as
/// long as both and may be a zero-copy view, so it is read through the
/// `*_data()` accessors.
Result<const ColumnVector*> EvalInPlace(const ExprPtr& e, const Batch& batch,
                                        ColumnVector* scratch);

// ---- Factories ----

/// Reference to a column by name.
ExprPtr Col(std::string name);
/// The column `e` references when it is a plain Col(name); "" otherwise.
std::string ColumnRefName(const ExprPtr& e);
/// Constant.
ExprPtr Lit(Value v);
/// Convenience literals.
ExprPtr LitI64(int64_t v);
ExprPtr LitF64(double v);
ExprPtr LitStr(std::string_view s);
ExprPtr LitDate(std::string_view yyyy_mm_dd);

/// Arithmetic (numeric promotion: any float operand -> float64, else int64).
ExprPtr Arith(ArithOp op, ExprPtr a, ExprPtr b);
inline ExprPtr Add(ExprPtr a, ExprPtr b) { return Arith(ArithOp::kAdd, a, b); }
inline ExprPtr Sub(ExprPtr a, ExprPtr b) { return Arith(ArithOp::kSub, a, b); }
inline ExprPtr Mul(ExprPtr a, ExprPtr b) { return Arith(ArithOp::kMul, a, b); }
inline ExprPtr Div(ExprPtr a, ExprPtr b) { return Arith(ArithOp::kDiv, a, b); }

/// Comparison -> bool.
ExprPtr Cmp(CmpOp op, ExprPtr a, ExprPtr b);
inline ExprPtr Eq(ExprPtr a, ExprPtr b) { return Cmp(CmpOp::kEq, a, b); }
inline ExprPtr Ne(ExprPtr a, ExprPtr b) { return Cmp(CmpOp::kNe, a, b); }
inline ExprPtr Lt(ExprPtr a, ExprPtr b) { return Cmp(CmpOp::kLt, a, b); }
inline ExprPtr Le(ExprPtr a, ExprPtr b) { return Cmp(CmpOp::kLe, a, b); }
inline ExprPtr Gt(ExprPtr a, ExprPtr b) { return Cmp(CmpOp::kGt, a, b); }
inline ExprPtr Ge(ExprPtr a, ExprPtr b) { return Cmp(CmpOp::kGe, a, b); }

/// Boolean connectives over bool inputs.
ExprPtr And(ExprPtr a, ExprPtr b);
ExprPtr Or(ExprPtr a, ExprPtr b);
ExprPtr Not(ExprPtr a);
/// Variadic AND (ignores nullptr entries; must leave >= 1).
ExprPtr AndAll(std::vector<ExprPtr> exprs);

/// SQL LIKE with % and _ wildcards over a string expression.
ExprPtr Like(ExprPtr a, std::string pattern);
ExprPtr NotLike(ExprPtr a, std::string pattern);

/// Membership tests.
ExprPtr InStrings(ExprPtr a, std::vector<std::string> values);
ExprPtr InInts(ExprPtr a, std::vector<int64_t> values);

/// a BETWEEN lo AND hi (inclusive).
ExprPtr Between(ExprPtr a, ExprPtr lo, ExprPtr hi);

/// CASE WHEN cond THEN t ELSE e END (t/e must agree on type).
ExprPtr CaseWhen(ExprPtr cond, ExprPtr then_expr, ExprPtr else_expr);

/// EXTRACT(YEAR FROM date) -> int32.
ExprPtr Year(ExprPtr date_expr);

/// substring(s, 1, n) -> string (fresh per-batch dictionary).
ExprPtr StrPrefix(ExprPtr a, int len);

/// TRUE where the input is NULL.
ExprPtr IsNull(ExprPtr a);
/// coalesce(a, b).
ExprPtr Coalesce(ExprPtr a, ExprPtr b);

/// SQL LIKE matcher used by Like() (exposed for tests).
bool LikeMatch(std::string_view text, std::string_view pattern);

}  // namespace exec
}  // namespace bdcc

#endif  // BDCC_EXEC_EXPR_H_
