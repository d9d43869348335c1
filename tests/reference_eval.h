// Row-at-a-time reference evaluator ("oracle") for logical plans.
//
// EvaluateReference walks an opt::logical_plan tree bottom-up and computes
// each node's full result as a list of rows (one optional<Value> per column,
// nullopt = NULL) read cell by cell through Column::GetValue. It is the
// independent reference of the TPC-H suites: it shares nothing with the
// engine's physical layer — no planner, no operators, no key encoding or
// hash tables, no aggregate states, no kernels, no encoded lanes, no
// selection vectors, no parallelism. Joins look keys up in a std::map,
// aggregates keep their own accumulators, sorts are std::stable_sort.
//
// Deliberate limit: expressions (sargs, residuals, filters, projections and
// aggregate arguments) are evaluated through the engine's own
// Expr::Bind/Eval, one row at a time on a one-row dense batch. The
// expression kernels therefore stay shared with the engine, and a bug in
// them is not caught here.
//
// Semantics (SQL, with the engine's conventions where SQL leaves a choice):
//   Scan      the named columns; a row passes when every sarg's row
//             expression (opt::SargRowExpr) and the residual hold. A NULL
//             verdict rejects the row, in Filter too.
//   Join      left ++ right columns (left only for semi/anti); NULL keys
//             never match; a left-outer row without a match gets NULLs.
//   Aggregate group columns then one column per spec. Aggregates skip NULL
//             inputs and NULL group keys form one group. A scalar aggregate
//             (no group columns) returns one row, even over empty input.
//             COUNTs of no input are 0, and so are SUM/AVG/MIN/MAX: SQL says
//             NULL there, but the engine's convention is 0 (asserted by
//             HashAggTest.ScalarAggregateOnEmptyInputEmitsOneRow), and Q17
//             has no qualifying rows at the test scale factor.
//   Sort      stable, NULLs first (last under a descending key); a TopN keeps
//             the first `limit` rows.
#ifndef BDCC_TESTS_REFERENCE_EVAL_H_
#define BDCC_TESTS_REFERENCE_EVAL_H_

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "exec/batch.h"
#include "opt/logical_plan.h"
#include "opt/physical_db.h"
#include "storage/table.h"

namespace bdcc {
namespace testutil {

using TableLookup = std::function<const Table*(const std::string&)>;

namespace reference {

using Cell = std::optional<Value>;  // nullopt = NULL
using Row = std::vector<Cell>;

/// A node's complete result.
struct Rel {
  exec::Schema schema;
  std::vector<Row> rows;
};

inline void AppendCell(const Cell& cell, exec::ColumnVector* v) {
  if (!cell.has_value()) {
    v->AppendNull();
    return;
  }
  switch (v->type) {
    case TypeId::kInt64:
      v->i64.push_back(cell->AsInt64());
      break;
    case TypeId::kFloat64:
      v->f64.push_back(cell->AsDouble());
      break;
    case TypeId::kString:
      v->i32.push_back(v->InternString(cell->AsString()));
      break;
    default:
      v->i32.push_back(static_cast<int32_t>(cell->AsInt64()));
      break;
  }
  if (v->HasNulls()) v->nulls.push_back(0);
}

/// Dense batch of rows[0..n) under `schema` (no selection vector).
inline exec::Batch ToBatch(const exec::Schema& schema, const Row* rows,
                           size_t n) {
  exec::Batch b;
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    exec::ColumnVector v(schema.field(c).type);
    for (size_t r = 0; r < n; ++r) AppendCell(rows[r][c], &v);
    b.columns.push_back(std::move(v));
  }
  b.num_rows = n;
  return b;
}

/// One dense one-row batch over `schema`, refilled per row. String cells
/// intern into one dictionary per column that outlives the rows, so a row
/// costs no allocation once the lanes and dictionaries have grown.
class RowBatch {
 public:
  explicit RowBatch(const exec::Schema& schema) {
    for (const exec::Field& f : schema.fields()) {
      batch_.columns.emplace_back(f.type);
    }
    batch_.num_rows = 1;
  }

  const exec::Batch& Of(const Row& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      batch_.columns[c].ClearKeepCapacity();
      AppendCell(row[c], &batch_.columns[c]);
    }
    return batch_;
  }

 private:
  exec::Batch batch_;
};

/// `expr` (bound to the row's schema) evaluated on a one-row batch.
inline Result<Cell> EvalCell(const exec::Expr& expr,
                             const exec::Batch& one_row) {
  BDCC_ASSIGN_OR_RETURN(exec::ColumnVector v, expr.Eval(one_row));
  if (v.size() != 1) return Status::Internal("expression yielded no row");
  if (v.IsNull(0)) return Cell();
  return Cell(v.GetValue(0));
}

/// Rows of `in` for which every predicate (bound to in.schema) is TRUE.
inline Result<std::vector<Row>> Select(
    const Rel& in, const std::vector<exec::ExprPtr>& predicates) {
  if (predicates.empty()) return in.rows;
  std::vector<Row> out;
  RowBatch batch(in.schema);
  for (const Row& row : in.rows) {
    const exec::Batch& one = batch.Of(row);
    bool pass = true;
    for (const exec::ExprPtr& p : predicates) {
      BDCC_ASSIGN_OR_RETURN(Cell verdict, EvalCell(*p, one));
      if (!verdict.has_value() || verdict->AsInt64() == 0) {
        pass = false;
        break;
      }
    }
    if (pass) out.push_back(row);
  }
  return out;
}

inline Result<Rel> EvalScan(const opt::ScanNode& scan,
                            const TableLookup& table_of) {
  const Table* table = table_of(scan.table);
  if (table == nullptr) return Status::NotFound("no table " + scan.table);
  Rel all;
  std::vector<const Column*> cols;
  for (const std::string& name : scan.columns) {
    BDCC_ASSIGN_OR_RETURN(int idx, table->ColumnIndex(name));
    cols.push_back(&table->column(idx));
    all.schema.Append(exec::Field{name, cols.back()->type()});
  }
  for (uint64_t r = 0; r < table->num_rows(); ++r) {
    Row row;
    for (const Column* c : cols) row.push_back(c->GetValue(r));
    all.rows.push_back(std::move(row));
  }
  std::vector<exec::ExprPtr> predicates;
  for (const opt::Sarg& s : scan.sargs) {
    predicates.push_back(opt::SargRowExpr(s));
  }
  if (scan.residual) predicates.push_back(scan.residual);
  for (const exec::ExprPtr& p : predicates) {
    BDCC_RETURN_NOT_OK(p->Bind(all.schema));
  }
  BDCC_ASSIGN_OR_RETURN(all.rows, Select(all, predicates));
  return all;
}

inline Result<Rel> EvalProject(const opt::ProjectNode& project,
                               const Rel& in) {
  Rel out;
  for (const exec::Project::NamedExpr& e : project.exprs) {
    BDCC_RETURN_NOT_OK(e.expr->Bind(in.schema));
    out.schema.Append(exec::Field{e.name, e.expr->type()});
  }
  RowBatch batch(in.schema);
  for (const Row& row : in.rows) {
    const exec::Batch& one = batch.Of(row);
    Row projected;
    for (const exec::Project::NamedExpr& e : project.exprs) {
      BDCC_ASSIGN_OR_RETURN(Cell c, EvalCell(*e.expr, one));
      projected.push_back(std::move(c));
    }
    out.rows.push_back(std::move(projected));
  }
  return out;
}

/// Key tuple of `row`; nullopt when any key is NULL (never matches).
inline std::optional<std::vector<Value>> JoinKey(const Row& row,
                                                 const std::vector<int>& idx) {
  std::vector<Value> key;
  for (int i : idx) {
    if (!row[i].has_value()) return std::nullopt;
    key.push_back(*row[i]);
  }
  return key;
}

inline Result<Rel> EvalJoin(const opt::JoinNode& join, const Rel& left,
                            const Rel& right) {
  if (join.left_keys.size() != join.right_keys.size()) {
    return Status::InvalidArgument("join key arity differs");
  }
  std::vector<int> lk, rk;
  for (const std::string& k : join.left_keys) {
    BDCC_ASSIGN_OR_RETURN(int i, left.schema.Require(k));
    lk.push_back(i);
  }
  for (const std::string& k : join.right_keys) {
    BDCC_ASSIGN_OR_RETURN(int i, right.schema.Require(k));
    rk.push_back(i);
  }
  std::map<std::vector<Value>, std::vector<size_t>> right_rows;
  for (size_t j = 0; j < right.rows.size(); ++j) {
    auto key = JoinKey(right.rows[j], rk);
    if (key.has_value()) right_rows[*key].push_back(j);
  }
  bool emit_right = join.type == exec::JoinType::kInner ||
                    join.type == exec::JoinType::kLeftOuter;
  Rel out;
  out.schema = emit_right ? exec::Schema::Concat(left.schema, right.schema)
                          : left.schema;
  static const std::vector<size_t> kNone;
  for (const Row& l : left.rows) {
    auto key = JoinKey(l, lk);
    auto it = key.has_value() ? right_rows.find(*key) : right_rows.end();
    const std::vector<size_t>& matches =
        it == right_rows.end() ? kNone : it->second;
    switch (join.type) {
      case exec::JoinType::kLeftSemi:
      case exec::JoinType::kLeftAnti:
        if (matches.empty() == (join.type == exec::JoinType::kLeftAnti)) {
          out.rows.push_back(l);
        }
        break;
      case exec::JoinType::kInner:
      case exec::JoinType::kLeftOuter:
        for (size_t j : matches) {
          Row joined = l;
          joined.insert(joined.end(), right.rows[j].begin(),
                        right.rows[j].end());
          out.rows.push_back(std::move(joined));
        }
        if (matches.empty() && join.type == exec::JoinType::kLeftOuter) {
          Row joined = l;
          joined.resize(l.size() + right.schema.num_fields());
          out.rows.push_back(std::move(joined));
        }
        break;
    }
  }
  return out;
}

/// One aggregate's running state for one group.
struct Accumulator {
  int64_t count = 0;  // non-NULL inputs (all rows for COUNT(*))
  int64_t sum_i64 = 0;
  double sum_f64 = 0.0;
  Cell extreme;  // MIN/MAX so far
  std::set<Value> distinct;

  void Add(exec::AggKind kind, const Cell& v) {
    if (kind == exec::AggKind::kCountStar) {
      ++count;
      return;
    }
    if (!v.has_value()) return;
    ++count;
    switch (kind) {
      case exec::AggKind::kSum:
      case exec::AggKind::kAvg:
        if (kind == exec::AggKind::kSum && v->type() != TypeId::kFloat64) {
          sum_i64 += v->AsInt64();
        } else {
          sum_f64 += v->AsDouble();
        }
        break;
      case exec::AggKind::kMin:
        if (!extreme.has_value() || v->Compare(*extreme) < 0) extreme = v;
        break;
      case exec::AggKind::kMax:
        if (!extreme.has_value() || v->Compare(*extreme) > 0) extreme = v;
        break;
      case exec::AggKind::kCountDistinct:
        distinct.insert(*v);
        break;
      case exec::AggKind::kCount:
      case exec::AggKind::kCountStar:
        break;
    }
  }

  Cell Final(exec::AggKind kind, TypeId out_type) const {
    switch (kind) {
      case exec::AggKind::kCount:
      case exec::AggKind::kCountStar:
        return Value::Int64(count);
      case exec::AggKind::kCountDistinct:
        return Value::Int64(static_cast<int64_t>(distinct.size()));
      case exec::AggKind::kSum:
        return out_type == TypeId::kFloat64 ? Value::Float64(sum_f64)
                                            : Value::Int64(sum_i64);
      case exec::AggKind::kAvg:
        return Value::Float64(
            count == 0 ? 0.0 : sum_f64 / static_cast<double>(count));
      case exec::AggKind::kMin:
      case exec::AggKind::kMax:
        if (extreme.has_value()) return extreme;
        switch (out_type) {
          case TypeId::kFloat64:
            return Value::Float64(0.0);
          case TypeId::kInt64:
            return Value::Int64(0);
          case TypeId::kString:
            return Value::String("");
          default:
            return Value::Int32(0);  // AppendCell reads it into the i32 lane
        }
    }
    return Cell();
  }
};

inline TypeId AggOutputType(exec::AggKind kind, TypeId arg_type) {
  switch (kind) {
    case exec::AggKind::kSum:
      return arg_type == TypeId::kFloat64 ? TypeId::kFloat64 : TypeId::kInt64;
    case exec::AggKind::kAvg:
      return TypeId::kFloat64;
    case exec::AggKind::kMin:
    case exec::AggKind::kMax:
      return arg_type;
    default:
      return TypeId::kInt64;
  }
}

inline Result<Rel> EvalAggregate(const opt::AggregateNode& agg,
                                 const Rel& in) {
  Rel out;
  std::vector<int> group_idx;
  for (const std::string& g : agg.group_cols) {
    BDCC_ASSIGN_OR_RETURN(int i, in.schema.Require(g));
    group_idx.push_back(i);
    out.schema.Append(in.schema.field(i));
  }
  for (const exec::AggSpec& spec : agg.specs) {
    TypeId arg_type = TypeId::kInt64;
    if (spec.arg) {
      BDCC_RETURN_NOT_OK(spec.arg->Bind(in.schema));
      arg_type = spec.arg->type();
    }
    out.schema.Append(
        exec::Field{spec.output_name, AggOutputType(spec.kind, arg_type)});
  }
  std::map<Row, std::vector<Accumulator>> groups;
  if (group_idx.empty()) groups[Row()].resize(agg.specs.size());
  RowBatch batch(in.schema);
  for (const Row& row : in.rows) {
    Row key;
    for (int i : group_idx) key.push_back(row[i]);
    std::vector<Accumulator>& accs = groups[key];
    accs.resize(agg.specs.size());
    const exec::Batch& one = batch.Of(row);
    for (size_t s = 0; s < agg.specs.size(); ++s) {
      Cell arg;
      if (agg.specs[s].arg) {
        BDCC_ASSIGN_OR_RETURN(arg, EvalCell(*agg.specs[s].arg, one));
      }
      accs[s].Add(agg.specs[s].kind, arg);
    }
  }
  for (const auto& [key, accs] : groups) {
    Row row = key;
    for (size_t s = 0; s < agg.specs.size(); ++s) {
      row.push_back(accs[s].Final(
          agg.specs[s].kind, out.schema.field(group_idx.size() + s).type));
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

/// Three-way cell order: NULL first, then Value::Compare.
inline int CompareCells(const Cell& a, const Cell& b) {
  if (!a.has_value() || !b.has_value()) {
    return a.has_value() == b.has_value() ? 0 : (a.has_value() ? 1 : -1);
  }
  return a->Compare(*b);
}

inline Result<Rel> EvalSort(const opt::SortNode& sort, Rel in) {
  std::vector<std::pair<int, bool>> keys;
  for (const exec::SortKey& k : sort.keys) {
    BDCC_ASSIGN_OR_RETURN(int i, in.schema.Require(k.column));
    keys.emplace_back(i, k.descending);
  }
  std::stable_sort(in.rows.begin(), in.rows.end(),
                   [&](const Row& a, const Row& b) {
                     for (const auto& [i, desc] : keys) {
                       int c = CompareCells(a[i], b[i]);
                       if (c != 0) return desc ? c > 0 : c < 0;
                     }
                     return false;
                   });
  if (sort.limit >= 0 && in.rows.size() > static_cast<size_t>(sort.limit)) {
    in.rows.resize(static_cast<size_t>(sort.limit));
  }
  return in;
}

inline Result<Rel> Eval(const opt::LogicalNode& node,
                        const TableLookup& table_of) {
  std::vector<Rel> inputs;
  for (const opt::NodePtr& child : node.children) {
    BDCC_ASSIGN_OR_RETURN(Rel r, Eval(*child, table_of));
    inputs.push_back(std::move(r));
  }
  switch (node.kind) {
    case opt::NodeKind::kScan:
      return EvalScan(node.scan, table_of);
    case opt::NodeKind::kFilter: {
      BDCC_RETURN_NOT_OK(node.filter.predicate->Bind(inputs[0].schema));
      BDCC_ASSIGN_OR_RETURN(inputs[0].rows,
                            Select(inputs[0], {node.filter.predicate}));
      return std::move(inputs[0]);
    }
    case opt::NodeKind::kProject:
      return EvalProject(node.project, inputs[0]);
    case opt::NodeKind::kJoin:
      return EvalJoin(node.join, inputs[0], inputs[1]);
    case opt::NodeKind::kAggregate:
      return EvalAggregate(node.agg, inputs[0]);
    case opt::NodeKind::kSort:
      return EvalSort(node.sort, std::move(inputs[0]));
    case opt::NodeKind::kLimit:
      if (inputs[0].rows.size() > node.limit.n) {
        inputs[0].rows.resize(node.limit.n);
      }
      return std::move(inputs[0]);
  }
  return Status::NotImplemented("unknown logical node kind");
}

}  // namespace reference

/// The result of `plan` computed row at a time over the tables `table`
/// returns by name (nullptr = unknown table).
inline Result<exec::Batch> EvaluateReference(const opt::NodePtr& plan,
                                             TableLookup table) {
  BDCC_ASSIGN_OR_RETURN(reference::Rel rel, reference::Eval(*plan, table));
  return reference::ToBatch(rel.schema, rel.rows.data(), rel.rows.size());
}

/// A plan runner for tpch::QueryContext::run_plan: the reference answer
/// over `db`'s storage tables.
inline auto ReferenceRunner(const opt::PhysicalDb& db) {
  return [&db](const opt::NodePtr& plan) {
    return EvaluateReference(
        plan, [&db](const std::string& t) { return db.storage(t); });
  };
}

}  // namespace testutil
}  // namespace bdcc

#endif  // BDCC_TESTS_REFERENCE_EVAL_H_
