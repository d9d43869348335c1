// Logical query plans.
//
// Queries are written once as logical trees (joins annotated with the
// foreign key they follow); the planner compiles them per physical scheme
// (Plain / PK / BDCC), deciding join strategy, selection pushdown, and
// propagation. This mirrors the paper's setup where the same 22 TPC-H
// queries run against three physical designs of the same engine.
#ifndef BDCC_OPT_LOGICAL_PLAN_H_
#define BDCC_OPT_LOGICAL_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/aggregate.h"
#include "exec/expr.h"
#include "exec/hash_join.h"
#include "exec/project.h"
#include "exec/sort.h"
#include "storage/zonemap.h"

namespace bdcc {
namespace opt {

enum class NodeKind {
  kScan,
  kFilter,
  kProject,
  kJoin,
  kAggregate,
  kSort,
  kLimit,
};

struct LogicalNode;
using NodePtr = std::shared_ptr<LogicalNode>;

/// Sargable conjunct on a scan: a value range on one column, usable against
/// zone maps and dimension bins. `row_expr` overrides the generated
/// row-level residual (e.g. a LIKE whose prefix defines the range).
struct Sarg {
  std::string column;
  ValueRange range;
  exec::ExprPtr row_expr;  // optional
};

struct ScanNode {
  std::string table;
  std::vector<std::string> columns;
  std::vector<Sarg> sargs;
  exec::ExprPtr residual;  // non-sargable scan-level predicate (optional)
};

struct FilterNode {
  exec::ExprPtr predicate;
};

struct ProjectNode {
  std::vector<exec::Project::NamedExpr> exprs;
};

struct JoinNode {
  exec::JoinType type = exec::JoinType::kInner;
  std::vector<std::string> left_keys;
  std::vector<std::string> right_keys;
  /// The declared FK this join follows ("" when not an FK equi-join). Used
  /// for merge-join detection (PK) and selection propagation (BDCC
  /// pushdown); BDCC sandwiching proves co-clustering from the keys.
  std::string fk_id;
};

struct AggregateNode {
  std::vector<std::string> group_cols;
  std::vector<exec::AggSpec> specs;
};

struct SortNode {
  std::vector<exec::SortKey> keys;
  int64_t limit = -1;  // >= 0: ORDER BY ... LIMIT n (TopN)
};

struct LimitNode {
  uint64_t n = 0;
};

struct LogicalNode {
  NodeKind kind;
  std::vector<NodePtr> children;
  ScanNode scan;
  FilterNode filter;
  ProjectNode project;
  JoinNode join;
  AggregateNode agg;
  SortNode sort;
  LimitNode limit;
};

// ---- Builders ----

NodePtr LScan(std::string table, std::vector<std::string> columns,
              std::vector<Sarg> sargs = {}, exec::ExprPtr residual = nullptr);
NodePtr LFilter(NodePtr child, exec::ExprPtr predicate);
NodePtr LProject(NodePtr child, std::vector<exec::Project::NamedExpr> exprs);
NodePtr LJoin(NodePtr left, NodePtr right, exec::JoinType type,
              std::vector<std::string> left_keys,
              std::vector<std::string> right_keys, std::string fk_id = "");
NodePtr LAgg(NodePtr child, std::vector<std::string> group_cols,
             std::vector<exec::AggSpec> specs);
NodePtr LSort(NodePtr child, std::vector<exec::SortKey> keys,
              int64_t limit = -1);
NodePtr LLimit(NodePtr child, uint64_t n);

/// Sarg helpers.
Sarg SargEq(std::string column, Value v);
Sarg SargRange(std::string column, std::optional<Value> lo,
               std::optional<Value> hi);
/// Prefix LIKE: zone range [prefix, prefix+0xFF) plus the LIKE row filter.
Sarg SargPrefixLike(std::string column, std::string prefix_pattern);

/// Row-level expression enforcing a sarg (its row_expr if set, otherwise
/// comparisons generated from the range).
exec::ExprPtr SargRowExpr(const Sarg& sarg);

}  // namespace opt
}  // namespace bdcc

#endif  // BDCC_OPT_LOGICAL_PLAN_H_
