// The 22 TPC-H queries as logical plans (with multi-stage execution for the
// queries whose SQL has scalar subqueries: Q11, Q15, Q17, Q22).
#ifndef BDCC_TPCH_TPCH_QUERIES_H_
#define BDCC_TPCH_TPCH_QUERIES_H_

#include <functional>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "opt/planner.h"

namespace bdcc {
namespace tpch {

struct QueryContext {
  const opt::PhysicalDb* db = nullptr;
  opt::PlannerOptions planner;
  exec::ExecContext* exec = nullptr;
  /// Optional sink for planner notes (mechanism attribution).
  std::vector<std::string>* notes = nullptr;
  /// Needed by Q11 (its HAVING fraction is 0.0001/SF per the spec).
  double scale_factor = 0.01;
  /// Test seam: when set, RunPlan hands every logical plan (each stage of a
  /// multi-stage query included) to this function instead of compiling it.
  std::function<Result<exec::Batch>(const opt::NodePtr&)> run_plan;
};

/// Compile and fully execute one logical plan under `ctx` (or hand it to
/// `ctx.run_plan` when set).
Result<exec::Batch> RunPlan(const opt::NodePtr& plan, QueryContext& ctx);

/// Run TPC-H query `number` (1..22); returns the final result batch.
Result<exec::Batch> RunTpchQuery(int number, QueryContext& ctx);

inline constexpr int kNumTpchQueries = 22;

}  // namespace tpch
}  // namespace bdcc

#endif  // BDCC_TPCH_TPCH_QUERIES_H_
