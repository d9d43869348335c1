#include "tpch/tpch_queries.h"

#include "tpch/queries/queries_internal.h"

namespace bdcc {
namespace tpch {

Result<exec::Batch> RunPlan(const opt::NodePtr& plan, QueryContext& ctx) {
  if (ctx.run_plan) return ctx.run_plan(plan);
  ctx.exec->memory()->set_limit(ctx.planner.memory_limit_bytes);
  BDCC_ASSIGN_OR_RETURN(opt::CompiledQuery compiled,
                        opt::Compile(plan, *ctx.db, ctx.planner));
  if (ctx.notes != nullptr) {
    ctx.notes->insert(ctx.notes->end(), compiled.notes.begin(),
                      compiled.notes.end());
  }
  return exec::CollectAll(compiled.root.get(), ctx.exec);
}

namespace queries {

Result<double> ScalarOf(const exec::Batch& batch) {
  if (batch.num_rows != 1 || batch.columns.empty()) {
    return Status::Internal("scalar stage did not produce one row");
  }
  const exec::ColumnVector& c = batch.columns[0];
  switch (c.type) {
    case TypeId::kFloat64:
      return c.f64[0];
    case TypeId::kInt64:
      return static_cast<double>(c.i64[0]);
    default:
      return static_cast<double>(c.i32[0]);
  }
}

}  // namespace queries

Result<exec::Batch> RunTpchQuery(int number, QueryContext& ctx) {
  using namespace queries;  // NOLINT
  switch (number) {
    case 1:
      return RunQ1(ctx);
    case 2:
      return RunQ2(ctx);
    case 3:
      return RunQ3(ctx);
    case 4:
      return RunQ4(ctx);
    case 5:
      return RunQ5(ctx);
    case 6:
      return RunQ6(ctx);
    case 7:
      return RunQ7(ctx);
    case 8:
      return RunQ8(ctx);
    case 9:
      return RunQ9(ctx);
    case 10:
      return RunQ10(ctx);
    case 11:
      return RunQ11(ctx);
    case 12:
      return RunQ12(ctx);
    case 13:
      return RunQ13(ctx);
    case 14:
      return RunQ14(ctx);
    case 15:
      return RunQ15(ctx);
    case 16:
      return RunQ16(ctx);
    case 17:
      return RunQ17(ctx);
    case 18:
      return RunQ18(ctx);
    case 19:
      return RunQ19(ctx);
    case 20:
      return RunQ20(ctx);
    case 21:
      return RunQ21(ctx);
    case 22:
      return RunQ22(ctx);
    default:
      return Status::InvalidArgument("TPC-H query number must be 1..22");
  }
}

}  // namespace tpch
}  // namespace bdcc
