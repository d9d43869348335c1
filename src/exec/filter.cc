#include "exec/filter.h"

namespace bdcc {
namespace exec {

Status Filter::Open(ExecContext* ctx) {
  BDCC_RETURN_NOT_OK(child_->Open(ctx));
  return predicate_->Bind(child_->schema());
}

Result<Batch> Filter::Next(ExecContext* ctx) {
  while (true) {
    BDCC_ASSIGN_OR_RETURN(Batch in, child_->Next(ctx));
    if (in.empty()) return Batch::Empty();
    BDCC_ASSIGN_OR_RETURN(ColumnVector verdict, predicate_->Eval(in));
    // The verdict is dense over logical rows; compose with any incoming
    // selection so `sel` stays in physical row indices.
    std::vector<uint32_t> sel;
    sel.reserve(in.num_rows);
    for (size_t i = 0; i < in.num_rows; ++i) {
      if (verdict.i32[i]) sel.push_back(in.RowAt(i));
    }
    if (sel.empty()) {
      child_->Recycle(std::move(in));
      continue;  // try the next batch
    }
    if (sel.size() == in.num_rows) return in;  // all pass: keep representation
    Batch out;
    out.num_rows = sel.size();
    out.group_id = in.group_id;
    double density =
        static_cast<double>(sel.size()) / static_cast<double>(in.physical_rows());
    if (density >= ExecContext::kCompactDensity) {
      // Late materialization: share the columns, narrow the selection.
      out.columns = std::move(in.columns);
      out.sel = std::move(sel);
    } else {
      // Sparse: compact now and recycle the input buffers.
      out.columns.reserve(in.columns.size());
      for (const ColumnVector& c : in.columns) {
        out.columns.push_back(c.Gather(sel));
      }
      child_->Recycle(std::move(in));
    }
    return out;
  }
}

}  // namespace exec
}  // namespace bdcc
