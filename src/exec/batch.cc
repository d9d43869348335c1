#include "exec/batch.h"

#include <cstring>

#include "exec/kernels/kernels.h"

namespace bdcc {
namespace exec {

int Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Result<int> Schema::Require(const std::string& name) const {
  int idx = IndexOf(name);
  if (idx < 0) {
    return Status::NotFound("column '" + name + "' not in schema " +
                            ToString());
  }
  return idx;
}

Schema Schema::Concat(const Schema& a, const Schema& b) {
  std::vector<Field> fields = a.fields_;
  fields.insert(fields.end(), b.fields_.begin(), b.fields_.end());
  return Schema(std::move(fields));
}

std::string Schema::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i) out += ", ";
    out += fields_[i].name;
  }
  return out + "]";
}

Value ColumnVector::GetValue(size_t row) const {
  if (IsNull(row)) return Value();  // caller must check IsNull for semantics
  switch (type) {
    case TypeId::kInt32:
      return Value::Int32(i32_data()[row]);
    case TypeId::kInt64:
      return Value::Int64(i64_data()[row]);
    case TypeId::kFloat64:
      return Value::Float64(f64_data()[row]);
    case TypeId::kDate:
      return Value::Date(i32_data()[row]);
    case TypeId::kBool:
      return Value::Bool(i32_data()[row] != 0);
    case TypeId::kString:
      return Value::String(dict->Get(i32_data()[row]));
  }
  return Value();
}

void ColumnVector::SetView(const int32_t* data, size_t rows) {
  ClearKeepCapacity();
  v_i32 = data;
  view_rows = rows;
}

void ColumnVector::SetView(const int64_t* data, size_t rows) {
  ClearKeepCapacity();
  v_i64 = data;
  view_rows = rows;
}

void ColumnVector::SetView(const double* data, size_t rows) {
  ClearKeepCapacity();
  v_f64 = data;
  view_rows = rows;
}

void ColumnVector::Materialize() {
  if (!is_view()) return;
  if (v_i32 != nullptr) i32.assign(v_i32, v_i32 + view_rows);
  if (v_i64 != nullptr) i64.assign(v_i64, v_i64 + view_rows);
  if (v_f64 != nullptr) f64.assign(v_f64, v_f64 + view_rows);
  v_i32 = nullptr;
  v_i64 = nullptr;
  v_f64 = nullptr;
  view_rows = 0;
}

void ColumnVector::AppendFromStorage(const Column& col, uint64_t row) {
  switch (type) {
    case TypeId::kInt64:
      i64.push_back(col.i64()[row]);
      break;
    case TypeId::kFloat64:
      f64.push_back(col.f64()[row]);
      break;
    default:
      i32.push_back(col.i32()[row]);
      break;
  }
  if (!nulls.empty()) nulls.push_back(0);
}

void ColumnVector::AppendFrom(const ColumnVector& other, size_t row) {
  BDCC_CHECK(type == other.type);
  if (other.IsNull(row)) {
    AppendNull();
    return;
  }
  switch (type) {
    case TypeId::kInt64:
      i64.push_back(other.i64_data()[row]);
      break;
    case TypeId::kFloat64:
      f64.push_back(other.f64_data()[row]);
      break;
    case TypeId::kString:
      if (dict == nullptr) dict = other.dict;
      if (dict == other.dict) {
        i32.push_back(other.i32_data()[row]);
      } else {
        // Source carries a different dictionary (e.g. expression-generated
        // strings or a delta chunk's private dictionary): fall back to
        // interning by content.
        i32.push_back(InternString(other.GetString(row)));
      }
      break;
    default:
      i32.push_back(other.i32_data()[row]);
      break;
  }
  if (!nulls.empty()) nulls.push_back(0);
}

void ColumnVector::AppendInterning(const ColumnVector& other, size_t row) {
  BDCC_CHECK(type == other.type);
  if (type != TypeId::kString) {
    AppendFrom(other, row);
    return;
  }
  if (other.IsNull(row)) {
    AppendNull();
    return;
  }
  i32.push_back(InternString(other.GetString(row)));
  if (!nulls.empty()) nulls.push_back(0);
}

int32_t ColumnVector::InternString(std::string_view s) {
  if (dict == nullptr) dict = std::make_shared<Dictionary>();
  int32_t code = dict->Find(s);
  if (code >= 0) return code;
  if (dict.use_count() > 1) {
    // The dictionary is aliased — typically adopted from a scanned batch
    // whose pointer is the table's (or a delta chunk's) own dictionary,
    // which concurrent readers may be using. Adding a genuinely new string
    // would race with them, so swap in a private copy first. GetOrAdd in
    // entry order reassigns identical codes, so codes already appended to
    // this lane stay valid.
    auto copy = std::make_shared<Dictionary>();
    for (int32_t c = 0; c < dict->size(); ++c) copy->GetOrAdd(dict->Get(c));
    dict = std::move(copy);
  }
  return dict->GetOrAdd(s);
}

void ColumnVector::AppendNull() {
  if (nulls.empty()) nulls.assign(size(), 0);
  switch (type) {
    case TypeId::kInt64:
      i64.push_back(0);
      break;
    case TypeId::kFloat64:
      f64.push_back(0.0);
      break;
    default:
      i32.push_back(0);
      break;
  }
  nulls.push_back(1);
}

void ColumnVector::Reserve(size_t rows) {
  switch (type) {
    case TypeId::kInt64:
      i64.reserve(rows);
      break;
    case TypeId::kFloat64:
      f64.reserve(rows);
      break;
    default:
      i32.reserve(rows);
      break;
  }
}

void ColumnVector::ClearKeepCapacity() {
  i32.clear();
  i64.clear();
  f64.clear();
  nulls.clear();
  v_i32 = nullptr;
  v_i64 = nullptr;
  v_f64 = nullptr;
  view_rows = 0;
}

// Gathers run through the tier-dispatched kernels (exec/kernels): the same
// run-collapsing frame as before, with hardware gathers for the scattered
// stretches where the tier provides them.
void ColumnVector::GatherInto(const std::vector<uint32_t>& sel,
                              ColumnVector* out) const {
  out->type = type;
  out->ClearKeepCapacity();
  out->dict = dict;
  size_t n = sel.size();
  switch (type) {
    case TypeId::kInt64:
      out->i64.resize(n);
      kernels::GatherI64(i64_data(), sel.data(), n, out->i64.data());
      break;
    case TypeId::kFloat64:
      out->f64.resize(n);
      kernels::GatherF64(f64_data(), sel.data(), n, out->f64.data());
      break;
    default:
      out->i32.resize(n);
      kernels::GatherI32(i32_data(), sel.data(), n, out->i32.data());
      break;
  }
  if (!nulls.empty()) {
    out->nulls.resize(n);
    kernels::GatherU8(nulls.data(), sel.data(), n, out->nulls.data());
  }
}

ColumnVector ColumnVector::Gather(const std::vector<uint32_t>& sel) const {
  ColumnVector out(type);
  GatherInto(sel, &out);
  return out;
}

namespace {

template <typename T, typename Kernel>
void AppendGatherLane(const T* src, const uint32_t* rows, size_t n,
                      std::vector<T>* dst, Kernel kernel) {
  size_t base = dst->size();
  dst->resize(base + n);
  kernel(src, rows, n, dst->data() + base);
}

}  // namespace

void ColumnVector::AppendGather(const ColumnVector& other,
                                const uint32_t* rows, size_t n) {
  BDCC_CHECK(type == other.type);
  if (n == 0) return;
  if (type == TypeId::kString) {
    if (dict == nullptr) dict = other.dict;
    if (dict != other.dict) {
      // Foreign dictionary: intern by content (slow path, see AppendFrom).
      for (size_t i = 0; i < n; ++i) AppendFrom(other, rows[i]);
      return;
    }
  }
  // NULL-mask alignment first, so lane sizes and mask sizes stay in step.
  // Like AppendFrom, a mask is only started once a NULL row is appended.
  bool masked = !nulls.empty();
  for (size_t i = 0; i < n && !masked && !other.nulls.empty(); ++i) {
    masked = other.nulls[rows[i]] != 0;
  }
  if (masked) {
    if (nulls.empty()) nulls.assign(size(), 0);
    if (other.nulls.empty()) {
      nulls.resize(nulls.size() + n, 0);
    } else {
      AppendGatherLane(other.nulls.data(), rows, n, &nulls,
                       kernels::GatherU8);
    }
  }
  switch (type) {
    case TypeId::kInt64:
      AppendGatherLane(other.i64_data(), rows, n, &i64, kernels::GatherI64);
      break;
    case TypeId::kFloat64:
      AppendGatherLane(other.f64_data(), rows, n, &f64, kernels::GatherF64);
      break;
    default:
      AppendGatherLane(other.i32_data(), rows, n, &i32, kernels::GatherI32);
      break;
  }
}

void Batch::Compact() {
  if (sel.empty()) {
    for (ColumnVector& c : columns) c.Materialize();
    return;
  }
  for (ColumnVector& c : columns) c = c.Gather(sel);
  sel.clear();
}

void Batch::CompactIfSparse(double min_density) {
  if (has_sel() && density() < min_density) Compact();
}

bool RecycleIntoFreeList(Batch&& batch, const Schema& schema,
                         std::vector<Batch>* free_list, size_t max_size) {
  if (free_list->size() >= max_size) return false;  // keep the list tiny
  if (batch.columns.size() != schema.num_fields()) return false;
  for (size_t c = 0; c < batch.columns.size(); ++c) {
    if (batch.columns[c].type != schema.field(c).type) return false;
  }
  batch.sel.clear();
  free_list->push_back(std::move(batch));
  return true;
}

}  // namespace exec
}  // namespace bdcc
