#include "storage/column.h"

#include <type_traits>

#include "storage/compression/encoded_column.h"

namespace bdcc {

Column::Column(TypeId type) : type_(type) {
  if (type == TypeId::kString) dict_ = std::make_shared<Dictionary>();
}

Column::Column(TypeId type, std::shared_ptr<Dictionary> dict)
    : type_(type), dict_(std::move(dict)) {
  BDCC_CHECK(type == TypeId::kString);
  BDCC_CHECK(dict_ != nullptr);
}

uint64_t Column::size() const {
  switch (type_) {
    case TypeId::kInt64:
      return i64_.size();
    case TypeId::kFloat64:
      return f64_.size();
    default:
      return i32_.size();
  }
}

void Column::Reserve(uint64_t rows) {
  switch (type_) {
    case TypeId::kInt64:
      i64_.reserve(rows);
      break;
    case TypeId::kFloat64:
      f64_.reserve(rows);
      break;
    default:
      i32_.reserve(rows);
      break;
  }
}

void Column::AppendInt32(int32_t v) {
  BDCC_CHECK(type_ == TypeId::kInt32);
  i32_.push_back(v);
}

void Column::AppendInt64(int64_t v) {
  BDCC_CHECK(type_ == TypeId::kInt64);
  i64_.push_back(v);
}

void Column::AppendFloat64(double v) {
  BDCC_CHECK(type_ == TypeId::kFloat64);
  f64_.push_back(v);
}

void Column::AppendDate(int32_t days) {
  BDCC_CHECK(type_ == TypeId::kDate);
  i32_.push_back(days);
}

void Column::AppendBool(bool v) {
  BDCC_CHECK(type_ == TypeId::kBool);
  i32_.push_back(v ? 1 : 0);
}

void Column::AppendString(std::string_view s) {
  BDCC_CHECK(type_ == TypeId::kString);
  i32_.push_back(dict_->GetOrAdd(s));
}

void Column::AppendValue(const Value& v) {
  switch (type_) {
    case TypeId::kInt32:
      AppendInt32(static_cast<int32_t>(v.AsInt64()));
      break;
    case TypeId::kInt64:
      AppendInt64(v.AsInt64());
      break;
    case TypeId::kFloat64:
      AppendFloat64(v.AsDouble());
      break;
    case TypeId::kDate:
      AppendDate(static_cast<int32_t>(v.AsInt64()));
      break;
    case TypeId::kBool:
      AppendBool(v.AsInt64() != 0);
      break;
    case TypeId::kString:
      AppendString(v.AsString());
      break;
  }
}

Value Column::GetValue(uint64_t row) const {
  switch (type_) {
    case TypeId::kInt32:
      return Value::Int32(i32_[row]);
    case TypeId::kInt64:
      return Value::Int64(i64_[row]);
    case TypeId::kFloat64:
      return Value::Float64(f64_[row]);
    case TypeId::kDate:
      return Value::Date(i32_[row]);
    case TypeId::kBool:
      return Value::Bool(i32_[row] != 0);
    case TypeId::kString:
      return Value::String(dict_->Get(i32_[row]));
  }
  return Value();
}

uint64_t Column::DiskBytes() const {
  uint64_t fixed = size() * static_cast<uint64_t>(FixedWidth(type_));
  if (type_ == TypeId::kString) fixed += dict_->payload_bytes();
  return fixed;
}

Column Column::Gather(const std::vector<const Column*>& sources,
                      const std::vector<RowRef>& refs) {
  BDCC_CHECK(!sources.empty());
  const TypeId type = sources[0]->type_;
  for (const Column* s : sources) BDCC_CHECK(s->type_ == type);
  const size_t rows = refs.size();
  // One typed loop per lane: output row i copies its source's lane entry.
  auto gather_lane = [&](auto lane_of, auto* out) {
    using T = typename std::remove_pointer_t<decltype(out)>::value_type;
    std::vector<const T*> from(sources.size());
    for (size_t s = 0; s < sources.size(); ++s) {
      from[s] = lane_of(*sources[s]).data();
    }
    out->resize(rows);
    T* dst = out->data();
    for (size_t i = 0; i < rows; ++i) {
      dst[i] = from[refs[i].source][refs[i].row];
    }
  };
  Column out(type);
  switch (type) {
    case TypeId::kInt64:
      gather_lane([](const Column& c) -> const auto& { return c.i64_; },
                  &out.i64_);
      break;
    case TypeId::kFloat64:
      gather_lane([](const Column& c) -> const auto& { return c.f64_; },
                  &out.f64_);
      break;
    case TypeId::kString: {
      // Re-intern in gathered order: string payloads end up laid out in the
      // new row order (first occurrence), as a real column store stores
      // them — scans of a reordered table stay sequential over the heap.
      // remap[s][code] is source s's code in the output (-1: not yet seen).
      std::vector<std::vector<int32_t>> remap(sources.size());
      for (size_t s = 0; s < sources.size(); ++s) {
        remap[s].assign(static_cast<size_t>(sources[s]->dict_->size()), -1);
      }
      out.i32_.resize(rows);
      for (size_t i = 0; i < rows; ++i) {
        const Column& src = *sources[refs[i].source];
        const int32_t code = src.i32_[refs[i].row];
        int32_t& to = remap[refs[i].source][static_cast<size_t>(code)];
        if (to < 0) to = out.dict_->GetOrAdd(src.dict_->Get(code));
        out.i32_[i] = to;
      }
      break;
    }
    default:
      gather_lane([](const Column& c) -> const auto& { return c.i32_; },
                  &out.i32_);
      break;
  }
  return out;
}

void Column::BuildEncoded(uint32_t block_rows) {
  switch (type_) {
    case TypeId::kInt64:
    case TypeId::kFloat64:
      return;  // only i32-backed lanes (incl. string codes) have codecs
    default:
      break;
  }
  encoded_ = std::make_shared<const compression::EncodedLane>(
      compression::EncodedLane::Build(i32_.data(), i32_.size(), block_rows));
}

void Column::AppendFrom(const Column& other, uint64_t row) {
  BDCC_CHECK(type_ == other.type_);
  encoded_.reset();  // encoding is stale once the lane grows
  switch (type_) {
    case TypeId::kInt64:
      i64_.push_back(other.i64_[row]);
      break;
    case TypeId::kFloat64:
      f64_.push_back(other.f64_[row]);
      break;
    case TypeId::kString:
      if (dict_ == other.dict_) {
        i32_.push_back(other.i32_[row]);
      } else {
        i32_.push_back(dict_->GetOrAdd(other.GetString(row)));
      }
      break;
    default:
      i32_.push_back(other.i32_[row]);
      break;
  }
}

}  // namespace bdcc
