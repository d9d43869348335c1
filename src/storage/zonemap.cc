#include "storage/zonemap.h"

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <utility>

namespace bdcc {

namespace {

// Rows {min, max} of rows [begin, end) under Value::Compare's order, read
// through `at`: a row replaces the minimum when it compares below it, and
// the maximum when it compares neither below nor equal to it. So a NaN first
// row stays the minimum, a later NaN becomes the maximum, and of equal
// values (-0 and +0 too) the first one seen is kept.
template <typename At>
std::pair<uint64_t, uint64_t> MinMaxRows(uint64_t begin, uint64_t end,
                                         At at) {
  auto lo = at(begin);
  auto hi = lo;
  uint64_t lo_row = begin;
  uint64_t hi_row = begin;
  for (uint64_t r = begin + 1; r < end; ++r) {
    const auto v = at(r);
    if (v < lo) {
      lo = v;
      lo_row = r;
    }
    if (!(v < hi) && !(v == hi)) {
      hi = v;
      hi_row = r;
    }
  }
  return {lo_row, hi_row};
}

// A string row as MinMaxRows reads it: rows with equal dictionary codes hold
// equal strings, so comparing them skips the bytes.
struct CodedString {
  int32_t code;
  std::string_view s;
  bool operator<(const CodedString& o) const {
    return code != o.code && s < o.s;
  }
  bool operator==(const CodedString& o) const {
    return code == o.code || s == o.s;
  }
};

}  // namespace

ZoneMap ZoneMap::Build(const Column& column, uint32_t zone_rows) {
  BDCC_CHECK(zone_rows > 0);
  ZoneMap zm;
  zm.zone_rows_ = zone_rows;
  uint64_t rows = column.size();
  uint64_t zones = (rows + zone_rows - 1) / zone_rows;
  zm.mins_.reserve(zones);
  zm.maxs_.reserve(zones);
  // One typed loop per zone; only the two bounds are boxed.
  auto build = [&](auto at) {
    for (uint64_t z = 0; z < zones; ++z) {
      uint64_t begin = z * zone_rows;
      uint64_t end = std::min<uint64_t>(begin + zone_rows, rows);
      auto [min_row, max_row] = MinMaxRows(begin, end, at);
      zm.mins_.push_back(column.GetValue(min_row));
      zm.maxs_.push_back(column.GetValue(max_row));
    }
  };
  switch (column.type()) {
    case TypeId::kInt64: {
      const int64_t* lane = column.i64().data();
      build([lane](uint64_t r) { return lane[r]; });
      break;
    }
    case TypeId::kFloat64: {
      const double* lane = column.f64().data();
      build([lane](uint64_t r) { return lane[r]; });
      break;
    }
    case TypeId::kString: {
      const int32_t* codes = column.i32().data();
      const Dictionary* dict = column.dict().get();
      build([codes, dict](uint64_t r) {
        return CodedString{codes[r], dict->Get(codes[r])};
      });
      break;
    }
    default: {  // int32, date and bool share the i32 lane
      const int32_t* lane = column.i32().data();
      build([lane](uint64_t r) { return lane[r]; });
      break;
    }
  }
  return zm;
}

}  // namespace bdcc
