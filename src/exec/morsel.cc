#include "exec/morsel.h"

#include <algorithm>

namespace bdcc {
namespace exec {

std::vector<Morsel> MakeRowMorsels(uint64_t num_rows, uint32_t zone_rows,
                                   uint64_t target_rows) {
  std::vector<Morsel> out;
  if (num_rows == 0) return out;
  uint64_t step = std::max<uint64_t>(1, target_rows);
  if (zone_rows > 0) {
    // Round up to a whole number of zones so no zone spans two morsels.
    step = ((step + zone_rows - 1) / zone_rows) * zone_rows;
  }
  for (uint64_t begin = 0; begin < num_rows; begin += step) {
    out.push_back(Morsel{begin, std::min(num_rows, begin + step)});
  }
  return out;
}

std::vector<ScanSegment> CloneRowSegments(const Table* table,
                                          const std::vector<Morsel>& morsels,
                                          size_t instance, size_t stride) {
  std::vector<ScanSegment> out;
  for (size_t i = instance; i < morsels.size(); i += stride) {
    out.push_back(ScanSegment{table, morsels[i].begin, morsels[i].end});
  }
  return out;
}

std::vector<Morsel> MakeRangeMorsels(const std::vector<GroupRange>& ranges,
                                     uint64_t target_rows) {
  std::vector<Morsel> out;
  uint64_t acc = 0;
  uint64_t begin = 0;
  for (uint64_t i = 0; i < ranges.size(); ++i) {
    acc += ranges[i].row_end - ranges[i].row_begin;
    if (acc >= target_rows) {
      out.push_back(Morsel{begin, i + 1});
      begin = i + 1;
      acc = 0;
    }
  }
  if (begin < ranges.size()) out.push_back(Morsel{begin, ranges.size()});
  return out;
}

}  // namespace exec
}  // namespace bdcc
