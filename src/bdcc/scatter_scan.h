// BDCCscan planning: retrieve a BDCC table in any major-minor order of its
// interleaved dimensions, with offsets computed from TCOUNT.
//
// The scan emits group ranges tagged with the reduced `_bdcc_` key; query
// processing extracts per-use group identifiers from the key to drive
// sandwich operators [3]. For table A of the paper's Figure 1 this supports
// the orders (D1), (D2), (D1,D2), (D2,D1).
#ifndef BDCC_BDCC_SCATTER_SCAN_H_
#define BDCC_BDCC_SCATTER_SCAN_H_

#include <cstdint>
#include <vector>

#include "bdcc/bdcc_table.h"
#include "common/result.h"

namespace bdcc {

/// One group of consecutive tuples with equal (reduced) `_bdcc_` value.
struct GroupRange {
  uint64_t key = 0;        // reduced-granularity _bdcc_ value
  uint64_t row_begin = 0;  // physical rows [row_begin, row_end)
  uint64_t row_end = 0;
};

/// \brief Groups in natural (key-ascending) order — a sequential scan.
std::vector<GroupRange> PlanNaturalScan(const BdccTable& table);

/// \brief Groups ordered by the dimension uses listed in `use_order`
/// (major first). Bits of unlisted uses act as minor-most tiebreaks in
/// their original significance order.
Result<std::vector<GroupRange>> PlanScatterScan(
    const BdccTable& table, const std::vector<size_t>& use_order);

/// \brief Restrict `groups` to those whose use-`use_idx` prefix lies in
/// [lo_prefix, hi_prefix] (selection pushdown on a clustered dimension).
std::vector<GroupRange> FilterGroupsByPrefix(const BdccTable& table,
                                             std::vector<GroupRange> groups,
                                             size_t use_idx,
                                             uint64_t lo_prefix,
                                             uint64_t hi_prefix);

/// Extract the use's group identifier (bin-number prefix) from a group key.
uint64_t GroupValueOfUse(const BdccTable& table, size_t use_idx,
                         uint64_t group_key);

/// How a grouped scan tags batches for sandwich consumers: the group id
/// concatenates the listed uses' aligned bin prefixes, major first.
struct GroupSpec {
  size_t use_idx = 0;
  int shared_bits = 0;
};

/// Group id `key` maps to under `grouping` (-1 when grouping is empty): the
/// concatenation of each use's top `shared_bits` bits, major first.
int64_t GroupIdForKey(const BdccTable& table,
                      const std::vector<GroupSpec>& grouping, uint64_t key);

}  // namespace bdcc

#endif  // BDCC_BDCC_SCATTER_SCAN_H_
