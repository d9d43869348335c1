// Morsels: the work units of parallel scans.
//
// A morsel plan is computed once at plan time. Each scan clone of a pipeline
// gets the segments (see exec/scan.h) of a deterministic strided subset of
// it (clone i takes morsels i, i+stride, i+2*stride, ...), so the rows a
// clone processes — and therefore per-clone aggregate partials — do not
// depend on runtime scheduling. Morsels are aligned to zone boundaries for
// plain tables and to GroupRange boundaries for BDCC tables, so zone
// skipping and group pruning compose with parallel execution.
#ifndef BDCC_EXEC_MORSEL_H_
#define BDCC_EXEC_MORSEL_H_

#include <cstdint>
#include <vector>

#include "bdcc/scatter_scan.h"
#include "exec/scan.h"

namespace bdcc {
namespace exec {

/// Half-open span. For plain scans the units are physical rows; for BDCC
/// scans they are indices into the scan's GroupRange vector.
struct Morsel {
  uint64_t begin = 0;
  uint64_t end = 0;
};

/// Row morsels of ~`target_rows`, aligned up to multiples of `zone_rows`
/// (pass 0 when the table has no zone maps).
std::vector<Morsel> MakeRowMorsels(uint64_t num_rows, uint32_t zone_rows,
                                   uint64_t target_rows);

/// The segments clone `instance` of `stride` scans over `table`: its row
/// morsels instance, instance + stride, ..., one segment each.
std::vector<ScanSegment> CloneRowSegments(const Table* table,
                                          const std::vector<Morsel>& morsels,
                                          size_t instance, size_t stride);

/// GroupRange-index morsels: consecutive ranges are packed until a morsel
/// covers ~`target_rows` physical rows. Never splits a range.
std::vector<Morsel> MakeRangeMorsels(const std::vector<GroupRange>& ranges,
                                     uint64_t target_rows);

}  // namespace exec
}  // namespace bdcc

#endif  // BDCC_EXEC_MORSEL_H_
