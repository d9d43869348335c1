// Maintenance under inserts.
//
// The paper's Section III argues for independent (non-hierarchical) bin
// numbering precisely because it is easy to maintain under updates: a new
// tuple's `_bdcc_` key only depends on its own dimension bins. This module
// implements bulk append: compute the new tuples' keys, merge them into the
// clustered order, and refresh TCOUNT — the count-table granularity chosen
// by Algorithm 1 is kept (re-tuning is a rebuild-time decision).
#ifndef BDCC_BDCC_APPEND_H_
#define BDCC_BDCC_APPEND_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "bdcc/bdcc_table.h"
#include "common/result.h"

namespace bdcc {

struct AppendStats {
  uint64_t rows_appended = 0;
  uint64_t groups_before = 0;
  uint64_t groups_after = 0;
};

/// \brief The `_bdcc_` keys of rows appended to one BDCC table, resolved
/// once.
///
/// Definition 4 makes a new tuple's key a function of its own dimension
/// bins, so all an append needs from other tables is fixed by the design:
/// Build reads the resolver's tables once and keeps, for every use with an
/// FK path, the use's bin of each row of the path's first referenced table
/// (composed down the rest of the path), found by that row's referenced key.
/// Keys() then costs O(rows keyed): one lookup per row and distinct first
/// FK, one load per row and use. Local uses (empty path) bin the keyed rows'
/// own columns. Immutable after Build, so concurrent Keys() calls are safe.
class BdccKeyIndex {
 public:
  /// Index `table`'s uses and full-granularity masks over `resolver`'s
  /// tables (read only here).
  static Result<BdccKeyIndex> Build(const BdccTable& table,
                                    const TableResolver& resolver);

  /// Key of every row of `rows` (the table's source schema; the table's
  /// name, since dimension paths are anchored at it). Fails on a from-key
  /// the referenced table did not hold at Build.
  Result<std::vector<uint64_t>> Keys(const Table& rows) const;

 private:
  // One distinct first FK of the uses' paths: referenced key -> row of the
  // referenced table.
  struct Hop {
    std::string fk_id;
    std::vector<std::string> from_columns;
    std::unordered_map<uint64_t, uint32_t> row_of_key;
  };
  struct Use {
    DimensionPtr dimension;
    int hop = -1;                // into hops_; -1 for a local use
    std::vector<uint64_t> bins;  // per row of the hop's referenced table
  };

  std::string table_name_;
  std::vector<Hop> hops_;
  std::vector<Use> uses_;
  std::vector<int> dim_bits_;
  interleave::InterleaveSpec spec_;
};

/// \brief Merge `new_rows` (same schema as the original source table, same
/// table name) into `table`, preserving the clustered order and count-table
/// granularity. Keys come from a BdccKeyIndex built for this call. Not
/// supported after small-group consolidation (the physical row order no
/// longer equals the logical order).
Result<AppendStats> AppendToBdccTable(BdccTable* table, const Table& new_rows,
                                      const TableResolver& resolver);

}  // namespace bdcc

#endif  // BDCC_BDCC_APPEND_H_
