// BDCC table (Definition 4) and its builder (Algorithm 1).
//
// A BDCC table T_BDCC = <T, U_1..U_d, b> replaces source table T: every
// tuple gets an artificial `_bdcc_` key composed from the major bits of its
// dimension bin numbers (per-use masks), the table is stored sorted on that
// key, and a TCOUNT metadata table records group frequencies at a self-tuned
// reduced granularity b <= B.
#ifndef BDCC_BDCC_BDCC_TABLE_H_
#define BDCC_BDCC_BDCC_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "bdcc/count_table.h"
#include "bdcc/dimension_use.h"
#include "bdcc/group_histogram.h"
#include "bdcc/interleave.h"
#include "bdcc/self_tune.h"
#include "catalog/catalog.h"
#include "common/result.h"
#include "storage/table.h"

namespace bdcc {

/// Name of the artificial clustering-key column.
inline constexpr const char* kBdccColumnName = "_bdcc_";

/// \brief Resolves table names and FK ids during dimension-path traversal.
class TableResolver {
 public:
  virtual ~TableResolver() = default;
  virtual Result<const Table*> GetTable(const std::string& name) const = 0;
  virtual Result<const catalog::ForeignKey*> GetForeignKey(
      const std::string& id) const = 0;
};

struct BdccBuildOptions {
  interleave::Policy policy = interleave::Policy::kRoundRobinPerUse;
  /// Group id per use for the per-FK policy (see interleave::BuildMasks).
  std::vector<int> fk_groups;
  SelfTuneOptions tuning;
  /// Zone-map granularity for the clustered table (MinMax indexes).
  uint32_t zone_rows = 1024;
};

/// \brief A clustered, counted, zone-mapped BDCC table.
class BdccTable {
 public:
  const Table& data() const { return data_; }
  Table& mutable_data() { return data_; }
  const std::string& name() const { return data_.name(); }

  const std::vector<DimensionUse>& uses() const { return uses_; }
  /// B: full granularity the table was sorted at.
  int full_bits() const { return full_spec_.total_bits; }
  /// b: granularity of the count table (Algorithm 1's choice).
  int count_bits() const { return count_table_.count_bits(); }

  const interleave::InterleaveSpec& full_spec() const { return full_spec_; }
  /// Use mask reduced to count-table granularity.
  uint64_t ReducedMask(size_t use_idx) const;

  const CountTable& count_table() const { return count_table_; }
  CountTable& mutable_count_table() { return count_table_; }
  const GroupSizeAnalysis& analysis() const { return analysis_; }
  const SelfTuneDecision& decision() const { return decision_; }

  /// Index of the `_bdcc_` column in data().
  int bdcc_column_index() const { return bdcc_col_; }

  /// Logical tuple count (count-table total; the physical table may hold
  /// extra appended copies after small-group consolidation).
  uint64_t logical_rows() const { return count_table_.total_count(); }

  /// \brief Map a dimension bin-number range [lo_bin, hi_bin] (full bin
  /// numbers of use `use_idx`'s dimension) to the matching prefix range at
  /// the count-table granularity. Returns false if the use has zero bits at
  /// that granularity (no pruning possible).
  bool BinRangeToGroupPrefix(size_t use_idx, uint64_t lo_bin, uint64_t hi_bin,
                             uint64_t* lo_prefix, uint64_t* hi_prefix) const;

  std::string DescribeUses() const;

  /// \brief New version of this table with replacement storage and counts:
  /// same uses, masks, granularity and design metadata, different rows. The
  /// delta subsystem's merge publication path — the old version stays alive
  /// untouched for readers pinned to earlier snapshots. `data` must have the
  /// same column schema (including `_bdcc_`) and be sorted on the key.
  BdccTable WithData(Table data, CountTable counts) const;

 private:
  friend Result<BdccTable> BuildBdccTable(Table source,
                                          std::vector<DimensionUse> uses,
                                          const TableResolver& resolver,
                                          const BdccBuildOptions& options);
  explicit BdccTable(Table data) : data_(std::move(data)) {}

  Table data_;
  std::vector<DimensionUse> uses_;  // masks at full granularity B
  interleave::InterleaveSpec full_spec_;
  CountTable count_table_;
  GroupSizeAnalysis analysis_;
  SelfTuneDecision decision_;
  int bdcc_col_ = -1;
};

/// \brief The (one- or two-column) key `columns` of every row of `table`,
/// encoded as the uint64 that FK lookups match: an integer column as is,
/// two int32-backed columns packed high/low. String and float keys are
/// NotImplemented.
Result<std::vector<uint64_t>> EncodeKeyColumn(
    const Table& table, const std::vector<std::string>& columns);

/// \brief Bin number under `dim` of every row of `table`, which must carry
/// the dimension's key columns (its host table, or rows appended to it).
Result<std::vector<uint64_t>> BinRows(const Table& table, const Dimension& dim);

/// \brief Pull per-row values of the host table down a dimension path: given
/// one value per *host* row, returns one value per *context* row by chaining
/// FK lookups. Seeding with row ordinals yields a context-row -> host-row
/// mapping (used by dimension creation to histogram the union of tables).
Result<std::vector<uint64_t>> PropagateThroughPath(
    const Table& context, const DimensionPath& path,
    const std::string& host_table, const TableResolver& resolver,
    std::vector<uint64_t> host_values);

/// \brief Compute, for each row of `context`, the bin number of dimension
/// use `use` by traversing its FK path. A local use (empty path) bins
/// `context`'s own rows; `context` must carry the host table's name.
Result<std::vector<uint64_t>> ComputeBinColumn(const Table& context,
                                               const DimensionUse& use,
                                               const TableResolver& resolver);

/// \brief Algorithm 1: build a round-robin (by default) clustered BDCC table
/// at maximal granularity, analyze group sizes, and keep TCOUNT at the
/// self-tuned granularity. The masks in `uses` are ignored on input and
/// assigned by the interleaving policy.
Result<BdccTable> BuildBdccTable(Table source, std::vector<DimensionUse> uses,
                                 const TableResolver& resolver,
                                 const BdccBuildOptions& options = {});

}  // namespace bdcc

#endif  // BDCC_BDCC_BDCC_TABLE_H_
