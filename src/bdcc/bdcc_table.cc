#include "bdcc/bdcc_table.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "common/bits.h"

namespace bdcc {

namespace {

Result<std::vector<int>> ColumnIndices(const Table& table,
                                       const std::vector<std::string>& names) {
  std::vector<int> out;
  out.reserve(names.size());
  for (const std::string& n : names) {
    BDCC_ASSIGN_OR_RETURN(int idx, table.ColumnIndex(n));
    out.push_back(idx);
  }
  return out;
}

}  // namespace

Result<std::vector<uint64_t>> EncodeKeyColumn(
    const Table& table, const std::vector<std::string>& columns) {
  BDCC_ASSIGN_OR_RETURN(std::vector<int> cols, ColumnIndices(table, columns));
  const uint64_t rows = table.num_rows();
  std::vector<uint64_t> keys(rows);
  if (cols.size() == 1) {
    const Column& c = table.column(cols[0]);
    if (c.type() == TypeId::kInt64) {
      const auto& lane = c.i64();
      for (uint64_t r = 0; r < rows; ++r) {
        keys[r] = static_cast<uint64_t>(lane[r]);
      }
      return keys;
    }
    if (c.type() == TypeId::kString) {
      // Each table interns its strings into its own dictionary, so codes of
      // the referencing and referenced sides are not comparable.
      return Status::NotImplemented("FK key over string column");
    }
    if (!IsI32Backed(c.type())) {
      return Status::NotImplemented("FK key over float column");
    }
    const auto& lane = c.i32();
    for (uint64_t r = 0; r < rows; ++r) {
      keys[r] = static_cast<uint64_t>(static_cast<uint32_t>(lane[r]));
    }
    return keys;
  }
  if (cols.size() == 2) {
    const Column& a = table.column(cols[0]);
    const Column& b = table.column(cols[1]);
    if (!IsI32Backed(a.type()) || !IsI32Backed(b.type())) {
      return Status::NotImplemented("composite FK keys must be int32-backed");
    }
    for (uint64_t r = 0; r < rows; ++r) {
      keys[r] = (static_cast<uint64_t>(static_cast<uint32_t>(a.i32()[r]))
                 << 32) |
                static_cast<uint64_t>(static_cast<uint32_t>(b.i32()[r]));
    }
    return keys;
  }
  return Status::NotImplemented("FK keys wider than 2 columns");
}

Result<std::vector<uint64_t>> BinRows(const Table& table,
                                      const Dimension& dim) {
  BDCC_ASSIGN_OR_RETURN(std::vector<int> key_cols,
                        ColumnIndices(table, dim.key_columns()));
  uint64_t rows = table.num_rows();
  std::vector<uint64_t> bins(rows);
  if (dim.HasIntFastPath() && key_cols.size() == 1 &&
      table.column(key_cols[0]).type() != TypeId::kString) {
    const Column& c = table.column(key_cols[0]);
    if (c.type() == TypeId::kInt64) {
      for (uint64_t r = 0; r < rows; ++r) bins[r] = dim.BinOfInt(c.i64()[r]);
    } else {
      for (uint64_t r = 0; r < rows; ++r) bins[r] = dim.BinOfInt(c.i32()[r]);
    }
    return bins;
  }
  // Generic path (string or composite keys).
  for (uint64_t r = 0; r < rows; ++r) {
    CompositeValue v;
    v.reserve(key_cols.size());
    for (int idx : key_cols) v.push_back(table.column(idx).GetValue(r));
    bins[r] = dim.BinOf(v);
  }
  return bins;
}

Result<std::vector<uint64_t>> PropagateThroughPath(
    const Table& context, const DimensionPath& path,
    const std::string& host_table, const TableResolver& resolver,
    std::vector<uint64_t> host_values) {
  // Resolve the chain of tables along the path.
  std::vector<const catalog::ForeignKey*> fks;
  for (const std::string& id : path.fk_ids) {
    BDCC_ASSIGN_OR_RETURN(const catalog::ForeignKey* fk,
                          resolver.GetForeignKey(id));
    fks.push_back(fk);
  }
  // Validate chain endpoints.
  std::string expected = context.name();
  for (const catalog::ForeignKey* fk : fks) {
    if (fk->from_table != expected) {
      return Status::InvalidArgument("dimension path broken at " + fk->id +
                                     ": expected from-table " + expected);
    }
    expected = fk->to_table;
  }
  if (expected != host_table) {
    return Status::InvalidArgument("dimension path does not end at " +
                                   host_table);
  }

  std::vector<uint64_t> bins = std::move(host_values);
  for (size_t step = fks.size(); step-- > 0;) {
    const catalog::ForeignKey* fk = fks[step];
    BDCC_ASSIGN_OR_RETURN(const Table* to, resolver.GetTable(fk->to_table));
    const Table* from = nullptr;
    if (step == 0) {
      from = &context;
    } else {
      BDCC_ASSIGN_OR_RETURN(from, resolver.GetTable(fk->from_table));
    }
    BDCC_ASSIGN_OR_RETURN(std::vector<uint64_t> to_keys,
                          EncodeKeyColumn(*to, fk->to_columns));
    BDCC_ASSIGN_OR_RETURN(std::vector<uint64_t> from_keys,
                          EncodeKeyColumn(*from, fk->from_columns));
    // Map referenced-key -> bin.
    std::unordered_map<uint64_t, uint64_t> key_to_bin;
    key_to_bin.reserve(to_keys.size() * 2);
    for (uint64_t r = 0; r < to_keys.size(); ++r) {
      key_to_bin[to_keys[r]] = bins[r];
    }
    std::vector<uint64_t> next(from_keys.size());
    for (uint64_t r = 0; r < from_keys.size(); ++r) {
      auto it = key_to_bin.find(from_keys[r]);
      if (it == key_to_bin.end()) {
        return Status::InvalidArgument(
            "dangling foreign key " + fk->id + " in row " +
            std::to_string(r) + " of " + from->name());
      }
      next[r] = it->second;
    }
    bins = std::move(next);
  }
  return bins;
}

Result<std::vector<uint64_t>> ComputeBinColumn(const Table& context,
                                               const DimensionUse& use,
                                               const TableResolver& resolver) {
  const Dimension& dim = *use.dimension;
  if (use.path.IsLocal()) {
    // A local dimension bins the context's own rows (which may be rows
    // being appended to the host table, not the stored host table).
    if (context.name() != dim.table()) {
      return Status::InvalidArgument("dimension path does not end at " +
                                     dim.table());
    }
    return BinRows(context, dim);
  }
  BDCC_ASSIGN_OR_RETURN(const Table* host, resolver.GetTable(dim.table()));
  BDCC_ASSIGN_OR_RETURN(std::vector<uint64_t> host_bins, BinRows(*host, dim));
  return PropagateThroughPath(context, use.path, dim.table(), resolver,
                              std::move(host_bins));
}

uint64_t BdccTable::ReducedMask(size_t use_idx) const {
  BDCC_CHECK(use_idx < uses_.size());
  return uses_[use_idx].mask >> (full_bits() - count_bits());
}

bool BdccTable::BinRangeToGroupPrefix(size_t use_idx, uint64_t lo_bin,
                                      uint64_t hi_bin, uint64_t* lo_prefix,
                                      uint64_t* hi_prefix) const {
  uint64_t reduced = ReducedMask(use_idx);
  int used = bits::Ones(reduced);
  if (used == 0) return false;
  int dim_bits = uses_[use_idx].dimension->bits();
  *lo_prefix = lo_bin >> (dim_bits - used);
  *hi_prefix = hi_bin >> (dim_bits - used);
  return true;
}

std::string BdccTable::DescribeUses() const {
  std::string out;
  for (const DimensionUse& u : uses_) {
    out += "  " + u.ToString(full_bits()) + "\n";
  }
  return out;
}

BdccTable BdccTable::WithData(Table data, CountTable counts) const {
  BDCC_CHECK(data.num_columns() == data_.num_columns());
  BdccTable out(std::move(data));
  out.uses_ = uses_;
  out.full_spec_ = full_spec_;
  out.count_table_ = std::move(counts);
  // The group-size analysis describes the build-time distribution; it only
  // feeds reporting and the (rebuild-time) self-tune decision, so the copy
  // staying slightly stale is fine.
  out.analysis_ = analysis_;
  out.decision_ = decision_;
  out.bdcc_col_ = bdcc_col_;
  return out;
}

Result<BdccTable> BuildBdccTable(Table source, std::vector<DimensionUse> uses,
                                 const TableResolver& resolver,
                                 const BdccBuildOptions& options) {
  if (uses.empty()) {
    return Status::InvalidArgument("BDCC table needs at least one use");
  }
  if (source.HasColumn(kBdccColumnName)) {
    return Status::InvalidArgument("source already has a _bdcc_ column");
  }

  // (i) Assign masks at maximal granularity B = sum bits(D(U_i)).
  std::vector<int> use_bits;
  use_bits.reserve(uses.size());
  for (const DimensionUse& u : uses) use_bits.push_back(u.dimension->bits());
  BDCC_ASSIGN_OR_RETURN(
      interleave::InterleaveSpec spec,
      interleave::BuildMasks(use_bits, options.policy, options.fk_groups));
  for (size_t i = 0; i < uses.size(); ++i) uses[i].mask = spec.masks[i];

  // Per-row bin numbers for every use (FK-path resolution).
  std::vector<std::vector<uint64_t>> bin_columns;
  bin_columns.reserve(uses.size());
  for (const DimensionUse& u : uses) {
    BDCC_ASSIGN_OR_RETURN(std::vector<uint64_t> bins,
                          ComputeBinColumn(source, u, resolver));
    bin_columns.push_back(std::move(bins));
  }

  // (ii) Compose keys at granularity B and sort the table on them.
  uint64_t rows = source.num_rows();
  std::vector<uint64_t> keys(rows);
  {
    std::vector<uint64_t> bins(uses.size());
    for (uint64_t r = 0; r < rows; ++r) {
      for (size_t u = 0; u < uses.size(); ++u) bins[u] = bin_columns[u][r];
      keys[r] = interleave::ComposeKey(bins.data(), use_bits.data(), spec);
    }
  }
  std::vector<uint32_t> perm(rows);
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    return keys[a] < keys[b];
  });
  Table sorted = source.ApplyPermutation(perm);
  std::vector<uint64_t> sorted_keys(rows);
  for (uint64_t i = 0; i < rows; ++i) sorted_keys[i] = keys[perm[i]];

  // (ii, piggy-backed) group-size analysis at every granularity, and
  // (iii) the self-tuned count granularity — decided against the *data*
  // columns' densest (the paper's l_comment), before the artificial key
  // column is appended.
  GroupSizeAnalysis analysis =
      GroupSizeAnalysis::Build(sorted_keys, spec.total_bits);
  SelfTuneDecision decision =
      ChooseCountGranularity(analysis, sorted, options.tuning);

  Column bdcc_col(TypeId::kInt64);
  bdcc_col.Reserve(rows);
  for (uint64_t k : sorted_keys) {
    bdcc_col.AppendInt64(static_cast<int64_t>(k));
  }
  BDCC_RETURN_NOT_OK(sorted.AddColumn(kBdccColumnName, std::move(bdcc_col)));

  BdccTable out(std::move(sorted));
  out.bdcc_col_ = static_cast<int>(out.data_.num_columns()) - 1;
  out.uses_ = std::move(uses);
  out.full_spec_ = spec;
  out.analysis_ = std::move(analysis);
  out.decision_ = std::move(decision);

  // (iv) TCOUNT at the reduced granularity.
  out.count_table_ =
      CountTable::Build(sorted_keys, spec.total_bits, out.decision_.chosen_bits);

  // MinMax indexes over the clustered layout, then encoded mirrors of the
  // i32-backed lanes (clustering makes runs long, so RLE bites here).
  out.data_.BuildZoneMaps(options.zone_rows);
  out.data_.BuildEncodedLanes();
  return out;
}

}  // namespace bdcc
