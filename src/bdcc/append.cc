#include "bdcc/append.h"

#include <algorithm>
#include <numeric>

namespace bdcc {

Result<BdccKeyIndex> BdccKeyIndex::Build(const BdccTable& table,
                                         const TableResolver& resolver) {
  BdccKeyIndex index;
  index.table_name_ = table.name();
  index.spec_ = table.full_spec();
  for (const DimensionUse& use : table.uses()) {
    Use u;
    u.dimension = use.dimension;
    index.dim_bits_.push_back(use.dimension->bits());
    if (use.path.IsLocal()) {
      if (use.dimension->table() != table.name()) {
        return Status::InvalidArgument("dimension path does not end at " +
                                       use.dimension->table());
      }
      index.uses_.push_back(std::move(u));
      continue;
    }
    const std::string& fk_id = use.path.fk_ids.front();
    BDCC_ASSIGN_OR_RETURN(const catalog::ForeignKey* fk,
                          resolver.GetForeignKey(fk_id));
    if (fk->from_table != table.name()) {
      return Status::InvalidArgument("dimension path broken at " + fk_id +
                                     ": expected from-table " + table.name());
    }
    BDCC_ASSIGN_OR_RETURN(const Table* referenced,
                          resolver.GetTable(fk->to_table));
    for (size_t h = 0; h < index.hops_.size() && u.hop < 0; ++h) {
      if (index.hops_[h].fk_id == fk_id) u.hop = static_cast<int>(h);
    }
    if (u.hop < 0) {
      BDCC_ASSIGN_OR_RETURN(std::vector<uint64_t> keys,
                            EncodeKeyColumn(*referenced, fk->to_columns));
      Hop hop;
      hop.fk_id = fk_id;
      hop.from_columns = fk->from_columns;
      hop.row_of_key.reserve(keys.size());
      for (uint64_t r = 0; r < keys.size(); ++r) {
        hop.row_of_key[keys[r]] = static_cast<uint32_t>(r);  // last wins
      }
      u.hop = static_cast<int>(index.hops_.size());
      index.hops_.push_back(std::move(hop));
    }
    // The rest of the path, from the referenced table to the host.
    DimensionUse rest = use;
    rest.path.fk_ids.erase(rest.path.fk_ids.begin());
    BDCC_ASSIGN_OR_RETURN(u.bins,
                          ComputeBinColumn(*referenced, rest, resolver));
    index.uses_.push_back(std::move(u));
  }
  return index;
}

Result<std::vector<uint64_t>> BdccKeyIndex::Keys(const Table& rows) const {
  if (rows.name() != table_name_) {
    return Status::InvalidArgument(
        "appended rows must carry the table's name (dimension paths are "
        "anchored at it)");
  }
  const uint64_t n = rows.num_rows();
  // Row of each hop's referenced table that every keyed row points at.
  std::vector<std::vector<uint32_t>> referenced(hops_.size());
  for (size_t h = 0; h < hops_.size(); ++h) {
    const Hop& hop = hops_[h];
    BDCC_ASSIGN_OR_RETURN(std::vector<uint64_t> keys,
                          EncodeKeyColumn(rows, hop.from_columns));
    referenced[h].resize(n);
    for (uint64_t r = 0; r < n; ++r) {
      auto it = hop.row_of_key.find(keys[r]);
      if (it == hop.row_of_key.end()) {
        return Status::InvalidArgument("dangling foreign key " + hop.fk_id +
                                       " in row " + std::to_string(r) +
                                       " of " + rows.name());
      }
      referenced[h][r] = it->second;
    }
  }
  std::vector<std::vector<uint64_t>> bins(uses_.size());
  for (size_t u = 0; u < uses_.size(); ++u) {
    const Use& use = uses_[u];
    if (use.hop < 0) {
      BDCC_ASSIGN_OR_RETURN(bins[u], BinRows(rows, *use.dimension));
      continue;
    }
    const std::vector<uint32_t>& to = referenced[static_cast<size_t>(use.hop)];
    bins[u].resize(n);
    for (uint64_t r = 0; r < n; ++r) bins[u][r] = use.bins[to[r]];
  }
  std::vector<uint64_t> keys(n);
  std::vector<uint64_t> row_bins(uses_.size());
  for (uint64_t r = 0; r < n; ++r) {
    for (size_t u = 0; u < uses_.size(); ++u) row_bins[u] = bins[u][r];
    keys[r] = interleave::ComposeKey(row_bins.data(), dim_bits_.data(), spec_);
  }
  return keys;
}

Result<AppendStats> AppendToBdccTable(BdccTable* table, const Table& new_rows,
                                      const TableResolver& resolver) {
  BDCC_CHECK(table != nullptr);
  if (new_rows.name() != table->name()) {
    return Status::InvalidArgument(
        "appended rows must carry the table's name (dimension paths are "
        "anchored at it)");
  }
  if (table->data().num_rows() != table->logical_rows()) {
    return Status::InvalidArgument(
        "append after small-group consolidation is not supported; rebuild");
  }
  if (new_rows.num_columns() + 1 != table->data().num_columns()) {
    return Status::InvalidArgument("appended rows have a different schema");
  }
  AppendStats stats;
  stats.rows_appended = new_rows.num_rows();
  stats.groups_before = table->count_table().num_groups();
  if (new_rows.num_rows() == 0) {
    stats.groups_after = stats.groups_before;
    return stats;
  }

  BDCC_ASSIGN_OR_RETURN(BdccKeyIndex index,
                        BdccKeyIndex::Build(*table, resolver));
  BDCC_ASSIGN_OR_RETURN(std::vector<uint64_t> new_keys,
                        index.Keys(new_rows));
  uint64_t n_new = new_rows.num_rows();

  // Stage the new rows with their key column, stable-sort old and new rows
  // together (old rows first at equal keys), and gather them in that order.
  Table staged = new_rows.Clone();
  Column key_col(TypeId::kInt64);
  key_col.Reserve(n_new);
  for (uint64_t k : new_keys) key_col.AppendInt64(static_cast<int64_t>(k));
  BDCC_RETURN_NOT_OK(staged.AddColumn(kBdccColumnName, std::move(key_col)));

  const uint64_t n_old = table->data().num_rows();
  const uint64_t total = n_old + n_new;
  const auto& old_keys = table->data().column(table->bdcc_column_index()).i64();
  auto key_of = [&](uint32_t i) {
    return i < n_old ? static_cast<uint64_t>(old_keys[i]) : new_keys[i - n_old];
  };
  std::vector<uint32_t> perm(total);
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    return key_of(a) < key_of(b);
  });
  std::vector<RowRef> order(total);
  std::vector<uint64_t> sorted_keys(total);
  for (uint64_t i = 0; i < total; ++i) {
    order[i] = perm[i] < n_old
                   ? RowRef{0, perm[i]}
                   : RowRef{1, static_cast<uint32_t>(perm[i] - n_old)};
    sorted_keys[i] = key_of(perm[i]);
  }
  Table merged = Table::Gather({&table->data(), &staged}, order);

  uint32_t zone_rows =
      table->data().HasZoneMaps() ? table->data().zone_rows() : 1024;
  merged.BuildZoneMaps(zone_rows);
  if (table->data().HasEncodedLanes()) merged.BuildEncodedLanes();

  int count_bits = table->count_bits();
  table->mutable_data() = std::move(merged);
  table->mutable_count_table() =
      CountTable::Build(sorted_keys, table->full_bits(), count_bits);
  stats.groups_after = table->count_table().num_groups();
  return stats;
}

}  // namespace bdcc
