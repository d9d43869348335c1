#include "bdcc/scatter_scan.h"

#include <algorithm>

#include "common/bits.h"

namespace bdcc {

std::vector<GroupRange> PlanNaturalScan(const BdccTable& table) {
  const CountTable& ct = table.count_table();
  std::vector<GroupRange> out;
  out.reserve(ct.num_groups());
  for (size_t i = 0; i < ct.num_groups(); ++i) {
    const CountEntry& e = ct.entry(i);
    out.push_back(GroupRange{e.key, e.row_begin, e.row_begin + e.count});
  }
  return out;
}

Result<std::vector<GroupRange>> PlanScatterScan(
    const BdccTable& table, const std::vector<size_t>& use_order) {
  for (size_t u : use_order) {
    if (u >= table.uses().size()) {
      return Status::InvalidArgument("scatter scan: use index out of range");
    }
  }
  std::vector<GroupRange> groups = PlanNaturalScan(table);

  // Build the permuted sort key per group: listed uses major-to-minor,
  // remaining bits minor-most in original order.
  int b = table.count_bits();
  uint64_t covered = 0;
  std::vector<uint64_t> masks;
  for (size_t u : use_order) {
    uint64_t m = table.ReducedMask(u);
    masks.push_back(m);
    covered |= m;
  }
  uint64_t remaining = bits::LowMask(b) & ~covered;

  auto sort_key = [&](uint64_t key) {
    uint64_t out = 0;
    for (uint64_t m : masks) {
      out = (out << bits::Ones(m)) | bits::ExtractBits(key, m);
    }
    out = (out << bits::Ones(remaining)) | bits::ExtractBits(key, remaining);
    return out;
  };
  std::stable_sort(groups.begin(), groups.end(),
                   [&](const GroupRange& x, const GroupRange& y) {
                     return sort_key(x.key) < sort_key(y.key);
                   });
  return groups;
}

std::vector<GroupRange> FilterGroupsByPrefix(const BdccTable& table,
                                             std::vector<GroupRange> groups,
                                             size_t use_idx,
                                             uint64_t lo_prefix,
                                             uint64_t hi_prefix) {
  uint64_t mask = table.ReducedMask(use_idx);
  groups.erase(std::remove_if(groups.begin(), groups.end(),
                              [&](const GroupRange& g) {
                                uint64_t v = bits::ExtractBits(g.key, mask);
                                return v < lo_prefix || v > hi_prefix;
                              }),
               groups.end());
  return groups;
}

uint64_t GroupValueOfUse(const BdccTable& table, size_t use_idx,
                         uint64_t group_key) {
  return bits::ExtractBits(group_key, table.ReducedMask(use_idx));
}

int64_t GroupIdForKey(const BdccTable& table,
                      const std::vector<GroupSpec>& grouping, uint64_t key) {
  if (grouping.empty()) return -1;
  int64_t gid = 0;
  for (const GroupSpec& g : grouping) {
    uint64_t mask = table.ReducedMask(g.use_idx);
    int own_bits = bits::Ones(mask);
    uint64_t prefix = bits::ExtractBits(key, mask);
    BDCC_CHECK(g.shared_bits <= own_bits);
    gid = (gid << g.shared_bits) |
          static_cast<int64_t>(prefix >> (own_bits - g.shared_bits));
  }
  return gid;
}

}  // namespace bdcc
