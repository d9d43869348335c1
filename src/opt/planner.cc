#include "opt/planner.h"

#include <algorithm>
#include <map>

#include "bdcc/scatter_scan.h"
#include "common/bits.h"
#include "common/task_scheduler.h"
#include "delta/live_table.h"
#include "exec/filter.h"
#include "exec/hash_agg.h"
#include "exec/merge_join.h"
#include "exec/morsel.h"
#include "exec/parallel.h"
#include "exec/project.h"
#include "exec/sandwich_agg.h"
#include "exec/sandwich_join.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "exec/stream_agg.h"
#include "exec/topn.h"

namespace bdcc {
namespace opt {

const char* SchemeName(Scheme scheme) {
  switch (scheme) {
    case Scheme::kPlain:
      return "plain";
    case Scheme::kPk:
      return "pk";
    case Scheme::kBdcc:
      return "bdcc";
  }
  return "?";
}

std::vector<exec::ScanSegment> GroupSegments(
    const BdccTable& table, const std::vector<TableRanges>& parts,
    const std::vector<GroupSpec>& grouping) {
  struct Tagged {
    int64_t gid;
    const Table* data;
    GroupRange range;
  };
  std::vector<Tagged> tagged;
  for (const TableRanges& p : parts) {
    for (const GroupRange& r : p.ranges) {
      tagged.push_back(
          Tagged{GroupIdForKey(table, grouping, r.key), p.table, r});
    }
  }
  if (!grouping.empty()) {
    std::stable_sort(tagged.begin(), tagged.end(),
                     [](const Tagged& a, const Tagged& b) {
                       return a.gid < b.gid;
                     });
  }
  std::vector<exec::ScanSegment> out;
  for (const auto& [gid, data, r] : tagged) {
    if (!out.empty() && out.back().table == data &&
        out.back().row_end == r.row_begin && out.back().group_id == gid) {
      out.back().row_end = r.row_end;
    } else {
      out.push_back(exec::ScanSegment{
          data, r.row_begin, r.row_end, gid,
          data == &table.data() ? exec::ScanSegment::Kind::kGroup
                                : exec::ScanSegment::Kind::kDelta});
    }
  }
  return out;
}

namespace {

/// Drops the `shift` minor bits of the group tag so a (major..minor) grouped
/// stream aligns with a coarser-partitioned partner.
class GroupRetag : public exec::Operator {
 public:
  GroupRetag(exec::OperatorPtr child, int shift)
      : child_(std::move(child)), shift_(shift) {}

  const exec::Schema& schema() const override { return child_->schema(); }
  Status Open(exec::ExecContext* ctx) override { return child_->Open(ctx); }
  Result<exec::Batch> Next(exec::ExecContext* ctx) override {
    BDCC_ASSIGN_OR_RETURN(exec::Batch b, child_->Next(ctx));
    if (!b.empty() && b.group_id >= 0) b.group_id >>= shift_;
    return b;
  }
  void Close(exec::ExecContext* ctx) override { child_->Close(ctx); }
  void Recycle(exec::Batch&& b) override { child_->Recycle(std::move(b)); }

 private:
  exec::OperatorPtr child_;
  int shift_;
};

struct AbsorbedTable {
  std::string table;
  std::vector<std::string> path;  // FK chain from the probe base table
};

// ---- Parallel pipeline support ------------------------------------------
//
// When PlannerOptions::num_threads > 1, scan chains additionally carry a
// *leaf factory*: a closure that instantiates another copy of the chain
// over one clone's share of the segments. Two ways of sharing exist:
//  - morsel mode (ungrouped scans): clone i reads the segments of a
//    deterministic strided subset of the morsel plan;
//  - group-id mode (grouped BDCC scans): the clone reads only the segments
//    whose group id falls in [gid_lo, gid_hi], so sandwich operators can be
//    chunked with both sides aligned on the same group-id span.
// A live table's delta chunks are more group ranges of the same layout: a
// grouped clone takes their segments within its span like the base's, and
// in morsel mode each chunk is one more morsel.

/// Rows per morsel; zone-aligned for plain tables, a pack target for
/// GroupRange morsels.
constexpr uint64_t kMorselRows = 8192;
/// Leaf size below which parallel pipelines are not worth their overhead.
constexpr uint64_t kMinParallelRows = 2 * kMorselRows;
/// Build-side floor for draining a hash-join build through a ParallelUnion
/// of scan clones: the clones only scan and filter (the inserts stay
/// serial), so the bar is lower than for probe pipelines.
constexpr uint64_t kMinParallelBuildRows = 4096;

struct LeafClone {
  size_t instance = 0;
  size_t total = 1;
  // When >= 0: restrict a grouped BDCC scan to group ids in [gid_lo, gid_hi].
  int64_t gid_lo = -1;
  int64_t gid_hi = -1;
};

using LeafFactory =
    std::function<Result<exec::OperatorPtr>(const LeafClone&)>;

/// Morsel-mode chain clones of `leaf`: clone i of n reads the leaf's i-th
/// strided share of morsels.
exec::ChainFactory MorselClones(LeafFactory leaf) {
  return [leaf = std::move(leaf)](size_t i, size_t n) {
    return leaf(LeafClone{i, n});
  };
}

/// Contiguous chunk of the ascending distinct-group-id universe.
struct GidSpan {
  int64_t lo = 0;
  int64_t hi = 0;
};

std::vector<GidSpan> ChunkGids(const std::vector<int64_t>& gids,
                               size_t max_chunks) {
  size_t chunks = std::min(max_chunks, gids.size());
  std::vector<GidSpan> out;
  if (chunks == 0) return out;
  size_t per = (gids.size() + chunks - 1) / chunks;
  for (size_t b = 0; b < gids.size(); b += per) {
    size_t e = std::min(gids.size(), b + per);
    out.push_back(GidSpan{gids[b], gids[e - 1]});
  }
  return out;
}

struct SubPlan {
  exec::OperatorPtr op;
  const LogicalNode* base_scan = nullptr;  // set for scan-chains
  std::string sorted_on;
  const BdccTable* grouped_base = nullptr;
  std::vector<GroupSpec> grouping;  // major..minor
  std::vector<AbsorbedTable> absorbed;

  // Parallel-clone support (empty/0 unless num_threads > 1 and the subplan
  // is a pure scan chain).
  LeafFactory leaf_factory;
  uint64_t leaf_rows = 0;
  // Ascending distinct group ids of a grouped scan chain (group-id mode).
  std::shared_ptr<const std::vector<int64_t>> leaf_gids;
};

struct GroupRequest {
  std::vector<size_t> order;  // scatter-scan use order (major first)
  std::vector<GroupSpec> specs;
};

// Chain of Filter nodes over a Scan?
const LogicalNode* ScanChainBase(const NodePtr& node) {
  const LogicalNode* at = node.get();
  while (at->kind == NodeKind::kFilter) at = at->children[0].get();
  return at->kind == NodeKind::kScan ? at : nullptr;
}

class PlannerImpl {
 public:
  PlannerImpl(const PhysicalDb& db, const PlannerOptions& opts,
              PushdownAnalysis analysis)
      : db_(db), opts_(opts), analysis_(std::move(analysis)) {}

  Result<SubPlan> Compile(const NodePtr& node, const GroupRequest* req);
  std::vector<std::string> TakeNotes() { return std::move(notes_); }

 private:
  void Note(std::string note) { notes_.push_back(std::move(note)); }

  Result<SubPlan> CompileScan(const NodePtr& node, const GroupRequest* req);
  Result<SubPlan> CompileJoin(const NodePtr& node);
  Result<SubPlan> CompileAgg(const NodePtr& node);

  // Sandwich helpers ------------------------------------------------------

  struct SharedUse {
    size_t probe_use;  // use index on the probe-side base table
    size_t build_use;  // use index on the build-side base table
    int shared_bits;
    size_t probe_path_len;
  };

  // Shared co-clustered uses between two base tables joined along `fk`,
  // where `probe_prefix` is the FK chain from the probe base table to the
  // FK's from-table.
  std::vector<SharedUse> FindSharedUses(
      const BdccTable* probe, const BdccTable* build,
      const catalog::ForeignKey* fk,
      const std::vector<std::string>& probe_prefix, bool fk_from_probe_side);

  const PhysicalDb& db_;
  PlannerOptions opts_;
  PushdownAnalysis analysis_;
  std::vector<std::string> notes_;
};

std::vector<PlannerImpl::SharedUse> PlannerImpl::FindSharedUses(
    const BdccTable* probe, const BdccTable* build,
    const catalog::ForeignKey* fk,
    const std::vector<std::string>& probe_prefix, bool fk_from_probe_side) {
  std::vector<SharedUse> out;
  for (size_t pu = 0; pu < probe->uses().size(); ++pu) {
    const DimensionUse& use_p = probe->uses()[pu];
    // The probe use's path must be probe_prefix + [fk] + build_path when the
    // FK points from the probe side; when the FK points from the build side
    // (build references probe), the build use's path is [fk] + probe_path.
    for (size_t bu = 0; bu < build->uses().size(); ++bu) {
      const DimensionUse& use_b = build->uses()[bu];
      if (use_p.dimension->name() != use_b.dimension->name()) continue;
      bool match = false;
      if (fk_from_probe_side) {
        std::vector<std::string> expect = probe_prefix;
        expect.push_back(fk->id);
        expect.insert(expect.end(), use_b.path.fk_ids.begin(),
                      use_b.path.fk_ids.end());
        match = use_p.path.fk_ids == expect;
      } else {
        // Build references probe: build path = [fk] + probe path, and the
        // probe must be the FK chain start (no prefix).
        if (!probe_prefix.empty()) continue;
        std::vector<std::string> expect;
        expect.push_back(fk->id);
        expect.insert(expect.end(), use_p.path.fk_ids.begin(),
                      use_p.path.fk_ids.end());
        match = use_b.path.fk_ids == expect;
      }
      if (!match) continue;
      int bits_p = bits::Ones(probe->ReducedMask(pu));
      int bits_b = bits::Ones(build->ReducedMask(bu));
      int shared = std::min(bits_p, bits_b);
      if (shared <= 0) continue;
      out.push_back(SharedUse{pu, bu, shared, use_p.path.fk_ids.size()});
    }
  }
  // Longest probe path first: dimensions reachable further up the join
  // chain stay major, enabling cascaded sandwiches via retagging.
  std::stable_sort(out.begin(), out.end(),
                   [](const SharedUse& a, const SharedUse& b) {
                     return a.probe_path_len > b.probe_path_len;
                   });
  // One entry per probe use (a use can only be interleaved once).
  std::vector<SharedUse> dedup;
  for (const SharedUse& s : out) {
    bool seen = false;
    for (const SharedUse& d : dedup) {
      if (d.probe_use == s.probe_use || d.build_use == s.build_use) {
        seen = true;
        break;
      }
    }
    if (!seen) dedup.push_back(s);
  }
  return dedup;
}

Result<SubPlan> PlannerImpl::CompileScan(const NodePtr& node,
                                         const GroupRequest* req) {
  const ScanNode& scan = node->scan;
  const Table* storage = db_.storage(scan.table);
  if (storage == nullptr) {
    return Status::NotFound("no storage for table " + scan.table);
  }
  std::vector<exec::ScanPredicate> zone_preds;
  if (opts_.enable_zonemaps) {
    for (const Sarg& s : scan.sargs) {
      zone_preds.push_back(exec::ScanPredicate{s.column, s.range});
    }
  }

  // Row-level enforcement of sargs + residual (applied below and inside
  // every parallel clone). Range-exact sargs are pushed into the scan
  // itself (selection-vector kernels); sargs with a custom row expression
  // (whose range over-approximates, e.g. prefix LIKE) and residuals keep a
  // Filter on top.
  bool scan_filters_rows = opts_.enable_zonemaps &&
                           std::any_of(scan.sargs.begin(), scan.sargs.end(),
                                       [](const Sarg& s) {
                                         return s.row_expr == nullptr;
                                       });
  std::vector<exec::ExprPtr> conjuncts;
  for (const Sarg& s : scan.sargs) {
    if (scan_filters_rows && s.row_expr == nullptr) continue;
    conjuncts.push_back(SargRowExpr(s));
  }
  if (scan.residual) conjuncts.push_back(scan.residual);

  SubPlan out;
  // The serial scan reads `segments`; parallel clones read a strided share
  // of `morsels` (ungrouped) or the segments whose group ids fall in their
  // span (grouped).
  std::vector<exec::ScanSegment> segments;
  std::vector<std::vector<exec::ScanSegment>> morsels;
  std::shared_ptr<const delta::TableSnapshot> snap;
  uint64_t pruned = 0;
  bool parallel = opts_.num_threads > 1;
  const BdccTable* bt =
      db_.scheme() == Scheme::kBdcc ? db_.bdcc(scan.table) : nullptr;
  if (bt != nullptr) {
    // The base's group ranges, then (live table) each delta chunk's slices
    // in append order. The pin, copied into every scan leaf, keeps the
    // snapshot's base version and chunks alive for the plan's lifetime.
    std::vector<TableRanges> parts(1);
    parts[0].table = &bt->data();
    if (req != nullptr && !req->order.empty()) {
      BDCC_ASSIGN_OR_RETURN(parts[0].ranges, PlanScatterScan(*bt, req->order));
    } else {
      parts[0].ranges = PlanNaturalScan(*bt);
    }
    snap = db_.snapshot(scan.table);
    if (snap != nullptr) {
      BDCC_CHECK(snap->base.get() == bt);  // snapshot()/bdcc() must agree
      for (const auto& chunk : snap->chunks) {
        parts.push_back(TableRanges{&chunk->data(), chunk->groups()});
      }
    }
    uint64_t before = parts[0].ranges.size();
    if (opts_.enable_group_pruning) {
      for (const UseRestriction& r : analysis_.restrictions) {
        if (r.scan != node.get()) continue;
        uint64_t lo, hi;
        if (!bt->BinRangeToGroupPrefix(r.use_idx, r.lo_bin, r.hi_bin, &lo,
                                       &hi)) {
          continue;
        }
        for (TableRanges& p : parts) {
          p.ranges = FilterGroupsByPrefix(*bt, std::move(p.ranges), r.use_idx,
                                          lo, hi);
        }
        Note("pushdown: " + scan.table + " groups via " +
             bt->uses()[r.use_idx].dimension->name() + " (" + r.source + ")");
      }
    }
    pruned = before - parts[0].ranges.size();
    if (req != nullptr) {
      out.grouped_base = bt;
      out.grouping = req->specs;
    }
    segments = GroupSegments(*bt, parts, out.grouping);
    if (parallel && req != nullptr) {
      // Group-id mode: record the ascending distinct group ids so callers
      // can chunk sandwich pipelines.
      auto gids = std::make_shared<std::vector<int64_t>>();
      for (const exec::ScanSegment& s : segments) {
        if (gids->empty() || gids->back() != s.group_id) {
          gids->push_back(s.group_id);
        }
      }
      out.leaf_gids = std::move(gids);
    } else if (parallel) {
      const std::vector<GroupRange>& base = parts[0].ranges;
      for (const exec::Morsel& m : exec::MakeRangeMorsels(base, kMorselRows)) {
        morsels.push_back(GroupSegments(
            *bt, {TableRanges{&bt->data(),
                              std::vector<GroupRange>(base.begin() + m.begin,
                                                      base.begin() + m.end)}}));
      }
      for (size_t i = 1; i < parts.size(); ++i) {
        morsels.push_back(GroupSegments(*bt, {parts[i]}));
      }
    }
    if (snap != nullptr && !snap->chunks.empty()) {
      Note("delta: " + scan.table + " + " +
           std::to_string(snap->chunks.size()) + " chunk(s), " +
           std::to_string(snap->delta_rows) + " rows @epoch " +
           std::to_string(snap->epoch));
    }
  } else {
    segments.push_back(exec::ScanSegment{storage, 0, storage->num_rows()});
    if (parallel) {
      uint32_t zone_rows = storage->HasZoneMaps() ? storage->zone_rows() : 0;
      for (const exec::Morsel& m :
           exec::MakeRowMorsels(storage->num_rows(), zone_rows, kMorselRows)) {
        morsels.push_back({exec::ScanSegment{storage, m.begin, m.end}});
      }
    }
    out.sorted_on = db_.sorted_on(scan.table);
  }

  const Table* table = bt != nullptr ? &bt->data() : storage;
  auto make_scan = [table, cols = scan.columns, zone_preds, conjuncts,
                    scan_filters_rows, snap](
                       std::vector<exec::ScanSegment> segs,
                       uint64_t pruned_groups) -> exec::OperatorPtr {
    auto scan_op = std::make_unique<exec::SegmentScan>(
        table, cols, zone_preds, std::move(segs), pruned_groups, snap);
    scan_op->EnableRowFilter(scan_filters_rows);
    scan_op->EnableZeroCopy(true);
    if (conjuncts.empty()) return scan_op;
    return std::make_unique<exec::Filter>(std::move(scan_op),
                                          exec::AndAll(conjuncts));
  };
  if (parallel) {
    out.leaf_rows = table->num_rows();
    out.leaf_factory = [make_scan, segments, morsels, pruned,
                        grouped = req != nullptr](
                           const LeafClone& c) -> Result<exec::OperatorPtr> {
      BDCC_CHECK((c.gid_lo >= 0) == grouped);
      std::vector<exec::ScanSegment> segs;
      if (grouped) {
        for (const exec::ScanSegment& s : segments) {
          if (s.group_id >= c.gid_lo && s.group_id <= c.gid_hi) {
            segs.push_back(s);
          }
        }
      }
      for (size_t i = c.instance; i < morsels.size(); i += c.total) {
        segs.insert(segs.end(), morsels[i].begin(), morsels[i].end());
      }
      return make_scan(std::move(segs), c.instance == 0 ? pruned : 0);
    };
  }
  out.op = make_scan(std::move(segments), pruned);
  out.base_scan = node.get();
  out.absorbed.push_back(AbsorbedTable{scan.table, {}});
  return out;
}

Result<SubPlan> PlannerImpl::CompileJoin(const NodePtr& node) {
  const JoinNode& jn = node->join;
  const NodePtr& left_l = node->children[0];
  const NodePtr& right_l = node->children[1];
  const LogicalNode* left_base = ScanChainBase(left_l);
  const LogicalNode* right_base = ScanChainBase(right_l);

  const catalog::ForeignKey* fk = nullptr;
  if (!jn.fk_id.empty()) {
    auto fk_result = db_.schema_catalog().GetForeignKey(jn.fk_id);
    if (fk_result.ok()) fk = fk_result.value();
  }

  // ---- BDCC: sandwich join between co-clustered inputs ----
  if (db_.scheme() == Scheme::kBdcc && opts_.enable_sandwich && fk != nullptr) {
    // Case A: both sides are scan chains over BDCC tables.
    if (left_base != nullptr && right_base != nullptr) {
      const BdccTable* bt_l = db_.bdcc(left_base->scan.table);
      const BdccTable* bt_r = db_.bdcc(right_base->scan.table);
      if (bt_l != nullptr && bt_r != nullptr) {
        bool fk_from_left = fk->from_table == left_base->scan.table &&
                            fk->to_table == right_base->scan.table;
        bool fk_from_right = fk->from_table == right_base->scan.table &&
                             fk->to_table == left_base->scan.table;
        if (fk_from_left || fk_from_right) {
          std::vector<SharedUse> shared =
              FindSharedUses(bt_l, bt_r, fk, {}, fk_from_left);
          if (!shared.empty()) {
            GroupRequest left_req, right_req;
            std::string dims;
            for (const SharedUse& s : shared) {
              left_req.order.push_back(s.probe_use);
              left_req.specs.push_back(
                  GroupSpec{s.probe_use, s.shared_bits});
              right_req.order.push_back(s.build_use);
              right_req.specs.push_back(
                  GroupSpec{s.build_use, s.shared_bits});
              if (!dims.empty()) dims += ",";
              dims += bt_l->uses()[s.probe_use].dimension->name();
            }
            BDCC_ASSIGN_OR_RETURN(SubPlan left, Compile(left_l, &left_req));
            BDCC_ASSIGN_OR_RETURN(SubPlan right, Compile(right_l, &right_req));
            Note("sandwich join " + left_base->scan.table + "⋈" +
                 right_base->scan.table + " on [" + dims + "]");
            SubPlan out;
            if (opts_.num_threads > 1 && left.leaf_factory &&
                right.leaf_factory && left.leaf_gids &&
                left.leaf_gids->size() >= 2 &&
                left.leaf_rows >= kMinParallelRows) {
              // Chunk the probe side's group-id universe; each chunk joins a
              // gid-aligned slice of both sides independently.
              std::vector<GidSpan> spans =
                  ChunkGids(*left.leaf_gids,
                            static_cast<size_t>(opts_.num_threads));
              LeafFactory lf = left.leaf_factory;
              LeafFactory rf = right.leaf_factory;
              auto lk = jn.left_keys;
              auto rk = jn.right_keys;
              auto type = jn.type;
              exec::ChainFactory factory =
                  [lf, rf, spans, lk, rk, type](
                      size_t i, size_t n) -> Result<exec::OperatorPtr> {
                LeafClone c{i, n, spans[i].lo, spans[i].hi};
                BDCC_ASSIGN_OR_RETURN(exec::OperatorPtr l, lf(c));
                BDCC_ASSIGN_OR_RETURN(exec::OperatorPtr r, rf(c));
                return exec::OperatorPtr(
                    std::make_unique<exec::SandwichHashJoin>(
                        std::move(l), std::move(r), lk, rk, type));
              };
              Note("parallel sandwich join x" +
                   std::to_string(spans.size()));
              out.op = std::make_unique<exec::ParallelUnion>(
                  std::move(factory), spans.size(), opts_.scheduler);
            } else {
              out.op = std::make_unique<exec::SandwichHashJoin>(
                  std::move(left.op), std::move(right.op), jn.left_keys,
                  jn.right_keys, jn.type);
            }
            out.grouped_base = bt_l;
            out.grouping = left_req.specs;
            out.absorbed = left.absorbed;
            if (fk_from_left &&
                (jn.type == exec::JoinType::kInner ||
                 jn.type == exec::JoinType::kLeftOuter)) {
              for (const AbsorbedTable& a : right.absorbed) {
                std::vector<std::string> path{fk->id};
                path.insert(path.end(), a.path.begin(), a.path.end());
                out.absorbed.push_back(AbsorbedTable{a.table, path});
              }
            }
            return out;
          }
        }
      }
    }
    // Case B: left is an already-grouped stream, right is a scan chain.
    if (left_base == nullptr && right_base != nullptr) {
      BDCC_ASSIGN_OR_RETURN(SubPlan left, Compile(left_l, nullptr));
      const BdccTable* bt_r = db_.bdcc(right_base->scan.table);
      if (left.grouped_base != nullptr && bt_r != nullptr &&
          fk->to_table == right_base->scan.table) {
        // FK chain from the probe base to the FK's from-table.
        const std::vector<std::string>* prefix = nullptr;
        for (const AbsorbedTable& a : left.absorbed) {
          if (a.table == fk->from_table) {
            prefix = &a.path;
            break;
          }
        }
        if (prefix != nullptr) {
          std::vector<SharedUse> shared = FindSharedUses(
              left.grouped_base, bt_r, fk, *prefix, /*fk_from_probe=*/true);
          // Align against the existing grouping: the needed uses must form a
          // prefix of left.grouping with at least the same width available
          // on the build side.
          size_t matched = 0;
          GroupRequest right_req;
          while (matched < left.grouping.size()) {
            const GroupSpec& g = left.grouping[matched];
            const SharedUse* hit = nullptr;
            for (const SharedUse& s : shared) {
              if (s.probe_use == g.use_idx && s.shared_bits >= g.shared_bits) {
                hit = &s;
                break;
              }
            }
            if (hit == nullptr) break;
            right_req.order.push_back(hit->build_use);
            right_req.specs.push_back(
                GroupSpec{hit->build_use, g.shared_bits});
            ++matched;
          }
          if (matched > 0) {
            int shift = 0;
            for (size_t i = matched; i < left.grouping.size(); ++i) {
              shift += left.grouping[i].shared_bits;
            }
            exec::OperatorPtr probe = std::move(left.op);
            if (shift > 0) {
              probe = std::make_unique<GroupRetag>(std::move(probe), shift);
            }
            BDCC_ASSIGN_OR_RETURN(SubPlan right, Compile(right_l, &right_req));
            Note("sandwich join <stream>⋈" + right_base->scan.table +
                 " (cascade, " + std::to_string(matched) + " dims)");
            SubPlan out;
            out.op = std::make_unique<exec::SandwichHashJoin>(
                std::move(probe), std::move(right.op), jn.left_keys,
                jn.right_keys, jn.type);
            out.grouped_base = left.grouped_base;
            out.grouping.assign(left.grouping.begin(),
                                left.grouping.begin() + matched);
            out.absorbed = left.absorbed;
            if (jn.type == exec::JoinType::kInner ||
                jn.type == exec::JoinType::kLeftOuter) {
              std::vector<std::string> path = *prefix;
              path.push_back(fk->id);
              out.absorbed.push_back(
                  AbsorbedTable{right_base->scan.table, path});
            }
            return out;
          }
        }
      }
      // No sandwich: finish as a hash join with the already-compiled left.
      BDCC_ASSIGN_OR_RETURN(SubPlan right, Compile(right_l, nullptr));
      SubPlan out;
      out.sorted_on = left.sorted_on;
      out.grouped_base = left.grouped_base;
      out.grouping = left.grouping;
      out.absorbed = left.absorbed;
      out.op = std::make_unique<exec::HashJoin>(std::move(left.op),
                                                std::move(right.op),
                                                jn.left_keys, jn.right_keys,
                                                jn.type);
      return out;
    }
  }

  // ---- PK: merge join along a sorted, unique foreign key ----
  if (db_.scheme() == Scheme::kPk && opts_.enable_merge_join &&
      fk != nullptr && jn.type == exec::JoinType::kInner &&
      jn.left_keys.size() == 1 && fk->from_columns.size() == 1 &&
      left_base != nullptr && right_base != nullptr) {
    bool fk_from_left = fk->from_table == left_base->scan.table;
    const LogicalNode* probe_base = fk_from_left ? left_base : right_base;
    const LogicalNode* ref_base = fk_from_left ? right_base : left_base;
    if (fk->from_table == probe_base->scan.table &&
        fk->to_table == ref_base->scan.table &&
        db_.sorted_on(probe_base->scan.table) == fk->from_columns[0] &&
        db_.sorted_on(ref_base->scan.table) == fk->to_columns[0] &&
        db_.unique_key(ref_base->scan.table, fk->to_columns[0])) {
      const NodePtr& probe_l = fk_from_left ? left_l : right_l;
      const NodePtr& ref_l = fk_from_left ? right_l : left_l;
      std::string probe_key = fk_from_left ? jn.left_keys[0] : jn.right_keys[0];
      std::string ref_key = fk_from_left ? jn.right_keys[0] : jn.left_keys[0];
      BDCC_ASSIGN_OR_RETURN(SubPlan probe, Compile(probe_l, nullptr));
      BDCC_ASSIGN_OR_RETURN(SubPlan ref, Compile(ref_l, nullptr));
      Note("merge join " + probe_base->scan.table + "⋈" +
           ref_base->scan.table + " on " + probe_key);
      SubPlan out;
      out.sorted_on = probe.sorted_on;
      out.op = std::make_unique<exec::MergeJoin>(
          std::move(probe.op), std::move(ref.op), probe_key, ref_key);
      return out;
    }
  }

  // ---- Fallback: hash join ----
  BDCC_ASSIGN_OR_RETURN(SubPlan left, Compile(left_l, nullptr));
  BDCC_ASSIGN_OR_RETURN(SubPlan right, Compile(right_l, nullptr));
  SubPlan out;
  out.sorted_on = left.sorted_on;
  out.grouped_base = left.grouped_base;
  out.grouping = left.grouping;
  out.absorbed = left.absorbed;
  // Parallel probe: build once, probe with morsel clones. Requires an
  // order-insensitive probe side — morsel interleaving destroys sortedness,
  // so PK chains that may feed merge/stream consumers stay serial.
  if (opts_.num_threads > 1 && left.leaf_factory && left.grouping.empty() &&
      left.sorted_on.empty() && left.leaf_rows >= kMinParallelRows) {
    Note("parallel hash join probe x" + std::to_string(opts_.num_threads));
    // A build side that is itself a clonable scan chain of useful size
    // scans and filters on N clones instead: a ParallelUnion of them
    // replaces the serial chain, and the inserts stay serial.
    exec::OperatorPtr build = std::move(right.op);
    if (right.leaf_factory && right.leaf_gids == nullptr &&
        right.leaf_rows >= kMinParallelBuildRows) {
      build = std::make_unique<exec::ParallelUnion>(
          MorselClones(right.leaf_factory),
          static_cast<size_t>(opts_.num_threads), opts_.scheduler);
      Note("parallel hash join build x" + std::to_string(opts_.num_threads));
    }
    out.op = std::make_unique<exec::ParallelHashJoin>(
        MorselClones(left.leaf_factory),
        static_cast<size_t>(opts_.num_threads), std::move(build), jn.left_keys,
        jn.right_keys, jn.type, opts_.scheduler);
  } else {
    out.op = std::make_unique<exec::HashJoin>(
        std::move(left.op), std::move(right.op), jn.left_keys, jn.right_keys,
        jn.type);
  }
  return out;
}

Result<SubPlan> PlannerImpl::CompileAgg(const NodePtr& node) {
  const AggregateNode& an = node->agg;
  const NodePtr& child_l = node->children[0];
  const LogicalNode* base = ScanChainBase(child_l);

  auto contains_all = [&](const std::vector<std::string>& cols) {
    return !cols.empty() &&
           std::all_of(cols.begin(), cols.end(), [&](const std::string& k) {
             return std::find(an.group_cols.begin(), an.group_cols.end(),
                              k) != an.group_cols.end();
           });
  };
  // A use is functionally determined by the group keys when some table
  // absorbed into the stream pins the rows the use's bins come from:
  // grouping by a table's primary key (Q13: c_custkey implies the nation)
  // or by an FK's source columns (Q18: l_orderkey implies orderdate bins)
  // fixes every dimension reached through that table.
  auto determined_uses = [&](const BdccTable* bt,
                             const std::vector<AbsorbedTable>& absorbed) {
    std::vector<size_t> uses;
    for (size_t u = 0; u < bt->uses().size(); ++u) {
      const DimensionUse& use = bt->uses()[u];
      bool det = false;
      for (const AbsorbedTable& a : absorbed) {
        if (use.path.fk_ids.size() < a.path.size()) continue;
        if (!std::equal(a.path.begin(), a.path.end(),
                        use.path.fk_ids.begin())) {
          continue;
        }
        auto def_result = db_.schema_catalog().GetTable(a.table);
        if (def_result.ok() && contains_all(def_result.value()->primary_key)) {
          det = true;
          break;
        }
        std::vector<std::string> rest(
            use.path.fk_ids.begin() + a.path.size(), use.path.fk_ids.end());
        if (rest.empty()) {
          if (contains_all(use.dimension->key_columns())) {
            det = true;
            break;
          }
        } else {
          auto fk_result = db_.schema_catalog().GetForeignKey(rest[0]);
          if (fk_result.ok() &&
              fk_result.value()->from_table == a.table &&
              contains_all(fk_result.value()->from_columns)) {
            det = true;
            break;
          }
        }
      }
      if (det && bits::Ones(bt->ReducedMask(u)) > 0) uses.push_back(u);
    }
    return uses;
  };

  // ---- BDCC sandwich aggregation over a direct scan chain ----
  if (db_.scheme() == Scheme::kBdcc && opts_.enable_sandwich &&
      base != nullptr && !an.group_cols.empty()) {
    const BdccTable* bt = db_.bdcc(base->scan.table);
    if (bt != nullptr) {
      std::vector<AbsorbedTable> self{{base->scan.table, {}}};
      std::vector<size_t> uses = determined_uses(bt, self);
      if (!uses.empty()) {
        GroupRequest req;
        for (size_t u : uses) {
          req.order.push_back(u);
          req.specs.push_back(
              GroupSpec{u, bits::Ones(bt->ReducedMask(u))});
        }
        BDCC_ASSIGN_OR_RETURN(SubPlan child, Compile(child_l, &req));
        Note("sandwich aggregation on " + base->scan.table);
        SubPlan out;
        if (opts_.num_threads > 1 && child.leaf_factory && child.leaf_gids &&
            child.leaf_gids->size() >= 2 &&
            child.leaf_rows >= kMinParallelRows) {
          // Partitions are disjoint across group-id chunks (the group keys
          // determine the partition), so chunk outputs simply concatenate.
          std::vector<GidSpan> spans = ChunkGids(
              *child.leaf_gids, static_cast<size_t>(opts_.num_threads));
          LeafFactory inner = child.leaf_factory;
          auto group_cols = an.group_cols;
          auto specs = an.specs;
          exec::ChainFactory factory =
              [inner, spans, group_cols, specs](
                  size_t i, size_t n) -> Result<exec::OperatorPtr> {
            LeafClone c{i, n, spans[i].lo, spans[i].hi};
            BDCC_ASSIGN_OR_RETURN(exec::OperatorPtr chain, inner(c));
            return exec::OperatorPtr(std::make_unique<exec::SandwichAgg>(
                std::move(chain), group_cols, specs));
          };
          Note("parallel sandwich aggregation x" +
               std::to_string(spans.size()));
          out.op = std::make_unique<exec::ParallelUnion>(
              std::move(factory), spans.size(), opts_.scheduler);
        } else {
          out.op = std::make_unique<exec::SandwichAgg>(
              std::move(child.op), an.group_cols, an.specs);
        }
        return out;
      }
    }
  }

  BDCC_ASSIGN_OR_RETURN(SubPlan child, Compile(child_l, nullptr));

  // ---- BDCC sandwich aggregation over an already-grouped stream ----
  if (db_.scheme() == Scheme::kBdcc && opts_.enable_sandwich &&
      child.grouped_base != nullptr && !an.group_cols.empty()) {
    std::vector<size_t> det =
        determined_uses(child.grouped_base, child.absorbed);
    bool all_determined = !child.grouping.empty();
    for (const GroupSpec& g : child.grouping) {
      if (std::find(det.begin(), det.end(), g.use_idx) == det.end()) {
        all_determined = false;
        break;
      }
    }
    if (all_determined) {
      Note("sandwich aggregation over co-clustered stream");
      SubPlan out;
      out.op = std::make_unique<exec::SandwichAgg>(std::move(child.op),
                                                   an.group_cols, an.specs);
      return out;
    }
  }

  // ---- Ordered aggregation when the input is sorted on the single key ----
  if (an.group_cols.size() == 1 &&
      !child.sorted_on.empty() && child.sorted_on == an.group_cols[0]) {
    Note("streaming aggregation on " + an.group_cols[0]);
    SubPlan out;
    out.sorted_on = an.group_cols[0];
    out.op = std::make_unique<exec::StreamAgg>(std::move(child.op),
                                               an.group_cols, an.specs);
    return out;
  }

  SubPlan out;
  if (opts_.num_threads > 1 && child.leaf_factory && child.grouping.empty() &&
      child.leaf_rows >= kMinParallelRows) {
    Note("parallel hash aggregation x" + std::to_string(opts_.num_threads));
    out.op = std::make_unique<exec::ParallelHashAgg>(
        MorselClones(child.leaf_factory),
        static_cast<size_t>(opts_.num_threads),
        an.group_cols, an.specs, opts_.scheduler);
  } else {
    out.op = std::make_unique<exec::HashAgg>(std::move(child.op),
                                             an.group_cols, an.specs);
  }
  return out;
}

Result<SubPlan> PlannerImpl::Compile(const NodePtr& node,
                                     const GroupRequest* req) {
  switch (node->kind) {
    case NodeKind::kScan:
      return CompileScan(node, req);
    case NodeKind::kFilter: {
      BDCC_ASSIGN_OR_RETURN(SubPlan child, Compile(node->children[0], req));
      SubPlan out = std::move(child);
      out.op = std::make_unique<exec::Filter>(std::move(out.op),
                                              node->filter.predicate);
      if (out.leaf_factory) {
        LeafFactory inner = std::move(out.leaf_factory);
        exec::ExprPtr pred = node->filter.predicate;
        out.leaf_factory =
            [inner, pred](const LeafClone& c) -> Result<exec::OperatorPtr> {
          BDCC_ASSIGN_OR_RETURN(exec::OperatorPtr op, inner(c));
          return exec::OperatorPtr(
              std::make_unique<exec::Filter>(std::move(op), pred));
        };
      }
      return out;
    }
    case NodeKind::kProject: {
      BDCC_ASSIGN_OR_RETURN(SubPlan child, Compile(node->children[0], nullptr));
      SubPlan out;
      out.grouped_base = child.grouped_base;
      out.grouping = child.grouping;
      out.absorbed = child.absorbed;
      out.leaf_rows = child.leaf_rows;
      out.leaf_gids = child.leaf_gids;
      if (child.leaf_factory) {
        LeafFactory inner = std::move(child.leaf_factory);
        auto exprs = node->project.exprs;
        out.leaf_factory =
            [inner, exprs](const LeafClone& c) -> Result<exec::OperatorPtr> {
          BDCC_ASSIGN_OR_RETURN(exec::OperatorPtr op, inner(c));
          return exec::OperatorPtr(
              std::make_unique<exec::Project>(std::move(op), exprs));
        };
      }
      out.op = std::make_unique<exec::Project>(std::move(child.op),
                                               node->project.exprs);
      return out;
    }
    case NodeKind::kJoin:
      return CompileJoin(node);
    case NodeKind::kAggregate:
      return CompileAgg(node);
    case NodeKind::kSort: {
      BDCC_ASSIGN_OR_RETURN(SubPlan child, Compile(node->children[0], nullptr));
      SubPlan out;
      if (node->sort.limit >= 0) {
        out.op = std::make_unique<exec::TopN>(
            std::move(child.op), node->sort.keys,
            static_cast<uint64_t>(node->sort.limit));
      } else {
        out.op = std::make_unique<exec::Sort>(std::move(child.op),
                                              node->sort.keys);
      }
      return out;
    }
    case NodeKind::kLimit: {
      BDCC_ASSIGN_OR_RETURN(SubPlan child, Compile(node->children[0], nullptr));
      SubPlan out;
      out.op = std::make_unique<exec::Limit>(std::move(child.op),
                                             node->limit.n);
      return out;
    }
  }
  return Status::Internal("unknown logical node kind");
}

}  // namespace

Result<CompiledQuery> Compile(const NodePtr& plan, const PhysicalDb& db,
                              const PlannerOptions& options) {
  PushdownAnalysis analysis;
  if (options.enable_group_pruning) {
    BDCC_ASSIGN_OR_RETURN(analysis, AnalyzePushdown(plan, db));
  }
  PlannerImpl impl(db, options, std::move(analysis));
  BDCC_ASSIGN_OR_RETURN(SubPlan root, impl.Compile(plan, nullptr));
  CompiledQuery out;
  out.root = std::move(root.op);
  out.notes = impl.TakeNotes();
  return out;
}

}  // namespace opt
}  // namespace bdcc
