#include "opt/planner.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

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

/// Group-id chunks per thread of a parallel sandwich. More chunks than
/// threads let ParallelUnion's window (num_threads + 1 chunks) hold a few
/// chunks' output instead of the whole join's; each chunk costs another
/// chain of scans and a sandwich operator, so the multiple stays small.
constexpr size_t kChunksPerThread = 8;

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
  std::string sorted_on;
  // Grouping property: batches carry ascending group ids under `grouping`
  // (major..minor specs over uses of `grouped_base`). A scan sets it when a
  // grouping is requested; sandwich operators and the operators that pass
  // group ids through keep it.
  const BdccTable* grouped_base = nullptr;
  std::vector<GroupSpec> grouping;

  // Parallel-clone support (empty/0 unless num_threads > 1 and the subplan
  // is a pure scan chain).
  LeafFactory leaf_factory;
  uint64_t leaf_rows = 0;
  // Ascending distinct group ids of a grouped scan chain (group-id mode).
  std::shared_ptr<const std::vector<int64_t>> leaf_gids;
};

/// Keeps the `keep` major levels of `plan`'s grouping: GroupRetag drops the
/// minor levels' bits from the group ids.
void Coarsen(SubPlan* plan, size_t keep) {
  int shift = 0;
  for (size_t i = keep; i < plan->grouping.size(); ++i) {
    shift += plan->grouping[i].shared_bits;
  }
  if (shift > 0) {
    plan->op = std::make_unique<GroupRetag>(std::move(plan->op), shift);
    plan->leaf_factory = nullptr;
  }
  plan->grouping.resize(keep);
}

/// Where a stream column's values come from: `column` of the `table` row
/// reached from each row of the stream's leftmost scan along the FK chain
/// `path` (empty: the scanned row itself).
struct ColumnOrigin {
  std::string table;
  std::vector<std::string> path;
  std::string column;
};
/// Origins of a logical node's output columns, relative to its leftmost
/// scan (the table a grouped stream's group ids come from). Columns without
/// one (aggregate results, computed projections) are absent.
using Lineage = std::map<std::string, ColumnOrigin>;

// The Scan under a chain of Filters; with `groupable`, also through the
// Projects and grouped Aggregates a grouping request passes down.
const LogicalNode* ChainScan(const NodePtr& node, bool groupable = false) {
  const LogicalNode* at = node.get();
  while (at->kind == NodeKind::kFilter ||
         (groupable && (at->kind == NodeKind::kProject ||
                        (at->kind == NodeKind::kAggregate &&
                         !at->agg.group_cols.empty())))) {
    at = at->children[0].get();
  }
  return at->kind == NodeKind::kScan ? at : nullptr;
}

/// How notes name a sandwich input.
std::string Label(const NodePtr& node) {
  const LogicalNode* scan = ChainScan(node);
  return scan != nullptr ? scan->scan.table : "<stream>";
}

/// One level of a join input's grouping, held or available: a use of its
/// grouped base, the group-id bits, and the anchors through which the join
/// keys determine the use.
struct Level {
  size_t use = 0;
  int bits = 0;
  std::set<std::string> anchors;
};

/// A join input as the sandwich rule sees it. A groupable chain over a BDCC
/// table stays uncompiled (`plan` empty, "open") so it can still be asked
/// for the grouping its partner needs; any other input is compiled first
/// and its grouping, if any, is fixed.
struct JoinInput {
  JoinInput(const NodePtr& n, const std::vector<std::string>& k)
      : node(n), keys(k) {}

  const NodePtr& node;
  const std::vector<std::string>& keys;
  std::optional<SubPlan> plan;
  // Fixed: the grouping's levels in order. Open: the uses the keys determine.
  std::vector<Level> levels;
  std::vector<GroupSpec> specs;  // the rule's choice

  bool fixed() const { return plan.has_value(); }
};

/// The sandwich rule. A fixed input leads (the left one if both or neither
/// are), and its levels are paired in order with the other input's: a
/// fixed partner offers its next level, an open one any unused level with a
/// shared anchor. Both take the narrower width, which a fixed input must
/// already have. A fixed leader stops at its first unmatched level (only a
/// prefix of a grouping can be kept); an open one skips it.
void MatchLevels(JoinInput* left, JoinInput* right) {
  bool swap = right->fixed() && !left->fixed();
  JoinInput* lead = swap ? right : left;
  JoinInput* other = swap ? left : right;
  std::vector<bool> used(other->levels.size());
  for (const Level& a : lead->levels) {
    auto pairs = [&](size_t i) {
      const Level& b = other->levels[i];
      int bits = std::min(a.bits, b.bits);
      return !used[i] && (!other->fixed() || i == other->specs.size()) &&
             (!lead->fixed() || bits == a.bits) &&
             (!other->fixed() || bits == b.bits) &&
             std::find_first_of(a.anchors.begin(), a.anchors.end(),
                                b.anchors.begin(),
                                b.anchors.end()) != a.anchors.end();
    };
    size_t hit = 0;
    while (hit < other->levels.size() && !pairs(hit)) ++hit;
    if (hit == other->levels.size()) {
      if (lead->fixed()) break;
      continue;
    }
    used[hit] = true;
    int bits = std::min(a.bits, other->levels[hit].bits);
    lead->specs.push_back(GroupSpec{a.use, bits});
    other->specs.push_back(GroupSpec{other->levels[hit].use, bits});
  }
}

using SandwichMaker =
    std::function<exec::OperatorPtr(std::vector<exec::OperatorPtr>)>;

class PlannerImpl {
 public:
  PlannerImpl(const PhysicalDb& db, const PlannerOptions& opts,
              PushdownAnalysis analysis)
      : db_(db), opts_(opts), analysis_(std::move(analysis)) {}

  /// Compiles `node`; a non-empty `grouping` asks the scan under a
  /// groupable chain (see ChainScan) to emit those group ids.
  Result<SubPlan> Compile(const NodePtr& node,
                          const std::vector<GroupSpec>& grouping = {});
  std::vector<std::string> TakeNotes() { return std::move(notes_); }

 private:
  void Note(std::string note) { notes_.push_back(std::move(note)); }

  Result<SubPlan> CompileScan(const NodePtr& node,
                              const std::vector<GroupSpec>& grouping);
  Result<SubPlan> CompileJoin(const NodePtr& node);
  Result<SubPlan> CompileAgg(const NodePtr& node,
                             std::vector<GroupSpec> grouping);

  // Sandwich helpers ------------------------------------------------------

  Lineage LineageOf(const LogicalNode& node) const;
  std::set<std::string> Anchors(const Lineage& lineage,
                                const std::vector<std::string>& keys,
                                const DimensionUse& use) const;
  /// Compiles a join input unless it is open, and lists its levels.
  Status PrepareInput(JoinInput* in);
  exec::OperatorPtr Sandwich(const std::string& what,
                             std::vector<SubPlan*> inputs,
                             SandwichMaker make);

  const PhysicalDb& db_;
  PlannerOptions opts_;
  PushdownAnalysis analysis_;
  std::vector<std::string> notes_;
};

Lineage PlannerImpl::LineageOf(const LogicalNode& node) const {
  Lineage out;
  if (node.kind == NodeKind::kScan) {
    for (const std::string& c : node.scan.columns) {
      out[c] = ColumnOrigin{node.scan.table, {}, c};
    }
    return out;
  }
  Lineage in = LineageOf(*node.children[0]);
  if (node.kind == NodeKind::kProject) {
    for (const auto& [name, expr] : node.project.exprs) {
      auto it = in.find(exec::ColumnRefName(expr));
      if (it != in.end()) out[name] = it->second;
    }
    return out;
  }
  if (node.kind == NodeKind::kAggregate) {
    for (const std::string& g : node.agg.group_cols) {
      if (in.count(g) > 0) out[g] = in[g];
    }
    return out;
  }
  // Filters, sorts, limits and joins keep the (left) child's origins. An
  // inner join whose keys pair an FK's from-columns on one left row with
  // its to-columns on the right's scanned rows also reaches the right's
  // columns along that FK (outer joins do not: their NULL-padded rows reach
  // no row).
  const JoinNode& jn = node.join;
  if (node.kind != NodeKind::kJoin || jn.type != exec::JoinType::kInner) {
    return in;
  }
  Lineage right = LineageOf(*node.children[1]);
  for (const catalog::ForeignKey& fk : db_.schema_catalog().foreign_keys()) {
    std::vector<std::string> via;  // the left row's path, then the FK
    std::set<std::string> paired;
    for (size_t p = 0; p < jn.left_keys.size(); ++p) {
      auto l = in.find(jn.left_keys[p]);
      auto r = right.find(jn.right_keys[p]);
      if (l == in.end() || r == right.end()) continue;
      auto j = std::find(fk.from_columns.begin(), fk.from_columns.end(),
                         l->second.column);
      if (l->second.table == fk.from_table && j != fk.from_columns.end() &&
          r->second.table == fk.to_table && r->second.path.empty() &&
          r->second.column == fk.to_columns[j - fk.from_columns.begin()] &&
          (paired.empty() || via == l->second.path)) {
        via = l->second.path;
        paired.insert(*j);
      }
    }
    if (paired.size() < fk.from_columns.size()) continue;
    via.push_back(fk.id);
    for (auto& [name, origin] : right) {
      origin.path.insert(origin.path.begin(), via.begin(), via.end());
      in[name] = std::move(origin);
    }
    break;
  }
  return in;
}

// The anchors through which `keys` determine `use`: a key of a row the
// use's FK path passes through (the row's primary key, the from-columns of
// the path's next FK, or at the path's end the dimension's key columns).
// An anchor names the dimension, the row it pins (table, and its columns
// by key position) and the FK path left from there. Equal anchors on both
// inputs of an equi-join therefore prove that matching rows share the
// dimension's bins; any anchor proves that equal keys do.
std::set<std::string> PlannerImpl::Anchors(
    const Lineage& lineage, const std::vector<std::string>& keys,
    const DimensionUse& use) const {
  const std::vector<std::string>& path = use.path.fk_ids;
  // Key positions by the row (table, depth along the path) they come from.
  std::map<std::pair<std::string, size_t>, std::map<std::string, size_t>>
      rows;
  for (size_t p = 0; p < keys.size(); ++p) {
    auto it = lineage.find(keys[p]);
    if (it == lineage.end()) continue;
    const ColumnOrigin& o = it->second;
    if (o.path.size() <= path.size() &&
        std::equal(o.path.begin(), o.path.end(), path.begin())) {
      rows[{o.table, o.path.size()}].emplace(o.column, p);
    }
  }
  std::set<std::string> out;
  for (const auto& [row, cols] : rows) {
    const auto& [table, depth] = row;
    // Anchor at `host` when every column of `of` is a key (`as` renames
    // them onto `host`) and the rest of the path starts at `rest`.
    auto add = [&, &cols = cols](const std::vector<std::string>& of,
                                 const std::vector<std::string>& as,
                                 const std::string& host, size_t rest) {
      if (of.empty()) return;
      std::map<size_t, std::string> pinned;
      for (size_t i = 0; i < of.size(); ++i) {
        auto c = cols.find(of[i]);
        if (c == cols.end()) return;
        pinned[c->second] = as[i];
      }
      std::string a = use.dimension->name() + "@" + host;
      for (const auto& [pos, col] : pinned) {
        a += " " + std::to_string(pos) + "=" + col;
      }
      for (size_t i = rest; i < path.size(); ++i) a += "." + path[i];
      out.insert(std::move(a));
    };
    if (auto def = db_.schema_catalog().GetTable(table); def.ok()) {
      add(def.value()->primary_key, def.value()->primary_key, table, depth);
    }
    if (depth == path.size()) {
      const std::vector<std::string>& dim_key = use.dimension->key_columns();
      add(dim_key, dim_key, table, depth);
    } else if (auto fk = db_.schema_catalog().GetForeignKey(path[depth]);
               fk.ok() && fk.value()->from_table == table) {
      add(fk.value()->from_columns, fk.value()->to_columns,
          fk.value()->to_table, depth + 1);
    }
  }
  return out;
}

Status PlannerImpl::PrepareInput(JoinInput* in) {
  bool sandwich = db_.scheme() == Scheme::kBdcc && opts_.enable_sandwich;
  const LogicalNode* scan = sandwich ? ChainScan(in->node, true) : nullptr;
  const BdccTable* base =
      scan != nullptr ? db_.bdcc(scan->scan.table) : nullptr;
  std::vector<GroupSpec> offered;
  if (base == nullptr) {
    BDCC_ASSIGN_OR_RETURN(in->plan, Compile(in->node));
    base = in->plan->grouped_base;
    offered = in->plan->grouping;
  } else {
    for (size_t u = 0; u < base->uses().size(); ++u) {
      offered.push_back(GroupSpec{u, bits::Ones(base->ReducedMask(u))});
    }
    // Longest FK path first: dimensions reachable further up a join chain
    // stay major, so later joins can keep a prefix (cascade).
    std::stable_sort(offered.begin(), offered.end(),
                     [&](const GroupSpec& a, const GroupSpec& b) {
                       return base->uses()[a.use_idx].path.Length() >
                              base->uses()[b.use_idx].path.Length();
                     });
  }
  if (base == nullptr) return Status::OK();
  Lineage lineage = LineageOf(*in->node);
  for (const GroupSpec& g : offered) {
    Level level{g.use_idx, g.shared_bits,
                Anchors(lineage, in->keys, base->uses()[g.use_idx])};
    if (in->fixed() || (level.bits > 0 && !level.anchors.empty())) {
      in->levels.push_back(std::move(level));
    }
  }
  return Status::OK();
}

// A sandwich operator built by `make` over `inputs`, all grouped alike.
// When every input is a grouped scan chain with clone support, clone i
// runs `make` over each input's clone restricted to the i-th chunk of the
// first input's group ids (kChunksPerThread chunks per thread, at most one
// per group id): partitions never straddle chunks, and the ParallelUnion
// emits the chunk outputs in order, so ids ascend.
exec::OperatorPtr PlannerImpl::Sandwich(const std::string& what,
                                        std::vector<SubPlan*> inputs,
                                        SandwichMaker make) {
  const SubPlan& first = *inputs[0];
  bool clonable = opts_.num_threads > 1 && first.leaf_gids != nullptr &&
                  first.leaf_gids->size() >= 2 &&
                  first.leaf_rows >= kMinParallelRows;
  for (SubPlan* p : inputs) clonable = clonable && p->leaf_factory;
  if (!clonable) {
    std::vector<exec::OperatorPtr> ops;
    for (SubPlan* p : inputs) ops.push_back(std::move(p->op));
    return make(std::move(ops));
  }
  size_t threads = static_cast<size_t>(opts_.num_threads);
  std::vector<GidSpan> spans =
      ChunkGids(*first.leaf_gids, kChunksPerThread * threads);
  std::vector<LeafFactory> leaves;
  for (SubPlan* p : inputs) leaves.push_back(p->leaf_factory);
  exec::ChainFactory factory =
      [leaves, spans, make](size_t i,
                            size_t n) -> Result<exec::OperatorPtr> {
    LeafClone c{i, n, spans[i].lo, spans[i].hi};
    std::vector<exec::OperatorPtr> ops;
    for (const LeafFactory& leaf : leaves) {
      BDCC_ASSIGN_OR_RETURN(exec::OperatorPtr op, leaf(c));
      ops.push_back(std::move(op));
    }
    return make(std::move(ops));
  };
  Note("parallel " + what + " x" + std::to_string(spans.size()));
  return std::make_unique<exec::ParallelUnion>(
      std::move(factory), spans.size(), threads, opts_.scheduler);
}

Result<SubPlan> PlannerImpl::CompileScan(
    const NodePtr& node, const std::vector<GroupSpec>& grouping) {
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
    if (!grouping.empty()) {
      std::vector<size_t> order;
      for (const GroupSpec& g : grouping) order.push_back(g.use_idx);
      BDCC_ASSIGN_OR_RETURN(parts[0].ranges, PlanScatterScan(*bt, order));
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
    if (!grouping.empty()) {
      out.grouped_base = bt;
      out.grouping = grouping;
    }
    segments = GroupSegments(*bt, parts, out.grouping);
    if (parallel && !grouping.empty()) {
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
    if (conjuncts.empty()) return scan_op;
    return std::make_unique<exec::Filter>(std::move(scan_op),
                                          exec::AndAll(conjuncts));
  };
  if (parallel) {
    out.leaf_rows = table->num_rows();
    out.leaf_factory = [make_scan, segments, morsels, pruned,
                        grouped = !grouping.empty()](
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
  return out;
}

Result<SubPlan> PlannerImpl::CompileJoin(const NodePtr& node) {
  const JoinNode& jn = node->join;
  const NodePtr& left_l = node->children[0];
  const NodePtr& right_l = node->children[1];

  // ---- PK: merge join along a sorted, unique foreign key ----
  const LogicalNode* left_base = ChainScan(left_l);
  const LogicalNode* right_base = ChainScan(right_l);
  auto fk_result = db_.schema_catalog().GetForeignKey(jn.fk_id);
  const catalog::ForeignKey* fk = fk_result.ok() ? fk_result.value() : nullptr;
  if (db_.scheme() == Scheme::kPk && opts_.enable_merge_join &&
      fk != nullptr && jn.type == exec::JoinType::kInner &&
      jn.left_keys.size() == 1 && fk->from_columns.size() == 1 &&
      left_base != nullptr && right_base != nullptr) {
    bool fk_from_left = fk->from_table == left_base->scan.table;
    const LogicalNode* probe_base = fk_from_left ? left_base : right_base;
    const LogicalNode* ref_base = fk_from_left ? right_base : left_base;
    std::string probe_key = fk_from_left ? jn.left_keys[0] : jn.right_keys[0];
    std::string ref_key = fk_from_left ? jn.right_keys[0] : jn.left_keys[0];
    // The keys must be the named FK's columns, not just its tables.
    if (fk->from_table == probe_base->scan.table &&
        fk->to_table == ref_base->scan.table &&
        probe_key == fk->from_columns[0] && ref_key == fk->to_columns[0] &&
        db_.sorted_on(probe_base->scan.table) == fk->from_columns[0] &&
        db_.sorted_on(ref_base->scan.table) == fk->to_columns[0] &&
        db_.unique_key(ref_base->scan.table, fk->to_columns[0])) {
      BDCC_ASSIGN_OR_RETURN(SubPlan probe,
                            Compile(fk_from_left ? left_l : right_l));
      BDCC_ASSIGN_OR_RETURN(SubPlan ref,
                            Compile(fk_from_left ? right_l : left_l));
      Note("merge join " + probe_base->scan.table + "⋈" +
           ref_base->scan.table + " on " + probe_key);
      SubPlan out;
      out.sorted_on = probe.sorted_on;
      out.op = std::make_unique<exec::MergeJoin>(
          std::move(probe.op), std::move(ref.op), probe_key, ref_key);
      return out;
    }
  }

  // ---- BDCC: sandwich join when the keys determine a shared grouping ----
  // (Other schemes only compile the inputs here: see PrepareInput.)
  JoinInput left{left_l, jn.left_keys};
  JoinInput right{right_l, jn.right_keys};
  BDCC_RETURN_NOT_OK(PrepareInput(&left));
  BDCC_RETURN_NOT_OK(PrepareInput(&right));
  MatchLevels(&left, &right);
  bool cascade = false;
  for (JoinInput* in : {&left, &right}) {
    if (!in->fixed()) {
      BDCC_ASSIGN_OR_RETURN(in->plan, Compile(in->node, in->specs));
    } else if (!in->specs.empty()) {
      cascade = true;
      Coarsen(&*in->plan, in->specs.size());
    }
  }
  SubPlan& l = *left.plan;
  SubPlan& r = *right.plan;
  SubPlan out;
  out.grouped_base = l.grouped_base;
  out.grouping = l.grouping;
  if (!left.specs.empty()) {
    std::string dims;
    for (const GroupSpec& g : l.grouping) {
      if (!dims.empty()) dims += ",";
      dims += l.grouped_base->uses()[g.use_idx].dimension->name();
    }
    Note("sandwich join " + Label(left_l) + "⋈" + Label(right_l) + " on [" +
         dims + "]" + (cascade ? " (cascade)" : ""));
    out.op = Sandwich(
        "sandwich join", {&l, &r},
        [lk = jn.left_keys, rk = jn.right_keys,
         type = jn.type](std::vector<exec::OperatorPtr> in) {
          return exec::OperatorPtr(std::make_unique<exec::SandwichHashJoin>(
              std::move(in[0]), std::move(in[1]), lk, rk, type));
        });
    return out;
  }

  // ---- Fallback: hash join ----
  out.sorted_on = l.sorted_on;
  // Parallel probe: build once, probe with morsel clones. Morsel
  // interleaving destroys sortedness, so sorted (PK) probe chains stay serial.
  if (opts_.num_threads > 1 && l.leaf_factory && l.grouping.empty() &&
      l.sorted_on.empty() && l.leaf_rows >= kMinParallelRows) {
    Note("parallel hash join probe x" + std::to_string(opts_.num_threads));
    // A clonable build chain of useful size scans and filters on N clones
    // drained through a ParallelUnion; the inserts stay serial.
    exec::OperatorPtr build = std::move(r.op);
    if (r.leaf_factory && r.leaf_gids == nullptr &&
        r.leaf_rows >= kMinParallelBuildRows) {
      size_t n = static_cast<size_t>(opts_.num_threads);
      build = std::make_unique<exec::ParallelUnion>(
          MorselClones(r.leaf_factory), n, n, opts_.scheduler);
      Note("parallel hash join build x" + std::to_string(opts_.num_threads));
    }
    out.op = std::make_unique<exec::ParallelHashJoin>(
        MorselClones(l.leaf_factory),
        static_cast<size_t>(opts_.num_threads), std::move(build), jn.left_keys,
        jn.right_keys, jn.type, opts_.scheduler);
  } else {
    out.op = std::make_unique<exec::HashJoin>(std::move(l.op), std::move(r.op),
                                              jn.left_keys, jn.right_keys,
                                              jn.type);
  }
  return out;
}

Result<SubPlan> PlannerImpl::CompileAgg(const NodePtr& node,
                                        std::vector<GroupSpec> grouping) {
  const AggregateNode& an = node->agg;
  const NodePtr& child_l = node->children[0];

  // ---- BDCC: sandwich aggregation when the group columns determine the
  // child's grouping, so no group spans two partitions ----
  // A join asks only for groupings its keys (group columns) determine.
  // Otherwise a child that can still take a request is asked for every use
  // the group columns determine; a grouped child keeps the prefix they do.
  bool sandwich = !grouping.empty();
  bool try_sandwich = !sandwich && db_.scheme() == Scheme::kBdcc &&
                      opts_.enable_sandwich && !an.group_cols.empty();
  Lineage lineage;
  auto determined = [&](const BdccTable& bt, size_t u) {
    return !Anchors(lineage, an.group_cols, bt.uses()[u]).empty();
  };
  if (try_sandwich) {
    lineage = LineageOf(*child_l);
    const LogicalNode* scan = ChainScan(child_l, true);
    const BdccTable* bt =
        scan != nullptr ? db_.bdcc(scan->scan.table) : nullptr;
    for (size_t u = 0; bt != nullptr && u < bt->uses().size(); ++u) {
      int bits = bits::Ones(bt->ReducedMask(u));
      if (bits > 0 && determined(*bt, u)) grouping.push_back({u, bits});
    }
  }
  BDCC_ASSIGN_OR_RETURN(SubPlan child, Compile(child_l, grouping));
  size_t keep = 0;
  while (try_sandwich && keep < child.grouping.size() &&
         determined(*child.grouped_base, child.grouping[keep].use_idx)) {
    ++keep;
  }
  if (keep > 0) Coarsen(&child, keep);
  if (sandwich || keep > 0) {
    Note("sandwich aggregation on " + Label(child_l));
    SubPlan out;
    out.grouped_base = child.grouped_base;
    out.grouping = child.grouping;
    out.op = Sandwich(
        "sandwich aggregation", {&child},
        [cols = an.group_cols,
         specs = an.specs](std::vector<exec::OperatorPtr> in) {
          return exec::OperatorPtr(std::make_unique<exec::SandwichAgg>(
              std::move(in[0]), cols, specs));
        });
    return out;
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
                                     const std::vector<GroupSpec>& grouping) {
  switch (node->kind) {
    case NodeKind::kScan:
      return CompileScan(node, grouping);
    case NodeKind::kFilter:
    case NodeKind::kProject: {
      // Row-wise operators keep the chain's grouping and clone support; a
      // Project may drop or rename the sorted column.
      BDCC_ASSIGN_OR_RETURN(SubPlan out, Compile(node->children[0], grouping));
      if (node->kind == NodeKind::kProject) out.sorted_on.clear();
      auto wrap = [node](exec::OperatorPtr op) -> exec::OperatorPtr {
        if (node->kind == NodeKind::kFilter) {
          return std::make_unique<exec::Filter>(std::move(op),
                                                node->filter.predicate);
        }
        return std::make_unique<exec::Project>(std::move(op),
                                               node->project.exprs);
      };
      out.op = wrap(std::move(out.op));
      if (out.leaf_factory) {
        LeafFactory inner = std::move(out.leaf_factory);
        out.leaf_factory =
            [inner, wrap](const LeafClone& c) -> Result<exec::OperatorPtr> {
          BDCC_ASSIGN_OR_RETURN(exec::OperatorPtr op, inner(c));
          return wrap(std::move(op));
        };
      }
      return out;
    }
    case NodeKind::kJoin:
      return CompileJoin(node);
    case NodeKind::kAggregate:
      return CompileAgg(node, grouping);
    case NodeKind::kSort:
    case NodeKind::kLimit: {
      BDCC_ASSIGN_OR_RETURN(SubPlan child, Compile(node->children[0]));
      SubPlan out;
      if (node->kind == NodeKind::kLimit) {
        out.op = std::make_unique<exec::Limit>(std::move(child.op),
                                               node->limit.n);
      } else if (node->sort.limit >= 0) {
        out.op = std::make_unique<exec::TopN>(
            std::move(child.op), node->sort.keys,
            static_cast<uint64_t>(node->sort.limit));
      } else {
        out.op = std::make_unique<exec::Sort>(std::move(child.op),
                                              node->sort.keys);
      }
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
  BDCC_ASSIGN_OR_RETURN(SubPlan root, impl.Compile(plan));
  CompiledQuery out;
  out.root = std::move(root.op);
  out.notes = impl.TakeNotes();
  return out;
}

}  // namespace opt
}  // namespace bdcc
