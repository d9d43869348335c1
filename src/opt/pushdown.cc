#include "opt/pushdown.h"

#include <algorithm>
#include <set>
#include <utility>

#include "exec/filter.h"
#include "exec/scan.h"

namespace bdcc {
namespace opt {

namespace {

struct Edge {
  const LogicalNode* from_scan;  // referencing side
  const LogicalNode* to_scan;    // referenced side
  std::string fk_id;
};

void CollectScans(const NodePtr& node, std::vector<const LogicalNode*>* out) {
  if (node->kind == NodeKind::kScan) {
    out->push_back(node.get());
  }
  for (const NodePtr& c : node->children) CollectScans(c, out);
}

// Scans under `node` of a given table.
void ScansOfTable(const NodePtr& node, const std::string& table,
                  std::vector<const LogicalNode*>* out) {
  if (node->kind == NodeKind::kScan && node->scan.table == table) {
    out->push_back(node.get());
  }
  for (const NodePtr& c : node->children) ScansOfTable(c, table, out);
}

// The scan and scan column a plan column reads: traced down through
// renaming projections, grouping columns and the pass-through operators
// (filters, sorts, limits, either join input). {nullptr, ""} for a
// computed column.
std::pair<const LogicalNode*, std::string> ScanColumnOf(
    const NodePtr& node, const std::string& name) {
  switch (node->kind) {
    case NodeKind::kScan: {
      const std::vector<std::string>& cols = node->scan.columns;
      if (std::find(cols.begin(), cols.end(), name) == cols.end()) break;
      return {node.get(), name};
    }
    case NodeKind::kProject:
      for (const auto& [out, expr] : node->project.exprs) {
        if (out != name) continue;
        std::string ref = exec::ColumnRefName(expr);
        if (ref.empty()) break;
        return ScanColumnOf(node->children[0], ref);
      }
      break;
    case NodeKind::kAggregate: {
      const std::vector<std::string>& groups = node->agg.group_cols;
      if (std::find(groups.begin(), groups.end(), name) == groups.end()) break;
      return ScanColumnOf(node->children[0], name);
    }
    default:
      for (const NodePtr& c : node->children) {
        auto found = ScanColumnOf(c, name);
        if (found.first != nullptr) return found;
      }
      break;
  }
  return {nullptr, ""};
}

// True when `keys`, read in `side`, are `scan`'s columns `columns`.
bool KeysAreColumns(const NodePtr& side, const std::vector<std::string>& keys,
                    const LogicalNode* scan,
                    const std::vector<std::string>& columns) {
  if (keys.size() != columns.size()) return false;
  for (size_t i = 0; i < keys.size(); ++i) {
    auto [key_scan, key_column] = ScanColumnOf(side, keys[i]);
    if (key_scan != scan || key_column != columns[i]) return false;
  }
  return true;
}

void CollectEdges(const NodePtr& node, const PhysicalDb& db,
                  std::vector<Edge>* edges) {
  for (const NodePtr& c : node->children) CollectEdges(c, db, edges);
  if (node->kind != NodeKind::kJoin || node->join.fk_id.empty()) return;
  // Propagation across anti / outer joins can change semantics; restrict
  // edges to inner and semi joins (see header).
  if (node->join.type != exec::JoinType::kInner &&
      node->join.type != exec::JoinType::kLeftSemi) {
    return;
  }
  auto fk_result = db.schema_catalog().GetForeignKey(node->join.fk_id);
  if (!fk_result.ok()) return;
  const catalog::ForeignKey* fk = fk_result.value();
  // Locate the unique referencing/referenced scan on either side. The keys
  // must read the named FK's columns of those scans, not just its tables: a
  // join labelled with an FK but matching other columns proves nothing
  // about which groups hold partners.
  for (int from_side = 0; from_side < 2; ++from_side) {
    const NodePtr& from = node->children[from_side];
    const NodePtr& to = node->children[1 - from_side];
    std::vector<const LogicalNode*> from_scans, to_scans;
    ScansOfTable(from, fk->from_table, &from_scans);
    ScansOfTable(to, fk->to_table, &to_scans);
    if (from_scans.size() != 1 || to_scans.size() != 1) continue;
    const JoinNode& jn = node->join;
    if (KeysAreColumns(from, from_side == 0 ? jn.left_keys : jn.right_keys,
                       from_scans[0], fk->from_columns) &&
        KeysAreColumns(to, from_side == 0 ? jn.right_keys : jn.left_keys,
                       to_scans[0], fk->to_columns)) {
      edges->push_back(Edge{from_scans[0], to_scans[0], fk->id});
      return;
    }
  }
}

// Plan-time evaluation: rows of `scan`'s table surviving its own sargs and
// residual. Returns the filtered rows of `wanted_columns`. Null pool so no
// simulated I/O is charged.
Result<exec::Batch> EvalScanAtPlanTime(const ScanNode& scan,
                                       const std::vector<std::string>& extra,
                                       const PhysicalDb& db) {
  const Table* table = db.storage(scan.table);
  if (table == nullptr) return Status::NotFound("no table " + scan.table);
  std::vector<std::string> cols = scan.columns;
  for (const std::string& c : extra) {
    if (std::find(cols.begin(), cols.end(), c) == cols.end()) {
      cols.push_back(c);
    }
  }
  exec::OperatorPtr op =
      std::make_unique<exec::SegmentScan>(table, cols);
  std::vector<exec::ExprPtr> conjuncts;
  for (const Sarg& s : scan.sargs) conjuncts.push_back(SargRowExpr(s));
  if (scan.residual) conjuncts.push_back(scan.residual);
  if (!conjuncts.empty()) {
    op = std::make_unique<exec::Filter>(std::move(op),
                                        exec::AndAll(conjuncts));
  }
  exec::ExecContext ctx(nullptr);
  exec::Operator* raw = op.get();
  return exec::CollectAll(raw, &ctx);
}

bool ScanHasFilters(const ScanNode& scan) {
  return !scan.sargs.empty() || scan.residual != nullptr;
}

}  // namespace

Result<PushdownAnalysis> AnalyzePushdown(const NodePtr& root,
                                         const PhysicalDb& db,
                                         uint64_t max_host_rows) {
  PushdownAnalysis out;
  CollectScans(root, &out.scans);
  if (db.scheme() != Scheme::kBdcc) return out;

  std::vector<Edge> edges;
  CollectEdges(root, db, &edges);

  // The dimensions in play: union over BDCC scans' uses.
  struct HostKey {
    const LogicalNode* host_scan;
    std::string dim_name;
    bool operator<(const HostKey& o) const {
      return std::tie(host_scan, dim_name) < std::tie(o.host_scan, o.dim_name);
    }
  };
  struct BinRange {
    uint64_t lo, hi;
  };
  std::map<HostKey, BinRange> resolved;
  std::map<HostKey, std::string> provenance;
  std::set<HostKey> attempted;

  // Small tables may be fully evaluated at plan time to resolve arbitrary
  // residual filters into bin ranges (NATION / REGION style); larger hosts
  // only contribute through sargs on key-prefix columns, which translate to
  // bin ranges without touching data.
  constexpr uint64_t kEvalRowLimit = 4096;

  // Resolve the restriction a host scan implies for dimension `dim`.
  auto resolve_host = [&](const LogicalNode* host_scan,
                          const DimensionPtr& dim) -> Status {
    HostKey key{host_scan, dim->name()};
    if (attempted.count(key)) return Status::OK();
    attempted.insert(key);

    const Table* host_table = db.storage(host_scan->scan.table);
    if (host_table == nullptr) return Status::OK();
    bool have = false;
    uint64_t lo = 0, hi = 0;
    std::string source;

    // Rule 1a: a sarg on the dimension key's first column maps straight to
    // a bin range (exact for single-column keys; a consecutive prefix range
    // for composite keys) — no data access needed.
    for (const Sarg& s : host_scan->scan.sargs) {
      if (dim->key_columns().empty() || s.column != dim->key_columns()[0]) {
        continue;
      }
      CompositeValue plo, phi;
      if (s.range.lo) plo.push_back(*s.range.lo);
      if (s.range.hi) phi.push_back(*s.range.hi);
      uint64_t slo, shi;
      if (!dim->BinRangePrefix(s.range.lo ? &plo : nullptr,
                               s.range.hi ? &phi : nullptr, &slo, &shi)) {
        continue;
      }
      if (have) {
        lo = std::max(lo, slo);
        hi = std::min(hi, shi);
      } else {
        lo = slo;
        hi = shi;
        have = true;
      }
      source += (source.empty() ? "" : " & ");
      source += "selection on " + host_scan->scan.table + "." + s.column;
    }

    // Rule 1b: small hosts -> evaluate all filters at plan time and take
    // the qualifying rows' bin range.
    if (ScanHasFilters(host_scan->scan) &&
        host_table->num_rows() <= std::min<uint64_t>(kEvalRowLimit,
                                                     max_host_rows)) {
      BDCC_ASSIGN_OR_RETURN(
          exec::Batch rows,
          EvalScanAtPlanTime(host_scan->scan, dim->key_columns(), db));
      if (rows.num_rows < host_table->num_rows() && rows.num_rows > 0) {
        // Key column positions in the evaluated output.
        std::vector<int> key_pos;
        {
          std::vector<std::string> cols = host_scan->scan.columns;
          for (const std::string& c : dim->key_columns()) {
            if (std::find(cols.begin(), cols.end(), c) == cols.end()) {
              cols.push_back(c);
            }
          }
          for (const std::string& k : dim->key_columns()) {
            key_pos.push_back(static_cast<int>(
                std::find(cols.begin(), cols.end(), k) - cols.begin()));
          }
        }
        uint64_t min_bin = ~uint64_t{0}, max_bin = 0;
        for (size_t r = 0; r < rows.num_rows; ++r) {
          CompositeValue v;
          for (int p : key_pos) v.push_back(rows.columns[p].GetValue(r));
          uint64_t bin = dim->BinOf(v);
          min_bin = std::min(min_bin, bin);
          max_bin = std::max(max_bin, bin);
        }
        if (have) {
          lo = std::max(lo, min_bin);
          hi = std::min(hi, max_bin);
        } else {
          lo = min_bin;
          hi = max_bin;
          have = true;
        }
        source += (source.empty() ? "" : " & ");
        source += "selection on " + host_scan->scan.table;
      }
    }

    // Rule 2 (snowflake): a filtered scan one FK hop below the host whose
    // FK columns form a prefix of the dimension key (REGION -> D_NATION).
    for (const Edge& e : edges) {
      if (e.from_scan != host_scan) continue;
      auto fk_result = db.schema_catalog().GetForeignKey(e.fk_id);
      if (!fk_result.ok()) continue;
      const catalog::ForeignKey* fk = fk_result.value();
      if (fk->from_columns.size() != 1 || dim->key_columns().empty() ||
          fk->from_columns[0] != dim->key_columns()[0]) {
        continue;
      }
      if (!ScanHasFilters(e.to_scan->scan)) continue;
      const Table* target = db.storage(e.to_scan->scan.table);
      if (target == nullptr || target->num_rows() > max_host_rows) continue;
      BDCC_ASSIGN_OR_RETURN(
          exec::Batch rows,
          EvalScanAtPlanTime(e.to_scan->scan, fk->to_columns, db));
      if (rows.num_rows == 0 || rows.num_rows >= target->num_rows()) continue;
      // Qualifying prefix values -> prefix bin range.
      std::vector<std::string> cols = e.to_scan->scan.columns;
      if (std::find(cols.begin(), cols.end(), fk->to_columns[0]) ==
          cols.end()) {
        cols.push_back(fk->to_columns[0]);
      }
      int pos = static_cast<int>(
          std::find(cols.begin(), cols.end(), fk->to_columns[0]) -
          cols.begin());
      Value vmin = rows.columns[pos].GetValue(0);
      Value vmax = vmin;
      for (size_t r = 1; r < rows.num_rows; ++r) {
        Value v = rows.columns[pos].GetValue(r);
        if (v.Compare(vmin) < 0) vmin = v;
        if (v.Compare(vmax) > 0) vmax = v;
      }
      CompositeValue plo{vmin}, phi{vmax};
      uint64_t slo, shi;
      if (!dim->BinRangePrefix(&plo, &phi, &slo, &shi)) continue;
      if (have) {
        lo = std::max(lo, slo);
        hi = std::min(hi, shi);
      } else {
        lo = slo;
        hi = shi;
        have = true;
      }
      source += (source.empty() ? "" : " & ");
      source += "selection on " + e.to_scan->scan.table + " via " + fk->id;
    }

    if (have && lo <= hi) {
      resolved[key] = BinRange{lo, hi};
      provenance[key] = source;
    }
    return Status::OK();
  };

  // For every BDCC scan and every use, find the host scan whose FK chain
  // matches the use's path, resolve it, and record the restriction.
  for (const LogicalNode* scan : out.scans) {
    const BdccTable* bt = db.bdcc(scan->scan.table);
    if (bt == nullptr) continue;
    for (size_t u = 0; u < bt->uses().size(); ++u) {
      const DimensionUse& use = bt->uses()[u];
      // Follow the use's FK chain through the query's join edges.
      const LogicalNode* at = scan;
      bool ok = true;
      for (const std::string& fk_id : use.path.fk_ids) {
        const LogicalNode* next = nullptr;
        for (const Edge& e : edges) {
          if (e.from_scan == at && e.fk_id == fk_id) {
            next = e.to_scan;
            break;
          }
        }
        if (next == nullptr) {
          ok = false;
          break;
        }
        at = next;
      }
      if (!ok || at->scan.table != use.dimension->table()) continue;
      BDCC_RETURN_NOT_OK(resolve_host(at, use.dimension));
      HostKey key{at, use.dimension->name()};
      auto it = resolved.find(key);
      if (it == resolved.end()) continue;
      out.restrictions.push_back(UseRestriction{
          scan, u, it->second.lo, it->second.hi, provenance[key]});
    }
  }
  return out;
}

}  // namespace opt
}  // namespace bdcc
