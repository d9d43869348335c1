// Online-append lifecycle bench: append throughput into a live lineitem,
// scan throughput across the three states of the delta lifecycle
// (clustered baseline, live with an unmerged delta, re-clustered after the
// merge), and the merge pass itself.
//
// The headline number is the restore ratio: after a 50%-delta burst, one
// full merge pass must bring TPC-H Q1/Q6 scan throughput back to >= ~80%
// of the fully-clustered baseline — i.e. the background re-clusterer
// really does recover the layout the advisor designed, it does not just
// hide the delta behind a slower unclustered leg forever.
//
// Plain driver (no google-benchmark): one BENCHJSON row per configuration,
// keyed by mode/state/query/delta fraction. Scan rows carry the delta-leg
// ExecStats counters whenever they are nonzero.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "delta/live_table.h"
#include "delta/snapshot_db.h"

using namespace bdcc;         // NOLINT
using namespace bdcc::bench;  // NOLINT

namespace {

// Dimension-bin resolver over the plain scheme's source rows (the same
// wiring a serving process would use to compute appended rows' keys).
class PlainResolver : public TableResolver {
 public:
  explicit PlainResolver(const tpch::TpchDb* db) : db_(db) {}
  Result<const Table*> GetTable(const std::string& name) const override {
    const Table* t = db_->plain().storage(name);
    if (t == nullptr) return Status::NotFound(name);
    return t;
  }
  Result<const catalog::ForeignKey*> GetForeignKey(
      const std::string& id) const override {
    return db_->schema_catalog().GetForeignKey(id);
  }

 private:
  const tpch::TpchDb* db_;
};

Table SliceLineitem(const Table& full, uint64_t begin, uint64_t end) {
  Table slice(full.name());
  for (int c = 0; c < static_cast<int>(full.num_columns()); ++c) {
    slice.AddColumn(full.column_name(c), Column(full.column(c).type()))
        .AbortIfNotOK();
  }
  slice.AppendRowsFrom(full, begin, end);
  return slice;
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<
             std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Best-of-N wall time for one query against `db`; ExecStats of the best
// run land in `run` (counters are per-run, not accumulated).
QueryRun RunQueryBest(const opt::PhysicalDb* db, int q, double sf,
                      int threads, int iters) {
  QueryRun best;
  for (int i = 0; i < iters; ++i) {
    QueryRun run;
    exec::ExecContext exec_ctx(nullptr);
    tpch::QueryContext ctx;
    ctx.db = db;
    ctx.exec = &exec_ctx;
    ctx.scale_factor = sf;
    ctx.planner.num_threads = threads;
    auto start = std::chrono::steady_clock::now();
    auto result = tpch::RunTpchQuery(q, ctx);
    run.wall_ms = MillisSince(start);
    run.delta_rows_scanned = exec_ctx.stats()->delta_rows_scanned;
    run.delta_chunks = exec_ctx.stats()->delta_chunks;
    if (!result.ok()) {
      std::fprintf(stderr, "micro_append: Q%d failed: %s\n", q,
                   result.status().ToString().c_str());
      std::exit(1);
    }
    run.ok = true;
    run.rows = result.value().num_rows;
    if (!best.ok || run.wall_ms < best.wall_ms) best = run;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  int threads = StripThreadsFlag(&argc, argv, 4);
  double sf = BenchScaleFactor(0.02);
  const int kScanIters = 3;

  tpch::TpchDbOptions options;
  options.scale_factor = sf;
  options.seed = 7;
  options.build_pk = false;  // plain (resolver source) + bdcc only
  auto db = tpch::TpchDb::Create(options).ValueOrDie();
  PlainResolver resolver(db.get());
  const Table* full = db->plain().storage("LINEITEM");
  const uint64_t total = full->num_rows();
  int host_cpus = static_cast<int>(std::thread::hardware_concurrency());

  std::printf("== micro_append: online-append lifecycle (SF %.3f, %llu "
              "lineitem rows, %d threads) ==\n\n",
              sf, static_cast<unsigned long long>(total), threads);

  // Clustered baseline: the advisor-designed full lineitem, no delta.
  double clustered_ms[7] = {0};
  for (int q : {1, 6}) {
    QueryRun run = RunQueryBest(&db->bdcc(), q, sf, threads, kScanIters);
    clustered_ms[q] = run.wall_ms;
    JsonLine("micro_append")
        .Num("sf", sf)
        .Str("mode", "scan")
        .Str("state", "clustered")
        .Num("q", q)
        .Num("delta_pct", 0)
        .Num("threads", threads)
        .Num("rows", static_cast<double>(total))
        .Num("wall_ms", run.wall_ms)
        .Num("scan_mrows_per_s", total / run.wall_ms / 1e3)
        .Num("host_cpus", host_cpus)
        .Emit();
    std::printf("Q%d clustered          %8.2f ms  (%.1f Mrows/s)\n", q,
                run.wall_ms, total / run.wall_ms / 1e3);
  }

  for (int delta_pct : {10, 50}) {
    const uint64_t base_rows = total - total * delta_pct / 100;
    std::printf("\n-- burst: %d%% of rows arrive as appends --\n", delta_pct);

    // Rebuild the clustered base from the first (100 - delta_pct)% of the
    // source rows, then append the remainder in fixed-size batches,
    // timing the appends (key computation + chunk seal + publication).
    BdccBuildOptions build = db->options().advisor.build;
    build.zone_rows = db->options().zone_rows;
    auto base = BuildBdccTable(SliceLineitem(*full, 0, base_rows),
                               db->bdcc_tables().at("LINEITEM").uses(),
                               resolver, build)
                    .ValueOrDie();
    auto live =
        delta::LiveTable::Create(std::move(base), &resolver).ValueOrDie();

    const uint64_t kBatchRows = 4096;
    std::vector<Table> batches;
    for (uint64_t at = base_rows; at < total; at += kBatchRows) {
      batches.push_back(
          SliceLineitem(*full, at, std::min(total, at + kBatchRows)));
    }
    auto append_start = std::chrono::steady_clock::now();
    for (const Table& b : batches) live->Append(b).ValueOrDie();
    double append_ms = MillisSince(append_start);
    uint64_t appended = total - base_rows;
    JsonLine("micro_append")
        .Num("sf", sf)
        .Str("mode", "append")
        .Num("delta_pct", delta_pct)
        .Num("batch_rows", static_cast<double>(kBatchRows))
        .Num("rows", static_cast<double>(appended))
        .Num("wall_ms", append_ms)
        .Num("append_krows_per_s", appended / append_ms)
        .Num("host_cpus", host_cpus)
        .Emit();
    std::printf("append %7llu rows    %8.2f ms  (%.0f Krows/s, %zu "
                "batches)\n",
                static_cast<unsigned long long>(appended), append_ms,
                appended / append_ms, batches.size());

    // Live state: scans take the unclustered delta leg.
    delta::SnapshotDb overlay(&db->bdcc());
    overlay.AddLiveTable(live.get());
    for (int q : {1, 6}) {
      QueryRun run = RunQueryBest(&overlay, q, sf, threads, kScanIters);
      JsonLine line("micro_append");
      line.Num("sf", sf)
          .Str("mode", "scan")
          .Str("state", "live")
          .Num("q", q)
          .Num("delta_pct", delta_pct)
          .Num("threads", threads)
          .Num("rows", static_cast<double>(total))
          .Num("wall_ms", run.wall_ms)
          .Num("scan_mrows_per_s", total / run.wall_ms / 1e3)
          .Num("host_cpus", host_cpus);
      AddLifecycleCounters(line, run);
      line.Emit();
      std::printf("Q%d live               %8.2f ms  (%.1f Mrows/s, delta "
                  "leg %llu rows / %llu chunks)\n",
                  q, run.wall_ms, total / run.wall_ms / 1e3,
                  static_cast<unsigned long long>(run.delta_rows_scanned),
                  static_cast<unsigned long long>(run.delta_chunks));
    }

    // One full merge pass re-clusters every dirty group.
    auto merge_start = std::chrono::steady_clock::now();
    auto merged = live->Merge().ValueOrDie();
    double merge_ms = MillisSince(merge_start);
    JsonLine("micro_append")
        .Num("sf", sf)
        .Str("mode", "merge")
        .Num("delta_pct", delta_pct)
        .Num("rows", static_cast<double>(merged.rows_merged))
        .Num("groups", static_cast<double>(merged.groups_merged))
        .Num("wall_ms", merge_ms)
        .Num("merge_krows_per_s", merged.rows_merged / merge_ms)
        .Num("host_cpus", host_cpus)
        .Emit();
    std::printf("merge  %7llu rows    %8.2f ms  (%.0f Krows/s, %llu "
                "groups)\n",
                static_cast<unsigned long long>(merged.rows_merged),
                merge_ms, merged.rows_merged / merge_ms,
                static_cast<unsigned long long>(merged.groups_merged));

    // Post-merge: the overlay re-pins the re-clustered epoch; throughput
    // must be back within a whisker of the clustered baseline.
    overlay.Refresh();
    for (int q : {1, 6}) {
      QueryRun run = RunQueryBest(&overlay, q, sf, threads, kScanIters);
      double restore = clustered_ms[q] / run.wall_ms;
      JsonLine("micro_append")
          .Num("sf", sf)
          .Str("mode", "scan")
          .Str("state", "merged")
          .Num("q", q)
          .Num("delta_pct", delta_pct)
          .Num("threads", threads)
          .Num("rows", static_cast<double>(total))
          .Num("wall_ms", run.wall_ms)
          .Num("scan_mrows_per_s", total / run.wall_ms / 1e3)
          .Num("restore_ratio", restore)
          .Num("host_cpus", host_cpus)
          .Emit();
      std::printf("Q%d merged             %8.2f ms  (%.1f Mrows/s, %.0f%% "
                  "of clustered)\n",
                  q, run.wall_ms, total / run.wall_ms / 1e3, restore * 100);
      if (restore < 0.8) {
        std::printf("  WARNING: merge restored only %.0f%% of clustered "
                    "throughput (want >= 80%%)\n",
                    restore * 100);
      }
    }
  }
  return 0;
}
