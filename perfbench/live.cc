// `live`: writes beside reads on one scan layer, as a closed loop with one
// client.
//
// LINEITEM is rebuilt from the first half of its rows as a delta::LiveTable
// under a SnapshotDb. The client appends the next 4096-row batch of the
// remaining rows in source order, Refresh()es, and reads Q1, Q6 and Q12. A
// DeltaMerger with the default trigger re-clusters in the background on a
// benchmark-owned one-worker scheduler (two threads in all). At the end of a
// round the client drains the merger, checks that the reads equal those over
// the fully loaded LINEITEM, and restarts from the same base; the rebuild
// between rounds is not timed. Sandwich plans are gated off while a delta is
// live, so Q12 takes a hash join here where power takes a sandwich join.
// Round 0 is a warm-up. Every timing of a round is scaled by the host probes
// taken before its loop and after its drain (HostScale), as power scales each
// rep; qps is the median over rounds.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/task_scheduler.h"
#include "delta/delta_merger.h"
#include "delta/live_table.h"
#include "delta/snapshot_db.h"
#include "tpch/tpch_queries.h"

namespace bdcc {
namespace perfbench {
namespace {

constexpr int kReads[] = {1, 6, 12};
constexpr uint64_t kBatchRows = 4096;
constexpr int kMergeWorkers = 1;
// Host probes before a round's loop and after its drain, when no merge runs.
constexpr int kRoundProbes = 4;

// Dimension-bin resolver over the plain scheme's source rows: the wiring a
// serving process uses to key appended rows.
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

// Rows [begin, end) of `full` as a new table of the same schema.
Table SliceTable(const Table& full, uint64_t begin, uint64_t end) {
  Table slice(full.name());
  for (int c = 0; c < static_cast<int>(full.num_columns()); ++c) {
    slice.AddColumn(full.column_name(c), Column(full.column(c).type()))
        .AbortIfNotOK();
  }
  slice.AppendRowsFrom(full, begin, end);
  return slice;
}

class LiveWorkload : public Workload {
 public:
  bool Setup(const Args& args, Report* report) override {
    tpch::TpchDbOptions options;
    options.build_pk = false;  // plain keys appended rows, bdcc serves reads
    options.attach_buffer_pools = false;
    // Set-up includes the first LiveTable build over the base half.
    db_ = BuildDb(args, options, report, [this](tpch::TpchDb* db) {
      first_live_.reset();  // it keys appends through the old resolver
      resolver_ = std::make_unique<PlainResolver>(db);
      const Table* full = db->plain().storage("LINEITEM");
      base_rows_ = full->num_rows() / 2;
      auto live = NewLiveTable(db);
      if (!live.ok()) {
        setup_error_ = live.status().ToString();
        return;
      }
      first_live_ = std::move(live).value();
    });
    if (db_ == nullptr) return false;
    if (!setup_error_.empty()) {
      report->Fail("LiveTable build: " + setup_error_);
      return false;
    }
    const Table* full = db_->plain().storage("LINEITEM");
    for (uint64_t at = base_rows_; at < full->num_rows(); at += kBatchRows) {
      batches_.push_back(SliceTable(
          *full, at, std::min<uint64_t>(full->num_rows(), at + kBatchRows)));
    }
    scheduler_ = std::make_unique<common::TaskScheduler>(kMergeWorkers);
    report->info["live_threads"] = std::to_string(1 + kMergeWorkers);
    report->info["live_batches_per_round"] = std::to_string(batches_.size());
    for (int q : kReads) {
      exec::ExecContext ctx;
      auto result = Read(q, &db_->bdcc(), &ctx);
      if (!result.ok()) {
        report->Fail("reference Q" + std::to_string(q) + ": " +
                     result.status().ToString());
        return false;
      }
      reference_[q] = FingerprintOf(result.value());
    }
    return true;
  }

  const tpch::TpchDb& db() const override { return *db_; }

  void Pass(double seconds, Report* report) override {
    std::vector<double> append_ms, lag_rows, chunks_per_read, probes;
    std::vector<double> round_qps;
    std::map<int, std::vector<double>> read_ms, read_peak_mb;
    uint64_t rows_appended = 0, merge_passes = 0, merges_failed = 0;
    uint64_t rows_merged = 0;
    double append_total_ms = 0;
    int rounds = 0;
    uint64_t request = 0;

    // Round 0 is a warm-up: checked, but its timings are not kept. The
    // measured rounds start after it.
    Clock::time_point deadline;
    while (rounds <= 1 || Clock::now() < deadline) {
      if (rounds == 1) {
        deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
      }
      std::unique_ptr<delta::LiveTable> live = std::move(first_live_);
      if (live == nullptr) {
        auto rebuilt = NewLiveTable(db_.get());
        if (!rebuilt.ok()) {
          report->Fail("LiveTable rebuild: " + rebuilt.status().ToString());
          return;
        }
        live = std::move(rebuilt).value();
      }
      Span round_span("live.round", 0, {{"round", std::to_string(rounds)}});
      // This round's timings, scaled by its probes once the round is over.
      std::vector<double> round_append_ms, round_probes;
      std::map<int, std::vector<double>> round_read_ms;
      double round_loop_ms = 0;
      uint64_t round_ops = 0, round_rows = 0;
      SampleHost(kRoundProbes, &round_probes);
      {
        delta::SnapshotDb overlay(&db_->bdcc());
        overlay.AddLiveTable(live.get());
        delta::DeltaMerger merger(live.get(), scheduler_.get());
        // The closed loop: appends, refreshes, reads and the final drain.
        const Clock::time_point loop_start = Clock::now();
        for (const Table& batch : batches_) {
          ++report->attempted;
          Result<uint64_t> appended = Status::Internal("append not run");
          {
            Span span("delta.LiveTable::Append", ++request,
                      {{"rows", std::to_string(batch.num_rows())}});
            Clock::time_point start = Clock::now();
            appended = live->Append(batch);
            round_append_ms.push_back(MsSince(start));
          }
          if (!appended.ok()) {
            report->Fail("append: " + appended.status().ToString());
            continue;
          }
          ++round_ops;
          round_rows += batch.num_rows();
          overlay.Refresh();
          for (int q : kReads) {
            exec::ExecContext ctx;
            Result<exec::Batch> result = Status::Internal("read not run");
            {
              Span span("delta.read", ++request,
                        {{"query", std::to_string(q)}});
              Clock::time_point start = Clock::now();
              result = Read(q, &overlay, &ctx);
              round_read_ms[q].push_back(MsSince(start));
              read_peak_mb[q].push_back(ctx.memory()->peak_bytes() /
                                        1048576.0);
              span.Attr("delta_rows_scanned",
                        std::to_string(ctx.stats()->delta_rows_scanned));
            }
            ++report->attempted;
            if (!result.ok()) {
              report->Fail("read Q" + std::to_string(q) + ": " +
                           result.status().ToString());
              continue;
            }
            ++round_ops;
            lag_rows.push_back(ctx.stats()->delta_rows_scanned);
            chunks_per_read.push_back(ctx.stats()->delta_chunks);
          }
        }
        {
          Span span("delta.DeltaMerger::Drain", ++request);
          merger.Drain();
        }
        round_loop_ms = MsSince(loop_start);
        SampleHost(kRoundProbes, &round_probes);
        merge_passes += merger.passes_completed();
        merges_failed += merger.passes_failed();
        // Drained: every read must equal the fully loaded table's.
        overlay.Refresh();
        for (int q : kReads) {
          exec::ExecContext ctx;
          auto result = Read(q, &overlay, &ctx);
          ++report->attempted;
          if (!result.ok()) {
            report->Fail("drained Q" + std::to_string(q) + ": " +
                         result.status().ToString());
          } else if (!FingerprintOf(result.value()).Matches(reference_[q])) {
            report->Fail("drained Q" + std::to_string(q) +
                         " differs from the fully loaded LINEITEM");
          }
        }
      }  // merger stopped, overlay pins released
      const delta::LiveTable::Stats stats = live->stats();
      rows_merged += stats.rows_merged;
      if (stats.open_snapshots != 0) {
        report->Fail("round left " + std::to_string(stats.open_snapshots) +
                     " snapshots open");
      }
      if (stats.merges_failed != 0) {
        report->Fail(std::to_string(stats.merges_failed) + " merges failed");
      }
      if (rounds++ == 0) continue;
      const double scale = HostScale(round_probes);
      rows_appended += round_rows;
      for (double ms : round_append_ms) {
        append_ms.push_back(ms * scale);
        append_total_ms += ms * scale;
      }
      for (const auto& [q, v] : round_read_ms) {
        for (double ms : v) read_ms[q].push_back(ms * scale);
      }
      // Appends and reads per second of loop time: a slower append, refresh
      // or merge (through Drain) lowers it as well as a slower read.
      round_qps.push_back(round_ops / (round_loop_ms * scale / 1000.0));
      probes.insert(probes.end(), round_probes.begin(), round_probes.end());
    }

    auto& m = report->metrics;
    std::vector<double> medians;
    for (int q : kReads) {
      char key[32];
      std::snprintf(key, sizeof(key), "delta.read_ms.q%02d", q);
      m[key] = Median(read_ms[q]);
      medians.push_back(m[key]);
    }
    m["query_geomean_ms"] = Geomean(medians);
    m["peak_mem_mb"] = 0;
    for (const auto& [q, v] : read_peak_mb) m["peak_mem_mb"] += Median(v);
    m["qps"] = Median(round_qps);
    m["delta.append_krows_s"] = rows_appended / append_total_ms;
    m["delta.append_ms_p50"] = Median(append_ms);
    m["delta.merge_passes"] = merge_passes;
    m["delta.rows_merged"] = rows_merged;
    m["delta.merges_failed"] = merges_failed;
    m["delta.lag_rows_p50"] = Median(lag_rows);
    m["delta.chunks_per_read_p50"] = Median(chunks_per_read);
    m["host.probe_ms"] = Median(probes);
    report->info["live_rounds"] = std::to_string(round_qps.size());
  }

 private:
  // Rebuild LINEITEM's clustered table from its first half (same dimension
  // uses and build options as the designed table) as a live table.
  Result<std::unique_ptr<delta::LiveTable>> NewLiveTable(tpch::TpchDb* db) {
    const Table* full = db->plain().storage("LINEITEM");
    BdccBuildOptions build = db->options().advisor.build;
    build.zone_rows = db->options().zone_rows;
    BDCC_ASSIGN_OR_RETURN(
        BdccTable base,
        BuildBdccTable(SliceTable(*full, 0, base_rows_),
                       db->bdcc_tables().at("LINEITEM").uses(), *resolver_,
                       build));
    return delta::LiveTable::Create(std::move(base), resolver_.get());
  }

  Result<exec::Batch> Read(int q, const opt::PhysicalDb* db,
                           exec::ExecContext* ctx) {
    tpch::QueryContext qc;
    qc.db = db;
    qc.exec = ctx;
    qc.scale_factor = kScaleFactor;
    qc.planner.num_threads = 1;
    return tpch::RunTpchQuery(q, qc);
  }

  std::unique_ptr<tpch::TpchDb> db_;
  std::unique_ptr<PlainResolver> resolver_;
  std::unique_ptr<common::TaskScheduler> scheduler_;
  std::unique_ptr<delta::LiveTable> first_live_;
  std::string setup_error_;
  uint64_t base_rows_ = 0;
  std::vector<Table> batches_;
  std::map<int, Fingerprint> reference_;
};

}  // namespace

std::unique_ptr<Workload> MakeLiveWorkload() {
  return std::make_unique<LiveWorkload>();
}

}  // namespace perfbench
}  // namespace bdcc
