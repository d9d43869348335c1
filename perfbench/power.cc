// `power`: the paper's experiment (Figure 2 wall time and simulated I/O,
// Figure 3 peak memory) as a closed loop with one client.
//
// Each rep runs Q1..Q22 in a seeded order and, per query, Plain/PK/BDCC in a
// seeded order, every run cold against its scheme's simulated buffer pool
// (RunQueryCold semantics). Interleaving the schemes per query means a slow
// host phase hits all three alike. A host probe runs before each query; every
// latency of a rep is scaled by the median of that rep's probes (HostScale),
// so a slow host phase, which slows the probe alike, cancels out. Timings are
// per-query medians of the scaled latencies over every rep of the pass. The
// first rep is a warm-up. Plans are serial
// (num_threads = 1), so every count this workload reports repeats exactly.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "tpch/tpch_queries.h"

namespace bdcc {
namespace perfbench {
namespace {

constexpr int kNumQueries = tpch::kNumTpchQueries;
// Metric-name suffix of each opt::Scheme, indexed by its value.
constexpr const char* kSchemeKeys[3] = {"plain", "pk", "bdcc"};

struct ColdRun {
  bool ok = false;
  std::string error;
  double wall_ms = 0;
  Fingerprint fp;
  // Deterministic on a serial cold run.
  exec::ExecStats stats;
  uint64_t peak_bytes = 0;
  uint64_t page_misses = 0;
  uint64_t bytes_read = 0;
  double sim_io_ms = 0;
};

bool SameCounts(const ColdRun& a, const ColdRun& b) {
  const exec::ExecStats& x = a.stats;
  const exec::ExecStats& y = b.stats;
  return x.rows_scanned == y.rows_scanned &&
         x.rows_filtered_at_scan == y.rows_filtered_at_scan &&
         x.zones_skipped == y.zones_skipped && x.zones_read == y.zones_read &&
         x.groups_pruned == y.groups_pruned &&
         x.groups_read == y.groups_read &&
         x.sandwich_partitions == y.sandwich_partitions &&
         x.decodes_skipped == y.decodes_skipped &&
         x.chunks_zero_copy == y.chunks_zero_copy &&
         x.encoded_spans == y.encoded_spans &&
         a.peak_bytes == b.peak_bytes && a.page_misses == b.page_misses &&
         a.bytes_read == b.bytes_read && a.sim_io_ms == b.sim_io_ms;
}

std::string QueryKey(int q) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "q%02d", q);
  return buf;
}

class PowerWorkload : public Workload {
 public:
  bool Setup(const Args& args, Report* report) override {
    seed_ = args.seed;
    report->info["power_threads"] = "1";
    db_ = BuildDb(args, tpch::TpchDbOptions(), report);
    return db_ != nullptr;
  }

  const tpch::TpchDb& db() const override { return *db_; }

  void Pass(double seconds, Report* report) override {
    std::vector<double> samples[3][kNumQueries + 1];
    ColdRun counts[3][kNumQueries + 1];
    Rng rng(seed_ * 0x100000001b3ull + ++passes_);
    std::vector<int> queries;
    for (int q = 1; q <= kNumQueries; ++q) queries.push_back(q);
    std::vector<int> schemes = {0, 1, 2};
    std::vector<double> probes;

    int reps = 0;
    uint64_t request = 0;
    Clock::time_point deadline;
    for (int rep = 0;; ++rep) {
      if (rep == 1) {
        deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
      }
      if (rep > 1 && Clock::now() >= deadline) break;
      Span rep_span("power.rep", 0, {{"rep", std::to_string(rep)}});
      // This rep's latencies (0 = failed), scaled once its probes are in.
      double rep_ms[3][kNumQueries + 1] = {};
      std::vector<double> rep_probes;
      rng.Shuffle(&queries);
      for (int q : queries) {
        rng.Shuffle(&schemes);
        SampleHost(1, &rep_probes);
        for (int s : schemes) {
          ColdRun run = RunCold(s, q, ++request, rep);
          ++report->attempted;
          if (!run.ok) {
            report->Fail(std::string(kSchemeKeys[s]) + " Q" +
                         std::to_string(q) + ": " + run.error);
            continue;
          }
          CheckResult(s, q, run, report);
          if (rep == 0) {
            counts[s][q] = run;
          } else {
            rep_ms[s][q] = run.wall_ms;
            if (!SameCounts(run, counts[s][q])) {
              report->warnings.push_back(std::string(kSchemeKeys[s]) + " Q" +
                                         std::to_string(q) +
                                         ": counters changed between reps");
            }
          }
        }
      }
      if (rep == 0) continue;
      ++reps;
      const double scale = HostScale(rep_probes);
      for (int s = 0; s < 3; ++s) {
        for (int q = 1; q <= kNumQueries; ++q) {
          if (rep_ms[s][q] > 0) samples[s][q].push_back(rep_ms[s][q] * scale);
        }
      }
      probes.insert(probes.end(), rep_probes.begin(), rep_probes.end());
    }
    report->info["power_reps"] = std::to_string(reps);
    report->metrics["host.probe_ms"] = Median(probes);
    Summarize(samples, counts, report);
  }

 private:
  ColdRun RunCold(int s, int q, uint64_t request, int rep) {
    const opt::Scheme scheme = static_cast<opt::Scheme>(s);
    io::BufferPool* pool = db_->pool(scheme);
    io::DeviceModel* device = db_->device(scheme);
    pool->Clear();
    pool->ResetStats();
    device->ResetStats();

    exec::ExecContext exec_ctx(pool);
    tpch::QueryContext ctx;
    ctx.db = &db_->db(scheme);
    ctx.exec = &exec_ctx;
    ctx.scale_factor = db_->options().scale_factor;
    ctx.planner.num_threads = 1;

    ColdRun out;
    Result<exec::Batch> result = Status::Internal("query not run");
    {
      Span span("tpch.RunTpchQuery", request,
                {{"scheme", kSchemeKeys[s]},
                 {"query", std::to_string(q)},
                 {"rep", std::to_string(rep)}});
      Clock::time_point start = Clock::now();
      result = tpch::RunTpchQuery(q, ctx);
      out.wall_ms = MsSince(start);
      out.stats = *exec_ctx.stats();
      out.peak_bytes = exec_ctx.memory()->peak_bytes();
      out.page_misses = pool->stats().page_misses.load();
      out.bytes_read = device->stats().bytes_read;
      out.sim_io_ms = device->stats().simulated_seconds * 1000.0;
      span.Attr("rows_scanned", std::to_string(out.stats.rows_scanned));
      span.Attr("groups_read", std::to_string(out.stats.groups_read));
      span.Attr("page_misses", std::to_string(out.page_misses));
      span.Attr("peak_bytes", std::to_string(out.peak_bytes));
    }
    if (result.ok()) {
      out.ok = true;
      out.fp = FingerprintOf(result.value());
    } else {
      out.error = result.status().ToString();
    }
    return out;
  }

  // The three schemes must agree on every query, rep after rep: the first
  // successful run of a query is the reference for all later ones.
  void CheckResult(int s, int q, const ColdRun& run, Report* report) {
    auto it = reference_.find(q);
    if (it == reference_.end()) {
      reference_.emplace(q, std::make_pair(s, run.fp));
      return;
    }
    if (!run.fp.Matches(it->second.second)) {
      report->Fail(std::string(kSchemeKeys[s]) + " Q" + std::to_string(q) +
                   " result differs from " + kSchemeKeys[it->second.first] +
                   ": " + run.fp.ToString() + " vs " +
                   it->second.second.ToString());
    }
  }

  void Summarize(const std::vector<double> (&samples)[3][kNumQueries + 1],
                 const ColdRun (&counts)[3][kNumQueries + 1], Report* report) {
    auto& m = report->metrics;
    double geomean[3] = {0, 0, 0};
    double median_sum_ms = 0;
    for (int s = 0; s < 3; ++s) {
      const std::string key = kSchemeKeys[s];
      std::vector<double> medians;
      exec::ExecStats sum;
      uint64_t peak = 0, misses = 0, bytes = 0;
      double sim_io = 0;
      for (int q = 1; q <= kNumQueries; ++q) {
        double med = Median(samples[s][q]);
        medians.push_back(med);
        median_sum_ms += med;
        m["tpch." + QueryKey(q) + "_ms." + key] = med;
        const ColdRun& c = counts[s][q];
        sum.Merge(c.stats);
        peak += c.peak_bytes;
        misses += c.page_misses;
        bytes += c.bytes_read;
        sim_io += c.sim_io_ms;
      }
      geomean[s] = Geomean(medians);
      m["tpch.geomean_ms." + key] = geomean[s];
      m["exec.rows_scanned." + key] = sum.rows_scanned;
      m["exec.rows_filtered_at_scan." + key] = sum.rows_filtered_at_scan;
      m["exec.zone_skip_ratio." + key] =
          Ratio(sum.zones_skipped, sum.zones_skipped + sum.zones_read);
      m["exec.encoded_spans." + key] = sum.encoded_spans;
      m["exec.decodes_skipped." + key] = sum.decodes_skipped;
      m["exec.chunks_zero_copy." + key] = sum.chunks_zero_copy;
      m["exec.peak_mem_mb." + key] = peak / 1048576.0;
      m["io.page_misses." + key] = misses;
      m["io.bytes_read_mb." + key] = bytes / 1048576.0;
      m["io.sim_io_ms." + key] = sim_io;
      if (s == 2) {
        m["bdcc.groups_read"] = sum.groups_read;
        m["bdcc.group_prune_ratio"] =
            Ratio(sum.groups_pruned, sum.groups_pruned + sum.groups_read);
        m["bdcc.sandwich_partitions"] = sum.sandwich_partitions;
        m["peak_mem_mb"] = peak / 1048576.0;
      }
    }
    m["query_geomean_ms"] = geomean[2];
    m["qps"] = 3 * kNumQueries / (median_sum_ms / 1000.0);
    // The paper's ordering; a flip is worth a look, not a failure.
    if (!(geomean[2] <= geomean[1] && geomean[1] <= geomean[0])) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "paper ordering BDCC <= PK <= Plain flipped: geomean "
                    "bdcc %.3f pk %.3f plain %.3f ms",
                    geomean[2], geomean[1], geomean[0]);
      report->warnings.push_back(buf);
    }
  }

  static double Ratio(uint64_t num, uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / den;
  }

  uint64_t seed_ = 0;
  uint64_t passes_ = 0;
  std::unique_ptr<tpch::TpchDb> db_;
  std::map<int, std::pair<int, Fingerprint>> reference_;
};

}  // namespace

std::unique_ptr<Workload> MakePowerWorkload() {
  return std::make_unique<PowerWorkload>();
}

}  // namespace perfbench
}  // namespace bdcc
