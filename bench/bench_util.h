// Shared benchmark harness utilities.
#ifndef BDCC_BENCH_BENCH_UTIL_H_
#define BDCC_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "tpch/tpch_db.h"
#include "tpch/tpch_queries.h"

namespace bdcc {
namespace bench {

/// Scale factor for TPC-H benches; override with BDCC_BENCH_SF.
inline double BenchScaleFactor(double fallback = 0.05) {
  const char* env = std::getenv("BDCC_BENCH_SF");
  if (env != nullptr) {
    double sf = std::atof(env);
    if (sf > 0) return sf;
  }
  return fallback;
}

/// \brief Strip a `--threads=N` flag from argv before google-benchmark sees
/// it (it rejects unknown flags) and return N. Falls back to the
/// BDCC_BENCH_THREADS env var, then to `fallback`. N caps the thread-count
/// sweep of the parallel benchmarks.
inline int StripThreadsFlag(int* argc, char** argv, int fallback = 4) {
  int threads = fallback;
  const char* env = std::getenv("BDCC_BENCH_THREADS");
  if (env != nullptr && std::atoi(env) > 0) threads = std::atoi(env);
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--threads=", 10) == 0) {
      int n = std::atoi(arg + 10);
      if (n > 0) threads = n;
      continue;  // swallow the flag
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  return threads;
}

/// Thread counts to sweep: 1, 2, 4, ... doubling up to and always including
/// `max_threads` — one benchmark row per count lands in the JSON output, so
/// the speedup curve is directly plottable.
inline std::vector<int> ThreadCounts(int max_threads) {
  std::vector<int> out;
  for (int t = 1; t < max_threads; t *= 2) out.push_back(t);
  out.push_back(max_threads);
  return out;
}

struct QueryRun {
  double wall_ms = 0;
  double sim_io_ms = 0;
  uint64_t peak_memory = 0;
  uint64_t rows = 0;
  // Lifecycle counters (ExecStats): all zero on a healthy unlimited run;
  // nonzero values flag cancellations, budget refusals, or fault injection
  // interfering with the measurement.
  uint64_t morsels_cancelled = 0;
  uint64_t budget_denials = 0;
  uint64_t faults_injected = 0;
  // Delta-leg counters: nonzero only when the plan scanned a live table
  // with unmerged appends (see src/delta/).
  uint64_t delta_rows_scanned = 0;
  uint64_t delta_chunks = 0;
  std::vector<std::string> notes;
  bool ok = false;
  std::string error;
};

/// Cold-run one query on one scheme: clears the scheme's buffer pool, runs,
/// and collects wall time + simulated I/O + peak operator memory.
inline QueryRun RunQueryCold(tpch::TpchDb* db, opt::Scheme scheme, int q) {
  QueryRun out;
  io::BufferPool* pool = db->pool(scheme);
  io::DeviceModel* device = db->device(scheme);
  pool->Clear();
  device->ResetStats();

  exec::ExecContext exec_ctx(pool);
  tpch::QueryContext ctx;
  ctx.db = &db->db(scheme);
  ctx.exec = &exec_ctx;
  ctx.scale_factor = db->options().scale_factor;
  ctx.notes = &out.notes;

  auto start = std::chrono::steady_clock::now();
  auto result = tpch::RunTpchQuery(q, ctx);
  auto end = std::chrono::steady_clock::now();

  out.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          end - start)
          .count();
  out.sim_io_ms = device->stats().simulated_seconds * 1000.0;
  out.peak_memory = exec_ctx.memory()->peak_bytes();
  out.morsels_cancelled = exec_ctx.stats()->morsels_cancelled;
  out.budget_denials = exec_ctx.stats()->budget_denials;
  out.faults_injected = exec_ctx.stats()->faults_injected;
  out.delta_rows_scanned = exec_ctx.stats()->delta_rows_scanned;
  out.delta_chunks = exec_ctx.stats()->delta_chunks;
  if (result.ok()) {
    out.ok = true;
    out.rows = result.value().num_rows;
  } else {
    out.error = result.status().ToString();
  }
  return out;
}

/// \brief One machine-readable JSON result line per benchmark config.
///
/// The google-benchmark micros already emit JSON via --benchmark_out; the
/// plain fig/table drivers use this builder so every benchmark in the tree
/// produces greppable per-config records (the perf-trajectory files like
/// BENCH_pr3.json are built from these). Lines append to the file named by
/// $BDCC_BENCH_JSON, or go to stdout prefixed "BENCHJSON " when unset.
class JsonLine {
 public:
  explicit JsonLine(const std::string& bench) {
    body_ = "{\"bench\":\"" + Escape(bench) + "\"";
  }
  JsonLine& Str(const std::string& key, const std::string& value) {
    body_ += ",\"" + Escape(key) + "\":\"" + Escape(value) + "\"";
    return *this;
  }
  JsonLine& Num(const std::string& key, double value) {
    char buf[64];
    // NaN/inf have no JSON literal and would poison the whole line.
    if (!std::isfinite(value)) {
      body_ += ",\"" + Escape(key) + "\":null";
      return *this;
    }
    // Integral values (row counts, byte sizes) must round-trip exactly;
    // %.6g would silently truncate them to 6 significant digits.
    if (value >= -9.2e18 && value <= 9.2e18 &&
        value == static_cast<double>(static_cast<int64_t>(value))) {
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(value));
    } else {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
    }
    body_ += ",\"" + Escape(key) + "\":" + buf;
    return *this;
  }
  void Emit() const {
    std::string line = body_ + "}\n";
    const char* path = std::getenv("BDCC_BENCH_JSON");
    if (path != nullptr && path[0] != '\0') {
      if (std::FILE* f = std::fopen(path, "a")) {
        std::fwrite(line.data(), 1, line.size(), f);
        std::fclose(f);
        return;
      }
    }
    std::printf("BENCHJSON %s", line.c_str());
  }

 private:
  static std::string Escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) < 0x20) continue;
      out.push_back(c);
    }
    return out;
  }

  std::string body_;
};

/// Append the lifecycle counters of `run` to a JSON line (only when nonzero,
/// so healthy baseline rows keep their historical shape and the regression
/// checker's config keys stay comparable).
inline void AddLifecycleCounters(JsonLine& line, const QueryRun& run) {
  if (run.morsels_cancelled > 0) {
    line.Num("morsels_cancelled", static_cast<double>(run.morsels_cancelled));
  }
  if (run.budget_denials > 0) {
    line.Num("budget_denials", static_cast<double>(run.budget_denials));
  }
  if (run.faults_injected > 0) {
    line.Num("faults_injected", static_cast<double>(run.faults_injected));
  }
  if (run.delta_rows_scanned > 0) {
    line.Num("delta_rows_scanned",
             static_cast<double>(run.delta_rows_scanned));
  }
  if (run.delta_chunks > 0) {
    line.Num("delta_chunks", static_cast<double>(run.delta_chunks));
  }
}

inline std::string HumanBytes(uint64_t bytes) {
  char buf[32];
  if (bytes >= (1ull << 30)) {
    std::snprintf(buf, sizeof(buf), "%.2fGB", bytes / double(1ull << 30));
  } else if (bytes >= (1ull << 20)) {
    std::snprintf(buf, sizeof(buf), "%.2fMB", bytes / double(1ull << 20));
  } else if (bytes >= 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fKB", bytes / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%lluB",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

}  // namespace bench
}  // namespace bdcc

#endif  // BDCC_BENCH_BENCH_UTIL_H_
