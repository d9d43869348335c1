// Shared pieces of the repository benchmark driver: clocks and order
// statistics, the in-memory span recorder behind `--trace 1`, the
// order-insensitive result fingerprint the output checks compare, and the
// report every workload fills in.
#ifndef BDCC_PERFBENCH_BENCH_COMMON_H_
#define BDCC_PERFBENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "exec/batch.h"
#include "tpch/tpch_db.h"

namespace bdcc {
namespace perfbench {

// ---------------------------------------------------------------- clocks --

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point start) {
  return MsBetween(start, Clock::now());
}

// ------------------------------------------------------------ statistics --

/// Linear-interpolated quantile (q in [0,1]) of `v`; 0 when empty.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}
/// Geometric mean of positive values; 0 when empty.
double Geomean(const std::vector<double>& v);

/// splitmix64: the one seeded stream behind every order the driver draws.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Fisher-Yates shuffle driven by this stream.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Next() % i]);
    }
  }

 private:
  uint64_t state_;
};

/// `s` as a quoted JSON string (quotes and backslashes escaped, control
/// characters dropped).
std::string JsonString(const std::string& s);

// ------------------------------------------------------------ host speed --

/// A shared host's speed drifts by tens of percent in phases of 10-20 s,
/// slowing every query of a phase alike. The probe is a fixed piece of the
/// benchmark's own work (sort and hash a seeded array; no engine code)
/// that slows with it. Workloads time it at quiet points next to their
/// operations and report each timing scaled by HostScale of the probes
/// around it, which is the time on a host where the probe takes
/// kProbeReferenceMs (about a quiet 4-vCPU guest's).
inline constexpr double kProbeReferenceMs = 6.5;

/// Time one probe, in ms.
double ProbeMs();
/// Append `n` probe times to `*samples`.
void SampleHost(int n, std::vector<double>* samples);
/// kProbeReferenceMs over the median of `samples` (1 when empty).
double HostScale(const std::vector<double>& samples);

// ----------------------------------------------------------------- trace --

/// \brief In-memory span recorder written out as Chrome trace-event JSON.
///
/// Spans are recorded only while enabled; each carries a name, start, end,
/// the id of the enclosing span on the same thread, a request id and free
/// attributes. Thread-safe: serving threads record concurrently.
class Tracer {
 public:
  using Attrs = std::vector<std::pair<std::string, std::string>>;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Record a finished span [start, end] under `parent` (0 = root). `id` 0
  /// draws a fresh id; a Span passes the one it handed to its children.
  void Record(const std::string& name, Clock::time_point start,
              Clock::time_point end, uint64_t parent, uint64_t request,
              Attrs attrs, uint64_t id = 0);

  /// Span count per name, printed after a traced run.
  std::map<std::string, size_t> CountByName() const;
  /// Write {"traceEvents": [...]} to `path`.
  bool WriteChromeJson(const std::string& path) const;

 private:
  friend class Span;
  struct Event {
    std::string name;
    double start_us = 0, dur_us = 0;
    uint64_t id = 0, parent = 0, request = 0;
    uint32_t tid = 0;
    Attrs attrs;
  };
  uint64_t NextId();

  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<Event> events_;
};

Tracer& GlobalTracer();

/// RAII span around one call; a no-op while tracing is off.
class Span {
 public:
  Span(const char* name, uint64_t request = 0, Tracer::Attrs attrs = {});
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return id_; }
  void Attr(const std::string& key, const std::string& value) {
    if (id_ != 0) attrs_.emplace_back(key, value);
  }

 private:
  const char* name_;
  uint64_t id_ = 0, parent_ = 0, request_ = 0;
  Clock::time_point start_;
  Tracer::Attrs attrs_;
};

// ----------------------------------------------------------- fingerprint --

/// \brief Order-insensitive summary of a result batch. Non-float columns
/// hash into a per-row key; rows combine by wrapping sum, so row order does
/// not matter. Float columns fold into a sum weighted by each row's key
/// hash, compared with a relative tolerance (summation order differs
/// between plans).
struct Fingerprint {
  uint64_t rows = 0;
  uint64_t key_hash = 0;
  std::vector<double> weighted;  // per float column
  std::vector<double> magnitude;  // per float column, sum of |weighted term|

  bool Matches(const Fingerprint& other, double rel_tol = 1e-6) const;
  std::string ToString() const;
};

Fingerprint FingerprintOf(const exec::Batch& batch);

// ----------------------------------------------------------------- report --

/// TPC-H scale of every workload, the set-ups per run behind setup_s, and
/// the host probes taken before and after each set-up to scale it.
inline constexpr double kScaleFactor = 0.05;
inline constexpr int kSetups = 3;
inline constexpr int kSetupProbes = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

/// What a workload hands back: every metric it measured, the attempted and
/// failed operation counts (wrong results count as failed) and free-form
/// facts echoed into the output (seed, thread budget, sample counts).
struct Report {
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> info;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::string> warnings;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
};

/// Set the TPC-H database up kSetups times (each build followed by
/// `after_build`, the workload's own timed set-up), keep the last one and
/// report the median host-scaled set-up time as setup_s.
std::unique_ptr<tpch::TpchDb> BuildDb(
    const Args& args, tpch::TpchDbOptions options, Report* report,
    const std::function<void(tpch::TpchDb*)>& after_build = nullptr);

/// The traced set-up: the public calls of TpchDb::Create in its order
/// (GenerateTpch, encoded lanes of the plain copy, DesignSchema,
/// BuildDesignedTables, encoded lanes of the unclustered tables), each under
/// a span and timed into the set-up layer metrics.
void TraceSetupSteps(const tpch::TpchDb& db, Report* report);

/// \brief One closed-loop workload: set up once, then measured passes.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the database and everything the loop needs; reports setup_s.
  /// False when set-up failed (the failure is in the report).
  virtual bool Setup(const Args& args, Report* report) = 0;
  /// Run the loop for `seconds` and report every metric the workload
  /// measures, plus attempted/failed operations and output-check failures.
  virtual void Pass(double seconds, Report* report) = 0;
  virtual const tpch::TpchDb& db() const = 0;
};

std::unique_ptr<Workload> MakePowerWorkload();
std::unique_ptr<Workload> MakeServeWorkload();
std::unique_ptr<Workload> MakeLiveWorkload();

}  // namespace perfbench
}  // namespace bdcc

#endif  // BDCC_PERFBENCH_BENCH_COMMON_H_
