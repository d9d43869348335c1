// Repository benchmark driver: sets up one closed-loop workload, runs one
// measured pass with tracing off (with --trace 1, half the time untraced and
// half traced, so a traced run lasts as long as an untraced one), then
// prints every metric it measured as one JSON line.
//
//   perfbench_driver --workload power|serve|live --seed N --seconds S
//                    --trace 0|1 [--trace-out FILE]
//
// Progress and warnings go to stderr. The last stdout line is
// `PERFBENCH_RESULT {...}`; perfbench/run.py turns it into the benchmark's
// result line. Exits 1 when set-up failed or any output check failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench_common.h"

using namespace bdcc;             // NOLINT
using namespace bdcc::perfbench;  // NOLINT

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload power|serve|live --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::map<std::string, double>& metrics) {
  std::string out = "{";
  for (const auto& [name, value] : metrics) {
    if (out.size() > 1) out += ",";
    out += JsonString(name) + ":" + JsonNumber(value);
  }
  return out + "}";
}

std::string ListJson(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const std::string& s : items) {
    if (out.size() > 1) out += ",";
    out += JsonString(s);
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  std::unique_ptr<Workload> workload;
  if (args.workload == "power") {
    workload = MakePowerWorkload();
  } else if (args.workload == "serve") {
    workload = MakeServeWorkload();
  } else if (args.workload == "live") {
    workload = MakeLiveWorkload();
  } else {
    Usage();
    return 2;
  }

  Report report;
  report.info["workload"] = args.workload;
  report.info["seed"] = std::to_string(args.seed);
  char sf[16];
  std::snprintf(sf, sizeof(sf), "%g", kScaleFactor);
  report.info["sf"] = sf;
  report.info["host_cpus"] =
      std::to_string(std::thread::hardware_concurrency());
  const bool setup_ok = workload->Setup(args, &report);
  std::fprintf(stderr, "[perfbench] %s seed %llu: set-up %s (%.3f s)\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               setup_ok ? "done" : "FAILED", report.metrics["setup_s"]);

  Report traced;
  if (setup_ok) {
    const double pass_seconds = args.trace ? args.seconds / 2 : args.seconds;
    workload->Pass(pass_seconds, &report);
    if (args.trace) {
      GlobalTracer().set_enabled(true);
      TraceSetupSteps(workload->db(), &traced);
      workload->Pass(pass_seconds, &traced);
      GlobalTracer().set_enabled(false);
      double base = report.metrics["query_geomean_ms"];
      traced.metrics["trace.overhead_pct"] =
          base > 0 ? (traced.metrics["query_geomean_ms"] / base - 1) * 100
                   : 0;
      for (const auto& [name, count] : GlobalTracer().CountByName()) {
        std::fprintf(stderr, "[perfbench] spans %-32s %zu\n", name.c_str(),
                     count);
      }
      if (!args.trace_out.empty() &&
          !GlobalTracer().WriteChromeJson(args.trace_out)) {
        traced.Fail("cannot write trace file " + args.trace_out);
      }
    }
  }

  const uint64_t attempted = report.attempted + traced.attempted;
  const uint64_t failed = report.failed + traced.failed;
  std::vector<std::string> errors = report.errors;
  errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
  std::vector<std::string> warnings = report.warnings;
  warnings.insert(warnings.end(), traced.warnings.begin(),
                  traced.warnings.end());
  for (const std::string& e : errors) {
    std::fprintf(stderr, "[perfbench] ERROR %s\n", e.c_str());
  }
  for (const std::string& w : warnings) {
    std::fprintf(stderr, "[perfbench] warning: %s\n", w.c_str());
  }

  std::string info = "{";
  for (const auto& [k, v] : report.info) {
    if (info.size() > 1) info += ",";
    info += JsonString(k) + ":" + JsonString(v);
  }
  info += "}";
  std::printf(
      "PERFBENCH_RESULT {\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"info\":%s,\"errors\":%s,\"warnings\":%s,\"metrics\":%s,"
      "\"traced_metrics\":%s}\n",
      setup_ok && failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), info.c_str(),
      ListJson(errors).c_str(), ListJson(warnings).c_str(),
      MetricsJson(report.metrics).c_str(),
      MetricsJson(traced.metrics).c_str());
  std::fflush(stdout);
  return setup_ok && failed == 0 ? 0 : 1;
}
