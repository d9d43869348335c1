// `serve`: mixed interactive and batch traffic through one
// serve::QueryRunner, as a closed loop with three clients.
//
// One interactive stream (Q6, Q12, Q14, Q19) and two batch streams (Q1, Q9,
// Q18, Q21) each send their next query when the previous one returns, in a
// seeded order. Each class has one execution slot, so the second batch
// stream waits in admission. Queries run with num_threads = 2 on a
// benchmark-owned scheduler with one worker: three clients plus one worker
// stay within four threads. The pool is large enough that nothing sheds or
// retries. BDCC scheme only; no simulated I/O, no delta. A pass runs a
// warm-up epoch, then ten measured ones. Each stream probes the host on its
// own thread before and after each epoch and its timings of the epoch are
// scaled by those probes (HostScale), as power scales each rep; qps is
// scaled by all streams' probes and is the median over epochs.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/task_scheduler.h"
#include "serve/query_runner.h"
#include "tpch/tpch_queries.h"

namespace bdcc {
namespace perfbench {
namespace {

constexpr int kInteractiveMix[] = {6, 12, 14, 19};
constexpr int kBatchMix[] = {1, 9, 18, 21};
constexpr int kStreams = 3;  // stream 0 interactive, 1 and 2 batch
constexpr int kQueryThreads = 2;
constexpr int kSchedulerWorkers = 1;
// A pass runs a warm-up epoch and kEpochs measured ones; each stream probes
// the host before and after each.
constexpr int kEpochs = 10;
constexpr int kEpochProbes = 4;

struct Served {
  int query = 0;
  bool interactive = false;
  double latency_ms = 0;  // call to Execute until it returns
  double queue_wait_ms = 0;
  double exec_ms = 0;
  double peak_mb = 0;
  Clock::time_point done;
};

class ServeWorkload : public Workload {
 public:
  bool Setup(const Args& args, Report* report) override {
    seed_ = args.seed;
    tpch::TpchDbOptions options;
    options.build_plain = false;
    options.build_pk = false;
    options.attach_buffer_pools = false;
    db_ = BuildDb(args, options, report);
    if (db_ == nullptr) return false;
    scheduler_ = std::make_unique<common::TaskScheduler>(kSchedulerWorkers);
    report->info["serve_threads"] =
        std::to_string(kStreams + kSchedulerWorkers);
    // Serial reference results (num_threads = 1, no runner).
    for (const int* mix : {kInteractiveMix, kBatchMix}) {
      for (int i = 0; i < 4; ++i) {
        exec::ExecContext ctx;
        auto result = Run(mix[i], &ctx, 0, 1);
        if (!result.ok()) {
          report->Fail("reference Q" + std::to_string(mix[i]) + ": " +
                       result.status().ToString());
          return false;
        }
        reference_[mix[i]] = FingerprintOf(result.value());
      }
    }
    return true;
  }

  const tpch::TpchDb& db() const override { return *db_; }

  void Pass(double seconds, Report* report) override {
    serve::RunnerConfig config;
    config.admission.of(serve::QueryClass::kInteractive) = {1, 8, 0};
    config.admission.of(serve::QueryClass::kBatch) = {1, 8, 0};
    config.pool_bytes = 16ull << 30;  // accounting only; never the limit
    serve::QueryRunner runner(config);

    std::vector<std::vector<Served>> served(kStreams);
    std::vector<std::vector<std::string>> errors(kStreams);
    std::vector<uint64_t> attempted(kStreams, 0);
    std::map<int, exec::ExecStats> first_stats;
    std::mutex stats_mu;
    std::atomic<uint64_t> next_request{0};
    std::vector<double> probes, epoch_qps;
    ++passes_;

    // Epoch 0 is a warm-up: checked, but its timings are not kept.
    for (int epoch = 0; epoch <= kEpochs; ++epoch) {
      // Each stream probes the host on its own thread, so the probes see
      // the cores its queries run on.
      std::vector<std::vector<double>> stream_probes(kStreams);
      std::vector<std::vector<Served>> epoch_served(kStreams);
      std::vector<Clock::time_point> stream_start(kStreams);
      std::vector<Clock::time_point> stream_end(kStreams);
      const Clock::time_point start = Clock::now();
      const Clock::time_point deadline =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds / kEpochs));
      std::vector<std::thread> threads;
      for (int s = 0; s < kStreams; ++s) {
        threads.emplace_back([&, s] {
          SampleHost(kEpochProbes, &stream_probes[s]);
          stream_start[s] = Clock::now();
          const bool interactive = s == 0;
          const int* mix_begin = interactive ? kInteractiveMix : kBatchMix;
          std::vector<int> mix(mix_begin, mix_begin + 4);
          Rng rng(seed_ * 0x9e3779b97f4a7c15ull + passes_ * 131 + epoch * 7 +
                  s);
          const serve::QueryClass cls =
              interactive ? serve::QueryClass::kInteractive
                          : serve::QueryClass::kBatch;
          while (Clock::now() < deadline) {
            rng.Shuffle(&mix);
            for (int q : mix) {
              if (Clock::now() >= deadline) break;
              const uint64_t request = ++next_request;
              Span span("serve.Execute", request,
                        {{"class", serve::QueryClassName(cls)},
                         {"query", std::to_string(q)}});
              const Clock::time_point t0 = Clock::now();
              serve::QueryReport rep = runner.Execute(
                  cls, [&](exec::ExecContext* ctx, uint64_t budget) {
                    Span exec_span("tpch.RunTpchQuery", request,
                                   {{"scheme", "bdcc"},
                                    {"query", std::to_string(q)}});
                    auto result = Run(q, ctx, budget, kQueryThreads);
                    std::lock_guard<std::mutex> lock(stats_mu);
                    first_stats.emplace(q, *ctx->stats());
                    return result;
                  });
              const Clock::time_point t1 = Clock::now();
              ++attempted[s];
              RecordChildSpans(span.id(), request, t0, rep);
              if (rep.outcome != serve::Outcome::kOk) {
                errors[s].push_back("Q" + std::to_string(q) + " " +
                                    serve::OutcomeName(rep.outcome) + ": " +
                                    rep.status.ToString());
                continue;
              }
              // The pool is sized so nothing retries: a retry is a failure.
              if (rep.attempts > 1) {
                errors[s].push_back("Q" + std::to_string(q) + " took " +
                                    std::to_string(rep.attempts) +
                                    " attempts");
                continue;
              }
              if (!FingerprintOf(rep.result).Matches(reference_.at(q))) {
                errors[s].push_back("Q" + std::to_string(q) +
                                    " result differs from the serial run");
                continue;
              }
              if (rep.leaked_bytes != 0) {
                errors[s].push_back("Q" + std::to_string(q) + " leaked " +
                                    std::to_string(rep.leaked_bytes) +
                                    " tracked bytes");
              }
              Served out;
              out.query = q;
              out.interactive = interactive;
              out.latency_ms = MsBetween(t0, t1);
              out.queue_wait_ms = rep.queue_wait_ms;
              out.exec_ms = rep.exec_ms;
              out.peak_mb = rep.peak_bytes / 1048576.0;
              out.done = t1;
              epoch_served[s].push_back(out);
            }
          }
          stream_end[s] = Clock::now();
          SampleHost(kEpochProbes, &stream_probes[s]);
        });
      }
      for (std::thread& t : threads) t.join();

      // The window in which all streams are active starts with the last
      // stream to start and ends with the first to finish.
      const Clock::time_point window_start =
          *std::max_element(stream_start.begin(), stream_start.end());
      const Clock::time_point window_end =
          *std::min_element(stream_end.begin(), stream_end.end());
      if (epoch == 0) continue;
      std::vector<double> epoch_probes;
      uint64_t in_window = 0;
      for (int s = 0; s < kStreams; ++s) {
        const double scale = HostScale(stream_probes[s]);
        epoch_probes.insert(epoch_probes.end(), stream_probes[s].begin(),
                            stream_probes[s].end());
        for (Served out : epoch_served[s]) {
          if (out.done >= window_start && out.done <= window_end) {
            ++in_window;
          }
          out.latency_ms *= scale;
          out.queue_wait_ms *= scale;
          out.exec_ms *= scale;
          served[s].push_back(out);
        }
      }
      epoch_qps.push_back(in_window / (MsBetween(window_start, window_end) *
                                       HostScale(epoch_probes) / 1000.0));
      probes.insert(probes.end(), epoch_probes.begin(), epoch_probes.end());
    }

    for (int s = 0; s < kStreams; ++s) {
      report->attempted += attempted[s];
      for (const std::string& e : errors[s]) report->Fail(e);
    }
    const serve::RunnerStats stats = runner.stats();
    const serve::AdmissionStats admission = runner.admission().stats();
    if (runner.pool().reserved() != 0) {
      report->Fail("memory pool holds " +
                   std::to_string(runner.pool().reserved()) +
                   " bytes after all streams");
    }
    Summarize(served, first_stats, report);
    auto& m = report->metrics;
    m["qps"] = Median(epoch_qps);
    m["host.probe_ms"] = Median(probes);
    m["serve.retries"] = stats.retries;
    m["serve.shed"] = stats.shed;
    m["serve.admitted"] = admission.admitted;
  }

 private:
  Result<exec::Batch> Run(int q, exec::ExecContext* ctx, uint64_t budget,
                          int threads) {
    tpch::QueryContext qc;
    qc.db = &db_->bdcc();
    qc.exec = ctx;
    qc.scale_factor = db_->options().scale_factor;
    qc.planner.memory_limit_bytes = budget;
    qc.planner.num_threads = threads;
    qc.planner.scheduler = scheduler_.get();
    return tpch::RunTpchQuery(q, qc);
  }

  // Queue, backoff and exec phases of one Execute, laid out from its
  // QueryReport (the runner does not expose its own timestamps).
  static void RecordChildSpans(uint64_t parent, uint64_t request,
                               Clock::time_point t0,
                               const serve::QueryReport& rep) {
    Tracer& tracer = GlobalTracer();
    if (!tracer.enabled() || parent == 0) return;
    auto ms = [](double v) {
      return std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(v));
    };
    Clock::time_point at = t0;
    tracer.Record("serve.queue", at, at + ms(rep.queue_wait_ms), parent,
                  request, {});
    at += ms(rep.queue_wait_ms);
    if (rep.backoff_ms > 0) {
      tracer.Record("serve.backoff", at, at + ms(rep.backoff_ms), parent,
                    request, {});
      at += ms(rep.backoff_ms);
    }
    tracer.Record("serve.exec", at, at + ms(rep.exec_ms), parent, request,
                  {{"attempts", std::to_string(rep.attempts)},
                   {"peak_bytes", std::to_string(rep.peak_bytes)}});
  }

  void Summarize(const std::vector<std::vector<Served>>& served,
                 const std::map<int, exec::ExecStats>& first_stats,
                 Report* report) {
    std::map<int, std::vector<double>> latency, peak;
    std::vector<double> interactive, queue[2], exec[2], peak_all;
    for (const auto& stream : served) {
      for (const Served& s : stream) {
        latency[s.query].push_back(s.latency_ms);
        peak[s.query].push_back(s.peak_mb);
        peak_all.push_back(s.peak_mb);
        const int cls = s.interactive ? 0 : 1;
        if (s.interactive) interactive.push_back(s.latency_ms);
        queue[cls].push_back(s.queue_wait_ms);
        exec[cls].push_back(s.exec_ms);
      }
    }
    auto& m = report->metrics;
    // Latency is the interactive class's: it has its own slot and stream,
    // so it never queues, while batch latency mostly measures the other
    // batch stream's query.
    std::vector<double> medians;
    double peak_sum = 0;
    for (int q : kInteractiveMix) medians.push_back(Median(latency[q]));
    for (const auto& [q, v] : peak) peak_sum += Median(v);
    m["query_geomean_ms"] = Geomean(medians);
    m["peak_mem_mb"] = peak_sum;
    m["serve.interactive_p50_ms"] = Quantile(interactive, 0.5);
    m["serve.interactive_p90_ms"] = Quantile(interactive, 0.9);
    m["serve.queue_wait_ms_p50.interactive"] = Median(queue[0]);
    m["serve.queue_wait_ms_p50.batch"] = Median(queue[1]);
    m["serve.exec_ms_p50.interactive"] = Median(exec[0]);
    m["serve.exec_ms_p50.batch"] = Median(exec[1]);
    m["serve.peak_mb_p50"] = Median(peak_all);
    report->info["serve_interactive_samples"] =
        std::to_string(interactive.size());
    if (interactive.size() < 100) {
      report->warnings.push_back("only " + std::to_string(interactive.size()) +
                                 " interactive samples (p90 wants >= 100)");
    }
    // Scan counters of one execution per query (same definitions as power).
    exec::ExecStats sum;
    for (const auto& [q, st] : first_stats) sum.Merge(st);
    m["exec.rows_scanned.bdcc"] = sum.rows_scanned;
    m["exec.rows_filtered_at_scan.bdcc"] = sum.rows_filtered_at_scan;
    m["exec.zone_skip_ratio.bdcc"] =
        sum.zones_skipped + sum.zones_read == 0
            ? 0.0
            : static_cast<double>(sum.zones_skipped) /
                  (sum.zones_skipped + sum.zones_read);
    m["exec.encoded_spans.bdcc"] = sum.encoded_spans;
    m["exec.decodes_skipped.bdcc"] = sum.decodes_skipped;
    m["exec.chunks_zero_copy.bdcc"] = sum.chunks_zero_copy;
  }

  uint64_t seed_ = 0;
  uint64_t passes_ = 0;
  std::unique_ptr<tpch::TpchDb> db_;
  std::unique_ptr<common::TaskScheduler> scheduler_;
  std::map<int, Fingerprint> reference_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeWorkload() {
  return std::make_unique<ServeWorkload>();
}

}  // namespace perfbench
}  // namespace bdcc
