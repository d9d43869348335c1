// google-benchmark microbenchmarks for the paper's benefit (i): selection
// pushdown. Compares a full plain scan against a BDCC scan with group
// pruning on a clustered dimension, at several selectivities, plus
// morsel-parallel variants swept over --threads=N (one JSON row per thread
// count: the scan speedup curve).
#include <benchmark/benchmark.h>

#include <chrono>
#include <thread>

#include "bdcc/bdcc_table.h"
#include "bdcc/binning.h"
#include "bdcc/scatter_scan.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/task_scheduler.h"
#include "exec/filter.h"
#include "exec/morsel.h"
#include "exec/scan.h"
#include "opt/planner.h"

namespace {

using namespace bdcc;  // NOLINT

class NoFkResolver : public TableResolver {
 public:
  explicit NoFkResolver(const Table* t) : t_(t) {}
  Result<const Table*> GetTable(const std::string& name) const override {
    if (name == t_->name()) return t_;
    return Status::NotFound(name);
  }
  Result<const catalog::ForeignKey*> GetForeignKey(
      const std::string& id) const override {
    return Status::NotFound(id);
  }

 private:
  const Table* t_;
};

constexpr uint64_t kRows = 500000;
constexpr int64_t kDomain = 1 << 16;

struct Fixture {
  Table plain{"T"};
  std::unique_ptr<BdccTable> clustered;

  Fixture() {
    Rng rng(5);
    Column k(TypeId::kInt32), v(TypeId::kFloat64);
    for (uint64_t i = 0; i < kRows; ++i) {
      k.AppendInt32(static_cast<int32_t>(rng.Uniform(0, kDomain - 1)));
      v.AppendFloat64(rng.NextDouble());
    }
    plain.AddColumn("k", std::move(k)).AbortIfNotOK();
    plain.AddColumn("v", std::move(v)).AbortIfNotOK();
    plain.BuildZoneMaps(1024);

    Table copy = plain.Clone();
    auto dim =
        binning::CreateRangeDimension("D_K", "T", "k", 0, kDomain - 1, 10)
            .ValueOrDie();
    std::vector<DimensionUse> uses(1);
    uses[0].dimension = std::make_shared<const Dimension>(std::move(dim));
    // Resolve against `plain`: `copy` is moved into BuildBdccTable below and
    // must not be referenced during the build.
    NoFkResolver resolver(&plain);
    clustered = std::make_unique<BdccTable>(
        BuildBdccTable(std::move(copy), uses, resolver, {}).ValueOrDie());
  }
};

Fixture& F() {
  static Fixture f;
  return f;
}

// Selectivity = 2^-range(0).
void BM_PlainScanFiltered(benchmark::State& state) {
  Fixture& f = F();
  int64_t hi = kDomain >> state.range(0);
  for (auto _ : state) {
    exec::ExecContext ctx(nullptr);
    exec::SegmentScan scan(
        &f.plain, {"k", "v"},
        {{"k", ValueRange{Value::Int32(0),
                          Value::Int32(static_cast<int32_t>(hi - 1))}}});
    scan.Open(&ctx).AbortIfNotOK();
    uint64_t matched = 0;
    while (true) {
      auto b = scan.Next(&ctx).ValueOrDie();
      if (b.empty()) break;
      for (size_t i = 0; i < b.num_rows; ++i) {
        if (b.columns[0].i32_data()[i] < hi) ++matched;
      }
    }
    benchmark::DoNotOptimize(matched);
  }
}

void BM_BdccScanPruned(benchmark::State& state) {
  Fixture& f = F();
  int64_t hi = kDomain >> state.range(0);
  const BdccTable& bt = *f.clustered;
  for (auto _ : state) {
    exec::ExecContext ctx(nullptr);
    // Prune groups via the dimension's bin range (pushdown).
    uint64_t lo_bin, hi_bin;
    CompositeValue lo{Value::Int64(0)}, hiv{Value::Int64(hi - 1)};
    bt.uses()[0].dimension->BinRange(&lo, &hiv, &lo_bin, &hi_bin);
    uint64_t lo_prefix, hi_prefix;
    bt.BinRangeToGroupPrefix(0, lo_bin, hi_bin, &lo_prefix, &hi_prefix);
    auto ranges = FilterGroupsByPrefix(bt, PlanNaturalScan(bt), 0, lo_prefix,
                                       hi_prefix);
    exec::SegmentScan scan(
        &bt.data(), {"k", "v"},
        {{"k", ValueRange{Value::Int32(0),
                          Value::Int32(static_cast<int32_t>(hi - 1))}}},
        opt::GroupSegments(bt, {{&bt.data(), std::move(ranges)}}));
    scan.Open(&ctx).AbortIfNotOK();
    uint64_t matched = 0;
    while (true) {
      auto b = scan.Next(&ctx).ValueOrDie();
      if (b.empty()) break;
      for (size_t i = 0; i < b.num_rows; ++i) {
        if (b.columns[0].i32_data()[i] < hi) ++matched;
      }
    }
    benchmark::DoNotOptimize(matched);
  }
}

BENCHMARK(BM_PlainScanFiltered)->Arg(2)->Arg(5)->Arg(8);
BENCHMARK(BM_BdccScanPruned)->Arg(2)->Arg(5)->Arg(8);

// Morsel-parallel plain scan: `threads` clones walk strided zone-aligned
// morsels of the shared plan (selectivity fixed at 2^-2).
void RunPlainScanParallel(benchmark::State& state, int threads) {
  Fixture& f = F();
  int64_t hi = kDomain >> 2;
  auto morsels = std::make_shared<const std::vector<exec::Morsel>>(
      exec::MakeRowMorsels(kRows, 1024, 16384));
  for (auto _ : state) {
    std::vector<uint64_t> matched(threads, 0);
    common::TaskScheduler::Shared()->ParallelFor(threads, [&](size_t i) {
      exec::ExecContext ctx(nullptr);
      exec::SegmentScan scan(
          &f.plain, {"k", "v"},
          {{"k", ValueRange{Value::Int32(0),
                            Value::Int32(static_cast<int32_t>(hi - 1))}}},
          exec::CloneRowSegments(&f.plain, *morsels, i,
                                 static_cast<size_t>(threads)));
      scan.Open(&ctx).AbortIfNotOK();
      while (true) {
        auto b = scan.Next(&ctx).ValueOrDie();
        if (b.empty()) break;
        for (size_t r = 0; r < b.num_rows; ++r) {
          if (b.columns[0].i32_data()[r] < hi) ++matched[i];
        }
      }
    });
    uint64_t total = 0;
    for (uint64_t m : matched) total += m;
    benchmark::DoNotOptimize(total);
  }
  state.counters["threads"] = threads;
}

// Morsel-parallel BDCC scan: group pruning first, then GroupRange-index
// morsels split the surviving groups across clones.
void RunBdccScanParallel(benchmark::State& state, int threads) {
  Fixture& f = F();
  int64_t hi = kDomain >> 2;
  const BdccTable& bt = *f.clustered;
  uint64_t lo_bin, hi_bin;
  CompositeValue lo{Value::Int64(0)}, hiv{Value::Int64(hi - 1)};
  bt.uses()[0].dimension->BinRange(&lo, &hiv, &lo_bin, &hi_bin);
  uint64_t lo_prefix, hi_prefix;
  bt.BinRangeToGroupPrefix(0, lo_bin, hi_bin, &lo_prefix, &hi_prefix);
  auto ranges = std::make_shared<const std::vector<GroupRange>>(
      FilterGroupsByPrefix(bt, PlanNaturalScan(bt), 0, lo_prefix, hi_prefix));
  auto morsels = std::make_shared<const std::vector<exec::Morsel>>(
      exec::MakeRangeMorsels(*ranges, 16384));
  for (auto _ : state) {
    std::vector<uint64_t> matched(threads, 0);
    common::TaskScheduler::Shared()->ParallelFor(threads, [&](size_t i) {
      exec::ExecContext ctx(nullptr);
      // This clone's strided morsels, each coalesced into segments.
      std::vector<exec::ScanSegment> segments;
      for (size_t m = i; m < morsels->size(); m += threads) {
        for (const exec::ScanSegment& s : opt::GroupSegments(
                 bt, {{&bt.data(),
                       std::vector<GroupRange>(
                           ranges->begin() + (*morsels)[m].begin,
                           ranges->begin() + (*morsels)[m].end)}})) {
          segments.push_back(s);
        }
      }
      exec::SegmentScan scan(
          &bt.data(), {"k", "v"},
          {{"k", ValueRange{Value::Int32(0),
                            Value::Int32(static_cast<int32_t>(hi - 1))}}},
          std::move(segments));
      scan.Open(&ctx).AbortIfNotOK();
      while (true) {
        auto b = scan.Next(&ctx).ValueOrDie();
        if (b.empty()) break;
        for (size_t r = 0; r < b.num_rows; ++r) {
          if (b.columns[0].i32_data()[r] < hi) ++matched[i];
        }
      }
    });
    uint64_t total = 0;
    for (uint64_t m : matched) total += m;
    benchmark::DoNotOptimize(total);
  }
  state.counters["threads"] = threads;
}

// ---- Zero-copy view emission sweep ----
//
// A clustered table (long runs on k) where zone maps prove whole chunks
// all-pass: times zero-copy view emission, both unfiltered and under an
// all-match predicate (the zone short-circuit that skips every codec
// decode). One JsonLine per config.
void RunZeroCopySweep() {
  Rng rng(23);
  Table t("ZC");
  Column k(TypeId::kInt32), v(TypeId::kFloat64), w(TypeId::kInt64);
  int32_t cur = 0;
  uint64_t left = 0;
  for (uint64_t i = 0; i < kRows; ++i) {
    if (left == 0) {
      cur = static_cast<int32_t>(rng.Uniform(0, 999));
      left = static_cast<uint64_t>(rng.Uniform(100, 400));
    }
    --left;
    k.AppendInt32(cur);
    v.AppendFloat64(rng.NextDouble());
    w.AppendInt64(static_cast<int64_t>(i));
  }
  t.AddColumn("k", std::move(k)).AbortIfNotOK();
  t.AddColumn("v", std::move(v)).AbortIfNotOK();
  t.AddColumn("w", std::move(w)).AbortIfNotOK();
  t.BuildZoneMaps(1024);
  t.BuildEncodedLanes();

  struct Config {
    const char* name;
    bool filtered;
  };
  const Config configs[] = {{"views", false}, {"allmatch_views", true}};
  for (const Config& c : configs) {
    double best_ms = 0;
    exec::ExecStats stats;
    for (int rep = 0; rep < 3; ++rep) {
      exec::ExecContext ctx(nullptr);
      std::vector<exec::ScanPredicate> preds;
      if (c.filtered) {
        // Every row satisfies this, so zone maps prove all-match per chunk.
        preds = {{"k", ValueRange{Value::Int32(0), Value::Int32(999)}}};
      }
      exec::SegmentScan scan(&t, {"k", "v", "w"}, preds);
      scan.EnableRowFilter(c.filtered);
      auto t0 = std::chrono::steady_clock::now();
      scan.Open(&ctx).AbortIfNotOK();
      uint64_t sum = 0;
      while (true) {
        auto b = scan.Next(&ctx).ValueOrDie();
        if (b.empty()) break;
        const int32_t* kd = b.columns[0].i32_data();
        for (size_t i = 0; i < b.num_rows; ++i) sum += kd[b.RowAt(i)];
        scan.Recycle(std::move(b));
      }
      scan.Close(&ctx);
      auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(sum);
      double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      if (rep == 0 || ms < best_ms) best_ms = ms;
      stats = *ctx.stats();
    }
    bdcc::bench::JsonLine("micro_scan_zero_copy")
        .Str("mode", c.name)
        .Str("simd", bdcc::simd::TierName(bdcc::simd::ActiveTier()))
        .Num("host_cpus", std::thread::hardware_concurrency())
        .Num("rows", static_cast<double>(kRows))
        .Num("wall_ms", best_ms)
        .Num("mrows_per_s", kRows / 1e6 / (best_ms / 1e3))
        .Num("chunks_zero_copy", static_cast<double>(stats.chunks_zero_copy))
        .Num("decodes_skipped", static_cast<double>(stats.decodes_skipped))
        .Emit();
  }
}

}  // namespace

int main(int argc, char** argv) {
  int max_threads = bdcc::bench::StripThreadsFlag(&argc, argv, 4);
  RunZeroCopySweep();
  for (int t : bdcc::bench::ThreadCounts(max_threads)) {
    benchmark::RegisterBenchmark(
        ("BM_PlainScanParallel/threads:" + std::to_string(t)).c_str(),
        [t](benchmark::State& s) { RunPlainScanParallel(s, t); });
    benchmark::RegisterBenchmark(
        ("BM_BdccScanParallel/threads:" + std::to_string(t)).c_str(),
        [t](benchmark::State& s) { RunBdccScanParallel(s, t); });
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
