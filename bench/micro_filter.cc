// Selectivity sweep for the scan-level predicate pushdown (selection
// vectors, late materialization). Swept 0.1% -> 99% selectivity and over
// --threads=N; one JSON row per (selectivity, threads) config lands in
// --benchmark_out, so speedup curves are directly plottable.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <limits>
#include <thread>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/task_scheduler.h"
#include "exec/morsel.h"
#include "exec/scan.h"

namespace {

using namespace bdcc;  // NOLINT

constexpr uint64_t kRows = 500000;
constexpr int64_t kDomain = 1 << 20;

struct Fixture {
  Table table{"T"};

  Fixture() {
    Rng rng(11);
    Column k(TypeId::kInt32), v(TypeId::kFloat64), w(TypeId::kInt64);
    for (uint64_t i = 0; i < kRows; ++i) {
      k.AppendInt32(static_cast<int32_t>(rng.Uniform(0, kDomain - 1)));
      v.AppendFloat64(rng.NextDouble());
      w.AppendInt64(static_cast<int64_t>(i));
    }
    table.AddColumn("k", std::move(k)).AbortIfNotOK();
    table.AddColumn("v", std::move(v)).AbortIfNotOK();
    table.AddColumn("w", std::move(w)).AbortIfNotOK();
    table.BuildZoneMaps(1024);
  }
};

Fixture& F() {
  static Fixture f;
  return f;
}

// Selectivity in tenths of a percent (permille): hi = domain * permille/1000.
std::vector<exec::ScanPredicate> PredsFor(int64_t permille) {
  int64_t hi = std::max<int64_t>(1, kDomain * permille / 1000);
  return {{"k", ValueRange{Value::Int32(0),
                           Value::Int32(static_cast<int32_t>(hi - 1))}}};
}

// Drain one scan pipeline clone, consuming selected rows sel-aware
// (the way downstream operators do).
uint64_t DrainPipeline(exec::Operator* op, exec::ExecContext* ctx) {
  op->Open(ctx).AbortIfNotOK();
  uint64_t sum = 0;
  while (true) {
    auto b = op->Next(ctx).ValueOrDie();
    if (b.empty()) break;
    const exec::ColumnVector& k = b.columns[0];
    for (size_t i = 0; i < b.num_rows; ++i) sum += k.i32_data()[b.RowAt(i)];
    op->Recycle(std::move(b));
  }
  op->Close(ctx);
  return sum;
}

// One clone of the measured pipeline: the predicates are fully enforced
// inside the scan.
exec::OperatorPtr MakePipeline(int64_t permille,
                               std::shared_ptr<const std::vector<exec::Morsel>>
                                   morsels,
                               size_t instance, size_t total) {
  const Table* t = &F().table;
  std::vector<exec::ScanSegment> segments =
      morsels != nullptr
          ? exec::CloneRowSegments(t, *morsels, instance, total)
          : std::vector<exec::ScanSegment>{{t, 0, t->num_rows()}};
  auto scan = std::make_unique<exec::SegmentScan>(
      t, std::vector<std::string>{"k", "v", "w"}, PredsFor(permille),
      std::move(segments));
  scan->EnableRowFilter(true);
  return scan;
}

void RunMicroFilter(benchmark::State& state, int64_t permille, int threads) {
  auto morsels =
      threads > 1
          ? std::make_shared<const std::vector<exec::Morsel>>(
                exec::MakeRowMorsels(kRows, 1024, 16384))
          : nullptr;
  for (auto _ : state) {
    uint64_t total = 0;
    if (threads == 1) {
      exec::ExecContext ctx(nullptr);
      auto op = MakePipeline(permille, nullptr, 0, 1);
      total = DrainPipeline(op.get(), &ctx);
    } else {
      std::vector<uint64_t> sums(threads, 0);
      common::TaskScheduler::Shared()->ParallelFor(threads, [&](size_t i) {
        exec::ExecContext ctx(nullptr);
        auto op = MakePipeline(permille, morsels, i,
                               static_cast<size_t>(threads));
        sums[i] = DrainPipeline(op.get(), &ctx);
      });
      for (uint64_t s : sums) total += s;
    }
    benchmark::DoNotOptimize(total);
  }
  state.counters["threads"] = threads;
  state.counters["sel_permille"] = static_cast<double>(permille);
}

// ---- Per-codec direct-execution sweep ----
//
// Four tables whose filtered lane encodes to a known codec: wide-random
// values (raw blocks), long runs (RLE), a narrow random domain
// (FOR-bitpack), and a run-shaped low-cardinality string column whose dict
// codes RLE-encode. Every zone is seeded with one domain-min and
// one domain-max sentinel so zone maps can neither prune nor prove
// all-match — the sweep measures span *evaluation*, not zone pruning
// (micro_scan's zero-copy sweep covers the pruning story). Each table is
// swept codec x selectivity x threads x mode — "flat" scans a copy of the
// table built without encoded lanes, the baseline the direct path over the
// encoded lanes is judged against — and every config emits one JsonLine
// (BENCH_pr18.json commits the trajectory).

constexpr uint64_t kCodecRows = 400000;
constexpr int64_t kNarrowDomain = 1 << 20;
constexpr int kNumTags = 100;
constexpr uint64_t kCodecZoneRows = 4096;

struct CodecTable {
  const char* codec;
  Table table;  // with encoded lanes
  Table flat;   // the same rows and zone maps, no encoded lanes
  bool string_key = false;
};

std::vector<CodecTable>& CodecTables() {
  static std::vector<CodecTable>* tables = [] {
    auto* out = new std::vector<CodecTable>();
    auto build = [](const char* name, bool string_key, auto&& fill_key) {
      Rng rng(17);
      Table t(name);
      Column k(string_key ? TypeId::kString : TypeId::kInt32);
      Column w(TypeId::kInt64);
      for (uint64_t i = 0; i < kCodecRows; ++i) {
        fill_key(&k, &rng, i % kCodecZoneRows);
        w.AppendInt64(static_cast<int64_t>(i));
      }
      t.AddColumn("k", std::move(k)).AbortIfNotOK();
      t.AddColumn("w", std::move(w)).AbortIfNotOK();
      t.BuildZoneMaps(kCodecZoneRows);
      Table flat = t.Clone();
      flat.BuildZoneMaps(kCodecZoneRows);
      t.BuildEncodedLanes();
      return CodecTable{name, std::move(t), std::move(flat), string_key};
    };
    out->push_back(build("raw", false, [](Column* k, Rng* rng,
                                          uint64_t zone_row) {
      if (zone_row == 0) {
        k->AppendInt32(std::numeric_limits<int32_t>::min());
      } else if (zone_row == 1) {
        k->AppendInt32(std::numeric_limits<int32_t>::max());
      } else {
        k->AppendInt32(static_cast<int32_t>(rng->Next64()));
      }
    }));
    {
      // Runs of 8000..32000 equal values: RLE wins every block, and whole
      // chunks inside one failing run earn kNonePass span verdicts.
      int32_t cur = 0;
      uint64_t left = 0;
      out->push_back(build("rle", false, [cur, left](Column* k, Rng* rng,
                                                     uint64_t zone_row)
                               mutable {
        if (zone_row == 0) {
          k->AppendInt32(-1);  // fails [0,hi] but defeats zone pruning
          return;
        }
        if (zone_row == 1) {
          k->AppendInt32(static_cast<int32_t>(kNarrowDomain - 1));
          return;
        }
        if (left == 0) {
          cur = static_cast<int32_t>(rng->Uniform(0, kNarrowDomain - 1));
          left = static_cast<uint64_t>(rng->Uniform(8000, 32000));
        }
        --left;
        k->AppendInt32(cur);
      }));
    }
    out->push_back(build("bitpack", false, [](Column* k, Rng* rng,
                                              uint64_t zone_row) {
      if (zone_row == 0) {
        k->AppendInt32(-1);  // fails [0,hi] but defeats zone pruning
      } else if (zone_row == 1) {
        k->AppendInt32(static_cast<int32_t>(kNarrowDomain - 1));
      } else {
        k->AppendInt32(
            static_cast<int32_t>(rng->Uniform(0, kNarrowDomain - 1)));
      }
    }));
    {
      // Clustered tags: the dict-code lane arrives in runs, so the verdict
      // table evaluates once per run instead of once per row.
      char tag[16] = "t00";
      uint64_t left = 0;
      out->push_back(build("dict", true, [tag, left](Column* k, Rng* rng,
                                                     uint64_t zone_row)
                               mutable {
        if (zone_row == 0) {
          k->AppendString("a");  // sorts below every tag: fails the range
          return;
        }
        if (zone_row == 1) {
          k->AppendString("zz");  // sorts above every tag
          return;
        }
        if (left == 0) {
          std::snprintf(tag, sizeof(tag), "t%02d",
                        static_cast<int>(rng->Uniform(0, kNumTags - 1)));
          left = static_cast<uint64_t>(rng->Uniform(8000, 32000));
        }
        --left;
        k->AppendString(tag);
      }));
    }
    return out;
  }();
  return *tables;
}

// Predicate selecting ~pct% of `ct`'s rows via a range on "k".
std::vector<exec::ScanPredicate> CodecPredsFor(const CodecTable& ct,
                                               int pct) {
  if (ct.string_key) {
    char hi[16];
    std::snprintf(hi, sizeof(hi), "t%02d", pct * kNumTags / 100 - 1);
    return {{"k", ValueRange{Value::String("t00"), Value::String(hi)}}};
  }
  if (std::string(ct.codec) == "raw") {
    // Uniform over the full int32 domain.
    int64_t lo = std::numeric_limits<int32_t>::min();
    int64_t hi = lo + (int64_t{1} << 32) * pct / 100 - 1;
    return {{"k", ValueRange{Value::Int32(static_cast<int32_t>(lo)),
                             Value::Int32(static_cast<int32_t>(hi))}}};
  }
  int64_t hi = kNarrowDomain * pct / 100 - 1;
  return {{"k", ValueRange{Value::Int32(0),
                           Value::Int32(static_cast<int32_t>(hi))}}};
}

uint64_t DrainCodecScan(const CodecTable& ct, int pct, bool flat,
                        std::shared_ptr<const std::vector<exec::Morsel>>
                            morsels,
                        size_t instance, size_t total) {
  exec::ExecContext ctx(nullptr);
  // Whole-zone chunks: direct mode evaluates sargs one encoded span at a
  // time, so batches smaller than a zone just multiply per-span setup cost.
  ctx.set_batch_size(kCodecZoneRows);
  // Scan only the filtered lane: emission cost is identical across modes,
  // so a narrow projection keeps the sweep focused on span evaluation.
  const Table* t = flat ? &ct.flat : &ct.table;
  std::vector<exec::ScanSegment> segments =
      morsels != nullptr
          ? exec::CloneRowSegments(t, *morsels, instance, total)
          : std::vector<exec::ScanSegment>{{t, 0, t->num_rows()}};
  exec::SegmentScan scan(t, {"k"}, CodecPredsFor(ct, pct),
                         std::move(segments));
  scan.EnableRowFilter(true);
  scan.Open(&ctx).AbortIfNotOK();
  uint64_t sum = 0;
  while (true) {
    auto b = scan.Next(&ctx).ValueOrDie();
    if (b.empty()) break;
    const int32_t* k = b.columns[0].i32_data();
    for (size_t i = 0; i < b.num_rows; ++i) {
      sum += static_cast<uint32_t>(k[b.RowAt(i)]);
    }
    scan.Recycle(std::move(b));
  }
  scan.Close(&ctx);
  return sum;
}

void RunCodecSweep(int max_threads) {
  auto morsels = std::make_shared<const std::vector<exec::Morsel>>(
      exec::MakeRowMorsels(kCodecRows, kCodecZoneRows, 8 * kCodecZoneRows));
  struct Mode {
    const char* name;
    bool flat;
  };
  const Mode modes[] = {{"flat", true}, {"direct", false}};
  for (const CodecTable& ct : CodecTables()) {
    for (int pct : {1, 10, 50}) {
      for (int threads : bdcc::bench::ThreadCounts(max_threads)) {
        for (const Mode& m : modes) {
          double best_ms = 0;
          uint64_t check = 0;
          for (int rep = 0; rep < 3; ++rep) {
            auto t0 = std::chrono::steady_clock::now();
            uint64_t total = 0;
            if (threads == 1) {
              total = DrainCodecScan(ct, pct, m.flat, nullptr, 0, 1);
            } else {
              std::vector<uint64_t> sums(threads, 0);
              common::TaskScheduler::Shared()->ParallelFor(
                  threads, [&](size_t i) {
                    sums[i] = DrainCodecScan(ct, pct, m.flat, morsels, i,
                                             static_cast<size_t>(threads));
                  });
              for (uint64_t s : sums) total += s;
            }
            auto t1 = std::chrono::steady_clock::now();
            double ms =
                std::chrono::duration<double, std::milli>(t1 - t0).count();
            if (rep == 0 || ms < best_ms) best_ms = ms;
            check = total;
          }
          bdcc::bench::JsonLine("micro_filter_codec_sweep")
              .Str("codec", ct.codec)
              .Str("simd", bdcc::simd::TierName(bdcc::simd::ActiveTier()))
              // Wall-clock comparisons only mean something on like
              // hardware; the regression checker keys off host_cpus.
              .Num("host_cpus", std::thread::hardware_concurrency())
              .Str("mode", m.name)
              .Num("sel_pct", pct)
              .Num("threads", threads)
              .Num("rows", static_cast<double>(kCodecRows))
              .Num("wall_ms", best_ms)
              .Num("mrows_per_s", kCodecRows / 1e6 / (best_ms / 1e3))
              .Num("checksum", static_cast<double>(check))
              .Emit();
        }
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  int max_threads = bdcc::bench::StripThreadsFlag(&argc, argv, 4);
  RunCodecSweep(max_threads);
  const int64_t permilles[] = {1, 10, 100, 500, 990};  // 0.1% .. 99%
  for (int t : bdcc::bench::ThreadCounts(max_threads)) {
    for (int64_t p : permilles) {
      std::string name = "BM_MicroFilter/permille:" + std::to_string(p) +
                         "/threads:" + std::to_string(t);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [p, t](benchmark::State& s) { RunMicroFilter(s, p, t); });
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
