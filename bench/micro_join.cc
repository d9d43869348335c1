// google-benchmark microbenchmarks for the paper's benefit (iii): join
// acceleration and memory reduction via sandwich operators. Joins two
// co-clustered tables with a plain hash join vs. a sandwich hash join and
// reports time plus peak build memory. The parallel variants sweep
// --threads=N (one JSON row per thread count: the join speedup curve) using
// group-id-chunked sandwich joins and shared-table parallel probes.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "bdcc/bdcc_table.h"
#include "bdcc/binning.h"
#include "bdcc/scatter_scan.h"
#include "bench/bench_util.h"
#include "catalog/catalog.h"
#include "common/bits.h"
#include "common/rng.h"
#include "common/task_scheduler.h"
#include "exec/hash_join.h"
#include "exec/morsel.h"
#include "exec/parallel.h"
#include "exec/sandwich_join.h"
#include "exec/scan.h"
#include "opt/planner.h"

namespace {

using namespace bdcc;  // NOLINT

// DIM(dk, dval) clustered on D; FACT(fk -> dk, payload) co-clustered on
// the same dimension over FK_F_D.
struct Fixture {
  catalog::Catalog catalog;
  std::map<std::string, Table> base;
  std::unique_ptr<BdccTable> fact, dim;

  class Resolver : public TableResolver {
   public:
    Resolver(const std::map<std::string, Table>* tables,
             const catalog::Catalog* cat)
        : tables_(tables), cat_(cat) {}
    Result<const Table*> GetTable(const std::string& name) const override {
      auto it = tables_->find(name);
      if (it == tables_->end()) return Status::NotFound(name);
      return &it->second;
    }
    Result<const catalog::ForeignKey*> GetForeignKey(
        const std::string& id) const override {
      return cat_->GetForeignKey(id);
    }

   private:
    const std::map<std::string, Table>* tables_;
    const catalog::Catalog* cat_;
  };

  Fixture() {
    const int64_t kDimRows = 20000;
    const uint64_t kFactRows = 400000;
    catalog::TableDef dim_def{"DIM",
                              {{"dk", TypeId::kInt32},
                               {"dval", TypeId::kInt32}},
                              {"dk"}};
    catalog::TableDef fact_def{"FACT",
                               {{"fk", TypeId::kInt32},
                                {"payload", TypeId::kFloat64}},
                               {}};
    catalog.AddTable(dim_def).AbortIfNotOK();
    catalog.AddTable(fact_def).AbortIfNotOK();
    catalog.AddForeignKey({"FK_F_D", "FACT", {"fk"}, "DIM", {"dk"}})
        .AbortIfNotOK();

    Rng rng(6);
    {
      Table t("DIM");
      Column dk(TypeId::kInt32), dval(TypeId::kInt32);
      for (int64_t i = 0; i < kDimRows; ++i) {
        dk.AppendInt32(static_cast<int32_t>(i));
        dval.AppendInt32(static_cast<int32_t>(rng.Uniform(0, 9999)));
      }
      t.AddColumn("dk", std::move(dk)).AbortIfNotOK();
      t.AddColumn("dval", std::move(dval)).AbortIfNotOK();
      base.emplace("DIM", std::move(t));
    }
    {
      Table t("FACT");
      Column fk(TypeId::kInt32), payload(TypeId::kFloat64);
      for (uint64_t i = 0; i < kFactRows; ++i) {
        fk.AppendInt32(static_cast<int32_t>(rng.Uniform(0, kDimRows - 1)));
        payload.AppendFloat64(rng.NextDouble());
      }
      t.AddColumn("fk", std::move(fk)).AbortIfNotOK();
      t.AddColumn("payload", std::move(payload)).AbortIfNotOK();
      base.emplace("FACT", std::move(t));
    }

    auto d = binning::CreateRangeDimension("D_K", "DIM", "dk", 0,
                                           kDimRows - 1, 8)
                 .ValueOrDie();
    DimensionPtr dp = std::make_shared<const Dimension>(std::move(d));
    Resolver resolver(&base, &catalog);

    // Small AR so both tables keep the dimension's full 8 bits at count
    // granularity; the benchmark sweeps the *shared* width explicitly.
    BdccBuildOptions build;
    build.tuning.efficient_access_bytes = 256;

    std::vector<DimensionUse> dim_uses(1);
    dim_uses[0].dimension = dp;
    dim = std::make_unique<BdccTable>(
        BuildBdccTable(base.at("DIM").Clone(), dim_uses, resolver, build)
            .ValueOrDie());

    std::vector<DimensionUse> fact_uses(1);
    fact_uses[0].dimension = dp;
    fact_uses[0].path.fk_ids = {"FK_F_D"};
    fact = std::make_unique<BdccTable>(
        BuildBdccTable(base.at("FACT").Clone(), fact_uses, resolver, build)
            .ValueOrDie());
  }
};

Fixture& F() {
  static Fixture f;
  return f;
}

exec::OperatorPtr GroupedScan(const BdccTable& bt,
                              std::vector<std::string> cols, int shared) {
  auto ranges = PlanScatterScan(bt, {0}).ValueOrDie();
  return std::make_unique<exec::SegmentScan>(
      &bt.data(), std::move(cols), std::vector<exec::ScanPredicate>{},
      opt::GroupSegments(bt, {{&bt.data(), std::move(ranges)}}, {{0, shared}}));
}

// Sandwich alignment: both sides must tag with the same width, bounded by
// what each table's self-tuned count granularity kept of the dimension.
int ClampShared(const Fixture& f, int requested) {
  return std::min({requested, bits::Ones(f.fact->ReducedMask(0)),
                   bits::Ones(f.dim->ReducedMask(0))});
}

void BM_HashJoin(benchmark::State& state) {
  Fixture& f = F();
  uint64_t peak = 0;
  for (auto _ : state) {
    exec::ExecContext ctx(nullptr);
    auto left = std::make_unique<exec::SegmentScan>(
        &f.fact->data(), std::vector<std::string>{"fk", "payload"},
        std::vector<exec::ScanPredicate>{},
        opt::GroupSegments(*f.fact,
                           {{&f.fact->data(), PlanNaturalScan(*f.fact)}}));
    auto right = std::make_unique<exec::SegmentScan>(
        &f.dim->data(), std::vector<std::string>{"dk", "dval"},
        std::vector<exec::ScanPredicate>{},
        opt::GroupSegments(*f.dim,
                           {{&f.dim->data(), PlanNaturalScan(*f.dim)}}));
    exec::HashJoin join(std::move(left), std::move(right), {"fk"}, {"dk"},
                        exec::JoinType::kInner);
    auto out = exec::CollectAll(&join, &ctx).ValueOrDie();
    benchmark::DoNotOptimize(out.num_rows);
    peak = std::max(peak, ctx.memory()->peak_bytes());
  }
  state.counters["peak_mem_kb"] = static_cast<double>(peak) / 1024.0;
}
BENCHMARK(BM_HashJoin);

void BM_SandwichJoin(benchmark::State& state) {
  Fixture& f = F();
  int shared = ClampShared(f, static_cast<int>(state.range(0)));
  uint64_t peak = 0;
  for (auto _ : state) {
    exec::ExecContext ctx(nullptr);
    exec::SandwichHashJoin join(
        GroupedScan(*f.fact, {"fk", "payload"}, shared),
        GroupedScan(*f.dim, {"dk", "dval"}, shared), {"fk"}, {"dk"},
        exec::JoinType::kInner);
    auto out = exec::CollectAll(&join, &ctx).ValueOrDie();
    benchmark::DoNotOptimize(out.num_rows);
    peak = std::max(peak, ctx.memory()->peak_bytes());
  }
  state.counters["peak_mem_kb"] = static_cast<double>(peak) / 1024.0;
}
// Partition counts 2^2 .. 2^8: more shared bits -> smaller per-group build.
BENCHMARK(BM_SandwichJoin)->Arg(2)->Arg(5)->Arg(8);

// Scan over only the ranges whose group id lies in [gid_lo, gid_hi] — the
// same chunking the planner uses for parallel sandwich pipelines.
exec::OperatorPtr GroupedScanChunk(const BdccTable& bt,
                                   std::vector<std::string> cols, int shared,
                                   int64_t gid_lo, int64_t gid_hi) {
  std::vector<exec::ScanSegment> subset;
  for (const exec::ScanSegment& s : opt::GroupSegments(
           bt, {{&bt.data(), PlanScatterScan(bt, {0}).ValueOrDie()}},
           {{0, shared}})) {
    if (s.group_id >= gid_lo && s.group_id <= gid_hi) subset.push_back(s);
  }
  return std::make_unique<exec::SegmentScan>(
      &bt.data(), std::move(cols), std::vector<exec::ScanPredicate>{},
      std::move(subset));
}

// Group-id-chunked parallel sandwich join: each clone joins one contiguous
// span of the shared-dimension group ids end to end.
void RunSandwichJoinParallel(benchmark::State& state, int threads) {
  Fixture& f = F();
  int shared = ClampShared(f, 8);
  std::vector<GroupSpec> grouping{{0, shared}};
  std::vector<int64_t> gids;
  for (const GroupRange& r : PlanScatterScan(*f.fact, {0}).ValueOrDie()) {
    gids.push_back(GroupIdForKey(*f.fact, grouping, r.key));
  }
  std::sort(gids.begin(), gids.end());
  gids.erase(std::unique(gids.begin(), gids.end()), gids.end());
  size_t chunks = std::min<size_t>(threads, gids.size());
  size_t per = (gids.size() + chunks - 1) / chunks;

  uint64_t peak = 0;
  for (auto _ : state) {
    exec::ExecContext ctx(nullptr);
    exec::ChainFactory factory =
        [&](size_t i, size_t n) -> Result<exec::OperatorPtr> {
      (void)n;
      size_t b = i * per, e = std::min(gids.size(), b + per);
      return exec::OperatorPtr(std::make_unique<exec::SandwichHashJoin>(
          GroupedScanChunk(*f.fact, {"fk", "payload"}, shared, gids[b],
                           gids[e - 1]),
          GroupedScanChunk(*f.dim, {"dk", "dval"}, shared, gids[b],
                           gids[e - 1]),
          std::vector<std::string>{"fk"}, std::vector<std::string>{"dk"},
          exec::JoinType::kInner));
    };
    exec::ParallelUnion join(factory, chunks, threads,
                             common::TaskScheduler::Shared());
    auto out = exec::CollectAll(&join, &ctx).ValueOrDie();
    benchmark::DoNotOptimize(out.num_rows);
    peak = std::max(peak, ctx.memory()->peak_bytes());
  }
  state.counters["peak_mem_kb"] = static_cast<double>(peak) / 1024.0;
  state.counters["threads"] = threads;
}

// Shared-build-table hash join with morsel-parallel probe clones.
void RunHashJoinParallelProbe(benchmark::State& state, int threads) {
  Fixture& f = F();
  auto probe_ranges = std::make_shared<const std::vector<GroupRange>>(
      PlanNaturalScan(*f.fact));
  auto morsels = std::make_shared<const std::vector<exec::Morsel>>(
      exec::MakeRangeMorsels(*probe_ranges, 16384));
  uint64_t peak = 0;
  for (auto _ : state) {
    exec::ExecContext ctx(nullptr);
    exec::ChainFactory probe_factory =
        [&](size_t i, size_t n) -> Result<exec::OperatorPtr> {
      // This clone's strided morsels, each coalesced into segments.
      std::vector<exec::ScanSegment> segments;
      for (size_t m = i; m < morsels->size(); m += n) {
        for (const exec::ScanSegment& s : opt::GroupSegments(
                 *f.fact,
                 {{&f.fact->data(),
                   std::vector<GroupRange>(
                       probe_ranges->begin() + (*morsels)[m].begin,
                       probe_ranges->begin() + (*morsels)[m].end)}})) {
          segments.push_back(s);
        }
      }
      return exec::OperatorPtr(std::make_unique<exec::SegmentScan>(
          &f.fact->data(), std::vector<std::string>{"fk", "payload"},
          std::vector<exec::ScanPredicate>{}, std::move(segments)));
    };
    exec::ParallelHashJoin join(
        probe_factory, threads,
        std::make_unique<exec::SegmentScan>(
            &f.dim->data(), std::vector<std::string>{"dk", "dval"},
            std::vector<exec::ScanPredicate>{},
            opt::GroupSegments(*f.dim,
                               {{&f.dim->data(), PlanNaturalScan(*f.dim)}})),
        {"fk"}, {"dk"}, exec::JoinType::kInner,
        common::TaskScheduler::Shared());
    auto out = exec::CollectAll(&join, &ctx).ValueOrDie();
    benchmark::DoNotOptimize(out.num_rows);
    peak = std::max(peak, ctx.memory()->peak_bytes());
  }
  state.counters["peak_mem_kb"] = static_cast<double>(peak) / 1024.0;
  state.counters["threads"] = threads;
}

// ---- Build-side cardinality x threads sweep (plain JSON rows) ----------
//
// Times the hash-join *build* phase separately from the probe phase, for
// a serial build scan vs. N build-scan clones drained through a
// ParallelUnion (the inserts are serial either way), across build
// cardinalities and thread counts. One JsonLine row per config feeds the
// BENCH_pr18.json perf-trajectory baseline and the CI bench-regression diff.
void RunBuildSweep(int max_threads) {
  const uint64_t kProbeRows = 1u << 20;
  uint64_t max_build = 1u << 20;
  if (const char* env = std::getenv("BDCC_BENCH_BUILD_ROWS")) {
    uint64_t v = std::strtoull(env, nullptr, 10);
    if (v > 0) max_build = v;
  }
  std::vector<uint64_t> sizes;
  for (uint64_t s = 1u << 16; s < max_build; s *= 4) sizes.push_back(s);
  sizes.push_back(max_build);

  for (uint64_t build_rows : sizes) {
    Table build_t("BUILD");
    {
      Column bk(TypeId::kInt32), bval(TypeId::kInt64);
      for (uint64_t i = 0; i < build_rows; ++i) {
        // Multiplicative shuffle so insertion order is not key order.
        bk.AppendInt32(static_cast<int32_t>((i * 2654435761u) % build_rows));
        bval.AppendInt64(static_cast<int64_t>(i));
      }
      build_t.AddColumn("bk", std::move(bk)).AbortIfNotOK();
      build_t.AddColumn("bval", std::move(bval)).AbortIfNotOK();
    }
    Table probe_t("PROBE");
    {
      Rng rng(17);
      Column fk(TypeId::kInt32), pval(TypeId::kFloat64);
      for (uint64_t i = 0; i < kProbeRows; ++i) {
        fk.AppendInt32(static_cast<int32_t>(
            rng.Uniform(0, static_cast<int64_t>(build_rows) - 1)));
        pval.AppendFloat64(rng.NextDouble());
      }
      probe_t.AddColumn("fk", std::move(fk)).AbortIfNotOK();
      probe_t.AddColumn("pval", std::move(pval)).AbortIfNotOK();
    }
    auto build_morsels = std::make_shared<const std::vector<exec::Morsel>>(
        exec::MakeRowMorsels(build_rows, 0, 16384));
    auto probe_morsels = std::make_shared<const std::vector<exec::Morsel>>(
        exec::MakeRowMorsels(kProbeRows, 0, 16384));

    for (int threads : bdcc::bench::ThreadCounts(max_threads)) {
      for (bool union_build : {false, true}) {
        double best_build_ms = 0, best_probe_ms = 0;
        uint64_t out_rows = 0;
        for (int rep = 0; rep < 3; ++rep) {
          exec::ExecContext ctx(nullptr);
          exec::ChainFactory probe_factory =
              [&](size_t i, size_t n) -> Result<exec::OperatorPtr> {
            return exec::OperatorPtr(std::make_unique<exec::SegmentScan>(
                &probe_t, std::vector<std::string>{"fk", "pval"},
                std::vector<exec::ScanPredicate>{},
                exec::CloneRowSegments(&probe_t, *probe_morsels, i, n)));
          };
          exec::OperatorPtr build;
          if (union_build) {
            exec::ChainFactory build_factory =
                [&](size_t i, size_t n) -> Result<exec::OperatorPtr> {
              return exec::OperatorPtr(std::make_unique<exec::SegmentScan>(
                  &build_t, std::vector<std::string>{"bk", "bval"},
                  std::vector<exec::ScanPredicate>{},
                  exec::CloneRowSegments(&build_t, *build_morsels, i, n)));
            };
            build = std::make_unique<exec::ParallelUnion>(
                build_factory, threads, threads,
                common::TaskScheduler::Shared());
          } else {
            build = std::make_unique<exec::SegmentScan>(
                &build_t, std::vector<std::string>{"bk", "bval"});
          }
          exec::ParallelHashJoin join(probe_factory, threads, std::move(build),
                                      {"fk"}, {"bk"}, exec::JoinType::kInner,
                                      common::TaskScheduler::Shared());
          auto t0 = std::chrono::steady_clock::now();
          join.Open(&ctx).AbortIfNotOK();
          auto t1 = std::chrono::steady_clock::now();
          uint64_t rows = 0;
          while (true) {
            exec::Batch b = join.Next(&ctx).ValueOrDie();
            if (b.empty()) break;
            rows += b.num_rows;
          }
          auto t2 = std::chrono::steady_clock::now();
          join.Close(&ctx);
          double build_ms =
              std::chrono::duration<double, std::milli>(t1 - t0).count();
          double probe_ms =
              std::chrono::duration<double, std::milli>(t2 - t1).count();
          if (rep == 0 || build_ms < best_build_ms) best_build_ms = build_ms;
          if (rep == 0 || probe_ms < best_probe_ms) best_probe_ms = probe_ms;
          out_rows = rows;
        }
        bdcc::bench::JsonLine("micro_join_build_sweep")
            .Str("mode", union_build ? "union" : "serial")
            // Wall-clock speedups need real cores; recording the host's
            // count keeps cross-machine baseline diffs interpretable.
            .Num("host_cpus", std::thread::hardware_concurrency())
            .Num("build_rows", static_cast<double>(build_rows))
            .Num("probe_rows", static_cast<double>(kProbeRows))
            .Num("threads", threads)
            .Num("build_ms", best_build_ms)
            .Num("probe_ms", best_probe_ms)
            .Num("build_mrows_per_s",
                 build_rows / 1e6 / (best_build_ms / 1e3))
            .Num("probe_mrows_per_s",
                 kProbeRows / 1e6 / (best_probe_ms / 1e3))
            .Num("out_rows", static_cast<double>(out_rows))
            .Emit();
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  int max_threads = bdcc::bench::StripThreadsFlag(&argc, argv, 4);
  RunBuildSweep(max_threads);
  for (int t : bdcc::bench::ThreadCounts(max_threads)) {
    benchmark::RegisterBenchmark(
        ("BM_SandwichJoinParallel/threads:" + std::to_string(t)).c_str(),
        [t](benchmark::State& s) { RunSandwichJoinParallel(s, t); });
    benchmark::RegisterBenchmark(
        ("BM_HashJoinParallelProbe/threads:" + std::to_string(t)).c_str(),
        [t](benchmark::State& s) { RunHashJoinParallelProbe(s, t); });
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
