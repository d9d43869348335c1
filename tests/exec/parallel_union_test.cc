// ParallelUnion's ordered window: chains are emitted in chain order with
// more chains than workers, parked output never exceeds the window's share,
// an early Close drains every byte and leaves the scheduler reusable, and a
// failing chain stops every later one from starting. (The suite name keeps
// these tests in CI's TSan job.)
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/task_scheduler.h"
#include "exec/hash_table.h"
#include "exec/parallel.h"
#include "gtest/gtest.h"

namespace bdcc {
namespace exec {
namespace {

constexpr size_t kRowsPerBatch = 100;

// What every chain of one union records, shared across threads.
struct Probe {
  std::atomic<int> opened{0};
  std::atomic<int> closed{0};
  std::vector<std::atomic<bool>> started;
  explicit Probe(size_t chains) : started(chains) {}
};

// Chain `chain` of a test union: `batches` batches of kRowsPerBatch int64
// rows whose values (chain * 1000000 + batch * 1000 + row) give the
// expected output order. Optional hooks delay each batch, fail the first
// Next, or hold the first batch until the query has recorded an error.
class ChunkSource : public Operator {
 public:
  struct Options {
    size_t batches = 3;
    std::chrono::microseconds delay{0};
    bool fail = false;
    bool wait_for_error = false;
  };

  ChunkSource(size_t chain, Options options, Probe* probe)
      : chain_(chain), options_(options), probe_(probe) {}

  const Schema& schema() const override { return schema_; }
  Status Open(ExecContext*) override {
    probe_->opened.fetch_add(1);
    return Status::OK();
  }
  Result<Batch> Next(ExecContext* ctx) override {
    probe_->started[chain_].store(true);
    if (options_.fail) {
      return Status::IOError("chain " + std::to_string(chain_) + " failed");
    }
    if (options_.wait_for_error && emitted_ == 0) {
      auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (ctx->control()->Check().ok() &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    if (emitted_ == options_.batches) return Batch::Empty();
    if (options_.delay.count() > 0) std::this_thread::sleep_for(options_.delay);
    return MakeBatch(chain_, emitted_++);
  }
  void Close(ExecContext*) override { probe_->closed.fetch_add(1); }

  static Batch MakeBatch(size_t chain, size_t batch) {
    ColumnVector v(TypeId::kInt64);
    for (size_t r = 0; r < kRowsPerBatch; ++r) {
      v.i64.push_back(static_cast<int64_t>(chain * 1000000 + batch * 1000 + r));
    }
    Batch b;
    b.num_rows = kRowsPerBatch;
    b.columns.push_back(std::move(v));
    return b;
  }

 private:
  Schema schema_{{{"v", TypeId::kInt64}}};
  size_t chain_;
  Options options_;
  Probe* probe_;
  size_t emitted_ = 0;
};

ChainFactory Chunks(Probe* probe, ChunkSource::Options options,
                    size_t failing_chain = SIZE_MAX,
                    size_t waiting_chain = SIZE_MAX) {
  return [probe, options, failing_chain,
          waiting_chain](size_t i, size_t) -> Result<OperatorPtr> {
    ChunkSource::Options o = options;
    o.fail = i == failing_chain;
    o.wait_for_error = i == waiting_chain;
    return OperatorPtr(std::make_unique<ChunkSource>(i, o, probe));
  };
}

std::vector<int64_t> Values(const Batch& b) {
  return std::vector<int64_t>(b.columns[0].i64.begin(),
                              b.columns[0].i64.end());
}

std::vector<int64_t> ExpectedValues(size_t chains, size_t batches) {
  std::vector<int64_t> out;
  for (size_t c = 0; c < chains; ++c) {
    for (size_t b = 0; b < batches; ++b) {
      for (int64_t v : Values(ChunkSource::MakeBatch(c, b))) out.push_back(v);
    }
  }
  return out;
}

class ParallelUnionWindowTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelUnionWindowTest, EmitsChunksInOrderWithMoreChunksThanWorkers) {
  common::TaskScheduler scheduler(GetParam());
  for (size_t threads : {1, 2, 3}) {
    constexpr size_t kChains = 12;
    Probe probe(kChains);
    ChunkSource::Options options;
    options.delay = std::chrono::microseconds(200);
    ParallelUnion u(Chunks(&probe, options), kChains, threads, &scheduler);
    ExecContext ctx(nullptr);
    Batch all = CollectAll(&u, &ctx).ValueOrDie();
    EXPECT_EQ(Values(all), ExpectedValues(kChains, options.batches))
        << "threads " << threads;
    EXPECT_EQ(probe.opened.load(), static_cast<int>(kChains));
    EXPECT_EQ(probe.closed.load(), static_cast<int>(kChains));
    EXPECT_EQ(ctx.memory()->current_bytes(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, ParallelUnionWindowTest,
                         ::testing::Values(0, 1),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param) + "workers";
                         });

// Workers run ahead of a slow consumer, so the window fills with parked
// chains; it still never holds more than num_threads + 1 chains' output
// (the barrier it replaced held all 16).
TEST(ParallelUnionTest, ParkedBytesStayWithinTheWindow) {
  constexpr size_t kChains = 16, kThreads = 2, kBatches = 4;
  Batch one = ChunkSource::MakeBatch(0, 0);
  const uint64_t chain_bytes = kBatches * ColumnVectorBytes(one.columns[0]);
  common::TaskScheduler scheduler(3);
  Probe probe(kChains);
  ChunkSource::Options options;
  options.batches = kBatches;
  ParallelUnion u(Chunks(&probe, options), kChains, kThreads, &scheduler);
  ExecContext ctx(nullptr);
  ASSERT_TRUE(u.Open(&ctx).ok());
  size_t rows = 0;
  while (true) {
    Batch b = u.Next(&ctx).ValueOrDie();
    if (b.empty()) break;
    rows += b.num_rows;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  u.Close(&ctx);
  EXPECT_EQ(rows, kChains * kBatches * kRowsPerBatch);
  EXPECT_LE(ctx.memory()->peak_bytes(), (kThreads + 1) * chain_bytes);
  EXPECT_EQ(ctx.memory()->current_bytes(), 0u);
}

// The consumer stops after one batch while chains run and park: Close
// waits for the running ones, releases every parked byte, closes every
// chain, and the scheduler serves the next union in full.
TEST(ParallelUnionTest, CloseAfterFirstBatchDrainsAndFreesTheScheduler) {
  constexpr size_t kChains = 16;
  common::TaskScheduler scheduler(2);
  {
    Probe probe(kChains);
    ChunkSource::Options options;
    options.batches = 8;
    options.delay = std::chrono::microseconds(300);
    ParallelUnion u(Chunks(&probe, options), kChains, 2, &scheduler);
    ExecContext ctx(nullptr);
    ASSERT_TRUE(u.Open(&ctx).ok());
    Batch first = u.Next(&ctx).ValueOrDie();
    ASSERT_FALSE(first.empty());
    // Let the workers park some output before the early Close.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    u.Close(&ctx);
    EXPECT_EQ(ctx.memory()->current_bytes(), 0u);
    EXPECT_EQ(probe.closed.load(), probe.opened.load());
    // Chains beyond the window never started.
    for (size_t i = 3; i < kChains; ++i) {
      EXPECT_FALSE(probe.started[i].load()) << "chain " << i;
    }
  }
  Probe probe(4);
  ParallelUnion u(Chunks(&probe, ChunkSource::Options{}), 4, 2, &scheduler);
  ExecContext ctx(nullptr);
  Batch all = CollectAll(&u, &ctx).ValueOrDie();
  EXPECT_EQ(Values(all), ExpectedValues(4, ChunkSource::Options{}.batches));
}

// Chain 1 fails on the worker while the coordinator streams chain 0 (which
// holds its batch until the failure is recorded): the union returns chain
// 1's error, and no chain after it starts, not even chain 2, which was
// already queued in the window.
TEST(ParallelUnionTest, FailingChunkSurfacesAndStopsLaterChunks) {
  constexpr size_t kChains = 8;
  common::TaskScheduler scheduler(1);
  Probe probe(kChains);
  ParallelUnion u(Chunks(&probe, ChunkSource::Options{}, /*failing_chain=*/1,
                         /*waiting_chain=*/0),
                  kChains, 2, &scheduler);
  ExecContext ctx(nullptr);
  auto result = CollectAll(&u, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("chain 1 failed"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_TRUE(probe.started[1].load());
  for (size_t i = 2; i < kChains; ++i) {
    EXPECT_FALSE(probe.started[i].load()) << "chain " << i;
  }
  EXPECT_EQ(probe.closed.load(), probe.opened.load());
  EXPECT_EQ(ctx.memory()->current_bytes(), 0u);
}

}  // namespace
}  // namespace exec
}  // namespace bdcc
