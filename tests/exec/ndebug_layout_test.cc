// The library's types must have one layout whatever NDEBUG says. This file
// flips NDEBUG before any include, so it is compiled the other way from
// bdcc_core (Release builds check debug-compiled code against a release
// library, Debug builds the reverse). It then runs a hash join whose build
// charges the query's MemoryTracker: if a member existed only in one kind
// of build, the inline tracker and context code here would read the
// library's fields at the wrong offsets.
#ifdef NDEBUG
#undef NDEBUG
#else
#define NDEBUG
#endif

#include <memory>
#include <utility>
#include <vector>

#include "exec/exec_context.h"
#include "exec/hash_join.h"
#include "exec/memory_tracker.h"
#include "exec/operator.h"
#include "gtest/gtest.h"

namespace bdcc {
namespace exec {
namespace {

// Emits keys 0..rows-1 with a payload column, as one batch.
class KeySource : public Operator {
 public:
  KeySource(const char* key, const char* payload, size_t rows)
      : schema_({{key, TypeId::kInt32}, {payload, TypeId::kInt64}}),
        rows_(rows) {}

  const Schema& schema() const override { return schema_; }
  Status Open(ExecContext*) override {
    done_ = false;
    return Status::OK();
  }
  Result<Batch> Next(ExecContext*) override {
    if (done_) return Batch::Empty();
    done_ = true;
    Batch b;
    ColumnVector k(TypeId::kInt32), p(TypeId::kInt64);
    for (size_t r = 0; r < rows_; ++r) {
      k.i32.push_back(static_cast<int32_t>(r));
      p.i64.push_back(static_cast<int64_t>(r) * 3);
    }
    b.columns = {std::move(k), std::move(p)};
    b.num_rows = rows_;
    return b;
  }

 private:
  Schema schema_;
  size_t rows_;
  bool done_ = false;
};

TEST(NdebugLayoutTest, HashJoinAccountsAcrossNdebugBoundary) {
  constexpr size_t kRows = 5000;
  HashJoin join(std::make_unique<KeySource>("lk", "lp", kRows),
                std::make_unique<KeySource>("rk", "rp", kRows), {"lk"},
                {"rk"}, JoinType::kInner);
  ExecContext ctx(nullptr);
  auto result = CollectAll(&join, &ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().num_rows, kRows);
  EXPECT_GT(ctx.memory()->peak_bytes(), 0u);
  EXPECT_EQ(ctx.memory()->current_bytes(), 0u);
}

}  // namespace
}  // namespace exec
}  // namespace bdcc
