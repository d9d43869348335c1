// DeltaStore / DeltaChunk: sealed chunks are key-sorted, zone-mapped,
// group-bucketed, carry their own dictionaries, and account their memory.
#include "delta/delta_store.h"

#include <set>
#include <string>

#include "bdcc/append.h"
#include "common/fault_injection.h"
#include "tests/delta/delta_fixture.h"

namespace bdcc {
namespace delta {
namespace {

using DeltaStoreTest = DeltaFixture;

TEST_F(DeltaStoreTest, SealedChunkIsSortedBucketedAndSchemaAligned) {
  BdccTable base = Build(tables_.at("F"));
  DeltaStore store(/*zone_rows=*/256, /*memory_limit=*/0);
  Resolver resolver(&tables_, &catalog_);
  const BdccKeyIndex keys = BdccKeyIndex::Build(base, resolver).ValueOrDie();

  Table rows = MakeRows(3, 1000);
  auto chunk = store.Append(base, rows, keys).ValueOrDie();
  ASSERT_EQ(chunk->num_rows(), 1000u);

  // Same physical schema as the base's data(), including the key column.
  const Table& data = chunk->data();
  ASSERT_EQ(data.num_columns(), base.data().num_columns());
  for (int c = 0; c < static_cast<int>(data.num_columns()); ++c) {
    EXPECT_EQ(data.column_name(c), base.data().column_name(c));
  }

  // Sorted on the full-granularity key.
  const auto& chunk_keys = data.column(base.bdcc_column_index()).i64();
  for (size_t i = 1; i < chunk_keys.size(); ++i) {
    ASSERT_LE(chunk_keys[i - 1], chunk_keys[i]);
  }

  // Keys equal the bulk build's key computation over the same rows
  // (Definition 4: a new tuple's key depends only on its own bins).
  std::multiset<uint64_t> expect;
  ASSERT_EQ(base.uses().size(), 1u);
  const int bits = base.uses()[0].dimension->bits();
  for (uint64_t bin :
       ComputeBinColumn(rows, base.uses()[0], resolver).ValueOrDie()) {
    expect.insert(interleave::ComposeKey(&bin, &bits, base.full_spec()));
  }
  std::multiset<uint64_t> got(chunk_keys.begin(), chunk_keys.end());
  EXPECT_EQ(expect, got);

  // Group slices tile the chunk in key order at count granularity.
  int shift = base.full_bits() - base.count_bits();
  uint64_t covered = 0, prev_key = 0;
  bool first = true;
  for (const GroupRange& g : chunk->groups()) {
    ASSERT_EQ(g.row_begin, covered);
    ASSERT_LT(g.row_begin, g.row_end);
    for (uint64_t r = g.row_begin; r < g.row_end; ++r) {
      ASSERT_EQ(static_cast<uint64_t>(chunk_keys[r]) >> shift, g.key);
    }
    if (!first) {
      ASSERT_LT(prev_key, g.key);
    }
    first = false;
    prev_key = g.key;
    covered = g.row_end;
  }
  EXPECT_EQ(covered, 1000u);
}

TEST_F(DeltaStoreTest, ChunksChargeAndReleaseTrackedMemory) {
  BdccTable base = Build(tables_.at("F"));
  DeltaStore store(256, 0);
  Resolver resolver(&tables_, &catalog_);
  const BdccKeyIndex keys = BdccKeyIndex::Build(base, resolver).ValueOrDie();

  ASSERT_EQ(store.memory()->current_bytes(), 0u);
  auto chunk = store.Append(base, MakeRows(1, 500), keys).ValueOrDie();
  EXPECT_GT(chunk->bytes(), 0u);
  EXPECT_EQ(store.memory()->current_bytes(), chunk->bytes());
  chunk.reset();
  EXPECT_EQ(store.memory()->current_bytes(), 0u);
}

TEST_F(DeltaStoreTest, MemoryBudgetRefusesCleanly) {
  BdccTable base = Build(tables_.at("F"));
  DeltaStore store(256, /*memory_limit=*/64);  // far below any chunk
  Resolver resolver(&tables_, &catalog_);
  const BdccKeyIndex keys = BdccKeyIndex::Build(base, resolver).ValueOrDie();

  auto refused = store.Append(base, MakeRows(1, 500), keys);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsResourceExhausted())
      << refused.status().ToString();
  EXPECT_EQ(store.memory()->current_bytes(), 0u);
}

TEST_F(DeltaStoreTest, ChunkDictionariesAreIndependentOfTheBase) {
  BdccTable base = Build(tables_.at("F"));
  DeltaStore store(256, 0);
  Resolver resolver(&tables_, &catalog_);
  const BdccKeyIndex keys = BdccKeyIndex::Build(base, resolver).ValueOrDie();

  // Seed 5 interns tag values the base (seed 0) never saw; sealing must not
  // touch the base's dictionary.
  int tag_col = -1;
  for (int c = 0; c < static_cast<int>(base.data().num_columns()); ++c) {
    if (base.data().column_name(c) == "f_tag") tag_col = c;
  }
  ASSERT_GE(tag_col, 0);
  const auto& base_dict = base.data().column(tag_col).dict();
  ASSERT_NE(base_dict, nullptr);
  int32_t base_dict_size = base_dict->size();

  auto chunk = store.Append(base, MakeRows(5, 300), keys).ValueOrDie();
  const auto& chunk_dict = chunk->data().column(tag_col).dict();
  ASSERT_NE(chunk_dict, nullptr);
  EXPECT_NE(chunk_dict.get(), base_dict.get());
  EXPECT_EQ(base_dict->size(), base_dict_size);
}

TEST_F(DeltaStoreTest, AppendFaultFailsWithoutSideEffects) {
  BdccTable base = Build(tables_.at("F"));
  DeltaStore store(256, 0);
  Resolver resolver(&tables_, &catalog_);
  const BdccKeyIndex keys = BdccKeyIndex::Build(base, resolver).ValueOrDie();
  {
    fault::ScopedFaultInjection fault(/*seed=*/11, /*probability=*/1.0,
                                      fault::kDeltaAppend);
    auto failed = store.Append(base, MakeRows(2, 100), keys);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kIOError)
        << failed.status().ToString();
    EXPECT_EQ(store.memory()->current_bytes(), 0u);
  }
  // The same append succeeds once the scope ends.
  auto chunk = store.Append(base, MakeRows(2, 100), keys).ValueOrDie();
  EXPECT_EQ(chunk->num_rows(), 100u);
}

}  // namespace
}  // namespace delta
}  // namespace bdcc
