#include "exec/hash_table.h"

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"

namespace bdcc {
namespace exec {
namespace {

Batch MakeBatch() {
  Batch b;
  ColumnVector i(TypeId::kInt32);
  i.i32 = {7, 7, 9};
  ColumnVector l(TypeId::kInt64);
  l.i64 = {100, 200, 100};
  ColumnVector s(TypeId::kString);
  s.dict = std::make_shared<Dictionary>();
  for (const char* v : {"x", "y", "x"}) s.i32.push_back(s.dict->GetOrAdd(v));
  ColumnVector f(TypeId::kFloat64);
  f.f64 = {1.0, 2.0, 1.0};
  b.columns = {std::move(i), std::move(l), std::move(s), std::move(f)};
  b.num_rows = 3;
  return b;
}

Schema MakeSchema() {
  return Schema({{"i", TypeId::kInt32},
                 {"l", TypeId::kInt64},
                 {"s", TypeId::kString},
                 {"f", TypeId::kFloat64}});
}

TEST(KeyEncoderTest, IntFastPath) {
  KeyEncoder enc;
  ASSERT_TRUE(enc.Bind(MakeSchema(), {"i"}).ok());
  EXPECT_TRUE(enc.int_path());
  std::vector<int64_t> keys;
  std::vector<uint8_t> valid;
  Batch b = MakeBatch();
  enc.EncodeInts(b, &keys, &valid);
  EXPECT_EQ(keys, (std::vector<int64_t>{7, 7, 9}));
  EXPECT_EQ(valid, (std::vector<uint8_t>{1, 1, 1}));
}

TEST(KeyEncoderTest, BytesPathForFloatsAndWideComposites) {
  KeyEncoder enc;
  ASSERT_TRUE(enc.Bind(MakeSchema(), {"f"}).ok());
  EXPECT_FALSE(enc.int_path());
  KeyEncoder enc2;
  ASSERT_TRUE(enc2.Bind(MakeSchema(), {"i", "l"}).ok());  // i64 not packable
  EXPECT_FALSE(enc2.int_path());

  std::vector<std::string> keys;
  std::vector<uint8_t> valid;
  Batch b = MakeBatch();
  enc2.EncodeBytes(b, &keys, &valid);
  EXPECT_EQ(keys[0].size(), 14u);  // (1 tag + 4) + (1 tag + 8) bytes
  EXPECT_NE(keys[0], keys[1]);     // (7,100) vs (7,200)
  EXPECT_NE(keys[0], keys[2]);     // (7,100) vs (9,100)

  // String keys compare by content, not code.
  KeyEncoder enc3;
  ASSERT_TRUE(enc3.Bind(MakeSchema(), {"s", "f"}).ok());
  EXPECT_FALSE(enc3.int_path());
  enc3.EncodeBytes(b, &keys, &valid);
  EXPECT_EQ(keys[0], keys[2]);  // both ("x", 1.0)
  EXPECT_NE(keys[0], keys[1]);
}

TEST(KeyEncoderTest, SingleStringKeyUsesDictCodePath) {
  KeyEncoder enc;
  ASSERT_TRUE(enc.Bind(MakeSchema(), {"s"}).ok());
  EXPECT_TRUE(enc.int_path());
  std::vector<int64_t> keys;
  std::vector<uint8_t> valid;
  Batch b = MakeBatch();
  enc.EncodeInts(b, &keys, &valid);
  EXPECT_EQ(keys[0], keys[2]);  // both "x"
  EXPECT_NE(keys[0], keys[1]);
  EXPECT_EQ(valid, (std::vector<uint8_t>{1, 1, 1}));

  // A later batch with a *different* dictionary (same strings in another
  // insertion order) must produce the same keys: codes canonicalize against
  // the first dictionary seen.
  Batch b2 = MakeBatch();
  b2.columns[2].dict = std::make_shared<Dictionary>();
  b2.columns[2].i32.clear();
  for (const char* v : {"y", "x", "zebra"}) {
    b2.columns[2].i32.push_back(b2.columns[2].dict->GetOrAdd(v));
  }
  std::vector<int64_t> keys2;
  enc.EncodeInts(b2, &keys2, &valid);
  EXPECT_EQ(keys2[1], keys[0]);  // "x" matches batch 1's "x"
  EXPECT_EQ(keys2[0], keys[1]);  // "y" matches batch 1's "y"
  EXPECT_NE(keys2[2], keys[0]);  // "zebra" is a fresh, stable side id
  EXPECT_NE(keys2[2], keys[1]);
  std::vector<int64_t> keys3;
  enc.EncodeInts(b2, &keys3, &valid);
  EXPECT_EQ(keys3[2], keys2[2]);  // stable across batches
}

TEST(KeyEncoderTest, PackedPairPath) {
  KeyEncoder enc;
  ASSERT_TRUE(enc.Bind(MakeSchema(), {"i", "s"}).ok());
  EXPECT_TRUE(enc.int_path());
  std::vector<int64_t> keys;
  std::vector<uint8_t> valid;
  Batch b = MakeBatch();
  enc.EncodeInts(b, &keys, &valid);
  // Rows: (7,"x"), (7,"y"), (9,"x") — all distinct, none equal.
  EXPECT_NE(keys[0], keys[1]);
  EXPECT_NE(keys[0], keys[2]);
  EXPECT_NE(keys[1], keys[2]);
  // Same logical tuple encodes identically.
  std::vector<int64_t> again;
  enc.EncodeInts(b, &again, &valid);
  EXPECT_EQ(keys, again);
}

TEST(KeyEncoderTest, SelAwareEncoding) {
  KeyEncoder enc;
  ASSERT_TRUE(enc.Bind(MakeSchema(), {"i"}).ok());
  Batch b = MakeBatch();
  b.sel = {2, 0};
  b.num_rows = 2;
  std::vector<int64_t> keys;
  std::vector<uint8_t> valid;
  enc.EncodeInts(b, &keys, &valid);
  EXPECT_EQ(keys, (std::vector<int64_t>{9, 7}));
}

TEST(KeyEncoderTest, ProbeResolvesAgainstBuildSpace) {
  KeyEncoder build;
  ASSERT_TRUE(build.Bind(MakeSchema(), {"s"}).ok());
  std::vector<int64_t> bkeys;
  std::vector<uint8_t> valid;
  Batch bb = MakeBatch();
  build.EncodeInts(bb, &bkeys, &valid);

  // Probe batch with its own dictionary: "x" must map to the build key,
  // "nope" must map to a key matching nothing (and not crash).
  Batch pb = MakeBatch();
  pb.columns[2].dict = std::make_shared<Dictionary>();
  pb.columns[2].i32.clear();
  for (const char* v : {"nope", "x", "nope"}) {
    pb.columns[2].i32.push_back(pb.columns[2].dict->GetOrAdd(v));
  }
  KeyEncoder probe;
  ASSERT_TRUE(probe.BindProbe(MakeSchema(), {"s"}, &build).ok());
  std::vector<int64_t> pkeys;
  probe.EncodeInts(pb, &pkeys, &valid);
  EXPECT_EQ(pkeys[1], bkeys[0]);  // "x"
  EXPECT_NE(pkeys[0], bkeys[0]);
  EXPECT_NE(pkeys[0], bkeys[1]);
}

TEST(KeyEncoderTest, TranslationCacheSurvivesDictionaryAddressReuse) {
  // Per-batch dictionaries (e.g. expression-generated strings) are freed
  // between batches; the allocator may hand the next batch's equal-sized
  // dictionary the same heap address. The translation cache must not
  // validate by address and reuse the previous dictionary's mapping.
  Schema schema({{"s", TypeId::kString}});
  auto make_batch = [](std::initializer_list<const char*> dict_order) {
    Batch b;
    ColumnVector s(TypeId::kString);
    s.dict = std::make_shared<Dictionary>();
    for (const char* v : dict_order) s.dict->GetOrAdd(v);
    s.i32 = {s.dict->Find("a"), s.dict->Find("b")};
    b.columns = {std::move(s)};
    b.num_rows = 2;
    return b;
  };

  KeyEncoder enc;
  ASSERT_TRUE(enc.Bind(schema, {"s"}).ok());
  std::vector<int64_t> keys;
  std::vector<uint8_t> valid;
  Batch b1 = make_batch({"a", "b"});  // adopted as canonical space
  enc.EncodeInts(b1, &keys, &valid);
  std::vector<int64_t> canon_keys = keys;

  // Fill the cache from a dictionary with the opposite code order, then
  // free it so its address can be reused.
  {
    Batch b2 = make_batch({"b", "a"});
    enc.EncodeInts(b2, &keys, &valid);
    EXPECT_EQ(keys, canon_keys);  // same strings -> same keys
  }
  // Same-sized fresh dictionary, canonical order: if the stale cache were
  // revalidated by address, "a" would encode as "b" and vice versa.
  Batch b3 = make_batch({"a", "b"});
  enc.EncodeInts(b3, &keys, &valid);
  EXPECT_EQ(keys, canon_keys);
}

TEST(KeyEncoderTest, NullKeysFlaggedInvalid) {
  Batch b = MakeBatch();
  b.columns[0].nulls = {0, 1, 0};
  KeyEncoder enc;
  ASSERT_TRUE(enc.Bind(MakeSchema(), {"i"}).ok());
  std::vector<int64_t> keys;
  std::vector<uint8_t> valid;
  enc.EncodeInts(b, &keys, &valid);
  EXPECT_EQ(valid, (std::vector<uint8_t>{1, 0, 1}));
  KeyEncoder enc2;
  ASSERT_TRUE(enc2.Bind(MakeSchema(), {"i", "l"}).ok());
  std::vector<std::string> bkeys;
  enc2.EncodeBytes(b, &bkeys, &valid);
  EXPECT_EQ(valid[1], 0);
}

TEST(KeyEncoderTest, ProbeRejectsPositionallyMismatchedPackedKeys) {
  // Both sides bind as kPacked, but the build packs dictionary codes where
  // the probe would pack raw integers — equal bit patterns must not join.
  KeyEncoder build;
  ASSERT_TRUE(build.Bind(MakeSchema(), {"s", "i"}).ok());
  KeyEncoder probe;
  EXPECT_FALSE(probe.BindProbe(MakeSchema(), {"i", "i"}, &build).ok());
  KeyEncoder ok_probe;
  EXPECT_TRUE(ok_probe.BindProbe(MakeSchema(), {"s", "i"}, &build).ok());
}

TEST(KeyEncoderTest, MissingColumnFailsBind) {
  KeyEncoder enc;
  EXPECT_FALSE(enc.Bind(MakeSchema(), {"nope"}).ok());
}

TEST(DenseKeyMapTest, DenseIdsInsertionOrder) {
  DenseKeyMap map;
  bool inserted;
  EXPECT_EQ(map.FindOrInsert(100, &inserted), 0);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(map.FindOrInsert(-5, &inserted), 1);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(map.FindOrInsert(100, &inserted), 0);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(map.Find(-5), 1);
  EXPECT_EQ(map.Find(42), -1);
  EXPECT_EQ(map.size(), 2u);
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
}

TEST(DenseKeyMapTest, BytesMode) {
  DenseKeyMap map;
  bool inserted;
  EXPECT_EQ(map.FindOrInsert(std::string("abc"), &inserted), 0);
  EXPECT_EQ(map.FindOrInsert(std::string("def"), &inserted), 1);
  EXPECT_EQ(map.Find(std::string("abc")), 0);
  EXPECT_GT(map.MemoryBytes(), 0u);
}

// Reference model of DenseKeyMap's contract on std::unordered_map: int keys,
// byte keys and the NULL id draw from one dense id sequence.
struct RefKeyMap {
  std::unordered_map<int64_t, int64_t> ints;
  std::unordered_map<std::string, int64_t> bytes;
  int64_t null_id = -1;

  int64_t size() const {
    return static_cast<int64_t>(ints.size() + bytes.size()) +
           (null_id >= 0 ? 1 : 0);
  }
  int64_t FindOrInsert(int64_t key, bool* inserted) {
    auto [it, fresh] = ints.emplace(key, size());
    *inserted = fresh;
    return it->second;
  }
  int64_t FindOrInsert(const std::string& key, bool* inserted) {
    auto [it, fresh] = bytes.emplace(key, size());
    *inserted = fresh;
    return it->second;
  }
  int64_t NullId(bool* inserted) {
    *inserted = null_id < 0;
    if (null_id < 0) null_id = size();
    return null_id;
  }
};

// Drives a DenseKeyMap and its reference through the same calls.
class KeyMapDiff {
 public:
  void Insert(int64_t key) {
    bool got_new, want_new;
    int64_t got = map.FindOrInsert(key, &got_new);
    int64_t want = ref.FindOrInsert(key, &want_new);
    ASSERT_EQ(got, want) << "int key " << key;
    ASSERT_EQ(got_new, want_new) << "int key " << key;
  }
  void Insert(const std::string& key) {
    bool got_new, want_new;
    int64_t got = map.FindOrInsert(key, &got_new);
    int64_t want = ref.FindOrInsert(key, &want_new);
    ASSERT_EQ(got, want) << "byte key " << key;
    ASSERT_EQ(got_new, want_new) << "byte key " << key;
  }
  void Null() {
    bool got_new, want_new;
    ASSERT_EQ(map.NullId(&got_new), ref.NullId(&want_new));
    ASSERT_EQ(got_new, want_new);
  }
  void ExpectFind(int64_t key) {
    auto it = ref.ints.find(key);
    ASSERT_EQ(map.Find(key), it == ref.ints.end() ? -1 : it->second)
        << "int key " << key;
  }
  // Every reference key is found under its id; the slot array is a power
  // of two at most 3/4 full and fully counted by MemoryBytes.
  void ExpectConsistent() {
    ASSERT_EQ(map.size(), static_cast<size_t>(ref.size()));
    for (const auto& [key, id] : ref.ints) ASSERT_EQ(map.Find(key), id) << key;
    for (const auto& [key, id] : ref.bytes) ASSERT_EQ(map.Find(key), id);
    size_t cap = map.slot_capacity();
    if (!ref.ints.empty()) {
      ASSERT_GT(cap, 0u);
    }
    EXPECT_EQ(cap & (cap - 1), 0u) << "capacity " << cap;
    EXPECT_LE(ref.ints.size() * 4, cap * 3);
    EXPECT_GE(map.MemoryBytes(), cap * DenseKeyMap::kSlotBytes);
  }

  DenseKeyMap map;
  RefKeyMap ref;
};

std::vector<int64_t> EdgeKeys() {
  std::vector<int64_t> keys = {std::numeric_limits<int64_t>::min(),
                               std::numeric_limits<int64_t>::max(),
                               0,
                               -1,
                               std::numeric_limits<int64_t>::min() + 1,
                               std::numeric_limits<int64_t>::max() - 1,
                               1};
  // Keys differing only in their high bits, then only in their low bits.
  for (uint64_t i = 1; i < 256; ++i) {
    keys.push_back(static_cast<int64_t>(i << 56));
    keys.push_back(static_cast<int64_t>((i << 40) | 0x1234));
  }
  for (uint64_t i = 0; i < 256; ++i) {
    keys.push_back(static_cast<int64_t>(0xABCD000000000000ull | i));
    keys.push_back(static_cast<int64_t>(0xFFFFFFFF00000000ull | (i << 8)));
  }
  return keys;
}

TEST(DenseKeyMapTest, MatchesUnorderedMapDifferential) {
  Rng rng(1409);
  KeyMapDiff diff;
  // Edge keys (twice: the second pass must hit), interleaved with byte
  // keys and the NULL id in one dense sequence.
  std::vector<int64_t> edges = EdgeKeys();
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < edges.size(); ++i) {
      diff.Insert(edges[i]);
      if (i % 97 == 0) diff.Insert("edge-" + std::to_string(i));
      if (i == 300) diff.Null();
    }
  }
  diff.ExpectConsistent();
  // >= 1M inserts through many growths: fresh random keys, a repeating
  // small domain, and the edge keys again.
  for (int op = 0; op < 1200000; ++op) {
    uint64_t r = rng.Next64();
    switch (r % 16) {
      case 0:
      case 1:
      case 2:
      case 3:
      case 4:
        diff.Insert(static_cast<int64_t>(rng.Next64()));
        break;
      case 5:
        diff.Insert(edges[rng.Uniform(0, static_cast<int64_t>(edges.size()) -
                                             1)]);
        break;
      case 6:
        diff.ExpectFind(static_cast<int64_t>(rng.Next64()));
        break;
      case 7:
        diff.ExpectFind(rng.Uniform(-300000, 300000));
        break;
      default:
        diff.Insert(rng.Uniform(-300000, 300000));
        break;
    }
    if (op % 50000 == 0) {
      diff.Insert("byte-" + std::to_string(op % 7));
      diff.Null();
    }
    if (testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(diff.ref.ints.size(), size_t{500000});
  diff.ExpectConsistent();

  // Clear, then reuse: ids restart at 0, old keys are gone, the slot array
  // keeps its capacity (and its bytes stay accounted).
  size_t cap = diff.map.slot_capacity();
  diff.map.Clear();
  EXPECT_EQ(diff.map.size(), 0u);
  EXPECT_EQ(diff.map.slot_capacity(), cap);
  EXPECT_GE(diff.map.MemoryBytes(), cap * DenseKeyMap::kSlotBytes);
  for (int64_t key : edges) EXPECT_EQ(diff.map.Find(key), -1);
  diff.ref = RefKeyMap{};
  diff.Null();
  for (int64_t key : edges) {
    diff.Insert(key);
    diff.Insert(std::to_string(key));
  }
  diff.ExpectConsistent();
  EXPECT_EQ(diff.map.Find(edges[0]), 1);  // after the NULL id
}

TEST(JoinHashTableTest, ChainsDuplicates) {
  JoinHashTable table;
  ASSERT_TRUE(table.Init(MakeSchema(), {"i"}).ok());
  ASSERT_TRUE(table.AddBatch(MakeBatch()).ok());
  ASSERT_TRUE(table.AddBatch(MakeBatch()).ok());
  EXPECT_EQ(table.num_rows(), 6u);
  int matches_7 = 0, matches_9 = 0;
  table.ForEachMatch(int64_t{7}, [&](uint32_t) { ++matches_7; });
  table.ForEachMatch(int64_t{9}, [&](uint32_t) { ++matches_9; });
  EXPECT_EQ(matches_7, 4);
  EXPECT_EQ(matches_9, 2);
  EXPECT_GE(table.FindId(int64_t{7}), 0);
  EXPECT_EQ(table.FindId(int64_t{8}), -1);
  EXPECT_GT(table.MemoryBytes(), 0u);
  table.Clear();
  EXPECT_EQ(table.num_rows(), 0u);
  EXPECT_EQ(table.FindId(int64_t{7}), -1);
}

TEST(JoinHashTableTest, MaterializedColumnsPreserveValues) {
  JoinHashTable table;
  ASSERT_TRUE(table.Init(MakeSchema(), {"i"}).ok());
  ASSERT_TRUE(table.AddBatch(MakeBatch()).ok());
  const std::vector<ColumnVector>& cols = table.columns();
  table.ForEachMatch(int64_t{9}, [&](uint32_t row) {
    EXPECT_EQ(cols[1].i64[row], 100);
    EXPECT_EQ(cols[2].GetString(row), "x");
    EXPECT_DOUBLE_EQ(cols[3].f64[row], 1.0);
  });
}

TEST(DenseKeyMapTest, FindBatchMatchesFind) {
  Rng rng(2024);
  DenseKeyMap map;
  std::vector<int64_t> present = {std::numeric_limits<int64_t>::min()};
  // Batch sizes around the prefetch distance, over an empty map first;
  // every position of a batch gets present and absent keys over the rounds.
  auto check = [&](const std::string& what) {
    for (int round = 0; round < 20; ++round) {
      for (size_t n : {0, 1, 15, 16, 17, 33, 300}) {
        std::vector<int64_t> keys;
        for (size_t i = 0; i < n; ++i) {
          keys.push_back(rng.Chance(0.25)
                             ? static_cast<int64_t>(rng.Next64())  // absent
                             : present[static_cast<size_t>(rng.Uniform(
                                   0, static_cast<int64_t>(present.size()) -
                                          1))]);
        }
        std::vector<int64_t> ids(n, 12345);
        map.FindBatch(keys.data(), n, ids.data());
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(ids[i], map.Find(keys[i]))
              << what << " key " << keys[i] << " at " << i << " of " << n;
        }
      }
    }
  };
  check("empty");
  bool inserted;
  map.FindOrInsert(present[0], &inserted);
  check("one key");
  for (int64_t key : EdgeKeys()) present.push_back(key);
  for (int i = 0; i < 3000; ++i) present.push_back(rng.Uniform(-1000, 1000));
  for (int64_t key : present) map.FindOrInsert(key, &inserted);
  check("filled");
  map.Clear();
  check("cleared");
}

// Build keys (kNullKey marks a NULL) and the row payload p = row number.
constexpr int64_t kNullKey = std::numeric_limits<int64_t>::min();

Schema KeyRowSchema() {
  return Schema({{"k", TypeId::kInt64}, {"p", TypeId::kInt32}});
}

Batch KeyRows(const std::vector<int64_t>& keys, int32_t first_row) {
  Batch b;
  ColumnVector k(TypeId::kInt64), p(TypeId::kInt32);
  k.nulls.assign(keys.size(), 0);
  for (size_t r = 0; r < keys.size(); ++r) {
    k.i64.push_back(keys[r]);
    if (keys[r] == kNullKey) k.nulls[r] = 1;
    p.i32.push_back(first_row + static_cast<int32_t>(r));
  }
  b.columns = {std::move(k), std::move(p)};
  b.num_rows = keys.size();
  return b;
}

// Adds `batches` to `table` and checks, after each batch, that every key
// (and an absent one) yields exactly its rows newest first, and whether the
// table is chained yet.
void ExpectTableMatchesRows(JoinHashTable* table,
                            const std::vector<std::vector<int64_t>>& batches,
                            const std::vector<bool>& chained_after,
                            const std::string& what) {
  std::vector<int64_t> all;
  for (size_t b = 0; b < batches.size(); ++b) {
    ASSERT_TRUE(
        table->AddBatch(KeyRows(batches[b], static_cast<int32_t>(all.size())))
            .ok());
    all.insert(all.end(), batches[b].begin(), batches[b].end());
    std::string at = what + " after batch " + std::to_string(b);
    ASSERT_EQ(table->num_rows(), all.size()) << at;
    EXPECT_EQ(table->chained(), chained_after[b]) << at;
    std::vector<int64_t> probes = all;
    probes.push_back(-77);  // absent
    for (int64_t key : probes) {
      if (key == kNullKey) continue;
      std::vector<uint32_t> want;
      for (size_t r = all.size(); r-- > 0;) {
        if (all[r] == key) want.push_back(static_cast<uint32_t>(r));
      }
      std::vector<uint32_t> got;
      table->ForEachMatch(key, [&](uint32_t row) {
        got.push_back(row);
        EXPECT_EQ(table->columns()[1].i32[row], static_cast<int32_t>(row));
      });
      ASSERT_EQ(got, want) << at << " key " << key;
    }
  }
}

TEST(JoinHashTableTest, UniqueKeysStayUnchainedUntilARepeatOrNull) {
  const std::vector<int64_t> first = {10, 11, 12, 13, 14, 15};
  struct Case {
    std::string what;
    std::vector<int64_t> second;
    bool chained;
  };
  const std::vector<Case> cases = {
      {"unique", {20, 21, 22, 23}, false},
      {"repeat at first row", {12, 21, 22, 23}, true},
      {"repeat in the middle", {20, 21, 14, 23}, true},
      {"repeat at last row", {20, 21, 22, 10}, true},
      {"repeat within the batch", {20, 21, 21, 21}, true},
      {"NULL in the middle", {20, kNullKey, 22, 23}, true},
  };
  for (const Case& c : cases) {
    JoinHashTable table;
    ASSERT_TRUE(table.Init(KeyRowSchema(), {"k"}).ok());
    // A third batch after the switch keeps chaining rows and repeats.
    ExpectTableMatchesRows(&table, {first, c.second, {13, 30, 20, 31}},
                           {false, c.chained, true}, c.what);
  }
  // A NULL key as the very first row chains at once.
  JoinHashTable table;
  ASSERT_TRUE(table.Init(KeyRowSchema(), {"k"}).ok());
  ExpectTableMatchesRows(&table, {{kNullKey, 1, 2}, {3, 1}}, {true, true},
                         "NULL first");
}

TEST(JoinHashTableTest, ClearAndRefillAsSandwichGroups) {
  JoinHashTable table;
  ASSERT_TRUE(table.Init(KeyRowSchema(), {"k"}).ok());
  // Alternate chained and unique groups: Clear must forget the chains.
  ExpectTableMatchesRows(&table, {{1, 2, 1}, {2, 3}}, {true, true}, "group 0");
  table.Clear();
  EXPECT_EQ(table.num_rows(), 0u);
  EXPECT_FALSE(table.chained());
  EXPECT_EQ(table.FindId(int64_t{1}), -1);
  ExpectTableMatchesRows(&table, {{5, 6, 7}, {8}}, {false, false}, "group 1");
  table.Clear();
  ExpectTableMatchesRows(&table, {{9}, {9, 5}}, {false, true}, "group 2");
}

TEST(JoinHashTableTest, UniqueBuildKeepsNoChains) {
  constexpr size_t kRows = 5000;
  std::vector<int64_t> keys(kRows);
  for (size_t r = 0; r < kRows; ++r) keys[r] = static_cast<int64_t>(r * 7919);
  JoinHashTable unique;
  ASSERT_TRUE(unique.Init(KeyRowSchema(), {"k"}).ok());
  ASSERT_TRUE(unique.AddBatch(KeyRows(keys, 0)).ok());
  ASSERT_FALSE(unique.chained());
  // The same rows plus one repeat, which chains them all.
  JoinHashTable chained;
  ASSERT_TRUE(chained.Init(KeyRowSchema(), {"k"}).ok());
  ASSERT_TRUE(chained.AddBatch(KeyRows(keys, 0)).ok());
  ASSERT_TRUE(chained.AddBatch(KeyRows({keys[0]}, kRows)).ok());
  ASSERT_TRUE(chained.chained());

  DenseKeyMap key_map;
  bool inserted;
  for (int64_t key : keys) key_map.FindOrInsert(key, &inserted);
  auto column_bytes = [](const JoinHashTable& t) {
    uint64_t bytes = 0;
    for (const ColumnVector& c : t.columns()) bytes += ColumnVectorBytes(c);
    return bytes;
  };
  // Unique: columns and key slots only. Chained: 4 B per key id and 4 B
  // per row on top.
  EXPECT_EQ(unique.MemoryBytes(), column_bytes(unique) + key_map.MemoryBytes());
  EXPECT_GE(chained.MemoryBytes(),
            column_bytes(chained) + key_map.MemoryBytes() + 8 * kRows);
}

}  // namespace
}  // namespace exec
}  // namespace bdcc
